"""Pitch-adaptive comb filter bank, its two filtering routes and their check.

The bank holds one FIR comb per candidate period: taps ``w_-M..w_M`` spaced
``T`` samples apart, symmetric and summing to 1, so every harmonic of
``f_s/T`` passes at unit gain while energy between harmonics is attenuated.
The rows live in a sparse weight tensor of shape ``(N+1, 1, K, 1)`` with
``K = 2*M*T_max + 1``; the final row is an identity tap for unvoiced frames.

The reference route, ``filter_all_candidates`` then ``select_candidate``,
runs every row of the tensor over every frame; it is one step of
``candidate_rows``, which refills one buffer a few rows at a time. The
inference route, ``filter_inference``, filters each frame with the taps of its
selected candidate only. Both scale the signal once per distinct weight, then
only add windows of the scaled signals in the order of multiplying each weight
in turn, so they agree to float64 round-off; ``MacCounter`` tallies each
route's multiply-adds by its per-frame definition. ``verify_routes`` measures
their deviation over many tracks of one signal, in blocks of bounded memory,
through the same inference kernel as ``filter_inference``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .audio import PIPELINE_RATE
from .errors import ShapeError
from .framing import FrameConfig, windows
from .grid import F0Grid, F0Track
from .helper import BLOCK_FRAMES

TAP_TOL = 1e-9

#: Candidate rows :func:`verify_routes` filters at a time: 8 rows of a 64-frame span are 1.6 MB.
VERIFY_ROWS = 8


@dataclass
class MacCounter:
    """Multiply-adds per route, each counted by its per-frame definition.

    ``parallel`` is ``nonzero_taps * frame * n_frames`` and ``inference`` is
    ``len(taps) * frame`` per voiced frame, although the routes compute each
    sample that frames share once and multiply by each distinct weight once.
    """

    parallel: int = 0
    inference: int = 0

    def ratio(self) -> float:
        """Parallel cost over inference cost; inf when inference is free."""
        if self.inference == 0:
            return float("inf")
        return self.parallel / self.inference


@dataclass(frozen=True)
class CombFilterBank:
    order: int
    taps: np.ndarray
    grid: F0Grid
    weights: np.ndarray
    rounded_periods: np.ndarray

    @property
    def pad(self) -> int:
        """Context needed on each side of a frame: M * T_max samples."""
        return self.order * int(self.rounded_periods.max())

    def nonzero_taps(self) -> int:
        return int(np.count_nonzero(self.weights))


def build_bank(grid: F0Grid, order: int = 1, taps: Optional[Sequence] = None) -> CombFilterBank:
    """Construct the bank for a grid; derives taps from a Hanning window.

    Custom ``taps`` (length ``2*order + 1``) support loading externally
    learned coefficients; they must be symmetric and sum to 1 within 1e-9.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    n_taps = 2 * order + 1
    if taps is None:
        w = np.hanning(n_taps + 2)[1:-1]
        w = w / w.sum()
    else:
        w = np.asarray(taps, dtype=np.float64)
        if w.shape != (n_taps,):
            raise ValueError(f"need {n_taps} taps for order {order}, got {w.shape}")
        if not np.all(np.abs(w - w[::-1]) <= TAP_TOL):
            raise ValueError("taps must be symmetric")
        if abs(w.sum() - 1.0) > TAP_TOL:
            raise ValueError(f"taps must sum to 1, got {w.sum()!r}")

    periods = grid.rounded_periods()
    t_max = int(periods.max())
    center = order * t_max
    k_len = 2 * center + 1
    if (grid.size + 1) * k_len > np.iinfo(np.intp).max // 8:  # more bytes than numpy can shape
        raise MemoryError(f"a comb bank of {grid.size + 1} x {k_len} float64 weights")
    weights = np.zeros((grid.size + 1, 1, k_len, 1))
    ks = np.arange(-order, order + 1)
    for i, t_i in enumerate(periods):
        weights[i, 0, center + ks * int(t_i), 0] = w
    weights[grid.size, 0, center, 0] = 1.0
    return CombFilterBank(order=order, taps=w, grid=grid, weights=weights, rounded_periods=periods)


def _check_chunks(bank: CombFilterBank, chunks: np.ndarray) -> int:
    if chunks.ndim != 2:
        raise ShapeError(f"chunks must be 2-D (chunk_size, n_frames), got {chunks.shape}")
    frame = chunks.shape[0] - 2 * bank.pad
    if frame <= 0:
        raise ShapeError(f"chunk length {chunks.shape[0]} too short for pad {bank.pad} per side")
    return frame


def _check_track(track: F0Track, n_frames: int, n_rows: int) -> None:
    """One index per frame, each naming a row of the bank: ``[0, n_rows)``."""
    if len(track) != n_frames:
        raise ShapeError(f"track has {len(track)} frames, expected {n_frames}")
    if np.any((track.indices < 0) | (track.indices >= n_rows)):
        raise ShapeError(f"track indices must lie in [0, {n_rows - 1}]")


def _signal(chunks: np.ndarray):
    """The signal and hop whose windows ``signal[t*hop:][:C]`` are the columns.

    The pipeline's chunks, overlapping strided columns of one buffer, are
    read in place; any other layout is copied column after column, with the
    hop equal to the chunk length ``C``.
    """
    size, n_frames = chunks.shape
    item = chunks.itemsize
    hop, rest = divmod(chunks.strides[1], item)
    # with no frames the span would be C - hop samples of an empty array
    if n_frames and chunks.strides[0] == item and rest == 0 and 0 < hop <= size:
        return as_strided(chunks, ((n_frames - 1) * hop + size,), (item,), writeable=False), hop
    return np.ascontiguousarray(chunks.T).ravel(), size


def _scaled(weights: np.ndarray, signal: np.ndarray) -> list:
    """``weights[k] * signal`` for each k, computed once per distinct weight.

    Each weight is the float64 scalar read from its array, so a float32
    signal is scaled in float64, as multiplying it in place would be.
    """
    by_bits = {}
    for w in weights:
        if w.tobytes() not in by_bits:
            by_bits[w.tobytes()] = np.multiply(w, signal)
    return [by_bits[w.tobytes()] for w in weights]


def candidate_rows(
    bank: CombFilterBank, chunks: np.ndarray, out: np.ndarray, counter: Optional[MacCounter] = None
):
    """Filter the signal behind ``chunks`` with every row of the bank, ``len(out)`` rows a step.

    ``out`` is a C-contiguous float64 ``(G, L)`` buffer with ``G >= 1`` and
    ``L = (n_frames - 1)*hop + frame``, else the first step raises
    ``ShapeError``. Each step refills ``out`` (the last step a prefix) with
    rows ``first .. first+G-1`` and yields ``(first, view)``: ``view[r, :, t]``
    is frame t of row ``first + r``, a read-only strided view of ``out`` valid
    until the next step. Each step adds its rows' ``nonzero_taps * frame *
    n_frames`` to ``counter.parallel``.

    Row ``i`` is ``sum_j w[i, j] * signal[j:j + L]``, from one scan of the
    tensor. Rows with the same sequence of nonzero weights share the signal
    scaled once per distinct weight; a row adds its first two windows of
    those, then each later one, in weight order: the float operations of
    multiplying each weight into the row in turn, bit for bit.
    """
    frame = _check_chunks(bank, chunks)
    n_frames = chunks.shape[1]
    signal, hop = _signal(chunks)
    span = (n_frames - 1) * hop + frame if n_frames else 0
    if (out.ndim != 2 or not len(out) or out.shape[1] != span or out.dtype != np.float64
            or not out.flags.c_contiguous):
        raise ShapeError(
            f"out must be C-contiguous float64 (rows >= 1, {span}), got {out.dtype} {out.shape}"
        )
    rows = bank.weights[:, 0, :, 0]
    flat = np.flatnonzero(rows.ravel() != 0)
    row_of, cols = divmod(flat, rows.shape[1])
    values = rows.ravel()[flat]
    bounds = np.searchsorted(row_of, np.arange(len(rows) + 1)).tolist()
    products = {}  # the scaled signals of each weight sequence met so far
    for first in range(0, len(rows), len(out)):
        filled = out[:len(rows) - first]
        for row, i in zip(filled, range(first, len(rows))):
            weights = values[bounds[i]:bounds[i + 1]]
            key = weights.tobytes()
            if key not in products:
                products[key] = _scaled(weights, signal)
            starts = cols[bounds[i]:bounds[i + 1]].tolist()
            shifted = [p[j:j + span] for p, j in zip(products[key], starts)]
            if len(shifted) < 2:  # one weight, or a hand-built bank's empty row
                row[:] = shifted[0] if shifted else 0.0
                continue
            np.add(shifted[0], shifted[1], out=row)
            for window in shifted[2:]:
                row += window
        if counter is not None:
            counter.parallel += (bounds[first + len(filled)] - bounds[first]) * frame * n_frames
        yield first, as_strided(
            filled, (len(filled), frame, n_frames),
            (filled.strides[0], filled.itemsize, hop * filled.itemsize), writeable=False,
        )


def filter_all_candidates(
    bank: CombFilterBank, chunks: np.ndarray, counter: Optional[MacCounter] = None
) -> np.ndarray:
    """Run every candidate filter over every frame.

    ``chunks`` is (frame + 2*pad, n_frames); the result is a tensor
    (N+1, frame, n_frames) whose entry [i, s, t] cross-correlates chunk t with
    row i of ``bank.weights`` at valid positions only, so this route checks
    the weight tensor itself. Row N is the untouched center slice.

    Each row is a time-invariant FIR, so the rows filter the signal whose
    windows are the chunks once, over its ``L = (n_frames - 1)*hop + frame``
    output samples, and frame t is the read-only strided view
    ``[:, t*hop : t*hop + frame]`` of those filtered signals, held in one
    fresh (N+1, L) buffer. This is one step of :func:`candidate_rows` over
    all ``N+1`` rows; every sample is the same float operations, in the same
    order, as filtering frame t alone.
    """
    frame = _check_chunks(bank, chunks)
    n_frames = chunks.shape[1]
    _, hop = _signal(chunks)
    out = np.empty((len(bank.weights), (n_frames - 1) * hop + frame if n_frames else 0))
    [(_, all_candidates)] = candidate_rows(bank, chunks, out, counter)
    return all_candidates


def select_candidate(all_candidates: np.ndarray, track: F0Track) -> np.ndarray:
    """Pick each frame's row from the candidate tensor: one-hot contraction."""
    if all_candidates.ndim != 3:
        raise ShapeError(f"expected (rows, frame, n_frames), got {all_candidates.shape}")
    n_rows, _, n_frames = all_candidates.shape
    _check_track(track, n_frames, n_rows)
    return all_candidates[track.indices, :, np.arange(n_frames)].T


def _infer(bank: CombFilterBank, signal: np.ndarray, hop: int, frames: np.ndarray,
           indices: np.ndarray, out: np.ndarray, counter: Optional[MacCounter]) -> None:
    """Filter chunk ``frames[r]``, ``signal[t*hop:][:frame + 2*pad]`` for chunk t, with
    row ``indices[r]`` into ``out[r]``; the pairs may come in any order and repeat a frame.

    An unvoiced pair copies its center slice. The stretch of the signal that the
    voiced pairs reach is scaled once per distinct tap, and each voiced pair adds
    its ``2M+1`` windows of those onto zeros in tap order, as weighting each slice
    in turn would. Reads the taps and rounded periods, never the weight tensor.
    """
    m, pad, frame = bank.order, bank.pad, out.shape[1]
    voiced = indices != bank.grid.unvoiced_index
    if not voiced.all():
        # row t of this view is chunk t's center slice
        out[~voiced] = sliding_window_view(signal[pad:], frame)[::hop][frames[~voiced]]
    rs = np.flatnonzero(voiced)
    if rs.size:
        periods = bank.rounded_periods[indices[rs]]
        starts = frames[rs] * hop + pad  # where each voiced pair's center slice starts
        lo = int((starts - m * periods).min())
        hi = int((starts + m * periods).max()) + frame
        products = _scaled(bank.taps, signal[lo:hi])
        out[rs] = 0.0
        for r, start, period in zip(rs.tolist(), (starts - lo).tolist(), periods.tolist()):
            row = out[r]
            for k, product in zip(range(-m, m + 1), products):
                base = start - k * period
                row += product[base:base + frame]
    if counter is not None:
        counter.inference += len(bank.taps) * frame * rs.size


def filter_inference(
    bank: CombFilterBank, chunks: np.ndarray, track: F0Track, counter: Optional[MacCounter] = None
) -> np.ndarray:
    """Filter each frame with its selected candidate only.

    Voiced frame t with rounded period T sums the ``2M+1`` slices
    ``chunks[pad - k*T : pad - k*T + frame, t]`` weighted by the taps;
    unvoiced frames pass the center slice through exactly. The frames run
    through the same kernel as :func:`verify_routes`' inference route.
    """
    frame = _check_chunks(bank, chunks)
    _check_track(track, chunks.shape[1], bank.grid.label_size)
    out = np.empty((chunks.shape[1], frame))
    _infer(bank, *_signal(chunks), np.arange(len(out)), track.indices, out, counter)
    return out.T


def verify_routes(
    bank: CombFilterBank, samples: np.ndarray, tracks: np.ndarray, frame_cfg: FrameConfig,
    counter: Optional[MacCounter] = None,
) -> float:
    """The largest deviation between the two routes over ``tracks``, an
    ``(n_tracks, n_frames)`` matrix of bank rows for the frames of ``samples``.

    Each block of ``BLOCK_FRAMES`` frames is framed from its own span and its
    candidates filled ``VERIFY_ROWS`` rows at a time. The (track, frame) pairs
    that pick a row of a group go at most ``BLOCK_FRAMES`` at a time through the
    kernel of :func:`filter_inference`, so memory is bounded at any number of
    tracks. ``counter`` gets both routes' multiply-adds.
    """
    hop, frame, pad = frame_cfg.hop_size, frame_cfg.frame_size, bank.pad
    n_frames = frame_cfg.n_frames(len(samples))
    tracks = np.asarray(tracks, dtype=np.int64)
    if tracks.ndim != 2 or tracks.shape[1] != n_frames:
        raise ShapeError(f"tracks must be (n_tracks, {n_frames}), got {tracks.shape}")
    _check_track(F0Track(tracks.ravel()), tracks.size, bank.grid.label_size)
    # buffers that every block refills (the last a prefix): fresh ones would be faulted in
    step = min(BLOCK_FRAMES, n_frames)
    rows, fast = np.empty(VERIFY_ROWS * ((step - 1) * hop + frame)), np.empty((step, frame))
    max_dev = 0.0
    for lo in range(0, n_frames, BLOCK_FRAMES):
        n = min(BLOCK_FRAMES, n_frames - lo)
        # this block's chunks only: a view of a padded copy of its own span
        chunks = windows(samples, n, hop, lo * hop - pad, frame + 2 * pad).T
        signal, _ = _signal(chunks)
        picks, span = tracks[:, lo:lo + n], (n - 1) * hop + frame
        out = rows[:VERIFY_ROWS * span].reshape(VERIFY_ROWS, span)
        for first, candidates in candidate_rows(bank, chunks, out, counter):
            k, t = np.nonzero((picks >= first) & (picks < first + len(candidates)))
            picked = picks[k, t]
            for s in range(0, len(t), step):
                ts, indices = t[s:s + step], picked[s:s + step]
                reference = candidates[indices - first, :, ts]
                _infer(bank, signal, hop, ts, indices, fast[:len(ts)], counter)
                np.subtract(reference, fast[:len(ts)], out=reference)
                max_dev = max(max_dev, float(np.abs(reference, out=reference).max()))
    return max_dev


def frequency_response(bank: CombFilterBank, candidate: int, n_points: int = 1024):
    """Magnitude response of one candidate comb on [0, f_s/2].

    Returns (hertz, magnitude) arrays of length ``n_points``; the response is
    |sum_k w_k exp(-j*omega*k*T)|, unity at every harmonic of f_s/T.
    """
    if not 0 <= candidate < bank.grid.size:
        raise ValueError(f"candidate {candidate} outside [0, {bank.grid.size})")
    t_i = int(bank.rounded_periods[candidate])
    freqs = np.linspace(0.0, PIPELINE_RATE / 2.0, n_points)
    omega = 2.0 * np.pi * freqs / PIPELINE_RATE
    ks = np.arange(-bank.order, bank.order + 1)
    response = np.exp(-1j * np.outer(omega, ks * t_i)) @ bank.taps
    return freqs, np.abs(response)
