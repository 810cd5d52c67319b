"""Pitch-adaptive comb filter bank, its two filtering routes and their check.

The bank holds one FIR comb per candidate period: taps ``w_-M..w_M`` spaced
``T`` samples apart, symmetric and summing to 1, so every harmonic of
``f_s/T`` passes at unit gain while energy between harmonics is attenuated.
The rows live in a sparse weight tensor of shape ``(N+1, 1, K, 1)`` with
``K = 2*M*T_max + 1``; the final row is an identity tap for unvoiced frames.

The reference route, ``filter_all_candidates`` then ``select_candidate``, runs
every row of the tensor over every frame; the inference route,
``filter_inference``, each frame's selected candidate only. Both run one pair
kernel, ``_filter``, which filters chunk ``frames[r]`` with row ``indices[r]`` of a
row table: the reference route's, ``_scan``, reads only the weight tensor, and the
inference route's, ``_tap_rows``, only the taps and rounded periods. The kernel
scales the signal once per distinct weight, then only adds windows of the scaled
signals in the order of multiplying each weight in turn, so the routes agree to
float64 round-off. ``verify_routes`` measures their deviation over many tracks of
one signal on the distinct (frame, row) pairs the tracks pick; ``MacCounter``
tallies each route's multiply-adds by its per-frame definition. Every track a
route takes is checked by :func:`hcf.grid.check_track`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .audio import PIPELINE_RATE
from .errors import ShapeError
from .framing import FrameConfig, block, check_size
from .grid import F0Grid, F0Track, check_track
from .helper import blocks

TAP_TOL = 1e-9


@dataclass
class MacCounter:
    """Multiply-adds per route, each counted by its per-frame definition.

    ``parallel`` is ``nonzero_taps * frame * n_frames`` and ``inference`` is
    ``len(taps) * frame`` per voiced frame of each track. The routes count, not
    their shared pair kernel, which multiplies by each distinct weight other
    than 1.0 once, while ``filter_all_candidates`` computes each
    sample that frames share once and ``verify_routes`` filters only the
    (frame, row) pairs that the tracks pick.
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
    taps: np.ndarray
    grid: F0Grid
    weights: np.ndarray

    @property
    def order(self) -> int:
        """M, from the ``2M + 1`` taps; the periods are ``grid.rounded_periods()``."""
        return len(self.taps) // 2

    @property
    def pad(self) -> int:
        """Context needed on each side of a frame: M * T_max samples."""
        return self.order * int(self.grid.rounded_periods().max())

    def nonzero_taps(self) -> int:
        return int(np.count_nonzero(self.weights))

    @cached_property
    def _tap_table(self) -> list:
        """:func:`_tap_rows` of this bank, built once on first use, since
        ``enhance`` filters every block with it."""
        return _tap_rows(self)


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
    check_size((grid.size + 1) * k_len, f"a comb bank of {grid.size + 1} x {k_len} float64 weights")
    weights = np.zeros((grid.size + 1, 1, k_len, 1))
    ks = np.arange(-order, order + 1)
    weights[np.arange(grid.size)[:, None], 0, center + np.outer(periods, ks), 0] = w
    weights[grid.size, 0, center, 0] = 1.0
    return CombFilterBank(taps=w, grid=grid, weights=weights)


def _check_chunks(bank: CombFilterBank, chunks: np.ndarray) -> int:
    if chunks.ndim != 2:
        raise ShapeError(f"chunks must be 2-D (chunk_size, n_frames), got {chunks.shape}")
    frame = chunks.shape[0] - 2 * bank.pad
    if frame <= 0:
        raise ShapeError(f"chunk length {chunks.shape[0]} too short for pad {bank.pad} per side")
    return frame


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
    signal is scaled in float64, as multiplying it in place would be; a weight
    of 1.0 gives the signal itself, since ``x * 1.0`` is ``x`` bit for bit.
    """
    by_bits = {np.float64(1.0).tobytes(): signal}
    for w in weights:
        if w.tobytes() not in by_bits:
            by_bits[w.tobytes()] = np.multiply(w, signal)
    return [by_bits[w.tobytes()] for w in weights]


def _scan(weights: np.ndarray) -> list:
    """Each row of a ``(N+1, 1, K, 1)`` weight tensor as ``(key, nonzero weights, their
    columns)``, from one scan of its nonzeros; ``key`` is the weights' bytes."""
    rows = weights[:, 0, :, 0]
    flat = np.flatnonzero(rows.ravel() != 0)
    row_of, cols = divmod(flat, rows.shape[1])
    values = rows.ravel()[flat]
    bounds = np.searchsorted(row_of, np.arange(len(rows) + 1)).tolist()
    return [(values[a:b].tobytes(), values[a:b], cols[a:b].tolist())
            for a, b in zip(bounds, bounds[1:])]


def _tap_rows(bank: CombFilterBank) -> list:
    """The bank's rows in :func:`_scan`'s form, from the taps and rounded periods
    alone: voiced row i weights columns ``pad - k*T_i`` for ``k = -M..M`` with the
    taps in tap order, and the unvoiced row weights column ``pad`` with 1.0."""
    cols = bank.pad - np.outer(bank.grid.rounded_periods(), np.arange(-bank.order, bank.order + 1))
    key, one = bank.taps.tobytes(), np.ones(1)
    return [(key, bank.taps, c) for c in cols.tolist()] + [(one.tobytes(), one, [bank.pad])]


def _filter(rows: list, signal: np.ndarray, hop: int, frames: np.ndarray,
            indices: np.ndarray, out: np.ndarray) -> None:
    """Filter chunk ``frames[r]``, ``signal[t*hop:]`` for chunk t, with row ``indices[r]``
    of a row table, :func:`_scan`'s or :func:`_tap_rows`', into ``out[r]``; the pairs
    may come in any order.

    The stretch the pairs reach is scaled once per distinct weight of each weight
    sequence their rows share; a pair copies its first window of those, then adds
    each later one in place, in weight order: the float operations of multiplying
    each weight into the frame in turn, bit for bit. A row with no weight gives zeros.
    """
    if not len(frames):
        return
    frame, lo = out.shape[1], int(frames.min()) * hop
    picked = [rows[i] for i in indices.tolist()]
    reach = max((max(cols) for _, _, cols in picked if cols), default=0) + frame
    stretch = signal[lo:int(frames.max()) * hop + reach]
    products = {}  # the scaled stretches of each weight sequence met so far
    for row, start, (key, weights, cols) in zip(out, (frames * hop - lo).tolist(), picked):
        if key not in products:
            products[key] = _scaled(weights, stretch)
        shifted = [p[start + j:start + j + frame] for p, j in zip(products[key], cols)]
        row[:] = shifted[0] if shifted else 0.0  # a copy, so a -0.0 product stays -0.0
        for window in shifted[1:]:
            row += window


def filter_all_candidates(
    bank: CombFilterBank, chunks: np.ndarray, counter: Optional[MacCounter] = None
) -> np.ndarray:
    """Run every candidate filter over every frame.

    ``chunks`` is (frame + 2*pad, n_frames); the result is a tensor
    (N+1, frame, n_frames) whose entry [i, s, t] cross-correlates chunk t with
    row i of ``bank.weights`` at valid positions only, so this route checks
    the weight tensor itself. Row N is the untouched center slice.

    Each row is a time-invariant FIR, so :func:`_filter` filters the signal
    whose windows are the chunks once per row, as one frame of its
    ``L = (n_frames - 1)*hop + frame`` output samples, and frame t is the
    read-only strided view ``[:, t*hop : t*hop + frame]`` of those filtered
    signals, held in one fresh (N+1, L) buffer. Every sample is the same float
    operations, in the same order, as filtering frame t alone.
    """
    frame = _check_chunks(bank, chunks)
    n_frames = chunks.shape[1]
    signal, hop = _signal(chunks)
    n_rows = len(bank.weights)
    out = np.empty((n_rows, (n_frames - 1) * hop + frame if n_frames else 0))
    _filter(_scan(bank.weights), signal, hop, np.zeros(n_rows, dtype=np.intp),
            np.arange(n_rows), out)
    if counter is not None:
        counter.parallel += bank.nonzero_taps() * frame * n_frames
    return as_strided(out, (n_rows, frame, n_frames),
                      (out.strides[0], out.itemsize, hop * out.itemsize), writeable=False)


def select_candidate(all_candidates: np.ndarray, track: F0Track) -> np.ndarray:
    """Pick each frame's row from the candidate tensor: one-hot contraction."""
    if all_candidates.ndim != 3:
        raise ShapeError(f"expected (rows, frame, n_frames), got {all_candidates.shape}")
    n_rows, _, n_frames = all_candidates.shape
    check_track(track, n_rows, n_frames)
    return all_candidates[track.indices, :, np.arange(n_frames)].T


def filter_inference(
    bank: CombFilterBank, chunks: np.ndarray, track: F0Track, counter: Optional[MacCounter] = None
) -> np.ndarray:
    """Filter each frame with its selected candidate only.

    Voiced frame t with rounded period T sums the ``2M+1`` slices
    ``chunks[pad - k*T : pad - k*T + frame, t]`` weighted by the taps;
    unvoiced frames pass the center slice through exactly. The frames run
    through :func:`_filter` with the rows of :func:`_tap_rows`, as the inference
    route of :func:`verify_routes` does.
    """
    frame = _check_chunks(bank, chunks)
    check_track(track, bank.grid.label_size, chunks.shape[1])
    out = np.empty((chunks.shape[1], frame))
    _filter(bank._tap_table, *_signal(chunks), np.arange(len(out)), track.indices, out)
    if counter is not None:
        voiced = int(np.count_nonzero(track.indices != bank.grid.unvoiced_index))
        counter.inference += len(bank.taps) * frame * voiced
    return out.T


def verify_routes(
    bank: CombFilterBank, samples: np.ndarray, tracks: np.ndarray, frame_cfg: FrameConfig,
    counter: Optional[MacCounter] = None,
) -> float:
    """The largest deviation between the two routes over ``tracks``, an
    ``(n_tracks, n_frames)`` matrix of bank rows for the frames of ``samples``.

    Each of :func:`hcf.helper.blocks`' blocks is framed from its own span by
    :func:`hcf.framing.block`. The distinct (frame, row) pairs its tracks pick go
    frame after frame, at most a block's length at a time, through :func:`_filter`
    once with each route's row table, so memory is bounded at any number of tracks
    and the weight tensor is checked against the taps and periods. ``counter`` gets
    each route's multiply-adds by its per-frame definition.
    """
    frame, pad = frame_cfg.frame_size, bank.pad
    n_frames = frame_cfg.n_frames(len(samples))
    tracks = np.asarray(tracks)
    if tracks.ndim != 2 or tracks.shape[1] != n_frames:
        raise ShapeError(f"tracks must be (n_tracks, {n_frames}), got {tracks.shape}")
    check_track(F0Track(tracks.ravel()), bank.grid.label_size)  # names a flat position
    if counter is not None:
        counter.parallel += bank.nonzero_taps() * frame * n_frames
        voiced = int(np.count_nonzero(tracks != bank.grid.unvoiced_index))
        counter.inference += len(bank.taps) * frame * voiced
    # buffers that every block refills (the last a prefix): fresh ones would be faulted in
    spans = blocks(n_frames)
    step = spans[0][1]
    picked = np.empty((step, bank.grid.label_size), dtype=bool)
    reference, fast = np.empty((2, step, frame))
    rows, taps, max_dev = _scan(bank.weights), bank._tap_table, 0.0
    for lo, n in spans:
        signal, hop = _signal(block(samples, frame_cfg, lo, n, pad))
        pairs = picked[:n]
        pairs[:] = False
        pairs[np.arange(n), tracks[:, lo:lo + n]] = True
        ts, picks = np.nonzero(pairs)  # frame-major, so a step reaches a short stretch
        for s in range(0, len(ts), step):
            t, i = ts[s:s + step], picks[s:s + step]
            want, got = reference[:len(t)], fast[:len(t)]
            _filter(rows, signal, hop, t, i, want)
            _filter(taps, signal, hop, t, i, got)
            np.subtract(want, got, out=want)
            max_dev = np.maximum(max_dev, np.abs(want, out=want).max())  # keeps a NaN
    return float(max_dev)


def frequency_response(bank: CombFilterBank, candidate: int, n_points: int = 1024):
    """Magnitude response of one candidate comb on [0, f_s/2].

    Returns (hertz, magnitude) arrays of length ``n_points``; the response is
    |sum_k w_k exp(-j*omega*k*T)|, unity at every harmonic of f_s/T.
    """
    if not 0 <= candidate < bank.grid.size:
        raise ValueError(f"candidate {candidate} outside [0, {bank.grid.size})")
    t_i = int(bank.grid.rounded_periods()[candidate])
    freqs = np.linspace(0.0, PIPELINE_RATE / 2.0, n_points)
    omega = 2.0 * np.pi * freqs / PIPELINE_RATE
    ks = np.arange(-bank.order, bank.order + 1)
    response = np.exp(-1j * np.outer(omega, ks * t_i)) @ bank.taps
    return freqs, np.abs(response)
