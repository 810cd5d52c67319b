"""Pitch-adaptive comb filter bank and its two filtering routes.

The bank holds one FIR comb per candidate period: taps ``w_-M..w_M`` spaced
``T`` samples apart, symmetric and summing to 1, so every harmonic of
``f_s/T`` passes at unit gain while energy between harmonics is attenuated.
The rows live in a sparse weight tensor of shape ``(N+1, 1, K, 1)`` with
``K = 2*M*T_max + 1``; the final row is an identity tap for unvoiced frames.

Two routes produce filtered frames:

* ``filter_all_candidates`` runs every row over every frame (the reference
  route, one output per candidate) followed by ``select_candidate``. Each
  candidate is a time-invariant FIR, so it filters the signal the chunks
  were cut from once per row and returns the frames as a strided view;
* ``filter_inference`` computes only each frame's selected candidate from
  shifted chunk slices.

They agree to float64 round-off; ``MacCounter`` tallies the multiply-add
cost of each route, by its per-frame definition, so the gap is measurable,
not anecdotal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .audio import PIPELINE_RATE
from .errors import ShapeError
from .grid import F0Grid, F0Track

TAP_TOL = 1e-9


@dataclass
class MacCounter:
    """Multiply-adds per route, each counted by its per-frame definition.

    ``parallel`` is ``nonzero_taps * frame * n_frames``, although the span
    fill computes each sample that frames share only once.
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
    weights = np.zeros((grid.size + 1, 1, k_len, 1))
    ks = np.arange(-order, order + 1)
    for i, t_i in enumerate(periods):
        weights[i, 0, center + ks * int(t_i), 0] = w
    weights[grid.size, 0, center, 0] = 1.0
    return CombFilterBank(
        order=order, taps=w, grid=grid, weights=weights, rounded_periods=periods
    )


def _check_chunks(bank: CombFilterBank, chunks: np.ndarray) -> int:
    if chunks.ndim != 2:
        raise ShapeError(f"chunks must be 2-D (chunk_size, n_frames), got {chunks.shape}")
    frame = chunks.shape[0] - 2 * bank.pad
    if frame <= 0:
        raise ShapeError(
            f"chunk length {chunks.shape[0]} too short for pad {bank.pad} per side"
        )
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


def _fill_rows(out: np.ndarray, rows: np.ndarray, signal: np.ndarray):
    """Filter ``signal`` with every row of ``rows`` into ``out``, one pass per nonzero weight.

    Row ``i`` of ``out`` is ``sum_j rows[i, j] * signal[j:j + L]``. Its first
    nonzero weight writes it; each later one is multiplied into one product
    buffer and added, in weight order.
    """
    span = out.shape[1]
    product = np.empty(span)
    for row, weights in zip(out, rows):
        js = np.flatnonzero(weights)
        if js.size == 0:  # a hand-built bank's empty row
            row[...] = 0.0
            continue
        np.multiply(weights[js[0]], signal[js[0]:js[0] + span], out=row)
        for j in js[1:]:
            np.multiply(weights[j], signal[j:j + span], out=product)
            row += product


def filter_all_candidates(
    bank: CombFilterBank,
    chunks: np.ndarray,
    counter: Optional[MacCounter] = None,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Run every candidate filter over every frame.

    ``chunks`` is (frame + 2*pad, n_frames); the result is a tensor
    (N+1, frame, n_frames) whose entry [i, s, t] cross-correlates chunk t with
    row i of ``bank.weights`` at valid positions only, so this route checks
    the weight tensor itself. Row N is the untouched center slice.

    Each row is a time-invariant FIR, so the rows filter the signal whose
    windows are the chunks once, over its ``L = (n_frames - 1)*hop + frame``
    output samples, and frame t is the read-only strided view
    ``[:, t*hop : t*hop + frame]`` of those filtered signals. Every sample is
    the same float operations, in the same order, as filtering frame t alone.

    ``out``, if given, receives the filtered signals: a C-contiguous float64
    (N+1, L) array, wholly overwritten, of which the result is a view.
    Anything else raises ``ShapeError``.
    """
    frame = _check_chunks(bank, chunks)
    n_frames = chunks.shape[1]
    rows = bank.weights[:, 0, :, 0]
    signal, hop = _signal(chunks)
    shape = (rows.shape[0], (n_frames - 1) * hop + frame if n_frames else 0)
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ShapeError(f"out must be C-contiguous float64 {shape}, got {out.dtype} {out.shape}")
    _fill_rows(out, rows, signal)
    if counter is not None:
        counter.parallel += bank.nonzero_taps() * frame * n_frames
    return as_strided(
        out, (shape[0], frame, n_frames), (out.strides[0], out.itemsize, hop * out.itemsize),
        writeable=False,
    )


def select_candidate(all_candidates: np.ndarray, track: F0Track) -> np.ndarray:
    """Pick each frame's row from the candidate tensor: one-hot contraction."""
    if all_candidates.ndim != 3:
        raise ShapeError(f"expected (rows, frame, n_frames), got {all_candidates.shape}")
    n_rows, _, n_frames = all_candidates.shape
    _check_track(track, n_frames, n_rows)
    return all_candidates[track.indices, :, np.arange(n_frames)].T


def filter_inference(
    bank: CombFilterBank,
    chunks: np.ndarray,
    track: F0Track,
    counter: Optional[MacCounter] = None,
) -> np.ndarray:
    """Filter each frame with its selected candidate only.

    Voiced frame t with rounded period T sums the ``2M+1`` slices
    ``chunks[pad - k*T : pad - k*T + frame, t]`` weighted by the taps;
    unvoiced frames pass the center slice through exactly.
    """
    frame = _check_chunks(bank, chunks)
    _check_track(track, chunks.shape[1], bank.grid.label_size)
    voiced = track.voiced_mask(bank.grid)
    frames_first, m, pad = chunks.T, bank.order, bank.pad
    out = np.zeros((chunks.shape[1], frame))
    for t in np.flatnonzero(voiced):
        period = int(bank.rounded_periods[track.indices[t]])
        row = out[t]
        for k in range(-m, m + 1):
            base = pad - k * period
            row += bank.taps[k + m] * frames_first[t, base:base + frame]
    out[~voiced] = frames_first[~voiced, pad:pad + frame]
    if counter is not None:
        counter.inference += len(bank.taps) * frame * int(voiced.sum())
    return out.T


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
