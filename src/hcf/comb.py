"""Pitch-adaptive comb filter bank and its two filtering routes.

The bank holds one FIR comb per candidate period: taps ``w_-M..w_M`` spaced
``T`` samples apart, symmetric and summing to 1, so every harmonic of
``f_s/T`` passes at unit gain while energy between harmonics is attenuated.
The rows live in a sparse weight tensor of shape ``(N+1, 1, K, 1)`` with
``K = 2*M*T_max + 1``; the final row is an identity tap for unvoiced frames.

Two routes produce filtered frames:

* ``filter_all_candidates`` runs every row over every frame (the reference
  route, one output per candidate) followed by ``select_candidate``;
* ``filter_inference`` computes only each frame's selected candidate from
  shifted chunk slices.

They agree to float64 round-off; ``MacCounter`` tallies the multiply-add
cost of each route so the gap is measurable, not anecdotal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .audio import PIPELINE_RATE
from .errors import ShapeError
from .grid import F0Grid, F0Track
from .helper import overlap

TAP_TOL = 1e-9

#: Blocks of rows that ``filter_all_candidates`` shares between two threads.
ROW_BLOCKS = 8


@dataclass
class MacCounter:
    """Tally of multiply-add operations actually performed per route."""

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


def _fill_rows(out: np.ndarray, rows: np.ndarray, frames_first: np.ndarray, lo: int, hi: int):
    """Write candidate rows ``lo .. hi - 1`` of ``out``, one pass per nonzero weight.

    A row's first nonzero weight writes it; each later one is multiplied into
    one product buffer and added, in weight order.
    """
    frame = out.shape[2]
    product = np.empty(out.shape[1:])
    for i in range(lo, hi):
        row, js = out[i], np.flatnonzero(rows[i])
        if js.size == 0:  # a hand-built bank's empty row
            row[...] = 0.0
            continue
        np.multiply(rows[i, js[0]], frames_first[:, js[0]:js[0] + frame], out=row)
        for j in js[1:]:
            np.multiply(rows[i, j], frames_first[:, j:j + frame], out=product)
            row += product


def filter_all_candidates(
    bank: CombFilterBank, chunks: np.ndarray, counter: Optional[MacCounter] = None
) -> np.ndarray:
    """Run every candidate filter over every frame.

    ``chunks`` is (frame + 2*pad, n_frames); the result is a tensor
    (N+1, frame, n_frames) whose entry [i, s, t] cross-correlates chunk t with
    row i of ``bank.weights`` at valid positions only, so this route checks
    the weight tensor itself. Row N is the untouched center slice.

    The rows are filled in ``ROW_BLOCKS`` blocks, shared between the calling
    thread and one helper thread (see :func:`hcf.helper.overlap`); each block
    writes only its own rows of the one tensor.
    """
    frame = _check_chunks(bank, chunks)
    rows = bank.weights[:, 0, :, 0]
    frames_first = chunks.T
    n_rows = rows.shape[0]
    out = np.empty((n_rows, chunks.shape[1], frame))
    per_block = -(-n_rows // ROW_BLOCKS)
    starts = range(0, n_rows, per_block)

    def fill_block(b):
        _fill_rows(out, rows, frames_first, starts[b], min(starts[b] + per_block, n_rows))

    overlap(n_blocks=len(starts), run=fill_block, emit=lambda _: None)
    if counter is not None:
        counter.parallel += bank.nonzero_taps() * frame * chunks.shape[1]
    return out.transpose(0, 2, 1)


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
