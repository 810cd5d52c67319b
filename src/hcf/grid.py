"""Discrete fundamental-frequency lattice, label vectors, and track storage.

Candidate periods are spaced uniformly in samples from the longest (lowest
frequency) down to the shortest, so index 0 is the lowest candidate and
index ``size - 1`` the highest. One extra slot at index ``size`` stands for
unvoiced frames; it is categorical, so label smoothing never bleeds into it.
A track is its grid indices, and ``check_track`` is the one check of them.

At the 48 kHz defaults (62.5-500 Hz, 225 candidates) the periods run
768, 765, ..., 96 samples: an exact 3-sample spacing.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .audio import PIPELINE_RATE
from .errors import DataError, ShapeError

#: Width constant of the squared-distance label smoothing, in bins^2.
LABEL_WIDTH = 50.0

#: Probability clamp for the binary cross entropy.
BCE_EPS = 1e-7


@dataclass(frozen=True)
class F0Grid:
    """Candidate periods for voiced frames plus the unvoiced slot."""

    f_min: float = 62.5
    f_max: float = 500.0
    size: int = 225
    periods: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (0 < self.f_min < self.f_max <= PIPELINE_RATE / 2):
            raise ValueError(f"require 0 < f_min < f_max <= {PIPELINE_RATE // 2} Hz (Nyquist)")
        if self.size < 2:
            raise ValueError("need at least 2 candidates")
        t_max = PIPELINE_RATE / self.f_min
        if not t_max < 2.0**63:  # inf fails too; the periods round into int64
            raise ValueError(f"f_min={self.f_min} Hz gives a period too long to round to samples")
        t_min = PIPELINE_RATE / self.f_max
        step = (t_max - t_min) / (self.size - 1)
        periods = t_max - step * np.arange(self.size)
        object.__setattr__(self, "periods", periods)

    @property
    def unvoiced_index(self) -> int:
        return self.size

    @property
    def label_size(self) -> int:
        return self.size + 1

    def frequency(self, index):
        """Candidate frequency in hertz for a voiced grid index, or an array of them."""
        return PIPELINE_RATE / self.periods[index]

    def rounded_periods(self) -> np.ndarray:
        """Periods quantized to whole samples, as used by the filter bank."""
        return np.round(self.periods).astype(np.int64)


def nearest_index(grid: F0Grid, f0: float) -> int:
    """Grid index whose period is closest to ``PIPELINE_RATE / f0``.

    Ties go to the longer period (lower frequency); frequencies outside the
    grid range clamp to the end bins. Unvoiced is not handled here: callers
    encode it as ``grid.unvoiced_index`` explicitly.
    """
    if not f0 > 0:  # NaN fails too
        raise ValueError(f"f0 must be positive, got {f0}")
    return int(nearest_period_index(grid, PIPELINE_RATE / f0))


def nearest_period_index(grid: F0Grid, period):
    """Grid index of the candidate period closest to each ``period``, same shape."""
    # periods descend, so argmin's first-hit rule breaks ties long-ward
    return np.argmin(np.abs(grid.periods - np.asarray(period)[..., None]), axis=-1)


def gaussian_label(grid: F0Grid, target_index: int) -> np.ndarray:
    """Smoothed training label for one frame.

    A voiced target puts a squared-exponential bump, peak 1.0, on the voiced
    bins and leaves the unvoiced slot at zero; the unvoiced target is one-hot.
    """
    n = grid.size
    if not 0 <= target_index <= n:
        raise ValueError(f"target_index {target_index} outside [0, {n}]")
    label = np.zeros(n + 1)
    if target_index == n:
        label[n] = 1.0
    else:
        i = np.arange(n, dtype=np.float64)
        label[:n] = np.exp(-((i - target_index) ** 2) / LABEL_WIDTH)
    return label


def one_hot(grid: F0Grid, index: int) -> np.ndarray:
    """Hard selection vector over the ``size + 1`` slots."""
    if not 0 <= index <= grid.size:
        raise ValueError(f"index {index} outside [0, {grid.size}]")
    vec = np.zeros(grid.label_size)
    vec[index] = 1.0
    return vec


def bce_loss(label: np.ndarray, estimate: np.ndarray) -> float:
    """Binary cross entropy between a label vector and an estimate.

    Both arguments are ``(dim,)`` for one frame or ``(dim, n_frames)`` for a
    batch; the batch reduction is the mean over frames of the per-frame sum.
    Estimates are clamped to ``[BCE_EPS, 1 - BCE_EPS]``.
    """
    label = np.asarray(label, dtype=np.float64)
    estimate = np.asarray(estimate, dtype=np.float64)
    if label.shape != estimate.shape:
        raise ShapeError(f"label shape {label.shape} != estimate shape {estimate.shape}")
    p = np.clip(estimate, BCE_EPS, 1.0 - BCE_EPS)
    per_entry = -(label * np.log(p) + (1.0 - label) * np.log(1.0 - p))
    if per_entry.ndim == 1:
        return float(per_entry.sum())
    return float(per_entry.sum(axis=0).mean())


@dataclass(frozen=True)
class F0Track:
    """One grid index per frame; frequency and voicing follow from the grid."""

    indices: np.ndarray

    def __post_init__(self):
        indices = np.asarray(self.indices, dtype=np.int64)
        if indices.ndim != 1:
            raise ShapeError(f"track indices must be 1-D, got shape {indices.shape}")
        object.__setattr__(self, "indices", indices)

    def __len__(self) -> int:
        return self.indices.size

    def voiced_mask(self, grid: F0Grid) -> np.ndarray:
        return self.indices != grid.unvoiced_index

    def f0_hz(self, grid: F0Grid) -> np.ndarray:
        """Each frame's candidate frequency on ``grid`` in hertz, 0 on unvoiced frames;
        an index outside ``[0, grid.size]`` raises ShapeError."""
        check_track(self, grid.label_size)
        voiced = self.voiced_mask(grid)
        f0 = np.zeros(self.indices.size)
        f0[voiced] = grid.frequency(self.indices[voiced])
        return f0


def check_track(track: F0Track, n_rows: int, n_frames: Optional[int] = None) -> None:
    """The one track check: ``n_frames`` frames, when given, each index in ``[0, n_rows)``;
    else ShapeError, naming the first index outside with its frame."""
    if n_frames is not None and len(track) != n_frames:
        raise ShapeError(f"track has {len(track)} frames, expected {n_frames}")
    outside = np.flatnonzero((track.indices < 0) | (track.indices >= n_rows))
    if outside.size:
        t = outside[0]
        raise ShapeError(f"frame {t}: grid index {track.indices[t]} outside [0, {n_rows - 1}]")


def track_from_indices(grid: F0Grid, indices) -> F0Track:
    """Build a track from grid indices; one outside ``[0, grid.size]`` raises ShapeError."""
    track = F0Track(indices)
    check_track(track, grid.label_size)
    return track


TRACK_HEADER = ["frame", "grid_index", "f0_hz", "voicing"]


def write_track(track: F0Track, path, grid: F0Grid) -> None:
    """Write CSV ``frame,grid_index,f0_hz,voicing``, CRLF lines; ``grid`` gives the last two."""
    columns = [np.arange(len(track)), track.indices, track.f0_hz(grid), track.voiced_mask(grid)]
    np.savetxt(path, np.column_stack(columns), fmt=["%d", "%d", "%.6f", "%.6f"], delimiter=",",
               newline="\r\n", header=",".join(TRACK_HEADER), comments="")


def read_track(path, grid: F0Grid) -> F0Track:
    """Read a track CSV; every row's ``f0_hz`` and ``voicing`` must match its index on ``grid``."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != TRACK_HEADER:
                raise DataError(f"bad track header {header!r}, expected {TRACK_HEADER}")
            rows = list(reader)
    except UnicodeDecodeError as exc:
        raise DataError(f"track {path} is not UTF-8 text: {exc}") from exc
    indices = np.zeros(len(rows), dtype=np.int64)
    f0, voicing = np.zeros((2, len(rows)))
    for n, row in enumerate(rows):
        if len(row) != 4:
            raise DataError(f"track row {n + 1} has {len(row)} fields, expected 4")
        try:
            frame, indices[n] = int(row[0]), int(row[1])
            f0[n], voicing[n] = float(row[2]), float(row[3])
        except (ValueError, OverflowError) as exc:
            raise DataError(f"track row {n + 1}: {exc}") from exc
        if frame != n:
            raise DataError(f"track row {n + 1}: frame numbers must be 0..N-1 in order")
    track = track_from_indices(grid, indices)
    expected, voiced = track.f0_hz(grid), track.voiced_mask(grid)
    # f0_hz is printed to 6 decimals; a NaN fails the ``<=`` too
    off = ~(np.abs(f0 - expected) <= 1e-6) | (voicing != voiced)
    if off.any():
        n = int(np.argmax(off))
        raise DataError(
            f"track row {n + 1}: grid index {indices[n]} needs f0_hz={expected[n]:.6f}, voicing="
            f"{voiced[n]:d} on this grid (0 and 0 if unvoiced), not {f0[n]:g} and {voicing[n]:g}"
        )
    return track
