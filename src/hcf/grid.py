"""Discrete fundamental-frequency lattice, label vectors, and track storage.

Candidate periods are spaced uniformly in samples from the longest (lowest
frequency) down to the shortest, so index 0 is the lowest candidate and
index ``size - 1`` the highest. One extra slot at index ``size`` stands for
unvoiced frames; it is categorical, so label smoothing never bleeds into it.

At the 48 kHz defaults (62.5-500 Hz, 225 candidates) the periods run
768, 765, ..., 96 samples: an exact 3-sample spacing.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

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
        if not (0 < self.f_min < self.f_max):
            raise ValueError("require 0 < f_min < f_max")
        if self.size < 2:
            raise ValueError("need at least 2 candidates")
        t_max = PIPELINE_RATE / self.f_min
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

    def frequency(self, index: int) -> float:
        """Candidate frequency in hertz for a voiced grid index."""
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
    if f0 <= 0:
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


@dataclass
class F0Track:
    """Per-frame pitch decisions: grid index, frequency, and voicing."""

    indices: np.ndarray
    f0: np.ndarray
    voicing: np.ndarray

    def __post_init__(self):
        self.indices = np.asarray(self.indices, dtype=np.int64)
        self.f0 = np.asarray(self.f0, dtype=np.float64)
        self.voicing = np.asarray(self.voicing, dtype=np.float64)
        if not (self.indices.shape == self.f0.shape == self.voicing.shape):
            raise ShapeError("track arrays must share one shape")

    def __len__(self) -> int:
        return self.indices.size

    def voiced_mask(self, grid: F0Grid) -> np.ndarray:
        return self.indices != grid.unvoiced_index


def track_from_indices(grid: F0Grid, indices) -> F0Track:
    """Build a track from grid indices alone (voicing 1.0 on voiced frames)."""
    indices = np.asarray(indices, dtype=np.int64)
    if indices.size and (indices.min() < 0 or indices.max() > grid.unvoiced_index):
        raise ValueError("grid index out of range")
    voiced = indices != grid.unvoiced_index
    f0 = np.zeros(indices.size)
    f0[voiced] = PIPELINE_RATE / grid.periods[indices[voiced]]
    return F0Track(indices=indices, f0=f0, voicing=voiced.astype(np.float64))


TRACK_HEADER = ["frame", "grid_index", "f0_hz", "voicing"]


def write_track(track: F0Track, path) -> None:
    """Write a track as CSV with header ``frame,grid_index,f0_hz,voicing``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACK_HEADER)
        for t in range(len(track)):
            writer.writerow(
                [t, int(track.indices[t]), f"{track.f0[t]:.6f}", f"{track.voicing[t]:.6f}"]
            )


def read_track(path, grid: F0Grid) -> F0Track:
    """Read a track CSV, validating indices against the grid."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != TRACK_HEADER:
            raise DataError(f"bad track header {header!r}, expected {TRACK_HEADER}")
        rows = list(reader)
    indices = np.zeros(len(rows), dtype=np.int64)
    f0 = np.zeros(len(rows))
    voicing = np.zeros(len(rows))
    for n, row in enumerate(rows):
        if len(row) != 4:
            raise DataError(f"track row {n + 1} has {len(row)} fields, expected 4")
        try:
            frame, idx = int(row[0]), int(row[1])
            f0[n], voicing[n] = float(row[2]), float(row[3])
        except ValueError as exc:
            raise DataError(f"track row {n + 1}: {exc}") from exc
        if frame != n:
            raise DataError(f"track row {n + 1}: frame numbers must be 0..N-1 in order")
        if not 0 <= idx <= grid.unvoiced_index:
            raise DataError(
                f"track row {n + 1}: grid index {idx} outside [0, {grid.unvoiced_index}]"
            )
        if (idx == grid.unvoiced_index) != (f0[n] == 0.0):
            raise DataError(
                f"track row {n + 1}: unvoiced rows need grid_index="
                f"{grid.unvoiced_index} and f0_hz=0"
            )
        indices[n] = idx
    return F0Track(indices=indices, f0=f0, voicing=voicing)
