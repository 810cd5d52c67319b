"""Triangular mel filterbank for sub-band gain estimation.

Band centers are spaced uniformly on the HTK mel scale and span 0 Hz to
Nyquist inclusively, so the first band peaks at 0 Hz and the last at
Nyquist. Between two adjacent centers every bin splits its weight linearly
across exactly those two bands; weights per bin therefore sum to 1 and no
bin is left uncovered. That property is what lets
band-level gains be interpolated back to bins by a plain weighted average.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .audio import PIPELINE_RATE
from .errors import ShapeError
from .framing import FrameConfig


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@dataclass(frozen=True)
class MelFilterbank:
    """Band weights (``n_bands x n_bins``) plus band centers in hertz."""

    weights: np.ndarray
    centers_hz: np.ndarray

    @property
    def n_bands(self) -> int:
        return self.weights.shape[0]

    @property
    def n_bins(self) -> int:
        return self.weights.shape[1]


def build_mel_filterbank(bands: int = 80, cfg: FrameConfig = FrameConfig()) -> MelFilterbank:
    """Build the triangular mel filterbank used by the gain oracle.

    Band centers span 0 Hz to Nyquist; ``cfg`` supplies the bin count.
    ``bands`` must be at least 2.
    """
    if bands < 2:
        raise ValueError("need at least 2 bands")
    bin_hz = np.arange(cfg.n_bins) * PIPELINE_RATE / cfg.frame_size
    bin_mel = hz_to_mel(bin_hz)
    centers_mel = np.linspace(hz_to_mel(0.0), hz_to_mel(PIPELINE_RATE / 2.0), bands)
    centers_hz = mel_to_hz(centers_mel)

    weights = np.zeros((bands, cfg.n_bins))
    # Position of each bin between its two neighboring centers, in mel.
    seg = np.clip(np.searchsorted(centers_mel, bin_mel, side="right") - 1, 0, bands - 2)
    span = centers_mel[seg + 1] - centers_mel[seg]
    frac = np.clip((bin_mel - centers_mel[seg]) / span, 0.0, 1.0)
    cols = np.arange(cfg.n_bins)
    weights[seg, cols] = 1.0 - frac
    weights[seg + 1, cols] += frac
    return MelFilterbank(weights=weights, centers_hz=centers_hz)


def mel_energies(spec: np.ndarray, fb: MelFilterbank) -> np.ndarray:
    """Per-band power: ``E[b, t] = sum_f weights[b, f] * |spec[f, t]|^2``."""
    if spec.shape[0] != fb.n_bins:
        raise ShapeError(
            f"spectrogram has {spec.shape[0]} bins, filterbank expects {fb.n_bins}"
        )
    power = np.abs(spec) ** 2
    return fb.weights @ power
