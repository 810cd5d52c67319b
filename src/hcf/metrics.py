"""Loss terms and signal-quality utilities used by the tests and the CLI.

The spectral loss operates on magnitude-compressed complex spectra: an
asymmetric (one-sided) magnitude penalty that only charges for
over-suppression, evaluated against both the full output and the
gains-only output, plus a symmetric complex-domain term. A separate pitch
loss (binary cross entropy, see the grid module) joins via a weighted sum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .audio import AudioBuffer
from .errors import ShapeError

ZERO_MAG = 1e-12
SDR_CAP_DB = 100.0


@dataclass(frozen=True)
class LossConfig:
    compression: float = 0.3
    magnitude_weight: float = 0.3
    pitch_weight: float = 0.1

    def __post_init__(self):
        if not 0.0 < self.compression <= 1.0:
            raise ValueError("compression must be in (0, 1]")
        if not 0.0 <= self.magnitude_weight <= 1.0:
            raise ValueError("magnitude_weight must be in [0, 1]")
        if not 0.0 <= self.pitch_weight < np.inf:  # NaN fails too
            raise ValueError("pitch_weight must be nonnegative and finite")


def compress(spec, c: float):
    """Raise magnitudes to the power ``c``, keeping phase.

    Entries with magnitude under 1e-12 map to exactly 0, sidestepping the
    undefined phase at the origin.
    """
    if not 0.0 < c <= 1.0:
        raise ValueError("c must be in (0, 1]")
    spec = np.asarray(spec)
    mag = np.abs(spec)
    out = np.zeros_like(spec, dtype=np.complex128)
    live = mag >= ZERO_MAG
    out[live] = (mag[live] ** c) * (spec[live] / mag[live])
    return out


def asym_mse(target, estimate) -> float:
    """Mean squared one-sided error: only under-estimation is charged."""
    target = np.asarray(target, dtype=np.float64)
    estimate = np.asarray(estimate, dtype=np.float64)
    if target.shape != estimate.shape:
        raise ShapeError(f"target shape {target.shape} != estimate shape {estimate.shape}")
    short = np.maximum(target - estimate, 0.0)
    return float(np.mean(short ** 2))


def se_loss(clean_spec, out_spec, gains_only_spec, cfg: LossConfig = LossConfig()):
    """Spectral enhancement loss and its three components.

    Returns ``(total, mag_gains_only, mag_full, complex_term)`` where the
    total is ``(1-lambda)/2 * (first + second) + lambda * third``. All terms
    are means over time-frequency entries.
    """
    shapes = {np.shape(clean_spec), np.shape(out_spec), np.shape(gains_only_spec)}
    if len(shapes) != 1:
        raise ShapeError(f"spectra shapes differ: {sorted(shapes)}")
    c = cfg.compression
    lam = cfg.magnitude_weight
    clean_c = compress(clean_spec, c)
    out_c = compress(out_spec, c)
    gains_c = compress(gains_only_spec, c)
    clean_mag = np.abs(clean_c)
    mag_gains_only = asym_mse(clean_mag, np.abs(gains_c))
    mag_full = asym_mse(clean_mag, np.abs(out_c))
    complex_term = float(np.mean(np.abs(clean_c - out_c) ** 2))
    total = 0.5 * (1.0 - lam) * (mag_gains_only + mag_full) + lam * complex_term
    return total, mag_gains_only, mag_full, complex_term


def total_loss(se: float, pitch: float, cfg: LossConfig = LossConfig()) -> float:
    """Weighted sum of the spectral and pitch losses."""
    if not (se >= 0 and pitch >= 0):  # NaN fails too
        raise ValueError("loss components must be nonnegative")
    return se + cfg.pitch_weight * pitch


def sdr(reference: AudioBuffer, estimate: AudioBuffer) -> float:
    """Scale-invariant signal-to-distortion ratio in dB, capped at +-100.

    The estimate is projected onto the reference with a least-squares
    scalar, so sdr is unchanged by positive rescaling of the estimate. An
    estimate with no component along the reference, silent or orthogonal,
    scores the floor -100; one with no distortion scores the ceiling +100.
    """
    s = reference.samples
    y = estimate.samples
    if s.shape != y.shape:
        raise ShapeError(f"lengths differ: {s.shape[0]} vs {y.shape[0]}")
    ref_power = np.dot(s, s)
    if ref_power <= 0.0:
        raise ValueError("reference signal is identically zero")
    beta = np.dot(y, s) / ref_power
    target = beta * s
    distortion = np.dot(target - y, target - y)
    signal = np.dot(target, target)
    if signal <= 0.0:
        return -SDR_CAP_DB
    if distortion <= 0.0:
        return SDR_CAP_DB
    return float(np.clip(10.0 * np.log10(signal / distortion), -SDR_CAP_DB, SDR_CAP_DB))


def snr(reference: AudioBuffer, estimate: AudioBuffer) -> float:
    """Plain signal-to-noise ratio of ``estimate`` against ``reference``."""
    s = reference.samples
    y = estimate.samples
    if s.shape != y.shape:
        raise ShapeError(f"lengths differ: {s.shape[0]} vs {y.shape[0]}")
    noise = y - s
    noise_power = np.dot(noise, noise)
    signal_power = np.dot(s, s)
    if signal_power <= 0.0:
        raise ValueError("reference signal is identically zero")
    if noise_power <= 0.0 or signal_power / noise_power > 10.0 ** (SDR_CAP_DB / 10.0):
        return SDR_CAP_DB
    return float(10.0 * np.log10(signal_power / noise_power))
