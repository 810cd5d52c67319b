"""Seeded speech-like inputs with ground truth, and the file formats hcf reads.

The clean signal is a gliding harmonic complex (f0 between 80 and 300 Hz,
harmonics to 4 kHz at 1/k amplitude) gated into voiced "syllables" and
silent gaps. Consecutive quarters of the signal carry white noise at
20, 10, 5 and 0 dB SNR. Every quarter is exactly VOICED_SHARE voiced, so
quality figures differ between seeds only through the estimator's
behaviour, not through how much of the input happens to be voiced.

The grid constants below restate hcf's defaults (62.5-500 Hz, 225
candidates, 1536-sample frames, 384-sample hop) so that the ground truth
does not come from the code under test.

Files are written with this module's own writers: float32 WAV, the track
CSV and the ``HCF1`` matrix format, as documented in the hcf README.
"""

from __future__ import annotations

import csv
import struct
from dataclasses import dataclass

import numpy as np

RATE = 48000
FRAME = 1536
HOP = 384
GRID_SIZE = 225
UNVOICED = GRID_SIZE
T_MAX = RATE / 62.5
T_MIN = RATE / 500.0
PERIODS = T_MAX - (T_MAX - T_MIN) / (GRID_SIZE - 1) * np.arange(GRID_SIZE)

SNRS_DB = (20.0, 10.0, 5.0, 0.0)
LOW_SNR_DB = (5.0, 0.0)
VOICED_SHARE = 0.6
F0_RANGE = (80.0, 300.0)
HARMONIC_TOP_HZ = 4000.0
RAMP_S = 0.015
CLEAN_RMS = 0.1
PEAK_LIMIT = 0.9  # read_wav clamps float WAVs to [-1, 1]; stay well inside


@dataclass
class Signal:
    clean: np.ndarray  # float32-rounded, as read back from the WAV
    noisy: np.ndarray
    truth_index: np.ndarray  # per pipeline frame; UNVOICED where silent
    low_snr_frames: np.ndarray  # bool per frame: centre in a 5 or 0 dB quarter

    @property
    def seconds(self) -> float:
        return self.noisy.size / RATE


def _segment_units(rng, seconds):
    """Alternating gap/syllable durations filling ``seconds`` exactly."""
    n_units = max(1, int(round(seconds / 0.45)))
    syl = rng.uniform(0.15, 0.35, n_units)
    gap = rng.uniform(0.05, 0.25, n_units)
    syl *= VOICED_SHARE * seconds / syl.sum()
    gap *= (1.0 - VOICED_SHARE) * seconds / gap.sum()
    return gap, syl


def make_signal(seed: int, seconds: float) -> Signal:
    rng = np.random.default_rng(seed)
    n = int(round(seconds * RATE))
    bounds = np.linspace(0, n, len(SNRS_DB) + 1).astype(np.int64)
    f0 = np.zeros(n)
    env = np.zeros(n)
    ramp = int(RAMP_S * RATE)
    for q in range(len(SNRS_DB)):
        pos = float(bounds[q])
        gaps, syls = _segment_units(rng, (bounds[q + 1] - bounds[q]) / RATE)
        for gap, syl in zip(gaps, syls):
            lo = int(round(pos + gap * RATE))
            hi = min(int(round(pos + (gap + syl) * RATE)), int(bounds[q + 1]))
            pos += (gap + syl) * RATE
            if hi - lo < 2 * ramp:
                continue
            start = np.exp(rng.uniform(np.log(F0_RANGE[0]), np.log(F0_RANGE[1])))
            end = np.clip(start * rng.uniform(0.8, 1.25), *F0_RANGE)
            f0[lo:hi] = np.geomspace(start, end, hi - lo)
            shape = np.ones(hi - lo)
            edge = 0.5 - 0.5 * np.cos(np.pi * np.arange(ramp) / ramp)
            shape[:ramp] = edge
            shape[-ramp:] = edge[::-1]
            env[lo:hi] = shape

    voiced = f0 > 0
    phase = 2.0 * np.pi * np.cumsum(f0[voiced]) / RATE
    f0_v = f0[voiced]
    harm = np.zeros(phase.size)
    for k in range(1, int(HARMONIC_TOP_HZ // F0_RANGE[0]) + 1):
        harm += (k * f0_v < HARMONIC_TOP_HZ) * np.sin(k * phase) / k
    clean = np.zeros(n)
    clean[voiced] = harm * env[voiced]
    clean *= CLEAN_RMS / np.sqrt(np.mean(clean**2))

    noise = rng.standard_normal(n)
    for q, snr_db in enumerate(SNRS_DB):
        seg = slice(bounds[q], bounds[q + 1])
        power = np.mean(clean[seg] ** 2)
        noise[seg] *= np.sqrt(power / 10.0 ** (snr_db / 10.0))
    noisy = clean + noise
    scale = min(1.0, PEAK_LIMIT / max(np.abs(noisy).max(), np.abs(clean).max()))

    n_frames = -(-n // HOP)
    centres = np.arange(n_frames) * HOP + FRAME // 2
    inside = centres < n
    truth = np.full(n_frames, UNVOICED, dtype=np.int64)
    f0_c = np.zeros(n_frames)
    f0_c[inside] = f0[centres[inside]]
    v = f0_c > 0
    truth[v] = np.argmin(np.abs(PERIODS[None, :] - RATE / f0_c[v, None]), axis=1)
    quarter = np.searchsorted(bounds, np.minimum(centres, n - 1), side="right") - 1
    low = np.isin(np.asarray(SNRS_DB)[quarter], LOW_SNR_DB)
    return Signal(
        clean=(clean * scale).astype(np.float32).astype(np.float64),
        noisy=(noisy * scale).astype(np.float32).astype(np.float64),
        truth_index=truth,
        low_snr_frames=low,
    )


# ---------------------------------------------------------------------------
# quality canaries, computed here rather than by the code under test


def snr_db(clean: np.ndarray, estimate: np.ndarray) -> float:
    err = estimate - clean
    return float(10.0 * np.log10(np.dot(clean, clean) / np.dot(err, err)))


def frame_accuracy(truth: np.ndarray, estimate: np.ndarray) -> np.ndarray:
    """Per frame: voicing decision right and, if voiced, within one bin."""
    truth_v = truth != UNVOICED
    est_v = estimate != UNVOICED
    close = np.abs(truth - estimate) <= 1
    return (truth_v == est_v) & (~truth_v | close)


# ---------------------------------------------------------------------------
# file formats


def write_wav(path, samples: np.ndarray) -> None:
    """Mono 48 kHz IEEE float32 WAV."""
    payload = np.asarray(samples, dtype="<f4").tobytes()
    fmt = struct.pack("<HHIIHH", 3, 1, RATE, RATE * 4, 4, 32)
    with open(path, "wb") as fh:
        fh.write(b"RIFF" + struct.pack("<I", 4 + 8 + len(fmt) + 8 + len(payload)) + b"WAVE")
        fh.write(b"fmt " + struct.pack("<I", len(fmt)) + fmt)
        fh.write(b"data" + struct.pack("<I", len(payload)) + payload)


def read_wav(path) -> np.ndarray:
    """Samples of a mono float32 WAV; raises ValueError on anything else."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise ValueError(f"{path}: not a RIFF/WAVE file")
    pos, fmt = 12, None
    while pos + 8 <= len(data):
        cid, size = data[pos:pos + 4], struct.unpack_from("<I", data, pos + 4)[0]
        body = data[pos + 8:pos + 8 + size]
        if cid == b"fmt ":
            fmt = struct.unpack_from("<HHIIHH", body)
        elif cid == b"data":
            if fmt is None or fmt[0] != 3 or fmt[1] != 1 or fmt[5] != 32:
                raise ValueError(f"{path}: expected mono float32, fmt={fmt}")
            return np.frombuffer(body, dtype="<f4")
        pos += 8 + size + (size & 1)
    raise ValueError(f"{path}: no data chunk")


def write_track(path, indices: np.ndarray) -> None:
    """Track CSV ``frame,grid_index,f0_hz,voicing``; unvoiced rows carry 0 Hz."""
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["frame", "grid_index", "f0_hz", "voicing"])
        for t, idx in enumerate(indices):
            if idx == UNVOICED:
                out.writerow([t, UNVOICED, "0.000000", "0.000000"])
            else:
                out.writerow([t, int(idx), f"{RATE / PERIODS[idx]:.6f}", "1.000000"])


def write_matrix(path, matrix: np.ndarray) -> None:
    """``HCF1`` magic, little-endian uint32 rows and cols, float32 payload."""
    arr = np.ascontiguousarray(matrix, dtype="<f4")
    with open(path, "wb") as fh:
        fh.write(b"HCF1" + struct.pack("<II", *arr.shape))
        fh.write(arr.tobytes())
