"""Signal framing, chunking, and the windowed STFT / overlap-add pair.

Two framings of the same signal are kept in lockstep: plain overlapped
frames (``frame_size`` rows) feeding the spectral path, and padded chunks
(``frame_size + 2*pad`` rows) feeding the comb filters, whose taps need
``pad`` samples of context on both sides. ``pad`` is not part of the frame
geometry: the caller passes the comb bank's ``bank.pad``. Both framings use
the same hop and frame count, and the frames are the chunks' center rows.
Both are read-only strided views of one zero-padded copy of the signal (see
:func:`windows`).

Matrices are oriented samples-by-frames: column ``t`` is frame ``t`` and
starts at sample ``t * hop_size`` of the source buffer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .audio import PIPELINE_RATE, AudioBuffer
from .errors import ShapeError

#: Floor for the synthesis overlap normalization at signal edges.
OVERLAP_EPS = 1e-8


@dataclass(frozen=True)
class FrameConfig:
    """Frame geometry: 32 ms frames, 8 ms hop at 48 kHz."""

    frame_size: int = 1536
    hop_size: int = 384

    def __post_init__(self):
        if self.frame_size <= 0 or self.hop_size <= 0:
            raise ValueError("frame_size and hop_size must be positive")
        if self.frame_size % self.hop_size != 0:
            raise ValueError(
                f"hop_size {self.hop_size} must divide frame_size {self.frame_size}"
            )

    @property
    def n_bins(self) -> int:
        return self.frame_size // 2 + 1

    def n_frames(self, n_samples: int) -> int:
        if n_samples < 1:
            raise ValueError("need at least one sample")
        return -(-n_samples // self.hop_size)


def sqrt_hann(size: int) -> np.ndarray:
    """The analysis and synthesis window: a periodic sqrt-Hann.

    Periodic, so analysis*synthesis overlap-adds to a constant when the hop
    is a quarter frame.
    """
    n = np.arange(size)
    return np.sqrt(0.5 - 0.5 * np.cos(2.0 * np.pi * n / size))


def _samples(source) -> np.ndarray:
    """Accept an AudioBuffer or a plain 1-D array."""
    x = getattr(source, "samples", source)
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ShapeError(f"need a 1-D signal, got shape {x.shape}")
    return x


def windows(x: np.ndarray, n_frames: int, hop: int, start: int, length: int) -> np.ndarray:
    """Read-only ``(n_frames, length)`` view of overlapping windows of ``x``.

    Row ``t`` is ``x[t*hop + start:][:length]``, with zeros wherever it
    reaches outside the signal (``start`` may be negative). The signal is
    zero-padded once; the rows are strided views into that one buffer.
    """
    lead = max(-start, 0)
    padded = np.zeros((n_frames - 1) * hop + start + lead + length)
    kept = min(x.shape[0], padded.shape[0] - lead)
    padded[lead:lead + kept] = x[:kept]
    return sliding_window_view(padded, length)[start + lead::hop]


def frame_signal(buffer, cfg: FrameConfig) -> np.ndarray:
    """Split a signal into overlapped frames, zero-padding the tail.

    Accepts an :class:`AudioBuffer` or a plain sample array.

    Returns
    -------
    np.ndarray
        Read-only view ``(frame_size, n_frames)``, ``n_frames = ceil(len / hop)``;
        column ``t`` is ``samples[t*hop : t*hop + frame_size]``.
    """
    x = _samples(buffer)
    return windows(x, cfg.n_frames(x.size), cfg.hop_size, 0, cfg.frame_size).T


def chunk_signal(buffer, cfg: FrameConfig, pad: int) -> np.ndarray:
    """Split a signal into filter-ready chunks with ``pad`` context each side.

    ``pad`` is the comb bank's context, ``bank.pad``. Same frame count and
    hop as :func:`frame_signal`; rows ``pad`` through ``pad + frame_size``
    of column ``t`` reproduce frame ``t`` exactly.
    """
    x = _samples(buffer)
    return windows(x, cfg.n_frames(x.size), cfg.hop_size, -pad, cfg.frame_size + 2 * pad).T


def stft(frames: np.ndarray) -> np.ndarray:
    """Sqrt-Hann windowed forward transform of framed data.

    Parameters
    ----------
    frames : np.ndarray
        ``(frame_size, n_frames)`` real matrix.

    Returns
    -------
    np.ndarray
        Complex ``(frame_size//2 + 1, n_frames)`` spectrogram.
    """
    w = sqrt_hann(frames.shape[0])
    return np.fft.rfft(frames * w[:, None], axis=0)


def istft_overlap_add(spec: np.ndarray, cfg: FrameConfig, length: int | None = None) -> AudioBuffer:
    """Invert :func:`stft` by windowed overlap-add.

    Each column is inverse-transformed, multiplied by the synthesis window,
    overlap-added at the hop, and the result is divided by the accumulated
    analysis*synthesis window sum (a constant in steady state; floored at
    ``OVERLAP_EPS`` near the edges where coverage is partial). ``length``
    trims the output to the original sample count.
    """
    if spec.shape[0] != cfg.n_bins:
        raise ShapeError(
            f"spectrogram has {spec.shape[0]} bins, config expects {cfg.n_bins}"
        )
    n_frames = spec.shape[1]
    w = sqrt_hann(cfg.frame_size)
    frames = np.fft.irfft(spec, n=cfg.frame_size, axis=0) * w[:, None]

    total = (n_frames - 1) * cfg.hop_size + cfg.frame_size
    out = np.zeros(total)
    wsum = np.zeros(total)
    wsq = w * w  # analysis and synthesis windows are identical
    for t in range(n_frames):
        start = t * cfg.hop_size
        out[start : start + cfg.frame_size] += frames[:, t]
        wsum[start : start + cfg.frame_size] += wsq
    out /= np.maximum(wsum, OVERLAP_EPS)

    if length is not None:
        trimmed = np.zeros(length)
        n = min(length, total)
        trimmed[:n] = out[:n]
        out = trimmed
    return AudioBuffer(out, PIPELINE_RATE)
