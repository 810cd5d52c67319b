"""Signal framing, chunking, and the windowed STFT / overlap-add pair.

Two framings of the same signal are kept in lockstep: plain overlapped
frames (``frame_size`` rows) feeding the spectral path, and padded chunks
(``frame_size + 2*pad`` rows) feeding the comb filters, whose taps need
``pad`` samples of context on both sides. ``pad`` is not part of the frame
geometry: the caller passes the comb bank's ``bank.pad``. Both framings use
the same hop and frame count, and the frames are the chunks' center rows.
Both are read-only strided views of one zero-padded copy of the signal, as is
every block of frames the pipeline runs (see :func:`block`).

Matrices are oriented samples-by-frames: column ``t`` is frame ``t`` and
starts at sample ``t * hop_size`` of the source buffer.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .audio import AudioBuffer
from .errors import ShapeError

@dataclass(frozen=True)
class FrameConfig:
    """Frame geometry: 32 ms frames, 8 ms hop at 48 kHz."""

    frame_size: int = 1536
    hop_size: int = 384

    def __post_init__(self):
        # without overlap the synthesis window sum is w*w itself, 0 at each frame's start
        if not 0 < self.hop_size < self.frame_size or self.frame_size % self.hop_size:
            raise ValueError(
                f"hop_size {self.hop_size} must be a positive divisor of frame_size "
                f"{self.frame_size} and smaller, so that frames overlap"
            )

    @property
    def n_bins(self) -> int:
        return self.frame_size // 2 + 1

    def n_frames(self, n_samples: int) -> int:
        if n_samples < 1:
            raise ValueError("need at least one sample")
        return -(-n_samples // self.hop_size)


@cache
def sqrt_hann(size: int) -> np.ndarray:
    """The analysis and synthesis window: a periodic sqrt-Hann, one read-only array per size.

    Periodic, so analysis*synthesis overlap-adds to a constant when the hop
    is a quarter frame.
    """
    w = np.sqrt(0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(size) / size))
    w.flags.writeable = False
    return w


def check_size(n_items: int, what: str) -> None:
    """Raise ``MemoryError(what)`` if ``n_items`` 8-byte items need more bytes than numpy shapes."""
    if n_items > np.iinfo(np.intp).max // 8:
        raise MemoryError(what)


def windows(x: np.ndarray, n_frames: int, hop: int, start: int, length: int) -> np.ndarray:
    """Read-only ``(n_frames, length)`` view of overlapping windows of ``x``.

    Row ``t`` is ``x[t*hop + start:][:length]``, with zeros wherever it
    reaches outside the signal (``start`` may be negative). Only the span the
    rows cover is copied, zero-padded, into one buffer; the rows are strided
    views into it.
    """
    span = (n_frames - 1) * hop + length
    check_size(span, f"windows spanning {span} float64 samples")
    lo = max(start, 0)
    piece = x[lo:max(start + span, 0)]
    padded = np.zeros(span)
    padded[lo - start:lo - start + piece.shape[0]] = piece
    return sliding_window_view(padded, length)[::hop]


def block(x: np.ndarray, cfg: FrameConfig, lo: int, n: int, pad: int = 0) -> np.ndarray:
    """Frames ``lo .. lo + n - 1`` of ``x`` with ``pad`` samples of context a side:
    the :func:`windows` view ``(frame_size + 2*pad, n)`` of their span only."""
    return windows(x, n, cfg.hop_size, lo * cfg.hop_size - pad, cfg.frame_size + 2 * pad).T


def frame_signal(buffer, cfg: FrameConfig) -> np.ndarray:
    """Split a signal into overlapped frames, zero-padding the tail.

    Accepts an :class:`AudioBuffer` or a plain sample array.

    Returns
    -------
    np.ndarray
        Read-only view ``(frame_size, n_frames)``, ``n_frames = ceil(len / hop)``;
        column ``t`` is ``samples[t*hop : t*hop + frame_size]``.
    """
    return chunk_signal(buffer, cfg, 0)


def chunk_signal(buffer, cfg: FrameConfig, pad: int) -> np.ndarray:
    """Split a signal into filter-ready chunks with ``pad`` context each side.

    ``pad`` is the comb bank's context, ``bank.pad``. Like :func:`frame_signal`
    it takes an :class:`AudioBuffer` or a plain 1-D array, with the same frame
    count and hop; rows ``pad`` through ``pad + frame_size`` of column ``t``
    reproduce frame ``t`` exactly.
    """
    x = np.asarray(getattr(buffer, "samples", buffer), dtype=np.float64)
    if x.ndim != 1:
        raise ShapeError(f"need a 1-D signal, got shape {x.shape}")
    return block(x, cfg, 0, cfg.n_frames(x.size), pad)


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


class OverlapAdd:
    """Windowed overlap-add that inverts :func:`stft`, fed a block of frames at a time.

    Frames are added in increasing frame order, so each sample's sum rounds as
    in one pass; the last ``frame_size - hop_size`` samples carry between blocks.
    A finished sample is divided by the steady-state window sum, so the first
    and last ``frame_size - hop_size`` samples fade in and out like the window.
    """

    def __init__(self, cfg: FrameConfig, length: int):
        self.cfg = cfg
        self._window = sqrt_hann(cfg.frame_size)
        wsq = (self._window * self._window).reshape(-1, cfg.hop_size)
        # steady-state window sum, added in the order an interior sample's frames arrive
        self._norm = sum(wsq[::-1])
        self._open = np.zeros((wsq.shape[0] - 1, cfg.hop_size))
        self._out = np.zeros(length)
        self._done = 0

    def add(self, spec: np.ndarray) -> None:
        """Overlap-add the frames of a ``(n_bins, n)`` spectrogram block."""
        cfg, (n_bins, n) = self.cfg, spec.shape
        if n_bins != cfg.n_bins:
            raise ShapeError(f"spectrogram has {n_bins} bins, config expects {cfg.n_bins}")
        hop, segments = cfg.hop_size, cfg.frame_size // cfg.hop_size
        frames = np.fft.irfft(spec, n=cfg.frame_size, axis=0) * self._window[:, None]
        acc = np.concatenate([self._open, np.zeros((n, hop))])
        # frame t adds its segment r to hop t + r: descending r adds in rising t
        for r in range(segments - 1, -1, -1):
            acc[r:r + n] += frames[r * hop:(r + 1) * hop].T
        self._open = acc[n:]
        self._emit(acc[:n])

    def _emit(self, acc: np.ndarray) -> None:
        kept = self._out[self._done:self._done + acc.size]
        kept[:] = (acc / self._norm).ravel()[:kept.size]
        self._done += acc.size

    def finish(self) -> AudioBuffer:
        """Close the last frames' tail; return the ``length``-sample output."""
        self._emit(self._open)
        return AudioBuffer(self._out)


def istft_overlap_add(spec: np.ndarray, cfg: FrameConfig, length: int | None = None) -> AudioBuffer:
    """Invert :func:`stft` (see :class:`OverlapAdd`); ``length`` trims or
    zero-extends the output, which by default keeps every sample a frame reaches.
    """
    if length is None:
        length = (spec.shape[1] - 1) * cfg.hop_size + cfg.frame_size
    ola = OverlapAdd(cfg, length)
    ola.add(spec)
    return ola.finish()
