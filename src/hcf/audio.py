"""WAV file I/O for the 48 kHz processing pipeline.

Reads RIFF/WAVE files containing PCM 16/24/32-bit or IEEE float32 samples,
little-endian, mono or multichannel (channels are averaged down to mono).
Writes PCM 16/24-bit or float32. The parser is deliberately small and strict:
every failure names the byte offset it choked on, and any sample rate other
than 48000 Hz is rejected at read time because the whole pipeline is tuned
for that rate.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import AudioFormatError

PIPELINE_RATE = 48000

_FMT_PCM = 1
_FMT_FLOAT = 3
_FMT_EXTENSIBLE = 0xFFFE


@dataclass(frozen=True)
class AudioBuffer:
    """Mono audio at ``PIPELINE_RATE``: float64 samples nominally in [-1, 1]."""

    samples: np.ndarray

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1:
            raise ValueError(f"samples must be 1-D, got shape {samples.shape}")
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples contain NaN or Inf")
        object.__setattr__(self, "samples", samples)

    def __len__(self) -> int:
        return self.samples.size


def read_wav(path) -> AudioBuffer:
    """Read a 48 kHz RIFF/WAVE file into a mono :class:`AudioBuffer`.

    Integer PCM is scaled by 1 / 2^(bits-1); finite float32 data is clamped
    to [-1, 1]. Multichannel files are averaged to mono.

    Raises
    ------
    AudioFormatError
        If the header is malformed or the data chunk is empty or ends in a
        partial sample frame (message names the byte offset), the encoding
        is unsupported, a float sample is NaN or infinite, or the sample
        rate is not 48000 Hz.
    """
    with open(path, "rb") as fh:
        data = fh.read()

    if len(data) < 12:
        raise AudioFormatError(
            f"file too short for a RIFF header: {len(data)} bytes (offset 0)"
        )
    if data[0:4] != b"RIFF":
        raise AudioFormatError(f"not a RIFF file: found {data[0:4]!r} (offset 0)")
    if data[8:12] != b"WAVE":
        raise AudioFormatError(f"not a WAVE form: found {data[8:12]!r} (offset 8)")

    fmt = None
    raw = None
    pos = 12
    while pos + 8 <= len(data):
        chunk_id = data[pos : pos + 4]
        (chunk_size,) = struct.unpack_from("<I", data, pos + 4)
        body = pos + 8
        if body + chunk_size > len(data):
            raise AudioFormatError(
                f"chunk {chunk_id!r} at offset {pos} claims {chunk_size} bytes, "
                f"only {len(data) - body} remain"
            )
        if chunk_id == b"fmt ":
            fmt = _parse_fmt(data, body, chunk_size)
        elif chunk_id == b"data":
            raw, raw_at = memoryview(data)[body : body + chunk_size], pos
        pos = body + chunk_size + (chunk_size & 1)  # chunks are word-aligned

    if fmt is None:
        raise AudioFormatError(f"no fmt chunk found (scanned to offset {pos})")
    if raw is None:
        raise AudioFormatError(f"no data chunk found (scanned to offset {pos})")

    audio_format, channels, rate, bits = fmt
    if rate != PIPELINE_RATE:
        raise AudioFormatError(
            f"unsupported sample rate {rate}, require {PIPELINE_RATE}"
        )
    if channels < 1:
        raise AudioFormatError(f"invalid channel count {channels}")
    frame_bytes = channels * bits // 8
    if frame_bytes and len(raw) % frame_bytes:  # 0 for sub-byte depths, which decoding rejects
        raise AudioFormatError(
            f"data chunk at offset {raw_at} holds {len(raw)} bytes, "
            f"not a whole number of {frame_bytes}-byte sample frames"
        )
    if not raw:
        raise AudioFormatError(f"data chunk at offset {raw_at} holds no samples")

    samples = _decode_samples(raw, audio_format, bits)
    if channels > 1:
        samples = samples.reshape(-1, channels).mean(axis=1)
    return AudioBuffer(samples)


def _parse_fmt(data: bytes, body: int, size: int):
    if size < 16:
        raise AudioFormatError(f"fmt chunk too short ({size} bytes) at offset {body}")
    audio_format, channels, rate, _byte_rate, _block_align, bits = struct.unpack_from(
        "<HHIIHH", data, body
    )
    if audio_format == _FMT_EXTENSIBLE:
        # Sub-format GUID starts with the plain format code.
        if size < 40:
            raise AudioFormatError(
                f"extensible fmt chunk too short ({size} bytes) at offset {body}"
            )
        (audio_format,) = struct.unpack_from("<H", data, body + 24)
    if audio_format not in (_FMT_PCM, _FMT_FLOAT):
        raise AudioFormatError(
            f"unsupported audio format code {audio_format} at offset {body}"
        )
    return audio_format, channels, rate, bits


def _decode_samples(raw: memoryview, audio_format: int, bits: int) -> np.ndarray:
    if audio_format == _FMT_FLOAT:
        if bits != 32:
            raise AudioFormatError(f"float WAV must be 32-bit, got {bits}")
        out = np.frombuffer(raw, dtype="<f4")
        # checked before the cast, which warns on a signalling NaN
        if not np.all(np.isfinite(out)):
            raise AudioFormatError("data chunk contains non-finite float samples")
        samples = out.astype(np.float64)
        return np.clip(samples, -1.0, 1.0, out=samples)
    if bits == 24:  # each sample's 3 bytes as the high bytes of an int32: 256x its value
        ints = np.zeros(len(raw) // 3, dtype="<i4")
        ints.view(np.uint8).reshape(-1, 4)[:, 1:] = np.frombuffer(raw, np.uint8).reshape(-1, 3)
        bits = 32
    elif bits in (16, 32):
        ints = np.frombuffer(raw, dtype=f"<i{bits // 8}")
    else:
        raise AudioFormatError(f"unsupported PCM bit depth {bits}")
    samples = ints.astype(np.float64)
    samples /= float(1 << (bits - 1))
    return samples


def write_wav(buffer: AudioBuffer, path, bit_depth="float32") -> int:
    """Write ``buffer`` as a little-endian WAV file at ``PIPELINE_RATE``.

    ``bit_depth`` is one of 16, 24, or "float32". Samples outside [-1, 1]
    are clamped; returns how many were.
    """
    samples = buffer.samples
    if not np.all(np.isfinite(samples)):
        raise ValueError("cannot write non-finite samples")

    clipped = int(np.count_nonzero(np.abs(samples) > 1.0))
    if bit_depth == "float32":
        # clipping to [-1, 1] commutes with rounding to float32, so one array does both
        payload = samples.astype("<f4")
        np.clip(payload, -1.0, 1.0, out=payload)
        fmt_code, bits = _FMT_FLOAT, 32
    elif bit_depth in (16, "16", 24, "24"):
        fmt_code, bits = _FMT_PCM, int(bit_depth)
        full = float(1 << (bits - 1))
        clamped = np.clip(samples, -1.0, 1.0)
        clamped *= full
        np.clip(np.round(clamped, out=clamped), -full, full - 1, out=clamped)
        payload = clamped.astype("<i2" if bits == 16 else "<i4")
        if bits == 24:  # the low 3 bytes of each little-endian int32
            payload = payload.view(np.uint8).reshape(-1, 4)[:, :3].copy()
    else:
        raise ValueError(f"bit_depth must be 16, 24, or 'float32', got {bit_depth!r}")

    size, block_align = payload.nbytes, bits // 8
    # the RIFF header, the fmt chunk (size, format, one channel, rate, byte rate,
    # block align, bits), then the data chunk's header
    header = struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + size, b"WAVE", b"fmt ", 16, fmt_code,
                         1, PIPELINE_RATE, PIPELINE_RATE * block_align, block_align, bits,
                         b"data", size)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)
    return clipped
