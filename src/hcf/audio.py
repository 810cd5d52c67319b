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
        if samples.size and not np.all(np.isfinite(samples)):
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
            raw, raw_at = data[body : body + chunk_size], pos
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


def _decode_samples(raw: bytes, audio_format: int, bits: int) -> np.ndarray:
    if audio_format == _FMT_FLOAT:
        if bits != 32:
            raise AudioFormatError(f"float WAV must be 32-bit, got {bits}")
        out = np.frombuffer(raw, dtype="<f4")
        # checked before the cast, which warns on a signalling NaN
        if not np.all(np.isfinite(out)):
            raise AudioFormatError("data chunk contains non-finite float samples")
        return np.clip(out.astype(np.float64), -1.0, 1.0)
    if bits == 16:
        return np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    if bits == 24:
        triples = np.frombuffer(raw, dtype=np.uint8).reshape(-1, 3).astype(np.int64)
        vals = triples[:, 0] | (triples[:, 1] << 8) | (triples[:, 2] << 16)
        vals -= (vals & 0x800000) << 1  # sign-extend
        return vals.astype(np.float64) / float(1 << 23)
    if bits == 32:
        return np.frombuffer(raw, dtype="<i4").astype(np.float64) / float(1 << 31)
    raise AudioFormatError(f"unsupported PCM bit depth {bits}")


def write_wav(buffer: AudioBuffer, path, bit_depth="float32") -> int:
    """Write ``buffer`` as a little-endian WAV file at ``PIPELINE_RATE``.

    ``bit_depth`` is one of 16, 24, or "float32". Samples outside [-1, 1]
    are clamped; returns how many were.
    """
    samples = buffer.samples
    if samples.size and not np.all(np.isfinite(samples)):
        raise ValueError("cannot write non-finite samples")

    clipped = int(np.count_nonzero((samples > 1.0) | (samples < -1.0)))
    clamped = np.clip(samples, -1.0, 1.0)

    if bit_depth == "float32":
        payload = clamped.astype("<f4").tobytes()
        fmt_code, bits = _FMT_FLOAT, 32
    elif bit_depth in (16, "16"):
        ints = np.clip(np.round(clamped * 32768.0), -32768, 32767).astype("<i2")
        payload = ints.tobytes()
        fmt_code, bits = _FMT_PCM, 16
    elif bit_depth in (24, "24"):
        full = np.clip(np.round(clamped * float(1 << 23)), -(1 << 23), (1 << 23) - 1)
        full = full.astype(np.int64)
        stacked = np.empty((full.size, 3), dtype=np.uint8)
        stacked[:, 0] = full & 0xFF
        stacked[:, 1] = (full >> 8) & 0xFF
        stacked[:, 2] = (full >> 16) & 0xFF
        payload = stacked.tobytes()
        fmt_code, bits = _FMT_PCM, 24
    else:
        raise ValueError(f"bit_depth must be 16, 24, or 'float32', got {bit_depth!r}")

    block_align = bits // 8
    header = b"".join(
        [
            b"RIFF",
            struct.pack("<I", 36 + len(payload)),
            b"WAVE",
            b"fmt ",
            # fmt chunk: size, format, one channel, rate, byte rate, block align, bits
            struct.pack("<IHHIIHH", 16, fmt_code, 1, PIPELINE_RATE,
                        PIPELINE_RATE * block_align, block_align, bits),
            b"data",
            struct.pack("<I", len(payload)),
        ]
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)
    return clipped
