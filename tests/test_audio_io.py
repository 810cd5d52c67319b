import struct

import numpy as np
import pytest

import hcf
from hcf.errors import AudioFormatError


def wav_bytes(payload, fmt_code=1, channels=1, rate=48000, bits=16, data_size=None):
    """Assemble a WAV file byte string independently of the library writer."""
    block = channels * bits // 8
    header = b"".join(
        [
            b"RIFF",
            struct.pack("<I", 36 + len(payload)),
            b"WAVE",
            b"fmt ",
            struct.pack("<IHHIIHH", 16, fmt_code, channels, rate, rate * block, block, bits),
            b"data",
            struct.pack("<I", len(payload) if data_size is None else data_size),
        ]
    )
    return header + payload


class TestAudioBuffer:
    def test_basic_fields(self):
        buf = hcf.AudioBuffer(np.zeros(480))
        assert len(buf) == 480
        assert len(buf) / hcf.PIPELINE_RATE == pytest.approx(0.01)
        assert buf.samples.dtype == np.float64

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            hcf.AudioBuffer(np.array([0.0, np.nan]))

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            hcf.AudioBuffer(np.zeros((2, 3)))


class TestReadWav:
    def test_pcm16_scaling(self, tmp_path):
        ints = [0, 16384, -16384, 32767, -32768]
        payload = struct.pack("<5h", *ints)
        path = tmp_path / "a.wav"
        path.write_bytes(wav_bytes(payload))
        buf = hcf.read_wav(path)
        np.testing.assert_allclose(buf.samples, np.array(ints) / 32768.0)

    def test_pcm24_scaling(self, tmp_path):
        vals = [0, 1 << 22, -(1 << 22), (1 << 23) - 1, -(1 << 23)]
        payload = b"".join(struct.pack("<i", v)[:3] for v in vals)
        path = tmp_path / "a.wav"
        path.write_bytes(wav_bytes(payload, bits=24))
        buf = hcf.read_wav(path)
        np.testing.assert_allclose(buf.samples, np.array(vals) / float(1 << 23))

    def test_pcm32_scaling(self, tmp_path):
        vals = [0, 1 << 30, -(1 << 30)]
        payload = struct.pack("<3i", *vals)
        path = tmp_path / "a.wav"
        path.write_bytes(wav_bytes(payload, bits=32))
        buf = hcf.read_wav(path)
        np.testing.assert_allclose(buf.samples, np.array(vals) / float(1 << 31))

    def test_float32_clamped(self, tmp_path):
        payload = struct.pack("<4f", 0.5, -0.25, 1.5, -2.0)
        path = tmp_path / "a.wav"
        path.write_bytes(wav_bytes(payload, fmt_code=3, bits=32))
        buf = hcf.read_wav(path)
        np.testing.assert_allclose(buf.samples, [0.5, -0.25, 1.0, -1.0])

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_float32_non_finite_rejected(self, tmp_path, bad):
        # checked before the clamp, which would turn an infinity into +-1
        payload = struct.pack("<3f", 0.5, bad, -0.25)
        path = tmp_path / "a.wav"
        path.write_bytes(wav_bytes(payload, fmt_code=3, bits=32))
        with pytest.raises(AudioFormatError, match="non-finite"):
            hcf.read_wav(path)

    @pytest.mark.filterwarnings("error")
    def test_float32_signalling_nan_rejected_without_warning(self, tmp_path):
        # casting this bit pattern to float64 warns, so it is checked as float32
        payload = struct.pack("<fIf", 0.5, 0x7F800001, -0.25)
        path = tmp_path / "a.wav"
        path.write_bytes(wav_bytes(payload, fmt_code=3, bits=32))
        with pytest.raises(AudioFormatError, match="non-finite"):
            hcf.read_wav(path)

    def test_stereo_averaged(self, tmp_path):
        payload = struct.pack("<4h", 1000, 3000, -2000, -4000)
        path = tmp_path / "a.wav"
        path.write_bytes(wav_bytes(payload, channels=2))
        buf = hcf.read_wav(path)
        np.testing.assert_allclose(buf.samples, [2000 / 32768.0, -3000 / 32768.0])

    def test_extensible_format(self, tmp_path):
        # WAVE_FORMAT_EXTENSIBLE wrapping plain PCM; the sub-format GUID
        # starts at byte 24 of the fmt body and leads with the code.
        fmt_body = struct.pack("<HHIIHH", 0xFFFE, 1, 48000, 96000, 2, 16)
        fmt_body += struct.pack("<HHI", 22, 16, 0)
        fmt_body += struct.pack("<H", 1) + b"\x00" * 14
        payload = struct.pack("<2h", 100, -100)
        data = b"".join(
            [
                b"RIFF",
                struct.pack("<I", 4 + 8 + len(fmt_body) + 8 + len(payload)),
                b"WAVE",
                b"fmt ",
                struct.pack("<I", len(fmt_body)),
                fmt_body,
                b"data",
                struct.pack("<I", len(payload)),
                payload,
            ]
        )
        path = tmp_path / "a.wav"
        path.write_bytes(data)
        buf = hcf.read_wav(path)
        np.testing.assert_allclose(buf.samples, [100 / 32768.0, -100 / 32768.0])

    def test_skips_unknown_chunks(self, tmp_path):
        payload = struct.pack("<2h", 64, -64)
        base = wav_bytes(payload)
        # splice a LIST chunk (odd size, so word alignment is exercised)
        inserted = b"LIST" + struct.pack("<I", 5) + b"INFOX" + b"\x00"
        data = base[:12] + inserted + base[12:]
        path = tmp_path / "a.wav"
        path.write_bytes(data)
        buf = hcf.read_wav(path)
        assert buf.samples.size == 2

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "a.wav"
        path.write_bytes(b"JUNK" + b"\x00" * 40)
        with pytest.raises(AudioFormatError, match=r"offset 0"):
            hcf.read_wav(path)

    def test_rejects_non_wave_form(self, tmp_path):
        path = tmp_path / "a.wav"
        path.write_bytes(b"RIFF" + struct.pack("<I", 4) + b"AVI " + b"\x00" * 20)
        with pytest.raises(AudioFormatError, match=r"offset 8"):
            hcf.read_wav(path)

    def test_rejects_truncated_chunk(self, tmp_path):
        data = wav_bytes(struct.pack("<4h", 0, 0, 0, 0), data_size=64)
        path = tmp_path / "a.wav"
        path.write_bytes(data)
        with pytest.raises(AudioFormatError, match=r"claims 64 bytes"):
            hcf.read_wav(path)

    def test_rejects_wrong_rate(self, tmp_path):
        path = tmp_path / "a.wav"
        path.write_bytes(wav_bytes(struct.pack("<h", 0), rate=44100))
        with pytest.raises(AudioFormatError, match=r"44100"):
            hcf.read_wav(path)

    def test_rejects_missing_data_chunk(self, tmp_path):
        full = wav_bytes(b"")
        path = tmp_path / "a.wav"
        path.write_bytes(full[: 12 + 8 + 16])  # RIFF + fmt only
        with pytest.raises(AudioFormatError, match=r"no data chunk"):
            hcf.read_wav(path)

    def test_rejects_unsupported_format_code(self, tmp_path):
        path = tmp_path / "a.wav"
        path.write_bytes(wav_bytes(struct.pack("<h", 0), fmt_code=6))
        with pytest.raises(AudioFormatError, match=r"format code 6"):
            hcf.read_wav(path)

    @pytest.mark.parametrize(
        "fmt_code,channels,bits", [(1, 1, 16), (3, 1, 32), (1, 2, 24)],
        ids=["pcm16", "float32", "pcm24-stereo"],
    )
    def test_rejects_empty_data_chunk(self, tmp_path, fmt_code, channels, bits):
        path = tmp_path / "a.wav"
        path.write_bytes(wav_bytes(b"", fmt_code=fmt_code, channels=channels, bits=bits))
        with pytest.raises(AudioFormatError, match=r"data chunk at offset 36 holds no samples"):
            hcf.read_wav(path)

    @pytest.mark.parametrize(
        "payload,fmt_code,channels,bits",
        [
            (struct.pack("<3h", 1, 2, 3) + b"\x00", 1, 1, 16),
            (struct.pack("<2f", 0.5, -0.5) + b"\x00\x00", 3, 1, 32),
            (b"\x00" * 7, 1, 1, 24),
            (struct.pack("<5h", 1, 2, 3, 4, 5), 1, 2, 16),
        ],
        ids=["pcm16-stray-byte", "float32-stray-bytes", "pcm24-stray-byte", "stereo-stray-sample"],
    )
    def test_rejects_partial_sample_frame(self, tmp_path, payload, fmt_code, channels, bits):
        path = tmp_path / "a.wav"
        path.write_bytes(wav_bytes(payload, fmt_code=fmt_code, channels=channels, bits=bits))
        with pytest.raises(AudioFormatError, match=r"data chunk at offset 36 .*sample frames"):
            hcf.read_wav(path)


class TestWriteWav:
    @pytest.mark.parametrize(
        "depth,tol", [("16", 1 / 32768), ("24", 1 / (1 << 23)), ("float32", 1e-7)]
    )
    def test_round_trip(self, tmp_path, rng, depth, tol):
        x = np.clip(0.4 * rng.standard_normal(4800), -1.0, 1.0)
        buf = hcf.AudioBuffer(x)
        path = tmp_path / "out.wav"
        assert hcf.write_wav(buf, path, bit_depth=depth) == 0
        back = hcf.read_wav(path)
        assert len(back) == len(buf)
        assert np.abs(back.samples - x).max() <= tol

    def test_integer_depth_accepted(self, tmp_path):
        buf = hcf.AudioBuffer(np.zeros(16))
        hcf.write_wav(buf, tmp_path / "a.wav", bit_depth=16)
        hcf.write_wav(buf, tmp_path / "b.wav", bit_depth=24)

    def test_clipping_counted(self, tmp_path):
        x = np.array([0.0, 1.5, -2.0, 0.5])
        assert hcf.write_wav(hcf.AudioBuffer(x), tmp_path / "a.wav", "16") == 2
        back = hcf.read_wav(tmp_path / "a.wav")
        assert back.samples.max() <= 1.0
        assert back.samples.min() >= -1.0

    def test_full_scale_positive_representable(self, tmp_path):
        x = np.array([1.0, -1.0])
        hcf.write_wav(hcf.AudioBuffer(x), tmp_path / "a.wav", "16")
        back = hcf.read_wav(tmp_path / "a.wav")
        assert back.samples[0] == pytest.approx(32767 / 32768)
        assert back.samples[1] == -1.0

    def test_rejects_unknown_depth(self, tmp_path):
        with pytest.raises(ValueError):
            hcf.write_wav(hcf.AudioBuffer(np.zeros(4)), tmp_path / "a.wav", "8")
