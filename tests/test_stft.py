import numpy as np
import pytest

import hcf
from hcf.errors import ShapeError

from helpers import interior, rel_rms


def loop_overlap_add(spec, cfg):
    """Reference synthesis: one frame at a time, in frame order, divided by the
    window sum that the frames reach in steady state (at least
    ``frame_size // hop_size`` frames)."""
    w = hcf.sqrt_hann(cfg.frame_size)
    frames = np.fft.irfft(spec, n=cfg.frame_size, axis=0) * w[:, None]
    total = (spec.shape[1] - 1) * cfg.hop_size + cfg.frame_size
    out, wsum = np.zeros(total), np.zeros(total)
    for t in range(spec.shape[1]):
        start = t * cfg.hop_size
        out[start:start + cfg.frame_size] += frames[:, t]
        wsum[start:start + cfg.frame_size] += w * w
    steady = wsum[cfg.frame_size - cfg.hop_size:cfg.frame_size]
    return out / np.tile(steady, total // cfg.hop_size)


class TestWindows:
    def test_sqrt_hann_squares_to_constant_overlap(self, frame_cfg):
        w = hcf.sqrt_hann(frame_cfg.frame_size)
        acc = np.zeros(frame_cfg.frame_size * 3)
        for k in range(acc.size // frame_cfg.hop_size - 3):
            start = k * frame_cfg.hop_size
            acc[start : start + frame_cfg.frame_size] += w * w
        steady = acc[frame_cfg.frame_size : 2 * frame_cfg.frame_size]
        np.testing.assert_allclose(steady, 2.0, atol=1e-12)

    def test_one_read_only_window_per_size(self):
        w = hcf.sqrt_hann(1536)
        assert hcf.sqrt_hann(1536) is w and not w.flags.writeable
        assert hcf.sqrt_hann(1024) is not w


class TestStft:
    def test_shape_and_tone_bin(self, frame_cfg):
        n = 1536
        x = np.sin(2.0 * np.pi * 125.0 * np.arange(4 * n) / 48000.0)
        frames = hcf.frame_signal(x, frame_cfg)
        spec = hcf.stft(frames)
        assert spec.shape == (769, frames.shape[1])
        # 125 Hz = bin 4 at 31.25 Hz spacing
        mags = np.abs(spec[:, 4])
        assert int(np.argmax(mags)) == 4

    def test_windowed_parseval(self, frame_cfg, rng):
        x = rng.standard_normal(1536)
        frames = hcf.frame_signal(x, frame_cfg)
        spec = hcf.stft(frames[:, :1])
        # rfft energy needs doubled interior bins
        e_spec = (np.abs(spec[0, 0]) ** 2 + np.abs(spec[-1, 0]) ** 2
                  + 2 * np.sum(np.abs(spec[1:-1, 0]) ** 2)) / 1536
        windowed = x * hcf.sqrt_hann(1536)
        np.testing.assert_allclose(e_spec, np.sum(windowed**2), rtol=1e-10)


class TestReconstruction:
    def test_perfect_reconstruction_interior(self, frame_cfg, rng):
        x = rng.standard_normal(48000)
        frames = hcf.frame_signal(x, frame_cfg)
        spec = hcf.stft(frames)
        out = hcf.istft_overlap_add(spec, frame_cfg, length=x.size)
        mid = interior(x.size, frame_cfg)
        assert rel_rms(out.samples[mid] - x[mid], x[mid]) <= 1e-6

    def test_output_object(self, frame_cfg, rng):
        x = rng.standard_normal(10000)
        spec = hcf.stft(hcf.frame_signal(x, frame_cfg))
        out = hcf.istft_overlap_add(spec, frame_cfg, length=x.size)
        assert isinstance(out, hcf.AudioBuffer)
        assert len(out) == x.size

    def test_length_trim_and_extend(self, frame_cfg, rng):
        x = rng.standard_normal(5000)
        spec = hcf.stft(hcf.frame_signal(x, frame_cfg))
        assert len(hcf.istft_overlap_add(spec, frame_cfg, length=4000)) == 4000
        assert len(hcf.istft_overlap_add(spec, frame_cfg, length=9000)) == 9000

    def test_bin_count_checked(self, frame_cfg):
        with pytest.raises(ShapeError):
            hcf.istft_overlap_add(np.zeros((100, 4), dtype=complex), frame_cfg)

    def test_matches_frame_loop_bit_for_bit(self, frame_cfg, rng):
        spec = rng.standard_normal((769, 70)) + 1j * rng.standard_normal((769, 70))
        expected = loop_overlap_add(spec, frame_cfg)
        assert hcf.istft_overlap_add(spec, frame_cfg).samples.tobytes() == expected.tobytes()

        # fed in uneven blocks, an empty one included, the sums round the same
        ola = hcf.OverlapAdd(frame_cfg, expected.size + 500)
        for lo, hi in [(0, 1), (1, 30), (30, 30), (30, 64), (64, 70)]:
            ola.add(spec[:, lo:hi])
        out = ola.finish().samples
        assert out[:expected.size].tobytes() == expected.tobytes()
        assert not np.any(out[expected.size:])
        short = hcf.OverlapAdd(frame_cfg, 1000)
        short.add(spec[:, :40])
        short.add(spec[:, 40:])
        assert short.finish().samples.tobytes() == expected[:1000].tobytes()

    @pytest.mark.parametrize("frame_size,hop_size", [(16, 4), (16, 8), (1536, 768), (1536, 192)])
    def test_other_geometries_match_frame_loop(self, frame_size, hop_size, rng):
        cfg = hcf.FrameConfig(frame_size=frame_size, hop_size=hop_size)
        spec = rng.standard_normal((cfg.n_bins, 20)) + 1j * rng.standard_normal((cfg.n_bins, 20))
        expected = loop_overlap_add(spec, cfg)
        ola = hcf.OverlapAdd(cfg, expected.size)
        for lo, hi in [(0, 3), (3, 11), (11, 20)]:
            ola.add(spec[:, lo:hi])
        assert ola.finish().samples.tobytes() == expected.tobytes()

    def test_edges_fade_with_the_window(self, frame_cfg, rng):
        # the partly covered edges are divided by the full window sum, never less
        x = rng.standard_normal(20 * frame_cfg.hop_size)
        out = hcf.istft_overlap_add(hcf.stft(hcf.frame_signal(x, frame_cfg)), frame_cfg).samples
        w = hcf.sqrt_hann(frame_cfg.frame_size)
        edge = frame_cfg.frame_size - frame_cfg.hop_size
        ramp = np.cumsum((w * w).reshape(-1, frame_cfg.hop_size), axis=0)[:-1].ravel() / 2.0
        np.testing.assert_allclose(out[:edge], x[:edge] * ramp, atol=1e-12)
