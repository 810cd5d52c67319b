import numpy as np
import pytest

import hcf
from hcf.errors import ShapeError
from hcf.framing import block, windows

from helpers import buffer


class TestFrameConfig:
    def test_defaults(self, frame_cfg):
        assert frame_cfg.frame_size == 1536
        assert frame_cfg.hop_size == 384
        assert frame_cfg.n_bins == 769

    def test_hop_must_divide_frame(self):
        with pytest.raises(ValueError):
            hcf.FrameConfig(frame_size=1536, hop_size=500)
        for frame_size, hop_size in [(1536, 1536), (1536, 0), (-1536, 384), (1536, 3072)]:
            with pytest.raises(ValueError, match="overlap"):
                hcf.FrameConfig(frame_size=frame_size, hop_size=hop_size)

    def test_n_frames(self, frame_cfg):
        assert frame_cfg.n_frames(1) == 1
        assert frame_cfg.n_frames(384) == 1
        assert frame_cfg.n_frames(385) == 2
        assert frame_cfg.n_frames(96000) == 250
        with pytest.raises(ValueError):
            frame_cfg.n_frames(0)


class TestFrameSignal:
    def test_columns_match_slices(self, frame_cfg, rng):
        x = rng.standard_normal(5000)
        frames = hcf.frame_signal(x, frame_cfg)
        assert frames.shape == (1536, frame_cfg.n_frames(5000))
        for t in range(frames.shape[1]):
            start = t * frame_cfg.hop_size
            chunk = x[start : start + 1536]
            np.testing.assert_array_equal(frames[: chunk.size, t], chunk)
            np.testing.assert_array_equal(frames[chunk.size :, t], 0.0)

    def test_accepts_audio_buffer(self, frame_cfg, rng):
        x = rng.standard_normal(4000)
        a = hcf.frame_signal(x, frame_cfg)
        b = hcf.frame_signal(buffer(x), frame_cfg)
        np.testing.assert_array_equal(a, b)

    def test_rejects_2d(self, frame_cfg):
        with pytest.raises(ShapeError):
            hcf.frame_signal(np.zeros((10, 2)), frame_cfg)

    def test_is_read_only(self, frame_cfg, rng):
        frames = hcf.frame_signal(rng.standard_normal(5000), frame_cfg)
        assert not frames.flags.writeable

    @pytest.mark.parametrize(
        "n_samples, start, length",
        [(5000, -768, 3072), (5000, 0, 1536), (5000, 100, 1000), (700, -300, 1536)],
    )
    def test_windows_match_row_slices(self, rng, n_samples, start, length):
        x = rng.standard_normal(n_samples)
        hop = 384
        n_frames = -(-n_samples // hop)
        rows = windows(x, n_frames, hop, start, length)
        assert rows.shape == (n_frames, length)
        for t in range(n_frames):
            idx = t * hop + start + np.arange(length)
            inside = (idx >= 0) & (idx < n_samples)
            expected = np.where(inside, x[np.clip(idx, 0, n_samples - 1)], 0.0)
            np.testing.assert_array_equal(rows[t], expected)


class TestChunkSignal:
    def test_center_equals_frame(self, frame_cfg, bank, rng):
        x = rng.standard_normal(10000)
        frames = hcf.frame_signal(x, frame_cfg)
        chunks = hcf.chunk_signal(x, frame_cfg, bank.pad)
        assert chunks.shape == (frame_cfg.frame_size + 2 * bank.pad, frames.shape[1])
        pad = bank.pad
        np.testing.assert_array_equal(chunks[pad : pad + 1536, :], frames)

    def test_context_is_real_signal(self, frame_cfg, bank, rng):
        x = rng.standard_normal(10000)
        chunks = hcf.chunk_signal(x, frame_cfg, bank.pad)
        # interior frame: left context must be the preceding samples
        t = 4
        start = t * frame_cfg.hop_size
        np.testing.assert_array_equal(
            chunks[: bank.pad, t], x[start - bank.pad : start]
        )

    def test_edges_zero_padded(self, frame_cfg, bank, rng):
        x = rng.standard_normal(2000)
        chunks = hcf.chunk_signal(x, frame_cfg, bank.pad)
        np.testing.assert_array_equal(chunks[: bank.pad, 0], 0.0)

    def test_columns_are_views_of_one_buffer(self, frame_cfg, bank, rng):
        chunks = hcf.chunk_signal(rng.standard_normal(10000), frame_cfg, bank.pad)
        assert np.shares_memory(chunks[:, 0], chunks[:, 1])
        assert not chunks.flags.writeable


class TestBlock:
    @pytest.mark.parametrize("pad", [0, 700])
    def test_block_is_its_columns_of_the_whole_framing(self, frame_cfg, rng, pad):
        x = rng.standard_normal(20000)
        whole = hcf.chunk_signal(x, frame_cfg, pad)
        assert whole.shape[1] == 53
        for lo, n in [(0, 1), (3, 17), (50, 3), (0, 53)]:
            got = block(x, frame_cfg, lo, n, pad)
            assert got.shape == (frame_cfg.frame_size + 2 * pad, n)
            assert not got.flags.writeable
            np.testing.assert_array_equal(got, whole[:, lo:lo + n])
