import hashlib
import importlib
import multiprocessing
import sys
import threading

import numpy as np
import pytest

import hcf
from hcf.cli import main
from hcf.estimator import _posteriors, analysis_window
from hcf.errors import ShapeError
from hcf.helper import AHEAD, BLOCK_FRAMES, blocks, overlap

from helpers import buffer, harmonic_complex, interior, noise_at_snr, posteriors, rel_rms, tone


def all_voiced_track(n_frames, index=96):
    return hcf.track_from_indices(hcf.F0Grid(), np.full(n_frames, index))


def all_unvoiced_track(n_frames, grid):
    return hcf.track_from_indices(grid, np.full(n_frames, grid.unvoiced_index))


def assert_bit_identical(actual, expected):
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def whole_buffer_enhance(noisy, clean, track, gain, strength, exponent, bank, counter=None):
    """``enhance`` as one pass over the whole buffer, from the public stages.

    ``gain``/``strength`` of None take the oracle. Returns (audio, strength, gain).
    """
    cfg = hcf.FrameConfig()
    chunks = hcf.chunk_signal(noisy, cfg, bank.pad)
    noisy_spec = hcf.stft(chunks[bank.pad:bank.pad + cfg.frame_size])
    filtered_spec = hcf.stft(hcf.filter_inference(bank, chunks, track, counter))
    if clean is not None:
        clean_spec = hcf.stft(hcf.frame_signal(clean, cfg))
    if gain is None:
        gain = hcf.oracle_gain(noisy_spec, clean_spec, hcf.build_mel_filterbank(cfg=cfg))
    if strength is None:
        strength = hcf.oracle_strength(noisy_spec, filtered_spec, clean_spec)
    strength = np.clip(strength, 0.0, 1.0)
    strength[:, ~track.voiced_mask(bank.grid)] = 0.0
    out_spec = hcf.blend(noisy_spec, filtered_spec, strength, gain, hcf.BlendConfig(exponent))
    return hcf.istft_overlap_add(out_spec, cfg, length=len(noisy)).samples, strength, gain


class TestOracleGain:
    def test_clean_equals_noisy_gives_unity(self, frame_cfg, rng):
        spec = hcf.stft(hcf.frame_signal(buffer(rng.standard_normal(9600)), frame_cfg))
        fb = hcf.build_mel_filterbank(80, frame_cfg)
        gain = hcf.oracle_gain(spec, spec, fb)
        assert gain.shape == spec.shape
        assert np.all(gain <= 1.0)
        assert np.min(gain) > 1.0 - 1e-6

    def test_silent_clean_gives_zero(self, frame_cfg, rng):
        noisy = hcf.stft(hcf.frame_signal(buffer(rng.standard_normal(9600)), frame_cfg))
        fb = hcf.build_mel_filterbank(80, frame_cfg)
        gain = hcf.oracle_gain(noisy, np.zeros_like(noisy), fb)
        assert np.all(gain >= 0.0)
        assert np.max(gain) < 1e-5

    def test_equal_power_noise_near_sqrt_half(self, frame_cfg, rng):
        # independent white signals of equal power: sqrt(E_s / (E_s + E_n)) ~ 0.707
        clean_x = rng.standard_normal(48000)
        noise_x = rng.standard_normal(48000)
        clean = hcf.stft(hcf.frame_signal(buffer(clean_x), frame_cfg))
        noisy = hcf.stft(hcf.frame_signal(buffer(clean_x + noise_x), frame_cfg))
        fb = hcf.build_mel_filterbank(80, frame_cfg)
        gain = hcf.oracle_gain(noisy, clean, fb)
        assert np.mean(gain) == pytest.approx(np.sqrt(0.5), abs=0.05)

    def test_gain_shape_mismatch(self, frame_cfg, rng):
        noisy = hcf.stft(hcf.frame_signal(buffer(rng.standard_normal(9600)), frame_cfg))
        fb = hcf.build_mel_filterbank(80, frame_cfg)
        with pytest.raises(ShapeError):
            hcf.oracle_gain(noisy[:, :3], noisy, fb)


class TestOracleStrength:
    def _specs(self, frame_cfg, rng, n=9600):
        x = rng.standard_normal(n)
        return hcf.stft(hcf.frame_signal(buffer(x), frame_cfg))

    def test_clean_equals_filtered_gives_one(self, frame_cfg, rng):
        noisy = self._specs(frame_cfg, rng)
        filtered = noisy * 0.5
        strength = hcf.oracle_strength(noisy, filtered, filtered)
        assert strength.shape == noisy.shape
        assert np.allclose(strength, 1.0, atol=1e-9)

    def test_clean_equals_noisy_gives_zero(self, frame_cfg, rng):
        noisy = self._specs(frame_cfg, rng)
        filtered = noisy * 0.5
        strength = hcf.oracle_strength(noisy, filtered, noisy)
        assert np.allclose(strength, 0.0, atol=1e-9)

    def test_midpoint_gives_half(self):
        noisy = np.full((769, 4), 2.0 + 0.0j)
        filtered = np.zeros((769, 4), dtype=complex)
        clean = np.ones((769, 4), dtype=complex)
        strength = hcf.oracle_strength(noisy, filtered, clean)
        assert np.allclose(strength, 0.5, atol=1e-12)

    def test_no_filter_change_gives_zero(self, frame_cfg, rng):
        noisy = self._specs(frame_cfg, rng)
        strength = hcf.oracle_strength(noisy, noisy.copy(), noisy * 0.3)
        assert np.allclose(strength, 0.0)

    def test_clipped_to_unit_interval(self, frame_cfg, rng):
        noisy = self._specs(frame_cfg, rng)
        filtered = noisy * 0.9
        # clean far beyond the filtered point along the same direction
        strength = hcf.oracle_strength(noisy, filtered, noisy * -5.0)
        assert np.all(strength >= 0.0)
        assert np.all(strength <= 1.0)

    def test_spectra_of_different_shapes_rejected(self):
        # each of these would broadcast against (769, 4) without the check
        full, column = np.ones((769, 4), dtype=complex), np.ones((769, 1), dtype=complex)
        for specs in ((column, full, full), (full, column, full), (full, full, column)):
            with pytest.raises(ShapeError, match="spectra differ"):
                hcf.oracle_strength(*specs)

    def test_least_squares_optimality(self, frame_cfg, rng):
        noisy = self._specs(frame_cfg, rng)
        filtered = self._specs(frame_cfg, np.random.default_rng(7))
        clean = 0.6 * filtered + 0.4 * noisy + 0.01 * self._specs(
            frame_cfg, np.random.default_rng(8)
        )
        strength = hcf.oracle_strength(noisy, filtered, clean)

        def err(r):
            blend = r * filtered + (1.0 - r) * noisy
            return np.sum(np.abs(clean - blend) ** 2)

        base = err(strength)
        assert base <= err(np.clip(strength + 0.05, 0.0, 1.0)) + 1e-9
        assert base <= err(np.clip(strength - 0.05, 0.0, 1.0)) + 1e-9


class TestBlend:
    def _mats(self, rng):
        y = rng.standard_normal((769, 6)) + 1j * rng.standard_normal((769, 6))
        ycf = rng.standard_normal((769, 6)) + 1j * rng.standard_normal((769, 6))
        return y, ycf

    def test_full_strength_returns_filtered_times_gain(self, rng):
        y, ycf = self._mats(rng)
        gain = rng.uniform(0.0, 1.0, y.shape)
        out = hcf.blend(y, ycf, np.ones_like(gain), gain)
        assert np.allclose(out, ycf * gain, atol=1e-12)

    def test_zero_strength_returns_noisy_times_gain(self, rng):
        y, ycf = self._mats(rng)
        gain = rng.uniform(0.0, 1.0, y.shape)
        out = hcf.blend(y, ycf, np.zeros_like(gain), gain)
        assert np.allclose(out, y * gain, atol=1e-12)

    def test_exponent_half_on_quarter_strength(self, rng):
        y, ycf = self._mats(rng)
        strength = np.full(y.shape, 0.25)
        out = hcf.blend(y, ycf, strength, np.ones_like(strength),
                        hcf.BlendConfig(exponent=0.5))
        assert np.allclose(out, 0.5 * ycf + 0.5 * y, atol=1e-12)

    def test_output_on_segment_between_inputs(self, rng):
        y, ycf = self._mats(rng)
        strength = rng.uniform(0.0, 1.0, y.shape)
        out = hcf.blend(y, ycf, strength, np.ones_like(strength))
        # convex combination: distance to each endpoint bounded by the gap
        gap = np.abs(ycf - y)
        assert np.all(np.abs(out - y) <= gap + 1e-12)
        assert np.all(np.abs(out - ycf) <= gap + 1e-12)

    def test_sqrt_exponent_leans_toward_filtered(self, rng):
        y, ycf = self._mats(rng)
        strength = np.full(y.shape, 0.3)
        plain = hcf.blend(y, ycf, strength, np.ones_like(strength))
        boosted = hcf.blend(y, ycf, strength, np.ones_like(strength),
                            hcf.BlendConfig(exponent=0.5))
        # larger effective strength pulls the blend closer to the filtered path
        assert np.mean(np.abs(boosted - ycf)) < np.mean(np.abs(plain - ycf))

    def test_shape_checks(self, rng):
        y, ycf = self._mats(rng)
        ones = np.ones(y.shape)
        with pytest.raises(ShapeError):
            hcf.blend(y, ycf[:, :2], ones, ones)
        with pytest.raises(ShapeError):
            hcf.blend(y, ycf, ones[:5], ones)
        with pytest.raises(ShapeError):
            hcf.blend(y, ycf, ones, ones[:, :3])

    def test_exponent_validation(self):
        for exponent in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="exponent"):
                hcf.BlendConfig(exponent=exponent)


class TestEnhance:
    def test_identity_settings_pass_signal_through(self, rng):
        x = rng.standard_normal(48000) * 0.2
        result = hcf.enhance(buffer(x), strength=0.0, gain=1.0)
        assert isinstance(result, hcf.EnhanceResult)
        assert result.audio.samples.shape == x.shape
        sl = interior(x.size)
        assert rel_rms(result.audio.samples[sl] - x[sl], x[sl]) <= 1e-6

    def test_all_unvoiced_track_reduces_to_gain_only(self, grid, rng):
        x = rng.standard_normal(24000) * 0.1
        n_frames = hcf.FrameConfig().n_frames(x.size)
        track = all_unvoiced_track(n_frames, grid)
        res_a = hcf.enhance(buffer(x), track=track, strength=1.0, gain=0.5)
        res_b = hcf.enhance(buffer(x), track=track, strength=0.0, gain=0.5)
        # with no voiced frames the strength path is inert
        assert np.allclose(res_a.audio.samples, res_b.audio.samples, atol=1e-12)

    def test_full_strength_preserves_clean_harmonic(self):
        x = harmonic_complex(100.0, 4, 1.0, amp=0.15)
        n_frames = hcf.FrameConfig().n_frames(x.size)
        track = all_voiced_track(n_frames, index=96)
        result = hcf.enhance(buffer(x), track=track, strength=1.0, gain=1.0)
        sl = interior(x.size)
        assert rel_rms(result.audio.samples[sl] - x[sl], x[sl]) <= 1e-4

    def test_oracle_enhancement_raises_snr(self, rng):
        clean = harmonic_complex(150.0, 5, 1.2, amp=0.12)
        noisy = clean + noise_at_snr(clean, 5.0, rng)
        result = hcf.enhance(buffer(noisy), clean=buffer(clean))
        sl = interior(noisy.size)
        before = hcf.snr(buffer(clean[sl]), buffer(noisy[sl]))
        after = hcf.snr(buffer(clean[sl]), buffer(result.audio.samples[sl]))
        assert after > before + 3.0

    def test_strength_columns_zero_on_unvoiced_frames(self, rng):
        x = np.concatenate([np.zeros(12000), tone(200.0, 0.5, amp=0.3)])
        result = hcf.enhance(buffer(x), gain=1.0, strength=1.0)
        voiced = result.track.voiced_mask(hcf.F0Grid())
        assert not np.any(result.strength[:, ~voiced])

    def test_latency_reported(self, rng):
        x = rng.standard_normal(12000) * 0.1
        result = hcf.enhance(buffer(x), strength=0.0, gain=1.0)
        assert result.latency_samples == 1536 + 768

    def test_scalar_provider_arrays_recorded(self, rng):
        x = rng.standard_normal(12000) * 0.1
        result = hcf.enhance(buffer(x), strength=0.25, gain=0.75)
        n_frames = hcf.FrameConfig().n_frames(x.size)
        assert result.gain.shape == (769, n_frames)
        assert np.all(result.gain == 0.75)
        voiced = result.track.voiced_mask(hcf.F0Grid())
        if voiced.any():
            assert np.all(result.strength[:, voiced] == 0.25)

    def test_given_maps_never_build_the_mel_filterbank(self, monkeypatch, rng):
        def unexpected(*args, **kwargs):
            raise AssertionError("mel filterbank built for given maps")

        # hcf.enhance is the re-exported function; patch the module it comes from
        module = importlib.import_module("hcf.enhance")
        monkeypatch.setattr(module, "build_mel_filterbank", unexpected)
        x = rng.standard_normal(4800)
        n_frames = hcf.FrameConfig().n_frames(x.size)
        hcf.enhance(buffer(x), track=all_voiced_track(n_frames), gain=0.5, strength=1.0)

    @pytest.mark.parametrize(
        "sources",
        [{}, {"gain": 1.0}, {"strength": 0.0}, {"clean": True, "gain": 1.0},
         {"clean": True, "strength": 0.0}, {"clean": True, "gain": 1.0, "strength": 0.0}],
        ids=["none", "gain_only", "strength_only", "clean_and_gain", "clean_and_strength",
             "clean_and_both"],
    )
    def test_exactly_one_map_source(self, rng, sources):
        x = buffer(rng.standard_normal(9600))
        if sources.pop("clean", False):
            sources["clean"] = x
        with pytest.raises(ValueError, match="clean.*gain and strength"):
            hcf.enhance(x, **sources)

    @pytest.mark.parametrize("name", ["gain", "strength"])
    def test_string_map_rejected(self, rng, name):
        maps = {"gain": 1.0, "strength": 0.0, name: "oracle"}
        with pytest.raises(ValueError, match=f"{name} map"):
            hcf.enhance(buffer(rng.standard_normal(9600)), **maps)

    def test_clean_length_mismatch(self, rng):
        x = rng.standard_normal(9600)
        with pytest.raises(ShapeError):
            hcf.enhance(buffer(x), clean=buffer(x[:-10]))

    def test_track_length_mismatch(self, grid, rng):
        x = rng.standard_normal(9600)
        track = all_voiced_track(3)
        with pytest.raises(ShapeError):
            hcf.enhance(buffer(x), track=track, strength=0.0, gain=1.0)

    def test_any_grid_or_order_runs(self, tmp_path, rng, capsys):
        # the chunk context comes from the bank, so the library runs any grid
        # or order and agrees with the CLI given the same track and maps
        noisy_path = tmp_path / "noisy.wav"
        hcf.write_wav(buffer(0.1 * rng.standard_normal(24000)), noisy_path, bit_depth="float32")
        noisy = hcf.read_wav(noisy_path)
        n_frames = hcf.FrameConfig().n_frames(len(noisy))
        cases = [
            (["--order", "2"], {"bank": hcf.build_bank(hcf.F0Grid(), order=2)}, 2 * 768),
            (["--f-min", "100"], {"grid": hcf.F0Grid(f_min=100.0)}, 480),
        ]
        for flags, kwargs, pad in cases:
            grid = kwargs.get("grid") or kwargs["bank"].grid
            track = hcf.track_from_indices(grid, rng.integers(0, grid.label_size, n_frames))
            gain, strength = (
                rng.uniform(size=(769, n_frames)).astype(np.float32).astype(np.float64)
                for _ in range(2)
            )
            result = hcf.enhance(noisy, track=track, gain=gain, strength=strength, **kwargs)
            assert result.latency_samples == 1536 + pad

            hcf.write_track(track, tmp_path / "track.csv", grid)
            hcf.write_matrix(gain, tmp_path / "gain.hcf")
            hcf.write_matrix(strength, tmp_path / "strength.hcf")
            out_path = tmp_path / "out.wav"
            assert main([
                "enhance", str(noisy_path), str(out_path), "--f0", str(tmp_path / "track.csv"),
                "--gain", str(tmp_path / "gain.hcf"), "--strength", str(tmp_path / "strength.hcf"),
                *flags,
            ]) == 0
            capsys.readouterr()
            out = hcf.read_wav(out_path).samples
            assert np.abs(out - result.audio.samples).max() <= 2.0 ** -23

    def test_grid_must_be_the_bank_grid(self, bank, rng):
        # a size-100 grid counts index 100 as unvoiced; the default bank would
        # comb-filter every frame with its period instead
        x = rng.standard_normal(24000)
        grid = hcf.F0Grid(size=100)
        track = hcf.track_from_indices(grid, np.full(hcf.FrameConfig().n_frames(x.size), 100))
        with pytest.raises(ShapeError, match="grid"):
            hcf.enhance(buffer(x), track=track, strength=1.0, gain=1.0, grid=grid, bank=bank)
        result = hcf.enhance(
            buffer(x), track=track, strength=1.0, gain=1.0, grid=hcf.F0Grid(), bank=bank
        )
        assert result.latency_samples == 1536 + bank.pad

    def test_bad_provider_rejected(self, rng):
        x = rng.standard_normal(9600)
        with pytest.raises(ValueError):
            hcf.enhance(buffer(x), gain="magic", strength=0.0)
        with pytest.raises(ValueError):
            hcf.enhance(buffer(x), gain=-0.5, strength=0.0)
        with pytest.raises(ValueError, match="gain map contains non-finite entries"):
            hcf.enhance(buffer(x), gain=float("nan"), strength=0.0)

    @pytest.mark.parametrize("index", [-1, 226])
    def test_out_of_range_track_index_rejected(self, rng, index):
        # a hand-built F0Track skips track_from_indices' range check
        x = rng.standard_normal(9600)
        n_frames = hcf.FrameConfig().n_frames(x.size)
        track = hcf.F0Track(indices=np.full(n_frames, index))
        with pytest.raises(ShapeError, match=r"\[0, 225\]"):
            hcf.enhance(buffer(x), track=track, gain=1.0, strength=1.0)

    def test_given_maps_are_not_copied(self, rng):
        x = rng.standard_normal(12000) * 0.1
        n_frames = hcf.FrameConfig().n_frames(x.size)
        gain = rng.uniform(size=(769, n_frames)).astype(np.float32)
        result = hcf.enhance(buffer(x), strength=0.5, gain=gain)
        assert result.gain is gain
        scalar = hcf.enhance(buffer(x), strength=0.5, gain=0.75)
        assert scalar.gain.strides == (0, 0) and not scalar.gain.flags.writeable
        assert scalar.audio.samples.tobytes() == hcf.enhance(
            buffer(x), strength=0.5, gain=np.full((769, n_frames), 0.75)
        ).audio.samples.tobytes()

    def test_edges_never_exceed_input_peak(self, grid, rng):
        # inconsistent spectra at the partly covered edges fade with the
        # window; dividing by the partial window sum amplified them instead
        clean = harmonic_complex(150.0, 5, 0.5, amp=0.1)
        harmonic = clean + noise_at_snr(clean, 5.0, rng)
        noise = 0.1 * rng.standard_normal(24000)
        n_frames = hcf.FrameConfig().n_frames(noise.size)
        cases = [
            (harmonic, {"clean": buffer(clean), "track": all_voiced_track(
                n_frames, hcf.nearest_index(grid, 150.0))}),
            (noise, {
                "track": hcf.track_from_indices(grid, rng.integers(0, grid.label_size, n_frames)),
                "gain": rng.uniform(size=(769, n_frames)),
                "strength": rng.uniform(size=(769, n_frames)),
            }),
        ]
        for x, kwargs in cases:
            out = hcf.enhance(buffer(x), **kwargs).audio.samples
            assert np.abs(out[:1536 - 384]).max() <= np.abs(x).max()

    def test_array_provider_shape_checked(self, rng):
        x = rng.standard_normal(9600)
        with pytest.raises(ShapeError):
            hcf.enhance(buffer(x), gain=np.ones((10, 3)), strength=0.0)

    def test_result_counts_the_macs(self, rng):
        x = rng.standard_normal(24000) * 0.1
        n_frames = hcf.FrameConfig().n_frames(x.size)
        track = all_voiced_track(n_frames)
        result = hcf.enhance(buffer(x), track=track, strength=1.0, gain=1.0)
        assert result.macs == 3 * 1536 * n_frames

    def test_macs_follow_the_bank_order(self, rng):
        x = rng.standard_normal(24000) * 0.1
        n_frames = hcf.FrameConfig().n_frames(x.size)
        indices = np.full(n_frames, 96)
        indices[::3] = hcf.F0Grid().unvoiced_index
        track = hcf.track_from_indices(hcf.F0Grid(), indices)
        bank = hcf.build_bank(hcf.F0Grid(), order=2)
        result = hcf.enhance(buffer(x), track=track, strength=1.0, gain=1.0, bank=bank)
        voiced = int(track.voiced_mask(bank.grid).sum())
        assert len(bank.taps) == 5 and 0 < voiced < n_frames
        assert result.macs == 5 * 1536 * voiced


def serial_oracle_enhance(noisy, clean, bank, counter):
    """Oracle ``enhance`` on one thread: posteriors block by block, one decode
    of the whole posterior array, then the public stages on each block of
    ``BLOCK_FRAMES`` frames in turn. Returns (audio, track, posteriors, strength, gain).
    """
    grid, cfg, est_cfg = bank.grid, hcf.FrameConfig(), hcf.EstimatorConfig()
    window = analysis_window(grid)
    n_frames = cfg.n_frames(len(noisy))
    offset = (cfg.frame_size - window) // 2
    windows = hcf.framing.windows(noisy.samples, n_frames, cfg.hop_size, offset, window)
    post = np.concatenate([
        _posteriors(windows[lo:lo + BLOCK_FRAMES], grid, est_cfg)
        for lo in range(0, n_frames, BLOCK_FRAMES)
    ])
    track = hcf.viterbi_track(post, grid, est_cfg)
    chunks = hcf.chunk_signal(noisy, cfg, bank.pad)
    frames, clean_frames = chunks[bank.pad:bank.pad + cfg.frame_size], hcf.frame_signal(clean, cfg)
    fb = hcf.build_mel_filterbank(cfg=cfg)
    ola = hcf.OverlapAdd(cfg, len(noisy))
    strength, gain = np.empty((2, cfg.n_bins, n_frames))
    for lo in range(0, n_frames, BLOCK_FRAMES):
        cols = slice(lo, lo + BLOCK_FRAMES)
        block_track = hcf.track_from_indices(grid, track.indices[cols])
        noisy_spec, clean_spec = hcf.stft(frames[:, cols]), hcf.stft(clean_frames[:, cols])
        filtered_spec = hcf.stft(hcf.filter_inference(bank, chunks[:, cols], block_track, counter))
        gain[:, cols] = hcf.oracle_gain(noisy_spec, clean_spec, fb)
        strength[:, cols] = hcf.oracle_strength(noisy_spec, filtered_spec, clean_spec)
        strength[:, cols][:, ~block_track.voiced_mask(grid)] = 0.0
        ola.add(hcf.blend(noisy_spec, filtered_spec, strength[:, cols], gain[:, cols]))
    return ola.finish().samples, track, post, strength, gain


class TestBlockedEnhance:
    """``enhance`` runs in blocks of frames after the track; its results must
    be those of one pass over the whole buffer."""

    @pytest.mark.parametrize("n_frames", [40, 150])
    @pytest.mark.parametrize("exponent", [1.0, 0.5])
    def test_given_track_is_bit_identical(self, bank, grid, rng, n_frames, exponent):
        assert n_frames % BLOCK_FRAMES  # a short last block; 40 is a single short block
        x = 0.2 * rng.standard_normal(n_frames * 384 - 100)
        indices = rng.integers(0, grid.size, n_frames)
        indices[rng.random(n_frames) < 0.5] = grid.unvoiced_index
        indices[BLOCK_FRAMES:2 * BLOCK_FRAMES] = grid.unvoiced_index  # a block with none voiced
        track = hcf.track_from_indices(grid, indices)
        # float32-valued maps, as the CLI reads them; strength overshoots [0, 1]
        gain = rng.uniform(0.0, 1.5, (769, n_frames)).astype(np.float32).astype(np.float64)
        strength = rng.uniform(-0.2, 1.2, (769, n_frames)).astype(np.float32).astype(np.float64)

        whole_counter = hcf.MacCounter()
        result = hcf.enhance(
            buffer(x), track=track, gain=gain, strength=strength,
            blend_cfg=hcf.BlendConfig(exponent), bank=bank,
        )
        audio, whole_strength, whole_gain = whole_buffer_enhance(
            buffer(x), None, track, gain, strength, exponent, bank, whole_counter
        )
        assert_bit_identical(result.audio.samples, audio)
        # the strength map is stored as float32; the blend used the float64 values
        assert_bit_identical(result.strength, whole_strength.astype(np.float32))
        assert_bit_identical(result.gain, whole_gain)
        assert result.macs == whole_counter.inference > 0

    def test_each_block_frames_only_its_own_span(self, bank, monkeypatch):
        # no zero-padded copy of the whole noisy or clean signal is made
        noisy, clean = _oracle_case(3.0)
        module = importlib.import_module("hcf.enhance")
        real, spans = module.block, []

        def recording(x, cfg, lo, n, pad=0):
            spans.append(n)
            return real(x, cfg, lo, n, pad)

        monkeypatch.setattr(module, "block", recording)
        hcf.enhance(noisy, clean=clean, bank=bank)
        n_frames = hcf.FrameConfig().n_frames(len(noisy))
        assert n_frames > 2 * BLOCK_FRAMES
        assert max(spans) <= BLOCK_FRAMES
        assert sum(spans) == 2 * n_frames  # noisy chunks and clean frames, each frame once

    def test_oracle_matches_whole_buffer(self, bank, rng):
        # the mel projections are BLAS products, which round differently
        # once a block is narrower than the whole buffer
        clean = harmonic_complex(150.0, 5, 1.2, amp=0.12)
        noisy = clean + noise_at_snr(clean, 5.0, rng)
        result = hcf.enhance(buffer(noisy), clean=buffer(clean), bank=bank)
        assert len(result.track) > BLOCK_FRAMES
        audio, strength, gain = whole_buffer_enhance(
            buffer(noisy), buffer(clean), result.track, None, None, 1.0, bank
        )
        samples = result.audio.samples
        assert samples.dtype == audio.dtype and samples.shape == audio.shape
        assert np.abs(samples - audio).max() <= 1e-12
        # the maps are stored as float32, so the rounding gap can cost one float32 spacing
        for actual, expected in ((result.strength, strength), (result.gain, gain)):
            assert actual.dtype == np.float32 and actual.shape == expected.shape
            assert np.all(np.abs(actual - expected) <= np.spacing(expected.astype(np.float32)))

    @pytest.mark.parametrize("seconds", [0.5, 3.0])
    def test_overlapped_oracle_is_bit_identical_to_serial_blocks(self, bank, seconds):
        # the posterior blocks, then the post-track blocks, each on either thread
        noisy, clean = _oracle_case(seconds)
        serial_counter = hcf.MacCounter()
        result = hcf.enhance(noisy, clean=clean, bank=bank)
        audio, track, serial_post, strength, gain = serial_oracle_enhance(
            noisy, clean, bank, serial_counter
        )
        assert_bit_identical(result.audio.samples, audio)
        assert_bit_identical(result.track.indices, track.indices)
        # the same posterior blocks and decode, without the post-track blocks
        est_track = hcf.estimate_track(noisy, bank.grid, hcf.EstimatorConfig())
        assert_bit_identical(est_track.indices, track.indices)
        assert_bit_identical(posteriors(noisy, bank.grid), serial_post)
        assert_bit_identical(result.strength, strength.astype(np.float32))
        assert_bit_identical(result.gain, gain.astype(np.float32))
        assert result.macs == serial_counter.inference > 0
        assert 0 < track.voiced_mask(bank.grid).sum() < len(track)

    @pytest.mark.parametrize("size", [1, 7, 63, 64, 65, 128, 10_000])
    def test_block_size_changes_no_posterior_track_or_given_map_audio(self, monkeypatch, bank, size):
        # the posteriors and the given-map stages are computed frame by frame
        monkeypatch.setattr("hcf.helper.BLOCK_FRAMES", size)
        noisy, _ = _oracle_case(1.2)
        grid, cfg, est_cfg = bank.grid, hcf.FrameConfig(), hcf.EstimatorConfig()
        n_frames, window = cfg.n_frames(len(noisy)), analysis_window(grid)
        frames = hcf.framing.windows(
            noisy.samples, n_frames, cfg.hop_size, (cfg.frame_size - window) // 2, window
        )
        whole = _posteriors(frames, grid, est_cfg)
        assert_bit_identical(posteriors(noisy, grid), whole)
        track = hcf.estimate_track(noisy, grid, est_cfg)
        assert_bit_identical(track.indices, hcf.viterbi_track(whole, grid, est_cfg).indices)
        assert 0 < track.voiced_mask(grid).sum() < n_frames

        rng = np.random.default_rng(7)
        # float32-valued maps, as the CLI reads them
        gain = rng.uniform(0.0, 1.5, (cfg.n_bins, n_frames)).astype(np.float32).astype(np.float64)
        strength = rng.uniform(-0.2, 1.2, gain.shape).astype(np.float32).astype(np.float64)
        result = hcf.enhance(noisy, track=track, gain=gain, strength=strength, bank=bank)
        audio, _, _ = whole_buffer_enhance(noisy, None, track, gain, strength, 1.0, bank)
        assert_bit_identical(result.audio.samples, audio)

    def test_estimates_the_track_with_one_call_of_estimate_track(self, monkeypatch, bank):
        module = importlib.import_module("hcf.enhance")
        real, calls, tracks = module.estimate_track, [], []

        def spy(*args, **kwargs):
            calls.append((args, kwargs))
            tracks.append(real(*args, **kwargs))
            return tracks[-1]

        monkeypatch.setattr(module, "estimate_track", spy)
        noisy, clean = _oracle_case(0.5)
        est_cfg, frame_cfg = hcf.EstimatorConfig(switch_cost=1.0), hcf.FrameConfig()
        result = hcf.enhance(noisy, clean=clean, bank=bank, est_cfg=est_cfg, frame_cfg=frame_cfg)
        assert len(calls) == 1
        args, kwargs = calls[0]
        assert kwargs == {} and len(args) == 4
        assert args[0] is noisy and args[1] == bank.grid
        assert args[2] is est_cfg and args[3] is frame_cfg
        assert result.track is tracks[0]
        hcf.enhance(noisy, clean=clean, bank=bank, track=result.track)
        assert len(calls) == 1  # a given track is not estimated

    def test_zero_strength_skips_the_comb(self, bank, grid, rng):
        # a frame the blend weights by 0 is passed through like an unvoiced one
        n_frames = 150
        x = 0.2 * rng.standard_normal(n_frames * 384)
        indices = rng.integers(0, grid.size, n_frames)
        indices[rng.random(n_frames) < 0.3] = grid.unvoiced_index
        track = hcf.track_from_indices(grid, indices)
        gain = rng.uniform(0.0, 1.0, (769, n_frames))
        strength = rng.uniform(-0.5, 1.0, (769, n_frames))
        strength[:, rng.random(n_frames) < 0.5] = -0.25  # clips to an all-zero column
        for given in (0.0, strength):
            result = hcf.enhance(buffer(x), track=track, gain=gain, strength=given, bank=bank)
            audio, whole_strength, _ = whole_buffer_enhance(
                buffer(x), None, track, gain, np.broadcast_to(given, gain.shape), 1.0, bank
            )
            assert_bit_identical(result.audio.samples, audio)
            assert_bit_identical(result.strength, whole_strength.astype(np.float32))
            combed = track.voiced_mask(grid) & whole_strength.any(axis=0)
            assert result.macs == 3 * 1536 * int(combed.sum())
        assert 0 < combed.sum() < track.voiced_mask(grid).sum()

    def test_zero_strength_map_does_no_comb_work(self, rng):
        x = harmonic_complex(150.0, 5, 1.2, amp=0.12) + 0.01 * rng.standard_normal(57600)
        result = hcf.enhance(buffer(x), gain=0.5, strength=0.0)
        assert result.track.voiced_mask(hcf.F0Grid()).any()
        assert result.macs == 0

    def test_zero_strength_columns_count_only_the_combed_frames(self, bank, grid, rng):
        n_frames = 150
        x = 0.2 * rng.standard_normal(n_frames * 384)
        indices = np.full(n_frames, 96)
        indices[::5] = grid.unvoiced_index
        track = hcf.track_from_indices(grid, indices)
        strength = np.full((769, n_frames), 0.5)
        zeroed = np.zeros(n_frames, dtype=bool)
        zeroed[1::4] = True
        strength[:, zeroed] = 0.0
        result = hcf.enhance(buffer(x), track=track, gain=1.0, strength=strength, bank=bank)
        combed = track.voiced_mask(grid) & ~zeroed
        assert 0 < combed.sum() < track.voiced_mask(grid).sum()
        assert result.macs == 3 * 1536 * int(combed.sum())


def _oracle_case(seconds=1.2, seed=5):
    rng = np.random.default_rng(seed)
    clean = harmonic_complex(150.0, 5, seconds, amp=0.12)
    clean[: clean.size // 4] = 0.0  # unvoiced frames among voiced ones
    return buffer(clean + noise_at_snr(clean, 20.0, rng)), buffer(clean)


def _digest(result):
    h = hashlib.sha256()
    for arr in (result.audio.samples, result.track.indices, result.strength, result.gain):
        h.update(arr.tobytes())
    return h.hexdigest()


def _fork_child(conn, noisy, clean):
    conn.send(_digest(hcf.enhance(noisy, clean=clean)))
    conn.close()


def _fail_second_call(real, on_helper, calls, failed, message):
    """``real``, raising ``RuntimeError(message)`` on its second call on the target
    thread: the helper if ``on_helper``, else the calling thread.

    Every call is appended to ``calls``. A call on the other thread holds its
    block until the target thread has failed and set ``failed``, so the target
    thread runs a second block whatever the timing.
    """
    caller = threading.current_thread()

    def failing(*args, **kwargs):
        on_target = (threading.current_thread() is caller) != on_helper
        mine = [t for t in calls if (t is caller) != on_helper]
        calls.append(threading.current_thread())
        if on_target and mine:
            failed.set()
            raise RuntimeError(message)
        if not on_target:
            failed.wait(timeout=30)
        return real(*args, **kwargs)

    return failing


class TestThreadedEnhance:
    """``enhance`` and ``estimate_track`` run at most one helper thread at a time,
    started and joined inside the call: an estimating ``enhance`` runs one inside
    its call of ``estimate_track``, then one for its post-track blocks."""

    def test_concurrent_calls_match_sequential(self):
        cases = [_oracle_case(1.2, seed) for seed in (1, 2, 3)]
        expected = [_digest(hcf.enhance(noisy, clean=clean)) for noisy, clean in cases]
        got = [None] * len(cases)

        def run(i):
            got[i] = _digest(hcf.enhance(cases[i][0], clean=cases[i][1]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, so a shared update would be lost
        try:
            threads = [threading.Thread(target=run, args=(i,)) for i in range(len(cases))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == expected

    @pytest.mark.parametrize("on_helper", [True, False])
    def test_block_exception_reaches_the_caller(self, monkeypatch, on_helper):
        noisy, clean = _oracle_case(3.0)
        assert hcf.FrameConfig().n_frames(len(noisy)) > 4 * BLOCK_FRAMES
        # with a given track only the post-track blocks run
        track = hcf.enhance(noisy, clean=clean).track
        module = importlib.import_module("hcf.enhance")
        calls, failed = [], threading.Event()
        failing = _fail_second_call(module.blend, on_helper, calls, failed, "block failed")
        monkeypatch.setattr(module, "blend", failing)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="block failed"):
            hcf.enhance(noisy, clean=clean, track=track)
        assert threading.active_count() == before
        assert any((t is threading.current_thread()) != on_helper for t in calls)
        assert failed.is_set()

    @pytest.mark.parametrize(
        "stage", ["posterior on the helper", "posterior on the caller", "decode on the caller"]
    )
    def test_estimator_exception_reaches_the_caller(self, monkeypatch, stage):
        noisy, clean = _oracle_case(3.0)
        assert hcf.FrameConfig().n_frames(len(noisy)) > 2 * BLOCK_FRAMES
        estimator = importlib.import_module("hcf.estimator")
        if stage.startswith("posterior"):
            target, name = estimator, "_posteriors"
        else:
            target, name = estimator.Decoder, "feed"
        on_helper, calls, failed = stage.endswith("helper"), [], threading.Event()
        failing = _fail_second_call(getattr(target, name), on_helper, calls, failed,
                                    "estimator failed")
        monkeypatch.setattr(target, name, failing)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="estimator failed"):
            hcf.enhance(noisy, clean=clean)
        assert threading.active_count() == before
        assert failed.is_set()
        on_caller = [t is threading.current_thread() for t in calls]
        assert on_caller.count(not on_helper) == 2  # the second call on the target failed
        if stage.startswith("decode"):
            assert on_caller == [True, True]

    def test_blocks_cut_the_frames_at_most_the_block_size_at_a_time(self, monkeypatch):
        assert blocks(0) == []
        assert blocks(130) == blocks(130, 1000) == [(0, 64), (64, 64), (128, 2)]
        assert blocks(130, 50) == [(0, 50), (50, 50), (100, 30)]
        assert blocks(5, 0) == blocks(5, -3) == [(lo, 1) for lo in range(5)]
        monkeypatch.setattr("hcf.helper.BLOCK_FRAMES", 7)  # read at call time
        assert blocks(15) == [(0, 7), (7, 7), (14, 1)]

    def test_overlap_runs_each_block_once_and_emits_in_order(self, rng):
        log, emitted, lock = [], [], threading.Lock()
        work = rng.standard_normal((12 * BLOCK_FRAMES + 5, 300))

        def run(lo, n):
            with lock:
                log.append((lo, n, len(emitted)))
            return lo, n, float(np.sort(work[lo:lo + n]).sum())  # releases the interpreter lock

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, so a race would show
        try:
            before = threading.active_count()
            for n_frames in (0, 1, BLOCK_FRAMES - 1, BLOCK_FRAMES, BLOCK_FRAMES + 1, len(work)):
                for _ in range(20):
                    log.clear(), emitted.clear()
                    overlap(blocks(n_frames), run, emitted.append)
                    assert threading.active_count() == before
                    ranges = [(lo, n) for lo, n, _ in emitted]
                    # in order, covering [0, n_frames) once, full blocks but a shorter last one
                    assert [f for lo, n in ranges for f in range(lo, lo + n)] == list(range(n_frames))
                    assert all(n == BLOCK_FRAMES for _, n in ranges[:-1])
                    assert all(0 < n <= BLOCK_FRAMES for _, n in ranges)
                    assert [total for *_, total in emitted] == [
                        float(np.sort(work[lo:lo + n]).sum()) for lo, n in ranges
                    ]
                    assert sorted((lo, n) for lo, n, _ in log) == ranges  # each block run once
                    for lo, _, done in log:
                        assert lo // BLOCK_FRAMES < done + AHEAD
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(), reason="needs fork"
    )
    def test_forked_child_after_a_call_gets_the_same_audio(self):
        noisy, clean = _oracle_case()
        expected = _digest(hcf.enhance(noisy, clean=clean))
        ctx = multiprocessing.get_context("fork")
        receive, send = ctx.Pipe(duplex=False)
        child = ctx.Process(target=_fork_child, args=(send, noisy, clean))
        child.start()
        send.close()
        assert receive.poll(60)
        got = receive.recv()
        child.join(timeout=60)
        assert not child.is_alive() and child.exitcode == 0
        assert got == expected

    def test_threaded_oracle_macs_equal_the_serial_blocks_count(self, monkeypatch, bank):
        noisy, clean = _oracle_case(2.0)
        module = importlib.import_module("hcf.enhance")
        real, threads, helper_ran = module.filter_inference, [], threading.Event()
        caller = threading.current_thread()

        def spy(*args):
            # the caller's combs wait for one on the helper, so both threads run blocks
            if threading.current_thread() is caller:
                helper_ran.wait(timeout=30)
            else:
                helper_ran.set()
            threads.append(threading.current_thread())
            return real(*args)

        monkeypatch.setattr(module, "filter_inference", spy)
        result = hcf.enhance(noisy, clean=clean, bank=bank)
        serial_counter = hcf.MacCounter()
        serial_oracle_enhance(noisy, clean, bank, serial_counter)
        assert caller in threads and len(set(threads)) == 2
        assert result.macs == serial_counter.inference > 0

    def test_mac_count_is_exact_over_blocks(self):
        noisy, clean = _oracle_case(2.0)
        result = hcf.enhance(noisy, clean=clean)
        voiced = int(result.track.voiced_mask(hcf.F0Grid()).sum())
        assert len(result.track) > 2 * BLOCK_FRAMES and 0 < voiced < len(result.track)
        assert result.macs == 3 * 1536 * voiced
