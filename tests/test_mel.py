import numpy as np
import pytest

import hcf
from hcf.errors import ShapeError


class TestMelScale:
    def test_known_values(self):
        assert hcf.hz_to_mel(0.0) == 0.0
        # 2595 * log10(1 + 1000/700)
        assert hcf.hz_to_mel(1000.0) == pytest.approx(999.9855, abs=1e-3)

    def test_round_trip(self):
        f = np.linspace(0.0, 24000.0, 97)
        np.testing.assert_allclose(hcf.mel_to_hz(hcf.hz_to_mel(f)), f, atol=1e-6)

    def test_monotone(self):
        f = np.linspace(0.0, 24000.0, 500)
        assert np.all(np.diff(hcf.hz_to_mel(f)) > 0)


class TestFilterbank:
    def test_shape(self, frame_cfg):
        fb = hcf.build_mel_filterbank(80, frame_cfg)
        assert fb.weights.shape == (80, 769)
        assert fb.n_bands == 80
        assert fb.n_bins == 769

    def test_full_coverage(self, frame_cfg):
        fb = hcf.build_mel_filterbank(80, frame_cfg)
        np.testing.assert_allclose(fb.weights.sum(axis=0), 1.0, atol=1e-12)

    @pytest.mark.parametrize("frame_size", [256, 512, 1024, 1536, 2048, 3072])
    @pytest.mark.parametrize("bands", [2, 16, 40, 80, 128])
    def test_coverage_is_exactly_one(self, frame_size, bands):
        # interpolating band values back to bins needs no division by the coverage
        cfg = hcf.FrameConfig(frame_size=frame_size, hop_size=frame_size // 4)
        fb = hcf.build_mel_filterbank(bands, cfg)
        assert np.all(fb.weights.sum(axis=0) == 1.0)

    def test_every_band_nonzero(self, frame_cfg):
        fb = hcf.build_mel_filterbank(80, frame_cfg)
        assert np.all(fb.weights.sum(axis=1) > 0)

    def test_centers_increase_and_span_range(self, frame_cfg):
        fb = hcf.build_mel_filterbank(80, frame_cfg)
        assert np.all(np.diff(fb.centers_hz) > 0)
        assert fb.centers_hz[0] == pytest.approx(0.0, abs=1e-9)
        assert fb.centers_hz[-1] == pytest.approx(24000.0, rel=1e-9)

    def test_center_bins_peak_in_own_band(self, frame_cfg):
        fb = hcf.build_mel_filterbank(80, frame_cfg)
        bin_hz = np.arange(769) * 48000 / 1536
        for b in (0, 20, 50, 79):
            nearest_bin = int(np.argmin(np.abs(bin_hz - fb.centers_hz[b])))
            assert int(np.argmax(fb.weights[:, nearest_bin])) in (b - 1, b, b + 1)

    def test_bin_weight_split_between_neighbors(self, frame_cfg):
        fb = hcf.build_mel_filterbank(80, frame_cfg)
        # every column has at most two nonzero entries and they are adjacent
        for col in range(0, 769, 37):
            nz = np.nonzero(fb.weights[:, col])[0]
            assert 1 <= nz.size <= 2
            if nz.size == 2:
                assert nz[1] == nz[0] + 1

    def test_validation(self, frame_cfg):
        with pytest.raises(ValueError):
            hcf.build_mel_filterbank(1, frame_cfg)


class TestMelEnergies:
    def test_matches_manual_sum(self, frame_cfg, rng):
        fb = hcf.build_mel_filterbank(16, frame_cfg)
        spec = rng.standard_normal((769, 5)) + 1j * rng.standard_normal((769, 5))
        energies = hcf.mel_energies(spec, fb)
        assert energies.shape == (16, 5)
        manual = np.zeros((16, 5))
        for b in range(16):
            for t in range(5):
                manual[b, t] = np.sum(fb.weights[b] * np.abs(spec[:, t]) ** 2)
        np.testing.assert_allclose(energies, manual, rtol=1e-12)

    def test_total_energy_preserved(self, frame_cfg, rng):
        # coverage sums to 1 per bin, so band energies sum to spectral power
        fb = hcf.build_mel_filterbank(80, frame_cfg)
        spec = rng.standard_normal((769, 3)) + 1j * rng.standard_normal((769, 3))
        np.testing.assert_allclose(
            hcf.mel_energies(spec, fb).sum(axis=0),
            (np.abs(spec) ** 2).sum(axis=0),
            rtol=1e-12,
        )

    def test_shape_checked(self, frame_cfg):
        fb = hcf.build_mel_filterbank(8, frame_cfg)
        with pytest.raises(ShapeError):
            hcf.mel_energies(np.zeros((100, 2)), fb)
