import numpy as np
import pytest

import hcf
from hcf.errors import ShapeError

from helpers import buffer, tone


class TestCompress:
    def test_identity_at_unit_exponent(self, rng):
        spec = rng.standard_normal((16, 4)) + 1j * rng.standard_normal((16, 4))
        out = hcf.compress(spec, 1.0)
        assert np.allclose(out, spec, atol=1e-12)

    def test_square_root_halves_log_magnitude(self):
        spec = np.array([4.0 * np.exp(1j * np.pi / 4)])
        out = hcf.compress(spec, 0.5)
        assert np.abs(out[0]) == pytest.approx(2.0, abs=1e-12)
        assert np.angle(out[0]) == pytest.approx(np.pi / 4, abs=1e-12)

    def test_zero_and_tiny_magnitudes_map_to_zero(self):
        spec = np.array([0.0 + 0.0j, 1e-13 + 0.0j, 1.0 + 0.0j])
        out = hcf.compress(spec, 0.3)
        assert out[0] == 0.0
        assert out[1] == 0.0
        assert out[2] == pytest.approx(1.0)

    def test_exponent_range_enforced(self):
        spec = np.ones(3, dtype=complex)
        with pytest.raises(ValueError):
            hcf.compress(spec, 0.0)
        with pytest.raises(ValueError):
            hcf.compress(spec, 1.5)


class TestAsymMse:
    def test_only_under_estimation_charged(self):
        target = np.array([1.0, 0.0])
        estimate = np.array([0.0, 1.0])
        # first entry under-estimated by 1, second over-estimated (free)
        assert hcf.asym_mse(target, estimate) == pytest.approx(0.5)

    def test_zero_when_estimate_covers_target(self):
        target = np.array([1.0, 2.0, 3.0])
        assert hcf.asym_mse(target, target + 0.5) == 0.0

    def test_one_sided_decomposition(self, rng):
        a = rng.standard_normal(257)
        b = rng.standard_normal(257)
        both = hcf.asym_mse(a, b) + hcf.asym_mse(b, a)
        assert both == pytest.approx(np.mean((a - b) ** 2), rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            hcf.asym_mse(np.ones(3), np.ones(4))


class TestSeLoss:
    def test_unit_toy_is_exactly_one(self):
        clean = np.ones((2, 2), dtype=complex)
        silent = np.zeros((2, 2), dtype=complex)
        total, mag_gains, mag_full, cplx = hcf.se_loss(clean, silent, silent)
        assert mag_gains == 1.0
        assert mag_full == 1.0
        assert cplx == 1.0
        assert total == 1.0

    def test_zero_at_perfect_match(self, rng):
        spec = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
        total, mag_gains, mag_full, cplx = hcf.se_loss(spec, spec, spec)
        assert total == 0.0
        assert mag_gains == 0.0 and mag_full == 0.0 and cplx == 0.0

    def test_magnitude_only_config_ignores_phase(self, rng):
        clean = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
        out = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
        cfg = hcf.LossConfig(magnitude_weight=0.0)
        rotated = out * np.exp(1j * 0.7)
        total_a = hcf.se_loss(clean, out, out, cfg)[0]
        total_b = hcf.se_loss(clean, rotated, rotated, cfg)[0]
        assert total_a == pytest.approx(total_b, rel=1e-12)
        # with a complex term the rotation is no longer free
        full = hcf.LossConfig()
        assert hcf.se_loss(clean, out, out, full)[0] != pytest.approx(
            hcf.se_loss(clean, rotated, rotated, full)[0], rel=1e-6
        )

    def test_over_suppression_costs_more_than_excess(self):
        clean = np.full((4, 4), 2.0 + 0.0j)
        quiet = np.full((4, 4), 1.0 + 0.0j)
        loud = np.full((4, 4), 3.0 + 0.0j)
        cfg = hcf.LossConfig(compression=1.0, magnitude_weight=0.0)
        assert hcf.se_loss(clean, quiet, quiet, cfg)[0] > 0.0
        assert hcf.se_loss(clean, loud, loud, cfg)[0] == 0.0

    def test_shape_mismatch(self, rng):
        spec = rng.standard_normal((8, 3)).astype(complex)
        with pytest.raises(ShapeError):
            hcf.se_loss(spec, spec[:, :2], spec)


class TestTotalLoss:
    def test_weighted_sum(self):
        assert hcf.total_loss(1.0, 2.0) == 1.2

    def test_custom_weight(self):
        cfg = hcf.LossConfig(pitch_weight=0.5)
        assert hcf.total_loss(2.0, 4.0, cfg) == 4.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            hcf.total_loss(-1.0, 0.0)
        with pytest.raises(ValueError):
            hcf.total_loss(0.0, -1.0)
        with pytest.raises(ValueError):
            hcf.total_loss(float("nan"), 1.0)
        with pytest.raises(ValueError):
            hcf.total_loss(1.0, float("nan"))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            hcf.LossConfig(compression=0.0)
        with pytest.raises(ValueError):
            hcf.LossConfig(magnitude_weight=1.5)
        for weight in (-0.1, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="pitch_weight"):
                hcf.LossConfig(pitch_weight=weight)
        hcf.LossConfig(compression=1.0, magnitude_weight=1.0, pitch_weight=0.0)


class TestSdr:
    def test_perfect_match_hits_cap(self):
        x = buffer(tone(100.0, 0.1))
        assert hcf.sdr(x, x) == 100.0

    def test_pure_rescale_hits_cap(self):
        x = tone(100.0, 0.1)
        assert hcf.sdr(buffer(x), buffer(2.0 * x)) == 100.0

    def test_orthogonal_equal_power_noise_is_zero_db(self, rng):
        s = rng.standard_normal(4096)
        n0 = rng.standard_normal(4096)
        n = n0 - (np.dot(n0, s) / np.dot(s, s)) * s
        n *= np.sqrt(np.dot(s, s) / np.dot(n, n))
        assert hcf.sdr(buffer(s * 0.1), buffer((s + n) * 0.1)) == pytest.approx(
            0.0, abs=1e-3
        )

    def test_scale_invariance(self, rng):
        s = rng.standard_normal(2048) * 0.1
        y = s + rng.standard_normal(2048) * 0.03
        a = hcf.sdr(buffer(s), buffer(y))
        b = hcf.sdr(buffer(s), buffer(7.5 * y))
        assert a == pytest.approx(b, abs=1e-9)

    def test_silent_estimate_hits_floor(self, rng):
        # its projection is 0: silent, not perfect
        s = buffer(rng.standard_normal(4096))
        assert hcf.sdr(s, buffer(np.zeros(4096))) == -100.0

    def test_orthogonal_estimate_hits_floor(self, rng):
        s = np.zeros(4096)
        s[:2048] = rng.standard_normal(2048)
        y = np.zeros(4096)
        y[2048:] = rng.standard_normal(2048)  # disjoint support: exactly orthogonal
        assert hcf.sdr(buffer(s), buffer(y)) == -100.0
        # a sine against a cosine of whole periods: orthogonal up to rounding
        t = np.arange(4800)
        sine, cosine = np.sin(2 * np.pi * t / 480), np.cos(2 * np.pi * t / 480)
        assert hcf.sdr(buffer(sine), buffer(cosine)) == -100.0

    def test_zero_reference_rejected(self, rng):
        y = buffer(rng.standard_normal(64))
        with pytest.raises(ValueError):
            hcf.sdr(buffer(np.zeros(64)), y)

    def test_length_mismatch(self, rng):
        with pytest.raises(ShapeError):
            hcf.sdr(buffer(np.ones(10)), buffer(np.ones(11)))


class TestSnr:
    def test_known_ratio(self):
        s = np.full(100, 0.2)
        y = s + np.full(100, 0.1)
        assert hcf.snr(buffer(s), buffer(y)) == pytest.approx(
            10.0 * np.log10(4.0), abs=1e-9
        )

    def test_cap_on_exact_match(self):
        x = buffer(tone(250.0, 0.05))
        assert hcf.snr(x, x) == 100.0

    def test_not_scale_invariant(self, rng):
        s = rng.standard_normal(2048) * 0.1
        y = s + rng.standard_normal(2048) * 0.03
        assert hcf.snr(buffer(s), buffer(y)) != pytest.approx(
            hcf.snr(buffer(s), buffer(2.0 * y)), abs=0.5
        )

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError):
            hcf.snr(buffer(np.zeros(16)), buffer(np.ones(16)))
