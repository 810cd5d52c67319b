import numpy as np
import pytest

import hcf
from hcf import estimator
from hcf.estimator import Decoder, _posteriors, analysis_window, transition_weights
from hcf.helper import BLOCK_FRAMES
from hcf.framing import windows

from reference_kernels import _track_posteriors_py

from helpers import (
    buffer,
    exhaustive_best_path,
    harmonic_complex,
    noise_at_snr,
    periodic_tone,
    posteriors,
    tone,
    traced_peak,
)

CFG = hcf.EstimatorConfig()


class TestConfig:
    def test_defaults(self, grid):
        assert CFG.yin_threshold == 0.15
        assert analysis_window(grid) == 1536
        assert CFG.transition_width == 8.0
        assert CFG.voicing_prior == 0.5
        assert CFG.switch_cost == 2.0

    def test_threshold_range(self):
        with pytest.raises(ValueError):
            hcf.EstimatorConfig(yin_threshold=0.0)

    @pytest.mark.parametrize("width", [0.0, -1.0, float("nan")])
    def test_transition_width_positive(self, width):
        with pytest.raises(ValueError, match="transition_width"):
            hcf.EstimatorConfig(transition_width=width)

    @pytest.mark.parametrize("cost", [-1.0, float("nan")])
    def test_switch_cost_nonnegative(self, cost):
        with pytest.raises(ValueError, match="switch_cost"):
            hcf.EstimatorConfig(switch_cost=cost)


def first_posterior(x, grid):
    """Frame 0's posterior; at the default geometry its window is x[:1536]."""
    return posteriors(buffer(x), grid, CFG)[0]


class TestYinFrame:
    def test_pure_100hz_peaks_at_index_96(self, grid):
        x = tone(100.0, 1536 / 48000, amp=0.9)
        posterior = first_posterior(x, grid)
        assert posterior.shape == (226,)
        assert int(np.argmax(posterior)) == 96
        assert posterior.max() == 1.0
        assert np.all(posterior >= 0.0) and np.all(posterior <= 1.0)

    def test_silence_is_unvoiced_one_hot(self, grid):
        posterior = first_posterior(np.zeros(1536), grid)
        assert posterior[225] == 1.0
        np.testing.assert_array_equal(posterior[:225], 0.0)

    def test_white_noise_mostly_unvoiced(self, grid, rng):
        hits = 0
        trials = 20
        for _ in range(trials):
            x = rng.standard_normal(1536)
            posterior = first_posterior(x, grid)
            hits += int(np.argmax(posterior)) == 225
        assert hits >= 0.9 * trials

    def test_quantization_consistency_across_grid(self, grid):
        # exact-period tones must land on their own grid index
        for index in range(0, 225, 8):
            period = int(grid.rounded_periods()[index])
            x = periodic_tone(period, 1536)
            posterior = first_posterior(x, grid)
            assert int(np.argmax(posterior)) == index, f"index {index}"

    def test_amplitude_invariance(self, grid):
        x = tone(220.0, 1536 / 48000)
        base = int(np.argmax(first_posterior(x, grid)))
        for scale in (1e-3, 0.1, 10.0):
            assert int(np.argmax(first_posterior(scale * x, grid))) == base

    def test_bce_prefers_matched_tone(self, grid):
        truth = hcf.nearest_index(grid, 150.0)
        octave = hcf.nearest_index(grid, 300.0)
        label = hcf.gaussian_label(grid, truth)
        matched = first_posterior(tone(150.0, 0.032), grid)
        shifted = first_posterior(tone(300.0, 0.032), grid)
        assert hcf.bce_loss(label, matched) < hcf.bce_loss(label, shifted)
        assert int(np.argmax(shifted)) == octave

    @pytest.mark.filterwarnings("error")
    def test_tiny_threshold_scores_unvoiced_without_overflow(self, grid):
        # min(1, dip / threshold): only a dip of exactly 0 is under 5e-324
        cfg = hcf.EstimatorConfig(yin_threshold=5e-324)
        post = posteriors(buffer(tone(150.0, 0.2)), grid, cfg)
        assert np.all((post >= 0.0) & (post <= 1.0))
        assert np.isin(post[:, grid.unvoiced_index], [0.0, 1.0]).all()


class TestViterbi:
    def test_constant_peaked_posteriors(self, grid):
        post = np.tile(hcf.gaussian_label(grid, 120), (8, 1))
        track = hcf.viterbi_track(post, grid, CFG)
        np.testing.assert_array_equal(track.indices, 120)
        assert track.f0_hz(grid)[0] == pytest.approx(grid.frequency(120))

    def test_all_unvoiced(self, grid):
        post = np.tile(hcf.one_hot(grid, 225), (6, 1))
        track = hcf.viterbi_track(post, grid, CFG)
        np.testing.assert_array_equal(track.indices, 225)
        np.testing.assert_array_equal(track.f0_hz(grid), 0.0)
        np.testing.assert_array_equal(track.voiced_mask(grid), False)

    def test_single_frame_octave_glitch_smoothed(self, grid):
        stable = hcf.gaussian_label(grid, 150)
        glitch = hcf.gaussian_label(grid, 75)
        post = np.tile(stable, (9, 1))
        post[4] = glitch
        track = hcf.viterbi_track(post, grid, CFG)
        np.testing.assert_array_equal(track.indices, 150)

    def test_dimension_checked(self, grid):
        with pytest.raises(ValueError):
            hcf.viterbi_track(np.ones((4, 100)), grid, CFG)

    @pytest.mark.parametrize("empty", ["array", "decoder"])
    def test_empty_input_raises_value_error(self, grid, empty):
        # a (0, N+1) array to viterbi_track; a Decoder built for no frames
        with pytest.raises(ValueError, match="empty input"):
            if empty == "array":
                hcf.viterbi_track(np.zeros((0, grid.label_size)), grid, CFG)
            else:
                Decoder(grid, CFG, 0)

    def test_overfeeding_raises(self, grid, rng):
        post = rng.uniform(1e-6, 1.0, size=(10, grid.label_size))
        decoder = Decoder(grid, CFG, 6)
        settled = decoder.feed(post[:4])
        with pytest.raises(ValueError, match="past the last"):
            decoder.feed(post[4:])  # 4 + 6 frames into a decoder for 6
        assert (decoder.frames, decoder.settled) == (4, settled)  # the refused block left no trace
        assert decoder.feed(post[4:6]) == 6
        for block in (post[6:7], post[6:6]):  # nothing, not even 0 rows, after the last frame
            with pytest.raises(ValueError, match="past the last"):
                decoder.feed(block)
        np.testing.assert_array_equal(decoder.indices, hcf.viterbi_track(post[:6], grid, CFG).indices)

    def test_work_arrays_released_after_the_last_frame(self, grid, rng):
        post = rng.uniform(1e-6, 1.0, size=(5, grid.label_size))
        decoder, n = Decoder(grid, CFG, len(post)), grid.label_size

        def square_arrays():
            return [k for k, v in vars(decoder).items()
                    if isinstance(v, np.ndarray) and v.shape == (n, n)]

        assert square_arrays()
        decoder.feed(post[:3])
        assert square_arrays()
        assert decoder.feed(post[3:]) == len(post)
        assert square_arrays() == []

    @pytest.mark.parametrize("n_frames", [1, 2, 4, 6])
    def test_matches_exhaustive_enumeration(self, n_frames, rng):
        small = hcf.F0Grid(f_min=1000.0, f_max=8000.0, size=7)
        assert small.label_size == 8
        trans = transition_weights(small.size, CFG)
        initial = np.concatenate([np.full(7, np.log(0.5 / 7)), [np.log(0.5)]])
        for _ in range(10):
            post = rng.uniform(1e-6, 1.0, size=(n_frames, 8))
            track = hcf.viterbi_track(post, small, CFG)
            emissions = np.log(np.maximum(post, 1e-8)).T
            expected = exhaustive_best_path(emissions, trans, initial)
            np.testing.assert_array_equal(track.indices, expected)

    def test_transition_weights_structure(self):
        trans = transition_weights(4, CFG)
        assert trans.shape == (5, 5)
        assert trans[0, 0] == 0.0
        assert trans[0, 2] == pytest.approx(-4.0 / (2 * 64.0))
        assert trans[4, 4] == 0.0
        assert trans[0, 4] == -2.0
        assert trans[4, 0] == -2.0

    @pytest.mark.parametrize("width", [8.0, 1.5, 3.7, 1e-153])
    def test_transition_weights_are_the_gaussian_cost(self, width):
        d = np.arange(225, dtype=np.float64)
        with np.errstate(over="ignore"):  # 1e-153 sends the far moves to -inf
            expected = -((d[:, None] - d[None, :]) ** 2) / (2 * width ** 2)
        trans = transition_weights(225, hcf.EstimatorConfig(transition_width=width))
        assert trans[:225, :225].tobytes() == expected.tobytes()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("width, far", [(1e-160, -np.inf), (5e-324, -np.inf), (1e300, -0.0)])
    def test_extreme_widths_keep_staying_free(self, width, far):
        # 2 * width^2 underflows to 0 or overflows to inf: no 0 / 0, no warning
        trans = transition_weights(4, hcf.EstimatorConfig(transition_width=width))
        voiced = trans[:4, :4]
        assert np.diag(voiced).tobytes() == np.full(4, -0.0).tobytes()
        off = voiced[~np.eye(4, dtype=bool)]
        assert off.tobytes() == np.full(12, far).tobytes()


class TestEstimateTrack:
    def test_harmonic_complex_in_noise(self, grid, rng):
        clean = harmonic_complex(220.0, 5, 0.6)
        noisy = buffer(clean + noise_at_snr(clean, 20.0, rng))
        track = hcf.estimate_track(noisy, grid, CFG)
        assert posteriors(noisy, grid, CFG).shape == (len(track), 226)
        target = hcf.nearest_index(grid, 220.0)
        voiced = track.voiced_mask(grid)
        # ignore boundary frames whose window sticks out of the signal
        core = voiced[2:-2]
        hits = np.abs(track.indices[2:-2][core] - target) <= 1
        assert core.sum() > 0
        assert hits.mean() >= 0.95

    def test_chirp_indices_increase(self, grid):
        fs = 48000
        t = np.arange(int(0.6 * fs)) / fs
        # exponential sweep 100 -> 400 Hz
        f0, f1, dur = 100.0, 400.0, 0.6
        phase = 2 * np.pi * f0 * dur / np.log(f1 / f0) * (np.exp(t / dur * np.log(f1 / f0)) - 1)
        track = hcf.estimate_track(buffer(0.5 * np.sin(phase)), grid, CFG)
        full = (np.arange(len(track)) * 384 + 1536) <= t.size
        idx = track.indices[track.voiced_mask(grid) & full]
        assert idx.size > 10
        assert np.all(np.diff(idx.astype(np.int64)) >= -1)
        assert idx[-1] > idx[0] + 100

    def test_silence_then_tone_flips_once(self, grid):
        fs = 48000
        x = np.concatenate([np.zeros(int(0.5 * fs)), tone(200.0, 0.5)])
        track = hcf.estimate_track(buffer(x), grid, CFG)
        voiced = track.voiced_mask(grid).astype(int)
        # trailing frames whose window runs past the signal see padded zeros
        full = (np.arange(len(track)) * 384 + 1536) <= x.size
        flips = np.nonzero(np.diff(voiced[full]))[0]
        assert flips.size == 1
        boundary_frame = int(0.5 * fs) // 384
        assert abs(int(flips[0]) + 1 - boundary_frame) <= 3

    def test_track_aligns_with_frame_count(self, grid, frame_cfg):
        x = tone(130.0, 0.25)
        track = hcf.estimate_track(buffer(x), grid, CFG, frame_cfg)
        assert len(track) == frame_cfg.n_frames(x.size)
        assert posteriors(buffer(x), grid, CFG, frame_cfg).shape[0] == len(track)

    @pytest.mark.filterwarnings("error")
    def test_vanishing_width_still_tracks_a_tone(self, grid):
        cfg = hcf.EstimatorConfig(transition_width=1e-200)
        track = hcf.estimate_track(buffer(tone(150.0, 1.0)), grid, cfg)
        voiced = track.indices[track.voiced_mask(grid)]
        assert voiced.size > len(track) // 2
        assert np.all(np.abs(voiced - hcf.nearest_index(grid, 150.0)) <= 1)


def _voiced_in_noise(seconds, seed):
    clean = harmonic_complex(180.0, 5, seconds)
    return clean + noise_at_snr(clean, 10.0, np.random.default_rng(seed))


def _silence_gaps():
    gap = np.zeros(int(0.15 * 48000))
    return np.concatenate([gap, tone(210.0, 0.2), gap, tone(140.0, 0.2)])


class TestBatchedPosterior:
    """Batched posteriors against the one-window-at-a-time reference."""

    @pytest.mark.parametrize(
        "x, frame_cfg",
        [
            (_voiced_in_noise(0.4, 1), hcf.FrameConfig()),
            (_voiced_in_noise(0.4, 2), hcf.FrameConfig(frame_size=2048, hop_size=512)),
            (_voiced_in_noise(0.3, 3), hcf.FrameConfig(frame_size=1024, hop_size=256)),
            (tone(200.0, 1000 / 48000), hcf.FrameConfig()),
            (np.array([0.3]), hcf.FrameConfig()),
            (_silence_gaps(), hcf.FrameConfig()),
        ],
        ids=["default", "frame2048_hop512", "frame1024_hop256", "shorter_than_window", "one_sample", "silence_gaps"],
    )
    def test_matches_reference(self, grid, x, frame_cfg):
        post = posteriors(buffer(x), grid, CFG, frame_cfg)
        expected = _track_posteriors_py(x, grid, CFG, frame_cfg)
        assert post.shape == expected.shape == (frame_cfg.n_frames(x.size), grid.label_size)
        np.testing.assert_allclose(post, expected, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(np.argmax(post, axis=1), np.argmax(expected, axis=1))

    def test_digital_silence_is_unvoiced_one_hot(self, grid):
        x = _silence_gaps()
        post = posteriors(buffer(x), grid, CFG)
        window = analysis_window(grid)
        starts = np.arange(post.shape[0]) * 384 + (1536 - window) // 2
        gap = int(0.15 * 48000)
        tone_len = int(0.2 * 48000)
        mid = gap + tone_len
        silent = (starts + window <= gap) | ((starts >= mid) & (starts + window <= mid + gap))
        assert silent[0] and silent.sum() >= 20
        one_hot = np.zeros(grid.label_size)
        one_hot[grid.unvoiced_index] = 1.0
        np.testing.assert_array_equal(post[silent], np.tile(one_hot, (silent.sum(), 1)))


class TestPipelinedEstimate:
    """``estimate_track`` runs the posterior blocks on either thread while the
    calling thread decodes them. Its track must equal the whole decode of the
    serial posteriors bit for bit, and ``posterior_block`` the whole-window
    posteriors."""

    @pytest.mark.parametrize("n_frames", [1, 255, 256, 257, 700])
    def test_matches_serial_blocks_and_whole_decode(self, grid, frame_cfg, n_frames):
        x = _voiced_in_noise(n_frames * 384 / 48000, n_frames)
        x[: x.size // 3] = 0.0  # a silent stretch, so the track switches voicing
        assert frame_cfg.n_frames(x.size) == n_frames
        track = hcf.estimate_track(buffer(x), grid, CFG, frame_cfg)

        window = analysis_window(grid)
        frames = windows(x, n_frames, 384, (1536 - window) // 2, window)
        serial = np.concatenate([
            _posteriors(frames[lo:lo + BLOCK_FRAMES], grid, CFG)
            for lo in range(0, n_frames, BLOCK_FRAMES)
        ])
        assert posteriors(buffer(x), grid, CFG, frame_cfg).tobytes() == serial.tobytes()
        whole = hcf.viterbi_track(serial, grid, CFG)
        assert track.indices.tobytes() == whole.indices.tobytes()

    @pytest.mark.parametrize("block", [1, 7, BLOCK_FRAMES, 128, 10_000])
    def test_settled_prefixes_join_to_the_whole_decode(self, grid, block):
        post = posteriors(buffer(_silence_gaps()), grid, CFG)
        whole = hcf.viterbi_track(post, grid, CFG).indices
        decoder, head = Decoder(grid, CFG, len(whole)), len(whole) - 1
        for lo in range(0, head, block):  # every frame but the last
            settled = decoder.feed(post[lo:min(lo + block, head)])
            assert settled == decoder.settled <= decoder.frames == min(lo + block, head)
            assert decoder.indices[:settled].tobytes() == whole[:settled].tobytes()
        assert 0 < decoder.settled < head  # the silences settle a prefix early
        assert decoder.feed(post[head:]) == len(whole)  # the last frame settles the rest
        assert decoder.indices.tobytes() == whole.tobytes()

    def test_decodes_uneven_blocks_like_the_whole_array(self, grid, rng):
        post = rng.uniform(1e-6, 1.0, size=(300, grid.label_size))
        whole = hcf.viterbi_track(post, grid, CFG)
        decoder = Decoder(grid, CFG, len(post))
        settled = [decoder.feed(block) for block in (post[:1], post[1:1], post[1:120], post[120:])]
        assert settled[-1] == decoder.settled == len(post)
        np.testing.assert_array_equal(decoder.indices[:decoder.settled], whole.indices)


class TestPosteriorBudget:
    """``estimate_track`` hands ``posterior_block`` blocks whose work stays under
    ``POSTERIOR_BYTES``; the default grid keeps whole blocks, and no row depends
    on the block size."""

    def test_one_frame_sub_blocks_match_whole_blocks(self, grid, frame_cfg, monkeypatch):
        x = buffer(_voiced_in_noise(140 * 384 / 48000, 5))  # two whole blocks and a short one
        assert estimator.POSTERIOR_BYTES // (4 * 8 * analysis_window(grid)) >= BLOCK_FRAMES
        whole = posteriors(x, grid, CFG, frame_cfg)
        rows = [estimator.posterior_block(x, lo, 1, grid, CFG, frame_cfg) for lo in range(140)]
        assert np.concatenate(rows).tobytes() == whole.tobytes()
        track = hcf.estimate_track(x, grid, CFG, frame_cfg)
        monkeypatch.setattr(estimator, "POSTERIOR_BYTES", 1)  # one frame per block
        got = hcf.estimate_track(x, grid, CFG, frame_cfg)
        assert got.indices.tobytes() == track.indices.tobytes()

    def test_long_window_block_stays_under_the_budget(self, frame_cfg, monkeypatch):
        # 96 000-sample windows: four frames' rows are 3 MB, sixteen would be 12 MB
        grid = hcf.F0Grid(f_min=1.0)
        row = 8 * analysis_window(grid)
        monkeypatch.setattr(estimator, "POSTERIOR_BYTES", 4 * 4 * row)
        x = buffer(tone(150.0, 0.2))
        real, spans = estimator.posterior_block, []

        def recording(buf, lo, n, *args):
            spans.append((lo, n))
            return real(buf, lo, n, *args)

        monkeypatch.setattr(estimator, "posterior_block", recording)
        hcf.estimate_track(x, grid, CFG, frame_cfg)
        n_frames = frame_cfg.n_frames(len(x))
        assert n_frames > 4
        assert [f for lo, n in sorted(spans) for f in range(lo, lo + n)] == list(range(n_frames))
        assert max(n for _, n in spans) <= 4
        # one such call, serially, since tracemalloc counts the helper thread too
        block, peak = traced_peak(real, x, 0, 4, grid, CFG, frame_cfg)
        assert block.shape == (4, grid.label_size)
        assert peak < estimator.POSTERIOR_BYTES + 4 * row
