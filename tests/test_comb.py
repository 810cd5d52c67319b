import dataclasses
import importlib
import sys
import threading

import numpy as np
import pytest

import hcf
from hcf.cli import VERIFY_TOLERANCE, main
from hcf.errors import ShapeError
from hcf.estimator import EMISSION_FLOOR, Decoder, transition_weights, yin_difference

from helpers import periodic_tone
from reference_kernels import (
    _comb_all_py,
    _comb_inference_py,
    _viterbi_py,
    _yin_difference_py,
)


def desk_grid():
    """Tiny integer-period grid for brute-force comparisons."""
    return hcf.F0Grid(f_min=4000.0, f_max=12000.0, size=5)


class TestBuildBank:
    def test_default_taps(self, bank):
        np.testing.assert_allclose(bank.taps, [0.25, 0.5, 0.25], atol=1e-12)
        assert bank.order == 1
        assert bank.pad == 768

    def test_weight_tensor_shape(self, bank):
        assert bank.weights.shape == (226, 1, 1537, 1)

    def test_shortest_period_row_positions(self, bank):
        # candidate 224 has period 96; taps sit at center +/- 96
        row = bank.weights[224, 0, :, 0]
        np.testing.assert_array_equal(np.nonzero(row)[0], [672, 768, 864])
        assert row[768] == 0.5
        assert row[672] == 0.25
        assert row[864] == 0.25

    def test_longest_period_row_positions(self, bank):
        row = bank.weights[0, 0, :, 0]
        np.testing.assert_array_equal(np.nonzero(row)[0], [0, 768, 1536])

    def test_every_row_sums_to_one(self, bank):
        sums = bank.weights[:, 0, :, 0].sum(axis=1)
        np.testing.assert_allclose(sums, 1.0, atol=1e-12)

    def test_unvoiced_row_is_identity(self, bank):
        row = bank.weights[225, 0, :, 0]
        assert row[768] == 1.0
        assert np.count_nonzero(row) == 1

    def test_total_nonzeros(self, bank):
        assert bank.nonzero_taps() == 225 * 3 + 1

    def test_higher_order(self, grid):
        bank2 = hcf.build_bank(grid, order=2)
        assert bank2.taps.shape == (5,)
        assert bank2.taps.sum() == pytest.approx(1.0)
        assert bank2.weights.shape == (226, 1, 2 * 2 * 768 + 1, 1)
        row = bank2.weights[224, 0, :, 0]
        center = 2 * 768
        np.testing.assert_array_equal(
            np.nonzero(row)[0], center + 96 * np.array([-2, -1, 0, 1, 2])
        )

    def test_custom_taps_accepted(self, grid):
        bank = hcf.build_bank(grid, taps=[0.2, 0.6, 0.2])
        np.testing.assert_allclose(bank.taps, [0.2, 0.6, 0.2])

    def test_custom_taps_validated(self, grid):
        with pytest.raises(ValueError, match="symmetric"):
            hcf.build_bank(grid, taps=[0.1, 0.6, 0.3])
        with pytest.raises(ValueError, match="sum"):
            hcf.build_bank(grid, taps=[0.25, 0.25, 0.25])
        with pytest.raises(ValueError, match="3 taps"):
            hcf.build_bank(grid, taps=[0.5, 0.5])
        with pytest.raises(ValueError):
            hcf.build_bank(grid, order=0)


class TestAllCandidatesAgainstDenseConvolution:
    def test_matches_np_correlate(self, rng):
        grid = desk_grid()
        bank = hcf.build_bank(grid)
        frame = 32
        n_frames = 3
        chunks = rng.standard_normal((frame + 2 * bank.pad, n_frames))
        out = hcf.filter_all_candidates(bank, chunks)
        assert out.shape == (6, frame, n_frames)
        dense = bank.weights[:, 0, :, 0]
        for i in range(6):
            for t in range(n_frames):
                expected = np.correlate(chunks[:, t], dense[i], mode="valid")
                np.testing.assert_allclose(out[i, :, t], expected, atol=1e-12)

    def test_unvoiced_row_percolates_center_exactly(self, rng):
        grid = desk_grid()
        bank = hcf.build_bank(grid)
        chunks = rng.standard_normal((40 + 2 * bank.pad, 4))
        out = hcf.filter_all_candidates(bank, chunks)
        np.testing.assert_array_equal(out[5], chunks[bank.pad : bank.pad + 40, :])

    def test_constant_input_passes_every_candidate(self, bank):
        chunks = np.ones((1536 + 2 * 768, 2))
        out = hcf.filter_all_candidates(bank, chunks)
        np.testing.assert_allclose(out, 1.0, atol=1e-12)

    def test_chunk_shape_validated(self, bank):
        with pytest.raises(ShapeError):
            hcf.filter_all_candidates(bank, np.zeros((100, 2)))
        with pytest.raises(ShapeError):
            hcf.filter_all_candidates(bank, np.zeros(3072))


class TestSelectCandidate:
    def test_equals_one_hot_contraction(self, rng):
        grid = desk_grid()
        bank = hcf.build_bank(grid)
        chunks = rng.standard_normal((24 + 2 * bank.pad, 5))
        out = hcf.filter_all_candidates(bank, chunks)
        track = hcf.track_from_indices(grid, [0, 3, 5, 2, 4])
        picked = hcf.select_candidate(out, track)
        brute = np.zeros_like(picked)
        for t in range(5):
            onehot = hcf.one_hot(grid, int(track.indices[t]))
            brute[:, t] = np.tensordot(onehot, out[:, :, t], axes=(0, 0))
        np.testing.assert_array_equal(picked, brute)

    def test_all_unvoiced_returns_frames(self, rng):
        grid = desk_grid()
        bank = hcf.build_bank(grid)
        chunks = rng.standard_normal((24 + 2 * bank.pad, 3))
        out = hcf.filter_all_candidates(bank, chunks)
        track = hcf.track_from_indices(grid, [5, 5, 5])
        np.testing.assert_array_equal(
            hcf.select_candidate(out, track), chunks[bank.pad : bank.pad + 24, :]
        )

    def test_frame_count_validated(self, rng):
        grid = desk_grid()
        bank = hcf.build_bank(grid)
        chunks = rng.standard_normal((24 + 2 * bank.pad, 3))
        out = hcf.filter_all_candidates(bank, chunks)
        with pytest.raises(ShapeError):
            hcf.select_candidate(out, hcf.track_from_indices(grid, [0, 1]))


class TestPathEquivalence:
    def test_random_signal_random_track(self, grid, bank, rng):
        x = rng.standard_normal(24000)
        chunks = hcf.chunk_signal(x, hcf.FrameConfig(), bank.pad)
        n_frames = chunks.shape[1]
        all_out = hcf.filter_all_candidates(bank, chunks)
        for _ in range(3):
            track = hcf.track_from_indices(
                grid, rng.integers(0, grid.label_size, size=n_frames)
            )
            reference = hcf.select_candidate(all_out, track)
            fast = hcf.filter_inference(bank, chunks, track)
            assert np.abs(reference - fast).max() <= 1e-10

    def test_reference_route_reads_weight_tensor(self, grid, bank, rng):
        # a fault in the weight tensor must surface as a route deviation
        weights = bank.weights.copy()
        weights[96, 0, bank.pad, 0] += 0.1
        faulty = dataclasses.replace(bank, weights=weights)
        chunks = hcf.chunk_signal(rng.standard_normal(6000), hcf.FrameConfig(), bank.pad)
        track = hcf.track_from_indices(grid, np.full(chunks.shape[1], 96))
        reference = hcf.select_candidate(hcf.filter_all_candidates(faulty, chunks), track)
        fast = hcf.filter_inference(faulty, chunks, track)
        assert np.abs(reference - fast).max() > VERIFY_TOLERANCE

    def test_unvoiced_inference_is_identity(self, grid, bank, rng):
        x = rng.standard_normal(4000)
        cfg = hcf.FrameConfig()
        chunks = hcf.chunk_signal(x, cfg, bank.pad)
        track = hcf.track_from_indices(grid, np.full(chunks.shape[1], 225))
        out = hcf.filter_inference(bank, chunks, track)
        np.testing.assert_array_equal(out, hcf.frame_signal(x, cfg))

    def test_track_length_validated(self, grid, bank):
        chunks = np.zeros((3072, 4))
        with pytest.raises(ShapeError):
            hcf.filter_inference(bank, chunks, hcf.track_from_indices(grid, [0]))

    @pytest.mark.parametrize("index", [-1, 226])
    def test_out_of_range_index_rejected_on_both_routes(self, bank, rng, index):
        # an F0Track built by hand skips track_from_indices' range check
        chunks = rng.standard_normal((3072, 2))
        track = hcf.F0Track(indices=[0, index])
        with pytest.raises(ShapeError, match=r"\[0, 225\]"):
            hcf.filter_inference(bank, chunks, track)
        with pytest.raises(ShapeError, match=r"\[0, 225\]"):
            hcf.select_candidate(hcf.filter_all_candidates(bank, chunks), track)


class TestPeriodicInvariance:
    @pytest.mark.parametrize("index", [0, 32, 96, 128, 200, 224])
    def test_matched_tone_passes_unscathed(self, grid, bank, index):
        period = int(grid.rounded_periods()[index])
        frame = 1536
        x = periodic_tone(period, frame + 2 * bank.pad)
        chunks = x[:, None]
        track = hcf.track_from_indices(grid, [index])
        out = hcf.filter_inference(bank, chunks, track)[:, 0]
        center = x[bank.pad : bank.pad + frame]
        rel = np.abs(out - center).max() / np.abs(center).max()
        assert rel <= 1e-9


class TestMacCounting:
    def test_exact_counter_values(self, grid, bank, rng):
        x = rng.standard_normal(12000)
        cfg = hcf.FrameConfig()
        chunks = hcf.chunk_signal(x, cfg, bank.pad)
        n_frames = chunks.shape[1]
        indices = rng.integers(0, grid.label_size, size=n_frames)
        track = hcf.track_from_indices(grid, indices)
        n_voiced = int((indices != 225).sum())

        counter = hcf.MacCounter()
        hcf.filter_all_candidates(bank, chunks, counter=counter)
        hcf.filter_inference(bank, chunks, track, counter=counter)

        assert counter.parallel == (225 * 3 + 1) * 1536 * n_frames
        assert counter.inference == 3 * 1536 * n_voiced
        assert counter.inference == 4608 * n_voiced

    def test_ratio_exceeds_two_hundred(self, grid, bank, rng):
        x = rng.standard_normal(12000)
        chunks = hcf.chunk_signal(x, hcf.FrameConfig(), bank.pad)
        track = hcf.track_from_indices(
            grid, rng.integers(0, 225, size=chunks.shape[1])  # all voiced
        )
        counter = hcf.MacCounter()
        hcf.filter_all_candidates(bank, chunks, counter=counter)
        hcf.filter_inference(bank, chunks, track, counter=counter)
        assert counter.ratio() >= 200.0

    def test_empty_inference_ratio(self):
        assert hcf.MacCounter(parallel=10, inference=0).ratio() == np.inf


def _strided_chunks(bank, rng, frame=16, n_frames=3):
    """Overlapping strided chunk columns of one buffer, as the pipeline passes
    them, with signal (not padding) under every tap of every row."""
    cfg = hcf.FrameConfig(frame_size=frame, hop_size=4)
    x = rng.standard_normal(2 * bank.pad + frame + 4 * n_frames)
    first = -(-bank.pad // 4)  # the first chunk that starts inside the signal
    return hcf.chunk_signal(x, cfg, bank.pad)[:, first:first + n_frames]


class TestThreadedCandidates:
    """``filter_all_candidates`` fills fixed blocks of rows on the calling
    thread and one helper thread, all into the one tensor."""

    @pytest.mark.parametrize("make_bank", [
        lambda: hcf.build_bank(hcf.F0Grid()),  # 226 rows
        lambda: hcf.build_bank(desk_grid()),  # 6 rows, fewer than the row blocks
        lambda: hcf.build_bank(hcf.F0Grid(), order=2),
        lambda: hcf.build_bank(hcf.F0Grid(), taps=[0.5, 0.0, 0.5]),  # rows start off center
    ], ids=["default", "desk", "order2", "zero-center-tap"])
    def test_matches_reference_with_frequent_thread_switches(self, rng, make_bank, monkeypatch):
        bank = make_bank()
        chunks = _strided_chunks(bank, rng)
        assert np.shares_memory(chunks[:, 0], chunks[:, 1])
        comb = importlib.import_module("hcf.comb")
        real, filled = comb._fill_rows, []

        def recording(out, rows, frames_first, lo, hi):
            filled.append((lo, hi))
            real(out, rows, frames_first, lo, hi)

        monkeypatch.setattr(comb, "_fill_rows", recording)
        counter, before = hcf.MacCounter(), threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, so a shared write would show
        try:
            got = hcf.filter_all_candidates(bank, chunks, counter)
        finally:
            sys.setswitchinterval(interval)
        assert threading.active_count() == before
        n_rows = bank.grid.size + 1
        # each row is filled by exactly one block
        assert sorted(r for lo, hi in filled for r in range(lo, hi)) == list(range(n_rows))
        periods = np.concatenate([bank.rounded_periods, [0]])
        np.testing.assert_array_equal(
            got.transpose(0, 2, 1), _comb_all_py(chunks.T, periods, bank.taps, bank.pad, 16)
        )
        taps_per_row = int(np.count_nonzero(bank.taps))
        assert counter.parallel == (bank.grid.size * taps_per_row + 1) * 16 * 3

    def test_empty_weight_row_filters_to_zero(self, rng):
        # the tensor is not zeroed up front, so a row with no weight is written as zeros
        bank = hcf.build_bank(desk_grid())
        weights = bank.weights.copy()
        weights[2] = 0.0
        chunks = _strided_chunks(bank, rng)
        got = hcf.filter_all_candidates(dataclasses.replace(bank, weights=weights), chunks)
        np.testing.assert_array_equal(got[2], 0.0)
        kept = [0, 1, 3, 4, 5]
        np.testing.assert_array_equal(got[kept], hcf.filter_all_candidates(bank, chunks)[kept])

    def test_helper_block_exception_reaches_the_caller(self, rng, monkeypatch):
        bank = hcf.build_bank(hcf.F0Grid())
        comb = importlib.import_module("hcf.comb")
        real, caller, failed = comb._fill_rows, threading.current_thread(), threading.Event()

        def failing(*args):
            if threading.current_thread() is caller:
                failed.wait(timeout=30)  # hold the caller's block until the helper has failed
                return real(*args)
            failed.set()
            raise RuntimeError("row block failed")

        monkeypatch.setattr(comb, "_fill_rows", failing)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="row block failed"):
            hcf.filter_all_candidates(bank, _strided_chunks(bank, rng))
        assert threading.active_count() == before
        assert failed.is_set()

    @pytest.mark.parametrize("on_helper", [True, False])
    def test_verify_exit_code_holds_for_either_thread(self, monkeypatch, capsys, on_helper):
        comb = importlib.import_module("hcf.comb")
        real, caller, failed = comb._fill_rows, threading.current_thread(), threading.Event()

        def failing(*args):
            if (threading.current_thread() is caller) == on_helper:
                failed.wait(timeout=30)  # hold this block until the other thread has failed
                return real(*args)
            failed.set()
            raise MemoryError("row block")

        monkeypatch.setattr(comb, "_fill_rows", failing)
        before = threading.active_count()
        assert main(["verify", "--duration", "0.2", "--tracks", "1"]) == 3
        assert capsys.readouterr().err.startswith("error: out of memory: ")
        assert threading.active_count() == before


class TestFrequencyResponse:
    def test_dc_harmonics_and_midpoints(self, bank):
        # candidate 96 has period 480 -> fundamental 100 Hz
        freqs, mags = hcf.frequency_response(bank, 96, n_points=481)
        assert freqs[0] == 0.0 and freqs[-1] == 24000.0
        assert mags[0] == pytest.approx(1.0, abs=1e-12)
        for harmonic in (100.0, 500.0, 12000.0):
            k = int(np.argmin(np.abs(freqs - harmonic)))
            assert freqs[k] == harmonic
            assert mags[k] == pytest.approx(1.0, abs=1e-9)
        for midpoint in (50.0, 150.0, 23950.0):
            k = int(np.argmin(np.abs(freqs - midpoint)))
            assert freqs[k] == midpoint
            assert mags[k] == pytest.approx(0.0, abs=1e-9)

    def test_candidate_range_checked(self, bank):
        with pytest.raises(ValueError):
            hcf.frequency_response(bank, 225)


class TestKernelParity:
    """Each numpy loop against its scalar loop in reference_kernels."""

    def test_comb_kernels_match_reference(self, rng):
        grid = desk_grid()
        bank = hcf.build_bank(grid)
        frame = 16
        contiguous = rng.standard_normal((frame + 2 * bank.pad, 4))
        # the pipeline passes overlapping strided columns of one buffer, uncopied
        cfg = hcf.FrameConfig(frame_size=frame, hop_size=4)
        strided = hcf.chunk_signal(rng.standard_normal(16), cfg, bank.pad)
        assert np.shares_memory(strided[:, 0], strided[:, 1])
        periods = np.concatenate([bank.rounded_periods, [0]])
        track = hcf.track_from_indices(grid, [0, 5, 2, 4])
        for chunks in (contiguous, strided):
            np.testing.assert_array_equal(
                hcf.filter_all_candidates(bank, chunks).transpose(0, 2, 1),
                _comb_all_py(chunks.T, periods, bank.taps, bank.pad, frame),
            )
            np.testing.assert_array_equal(
                hcf.filter_inference(bank, chunks, track).T,
                _comb_inference_py(
                    chunks.T, periods[track.indices], bank.taps, bank.pad, frame
                ),
            )

    def test_yin_difference_matches_reference(self, rng):
        x = rng.standard_normal(400)
        np.testing.assert_allclose(
            yin_difference(x, 200, 150),
            _yin_difference_py(x, 200, 150),
            rtol=1e-9,
            atol=1e-12,
        )

    def test_yin_difference_matches_reference_per_row(self, rng):
        rows = rng.standard_normal((3, 400))
        d = yin_difference(rows, 200, 150)
        assert d.shape == (3, 151)
        for row, got in zip(rows, d):
            np.testing.assert_allclose(
                got, _yin_difference_py(row, 200, 150), rtol=1e-9, atol=1e-12
            )

    def test_yin_difference_on_exactly_periodic_row(self, rng):
        rows = np.stack([periodic_tone(100, 500), rng.standard_normal(500)])
        d = yin_difference(rows, 200, 300)
        assert np.all(d >= 0.0)
        lags = [100, 200, 300]
        expected = _yin_difference_py(rows[0], 200, 300)
        assert np.all(expected[lags] == 0.0)
        e_head = float(np.sum(rows[0, :200] ** 2))
        np.testing.assert_allclose(d[0, lags], expected[lags], rtol=0, atol=1e-12 * e_head)

    def test_viterbi_track_matches_reference(self, rng, monkeypatch):
        grid = desk_grid()
        cfg = hcf.EstimatorConfig(transition_width=1.5, voicing_prior=0.3, switch_cost=0.5)
        # few distinct values, so scores tie and the tie-break is pinned; 0 hits the floor
        post = rng.choice([0.0, 0.5, 1.0], size=(11, grid.label_size))
        emissions = np.log(np.maximum(post, EMISSION_FLOOR)).T
        initial = np.log(np.r_[np.full(grid.size, 0.3 / grid.size), 0.7])
        # the model's weights, then asymmetric ones, which pin the move direction
        asymmetric = rng.integers(-2, 3, (grid.label_size, grid.label_size)).astype(float)
        for trans in (transition_weights(grid.size, cfg), asymmetric):
            monkeypatch.setattr("hcf.estimator.transition_weights", lambda *_: trans)
            np.testing.assert_array_equal(
                hcf.viterbi_track(post, grid, cfg).indices,
                _viterbi_py(emissions, trans, initial),
            )

    @pytest.mark.parametrize("seed", range(4))
    def test_viterbi_shortcut_matches_reference(self, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        grid = desk_grid()
        cfg = hcf.EstimatorConfig(transition_width=1.5, voicing_prior=0.3, switch_cost=0.5)
        post = rng.choice([0.0, 0.5, 1.0], size=(48, grid.label_size))
        # unvoiced one-hot stretches, after which every survivor passes through U
        for lo in (6, 20, 33):
            post[lo:lo + rng.integers(1, 5)] = hcf.one_hot(grid, grid.unvoiced_index)
        emissions = np.log(np.maximum(post, EMISSION_FLOOR)).T
        initial = np.log(np.r_[np.full(grid.size, 0.3 / grid.size), 0.7])
        asymmetric = rng.integers(-2, 3, (grid.label_size, grid.label_size)).astype(float)
        asymmetric[0, 1] = 2.0  # the best voiced move scores above 0
        for trans in (transition_weights(grid.size, cfg), asymmetric):
            monkeypatch.setattr("hcf.estimator.transition_weights", lambda *_: trans)
            expected = _viterbi_py(emissions, trans, initial)
            decoder = Decoder(grid, cfg)
            assert decoder.top == trans[:grid.size].max()
            pieces = [decoder.feed(post[:17]), decoder.feed(post[17:])]
            # only a shortcut step settles frames before the last one is decoded
            assert 0 < decoder.settled < len(post)
            assert sum(map(len, pieces)) == decoder.settled
            path = np.concatenate(pieces + [decoder.finish()])
            np.testing.assert_array_equal(path, expected)
            np.testing.assert_array_equal(hcf.viterbi_track(post, grid, cfg).indices, expected)

    def test_yin_window_length_validated(self):
        with pytest.raises(ValueError):
            yin_difference(np.zeros(100), 80, 40)
