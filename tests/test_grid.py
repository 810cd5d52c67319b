import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import hcf
from hcf.errors import DataError, ShapeError
from hcf.grid import check_track, nearest_period_index


class TestGridConstants:
    def test_default_periods(self, grid):
        assert grid.periods[0] == 768.0
        assert grid.periods[-1] == 96.0
        assert grid.size == 225
        assert grid.label_size == 226
        assert grid.unvoiced_index == 225
        steps = np.diff(grid.periods)
        np.testing.assert_allclose(steps, -3.0, atol=1e-12)

    def test_rounded_periods_are_exact(self, grid):
        rounded = grid.rounded_periods()
        np.testing.assert_array_equal(rounded, grid.periods.astype(np.int64))

    def test_frequencies_increase(self, grid):
        freqs = hcf.PIPELINE_RATE / grid.periods
        assert np.all(np.diff(freqs) > 0)
        assert freqs[0] == 62.5
        assert freqs[-1] == 500.0

    def test_validation(self):
        with pytest.raises(ValueError):
            hcf.F0Grid(f_min=500.0, f_max=62.5)
        with pytest.raises(ValueError):
            hcf.F0Grid(size=1)

    def test_f_max_at_nyquist_keeps_every_tap(self):
        bank = hcf.build_bank(hcf.F0Grid(f_max=hcf.PIPELINE_RATE / 2))
        assert bank.grid.rounded_periods().min() == 2
        voiced = bank.weights[:-1, 0, :, 0]
        np.testing.assert_array_equal(np.count_nonzero(voiced, axis=1), 3)

    def test_f_max_above_nyquist_rejected(self):
        with pytest.raises(ValueError, match="Nyquist"):
            hcf.F0Grid(f_max=24000.5)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("f_min", [5e-324, 1e-300, 1e-160, 5e-15])
    def test_period_too_long_to_round_rejected(self, f_min):
        # 48000 / f_min is infinite or past int64, where rounding would warn or wrap
        with pytest.raises(ValueError, match="too long"):
            hcf.F0Grid(f_min=f_min)

    def test_longest_period_under_int64_limit_rounds(self):
        assert hcf.F0Grid(f_min=1e-14).rounded_periods()[0] == 48000 * 10**14

    def test_equal_grids_compare_equal(self, grid):
        assert hcf.F0Grid() == grid
        assert hcf.F0Grid(f_min=62.5, f_max=500.0, size=225) == grid

    def test_different_size_compares_unequal(self, grid):
        assert hcf.F0Grid(size=100) != grid

    def test_hashable(self, grid):
        assert hash(hcf.F0Grid()) == hash(grid)
        assert len({grid, hcf.F0Grid(), hcf.F0Grid(size=100)}) == 2


class TestNearestIndex:
    def test_round_trip_every_candidate(self, grid):
        for i in range(grid.size):
            f = hcf.PIPELINE_RATE / grid.periods[i]
            assert hcf.nearest_index(grid, f) == i

    def test_known_frequency(self, grid):
        assert hcf.nearest_index(grid, 100.0) == 96

    def test_out_of_range_clamps(self, grid):
        assert hcf.nearest_index(grid, 10.0) == 0
        assert hcf.nearest_index(grid, 2000.0) == 224

    def test_tie_goes_to_longer_period(self, grid):
        # period 766.5 is equidistant from 768 and 765
        assert nearest_period_index(grid, 766.5) == 0
        assert nearest_period_index(grid, 97.5) == 223

    def test_nearest_period_vectorised(self, grid, rng):
        periods = np.concatenate([rng.uniform(50.0, 900.0, 64), [766.5, 97.5, 768.0]])
        picks = nearest_period_index(grid, periods)
        assert picks.shape == periods.shape
        # min() keeps the first of equal keys: the lower index, the longer period
        expected = [min(range(grid.size), key=lambda i: abs(grid.periods[i] - p)) for p in periods]
        assert picks.tolist() == expected

    def test_rejects_nonpositive(self, grid):
        for f0 in (0.0, -1.0, float("nan")):  # NaN fails too
            with pytest.raises(ValueError):
                hcf.nearest_index(grid, f0)


class TestGaussianLabel:
    def test_peak_is_one(self, grid):
        label = hcf.gaussian_label(grid, 100)
        assert label.shape == (226,)
        assert label[100] == 1.0
        assert int(np.argmax(label)) == 100

    def test_value_at_distance_five(self, grid):
        label = hcf.gaussian_label(grid, 100)
        assert label[105] == pytest.approx(math.exp(-0.5), abs=1e-5)
        assert label[95] == pytest.approx(math.exp(-0.5), abs=1e-5)

    def test_symmetric_and_decreasing(self, grid):
        label = hcf.gaussian_label(grid, 112)
        voiced = label[:225]
        for d in range(1, 50):
            assert voiced[112 - d] == pytest.approx(voiced[112 + d], rel=1e-12)
            assert voiced[112 + d] < voiced[112 + d - 1]

    def test_unvoiced_slot_untouched_by_voiced_labels(self, grid):
        assert hcf.gaussian_label(grid, 224)[225] == 0.0

    def test_unvoiced_label_is_one_hot(self, grid):
        label = hcf.gaussian_label(grid, 225)
        assert label[225] == 1.0
        np.testing.assert_array_equal(label[:225], 0.0)

    def test_no_renormalization_at_edges(self, grid):
        # an edge target keeps its untruncated Gaussian values
        label = hcf.gaussian_label(grid, 0)
        assert label[0] == 1.0
        assert label[5] == pytest.approx(math.exp(-0.5), abs=1e-5)

    def test_range_checked(self, grid):
        with pytest.raises(ValueError):
            hcf.gaussian_label(grid, 226)


class TestOneHot:
    def test_basis_vectors(self, grid):
        v0 = hcf.one_hot(grid, 0)
        v225 = hcf.one_hot(grid, 225)
        assert v0[0] == 1.0 and v0.sum() == 1.0
        assert v225[225] == 1.0 and v225.sum() == 1.0

    def test_range_checked(self, grid):
        with pytest.raises(ValueError):
            hcf.one_hot(grid, -1)


class TestBceLoss:
    def test_four_dim_toy(self):
        grid = hcf.F0Grid()
        f = np.array([0.0, 1.0, 0.0, 0.0])
        fhat = np.full(4, 0.5)
        assert hcf.bce_loss(f, fhat) == pytest.approx(4 * math.log(2), abs=1e-5)

    def test_two_dim_toy(self):
        f = np.array([0.5, 0.5])
        assert hcf.bce_loss(f, f) == pytest.approx(2 * math.log(2), abs=1e-5)

    def test_binary_match_is_near_zero(self):
        f = np.array([0.0, 1.0, 0.0, 0.0])
        assert hcf.bce_loss(f, f) <= 4 * 1e-7 * abs(math.log(1e-7))

    def test_cross_entropy_dominates_entropy(self, rng):
        for _ in range(20):
            f = rng.uniform(0.01, 0.99, size=16)
            fhat = rng.uniform(0.01, 0.99, size=16)
            assert hcf.bce_loss(f, fhat) >= hcf.bce_loss(f, f) - 1e-12

    def test_batch_mean_over_frames(self, rng):
        f = rng.uniform(0.1, 0.9, size=(6, 4))
        fhat = rng.uniform(0.1, 0.9, size=(6, 4))
        per_frame = [hcf.bce_loss(f[:, t], fhat[:, t]) for t in range(4)]
        assert hcf.bce_loss(f, fhat) == pytest.approx(np.mean(per_frame), rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            hcf.bce_loss(np.zeros(3), np.zeros(4))


class TestTrackRoundTrip:
    def test_csv_round_trip(self, grid, tmp_path):
        track = hcf.track_from_indices(grid, [96, 225, 0, 224, 225])
        path = tmp_path / "track.csv"
        hcf.write_track(track, path, grid)
        lines = path.read_text().splitlines()
        assert lines[0] == "frame,grid_index,f0_hz,voicing"
        assert lines[1:3] == ["0,96,100.000000,1.000000", "1,225,0.000000,0.000000"]
        back = hcf.read_track(path, grid)
        np.testing.assert_array_equal(back.indices, track.indices)
        np.testing.assert_allclose(back.f0_hz(grid), track.f0_hz(grid), atol=1e-6)
        np.testing.assert_array_equal(back.voiced_mask(grid), track.voiced_mask(grid))

    def test_track_from_indices_fields(self, grid):
        track = hcf.track_from_indices(grid, [96, 225])
        assert track.f0_hz(grid)[0] == pytest.approx(100.0)
        assert track.f0_hz(grid)[1] == 0.0
        assert track.voiced_mask(grid)[0]
        np.testing.assert_array_equal(track.voiced_mask(grid), [True, False])

    @pytest.mark.parametrize("index", [-1, 226])
    def test_track_from_indices_rejects_an_index_off_the_grid(self, grid, index):
        with pytest.raises(ShapeError, match=rf"frame 1: grid index {index} outside \[0, 225\]"):
            hcf.track_from_indices(grid, [96, index])

    @pytest.mark.parametrize("index", [-1, 226])
    def test_f0_hz_rejects_an_index_off_the_grid(self, grid, index):
        # -1 used to read as grid.periods[-1] (500 Hz); 226 ended in a bare IndexError
        track = hcf.F0Track(np.array([96, 225, index]))
        with pytest.raises(ShapeError, match=rf"frame 2: grid index {index} outside \[0, 225\]"):
            track.f0_hz(grid)

    @pytest.mark.parametrize("index", [-1, 226])
    def test_write_track_rejects_an_index_off_the_grid(self, grid, tmp_path, index):
        path = tmp_path / "track.csv"
        with pytest.raises(ShapeError, match=rf"frame 0: grid index {index} outside \[0, 225\]"):
            hcf.write_track(hcf.F0Track(np.array([index, 96])), path, grid)
        assert not path.exists()

    @pytest.mark.parametrize("entry", ["track_from_indices", "enhance"])
    def test_indices_that_are_not_1d_rejected(self, grid, entry):
        n_frames = 4
        indices = np.full((n_frames, 1), 100)
        with pytest.raises(ShapeError, match="1-D"):
            if entry == "track_from_indices":
                hcf.track_from_indices(grid, indices)
            else:
                noisy = hcf.AudioBuffer(np.zeros(n_frames * hcf.FrameConfig().hop_size))
                hcf.enhance(noisy, track=hcf.F0Track(indices), gain=1.0, strength=1.0)

    def test_benchmark_track_writer_round_trips(self, grid, tmp_path, monkeypatch):
        # perfbench writes its track CSVs with its own, independent writer
        source = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
        spec = importlib.util.spec_from_file_location("perfbench_inputs", source)
        inputs = importlib.util.module_from_spec(spec)
        monkeypatch.setattr(sys, "dont_write_bytecode", True)
        spec.loader.exec_module(inputs)
        indices = np.arange(grid.label_size)
        inputs.write_track(tmp_path / "bench.csv", indices)
        back = hcf.read_track(tmp_path / "bench.csv", grid)
        np.testing.assert_array_equal(back.indices, indices)
        hcf.write_track(back, tmp_path / "hcf.csv", grid)
        assert (tmp_path / "hcf.csv").read_bytes() == (tmp_path / "bench.csv").read_bytes()

    @pytest.mark.parametrize("row, f_min", [
        ("0,96,101.000000,1.000000", 62.5),  # f0_hz 1 Hz off index 96's 100 Hz
        ("0,96,nan,1.000000", 62.5),
        ("0,96,100.000000,0.500000", 62.5),
        ("0,96,100.000000,0.000000", 62.5),  # a voiced index marked unvoiced
        (None, 100.0),  # written on the default grid, where index 96 is 100 Hz
    ])
    def test_row_off_the_reading_grid_rejected(self, grid, tmp_path, row, f_min):
        path = tmp_path / "track.csv"
        hcf.write_track(hcf.track_from_indices(grid, [96, 225]), path, grid)
        if row is not None:
            lines = path.read_text().splitlines()
            path.write_text("\n".join([lines[0], row, lines[2]]) + "\n")
        with pytest.raises(DataError, match="track row 1: grid index 96"):
            hcf.read_track(path, hcf.F0Grid(f_min=f_min))

    def test_bad_header_rejected(self, grid, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c,d\n0,96,100.0,1.0\n")
        with pytest.raises(DataError, match="header"):
            hcf.read_track(path, grid)

    def test_bad_index_rejected(self, grid, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("frame,grid_index,f0_hz,voicing\n0,300,100.0,1.0\n")
        with pytest.raises(DataError, match="300"):
            hcf.read_track(path, grid)

    def test_unvoiced_consistency_enforced(self, grid, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("frame,grid_index,f0_hz,voicing\n0,225,100.0,0.0\n")
        with pytest.raises(DataError, match="unvoiced"):
            hcf.read_track(path, grid)

    def test_frame_numbering_enforced(self, grid, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("frame,grid_index,f0_hz,voicing\n1,96,100.0,1.0\n")
        with pytest.raises(DataError, match="frame numbers"):
            hcf.read_track(path, grid)


class TestCheckTrack:
    """``hcf.grid.check_track`` is the one check of a track: its frame count when
    one is expected, then each index against the rows it may name."""

    def test_frame_count_is_checked_before_the_indices(self):
        with pytest.raises(ShapeError, match=r"^track has 2 frames, expected 3$"):
            check_track(hcf.F0Track(np.array([0, 300])), 226, 3)
        check_track(hcf.F0Track(np.array([0, 225, 7])), 226, 3)

    def test_first_index_outside_the_rows_is_named(self):
        with pytest.raises(ShapeError, match=r"^frame 2: grid index 5 outside \[0, 4\]$"):
            check_track(hcf.F0Track(np.array([0, 4, 5, -1])), 5)
        check_track(hcf.F0Track(np.array([], dtype=np.int64)), 5)

    @pytest.mark.parametrize("entry", ["f0_hz", "track_from_indices", "write_track",
                                       "select_candidate", "filter_inference", "verify_routes",
                                       "enhance"])
    @pytest.mark.parametrize("index", [-1, 226])
    def test_every_entry_names_the_position_and_the_index(self, grid, bank, tmp_path, entry,
                                                          index):
        indices = np.array([96, index, 225])
        track, n, cfg = hcf.F0Track(indices), len(indices), hcf.FrameConfig()
        samples = np.zeros(n * cfg.hop_size)
        calls = {
            "f0_hz": lambda: track.f0_hz(grid),
            "track_from_indices": lambda: hcf.track_from_indices(grid, indices),
            "write_track": lambda: hcf.write_track(track, tmp_path / "track.csv", grid),
            "select_candidate": lambda: hcf.select_candidate(np.zeros((226, 4, n)), track),
            "filter_inference": lambda: hcf.filter_inference(
                bank, np.zeros((cfg.frame_size + 2 * bank.pad, n)), track),
            # the second of two tracks: a flat position in the (n_tracks, n_frames) matrix
            "verify_routes": lambda: hcf.verify_routes(
                bank, samples, np.stack([np.full(n, 96), indices]), cfg),
            "enhance": lambda: hcf.enhance(hcf.AudioBuffer(samples), track=track, gain=1.0,
                                           strength=1.0, bank=bank),
        }
        position = n + 1 if entry == "verify_routes" else 1
        with pytest.raises(ShapeError,
                           match=rf"^frame {position}: grid index {index} outside \[0, 225\]$"):
            calls[entry]()
        assert not (tmp_path / "track.csv").exists()
