import dataclasses
import importlib
import threading
import tracemalloc

import numpy as np
import pytest

import hcf
from hcf.cli import VERIFY_TOLERANCE, main
from hcf.errors import ShapeError
from hcf.estimator import EMISSION_FLOOR, Decoder, transition_weights, yin_difference
from hcf.framing import windows

from helpers import periodic_tone, record_filter_calls, traced_peak
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


class TestDerivedGeometry:
    """The bank stores its taps, grid and weights; the order, the periods and ``pad``
    follow from the taps and the grid, so replacing either moves all three, while
    ``verify_routes`` still checks the stored weights against them."""

    def test_bank_stores_only_taps_grid_and_weights(self):
        fields = [f.name for f in dataclasses.fields(hcf.CombFilterBank)]
        assert fields == ["taps", "grid", "weights"]

    def test_replaced_taps_set_the_order(self, bank, grid, rng):
        wide = hcf.build_bank(grid, order=2)
        hann = np.hanning(7)[1:-1]
        swapped = dataclasses.replace(bank, taps=hann / hann.sum())
        assert (swapped.order, swapped.pad) == (2, 1536)
        chunks = _strided_chunks(wide, rng, n_frames=8)
        track = hcf.track_from_indices(grid, [0, 96, 224, 225, 17, 96, 150, 3])
        got = hcf.filter_inference(swapped, chunks, track)
        assert got.tobytes() == hcf.filter_inference(wide, chunks, track).tobytes()
        # the stored weights are still the order-1 tensor
        samples, cfg = 0.5 * rng.standard_normal(28800), hcf.FrameConfig()
        tracks = rng.integers(0, 225, size=(2, 75))
        assert hcf.verify_routes(swapped, samples, tracks, cfg) > VERIFY_TOLERANCE

    def test_replaced_grid_sets_the_periods_and_pad(self, bank, rng):
        grid = hcf.F0Grid(f_min=100.0)
        moved, built = dataclasses.replace(bank, grid=grid), hcf.build_bank(grid)
        assert moved.pad == built.pad == 480
        chunks = _strided_chunks(built, rng, n_frames=8)
        track = hcf.track_from_indices(grid, [0, 96, 224, 225, 17, 96, 150, 3])
        got = hcf.filter_inference(moved, chunks, track)
        assert got.tobytes() == hcf.filter_inference(built, chunks, track).tobytes()


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

    @pytest.mark.parametrize("shape", [(6, 24), (6, 24, 3, 1)])
    def test_tensor_that_is_not_3d_rejected(self, shape):
        # unchecked, unpacking the shape would raise a bare ValueError naming no shape
        track = hcf.track_from_indices(desk_grid(), [0, 1, 5])
        with pytest.raises(ShapeError, match=r"expected \(rows, frame, n_frames\)"):
            hcf.select_candidate(np.zeros(shape), track)


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

    def test_unvoiced_frames_are_copied_without_a_multiply(self, grid, bank, rng):
        # the identity row reads the signal itself: no scaled copy of the stretch it reaches
        cfg = hcf.FrameConfig()
        chunks = hcf.chunk_signal(rng.standard_normal(64 * cfg.hop_size), cfg, bank.pad)
        n = chunks.shape[1]
        track = hcf.track_from_indices(grid, np.full(n, grid.unvoiced_index))
        out, peak = traced_peak(hcf.filter_inference, bank, chunks, track)
        np.testing.assert_array_equal(out, chunks[bank.pad:bank.pad + cfg.frame_size])
        stretch = (n - 1) * cfg.hop_size + bank.pad + cfg.frame_size
        assert peak < out.nbytes + 8 * stretch
        # float32 samples and signed zeros come out with their float64 bits
        small = rng.standard_normal((cfg.frame_size + 2 * bank.pad, 3)).astype(np.float32)
        small[::7] = -0.0
        track = hcf.track_from_indices(grid, np.full(3, grid.unvoiced_index))
        got = hcf.filter_inference(bank, small, track)
        want = small[bank.pad:bank.pad + cfg.frame_size].astype(np.float64)
        assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()

    def test_zero_frames_give_empty_outputs_on_both_routes(self, grid, bank):
        chunks = np.zeros((1536 + 2 * bank.pad, 0))
        track = hcf.track_from_indices(grid, [])
        assert hcf.filter_inference(bank, chunks, track).shape == (1536, 0)
        assert hcf.filter_all_candidates(bank, chunks).shape == (226, 1536, 0)

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


def _strided_chunks(bank, rng, frame=16, n_frames=3, signed_zeros=False):
    """Overlapping strided chunk columns of one buffer, as the pipeline passes
    them, with signal (not padding) under every tap of every row; with
    ``signed_zeros``, every other sample and the middle third are -0.0."""
    cfg = hcf.FrameConfig(frame_size=frame, hop_size=4)
    x = rng.standard_normal(2 * bank.pad + frame + 4 * n_frames)
    if signed_zeros:
        x[::2] = -0.0
        x[len(x) // 3:2 * len(x) // 3] = -0.0
    first = -(-bank.pad // 4)  # the first chunk that starts inside the signal
    return hcf.chunk_signal(x, cfg, bank.pad)[:, first:first + n_frames]


def _every_pair(bank, chunks, step=None):
    """``comb._filter`` with the tensor's rows over every (frame, row) pair of
    ``chunks``, frame after frame, ``step`` pairs at a time (all at once by
    default), each step into a NaN-filled prefix of one reused buffer, so a
    skipped entry would stay NaN; returns the pairs as the ``(N+1, frame,
    n_frames)`` candidate tensor."""
    comb = importlib.import_module("hcf.comb")
    frame, n_frames = chunks.shape[0] - 2 * bank.pad, chunks.shape[1]
    n_rows = len(bank.weights)
    signal, hop = comb._signal(chunks)
    rows = comb._scan(bank.weights)
    ts, indices = np.divmod(np.arange(n_frames * n_rows), n_rows)
    buffer = np.empty((step or len(ts), frame))
    got = np.empty((n_rows, frame, n_frames))
    for s in range(0, len(ts), len(buffer)):
        t, i = ts[s:s + len(buffer)], indices[s:s + len(buffer)]
        out = buffer[:len(t)]
        out[:] = np.nan
        comb._filter(rows, signal, hop, t, i, out)
        got[i, :, t] = out
    return got


class TestCandidateFill:
    """``filter_all_candidates`` fills every row on the calling thread."""

    @pytest.mark.parametrize("make_bank", [
        lambda: hcf.build_bank(hcf.F0Grid()),  # 226 rows
        lambda: hcf.build_bank(desk_grid()),  # 6 rows
        lambda: hcf.build_bank(hcf.F0Grid(), order=2),
        lambda: hcf.build_bank(hcf.F0Grid(), taps=[0.5, 0.0, 0.5]),  # rows start off center
    ], ids=["default", "desk", "order2", "zero-center-tap"])
    def test_matches_reference(self, rng, make_bank):
        bank = make_bank()
        chunks = _strided_chunks(bank, rng)
        assert np.shares_memory(chunks[:, 0], chunks[:, 1])
        counter = hcf.MacCounter()
        got = hcf.filter_all_candidates(bank, chunks, counter)
        periods = np.concatenate([bank.grid.rounded_periods(), [0]])
        np.testing.assert_array_equal(
            got.transpose(0, 2, 1), _comb_all_py(chunks.T, periods, bank.taps, bank.pad, 16)
        )
        taps_per_row = int(np.count_nonzero(bank.taps))
        assert counter.parallel == (bank.grid.size * taps_per_row + 1) * 16 * 3

    def test_empty_weight_row_filters_to_zero(self, rng):
        # the output is not zeroed up front, so a row with no weight is written as zeros,
        # also by the pair kernel into a dirty reused buffer
        bank = hcf.build_bank(desk_grid())
        faulty = dataclasses.replace(bank, weights=bank.weights.copy())
        faulty.weights[2] = 0.0
        chunks = _strided_chunks(bank, rng)
        kept = [0, 1, 3, 4, 5]
        for got in (hcf.filter_all_candidates(faulty, chunks), _every_pair(faulty, chunks)):
            np.testing.assert_array_equal(got[2], 0.0)
            np.testing.assert_array_equal(got[kept], hcf.filter_all_candidates(bank, chunks)[kept])

    def test_fill_starts_no_thread(self, rng, monkeypatch):
        comb = importlib.import_module("hcf.comb")
        real, threads = comb._scaled, []

        def recording(*args):
            threads.append(threading.current_thread())
            return real(*args)

        def no_start(thread):
            raise AssertionError("the candidate fill started a thread")

        monkeypatch.setattr(comb, "_scaled", recording)
        monkeypatch.setattr(threading.Thread, "start", no_start)
        bank = hcf.build_bank(hcf.F0Grid())
        hcf.filter_all_candidates(bank, _strided_chunks(bank, rng))
        # once per weight sequence: the voiced rows' taps and the identity row's 1.0
        assert threads == [threading.current_thread()] * 2

    def test_verify_out_of_memory_in_the_fill_exits_three(self, monkeypatch, capsys):
        comb = importlib.import_module("hcf.comb")

        def failing(*args):
            raise MemoryError("candidate fill")

        monkeypatch.setattr(comb, "_scaled", failing)
        assert main(["verify", "--duration", "0.2", "--tracks", "1"]) == 3
        assert capsys.readouterr().err.startswith("error: out of memory: ")


def _record_field(x):
    """``x`` as a field of records padded by 4 bytes: its hop is no whole sample."""
    records = np.zeros(x.shape[1], dtype=[("x", "f8", (len(x),)), ("pad", "u1", (4,))])
    records["x"] = x.T
    return records["x"].T


class TestSignalLayouts:
    """The fill filters the signal whose windows are the chunk columns: read in
    place for overlapping strided columns of one float64 buffer, copied column
    after column (hop = chunk length) for any other layout."""

    # contiguous columns but a negative, zero, too long or fractional hop must be copied too
    LAYOUTS = {
        "c-contiguous": lambda x: x,
        "fortran": np.asfortranarray,
        "float32": lambda x: np.asfortranarray(x, dtype=np.float32),
        "reversed": lambda x: np.asfortranarray(x)[:, ::-1],
        "broadcast": lambda x: np.broadcast_to(x[:, :1].copy(), x.shape),
        "spaced": lambda x: np.asfortranarray(np.hstack([x, x[::-1]]))[:, ::2],
        "adjacent": lambda x: windows(x.T.ravel(), x.shape[1], len(x), 0, len(x)).T,
        "single-column": lambda x: x[:, 1:2],
        "record-field": _record_field,
    }

    @pytest.mark.parametrize("layout", [*LAYOUTS, "pipeline"])
    def test_every_layout_matches_reference_byte_for_byte(self, rng, layout):
        bank = hcf.build_bank(desk_grid())
        if layout == "pipeline":
            chunks = _strided_chunks(bank, rng)
        else:
            chunks = self.LAYOUTS[layout](rng.standard_normal((16 + 2 * bank.pad, 4)))
        periods = np.concatenate([bank.grid.rounded_periods(), [0]])
        want = _comb_all_py(
            np.asarray(chunks, dtype=np.float64).T, periods, bank.taps, bank.pad, 16
        )
        got = hcf.filter_all_candidates(bank, chunks)
        assert got.shape == (6, 16, chunks.shape[1])
        assert np.ascontiguousarray(got.transpose(0, 2, 1)).tobytes() == want.tobytes()

    @pytest.mark.parametrize("layout, hop, in_place", [
        ("pipeline", 4, True),
        ("fortran", None, True),
        ("float32", None, True),
        ("adjacent", None, True),
        ("c-contiguous", None, False),
        ("reversed", None, False),
        ("broadcast", None, False),
        ("spaced", None, False),
        ("single-column", None, False),
        ("record-field", None, False),
    ])
    def test_overlapping_columns_are_read_in_place(self, rng, layout, hop, in_place):
        comb = importlib.import_module("hcf.comb")
        bank = hcf.build_bank(desk_grid())
        if layout == "pipeline":
            chunks = _strided_chunks(bank, rng)
        else:
            chunks = self.LAYOUTS[layout](rng.standard_normal((16 + 2 * bank.pad, 4)))
        signal, got_hop = comb._signal(chunks)
        assert got_hop == (hop or len(chunks))
        assert np.shares_memory(signal, chunks) == in_place
        assert signal.shape == ((chunks.shape[1] - 1) * got_hop + len(chunks),)

    def test_a_copied_layout_is_copied_once(self, rng, monkeypatch):
        # C-contiguous chunks are copied column after column; the fill needs that copy once
        comb = importlib.import_module("hcf.comb")
        bank = hcf.build_bank(hcf.F0Grid())
        chunks = rng.standard_normal((3072, 64))
        real, copies = comb._signal, []

        def recording(chunks):
            signal, hop = real(chunks)
            copies.append(not np.shares_memory(signal, chunks))
            return signal, hop

        monkeypatch.setattr(comb, "_signal", recording)
        hcf.filter_all_candidates(bank, chunks)
        assert copies == [True]

    def test_no_frames_reads_nothing(self, rng):
        comb = importlib.import_module("hcf.comb")
        bank = hcf.build_bank(desk_grid())
        # a frameless view of the pipeline's layout: its span would be C - hop samples
        chunks = _strided_chunks(bank, rng)[:, :0]
        signal, _ = comb._signal(chunks)
        assert signal.shape == (0,)
        got = hcf.filter_all_candidates(bank, chunks)
        assert got.shape == (6, 16, 0)


class TestCandidateOut:
    """``filter_all_candidates`` returns a read-only strided view of its filtered
    signals; ``verify_routes`` refills one buffer of reference frames block after
    block, which must match a fresh fill bit for bit."""

    def test_refilled_buffer_matches_a_fresh_fill_bit_for_bit(self, rng):
        comb = importlib.import_module("hcf.comb")
        bank = hcf.build_bank(hcf.F0Grid())
        rows, buffer = comb._scan(bank.weights), np.empty((64, 16))
        # a full block, then a shorter trailing one in a prefix of the same buffer
        for n_frames in (5, 2):
            chunks = _strided_chunks(bank, rng, n_frames=n_frames)
            want = hcf.filter_all_candidates(bank, chunks)
            signal, hop = comb._signal(chunks)
            ts = np.repeat(np.arange(n_frames), 9)
            indices = rng.integers(0, bank.grid.label_size, size=len(ts))
            buffer[:] = np.nan  # any entry the fill skipped would stay NaN
            out = buffer[:len(ts)]
            comb._filter(rows, signal, hop, ts, indices, out)
            assert out.tobytes() == np.ascontiguousarray(want[indices, :, ts]).tobytes()

    def test_result_is_a_read_only_view_whose_picks_match_the_reference(self, rng):
        bank = hcf.build_bank(desk_grid())
        chunks = _strided_chunks(bank, rng, n_frames=4)
        got = hcf.filter_all_candidates(bank, chunks)
        assert got.base is not None and got.shape == (6, 16, 4)
        with pytest.raises(ValueError):
            got[0, 0, 0] = 1.0
        track = hcf.track_from_indices(bank.grid, [0, 5, 2, 4])
        periods = np.concatenate([bank.grid.rounded_periods(), [0]])
        want = _comb_all_py(chunks.T, periods, bank.taps, bank.pad, 16)
        picks = want[track.indices, np.arange(4)].T
        assert np.ascontiguousarray(hcf.select_candidate(got, track)).tobytes() == picks.tobytes()


def _naive_fill(chunks, rows, frame):
    """Every row over every chunk alone: a row's first nonzero weight times its
    window is written, and each later one's product is added, in column order."""
    out = np.empty((len(rows), chunks.shape[1], frame))
    for i, weights in enumerate(rows):
        js = np.flatnonzero(weights)
        for t in range(chunks.shape[1]):
            if js.size == 0:
                out[i, t] = 0.0
                continue
            out[i, t] = weights[js[0]] * chunks[js[0]:js[0] + frame, t]
            for j in js[1:]:
                out[i, t] += weights[j] * chunks[j:j + frame, t]
    return out


def _negative_zeros(x):
    return int(np.count_nonzero((x == 0) & np.signbit(x)))


class TestSharedProducts:
    """Both routes scale the signal once per distinct weight and then only add
    windows of the scaled signals, in the order of multiplying each weight in
    turn, so every sample keeps its bytes."""

    def hand_built_bank(self, rng):
        # 25-tap rows with 0, 1, 2, 3 and 5 distinct weights; rows 6 to 8 repeat
        # the weight sequences of rows 4, 3 and 0 at other columns
        bank = hcf.build_bank(desk_grid())
        spec = [
            [],
            [12],
            [3, 20],
            [0, 12, 24],
            [2, 7, 12, 17, 22],
            [1, 9],
            [0, 6, 12, 18, 24],
            [5, 12, 19],
            [],
        ]
        rows = np.zeros((len(spec), 2 * bank.pad + 1))
        draws = iter(rng.uniform(-1.0, 1.0, 13))
        for i, cols in enumerate(spec[:6]):
            rows[i, cols] = [next(draws) for _ in cols]
        for i, like in ((6, 4), (7, 3), (8, 0)):
            rows[i, spec[i]] = rows[like][rows[like] != 0]
        return dataclasses.replace(bank, weights=rows[:, None, :, None]), rows

    @pytest.mark.parametrize("layout", ["pipeline", "fortran"])
    def test_hand_built_bank_matches_a_naive_fill_byte_for_byte(self, rng, layout):
        hand, rows = self.hand_built_bank(rng)
        if layout == "pipeline":
            chunks, hop = _strided_chunks(hand, rng, n_frames=5), 4
        else:  # copied column after column
            chunks = np.asfortranarray(rng.standard_normal((16 + 2 * hand.pad, 5)))
            hop = len(chunks)
        want = _naive_fill(chunks, rows, 16).tobytes()
        counter = hcf.MacCounter()
        # the whole span of each row, then every (frame, row) pair, 4 at a time into a dirty buffer
        for got in (hcf.filter_all_candidates(hand, chunks, counter), _every_pair(hand, chunks, 4)):
            assert np.ascontiguousarray(got.transpose(0, 2, 1)).tobytes() == want
        assert counter.parallel == np.count_nonzero(rows) * 16 * 5

    @pytest.mark.parametrize("make_bank", [
        lambda: hcf.build_bank(hcf.F0Grid()),
        lambda: hcf.build_bank(desk_grid()),
        lambda: hcf.build_bank(desk_grid(), order=2),
        lambda: hcf.build_bank(desk_grid(), taps=[0.5, 0.0, 0.5]),
    ], ids=["default", "desk", "desk-order2", "desk-zero-center-tap"])
    def test_signed_zeros_keep_their_bytes_on_both_routes(self, rng, make_bank):
        # a filled row and an inference frame both start from their first product,
        # so -0.0 stays -0.0 on both routes
        bank = make_bank()
        chunks = _strided_chunks(bank, rng, n_frames=8, signed_zeros=True)
        rows = bank.weights[:, 0, :, 0]
        want = _naive_fill(chunks, rows, 16)
        assert _negative_zeros(want) > 0
        for got in (hcf.filter_all_candidates(bank, chunks), _every_pair(bank, chunks, 64)):
            assert np.ascontiguousarray(got.transpose(0, 2, 1)).tobytes() == want.tobytes()

        indices = rng.integers(0, bank.grid.label_size, size=8)
        indices[:2] = [0, bank.grid.size]  # one voiced and one unvoiced frame at least
        track = hcf.track_from_indices(bank.grid, indices)
        periods = np.concatenate([bank.grid.rounded_periods(), [0]])[indices]
        want = _comb_inference_py(chunks.T, periods, bank.taps, bank.pad, 16)
        for voiced in (True, False):
            assert _negative_zeros(want[(indices != bank.grid.size) == voiced]) > 0
        fast = hcf.filter_inference(bank, chunks, track)
        assert np.ascontiguousarray(fast.T).tobytes() == want.tobytes()

    def test_fill_peak_memory_stays_under_one_megabyte(self, bank, rng):
        # one scan of the tensor and the scaled stretches of one step's pairs, here
        # every pair of a 32-frame block 64 at a time into one reused buffer: not one
        # product buffer per row or weight
        comb = importlib.import_module("hcf.comb")
        cfg = hcf.FrameConfig()
        chunks = hcf.chunk_signal(rng.standard_normal(40 * cfg.hop_size), cfg, bank.pad)[:, :32]
        signal, hop = comb._signal(chunks)
        ts, indices = np.divmod(np.arange(32 * 226), 226)
        out = np.empty((64, cfg.frame_size))
        tracemalloc.start()
        try:
            rows = comb._scan(bank.weights)
            for s in range(0, len(ts), len(out)):
                t, i = ts[s:s + len(out)], indices[s:s + len(out)]
                comb._filter(rows, signal, hop, t, i, out[:len(t)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestCandidateRows:
    """The reference route's (frame, row) pairs filtered any number at a time
    match ``filter_all_candidates``, which filters each row's whole span once."""

    BANKS = {
        "default": lambda rng: hcf.build_bank(hcf.F0Grid()),  # 226 rows
        "order2": lambda rng: hcf.build_bank(hcf.F0Grid(), order=2),
        "hand-built": lambda rng: TestSharedProducts().hand_built_bank(rng)[0],  # empty rows
    }

    @pytest.mark.parametrize("group", [1, 7, 8, None], ids=["1", "7", "8", "all"])
    @pytest.mark.parametrize("name", BANKS)
    def test_groups_match_filter_all_candidates_byte_for_byte(self, rng, name, group):
        bank = self.BANKS[name](rng)
        chunks = _strided_chunks(bank, rng, n_frames=5)
        want = hcf.filter_all_candidates(bank, chunks)
        assert _every_pair(bank, chunks, group).tobytes() == want.tobytes()


class TestPairKernel:
    """Both routes run ``_filter`` on (frame, row) pairs, the reference route with
    the rows ``_scan`` reads off the weight tensor and the inference route with the
    rows ``_tap_rows`` builds from the taps and periods: the pairs' order, repeated
    frames and unvoiced pairs change no byte of either route's frames."""

    @pytest.mark.parametrize("table", ["_scan", "_tap_rows"], ids=["tensor", "taps"])
    @pytest.mark.parametrize("make_bank", [
        lambda: hcf.build_bank(hcf.F0Grid()),
        lambda: hcf.build_bank(hcf.F0Grid(), order=2),
        lambda: hcf.build_bank(hcf.F0Grid(), taps=[0.5, 0.0, 0.5]),
    ], ids=["default", "order2", "zero-center-tap"])
    def test_pairs_match_their_route_byte_for_byte(self, rng, make_bank, table):
        comb = importlib.import_module("hcf.comb")
        bank = make_bank()
        grid = bank.grid
        chunks = _strided_chunks(bank, rng, n_frames=8, signed_zeros=True)
        frames = np.array([5, 0, 5, 7, 2, 2, 6, 1, 3, 4, 0, 7])  # unsorted, with repeats
        indices = rng.integers(0, grid.size, size=len(frames))
        indices[[1, 2, 5]] = grid.size  # frames 5 and 2 both voiced and unvoiced
        if table == "_scan":
            rows = comb._scan(bank.weights)
            want = np.ascontiguousarray(hcf.filter_all_candidates(bank, chunks)[indices, :, frames])
        else:
            rows = comb._tap_rows(bank)
            columns = {
                int(i): hcf.filter_inference(bank, chunks,
                                             hcf.track_from_indices(grid, np.full(8, i)))
                for i in np.unique(indices)
            }
            want = np.array([columns[int(i)][:, t] for t, i in zip(frames, indices)])
        for voiced in (True, False):
            assert _negative_zeros(want[(indices != grid.size) == voiced]) > 0

        signal, hop = comb._signal(chunks)
        out = np.full((len(frames), 16), np.nan)  # any entry the kernel skipped stays NaN
        comb._filter(rows, signal, hop, frames, indices, out)
        assert out.tobytes() == want.tobytes()


class TestRowTables:
    """``_tap_rows`` builds from the taps and rounded periods the nonzero (column,
    weight) pairs that ``_scan`` reads off the weight tensor, so a fault in the
    tensor makes the two tables differ."""

    @staticmethod
    def nonzeros(table):
        return [{(int(c), w.tobytes()) for w, c in zip(weights, cols) if w != 0}
                for _, weights, cols in table]

    @pytest.mark.parametrize("make_bank", [
        lambda: hcf.build_bank(hcf.F0Grid()),
        lambda: hcf.build_bank(hcf.F0Grid(), order=2),
        lambda: hcf.build_bank(hcf.F0Grid(), order=3),
        lambda: hcf.build_bank(hcf.F0Grid(), taps=[0.5, 0.0, 0.5]),
    ], ids=["default", "order2", "order3", "zero-center-tap"])
    def test_tap_rows_hold_the_tensors_nonzeros(self, make_bank):
        comb = importlib.import_module("hcf.comb")
        bank = make_bank()
        taps = self.nonzeros(comb._tap_rows(bank))
        assert len(taps) == bank.grid.label_size
        assert taps == self.nonzeros(comb._scan(bank.weights))
        weights = bank.weights.copy()
        column = np.flatnonzero(weights[7, 0, :, 0])[-1]
        weights[7, 0, column, 0] *= 1.0 + 1e-6
        faulty = self.nonzeros(comb._scan(weights))
        assert [i for i, row in enumerate(faulty) if row != taps[i]] == [7]


    def test_a_bank_builds_its_tap_rows_once(self, rng, monkeypatch):
        # enhance filters every block with the same bank
        comb = importlib.import_module("hcf.comb")
        real, built = comb._tap_rows, []
        monkeypatch.setattr(comb, "_tap_rows", lambda bank: built.append(bank) or real(bank))
        bank = hcf.build_bank(desk_grid())
        chunks = _strided_chunks(bank, rng)
        for indices in ([0, 5, 2], [5, 5, 1]):
            hcf.filter_inference(bank, chunks, hcf.track_from_indices(bank.grid, indices))
        assert built == [bank]


class TestVerifyRoutes:
    def test_rejects_tracks_of_another_shape_or_range(self, bank, rng):
        samples, cfg = rng.standard_normal(4000), hcf.FrameConfig()
        n_frames = cfg.n_frames(len(samples))
        for tracks in (np.zeros(n_frames, int), np.zeros((2, n_frames + 1), int)):
            with pytest.raises(ShapeError, match="tracks must be"):
                hcf.verify_routes(bank, samples, tracks, cfg)
        for index in (-1, 226):
            with pytest.raises(ShapeError, match=r"\[0, 225\]"):
                hcf.verify_routes(bank, samples, np.full((2, n_frames), index), cfg)

    @pytest.mark.parametrize("index", [96, 225], ids=["voiced", "unvoiced"])
    def test_constant_tracks_stay_under_sixteen_megabytes(self, bank, rng, index):
        # 400 tracks that pick one row give 25 600 (track, frame) pairs per 64-frame
        # block, 315 MB of reference frames if each were checked, but 64 distinct pairs
        samples, cfg = 0.5 * rng.standard_normal(28800), hcf.FrameConfig()
        tracks = np.full((400, 75), index)
        counter = hcf.MacCounter()
        tracemalloc.start()
        try:
            dev = hcf.verify_routes(bank, samples, tracks, cfg, counter)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert dev <= VERIFY_TOLERANCE
        assert counter.parallel == (225 * 3 + 1) * 1536 * 75
        assert counter.inference == (3 * 1536 * 400 * 75 if index < 225 else 0)
        assert peak < 16_000_000

    @pytest.mark.parametrize("n_tracks", [1, 10, 100, 400, "constant"])
    def test_each_distinct_pair_runs_through_each_route_once(self, bank, rng, monkeypatch,
                                                              n_tracks):
        samples, cfg = 0.5 * rng.standard_normal(28800), hcf.FrameConfig()
        if n_tracks == "constant":
            tracks = np.full((400, 75), 96)
        else:
            tracks = rng.integers(0, 226, size=(n_tracks, 75))
        calls = record_filter_calls(monkeypatch)
        assert hcf.verify_routes(bank, samples, tracks, cfg) <= VERIFY_TOLERANCE
        # each route's steps as lists of (frame, row) pairs
        steps = {route: [list(zip(frames.tolist(), indices.tolist()))
                         for _, _, frames, indices, _ in seen]
                 for route, seen in calls.items()}
        # blocks of 64 and 11 frames; in each, every distinct pair, frame after frame
        want = [(f % 64, int(i)) for f in range(75) for i in np.unique(tracks[:, f])]
        if n_tracks == "constant":
            assert len(want) == 75
        for route in steps.values():
            assert [pair for step in route for pair in step] == want
            assert max(len(step) for step in route) <= 64
        assert steps["_scan"] == steps["_tap_rows"]

    def test_a_perturbed_picked_row_breaks_the_check(self, bank, rng):
        samples, cfg = 0.5 * rng.standard_normal(28800), hcf.FrameConfig()
        tracks = rng.integers(0, 200, size=(10, 75))  # rows 200 to 225 are never picked
        want = hcf.verify_routes(bank, samples, tracks, cfg)
        assert want <= VERIFY_TOLERANCE
        for row, deviates in ((int(tracks[3, 40]), True), (210, False)):
            weights = bank.weights.copy()
            column = np.flatnonzero(weights[row, 0, :, 0])[-1]
            weights[row, 0, column, 0] *= 1.0 + 1e-6
            faulty = dataclasses.replace(bank, weights=weights)
            dev = hcf.verify_routes(faulty, samples, tracks, cfg)
            assert dev > VERIFY_TOLERANCE if deviates else dev == want

    def test_a_nan_weight_in_a_picked_row_gives_nan(self, bank, rng):
        # filtered by the tensor, the NaN reaches every sample of the frames that pick
        # its row; a running max(0.0, nan) would drop it and read 0.0
        samples, cfg = 0.5 * rng.standard_normal(28800), hcf.FrameConfig()
        tracks = np.full((1, 75), 96)
        weights = bank.weights.copy()
        weights[96, 0, np.flatnonzero(weights[96, 0, :, 0])[-1], 0] = np.nan
        faulty = dataclasses.replace(bank, weights=weights)
        assert np.isnan(hcf.verify_routes(faulty, samples, tracks, cfg))

    @pytest.mark.parametrize("fault", ["offset", "nan"])
    def test_a_perturbed_bank_makes_hcf_verify_exit_four(self, monkeypatch, capsys, fault):
        cli = importlib.import_module("hcf.cli")
        # the draws of ``hcf verify --duration 0.2 --tracks 1 --seed 9``: the noise, then the track
        draws = np.random.default_rng(9)
        draws.standard_normal(9600)
        row = int(draws.integers(0, 226, size=25)[0])  # the center tap of any row is nonzero
        real = cli.build_bank

        def perturbed(grid, order):
            bank = real(grid, order=order)
            weights = bank.weights.copy()
            if fault == "nan":
                weights[row, 0, bank.pad, 0] = np.nan
            else:
                weights[row, 0, bank.pad, 0] += 1e-6
            return dataclasses.replace(bank, weights=weights)

        monkeypatch.setattr(cli, "build_bank", perturbed)
        assert main(["verify", "--duration", "0.2", "--tracks", "1", "--seed", "9"]) == 4
        out, err = capsys.readouterr()
        assert out.startswith("max_dev=nan " if fault == "nan" else "max_dev=")
        assert "filtering routes disagree" in err


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
        periods = np.concatenate([bank.grid.rounded_periods(), [0]])
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
            decoder = Decoder(grid, cfg, len(post))
            assert decoder.top == trans[:grid.size].max()
            settled = [decoder.feed(post[:17]), decoder.feed(post[17:-1])]
            # only a shortcut step settles frames before the last one is decoded
            assert 0 < decoder.settled < len(post)
            assert settled[-1] == decoder.settled
            np.testing.assert_array_equal(decoder.indices[:decoder.settled],
                                          expected[:decoder.settled])
            assert decoder.feed(post[-1:]) == len(post)
            np.testing.assert_array_equal(decoder.indices, expected)
            np.testing.assert_array_equal(hcf.viterbi_track(post, grid, cfg).indices, expected)

    def test_yin_window_length_validated(self):
        with pytest.raises(ValueError):
            yin_difference(np.zeros(100), 80, 40)
