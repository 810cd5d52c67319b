"""End-to-end acceptance checks, one test per shipped guarantee.

Each test is self-contained and enforces a stated numeric tolerance; run
with ``pytest -v tests/test_acceptance.py`` for a one-line verdict per
guarantee.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

import hcf
from hcf.cli import main
from hcf.errors import MatrixFormatError
from hcf.estimator import transition_weights

from helpers import (
    buffer,
    exhaustive_best_path,
    harmonic_complex,
    interior,
    noise_at_snr,
    periodic_tone,
    rel_rms,
    tone,
)

REPO_ROOT = Path(__file__).resolve().parents[1]


def test_01_filtering_routes_agree_across_grid(grid, bank, frame_cfg):
    """Reference (all candidates + select) vs direct per-frame filtering."""
    started = time.monotonic()
    worst = 0.0
    covered = np.zeros(grid.label_size, dtype=bool)
    for seed in range(10):
        rng = np.random.default_rng(1000 + seed)
        x = 0.3 * rng.standard_normal(2 * 48000)
        chunks = hcf.chunk_signal(x, frame_cfg, bank.pad)
        n_frames = chunks.shape[1]
        indices = np.concatenate(
            [rng.permutation(grid.label_size),
             rng.integers(0, grid.label_size, n_frames - grid.label_size)]
        )
        track = hcf.track_from_indices(grid, indices)
        covered[indices] = True

        all_candidates = hcf.filter_all_candidates(bank, chunks)
        reference = hcf.select_candidate(all_candidates, track)
        del all_candidates
        fast = hcf.filter_inference(bank, chunks, track)
        worst = max(worst, float(np.abs(reference - fast).max()))
    elapsed = time.monotonic() - started

    assert covered.all(), "some grid indices never exercised"
    assert worst <= 1e-8, f"routes deviate by {worst:.3e}"
    assert elapsed < 60.0, f"took {elapsed:.1f} s"


def test_02_inference_cost_ratio(grid, bank, frame_cfg, rng):
    """Per-frame filtering must be >= 200x cheaper in counted multiply-adds."""
    x = 0.3 * rng.standard_normal(2 * 48000)
    chunks = hcf.chunk_signal(x, frame_cfg, bank.pad)
    n_frames = chunks.shape[1]
    counter = hcf.MacCounter()

    hcf.filter_all_candidates(bank, chunks, counter)
    assert counter.parallel == bank.nonzero_taps() * 1536 * n_frames
    assert counter.parallel == 676 * 1536 * n_frames

    track = hcf.track_from_indices(grid, rng.integers(0, grid.size, n_frames))
    hcf.filter_inference(bank, chunks, track, counter)
    assert counter.inference == 3 * 1536 * n_frames

    assert counter.ratio() >= 200.0
    # voicing only lowers the per-frame cost further
    sparse = hcf.MacCounter()
    half = np.where(np.arange(n_frames) % 2 == 0, 96, grid.unvoiced_index)
    hcf.filter_inference(bank, chunks, hcf.track_from_indices(grid, half), sparse)
    assert sparse.inference == 3 * 1536 * int((half != grid.unvoiced_index).sum())


def test_03_white_noise_attenuation_on_harmonics(grid):
    """Comb at full strength: ~4.26 dB analytic SNR gain on 0 dB white noise."""
    started = time.monotonic()
    rng = np.random.default_rng(42)
    clean = harmonic_complex(100.0, 5, 10.0, amp=0.1)
    noisy = clean + noise_at_snr(clean, 0.0, rng)
    n_frames = hcf.FrameConfig().n_frames(noisy.size)
    track = hcf.track_from_indices(grid, np.full(n_frames, 96))

    result = hcf.enhance(buffer(noisy), track=track, strength=1.0, gain=1.0)
    sl = interior(noisy.size)
    snr_in = hcf.snr(buffer(clean[sl]), buffer(noisy[sl]))
    snr_out = hcf.snr(buffer(clean[sl]), buffer(result.audio.samples[sl]))
    elapsed = time.monotonic() - started

    assert 3.2 <= snr_out - snr_in <= 4.8, f"snr gain {snr_out - snr_in:.2f} dB"
    assert elapsed < 10.0, f"took {elapsed:.1f} s"


def test_04_exact_grid_tones_pass_matched_filter(grid, bank, frame_cfg):
    """A tone at any candidate period survives its own comb unchanged."""
    periods = grid.rounded_periods()
    worst = 0.0
    for index in range(grid.size):
        period = int(periods[index])
        x = periodic_tone(period, 6 * 768)
        chunks = hcf.chunk_signal(x, frame_cfg, bank.pad)
        frames = hcf.frame_signal(x, frame_cfg)
        track = hcf.track_from_indices(grid, np.full(chunks.shape[1], index))
        out = hcf.filter_inference(bank, chunks, track)
        # frame 4 is the first whose full context lies inside the signal
        t = 4
        dev = rel_rms(out[:, t] - frames[:, t], frames[:, t])
        worst = max(worst, dev)
    assert worst <= 1e-9, f"worst relative deviation {worst:.3e}"


def test_05_grid_constants(grid, bank):
    periods = grid.rounded_periods()
    assert periods[0] == 768
    assert periods[-1] == 96
    assert np.all(np.diff(periods) == -3)
    assert grid.size == 225
    assert grid.unvoiced_index == 225
    assert grid.label_size == 226
    assert bank.weights.shape == (226, 1, 1537, 1)


def test_06_gaussian_label_values(grid):
    label = hcf.gaussian_label(grid, 100)
    assert label[100] == 1.0
    assert label[95] == pytest.approx(math.exp(-0.5), abs=1e-5)
    assert label[105] == pytest.approx(0.60653, abs=1e-5)
    assert label[grid.unvoiced_index] == 0.0


def test_07_loss_hand_checks():
    clean = np.ones((2, 2), dtype=complex)
    silent = np.zeros((2, 2), dtype=complex)
    total, mag_gains, mag_full, cplx = hcf.se_loss(clean, silent, silent)
    assert (mag_gains, mag_full, cplx) == (1.0, 1.0, 1.0)
    assert total == 1.0

    assert hcf.total_loss(1.0, 2.0) == 1.2

    target = np.array([0.0, 1.0, 0.0, 0.0])
    uniform = np.full(4, 0.5)
    assert hcf.bce_loss(target, uniform) == pytest.approx(4 * math.log(2), abs=1e-5)
    assert hcf.bce_loss(target, uniform) == pytest.approx(2.77259, abs=1e-5)


def test_08_stft_chain_reconstruction(frame_cfg):
    for seed in range(3):
        rng = np.random.default_rng(seed)
        x = 0.3 * rng.standard_normal(48000)
        spec = hcf.stft(hcf.frame_signal(x, frame_cfg))
        back = hcf.istft_overlap_add(spec, frame_cfg, length=x.size)
        sl = interior(x.size)
        assert rel_rms(back.samples[sl] - x[sl], x[sl]) <= 1e-6

    rng = np.random.default_rng(99)
    x = 0.3 * rng.standard_normal(48000)
    result = hcf.enhance(buffer(x), strength=0.0, gain=1.0)
    sl = interior(x.size)
    assert rel_rms(result.audio.samples[sl] - x[sl], x[sl]) <= 1e-6


def test_09_estimator_accuracy_and_decoder_optimality(grid):
    rng = np.random.default_rng(2024)
    signals = []
    for f0 in (62.5, 87.3, 100.0, 141.0, 200.0, 235.7, 320.0, 411.3, 500.0):
        signals.append((f0, tone(f0, 0.45, amp=0.4)))
    for f0 in (110.0, 220.0, 330.0):
        signals.append((f0, harmonic_complex(f0, 5, 0.45, amp=0.1)))

    total = 0
    close = 0
    for f0, x in signals:
        for snr_db in (None, 20.0):
            y = x if snr_db is None else x + noise_at_snr(x, snr_db, rng)
            track = hcf.estimate_track(buffer(y), grid)
            target = hcf.nearest_index(grid, f0)
            full = (np.arange(len(track)) * 384 + 1536) <= y.size
            voiced = track.voiced_mask(grid) & full
            voiced[:2] = False
            total += int(voiced.sum())
            close += int((np.abs(track.indices[voiced] - target) <= 1).sum())
    assert total > 400
    assert close / total >= 0.95, f"only {close}/{total} within 1 bin"

    small = hcf.F0Grid(f_min=1000.0, f_max=8000.0, size=7)
    cfg = hcf.EstimatorConfig()
    trans = transition_weights(small.size, cfg)
    initial = np.concatenate([np.full(7, np.log(0.5 / 7)), [np.log(0.5)]])
    for n_frames in range(1, 7):
        for _ in range(8):
            post = rng.uniform(1e-6, 1.0, size=(n_frames, small.label_size))
            track = hcf.viterbi_track(post, small, cfg)
            emissions = np.log(np.maximum(post, 1e-8)).T
            expected = exhaustive_best_path(emissions, trans, initial)
            np.testing.assert_array_equal(track.indices, expected)


def test_10_perceptual_benchmarks_declared_out_of_scope():
    readme = (REPO_ROOT / "README.md").read_text()
    for term in ("PESQ", "STOI", "DNSMOS"):
        assert term in readme, f"README must address {term}"
    assert "out of scope" in readme.lower()
    exported = [name.lower() for name in dir(hcf)]
    for term in ("pesq", "stoi", "dnsmos"):
        assert not any(term in name for name in exported)


def test_11_matrix_format_round_trip_and_errors(tmp_path, rng, capsys):
    for k in range(100):
        mat = rng.standard_normal(
            (int(rng.integers(1, 20)), int(rng.integers(1, 20)))
        ).astype(np.float32)
        path = tmp_path / f"rt{k}.hcf"
        hcf.write_matrix(mat, path)
        assert np.array_equal(hcf.read_matrix(path), mat)

    truncated = tmp_path / "truncated.hcf"
    truncated.write_bytes(b"HCF1\x01\x00")
    with pytest.raises(MatrixFormatError):
        hcf.read_matrix(truncated)

    bad_magic = tmp_path / "magic.hcf"
    bad_magic.write_bytes(b"XXXX" + b"\x00" * 8)
    with pytest.raises(MatrixFormatError):
        hcf.read_matrix(bad_magic)

    # through the CLI the same failure maps to the data-error exit code
    noisy = tmp_path / "noisy.wav"
    hcf.write_wav(buffer(0.1 * rng.standard_normal(9600)), noisy, bit_depth="float32")
    strength = tmp_path / "strength.hcf"
    hcf.write_matrix(np.zeros((769, 25)), strength)
    code = main([
        "enhance", str(noisy), str(tmp_path / "out.wav"),
        "--gain", str(bad_magic), "--strength", str(strength),
    ])
    assert code == 3
    assert "error:" in capsys.readouterr().err
