import re
import struct
import tracemalloc

import numpy as np
import pytest

import hcf
from hcf.cli import main

from helpers import (
    buffer, harmonic_complex, interior, needs_rlimit_as, noise_at_snr, record_filter_calls,
    rel_rms, run_capped_cli, tone,
)


@pytest.fixture()
def wav_pair(tmp_path, rng):
    """Clean harmonic tone and a 10 dB noisy version, written to disk."""
    clean = harmonic_complex(200.0, 4, 0.4, amp=0.12)
    noisy = clean + noise_at_snr(clean, 10.0, rng)
    clean_path = tmp_path / "clean.wav"
    noisy_path = tmp_path / "noisy.wav"
    hcf.write_wav(buffer(clean), clean_path, bit_depth="float32")
    hcf.write_wav(buffer(noisy), noisy_path, bit_depth="float32")
    return clean_path, noisy_path, clean, noisy


class TestUsage:
    def test_no_arguments(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_unknown_command(self, capsys):
        assert main(["polish"]) == 2
        capsys.readouterr()

    def test_help_exits_clean(self, capsys):
        assert main(["--help"]) == 0
        assert "enhance" in capsys.readouterr().out

    def test_enhance_needs_a_source(self, tmp_path, capsys):
        code = main(["enhance", str(tmp_path / "in.wav"), str(tmp_path / "out.wav")])
        assert code == 2
        assert "source" in capsys.readouterr().err

    def test_gain_requires_strength(self, tmp_path, capsys):
        code = main([
            "enhance", str(tmp_path / "in.wav"), str(tmp_path / "out.wav"),
            "--gain", str(tmp_path / "g.hcf"),
        ])
        assert code == 2
        capsys.readouterr()

    def test_clean_conflicts_with_files(self, tmp_path, capsys):
        code = main([
            "enhance", str(tmp_path / "in.wav"), str(tmp_path / "out.wav"),
            "--clean", str(tmp_path / "c.wav"),
            "--gain", str(tmp_path / "g.hcf"), "--strength", str(tmp_path / "s.hcf"),
        ])
        assert code == 2
        capsys.readouterr()


#: Options each subcommand declares; any other flag is a usage error.
_FRAME = {"--frame-size", "--hop"}
_GRID = {"--f-min", "--f-max", "--grid-size"}
_ESTIMATOR = {"--threshold", "--transition-width", "--voicing-prior", "--switch-cost"}
DECLARED = {
    "enhance": {"--clean", "--gain", "--strength", "--f0", "--rescale", "--diag", "--bits",
                *_FRAME, *_GRID, "--order", *_ESTIMATOR},
    "f0": {*_FRAME, *_GRID, *_ESTIMATOR},
    "labels": _GRID,
    "filterbank": {*_GRID, "--order"},
    "verify": {"--seed", "--duration", "--tracks", *_FRAME, *_GRID, "--order"},
    "metrics": {*_FRAME, "--compression", "--magnitude-weight"},
}
#: Positional arguments that get each subcommand past parsing.
POSITIONALS = {
    "f0": ["in.wav", "out.csv"],
    "labels": ["track.csv", "out.hcf"],
    "filterbank": ["out.hcf"],
    "metrics": ["clean.wav", "estimate.wav"],
}
DROPPED = [
    ("labels", "--frame-size"), ("labels", "--hop"), ("labels", "--order"),
    ("filterbank", "--frame-size"), ("filterbank", "--hop"),
    ("metrics", "--f-min"), ("metrics", "--f-max"), ("metrics", "--grid-size"),
    ("metrics", "--order"), ("metrics", "--pitch-weight"),
    ("f0", "--order"),
]


class TestDeclaredFlags:
    @pytest.mark.parametrize("command", sorted(DECLARED))
    def test_help_lists_exactly_the_declared_flags(self, command, capsys):
        assert main([command, "--help"]) == 0
        listed = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", capsys.readouterr().out))
        assert listed == DECLARED[command] | {"--help"}

    @pytest.mark.parametrize("command,flag", DROPPED)
    def test_undeclared_flag_is_a_usage_error(self, tmp_path, command, flag, capsys):
        argv = [command, *(str(tmp_path / a) for a in POSITIONALS[command]), flag, "7"]
        assert main(argv) == 2
        assert f"unrecognized arguments: {flag} 7" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("duration", ["inf", "nan", "-1", "0"])
    def test_verify_needs_a_finite_positive_duration(self, duration, capsys):
        assert main(["verify", "--duration", duration, "--tracks", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --duration must be a positive number of seconds")
        assert "Traceback" not in err

    @pytest.mark.parametrize("tracks", ["0", "-3"])
    def test_verify_needs_a_track(self, tracks, capsys):
        assert main(["verify", "--duration", "0.1", "--tracks", tracks]) == 2
        assert "--tracks" in capsys.readouterr().err

    def test_frames_must_overlap(self, capsys):
        assert main(["verify", "--duration", "0.1", "--tracks", "1", "--hop", "1536"]) == 2
        assert "frames overlap" in capsys.readouterr().err

    def test_f_max_above_nyquist_is_a_usage_error(self, capsys):
        # a period under 2 samples would round two comb taps onto one position
        assert main(["verify", "--duration", "1", "--tracks", "1", "--f-max", "100000"]) == 2
        assert "Nyquist" in capsys.readouterr().err

    def test_f0_rejects_zero_transition_width(self, tmp_path, capsys):
        path = tmp_path / "tone.wav"
        hcf.write_wav(buffer(tone(150.0, 0.2, amp=0.4)), path, bit_depth="float32")
        out = tmp_path / "track.csv"
        assert main(["f0", str(path), str(out), "--transition-width", "0"]) == 2
        assert "transition_width" in capsys.readouterr().err
        assert not out.exists()


class TestDataErrors:
    def test_missing_wav(self, tmp_path, capsys):
        code = main(["f0", str(tmp_path / "absent.wav"), str(tmp_path / "out.csv")])
        assert code == 3
        assert "error:" in capsys.readouterr().err

    def test_partial_sample_frame_exits_three(self, tmp_path, capsys):
        path = tmp_path / "odd.wav"
        hcf.write_wav(buffer(tone(150.0, 0.2, amp=0.4)), path, bit_depth="16")
        data = bytearray(path.read_bytes())
        # grow the 44-byte header's data chunk by one stray byte past the last sample
        struct.pack_into("<I", data, 40, struct.unpack_from("<I", data, 40)[0] + 1)
        path.write_bytes(bytes(data) + b"\x00")
        assert main(["f0", str(path), str(tmp_path / "track.csv")]) == 3
        assert "sample frames" in capsys.readouterr().err

    def test_infinite_float_sample_exits_three(self, tmp_path, capsys):
        path = tmp_path / "inf.wav"
        hcf.write_wav(buffer(tone(150.0, 0.2, amp=0.4)), path, bit_depth="float32")
        data = bytearray(path.read_bytes())
        struct.pack_into("<f", data, 44 + 4 * 100, np.inf)  # sample 100, past the 44-byte header
        path.write_bytes(bytes(data))
        assert main(["f0", str(path), str(tmp_path / "track.csv")]) == 3
        assert "non-finite" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    def test_signalling_nan_exits_three_without_warning(self, tmp_path, capsys):
        path = tmp_path / "snan.wav"
        hcf.write_wav(buffer(tone(150.0, 0.2, amp=0.4)), path, bit_depth="float32")
        data = bytearray(path.read_bytes())
        struct.pack_into("<I", data, 44 + 4 * 100, 0x7F800001)  # a signalling NaN at sample 100
        path.write_bytes(bytes(data))
        assert main(["f0", str(path), str(tmp_path / "track.csv")]) == 3
        err = capsys.readouterr().err
        assert "non-finite" in err and "Warning" not in err

    @pytest.mark.parametrize(
        "command", ["f0", "metrics", "enhance", "metrics-silent-clean", "enhance-silent-clean"]
    )
    def test_empty_wav_exits_three(self, tmp_path, command, capsys):
        # a valid header whose data chunk holds no samples is bad data, not bad
        # usage; so is an all-zero clean reference, against which no SNR exists
        path = tmp_path / "empty.wav"
        hcf.write_wav(buffer(np.zeros(0)), path, bit_depth="float32")
        silent, noisy = tmp_path / "silent.wav", tmp_path / "noisy.wav"
        hcf.write_wav(buffer(np.zeros(4800)), silent, bit_depth="float32")
        hcf.write_wav(buffer(tone(150.0, 0.1, amp=0.4)), noisy, bit_depth="float32")
        argv = {
            "f0": ["f0", str(path), str(tmp_path / "track.csv")],
            "metrics": ["metrics", str(path), str(path)],
            "enhance": ["enhance", str(path), str(tmp_path / "out.wav"), "--clean", str(path)],
            "metrics-silent-clean": ["metrics", str(silent), str(noisy)],
            "enhance-silent-clean": [
                "enhance", str(noisy), str(tmp_path / "out.wav"),
                "--clean", str(silent), "--diag", str(tmp_path / "diag"),
            ],
        }[command]
        assert main(argv) == 3
        expected = "is identically zero" if "silent" in command else (
            "data chunk at offset 36 holds no samples"
        )
        assert expected in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["empty.wav", "noisy.wav", "silent.wav"]

    def test_enhance_missing_noisy(self, tmp_path, capsys):
        code = main([
            "enhance", str(tmp_path / "absent.wav"), str(tmp_path / "out.wav"),
            "--clean", str(tmp_path / "also-absent.wav"),
        ])
        assert code == 3
        capsys.readouterr()

    def test_track_frame_count_mismatch(self, tmp_path, wav_pair, capsys):
        clean_path, noisy_path, _, _ = wav_pair
        grid = hcf.F0Grid()
        short = hcf.track_from_indices(grid, [96, 96, 96])
        track_path = tmp_path / "short.csv"
        hcf.write_track(short, track_path, grid)
        code = main([
            "enhance", str(noisy_path), str(tmp_path / "out.wav"),
            "--clean", str(clean_path), "--f0", str(track_path),
        ])
        assert code == 3
        capsys.readouterr()

    def test_corrupt_gain_matrix(self, tmp_path, wav_pair, capsys):
        _, noisy_path, _, noisy = wav_pair
        bad = tmp_path / "gain.hcf"
        bad.write_bytes(b"HCF1" + b"\x00" * 4)
        ok = tmp_path / "strength.hcf"
        n_frames = hcf.FrameConfig().n_frames(noisy.size)
        hcf.write_matrix(np.zeros((769, n_frames)), ok)
        code = main([
            "enhance", str(noisy_path), str(tmp_path / "out.wav"),
            "--gain", str(bad), "--strength", str(ok),
        ])
        assert code == 3
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["labels", "enhance"])
    def test_track_that_is_not_utf8_exits_three(self, tmp_path, wav_pair, command, capsys):
        clean_path, noisy_path, _, noisy = wav_pair
        grid, path, out = hcf.F0Grid(), tmp_path / "bad.csv", tmp_path / "out"
        n_frames = hcf.FrameConfig().n_frames(noisy.size)
        hcf.write_track(hcf.track_from_indices(grid, np.full(n_frames, 96)), path, grid)
        path.write_bytes(path.read_bytes().replace(b"f0", b"\xff0", 1))  # in the header
        argv = {
            "labels": ["labels", str(path), str(out)],
            "enhance": ["enhance", str(noisy_path), str(out), "--clean", str(clean_path),
                        "--f0", str(path)],
        }[command]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert "bad.csv is not UTF-8" in err
        assert not out.exists()

    def test_negative_gain_map_exits_three(self, tmp_path, wav_pair, capsys):
        _, noisy_path, _, noisy = wav_pair
        gain, strength, out = tmp_path / "gain.hcf", tmp_path / "strength.hcf", tmp_path / "out.wav"
        shape = (769, hcf.FrameConfig().n_frames(noisy.size))
        hcf.write_matrix(np.full(shape, -0.5), gain)
        hcf.write_matrix(np.zeros(shape), strength)
        code = main(["enhance", str(noisy_path), str(out), "--gain", str(gain),
                     "--strength", str(strength)])
        assert code == 3
        assert "gain.hcf has negative entries" in capsys.readouterr().err
        assert not out.exists()

    def test_diag_path_that_is_a_file_leaves_no_output(self, tmp_path, wav_pair, capsys):
        clean_path, noisy_path, _, _ = wav_pair
        out, notadir = tmp_path / "out.wav", tmp_path / "notadir"
        notadir.write_text("a file")
        code = main(["enhance", str(noisy_path), str(out), "--clean", str(clean_path),
                     "--diag", str(notadir)])
        assert code == 3
        assert "enhanced" not in capsys.readouterr().out
        assert not out.exists()
        assert notadir.read_text() == "a file"

    @pytest.mark.parametrize("diag", ["d", "d/e/f"])
    def test_unwritable_output_leaves_no_diag_directory(self, tmp_path, wav_pair, capsys, diag):
        clean_path, noisy_path, _, _ = wav_pair
        out = tmp_path / "missing" / "out.wav"
        code = main(["enhance", str(noisy_path), str(out), "--clean", str(clean_path),
                     "--diag", str(tmp_path / diag)])
        assert code == 3
        assert "out.wav" in capsys.readouterr().err
        assert not (tmp_path / "d").exists() and not out.parent.exists()

    def test_unwritable_output_keeps_an_existing_diag_directory(self, tmp_path, wav_pair, capsys):
        clean_path, noisy_path, _, _ = wav_pair
        diag = tmp_path / "diag"
        diag.mkdir()
        code = main(["enhance", str(noisy_path), str(tmp_path / "missing" / "out.wav"),
                     "--clean", str(clean_path), "--diag", str(diag)])
        assert code == 3
        capsys.readouterr()
        assert diag.is_dir()

    def test_metrics_length_mismatch(self, tmp_path, wav_pair, capsys):
        clean_path, _, clean, _ = wav_pair
        short = tmp_path / "short.wav"
        hcf.write_wav(buffer(clean[:-100]), short, bit_depth="float32")
        assert main(["metrics", str(clean_path), str(short)]) == 3
        capsys.readouterr()


class TestVerify:
    def test_routes_agree_on_seeded_noise(self, capsys):
        code = main(["verify", "--duration", "0.3", "--tracks", "3", "--seed", "7"])
        assert code == 0
        out = capsys.readouterr().out
        assert "tracks=3" in out
        dev = float(out.split("max_dev=")[1].split()[0])
        assert dev < 1e-10

    def test_mac_ratio_matches_independent_count(self, capsys):
        assert main(["verify", "--duration", "0.3", "--tracks", "3", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert out.split()[0].startswith("max_dev=")  # the first token, as scripts parse it
        ratio = float(re.search(r"mac_ratio=(\S+)", out).group(1))
        # the same seeded draws as verify: the noise first, then one track after another
        rng = np.random.default_rng(7)
        n_frames = -(-rng.standard_normal(int(0.3 * 48000)).size // 384)
        voiced = sum(int((rng.integers(0, 226, size=n_frames) != 225).sum()) for _ in range(3))
        parallel = (225 * 3 + 1) * 1536 * n_frames  # every nonzero weight, every frame
        inference = 3 * 1536 * voiced  # three taps per voiced frame, per track
        assert ratio == pytest.approx(parallel / inference, rel=1e-5)

    def test_golden_line(self, capsys):
        # elementwise float operations only, so the line does not depend on BLAS
        assert main(["verify", "--seed", "3"]) == 0
        assert capsys.readouterr().out == (
            "max_dev=2.220e-16 frames=250 tracks=10 mac_ratio=22.642\n"
        )

    @pytest.mark.parametrize("order, line", [
        (2, "max_dev=2.220e-16 frames=250 tracks=10 mac_ratio=22.6286\n"),
        (3, "max_dev=3.331e-16 frames=250 tracks=10 mac_ratio=22.6229\n"),
    ])
    def test_golden_line_higher_order(self, capsys, order, line):
        # these taps repeat a weight at positions that are not adjacent
        assert main(["verify", "--seed", "3", "--order", str(order)]) == 0
        assert capsys.readouterr().out == line

    def test_library_routine_reproduces_the_golden_line(self):
        # the same seeded draws as ``hcf verify --seed 3``: the noise, then each track
        rng = np.random.default_rng(3)
        samples = 0.5 * rng.standard_normal(2 * 48000)
        tracks = np.array([rng.integers(0, 226, size=250) for _ in range(10)])
        macs = hcf.MacCounter()
        max_dev = hcf.verify_routes(
            hcf.build_bank(hcf.F0Grid()), samples, tracks, hcf.FrameConfig(), macs
        )
        assert f"max_dev={max_dev:.3e} mac_ratio={macs.ratio():.6g}" == (
            "max_dev=2.220e-16 mac_ratio=22.642"
        )

    def test_every_block_refills_one_buffer(self, capsys, monkeypatch):
        calls = record_filter_calls(monkeypatch)
        assert main(["verify", "--duration", "0.6", "--tracks", "2"]) == 0
        assert "frames=75" in capsys.readouterr().out
        # 64 + 11 frames: up to 128 + 22 picked pairs, 64 at a time, each route in a
        # prefix of its own (64, 1536) buffer
        outs = {route: [args[-1] for args in seen] for route, seen in calls.items()}
        for seen in outs.values():
            assert [out.shape for out in seen[:2]] == [(64, 1536)] * 2 and len(seen) == 3
            assert all(out.ctypes.data == seen[0].ctypes.data for out in seen)
        assert not np.shares_memory(outs["_scan"][0], outs["_tap_rows"][0])

    @pytest.mark.parametrize("block_frames", [1, 7, 32, 64])
    def test_line_does_not_depend_on_the_block_size(self, capsys, monkeypatch, block_frames):
        monkeypatch.setattr(hcf.comb, "BLOCK_FRAMES", block_frames)
        assert main(["verify", "--seed", "3"]) == 0
        assert capsys.readouterr().out == (
            "max_dev=2.220e-16 frames=250 tracks=10 mac_ratio=22.642\n"
        )

    @pytest.mark.parametrize("tracks, line", [
        (1, "max_dev=2.220e-16 frames=38 tracks=1 mac_ratio=231.423\n"),
        (10, "max_dev=2.220e-16 frames=38 tracks=10 mac_ratio=22.6526\n"),
        (100, "max_dev=2.220e-16 frames=38 tracks=100 mac_ratio=2.26645\n"),
        (400, "max_dev=2.220e-16 frames=38 tracks=400 mac_ratio=0.566464\n"),
    ])
    def test_line_at_any_track_count(self, capsys, tracks, line):
        # more tracks pick more distinct pairs, checked in more steps of one block's frames
        assert main(["verify", "--duration", "0.3", "--seed", "5", "--tracks", str(tracks)]) == 0
        assert capsys.readouterr().out == line

    @pytest.mark.parametrize("tracks, line", [
        (1, "max_dev=2.220e-16 frames=125 tracks=1 mac_ratio=225.333\n"),
        (100, "max_dev=2.220e-16 frames=125 tracks=100 mac_ratio=2.26347\n"),
    ])
    def test_golden_line_over_a_full_and_a_short_block(self, capsys, tracks, line):
        # 125 frames: one block of 64 and a short last one of 61
        assert main(["verify", "--duration", "1", "--tracks", str(tracks)]) == 0
        assert capsys.readouterr().out == line

    @pytest.mark.parametrize("tracks, seconds, frames", [
        (10, "3", 375), (100, "3", 375), (400, "0.6", 75),
    ], ids=["10", "100", "400"])
    def test_peak_memory_stays_under_sixteen_megabytes(self, capsys, tracks, seconds, frames):
        # one block's frames of picked pairs at a time on each route: not every
        # candidate's span (47 MB) nor every pair that the tracks pick
        tracemalloc.start()
        try:
            assert main(["verify", "--duration", seconds, "--tracks", str(tracks)]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert f"frames={frames} " in capsys.readouterr().out
        assert peak < 16_000_000

    def test_tolerance_breach_exits_four(self, capsys, monkeypatch):
        monkeypatch.setattr("hcf.cli.VERIFY_TOLERANCE", -1.0)
        code = main(["verify", "--duration", "0.2", "--tracks", "1"])
        assert code == 4
        assert "error:" in capsys.readouterr().err

    def test_verify_reads_wav(self, tmp_path, capsys):
        path = tmp_path / "sig.wav"
        hcf.write_wav(buffer(tone(150.0, 0.25, amp=0.4)), path, bit_depth="float32")
        assert main(["verify", str(path), "--tracks", "2"]) == 0
        capsys.readouterr()

    @needs_rlimit_as
    def test_long_input_fits_in_one_gib(self):
        # a whole-signal candidate tensor for 20 s would need 6.5 GiB
        done = run_capped_cli("verify", "--duration", "20", "--tracks", "2", timeout=300)
        assert done.returncode == 0, done.stderr
        assert "max_dev=" in done.stdout


class TestExitCodes:
    @needs_rlimit_as
    def test_long_analysis_windows_fit_in_one_gib(self, tmp_path):
        # 960 000-sample windows: a whole block of 63 frames would need 461 MiB per FFT array
        path = tmp_path / "tone.wav"
        hcf.write_wav(buffer(tone(150.0, 0.5)), path, bit_depth="float32")
        done = run_capped_cli("f0", str(path), str(tmp_path / "o.csv"), "--f-min", "0.1",
                              timeout=300)
        assert done.returncode == 0, done.stderr
        assert len(hcf.read_track(tmp_path / "o.csv", hcf.F0Grid(f_min=0.1))) == 63

    @needs_rlimit_as
    def test_out_of_memory_exits_three(self):
        # an hour of noise needs 1.3 GiB, so the first allocation fails at once
        done = run_capped_cli("verify", "--duration", "3600", "--tracks", "1", timeout=120)
        assert done.returncode == 3, done.stderr
        assert done.stderr.startswith("error: out of memory: ")
        assert "Traceback" not in done.stderr

    @needs_rlimit_as
    def test_more_track_indices_than_numpy_can_shape_exit_three(self):
        # one track is drawn at a time, so without a size check this would never end
        done = run_capped_cli("verify", "--duration", "0.01", "--tracks", str(2**63), timeout=30)
        assert done.returncode == 3, done.stderr
        assert "out of memory" in done.stderr and "track indices" in done.stderr


class TestDumps:
    def test_filterbank_matrix(self, tmp_path, capsys):
        out = tmp_path / "bank.hcf"
        assert main(["filterbank", str(out)]) == 0
        capsys.readouterr()
        mat = hcf.read_matrix(out)
        assert mat.shape == (226, 1537)
        assert np.allclose(mat.sum(axis=1), 1.0, atol=1e-6)
        assert mat[225, 768] == 1.0

    def test_labels_from_track(self, tmp_path, capsys):
        grid = hcf.F0Grid()
        track = hcf.track_from_indices(grid, [96, 225, 0])
        track_path = tmp_path / "track.csv"
        hcf.write_track(track, track_path, grid)
        out = tmp_path / "labels.hcf"
        assert main(["labels", str(track_path), str(out)]) == 0
        capsys.readouterr()
        mat = hcf.read_matrix(out)
        assert mat.shape == (3, 226)
        assert np.allclose(mat.max(axis=1), 1.0)
        assert mat[0, 96] == 1.0
        assert mat[1, 225] == 1.0 and mat[1, :225].max() == 0.0
        assert mat[2, 0] == 1.0

    def test_labels_from_header_only_track(self, tmp_path, capsys):
        track_path = tmp_path / "track.csv"
        hcf.write_track(hcf.track_from_indices(hcf.F0Grid(), []), track_path, hcf.F0Grid())
        out = tmp_path / "labels.hcf"
        assert main(["labels", str(track_path), str(out)]) == 0
        assert "0x226" in capsys.readouterr().out
        assert hcf.read_matrix(out).shape == (0, 226)

    def test_f0_track_round_trip(self, tmp_path, capsys):
        path = tmp_path / "tone.wav"
        hcf.write_wav(buffer(tone(200.0, 0.4, amp=0.4)), path, bit_depth="float32")
        out = tmp_path / "track.csv"
        assert main(["f0", str(path), str(out)]) == 0
        assert "voiced" in capsys.readouterr().out
        grid = hcf.F0Grid()
        track = hcf.read_track(out, grid)
        voiced = track.voiced_mask(grid)
        assert voiced.mean() > 0.6
        median_f0 = float(np.median(track.f0_hz(grid)[voiced]))
        assert abs(median_f0 - 200.0) / 200.0 < 0.05

    def test_track_read_on_another_grid_exits_3(self, tmp_path, capsys):
        # a 200 Hz tone's track says index 176; on a grid from 100 Hz that is 269 Hz
        path = tmp_path / "tone.wav"
        hcf.write_wav(buffer(tone(200.0, 0.4, amp=0.4)), path, bit_depth="float32")
        track = tmp_path / "track.csv"
        assert main(["f0", str(path), str(track)]) == 0
        out = tmp_path / "out.wav"
        for argv in (
            ["enhance", str(path), str(out), "--clean", str(path), "--f0", str(track)],
            ["labels", str(track), str(tmp_path / "labels.hcf")],
        ):
            assert main(argv) == 0
            capsys.readouterr()
            assert main(argv + ["--f-min", "100"]) == 3
            assert "on this grid" in capsys.readouterr().err


class TestEnhanceCommand:
    def test_oracle_run_reports_snr_gain(self, tmp_path, wav_pair, capsys):
        clean_path, noisy_path, _, noisy = wav_pair
        out_path = tmp_path / "out.wav"
        diag = tmp_path / "diag"
        code = main([
            "enhance", str(noisy_path), str(out_path),
            "--clean", str(clean_path), "--diag", str(diag),
        ])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "snr_in_db=" in stdout and "snr_gain_db=" in stdout
        gain_db = float(stdout.split("snr_gain_db=")[1].split()[0])
        assert gain_db > 3.0
        enhanced = hcf.read_wav(out_path)
        assert len(enhanced) == noisy.size
        assert (diag / "track.csv").exists()
        assert hcf.read_matrix(diag / "strength.hcf").shape[0] == 769
        assert hcf.read_matrix(diag / "gain.hcf").shape[0] == 769
        report = (diag / "report.txt").read_text()
        assert "se_loss=" in report
        assert "latency_samples=2304" in report

    def test_report_gains_only_term_matches_metrics(self, tmp_path, wav_pair, capsys):
        # report.txt scores the strength-0 estimate, as `hcf metrics` scores a gains-only WAV
        clean_path, noisy_path, _, noisy = wav_pair
        out_path = tmp_path / "out.wav"
        diag = tmp_path / "diag"
        assert main([
            "enhance", str(noisy_path), str(out_path),
            "--clean", str(clean_path), "--diag", str(diag),
        ]) == 0
        report = dict(line.split("=", 1) for line in (diag / "report.txt").read_text().split())
        assert report["mag_gains_only"] != report["mag_full"]

        zeros_path = tmp_path / "zeros.hcf"
        hcf.write_matrix(np.zeros((769, hcf.FrameConfig().n_frames(noisy.size))), zeros_path)
        gains_only_path = tmp_path / "gains_only.wav"
        assert main([
            "enhance", str(noisy_path), str(gains_only_path),
            "--gain", str(diag / "gain.hcf"), "--strength", str(zeros_path),
            "--f0", str(diag / "track.csv"),
        ]) == 0
        capsys.readouterr()
        assert main(["metrics", str(clean_path), str(out_path), str(gains_only_path)]) == 0
        values = dict(line.split("=", 1) for line in capsys.readouterr().out.split())
        for key in ("mag_gains_only", "mag_full"):
            assert float(values[key]) == pytest.approx(float(report[key]), rel=1e-4)

    def test_matrix_mode_identity(self, tmp_path, wav_pair, capsys):
        _, noisy_path, _, noisy = wav_pair
        n_frames = hcf.FrameConfig().n_frames(noisy.size)
        gain_path = tmp_path / "gain.hcf"
        strength_path = tmp_path / "strength.hcf"
        hcf.write_matrix(np.ones((769, n_frames)), gain_path)
        hcf.write_matrix(np.zeros((769, n_frames)), strength_path)
        out_path = tmp_path / "out.wav"
        code = main([
            "enhance", str(noisy_path), str(out_path),
            "--gain", str(gain_path), "--strength", str(strength_path),
        ])
        assert code == 0
        capsys.readouterr()
        out = hcf.read_wav(out_path).samples
        sl = interior(noisy.size)
        assert rel_rms(out[sl] - noisy[sl], noisy[sl]) < 1e-5

    @needs_rlimit_as
    def test_long_input_fits_in_one_gib(self, tmp_path, rng):
        # after the track, enhance works in frame blocks; 90 s with given
        # maps needed over 900 MB when every stage ran on the whole buffer
        seconds = 90
        noisy = 0.1 * rng.standard_normal(seconds * hcf.PIPELINE_RATE)
        hcf.write_wav(buffer(noisy), tmp_path / "noisy.wav", bit_depth="float32")
        n_frames = hcf.FrameConfig().n_frames(noisy.size)
        grid = hcf.F0Grid()
        track = hcf.track_from_indices(grid, rng.integers(0, grid.label_size, n_frames))
        hcf.write_track(track, tmp_path / "track.csv", grid)
        for name in ("gain", "strength"):
            hcf.write_matrix(rng.random((769, n_frames), dtype=np.float32), tmp_path / f"{name}.hcf")
        out_path = tmp_path / "out.wav"
        done = run_capped_cli(
            "enhance", str(tmp_path / "noisy.wav"), str(out_path),
            "--f0", str(tmp_path / "track.csv"),
            "--gain", str(tmp_path / "gain.hcf"), "--strength", str(tmp_path / "strength.hcf"),
            timeout=300,
        )
        assert done.returncode == 0, done.stderr
        assert len(hcf.read_wav(out_path)) == noisy.size

    @needs_rlimit_as
    def test_long_diag_run_fits_in_one_gib(self, tmp_path, rng):
        # report.txt's gains-only estimate and loss terms are taken in frame
        # blocks; whole-buffer spectra of 90 s need more than 1 GiB
        seconds = 90
        clean = harmonic_complex(150.0, 4, seconds, amp=0.1)
        noisy = clean + 0.05 * rng.standard_normal(clean.size)
        hcf.write_wav(buffer(clean), tmp_path / "clean.wav", bit_depth="float32")
        hcf.write_wav(buffer(noisy), tmp_path / "noisy.wav", bit_depth="float32")
        grid = hcf.F0Grid()
        n_frames = hcf.FrameConfig().n_frames(clean.size)
        hcf.write_track(
            hcf.track_from_indices(grid, np.full(n_frames, hcf.nearest_index(grid, 150.0))),
            tmp_path / "track.csv", grid,
        )
        diag = tmp_path / "diag"
        done = run_capped_cli(
            "enhance", str(tmp_path / "noisy.wav"), str(tmp_path / "out.wav"),
            "--clean", str(tmp_path / "clean.wav"), "--f0", str(tmp_path / "track.csv"),
            "--diag", str(diag), timeout=300,
        )
        assert done.returncode == 0, done.stderr
        assert "se_loss=" in (diag / "report.txt").read_text()

    @needs_rlimit_as
    def test_long_metrics_fit_in_one_gib(self, tmp_path, rng):
        seconds = 90
        clean = 0.1 * rng.standard_normal(seconds * hcf.PIPELINE_RATE)
        hcf.write_wav(buffer(clean), tmp_path / "clean.wav", bit_depth="float32")
        hcf.write_wav(buffer(0.5 * clean), tmp_path / "estimate.wav", bit_depth="float32")
        done = run_capped_cli(
            "metrics", str(tmp_path / "clean.wav"), str(tmp_path / "estimate.wav"), timeout=300,
        )
        assert done.returncode == 0, done.stderr
        assert "se_loss=" in done.stdout

    def test_rescale_flag_runs(self, tmp_path, wav_pair, capsys):
        clean_path, noisy_path, _, _ = wav_pair
        code = main([
            "enhance", str(noisy_path), str(tmp_path / "out.wav"),
            "--clean", str(clean_path), "--rescale", "--bits", "16",
        ])
        assert code == 0
        capsys.readouterr()

    def test_pipeline_then_metrics(self, tmp_path, wav_pair, capsys):
        clean_path, noisy_path, _, _ = wav_pair
        out_path = tmp_path / "out.wav"
        assert main([
            "enhance", str(noisy_path), str(out_path), "--clean", str(clean_path),
        ]) == 0
        capsys.readouterr()
        assert main(["metrics", str(clean_path), str(out_path)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        values = dict(line.split("=", 1) for line in lines)
        assert set(values) == {"se_loss", "mag_gains_only", "mag_full", "complex", "sdr_db"}
        assert float(values["se_loss"]) >= 0.0
        assert np.isfinite(float(values["sdr_db"]))

    def test_loss_lines_frame_each_block_on_its_own(self, frame_cfg, rng, monkeypatch):
        # no whole-signal frames: every block frames only its own span
        cli = hcf.cli
        clean = buffer(harmonic_complex(200.0, 4, 2.0, amp=0.12))
        estimate = buffer(clean.samples + noise_at_snr(clean.samples, 10.0, rng))
        gains_only = buffer(0.8 * estimate.samples)
        cfg = hcf.LossConfig()
        frames = [hcf.frame_signal(b, frame_cfg) for b in (clean, estimate, gains_only)]
        n_frames = frames[0].shape[1]
        sums = np.zeros(4)
        for lo in range(0, n_frames, cli.BLOCK_FRAMES):
            spectra = [hcf.stft(f[:, lo:lo + cli.BLOCK_FRAMES]) for f in frames]
            sums += np.multiply(hcf.se_loss(*spectra, cfg), spectra[0].shape[1])

        def refuse(*args):
            raise AssertionError("frame_signal called")

        real, spans = cli.windows, []

        def recording(x, n, hop, start, length):
            spans.append(n)
            return real(x, n, hop, start, length)

        monkeypatch.setattr(hcf.framing, "frame_signal", refuse)
        monkeypatch.setattr(cli, "windows", recording)
        lines = cli._loss_lines(clean, estimate, gains_only, frame_cfg, cfg)
        assert n_frames > 2 * cli.BLOCK_FRAMES
        assert max(spans) <= cli.BLOCK_FRAMES
        assert sum(spans) == 3 * n_frames
        expected = [f"{value:.6g}" for value in sums / n_frames]
        assert [line.split("=")[1] for line in lines[:4]] == expected

    def test_metrics_zero_for_identical_inputs(self, tmp_path, wav_pair, capsys):
        clean_path, _, _, _ = wav_pair
        assert main(["metrics", str(clean_path), str(clean_path)]) == 0
        out = capsys.readouterr().out
        assert "se_loss=0" in out
        assert "sdr_db=100.000" in out
