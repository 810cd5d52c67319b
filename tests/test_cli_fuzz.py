"""A seeded fuzz gate for the CLI exit-code contract.

Each input format is mutated a fixed number of times from a fixed seed, and
every mutant goes through one of the commands that read that format. Bad data
must exit 3, never 1 (an exception out of ``main``) or 2 (usage): every exit is
0 or 3, or 4 from ``verify``. Any Python warning fails the gate too. The seed
and the counts are fixed, so the gate cannot flake; a wider search belongs
outside the test suite. A second gate runs the float tuning flags at boundary
values, where a rejected value may also exit 2.
"""

import shutil
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import hcf
from hcf.cli import main

from helpers import buffer, harmonic_complex, noise_at_snr

SEED = 21
MUTANTS = 200  # per format
#: Bytes of each format's header: the canonical WAV header, the HCF1 header,
#: and the track CSV's header line.
HEADER_BYTES = {"wav": 44, "hcf": 12, "csv": 32}
FIELDS = [b"", b"-1", b"226", b"1e309", b"nan", b"0x1", b"7.5", b"\xff"]


def _mutate(rng, data: bytes, kind: str) -> bytes:
    """One seeded mutation: header bit flips, truncation, random bytes, inserted
    junk or, for a CSV, a line edit."""
    out = bytearray(data)
    how = int(rng.integers(5 if kind == "csv" else 4))
    if how == 0:
        for _ in range(int(rng.integers(1, 4))):
            i = int(rng.integers(min(HEADER_BYTES[kind], len(out))))
            out[i] ^= 1 << int(rng.integers(8))
    elif how == 1:
        del out[int(rng.integers(len(out))):]
    elif how == 2:
        lo, n = int(rng.integers(len(out))), int(rng.integers(1, 17))
        out[lo:lo + n] = rng.bytes(n)
    elif how == 3:
        lo = int(rng.integers(len(out) + 1))
        out[lo:lo] = rng.bytes(int(rng.integers(1, 17)))
    else:
        lines = bytes(out).split(b"\r\n")
        i, j = (int(k) for k in rng.integers(len(lines), size=2))
        edit = int(rng.integers(4))
        if edit == 0:
            del lines[i]
        elif edit == 1:
            lines.insert(i, lines[i])
        elif edit == 2:
            lines[i], lines[j] = lines[j], lines[i]
        else:
            fields = lines[i].split(b",")
            fields[int(rng.integers(len(fields)))] = FIELDS[int(rng.integers(len(FIELDS)))]
            lines[i] = b",".join(fields)
        out = bytearray(b"\r\n".join(lines))
    return bytes(out)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Valid inputs for every command: 0.05 s WAVs in three formats, maps and a track."""
    d = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(SEED)
    clean = harmonic_complex(180.0, 4, 0.05, amp=0.12)
    noisy = clean + noise_at_snr(clean, 10.0, rng)
    paths = {"clean": d / "clean.wav", "noisy": d / "noisy.wav"}
    hcf.write_wav(buffer(clean), paths["clean"])
    hcf.write_wav(buffer(noisy), paths["noisy"])
    for bits in ("16", "24", "float32"):
        paths[bits] = d / f"noisy{bits}.wav"
        hcf.write_wav(buffer(noisy), paths[bits], bit_depth=bits)
    grid = hcf.F0Grid()
    n_frames = hcf.FrameConfig().n_frames(noisy.size)
    paths["gain"], paths["strength"], paths["track"] = d / "g.hcf", d / "s.hcf", d / "t.csv"
    hcf.write_matrix(rng.uniform(0.0, 1.0, (769, n_frames)), paths["gain"])
    hcf.write_matrix(rng.uniform(-0.2, 1.2, (769, n_frames)), paths["strength"])
    indices = rng.integers(0, grid.label_size, n_frames)
    hcf.write_track(hcf.track_from_indices(grid, indices), paths["track"], grid)
    return d, {k: str(v) for k, v in paths.items()}


def _commands(p, m, out):
    """Every command that reads the mutant ``m``'s format, by format."""
    given = ["--gain", p["gain"], "--strength", p["strength"], "--f0", p["track"]]
    wav = [
        ["f0", m, out],
        ["verify", m, "--tracks", "1"],
        ["metrics", m, p["noisy"]],
        ["metrics", p["clean"], m],
        ["metrics", p["clean"], p["noisy"], m],
        ["enhance", m, out, "--clean", p["clean"]],
        ["enhance", p["noisy"], out, "--clean", m, "--diag", out + ".diag"],
        ["enhance", m, out, *given],
    ]
    return {
        "wav": wav,
        "hcf": [
            ["enhance", p["noisy"], out, "--gain", m, "--strength", p["strength"], "--f0", p["track"]],
            ["enhance", p["noisy"], out, "--gain", p["gain"], "--strength", m, "--f0", p["track"]],
        ],
        "csv": [
            ["labels", m, out],
            ["enhance", p["noisy"], out, "--clean", p["clean"], "--f0", m],
            ["enhance", p["noisy"], out, "--gain", p["gain"], "--strength", p["strength"], "--f0", m],
        ],
    }


SOURCES = ["16", "24", "float32", "gain", "track"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("source", SOURCES)
def test_mutants_exit_zero_or_three(files, source, capsys):
    # a command that exits 3 must also leave no output behind
    d, p = files
    kind = {"gain": "hcf", "track": "csv"}.get(source, "wav")
    rng = np.random.default_rng([SEED, SOURCES.index(source)])
    data = Path(p[source]).read_bytes()
    mutant, out, diag = d / f"mutant.{source}", d / "out", d / "out.diag"
    bad = []
    for n in range(MUTANTS):
        mutant.write_bytes(_mutate(rng, data, kind))
        commands = _commands(p, str(mutant), str(out))[kind]
        argv = commands[n % len(commands)]
        out.unlink(missing_ok=True)
        shutil.rmtree(diag, ignore_errors=True)
        code = main(argv)
        err = capsys.readouterr().err.strip()
        if code not in (0, 3) and not (code == 4 and argv[0] == "verify"):
            bad.append((n, argv, code, err))
        elif code == 3 and (out.exists() or diag.exists()):
            bad.append((n, argv, "output left behind", err))
    assert not bad, bad[:5]


#: Boundary values for every float flag. ``F0Grid`` rejects each of them for
#: --f-min and --f-max before anything is allocated. The integer flags that size
#: the comb bank or the frames (--grid-size, --order, --frame-size, --hop) are
#: left out: extreme values could allocate gigabytes.
FLAG_VALUES = ["5e-324", "1e-300", "1e-160", "1e300", "inf", "nan", "0", "-0.0"]
FLOAT_FLAGS = [
    ("f0", "--threshold"),
    ("f0", "--transition-width"),
    ("f0", "--voicing-prior"),
    ("f0", "--switch-cost"),
    ("metrics", "--compression"),
    ("metrics", "--magnitude-weight"),
    ("verify", "--duration"),
    *((command, flag) for command in ("f0", "verify", "enhance") for flag in ("--f-min", "--f-max")),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command, flag", FLOAT_FLAGS)
def test_float_flag_boundaries_exit_zero_two_or_three(tmp_path, command, flag, capsys):
    # nothing escapes main, and no warning reaches stderr
    rng = np.random.default_rng(SEED)
    clean = harmonic_complex(150.0, 4, 0.1, amp=0.12)
    paths = [tmp_path / "clean.wav", tmp_path / "noisy.wav"]
    hcf.write_wav(buffer(clean), paths[0])
    hcf.write_wav(buffer(clean + noise_at_snr(clean, 10.0, rng)), paths[1])
    clean_path, noisy_path, out = str(paths[0]), str(paths[1]), str(tmp_path / "out")
    inputs = {
        "f0": [noisy_path, out],
        "metrics": [clean_path, noisy_path],
        "verify": ["--duration", "0.1"],
        "enhance": [noisy_path, out, "--clean", clean_path],
    }[command]
    bad = []
    for value in FLAG_VALUES:
        code = main([command, *inputs, flag, value])
        err = capsys.readouterr().err
        if code not in (0, 2, 3) or "Warning" in err:
            bad.append((value, code, err))
    assert not bad, bad


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["f0", "enhance", "verify"])
def test_grid_too_large_to_shape_exits_three(tmp_path, command, capsys):
    # the longest period, 4.8e18 samples, rounds into int64, but the comb bank and the
    # analysis windows it sizes hold more bytes than numpy can shape: out of memory, not usage
    wav = tmp_path / "tone.wav"
    hcf.write_wav(buffer(harmonic_complex(150.0, 4, 0.1, amp=0.12)), wav)
    inputs = {
        "f0": [str(wav), str(tmp_path / "out.csv")],
        "enhance": [str(wav), str(tmp_path / "out.wav"), "--clean", str(wav)],
        "verify": ["--duration", "0.1"],
    }[command]
    assert main([command, *inputs, "--f-min", "1e-14"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: ") and "float64" in err
    assert not (tmp_path / "out.csv").exists() and not (tmp_path / "out.wav").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("duration", ["1e14", "1e300"])
def test_noise_too_large_to_shape_exits_three(duration, capsys):
    # 4.8e18 float64 samples or more are more bytes than numpy can shape: out of
    # memory, raised before the comb bank or the noise is allocated
    tracemalloc.start()
    try:
        code = main(["verify", "--duration", duration, "--tracks", "1"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: ") and "float64" in err
    assert peak < 1_000_000
