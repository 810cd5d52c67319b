"""Golden outputs: SHA-256 hashes of what the pipeline returns and writes on
seeded inputs, so a change of one bit in any of them fails here.

A change that moves a hash on purpose updates it and says which hash moved
and why. Every case but the oracle ones runs FFTs and elementwise numpy
only. The oracle maps also go through the mel projection, a BLAS product
whose rounding depends on the BLAS thread count. So the oracle ``enhance``
and every CLI case run in a subprocess with OpenBLAS at one thread, and the
``oracle`` and ``cli-oracle-*`` hashes belong to the numpy (2.4) and
OpenBLAS (0.3.31) build they were taken with.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hcf

from helpers import SRC, buffer, harmonic_complex, noise_at_snr

GOLDEN = {
    "track-white": "8dbde6ee7f106132b48d072b4ce28b0123db330a7e7a191ff764a9cbd4d6b51d",
    "track-pink": "702a47b30b8bba6ef612e78bb098469253f0f5260765695e623f3860044e7370",
    "given-1.0": "b46fe376d232186c8f580d87832a05b61a39cf42db948e1e9c8cff3ce6fc3818",
    "given-0.5": "57f5766677b0d467a96be026616d3ef5c6c43c53df324fc562462494816696e9",
    "oracle": "17f08b2b498a931e9fdded1b8abce2c9a299b4f4ab1a7b5478ed5d9584430f52",
    "cli-oracle-16": "758ff0c187d35fd1455abfb544b3d198c4398fdb3754ea5328707cf73607e988",
    "cli-oracle-24": "41241e90a0e376ebe79ee6e2897aaf404e1a814ce7e0e320515d999fecb51c03",
    "cli-oracle-float32": "c514837a3c105765823c7d9ec7545d54dade7002a9640f7b85115aaa325f1fa2",
    "cli-given-16": "fb4dc352ac8111ef32560a7d54b6835898c9e3b1baadffb34c2ae7e5aeac30df",
    "cli-given-24": "552efaf9283138d50a90997d9cf5c567942b2d64efa16f49f536f28a61429edf",
    "cli-given-float32": "7f9a75ff5bbd6a0ff0aee8412ecb324dd1a269191641e9395db4098ad37196e4",
    "cli-f0": "741e91c9e33eef61c63b5feb6bce31e68f4a7b809123243511d9ab7a7eda0f1e",
}


def _one_blas_thread(*argv) -> str:
    """The output of ``python *argv``, run with OpenBLAS at one thread."""
    path = os.pathsep.join([str(SRC), str(Path(__file__).parent)])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=path)
    done = subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def _cli(*argv) -> None:
    _one_blas_thread("-c", "import sys; from hcf.cli import main; sys.exit(main(sys.argv[1:]))",
                     *map(str, argv))


def _sha(*parts) -> str:
    """One hash of arrays (dtype, shape and bytes) and of raw bytes, in order."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(f"{part.dtype.str}{part.shape}".encode())
            part = np.ascontiguousarray(part).tobytes()
        h.update(part)
    return h.hexdigest()


def _speech(seconds, seed, snr_db, pink=False):
    """A 150 Hz harmonic complex, silent for its first quarter, in noise; (noisy, clean)."""
    clean = harmonic_complex(150.0, 5, seconds, amp=0.12)
    clean[: clean.size // 4] = 0.0
    noisy = clean + noise_at_snr(clean, snr_db, np.random.default_rng(seed), pink=pink)
    return buffer(noisy), buffer(clean)


def _given_maps(n_frames, seed):
    """A random track with half its frames unvoiced, and float32 gain and strength
    maps, the strength overshooting [0, 1]."""
    grid, rng = hcf.F0Grid(), np.random.default_rng(seed)
    indices = rng.integers(0, grid.size, n_frames)
    indices[rng.random(n_frames) < 0.5] = grid.unvoiced_index
    gain = rng.uniform(0.0, 1.5, (769, n_frames)).astype(np.float32)
    strength = rng.uniform(-0.2, 1.2, (769, n_frames)).astype(np.float32)
    return hcf.track_from_indices(grid, indices), gain, strength


@pytest.mark.parametrize("noise", ["white", "pink"])
def test_estimated_track(noise):
    noisy, _ = _speech(2.0, 11, 10.0, pink=noise == "pink")
    track = hcf.estimate_track(noisy, hcf.F0Grid())
    assert _sha(track.indices) == GOLDEN[f"track-{noise}"]


@pytest.mark.parametrize("exponent", [1.0, 0.5])
def test_given_track_and_maps(exponent):
    noisy, _ = _speech(1.5, 12, 5.0)
    track, gain, strength = _given_maps(hcf.FrameConfig().n_frames(len(noisy)), 13)
    result = hcf.enhance(noisy, track=track, gain=gain, strength=strength,
                         blend_cfg=hcf.BlendConfig(exponent))
    assert _sha(result.audio.samples, result.strength, result.gain) == GOLDEN[f"given-{exponent}"]


def oracle_digest() -> str:
    noisy, clean = _speech(1.5, 14, 15.0)
    result = hcf.enhance(noisy, clean=clean)
    return _sha(result.audio.samples, result.gain, result.strength, result.track.indices)


def test_oracle():
    # the mel projection is a BLAS product: see the module docstring
    digest = _one_blas_thread("-c", "import test_golden; print(test_golden.oracle_digest())")
    assert digest.strip() == GOLDEN["oracle"]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The CLI's input files: 1 s of noisy and clean audio, a track and two maps."""
    root = tmp_path_factory.mktemp("golden")
    noisy, clean = _speech(1.0, 15, 15.0)
    hcf.write_wav(noisy, root / "noisy.wav", bit_depth="float32")
    hcf.write_wav(clean, root / "clean.wav", bit_depth="float32")
    track, gain, strength = _given_maps(hcf.FrameConfig().n_frames(len(noisy)), 16)
    hcf.write_track(track, root / "track.csv", hcf.F0Grid())
    hcf.write_matrix(gain, root / "gain.hcf")
    hcf.write_matrix(strength, root / "strength.hcf")
    return root


@pytest.mark.parametrize("bits", ["16", "24", "float32"])
@pytest.mark.parametrize("mode", ["oracle", "given"])
def test_cli_enhance_writes(inputs, tmp_path, mode, bits):
    # ``oracle`` estimates the track and runs the oracles
    sources = (["--clean", inputs / "clean.wav"] if mode == "oracle" else
               ["--f0", inputs / "track.csv", "--gain", inputs / "gain.hcf",
                "--strength", inputs / "strength.hcf"])
    out, diag = tmp_path / "out.wav", tmp_path / "diag"
    _cli("enhance", inputs / "noisy.wav", out, *sources, "--diag", diag, "--bits", bits)
    names = ["track.csv", "strength.hcf", "gain.hcf"] + (["report.txt"] * (mode == "oracle"))
    assert sorted(p.name for p in diag.iterdir()) == sorted(names)
    digest = _sha(out.read_bytes(), *((diag / name).read_bytes() for name in names))
    assert digest == GOLDEN[f"cli-{mode}-{bits}"]


def test_cli_f0_csv(inputs, tmp_path):
    _cli("f0", inputs / "noisy.wav", tmp_path / "f0.csv")
    assert _sha((tmp_path / "f0.csv").read_bytes()) == GOLDEN["cli-f0"]
