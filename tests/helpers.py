"""Shared signal builders and subprocess runners for the test suite."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

try:
    import resource
except ImportError:  # not on every platform
    resource = None

import hcf
from hcf.estimator import posterior_block
from hcf.helper import overlap

FS = 48000
SRC = Path(__file__).resolve().parents[1] / "src"

needs_rlimit_as = pytest.mark.skipif(
    resource is None or not hasattr(resource, "RLIMIT_AS"), reason="needs RLIMIT_AS"
)


def run_capped_cli(*argv, timeout):
    """Run the CLI in a subprocess whose address space is capped at 1 GiB,
    so a test of memory use fails instead of exhausting the machine."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(SRC))
    run_cli = "import sys; from hcf.cli import main; sys.exit(main(sys.argv[1:]))"
    return subprocess.run(
        [sys.executable, "-c", run_cli, *argv],
        env=env, preexec_fn=cap, capture_output=True, text=True, timeout=timeout,
    )


def tone(freq, duration, amp=0.5, fs=FS, phase=0.0):
    t = np.arange(int(round(duration * fs))) / fs
    return amp * np.sin(2.0 * np.pi * freq * t + phase)


def periodic_tone(period, n_samples, amp=0.5):
    """Sine with an exactly repeating sample pattern of the given period.

    Tiling one period makes the signal bit-exactly periodic, which plain
    ``sin(2*pi*f*t)`` is not once t grows.
    """
    base = amp * np.sin(2.0 * np.pi * np.arange(period) / period)
    reps = -(-n_samples // period)
    return np.tile(base, reps)[:n_samples]


def harmonic_complex(f0, n_harmonics, duration, amp=0.1, fs=FS):
    t = np.arange(int(round(duration * fs))) / fs
    x = np.zeros(t.size)
    for k in range(1, n_harmonics + 1):
        x += amp * np.sin(2.0 * np.pi * f0 * k * t)
    return x


def noise_at_snr(reference, snr_db, rng):
    """White noise scaled so reference-vs-noise power ratio is snr_db."""
    noise = rng.standard_normal(reference.size)
    p_ref = np.mean(reference**2)
    p_noise = np.mean(noise**2)
    return noise * np.sqrt(p_ref / (p_noise * 10.0 ** (snr_db / 10.0)))


def buffer(x):
    return hcf.AudioBuffer(np.asarray(x, dtype=np.float64))


def posteriors(buf, grid, cfg=hcf.EstimatorConfig(), frame_cfg=hcf.FrameConfig()):
    """Whole-signal ``(n_frames, N+1)`` pitch posteriors: ``posterior_block``
    over the frame blocks of ``overlap``, in order, as ``estimate_track`` decodes them."""
    blocks = []
    overlap(frame_cfg.n_frames(len(buf)),
            lambda lo, n: posterior_block(buf, lo, n, grid, cfg, frame_cfg), blocks.append)
    return np.concatenate(blocks)


def interior(n_samples, cfg=None):
    """Slice unaffected by partial window overlap at either edge."""
    edge = cfg.frame_size if cfg is not None else hcf.FrameConfig().frame_size
    return slice(edge, n_samples - edge)


def rel_rms(err, reference):
    return float(np.sqrt(np.mean(err**2) / np.mean(reference**2)))


def exhaustive_best_path(emissions, transition, initial):
    """Score every state sequence; only viable at toy sizes."""
    n_states, n_frames = emissions.shape
    paths = np.array(
        np.unravel_index(np.arange(n_states**n_frames), (n_states,) * n_frames)
    ).T
    scores = initial[paths[:, 0]] + emissions[paths[:, 0], 0]
    for t in range(1, n_frames):
        scores = scores + transition[paths[:, t - 1], paths[:, t]] + emissions[paths[:, t], t]
    return paths[int(np.argmax(scores))]


def record_filter_calls(monkeypatch):
    """Record the arguments after the row table of each ``hcf.comb._filter`` call
    by route: ``"_scan"`` for a table that ``comb._scan`` built while recording,
    the reference route's, and ``"_tap_rows"`` for any other, the inference
    route's table that the bank keeps."""
    calls, scanned = {"_scan": [], "_tap_rows": []}, []

    def scanning(*args, real=hcf.comb._scan):
        scanned.append(real(*args))  # kept alive, so no later table takes its id
        return scanned[-1]

    def recording(rows, *args, real=hcf.comb._filter):
        route = "_scan" if any(rows is table for table in scanned) else "_tap_rows"
        calls[route].append(args)
        return real(rows, *args)
    monkeypatch.setattr(hcf.comb, "_scan", scanning)
    monkeypatch.setattr(hcf.comb, "_filter", recording)
    return calls
