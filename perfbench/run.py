"""Benchmark for hcf: seeded workloads end to end, or traced per layer.

    python3 perfbench/run.py --workload enhance_oracle --seed 1 --seconds 12 --trace 0

Run from anywhere; hcf is imported from ``src/`` beside this directory and
from nowhere else. Workloads (see README.md in this directory):

* ``enhance_oracle``: ``hcf.enhance(noisy, clean=clean)`` on 20 s;
* ``enhance_files``:  ``hcf enhance`` with track and map files on 60 s;
* ``verify_routes``:  ``hcf verify`` on 3 s.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced operations and prints the per-layer metrics. Every
operation runs in a fresh worker process and is checked; the last line of
output is one JSON object, and the exit code is non-zero if any check
failed. Inputs are generated from ``--seed`` under ``.work/`` here and
deleted afterwards; result and span files stay in ``.work/results/``.
"""

import os

BLAS_THREADS = "1"  # <= nproc; one thread keeps timings steady on a shared host
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS  # before numpy loads, here and in the workers

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import numpy as np  # noqa: E402

import inputs  # noqa: E402
from spans import metric_specs  # noqa: E402

#: Audio seconds per workload input.
WORKLOADS = {"enhance_oracle": 20.0, "enhance_files": 60.0, "verify_routes": 3.0}
WARMUP_SECONDS = 0.5
CANARY_SECONDS = 8.0
SETUP_REPEATS = 8  # half before the workload, half after
DEADLINE_S = 170.0

END_TO_END = (
    ("setup_s", "s"),
    ("ms_per_audio_s", "ms/audio_s"),
    ("peak_rss_mb_per_audio_s", "MB/audio_s"),
    ("snr_gain_db", "dB"),
    ("f0_frame_acc", "frac"),
    ("f0_frame_acc_low_snr", "frac"),
)


class Run:
    """Counts operations and failures; spawns workers against one deadline."""

    def __init__(self, work: Path):
        self.work = work
        self.began = time.monotonic()
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.backend = "unknown"

    def spawn(self, name: str, spec: dict):
        """Run worker.py on ``spec`` and count its operations.

        Returns the worker's result, or None if it crashed or ran out of time.
        """
        spec = dict(spec, root=str(ROOT), result=str(self.work / f"{name}.result.json"))
        spec_path = self.work / f"{name}.spec.json"
        spec_path.write_text(json.dumps(spec))
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        remaining = DEADLINE_S - (time.monotonic() - self.began)
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), str(spec_path)],
                env=env, capture_output=True, text=True, timeout=max(remaining, 1.0),
            )
        except subprocess.TimeoutExpired:
            return self._crashed(name, f"killed at the {DEADLINE_S:.0f} s deadline")
        if proc.returncode != 0:
            return self._crashed(name, f"exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        result = json.loads(Path(spec["result"]).read_text())
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        self.failures += [f"{name}: {m}" for m in result["failures"]]
        self.backend = result["backend"]
        return result

    def _crashed(self, name, why):
        self.attempted += 1
        self.failed += 1
        self.failures.append(f"{name}: worker {why}")
        return None


def _write_signal(sig, directory: Path) -> dict:
    directory.mkdir(parents=True, exist_ok=True)
    files = {"noisy": str(directory / "noisy.wav"), "clean": str(directory / "clean.wav")}
    inputs.write_wav(files["noisy"], sig.noisy)
    inputs.write_wav(files["clean"], sig.clean)
    return files


def _files_inputs(sig, directory: Path) -> dict:
    """Track CSV (ground truth), oracle maps, and the expected output.

    The maps come from one oracle ``hcf.enhance`` on the true track; the
    expected output is an in-memory ``hcf.enhance`` on exactly what the CLI
    will read back (float32 maps), clipped and rounded as the float32 WAV
    writer does. Both run here, outside any timed region.
    """
    sys.path.insert(0, str(ROOT / "src"))
    import hcf

    files = _write_signal(sig, directory)
    files.update(track=str(directory / "track.csv"), gain=str(directory / "gain.hcf"),
                 strength=str(directory / "strength.hcf"), out=str(directory / "out.wav"),
                 reference=str(directory / "reference.npy"))
    inputs.write_track(files["track"], sig.truth_index)
    track = hcf.track_from_indices(hcf.F0Grid(), sig.truth_index)
    noisy = hcf.AudioBuffer(sig.noisy)
    oracle = hcf.enhance(noisy, clean=hcf.AudioBuffer(sig.clean), track=track)
    gain = oracle.gain.astype(np.float32)
    strength = oracle.strength.astype(np.float32)
    del oracle
    inputs.write_matrix(files["gain"], gain)
    inputs.write_matrix(files["strength"], strength)
    expected = hcf.enhance(noisy, track=track, gain=gain.astype(np.float64),
                           strength=strength.astype(np.float64)).audio.samples
    np.save(files["reference"], np.clip(expected, -1.0, 1.0).astype(np.float32))
    return files


def _quality(sig, kept_path: Path) -> dict:
    kept = np.load(kept_path)
    correct = inputs.frame_accuracy(sig.truth_index, kept["indices"])
    return {
        "snr_gain_db": inputs.snr_db(sig.clean, kept["audio"]) - inputs.snr_db(sig.clean, sig.noisy),
        "f0_frame_acc": float(correct.mean()),
        "f0_frame_acc_low_snr": float(correct[sig.low_snr_frames].mean()),
    }


def _shares(layers: dict) -> dict:
    """Self time per module, and inclusive time per boundary, as shares of
    the traced operation (the outermost boundary's inclusive time)."""
    whole = max(v for k, v in layers.items() if k.endswith(".ms_per_audio_s"))
    shares = {}
    for key, value in layers.items():
        if key.endswith(".self_ms_per_audio_s"):
            module = key.split(".")[0]
            shares[f"{module}.* self"] = shares.get(f"{module}.* self", 0.0) + value / whole
        elif key.endswith(".ms_per_audio_s") and value / whole >= 0.05:
            shares[key[: -len(".ms_per_audio_s")]] = value / whole
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))


def _blas_name() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        return "unknown"


def _declared(kind: str):
    """(name, unit) pairs BENCHMARK.json declares for ``kind``."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in declared[kind]]


def measure(args, run: Run) -> tuple:
    """Run the workload; returns (metrics by name, notes for the result file)."""
    audio_s = WORKLOADS[args.workload]
    sig = inputs.make_signal(args.seed, audio_s)
    warm = _write_signal(inputs.make_signal(args.seed, WARMUP_SECONDS), run.work / "warmup")
    if args.workload == "enhance_oracle":
        files = _write_signal(sig, run.work / "input")
    elif args.workload == "enhance_files":
        files = _files_inputs(sig, run.work / "input")
    else:
        files = {"input": str(run.work / "input.wav")}
        inputs.write_wav(files["input"], sig.noisy)

    spec = {"mode": "workload", "workload": args.workload, "files": files, "warmup": warm,
            "seconds": args.seconds, "trace": bool(args.trace), "audio_s": sig.seconds,
            "kept": str(run.work / "kept.npz")}
    notes = {
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "blas": _blas_name(), "blas_threads": int(BLAS_THREADS),
        "input": {"audio_s": sig.seconds, "samples": int(sig.noisy.size),
                  "frames": int(sig.truth_index.size)},
    }
    metrics = {}
    if args.trace:
        result = run.spawn("traced", spec)
        if result is not None and result["times"] and result["traced_times"]:
            base = statistics.median(result["times"])
            traced = statistics.median(result["traced_times"])
            metrics = dict(result["layers"], **{"trace.overhead_frac": traced / base - 1.0})
            notes.update(missing=result["missing"], ops=len(result["times"]),
                         op_times_s=result["times"], traced_times_s=result["traced_times"],
                         spans=result["spans"], shares=_shares(metrics))
        return metrics, notes

    def setups(first, last):
        runs = [run.spawn(f"setup{i}", {"mode": "setup", "warmup": warm}) for i in range(first, last)]
        return [r["setup_s"] for r in runs if r is not None]

    setup_s = setups(0, SETUP_REPEATS // 2)
    result = run.spawn("workload", spec)
    setup_s += setups(SETUP_REPEATS // 2, SETUP_REPEATS)
    if args.workload == "enhance_oracle":
        canary, kept = sig, spec["kept"]
    else:
        # The quality canaries describe the estimator + oracle pipeline; a
        # workload that bypasses it gets them from one short, untimed run.
        canary = inputs.make_signal(args.seed, CANARY_SECONDS)
        kept = str(run.work / "canary.npz")
        run.spawn("canary", dict(spec, workload="enhance_oracle", seconds=0.0, kept=kept,
                                 files=_write_signal(canary, run.work / "canary")))
    if result is None or not result["times"] or not setup_s or not Path(kept).exists():
        return {}, notes
    times = result["times"]
    metrics = {
        "setup_s": statistics.median(setup_s),
        "ms_per_audio_s": 1000.0 * statistics.median(times) / sig.seconds,
        "peak_rss_mb_per_audio_s": result["peak_rss_kb"] * 1024 / 1e6 / sig.seconds,
        **_quality(canary, kept),
    }
    notes.update(setup_runs_s=setup_s, ops=len(times), op_times_s=times,
                 peak_rss_mb=result["peak_rss_kb"] * 1024 / 1e6,
                 canary_audio_s=canary.seconds)
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hcf" / "__init__.py").is_file():
        print(f"error: no hcf sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = _declared("per_layer" if args.trace else "end_to_end")
    # On SIGTERM, unwind: subprocess.run kills its worker and the inputs are deleted.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    results = HERE / ".work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run = Run(HERE / ".work" / f"{tag}-{os.getpid()}")
    run.work.mkdir(parents=True)
    try:
        metrics, notes = measure(args, run)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)

    units = dict(END_TO_END) if not args.trace else {n: u for n, u, _ in metric_specs()}
    if sorted(declared) != sorted(units.items()):
        run.failures.append("metric names or units differ from BENCHMARK.json")
    if set(metrics) != set(units):
        run.failures.append(f"metrics not measured: {sorted(set(units) - set(metrics))}")
    correct = not run.failures and run.failed == 0
    report = {
        "correct": correct,
        "attempted": max(run.attempted, 1),
        "failed": run.failed if run.attempted else 1,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }
    notes.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                 trace=args.trace, backend=run.backend, failures=run.failures)
    spans = notes.pop("spans", None)
    if spans is not None:
        (results / f"{tag}.spans.json").write_text(json.dumps(spans))
    (results / f"{tag}.json").write_text(json.dumps(dict(notes, result=report), indent=1))

    print(f"hcf benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} backend={run.backend}")
    print("machine: " + " ".join(f"{k}={notes[k]}" for k in
                                 ("nproc", "python", "numpy", "blas", "blas_threads")))
    print(f"input: {notes['input']['audio_s']:g} s audio, {notes['input']['samples']} samples, "
          f"{notes['input']['frames']} frames; {notes.get('ops', 0)} timed operations")
    if "setup_runs_s" in notes:
        print(f"setup_s is the median of {len(notes['setup_runs_s'])} fresh processes; "
              f"ms_per_audio_s the median of {notes['ops']} operations")
    for name, entry in report["metrics"].items():
        print(f"  {name} = {entry['value']:.6g} {entry['unit']}")
    if notes.get("missing"):
        print(f"boundaries missing from hcf (reported as 0): {', '.join(notes['missing'])}")
    for name, share in notes.get("shares", {}).items():
        if share >= 0.005:
            print(f"  share of traced wall time: {name} {share:.1%}")
    print(f"  failed_frac = {report['failed'] / report['attempted']:.6g} "
          f"({report['failed']} of {report['attempted']} operations)")
    for message in run.failures:
        print(f"FAILED: {message}", file=sys.stderr)
    print(json.dumps(report))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
