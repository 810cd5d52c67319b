"""One fresh process: hcf set-up, or repeated operations of one workload.

    python3 perfbench/worker.py <spec.json>

The spec (written by run.py) names the mode, the input files and where to
write the result JSON. Running each workload in its own process gives it
its own peak RSS; run.py pins the BLAS thread count in the environment.
"""

import time

START = time.perf_counter()  # setup_s counts from here: before hcf and numpy load

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402  (part of importing hcf, so inside setup_s)

VERIFY_TOLERANCE = 1e-8  # hcf.cli.VERIFY_TOLERANCE
F32_TOLERANCE = 2.0**-23  # one float32 ulp at full scale


def _backend(hcf) -> str:
    return hcf.backend_name() if hasattr(hcf, "backend_name") else "unknown"


def _import_hcf(root: Path):
    import hcf

    src = (root / "src").resolve()
    if src not in Path(hcf.__file__).resolve().parents:
        raise RuntimeError(f"imported hcf from {hcf.__file__}, expected under {src}")
    return hcf


def _warm_up(hcf, spec):
    """Grid, bank, mel filterbank, and one short oracle enhance."""
    grid = hcf.F0Grid()
    bank = hcf.build_bank(grid)
    hcf.build_mel_filterbank()
    noisy = hcf.read_wav(spec["warmup"]["noisy"])
    clean = hcf.read_wav(spec["warmup"]["clean"])
    out = hcf.enhance(noisy, clean=clean, grid=grid, bank=bank).audio.samples
    return _check_audio(out, len(noisy))


def _check_audio(samples, n):
    errors = []
    if samples.shape != (n,):
        errors.append(f"output shape {samples.shape}, input has {n} samples")
    elif not np.all(np.isfinite(samples)):
        errors.append("output has non-finite samples")
    return errors


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(memoryview(a).cast("B"))
    return h.hexdigest()


def _cli(hcf, argv):
    """``hcf.cli.main`` with its printing captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = importlib.import_module("hcf.cli").main(argv)
    return code, out.getvalue(), err.getvalue()


# Each workload loads its inputs and returns (run, check). ``run`` is the
# timed call; ``check`` turns its result into (errors, digest, kept) outside
# the timed region.


def _oracle(hcf, files):
    noisy = hcf.read_wav(files["noisy"])
    clean = hcf.read_wav(files["clean"])

    def run():
        return hcf.enhance(noisy, clean=clean)

    def check(result):
        audio = result.audio.samples
        indices = result.track.indices
        return _check_audio(audio, len(noisy)), _digest(audio, indices), (audio, indices)

    return run, check


def _files(hcf, files):
    import inputs

    reference = np.load(files["reference"])
    argv = ["enhance", files["noisy"], files["out"], "--f0", files["track"],
            "--gain", files["gain"], "--strength", files["strength"]]

    def run():
        return _cli(hcf, argv)

    def check(result):
        code, _out, err = result
        if code != 0:
            return [f"hcf enhance exited {code}: {err.strip()}"], "", None
        out = inputs.read_wav(files["out"])
        errors = _check_audio(out, reference.size)
        if not errors:
            dev = float(np.abs(out.astype(np.float64) - reference).max())
            if dev > F32_TOLERANCE:
                errors.append(f"output deviates from in-memory enhance by {dev:.3e}")
        return errors, _digest(out), None

    return run, check


def _verify(hcf, files):
    argv = ["verify", files["input"]]

    def run():
        return _cli(hcf, argv)

    def check(result):
        code, out, err = result
        if code != 0:
            return [f"hcf verify exited {code}: {err.strip()}"], "", None
        found = re.search(r"max_dev=(\S+)", out)
        if found is None:
            return [f"no max_dev in verify output {out!r}"], "", None
        if not float(found.group(1)) <= VERIFY_TOLERANCE:
            return [f"verify max_dev {found.group(1)} > {VERIFY_TOLERANCE}"], "", None
        return [], hashlib.sha256(out.encode()).hexdigest(), None

    return run, check


WORKLOADS = {"enhance_oracle": _oracle, "enhance_files": _files, "verify_routes": _verify}


def _timed(run, check, record, times):
    """One operation: time ``run``, then check it untimed.

    Appends the time to ``times`` unless the operation raised.
    """
    record["attempted"] += 1
    try:
        t0 = time.perf_counter()
        result = run()
        elapsed = time.perf_counter() - t0
        errors, digest, kept = check(result)
    except Exception:  # an operation that raises is a failed operation
        errors, digest, kept, elapsed = [traceback.format_exc(limit=3)], "", None, None
    if errors:
        record["failed"] += 1
        record["failures"].extend(errors)
    if digest:
        record["digests"].add(digest)
    if kept is not None and "kept" not in record:
        record["kept"] = kept
    if elapsed is not None:
        times.append(elapsed)


def workload(spec, root):
    hcf = _import_hcf(root)
    failures = _warm_up(hcf, spec)
    record = {"attempted": 1, "failed": int(bool(failures)), "failures": failures,
              "digests": set(), "times": [], "traced": []}
    run, check = WORKLOADS[spec["workload"]](hcf, spec["files"])
    tracer = None
    if spec["trace"]:
        from spans import Tracer

        tracer = Tracer()

    # Stop before an operation that would end past the measuring time.
    began = time.perf_counter()
    while True:
        step = time.perf_counter()
        _timed(run, check, record, record["times"])
        if tracer is not None:
            with tracer:
                _timed(run, check, record, record["traced"])
        now = time.perf_counter()
        if record["failed"] or 2 * now - step - began > spec["seconds"]:
            break
    if len(record["digests"]) > 1:
        record["failed"] = min(record["failed"] + 1, record["attempted"])
        record["failures"].append(
            f"{len(record['digests'])} different outputs from identical operations"
            " (traced and untraced, or repeats)"
        )

    result = {
        "backend": _backend(hcf),
        "times": record["times"],
        "traced_times": record["traced"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "failures": record["failures"],
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(spec["audio_s"])
        result["missing"] = tracer.missing
        result["spans"] = tracer.span_records()
    if "kept" in record:
        audio, indices = record["kept"]
        np.savez(spec["kept"], audio=audio, indices=indices)
    return result


def setup(spec, root):
    hcf = _import_hcf(root)
    failures = _warm_up(hcf, spec)
    return {"setup_s": time.perf_counter() - START, "attempted": 1,
            "failed": int(bool(failures)), "failures": failures,
            "backend": _backend(hcf)}


def main(argv):
    spec = json.loads(Path(argv[1]).read_text())
    root = Path(spec["root"])
    sys.path.insert(0, str(root / "src"))
    result = {"setup": setup, "workload": workload}[spec["mode"]](spec, root)
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
