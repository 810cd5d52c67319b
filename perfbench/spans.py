"""Outside-in tracer for hcf: wraps module-level functions, records spans.

hcf's modules call each other through module globals (``from .framing
import stft``) or module attributes (``_kernels.yin_difference``), both
looked up at call time. Replacing every global that is bound to a
boundary function, in every loaded ``hcf`` module, therefore routes all
calls through a wrapper without touching the package. The wrappers only
time and count; arguments and results pass through unchanged, so traced
output is bit-identical to untraced output (the worker checks this).

A boundary that a later version of hcf no longer has is listed in
``missing`` and reports zero, instead of failing the run.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import sys
import time

import numpy as np

#: ``<module>.<function>`` under ``hcf``, outermost layers first. Metric
#: names drop the leading underscore (``kernels.comb_all.calls``), because
#: a metric name must start with a letter or digit.
BOUNDARIES = (
    "cli.main",
    "audio.read_wav",
    "audio.write_wav",
    "grid.read_track",
    "matrixio.read_matrix",
    "enhance.enhance",
    "enhance.oracle_gain",
    "enhance.oracle_strength",
    "enhance.blend",
    "estimator.estimate_track",
    "estimator.yin_frame",
    "estimator.viterbi_track",
    "mel.build_mel_filterbank",
    "mel.mel_energies",
    "framing.frame_signal",
    "framing.chunk_signal",
    "framing.stft",
    "framing.istft_overlap_add",
    "comb.filter_inference",
    "comb.filter_all_candidates",
    "comb.select_candidate",
    "_kernels.yin_difference",
    "_kernels.viterbi_core",
    "_kernels.comb_inference",
    "_kernels.comb_all",
)

#: Per-boundary statistics: (suffix, unit, better).
STATS = (
    ("calls", "count", "lower"),
    ("ms_per_audio_s", "ms/audio_s", "lower"),
    ("self_ms_per_audio_s", "ms/audio_s", "lower"),
    ("out_mb", "MB", "lower"),
)


# Multiply-adds of the direct algorithm, from the kernel's arguments. They
# are computed, not measured: a kernel that does the same job with fewer
# operations still reports these.
def _yin_ops(x, w_len, tau_max, *_):
    return int(w_len) * int(tau_max)


def _viterbi_ops(emissions, *_):
    n_states, n_frames = np.shape(emissions)
    return n_states * n_states * max(n_frames - 1, 0)


def _comb_inference_ops(chunks, sel_periods, taps, pad, frame, *_):
    return int(np.count_nonzero(sel_periods)) * len(taps) * int(frame)


def _comb_all_ops(chunks, periods, taps, pad, frame, *_):
    return int(np.count_nonzero(periods)) * len(taps) * int(frame) * np.shape(chunks)[0]


KERNEL_OPS = {
    "_kernels.yin_difference": _yin_ops,
    "_kernels.viterbi_core": _viterbi_ops,
    "_kernels.comb_inference": _comb_inference_ops,
    "_kernels.comb_all": _comb_all_ops,
}

_COUNTED_ROUTES = ("comb.filter_inference", "comb.filter_all_candidates")


def _metric(qual: str) -> str:
    return qual.lstrip("_")


#: Counts recorded beside the spans, with their units and direction.
COUNTS = (
    ("comb.macs.inference", "count", "lower"),
    ("comb.macs.parallel", "count", "lower"),
    ("comb.voiced_frac", "frac", "higher"),
    *(
        (f"{_metric(name)}.{stat}", unit, "lower")
        for name in KERNEL_OPS
        for stat, unit in (("computed_ops", "count"), ("computed_mb", "MB"))
    ),
    ("trace.overhead_frac", "frac", "lower"),
)


def metric_specs():
    """Every per-layer metric as (name, unit, better), in report order."""
    specs = [(f"{_metric(b)}.{s}", unit, better) for b in BOUNDARIES for s, unit, better in STATS]
    return specs + list(COUNTS)


def _nbytes(obj, depth=0) -> int:
    """Bytes of the arrays in a result: arrays, tuples and dataclasses."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if depth > 3:
        return 0
    if isinstance(obj, (tuple, list)):
        return sum(_nbytes(o, depth + 1) for o in obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return sum(_nbytes(getattr(obj, f.name), depth + 1) for f in dataclasses.fields(obj))
    return 0


class Tracer:
    """Spans (name, parent, start, end, op) kept in memory until written."""

    def __init__(self):
        self.spans = []
        self.ops = 0
        self.missing = []
        self.kernel_ops = dict.fromkeys(KERNEL_OPS, 0)
        self.kernel_bytes = dict.fromkeys(KERNEL_OPS, 0)
        self.comb_frames = 0
        self.comb_voiced = 0
        self._stack = []
        self._patches = []
        hcf = importlib.import_module("hcf")
        counter_cls = getattr(hcf, "MacCounter", None)
        self.macs = counter_cls() if counter_cls is not None else None

    # -- installation ------------------------------------------------------

    def __enter__(self):
        self.ops += 1
        self.missing = []
        for qual in BOUNDARIES:
            mod_name, func_name = qual.rsplit(".", 1)
            try:
                # sys.modules, not attribute access: ``hcf.enhance`` is the
                # re-exported function, not the module.
                module = importlib.import_module(f"hcf.{mod_name}")
            except ImportError:
                self.missing.append(qual)
                continue
            original = getattr(module, func_name, None)
            if not callable(original):
                self.missing.append(qual)
                continue
            wrapper = self._wrap(qual, original)
            for mod in [m for n, m in sys.modules.items() if n == "hcf" or n.startswith("hcf.")]:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapper)
                        self._patches.append((mod, name, original))
        return self

    def __exit__(self, *exc):
        for mod, name, original in reversed(self._patches):
            setattr(mod, name, original)
        self._patches = []
        return False

    # -- recording ---------------------------------------------------------

    def _wrap(self, qual, fn):
        ops_of = KERNEL_OPS.get(qual)
        sig = None
        if qual in _COUNTED_ROUTES:
            try:
                sig = inspect.signature(fn)
            except (TypeError, ValueError):
                sig = None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if sig is not None:
                args, kwargs = self._count_route(qual, sig, args, kwargs)
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [qual, parent, time.perf_counter(), 0.0, self.ops, 0]
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()
            span[5] = _nbytes(result)
            if ops_of is not None:
                self._count_kernel(qual, ops_of, args, result)
            return result

        return wrapper

    def _count_route(self, qual, sig, args, kwargs):
        """Hand the route a MacCounter when the caller gave none."""
        try:
            bound = sig.bind(*args, **kwargs)
        except TypeError:
            return args, kwargs
        if self.macs is not None and "counter" in sig.parameters:
            if bound.arguments.get("counter") is None:
                bound.arguments["counter"] = self.macs
        if qual == "comb.filter_inference":
            try:
                voiced = bound.arguments["track"].voiced_mask(bound.arguments["bank"].grid)
                self.comb_voiced += int(np.count_nonzero(voiced))
                self.comb_frames += int(np.size(voiced))
            except (KeyError, AttributeError):
                pass
        return bound.args, bound.kwargs

    def _count_kernel(self, qual, ops_of, args, result):
        try:
            self.kernel_ops[qual] += ops_of(*args)
        except (TypeError, ValueError, IndexError):
            pass
        arrays = [a for a in args if isinstance(a, np.ndarray)]
        self.kernel_bytes[qual] += sum(a.nbytes for a in arrays) + _nbytes(result)

    # -- reporting ---------------------------------------------------------

    def self_times(self):
        """Each span's duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for _name, parent, start, end, _op, _out in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [s[3] - s[2] - c for s, c in zip(self.spans, child)]

    def layer_metrics(self, audio_s: float) -> dict:
        """Per-layer metrics, averaged over the traced operations."""
        n = max(self.ops, 1)
        scale = 1000.0 / (n * audio_s)
        calls = dict.fromkeys(BOUNDARIES, 0)
        total = dict.fromkeys(BOUNDARIES, 0.0)
        own = dict.fromkeys(BOUNDARIES, 0.0)
        out = dict.fromkeys(BOUNDARIES, 0)
        for span, self_s in zip(self.spans, self.self_times()):
            name = span[0]
            calls[name] += 1
            total[name] += span[3] - span[2]
            own[name] += self_s
            out[name] += span[5]
        metrics = {}
        for b in BOUNDARIES:
            m = _metric(b)
            metrics[f"{m}.calls"] = calls[b] / n
            metrics[f"{m}.ms_per_audio_s"] = total[b] * scale
            metrics[f"{m}.self_ms_per_audio_s"] = own[b] * scale
            metrics[f"{m}.out_mb"] = out[b] / n / 1e6
        metrics["comb.macs.inference"] = (self.macs.inference / n) if self.macs else 0
        metrics["comb.macs.parallel"] = (self.macs.parallel / n) if self.macs else 0
        metrics["comb.voiced_frac"] = self.comb_voiced / self.comb_frames if self.comb_frames else 0.0
        for k in KERNEL_OPS:
            metrics[f"{_metric(k)}.computed_ops"] = self.kernel_ops[k] / n
            metrics[f"{_metric(k)}.computed_mb"] = self.kernel_bytes[k] / n / 1e6
        return metrics

    def span_records(self):
        t0 = self.spans[0][2] if self.spans else 0.0
        return [
            {"name": s[0], "parent": s[1], "op": s[4],
             "start_ms": (s[2] - t0) * 1e3, "end_ms": (s[3] - t0) * 1e3, "out_bytes": s[5]}
            for s in self.spans
        ]
