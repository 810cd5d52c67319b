"""Hot numerical loops, vectorized with numpy over the innermost axis.

Kernels work on frame-major arrays (one contiguous row per frame) so each
slice walks memory linearly; callers transpose at the API boundary. The
scalar-loop definitions these kernels are tested against live in
``tests/reference_kernels.py``.
"""

from __future__ import annotations

import numpy as np


def _as_f64c(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64)


# ---------------------------------------------------------------------------
# comb filtering
#
# chunks: (n_frames, frame + 2*pad), row t padded with pad samples each side.
# The reference route cross-correlates with the bank's weight rows (taps at
# +k*T); the inference route slices at -k*T. The two coincide for symmetric
# taps, which the equivalence tests rely on.


def comb_all(chunks_fm, rows) -> np.ndarray:
    """Cross-correlate every frame with every weight row, valid positions only.

    ``rows`` is (n_rows, 2*pad + 1), the bank's dense weight matrix; the work
    is one accumulation per nonzero weight. Returns (n_rows, n_frames, frame).
    """
    chunks_fm = _as_f64c(chunks_fm)
    rows = np.asarray(rows, dtype=np.float64)
    frame = chunks_fm.shape[1] - rows.shape[1] + 1
    out = np.zeros((rows.shape[0], chunks_fm.shape[0], frame))
    for i, j in zip(*np.nonzero(rows)):
        out[i] += rows[i, j] * chunks_fm[:, j:j + frame]
    return out


def comb_inference(chunks_fm, sel_periods, taps, pad: int, frame: int) -> np.ndarray:
    """Filter each frame with its selected period only, -kT orientation.

    A period of 0 marks an unvoiced frame, whose center slice is copied
    through untouched. Returns (n_frames, frame)."""
    chunks_fm = _as_f64c(chunks_fm)
    n_frames = chunks_fm.shape[0]
    m = (len(taps) - 1) // 2
    out = np.zeros((n_frames, frame))
    for t in range(n_frames):
        t_sel = int(sel_periods[t])
        if t_sel == 0:
            out[t] = chunks_fm[t, pad:pad + frame]
            continue
        row = out[t]
        for k in range(-m, m + 1):
            base = pad - k * t_sel
            row += taps[k + m] * chunks_fm[t, base:base + frame]
    return out


# ---------------------------------------------------------------------------
# YIN difference function


def yin_difference(x, w_len: int, tau_max: int) -> np.ndarray:
    """Squared-difference curve d[0..tau_max] over a w_len-sample window.

    d[tau] = sum_{s<w_len} (x[s] - x[s+tau])^2, so ``x`` needs at least
    ``w_len + tau_max`` samples.
    """
    x = _as_f64c(x)
    if x.shape[0] < w_len + tau_max:
        raise ValueError(
            f"window of {x.shape[0]} samples too short for "
            f"w_len={w_len}, tau_max={tau_max}"
        )
    d = np.zeros(tau_max + 1)
    head = x[:w_len]
    for tau in range(1, tau_max + 1):
        diff = head - x[tau:tau + w_len]
        d[tau] = np.dot(diff, diff)
    return d


# ---------------------------------------------------------------------------
# Viterbi max-path


def viterbi_core(emissions, transition, initial) -> np.ndarray:
    """Highest-scoring state path.

    ``emissions`` is (n_states, n_frames) log-probabilities, ``transition``
    (n_states, n_states) additive log-weights with ``transition[i, j]`` for a
    move i -> j, ``initial`` (n_states,) additive log-weights. Ties go to the
    lowest state index.
    """
    emissions = _as_f64c(emissions)
    transition = _as_f64c(transition)
    initial = _as_f64c(initial)
    n_states, n_frames = emissions.shape
    score = initial + emissions[:, 0]
    back = np.zeros((n_frames, n_states), dtype=np.int64)
    for t in range(1, n_frames):
        cand = score[:, None] + transition
        back[t] = np.argmax(cand, axis=0)
        score = cand[back[t], np.arange(n_states)] + emissions[:, t]
    path = np.empty(n_frames, dtype=np.int64)
    path[n_frames - 1] = int(np.argmax(score))
    for t in range(n_frames - 1, 0, -1):
        path[t - 1] = back[t, path[t]]
    return path
