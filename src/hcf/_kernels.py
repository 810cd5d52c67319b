"""Hot numerical loops, vectorized with numpy over the innermost axis.

Kernels work on frame-major arrays, one row per frame; callers transpose
at the API boundary. The comb kernels read rows that may be overlapping
strided views of one buffer as they are, without a copy. The scalar-loop
definitions these kernels are tested against live in ``tests/reference_kernels.py``.
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
    chunks_fm = np.asarray(chunks_fm, dtype=np.float64)
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
    chunks_fm = np.asarray(chunks_fm, dtype=np.float64)
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
    """Squared-difference curves d[..., 0..tau_max] over w_len-sample windows.

    d[tau] = sum_{s<w_len} (x[s] - x[s+tau])^2 for every row of ``x``, so a
    row needs at least ``w_len + tau_max`` samples. Computed as
    ``E_head + E_tau - 2 r(tau)`` from one cumulative energy sum and an FFT
    cross-correlation ``r`` of length ``w_len + tau_max``, where no lag
    wraps; rounding can leave tiny negatives, which are clamped to 0.
    """
    x = np.asarray(x, dtype=np.float64)
    n = w_len + tau_max
    if x.shape[-1] < n:
        raise ValueError(
            f"window of {x.shape[-1]} samples too short for "
            f"w_len={w_len}, tau_max={tau_max}"
        )
    x = x[..., :n]
    r = np.fft.irfft(np.conj(np.fft.rfft(x[..., :w_len], n)) * np.fft.rfft(x, n), n)
    energy = np.zeros(x.shape[:-1] + (n + 1,))
    np.cumsum(x * x, axis=-1, out=energy[..., 1:])
    lags = slice(0, tau_max + 1)
    d = energy[..., w_len:w_len + 1] + energy[..., w_len:] - energy[..., lags]
    d -= 2.0 * r[..., lags]
    np.maximum(d, 0.0, out=d)
    d[..., 0] = 0.0
    return d


# ---------------------------------------------------------------------------
# Viterbi max-path


def viterbi_core(emissions, transition, initial) -> np.ndarray:
    """Highest-scoring state path.

    ``emissions`` is (n_frames, n_states) log-probabilities, ``transition``
    (n_states, n_states) additive log-weights with ``transition[i, j]`` for a
    move i -> j, ``initial`` (n_states,) additive log-weights. Ties go to the
    lowest state index.
    """
    emissions = _as_f64c(emissions)
    initial = _as_f64c(initial)
    n_frames, n_states = emissions.shape
    into = _as_f64c(np.transpose(transition))  # row j: every move into j
    score = initial + emissions[0]
    back = np.zeros((n_frames, n_states), dtype=np.min_scalar_type(n_states - 1))
    states = np.arange(n_states)
    for t in range(1, n_frames):
        cand = into + score
        back[t] = np.argmax(cand, axis=1)
        score = cand[states, back[t]] + emissions[t]
    path = np.empty(n_frames, dtype=np.int64)
    path[n_frames - 1] = int(np.argmax(score))
    for t in range(n_frames - 1, 0, -1):
        path[t - 1] = back[t, path[t]]
    return path
