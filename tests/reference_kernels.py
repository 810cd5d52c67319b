"""Scalar-loop reference kernels, the oracles for ``hcf._kernels``.

The comb and Viterbi loops add in the same order as the vectorized kernels,
so their parity tests in ``test_comb.py`` demand exact equality. The YIN
loop sums each window serially where numpy's dot product does not, so its
test allows a relative tolerance of 1e-9. Chunks are frame-major, and
``periods`` holds one period per weight row with 0 for the identity
(unvoiced) row.
"""

import numpy as np


def _comb_all_py(chunks, periods, taps, pad, frame):
    n_rows = periods.shape[0]
    n_frames = chunks.shape[0]
    m = (taps.shape[0] - 1) // 2
    out = np.zeros((n_rows, n_frames, frame))
    for i in range(n_rows):
        t_i = periods[i]
        if t_i == 0:
            for t in range(n_frames):
                for s in range(frame):
                    out[i, t, s] = chunks[t, pad + s]
            continue
        for t in range(n_frames):
            for k in range(-m, m + 1):
                w = taps[k + m]
                base = pad + k * t_i
                for s in range(frame):
                    out[i, t, s] += w * chunks[t, base + s]
    return out


def _comb_inference_py(chunks, sel_periods, taps, pad, frame):
    n_frames = chunks.shape[0]
    m = (taps.shape[0] - 1) // 2
    out = np.zeros((n_frames, frame))
    for t in range(n_frames):
        t_sel = sel_periods[t]
        if t_sel == 0:
            for s in range(frame):
                out[t, s] = chunks[t, pad + s]
            continue
        for k in range(-m, m + 1):
            w = taps[k + m]
            base = pad - k * t_sel
            for s in range(frame):
                out[t, s] += w * chunks[t, base + s]
    return out


def _yin_difference_py(x, w_len, tau_max):
    d = np.zeros(tau_max + 1)
    for tau in range(1, tau_max + 1):
        acc = 0.0
        for s in range(w_len):
            diff = x[s] - x[s + tau]
            acc += diff * diff
        d[tau] = acc
    return d


def _viterbi_py(emissions, transition, initial):
    n_states, n_frames = emissions.shape
    score = initial + emissions[:, 0]
    back = np.zeros((n_frames, n_states), dtype=np.int64)
    for t in range(1, n_frames):
        new = np.empty(n_states)
        for j in range(n_states):
            best = -np.inf
            arg = 0
            for i in range(n_states):
                v = score[i] + transition[i, j]
                if v > best:
                    best = v
                    arg = i
            new[j] = best + emissions[j, t]
            back[t, j] = arg
        score = new
    path = np.empty(n_frames, dtype=np.int64)
    best = -np.inf
    arg = 0
    for j in range(n_states):
        if score[j] > best:
            best = score[j]
            arg = j
    path[n_frames - 1] = arg
    for t in range(n_frames - 1, 0, -1):
        path[t - 1] = back[t, path[t]]
    return path
