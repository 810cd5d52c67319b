"""Scalar-loop reference kernels, the oracles for the pipeline's numpy loops.

``_comb_all_py`` checks ``comb.filter_all_candidates``, ``_comb_inference_py``
``comb.filter_inference``, ``_yin_difference_py`` ``estimator.yin_difference``
and ``_viterbi_py`` the max-path loop in ``estimator.viterbi_track``. The comb
and Viterbi loops add in the same order as the numpy ones, so their parity
tests in ``test_comb.py`` demand exact equality. The YIN loop sums each window
serially where numpy's dot product does not, so its test allows a relative
tolerance of 1e-9. Chunks here are frame-major, the transpose of the
pipeline's samples-by-frames layout, and ``periods`` holds one period per
weight row with 0 for the identity (unvoiced) row.

``_yin_posterior_py`` and ``_track_posteriors_py`` are the one-window-at-a-
time pitch posterior, the oracle for the batched one in ``hcf.estimator``.
"""

import numpy as np

from hcf.estimator import PICK_BUMP
from hcf.grid import nearest_period_index


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


def _cmndf_py(d):
    out = np.ones_like(d)
    sums = np.cumsum(d[1:])
    taus = np.arange(1, d.shape[0], dtype=np.float64)
    nonzero = sums > 0.0
    out[1:][nonzero] = d[1:][nonzero] * taus[nonzero] / sums[nonzero]
    return out


def _threshold_pick_py(dprime, t_min, t_max, threshold):
    below = np.nonzero(dprime[t_min:t_max + 1] < threshold)[0]
    if below.size:
        tau = t_min + int(below[0])
        while tau + 1 <= t_max and dprime[tau + 1] < dprime[tau]:
            tau += 1
        return tau
    return t_min + int(np.argmin(dprime[t_min:t_max + 1]))


def _parabolic_refine_py(dprime, tau):
    if tau <= 0 or tau >= dprime.shape[0] - 1:
        return float(tau)
    left, mid, right = dprime[tau - 1], dprime[tau], dprime[tau + 1]
    denom = left - 2.0 * mid + right
    if denom <= 0.0:
        return float(tau)
    delta = 0.5 * (left - right) / denom
    return tau + float(np.clip(delta, -1.0, 1.0))


def _yin_posterior_py(x, grid, cfg):
    """Posterior over the N+1 slots for one analysis window."""
    periods = grid.rounded_periods()
    t_max = int(periods.max())
    t_min = int(periods.min())
    posterior = np.zeros(grid.label_size)
    if not np.any(x):
        posterior[grid.unvoiced_index] = 1.0
        return posterior

    w_len = x.shape[0] - t_max
    d = np.zeros(t_max + 1)
    for tau in range(1, t_max + 1):
        diff = x[:w_len] - x[tau:tau + w_len]
        d[tau] = np.dot(diff, diff)
    dprime = _cmndf_py(d)

    posterior[:grid.size] = np.maximum(0.0, 1.0 - dprime[periods])
    dip_min = float(dprime[t_min:t_max + 1].min())
    posterior[grid.unvoiced_index] = min(1.0, dip_min / cfg.yin_threshold)
    if dip_min < cfg.yin_threshold:
        tau = _threshold_pick_py(dprime, t_min, t_max, cfg.yin_threshold)
        pick = nearest_period_index(grid, _parabolic_refine_py(dprime, tau))
        posterior[pick] = max(posterior[pick], posterior.max() * PICK_BUMP)

    peak = posterior.max()
    if peak <= 0.0:
        posterior[:] = 0.0
        posterior[grid.unvoiced_index] = 1.0
        return posterior
    return posterior / peak


def _track_posteriors_py(x, grid, cfg, frame_cfg):
    """Per-frame posteriors, each window copied out of the zero-extended signal."""
    window = cfg.analysis_window(grid)
    offset = (frame_cfg.frame_size - window) // 2
    n_frames = frame_cfg.n_frames(x.shape[0])
    posteriors = np.empty((n_frames, grid.label_size))
    for t in range(n_frames):
        start = t * frame_cfg.hop_size + offset
        buf = np.zeros(window)
        lo, hi = max(start, 0), min(start + window, x.shape[0])
        if hi > lo:
            buf[lo - start:hi - start] = x[lo:hi]
        posteriors[t] = _yin_posterior_py(buf, grid, cfg)
    return posteriors
