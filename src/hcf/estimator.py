"""Classical pitch tracking quantized onto the candidate grid.

A YIN-style detector scores every candidate period per frame and a Viterbi
pass smooths the per-frame scores into one track. This stands in for a
trained estimator: the posterior it emits has the same ``N+1`` layout a
model head would produce, so everything downstream is exercised unchanged.

Every analysis window gets a cumulative-mean-normalized difference function
d'(tau) for lags up to the longest candidate period. The windows, the estimator's
own framing, are scored one row per frame, together in :func:`hcf.helper.blocks`'
blocks, whose size changes no row. Candidate salience is ``max(0, 1 - d'(T_i))``;
the dip picked by the classic threshold rule (first lag under threshold, walked
to its local minimum, refined by parabolic interpolation) is nudged above all
other saliences so that pure tones resolve to the nearest grid index instead of
a subharmonic, whose multiple-of-T dip scores just as well. The unvoiced slot
scores ``min(1, min_tau d'(tau) / threshold)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .audio import AudioBuffer
from .framing import FrameConfig, windows
from .grid import F0Grid, F0Track, nearest_period_index, track_from_indices
from .helper import blocks, overlap

EMISSION_FLOOR = 1e-8
PRIOR_FLOOR = 1e-12

#: Relative bump applied to the threshold-rule pick; any value > 1 works,
#: it only has to beat equal-salience octave dips.
PICK_BUMP = 1.001

#: Bytes a posterior block's work may take, counted as four float64 rows of the
#: analysis window per frame (its windows, FFTs and energies); ``estimate_track``'s
#: blocks stay whole at the default 1536-sample window, 2 frames at f_min 0.1 Hz.
POSTERIOR_BYTES = 64 << 20


@dataclass(frozen=True)
class EstimatorConfig:
    yin_threshold: float = 0.15
    transition_width: float = 8.0
    voicing_prior: float = 0.5
    switch_cost: float = 2.0

    def __post_init__(self):
        if not 0.0 < self.yin_threshold < 1.0:
            raise ValueError("yin_threshold must be in (0, 1)")
        if not self.transition_width > 0.0:  # NaN fails too
            raise ValueError("transition_width must be positive")
        if not 0.0 <= self.voicing_prior <= 1.0:
            raise ValueError("voicing_prior must be in [0, 1]")
        if not self.switch_cost >= 0.0:
            raise ValueError("switch_cost must be nonnegative")


def analysis_window(grid: F0Grid) -> int:
    """Analysis window in samples: twice the longest period, so that YIN
    integrates over at least the longest lag it compares."""
    return 2 * int(grid.rounded_periods().max())


def yin_difference(x: np.ndarray, w_len: int, tau_max: int) -> np.ndarray:
    """Squared-difference curves d[..., 0..tau_max] over w_len-sample windows.

    d[tau] = sum_{s<w_len} (x[s] - x[s+tau])^2 for every row of ``x``, so a
    row needs at least ``w_len + tau_max`` samples. Computed as
    ``E_head + E_tau - 2 r(tau)`` from one cumulative energy sum and an FFT
    cross-correlation ``r`` of length ``w_len + tau_max``, where no lag
    wraps; rounding can leave tiny negatives, which are clamped to 0.
    """
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


def _cmndf(d: np.ndarray) -> np.ndarray:
    """Cumulative-mean-normalized difference per row; d'(0) = 1 by convention."""
    out = np.ones_like(d)
    sums = np.cumsum(d[:, 1:], axis=1)
    taus = np.arange(1, d.shape[1], dtype=np.float64)
    nonzero = sums > 0.0
    out[:, 1:] = np.where(nonzero, d[:, 1:] * taus / np.where(nonzero, sums, 1.0), 1.0)
    return out


def _threshold_pick(search: np.ndarray, threshold: float) -> np.ndarray:
    """Classic dip rule per row: first lag under threshold, walked to its local min.

    ``search`` holds d' over the candidate lags and every row has a lag
    under threshold; returns positions within ``search``.
    """
    first = np.argmax(search < threshold, axis=1)
    # the walk stops at the first lag from ``first`` on that does not descend
    stops = np.diff(search, axis=1, append=np.inf) >= 0.0
    stops &= np.arange(search.shape[1]) >= first[:, None]
    return np.argmax(stops, axis=1)


def _parabolic_refine(dprime: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """Vertex of the parabola through each row's dip (at lag >= 1) and its neighbors."""
    at = np.minimum(tau, dprime.shape[1] - 2)
    left, mid, right = (dprime[np.arange(dprime.shape[0]), at + k] for k in (-1, 0, 1))
    denom = left - 2.0 * mid + right
    bend = (tau == at) & (denom > 0.0)
    delta = 0.5 * (left - right) / np.where(bend, denom, 1.0)
    return tau + np.where(bend, np.clip(delta, -1.0, 1.0), 0.0)


def _posteriors(frames: np.ndarray, grid: F0Grid, cfg: EstimatorConfig) -> np.ndarray:
    """Posteriors over the ``N+1`` slots for each row of ``frames``.

    Rows are peak-normalized to 1. An all-zero row has d' = 1 at every lag,
    so it comes out as the unvoiced one-hot.
    """
    periods = grid.rounded_periods()
    t_max = int(periods.max())
    t_min = int(periods.min())
    d = yin_difference(frames, frames.shape[1] - t_max, t_max)
    dprime = _cmndf(d)

    posterior = np.zeros((frames.shape[0], grid.label_size))
    posterior[:, :grid.size] = np.maximum(0.0, 1.0 - dprime[:, periods])
    search = dprime[:, t_min:t_max + 1]
    dip_min = search.min(axis=1)
    dipped = np.nonzero(dip_min < cfg.yin_threshold)[0]
    # min(1, dip_min / threshold), divided only below it so a tiny threshold cannot overflow
    posterior[:, grid.unvoiced_index] = 1.0
    posterior[dipped, grid.unvoiced_index] = dip_min[dipped] / cfg.yin_threshold
    if dipped.size:
        tau = t_min + _threshold_pick(search[dipped], cfg.yin_threshold)
        refined = _parabolic_refine(dprime[dipped], tau)
        pick = nearest_period_index(grid, refined)
        bumped = posterior[dipped].max(axis=1) * PICK_BUMP
        posterior[dipped, pick] = np.maximum(posterior[dipped, pick], bumped)

    peak = posterior.max(axis=1)
    flat = peak <= 0.0
    posterior[~flat] /= peak[~flat, None]
    posterior[flat] = 0.0
    posterior[flat, grid.unvoiced_index] = 1.0
    return posterior


def transition_weights(grid_size: int, cfg: EstimatorConfig) -> np.ndarray:
    """Additive log-weights for state moves; state ``grid_size`` is unvoiced.

    Voiced-to-voiced moves cost ``(di)^2 / (2*width^2)``, switching voicing
    costs ``switch_cost``, staying put is free. Where ``2*width^2``
    underflows to 0 every move to another bin costs ``inf``; where it
    overflows every move is free.
    """
    n_states = grid_size + 1
    idx = np.arange(grid_size, dtype=np.float64)
    trans = np.zeros((n_states, n_states))
    voiced = trans[:grid_size, :grid_size]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        width2 = 2.0 * np.float64(cfg.transition_width) ** 2
        np.divide(-((idx[:, None] - idx[None, :]) ** 2), width2, out=voiced)
    np.fill_diagonal(voiced, -0.0)  # 0 / 0 where width2 underflowed
    trans[grid_size, :grid_size] = -cfg.switch_cost
    trans[:grid_size, grid_size] = -cfg.switch_cost
    return trans


class Decoder:
    """The Viterbi forward pass over ``n_frames`` frames, fed posterior blocks in order.

    Emissions are log posteriors clamped at 1e-8 so zero entries stay finite.
    A step where every move out of a voiced state scores below every move out
    of the unvoiced state U takes U as every state's predecessor without the
    dense add and argmax, with the same float operations, and settles the path
    up to the frame before: every survivor passes through U there (Forney's
    path merging). Each settled stretch is backtracked into ``indices``; the
    block holding the last frame settles the rest from the best final state.
    A decoder for no frames, or fed past its ``n_frames``, raises ``ValueError``.
    """

    def __init__(self, grid: F0Grid, cfg: EstimatorConfig, n_frames: int):
        if n_frames < 1:
            raise ValueError("no posterior frames to decode (empty input)")
        prior, n = cfg.voicing_prior, grid.label_size
        self._initial = np.empty(n)
        self._initial[:grid.size] = np.log(max(prior / grid.size, PRIOR_FLOOR))
        self._initial[grid.size] = np.log(max(1.0 - prior, PRIOR_FLOOR))
        self._into = transition_weights(grid.size, cfg).T.copy()  # row j: every move into j
        self._from_unvoiced = self._into[:, grid.size].copy()
        self.top = self._into[:, :grid.size].max()  # the best move out of a voiced state
        self._unvoiced = grid.size
        self._offsets = np.arange(n, dtype=np.intp) * n  # flat index of each row's start
        self._cand = np.empty((n, n))
        self._best, self._flat = np.empty((2, n), dtype=np.intp)
        self._score = None
        self.indices = np.empty(n_frames, dtype=np.int64)  # the track, final up to ``settled``
        self.frames = 0  # frames decoded
        self.settled = 0  # frames whose state is final
        self._backs = []  # backpointer rows of frames ``settled`` on

    def feed(self, block) -> int:
        """Decode a ``(n, N+1)`` block; return how many frames from the first are settled."""
        post = np.asarray(block, dtype=np.float64)
        n = self._unvoiced + 1
        if post.ndim != 2 or post.shape[1] != n:
            raise ValueError(f"posterior shape {post.shape} != (frames, grid label size {n})")
        if self._cand is None or self.frames + len(post) > len(self.indices):
            raise ValueError(f"decoder for {len(self.indices)} frames fed past the last one")
        emissions = np.log(np.maximum(post, EMISSION_FLOOR))
        u, top, score = self._unvoiced, self.top, self._score
        into, from_unvoiced, offsets = self._into, self._from_unvoiced, self._offsets
        cand, best, flat, stay = self._cand, self._best, self._flat, np.empty(n)
        back = np.full(emissions.shape, u, dtype=np.min_scalar_type(u))
        self._backs.extend(back)
        cut, first = None, 0
        if score is None and len(emissions):
            score, first = self._initial + emissions[0], 1
        for t in range(first, len(emissions)):
            np.add(from_unvoiced, score[u], out=stay)
            if top + score[:u].max() < stay.min():  # strict, so no state ties a voiced move
                np.add(stay, emissions[t], out=score)
                cut = t
                continue
            np.add(into, score, out=cand)
            np.argmax(cand, axis=1, out=best)  # ties go to the lowest state
            back[t] = best
            np.add(best, offsets, out=flat)
            np.take(cand, flat, out=stay)
            np.add(stay, emissions[t], out=score)
        self._score = score
        if self.frames + len(emissions) == len(self.indices):
            self._settle(len(self.indices), int(np.argmax(score)))
            self._into = self._cand = None  # the (N+1, N+1) work arrays
        elif cut is not None:
            self._settle(self.frames + cut, u)
        self.frames += len(emissions)
        return self.settled

    def _settle(self, stop: int, state: int) -> None:
        """Backtrack frames ``[settled, stop)`` into ``indices``, given the state at ``stop - 1``."""
        lo, path, backs = self.settled, self.indices, self._backs
        path[stop - 1] = state
        for t in range(stop - 1, lo, -1):
            path[t - 1] = backs[t - lo][path[t]]
        del backs[:stop - lo]
        self.settled = stop


def viterbi_track(posteriors, grid: F0Grid, cfg: EstimatorConfig) -> F0Track:
    """Smooth (n_frames, N+1) per-frame posteriors into the best state path.

    An input with no frames raises ``ValueError``. To decode posteriors block
    by block as they arrive, feed a :class:`Decoder`.
    """
    posteriors = np.atleast_2d(posteriors)
    decoder = Decoder(grid, cfg, len(posteriors))
    decoder.feed(posteriors)
    return track_from_indices(grid, decoder.indices)


def posterior_block(buffer: AudioBuffer, lo: int, n: int, grid: F0Grid, cfg: EstimatorConfig,
                    frame_cfg: FrameConfig) -> np.ndarray:
    """Posterior rows of the ``n`` frames from frame ``lo`` on, each analysis
    window zero-padded past the signal's ends; no row depends on ``n``."""
    hop, window = frame_cfg.hop_size, analysis_window(grid)
    first = lo * hop + (frame_cfg.frame_size - window) // 2
    return _posteriors(windows(buffer.samples, n, hop, first, window), grid, cfg)


def estimate_track(
    buffer: AudioBuffer,
    grid: F0Grid,
    cfg: EstimatorConfig = EstimatorConfig(),
    frame_cfg: FrameConfig = FrameConfig(),
) -> F0Track:
    """Track a signal: YIN posteriors for blocks of frames, then Viterbi.

    Analysis windows are centered on the pipeline frames (hop
    ``frame_cfg.hop_size``), so entry t lines up with frame t everywhere
    else in the pipeline. The posterior blocks, sized by ``POSTERIOR_BYTES``, run
    on this thread and one helper thread (see :func:`hcf.helper.overlap`); this
    thread alone decodes them, in frame order, and keeps none of them. An input
    with no frames raises ``ValueError``.
    """
    n_frames = frame_cfg.n_frames(len(buffer))
    decoder = Decoder(grid, cfg, n_frames)
    overlap(blocks(n_frames, POSTERIOR_BYTES // (4 * 8 * analysis_window(grid))),
            lambda lo, n: posterior_block(buffer, lo, n, grid, cfg, frame_cfg), decoder.feed)
    return track_from_indices(grid, decoder.indices)
