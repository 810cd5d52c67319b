"""Classical pitch tracking quantized onto the candidate grid.

A YIN-style detector scores every candidate period per frame and a Viterbi
pass smooths the per-frame scores into one track. This stands in for a
trained estimator: the posterior it emits has the same ``N+1`` layout a
model head would produce, so everything downstream is exercised unchanged.

Every analysis window gets a cumulative-mean-normalized difference function
d'(tau) for lags up to the longest candidate period; the windows are scored
together, one row per frame, in fixed-size blocks of frames. Candidate salience
is ``max(0, 1 - d'(T_i))``; the dip picked by the classic threshold rule
(first lag under threshold, walked to its local minimum, refined by
parabolic interpolation) is nudged above all other saliences so that pure
tones resolve to the nearest grid index instead of a subharmonic, whose
multiple-of-T dip scores just as well. The unvoiced slot scores
``min(1, min_tau d'(tau) / threshold)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .audio import AudioBuffer
from .framing import FrameConfig, windows
from .grid import F0Grid, F0Track, nearest_period_index, track_from_indices
from .helper import overlap

EMISSION_FLOOR = 1e-8
PRIOR_FLOOR = 1e-12

#: Relative bump applied to the threshold-rule pick; any value > 1 works,
#: it only has to beat equal-salience octave dips.
PICK_BUMP = 1.001

#: Frames per block in ``estimate_track``; bounds the transient arrays, and
#: the Viterbi pass decodes each block while the next one is computed. In
#: ``enhance`` a block's transients (about 5 MB at 128) sit beside a post-track
#: block's, so a larger block raises the peak memory.
BLOCK_FRAMES = 128


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
    posterior[:, grid.unvoiced_index] = np.minimum(1.0, dip_min / cfg.yin_threshold)

    dipped = np.nonzero(dip_min < cfg.yin_threshold)[0]
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
    costs ``switch_cost``, staying unvoiced is free.
    """
    n_states = grid_size + 1
    idx = np.arange(grid_size, dtype=np.float64)
    trans = np.zeros((n_states, n_states))
    width2 = 2.0 * cfg.transition_width ** 2
    trans[:grid_size, :grid_size] = -((idx[:, None] - idx[None, :]) ** 2) / width2
    trans[grid_size, :grid_size] = -cfg.switch_cost
    trans[:grid_size, grid_size] = -cfg.switch_cost
    return trans


class Decoder:
    """The Viterbi forward pass, fed posterior blocks in frame order.

    Emissions are log posteriors clamped at 1e-8 so zero entries stay finite.
    A step where every move out of a voiced state scores below every move out
    of the unvoiced state U takes U as every state's predecessor without the
    dense add and argmax, with the same float operations, and settles the path
    up to the frame before: every survivor passes through U there (Forney's
    path merging). :meth:`feed` and :meth:`finish` return the newly settled
    stretch of the path, so the pieces joined are the whole best path.
    """

    def __init__(self, grid: F0Grid, cfg: EstimatorConfig):
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
        self.frames = 0  # frames decoded
        self.settled = 0  # frames whose state is final and returned
        self._backs = []  # (first frame, backpointer rows) from frame ``settled`` on

    def feed(self, block) -> np.ndarray:
        """Decode a ``(n, N+1)`` block; return the path over the frames it settled."""
        post = np.atleast_2d(np.asarray(block, dtype=np.float64))
        n = len(self._into)
        if post.shape[1] != n:
            raise ValueError(f"posterior dimension {post.shape[1]} != grid label size {n}")
        emissions = np.log(np.maximum(post, EMISSION_FLOOR))
        u, top, score = self._unvoiced, self.top, self._score
        into, from_unvoiced, offsets = self._into, self._from_unvoiced, self._offsets
        cand, best, flat, stay = self._cand, self._best, self._flat, np.empty(n)
        back = np.full(emissions.shape, u, dtype=np.min_scalar_type(u))
        self._backs.append((self.frames, back))
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
        stop = self.settled if cut is None else self.frames + cut
        self.frames += len(emissions)
        return self._settle(stop, u)

    def finish(self) -> np.ndarray:
        """Settle the rest of the path; raises ``ValueError`` if no frame was fed."""
        if self._score is None:
            raise ValueError("viterbi_track got no posterior frames to decode (empty input)")
        return self._settle(self.frames, int(np.argmax(self._score)))

    def _settle(self, stop: int, state: int) -> np.ndarray:
        """The path over frames ``[settled, stop)``, given its state at ``stop - 1``."""
        lo = self.settled
        path = np.empty(stop - lo, dtype=np.int64)
        if not path.size:
            return path
        back = np.concatenate([b[max(lo - first, 0):] for first, b in self._backs])
        path[-1] = state
        for t in range(stop - 1, lo, -1):
            path[t - lo - 1] = back[t - lo, path[t - lo]]
        self._backs = [(stop, back[stop - lo:])]
        self.settled = stop
        return path


def viterbi_track(posteriors, grid: F0Grid, cfg: EstimatorConfig) -> F0Track:
    """Smooth (n_frames, N+1) per-frame posteriors into the best state path.

    An input with no frames raises ``ValueError``. To decode posteriors block
    by block as they arrive, feed a :class:`Decoder`.
    """
    decoder = Decoder(grid, cfg)
    return track_from_indices(grid, np.concatenate([decoder.feed(posteriors), decoder.finish()]))


class TrackEstimate:
    """:func:`estimate_track` as two chains of blocks, for a caller to overlap.

    ``posterior_block(lo)`` returns new posterior rows for the block of frames
    starting at ``lo``, for each of ``starts``; ``decode``, fed those rows in
    order, writes the newly settled frames of the track into ``indices`` and
    returns how many frames from the first are settled (all of them after the
    last block).
    """

    def __init__(self, buffer: AudioBuffer, grid: F0Grid, cfg: EstimatorConfig,
                 frame_cfg: FrameConfig):
        self._x, self._hop = buffer.samples, frame_cfg.hop_size
        self._window = analysis_window(grid)
        self._offset = (frame_cfg.frame_size - self._window) // 2
        n_frames = frame_cfg.n_frames(self._x.shape[0])
        self._grid, self._cfg = grid, cfg
        self._decoder = Decoder(grid, cfg)
        self.starts = range(0, n_frames, BLOCK_FRAMES)
        self.indices = np.empty(n_frames, dtype=np.int64)

    def posterior_block(self, lo: int) -> np.ndarray:
        n = min(BLOCK_FRAMES, len(self.indices) - lo)
        # the block's windows, zero-padded past the signal's ends like the whole track's
        frames = windows(self._x, n, self._hop, lo * self._hop + self._offset, self._window)
        return _posteriors(frames, self._grid, self._cfg)

    def decode(self, rows: np.ndarray) -> int:
        decoder, lo = self._decoder, self._decoder.settled
        piece = decoder.feed(rows)
        if decoder.frames == len(self.indices):
            piece = np.concatenate([piece, decoder.finish()])
            self._decoder = None  # its (N+1, N+1) work arrays are not needed past the last block
        self.indices[lo:decoder.settled] = piece
        return decoder.settled

    def track(self) -> F0Track:
        return track_from_indices(self._grid, self.indices)


def estimate_track(
    buffer: AudioBuffer,
    grid: F0Grid,
    cfg: EstimatorConfig = EstimatorConfig(),
    frame_cfg: FrameConfig = FrameConfig(),
):
    """Track a signal: YIN posteriors for blocks of frames, then Viterbi.

    Analysis windows are centered on the pipeline frames (hop
    ``frame_cfg.hop_size``), so entry t lines up with frame t everywhere
    else in the pipeline. A helper thread computes the posterior blocks while
    this one decodes the blocks already done. Returns ``(track, posteriors)``
    with posteriors shaped (n_frames, N+1), joined from the decoded blocks.
    """
    est, blocks = TrackEstimate(buffer, grid, cfg, frame_cfg), []

    def decode(rows):
        blocks.append(rows)
        return est.decode(rows)

    overlap(est.starts, est.posterior_block, decode)
    return est.track(), np.concatenate(blocks)
