"""End-to-end enhancement: comb filtering, spectral blending, resynthesis.

The output spectrum per bin is ``(R^gamma * Y_cf + (1 - R^gamma) * Y) * G``
where ``Y`` is the noisy spectrum, ``Y_cf`` the comb-filtered one, ``R`` the
per-bin filtering strength, ``G`` the interpolated sub-band gain, and
``gamma`` an optional rescaling exponent (0.5 pushes weights toward the
filtered path; 1 leaves them untouched). Every stage after the pitch track
takes a frame range ``(lo, n)``, one of :func:`hcf.helper.overlap`'s blocks.

Strength and gain come from one of two sources, as a trained model would
predict both: a clean reference, from which the oracles compute them
(least-squares strength, ratio-mask gain), or both maps given, each a
scalar that broadcasts or an array used as-is. The given maps are the
integration point for a trained model's outputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .audio import AudioBuffer
from .comb import CombFilterBank, MacCounter, _check_track, build_bank, filter_inference
from .errors import ShapeError
from .estimator import EstimatorConfig, estimate_track
from .framing import FrameConfig, OverlapAdd, stft, windows
from .grid import F0Grid, F0Track
from .helper import overlap
from .mel import MelFilterbank, build_mel_filterbank, mel_energies

NOISE_EPS = 1e-12
STRENGTH_EPS = 1e-12

Provider = Union[float, np.ndarray]


@dataclass(frozen=True)
class BlendConfig:
    """Blend rescaling exponent gamma; 1.0 = plain strength weighting."""

    exponent: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.exponent < np.inf:  # NaN fails too
            raise ValueError("exponent must be positive and finite")


@dataclass
class EnhanceResult:
    """The output and the track and maps that made it; no pitch posteriors are kept."""

    audio: AudioBuffer
    track: F0Track
    #: The clipped strength the blend used, stored as float32.
    strength: np.ndarray
    #: The given gain map as passed, or the oracle's stored as float32.
    gain: np.ndarray
    #: Samples of context the pipeline needs past a frame's first sample:
    #: one frame plus the comb filter's forward reach (M * T_max).
    latency_samples: int


def oracle_gain(noisy_spec, clean_spec, fb: MelFilterbank) -> np.ndarray:
    """Ratio-mask gain from a clean reference, smoothed over mel bands.

    Band noise energy is estimated as ``max(E_noisy - E_clean, 0)``; the
    per-band mask ``sqrt(E_clean / (E_clean + E_noise))`` is interpolated
    back to bins by the filterbank's transposed weights, whose rows sum to 1.
    """
    if noisy_spec.shape != clean_spec.shape:
        raise ShapeError(f"spectra differ: {noisy_spec.shape} vs {clean_spec.shape}")
    e_clean = mel_energies(clean_spec, fb)
    e_noisy = mel_energies(noisy_spec, fb)
    e_noise = np.maximum(e_noisy - e_clean, 0.0) + NOISE_EPS
    g_band = np.sqrt(e_clean / (e_clean + e_noise))
    return np.clip(fb.weights.T @ g_band, 0.0, 1.0)


def oracle_strength(noisy_spec, filtered_spec, clean_spec) -> np.ndarray:
    """Least-squares blend weight toward the filtered spectrum, in [0, 1].

    Per bin, minimizes ``|r*Y_cf + (1-r)*Y - S|^2``; bins the filter leaves
    untouched (denominator under 1e-12) get 0.
    """
    if not (noisy_spec.shape == filtered_spec.shape == clean_spec.shape):
        raise ShapeError(
            f"spectra differ: {noisy_spec.shape}, {filtered_spec.shape}, {clean_spec.shape}"
        )
    delta = filtered_spec - noisy_spec
    num = np.real((clean_spec - noisy_spec) * np.conj(delta))
    den = np.abs(delta) ** 2
    strength = np.zeros(num.shape)
    usable = den >= STRENGTH_EPS
    strength[usable] = num[usable] / den[usable]
    return np.clip(strength, 0.0, 1.0)


def blend(noisy_spec, filtered_spec, strength, gain, cfg: BlendConfig = BlendConfig()):
    """Strength-weighted mix of filtered and unfiltered spectra, then gain."""
    shape = noisy_spec.shape
    for name, arr in (("filtered", filtered_spec), ("strength", strength), ("gain", gain)):
        if arr.shape != shape:
            raise ShapeError(f"{name} shape {arr.shape} != spectrum shape {shape}")
    weight = strength ** cfg.exponent
    return (weight * filtered_spec + (1.0 - weight) * noisy_spec) * gain


def _resolve_map(value: Provider, name: str, shape) -> np.ndarray:
    """The given map, uncopied; a scalar broadcasts."""
    arr = np.asarray(value)
    if arr.dtype.kind not in "biuf":
        raise ValueError(f"{name} map must be a number or a numeric array, got {arr.dtype}")
    arr = arr if arr.dtype.kind == "f" else arr.astype(np.float64)
    arr = np.broadcast_to(arr, shape) if arr.ndim == 0 else arr
    if arr.shape != shape:
        raise ShapeError(f"{name} map shape {arr.shape} != expected {shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} map contains non-finite entries")
    return arr


def enhance(
    noisy: AudioBuffer,
    clean: Optional[AudioBuffer] = None,
    track: Optional[F0Track] = None,
    gain: Optional[Provider] = None,
    strength: Optional[Provider] = None,
    frame_cfg: FrameConfig = FrameConfig(),
    blend_cfg: BlendConfig = BlendConfig(),
    est_cfg: EstimatorConfig = EstimatorConfig(),
    grid: Optional[F0Grid] = None,
    bank: Optional[CombFilterBank] = None,
    counter: Optional[MacCounter] = None,
) -> EnhanceResult:
    """Run the whole pipeline on one buffer.

    ``track=None`` estimates the pitch track internally; otherwise the given
    track must have one entry per frame. The maps come from one source:
    ``clean``, of the same length, for the oracle gain and strength, or both
    ``gain`` and ``strength``; any other mix raises ``ValueError``. Output
    length equals input length.

    The comb bank owns the grid and the chunk context ``bank.pad``: with
    only ``grid`` given the bank is built from it, otherwise the pipeline
    runs on ``bank.grid`` (the default grid when neither is given), and a
    ``grid`` that differs from ``bank.grid`` is rejected.

    Blocks of work run on this thread and one helper thread (see
    :func:`hcf.helper.overlap`). With no track given, a first phase is one
    call of :func:`hcf.estimator.estimate_track`, whose helper is joined
    before the next phase starts; no posteriors are kept. Then every stage
    after the track runs on ``overlap``'s blocks of frames, on either
    thread, while this thread alone overlap-adds them in order, so memory
    beyond the input, output and maps is bounded. The results are those of
    one pass over the whole buffer, whichever thread ran a block.
    A frame whose given strength is 0 in every bin skips the comb, like an
    unvoiced frame.
    """
    if bank is None:
        bank = build_bank(grid if grid is not None else F0Grid())
    if grid is not None and grid != bank.grid:
        raise ShapeError(f"grid {grid} differs from the comb bank's grid {bank.grid}")
    grid = bank.grid

    oracle = clean is not None and gain is None and strength is None
    if not oracle and (clean is not None or gain is None or strength is None):
        raise ValueError("give one map source: clean (oracle gain and strength) "
                         "or both gain and strength")
    if oracle and len(clean) != len(noisy):
        raise ShapeError("clean reference must match the noisy buffer exactly")

    hop, size, pad = frame_cfg.hop_size, frame_cfg.frame_size, bank.pad
    n_frames = frame_cfg.n_frames(len(noisy))

    if track is not None:
        _check_track(track, n_frames, grid.label_size)

    shape = (frame_cfg.n_bins, n_frames)
    if oracle:
        fb = build_mel_filterbank(cfg=frame_cfg)
        gain_map = np.empty(shape, np.float32)
    else:
        gain_map = _resolve_map(gain, "gain", shape)
        if np.any(gain_map < 0):
            raise ValueError("gain map must be nonnegative")
        given_strength = _resolve_map(strength, "strength", shape)
    strength_map = np.empty(shape, np.float32)

    if track is None:
        track = estimate_track(noisy, grid, est_cfg, frame_cfg)
    indices = track.indices

    def run_block(lo, n):
        """Output spectrum and comb MACs of the ``n`` frames from ``lo`` on;
        writes only their own map columns.

        The block's chunks and frames are strided views of a padded copy of
        its own span of the signal, never of the whole signal.
        """
        cols = slice(lo, lo + n)
        v = indices[cols] != grid.unvoiced_index
        chunks = windows(noisy.samples, n, hop, lo * hop - pad, size + 2 * pad).T
        noisy_spec = stft(chunks[pad:pad + size])
        block_strength = np.zeros(noisy_spec.shape)
        combed = v
        if not oracle:
            np.clip(given_strength[:, cols], 0.0, 1.0, out=block_strength)
            block_strength[:, ~v] = 0.0
            combed = v & block_strength.any(axis=0)
        combed_track = F0Track(np.where(combed, indices[cols], grid.unvoiced_index))
        macs = MacCounter()
        filtered = filter_inference(bank, chunks, combed_track, macs)
        # only combed frames reach the strength and the blend; every other
        # frame has strength 0, so its blend is the noisy spectrum times the gain
        combed_spec = noisy_spec[:, combed]
        filtered_spec = stft(filtered[:, combed])
        if oracle:
            clean_spec = stft(windows(clean.samples, n, hop, lo * hop, size).T)
            block_strength[:, combed] = oracle_strength(
                combed_spec, filtered_spec, clean_spec[:, combed]
            )
            gain_map[:, cols] = block_gain = oracle_gain(noisy_spec, clean_spec, fb)
        else:
            block_gain = gain_map[:, cols]
        strength_map[:, cols] = block_strength
        # frame-contiguous, as OverlapAdd's inverse FFT and overlap-add read it
        out = np.multiply(noisy_spec, block_gain, order="F")
        out[:, combed] = blend(combed_spec, filtered_spec, block_strength[:, combed],
                               block_gain[:, combed], blend_cfg)
        return out, macs.inference

    ola = OverlapAdd(frame_cfg, len(noisy))

    def emit(result):
        spec, macs = result
        ola.add(spec)
        if counter is not None:
            counter.inference += macs

    overlap(n_frames, run_block, emit)

    return EnhanceResult(
        audio=ola.finish(),
        track=track,
        strength=strength_map,
        gain=gain_map,
        latency_samples=frame_cfg.frame_size + bank.pad,
    )
