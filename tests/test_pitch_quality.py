"""Pitch quality by noise colour: how well ``estimate_track`` tracks a seeded,
speech-like signal in white, pink and brown noise, gated by floors.

The clean signal is a gliding harmonic complex (f0 between 80 and 300 Hz,
harmonics to 4 kHz at 1/k amplitude) gated into syllables and gaps, about
60% voiced. Its quarters carry noise at 20, 10, 5 and 0 dB SNR. Each noise
is seeded white noise shaped in the spectrum: white as it is, pink at
amplitude 1/sqrt(f), brown at amplitude 1/f. The ground truth of frame t is
the grid index nearest the f0 at its centre sample ``t*384 + 768``, or the
unvoiced slot when that sample is silent. The grid's periods are restated
here, so the truth does not come from the code under test.

A frame counts as right when its voicing decision is right and, if it is
voiced, its index is within one bin of the truth, as perfbench's
``frame_accuracy`` counts it. Each colour's figures pool two seeds of 10 s.
Each floor is the value measured when this module was added, less 0.01; a
better front end raises them. Noise alone, in each colour, and digital
silence must give no voiced frame.

After installing hcf (see README), ``python tests/test_pitch_quality.py``
prints the table.
"""

import time
from functools import cache

import numpy as np
import pytest

import hcf

RATE, HOP, CENTRE = 48000, 384, 768
#: The default grid's periods (62.5-500 Hz, 225 candidates): 768, 765, ..., 96.
PERIODS = 768.0 - 3.0 * np.arange(225)
UNVOICED = PERIODS.size
SNRS_DB = (20.0, 10.0, 5.0, 0.0)
LOW_SNR_DB = (5.0, 0.0)
SEEDS = (11, 12)
SECONDS = 10.0
#: Each colour's exponent of 1/f in the noise amplitude.
COLOURS = {"white": 0.0, "pink": 0.5, "brown": 1.0}
NOISE_RMS = 0.1
#: Frame accuracy (overall, in the 5 and 0 dB quarters) per colour when this
#: module was added, each less 0.01: the floors.
FLOORS = {
    "white": (0.6564 - 0.01, 0.3803 - 0.01),
    "pink": (0.7748 - 0.01, 0.6124 - 0.01),
    "brown": (0.9456 - 0.01, 0.9473 - 0.01),
}


def shaped_noise(rng, n, exponent):
    """Seeded white noise with its amplitude spectrum scaled by ``1/f**exponent``."""
    spectrum = np.fft.rfft(rng.standard_normal(n))
    spectrum /= np.maximum(np.arange(spectrum.size), 1.0) ** exponent
    return np.fft.irfft(spectrum, n)


def speech_like(rng, n):
    """The clean signal and each frame's true grid index."""
    f0, env = np.zeros(n), np.zeros(n)
    ramp = int(0.015 * RATE)
    edge = 0.5 - 0.5 * np.cos(np.pi * np.arange(ramp) / ramp)
    pos = 0
    while pos < n:
        lo = pos + int(rng.uniform(0.06, 0.26) * RATE)  # a gap, then a syllable
        hi = min(lo + int(rng.uniform(0.15, 0.35) * RATE), n)
        pos = hi
        if hi - lo < 2 * ramp:
            continue
        start = np.exp(rng.uniform(np.log(80.0), np.log(300.0)))
        f0[lo:hi] = np.geomspace(start, np.clip(start * rng.uniform(0.8, 1.25), 80.0, 300.0),
                                 hi - lo)
        env[lo:hi] = np.concatenate([edge, np.ones(hi - lo - 2 * ramp), edge[::-1]])
    voiced = f0 > 0
    f0_v = f0[voiced]
    phase = 2.0 * np.pi * np.cumsum(f0_v) / RATE
    harmonics = np.zeros(phase.size)
    for k in range(1, 50):
        below = np.flatnonzero(k * f0_v < 4000.0)
        harmonics[below] += np.sin(k * phase[below]) / k
    clean = np.zeros(n)
    clean[voiced] = harmonics * env[voiced]
    clean *= 0.1 / np.sqrt(np.mean(clean**2))

    centres = np.arange(-(-n // HOP)) * HOP + CENTRE
    f0_c = np.where(centres < n, f0[np.minimum(centres, n - 1)], 0.0)
    truth = np.full(centres.size, UNVOICED)
    on = f0_c > 0
    truth[on] = np.argmin(np.abs(PERIODS - RATE / f0_c[on, None]), axis=1)
    return clean, truth


def frame_right(truth, estimate):
    """Per frame: voicing decision right and, if voiced, within one bin."""
    truth_v, est_v = truth != UNVOICED, estimate != UNVOICED
    return (truth_v == est_v) & (~truth_v | (np.abs(truth - estimate) <= 1))


def track(samples):
    return hcf.estimate_track(hcf.AudioBuffer(samples), hcf.F0Grid()).indices


@cache
def quality_table():
    """Per colour: overall and low-SNR accuracy, estimated and true voiced share,
    and the voiced frames on noise alone; plus the seconds all of it took."""
    began = time.perf_counter()
    n = int(SECONDS * RATE)
    bounds = np.linspace(0, n, len(SNRS_DB) + 1).astype(np.int64)
    quarter = np.searchsorted(bounds, np.minimum(np.arange(-(-n // HOP)) * HOP + CENTRE, n - 1),
                              side="right") - 1
    low = np.isin(np.asarray(SNRS_DB)[quarter], LOW_SNR_DB)
    pooled = {colour: [] for colour in COLOURS}  # (right, low, estimate, truth) per seed
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        clean, truth = speech_like(rng, n)
        for colour, exponent in COLOURS.items():
            noise = shaped_noise(rng, n, exponent)
            for q, snr_db in enumerate(SNRS_DB):
                seg = slice(bounds[q], bounds[q + 1])
                noise[seg] *= np.sqrt(np.mean(clean[seg] ** 2) / np.mean(noise[seg] ** 2)
                                      / 10.0 ** (snr_db / 10.0))
            estimate = track(clean + noise)
            pooled[colour].append((frame_right(truth, estimate), low, estimate, truth))
    rows = {}
    for colour, exponent in COLOURS.items():
        right, lows, estimate, truth = (np.concatenate(a) for a in zip(*pooled[colour]))
        noise = shaped_noise(np.random.default_rng(SEEDS[0] + 100), n, exponent)
        alone = track(noise * (NOISE_RMS / np.sqrt(np.mean(noise**2))))
        rows[colour] = {"accuracy": right.mean(), "low_snr": right[lows].mean(),
                        "voiced": np.mean(estimate != UNVOICED), "truth": np.mean(truth != UNVOICED),
                        "alone": int(np.count_nonzero(alone != UNVOICED))}
    silence = int(np.count_nonzero(track(np.zeros(n)) != UNVOICED))
    return rows, silence, time.perf_counter() - began


@pytest.mark.parametrize("colour", COLOURS)
def test_frame_accuracy_holds_its_floors(colour):
    row = quality_table()[0][colour]
    assert row["accuracy"] >= FLOORS[colour][0]
    assert row["low_snr"] >= FLOORS[colour][1]


@pytest.mark.parametrize("colour", COLOURS)
def test_noise_alone_is_never_voiced(colour):
    assert quality_table()[0][colour]["alone"] == 0


def test_digital_silence_is_never_voiced():
    assert quality_table()[1] == 0


def test_the_table_takes_under_three_seconds():
    assert quality_table()[2] < 3.0


def test_truth_is_about_sixty_percent_voiced():
    for row in quality_table()[0].values():
        assert 0.5 <= row["truth"] <= 0.7


if __name__ == "__main__":
    rows, silence, seconds = quality_table()
    print("noise | accuracy | 5 and 0 dB | voiced share | true share | voiced on noise alone")
    for colour, row in rows.items():
        print(f"{colour} | {row['accuracy']:.3f} | {row['low_snr']:.3f} | {row['voiced']:.3f} | "
              f"{row['truth']:.3f} | {row['alone']}")
    print(f"digital silence: {silence} voiced frames; {seconds:.2f} s")
