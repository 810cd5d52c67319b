"""Command-line front end.

Subcommands cover the full pipeline (``enhance``), pitch tracking (``f0``),
label and filter-bank dumps, the reference-vs-inference self-test
(``verify``), and loss/SDR reporting (``metrics``).

Exit codes: 0 success, 2 usage or configuration error, 3 data or shape
error (unreadable files, mismatched sizes) or an input too large for
memory, 4 numerical verification failure.
"""

from __future__ import annotations

import argparse
import shutil
import sys
from pathlib import Path

import numpy as np

from .audio import AudioBuffer, PIPELINE_RATE, read_wav, write_wav
from .comb import CombFilterBank, MacCounter, build_bank, verify_routes
from .enhance import BlendConfig, enhance
from .errors import DataError, VerificationError
from .estimator import EstimatorConfig, estimate_track
from .framing import FrameConfig, block, check_size, stft
from .grid import F0Grid, gaussian_label, read_track, write_track
from .helper import blocks
from .matrixio import read_matrix, write_matrix
from .metrics import LossConfig, sdr, se_loss, snr

VERIFY_TOLERANCE = 1e-8


#: Tuning flags as ``flag: (type, default, help)``; each subcommand declares
#: exactly the ones its handler reads.
_TUNING = {
    "--frame-size": (int, FrameConfig.frame_size, "frame length in samples"),
    "--hop": (int, FrameConfig.hop_size, "hop length in samples"),
    "--f-min": (float, F0Grid.f_min, "lowest candidate frequency in Hz"),
    "--f-max": (float, F0Grid.f_max, "highest candidate frequency in Hz"),
    "--grid-size": (int, F0Grid.size, "number of voiced candidates"),
    "--order": (int, 1, "comb filter half-width in taps"),
    "--threshold": (float, EstimatorConfig.yin_threshold, "dip threshold for voicing"),
    "--transition-width": (float, EstimatorConfig.transition_width, "smoothing width in grid bins"),
    "--voicing-prior": (float, EstimatorConfig.voicing_prior, "prior probability of voicing"),
    "--switch-cost": (float, EstimatorConfig.switch_cost, "voicing switch cost, negative-log units"),
    "--compression": (float, LossConfig.compression, "magnitude compression exponent"),
    "--magnitude-weight": (float, LossConfig.magnitude_weight, "complex-term weight"),
}
_FRAME = ("--frame-size", "--hop")
_GRID = ("--f-min", "--f-max", "--grid-size")
_ESTIMATOR = ("--threshold", "--transition-width", "--voicing-prior", "--switch-cost")


def _add_tuning(p: argparse.ArgumentParser, *flags: str) -> None:
    for flag in flags:
        kind, default, text = _TUNING[flag]
        p.add_argument(flag, type=kind, default=default, help=text)


def _grid(args) -> F0Grid:
    return F0Grid(f_min=args.f_min, f_max=args.f_max, size=args.grid_size)


def _frame_cfg(args) -> FrameConfig:
    return FrameConfig(frame_size=args.frame_size, hop_size=args.hop)


def _read_reference(path) -> AudioBuffer:
    clean = read_wav(path)
    if not np.any(clean.samples):  # no SNR or SDR exists against silence
        raise DataError(f"clean reference {path} is identically zero")
    return clean


def _estimator_cfg(args) -> EstimatorConfig:
    return EstimatorConfig(
        yin_threshold=args.threshold,
        transition_width=args.transition_width,
        voicing_prior=args.voicing_prior,
        switch_cost=args.switch_cost,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hcf",
        description="Harmonic comb-filter speech enhancement toolkit (48 kHz).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    kw = {"formatter_class": argparse.ArgumentDefaultsHelpFormatter}

    p = sub.add_parser("enhance", help="run the enhancement pipeline on a WAV file", **kw)
    p.add_argument("noisy", help="input WAV, 48 kHz")
    p.add_argument("out", help="output WAV path")
    p.add_argument("--clean", help="clean reference WAV; enables oracle gain/strength")
    p.add_argument("--gain", help="gain matrix file (.hcf), used with --strength")
    p.add_argument("--strength", help="strength matrix file (.hcf), used with --gain")
    p.add_argument("--f0", help="pitch track CSV; omit to estimate internally")
    p.add_argument("--rescale", action="store_true", help="blend with exponent 0.5 instead of 1")
    p.add_argument("--diag", help="directory for diagnostics (track, maps, report)")
    p.add_argument("--bits", default="float32", choices=["16", "24", "float32"], help="output sample format")
    _add_tuning(p, *_FRAME, *_GRID, "--order", *_ESTIMATOR)

    p = sub.add_parser("f0", help="estimate a pitch track and write it as CSV", **kw)
    p.add_argument("wav", help="input WAV, 48 kHz")
    p.add_argument("out", help="output CSV path")
    _add_tuning(p, *_FRAME, *_GRID, *_ESTIMATOR)

    p = sub.add_parser("labels", help="expand a pitch track into smoothed label vectors", **kw)
    p.add_argument("track", help="pitch track CSV")
    p.add_argument("out", help="output matrix path (.hcf)")
    _add_tuning(p, *_GRID)

    p = sub.add_parser("filterbank", help="dump the comb filter bank weight matrix", **kw)
    p.add_argument("out", help="output matrix path (.hcf)")
    _add_tuning(p, *_GRID, "--order")

    p = sub.add_parser("verify", help="check the two filtering routes against each other", **kw)
    p.add_argument("wav", nargs="?", help="input WAV; omitted -> seeded noise")
    p.add_argument("--seed", type=int, default=0, help="noise and track seed")
    p.add_argument("--duration", type=float, default=2.0, help="noise duration in seconds")
    p.add_argument("--tracks", type=int, default=10, help="number of random tracks to sweep")
    _add_tuning(p, *_FRAME, *_GRID, "--order")

    p = sub.add_parser("metrics", help="report spectral loss and SDR for an estimate", **kw)
    p.add_argument("clean", help="clean reference WAV")
    p.add_argument("estimate", help="estimated/enhanced WAV")
    p.add_argument("gains_only", nargs="?", help="gains-only estimate WAV (defaults to estimate)")
    _add_tuning(p, *_FRAME, "--compression", "--magnitude-weight")

    return parser


def _cmd_enhance(args) -> int:
    file_mode = args.gain is not None or args.strength is not None
    if file_mode and (args.gain is None or args.strength is None):
        raise ValueError("--gain and --strength must be given together")
    if file_mode and args.clean is not None:
        raise ValueError("use either --clean (oracle) or --gain/--strength, not both")
    if not file_mode and args.clean is None:
        raise ValueError("need a gain/strength source: --clean or --gain/--strength")

    noisy = read_wav(args.noisy)
    clean = _read_reference(args.clean) if args.clean else None
    grid = _grid(args)
    bank = build_bank(grid, order=args.order)
    frame_cfg = _frame_cfg(args)
    track = read_track(args.f0, grid) if args.f0 else None
    gain = read_matrix(args.gain) if args.gain else None
    if gain is not None and np.any(gain < 0):
        raise DataError(f"gain map {args.gain} has negative entries")

    result = enhance(
        noisy,
        clean=clean,
        track=track,
        gain=gain,
        strength=read_matrix(args.strength) if args.strength else None,
        frame_cfg=frame_cfg,
        blend_cfg=BlendConfig(exponent=0.5 if args.rescale else 1.0),
        est_cfg=_estimator_cfg(args),
        bank=bank,
    )
    # everything is computed before the first write, and a failed write
    # removes the topmost directory that making ``diag`` created
    diag = Path(args.diag) if args.diag else None
    report = _report(clean, noisy, result, frame_cfg, bank) if diag and clean is not None else None
    made = diag and next((d for d in reversed([diag, *diag.parents]) if not d.exists()), None)
    try:
        if diag is not None:
            diag.mkdir(parents=True, exist_ok=True)
            write_track(result.track, diag / "track.csv", grid)
            write_matrix(result.strength, diag / "strength.hcf")
            write_matrix(result.gain, diag / "gain.hcf")
            if report is not None:
                (diag / "report.txt").write_text(report)
        clipped = write_wav(result.audio, args.out, bit_depth=args.bits)
    except Exception:
        if made is not None:
            shutil.rmtree(made, ignore_errors=True)
        raise
    print(f"enhanced {args.noisy} -> {args.out} ({len(result.track)} frames)")
    if clipped:
        print(f"clipped {clipped} samples on write", file=sys.stderr)
    if clean is not None:
        snr_in = snr(clean, noisy)
        snr_out = snr(clean, result.audio)
        print(f"snr_in_db={snr_in:.3f} snr_out_db={snr_out:.3f} snr_gain_db={snr_out - snr_in:.3f}")
    return 0


def _loss_lines(clean, estimate, gains_only, frame_cfg: FrameConfig, cfg: LossConfig) -> list[str]:
    """The loss and SDR lines that ``hcf metrics`` prints and ``report.txt`` holds.

    The loss terms are means over frames, taken block by block and weighted
    by each block's frame count, so no whole-buffer frame or spectrum is formed.
    """
    n_frames = frame_cfg.n_frames(len(clean))
    sums = np.zeros(4)
    for lo, n in blocks(n_frames):
        spectra = [stft(block(b.samples, frame_cfg, lo, n)) for b in (clean, estimate, gains_only)]
        sums += np.multiply(se_loss(*spectra, cfg), n)
    total, mag0, mag, cplx = sums / n_frames
    return [
        f"se_loss={total:.6g}",
        f"mag_gains_only={mag0:.6g}",
        f"mag_full={mag:.6g}",
        f"complex={cplx:.6g}",
        f"sdr_db={sdr(clean, estimate):.3f}",
    ]


def _report(
    clean: AudioBuffer, noisy: AudioBuffer, result, frame_cfg: FrameConfig, bank: CombFilterBank,
) -> str:
    """The text of ``report.txt``."""
    # the gains-only estimate is the blend at strength 0: noisy spectrum times gain
    gains_only = enhance(
        noisy, track=result.track, gain=result.gain, strength=0.0, frame_cfg=frame_cfg, bank=bank
    ).audio
    lines = _loss_lines(clean, result.audio, gains_only, frame_cfg, LossConfig())
    lines.append(f"latency_samples={result.latency_samples}")
    return "\n".join(lines) + "\n"


def _cmd_f0(args) -> int:
    buffer = read_wav(args.wav)
    grid = _grid(args)
    track = estimate_track(buffer, grid, _estimator_cfg(args), _frame_cfg(args))
    write_track(track, args.out, grid)
    voiced = int(track.voiced_mask(grid).sum())
    print(f"wrote {len(track)} frames ({voiced} voiced) to {args.out}")
    return 0


def _cmd_labels(args) -> int:
    grid = _grid(args)
    track = read_track(args.track, grid)
    labels = np.reshape([gaussian_label(grid, int(i)) for i in track.indices], (-1, grid.label_size))
    write_matrix(labels, args.out)
    print(f"wrote {labels.shape[0]}x{labels.shape[1]} label matrix to {args.out}")
    return 0


def _cmd_filterbank(args) -> int:
    bank = build_bank(_grid(args), order=args.order)
    write_matrix(bank.weights[:, 0, :, 0], args.out)
    rows, cols = bank.weights.shape[0], bank.weights.shape[2]
    print(f"wrote {rows}x{cols} filter bank to {args.out}")
    return 0


def _cmd_verify(args) -> int:
    if args.tracks < 1:
        raise ValueError(f"--tracks must be at least 1, got {args.tracks}")
    if not (np.isfinite(args.duration) and args.duration > 0):
        raise ValueError(f"--duration must be a positive number of seconds, got {args.duration}")
    n_noise = 0 if args.wav else int(args.duration * PIPELINE_RATE)  # a wav replaces the noise
    check_size(n_noise, f"{n_noise} float64 samples of noise")
    grid, frame_cfg = _grid(args), _frame_cfg(args)
    samples = read_wav(args.wav).samples if args.wav else None
    n_frames = frame_cfg.n_frames(n_noise if samples is None else len(samples))
    check_size(args.tracks * n_frames, f"{args.tracks} x {n_frames} int64 track indices")
    bank = build_bank(grid, order=args.order)
    rng = np.random.default_rng(args.seed)
    if samples is None:
        samples = 0.5 * rng.standard_normal(n_noise)
    tracks = np.empty((args.tracks, n_frames), dtype=np.int64)  # fails at once if too large
    for track in tracks:
        track[:] = rng.integers(0, grid.label_size, size=n_frames)
    macs = MacCounter()
    max_dev = verify_routes(bank, samples, tracks, frame_cfg, macs)

    # the reference route's MACs over those of every track's inference route
    print(f"max_dev={max_dev:.3e} frames={n_frames} tracks={args.tracks} "
          f"mac_ratio={macs.ratio():.6g}")
    if not max_dev <= VERIFY_TOLERANCE:  # NaN fails too
        raise VerificationError(
            f"filtering routes disagree: max deviation {max_dev:.3e} > {VERIFY_TOLERANCE:.0e}"
        )
    return 0


def _cmd_metrics(args) -> int:
    clean = _read_reference(args.clean)
    estimate = read_wav(args.estimate)
    gains_only = read_wav(args.gains_only) if args.gains_only else estimate
    if not (len(clean) == len(estimate) == len(gains_only)):
        raise DataError(
            f"lengths differ: clean={len(clean)}, estimate={len(estimate)}, "
            f"gains_only={len(gains_only)}"
        )
    cfg = LossConfig(compression=args.compression, magnitude_weight=args.magnitude_weight)
    print("\n".join(_loss_lines(clean, estimate, gains_only, _frame_cfg(args), cfg)))
    return 0


_COMMANDS = {
    "enhance": _cmd_enhance,
    "f0": _cmd_f0,
    "labels": _cmd_labels,
    "filterbank": _cmd_filterbank,
    "verify": _cmd_verify,
    "metrics": _cmd_metrics,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return _COMMANDS[args.command](args)
    except VerificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())
