"""Command line front end.

Subcommands: design a bank from a YAML configuration, print the subsampling
selection table, export transfer curves and bifrequency maps as CSV, and run
a WAV file through the analysis-synthesis chain.  Exit codes: 0 on success,
1 on runtime failure (a map or file too large for memory included), 2 on
usage or configuration errors.
"""

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import files, optimize, streaming, subsampling
from .files import ConfigError
from .modulation import prototype_response
from .transfer import (
    _channel_responses,
    aliasing_bound,
    aliasing_transfer,
    bifrequency_map,
    distortion_transfer,
    error_function,
    frequency_grid,
    overall_transfer,
    to_db,
)


def _gain_list(text):
    error = argparse.ArgumentTypeError(
        "gains must be comma-separated dB values (-inf allowed)"
    )
    try:
        gains = [float(v) for v in text.split(",")]
    except ValueError:
        raise error
    if any(np.isnan(g) or g == np.inf for g in gains):
        raise error
    return gains


def build_parser():
    parser = argparse.ArgumentParser(
        prog="warpbank",
        description="Design and run oversampled warped cosine-modulated filter banks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design", help="optimize a prototype from a YAML config")
    p.add_argument("config", help="bank configuration (YAML)")
    p.add_argument("-o", "--out", required=True, help="design file to write (YAML)")
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("subsample", help="print per-channel subsampling ratios")
    p.add_argument("--channels", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True, help="warp coefficient")
    p.add_argument("-o", "--out", help="also write the table as CSV")
    p.set_defaults(func=cmd_subsample)

    p = sub.add_parser("evaluate", help="export transfer curves as CSV")
    p.add_argument("design", help="design file (YAML)")
    p.add_argument(
        "--what",
        default="error",
        choices=["prototype", "channels", "tall", "tdist", "talias", "error"],
        help="which curve to export (default: error)",
    )
    p.add_argument("-o", "--out", required=True, help="CSV file to write")
    p.add_argument("--grid", type=int, help="grid points (default from the design)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("bifreq", help="export the bifrequency magnitude map as CSV")
    p.add_argument("design", help="design file (YAML)")
    p.add_argument("-o", "--out", required=True, help="CSV file to write")
    p.add_argument("--grid-in", type=_grid_size, default=256, help="input frequencies")
    p.add_argument("--grid-out", type=_grid_size, default=256, help="output frequencies")
    p.set_defaults(func=cmd_bifreq)

    p = sub.add_parser("process", help="run a WAV file through the bank")
    p.add_argument("design", help="design file (YAML)")
    p.add_argument("input", help="mono WAV file to read")
    p.add_argument("output", help="WAV file to write")
    p.add_argument(
        "--gains",
        type=_gain_list,
        help="per-channel gains in dB, comma separated (-inf mutes a channel)",
    )
    p.add_argument(
        "--format",
        choices=["int16", "float32"],
        help="output sample format (default: same as the input)",
    )
    p.set_defaults(func=cmd_process)
    return parser


def _grid_size(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid int value: %r" % text)
    if value < 2:
        raise argparse.ArgumentTypeError("need at least 2 grid points, got %d" % value)
    return value


def cmd_design(args):
    config = files.load_config(args.config)
    bank, report = optimize.design(config)
    files.save_design(bank, args.out)
    print("channels: %d" % bank.channels)
    print("order: %d" % bank.order)
    print("alpha: %g" % bank.alpha)
    print("subsampling: %s" % " ".join(str(s) for s in bank.subsampling))
    print("ripple_db: %.6g" % bank.ripple_db)
    print("max_alias_db: %.6g" % bank.max_alias_db)
    print("outer_iterations: %d" % bank.outer_iterations)
    print("converged: %s" % ("yes" if bank.converged else "no"))
    print("wrote %s" % args.out)
    if not bank.converged:
        print(
            "warning: envelope flatness %.3f still above psi=%.3f after %d "
            "outer iterations" % (report.flatness, config.psi, bank.outer_iterations),
            file=sys.stderr,
        )
    return 0


def cmd_subsample(args):
    try:
        table = subsampling.band_table(args.channels, args.alpha)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    print("channel     f_lower     f_upper  band  ratio")
    for band in table:
        print(
            "%7d  %10.7f  %10.7f  %4d  %5d"
            % (band.channel, band.f_lower, band.f_upper, band.band_index, band.ratio)
        )
    if args.out:
        files.write_csv(
            args.out,
            ["channel", "f_lower", "f_upper", "band_index", "ratio"],
            [
                [b.channel for b in table],
                [b.f_lower for b in table],
                [b.f_upper for b in table],
                [b.band_index for b in table],
                [b.ratio for b in table],
            ],
        )
        print("wrote %s" % args.out)
    return 0


def cmd_evaluate(args):
    design = files.load_design(args.design)
    config = design.config
    if args.grid is not None:
        try:
            config = dataclasses.replace(config, grid_points=args.grid)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    omega = frequency_grid(config)
    norm = omega / (2.0 * np.pi)
    half = design.half
    if args.what == "prototype":
        mag = to_db(prototype_response(design.prototype_half(), omega))
        header, columns = ["omega_norm", "value_db"], [norm, mag]
    elif args.what == "channels":
        # every channel at once, as channel_response_warped reads each
        H, _ = _channel_responses(design.prototype_half(), omega, config)
        header = ["omega_norm"] + ["ch%02d_db" % k for k in range(design.channels)]
        columns = [norm] + list(to_db(H))
    elif args.what == "tall":
        mag = to_db(overall_transfer(half, omega, config))
        header, columns = ["omega_norm", "value_db"], [norm, mag]
    elif args.what == "tdist":
        mag = to_db(distortion_transfer(half, omega, config))
        header, columns = ["omega_norm", "value_db"], [norm, mag]
    elif args.what == "talias":
        coherent = to_db(aliasing_transfer(half, omega, config))
        bound = to_db(aliasing_bound(half, omega, config))
        header, columns = ["omega_norm", "coherent_db", "bound_db"], [norm, coherent, bound]
    else:
        err = error_function(half, omega, config)
        err_db = 10.0 * np.log10(np.maximum(np.abs(err), 1e-30))
        header, columns = ["omega_norm", "value_db"], [norm, err_db]
    files.write_csv(args.out, header, columns)
    print("wrote %s (%d rows)" % (args.out, omega.size))
    return 0


def cmd_bifreq(args):
    design = files.load_design(args.design)
    win = np.linspace(0.0, np.pi, args.grid_in)
    wout = np.linspace(0.0, np.pi, args.grid_out)
    image = bifrequency_map(design.half, design.config, win, wout)
    # row i * grid_out + j holds (win[i], wout[j]), scaled before the copies
    files.write_csv(
        args.out,
        ["omega_in", "omega_out", "mag_db"],
        [
            np.repeat(win / (2.0 * np.pi), wout.size),
            np.tile(wout / (2.0 * np.pi), win.size),
            image.ravel(),
        ],
    )
    print("wrote %s (%d rows)" % (args.out, image.size))
    return 0


def cmd_process(args):
    design = files.load_design(args.design)
    rate, data, kind = files.open_wav(args.input)
    if design.sample_rate_hz is not None and rate != design.sample_rate_hz:
        print(
            "warning: design expects %g Hz, input is %d Hz"
            % (design.sample_rate_hz, rate),
            file=sys.stderr,
        )
    gains = args.gains
    if gains is not None and len(gains) != design.channels:
        raise ConfigError(
            "need %d gains, got %d" % (design.channels, len(gains))
        )
    if data.size == 0:
        raise ValueError("signal must be a nonempty 1-D array")
    # the input is read through a memory map while the output is written,
    # so writing over the input (or a link to it) would truncate it mid-run
    if os.path.exists(args.output) and os.path.samefile(args.input, args.output):
        raise ConfigError("output %s is the input file; choose another path"
                          % args.output)
    # block by block: the stream lags by under a chunk, and flush gives
    # the rest, so the output is as long as the input
    stream = streaming.BankStream(design, gains)
    with files.WavWriter(args.output, rate, data.size, args.format or kind) as out:
        for first in range(0, data.size, files.WAV_BLOCK):
            block = files.wav_samples(data[first : first + files.WAV_BLOCK], kind)
            out.write(stream.push(block))
        out.write(stream.flush())
    if out.clipped:
        print("warning: clipped %d samples" % out.clipped, file=sys.stderr)
    print("wrote %s (%d samples)" % (args.output, data.size))
    return 0


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except ConfigError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, OSError, MemoryError) as exc:
        # a bare MemoryError says nothing, so it is named
        print("error: %s" % (str(exc) or type(exc).__name__), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
