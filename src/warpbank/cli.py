"""Command line front end.

Subcommands: design a bank from a YAML configuration, print the subsampling
selection table, export transfer curves and bifrequency maps as CSV, and run
a WAV file through the analysis-synthesis chain.  Exit codes: 0 on success,
1 on runtime failure, 2 on usage or configuration errors.
"""

import argparse
import sys

import numpy as np

from . import files, optimize, streaming, subsampling
from .files import ConfigError
from .modulation import channel_response_warped, prototype_response
from .transfer import (
    BankConfig,
    TransferTables,
    aliasing_bound,
    aliasing_transfer,
    bifrequency_map,
    distortion_transfer,
    error_function,
    frequency_grid,
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


def _bank_config(design, grid_points=None):
    try:
        return BankConfig(
            channels=design.channels,
            order=design.order,
            alpha=design.alpha,
            subsampling=design.subsampling,
            grid_points=grid_points,
            sample_rate_hz=design.sample_rate_hz,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


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
    table = subsampling.band_table(args.channels, args.alpha)
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
    config = _bank_config(design, args.grid)
    omega = frequency_grid(config)
    norm = omega / (2.0 * np.pi)
    half = design.half
    if args.what == "prototype":
        mag = to_db(prototype_response(design.prototype_half(), omega))
        header, columns = ["omega_norm", "value_db"], [norm, mag]
    elif args.what == "channels":
        proto = design.prototype_half()
        header, columns = ["omega_norm"], [norm]
        for k in range(design.channels):
            resp = channel_response_warped(proto, k, omega, design.alpha)
            header.append("ch%02d_db" % k)
            columns.append(to_db(resp))
    elif args.what == "tall":
        mag = to_db(TransferTables(config, omega).overall(half))
        header, columns = ["omega_norm", "value_db"], [norm, mag]
    elif args.what == "tdist":
        mag = to_db(distortion_transfer(half, omega, config))
        header, columns = ["omega_norm", "value_db"], [norm, mag]
    elif args.what == "talias":
        coherent = to_db(aliasing_transfer(half, omega, config))
        bound = to_db(aliasing_bound(half, omega, config))
        header = ["omega_norm", "coherent_db", "bound_db"]
        columns = [norm, coherent, bound]
    else:
        err = error_function(half, omega, config)
        err_db = 10.0 * np.log10(np.maximum(np.abs(err), 1e-30))
        header, columns = ["omega_norm", "value_db"], [norm, err_db]
    files.write_csv(args.out, header, columns)
    print("wrote %s (%d rows)" % (args.out, omega.size))
    return 0


def cmd_bifreq(args):
    design = files.load_design(args.design)
    config = _bank_config(design)
    win = np.linspace(0.0, np.pi, args.grid_in)
    wout = np.linspace(0.0, np.pi, args.grid_out)
    image = bifrequency_map(design.half, config, win, wout)
    ii, oo = np.meshgrid(win, wout, indexing="ij")
    files.write_csv(
        args.out,
        ["omega_in", "omega_out", "mag_db"],
        [ii.ravel() / (2.0 * np.pi), oo.ravel() / (2.0 * np.pi), image.ravel()],
    )
    print("wrote %s (%d rows)" % (args.out, image.size))
    return 0


def cmd_process(args):
    design = files.load_design(args.design)
    rate, samples, kind = files.read_wav(args.input)
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
    out = streaming.process_signal(design, samples, gains)
    files.write_wav(args.output, rate, out, args.format or kind)
    print("wrote %s (%d samples)" % (args.output, out.size))
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
    except (ValueError, RuntimeError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
