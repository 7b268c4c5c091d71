"""Benchmark of the 22-channel Bark bank: design, stream and inspect.

Run from the root of a checkout:

    python3 bench/run.py --workload design-bark22 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --write-design    # writes bench/bark22_design.yaml anew

Every round runs each family of operations: design(), `warpbank process`, the
four `warpbank evaluate` curves, `warpbank bifreq` and sine probes through
measure_response.  A workload gives the family it is about its full-size input
and keeps the others small, so each run reports every end-to-end metric while
most of its time goes where the workload says (see bench/README.md).  Every
output is checked against bench/reference.py or a property of the method.

With --trace 0 the last line of stdout is a JSON object with the end-to-end
metrics; with --trace 1 it holds the per-layer metrics of a traced round.
Run records go to bench/out/records/.
"""

import argparse
import contextlib
import io
import json
import math
import os
import shutil
import statistics
import sys
import time
import traceback
import tracemalloc
from collections import defaultdict
from functools import partial
from itertools import zip_longest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
DESIGN_FILE = BENCH / "bark22_design.yaml"

# One BLAS thread: OpenBLAS threads spin while they wait, so with two of them
# any other load on the two cores stretched a 0.26 s design to 16 s.  The
# count is read when numpy loads, so it is set before the import.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402
from scipy.io import wavfile  # noqa: E402

if not (SRC / "warpbank" / "__init__.py").is_file():
    sys.exit("error: no warpbank sources under %s; run from the root of a checkout" % SRC)
sys.path.insert(0, str(SRC))
from warpbank import cli, files, modulation, optimize, streaming, transfer  # noqa: E402

import reference as ref  # noqa: E402
from tracing import Tracer  # noqa: E402

RATE = 16000
FLAGSHIP = {"channels": 22, "order": 176, "alpha": 0.5783}
# small bank that still meets the ripple and alias limits, for the design
# family of the workloads that are not about design
SIDE_BANK = {"channels": 8, "order": 64, "alpha": 0.4}

# Per family, the input of one operation and how often a round runs it:
# design (bank, n), process (audio seconds, n), evaluate (grid points or None
# for the design's own grid, n), bifreq (grid points per axis, n) and probe
# (seeded frequencies, n).  A workload gives the family it is about its full
# size; the others stay small, and the short ones repeat so that their
# figures hold steady on a shared machine.
SIDE = {
    "design": (SIDE_BANK, 3),
    "process": (1, 2),
    "evaluate": (128, 2),
    "bifreq": (32, 5),
    "probe": (2, 1),
}
WORKLOADS = {
    "design-bark22": dict(SIDE, design=(FLAGSHIP, 1)),
    "stream-bark22": dict(SIDE, process=(20, 1)),
    "inspect-bark22": dict(SIDE, evaluate=(None, 1), bifreq=(256, 2), probe=(3, 1)),
}
SETUP_REPEATS = 3
CURVES = ("tall", "tdist", "talias", "error")

# limits of the method (criteria 3 and 7 of the acceptance tests)
RIPPLE_LIMIT_DB = 0.01
ALIAS_LIMIT_DB = -75.0
PROBE_TOL_DB = 0.1
# |T|-scale quantities agree with the reference to about 1e-13; allow 1e-11
LIN_TOL = 1e-11
# the chain keeps the energy of a long noise input; the edge-windowed ratio
# fluctuates by ~1e-3 at 2 s and ~1e-4 at 20 s, so it is checked from 10 s
ENERGY_TOL = 1e-3
ENERGY_MIN_S = 10.0
EDGE = 4096
PREFIX = 2048


def _write_config(path, bank):
    path.write_text(
        "channels: %d\norder: %d\nalpha: %r\nsample_rate_hz: %d\nsubsampling: auto\n"
        % (bank["channels"], bank["order"], bank["alpha"], RATE)
    )
    return path


class Inputs:
    """Everything one run feeds the program, made from the seed."""

    def __init__(self, spec, seed, work):
        self.spec = spec
        self.config = files.load_config(_write_config(work / "bank.yaml", spec["design"][0]))
        rng = np.random.default_rng(seed)
        samples = int(spec["process"][0] * RATE)
        self.audio = (0.25 * rng.standard_normal(samples)).astype(np.float32)
        self.wav_in = work / "in.wav"
        self.wav_out = work / "out.wav"
        wavfile.write(self.wav_in, RATE, self.audio)
        self.bank = files.load_design(DESIGN_FILE)
        self.probes = rng.uniform(0.05, np.pi - 0.05, spec["probe"][0])
        self.grid = spec["evaluate"][0]
        self.bifreq = spec["bifreq"][0]
        self.work = work


def _half_step(db):
    """Half a unit in the last of the 9 significant digits CSV files print."""
    db = np.abs(np.asarray(db, dtype=float))
    exponent = np.floor(np.log10(np.where(db > 0, db, 1.0)))
    return np.where(db > 0, 0.5 * 10.0 ** (exponent - 8), 0.0)


def _mismatch(db, want, power=20.0, tol=LIN_TOL):
    """Worst excess of a printed dB column over the reference magnitude."""
    got = 10.0 ** (np.asarray(db) / power)
    allowed = tol + got * _half_step(db) * math.log(10.0) / power
    return float(np.max(np.abs(got - want) - allowed))


class Checks:
    """Output checks, with the reference figures each one needs cached."""

    def __init__(self, inputs):
        self.inputs = inputs
        self.cache = {}

    def _ref(self, key, make):
        if key not in self.cache:
            self.cache[key] = make()
        return self.cache[key]

    def _bank_parts(self, omega):
        b = self.inputs.bank
        return ref.transfer_parts(b.half, b.channels, b.alpha, b.subsampling, omega)

    def design(self, result):
        bank, report = result
        config = self.inputs.config
        problems = []
        if not (bank.converged and report.converged):
            problems.append("not converged")
        if not bank.ripple_db <= RIPPLE_LIMIT_DB:
            problems.append("ripple %.3g dB" % bank.ripple_db)
        if not bank.max_alias_db <= ALIAS_LIMIT_DB:
            problems.append("alias %.1f dB" % bank.max_alias_db)
        for k, s in enumerate(bank.subsampling):
            if not ref.bandpass_ok(int(s), *ref.warped_band(k, bank.channels, bank.alpha)):
                problems.append("ratio %d of channel %d folds its band" % (s, k))
        trace = np.asarray(report.objective_trace)
        start = 0
        for count in report.inner_iterations:
            if np.any(np.diff(trace[start : start + count + 1]) > 0):
                problems.append("objective rose inside an inner loop")
            start += count + 1

        def off_grid():
            # offset grid about 4x denser than the design grid, endpoints excluded
            n = 4 * (config.grid_points - 1)
            omega = (np.arange(n) + 0.5) * np.pi / n
            td, ta, _ = ref.transfer_parts(
                bank.half, bank.channels, bank.alpha, bank.subsampling, omega
            )
            t_db = 20.0 * np.log10(np.abs(td + ta))
            return float(t_db.max() - t_db.min()), float(20.0 * np.log10(np.abs(ta).max()))

        ripple, alias = self._ref(("design", bank.half.tobytes()), off_grid)
        if not (ripple <= RIPPLE_LIMIT_DB and alias <= ALIAS_LIMIT_DB):
            problems.append("off-grid ripple %.3g dB, alias %.1f dB" % (ripple, alias))
        return problems

    def process(self, rc):
        if rc != 0:
            return ["process exited %d" % rc]
        rate, y = wavfile.read(self.inputs.wav_out)
        x = self.inputs.audio.astype(float)
        problems = []
        if rate != RATE or y.shape != x.shape:
            return ["output is %r at %d Hz for %d input samples" % (y.shape, rate, x.size)]
        b = self.inputs.bank
        want = self._ref(
            "chain",
            lambda: ref.chain(x, b.half, b.channels, b.alpha, b.subsampling, PREFIX),
        )
        excess = np.abs(y[:PREFIX] - want) - (2.0**-23 * np.abs(want) + 1e-10)
        if np.any(excess > 0):
            problems.append("prefix off the reference chain by %.3g" % excess.max())
        if x.size >= ENERGY_MIN_S * RATE:
            y = y.astype(float)
            ratio = np.sum(y[EDGE:-EDGE] ** 2) / np.sum(x[EDGE:-EDGE] ** 2)
            if not abs(ratio - 1.0) <= ENERGY_TOL:
                problems.append("energy ratio %.6f" % ratio)
        return problems

    def curve(self, what, path):
        grid = self.inputs.grid or max(8 * self.inputs.bank.order, 1024)
        omega = np.linspace(0.0, np.pi, grid)
        td, ta, bound = self._ref(("grid", grid), lambda: self._bank_parts(omega))
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        if data.shape[0] != grid:
            return ["%s: %d rows for a %d-point grid" % (what, data.shape[0], grid)]
        freq = omega / (2.0 * np.pi)
        if np.any(np.abs(data[:, 0] - freq) > _half_step(data[:, 0]) + 1e-15):
            return ["%s: frequency column is not the grid" % what]
        if what == "tall":
            worst = _mismatch(data[:, 1], np.abs(td + ta))
        elif what == "tdist":
            worst = _mismatch(data[:, 1], np.abs(td))
        elif what == "talias":
            worst = max(_mismatch(data[:, 1], np.abs(ta)), _mismatch(data[:, 2], bound))
            below = data[:, 1] - data[:, 2] - _half_step(data[:, 1]) - _half_step(data[:, 2])
            if np.any(below > 0):
                return ["talias: bound below the coherent sum by %.3g dB" % below.max()]
        else:
            e = np.abs(np.abs(td + ta) ** 2 - 1.0)
            worst = _mismatch(data[:, 1], np.maximum(e, 1e-30), power=10.0)
        if worst > 0:
            return ["%s: off the reference by %.3g beyond print precision" % (what, worst)]
        return []

    def bifreq(self, path):
        n = self.inputs.bifreq
        omega = np.linspace(0.0, np.pi, n)
        td, _, _ = self._ref(("bifreq", n), lambda: self._bank_parts(omega))
        mag = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)[:, 2]
        if mag.size != n * n:
            return ["bifreq: %d cells for %dx%d" % (mag.size, n, n)]
        mag = mag.reshape(n, n)
        problems = []
        # alias images that fold onto the diagonal stay below the alias limit
        if _mismatch(np.diag(mag), np.abs(td), tol=10.0 ** (ALIAS_LIMIT_DB / 20.0)) > 0:
            problems.append("bifreq diagonal is not |T_dist|")
        worst = mag[~np.eye(n, dtype=bool)].max()
        if worst > ALIAS_LIMIT_DB:
            problems.append("bifreq off-diagonal cell at %.1f dB" % worst)
        return problems

    def probe(self, freq, measured_db):
        td, ta, _ = self._bank_parts(np.array([freq]))
        want = 20.0 * np.log10(abs(td[0] + ta[0]))
        if abs(measured_db[0] - want) > PROBE_TOL_DB:
            return ["probe at %.4f rad: %.4f dB, reference %.4f dB" % (freq, measured_db[0], want)]
        return []


def _cli(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(a) for a in argv])


def _exit_ok(check):
    return lambda rc: ["exited %d" % rc] if rc != 0 else check()


class Runner:
    """Runs operations, checks their outputs and keeps the tallies."""

    def __init__(self, inputs, checks, tracer=None):
        self.inputs = inputs
        self.checks = checks
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.samples = defaultdict(list)
        self.peaks_mb = {}
        self.design_result = None

    def attempt(self, name, call, check, memory=False):
        """Run one operation; returns its wall time, or None when it failed."""
        self.attempted += 1
        try:
            if memory:
                tracemalloc.start()
            start = time.perf_counter()
            if self.tracer is None:
                result = call()
            else:
                with self.tracer.span("bench." + name):
                    result = call()
            seconds = time.perf_counter() - start
            if memory:
                self.peaks_mb[name] = tracemalloc.get_traced_memory()[1] / 1e6
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        finally:
            if memory:
                tracemalloc.stop()
        problems = check(result)
        if problems:
            print("check failed: %s: %s" % (name, "; ".join(problems)), file=sys.stderr)
            self.failed += 1
            self.wrong += 1
            return None
        if name == "design":
            self.design_result = result
        return seconds

    def operations(self):
        """(name, call, check) of every operation in one round."""
        inp, checks = self.inputs, self.checks
        ops = {
            "design": [("design", lambda: optimize.design(inp.config), checks.design)],
            "process": [
                (
                    "process",
                    partial(_cli, ["process", DESIGN_FILE, inp.wav_in, inp.wav_out]),
                    checks.process,
                )
            ],
            "evaluate": [],
            "bifreq": [],
            "probe": [],
        }
        grid = [] if inp.grid is None else ["--grid", inp.grid]
        for what in CURVES:
            csv = inp.work / ("%s.csv" % what)
            argv = ["evaluate", DESIGN_FILE, "--what", what, "-o", csv] + grid
            check = _exit_ok(partial(checks.curve, what, csv))
            ops["evaluate"].append(("evaluate." + what, partial(_cli, argv), check))
        csv = inp.work / "bifreq.csv"
        argv = ["bifreq", DESIGN_FILE, "-o", csv, "--grid-in", inp.bifreq, "--grid-out", inp.bifreq]
        ops["bifreq"].append(("bifreq", partial(_cli, argv), _exit_ok(partial(checks.bifreq, csv))))
        for freq in inp.probes:
            call = partial(streaming.measure_response, inp.bank, [freq])
            ops["probe"].append(("probe", call, partial(checks.probe, freq)))
        # interleave the families, so that the samples of each short operation
        # spread over the round: the host's fast and slow states last seconds
        groups = [group * inp.spec[family][1] for family, group in ops.items()]
        return [op for turn in zip_longest(*groups) for op in turn if op is not None]

    def warm_up(self, memory):
        """First, cold calls of design and process, under tracemalloc when
        memory is set so that they give the peaks; their times are not kept."""
        first = {}
        for op in self.operations():
            first.setdefault(op[0], op)
        for name in ("design", "process"):
            self.attempt(*first[name], memory=memory)

    def round(self):
        """The operations of one round; returns their summed time."""
        total = 0.0
        for name, call, check in self.operations():
            seconds = self.attempt(name, call, check)
            if seconds is not None:
                total += seconds
                self.samples[name].append(seconds)
        return total


def _per_call(values):
    # total time over the number of calls: the host switches between a fast
    # and a slow state that each last seconds, so a run's samples form two
    # clusters; a median jumps between them with the mix, the mean moves
    # with it (on 32x32 bifreq the ten-run spread fell from 0.30 to 0.13)
    return sum(values) / len(values) if values else 0.0


def _rounds(seconds, run_round):
    """Run rounds until the next one would end past `seconds` by over half."""
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        run_round()
        last = time.perf_counter() - t0
        if time.perf_counter() - start + last / 2.0 >= seconds:
            return


def end_to_end(runner, seconds, set_up):
    setup_times = []

    def timed_round():
        # set-up repeats before every round, so its median spans the run
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            set_up()
            setup_times.append(time.perf_counter() - start)
        runner.round()

    runner.warm_up(memory=True)
    _rounds(seconds, timed_round)
    s = runner.samples
    process_s = _per_call(s["process"])
    values = {
        "setup_s": statistics.median(setup_times),
        "design_s": _per_call(s["design"]),
        "design_peak_mb": runner.peaks_mb.get("design", 0.0),
        "process_rtf": runner.inputs.audio.size / RATE / process_s if process_s else 0.0,
        "process_peak_mb": runner.peaks_mb.get("process", 0.0),
        "evaluate_s": sum(_per_call(s["evaluate." + w]) for w in CURVES),
        "bifreq_s": _per_call(s["bifreq"]),
        "probe_s": _per_call(s["probe"]),
    }
    return values, dict(s, setup=setup_times)


def _wrap_layers(tracer):
    """Wrap the names each module looks up across a layer boundary."""

    def tables(tr, args, kwargs, result):
        mb = sum(v.nbytes for v in vars(result).values() if isinstance(v, np.ndarray)) / 1e6
        tr.maxima["tables_mb"] = max(tr.maxima["tables_mb"], mb)

    def design_tables(tr, args, kwargs, result):
        tables(tr, args, kwargs, result)
        tr.objects["design_tables"] = result

    def steps(tr, args, kwargs, result):
        tr.sums["newton_steps"] += result[1]

    def analyzed(tr, args, kwargs, result):
        tr.sums["analyze_samples"] += np.size(args[1] if len(args) > 1 else kwargs["signal"])

    def synthesized(tr, args, kwargs, result):
        tr.sums["synthesize_samples"] += np.size(result)

    def filtered(tr, args, kwargs, result):
        tr.sums["allpass_samples"] += np.size(args[2] if len(args) > 2 else kwargs["x"])

    wraps = [
        (transfer, "TransferTables", "transfer.tables_build", tables),
        (optimize, "TransferTables", "transfer.tables_build", design_tables),
        (cli, "TransferTables", "transfer.tables_build", tables),
        (optimize, "aliasing_transfer", "transfer.aliasing_transfer", None),
        (cli, "aliasing_transfer", "transfer.aliasing_transfer", None),
        (optimize, "distortion_transfer", "transfer.distortion_transfer", None),
        (cli, "distortion_transfer", "transfer.distortion_transfer", None),
        (cli, "aliasing_bound", "transfer.aliasing_bound", None),
        (cli, "error_function", "transfer.error_function", None),
        (cli, "bifrequency_map", "transfer.bifrequency_map", None),
        (transfer, "cosine_basis", "modulation.cosine_basis", None),
        (modulation, "cosine_basis", "modulation.cosine_basis", None),
        (modulation, "channel_response_warped", "modulation.channel_response_warped", None),
        (streaming, "modulate", "modulation.modulate", None),
        (optimize, "initial_prototype", "optimize.initial_prototype", None),
        (optimize, "inner_loop", "optimize.inner_loop", steps),
        (optimize, "find_extrema", "optimize.envelope_pass", None),
        (optimize, "envelope", "optimize.envelope_pass", None),
        (optimize, "flatness", "optimize.envelope_pass", None),
        (optimize, "update_weights", "optimize.envelope_pass", None),
        (streaming, "analyze", "streaming.analyze", analyzed),
        (streaming, "synthesize", "streaming.synthesize", synthesized),
        (streaming, "lfilter", "streaming.lfilter", filtered),
        (files, "read_wav", "files.read_wav", None),
        (files, "write_wav", "files.write_wav", None),
        (files, "load_design", "files.load_design", None),
        (files, "write_csv", "files.write_csv", None),
    ]
    for module, attr, name, after in wraps:
        tracer.wrap(module, attr, name, after)


def _layer_values(tracer, runner):
    totals = tracer.totals()

    def total(name):
        return totals.get(name, (0, 0.0, 0.0))[1]

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def per_audio_s(name, samples):
        audio = tracer.sums[samples] / RATE
        return total(name) / audio if audio else 0.0

    bank = runner.design_result[0] if runner.design_result else None
    return {
        "transfer.tables_build_s": total("transfer.tables_build"),
        "transfer.tables_mb": tracer.maxima["tables_mb"],
        "transfer.aliasing_transfer_s": total("transfer.aliasing_transfer"),
        "transfer.distortion_transfer_s": total("transfer.distortion_transfer"),
        "transfer.aliasing_bound_s": total("transfer.aliasing_bound"),
        "transfer.error_function_s": total("transfer.error_function"),
        "transfer.bifrequency_map_s": total("transfer.bifrequency_map"),
        "modulation.cosine_basis_calls": calls("modulation.cosine_basis"),
        "modulation.cosine_basis_s": total("modulation.cosine_basis"),
        "modulation.channel_response_warped_calls": calls("modulation.channel_response_warped"),
        "modulation.channel_response_warped_s": total("modulation.channel_response_warped"),
        "modulation.modulate_calls": calls("modulation.modulate"),
        "optimize.initial_prototype_s": total("optimize.initial_prototype"),
        "optimize.inner_loop_s": total("optimize.inner_loop"),
        "optimize.envelope_pass_s": total("optimize.envelope_pass"),
        "optimize.newton_steps": tracer.sums["newton_steps"],
        "optimize.outer_iterations": calls("optimize.inner_loop"),
        "optimize.ripple_db": bank.ripple_db if bank else 0.0,
        "optimize.alias_db": bank.max_alias_db if bank else 0.0,
        "streaming.analyze_s_per_audio_s": per_audio_s("streaming.analyze", "analyze_samples"),
        "streaming.synthesize_s_per_audio_s": per_audio_s(
            "streaming.synthesize", "synthesize_samples"
        ),
        "streaming.allpass_samples": tracer.sums["allpass_samples"],
        "files.read_wav_s": total("files.read_wav"),
        "files.write_wav_s": total("files.write_wav"),
        "files.load_design_s": total("files.load_design"),
        "files.write_csv_s": total("files.write_csv"),
        "cli.evaluate.tall_s": total("bench.evaluate.tall"),
        "cli.evaluate.tdist_s": total("bench.evaluate.tdist"),
        "cli.evaluate.talias_s": total("bench.evaluate.talias"),
        "cli.evaluate.error_s": total("bench.evaluate.error"),
    }


def _warm_call_s(fn, *args, repeats=3):
    fn(*args)
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def per_layer(inputs, checks, seconds):
    """Per-layer figures from traced rounds, each next to an untraced one.

    Returns (values, record, runners); the difference between the traced
    and untraced round times is the tracing overhead.
    """
    runners = [Runner(inputs, checks)]
    runners[0].warm_up(memory=False)
    plain, traced, layers, tracers = [], [], [], []

    def pair():
        runner = Runner(inputs, checks)
        runners.append(runner)
        plain.append(runner.round())
        with Tracer() as tracer:
            _wrap_layers(tracer)
            runner = Runner(inputs, checks, tracer)
            runners.append(runner)
            traced.append(runner.round())
        layers.append(_layer_values(tracer, runner))
        tracers.append(tracer)

    _rounds(seconds, pair)
    tracer = tracers[-1]
    values = {key: statistics.median(v[key] for v in layers) for key in layers[0]}
    # warm time per call of the public objective functions at the finished
    # design, on the tables the last traced design built
    runner = runners[-1]
    tables = tracer.objects.get("design_tables")
    for name in ("objective", "gradient", "hessian"):
        fn = getattr(optimize, name, None)
        if fn is None:
            tracer.absent.append("warpbank.optimize.%s" % name)
        if fn is None or tables is None or runner.design_result is None:
            values["optimize.%s_s" % name] = 0.0
            continue
        half = runner.design_result[0].half
        values["optimize.%s_s" % name] = _warm_call_s(fn, half, np.ones(tables.omega.size), tables)
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    record = {
        "absent": sorted(set(tracer.absent)),
        "untraced_round_s": plain,
        "traced_round_s": traced,
        "spans": {
            name: {"calls": c, "total_s": t, "self_s": own}
            for name, (c, t, own) in sorted(tracer.totals().items())
        },
    }
    return values, record, runners


def _print_spans(record):
    print("%-40s %8s %10s %10s" % ("span", "calls", "total_s", "self_s"), file=sys.stderr)
    for name, row in record["spans"].items():
        print(
            "%-40s %8d %10.4f %10.4f" % (name, row["calls"], row["total_s"], row["self_s"]),
            file=sys.stderr,
        )
    for name in record["absent"]:
        print("absent: %s" % name, file=sys.stderr)


def write_design():
    work = OUT / "work" / "write-design"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config = files.load_config(_write_config(work / "bank.yaml", FLAGSHIP))
    bank, _ = optimize.design(config)
    files.save_design(bank, DESIGN_FILE)
    print(
        "wrote %s: ripple %.3g dB, alias %.1f dB, converged %s"
        % (DESIGN_FILE.relative_to(ROOT), bank.ripple_db, bank.max_alias_db, bank.converged)
    )
    return 0 if bank.converged else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-design", action="store_true", help="write the design file anew")
    args = parser.parse_args(argv)
    if args.write_design:
        return write_design()
    if args.workload is None:
        parser.error("--workload is required")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}

    work = OUT / "work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    spec = WORKLOADS[args.workload]
    set_up = partial(Inputs, spec, args.seed, work)
    inputs = set_up()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "blas_threads": BLAS_THREADS}
    checks = Checks(inputs)
    if args.trace:
        values, trace_record, runners = per_layer(inputs, checks, args.seconds)
        record.update(trace_record)
        _print_spans(trace_record)
    else:
        runner = Runner(inputs, checks)
        values, record["samples"] = end_to_end(runner, args.seconds, set_up)
        runners = [runner]
    attempted = sum(s.attempted for s in runners)
    failed = sum(s.failed for s in runners)
    wrong = sum(s.wrong for s in runners)
    if set(values) != set(units):
        sys.exit("error: measured %s, declared %s" % (sorted(values), sorted(units)))
    result = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(values[name]), "unit": units[name]} for name in units},
    }
    record["result"] = result
    records = OUT / "records"
    records.mkdir(parents=True, exist_ok=True)
    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    (records / name).write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
