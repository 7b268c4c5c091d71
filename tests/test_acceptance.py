"""Acceptance gate: one test per shipping criterion, tolerances pinned.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line per
criterion; each test also prints a `criterion N: ...` summary with the
measured numbers (visible with -s or on failure).
"""

import time

import numpy as np
from numpy.testing import assert_equal
from scipy.signal import lfilter

from warpbank import (
    BankConfig,
    BankDesign,
    TransferTables,
    analyze,
    channel_response_warped,
    envelope,
    find_extrema,
    flatness,
    gradient,
    hessian,
    initial_prototype,
    inner_loop,
    measure_response,
    modulate,
    objective,
    overall_transfer,
    select_all,
    select_ratio,
    synthesize,
    to_db,
    transfer_quadratic,
    update_weights,
    warp,
    warped_band,
)

BARK_ALPHA_16K = 0.5783

# channel 0 carries the plain rule value 40; fielded ratio sets are known to
# raise it to 56 by hand, trading alias margin for rate (see channel-0 note
# in the README)
GOLDEN_22 = [40, 27, 20, 15, 12, 21, 18, 15, 13, 12,
             10, 9, 7, 6, 5, 5, 4, 3, 1, 1, 2, 3]


def _report(num, ok, detail):
    print("criterion %d: %s (%s)" % (num, "PASS" if ok else "FAIL", detail))
    assert ok, detail


def test_criterion_1_subsampling_golden_vector():
    t0 = time.perf_counter()
    ratios = [int(s) for s in select_all(22, BARK_ALPHA_16K)]
    elapsed = time.perf_counter() - t0
    ok = elapsed < 1.0 and ratios == GOLDEN_22
    _report(1, ok, "%.4f s, ratios %s" % (elapsed, ratios))


def test_criterion_2_worked_band_example():
    lo, hi = warped_band(3, 22, BARK_ALPHA_16K)
    ratio, index = select_ratio(lo, hi)
    ok = (
        abs(lo - 0.0122) <= 0.0005
        and abs(hi - 0.0316) <= 0.0005
        and index == 1
        and ratio == 15
    )
    _report(
        2, ok, "f_lower %.7f, f_upper %.7f, band %d, ratio %d" % (lo, hi, index, ratio)
    )


def test_criterion_3_flagship_design(flagship):
    config, bank, report, elapsed = flagship
    initial = initial_prototype(config).coeffs
    t0 = TransferTables(config).overall(initial)
    initial_ripple = float(np.ptp(to_db(t0)))
    checks = {
        "grid": config.grid_points >= 1408,
        "time": elapsed <= 600.0,
        "ripple": bank.ripple_db <= 0.01,
        "initial": 0.05 <= initial_ripple <= 0.3,
        "alias": bank.max_alias_db <= -75.0,
        "outer": bank.outer_iterations <= 20,
    }
    _report(
        3,
        all(checks.values()),
        "%.1f s, ripple %.6f dB (initial %.3f dB), alias %.1f dB, "
        "%d outer, grid %d%s"
        % (
            elapsed,
            bank.ripple_db,
            initial_ripple,
            bank.max_alias_db,
            bank.outer_iterations,
            config.grid_points,
            "" if all(checks.values()) else ", failed: "
            + ",".join(k for k, v in checks.items() if not v),
        ),
    )


def test_criterion_4_quadratic_form_oracle():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(200):
        channels = (2, 4, 8)[i % 3]
        taps = int(rng.integers(1, 3))
        half = rng.standard_normal(channels * taps)
        config = BankConfig(
            channels=channels,
            order=2 * half.size,
            alpha=float(rng.uniform(-0.8, 0.8)),
            subsampling=[int(s) for s in rng.integers(1, 7, channels)],
        )
        omega = float(rng.uniform(0.0, np.pi))
        t_quad = half @ transfer_quadratic(omega, config) @ half
        t_direct = overall_transfer(half, omega, config)
        rel = abs(t_quad - t_direct) / max(abs(t_direct), 1e-6)
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 30.0
    _report(4, ok, "worst relative error %.3e, %.1f s" % (worst, elapsed))


def test_criterion_5_derivative_oracle():
    rng = np.random.default_rng(2025)
    worst_g, worst_h = 0.0, 0.0
    for _ in range(20):
        channels = int(rng.choice([1, 2, 4]))
        taps = int(rng.integers(1, 8 // channels + 1))
        n2 = channels * taps  # order = 2*n2 <= 16
        config = BankConfig(
            channels=channels,
            order=2 * n2,
            alpha=float(rng.uniform(-0.7, 0.7)),
            subsampling=[int(s) for s in rng.integers(1, 4, channels)],
            grid_points=16,
        )
        tables = TransferTables(config)
        half = rng.standard_normal(n2) * 0.5
        weights = rng.uniform(0.1, 1.0, 16)
        an_g = gradient(half, weights, tables)
        an_h = hessian(half, weights, tables)
        eps = 1e-6
        fd_g = np.zeros(n2)
        for i in range(n2):
            hp, hm = half.copy(), half.copy()
            hp[i] += eps
            hm[i] -= eps
            fd_g[i] = (
                objective(hp, weights, tables) - objective(hm, weights, tables)
            ) / (2 * eps)
        eps = 1e-5
        fd_h = np.zeros((n2, n2))
        for i in range(n2):
            hp, hm = half.copy(), half.copy()
            hp[i] += eps
            hm[i] -= eps
            fd_h[i] = (
                gradient(hp, weights, tables) - gradient(hm, weights, tables)
            ) / (2 * eps)
        worst_g = max(
            worst_g, np.max(np.abs(an_g - fd_g)) / max(np.max(np.abs(an_g)), 1e-8)
        )
        worst_h = max(
            worst_h, np.max(np.abs(an_h - fd_h)) / max(np.max(np.abs(an_h)), 1e-8)
        )
    ok = worst_g <= 1e-6 and worst_h <= 1e-4
    _report(5, ok, "gradient %.3e, hessian %.3e relative" % (worst_g, worst_h))


def test_criterion_6_unwarped_degeneration():
    rng = np.random.default_rng(2026)
    # the warp collapses to the identity
    omega = np.linspace(0.0, np.pi, 1024)
    warp_err = float(np.max(np.abs(warp(omega, 0.0) - omega)))

    # warped channel responses collapse to plain transforms of the rows
    from warpbank import PrototypeHalf

    half = PrototypeHalf(rng.standard_normal(16), 4)
    filters = modulate(half)
    probe = np.linspace(0.0, np.pi, 65)
    ebase = np.exp(-1j * np.outer(probe, np.arange(half.order)))
    resp_err = 0.0
    for k in range(4):
        got = channel_response_warped(half, k, probe, 0.0)
        resp_err = max(resp_err, float(np.max(np.abs(got - ebase @ filters.analysis[k]))))

    # the streaming engine collapses to a plain FIR multirate chain
    config = BankConfig(channels=4, order=32, alpha=0.0, subsampling=[4, 3, 2, 1])
    proto = initial_prototype(config).coeffs
    design = BankDesign(proto, config, 0.0, -300.0, 0, True)
    filters = modulate(design.prototype_half())
    x = rng.standard_normal(500)
    frames = analyze(design, x)
    run_err = 0.0
    ref_frames = []
    for k in range(4):
        s = int(design.subsampling[k])
        ref = lfilter(filters.analysis[k], 1.0, x)[::s]
        ref_frames.append(ref)
        run_err = max(run_err, float(np.max(np.abs(frames[k].samples - ref))))
    out = synthesize(design, frames)
    length = out.size
    ref_out = np.zeros(length)
    for k in range(4):
        s = int(design.subsampling[k])
        u = np.zeros(length)
        u[: ref_frames[k].size * s : s] = ref_frames[k] * s
        ref_out += lfilter(filters.synthesis[k], 1.0, u)
    run_err = max(run_err, float(np.max(np.abs(out - ref_out))))

    ok = warp_err <= 1e-15 and resp_err <= 1e-10 and run_err <= 1e-10
    _report(
        6,
        ok,
        "warp %.1e, responses %.1e, runtime %.1e" % (warp_err, resp_err, run_err),
    )


def test_criterion_7_probe_measurement(flagship):
    config, bank, _, _ = flagship
    probes = np.linspace(0.05, np.pi - 0.05, 50)
    measured = measure_response(bank, probes)
    analytic = to_db(overall_transfer(bank.half, probes, config))
    worst = float(np.max(np.abs(measured - analytic)))
    ok = worst <= 0.1
    _report(7, ok, "worst probe deviation %.2e dB over 50 probes" % worst)


def test_criterion_8_optimizer_monotone_and_weights(flagship):
    _, _, report, _ = flagship

    def segments_monotone(rep):
        trace = np.asarray(rep.objective_trace)
        start = 0
        for count in rep.inner_iterations:
            seg = trace[start : start + count + 1]
            if np.any(np.diff(seg) > 0):
                return False
            start += count + 1
        return start == trace.size

    toy_config = BankConfig(channels=4, order=32, alpha=0.3, subsampling=[2, 2, 2, 2])
    from warpbank import design as run_design

    _, toy_report = run_design(toy_config)
    mono = segments_monotone(report) and segments_monotone(toy_report)

    # replay a toy outer loop and watch the weight vector invariants
    tables = TransferTables(toy_config)
    h = initial_prototype(toy_config).coeffs
    weights = np.ones(tables.omega.size)
    weights_ok = True
    for _ in range(4):
        h, _, _ = inner_loop(h, weights, tables)
        t = tables.overall(h)
        err = np.abs(t.real**2 + t.imag**2 - 1.0)
        ext = find_extrema(err)
        beta = envelope(ext, tables.omega)
        if flatness(beta) <= toy_config.psi:
            break
        weights = update_weights(weights, beta, toy_config.theta)
        norm = float(np.sqrt(np.sum(weights**2)))
        if np.any(weights < 0.0) or not norm > 0.0:
            weights_ok = False
            break
    ok = mono and weights_ok
    _report(
        8,
        ok,
        "trace segments monotone: %s, weights nonnegative with positive norm: %s"
        % (mono, weights_ok),
    )
