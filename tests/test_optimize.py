import dataclasses
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_equal
from pytest import raises as assert_raises

import oracles
from warpbank import optimize, transfer
from warpbank import (
    BankConfig,
    TransferTables,
    aliasing_transfer,
    design,
    envelope,
    error_function,
    find_extrema,
    flatness,
    frequency_grid,
    gradient,
    hessian,
    initial_prototype,
    inner_loop,
    objective,
    overall_transfer,
    prototype_response,
    select_all,
    to_db,
    update_weights,
)


def _fd_gradient(half, weights, tables, eps=1e-6):
    g = np.zeros(half.size)
    for i in range(half.size):
        hp = half.copy()
        hm = half.copy()
        hp[i] += eps
        hm[i] -= eps
        g[i] = (objective(hp, weights, tables) - objective(hm, weights, tables)) / (
            2 * eps
        )
    return g


def _fd_hessian(half, weights, tables, eps=1e-5):
    H = np.zeros((half.size, half.size))
    for i in range(half.size):
        hp = half.copy()
        hm = half.copy()
        hp[i] += eps
        hm[i] -= eps
        H[i] = (gradient(hp, weights, tables) - gradient(hm, weights, tables)) / (
            2 * eps
        )
    return H


def _random_problem(rng, channels, taps):
    sub = [int(s) for s in rng.integers(1, 5, channels)]
    config = BankConfig(
        channels=channels,
        order=2 * channels * taps,
        alpha=float(rng.uniform(-0.7, 0.7)),
        subsampling=sub,
        grid_points=24,
    )
    tables = TransferTables(config)
    half = rng.standard_normal(channels * taps) * 0.5
    weights = rng.uniform(0.1, 2.0, 24)
    return half, weights, tables


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(71)
    for channels, taps in ((2, 2), (4, 1), (2, 4)):
        half, weights, tables = _random_problem(rng, channels, taps)
        an = gradient(half, weights, tables)
        fd = _fd_gradient(half, weights, tables)
        denom = max(np.max(np.abs(an)), 1e-8)
        assert np.max(np.abs(an - fd)) / denom < 1e-6


def test_hessian_matches_finite_differences():
    rng = np.random.default_rng(73)
    for channels, taps in ((2, 2), (4, 1), (2, 4)):
        half, weights, tables = _random_problem(rng, channels, taps)
        an = hessian(half, weights, tables)
        fd = _fd_hessian(half, weights, tables)
        denom = max(np.max(np.abs(an)), 1e-8)
        assert np.max(np.abs(an - fd)) / denom < 1e-4


@pytest.mark.parametrize("block", [1, 5, 64])
def test_blocked_hessian_matches_unblocked_oracle(block):
    # grids of 24 and 300 points: ragged last blocks, and one block at 64
    rng = np.random.default_rng(1009)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimize, "_GRID_BLOCK", block)
        for channels, taps, points in ((2, 2, 24), (4, 2, 24), (8, 1, 300)):
            half, weights, tables = _random_problem(rng, channels, taps)
            if points != tables.omega.size:
                config = dataclasses.replace(tables.config, grid_points=points)
                tables = TransferTables(config)
                weights = rng.uniform(0.1, 2.0, points)
            got = hessian(half, weights, tables)
            want = oracles.derivatives(half, weights, tables.config, tables.omega)[2]
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@st.composite
def _evaluation_problems(draw):
    """(channels, taps, alpha, ratios, grid points, seed); the grid's last
    block of _GRID_BLOCK points is ragged."""
    channels = draw(st.integers(1, 6))
    taps = draw(st.integers(1, 6))
    alpha = draw(st.floats(-0.95, 0.95, exclude_min=True, exclude_max=True,
                           allow_subnormal=False))
    ratios = draw(st.lists(st.integers(1, 9), min_size=channels, max_size=channels))
    block = optimize._GRID_BLOCK
    points = block * draw(st.integers(0, 2)) + draw(st.integers(1, block - 1))
    return channels, taps, alpha, ratios, points, draw(st.integers(0, 2**32 - 1))


@given(_evaluation_problems())
@example((4, 2, 0.5783, [1, 1, 1, 1], 130, 7))
@example((22, 4, 0.5783, select_all(22, 0.5783).tolist(), 130, 11))
def test_evaluate_matches_complex_table_oracle(problem):
    # objective, gradient and Hessian of the planar DCT-IV-basis tables
    # against complex per-channel ua/us summed from the per-image response
    # vectors, each within 1e-12 of its max.  Taps up to 6 put columns in
    # all four quadrants of the DCT-IV fold and past its wrap; the flagship
    # geometry is an explicit example.  On some banks the alias images of
    # ua cancel (one channel with an even ratio keeps only odd taps at alpha
    # 0), which leaves ua with rounding of about eps max|us| in both routes;
    # the derivatives are quadratic in ua, so that tolerance grows by
    # kappa^2, kappa = max|us| / max|ua| where it exceeds 1
    channels, taps, alpha, ratios, points, seed = problem
    config = BankConfig(channels=channels, order=2 * channels * taps, alpha=alpha,
                        subsampling=ratios)
    rng = np.random.default_rng(seed)
    half = 0.5 * rng.standard_normal(channels * taps)
    weights = rng.uniform(0.1, 2.0, points)
    omega = np.sort(rng.uniform(0.0, np.pi, points))
    tables = TransferTables(config, omega)
    ua, us = oracles.complex_tables(config, omega)
    kappa = np.max(np.abs(us)) / np.max(np.abs(ua))
    want = oracles.derivatives(half, weights, config, omega)
    scales = [max(1.0, kappa) ** 2 * np.max(np.abs(w)) for w in want]
    for order in (0, 1, 2):
        got = optimize._evaluate(half, weights, tables, order)[:3]
        for i, (a, b) in enumerate(zip(got, want)):
            if i > order:
                assert a is None
            else:
                assert np.max(np.abs(a - b)) <= 1e-12 * scales[i], (order, i)


def _mid_bank():
    return BankConfig(channels=16, order=64, alpha=0.5,
                      subsampling=[6, 5, 4, 3] * 4, grid_points=2048)


def test_evaluate_memory_is_one_block():
    # an order-2 evaluation holds one (grid, order/2) gradient and one block
    # of the scaled table above the tables; a whole-table temporary is 4x over
    tables = TransferTables(_mid_bank())
    half = initial_prototype(tables.config).coeffs
    weights = np.ones(tables.omega.size)
    tracemalloc.start()
    try:
        got = optimize._evaluate(half, weights, tables, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < tables.ta.nbytes / 4
    want = oracles.derivatives(half, weights, tables.config, tables.omega)
    for a, b in zip(got, want):
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))


def test_hessian_is_symmetric():
    rng = np.random.default_rng(79)
    half, weights, tables = _random_problem(rng, 4, 2)
    H = hessian(half, weights, tables)
    assert_allclose(H, H.T, atol=1e-10 * max(1.0, np.max(np.abs(H))))


def test_derivatives_vanish_at_origin():
    # T is quadratic in h, so at h = 0 both derivative orders are exactly zero
    rng = np.random.default_rng(83)
    _, weights, tables = _random_problem(rng, 2, 2)
    zero = np.zeros(4)
    assert_equal(gradient(zero, weights, tables), np.zeros(4))
    assert_equal(hessian(zero, weights, tables), np.zeros((4, 4)))


def test_objective_matches_error_function():
    rng = np.random.default_rng(89)
    config = BankConfig(
        channels=4, order=16, alpha=0.3, subsampling=[2, 1, 1, 2], grid_points=33
    )
    tables = TransferTables(config)
    half = rng.standard_normal(8)
    weights = rng.uniform(0.0, 1.0, 33)
    err = error_function(half, tables.omega, config)
    assert_allclose(
        objective(half, weights, tables), np.dot(weights, err**2), rtol=1e-12
    )


def test_objective_single_point_value():
    # one grid point with weight 2, prototype rescaled so |T|^2 = 1.5: g = 0.5
    config = BankConfig(channels=2, order=8, alpha=0.2, grid_points=4)
    half = initial_prototype(config).coeffs
    omega = np.array([0.9])
    tables = TransferTables(config, omega)
    t = tables.overall(half)[0]
    scaled = half * (1.5 / abs(t) ** 2) ** 0.25
    g = objective(scaled, np.array([2.0]), tables)
    assert_allclose(g, 0.5, rtol=1e-9)


def test_inner_loop_fixed_point_at_origin():
    rng = np.random.default_rng(97)
    _, weights, tables = _random_problem(rng, 2, 2)
    h, iterations, trace = inner_loop(np.zeros(4), weights, tables)
    assert iterations == 0
    assert_equal(h, np.zeros(4))
    assert len(trace) == 1
    assert_allclose(trace[0], objective(np.zeros(4), weights, tables), rtol=1e-15)


def test_inner_loop_rejects_nonfinite_start():
    rng = np.random.default_rng(101)
    _, weights, tables = _random_problem(rng, 2, 2)
    bad = np.array([1.0, np.nan, 0.0, 0.0])
    assert_raises(ValueError, inner_loop, bad, weights, tables)


def test_inner_loop_descends():
    config = BankConfig(channels=2, order=8, alpha=0.0, subsampling=[2, 2])
    tables = TransferTables(config)
    rng = np.random.default_rng(103)
    h0 = initial_prototype(config).coeffs + 0.02 * rng.standard_normal(4)
    weights = np.ones(tables.omega.size)
    h, iterations, trace = inner_loop(h0, weights, tables)
    trace = np.asarray(trace)
    assert iterations >= 1
    assert np.all(np.diff(trace) <= 0)
    assert trace[-1] < trace[0]
    before = np.max(np.abs(error_function(h0, tables.omega, config)))
    after = np.max(np.abs(error_function(h, tables.omega, config)))
    assert after < before


def test_inner_loop_computes_only_used_hessians(monkeypatch):
    # one order-2 evaluation per Newton step: at the start, then after each
    # accepted step but the last, whether step_tol or the cap ends the loop
    config = BankConfig(channels=2, order=8, alpha=0.3, subsampling=[2, 2])
    tables = TransferTables(config)
    rng = np.random.default_rng(109)
    h0 = initial_prototype(config).coeffs + 0.05 * rng.standard_normal(4)
    weights = np.ones(tables.omega.size)
    evaluate = optimize._evaluate
    orders = []

    def counted(half, weights, tables, order=2, products=None):
        orders.append(order)
        return evaluate(half, weights, tables, order, products)

    monkeypatch.setattr(optimize, "_evaluate", counted)
    for cap in (50, 2):
        orders.clear()
        h, iterations, trace = inner_loop(h0, weights, tables, max_iterations=cap)
        assert iterations >= 2
        assert orders.count(2) == iterations, (cap, orders)
        # the trace is what full order-2 evaluations at each iterate give
        assert len(trace) == iterations + 1
        assert trace[-1] == evaluate(h, weights, tables, 2)[0]
    assert iterations == 2


def test_inner_loop_single_point_converges_fast():
    # a one-point grid makes g a quartic in one effective direction
    config = BankConfig(channels=2, order=8, alpha=0.3, grid_points=4)
    tables = TransferTables(config, np.array([0.0]))
    rng = np.random.default_rng(107)
    h0 = initial_prototype(config).coeffs + 0.05 * rng.standard_normal(4)
    h, iterations, trace = inner_loop(h0, np.array([1.0]), tables)
    assert iterations <= 6
    assert trace[-1] <= 1e-20


def test_find_extrema_monotone_ramp():
    a = np.linspace(0.0, 1.0, 50)
    ext = find_extrema(a)
    assert [i for i, _ in ext] == [0, 49]
    # the clamp raises the low endpoint to its neighbor
    assert_allclose([v for _, v in ext], [1.0, 1.0], atol=0)


def test_find_extrema_sine_ripple():
    omega = np.linspace(0.0, np.pi, 501)
    ext = find_extrema(np.abs(np.sin(5 * omega)))
    assert [i for i, _ in ext] == [0, 50, 150, 250, 350, 450, 500]
    assert_allclose([v for _, v in ext], np.ones(7), atol=1e-12)


def test_find_extrema_matches_reference_implementation():
    def reference(a):
        # plain restatement: peaks, then drop dips, then raise stragglers
        peaks = [0]
        for i in range(1, a.size - 1):
            if a[i] >= a[i - 1] and a[i] >= a[i + 1]:
                if peaks[-1] == i - 1 and a[i] == a[peaks[-1]]:
                    continue
                peaks.append(i)
        if peaks[-1] != a.size - 1:
            peaks.append(a.size - 1)
        vals = [a[i] for i in peaks]
        done = False
        while not done:
            done = True
            for j in range(1, len(peaks) - 1):
                if vals[j] < min(vals[j - 1], vals[j + 1]):
                    del peaks[j], vals[j]
                    done = False
                    break
        out = []
        for j, v in enumerate(vals):
            nb = [vals[i] for i in (j - 1, j + 1) if 0 <= i < len(vals)]
            out.append((peaks[j], max(v, min(nb))))
        return out

    rng = np.random.default_rng(109)
    for _ in range(25):
        a = np.abs(rng.standard_normal(rng.integers(5, 200)))
        # the rounded copy has ties, plateaus and equal non-adjacent peaks
        for b in (a, np.round(a, 1)):
            got = find_extrema(b)
            want = reference(b)
            assert [i for i, _ in got] == [i for i, _ in want]
            assert_allclose([v for _, v in got], [v for _, v in want], atol=1e-14)


def test_find_extrema_validation():
    assert_raises(ValueError, find_extrema, np.array([1.0]))
    assert_raises(ValueError, find_extrema, np.ones((3, 3)))


def test_envelope_interpolation():
    grid = np.linspace(0.0, np.pi, 5)
    env = envelope([(0, 1.0), (4, 3.0)], grid)
    assert_allclose(env, [1.0, 1.5, 2.0, 2.5, 3.0], atol=1e-14)
    # constant extrema give a constant envelope
    env = envelope([(0, 0.7), (2, 0.7), (4, 0.7)], grid)
    assert_allclose(env, 0.7, atol=0)
    # exact at the knots
    env = envelope([(0, 2.0), (1, 0.5), (4, 1.0)], grid)
    assert_allclose(env[[0, 1, 4]], [2.0, 0.5, 1.0], atol=0)


def test_flatness_values():
    assert flatness(np.full(9, 0.3)) == 0.0
    assert_allclose(flatness(np.array([1.0, 3.0])), 0.5, atol=0)
    assert flatness(np.zeros(4)) == 0.0


def test_flatness_is_zero_at_rounding_level():
    # peaks one ulp apart at rounding level are flat, whatever their spread;
    # a spread above the floor still counts
    low = 2.5e-12
    assert flatness(np.array([low, np.nextafter(low, 1.0), low])) == 0.0
    assert flatness(np.array([1e-16, 1e-10])) == 0.0
    assert flatness(np.array([1e-10, 2e-10])) > 0.3


def test_rounding_floor_keeps_bank_pass_counts(flagship):
    # the floor sits four decades below the flagship's |E|, so real banks
    # keep their outer passes: 1 for the flagship, 3 for the 8-channel side
    # bank of the benchmark
    report = flagship[2]
    assert report.converged and report.outer_iterations == 1
    config = BankConfig(channels=8, order=64, alpha=0.4, subsampling=select_all(8, 0.4))
    _, report = design(config)
    assert report.converged and report.outer_iterations == 3


def test_design_at_rounding_level_converges_in_one_pass():
    # with every ratio 1 this bank reaches T = 1 to rounding in its first
    # pass; the flag must not hinge on one-ulp differences between peaks
    config = BankConfig(channels=2, order=8, alpha=0.0, grid_points=128,
                        psi=1e-9, max_outer=2)
    bank, report = design(config)
    error = error_function(bank.half, frequency_grid(config), config)
    assert np.max(np.abs(error)) <= optimize._FLAT_FLOOR
    assert report.converged and report.outer_iterations == 1
    assert report.flatness == 0.0


def test_update_weights():
    w = update_weights(np.array([1.0, 1.0]), np.array([1.0, 2.0]), 1.0)
    assert_allclose(w, np.array([1.0, 2.0]) / np.sqrt(5.0), atol=1e-15)
    # constant envelope only renormalizes
    w = update_weights(np.array([3.0, 1.0]), np.array([2.0, 2.0]), 1.2)
    assert_allclose(w, np.array([3.0, 1.0]) / np.sqrt(10.0), atol=1e-15)
    assert_allclose(np.sqrt(np.sum(w * w)), 1.0, atol=1e-15)
    assert_raises(
        ValueError, update_weights, np.ones(3), np.zeros(3), 1.2
    )


def test_initial_prototype_shape_and_normalization():
    config = BankConfig(channels=8, order=64, alpha=0.5783)
    proto = initial_prototype(config)
    assert proto.coeffs.size == 32
    assert proto.channels == 8
    from warpbank import distortion_transfer

    assert_allclose(
        abs(distortion_transfer(proto.coeffs, 0.0, config)), 1.0, atol=1e-9
    )
    edge = abs(prototype_response(proto, np.pi / 16))
    assert abs(edge - 1.0 / np.sqrt(2.0)) < 0.01


def test_design_small_bank_improves_start():
    config = BankConfig(channels=4, order=32, alpha=0.0, subsampling=[4, 4, 4, 4])
    bank, report = design(config)
    assert report.converged
    h0 = initial_prototype(config).coeffs
    grid = np.linspace(0.0, np.pi, 512)
    before = np.max(np.abs(error_function(h0, grid, config)))
    after = np.max(np.abs(error_function(bank.half, grid, config)))
    assert after < before / 10.0
    assert bank.ripple_db < 0.01
    trace = np.asarray(report.objective_trace)
    assert trace[-1] < trace[0]


def test_design_loose_flatness_stops_first_pass():
    config = BankConfig(channels=4, order=32, alpha=0.0, psi=1.0)
    bank, report = design(config)
    assert report.outer_iterations == 1
    assert report.converged


def test_design_deterministic():
    config = BankConfig(channels=2, order=16, alpha=0.4, subsampling=[2, 2])
    first, _ = design(config)
    second, _ = design(config)
    assert_equal(first.half, second.half)


def test_design_example_published_ratios():
    # the area rule alone picks 40 for channel 0; this variant hand-raises it
    # to 56 and still reaches the sub-0.01 dB ripple target
    ratios = [56, 27, 20, 15, 12, 21, 18, 15, 13, 12,
              10, 9, 7, 6, 5, 5, 4, 3, 1, 1, 2, 3]
    config = BankConfig(
        channels=22, order=176, alpha=0.5783, subsampling=ratios,
        sample_rate_hz=16000,
    )
    bank, report = design(config)
    assert bank.ripple_db <= 0.01
    assert report.outer_iterations <= 20
    # channel 0 runs past its non-overlap bound here, so only the coherent
    # cancellation keeps aliasing down; no tight floor is asserted
    assert bank.max_alias_db < -40.0


def test_forced_outer_passes_do_not_raise_max_error():
    # the envelope reweighting drives toward minimax: with psi = 0 every pass
    # is forced, and max |E| on the design grid must not grow from one to the
    # next (each capped run returns the iterate after its last pass)
    config = BankConfig(channels=4, order=32, alpha=0.3, subsampling=[2, 2, 2, 2],
                        psi=0.0, max_outer=3)
    grid = frequency_grid(config)
    peaks = []
    for passes in range(1, config.max_outer + 1):
        bank, report = design(dataclasses.replace(config, max_outer=passes))
        assert report.outer_iterations == passes and not report.converged
        peaks.append(np.max(np.abs(error_function(bank.half, grid, config))))
    assert all(b <= a for a, b in zip(peaks, peaks[1:])), peaks


def test_design_reports_phase_seconds():
    config = BankConfig(channels=4, order=32, alpha=0.3, subsampling=[2, 2, 2, 2])
    start = time.perf_counter()
    _, report = design(config)
    wall = time.perf_counter() - start
    phases = report.phase_seconds
    assert set(phases) == {"tables", "inner", "metrics"}
    assert all(value >= 0.0 for value in phases.values())
    assert sum(phases.values()) <= wall


def _direct_alias_db(bank, config):
    return float(to_db(aliasing_transfer(bank.half, frequency_grid(config), config)).max())


def test_design_alias_matches_direct_route(flagship):
    # the design's alias is the peak of the aliasing_transfer curve on its
    # grid, the one warpbank evaluate prints: the flagship, the 8-channel
    # side bank, and a toy with channels of ratio 1, which have no image
    config, bank = flagship[:2]
    assert bank.max_alias_db == _direct_alias_db(bank, config)
    for config in (
        BankConfig(channels=8, order=64, alpha=0.4, subsampling=select_all(8, 0.4)),
        BankConfig(channels=4, order=32, alpha=-0.3, subsampling=[1, 3, 2, 1]),
    ):
        bank, _ = design(config)
        assert bank.max_alias_db == _direct_alias_db(bank, config)
        t_db = to_db(overall_transfer(bank.half, frequency_grid(config), config))
        assert bank.ripple_db == float(t_db.max() - t_db.min())


def test_design_alias_free_bank_reads_floor():
    config = BankConfig(channels=4, order=32, alpha=-0.3)
    bank, _ = design(config)
    assert bank.max_alias_db == -300.0


def test_design_takes_metrics_from_uniform_route(monkeypatch):
    # the shift pass runs only for initial_prototype's shift-0 scaling at
    # omega = 0, and the final ripple and alias take one uniform-route call
    # on the design grid
    passes, uniform, calls = transfer._transfer_parts, transfer._uniform_parts, []

    def counted_pass(proto, w, config, aliasing=True):
        calls.append(("pass", w.size, aliasing))
        return passes(proto, w, config, aliasing)

    def counted_uniform(proto, size, config, aliasing=True):
        calls.append(("uniform", size, aliasing))
        return uniform(proto, size, config, aliasing)

    monkeypatch.setattr(transfer, "_transfer_parts", counted_pass)
    monkeypatch.setattr(transfer, "_uniform_parts", counted_uniform)
    config = BankConfig(channels=4, order=32, alpha=0.3, subsampling=[2, 3, 2, 1])
    bank, _ = design(config)
    assert calls == [("pass", 1, False), ("uniform", config.grid_points, True)]
    assert bank.max_alias_db > -300.0
