import ast
import inspect
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from pytest import raises as assert_raises

import oracles
from oracles import (
    bifrequency_cells,
    bifrequency_per_shift,
    complex_tables,
    cosine_basis,
    dct4,
    pair_angles,
    response_vector,
    transfer_parts,
)
from warpbank import (
    BankConfig,
    PrototypeHalf,
    TransferTables,
    aliasing_bound,
    aliasing_transfer,
    bifrequency_map,
    channel_response_warped,
    distortion_transfer,
    error_function,
    frequency_grid,
    initial_prototype,
    overall_transfer,
    select_all,
    to_db,
    transfer_quadratic,
)
from warpbank import allpass, files, modulation, optimize, streaming, transfer
from warpbank.allpass import allpass_phase


def _random_case(rng):
    channels = int(rng.choice([2, 4, 8]))
    taps = int(rng.integers(1, 3))
    half = rng.standard_normal(channels * taps)
    alpha = float(rng.uniform(-0.8, 0.8))
    sub = [int(s) for s in rng.integers(1, 7, channels)]
    config = BankConfig(
        channels=channels, order=2 * half.size, alpha=alpha, subsampling=sub
    )
    return half, config


@st.composite
def _banks(draw, max_ratio=6):
    """The bank space of _random_case, drawn by hypothesis."""
    channels = draw(st.sampled_from([2, 4, 8]))
    taps = draw(st.integers(1, 2))
    coeffs = st.floats(-3.0, 3.0, allow_subnormal=False)
    half = np.array(draw(st.lists(coeffs, min_size=channels * taps,
                                  max_size=channels * taps)))
    alpha = draw(st.floats(-0.8, 0.8, allow_subnormal=False))
    sub = draw(st.lists(st.integers(1, max_ratio), min_size=channels, max_size=channels))
    config = BankConfig(
        channels=channels, order=2 * half.size, alpha=alpha, subsampling=sub
    )
    return half, config


def test_frequency_grid_spans_half_band():
    config = BankConfig(channels=2, order=8, alpha=0.0, grid_points=17)
    grid = frequency_grid(config)
    assert grid.size == 17
    assert grid[0] == 0.0
    assert_allclose(grid[-1], np.pi, atol=0)


def test_config_defaults():
    config = BankConfig(channels=4, order=32, alpha=0.5)
    assert list(config.subsampling) == [1, 1, 1, 1]
    assert config.grid_points == max(8 * 32, 1024)
    assert config.theta == 1.2
    assert config.psi == 0.6


@pytest.mark.parametrize(
    "field, value",
    [
        ("channels", 4.9),
        ("order", 32.7),
        ("grid_points", 100.9),
        ("subsampling", [2.5, 2, 2, 2]),
        ("alpha", "0.3"),
        ("max_inner", 0),
        ("max_inner", -1),
        ("max_inner", 2.5),
        ("max_outer", 0),
        ("max_outer", np.inf),
        ("theta", -0.1),
        ("theta", np.inf),
        ("psi", -1.0),
        ("psi", np.nan),
        ("kaiser_beta", -9.0),
        ("kaiser_beta", np.inf),
        ("step_tol", -1e-10),
        ("step_tol", np.nan),
        ("sample_rate_hz", "fast"),
        ("sample_rate_hz", 0),
        ("sample_rate_hz", -16000),
        ("sample_rate_hz", np.inf),
        ("sample_rate_hz", True),
    ],
)
def test_config_rejects_out_of_range(field, value):
    kwargs = {"channels": 4, "order": 32, "alpha": 0.3, field: value}
    with assert_raises(ValueError, match=field):
        BankConfig(**kwargs)


def test_config_accepts_range_edges():
    config = BankConfig(
        channels=4, order=32, alpha=0.3, max_inner=1, max_outer=1, theta=0,
        psi=0, kaiser_beta=0, step_tol=0, sample_rate_hz=44100.0,
    )
    assert (config.max_inner, config.max_outer, config.psi) == (1, 1, 0.0)
    assert config.sample_rate_hz == 44100.0


def test_modulation_angles_trivial():
    g1, g2 = pair_angles(0.0, 0, 2, 0.0)
    assert_allclose([g1, g2], [-np.pi / 4, np.pi / 4], atol=1e-15)
    g1, g2 = pair_angles(np.pi, 0, 2, 0.0)
    assert_allclose([g1, g2], [3 * np.pi / 4, 5 * np.pi / 4], atol=1e-12)


def test_modulation_angles_composition():
    # shifted frequency maps through the warp before the channel offset
    w = 0.3 + 2.0 * np.pi * 2 / 5
    z = np.exp(-1j * w)
    nu = -np.angle((z - 0.5783) / (1.0 - 0.5783 * z))
    c = np.pi * 3.5 / 22.0
    g1, g2 = pair_angles(w, 3, 22, 0.5783)
    assert_allclose([g1, g2], [nu - c, nu + c], atol=1e-12)


def test_response_vectors_reproduce_channel_responses():
    rng = np.random.default_rng(31)
    half, config = _random_case(rng)
    proto = PrototypeHalf(half, config.channels)
    omega = rng.uniform(0.0, np.pi, 9)
    for k in range(config.channels):
        for l in range(config.subsampling[k]):
            u = response_vector(omega, l, k, config)
            want = oracles.channel_response(
                proto, k, omega + 2.0 * np.pi * l / config.subsampling[k], config.alpha
            )
            assert_allclose(u @ half, want, atol=1e-10)
        u = response_vector(omega, 0, k, config, synthesis=True)
        want = oracles.channel_response(proto, k, omega, config.alpha, synthesis=True)
        assert_allclose(u @ half, want, atol=1e-10)


def test_quadratic_form_matches_direct_sum():
    rng = np.random.default_rng(37)
    for _ in range(12):
        half, config = _random_case(rng)
        omega = float(rng.uniform(0.0, np.pi))
        U = transfer_quadratic(omega, config)
        t_quad = half @ U @ half
        t_direct = overall_transfer(half, omega, config)
        assert abs(t_quad - t_direct) <= 1e-9 * max(1.0, abs(t_direct))


@st.composite
def _uniform_cases(draw):
    """(half, config, size): 1-6 channels, order 2mM, alpha in (-0.95,
    0.95), ratios 1-9 that hold a 1 and one of 3 or more, whose bins S g mod
    K wrap past K/2 (or are all 1), and a uniform grid of 2-300 points."""
    channels = draw(st.integers(1, 6))
    taps = draw(st.integers(1, 3))
    coeffs = st.floats(-3.0, 3.0, allow_subnormal=False)
    half = np.array(draw(st.lists(coeffs, min_size=channels * taps,
                                  max_size=channels * taps)))
    assume(np.any(half != 0.0))
    if draw(st.booleans()):
        sub = [1] * channels
    else:
        rest = draw(st.lists(st.integers(1, 9), min_size=channels, max_size=channels))
        sub = draw(st.permutations(([draw(st.integers(3, 9)), 1] + rest)[:channels]))
    alpha = draw(st.floats(-0.95, 0.95, exclude_min=True, exclude_max=True,
                           allow_subnormal=False))
    config = BankConfig(channels=channels, order=2 * half.size, alpha=alpha,
                        subsampling=sub)
    return half, config, draw(st.integers(2, 300))


@given(_uniform_cases())
def test_uniform_route_matches_per_image_oracle(case):
    # on np.linspace(0, pi, G) the coherent curves come from the channels'
    # impulse responses, within the shift-pass test's 1e-12 of scale of the
    # per-image oracle, the scale taken over 257 points of the band as well,
    # so that a grid of 2 points where every product vanishes has one; the
    # public curves take that route, and a bank of ratios 1 has an alias of
    # exactly 0
    half, config, size = case
    proto = PrototypeHalf(half, config.channels)
    grid = np.linspace(0.0, np.pi, size)
    want = transfer_parts(proto, grid, config)
    band = transfer_parts(proto, np.linspace(0.0, np.pi, 257), config)
    scale = max(max(np.abs(p[0] + p[1]).max(), np.abs(p[0]).max(), p[2].max())
                for p in (want, band))
    got = transfer._uniform_parts(proto, size, config)
    for g, w in zip(got, want):
        assert np.max(np.abs(g - w)) <= 1e-12 * scale
    uniform, sizes = transfer._uniform_parts, []

    def counted(proto, size, config, aliasing=True):
        sizes.append(size)
        return uniform(proto, size, config, aliasing)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transfer, "_uniform_parts", counted)
        routes = (distortion_transfer, aliasing_transfer, overall_transfer, error_function)
        dist, alias, overall, error = [f(half, grid, config) for f in routes]
    assert sizes == [size] * len(routes)
    assert_array_equal(dist, got[0])
    assert_array_equal(alias, got[1])
    assert_array_equal(overall, got[0] + got[1])
    assert_array_equal(error, overall.real**2 + overall.imag**2 - 1.0)
    if max(config.subsampling) == 1:
        assert np.all(got[1] == 0.0)


@st.composite
def _image_cases(draw):
    """(half, config, size, outputs, budget): 1-6 channels, order 2mM, alpha
    in (-0.95, 0.95), a uniform grid of 2-300 points (2 and 3 drawn often),
    ratios 1-40 that hold one coprime to K = 2(size - 1) and one above the
    grid's size where 40 allows, an out-grid of 2-40 points and a block
    budget from below one row of the kernel up to the default."""
    channels = draw(st.integers(1, 6))
    taps = draw(st.integers(1, 3))
    coeffs = st.floats(-3.0, 3.0, allow_subnormal=False)
    half = np.array(draw(st.lists(coeffs, min_size=channels * taps,
                                  max_size=channels * taps)))
    assume(np.any(half != 0.0))
    size = draw(st.sampled_from([2, 3]) | st.integers(2, 300))
    K = 2 * (size - 1)
    coprime = draw(st.sampled_from([r for r in range(3, 41) if math.gcd(r, K) == 1]))
    above = draw(st.integers(min(size + 1, 40), 40))
    rest = draw(st.lists(st.integers(1, 40), min_size=channels, max_size=channels))
    sub = draw(st.permutations(([coprime, above] + rest)[:channels]))
    alpha = draw(st.floats(-0.95, 0.95, exclude_min=True, exclude_max=True,
                           allow_subnormal=False))
    config = BankConfig(channels=channels, order=2 * half.size, alpha=alpha,
                        subsampling=sub)
    budget = draw(st.sampled_from([1, 600, 20000, transfer._PASS_BYTES]))
    return half, config, size, draw(st.integers(2, 40)), budget


@given(_image_cases())
@example((np.ones(2), BankConfig(channels=1, order=4, alpha=0.0, subsampling=[3]), 2, 2, 1))
def test_image_spectra_and_their_callers_match_per_image_oracle(case):
    # on np.linspace(0, pi, G) the kernel gives every lead l0 < m of a
    # channel once, its row holding the DTFT of the channel's response at
    # 2 pi q/K + 2 pi l0/S for every q < K; aliasing_bound and the
    # bifrequency cells read it with no shift pass, within 1e-12 of scale of
    # the per-image oracle (the scale taken over 257 points of the band as
    # well, so that a grid of 2 points where every product vanishes has
    # one), and the map's zeros are where the oracle's are
    half, config, size, outputs, budget = case
    proto = PrototypeHalf(half, config.channels)
    grid = np.linspace(0.0, np.pi, size)
    out_grid = np.linspace(0.0, np.pi, outputs)
    K = 2 * (size - 1)
    band = np.linspace(0.0, np.pi, 257)
    want = transfer_parts(proto, grid, config)
    parts = transfer_parts(proto, band, config)
    scale = max(max(np.abs(p[0] + p[1]).max(), np.abs(p[0]).max(), p[2].max())
                for p in (want, parts))
    cells, hits = bifrequency_cells(proto, config, grid, out_grid)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transfer, "_PASS_BYTES", budget)
        mp.setattr(transfer, "_shift_pass", None)
        # a budget below the responses' bytes would send the callers to the
        # shift pass; the grid alone picks the route here, so that the
        # kernels run their blocks at every budget
        mp.setattr(transfer, "_uniform", lambda w, config: True)
        h = transfer._impulse_responses(proto, config)[0]
        for k, S in enumerate(config.subsampling.tolist()):
            m = S // math.gcd(K, S)
            q = 2.0 * np.pi * np.arange(K) / K
            rows = {}
            for leads, z in transfer._image_spectra(h[k], S, size):
                assert z.shape == (leads.size, K)
                rows.update(zip(leads.tolist(), z))
            assert sorted(rows) == list(range(m))
            at = q + 2.0 * np.pi * np.arange(m)[:, None] / S
            exact = oracles.channel_response(proto, k, at, config.alpha)
            row_scale = max(np.abs(exact).max(), np.abs(
                oracles.channel_response(proto, k, band, config.alpha)).max())
            got = np.array([rows[lead] for lead in range(m)])
            assert np.max(np.abs(got - exact)) <= 1e-12 * row_scale
        bound = aliasing_bound(half, grid, config)
        mp.setattr(transfer, "to_db", lambda c: c)  # the cells, not dB
        got = bifrequency_map(half, config, grid, out_grid)
    assert np.max(np.abs(bound - want[2])) <= 1e-12 * scale
    # cells that are all rounding (the example's 2-point grid, whose images
    # cancel) take the band's scale instead
    top = np.abs(cells).max()
    cell_scale = top if top > 1e-12 * scale else scale
    decided = (hits == 0) | (np.abs(cells) > 1e-12 * cell_scale)
    assert_array_equal((got != 0)[decided], (cells != 0)[decided])
    assert np.max(np.abs(got - cells)) <= 1e-12 * cell_scale


@given(_banks())
def test_overall_is_distortion_plus_aliasing(case):
    half, config = case
    omega = np.linspace(0.0, np.pi, 33)
    t = distortion_transfer(half, omega, config) + aliasing_transfer(
        half, omega, config
    )
    overall = overall_transfer(half, omega, config)
    assert_allclose(t, overall, atol=1e-14)
    assert_allclose(t, TransferTables(config, omega).overall(half), atol=1e-9)
    assert_allclose(error_function(half, omega, config), np.abs(overall) ** 2 - 1.0,
                    atol=1e-12)


def test_no_aliasing_without_subsampling():
    rng = np.random.default_rng(43)
    half = rng.standard_normal(8)
    config = BankConfig(channels=4, order=16, alpha=0.5783)
    omega = np.linspace(0.0, np.pi, 17)
    assert_allclose(aliasing_transfer(half, omega, config), 0.0, atol=0)
    assert_allclose(aliasing_bound(half, omega, config), 0.0, atol=0)


def test_single_channel_quadratic_is_rank_one():
    config = BankConfig(channels=1, order=6, alpha=0.4)
    omega = 0.7
    ua = response_vector(omega, 0, 0, config)
    us = response_vector(omega, 0, 0, config, synthesis=True)
    assert_allclose(transfer_quadratic(omega, config), np.outer(ua, us), atol=1e-12)


@given(_banks())
def test_aliasing_bound_dominates_coherent_sum(case):
    half, config = case
    omega = np.linspace(0.0, np.pi, 65)
    coherent = np.abs(aliasing_transfer(half, omega, config))
    bound = aliasing_bound(half, omega, config)
    assert np.all(coherent <= bound + 1e-12)


@given(st.integers(1, 40), st.integers(1, 8))
def test_split_weights_factor_through_dct4(channels, taps):
    # the cosine modulation is a DCT-IV: every column of wc and ws is exactly
    # a signed column of C = wc[:, :M], C C^T = M I, and each column of C is
    # picked taps times by either weight; the closed forms pin the folds
    # and signs, past the first wrap of the angle at taps > 4
    n2 = channels * taps
    wc, ws = transfer._split_weights(np.ones(n2), channels)
    C = wc[:, :channels]
    # the oracle's angles reach 40 pi unreduced, so it holds to about 1e-13
    assert_allclose(C, dct4(channels), rtol=0, atol=1e-13)
    assert np.max(np.abs(C @ C.T - channels * np.eye(channels))) <= 1e-13 * channels
    _, sc, ss = transfer._dct4_split(n2, channels)
    for w, select in ((wc, sc), (ws, ss)):
        S = np.rint(C.T @ w / channels)
        assert np.all(np.isin(S, (-1.0, 0.0, 1.0)))
        assert_array_equal(np.abs(S).sum(axis=0), np.ones(n2))
        assert_array_equal(np.abs(S).sum(axis=1), np.full(channels, taps))
        assert_array_equal(C @ S, w)
        assert_array_equal(select, S)
    k, i = np.arange(channels)[:, None], np.arange(n2)
    angle = np.pi * ((2 * k + 1) * (2 * i + 1) % (8 * channels)) / (4 * channels)
    assert_allclose(wc, np.sqrt(2.0) * np.cos(angle), rtol=0, atol=1e-14)
    assert_allclose(ws, np.sqrt(2.0) * (-1.0) ** (k + i) * np.sin(angle), rtol=0, atol=1e-14)


@given(_banks(max_ratio=12), st.integers(1, 30))
def test_batched_tables_match_per_image_vectors(case, points):
    # blocks of at least `points` grid points, each with every shift in one
    # fill of the harmonics; a block that does not divide the 37-point grid
    # leaves a ragged last block
    half, config = case
    omega = np.linspace(0.0, np.pi, 37)
    table = transfer._shift_table(config.subsampling)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return harmonics(*args, **kwargs)

    harmonics = modulation._harmonics
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transfer, "_TABLE_POINTS", points)
        mp.setattr(modulation, "_harmonics", counted)
        tables = TransferTables(config, omega)
    # one fill per block, and none more for the synthesis factors, which
    # come from shift 0; the harmonics and their real planes take 32 bytes
    # per entry
    block = max(points, tables.ta.nbytes // 32 // (32 * (config.order // 2) * len(table)))
    assert len(calls) == -(-omega.size // block)
    _assert_canonical_tables(tables, config, omega)
    synthesis = tables.synthesis_vectors()
    rows = [3, 0, 36]
    assert_array_equal(tables.synthesis_vectors(rows), synthesis[rows])


def _assert_canonical_tables(tables, config, omega, rows=slice(None)):
    """ta and synthesis_vectors at the grid rows are the per-image sums of
    response_vector in the DCT-IV basis, C^T ua and C^T us / M, each within
    1e-12 of its max; us_k = sum_c C[k, c] us'_c by C C^T = M I."""
    ua, us = complex_tables(config, omega[rows])
    C = dct4(config.channels)
    want_a = np.einsum("kc,gkn->gcn", C, ua)
    want_s = np.einsum("kc,gkn->gcn", C, us) / config.channels
    got_a = tables.ta[rows, 0] + 1j * tables.ta[rows, 1]
    got_s = tables.synthesis_vectors(rows)
    assert np.max(np.abs(got_a - want_a)) <= 1e-12 * np.max(np.abs(want_a))
    assert np.max(np.abs(got_s - want_s)) <= 1e-12 * np.max(np.abs(want_s))


@pytest.mark.parametrize("grid", [256, 2048])
def test_transfer_tables_build_memory_is_one_batch(grid):
    # tracemalloc peak of the build above the tables themselves stays within
    # 12 MiB, and within half of ua for small tables; a whole ua temporary
    # breaks either bound
    config = BankConfig(channels=16, order=64, alpha=0.5,
                        subsampling=[6, 5, 4, 3] * 4, grid_points=grid)
    turns, blocks = transfer._half_turns, []

    def recorded(*args, **kwargs):
        blocks.append(turns(*args, **kwargs))
        return blocks[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transfer, "_half_turns", recorded)
        tracemalloc.start()
        try:
            tables = TransferTables(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    own = _table_bytes(tables)
    assert peak - own <= min(12 << 20, tables.ta.nbytes // 2)
    # rows on both sides of the first grid-block edge are in the DCT-IV basis
    edge = blocks[0].shape[1]
    assert 1 < edge < grid
    _assert_canonical_tables(tables, config, tables.omega, [0, edge - 1, edge, grid - 1])


@pytest.mark.parametrize("channels, order, alpha, grid", [
    (22, 176, 0.5783, 384),  # the flagship geometry on a small grid
    (8, 64, 0.4, None),  # the side bank on its design grid
])
def test_transfer_tables_build_is_never_the_design_peak(channels, order, alpha, grid):
    # the build holds no more above its tables than one order-2 evaluation
    # of the optimizer holds above them, so it never sets the peak of design()
    config = BankConfig(channels=channels, order=order, alpha=alpha,
                        subsampling=select_all(channels, alpha), grid_points=grid)
    half = initial_prototype(config).coeffs
    tracemalloc.start()
    try:
        tables = TransferTables(config)
        build = tracemalloc.get_traced_memory()[1] - _table_bytes(tables)
        weights = np.ones(tables.omega.size)
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        optimize._evaluate(half, weights, tables, 2)
        evaluate = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert build <= evaluate


def test_transfer_tables_small_grid_blocks_hold_several_points():
    # 1/32 of ta is below one point's basis over every shift on a small grid;
    # a block still takes _TABLE_POINTS points, with every shift in one batch
    config = BankConfig(channels=22, order=176, alpha=0.5783,
                        subsampling=select_all(22, 0.5783), grid_points=256)
    turns, items = transfer._half_turns, []

    def recorded(*args, **kwargs):
        items.append(turns(*args, **kwargs))
        return items[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transfer, "_half_turns", recorded)
        TransferTables(config)
    shifts = len(transfer._shift_table(config.subsampling))
    assert len(items) == 256 // transfer._TABLE_POINTS
    for u in items:
        assert u.shape == (shifts, transfer._TABLE_POINTS)


def _table_bytes(tables):
    return sum(v.nbytes for v in vars(tables).values() if isinstance(v, np.ndarray))


@pytest.mark.parametrize("grid", [24, 1408])
def test_transfer_tables_hold_ua_once(grid):
    # the analysis side is one table the size of ua, mixed into the DCT-IV
    # basis in place, and the synthesis side is kept as factors of
    # O(grid * order) bytes, not as a second table the size of ua
    config = BankConfig(channels=22, order=176, alpha=0.5783,
                        subsampling=[4, 3] * 11, grid_points=grid)
    tables = TransferTables(config)
    assert tables.ta.nbytes == 16 * grid * config.channels * config.order // 2
    assert _table_bytes(tables) <= tables.ta.nbytes + 64 * grid * config.order // 2
    _assert_canonical_tables(tables, config, tables.omega, [0, grid // 2, grid - 1])
    # the indexed selections are the dense ones
    dense = np.zeros((2, config.channels, config.order // 2))
    np.put_along_axis(dense, tables.columns, tables.signs, axis=2)
    assert_array_equal(dense, [tables.sc, tables.ss])


def test_transfer_tables_match_pointwise_routines():
    rng = np.random.default_rng(53)
    half, config = _random_case(rng)
    omega = np.linspace(0.0, np.pi, 21)
    tables = TransferTables(config, omega)
    assert tables.ta.shape == (21, 2, config.channels, config.order // 2)
    assert tables.synthesis_vectors().shape == (21, config.channels, config.order // 2)
    assert_allclose(
        tables.overall(half), overall_transfer(half, omega, config), atol=1e-9
    )
    A, B = tables.channel_products(half)
    assert_allclose((A * B).sum(axis=1), tables.overall(half), atol=1e-12)


def test_transfer_tables_check_omega():
    config = BankConfig(channels=2, order=8, alpha=0.3, subsampling=[2, 1])
    bad = (0.5, [[0.1, 0.2]], [], [0.1, np.nan], [np.inf], [0.1 + 0.2j])
    for omega in bad:
        with assert_raises(ValueError, match="omega"):
            TransferTables(config, omega)
    assert TransferTables(config, [0.1, 0.2]).ta.shape == (2, 2, 2, 4)
    assert transfer_quadratic(0.4, config).shape == (4, 4)


def test_error_function_definition():
    rng = np.random.default_rng(59)
    half, config = _random_case(rng)
    omega = np.linspace(0.0, np.pi, 33)
    t = overall_transfer(half, omega, config)
    assert_allclose(error_function(half, omega, config), np.abs(t) ** 2 - 1.0,
                    atol=1e-12)


def test_error_vanishes_after_unit_rescale():
    # T is quadratic in the prototype, so |t|^(-1/2) scaling puts |T|^2 at 1
    config = BankConfig(channels=4, order=32, alpha=0.3, subsampling=[2, 2, 2, 2])
    half = initial_prototype(config).coeffs
    omega = 0.9
    t = overall_transfer(half, omega, config)
    scaled = half / np.sqrt(abs(t))
    assert abs(error_function(scaled, omega, config)) < 1e-10


def test_longer_prototypes_reduce_reconstruction_error():
    maxima = []
    for order in (16, 32, 64):
        config = BankConfig(channels=4, order=order, alpha=0.3)
        half = initial_prototype(config).coeffs
        omega = np.linspace(0.0, np.pi, 512)
        maxima.append(np.max(np.abs(error_function(half, omega, config))))
    assert maxima[0] > maxima[1] > maxima[2]


def test_to_db_floor():
    assert to_db(0.0) == -300.0
    assert_allclose(to_db(1.0), 0.0, atol=0)
    assert_allclose(to_db(10.0 ** (-400 / 20.0)), -300.0, atol=0)
    assert_allclose(to_db(0.5, floor_db=-60.0), 20 * np.log10(0.5), atol=1e-12)


def test_bifrequency_diagonal_without_subsampling():
    config = BankConfig(channels=4, order=32, alpha=0.5, subsampling=[1, 1, 1, 1])
    half = initial_prototype(config).coeffs
    grid = np.linspace(0.0, np.pi, 33)
    img = bifrequency_map(half, config, grid, grid)
    diag = np.diag(img)
    want = to_db(distortion_transfer(half, grid, config))
    assert_allclose(diag, want, atol=1e-9)
    off = img[~np.eye(33, dtype=bool)]
    assert_allclose(off, -300.0, atol=0)


def test_bifrequency_matches_line_enumeration():
    # oracle: loop every channel/image, fold by hand, argmin the output bin
    rng = np.random.default_rng(61)
    config = BankConfig(channels=2, order=8, alpha=0.4, subsampling=[2, 1])
    half = rng.standard_normal(4)
    proto = PrototypeHalf(half, 2)
    in_grid = np.linspace(0.05, np.pi - 0.05, 11)
    out_grid = np.linspace(0.02, np.pi - 0.02, 13)
    acc = np.zeros((11, 13), dtype=complex)
    for k in range(2):
        S = config.subsampling[k]
        for i, win in enumerate(in_grid):
            hk = oracles.channel_response(proto, k, win, config.alpha)
            for l in range(S):
                shifted = (win + 2.0 * np.pi * l / S) % (2.0 * np.pi)
                folded = 2.0 * np.pi - shifted if shifted > np.pi else shifted
                fk = oracles.channel_response(
                    proto, k, folded, config.alpha, synthesis=True
                )
                j = int(np.argmin(np.abs(out_grid - folded)))
                acc[i, j] += hk * fk
    want = to_db(acc)
    got = bifrequency_map(half, config, in_grid, out_grid)
    assert_allclose(got, want, atol=1e-9)


@st.composite
def _shift_cases(draw):
    """1-6 channels, order 2mM, ratios 1-9 that share a value and hold a
    coprime pair (or are all 1), alpha in (-0.95, 0.95), a grid reaching
    below 0 and above pi, and a basis budget from below one grid point and
    shift up to the default."""
    channels = draw(st.integers(1, 6))
    taps = draw(st.integers(1, 3))
    coeffs = st.floats(-3.0, 3.0, allow_subnormal=False)
    half = np.array(draw(st.lists(coeffs, min_size=channels * taps,
                                  max_size=channels * taps)))
    assume(np.any(half != 0.0))
    if draw(st.booleans()):
        sub = [1] * channels
    else:
        shared = draw(st.integers(2, 9))
        coprime = draw(st.sampled_from([r for r in range(2, 10) if math.gcd(r, shared) == 1]))
        rest = draw(st.lists(st.integers(1, 9), min_size=channels, max_size=channels))
        sub = draw(st.permutations(([shared, shared, coprime] + rest)[:channels]))
    alpha = draw(st.floats(-0.95, 0.95, exclude_min=True, exclude_max=True,
                           allow_subnormal=False))
    config = BankConfig(channels=channels, order=2 * half.size, alpha=alpha,
                        subsampling=sub)
    points = st.floats(-2.0, np.pi + 2.0, allow_subnormal=False)
    grid = np.array(draw(st.lists(points, min_size=1, max_size=40)) + [-0.5, np.pi + 0.5])
    budget = draw(st.sampled_from([1, 600, 20000, transfer._PASS_BYTES]))
    return half, config, grid, draw(points), budget


@given(_shift_cases())
def test_shift_pass_matches_per_image_oracle(case):
    half, config, grid, scalar, budget = case
    proto = PrototypeHalf(half, config.channels)
    want = transfer_parts(proto, grid, config)
    scale = max(np.abs(want[0] + want[1]).max(), np.abs(want[0]).max(), want[2].max())
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transfer, "_PASS_BYTES", budget)
        got = transfer._transfer_parts(proto, grid, config)
        public = (distortion_transfer, aliasing_transfer, aliasing_bound)
        curves = [f(half, grid, config) for f in public]
        points = [f(half, scalar, config) for f in public]
        overall = overall_transfer(half, grid, config)
        # a 0-d omega keeps its shape, as prototype_response's does
        routes = public + (overall_transfer, error_function)
        zero = [f(half, np.array(scalar), config) for f in routes]
        scalars = [f(half, scalar, config) for f in routes]
    for g, w in zip(got, want):
        assert np.max(np.abs(g - w)) <= 1e-12 * scale
    for c, w in zip(curves, want):
        assert np.max(np.abs(c - w)) <= 1e-12 * scale
    assert_allclose(overall, want[0] + want[1], rtol=0, atol=1e-12 * scale)
    at = transfer_parts(proto, np.array([scalar]), config)
    for p, w in zip(points, at):
        assert np.isscalar(p)
        assert abs(p - w[0]) <= 1e-12 * max(scale, np.abs(at[0]).max(), at[2].max())
    for z, p in zip(zero, scalars):
        assert isinstance(z, np.ndarray) and z.shape == ()
        assert z.item() == p
    if max(config.subsampling) == 1:
        assert np.all(got[1] == 0.0) and np.all(curves[2] == 0.0)
        assert aliasing_transfer(half, scalar, config) == 0.0


@pytest.mark.parametrize("channels, order", [(22, 176), (4, 32), (5, 30), (3, 6), (1, 2)])
def test_harmonic_factors_match_per_entry_cosines(channels, order):
    # E_{Pa+b} = e^{jaP nu} V_b: 2 Re E and 2 (-1)^i Im E are the cosine
    # bases at nu and pi - nu, each entry one np.cos in the oracle, also
    # within 1e-6 of 0 and pi, where the real recurrence is worst; and the
    # pass's z and phase at every shift, from weights zero-padded to 2P
    # columns where N/2 is odd, match the oracle's bases at such angles
    n2, P = order // 2, -(-order // 4)
    nu = np.array([[0.0, 1e-7, 1e-6, 0.4, 1.0],
                   [np.pi, np.pi - 1e-7, np.pi - 1e-6, 2.5, np.pi + 1e-7]])
    v = np.empty((2, P, 5), complex)
    turn = modulation._harmonics(np.exp(0.5j * nu), v)
    E = np.concatenate([v, v * turn[:, None]], axis=1)[:, :n2].transpose(0, 2, 1)
    tol = 2e-15 * n2
    assert_allclose(turn, np.exp(1j * P * nu), rtol=0, atol=tol)
    assert_allclose(2.0 * E.real, cosine_basis(nu, order), rtol=0, atol=tol)
    assert_allclose(2.0 * (-1.0) ** np.arange(n2) * E.imag, cosine_basis(np.pi - nu, order),
                    rtol=0, atol=tol)
    config = BankConfig(channels=channels, order=order, alpha=0.5,
                        subsampling=([2, 1, 3, 5] * 6)[:channels])
    half = np.random.default_rng(order).standard_normal(n2)
    wc, ws = transfer._split_weights(half, channels)
    w = np.array([0.0, 1e-7, 1e-6, 0.9, np.pi - 1e-6, np.pi - 1e-7, np.pi])
    shifts = set()
    for block, shift, ks, _, phase, z in transfer._shift_pass(
            PrototypeHalf(half, channels), w, config):
        nu = -allpass_phase(w[block] + 2.0 * np.pi * shift[0] / shift[1], config.alpha)
        c, d = cosine_basis(nu, order), cosine_basis(np.pi - nu, order)
        want = wc[ks] @ c.T + 1j * (ws[ks] @ d.T)
        assert_allclose(z, want, rtol=0, atol=tol * np.abs(wc).sum())
        assert_allclose(phase, np.exp(-0.5j * (order - 1) * nu), rtol=0, atol=2 * tol)
        shifts.add(shift)
    assert len(shifts) == len(transfer._shift_table(config.subsampling))


def test_transfer_parts_memory_is_one_block():
    # the flagship on 22 529 points, 16 blocks of the direct pass: above its
    # two output curves, _transfer_parts holds no more than the block
    # budget, however many blocks the grid takes; and above its output each
    # public curve holds no more either, the coherent ones on the uniform
    # route (its impulse responses and a block of channels' spectra)
    half, config = _flagship_bank()
    proto = PrototypeHalf(half, config.channels)
    grid = np.linspace(0.0, np.pi, 22529)
    transfer._transfer_parts(proto, grid[:8], config)  # warm the imports
    tracemalloc.start()
    try:
        curves = transfer._transfer_parts(proto, grid, config)
        held = tracemalloc.get_traced_memory()[1] - sum(c.nbytes for c in curves)
    finally:
        tracemalloc.stop()
    assert held <= transfer._PASS_BYTES, held
    del curves
    routes = (distortion_transfer, aliasing_transfer, aliasing_bound,
              overall_transfer, error_function)
    for f in routes:
        f(half, grid[::2816], config)  # 9 uniform points: warm the route
        tracemalloc.start()
        try:
            curve = f(half, grid, config)
            held = tracemalloc.get_traced_memory()[1] - curve.nbytes
        finally:
            tracemalloc.stop()
        assert held <= transfer._PASS_BYTES, (f.__name__, held)


def test_uniform_route_length_is_the_line_memory():
    # the flagship's impulse responses, from the allpass powers at the bins
    # of the least power of two that holds the line's memory, match one
    # lfilter section per tap in time within N eps of their peak, and past
    # the memory those in time are below 2^-52 of it; doubling the length
    # moves no curve by more than the route's 1e-12 of max|T| against the
    # per-image oracle (at twice the bins the powers round apart, so by
    # more than the 1e-15 a longer tail alone would)
    half, config = _flagship_bank()
    proto = PrototypeHalf(half, config.channels)
    length = allpass._line_memory(config.alpha, config.order)
    assert length == 15 * 64  # K = 14 chunks of memory and the impulse's own
    want = oracles.impulse_responses(proto, config, 2 * length)
    got = transfer._impulse_responses(proto, config)
    peak = np.abs(want).max()
    assert got.shape == (2, config.channels, 1024)
    assert np.abs(want[..., length:]).max() <= 2.0**-52 * peak
    assert np.abs(got[..., :length] - want[..., :length]).max() <= config.order * 2.0**-52 * peak
    sizes = (config.grid_points, 33)
    base = [transfer._uniform_parts(proto, size, config) for size in sizes]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(allpass, "_line_memory", lambda alpha, order: 2 * length)
        assert transfer._impulse_responses(proto, config).shape[2] == 2048
        longer = [transfer._uniform_parts(proto, size, config) for size in sizes]
    for short, long in zip(base, longer):
        scale = np.abs(short[0] + short[1]).max()
        for a, b in zip(short, long):
            assert np.max(np.abs(a - b)) <= 1e-12 * scale


def test_line_memory_follows_alpha_and_order():
    # the line's memory is kept per (alpha, order) value pair: changing
    # alpha, then the order, then alpha back on one config reads each
    # pair's own length, as the line's state map gives it, and the impulse
    # responses take that length
    config = BankConfig(channels=4, order=32, alpha=0.3)

    def direct(alpha, order):
        # the least k with max|Phi^k| <= 2^-52, by matrix powers
        phi = streaming._state_maps(alpha, streaming._line_runs(alpha, order)).phi
        chunks = 1
        while np.abs(np.linalg.matrix_power(phi, chunks)).max() > np.finfo(float).eps:
            chunks += 1
        return (chunks + 1) * streaming._CHUNK

    proto = PrototypeHalf(np.ones(16), 4)
    lengths = []
    for alpha, order in [(0.3, 32), (0.9, 32), (0.9, 64), (0.3, 32)]:
        config.alpha, config.order = alpha, order
        proto = PrototypeHalf(np.ones(order // 2), 4)
        hits = allpass._line_memory.cache_info().hits
        lengths.append(allpass._line_memory(config.alpha, config.order))
        assert lengths[-1] == direct(alpha, order)
        L = transfer._impulse_responses(proto, config).shape[2]
        assert L == 1 << (lengths[-1] - 1).bit_length()
        assert allpass._line_memory.cache_info().hits > hits  # the responses read it again
    assert len(set(lengths[:3])) == 3 and lengths[3] == lengths[0]


def test_transfer_reads_the_line_from_allpass_not_streaming():
    # the uniform route and the stream share the allpass line's block model
    # and memory through allpass: transfer neither imports streaming nor
    # holds it
    names = set()
    for node in ast.walk(ast.parse(inspect.getsource(transfer))):
        if isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name for alias in node.names)
    assert not any("streaming" in name for name in names), names
    assert "streaming" not in vars(transfer)
    assert all(value is not streaming for value in vars(transfer).values())


def test_uniform_route_is_bounded_by_the_line_memory(monkeypatch):
    # the flagship's geometry and half at alpha 0.99, whose (2, 22, 65 536)
    # responses (23 MB) do not fit in _PASS_BYTES: on np.linspace(0, pi,
    # 1408) the five public curves, the channels' responses and a 32 x 32
    # map take the shift pass, no impulse responses, each holding at most
    # _PASS_BYTES above its output and within 1e-12 of max|T| of the pass
    # on the grid reversed.  At alpha 0.9 (2.9 MB of responses), and on an
    # 8-channel bank whose responses fill _PASS_BYTES exactly, they take
    # the uniform route, with no shift pass; that budget bounds the
    # responses, not the route, which holds at most three times their bytes
    # and half of _PASS_BYTES of powers (8.1 of 10.8 MB at alpha 0.9, 13.1
    # of 14.7 MB on the 8 channels)
    grid = np.linspace(0.0, np.pi, 1408)
    small = np.linspace(0.0, np.pi, 32)

    def routes(half, config):
        # (name, route over its grid, its grid, the grid's axis in the output)
        curves = [(f.__name__, lambda w, f=f: f(half, w, config), grid, -1)
                  for f in (distortion_transfer, aliasing_transfer, aliasing_bound,
                            overall_transfer, error_function)]
        proto = PrototypeHalf(half, config.channels)
        responses = lambda w: transfer._channel_responses(proto, w, config)
        cells = lambda w: _map_cells(half, config, w, small)
        return curves + [("_channel_responses", responses, grid, -1),
                         ("bifrequency_map", cells, small, 0)]

    def traced(route, w):
        # the route's output and the bytes it held above it
        tracemalloc.start()
        try:
            out = route(w)
            outputs = out if isinstance(out, tuple) else (out,)
            return out, tracemalloc.get_traced_memory()[1] - sum(a.nbytes for a in outputs)
        finally:
            tracemalloc.stop()

    def refused(*args):
        raise AssertionError("the uniform route was taken")

    half, flagship = _flagship_bank()
    config = BankConfig(channels=22, order=176, alpha=0.99, subsampling=flagship.subsampling)
    assert not transfer._uniform(grid, config)  # builds the line's memory
    scale = np.abs(overall_transfer(half, grid[::-1], config)).max()
    with monkeypatch.context() as mp:
        mp.setattr(transfer, "_impulse_responses", refused)
        for name, route, w, axis in routes(half, config):
            backward = np.flip(route(w[::-1]), axis)
            forward, held = traced(route, w)
            assert held <= transfer._PASS_BYTES, (name, held)
            assert np.max(np.abs(np.array(forward) - backward)) <= 1e-12 * scale, name
    config.alpha = 0.9
    edge = BankConfig(channels=8, order=64, alpha=0.989, subsampling=np.arange(8) % 3 + 2)
    edge_half = np.random.default_rng(28).standard_normal(32)
    with monkeypatch.context() as mp:
        mp.setattr(transfer, "_shift_pass", None)
        for bank, config in ((half, config), (edge_half, edge)):
            responses = 16 * config.channels * transfer._response_samples(config)
            assert responses <= transfer._PASS_BYTES
            for name, route, w, _ in routes(bank, config):
                route(w)  # warm numpy's and scipy's first-call allocations
                held = traced(route, w)[1]
                assert held <= 3 * responses + transfer._PASS_BYTES // 2, (name, held)
    assert responses == transfer._PASS_BYTES


def test_route_check_and_responses_read_one_length(monkeypatch):
    # _uniform sizes the responses _impulse_responses builds from one L
    # (_response_samples): with the budget set to their bytes the flagship
    # takes the uniform route, and doubling the line's memory doubles L,
    # which takes it off
    half, config = _flagship_bank()
    proto = PrototypeHalf(half, config.channels)
    grid = frequency_grid(config)
    size = transfer._impulse_responses(proto, config).nbytes
    monkeypatch.setattr(transfer, "_PASS_BYTES", size)
    assert transfer._uniform(grid, config)
    memory = allpass._line_memory
    monkeypatch.setattr(allpass, "_line_memory", lambda alpha, order: 2 * memory(alpha, order))
    assert not transfer._uniform(grid, config)
    assert transfer._impulse_responses(proto, config).nbytes == 2 * size


def test_shift_pass_phases_have_unit_modulus():
    # e^{-j(N-1)nu/2} is normalized, as the table build's is: unnormalized,
    # its modulus drifted from 1 by 6.3e-14 on the flagship's design grid
    half, config = _flagship_bank()
    proto = PrototypeHalf(half, config.channels)
    worst = max(np.abs(np.abs(phase) - 1.0).max()
                for *_, phase, _ in transfer._shift_pass(proto, frequency_grid(config), config))
    assert worst <= 4 * 2.0**-52


def test_reversed_flagship_grid_takes_the_shift_pass():
    # the flagship grid reversed is not np.linspace(0, pi, G), so its curves
    # come from the shift pass, within 1e-12 of max|T| of the route's
    half, config = _flagship_bank()
    grid = frequency_grid(config)
    routes = (distortion_transfer, aliasing_transfer, overall_transfer)
    uniform, sizes = transfer._uniform_parts, []

    def counted(proto, size, config, aliasing=True):
        sizes.append(size)
        return uniform(proto, size, config, aliasing)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transfer, "_uniform_parts", counted)
        backward = [f(half, grid[::-1], config) for f in routes]
        assert sizes == []
        forward = [f(half, grid, config) for f in routes]
        assert sizes == [grid.size] * len(routes)
    scale = np.abs(forward[2]).max()
    for f, b in zip(forward, backward):
        assert np.max(np.abs(f - b[::-1])) <= 1e-12 * scale


@st.composite
def _channel_cases(draw):
    """1-6 channels of order 2mM, alpha in (-0.9, 0.9), a uniform grid of
    2-300 points (2 and 3 drawn often), and for the shift pass a scalar and
    an N-D array of points below 0, in [0, pi] and above pi."""
    channels = draw(st.integers(1, 6))
    taps = draw(st.integers(1, 3))
    coeffs = st.floats(-3.0, 3.0, allow_subnormal=False)
    half = np.array(draw(st.lists(coeffs, min_size=channels * taps,
                                  max_size=channels * taps)))
    assume(np.any(half != 0.0))
    alpha = draw(st.floats(-0.9, 0.9, exclude_min=True, exclude_max=True,
                           allow_subnormal=False))
    size = draw(st.sampled_from([2, 3]) | st.integers(2, 300))
    points = st.floats(-2.0, np.pi + 2.0, allow_subnormal=False)
    pairs = draw(st.lists(points, min_size=0, max_size=22).filter(lambda p: len(p) % 2 == 0))
    grid = np.array(pairs + [-0.5, np.pi + 0.5])
    shape = draw(st.sampled_from([(-1,), (2, -1), (1, 2, -1)]))
    return PrototypeHalf(half, channels), alpha, size, draw(points), grid.reshape(shape)


def _long_memory_case(alpha):
    """The unsubsampled 8-channel bank at alpha +-0.9, whose line remembers
    its state longest, on its design grid."""
    half = np.random.default_rng(9).standard_normal(32)
    return PrototypeHalf(half, 8), alpha, 1024, 2.5, np.array([[-0.3, 0.0], [np.pi, 4.0]])


@given(_channel_cases())
@example(_long_memory_case(0.9))
@example(_long_memory_case(-0.9))
def test_channel_responses_match_pair_angle_oracle(case):
    # every channel's H and F by the uniform route on np.linspace(0, pi, G)
    # and by shift 0 of the pass elsewhere, within 1e-12 of max|H| (over the
    # grid and 257 band points, as a 2-point grid may hold rounding only) of
    # the pair-angle oracle; channel_response_warped reads them off with
    # omega's shape, and a scalar omega gives a complex
    proto, alpha, size, scalar, points = case
    M = proto.channels
    config = BankConfig(channels=M, order=proto.order, alpha=alpha)
    uniform = np.linspace(0.0, np.pi, size)

    def oracle(w):
        return np.array([[oracles.channel_response(proto, k, w, alpha, s) for k in range(M)]
                         for s in (False, True)])

    band = np.linspace(0.0, np.pi, 257)
    scale = max(np.abs(oracle(band)).max(), np.abs(oracle(uniform)).max(),
                np.abs(oracle(points)).max())
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transfer, "_shift_pass", None)  # the uniform grid takes none
        on_grid = np.array(transfer._channel_responses(proto, uniform, config))
    off_grid = np.array(transfer._channel_responses(proto, points.ravel(), config))
    assert on_grid.shape == (2, M, size)
    assert np.max(np.abs(on_grid - oracle(uniform))) <= 1e-12 * scale
    assert np.max(np.abs(off_grid - oracle(points.ravel()))) <= 1e-12 * scale
    for k in range(M):
        for s in (False, True):
            got = channel_response_warped(proto, k, uniform, alpha, synthesis=s)
            assert_array_equal(got, on_grid[int(s), k])
            got = channel_response_warped(proto, k, points, alpha, synthesis=s)
            assert got.shape == points.shape
            assert_array_equal(got.ravel(), off_grid[int(s), k])
            got = channel_response_warped(proto, k, scalar, alpha, synthesis=s)
            assert isinstance(got, complex)
            assert abs(got - oracle(scalar)[int(s), k]) <= 1e-12 * scale


def test_direct_route_rejects_non_finite_frequencies():
    # as TransferTables does, rather than returning NaN curves or cells
    config = BankConfig(channels=2, order=8, alpha=0.3, subsampling=[2, 1])
    half = np.ones(4)
    routes = (distortion_transfer, aliasing_transfer, aliasing_bound,
              overall_transfer, error_function)
    for omega in (np.nan, np.array(np.inf), [0.1, -np.inf], [[0.2], [np.nan]]):
        for f in routes:
            with assert_raises(ValueError, match="omega holds non-finite"):
                f(half, omega, config)
    grid = np.linspace(0.0, np.pi, 5)
    for bad in ([0.1, np.nan], [np.inf]):
        with assert_raises(ValueError, match="in_grid holds non-finite"):
            bifrequency_map(half, config, bad, grid)
        with assert_raises(ValueError, match="out_grid holds non-finite"):
            bifrequency_map(half, config, grid, bad)
    assert np.all(np.isfinite(bifrequency_map(half, config, grid, grid)))


@pytest.mark.parametrize("which", ["in_grid", "out_grid"])
@pytest.mark.parametrize("bad", [0.3, [], [[0.1, 0.2]], [0.1 + 0.2j, 0.3]])
def test_bifrequency_map_rejects_bad_grid_shapes(which, bad):
    # a 0-d, empty, 2-D or complex grid is named, not met by an IndexError
    # inside the direct pass or an empty map
    config = BankConfig(channels=2, order=8, alpha=0.3, subsampling=[2, 1])
    grids = {"in_grid": np.linspace(0.0, np.pi, 5), "out_grid": np.linspace(0.0, np.pi, 4)}
    grids[which] = bad
    with assert_raises(ValueError, match=which + " must be a nonempty real 1-D array"):
        bifrequency_map(np.ones(4), config, **grids)
    grids[which] = [0.7]
    assert bifrequency_map(np.ones(4), config, **grids).shape in ((1, 4), (5, 1))


@given(_shift_cases(), st.integers(2, 40))
def test_bifrequency_matches_per_channel_oracle(case, outputs):
    half, config, grid, _, budget = case
    proto = PrototypeHalf(half, config.channels)
    out_grid = np.linspace(0.0, np.pi, outputs)
    want, hits = bifrequency_cells(proto, config, grid, out_grid)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transfer, "_PASS_BYTES", budget)
        mp.setattr(transfer, "to_db", lambda cells: cells)  # the cells, not dB
        got = bifrequency_map(half, config, grid, out_grid)
    # zeros where the oracle's are: exactly 0 where no product lands, and
    # nonzero where the oracle is above rounding; where images cancel to
    # rounding either route may leave an exact 0, so only those cells go by
    # value alone
    scale = np.abs(want).max()
    decided = (hits == 0) | (np.abs(want) > 1e-12 * scale)
    assert_array_equal((got != 0)[decided], (want != 0)[decided])
    assert np.max(np.abs(got - want)) <= 1e-12 * scale


def _flagship_bank():
    """(half, config) of the bench design, the 22-channel Bark bank."""
    bank = files.load_design(Path(__file__).parents[1] / "bench" / "bark22_design.yaml")
    return bank.half, bank.config


def _map_cells(half, config, in_grid, out_grid):
    """bifrequency_map's complex cells, before the dB step."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transfer, "to_db", lambda cells: cells)
        return bifrequency_map(half, config, in_grid, out_grid)


def _assert_bitwise(got, want):
    assert got.shape == want.shape
    assert_array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("points", [32, 256])
def test_bifrequency_scatter_matches_per_shift_on_flagship(points):
    # one block and one scatter of all 249 images against 116 scatters, on
    # the reversed grid, which takes the shift pass; at 256 points the
    # scatter's products hold 1 MB of complex values, past the 256 KiB
    # where numpy may compute a temporary's product in place
    half, config = _flagship_bank()
    if points == 256:
        assert config.subsampling.sum() * points * 16 > 256 * 1024
    grid = np.linspace(0.0, np.pi, points)[::-1]
    want = bifrequency_per_shift(half, config, grid, grid)
    _assert_bitwise(_map_cells(half, config, grid, grid), want)
    _assert_bitwise(bifrequency_map(half, config, grid, grid), to_db(want))


def test_bifrequency_uniform_flagship_matches_per_channel_oracle(monkeypatch):
    # the flagship's default 256 x 256 map, whose in-grid takes the impulse
    # responses' FFTs and no shift pass: within 1e-12 of scale of the
    # per-channel oracle, with its zeros where the oracle's are
    half, config = _flagship_bank()
    grid = np.linspace(0.0, np.pi, 256)
    want, hits = bifrequency_cells(PrototypeHalf(half, config.channels), config, grid, grid)
    monkeypatch.setattr(transfer, "_shift_pass", None)
    got = _map_cells(half, config, grid, grid)
    scale = np.abs(want).max()
    decided = (hits == 0) | (np.abs(want) > 1e-12 * scale)
    assert_array_equal((got != 0)[decided], (want != 0)[decided])
    assert np.max(np.abs(got - want)) <= 1e-12 * scale


def test_bifrequency_scatter_matches_per_shift_across_blocks_and_flushes(monkeypatch):
    # blocks of 20 grid points of the pass (the in-grid reversed), the last
    # one short, and a hold of 890 image-points: shift 0 (22 images, 440)
    # shares a scatter with the next shifts, and every block scatters
    # several times
    half, config = _flagship_bank()
    monkeypatch.setattr(transfer, "_PASS_BYTES", 64 * 890)
    budget = transfer._PASS_BYTES // 64
    in_grid = np.linspace(0.0, np.pi, 90)[::-1]
    out_grid = np.linspace(0.0, np.pi, 50)
    assert 22 * 20 < budget and config.subsampling.sum() * 20 > 4 * budget
    want = bifrequency_per_shift(half, config, in_grid, out_grid)
    passes, blocks = transfer._shift_pass, set()

    def recorded(*args, **kwargs):
        for item in passes(*args, **kwargs):
            blocks.add((item[0].start, min(item[0].stop, in_grid.size)))
            yield item

    monkeypatch.setattr(transfer, "_shift_pass", recorded)
    _assert_bitwise(_map_cells(half, config, in_grid, out_grid), want)
    assert sorted(blocks) == [(0, 20), (20, 40), (40, 60), (60, 80), (80, 90)]


@pytest.mark.parametrize("budget", [1, 600, 20000, transfer._PASS_BYTES])
def test_bifrequency_scatter_matches_per_shift_on_unsorted_grids(monkeypatch, budget):
    # unequal in and out grids in random order, in-grid points past 0 and
    # pi, repeated out points, and budgets from below one image-point up
    rng = np.random.default_rng(budget)
    config = BankConfig(channels=6, order=48, alpha=-0.6, subsampling=[7, 3, 3, 5, 1, 2])
    half = rng.standard_normal(24)
    in_grid = rng.uniform(-1.0, np.pi + 1.0, 57)
    out_grid = np.concatenate([rng.uniform(0.0, np.pi, 30), [0.5, 0.5, np.pi]])
    rng.shuffle(out_grid)
    monkeypatch.setattr(transfer, "_PASS_BYTES", budget)
    want = bifrequency_per_shift(half, config, in_grid, out_grid)
    _assert_bitwise(_map_cells(half, config, in_grid, out_grid), want)


def test_bifrequency_scatter_memory():
    # 2048 grid points of the flagship, 249 images, in blocks of 1489
    # points: a hold of a whole block would be 371 k image-points.  Above
    # its (2048, 256) cells the map holds the direct pass's harmonics and
    # one GEMM's sums (1.05 MB each, within the 4 MiB _PASS_BYTES) and the
    # scatter's work over at most 64 Ki image-points: 5.2 MB
    half, config = _flagship_bank()
    in_grid = np.linspace(0.0, np.pi, 2048)
    out_grid = np.linspace(0.0, np.pi, 256)
    _map_cells(half, config, in_grid[:8], out_grid)  # warm the imports
    tracemalloc.start()
    try:
        cells = _map_cells(half, config, in_grid, out_grid)
        held_mb = (tracemalloc.get_traced_memory()[1] - cells.nbytes) / 1e6
    finally:
        tracemalloc.stop()
    assert held_mb < 7.5, held_mb
