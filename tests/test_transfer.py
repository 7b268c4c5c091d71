import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from pytest import raises as assert_raises

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
    to_db,
    transfer_quadratic,
)
from warpbank.transfer import analysis_vector, modulation_angles, synthesis_vector


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
def _banks(draw):
    """The bank space of _random_case, drawn by hypothesis."""
    channels = draw(st.sampled_from([2, 4, 8]))
    taps = draw(st.integers(1, 2))
    coeffs = st.floats(-3.0, 3.0, allow_subnormal=False)
    half = np.array(draw(st.lists(coeffs, min_size=channels * taps,
                                  max_size=channels * taps)))
    alpha = draw(st.floats(-0.8, 0.8, allow_subnormal=False))
    sub = draw(st.lists(st.integers(1, 6), min_size=channels, max_size=channels))
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
    config = BankConfig(channels=2, order=8, alpha=0.0)
    g1, g2 = modulation_angles(0.0, 0, 0, config)
    assert_allclose([g1, g2], [-np.pi / 4, np.pi / 4], atol=1e-15)
    g1, g2 = modulation_angles(np.pi, 0, 0, config)
    assert_allclose([g1, g2], [3 * np.pi / 4, 5 * np.pi / 4], atol=1e-12)


def test_modulation_angles_composition():
    # shifted frequency maps through the warp before the channel offset
    config = BankConfig(channels=22, order=44, alpha=0.5783, subsampling=[5] * 22)
    w = 0.3 + 2.0 * np.pi * 2 / 5
    z = np.exp(-1j * w)
    nu = -np.angle((z - 0.5783) / (1.0 - 0.5783 * z))
    c = np.pi * 3.5 / 22.0
    g1, g2 = modulation_angles(0.3, 2, 3, config)
    assert_allclose([g1, g2], [nu - c, nu + c], atol=1e-12)


def test_modulation_angles_image_range():
    config = BankConfig(channels=2, order=8, alpha=0.0, subsampling=[3, 1])
    assert_raises(ValueError, modulation_angles, 0.5, 3, 0, config)
    assert_raises(ValueError, modulation_angles, 0.5, -1, 0, config)
    assert_raises(ValueError, modulation_angles, 0.5, 1, 1, config)


def test_response_vectors_reproduce_channel_responses():
    rng = np.random.default_rng(31)
    half, config = _random_case(rng)
    proto = PrototypeHalf(half, config.channels)
    omega = rng.uniform(0.0, np.pi, 9)
    for k in range(config.channels):
        for l in range(config.subsampling[k]):
            u = analysis_vector(omega, l, k, config)
            want = channel_response_warped(
                proto, k, omega + 2.0 * np.pi * l / config.subsampling[k], config.alpha
            )
            assert_allclose(u @ half, want, atol=1e-10)
        u = synthesis_vector(omega, k, config)
        want = channel_response_warped(proto, k, omega, config.alpha, synthesis=True)
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


@settings(derandomize=True, deadline=None)
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
    ua = analysis_vector(omega, 0, 0, config)
    us = synthesis_vector(omega, 0, config)
    assert_allclose(transfer_quadratic(omega, config), np.outer(ua, us), atol=1e-12)


@settings(derandomize=True, deadline=None)
@given(_banks())
def test_aliasing_bound_dominates_coherent_sum(case):
    half, config = case
    omega = np.linspace(0.0, np.pi, 65)
    coherent = np.abs(aliasing_transfer(half, omega, config))
    bound = aliasing_bound(half, omega, config)
    assert np.all(coherent <= bound + 1e-12)


def test_transfer_tables_match_pointwise_routines():
    rng = np.random.default_rng(53)
    half, config = _random_case(rng)
    omega = np.linspace(0.0, np.pi, 21)
    tables = TransferTables(config, omega)
    assert tables.ua.shape == (21, config.channels, config.order // 2)
    assert tables.us.shape == tables.ua.shape
    assert_allclose(
        tables.overall(half), overall_transfer(half, omega, config), atol=1e-9
    )
    A, B = tables.channel_products(half)
    assert_allclose((A * B).sum(axis=1), tables.overall(half), atol=1e-12)


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
            hk = channel_response_warped(proto, k, win, config.alpha)
            for l in range(S):
                shifted = (win + 2.0 * np.pi * l / S) % (2.0 * np.pi)
                folded = 2.0 * np.pi - shifted if shifted > np.pi else shifted
                fk = channel_response_warped(
                    proto, k, folded, config.alpha, synthesis=True
                )
                j = int(np.argmin(np.abs(out_grid - folded)))
                acc[i, j] += hk * fk
    want = to_db(acc)
    got = bifrequency_map(half, config, in_grid, out_grid)
    assert_allclose(got, want, atol=1e-9)
