import numpy as np
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from pytest import raises as assert_raises

from oracles import AllpassSection
from warpbank import allpass_phase, warp, warp_inverse


def _section_response(omega, alpha):
    # closed-form frequency response of the warping section
    z = np.exp(-1j * omega)
    return (z - alpha) / (1.0 - alpha * z)


def test_phase_zero_at_dc():
    assert allpass_phase(0.0, 0.5783) == 0.0
    assert allpass_phase(0.0, -0.3) == 0.0


def test_phase_at_pi():
    for alpha in (0.0, 0.3, 0.5783, -0.7, 0.95):
        assert_allclose(allpass_phase(np.pi, alpha), -np.pi, atol=1e-13)


def test_phase_known_value():
    got = allpass_phase(2.0 * np.pi / 22.0, 0.5783)
    assert abs(got - (-0.9874)) < 5e-5
    assert_allclose(got, -0.9873534057620739, rtol=1e-12)


def test_phase_matches_unwrapped_argument():
    # oracle: unwrapped complex argument of the section response over [0, 4pi]
    omega = np.linspace(0.0, 4.0 * np.pi, 4001)
    for alpha in (0.2, 0.5783, -0.4, 0.9):
        oracle = np.unwrap(np.angle(_section_response(omega, alpha)))
        assert_allclose(allpass_phase(omega, alpha), oracle, atol=1e-10)


def test_phase_periodicity():
    omega = np.linspace(0.0, 2.0 * np.pi, 257)
    for alpha in (0.5783, -0.6):
        lhs = allpass_phase(omega + 2.0 * np.pi, alpha)
        rhs = allpass_phase(omega, alpha) - 2.0 * np.pi
        assert_allclose(lhs, rhs, atol=1e-10)


def test_phase_strictly_decreasing():
    omega = np.linspace(-np.pi, 3.0 * np.pi, 2048)
    for alpha in (0.0, 0.5783, -0.8):
        assert np.all(np.diff(allpass_phase(omega, alpha)) < 0)


def test_phase_odd():
    omega = np.linspace(0.0, np.pi, 129)
    for alpha in (0.5, -0.5783):
        assert_allclose(
            allpass_phase(-omega, alpha), -allpass_phase(omega, alpha), atol=1e-12
        )


def test_phase_rejects_unstable_coefficient():
    for alpha in (1.0, -1.0, 1.5, -2.0):
        assert_raises(ValueError, allpass_phase, 0.5, alpha)


def test_section_magnitude_is_unity():
    omega = np.linspace(0.0, np.pi, 513)
    for alpha in (0.3, 0.5783, -0.9):
        assert_allclose(np.abs(_section_response(omega, alpha)), 1.0, atol=1e-12)


def test_warp_identity_at_zero_alpha():
    omega = np.linspace(0.0, np.pi, 257)
    assert_allclose(warp(omega, 0.0), omega, atol=1e-15)
    assert warp(np.pi / 2, 0.0) == np.pi / 2


def test_warp_fixed_points():
    for alpha in (0.9, -0.9, 0.5783):
        assert_allclose(warp(0.0, alpha), 0.0, atol=1e-15)
        assert_allclose(warp(np.pi, alpha), np.pi, atol=1e-12)


def test_warp_known_value():
    # forward value whose inverse is the worked band-edge 2pi/22
    assert abs(warp(0.0768, 0.5783) - 0.2856) < 5e-5


def test_warp_monotone_bijection():
    omega = np.linspace(0.0, np.pi, 2048)
    for alpha in (0.5783, -0.6, 0.95):
        nu = warp(omega, alpha)
        assert np.all(np.diff(nu) > 0)
        assert nu.min() >= 0.0 and nu.max() <= np.pi + 1e-12
    # positive alpha pushes interior frequencies up
    inner = np.linspace(0.1, np.pi - 0.1, 64)
    assert np.all(warp(inner, 0.5783) > inner)


def test_warp_domain_checked():
    assert_raises(ValueError, warp, -0.1, 0.5)
    assert_raises(ValueError, warp, np.pi + 0.1, 0.5)
    assert_raises(ValueError, warp_inverse, -0.1, 0.5)


def test_warp_inverse_roundtrip():
    nu = np.linspace(0.0, np.pi, 513)
    for alpha in (0.5783, -0.4, 0.9):
        assert_allclose(warp(warp_inverse(nu, alpha), alpha), nu, atol=1e-12)
        assert_allclose(warp_inverse(warp(nu, alpha), alpha), nu, atol=1e-12)
    assert_allclose(warp_inverse(nu, 0.0), nu, atol=1e-15)


@given(st.lists(st.floats(0.0, np.pi), min_size=1, max_size=16),
       st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True))
def test_warp_undoes_warp_inverse(nu, alpha):
    # the round trip is conditioned by the warp's steepest slope
    # (1+|alpha|)/(1-|alpha|); its rounding stays within a few eps times that
    nu = np.array(nu)
    slope = (1.0 + abs(alpha)) / (1.0 - abs(alpha))
    tol = 8.0 * np.finfo(float).eps * slope
    assert_allclose(warp(warp_inverse(nu, alpha), alpha), nu, rtol=0, atol=tol)


def test_warp_inverse_is_negated_alpha_warp():
    nu = np.linspace(0.0, np.pi, 129)
    assert_allclose(warp_inverse(nu, 0.5783), warp(nu, -0.5783), atol=1e-15)


def test_section_impulse_alpha_zero_is_delay():
    section = AllpassSection(0.0)
    x = np.zeros(8)
    x[0] = 1.0
    y = np.array([section.step(v) for v in x])
    expected = np.zeros(8)
    expected[1] = 1.0
    assert_allclose(y, expected, atol=0)


def test_section_impulse_response():
    # impulse response alpha, (1 - alpha^2)(-alpha)^(n-1) for n >= 1
    alpha = 0.5
    section = AllpassSection(alpha)
    x = np.zeros(6)
    x[0] = 1.0
    y = np.array([section.step(v) for v in x])
    n = np.arange(1, 6)
    expected = np.concatenate(([alpha], (1 - alpha**2) * (-alpha) ** (n - 1)))
    assert_allclose(y, expected, atol=1e-15)
    assert_allclose(y[:4], [0.5, 0.75, -0.375, 0.1875], atol=1e-15)


def test_section_dc_steady_state():
    section = AllpassSection(0.5)
    out = [section.step(1.0) for _ in range(200)]
    assert_allclose(out[-1], 1.0, atol=1e-12)


def test_section_reset():
    section = AllpassSection(0.4)
    first = [section.step(v) for v in (1.0, -2.0, 0.5)]
    section.reset()
    second = [section.step(v) for v in (1.0, -2.0, 0.5)]
    assert_allclose(first, second, atol=0)


def test_section_difference_equation():
    # y[n] + a y[n-1] = x[n-1] + a x[n] on a random sequence
    rng = np.random.default_rng(5)
    a = 0.37
    x = rng.standard_normal(64)
    section = AllpassSection(a)
    y = np.array([section.step(v) for v in x])
    lhs = y[1:] + a * y[:-1]
    rhs = x[:-1] + a * x[1:]
    assert_allclose(lhs, rhs, atol=1e-12)
    assert_allclose(y[0], a * x[0], atol=1e-15)
