import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from pytest import raises as assert_raises

import oracles
from warpbank import (
    PrototypeHalf,
    channel_response_warped,
    cosine_basis,
    modulate,
    modulation_constants,
    prototype_response,
    warp_inverse,
)
from warpbank.modulation import _half_response


def _random_half(rng, channels, taps_per_channel):
    return PrototypeHalf(rng.standard_normal(channels * taps_per_channel), channels)


def test_prototype_half_validation():
    assert_raises(ValueError, PrototypeHalf, np.zeros((2, 2)), 2)
    assert_raises(ValueError, PrototypeHalf, np.array([]), 2)
    assert_raises(ValueError, PrototypeHalf, np.ones(4), 0)
    # half length 3 is not a multiple of 2 channels
    assert_raises(ValueError, PrototypeHalf, np.ones(3), 2)
    # a fractional count raises instead of running as 4 channels
    assert_raises(ValueError, PrototypeHalf, np.ones(8), 4.9)


def test_prototype_half_full_and_order():
    half = PrototypeHalf([1.0, 2.0, 3.0, 4.0], 2)
    assert half.order == 8
    assert_allclose(half.full(), [4, 3, 2, 1, 1, 2, 3, 4], atol=0)


def test_from_full_roundtrip():
    rng = np.random.default_rng(11)
    half = _random_half(rng, 4, 2)
    back = PrototypeHalf.from_full(half.full(), 4)
    assert_allclose(back.coeffs, half.coeffs, atol=0)
    assert back.channels == 4


def test_from_full_rejects_bad_input():
    assert_raises(ValueError, PrototypeHalf.from_full, np.ones(5), 1)
    assert_raises(ValueError, PrototypeHalf.from_full, np.array([1.0, 2.0]), 1)


def test_modulate_small_case():
    # M = 2, N = 4, flat prototype: first tap is 0.5 cos(-pi/8)
    half = PrototypeHalf([0.25, 0.25], 2)
    filt = modulate(half)
    assert filt.analysis.shape == (2, 4)
    assert_allclose(filt.analysis[0, 0], 0.5 * np.cos(-np.pi / 8), atol=1e-15)


def test_synthesis_is_time_reversed_analysis():
    rng = np.random.default_rng(3)
    for channels, taps in ((2, 2), (4, 2), (8, 1)):
        filt = modulate(_random_half(rng, channels, taps))
        assert_allclose(filt.synthesis, filt.analysis[:, ::-1], atol=1e-14)


def test_prototype_response_matches_direct_sum():
    rng = np.random.default_rng(7)
    half = _random_half(rng, 4, 3)
    h = half.full()
    omega = np.linspace(0.0, np.pi, 65)
    direct = np.exp(-1j * np.outer(omega, np.arange(h.size))) @ h
    assert_allclose(prototype_response(half, omega), direct, atol=1e-12)
    assert_allclose(prototype_response(half, 0.0), h.sum(), atol=1e-12)


def test_prototype_response_flat_at_pi():
    half = PrototypeHalf([0.25, 0.25], 1)
    assert_allclose(prototype_response(half, np.pi), 0.0, atol=1e-15)


def test_cosine_basis_values():
    assert_allclose(cosine_basis(0.0, 4), [2.0, 2.0], atol=0)
    assert_allclose(cosine_basis(np.pi, 4), [0.0, 0.0], atol=1e-15)
    expected = 2.0 * np.cos([0.5, 1.5, 2.5, 3.5])
    assert_allclose(cosine_basis(1.0, 8), expected, atol=1e-15)
    assert_raises(ValueError, cosine_basis, 0.5, 7)
    assert_raises(ValueError, cosine_basis, 0.5, 0)


def test_cosine_basis_keeps_omega_shape():
    omega = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
    got = cosine_basis(omega, 8)
    assert got.shape == (3, 4, 4)
    assert_allclose(got, oracles.cosine_basis(omega, 8), rtol=0, atol=1e-14)
    assert cosine_basis(np.zeros(0), 8).shape == (0, 4)


@st.composite
def _series(draw):
    """Prototype halves of order up to 256 and angles in [-20, 20].

    Half the angles lie within 1e-9 of a multiple of pi, where 2cos x is near
    +-2 and Clenshaw's recurrence loses the most.
    """
    n = draw(st.integers(1, 128))
    unit = st.floats(-1.0, 1.0, allow_subnormal=False)
    coeffs = np.array(draw(st.lists(unit, min_size=n, max_size=n)))
    near_pi = st.builds(lambda m, d: m * np.pi + d, st.integers(-6, 6),
                        st.floats(-1e-9, 1e-9, allow_subnormal=False))
    angles = st.floats(-20.0, 20.0, allow_subnormal=False) | near_pi
    return coeffs, np.array(draw(st.lists(angles, min_size=1, max_size=32)))


@given(_series())
def test_recurrences_match_cosine_oracle(case):
    # The harmonics of cosine_basis round to within a few n eps, and the
    # Clenshaw sum to within a few n^2 eps (times sum |h|) next to multiples
    # of pi; the tolerance allows 8 n^2 eps.
    coeffs, x = case
    tol = 8.0 * coeffs.size**2 * np.finfo(float).eps
    assert_allclose(cosine_basis(x, 2 * coeffs.size),
                    oracles.cosine_basis(x, 2 * coeffs.size), rtol=0, atol=tol)
    assert_allclose(_half_response(coeffs, x), oracles.half_response(coeffs, x),
                    rtol=0, atol=tol * max(np.abs(coeffs).sum(), 1.0))


def test_modulation_constants_unit_modulus():
    a, b, w = modulation_constants(22, 176)
    assert_allclose(np.abs(a), 1.0, atol=1e-15)
    assert_allclose(np.abs(b), 1.0, atol=1e-15)
    assert_allclose(abs(w), 1.0, atol=1e-15)
    k = np.arange(22)
    assert_allclose(a, np.exp(1j * ((-1.0) ** k) * np.pi / 4), atol=1e-15)
    assert_allclose(b, np.exp(-1j * np.pi * (k + 0.5) * 175 / 44), atol=1e-13)


def test_channel_response_unwarped_matches_dft():
    rng = np.random.default_rng(19)
    half = _random_half(rng, 4, 2)
    filt = modulate(half)
    omega = np.linspace(0.0, np.pi, 33)
    ebase = np.exp(-1j * np.outer(omega, np.arange(half.order)))
    for k in range(4):
        got = channel_response_warped(half, k, omega, 0.0)
        assert_allclose(got, ebase @ filt.analysis[k], atol=1e-10)
        got = channel_response_warped(half, k, omega, 0.0, synthesis=True)
        assert_allclose(got, ebase @ filt.synthesis[k], atol=1e-10)


def test_channel_response_matches_allpass_power_sum():
    # oracle: substitute the allpass response for every delay and sum directly
    rng = np.random.default_rng(23)
    for _ in range(20):
        channels = int(rng.choice([2, 4, 8]))
        half = _random_half(rng, channels, int(rng.integers(1, 3)))
        filt = modulate(half)
        alpha = float(rng.uniform(-0.8, 0.8))
        omega = rng.uniform(0.0, np.pi, 64)
        ap = (np.exp(-1j * omega) - alpha) / (1.0 - alpha * np.exp(-1j * omega))
        powers = ap[:, None] ** np.arange(half.order)
        k = int(rng.integers(channels))
        assert_allclose(
            channel_response_warped(half, k, omega, alpha),
            powers @ filt.analysis[k],
            atol=1e-9,
        )
        assert_allclose(
            channel_response_warped(half, k, omega, alpha, synthesis=True),
            powers @ filt.synthesis[k],
            atol=1e-9,
        )


def test_channel_response_conjugate_symmetry():
    rng = np.random.default_rng(29)
    half = _random_half(rng, 2, 4)
    omega = np.linspace(0.1, 3.0, 17)
    for alpha in (0.0, 0.5783):
        pos = channel_response_warped(half, 1, omega, alpha)
        neg = channel_response_warped(half, 1, -omega, alpha)
        assert_allclose(neg, np.conj(pos), atol=1e-10)


def test_channel_response_rejects_bad_channel():
    half = PrototypeHalf(np.ones(4), 2)
    assert_raises(ValueError, channel_response_warped, half, 2, 0.5, 0.0)
    assert_raises(ValueError, channel_response_warped, half, -1, 0.5, 0.0)


@pytest.mark.parametrize("channel", [1.5, 1.0, np.True_, True, "1", None])
def test_channel_response_rejects_non_integer_channel(channel):
    # a fraction or a flag is no channel, even where it would index one
    half = PrototypeHalf(np.ones(4), 2)
    with assert_raises(ValueError, match="channel must be an integer"):
        channel_response_warped(half, channel, 0.5, 0.3)
    assert channel_response_warped(half, np.int64(1), 0.5, 0.3) == channel_response_warped(
        half, 1, 0.5, 0.3)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, [0.5, np.nan], [[0.1], [np.inf]]])
def test_public_responses_reject_non_finite_omega(bad):
    # the error the transfer curves raise, not a NaN with RuntimeWarnings
    half = PrototypeHalf(np.ones(4), 2)
    calls = [
        lambda: channel_response_warped(half, 0, bad, 0.3),
        lambda: channel_response_warped(half, 1, bad, 0.3, synthesis=True),
        lambda: prototype_response(half, bad),
        lambda: cosine_basis(bad, 4),
    ]
    for call in calls:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with assert_raises(ValueError, match="omega holds non-finite points"):
                call()


def test_warped_passband_center():
    # each warped channel peaks near the inverse-warped modulation center
    from warpbank import initial_prototype, BankConfig

    config = BankConfig(channels=8, order=64, alpha=0.5783)
    proto = initial_prototype(config)
    omega = np.linspace(1e-3, np.pi - 1e-3, 4096)
    for k in (0, 3, 7):
        mag = np.abs(channel_response_warped(proto, k, omega, 0.5783))
        center = warp_inverse((k + 0.5) * np.pi / 8, 0.5783)
        at_center = np.abs(channel_response_warped(proto, k, center, 0.5783))
        peak = mag.max()
        assert 20 * np.log10(peak / at_center) < 1.0
