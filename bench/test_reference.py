"""Checks of the benchmark's independent reference against closed forms."""

import numpy as np

import reference as ref


def _random_bank(rng, channels=4, taps=4):
    half = rng.standard_normal(channels * taps)
    ratios = [4, 3, 2, 1][:channels]
    return half, ratios


def test_unwarped_transfer_equals_dft_of_modulated_filters():
    # at alpha = 0 every warped response is the DFT of the channel filter;
    # with L a multiple of every ratio the alias images land on DFT bins
    rng = np.random.default_rng(7)
    half, ratios = _random_bank(rng)
    analysis, synthesis = ref.modulated_filters(half, 4)
    L = 120
    H = np.fft.fft(analysis, L)
    F = np.fft.fft(synthesis, L)
    bins = np.arange(L // 2 + 1)
    t_dist = np.zeros(bins.size, dtype=complex)
    t_alias = np.zeros(bins.size, dtype=complex)
    for k, s in enumerate(ratios):
        t_dist += H[k, bins] * F[k, bins]
        for l in range(1, s):
            t_alias += H[k, (bins + l * L // s) % L] * F[k, bins]
    got_dist, got_alias, bound = ref.transfer_parts(
        half, 4, 0.0, ratios, 2 * np.pi * bins / L
    )
    scale = np.abs(H).max() * np.abs(F).max()
    assert np.max(np.abs(got_dist - t_dist)) <= 1e-12 * scale
    assert np.max(np.abs(got_alias - t_alias)) <= 1e-12 * scale
    assert np.all(bound >= np.abs(got_alias) - 1e-12 * scale)


def test_modulated_filters_mirror():
    # the synthesis filter is the time-reversed analysis filter
    rng = np.random.default_rng(8)
    half, _ = _random_bank(rng)
    analysis, synthesis = ref.modulated_filters(half, 4)
    assert np.allclose(synthesis, analysis[:, ::-1], rtol=0, atol=1e-12)


def test_allpass_powers_first_section_closed_form():
    # A(z) = (z^-1 - a)/(1 - a z^-1) has impulse response -a, then (1-a^2) a^(t-1)
    a = 0.5783
    g = ref.allpass_powers(a, 3, 12)
    t = np.arange(1, 12)
    assert g[1, 0] == -a
    assert np.allclose(g[1, 1:], (1 - a * a) * a ** (t - 1), rtol=0, atol=1e-15)
    # two sections: the convolution of two single-section responses
    assert np.allclose(g[2], np.convolve(g[1], g[1])[:12], rtol=0, atol=1e-15)


def test_unwarped_chain_is_plain_fir_multirate():
    rng = np.random.default_rng(9)
    half, ratios = _random_bank(rng)
    analysis, synthesis = ref.modulated_filters(half, 4)
    x = rng.standard_normal(200)
    want = np.zeros(x.size)
    for k, s in enumerate(ratios):
        up = np.zeros(x.size)
        up[::s] = np.convolve(x, analysis[k])[: x.size][::s] * s
        want += np.convolve(up, synthesis[k])[: x.size]
    got = ref.chain(x, half, 4, 0.0, ratios, x.size)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.abs(want).max()


def test_warp_inverse_and_bandpass_rule():
    nu = np.linspace(0.0, np.pi, 33)
    assert np.max(np.abs(ref.warp(ref.warp(nu, -0.5783), 0.5783) - nu)) < 1e-14
    # band [0.1, 0.2] fits a ratio-2 zone (0.0-0.25) but not ratio 3 (0.167)
    assert ref.bandpass_ok(2, 0.1, 0.2)
    assert not ref.bandpass_ok(3, 0.1, 0.2)
    # band [0.26, 0.32] fits zone 2 of ratio 3 (0.167-0.333)
    assert ref.bandpass_ok(3, 0.26, 0.32)
