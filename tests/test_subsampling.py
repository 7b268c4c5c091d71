import time

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_equal
from pytest import raises as assert_raises

from warpbank import (
    band_table,
    select_all,
    select_ratio,
    uniform_edges,
    warp_inverse,
    warped_band,
)
# warp coefficient approximating the auditory band scale at 16 kHz
BARK_ALPHA_16K = 0.5783

# channel 0 deliberately takes the full rule value; other selections in use
# sometimes raise it by hand to trade aliasing margin for rate
GOLDEN_22 = [40, 27, 20, 15, 12, 21, 18, 15, 13, 12,
             10, 9, 7, 6, 5, 5, 4, 3, 1, 1, 2, 3]


def test_uniform_edges():
    assert_allclose(uniform_edges(4), np.array([0, 1, 2, 3, 4]) * np.pi / 4, atol=0)
    assert_raises(ValueError, uniform_edges, 0)


def test_golden_selection_22_channels():
    ratios = select_all(22, BARK_ALPHA_16K)
    assert_equal(ratios, GOLDEN_22)


def test_selection_is_fast():
    import time

    t0 = time.perf_counter()
    select_all(22, BARK_ALPHA_16K)
    assert time.perf_counter() - t0 < 1.0


def test_band_channel_3():
    lo, hi = warped_band(3, 22, BARK_ALPHA_16K)
    assert abs(lo - 0.0122) < 5e-4
    assert abs(hi - 0.0316) < 5e-4
    assert_allclose(lo, 0.0122220, atol=5e-7)
    assert_allclose(hi, 0.0316169, atol=5e-7)
    assert select_ratio(lo, hi) == (15, 1)


def test_band_channel_1_starts_above_dc():
    lo, hi = warped_band(1, 22, BARK_ALPHA_16K)
    assert lo == 0.0
    assert_allclose(hi, 0.0184803, atol=5e-7)


def test_band_channel_5():
    lo, hi = warped_band(5, 22, BARK_ALPHA_16K)
    assert_allclose(lo, 0.0249213, atol=5e-7)
    assert_allclose(hi, 0.0461144, atol=5e-7)
    assert select_ratio(lo, hi) == (21, 2)


def test_select_ratio_wideband_cases():
    # a band too wide for any bandpass placement falls back to no decimation
    assert select_ratio(0.1, 0.5) == (1, 1)
    assert select_ratio(0.0, 0.5) == (1, 1)


def test_select_ratio_lowpass_case():
    # baseband-only placement when the band starts at DC
    assert select_ratio(0.0, 0.1) == (5, 1)


@st.composite
def _bands(draw):
    """Bands 0 <= f_L < f_U <= 0.5 in cycles, f_L = 0 included, down to the
    narrowest select_ratio accepts: f_U/(f_U - f_L) = 2**16 band indices.
    """
    lower = draw(st.just(0.0) | st.floats(0.0, 0.499, allow_subnormal=False))
    narrowest = lower / (1.0 - 2.0**-16)
    upper = draw(
        st.floats(narrowest, 0.5, exclude_min=True, allow_subnormal=False)
        | st.just(0.5)
    )
    assume(upper / (upper - lower) <= 2**16)
    return lower, upper


@given(_bands())
def test_select_ratio_satisfies_bandpass_sampling(band):
    # the band lies in one Nyquist zone of the decimated rate:
    # (n-1)/(2S) <= f_L and f_U <= n/(2S) for the returned ratio S and index n,
    # both multiplied through by 2S: bands near 1e-308 give S near 1e308
    f_lower, f_upper = band
    ratio, n = select_ratio(f_lower, f_upper)
    assert ratio >= 1 and n >= 1
    assert n - 1 <= ratio * (2.0 * f_lower) * (1 + 1e-12)
    assert ratio * (2.0 * f_upper) <= n * (1 + 1e-12)


@pytest.mark.parametrize(
    "call",
    [lambda: uniform_edges(4.9), lambda: warped_band(0, 4.9, 0.5),
     lambda: warped_band(1.5, 4, 0.5), lambda: band_table(4.9, 0.5),
     lambda: select_all(4.9, 0.5)],
    ids=["uniform-edges", "warped-band", "warped-band-channel", "band-table",
         "select-all"],
)
def test_fractional_counts_raise(call):
    # 4.9 channels used to run as 4 (or give 5 edges) after int() truncation
    with assert_raises(ValueError, match="channel"):
        call()


def test_select_ratio_rejects_too_narrow_band():
    # the index scan is bounded: a band 1e-12 wide would need 3e11 indices
    t0 = time.perf_counter()
    with assert_raises(ValueError, match="width 1e-12"):
        select_ratio(0.3, 0.3 + 1e-12)
    assert time.perf_counter() - t0 < 0.1
    # the narrowest accepted band still gets an answer
    lower = 0.3
    upper = lower / (1.0 - 2.0**-16)
    assert upper / (upper - lower) <= 2**16
    ratio, n = select_ratio(lower, upper)
    assert (n - 1) / (2.0 * ratio) <= lower and upper <= n / (2.0 * ratio)


def test_select_ratio_validation():
    assert_raises(ValueError, select_ratio, -0.1, 0.3)
    assert_raises(ValueError, select_ratio, 0.3, 0.2)
    assert_raises(ValueError, select_ratio, 0.2, 0.6)
    assert_raises(ValueError, select_ratio, 0.2, 0.2)


def test_selection_unwarped_four_channels():
    assert_equal(select_all(4, 0.0), [2, 1, 1, 2])


def test_unwarped_bands_are_uniform():
    # with no warping the edges reduce to (k-1)/(2M) and (k+2)/(2M)
    M = 8
    for k in range(M):
        lo, hi = warped_band(k, M, 0.0)
        want_lo = 0.0 if k == 0 else (k - 1) / (2.0 * M)
        want_hi = 0.5 if k == M - 1 else (k + 2) / (2.0 * M)
        assert_allclose([lo, hi], [want_lo, want_hi], atol=1e-15)


def test_band_edges_monotone_and_shared():
    rows = band_table(22, BARK_ALPHA_16K)
    lows = np.array([r.f_lower for r in rows])
    highs = np.array([r.f_upper for r in rows])
    # the first two channels both start at DC; above that the edges climb
    assert lows[0] == 0.0 and lows[1] == 0.0
    assert np.all(np.diff(lows[1:]) > 0)
    assert np.all(np.diff(highs) > 0)
    assert np.all(highs > lows)
    # upper edge of channel k is the lower edge of channel k+3 exactly
    for k in range(22 - 3):
        assert_allclose(rows[k].f_upper, rows[k + 3].f_lower, rtol=1e-12)


def test_warped_band_validation():
    assert_raises(ValueError, warped_band, 22, 22, 0.5783)
    assert_raises(ValueError, warped_band, -1, 22, 0.5783)


def test_no_aliasing_into_selected_bands():
    # brute force: fold every alias image of the band interior and check that
    # none of the folded lines lands back inside the open band
    rows = band_table(22, BARK_ALPHA_16K)
    probe = np.linspace(0.0, 1.0, 97)
    for row in rows:
        S = row.ratio
        f = row.f_lower + (row.f_upper - row.f_lower) * probe
        for l in range(1, S):
            for sign in (1.0, -1.0):
                g = np.mod(sign * f + l / S, 1.0)
                g = np.where(g > 0.5, 1.0 - g, g)
                if np.allclose(g, f):
                    continue  # the line folded back onto itself
                inside = (g > row.f_lower + 1e-9) & (g < row.f_upper - 1e-9)
                assert not np.any(inside), (row.channel, l, sign)


def test_selection_deterministic():
    assert_equal(select_all(22, BARK_ALPHA_16K), select_all(22, BARK_ALPHA_16K))


def test_band_table_consistency():
    rows = band_table(12, 0.4)
    assert len(rows) == 12
    for k, row in enumerate(rows):
        assert row.channel == k
        lo, hi = warped_band(k, 12, 0.4)
        assert_allclose([row.f_lower, row.f_upper], [lo, hi], atol=0)
        assert (row.ratio, row.band_index) == select_ratio(lo, hi)
    assert_equal(select_all(12, 0.4), [r.ratio for r in rows])


def test_band_edges_come_from_inverse_warp():
    lo, hi = warped_band(4, 22, 0.5783)
    edges = uniform_edges(22)
    assert_allclose(lo, warp_inverse(edges[3], 0.5783) / (2 * np.pi), atol=0)
    assert_allclose(hi, warp_inverse(edges[6], 0.5783) / (2 * np.pi), atol=0)
