"""Per-channel subsampling ratio selection for the warped bank.

Each warped channel occupies a physical frequency band obtained by pulling
the uniform channel edges through the inverse warp.  The band edges then
admit classic bandpass sampling: ratio S with band index n is feasible when

    ceil((n-1) / (2 f_L)) <= S <= floor(n / (2 f_U))

and the selector takes the largest feasible S over all n (smallest n on
ties).  Edges widen by one uniform channel on each side, so each channel
keeps a transition margin before folding starts.
"""

import math
from dataclasses import dataclass

import numpy as np

from .allpass import _check_count, warp_inverse


@dataclass
class ChannelBand:
    """Physical band and chosen sampling for one channel (edges in cycles)."""

    channel: int
    f_lower: float
    f_upper: float
    band_index: int
    ratio: int


def uniform_edges(channels):
    """Uniform channel edge frequencies k*pi/M for k = 0 .. M."""
    channels = _check_count("channels", channels, 1)
    return np.arange(channels + 1) * np.pi / channels


def warped_band(channel, channels, alpha):
    """Physical band (f_lower, f_upper) of one warped channel, in cycles.

    Interior channels span the inverse-warped edges one channel below and two
    above; the first channel starts at DC and the last ends at Nyquist.
    """
    channels = _check_count("channels", channels, 1)
    if not 0 <= _check_count("channel", channel, 0) < channels:
        raise ValueError("channel %d out of range" % channel)
    edges = uniform_edges(channels)
    if channel == 0:
        lo = 0.0
    else:
        lo = warp_inverse(edges[channel - 1], alpha) / (2.0 * np.pi)
        if lo <= 0.0:  # the k=1 lower edge can come back as -0.0
            lo = 0.0
    if channel == channels - 1:
        hi = 0.5
    else:
        hi = warp_inverse(edges[channel + 2], alpha) / (2.0 * np.pi)
    return float(lo), float(hi)


# most band indices select_ratio scans, f_U / (f_U - f_L); bounds its cost
_MAX_BAND_INDEX = 2**16


def select_ratio(f_lower, f_upper):
    """Largest alias-free integer decimation ratio for a band, with its index.

    Parameters
    ----------
    f_lower, f_upper : float
        Band edges in cycles per sample, 0 <= f_lower < f_upper <= 0.5, with
        f_upper / (f_upper - f_lower) at most 2**16.

    Returns
    -------
    (ratio, band_index) : (int, int)
        Bandpass-sampling solution maximizing the ratio; ties prefer the
        smaller band index.  Falls back to (1, 1) when nothing larger fits.
        A ratio too large for a float (edges near 1e-308) is not considered.
    """
    f_lower = float(f_lower)
    f_upper = float(f_upper)
    if not (0.0 <= f_lower < f_upper <= 0.5):
        raise ValueError("need 0 <= f_lower < f_upper <= 0.5")
    width = f_upper - f_lower
    if f_upper / width > _MAX_BAND_INDEX:
        raise ValueError(
            "band width %.3g is too narrow: f_upper/width exceeds %d band indices"
            % (width, _MAX_BAND_INDEX)
        )
    best_s, best_n = 1, 1
    n_max = max(int(math.floor(f_upper / width)), 1)
    for n in range(1, n_max + 1):
        if f_lower == 0.0:
            if n > 1:
                break  # lower bound diverges without a guard band
            lo = 0.0
        else:
            lo = (n - 1) / (2.0 * f_lower)
        hi = n / (2.0 * f_upper)
        if math.isinf(lo) or math.isinf(hi):
            break  # edges near 1e-308: both bounds only grow with n
        lo, hi = math.ceil(lo), math.floor(hi)
        if hi >= max(lo, 1) and hi > best_s:
            best_s, best_n = hi, n
    return best_s, best_n


def band_table(channels, alpha):
    """ChannelBand rows for a whole bank."""
    rows = []
    for k in range(_check_count("channels", channels, 1)):
        lo, hi = warped_band(k, channels, alpha)
        s, n = select_ratio(lo, hi)
        rows.append(ChannelBand(k, lo, hi, n, s))
    return rows


def select_all(channels, alpha):
    """Chosen decimation ratios for every channel as an integer vector."""
    return np.array([row.ratio for row in band_table(channels, alpha)], dtype=int)
