"""Independent reference for the warped cosine-modulated bank.

Everything here is written from the definitions, with numpy only and none of
the warpbank package, so the benchmark can check the program's outputs
against it:

* channel filters from the cosine-modulation formula applied to the full
  prototype;
* warped channel responses as the polynomial sum_n h_k[n] A(e^{jw})^n with
  A(z) = (z^-1 - alpha) / (1 - alpha z^-1), evaluated by Horner's rule;
* distortion, aliasing and overall transfer as sums over channels and alias
  images w + 2 pi l / S_k;
* a plain multirate chain for a signal prefix: the allpass impulse responses
  come from a sample-by-sample section recursion, then each channel is
  convolved, decimated by S_k, zero-inserted and scaled by S_k, convolved
  with its synthesis filter and summed.
"""

import numpy as np


def modulated_filters(half, channels):
    """Analysis and synthesis filters as (M, N) arrays.

    h_k[n] = 2 h[n] cos((2k+1) pi/(2M) (n - (N-1)/2) +/- (-1)^k pi/4), with
    the plus sign for analysis and the minus sign for synthesis.
    """
    half = np.asarray(half, dtype=float)
    h = np.concatenate([half[::-1], half])
    n = np.arange(h.size)
    k = np.arange(channels)[:, None]
    arg = (2 * k + 1) * np.pi / (2 * channels) * (n - (h.size - 1) / 2.0)
    offset = (-1.0) ** k * np.pi / 4.0
    return 2.0 * h * np.cos(arg + offset), 2.0 * h * np.cos(arg - offset)


def allpass(omega, alpha):
    """A(e^{jw}) = (e^{-jw} - alpha) / (1 - alpha e^{-jw})."""
    z1 = np.exp(-1j * np.asarray(omega, dtype=float))
    return (z1 - alpha) / (1.0 - alpha * z1)


def warped_response(filt, omega, alpha):
    """sum_n filt[n] A(e^{jw})^n at every omega, by Horner's rule."""
    a = allpass(omega, alpha)
    acc = np.full(a.shape, filt[-1], dtype=complex)
    for c in filt[-2::-1]:
        acc *= a
        acc += c
    return acc


def transfer_parts(half, channels, alpha, ratios, omega):
    """(t_dist, t_alias, alias_bound) of the warped bank at omega.

    t_dist sums H_k(w) F_k(w) over channels; t_alias sums the images
    H_k(w + 2 pi l / S_k) F_k(w) for l = 1 .. S_k - 1, and alias_bound sums
    their magnitudes.  T_all = t_dist + t_alias.
    """
    omega = np.asarray(omega, dtype=float)
    analysis, synthesis = modulated_filters(half, channels)
    t_dist = np.zeros(omega.shape, dtype=complex)
    t_alias = np.zeros(omega.shape, dtype=complex)
    bound = np.zeros(omega.shape)
    for k in range(channels):
        s = int(ratios[k])
        f = warped_response(synthesis[k], omega, alpha)
        images = omega + 2.0 * np.pi * np.arange(s).reshape((s,) + (1,) * omega.ndim) / s
        h = warped_response(analysis[k], images, alpha)
        t_dist += h[0] * f
        terms = h[1:] * f
        t_alias += terms.sum(axis=0)
        bound += np.abs(terms).sum(axis=0)
    return t_dist, t_alias, bound


def warp(omega, alpha):
    """Warped frequency nu = -arg A(e^{jw}); warp(., -alpha) inverts it."""
    omega = np.asarray(omega, dtype=float)
    return omega + 2.0 * np.arctan2(alpha * np.sin(omega), 1.0 - alpha * np.cos(omega))


def warped_band(channel, channels, alpha):
    """Physical band (f_lower, f_upper) in cycles of one channel.

    The band runs from the inverse-warped uniform edge one channel below to
    the one two channels above, clamped to DC and Nyquist at the ends.
    """
    lo = 0.0
    hi = 0.5
    if channel > 0:
        lo = max(float(warp(np.pi * (channel - 1) / channels, -alpha)) / (2 * np.pi), 0.0)
    if channel < channels - 1:
        hi = float(warp(np.pi * (channel + 2) / channels, -alpha)) / (2 * np.pi)
    return lo, hi


def bandpass_ok(ratio, f_lower, f_upper, slack=1e-12):
    """True when decimating the band [f_lower, f_upper] by ratio folds nothing.

    That holds when (n-1)/(2 f_lower) <= ratio <= n/(2 f_upper) for some
    integer n >= 1, i.e. the band fits in one Nyquist zone of the low rate.
    """
    if ratio == 1:
        return True
    n = int(np.ceil(2.0 * f_upper * ratio - slack))
    return n >= 1 and n - 1 <= 2.0 * f_lower * ratio + slack


def allpass_powers(alpha, taps, length):
    """Impulse responses of A^n for n < taps, first `length` samples.

    Row n is row n-1 passed through one section
    y[t] = alpha y[t-1] + x[t-1] - alpha x[t], run sample by sample.
    """
    g = np.zeros((taps, length))
    g[0, 0] = 1.0
    for n in range(1, taps):
        prev_x = prev_y = 0.0
        out = []
        for x in g[n - 1].tolist():
            prev_y = alpha * prev_y + prev_x - alpha * x
            prev_x = x
            out.append(prev_y)
        g[n] = out
    return g


def chain(signal, half, channels, alpha, ratios, length):
    """Output of the analysis-synthesis chain for the first `length` samples.

    The chain is causal, so this prefix equals the prefix of the full run.
    """
    x = np.asarray(signal, dtype=float)[:length]
    length = x.size
    analysis, synthesis = modulated_filters(half, channels)
    powers = allpass_powers(alpha, analysis.shape[1], length)
    warped_analysis = analysis @ powers
    warped_synthesis = synthesis @ powers
    out = np.zeros(length)
    for k in range(channels):
        s = int(ratios[k])
        sub = np.convolve(x, warped_analysis[k])[:length][::s]
        up = np.zeros(length)
        up[::s] = sub * s
        out += np.convolve(up, warped_synthesis[k])[:length]
    return out
