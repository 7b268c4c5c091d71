"""Cosine modulation of a lowpass prototype into channel filters.

All channel filters derive from one real linear-phase prototype h of even
length N = 2*m*M.  Analysis filter k is

    h_k[n] = 2 h[n] cos((2k+1) pi/(2M) (n - (N-1)/2) + (-1)^k pi/4)

and the synthesis filter flips the sign of the pi/4 offset, which makes
f_k[n] = h_k[N-1-n].  Every channel response reduces to the prototype's,
exp(-j(N-1)x/2) sum_i h_i 2cos((2i+1)x/2): summed by Clenshaw's recurrence
for one channel, or as the recurrence-filled cosine basis where many
responses share it (the transfer tables).
"""

from dataclasses import dataclass

import numpy as np

from .allpass import _check_count, allpass_phase


@dataclass
class PrototypeHalf:
    """Free half of the symmetric prototype: coeffs holds h[N/2] .. h[N-1].

    The full impulse response mirrors it, h[n] = h[N-1-n].  Length must be a
    multiple of the channel count (so N = 2*m*M for integer m >= 1).
    """

    coeffs: np.ndarray
    channels: int

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.coeffs.ndim != 1 or self.coeffs.size == 0:
            raise ValueError("prototype half must be a nonempty 1-D array")
        self.channels = _check_count("channels", self.channels, 1)
        if self.coeffs.size % self.channels != 0:
            raise ValueError(
                "half length %d is not a multiple of %d channels"
                % (self.coeffs.size, self.channels)
            )

    @property
    def order(self):
        return 2 * self.coeffs.size

    def full(self):
        """Full-length symmetric impulse response."""
        return np.concatenate([self.coeffs[::-1], self.coeffs])

    @classmethod
    def from_full(cls, h, channels):
        h = np.asarray(h, dtype=float)
        if h.ndim != 1 or h.size % 2:
            raise ValueError("full prototype must be 1-D with even length")
        scale = np.max(np.abs(h)) or 1.0
        if np.max(np.abs(h - h[::-1])) > 1e-12 * scale:
            raise ValueError("full prototype is not symmetric")
        return cls(h[h.size // 2:], channels)


@dataclass
class ChannelFilters:
    """Analysis and synthesis banks as (M, N) coefficient matrices."""

    analysis: np.ndarray
    synthesis: np.ndarray


def modulation_constants(channels, order):
    """Per-channel unit-modulus modulation constants.

    Returns (a, b, w) with a_k = exp(j*(-1)^k pi/4),
    b_k = w^((k+0.5)(N-1)/2) for w = exp(-j pi/M).
    """
    k = np.arange(channels)
    a = np.exp(1j * ((-1.0) ** k) * np.pi / 4)
    b = np.exp(-1j * np.pi * (k + 0.5) * (order - 1) / (2 * channels))
    w = np.exp(-1j * np.pi / channels)
    return a, b, w


def modulate(prototype):
    """Expand a prototype into the M analysis and synthesis filters.

    Parameters
    ----------
    prototype : PrototypeHalf

    Returns
    -------
    ChannelFilters
        Real (M, N) matrices; synthesis rows are time-reversed analysis rows.
    """
    M = prototype.channels
    h = prototype.full()
    N = prototype.order
    n = np.arange(N)
    k = np.arange(M)[:, None]
    arg = (2 * k + 1) * np.pi / (2 * M) * (n - (N - 1) / 2)
    offs = ((-1.0) ** k) * (np.pi / 4)
    return ChannelFilters(
        analysis=2.0 * h * np.cos(arg + offs),
        synthesis=2.0 * h * np.cos(arg - offs),
    )


def cosine_basis(omega, order, out=None):
    """Half-filter cosine stack [2 cos((2i+1) omega/2)], i = 0 .. N/2-1.

    With the linear-phase factor split off, the prototype response is
    exp(-j(N-1)omega/2) * cosine_basis(omega, N) @ half.  Accepts scalar or
    array omega; the basis index runs along the last axis.  The stack is
    filled by the forward recurrence y_{i+1} = 2cos(omega) y_i - y_{i-1},
    so each angle costs two cosines instead of N/2.  out, a C-contiguous
    float array of shape (N/2 + 1,) + omega.shape, takes the recurrence in
    place of a new array (the result is then a view of out[1:]).
    """
    if _check_count("order", order, 2) % 2:
        raise ValueError("order must be even and positive")
    w = np.asarray(omega, dtype=float)
    a = 2.0 * np.cos(w)
    shape = (order // 2 + 1,) + w.shape
    y = np.empty(shape) if out is None else out  # y[i] holds y_{i-1}
    if y.shape != shape or y.dtype != float or not y.flags.c_contiguous:
        raise ValueError("out must be a C-contiguous float array of shape %s" % (shape,))
    y[0] = y[1] = 2.0 * np.cos(w / 2.0)  # y_{-1} = y_0
    for i in range(2, y.shape[0]):
        np.multiply(a, y[i - 1], out=y[i, ...])
        y[i] -= y[i - 2]
    return np.moveaxis(y[1:], 0, -1)


def _half_response(coeffs, x):
    """sum_i coeffs[i] 2cos((2i+1)x/2) at any real x, by Clenshaw's recurrence.

    b_i = coeffs[i] + 2cos(x) b_{i+1} - b_{i+2} runs down from b_n = b_{n+1} = 0,
    and the sum is 2cos(x/2)(b_0 - b_1): two cosines and N/2 multiply-adds per
    angle, with no (angles x N/2) basis built.  Times exp(-j(N-1)x/2) it is the
    response of the symmetric filter whose free half is coeffs.
    """
    x = np.asarray(x, dtype=float)
    a = 2.0 * np.cos(x)
    b1, b2, t = np.zeros_like(x), np.zeros_like(x), np.empty_like(x)
    for h in coeffs[::-1].tolist():
        np.multiply(a, b1, out=t)
        t -= b2
        t += h
        b1, b2, t = t, b1, b2
    return 2.0 * np.cos(x / 2.0) * (b1 - b2)


def prototype_response(prototype, omega):
    """Complex frequency response of the (unwarped) prototype at omega."""
    scalar_in = np.isscalar(omega)
    w = np.asarray(omega, dtype=float)
    r = np.exp(-0.5j * (prototype.order - 1) * w) * _half_response(prototype.coeffs, w)
    return complex(r) if scalar_in else r


def _pair_angles(omega, channel, channels, alpha):
    """Stacked lookup angles nu -/+ c_k, nu = -phi(omega), c_k = pi(k+0.5)/M."""
    nu = -allpass_phase(omega, alpha)
    c = np.pi * (channel + 0.5) / channels
    return np.stack([nu - c, nu + c])


def _pair_scaling(g, channel, channels, order, synthesis=False):
    """Complex weights (c1 e^{-j(N-1)g1/2}, conj(c1) e^{-j(N-1)g2/2}) of a pair.

    g stacks the pair on its first axis, as _pair_angles returns it; c1 is
    a_k b_k, or conj(a_k) b_k for synthesis.
    """
    a, b, _ = modulation_constants(channels, order)
    c1 = (np.conj(a[channel]) if synthesis else a[channel]) * b[channel]
    s = np.exp(-0.5j * (order - 1) * g)
    s[0] *= c1
    s[1] *= np.conj(c1)
    return s


def channel_response_warped(prototype, channel, omega, alpha, synthesis=False):
    """Frequency response of warped channel filter at physical frequency omega.

    Evaluates the channel filter with every delay replaced by the warping
    allpass, i.e. sum_n h_k[n] A(e^{j omega})^n.  Equals the uniform channel
    response looked up at the warped frequency nu = warp(omega):

        a_k b_k H(e^{j(nu - c_k)}) + conj(a_k b_k) H(e^{j(nu + c_k)})

    with c_k = pi(k+0.5)/M; the synthesis filter conjugates a_k only.

    Parameters
    ----------
    prototype : PrototypeHalf
    channel : int
    omega : float or array_like
        Physical angular frequency, any real value (alias images included).
    alpha : float
    synthesis : bool
        Evaluate f_k instead of h_k.
    """
    M = prototype.channels
    if not 0 <= channel < M:
        raise ValueError("channel %d out of range for %d channels" % (channel, M))
    g = _pair_angles(omega, channel, M, alpha)
    s = _pair_scaling(g, channel, M, prototype.order, synthesis)
    r = np.einsum("p...,p...->...", s, _half_response(prototype.coeffs, g))
    return complex(r) if np.isscalar(omega) else r
