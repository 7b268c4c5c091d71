"""Cosine modulation of a lowpass prototype into channel filters.

All channel filters derive from one real linear-phase prototype h of even
length N = 2*m*M.  Analysis filter k is

    h_k[n] = 2 h[n] cos((2k+1) pi/(2M) (n - (N-1)/2) + (-1)^k pi/4)

and the synthesis filter flips the sign of the pi/4 offset, which makes
f_k[n] = h_k[N-1-n].  Every channel response reduces to the prototype's,
exp(-j(N-1)x/2) sum_i h_i 2cos((2i+1)x/2): summed by Clenshaw's recurrence
for the prototype, and as 2 Re of the harmonics e^{j(2i+1)x/2} (_harmonics)
for cosine_basis and warpbank.transfer's warped routes, which give every
channel's warped response (channel_response_warped reads one).
"""

from dataclasses import dataclass

import numpy as np

from .allpass import _check_count, _check_finite


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


def _harmonics(half_turn, out):
    """Fill out[s, b] = e^{j(2b+1)nu[s]/2}, b < P = out.shape[1], from half_turn
    = e^{j nu/2}; return e^{jP nu}.  Rows n .. 2n-1 are rows 0 .. n-1 times
    e^{jn nu} = out[:, 0] out[:, n-1], so each entry's error grows linearly
    in b, also at nu near 0 and pi."""
    out[:, 0] = half_turn
    n, P = 1, out.shape[1]
    while n < P:
        turn = out[:, 0] * out[:, n - 1]  # e^{jn nu}
        np.multiply(out[:, : min(n, P - n)], turn[:, None], out=out[:, n : 2 * n])
        n *= 2
    return out[:, 0] * out[:, P - 1]


def cosine_basis(omega, order):
    """Half-filter cosine stack [2 cos((2i+1) omega/2)], i = 0 .. N/2-1.

    With the linear-phase factor split off, the prototype response is
    exp(-j(N-1)omega/2) * cosine_basis(omega, N) @ half.  Accepts scalar or
    array omega, which must be finite; the basis index runs along the last
    axis.  The stack is 2 Re of the harmonics e^{j(2i+1)omega/2}
    (_harmonics).
    """
    if _check_count("order", order, 2) % 2:
        raise ValueError("order must be even and positive")
    w = _check_finite(omega)
    E = np.empty((1, order // 2, w.size), complex)
    _harmonics(np.exp(0.5j * w.ravel()), E)
    return 2.0 * E[0].real.T.reshape(w.shape + (order // 2,))


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
    """Complex frequency response of the (unwarped) prototype at finite omega."""
    w = _check_finite(omega)
    r = np.exp(-0.5j * (prototype.order - 1) * w) * _half_response(prototype.coeffs, w)
    return complex(r) if np.isscalar(omega) else r


def channel_response_warped(prototype, channel, omega, alpha, synthesis=False):
    """Frequency response of warped channel filter at physical frequency omega.

    Evaluates the channel filter with every delay replaced by the warping
    allpass, i.e. sum_n h_k[n] A(e^{j omega})^n.  Equals the uniform channel
    response looked up at the warped frequency nu = warp(omega):

        a_k b_k H(e^{j(nu - c_k)}) + conj(a_k b_k) H(e^{j(nu + c_k)})

    with c_k = pi(k+0.5)/M; the synthesis filter conjugates a_k only.  Read
    off every channel's responses, by the route the transfer curves take.

    Parameters
    ----------
    prototype : PrototypeHalf
    channel : int
    omega : float or array_like
        Physical angular frequency, any finite value (alias images too).
    alpha : float
    synthesis : bool
        Evaluate f_k instead of h_k.
    """
    from . import transfer  # transfer builds on this module, so not at import

    M = prototype.channels
    if _check_count("channel", channel, 0) >= M:
        raise ValueError("channel %d out of range for %d channels" % (channel, M))
    w = _check_finite(omega)
    config = transfer.BankConfig(M, prototype.order, alpha)
    r = transfer._channel_responses(prototype, w.ravel(), config)[1 if synthesis else 0][channel]
    return complex(r[0]) if np.isscalar(omega) else r.reshape(w.shape)
