"""The first-order warping allpass and the frequency warping map built on it.

The warping replaces every unit delay by the allpass

    A(z) = (z^-1 - alpha) / (1 - alpha z^-1),   |alpha| < 1,

whose frequency response is exp(j*phi(omega)) with phi given in closed form
below.  alpha = 0.5783 approximates the Bark scale at 16 kHz sampling.

A cascade of these sections is the warped delay line: its block model over
chunks of c = _CHUNK samples and its memory (_line_memory) live here.
"""

import functools
import numbers

import numpy as np
from scipy.linalg import toeplitz
from scipy.signal import lfilter

_CHUNK = 64  # the chunk length of the line's block state-space operators


def _check_count(name, value, least):
    """value as an int if it is an integer >= least; 4.9 raises, not truncates."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError("%s must be an integer, got %r" % (name, value))
    if value < least:
        raise ValueError("%s must be >= %d, got %r" % (name, least, value))
    return int(value)


def _check_alpha(alpha):
    real = isinstance(alpha, numbers.Real) and not isinstance(alpha, bool)
    if not (real and abs(alpha) < 1.0):
        raise ValueError("allpass coefficient must satisfy |alpha| < 1, got %r" % (alpha,))
    return float(alpha)


def _check_finite(omega, what="omega"):
    """omega as a float array, which must hold finite points only."""
    points = np.asarray(omega, dtype=float)
    if not np.all(np.isfinite(points)):
        raise ValueError("%s holds non-finite points (NaN or inf)" % what)
    return points


def _maybe_scalar(x, scalar_in):
    return float(x) if scalar_in else x


def allpass_phase(omega, alpha):
    """Unwrapped phase of the warping allpass.

    Parameters
    ----------
    omega : float or array_like
        Angular frequency in radians; any real value is accepted.
    alpha : float
        Allpass coefficient, |alpha| < 1.

    Returns
    -------
    float or ndarray
        phi(omega) = -omega + 2*arctan(alpha*sin(omega) / (alpha*cos(omega) - 1)).

    Notes
    -----
    The arctangent denominator stays strictly negative for |alpha| < 1, so the
    principal branch is already the continuous unwrapped phase: phi(0) = 0,
    phi(pi) = -pi, and phi(omega + 2*pi) = phi(omega) - 2*pi.  phi is odd and
    strictly decreasing.
    """
    alpha = _check_alpha(alpha)
    scalar_in = np.isscalar(omega)
    w = np.asarray(omega, dtype=float)
    phi = -w + 2.0 * np.arctan(alpha * np.sin(w) / (alpha * np.cos(w) - 1.0))
    return _maybe_scalar(phi, scalar_in)


def warp(omega, alpha):
    """Map frequencies on [0, pi] through the warping curve nu = -phi(omega).

    For alpha > 0 low frequencies are expanded (warp(omega) > omega on the
    open interval), which is the Bark-like direction.  Raises ValueError
    outside [0, pi].
    """
    scalar_in = np.isscalar(omega)
    w = np.asarray(omega, dtype=float)
    if np.any(w < -1e-12) or np.any(w > np.pi + 1e-12):
        raise ValueError("warp expects frequencies in [0, pi]")
    w = np.clip(w, 0.0, np.pi)
    return _maybe_scalar(-allpass_phase(w, alpha), scalar_in)


def warp_inverse(nu, alpha):
    """Inverse of warp on [0, pi]; closed form via the sign-flipped coefficient.

    warp(warp_inverse(nu, alpha), alpha) == nu to machine precision.
    """
    _check_alpha(alpha)
    return warp(nu, -alpha)


def _section_coeffs(alpha):
    # transfer (z^-1 - alpha)/(1 - alpha z^-1); the lfilter zi of each
    # section is its one transposed direct form II state variable
    return np.array([-alpha, 1.0]), np.array([1.0, -alpha])


def _line_runs(alpha, taps):
    """Taps over one chunk of the line fed an impulse and fed alpha^t.

    Returns (H, G), each (taps, c): H[n] is the impulse response at tap n.
    alpha^t is a section's output from a unit state and no input, so G[d]
    is the response d sections below a section whose state is one.  One
    lfilter call gives a section's impulse response, and with it U, the
    section's map of a chunk from a zero state (upper-triangular Toeplitz):
    each tap's two rows are those of the tap above times U.
    """
    b, a = _section_coeffs(alpha)
    runs = np.empty((taps, 2, _CHUNK))
    runs[0, 0] = 0.0
    runs[0, 0, 0] = 1.0
    runs[0, 1] = alpha ** np.arange(_CHUNK)
    section = _upper_toeplitz(lfilter(b, a, runs[0, 0]))
    for n in range(1, taps):
        np.matmul(runs[n - 1], section, out=runs[n])
    return runs[:, 0], runs[:, 1]


def _upper_toeplitz(row):
    """The upper-triangular Toeplitz matrix whose first row is row."""
    column = np.zeros_like(row)
    column[0] = row[0]
    return toeplitz(column, row)


def _power_rows(first):
    """The first rows of U, U^2, U^3, ... for the upper-triangular Toeplitz
    U whose first row is first.  Every power of U is upper-triangular
    Toeplitz, so its first row holds all its entries: the k-fold
    self-convolution of first, cut to its length."""
    edge = first
    while True:
        yield edge
        edge = np.convolve(edge, first)[: first.size]


def _phi_row(alpha, G):
    """The first row of the state map Phi, from G of _line_runs: z_unit[d],
    the end state of the section d below one whose start state is 1."""
    z_unit = alpha * G[:-1, -1]
    z_unit[1:] += G[:-2, -1]
    return z_unit


@functools.lru_cache(maxsize=64)
def _line_memory(alpha, order):
    """(K+1) c samples, kept per (alpha, order): K is the least k with
    max|Phi^k| <= 2^-52, the chunks after which the line (and the transposed
    one, by Phi^T) has forgotten its start state.  Past them and the
    impulse's own chunk every warped impulse response is below 2^-52.  For
    order 176, K = 3 at alpha = 0, 14 at 0.5783, 67 at 0.9 and 697 at 0.99."""
    first = _phi_row(alpha, _line_runs(alpha, order)[1])
    for k, edge in enumerate(_power_rows(first), 1):
        if np.abs(edge).max() <= np.finfo(float).eps:
            return (k + 1) * _CHUNK
