"""The first-order warping allpass and the frequency warping map built on it.

The warping replaces every unit delay by the allpass

    A(z) = (z^-1 - alpha) / (1 - alpha z^-1),   |alpha| < 1,

whose frequency response is exp(j*phi(omega)) with phi given in closed form
below.  alpha = 0.5783 approximates the Bark scale at 16 kHz sampling.
"""

import numbers

import numpy as np


def _check_alpha(alpha):
    real = isinstance(alpha, numbers.Real) and not isinstance(alpha, bool)
    if not (real and abs(alpha) < 1.0):
        raise ValueError("allpass coefficient must satisfy |alpha| < 1, got %r" % (alpha,))
    return float(alpha)


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
