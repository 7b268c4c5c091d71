"""Distortion, aliasing and overall transfer behavior of a warped bank.

The analysis-synthesis chain with per-channel decimation by S_k has

    T_all(omega) = sum_k sum_{l=0..S_k-1} H_k^w(omega + 2 pi l/S_k) F_k^w(omega)

where the l = 0 terms form the distortion transfer and l >= 1 the aliasing
transfer.  A given prototype is evaluated directly: one pass over the channels
computes each F_k^w once and yields the products one image at a time, in
O(grid * order/2) memory; every transfer curve here sums that pass.  Scoring
many prototypes on one grid (the optimizer) uses TransferTables instead: the
per-channel vectors of the quadratic form T_all = h^T U(omega) h.
"""

import functools
import numbers
from dataclasses import dataclass

import numpy as np

from . import modulation
from .allpass import allpass_phase, _check_alpha
from .modulation import PrototypeHalf, cosine_basis, modulation_constants


def _check_sample_rate(rate):
    """Return rate if it is None or a positive finite number, else raise."""
    real = isinstance(rate, numbers.Real) and not isinstance(rate, bool)
    if rate is not None and not (real and 0.0 < rate < np.inf):
        raise ValueError("sample_rate_hz must be a positive number, got %r" % (rate,))
    return rate


def _check_count(name, value, least):
    """value as an int if it is an integer >= least; 4.9 raises, not truncates."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError("%s must be an integer, got %r" % (name, value))
    if value < least:
        raise ValueError("%s must be >= %d, got %r" % (name, least, value))
    return int(value)


def _check_geometry(channels, order, alpha, subsampling):
    """Checked (channels, order = 2mM, |alpha| < 1, one ratio >= 1 per channel).

    subsampling None means every ratio is 1.
    """
    channels = _check_count("channels", channels, 1)
    order = _check_count("order", order, 2)
    if order % (2 * channels):
        raise ValueError("order must be an even multiple of 2*channels, got %d" % order)
    ratios = np.ones(channels, int) if subsampling is None else np.asarray(subsampling)
    if ratios.shape != (channels,):
        raise ValueError("subsampling must hold one ratio per channel")
    ratios = np.array([_check_count("subsampling", s, 1) for s in ratios.tolist()])
    return channels, order, _check_alpha(alpha), ratios


@dataclass
class BankConfig:
    """Static description of a bank design problem.

    subsampling holds the per-channel decimation ratios; grid_points defaults
    to max(8N, 1024).  sample_rate_hz is carried as metadata only.
    """

    channels: int
    order: int
    alpha: float
    subsampling: np.ndarray = None
    grid_points: int = None
    sample_rate_hz: float = None
    theta: float = 1.2
    psi: float = 0.6
    kaiser_beta: float = 9.0
    max_inner: int = 50
    max_outer: int = 30
    step_tol: float = 1e-10

    def __post_init__(self):
        self.channels, self.order, self.alpha, self.subsampling = _check_geometry(
            self.channels, self.order, self.alpha, self.subsampling
        )
        if self.grid_points is None:
            self.grid_points = max(8 * self.order, 1024)
        for name, least in (("grid_points", 2), ("max_inner", 1), ("max_outer", 1)):
            setattr(self, name, _check_count(name, getattr(self, name), least))
        self.sample_rate_hz = _check_sample_rate(self.sample_rate_hz)
        for name in ("theta", "psi", "kaiser_beta", "step_tol"):
            setattr(self, name, float(getattr(self, name)))
            if not 0.0 <= getattr(self, name) < np.inf:
                raise ValueError("%s must be finite and >= 0" % name)


def frequency_grid(config):
    """Dense evaluation grid over [0, pi], endpoints included."""
    return np.linspace(0.0, np.pi, config.grid_points)


def modulation_angles(omega, image, channel, config):
    """Pair of prototype lookup angles for one channel and alias image.

    gamma1/gamma2 = -phi(omega + 2 pi image/S_k) -/+ pi(channel+0.5)/M.
    """
    S = config.subsampling[channel]
    if not 0 <= image < S:
        raise ValueError("image index %d out of range for ratio %d" % (image, S))
    w = np.asarray(omega, dtype=float)
    nu = -allpass_phase(w + 2.0 * np.pi * image / S, config.alpha)
    c = np.pi * (channel + 0.5) / config.channels
    return nu - c, nu + c


def _pair_vector(order, g1, g2, c1):
    # c1 * e^{-j(N-1)g1/2} C(g1) + conj(c1) * e^{-j(N-1)g2/2} C(g2)
    e1 = np.exp(-1j * (order - 1) * g1 / 2.0)
    e2 = np.exp(-1j * (order - 1) * g2 / 2.0)
    return c1 * e1[..., None] * cosine_basis(g1, order) + np.conj(c1) * e2[
        ..., None
    ] * cosine_basis(g2, order)


def analysis_vector(omega, image, channel, config):
    """Vector u with u @ half = H_k^w(omega + 2 pi image / S_k).

    Shape is omega.shape + (order/2,); complex.
    """
    a, b, _ = modulation_constants(config.channels, config.order)
    g1, g2 = modulation_angles(omega, image, channel, config)
    return _pair_vector(config.order, g1, g2, a[channel] * b[channel])


def synthesis_vector(omega, channel, config):
    """Vector u with u @ half = F_k^w(omega); synthesis uses no alias shift."""
    a, b, _ = modulation_constants(config.channels, config.order)
    g1, g2 = modulation_angles(omega, 0, channel, config)
    return _pair_vector(config.order, g1, g2, np.conj(a[channel]) * b[channel])


class TransferTables:
    """Stacked per-channel response vectors over a frequency grid.

    ua[g, k, :] @ half gives the alias-summed analysis response of channel k
    at grid point g; us[g, k, :] @ half gives the synthesis response.  The
    overall transfer at g is then sum_k (ua @ h)(us @ h), one einsum per
    optimizer iteration instead of assembling any U matrix.
    """

    def __init__(self, config, omega=None):
        self.config = config
        self.omega = frequency_grid(config) if omega is None else np.asarray(omega, float)
        G = self.omega.size
        M = config.channels
        n2 = config.order // 2
        self.ua = np.zeros((G, M, n2), dtype=complex)
        self.us = np.zeros((G, M, n2), dtype=complex)
        for k in range(M):
            self.us[:, k, :] = synthesis_vector(self.omega, k, config)
            acc = np.zeros((G, n2), dtype=complex)
            for l in range(config.subsampling[k]):
                acc += analysis_vector(self.omega, l, k, config)
            self.ua[:, k, :] = acc

    def channel_products(self, half):
        """(analysis, synthesis) responses per grid point and channel."""
        return self.ua @ half, self.us @ half

    def overall(self, half):
        """T_all over the grid via the quadratic form."""
        A, B = self.channel_products(half)
        return np.einsum("gm,gm->g", A, B)


def transfer_quadratic(omega, config):
    """Quadratic-form matrix U(omega) at one frequency, h^T U h = T_all.

    U = sum_k ua_k outer us_k from one-point TransferTables; for small-scale
    checks of the table vectors against the direct route.
    """
    tables = TransferTables(config, [float(omega)])
    return tables.ua[0].T @ tables.us[0]


def _as_proto(half, config):
    if isinstance(half, PrototypeHalf):
        return half
    return PrototypeHalf(np.asarray(half, float), config.channels)


def _pointwise(reduce):
    """Let reduce(proto, w, config) over a 1-D grid w take scalar omega too."""

    @functools.wraps(reduce)
    def wrapper(half, omega, config):
        w = np.atleast_1d(np.asarray(omega, dtype=float))
        out = reduce(_as_proto(half, config), w, config)
        return out[0].item() if np.isscalar(omega) else out

    return wrapper


def _image_products(proto, w, config, distortion=True, aliasing=True):
    """Yield (l, H_k^w(w + 2 pi l/S_k) F_k^w(w)) for every channel k.

    l = 0 is the distortion image and l = 1 .. S_k-1 the alias images; each
    group is included when its flag is set.  F_k^w is computed once per
    channel and products come one at a time, so memory is O(grid * order/2).
    """
    # looked up per call, so bench/run.py's layer tracing counts these calls
    response = modulation.channel_response_warped
    for k in range(config.channels):
        S = config.subsampling[k]
        images = range(0 if distortion else 1, S if aliasing else 1)
        if images:
            f = response(proto, k, w, config.alpha, synthesis=True)
        for l in images:
            yield l, response(proto, k, w + 2.0 * np.pi * l / S, config.alpha) * f


@_pointwise
def distortion_transfer(proto, w, config):
    """Alias-free part of the overall transfer, sum_k H_k^w(omega) F_k^w(omega)."""
    products = _image_products(proto, w, config, aliasing=False)
    return sum((p for _, p in products), np.zeros(w.shape, complex))


@_pointwise
def aliasing_transfer(proto, w, config):
    """Coherent sum of all alias terms (images l >= 1 of every channel)."""
    products = _image_products(proto, w, config, distortion=False)
    return sum((p for _, p in products), np.zeros(w.shape, complex))


@_pointwise
def aliasing_bound(proto, w, config):
    """Incoherent worst-case alias magnitude sum_k sum_{l>=1} |H_k^w F_k^w|.

    A conservative bound; the coherent aliasing_transfer is what enters T_all.
    """
    products = _image_products(proto, w, config, distortion=False)
    return sum((np.abs(p) for _, p in products), np.zeros(w.shape))


@_pointwise
def overall_transfer(proto, w, config):
    """T_all in one pass; the parts sum apart so it equals distortion + aliasing."""
    parts = np.zeros((2,) + w.shape, complex)
    for l, p in _image_products(proto, w, config):
        parts[min(l, 1)] += p
    return parts[0] + parts[1]


@_pointwise
def error_function(proto, w, config):
    """Design error E(omega) = |T_all|^2 - 1 over the given frequencies."""
    t = overall_transfer(proto, w, config)
    return t.real**2 + t.imag**2 - 1.0


def to_db(x, floor_db=-300.0):
    """Magnitude in dB with a hard floor (handles exact zeros)."""
    lo = 10.0 ** (floor_db / 20.0)
    return 20.0 * np.log10(np.maximum(np.abs(x), lo))


def bifrequency_map(half, config, in_grid, out_grid):
    """Energy transport image of the time-varying chain, in dB.

    Cell (i, j) accumulates the complex products H_k^w(omega_in_i) *
    F_k^w(omega_out_j) over every channel k and alias image l whose shifted
    input omega_in_i + 2 pi l / S_k lands nearest out_grid[j] after folding
    to [0, pi]; magnitude is taken at the end, floored at -300 dB.  With all
    ratios 1 only the l = 0 diagonal remains and equals |t_dist|.
    """
    proto = _as_proto(half, config)
    win = np.asarray(in_grid, dtype=float)
    wout = np.asarray(out_grid, dtype=float)
    acc = np.zeros((win.size, wout.size), dtype=complex)
    order = np.argsort(wout)
    sorted_out = wout[order]
    rows = np.arange(win.size)
    for k in range(config.channels):
        S = config.subsampling[k]
        hk = modulation.channel_response_warped(proto, k, win, config.alpha)
        for l in range(S):
            shifted = np.mod(win + 2.0 * np.pi * l / S, 2.0 * np.pi)
            folded = np.where(shifted > np.pi, 2.0 * np.pi - shifted, shifted)
            fk = modulation.channel_response_warped(
                proto, k, folded, config.alpha, synthesis=True
            )
            # nearest output bin per folded frequency
            pos = np.searchsorted(sorted_out, folded)
            pos = np.clip(pos, 1, sorted_out.size - 1)
            left = sorted_out[pos - 1]
            right = sorted_out[pos]
            nearest = np.where(folded - left <= right - folded, pos - 1, pos)
            cols = order[nearest]
            np.add.at(acc, (rows, cols), hk * fk)
    return to_db(acc)
