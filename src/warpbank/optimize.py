"""Two-level weighted least squares design of the prototype filter.

Outer level: reweight the frequency grid by the envelope of the error ripple
until the envelope is flat enough.  Inner level: damped Newton iteration on

    g(h) = sum_omega B(omega) E(omega)^2,   E = |T_all|^2 - 1,

with exact gradient and Hessian of the quartic objective.  The result drives
the overall transfer toward an allpass while the subsampling choice keeps
aliasing down.
"""

from dataclasses import dataclass

import numpy as np
from scipy.signal import firwin

from .modulation import PrototypeHalf
from .transfer import (
    TransferTables,
    _check_count,
    _check_geometry,
    _check_sample_rate,
    aliasing_transfer,
    distortion_transfer,
    frequency_grid,
    to_db,
)


@dataclass
class OptimizerReport:
    """Bookkeeping from one design run.

    objective_trace concatenates the accepted objective values of every inner
    loop (each segment has inner_iterations[i] + 1 entries and is monotone
    non-increasing; the weights change between segments, so values are not
    comparable across segment boundaries).
    """

    objective_trace: np.ndarray
    inner_iterations: list
    outer_iterations: int
    final_ripple_db: float
    final_alias_db: float
    flatness: float
    converged: bool


@dataclass
class BankDesign:
    """A finished design: prototype, bank geometry and quality metrics."""

    half: np.ndarray
    channels: int
    alpha: float
    subsampling: np.ndarray
    ripple_db: float
    max_alias_db: float
    outer_iterations: int
    converged: bool
    sample_rate_hz: float = None

    def __post_init__(self):
        self.half = np.asarray(self.half, dtype=float)
        if not np.all(np.isfinite(self.half)):
            raise ValueError("prototype coefficients must be finite")
        self.channels, _, self.alpha, self.subsampling = _check_geometry(
            self.channels, 2 * self.half.size, self.alpha, self.subsampling
        )
        self.outer_iterations = _check_count("outer_iterations", self.outer_iterations, 0)
        if not isinstance(self.converged, (bool, np.bool_)):
            raise ValueError("converged must be true or false, got %r" % (self.converged,))
        self.sample_rate_hz = _check_sample_rate(self.sample_rate_hz)

    @property
    def order(self):
        return 2 * self.half.size

    def prototype_half(self):
        return PrototypeHalf(self.half, self.channels)

    def prototype(self):
        """Full-length symmetric prototype impulse response."""
        return self.prototype_half().full()


def _evaluate(half, weights, tables, order=2):
    """Objective and derivatives of g(h) = sum B E^2 from precomputed tables.

    Returns (g, grad, hess, t_all, error); grad/hess are None below the
    requested derivative order.
    """
    A, B = tables.channel_products(half)
    t = np.einsum("gm,gm->g", A, B)
    err = t.real**2 + t.imag**2 - 1.0
    g = float(np.dot(weights, err * err))
    if order < 1:
        return g, None, None, t, err
    # v = (U + U^T) h per grid point; E gradient is 2(Re t * Re v + Im t * Im v)
    v = np.einsum("gmn,gm->gn", tables.ua, B) + np.einsum(
        "gmn,gm->gn", tables.us, A
    )
    grad_err = 2.0 * (t.real[:, None] * v.real + t.imag[:, None] * v.imag)
    grad = 2.0 * (weights * err) @ grad_err
    if order < 2:
        return g, grad, None, t, err
    hess = grad_err.T @ ((2.0 * weights)[:, None] * grad_err)
    w2 = 4.0 * weights * err
    hess += v.real.T @ (w2[:, None] * v.real) + v.imag.T @ (w2[:, None] * v.imag)
    # curvature of E itself: Re[ sum c (u_a u_s^T + u_s u_a^T) ], c = w2 conj(t)
    c = w2 * np.conj(t)
    G, M, n2 = tables.ua.shape
    scaled = (c[:, None, None] * tables.ua).reshape(G * M, n2)
    cross = scaled.T @ tables.us.reshape(G * M, n2)
    hess += cross.real + cross.real.T
    return g, grad, hess, t, err


def objective(half, weights, tables):
    """Weighted squared design error sum_omega B(omega) E(omega)^2."""
    return _evaluate(np.asarray(half, float), np.asarray(weights, float), tables, 0)[0]


def gradient(half, weights, tables):
    """Exact gradient of the objective with respect to the half vector."""
    return _evaluate(np.asarray(half, float), np.asarray(weights, float), tables, 1)[1]


def hessian(half, weights, tables):
    """Exact (symmetric) Hessian of the objective."""
    return _evaluate(np.asarray(half, float), np.asarray(weights, float), tables, 2)[2]


def inner_loop(h0, weights, tables, max_iterations=50, step_tol=1e-10):
    """Damped Newton descent at fixed weights.

    Solves (hess + lambda I) e = -grad. lambda starts at zero and is scaled
    up tenfold whenever the step fails to decrease the objective (or the
    solve fails), down tenfold after success.  Stops when ||e||^2 <= step_tol
    or the iteration cap is reached.

    Returns (h, iterations, trace) with trace holding the accepted objective
    values, entry value first.
    """
    h = np.asarray(h0, dtype=float).copy()
    weights = np.asarray(weights, dtype=float)
    n = h.size
    eye = np.eye(n)
    g, grad, hess, _, _ = _evaluate(h, weights, tables)
    if not np.isfinite(g):
        raise ValueError("objective is not finite at the starting point")
    trace = [g]
    lam = 0.0
    iterations = 0
    for _ in range(int(max_iterations)):
        if np.max(np.abs(grad)) == 0.0:
            break
        while True:
            try:
                step = np.linalg.solve(hess + lam * eye, -grad)
                if not np.all(np.isfinite(step)):
                    raise np.linalg.LinAlgError("non-finite step")
                g_new = _evaluate(h + step, weights, tables, 0)[0]
                if np.isfinite(g_new) and g_new <= g:
                    break
            except np.linalg.LinAlgError:
                pass
            lam = lam * 10.0 if lam > 0.0 else 1e-6 * max(
                float(np.abs(np.diag(hess)).mean()), 1e-12
            )
            if lam > 1e15:
                raise RuntimeError(
                    "Newton system singular at maximum damping "
                    "(|grad|=%.3e, objective=%.3e)" % (np.max(np.abs(grad)), g)
                )
        h = h + step
        iterations += 1
        lam /= 10.0
        g, grad, hess, _, _ = _evaluate(h, weights, tables)
        trace.append(g)
        if float(step @ step) <= step_tol:
            break
    return h, iterations, trace


def find_extrema(abs_error):
    """Ripple peaks of |E| as (index, value) pairs, endpoints included.

    Local maxima are detected by neighbor comparison (plateaus counted once).
    Interior extrema sitting strictly below both neighbors are absorbed
    iteratively, so the list keeps only the peaks that shape the ripple
    envelope; any remaining value below the minimum of its neighbors (an
    endpoint against its single neighbor) is raised to that minimum.
    """
    a = np.asarray(abs_error, dtype=float)
    if a.ndim != 1 or a.size < 2:
        raise ValueError("need a 1-D error magnitude with at least 2 samples")
    interior = np.flatnonzero((a[1:-1] >= a[:-2]) & (a[1:-1] >= a[2:])) + 1
    idx = [0]
    for i in interior:
        if i != idx[-1] + 1 or a[i] != a[idx[-1]]:
            idx.append(int(i))
    if idx[-1] != a.size - 1:
        idx.append(a.size - 1)
    vals = [float(a[i]) for i in idx]
    changed = True
    while changed:
        changed = False
        j = 1
        while j < len(idx) - 1:
            if vals[j] < min(vals[j - 1], vals[j + 1]):
                del idx[j]
                del vals[j]
                changed = True
            else:
                j += 1
    vals = np.asarray(vals)
    clamped = vals.copy()
    for j in range(len(idx)):
        nb = []
        if j > 0:
            nb.append(vals[j - 1])
        if j < len(idx) - 1:
            nb.append(vals[j + 1])
        lo = min(nb)
        if clamped[j] < lo:
            clamped[j] = lo
    return list(zip(idx, clamped))


def envelope(extrema, grid):
    """Piecewise-linear envelope through the extremum points, over the grid."""
    grid = np.asarray(grid, dtype=float)
    idx = np.array([i for i, _ in extrema], dtype=int)
    vals = np.array([v for _, v in extrema], dtype=float)
    return np.interp(grid, grid[idx], vals)


def flatness(envelope_values):
    """Relative envelope spread (max-min)/(max+min); 0 for an all-zero envelope."""
    b = np.asarray(envelope_values, dtype=float)
    hi, lo = b.max(), b.min()
    if hi == 0.0:
        return 0.0
    return (hi - lo) / (hi + lo)


def update_weights(weights, envelope_values, theta):
    """Reweight by the envelope, normalized to unit energy.

    B' = B * beta^theta / A with A = sqrt(sum (B beta^theta)^2).
    """
    w = np.asarray(weights, dtype=float) * np.asarray(envelope_values, float) ** theta
    norm = float(np.sqrt(np.sum(w * w)))
    if norm == 0.0:
        raise ValueError("envelope collapsed to zero; weights undefined")
    return w / norm


def initial_prototype(config):
    """Kaiser-windowed lowpass starting point.

    The firwin cutoff is calibrated by bisection so the amplitude response
    crosses 1/sqrt(2) at the uniform channel edge pi/(2M): the analysis-
    synthesis product is then 6 dB down there and adjacent channels tile to
    approximately unit overall transfer.  Scaled so |T_dist| = 1 at DC.
    """
    M = config.channels
    N = config.order
    edge = np.pi / (2 * M)
    target = 1.0 / np.sqrt(2.0)

    def edge_amp(cutoff):
        h = firwin(N, cutoff, window=("kaiser", config.kaiser_beta))
        proto = PrototypeHalf(h[N // 2 :], M)
        from .modulation import prototype_response

        return abs(prototype_response(proto, edge))

    lo, hi = 0.25 / M, 1.0 / M
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if edge_amp(mid) < target:
            lo = mid
        else:
            hi = mid
    h = firwin(N, 0.5 * (lo + hi), window=("kaiser", config.kaiser_beta))
    half = h[N // 2 :]
    t0 = distortion_transfer(half, 0.0, config)
    half = half / np.sqrt(abs(t0))
    return PrototypeHalf(half, M)


def design(config):
    """Run the full two-level design and return (BankDesign, OptimizerReport).

    Iterates inner_loop / find_extrema / envelope / flatness test /
    update_weights until the envelope spread drops to psi or the outer cap is
    hit; a capped run returns the best iterate flagged non-converged.
    """
    omega = frequency_grid(config)
    tables = TransferTables(config, omega)
    h = initial_prototype(config).coeffs
    weights = np.ones(omega.size)
    trace = []
    inner_counts = []
    converged = False
    flat = np.inf
    outer = 0
    for outer in range(1, config.max_outer + 1):
        h, n_iter, seg = inner_loop(
            h, weights, tables, config.max_inner, config.step_tol
        )
        inner_counts.append(n_iter)
        trace.extend(seg)
        err = _evaluate(h, weights, tables, 0)[4]
        ext = find_extrema(np.abs(err))
        beta = envelope(ext, omega)
        flat = flatness(beta)
        if flat <= config.psi:
            converged = True
            break
        weights = update_weights(weights, beta, config.theta)
    t_db = to_db(tables.overall(h))
    ripple = float(t_db.max() - t_db.min())
    alias_db = float(to_db(aliasing_transfer(h, omega, config)).max())
    bank = BankDesign(
        half=h,
        channels=config.channels,
        alpha=config.alpha,
        subsampling=config.subsampling,
        ripple_db=ripple,
        max_alias_db=alias_db,
        outer_iterations=outer,
        converged=converged,
        sample_rate_hz=config.sample_rate_hz,
    )
    report = OptimizerReport(
        objective_trace=np.asarray(trace),
        inner_iterations=inner_counts,
        outer_iterations=outer,
        final_ripple_db=ripple,
        final_alias_db=alias_db,
        flatness=float(flat),
        converged=converged,
    )
    return bank, report
