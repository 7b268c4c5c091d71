"""Two-level weighted least squares design of the prototype filter.

Outer level: reweight the frequency grid by the envelope of the error ripple
until the envelope is flat enough.  Inner level: damped Newton iteration on

    g(h) = sum_omega B(omega) E(omega)^2,   E = |T_all|^2 - 1,

with exact gradient and Hessian of the quartic objective.  The result drives
the overall transfer toward an allpass while the subsampling choice keeps
aliasing down.
"""

import time
from dataclasses import dataclass, field

import numpy as np
from scipy.signal import firwin

from .modulation import PrototypeHalf
from .transfer import (
    BankConfig,
    TransferTables,
    _check_count,
    _coherent_parts,
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

    phase_seconds holds wall seconds per phase of design(): "tables" builds
    the TransferTables, "inner" runs every inner loop, "metrics" computes
    the final ripple and alias of the last iterate on the design grid by
    the uniform route of warpbank.transfer (the curves overall_transfer and
    aliasing_transfer give there).  The starting prototype and the envelope
    passes are in no phase, so the values sum to less than the run.
    """

    objective_trace: np.ndarray
    inner_iterations: list
    outer_iterations: int
    final_ripple_db: float
    final_alias_db: float
    flatness: float
    converged: bool
    phase_seconds: dict = field(default_factory=dict)


@dataclass
class BankDesign:
    """A finished design: the prototype half, the BankConfig it was designed
    from and the quality metrics design() measured on that config's grid.

    channels, order, alpha, subsampling and sample_rate_hz read the config.
    """

    half: np.ndarray
    config: BankConfig
    ripple_db: float
    max_alias_db: float
    outer_iterations: int
    converged: bool

    def __post_init__(self):
        self.half = np.asarray(self.half, dtype=float)
        if self.half.ndim != 1 or not np.all(np.isfinite(self.half)):
            raise ValueError("prototype half must be a 1-D array of finite coefficients")
        if self.config.order != 2 * self.half.size:
            raise ValueError("order %d does not match %d prototype coefficients"
                             % (self.config.order, 2 * self.half.size))
        self.outer_iterations = _check_count("outer_iterations", self.outer_iterations, 0)
        if not isinstance(self.converged, (bool, np.bool_)):
            raise ValueError("converged must be true or false, got %r" % (self.converged,))

    channels = property(lambda self: self.config.channels)
    order = property(lambda self: self.config.order)
    alpha = property(lambda self: self.config.alpha)
    subsampling = property(lambda self: self.config.subsampling)
    sample_rate_hz = property(lambda self: self.config.sample_rate_hz)

    def prototype_half(self):
        return PrototypeHalf(self.half, self.channels)

    def prototype(self):
        """Full-length symmetric prototype impulse response."""
        return self.prototype_half().full()


# grid points per block of the derivative pass; the block's mix d ta is as
# large as its rows of ta
_GRID_BLOCK = 64


def _evaluate(half, weights, tables, order=2, products=None):
    """Objective and derivatives of g(h) = sum B E^2 from precomputed tables.

    Returns (g, grad, hess, t_all, error); grad/hess are None below the
    requested derivative order.  products, if given, is
    tables.channel_products(half), already computed.

    The tables hold the quadratic form in the DCT-IV basis of the cosine
    modulation, U = sum_c ta_c us'_c^T with us'_c = p0 (sc_c c0 - j ss_c d0)
    (see TransferTables): each canonical column c selects m = N/(2M) signed
    columns of c0 and of d0.  With G grid points, M channels and n = N/2,
    orders 0 and 1 cost one GEMV over ta (2 G M n multiply-adds) and two
    (G, n) x (n, M) GEMMs, as with per-channel tables.  The derivatives take
    one pass over blocks of _GRID_BLOCK grid points in real arithmetic; a
    complex array is a pair of (re, im) planes.  Per block:

    - v = (U + U^T) h is sum_c B_c ta_c, one batched matmul against ta's
      planes, plus c0 (A' @ sc) - j d0 (A' @ ss) with A' = p0 A, one GEMM.
      It fills that block of the error gradient.
    - The Gauss-Newton terms of the Hessian are one GEMM of v against its
      planes, weighted by a 2x2 matrix per grid point.
    - The curvature of E, Re sum c ta_c us'_c^T (symmetrized), is with d =
      c p0 the sum over c of Re(d ta_c)^T (sc_c c0) + Im(d ta_c)^T (ss_c d0).
      The planes of d ta are one batched matmul of 2x2 mixes against ta's;
      one batched matmul takes them against the m signed c0 and d0 columns
      each canonical column selects, gathered from basis0 for the block:
      2 G n^2 multiply-adds in all, where per-channel weights took 2 M G
      n^2.  Z of (2, channels, n, m) gathers the products, and it is
      scattered into the (n, n) cross term once, after the last block.

    So no scaled copy of the table is made.  Memory above the tables is the
    (grid, order/2) error gradient and one block.
    """
    A, B = tables.channel_products(half) if products is None else products
    t = np.einsum("gm,gm->g", A, B)
    err = t.real**2 + t.imag**2 - 1.0
    g = float(np.dot(weights, err * err))
    if order < 1:
        return g, None, None, t, err
    n2, M = half.size, A.shape[1]
    # [sc, 0; 0, ss]: rows (Re A', Im A') and (Im A', -Re A') give the
    # planes of A' @ sc and of -j A' @ ss
    split = np.zeros((2 * M, 2 * n2))
    split[:M, :n2], split[M:, n2:] = tables.sc, tables.ss
    # per grid point, 2 (Re t, Im t): the error gradient's weights on v
    tt = 2.0 * np.stack([t.real, t.imag], axis=-1)[:, None, :]
    grad_err = np.empty((t.size, n2))
    if order >= 2:
        hess = np.zeros((n2, n2))
        w2 = 4.0 * weights * err
        # Gauss-Newton weights of v's planes, 2 B tt^T tt + w2 I, and the
        # mixes [Re d, -Im d; Im d, Re d] that take ta's planes to d ta's
        gn = (2.0 * weights)[:, None, None] * tt.transpose(0, 2, 1) * tt
        gn += w2[:, None, None] * np.eye(2)
        d = w2 * np.conj(t) * tables.p0
        mix = np.stack([d.real, -d.imag, d.imag, d.real], axis=-1).reshape(-1, 2, 2)
        # the columns of (c0, d0) that canonical column c selects, (2, M, m),
        # as flat positions in a (2 n) row of basis0
        columns, signs = tables.columns, tables.signs
        flat = (columns + n2 * np.arange(2)[:, None, None]).ravel()
        z = np.zeros((2, M, n2, columns.shape[2]))
    # work buffers for one block, reused by every block
    points = min(_GRID_BLOCK, t.size)
    coef = np.empty((points, 4, M))
    rows = np.empty((points, 4, M))
    v = np.empty((points, 2, n2))
    q = np.empty((points, 2, 2, n2))
    work = np.empty(points * 2 * M * n2 if order >= 2 else 0)
    for first in range(0, t.size, _GRID_BLOCK):
        b = slice(first, first + _GRID_BLOCK)
        ta, basis0 = tables.ta[b], tables.basis0[b]
        size = ta.shape[0]
        if size < points:
            coef, rows, v, q = coef[:size], rows[:size], v[:size], q[:size]
        # analysis half: (Re B, -Im B) and (Im B, Re B) against ta's planes
        Bb, pa = B[b], tables.p0[b, None] * A[b]
        coef[:, 0] = coef[:, 3] = Bb.real
        coef[:, 2] = Bb.imag
        np.negative(Bb.imag, out=coef[:, 1])
        np.matmul(coef.reshape(size, 2, 2 * M), ta.reshape(size, 2 * M, n2), out=v)
        # synthesis half: q[g, plane, c0/d0] from one GEMM, times the bases
        rows[:, 0] = pa.real
        rows[:, 1] = rows[:, 2] = pa.imag
        np.negative(pa.real, out=rows[:, 3])
        np.matmul(rows.reshape(2 * size, 2 * M), split, out=q.reshape(2 * size, 2 * n2))
        q *= basis0[:, None]
        v += q[:, :, 0]
        v += q[:, :, 1]
        np.matmul(tt[b], v, out=grad_err[b, None])
        if order < 2:
            continue
        hess += v.reshape(-1, n2).T @ np.matmul(gn[b], v).reshape(-1, n2)
        # z[0, c] += Re(d ta_c)^T (sc_c c0) and z[1, c] += Im(d ta_c)^T (ss_c d0)
        du = work[: size * 2 * M * n2].reshape(size, 2, M * n2)
        np.matmul(mix[b], ta.reshape(size, 2, M * n2), out=du)
        du = du.reshape(size, 2, M, n2).transpose(1, 2, 3, 0)
        picked = np.take(basis0.reshape(size, 2 * n2), flat, axis=1).reshape(size, *signs.shape)
        picked *= signs
        z += np.matmul(du, picked.transpose(1, 2, 0, 3))
    grad = 2.0 * (weights * err) @ grad_err
    if order < 2:
        return g, grad, None, t, err
    cross = np.zeros((n2, n2))
    for zp, cols in zip(z, columns):
        cross[:, cols.ravel()] += zp.transpose(1, 0, 2).reshape(n2, n2)
    hess += cross + cross.T
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
    max_iterations = int(max_iterations)
    for _ in range(max_iterations):
        if np.max(np.abs(grad)) == 0.0:
            break
        while True:
            try:
                step = np.linalg.solve(hess + lam * eye, -grad)
                if not np.all(np.isfinite(step)):
                    raise np.linalg.LinAlgError("non-finite step")
                trial = h + step
                # kept, so the accepted step's derivatives reuse its products
                products = tables.channel_products(trial)
                g_new = _evaluate(trial, weights, tables, 0, products)[0]
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
        h, g = trial, g_new
        iterations += 1
        lam /= 10.0
        trace.append(g)
        # the last step's derivatives would go unused
        if float(step @ step) <= step_tol or iterations == max_iterations:
            break
        _, grad, hess, _, _ = _evaluate(h, weights, tables, 2, products)
    return h, iterations, trace


def find_extrema(abs_error):
    """Ripple peaks of |E| as (index, value) pairs, endpoints included.

    Local maxima are detected by neighbor comparison (plateaus counted once).
    Interior extrema sitting strictly below both neighbors are absorbed
    iteratively, so the list keeps only the peaks that shape the ripple
    envelope.  None of them is left below both of its neighbors, so only an
    endpoint can sit below its one neighbor; it is raised to that value.
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
    clamped[0] = max(vals[0], vals[1])
    clamped[-1] = max(vals[-1], vals[-2])
    return list(zip(idx, clamped))


def envelope(extrema, grid):
    """Piecewise-linear envelope through the extremum points, over the grid."""
    grid = np.asarray(grid, dtype=float)
    idx = np.array([i for i, _ in extrema], dtype=int)
    vals = np.array([v for _, v in extrema], dtype=float)
    return np.interp(grid, grid[idx], vals)


# |E| at or below this is rounding, not ripple: a prototype whose T_all is 1
# to rounding leaves peaks of about 1e-15 to 1e-12 whose spread is noise.
# The flagship's |E| is about 2e-6, four decades above.
_FLAT_FLOOR = 1e-10


def flatness(envelope_values):
    """Relative envelope spread (max-min)/(max+min); 0 for an envelope that
    peaks at or below _FLAT_FLOOR, all-zero included."""
    b = np.asarray(envelope_values, dtype=float)
    hi, lo = b.max(), b.min()
    if hi <= _FLAT_FLOOR:
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
    # one DFT bin of the taps at the edge frequency
    bin_edge = np.exp(-1j * edge * np.arange(N))

    def edge_amp(cutoff):
        return abs(firwin(N, cutoff, window=("kaiser", config.kaiser_beta)) @ bin_edge)

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
    hit; a capped run returns the last pass's iterate flagged non-converged.
    """
    omega = frequency_grid(config)
    clock = time.perf_counter
    phases = dict.fromkeys(("tables", "inner", "metrics"), 0.0)
    start = clock()
    tables = TransferTables(config, omega)
    phases["tables"] = clock() - start
    h = initial_prototype(config).coeffs
    weights = np.ones(omega.size)
    trace = []
    inner_counts = []
    converged = False
    flat = np.inf
    outer = 0
    for outer in range(1, config.max_outer + 1):
        start = clock()
        h, n_iter, seg = inner_loop(
            h, weights, tables, config.max_inner, config.step_tol
        )
        phases["inner"] += clock() - start
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
    # both metrics read the curves that warpbank evaluate prints on this grid
    start = clock()
    dist, alias = _coherent_parts(PrototypeHalf(h, config.channels), omega, config)
    t_db = to_db(dist + alias)
    ripple = float(t_db.max() - t_db.min())
    alias_db = float(to_db(alias).max())
    phases["metrics"] = clock() - start
    bank = BankDesign(
        half=h,
        config=config,
        ripple_db=ripple,
        max_alias_db=alias_db,
        outer_iterations=outer,
        converged=converged,
    )
    report = OptimizerReport(
        objective_trace=np.asarray(trace),
        inner_iterations=inner_counts,
        outer_iterations=outer,
        final_ripple_db=ripple,
        final_alias_db=alias_db,
        flatness=float(flat),
        converged=converged,
        phase_seconds=phases,
    )
    return bank, report
