"""Distortion, aliasing and overall transfer behavior of a warped bank.

The analysis-synthesis chain with per-channel decimation by S_k has

    T_all(omega) = sum_k sum_{l=0..S_k-1} H_k^w(omega + 2 pi l/S_k) F_k^w(omega)

where the l = 0 terms form the distortion transfer and l >= 1 the aliasing
transfer.  Three routes compute it, each with one job, on two kernels for
the warped channel responses: impulse responses and a factored harmonic.
Which route a curve takes comes from its grid and the line's memory.

The uniform route gives every curve on np.linspace(0, pi, G), the grid
frequency_grid and the CLI build, from the channels' warped impulse
responses over the line's memory (allpass._line_memory), if they fit in
_PASS_BYTES (_uniform): their length grows as 1/(1-|alpha|), and the
route holds about three times their bytes and a block of powers.  The
coherent curves (_uniform_parts) read H_k and F_k off their real FFTs and
each channel's whole image sum off the FFT of its decimated analysis
response: sum_{l<S} H(omega + 2 pi l/S) = S sum_m h[mS] e^{-jmS omega}.
aliasing_bound (_uniform_bound) and, on such an in-grid, bifrequency_map
(_uniform_images) need the images apart: each image of a grid point is a
bin of the lcm(2(G-1), S_k)-point DFT of a response, which
_image_spectra splits into 2(G-1)-point FFTs, one per residue.

The direct pass (_shift_pass) evaluates a given prototype image by image
at any frequencies: the images l/S_k of all channels fall on few distinct
shifts p/q (116 for the 249 images of the 22-channel Bark bank), its
cosine bases at the warped angle nu of a shift and at pi - nu are planes
of one complex harmonic, filled for half its indices and turned by one
factor for the rest, and one real GEMM per shift serves all of the
shift's channels.  Every curve and map takes it wherever the uniform
route does not (a scalar omega among them), and each channel's own
responses come from the same two by the same rule (_channel_responses).

Scoring many prototypes on one grid (the optimizer) uses TransferTables,
built from the same half turns e^{j nu/2} (_half_turns) and harmonics as
the direct pass, every shift per block of grid points: the vectors of the
quadratic form T_all = h^T U(omega) h, U = sum_k ua_k us_k^T.  The
synthesis vectors us are image 0 only and factor into the shift-0 basis
over nu0 and pi - nu0, a phase per grid point and fixed per-channel
weights (wc, ws) = _split_weights(ones).  The cosine modulation is a
DCT-IV: wc = C Sc and ws = C Ss, where C is sqrt 2 times the M-point
DCT-IV (C C^T = M I) and Sc, Ss hold one +-1 per column (_dct4_split).
So U = sum_c T_c us'_c^T with T_c = sum_k C[k, c] ua_k and us'_c = p0
(Sc[c] c0 - j Ss[c] d0): the tables keep T (the size of ua, as real and
imaginary planes) and the factors of us', whose synthesis side selects
N/(2M) cosine columns per canonical column c instead of weighting all
N/2.  The tables are the only route to these vectors; transfer_quadratic
reads U off a one-point table.
"""

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.signal import lfilter, unit_impulse

from . import allpass, modulation
from .allpass import _check_alpha, _check_count, _check_finite, _section_coeffs
from .modulation import PrototypeHalf


@dataclass
class BankConfig:
    """Static description of a bank design problem.

    subsampling holds the per-channel decimation ratios (None means every
    ratio is 1); grid_points defaults to max(8N, 1024).  sample_rate_hz is
    carried as metadata only.
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
        self.channels = _check_count("channels", self.channels, 1)
        self.order = _check_count("order", self.order, 2)
        if self.order % (2 * self.channels):
            raise ValueError("order must be an even multiple of 2*channels, got %d" % self.order)
        self.alpha = _check_alpha(self.alpha)
        ratios = self.subsampling
        ratios = np.ones(self.channels, int) if ratios is None else np.asarray(ratios)
        if ratios.shape != (self.channels,):
            raise ValueError("subsampling must hold one ratio per channel")
        self.subsampling = np.array([_check_count("subsampling", s, 1) for s in ratios.tolist()])
        if self.grid_points is None:
            self.grid_points = max(8 * self.order, 1024)
        for name, least in (("grid_points", 2), ("max_inner", 1), ("max_outer", 1)):
            setattr(self, name, _check_count(name, getattr(self, name), least))
        rate = self.sample_rate_hz
        real = isinstance(rate, numbers.Real) and not isinstance(rate, bool)
        if rate is not None and not (real and 0.0 < rate < np.inf):
            raise ValueError("sample_rate_hz must be a positive number, got %r" % (rate,))
        for name in ("theta", "psi", "kaiser_beta", "step_tol"):
            setattr(self, name, float(getattr(self, name)))
            if not 0.0 <= getattr(self, name) < np.inf:
                raise ValueError("%s must be finite and >= 0" % name)


def frequency_grid(config):
    """Dense evaluation grid over [0, pi], endpoints included."""
    return np.linspace(0.0, np.pi, config.grid_points)


def _check_grid(omega, what="omega"):
    """omega as a float array, which must be a nonempty, finite, real 1-D
    grid; what names it in the error."""
    grid = np.asarray(omega)
    if np.iscomplexobj(grid) or grid.ndim != 1 or grid.size == 0:
        raise ValueError("%s must be a nonempty real 1-D array, got shape %s" % (what, grid.shape))
    return _check_finite(grid, what)


class TransferTables:
    """Stacked response vectors over a frequency grid, in the DCT-IV basis
    of the cosine modulation.

    ta holds, in planar real form (grid, 2, channels, N/2), the canonical
    analysis vectors T_c = sum_k C[k, c] ua_k: (ta[g, 0, c] + j ta[g, 1, c])
    @ half is the response of canonical column c at grid point g, where
    ua_k is channel k's analysis vector summed over its S_k images and C,
    sc, ss come from _dct4_split.  The synthesis side factors as

        us'[g, c, :] = p0[g] (sc[c] c0[g] - j ss[c] d0[g])

    with c0, d0 the real cosine bases at nu0 = -phi(omega) and pi - nu0,
    stored as basis0 = (grid, 2, N/2) with c0 first, and p0 = e^{-j(N-1)
    nu0/2}; each row of sc and ss selects N/(2M) columns with signs, which
    columns and signs also hold as (2, channels, N/(2M)) indices.  The
    channel synthesis vectors are us_k = sum_c C[k, c] us'_c, so the overall
    transfer at g is sum_k (ua_k @ h)(us_k @ h) = sum_c (ta_c @ h)(us'_c @ h).
    The tables hold G M N/2 complex entries once; synthesis_vectors forms
    us' for given grid rows.

    The build fills, per block of grid points, the harmonics E_i = e^{j(2i
    +1)nu/2} of every shift from the half turns e^{j nu/2} (_half_turns):
    the cosine bases are c = c(nu) = 2 Re E and d = c(pi - nu) = 2 (-1)^i
    Im E, and the phase e^{-j(N-1)nu/2} is conj(E_{N/2-1}).  By the
    split-weights identity, ua_k = wc_k Ac_k + j ws_k Ad_k with (wc, ws) =
    _split_weights(ones), where Ac_k and Ad_k sum the phase times c and d
    over the shifts of channel k's images: per grid point and plane, one
    GEMM of the (N/2, shifts) plane, Re E or Im E, against a (shifts,
    channels) phase matrix that holds the phase at the places of the images
    only (249 of the flagship's 116 x 22) and zeros elsewhere.  The split
    weights, with the 2 and (-1)^i folded in, join the planes, C^T mixes
    the channels while the block is in cache, and each row of ta is written
    once.  Shift 0 gives basis0 and p0.
    """

    def __init__(self, config, omega=None):
        self.config = config
        self.omega = frequency_grid(config) if omega is None else _check_grid(omega)
        size, M, N = self.omega.size, config.channels, config.order
        n2 = N // 2
        self.ta = np.empty((size, 2, M, n2))
        self.basis0 = np.empty((size, 2, n2))
        self.p0 = np.empty(size, complex)
        C, self.sc, self.ss = _dct4_split(n2, M)
        # the same selections as (2, channels, N/(2M)) column indices into c0
        # (plane 0) and d0 (plane 1) per canonical column, and their signs
        select = np.stack([self.sc, self.ss])
        self.columns = np.nonzero(select)[2].reshape(2, M, -1)
        self.signs = np.take_along_axis(select, self.columns, axis=2)
        table = _shift_table(config.subsampling)
        shifts = len(table)
        halves = np.exp(1j * np.pi * np.array([[p / q] for (p, q), _, _ in table]))
        # the (shift, channel) place of each image, the channels as a column
        image_shift = np.repeat(np.arange(shifts), [ks.size for _, ks, _ in table])
        image_channel = np.concatenate([ks for _, ks, _ in table])[:, None]
        # c = 2 Re E and d = 2 (-1)^i Im E: the planes' fold per (plane, n)
        fold = 2.0 * np.stack([np.ones(n2), (-1.0) ** np.arange(n2)])
        # (plane, n, re/im, channel): wc on the c sums, ws on the d sums
        split = np.stack([C @ self.sc, C @ self.ss]).transpose(0, 2, 1) * fold[:, :, None]
        split = np.repeat(split[:, :, None], 2, axis=2)
        # grid points per block: their harmonics, complex and as real planes,
        # take up to 1/32 of ta's bytes, and there are at least _TABLE_POINTS
        points = min(size, max(_TABLE_POINTS, self.ta.nbytes // 32 // (32 * n2 * shifts)))
        harmonics = np.empty(n2 * points * shifts, complex)
        planes = np.empty((points, 2, n2, shifts))
        sums = np.empty((points, 2, n2, 2 * M))
        # e^{-j(N-1)nu/2} on each shift's channels: c against (cos, sin)
        # sums to (Re, Im) of Ac, d against (-sin, cos) to (-Im, Re) of Ad,
        # so that ua = wc (c sums) + ws (d sums); every block writes the
        # images' places of the (shift, plane, re/im, channel) phases, and
        # every other place stays 0
        phases = np.zeros((points, shifts, 4, M))
        for first in range(0, size, points):
            block = slice(first, first + points)
            u = _half_turns(halves, np.exp(0.5j * self.omega[block]), config.alpha)
            g = u.shape[1]  # the last block may be ragged
            E = harmonics[: n2 * u.size].reshape(n2, g, shifts)
            modulation._harmonics(u.T, E[None])
            # (n, point, shift) complex into (point, plane, n, shift) real,
            # one unit-stride matrix per point and plane for the GEMMs
            planar = E.view(float).reshape(n2, g, shifts, 2).transpose(1, 3, 0, 2)
            np.copyto(planes[:g], planar)
            np.multiply(planes[:g, :, :, 0], fold, out=self.basis0[block])
            # e^{-j(N-1)nu/2}, (point, shift); |E| drifts from 1 linearly in
            # the index, and the phase scales every image of its shift
            phase = np.conj(E[n2 - 1])
            phase /= np.abs(phase)
            self.p0[block] = phase[:, 0]
            trig = np.stack([phase.real, phase.imag, -phase.imag, phase.real], axis=-1)
            phases[:g, image_shift[:, None], np.arange(4), image_channel] = trig[:, image_shift]
            phase = phases[:g].reshape(g, shifts, 2, 2 * M)
            for p in range(2):  # the c and d planes
                np.matmul(planes[:g, p], phase[:, :, p], out=sums[:g, p])
            s = sums[:g].reshape(g, 2, n2, 2, M)
            s *= split
            ua = np.add(s[:, 0], s[:, 1], out=s[:, 0])  # (grid, n, re/im, channel)
            np.matmul(C.T, ua.transpose(0, 2, 3, 1), out=self.ta[block])

    def synthesis_vectors(self, rows=slice(None)):
        """us' at the given grid rows, complex (points, channels, N/2): the
        synthesis vectors of the canonical columns, formed from the factors."""
        c0, d0 = self.basis0[rows, None, 0], self.basis0[rows, None, 1]
        return self.p0[rows, None, None] * (self.sc * c0 - 1j * (self.ss * d0))

    def channel_products(self, half):
        """(analysis, synthesis) products of the canonical columns, each
        (grid, channels): ta_c @ h and us'_c @ h, whose products sum to T_all
        at each grid point (they are not per-channel responses).

        The analysis one is one real GEMV over ta; the synthesis one is
        p0 (c0 @ (sc h)^T - j d0 @ (ss h)^T), two real GEMMs."""
        half = np.asarray(half, dtype=float)
        a = (self.ta.reshape(-1, half.size) @ half).reshape(self.ta.shape[:3])
        bc = self.basis0[:, 0] @ (self.sc * half).T
        bd = self.basis0[:, 1] @ (self.ss * half).T
        return a[:, 0] + 1j * a[:, 1], self.p0[:, None] * (bc - 1j * bd)

    def overall(self, half):
        """T_all over the grid via the quadratic form."""
        A, B = self.channel_products(half)
        return np.einsum("gm,gm->g", A, B)


def transfer_quadratic(omega, config):
    """Quadratic-form matrix U(omega) at one frequency, h^T U h = T_all.

    U = sum_c ta_c outer us'_c over the canonical columns of a one-point
    TransferTables, us' formed by synthesis_vectors; this equals sum_k ua_k
    outer us_k over the channels.  For small-scale checks of the table
    vectors against the direct route.
    """
    tables = TransferTables(config, np.reshape(omega, 1))
    ta = tables.ta[0, 0] + 1j * tables.ta[0, 1]
    return ta.T @ tables.synthesis_vectors(slice(0, 1))[0]


def _as_proto(half, config):
    if isinstance(half, PrototypeHalf):
        return half
    return PrototypeHalf(np.asarray(half, float), config.channels)


def _pointwise(reduce):
    """Let reduce(proto, w, config) over a 1-D grid w take scalar or N-D omega,
    which must be finite; the result has omega's shape."""

    @functools.wraps(reduce)
    def wrapper(half, omega, config):
        w = _check_finite(omega)
        out = reduce(_as_proto(half, config), w.ravel(), config).reshape(w.shape)
        return out.item() if np.isscalar(omega) else out

    return wrapper


# bytes one block of the direct pass and its consumer may hold (see _shift_pass)
_PASS_BYTES = 4 << 20

# grid points a block of the TransferTables build holds at least, so that
# small grids do not pay numpy's per-call overhead one point at a time
_TABLE_POINTS = 4


def _shift_table(ratios, aliasing=True):
    """The images l/S_k grouped by their shift p/q in lowest terms.

    Returns [((p, q), channels, images)], shift 0 first and listing every
    channel; channel k with ratio S_k has its images l = 0 .. S_k-1 at the
    shifts l/S_k, so a ratio shared by several channels, or a divisor shared
    by their ratios, puts many images on one shift.  Without aliasing only
    shift 0 is listed.
    """
    table = {}
    for k, S in enumerate(ratios.tolist()):
        for l in range(S if aliasing else 1):
            d = math.gcd(l, S)
            ks, ls = table.setdefault((l // d, S // d), ([], []))
            ks.append(k)
            ls.append(l)
    return [(shift, np.array(ks), np.array(ls)) for shift, (ks, ls) in table.items()]


def _dct4_split(n2, channels):
    """(C, sc, ss) with _split_weights(coeffs, M) = (C (sc coeffs), C (ss coeffs)).

    At coeffs = 1 the split weights have the closed forms wc[k, i] = sqrt 2
    cos(pi (2k+1) r / (4M)) and ws[k, i] = sqrt 2 (-1)^(k+i) sin(pi (2k+1) r
    / (4M)) with r = 2i + 1.  C = wc[:, :M] is sqrt 2 times the M-point
    DCT-IV, so C C^T = M I, and every column of either weight is +- a
    column of C: the cosine is even and 8M-periodic in r and changes sign at
    4M - r, and (-1)^k sin((2k+1) x) = cos((2k+1)(pi/2 - x)).  So sc = C^T
    wc / M and ss = C^T ws / M are (M, n2) signed selections to rounding,
    one +-1 per column, and rint makes them exact.  Each run of M columns
    covers every c once for either weight, so a row of sc or ss selects
    N/(2M) columns.
    """
    k, i = np.arange(channels)[:, None], np.arange(n2)
    # (2k+1)(2i+1) reduced mod 8M in integers, so that no angle exceeds 2 pi
    angles = np.pi * ((2 * k + 1) * (2 * i + 1) % (8 * channels)) / (4 * channels)
    wc = np.sqrt(2.0) * np.cos(angles)
    ws = np.sqrt(2.0) * (-1.0) ** (k + i) * np.sin(angles)
    C = wc[:, :channels]
    return C, np.rint(C.T @ wc / channels), np.rint(C.T @ ws / channels)


def _split_weights(coeffs, channels):
    """(wc, ws), each (channels, N/2): channel k's analysis response at
    warped frequency nu is e^{-j(N-1)nu/2} (wc[k] @ C(nu) + j ws[k] @ C(pi - nu))
    with C = cosine_basis, and its synthesis response the same with -j.

    With R(x) = C(x) @ coeffs, the pair sum of channel_response_warped is
    d R(nu - c) + conj(d) R(nu + c) with d = a_k b_k e^{j(N-1)c/2} = a_k,
    since b_k = e^{-j(N-1)c/2}; synthesis conjugates a_k.  R(nu -/+ c) =
    P +/- Q, where P = C(nu) @ (coeffs cos((2i+1)c/2)) and Q =
    2sin((2i+1)nu/2) @ (coeffs sin((2i+1)c/2)), and 2sin((2i+1)nu/2) =
    (-1)^i C_i(pi - nu).  So the sum is 2Re(a_k) P + 2j Im(a_k) Q, with
    2Re(a_k) = sqrt 2 and 2Im(a_k) = (-1)^k sqrt 2: wc[k, i] = sqrt 2
    coeffs[i] cos((2k+1)(2i+1) pi/(4M)) and ws[k, i] = sqrt 2 (-1)^(k+i)
    coeffs[i] sin((2k+1)(2i+1) pi/(4M)).  Both are formed from the DCT-IV
    factors of _dct4_split, so every column is exactly a signed column of
    the DCT-IV matrix times its coefficient.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    C, sc, ss = _dct4_split(coeffs.size, channels)
    return C @ (sc * coeffs), C @ (ss * coeffs)


def _half_turns(halves, half, alpha):
    """e^{j nu/2}, nu = -phi(w + 2 pi p/q), per (shift, point) from halves =
    e^{j pi p/q} per shift as a column and half = e^{jw/2} per point, with
    no transcendental per pair.  With W = w + 2 pi p/q and u = 1 - alpha
    e^{-jW}, e^{j nu} = e^{jW} u / conj(u), and since Re u > 0, arg u is the
    arctangent term of nu/2 = W/2 + arg u, so e^{j nu/2} = e^{jW/2} u/|u| =
    x/|x| with x = e^{jW/2} - alpha e^{-jW/2}, whose planes are (1 - alpha)
    cos(W/2) and (1 + alpha) sin(W/2)."""
    u = halves * half  # e^{jW/2}, then e^{j nu/2}
    u.real *= 1.0 - alpha
    u.imag *= 1.0 + alpha
    u /= np.abs(u)
    return u


def _shift_pass(proto, w, config, aliasing=True):
    """Every channel's warped response at every alias shift, shift by shift.

    Yields (block, shift, channels, images, phase, z) for each block of
    grid points and each entry of _shift_table: at w[block] + 2 pi p/q the
    analysis response of channel channels[i] is phase * z[i], and its
    synthesis response phase * conj(z[i]).  Each block starts with shift 0,
    which holds every channel.

    At nu = -phi(w + 2 pi p/q) the cosine bases are 2 Re E and 2 (-1)^i Im E
    with E_i = e^{j(2i+1)nu/2}, so z = Re(2 wc @ E) + j Im(2 ws' @ E) with
    (wc, ws) = _split_weights and ws' = (-1)^i ws.  E_{Pa+b} = e^{jaP nu} V_b
    for P = ceil(N/4): modulation._harmonics fills V from the half turns
    e^{j nu/2} (_half_turns, one exp per point and one per shift) for a
    batch of shifts, points first in a quarter of _PASS_BYTES (16 P bytes
    per point and shift), and per group of channels, whose sums take no
    more bytes than V, one real GEMM of the weights (split at P) against V's
    interleaved (re, im) planes gives the sums R_a, and z = Re(R_0 + e^{jP
    nu} R_1) for wc, Im for ws'.
    """
    n2, P = config.order // 2, -(-config.order // 4)
    wc, ws = _split_weights(proto.coeffs, config.channels)
    weights = np.zeros((2, config.channels, 2 * P))  # (plane, channel, i)
    weights[:, :, :n2] = 2.0 * np.stack([wc, ws * (-1.0) ** np.arange(n2)])
    weights = weights.reshape(2, -1, 2, P).transpose(2, 0, 1, 3)  # (a, plane, channel, b)
    table = _shift_table(config.subsampling, aliasing)
    halves = np.exp(1j * np.pi * np.array([[p / q] for (p, q), _, _ in table]))
    points = max(1, min(w.size, _PASS_BYTES // 4 // (16 * P)))
    shifts = max(1, min(len(table), _PASS_BYTES // 4 // (16 * P * points)))
    harmonics = np.empty(shifts * P * points, complex)
    a, b = divmod(n2 - 1, P)  # E_{N/2-1} = e^{jaP nu} V_b
    group = max(1, P // 4)
    for first in range(0, w.size, points):
        block = slice(first, first + points)
        half = np.exp(0.5j * w[block])
        for lo in range(0, len(table), shifts):
            u = _half_turns(halves[lo : lo + shifts], half, config.alpha)
            v = harmonics[: u.size * P].reshape(u.shape[0], P, u.shape[1])
            turn = modulation._harmonics(u, v)
            # e^{-j(N-1)nu/2}; |V| drifts from 1 linearly in the index, and
            # the phase scales every image of its shift
            phases = np.conj(v[:, b] * turn if a else v[:, b])
            phases /= np.abs(phases)
            for i, (shift, ks, ls) in enumerate(table[lo : lo + shifts]):
                z = np.empty((ks.size, u.shape[1]), complex)
                for c in range(0, ks.size, group):
                    r = weights[:, :, ks[c : c + group]].reshape(-1, P) @ v[i].view(float)
                    r = r.view(complex).reshape(2, 2, -1, u.shape[1])
                    r[1] *= turn[i]
                    r[0] += r[1]
                    z[c : c + group].real, z[c : c + group].imag = r[0, 0].real, r[0, 1].imag
                    del r  # never held twice, nor by the consumer
                yield block, shift, ks, ls, phases[i], z


def _transfer_parts(proto, w, config, aliasing=True):
    """(distortion, coherent alias) curves over the 1-D grid w by the shift
    pass.

    Per grid block, shift 0 gives F_k^w(w) of every channel and the
    distortion sum_k H_k^w F_k^w; each other shift adds the products
    H_k^w(w + 2 pi p/q) F_k^w(w) of its channels into the alias.  Without
    aliasing only the distortion is computed, and the alias stays 0.
    """
    dist = np.zeros(w.shape, complex)
    alias = np.zeros(w.shape, complex)
    for block, shift, ks, _, phase, z in _shift_pass(proto, w, config, aliasing):
        if shift == (0, 1):
            f = phase * np.conj(z)
            dist[block] = phase * (z * f).sum(axis=0)
        else:
            alias[block] += phase * (z * f[ks]).sum(axis=0)
    return dist, alias


def _response_samples(config):
    """L, the least power of two that holds allpass._line_memory: past it
    every warped impulse response is below 2^-52."""
    return 1 << (allpass._line_memory(config.alpha, config.order) - 1).bit_length()


def _impulse_responses(proto, config):
    """Every channel's warped analysis and synthesis impulse responses,
    (2, channels, L), L = _response_samples(config).

    The rfft of one section's impulse response (one lfilter run) is the
    allpass A at the L-point DFT bins, exactly spaced.  The powers A^n, n <
    N, filled by doubling, give every channel's response there as the
    modulated taps (modulation.modulate) against them, one real GEMM on
    their interleaved planes per block of powers within half of _PASS_BYTES
    (all 176 of the flagship, 1.4 MB), and irfft takes the responses back.
    """
    N, L = config.order, _response_samples(config)
    section = np.fft.rfft(lfilter(*_section_coeffs(config.alpha), unit_impulse(L)))
    filters = modulation.modulate(proto)
    taps = np.concatenate([filters.analysis, filters.synthesis])  # (2M, N)
    rows = max(1, min(N, _PASS_BYTES // 2 // (16 * section.size)))
    powers = np.empty((rows, section.size), complex)  # A^n, n < rows
    powers[0] = 1.0
    n = 1
    while n < rows:
        np.multiply(powers[: min(n, rows - n)], powers[n - 1] * section, out=powers[n : 2 * n])
        n *= 2
    step = powers[-1] * section  # A^rows
    spectra = np.zeros((taps.shape[0], section.size), complex)
    for first in range(0, N, rows):
        if first:
            powers *= step
        block = powers[: min(rows, N - first)]
        spectra.view(float)[:] += taps[:, first : first + block.shape[0]] @ block.view(float)
    return np.fft.irfft(spectra, L).reshape(2, config.channels, L)


def _wrap(x, size):
    """x summed modulo size along its last axis: its size-point DFT is x's
    DTFT at the multiples of 2 pi/size."""
    if x.shape[-1] <= size:
        return x
    chunks = -(-x.shape[-1] // size)
    padded = np.zeros(x.shape[:-1] + (chunks * size,), x.dtype)
    padded[..., : x.shape[-1]] = x
    return padded.reshape(x.shape[:-1] + (chunks, size)).sum(axis=-2)


def _uniform_parts(proto, size, config, aliasing=True):
    """(distortion, coherent alias) curves over np.linspace(0, pi, size),
    size >= 2, from the channels' warped impulse responses h_k and f_k
    (_impulse_responses).

    The grid is bins 0 .. size-1 of a K-point DFT, K = 2(size - 1), so H_k
    and F_k are the rfft of h_k and f_k wrapped to K samples.  Channel k's
    images sum by decimation in time: sum_{l<S} H_k(w + 2 pi l/S) = S
    sum_m h_k[mS] e^{-jmSw}, the DTFT of h_k kept at the multiples of S =
    S_k and scaled by S.  Less H_k, the images l >= 1 are the DTFT of e_k[n]
    = (S - 1) h_k[n] where S divides n and -h_k[n] elsewhere, so the
    channel's alias is the rfft of e_k wrapped to K times F_k: three real
    FFTs per channel, taken for as many channels at a time as keep their
    spectra within a quarter of _PASS_BYTES.  A channel of ratio 1 has no
    alias image, and leaving it out keeps its rounding out too.  Without
    aliasing the alias stays 0.
    """
    K = 2 * (size - 1)
    h = _impulse_responses(proto, config)
    ratios = config.subsampling
    dist = np.zeros(size, complex)
    alias = np.zeros(size, complex)
    step = max(1, _PASS_BYTES // 4 // (48 * size))
    for first in range(0, config.channels, step):
        ks = np.arange(first, min(first + step, config.channels))
        H, F = np.fft.rfft(_wrap(h[:, ks], K), K)
        dist += np.einsum("kg,kg->g", H, F)
        aliased = np.flatnonzero(ratios[ks] > 1) if aliasing else []
        if len(aliased):
            S = ratios[ks[aliased], None]
            e = h[0, ks[aliased]] * np.where(np.arange(h.shape[2]) % S, -1.0, S - 1.0)
            alias += np.einsum("kg,kg->g", np.fft.rfft(_wrap(e, K), K), F[aliased])
    return dist, alias


def _image_spectra(x, ratio, size):
    """Every image of one real response x on np.linspace(0, pi, size): its
    DTFT X at w + 2 pi l/ratio for every grid point w and image l < ratio.

    With K = 2(size - 1), those frequencies are bins of the lcm(K,
    ratio)-point DFT of x, which splits by residue into m = ratio/d K-point
    FFTs, d = gcd(K, ratio) and P = K/d.  Here the FFT of each residue is
    that of x e^{-j 2 pi n l0/ratio}, wrapped to K samples, for a lead l0 <
    m: its bin q holds X(2 pi q/K + 2 pi l0/ratio), so image l0 + m t of
    grid point g is at bin (g + t P) mod K, t < d.  Yields (leads, z), z of
    shape (leads.size, K), every lead once.  The rows of the leads up to m/2
    are FFTs, as many at a time as keep a batch within a quarter of
    _PASS_BYTES, of rows twiddled by a multiply recurrence, each the last
    times e^{-j 2 pi n/ratio}; since x is real, lead m - l0 is the mirror of
    lead l0, conj z[(-q - P) mod K].
    """
    K = 2 * (size - 1)
    d = math.gcd(K, ratio)
    m, P = ratio // d, K // d
    rows = max(1, _PASS_BYTES // 4 // (32 * max(x.size, K)))
    turn = np.exp(-2j * np.pi * np.arange(ratio) / ratio)[np.arange(x.size) % ratio]
    mirror = (-np.arange(K) - P) % K
    for first in range(0, m // 2 + 1, rows):
        leads = np.arange(first, min(first + rows, m // 2 + 1))
        y = np.empty((leads.size, x.size), complex)
        for i, lead in enumerate(leads):
            if lead:
                np.multiply(row, turn, out=y[i])
            else:
                y[i] = x
            row = y[i]
        z = np.fft.fft(_wrap(y, K), K)
        del y
        yield leads, z
        twins = np.flatnonzero((leads > 0) & (2 * leads < m))
        if twins.size:
            z = z[twins[:, None], mirror]
            yield m - leads[twins], np.conjugate(z, out=z)
        del z


def _uniform_bound(proto, size, config):
    """aliasing_bound over np.linspace(0, pi, size), size >= 2, from the
    channels' warped impulse responses (_impulse_responses).

    Per channel of ratio S > 1, _image_spectra gives |H_k| at every image,
    whose d = gcd(K, S) images of one lead sit at the bins g + t P of one
    row: the row's |z| reshaped (d, P) and summed over d gives them for
    every grid point at once, g mod P.  The leads' coset sums add up, image
    0 (|z| of lead 0 at g) comes off, and |F_k| from the rfft of f_k
    wrapped to K scales what is left.  A channel of ratio 1 has no alias
    image and adds nothing.
    """
    K = 2 * (size - 1)
    h, f = _impulse_responses(proto, config)
    bound = np.zeros(size)
    for k in np.flatnonzero(config.subsampling > 1):
        S = int(config.subsampling[k])
        P = K // math.gcd(K, S)
        cosets = np.zeros(P)
        for leads, z in _image_spectra(h[k], S, size):
            z = np.abs(z)
            if leads[0] == 0:
                distortion = z[0, :size].copy()
            cosets += z.reshape(-1, P).sum(axis=0)
            del z
        images = np.resize(cosets, size)
        images -= distortion
        bound += images * np.abs(np.fft.rfft(_wrap(f[k], K), K))
    return bound


def _uniform(w, config):
    """Whether w takes the uniform route: it is np.linspace(0, pi, G), G >= 2,
    and the (2, M, L) float responses of _impulse_responses fit in _PASS_BYTES.
    That bounds the responses, not the route, which holds about three times
    their bytes and powers within half of _PASS_BYTES besides."""
    grid = w.size >= 2 and np.array_equal(w, np.linspace(0.0, np.pi, w.size))
    return grid and 16 * config.channels * _response_samples(config) <= _PASS_BYTES


def _coherent_parts(proto, w, config, aliasing=True):
    """(distortion, coherent alias) over the 1-D grid w: by _uniform_parts
    where _uniform takes w, and by the shift pass elsewhere."""
    if _uniform(w, config):
        return _uniform_parts(proto, w.size, config, aliasing)
    return _transfer_parts(proto, w, config, aliasing)


def _channel_responses(proto, w, config):
    """(H, F), each (channels, w.size): every channel's warped analysis and
    synthesis response over the 1-D grid w, by the route _coherent_parts
    takes: the rfft of the impulse responses wrapped to 2(w.size - 1)
    samples on the uniform route, and shift 0 of the pass elsewhere."""
    if _uniform(w, config):
        K = 2 * (w.size - 1)
        return tuple(np.fft.rfft(_wrap(_impulse_responses(proto, config), K), K))
    H = np.empty((config.channels, w.size), complex)
    F = np.empty_like(H)
    for block, _, _, _, phase, z in _shift_pass(proto, w, config, aliasing=False):
        np.multiply(phase, z, out=H[:, block])
        np.multiply(phase, np.conj(z), out=F[:, block])
    return H, F


@_pointwise
def distortion_transfer(proto, w, config):
    """Alias-free part of the overall transfer, sum_k H_k^w(omega) F_k^w(omega)."""
    return _coherent_parts(proto, w, config, aliasing=False)[0]


@_pointwise
def aliasing_transfer(proto, w, config):
    """Coherent sum of all alias terms (images l >= 1 of every channel)."""
    return _coherent_parts(proto, w, config)[1]


@_pointwise
def aliasing_bound(proto, w, config):
    """Incoherent worst-case alias magnitude sum_k sum_{l>=1} |H_k^w F_k^w|.

    A conservative bound; the coherent aliasing_transfer is what enters T_all.
    It needs every image's product apart: where the uniform route takes w
    (_uniform) it reads them off the FFTs of the impulse responses
    (_uniform_bound), and elsewhere off the shift pass.
    """
    if _uniform(w, config):
        return _uniform_bound(proto, w.size, config)
    bound = np.zeros(w.shape)
    for block, shift, ks, _, phase, z in _shift_pass(proto, w, config):
        if shift == (0, 1):
            f = phase * np.conj(z)
        else:
            bound[block] += np.abs(z * f[ks]).sum(axis=0)
    return bound


@_pointwise
def overall_transfer(proto, w, config):
    """T_all in one pass; the parts sum apart so it equals distortion + aliasing."""
    dist, alias = _coherent_parts(proto, w, config)
    return dist + alias


@_pointwise
def error_function(proto, w, config):
    """Design error E(omega) = |T_all|^2 - 1 over the given frequencies."""
    t = overall_transfer(proto, w, config)
    return t.real**2 + t.imag**2 - 1.0


def to_db(x, floor_db=-300.0):
    """Magnitude in dB with a hard floor (handles exact zeros)."""
    lo = 10.0 ** (floor_db / 20.0)
    return 20.0 * np.log10(np.maximum(np.abs(x), lo))


def _pass_images(proto, w, config):
    """(block, H, channels, images, F) for each shift of each block of the
    shift pass over w: H holds every channel's analysis response over the
    block, and F the synthesis responses of the shift's images at w[block]
    + 2 pi l/S_k, unfolded."""
    for block, shift, ks, ls, phase, z in _shift_pass(proto, w, config):
        if shift == (0, 1):
            h = phase * z
        # F per shift, as the pass yields it: numpy may multiply a large
        # temporary in place with the operands swapped, which rounds apart
        yield block, h, ks, ls, phase * np.conj(z)


def _uniform_images(proto, size, config, budget):
    """_pass_images over np.linspace(0, pi, size), size >= 2, as one block,
    from the channels' warped impulse responses: H from their rfft wrapped
    to K = 2(size - 1), and each channel's images from _image_spectra of
    f_k, at most budget image-points at a time unless the images of one
    lead hold more."""
    K = 2 * (size - 1)
    h, f = _impulse_responses(proto, config)
    H = np.fft.rfft(_wrap(h, K), K)
    block = slice(0, size)
    for k, S in enumerate(config.subsampling.tolist()):
        d = math.gcd(K, S)
        t = np.arange(d)
        bins = (np.arange(size) + (K // d) * t[:, None]) % K  # image l0 + m t at g + t P
        step = max(1, budget // (d * size))  # leads per yield
        for leads, z in _image_spectra(f[k], S, size):
            for first in range(0, leads.size, step):
                ls = (leads[first : first + step, None] + (S // d) * t).ravel()
                f_ = z[first : first + step, bins].reshape(ls.size, size)
                yield block, H, np.full(ls.size, k), ls, f_


def bifrequency_map(half, config, in_grid, out_grid):
    """Energy transport image of the time-varying chain, in dB.

    Cell (i, j) accumulates the complex products H_k^w(omega_in_i) *
    F_k^w(omega_out_j) over every channel k and alias image l whose shifted
    input omega_in_i + 2 pi l / S_k lands nearest out_grid[j] after folding
    to [0, pi]; magnitude is taken at the end, floored at -300 dB.  With all
    ratios 1 only the l = 0 diagonal remains and equals |t_dist|.

    The images come off the FFTs of the channels' impulse responses
    (_uniform_images) where the uniform route takes the in-grid (_uniform),
    and elsewhere off the shift pass (_pass_images).  Either way the images
    of consecutive shifts or channels are held and then folded, searched
    and scattered together by one np.add.at, in the order they come, so
    every cell sums the same products in the same order as a scatter per
    shift or per channel; on the pass the map is bitwise the one a scatter
    per shift gives.  The hold is scattered at the end of each block of the
    pass, and before it would pass _PASS_BYTES // 64 image-points (65 536
    by default), unless one shift, or the images of one lead of
    _image_spectra, alone hold more; on the flagship the scatter's work
    then stays within about 3 MB above the cells and the images' source.
    """
    proto = _as_proto(half, config)
    win = _check_grid(in_grid, "in_grid")
    wout = _check_grid(out_grid, "out_grid")
    acc = np.zeros((win.size, wout.size), dtype=complex)
    order = np.argsort(wout)
    sorted_out = wout[order]
    rows = np.arange(win.size)
    budget = _PASS_BYTES // 64
    held = []  # (channels, images, unfolded F) per shift or channel

    def scatter(block, h):
        ks = np.concatenate([s[0] for s in held])
        ls = np.concatenate([s[1] for s in held])
        f = np.concatenate([s[2] for s in held])
        held.clear()
        # one row per image: (images, in) folded frequencies, where F_k is
        # conj(F_k) at the shifted one past pi
        S = config.subsampling[ks][:, None]
        folded = np.mod(win[block] + 2.0 * np.pi * ls[:, None] / S, 2.0 * np.pi)
        passed = folded > np.pi
        np.conjugate(f, out=f, where=passed)
        np.subtract(2.0 * np.pi, folded, out=folded, where=passed)
        del passed
        # nearest output bin per folded frequency, the left one on a tie
        pos = np.searchsorted(sorted_out, folded)
        np.clip(pos, 1, sorted_out.size - 1, out=pos)
        pos -= folded - sorted_out[pos - 1] <= sorted_out[pos] - folded
        del folded
        np.add.at(acc, (rows[block], order[pos]), h[ks] * f)

    if _uniform(win, config):
        images = _uniform_images(proto, win.size, config, budget)
    else:
        images = _pass_images(proto, win, config)
    count = 0
    for block, h, ks, ls, f in images:
        if held and (block != current or count + f.size > budget):
            scatter(current, held_h)
            count = 0
        current, held_h = block, h
        held.append((ks, ls, f))
        count += f.size
    if held:
        scatter(current, held_h)
    return to_db(acc)
