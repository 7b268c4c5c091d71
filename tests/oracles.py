"""Reference implementations the tests check the vectorized runtime against.

The allpass structures run as plain Python loops, one sample at a time, for
the block-filtering runtime in warpbank.streaming; the prototype's cosine
series is summed term by term with np.cos, for the harmonics and the
Clenshaw recurrence in warpbank.modulation; the quadratic-form vectors are
formed from the modulated taps, for TransferTables in warpbank.transfer,
and the channels' warped impulse responses from a line of lfilter
sections, for their route through the allpass powers there; a channel's
warped response is the prototype's, looked up by Clenshaw's recurrence at
the pair of angles nu -/+ c_k, for both kernels of warpbank.transfer and
channel_response_warped, which reads them; the transfer curves and the
bifrequency map sum one such response per (channel, image), for the
shift-by-shift pass in warpbank.transfer and, on uniform grids, for its
route through the channels' impulse responses, whose images sum by
decimation in time; the map also scatters one shift at a time, for its
batched scatter; the optimizer's objective, gradient and Hessian are formed
from complex whole-table products of those vectors per channel, for the grid-blocked
real-arithmetic ones on the planar DCT-IV-basis tables in warpbank.optimize; the block line
runs its own lfilter line runs, forms Theta and Psi whole, computes every
channel sample, kept or dropped, and carries its state one chunk at a time,
for the polyphase line, its one-pass operator build and the chunked scan in
warpbank.streaming; CSV rows are formatted one at a time, for the block
writer in warpbank.files.  No production path uses them.
"""

import numpy as np
from scipy.signal import lfilter

from warpbank import (
    SubbandFrame,
    allpass_phase,
    modulate,
    modulation_constants,
    streaming,
    transfer,
)
from warpbank.allpass import _check_alpha
from warpbank.modulation import _half_response


class AllpassSection:
    """Single first-order allpass stage with one state variable.

    Realizes  y[n] + a*y[n-1] = x[n-1] + a*x[n]  in transposed direct form II.
    An impulse through a = 0.5 yields 0.5, 0.75, -0.375, 0.1875, ...

    Note the warped delay line of a bank with warp coefficient alpha uses
    sections with a = -alpha; see AllpassLine.
    """

    def __init__(self, coefficient):
        self.coefficient = _check_alpha(coefficient)
        self.state = 0.0

    def reset(self):
        self.state = 0.0

    def step(self, x):
        """Advance one sample; returns the section output."""
        a = self.coefficient
        y = a * x + self.state
        self.state = x - a * y
        return y


class AllpassLine:
    """Tapped cascade of n_taps-1 allpass sections for warp coefficient alpha.

    tap 0 is the current input; tap n is the input filtered through n
    sections.  Sections carry coefficient -alpha so the cascade realizes the
    warped delay line (z^-1 - alpha)/(1 - alpha z^-1); state persists across
    calls.
    """

    def __init__(self, alpha, n_taps):
        if not abs(float(alpha)) < 1.0:
            raise ValueError("|alpha| < 1 required")
        if int(n_taps) < 1:
            raise ValueError("need at least one tap")
        self.alpha = float(alpha)
        self.n_taps = int(n_taps)
        self.state = np.zeros(self.n_taps - 1)

    def reset(self):
        self.state[:] = 0.0

    def step(self, x):
        """Advance one sample; returns the full tap vector."""
        a = -self.alpha
        taps = np.empty(self.n_taps)
        taps[0] = x
        for i in range(1, self.n_taps):
            y = a * taps[i - 1] + self.state[i - 1]
            self.state[i - 1] = taps[i - 1] - a * y
            taps[i] = y
        return taps


def cosine_basis(omega, order):
    """Half-filter cosine stack [2 cos((2i+1) omega/2)], one np.cos per entry."""
    halves = np.arange(1, order, 2) / 2.0
    return 2.0 * np.cos(np.multiply.outer(np.asarray(omega, dtype=float), halves))


def half_response(coeffs, x):
    """sum_i coeffs[i] 2cos((2i+1)x/2) as the cosine stack times the coefficients."""
    return cosine_basis(x, 2 * len(coeffs)) @ np.asarray(coeffs, dtype=float)


def pair_angles(omega, channel, channels, alpha):
    """Stacked lookup angles nu -/+ c_k, nu = -phi(omega), c_k = pi(k+0.5)/M."""
    nu = -allpass_phase(omega, alpha)
    c = np.pi * (channel + 0.5) / channels
    return np.stack([nu - c, nu + c])


def pair_scaling(g, channel, channels, order, synthesis=False):
    """Complex weights (c1 e^{-j(N-1)g1/2}, conj(c1) e^{-j(N-1)g2/2}) of a pair.

    g stacks the pair on its first axis, as pair_angles returns it; c1 is
    a_k b_k, or conj(a_k) b_k for synthesis.
    """
    a, b, _ = modulation_constants(channels, order)
    c1 = (np.conj(a[channel]) if synthesis else a[channel]) * b[channel]
    s = np.exp(-0.5j * (order - 1) * g)
    s[0] *= c1
    s[1] *= np.conj(c1)
    return s


def channel_response(prototype, channel, omega, alpha, synthesis=False):
    """channel_response_warped by the pair angles: a_k b_k H(e^{j(nu - c_k)})
    + conj(a_k b_k) H(e^{j(nu + c_k)}), the prototype's response H summed at
    both angles by Clenshaw's recurrence; the synthesis filter conjugates
    a_k only.  Any real omega, of any shape."""
    g = pair_angles(omega, channel, prototype.channels, alpha)
    s = pair_scaling(g, channel, prototype.channels, prototype.order, synthesis)
    return np.einsum("p...,p...->...", s, _half_response(prototype.coeffs, g))


def response_vector(omega, image, channel, config, synthesis=False):
    """Vector u with u @ half = H_k^w(omega + 2 pi image/S_k), or F_k^w(omega)
    for synthesis (image 0), from the modulated taps.

    The warped channel response is sum_n h_k[n] A^n with A the allpass
    (e^{-jw} - alpha)/(1 - alpha e^{-jw}) at w = omega + 2 pi image/S_k.  Each
    tap of the full prototype is one half coefficient, h[N/2 + i] = h[N/2-1-i]
    = half[i], so u[i] gathers those two terms.  Shape omega.shape + (N/2,).
    """
    M, N = config.channels, config.order
    w = np.asarray(omega, dtype=float) + 2.0 * np.pi * image / config.subsampling[channel]
    z = np.exp(-1j * w)
    phase = np.angle((z - config.alpha) / (1.0 - config.alpha * z))
    n = np.arange(N)
    offset = (-1.0) ** channel * np.pi / 4 * (-1.0 if synthesis else 1.0)
    taps = 2.0 * np.cos((2 * channel + 1) * np.pi / (2 * M) * (n - (N - 1) / 2) + offset)
    full = taps * np.exp(1j * np.multiply.outer(phase, n))
    return full[..., N // 2 :] + full[..., N // 2 - 1 :: -1]


def image_products(proto, w, config, distortion=True, aliasing=True):
    """Yield (l, H_k^w(w + 2 pi l/S_k) F_k^w(w)) for every channel k, one
    channel_response per (channel, image).

    l = 0 is the distortion image and l = 1 .. S_k-1 the alias images; each
    group is included when its flag is set.
    """
    for k in range(config.channels):
        S = config.subsampling[k]
        images = range(0 if distortion else 1, S if aliasing else 1)
        if images:
            f = channel_response(proto, k, w, config.alpha, synthesis=True)
        for l in images:
            yield l, channel_response(proto, k, w + 2.0 * np.pi * l / S, config.alpha) * f


def transfer_parts(proto, w, config):
    """(distortion, coherent alias, alias bound) summed from image_products."""
    parts = [np.zeros(w.shape, complex), np.zeros(w.shape, complex), np.zeros(w.shape)]
    for l, p in image_products(proto, w, config):
        parts[min(l, 1)] += p
        if l:
            parts[2] += np.abs(p)
    return tuple(parts)


def impulse_responses(proto, config, length):
    """transfer._impulse_responses in time: tap n responds to an impulse
    with A^n's, one lfilter section run on tap n-1's, and the channels'
    responses are the modulated taps against the tap responses;
    (analysis or synthesis, channel, sample) over length samples."""
    taps = np.zeros((config.order, length))
    taps[0, 0] = 1.0
    for n in range(1, config.order):
        taps[n] = lfilter([-config.alpha, 1.0], [1.0, -config.alpha], taps[n - 1])
    filters = modulate(proto)
    return np.stack([filters.analysis @ taps, filters.synthesis @ taps])


def bifrequency_cells(proto, config, in_grid, out_grid):
    """The complex cells of transfer.bifrequency_map (before the dB step),
    channel by channel: H_k^w at the input frequencies and F_k^w at each
    image's folded frequency, by channel_response; and the count of
    products that land in each cell."""
    win = np.asarray(in_grid, dtype=float)
    wout = np.asarray(out_grid, dtype=float)
    acc = np.zeros((win.size, wout.size), dtype=complex)
    hits = np.zeros(acc.shape, dtype=int)
    order = np.argsort(wout)
    sorted_out = wout[order]
    rows = np.arange(win.size)
    for k in range(config.channels):
        S = config.subsampling[k]
        hk = channel_response(proto, k, win, config.alpha)
        shifted = np.mod(win + 2.0 * np.pi * np.arange(S)[:, None] / S, 2.0 * np.pi)
        folded = np.where(shifted > np.pi, 2.0 * np.pi - shifted, shifted)
        fk = channel_response(proto, k, folded, config.alpha, synthesis=True)
        pos = np.clip(np.searchsorted(sorted_out, folded), 1, sorted_out.size - 1)
        left = sorted_out[pos - 1]
        right = sorted_out[pos]
        nearest = np.where(folded - left <= right - folded, pos - 1, pos)
        np.add.at(acc, (rows, order[nearest]), hk * fk)
        np.add.at(hits, (rows, order[nearest]), 1)
    return acc, hits


def bifrequency_per_shift(half, config, in_grid, out_grid):
    """The complex cells of transfer.bifrequency_map (before the dB step),
    folded, searched and scattered by one np.add.at per shift of
    transfer._shift_pass, in the pass's order."""
    proto = transfer._as_proto(half, config)
    win = transfer._check_grid(in_grid, "in_grid")
    wout = transfer._check_grid(out_grid, "out_grid")
    acc = np.zeros((win.size, wout.size), dtype=complex)
    order = np.argsort(wout)
    sorted_out = wout[order]
    for block, shift, ks, ls, phase, z in transfer._shift_pass(proto, win, config):
        if shift == (0, 1):
            h = phase * z
        S = config.subsampling[ks][:, None]
        shifted = np.mod(win[block] + 2.0 * np.pi * ls[:, None] / S, 2.0 * np.pi)
        passed = shifted > np.pi
        folded = np.where(passed, 2.0 * np.pi - shifted, shifted)
        f = phase * np.conj(z)
        np.conjugate(f, out=f, where=passed)
        pos = np.searchsorted(sorted_out, folded)
        pos = np.clip(pos, 1, sorted_out.size - 1)
        left = sorted_out[pos - 1]
        right = sorted_out[pos]
        nearest = np.where(folded - left <= right - folded, pos - 1, pos)
        rows = np.arange(win.size)[block]
        np.add.at(acc, (rows, order[nearest]), h[ks] * f)
    return acc


def complex_tables(config, omega):
    """(ua, us), each complex (grid, channels, N/2): per channel, the
    analysis vectors of response_vector summed over the S_k images, and the
    synthesis vectors (image 0)."""
    ua = np.stack([sum(response_vector(omega, l, k, config)
                       for l in range(config.subsampling[k]))
                   for k in range(config.channels)], axis=1)
    us = np.stack([response_vector(omega, 0, k, config, synthesis=True)
                   for k in range(config.channels)], axis=1)
    return ua, us


def dct4(channels):
    """sqrt 2 times the M-point DCT-IV, C[k, c] = sqrt 2 cos(pi (2k+1)(2c+1)/(4M)),
    one np.cos per entry; C C^T = M I."""
    k = np.arange(channels)
    return np.sqrt(2.0) * np.cos(np.pi * np.outer(2 * k + 1, 2 * k + 1) / (4 * channels))


def derivatives(half, weights, config, omega):
    """(g, grad, hess) of sum B E^2 on the grid omega, from the per-channel
    complex tables of complex_tables, with no blocking over the grid: v by
    einsum and the curvature term Re sum c (u_a u_s^T + u_s u_a^T) from one
    scaled copy of ua."""
    ua, us = complex_tables(config, omega)
    A, B = ua @ half, us @ half
    t = np.einsum("gm,gm->g", A, B)
    err = t.real**2 + t.imag**2 - 1.0
    v = np.einsum("gmn,gm->gn", ua, B) + np.einsum("gmn,gm->gn", us, A)
    grad_err = 2.0 * (t.real[:, None] * v.real + t.imag[:, None] * v.imag)
    grad = 2.0 * (weights * err) @ grad_err
    hess = grad_err.T @ ((2.0 * weights)[:, None] * grad_err)
    w2 = 4.0 * weights * err
    hess += v.real.T @ (w2[:, None] * v.real) + v.imag.T @ (w2[:, None] * v.imag)
    G, M, n2 = ua.shape
    scaled = ((w2 * np.conj(t))[:, None, None] * ua).reshape(G * M, n2)
    cross = scaled.T @ us.reshape(G * M, n2)
    return float(np.dot(weights, err * err)), grad, hess + cross.real + cross.real.T


def carry_loop(phi, drive, starts, state):
    """streaming._StateMaps.carry one chunk at a time: starts[j] = s, then
    s <- s phi + drive[j]; state is advanced in place past the last chunk."""
    s = state
    for j, w in enumerate(drive):
        starts[j] = s
        s = s @ phi + w
    state[:] = s


class BlockLine:
    """One direction of the warped line in full block form: a chunk holds c
    samples of P inputs (sample-major, c*P values) and gives c samples of Q
    outputs, every one of them; the state is one value per allpass section.
    """

    def __init__(self, theta, psi, gamma, phi):
        self.theta = theta  # (c*P, c*Q) chunk input -> outputs
        self.psi = psi  # (N-1, c*Q) start state -> outputs
        self.gamma = gamma  # (c*P, N-1) chunk input -> end state
        self.phi = phi  # (N-1, N-1) start state -> end state

    def transposed(self):
        """The dual line, whose transfer matrix is the transpose of this one's.

        Transposing every map runs a chunk backwards in time, so the samples
        inside a chunk are reversed as well (R below): Theta' = R Theta^T R,
        Psi' = Gamma^T R, Gamma' = R Psi^T, Phi' = Phi^T.  A line with one
        input and M outputs becomes one with M inputs and one output.
        """
        c, n = streaming._CHUNK, self.phi.shape[0]
        P, Q = self.theta.shape[0] // c, self.theta.shape[1] // c
        theta = self.theta.reshape(c, P, c, Q)[::-1, :, ::-1].transpose(2, 3, 0, 1)
        psi = self.gamma.reshape(c, P, n)[::-1].transpose(2, 0, 1).reshape(n, c * P)
        gamma = self.psi.reshape(n, c, Q)[:, ::-1].transpose(1, 2, 0).reshape(c * Q, n)
        return BlockLine(theta.reshape(c * Q, c * P), psi, gamma, self.phi.T.copy())


def chunk_toeplitz(resp):
    """Causal chunk map (c, c*Q) of one input from responses resp[q, delay],
    c = resp.shape[1]: [tau, t*Q + q] = resp[q, t - tau] for t >= tau."""
    Q, c = resp.shape
    lag = np.subtract.outer(np.arange(c), np.arange(c))  # [t, tau] = t - tau
    blocks = resp[:, np.maximum(lag, 0)]  # [q, t, tau]
    blocks[:, lag < 0] = 0.0
    return blocks.transpose(2, 1, 0).reshape(c, c * Q)


def line_runs(alpha, taps):
    """streaming._line_runs by one lfilter call per section and run: the
    taps over one chunk of the line fed an impulse (H) and fed alpha^t (G)."""
    c = streaming._CHUNK
    runs = np.zeros((taps, 2, c))
    runs[0, 0, 0] = 1.0
    runs[0, 1] = alpha ** np.arange(c)
    for n in range(1, taps):
        runs[n] = lfilter([-alpha, 1.0], [1.0, -alpha], runs[n - 1])
    return runs[:, 0], runs[:, 1]


def block_line(coeffs, alpha):
    """The line of taps coeffs (M, N) in full block form: one input, M
    outputs, Theta and Psi formed whole from the line runs."""
    M, N = coeffs.shape
    c = streaming._CHUNK
    runs = line_runs(alpha, N)
    maps = streaming._state_maps(alpha, runs)
    H, G = runs
    # psi[n, t, k] = sum_d coeffs[k, n+1+d] G[d, t], from the sections below n
    psi = np.empty((N - 1, c, M))
    for n in range(N - 1):
        np.matmul(G[: N - 1 - n].T, coeffs[:, n + 1 :].T, out=psi[n])
    return BlockLine(
        theta=chunk_toeplitz(coeffs @ H),
        psi=psi.reshape(N - 1, c * M),
        gamma=maps.gamma,
        phi=maps.phi,
    )


def run_block_line(line, chunks, state):
    """Outputs (chunks, c*Q) of a BlockLine for consecutive chunks
    (chunks, c*P) of its inputs, every output sample of every chunk.

    state holds the start state of the first chunk and is advanced in place
    past the last one.
    """
    starts = np.empty((chunks.shape[0], state.size))
    carry_loop(line.phi, chunks @ line.gamma, starts, state)
    out = chunks @ line.theta
    out += starts @ line.psi
    return out


def dense_analyze(design, x):
    """streaming.analyze computing all M outputs at every sample and keeping
    every S_k-th, one super-block at a time."""
    c = streaming._CHUNK
    line = block_line(modulate(design.prototype_half()).analysis, design.alpha)
    ratios = design.subsampling
    out = [np.empty(-(-x.size // s)) for s in ratios]
    state = np.zeros(line.phi.shape[0])
    step = streaming._block_length()
    for start in range(0, x.size, step):
        blk = x[start : start + step]
        chunks = np.zeros(-(-blk.size // c) * c)
        chunks[: blk.size] = blk
        y = run_block_line(line, chunks.reshape(-1, c), state).reshape(-1, ratios.size)
        for k, s in enumerate(ratios):
            part = y[(-start) % s : blk.size : s, k]
            first = -(-start // s)
            out[k][first : first + part.size] = part
    return [SubbandFrame(k, out[k], int(s)) for k, s in enumerate(ratios)]


def dense_synthesize(design, frames):
    """streaming.synthesize pushing the zero-inserted frames, zeros and all,
    through the transposed line, one super-block at a time.  frames are in
    channel order."""
    c, M = streaming._CHUNK, len(frames)
    line = block_line(modulate(design.prototype_half()).synthesis, design.alpha).transposed()
    length = max(f.phase + f.samples.size * f.ratio for f in frames)
    out = np.empty(length)
    state = np.zeros(line.phi.shape[0])
    step = streaming._block_length()
    for start in range(0, length, step):
        stop = min(start + step, length)
        u = np.zeros((-(-(stop - start) // c) * c, M))
        for f in frames:
            s = f.ratio
            first = f.phase if start <= f.phase else start + (-(start - f.phase)) % s
            if first >= stop:
                continue
            src = (first - f.phase) // s
            count = min((stop - 1 - first) // s + 1, f.samples.size - src)
            if count > 0:
                u[first - start :: s, f.channel][:count] = f.samples[src : src + count] * s
        y = run_block_line(line, u.reshape(-1, c * M), state)
        out[start:stop] = y.ravel()[: stop - start]
    return out


def dense_process_signal(design, x):
    """streaming.process_signal (no gains) by dense_analyze and dense_synthesize."""
    y = dense_synthesize(design, dense_analyze(design, x))
    return np.pad(y, (0, max(0, x.size - y.size)))[: x.size]


def write_csv_rows(path, header, columns):
    """files.write_csv formatting one row, and within it one value, at a time."""
    columns = [np.atleast_1d(np.asarray(c)) for c in columns]
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(columns[0].size):
            fh.write(",".join("%.9g" % c[i] for c in columns) + "\n")
