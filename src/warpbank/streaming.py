"""Sample-domain execution of the warped analysis/synthesis chain.

Both directions run on one tapped cascade of N-1 first-order allpass
sections (the warped delay line), each realizing

    A(z) = (z^-1 - alpha) / (1 - alpha z^-1)

which matches the analytic warping phase; with alpha = 0 the line degenerates
to an ordinary FIR delay line.

Analysis pushes the input down the line and takes channel outputs as inner
products of the tap vector with the modulated analysis coefficients.

Synthesis is the transposed system.  The line of the synthesis filters f_k,
built as in analysis with one input and M outputs, is transposed into a line
with M inputs and one output,

    sum_k sum_n f_k[n] A^n u_k = v_0 + A(v_1 + A(v_2 + ... + A(v_{N-1}))),

with v_n = sum_k f_k[n] u_k for the zero-inserted channels u_k: the channels
are mixed into one line, by Horner's rule, with no line per channel.

Neither direction steps the recursion sample by sample.  Each is a linear
time-invariant system with N-1 scalar states (one per allpass section), so
over a chunk of c = _CHUNK samples its outputs and its end state are fixed
linear maps of the chunk's inputs x and its start state s (the block, or
lifted, state-space form):

    outputs   = x Theta + s Psi
    end state = x Gamma + s Phi

Theta is block Toeplitz (the channel impulse responses), and every state
map is Toeplitz in the section index because all sections are equal.  One
run of two sequences down the line fills all four: an impulse, and alpha^t,
which is what a section puts out from a unit state.  Only the N-1 states
persist between super-blocks of _BLOCK samples.  Within one, the chunks'
start states come from the recursion s <- s Phi + x Gamma, run as a
chunked scan (_BlockLine.carry): segments of K chunks run as GEMMs over all
segments at once, and Phi^K carries the state from segment to segment.

Neither direction computes a channel sample that decimation drops or that
zero insertion makes zero (the polyphase rule).  Channel k keeps every S_k-th
sample, and the places of those samples in a chunk repeat every
P_k = S_k/gcd(S_k, c) chunks, so each chunk class (chunk index mod P_k) has
fixed columns of [Theta; Psi] (analysis) or rows of [Theta' | Gamma']
(synthesis).  The channels that share a period run as one batched matmul
over the chunk classes.  Per sample that is about
(c + N-1) * sum_k 1/S_k multiply-adds for the kept channel samples, plus
(N-1) + 2(N-1)^2/c for the state (the scan does twice the work of a plain
per-chunk step, in 2K + C/K calls per super-block of C chunks in place of
C), in either direction.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.signal import lfilter

from .allpass import _check_count
from .modulation import modulate

# samples per super-block (rounded down to whole chunks), which bounds the
# working memory, and the chunk length of the block state-space operators
_BLOCK = 1 << 14
_CHUNK = 64
# measure_response: settle transient in units of order * max(S) samples, and
# the Hann window length of the steady-state read
_SETTLE = 4
_WINDOW = 8192


@dataclass
class SubbandFrame:
    """Decimated output of one analysis channel."""

    channel: int
    samples: np.ndarray
    ratio: int
    phase: int = 0

    def __post_init__(self):
        self.samples = _real_samples(self.samples, "frame samples")


def _real_samples(samples, what):
    samples = np.asarray(samples)
    if np.iscomplexobj(samples) or samples.ndim != 1:
        raise ValueError("%s must be a real 1-D array" % what)
    return samples.astype(float, copy=False)


def _section_coeffs(alpha):
    # transfer (z^-1 - alpha)/(1 - alpha z^-1); the lfilter zi of each
    # section is its one transposed direct form II state variable
    return np.array([-alpha, 1.0]), np.array([1.0, -alpha])


def _check_finite(samples, what):
    if not np.all(np.isfinite(samples)):
        raise ValueError("%s holds non-finite samples (NaN or inf)" % what)


@dataclass
class _BlockLine:
    """One direction of the warped line in block state-space form.

    A chunk holds c samples of P inputs (sample-major, c*P values) and gives
    c samples of Q outputs; the state is one value per allpass section.
    Once _groups has gathered what a stream run needs of Theta and Psi
    (analysis) or of Theta and Gamma (synthesis), the run sets those two to
    None: it reads only Gamma and Phi (analysis) or Psi and Phi.
    """

    theta: np.ndarray  # (c*P, c*Q) chunk input -> outputs
    psi: np.ndarray  # (N-1, c*Q) start state -> outputs
    gamma: np.ndarray  # (c*P, N-1) chunk input -> end state
    phi: np.ndarray  # (N-1, N-1) start state -> end state
    powers: dict = field(default_factory=dict, repr=False)  # k -> Phi^k

    def carry(self, drive, starts, state):
        """Start states (into starts) of consecutive chunks whose inputs add
        drive (chunks, N-1) to their end states; state holds the start state
        of the first chunk and is advanced in place past the last one.

        The recursion s <- s Phi + w runs as a chunked scan.  The C chunks
        split into S segments of K chunks: K GEMMs (S, N-1) by Phi find each
        segment's end state from a zero start, S GEMVs by Phi^K carry the
        true segment heads, and K GEMMs run each segment again from its head
        into starts.  The C - S*K chunks left over, and a call with S < 2,
        take the plain step.  That is 2K + C/K calls, fewest at K =
        sqrt(C/2), but the GEMMs do 2C(N-1)^2 multiply-adds, twice the plain
        step's, at a rate that grows with their S rows; K = ceil(sqrt(C)/2),
        8 of a super-block's 256 chunks, measured faster than 12.
        """
        count, n = drive.shape
        k = max(1, math.ceil(math.sqrt(count) / 2))
        segments = count // k
        s = state
        done = 0
        if segments >= 2:
            done = segments * k
            # splitting the leading axis keeps views, also of a strided starts
            w = drive[:done].reshape(segments, k, n)
            heads = starts[:done].reshape(segments, k, n)
            ends = w[:, 0].copy()
            for i in range(1, k):
                ends = ends @ self.phi
                ends += w[:, i]
            power = self.power(k)
            heads[0, 0] = state
            for j in range(1, segments):
                heads[j, 0] = heads[j - 1, 0] @ power + ends[j - 1]
            for i in range(1, k):
                np.matmul(heads[:, i - 1], self.phi, out=heads[:, i])
                heads[:, i] += w[:, i - 1]
            s = heads[-1, -1] @ self.phi + w[-1, -1]
        for j in range(done, count):
            starts[j] = s
            s = s @ self.phi + drive[j]
        state[:] = s

    def power(self, k):
        """Phi^k, built once per k.  Phi is triangular Toeplitz (upper, or
        lower in a transposed line), and so is Phi^k: its first row (column)
        is the k-fold self-convolution of Phi's, cut to N-1 terms."""
        if k not in self.powers:
            lower = not self.phi[0, 1:].any()
            first = self.phi[:, 0] if lower else self.phi[0]
            edge = first
            for _ in range(k - 1):
                edge = np.convolve(edge, first)[: first.size]
            power = _toeplitz(edge[None])
            self.powers[k] = np.ascontiguousarray(power.T) if lower else power
        return self.powers[k]

    def transposed(self):
        """The dual line, whose transfer matrix is the transpose of this one's.

        Transposing every map runs a chunk backwards in time, so the samples
        inside a chunk are reversed as well (R below): Theta' = R Theta^T R,
        Psi' = Gamma^T R, Gamma' = R Psi^T, Phi' = Phi^T.  A line with one
        input and M outputs becomes one with M inputs and one output.

        This line is used up: each of its maps is set to None as soon as its
        copy exists, so the two lines are never both held whole.
        """
        c, n = _CHUNK, self.phi.shape[0]
        P, Q = self.theta.shape[0] // c, self.theta.shape[1] // c
        theta = self.theta.reshape(c, P, c, Q)[::-1, :, ::-1].transpose(2, 3, 0, 1)
        theta = theta.reshape(c * Q, c * P)
        self.theta = None
        psi = self.gamma.reshape(c, P, n)[::-1].transpose(2, 0, 1).reshape(n, c * P)
        self.gamma = None
        gamma = self.psi.reshape(n, c, Q)[:, ::-1].transpose(1, 2, 0).reshape(c * Q, n)
        self.psi = None
        phi = np.ascontiguousarray(self.phi.T)
        self.phi = None
        self.powers.clear()
        return _BlockLine(theta=theta, psi=psi, gamma=gamma, phi=phi)


def _line_runs(alpha, taps):
    """Taps over one chunk of the line fed an impulse and fed alpha^t.

    Returns (H, G), each (taps, c): H[n] is the impulse response at tap n.
    alpha^t is a section's output from a unit state and no input, so G[d]
    is the response d sections below a section whose state is one.
    """
    b, a = _section_coeffs(alpha)
    runs = np.zeros((taps, 2, _CHUNK))
    runs[0, 0, 0] = 1.0
    runs[0, 1] = alpha ** np.arange(_CHUNK)
    for n in range(1, taps):
        runs[n] = lfilter(b, a, runs[n - 1])
    return runs[:, 0], runs[:, 1]


def _toeplitz(resp):
    """Causal map (c, c*Q) of one input from responses resp[q, delay], c =
    resp.shape[1]: a chunk map, or with Q = 1 an upper-triangular Toeplitz
    matrix whose first row is resp[0]."""
    Q, c = resp.shape
    lag = np.subtract.outer(np.arange(c), np.arange(c))  # [t, tau] = t - tau
    blocks = resp[:, np.maximum(lag, 0)]  # [q, t, tau]
    blocks[:, lag < 0] = 0.0
    return blocks.transpose(2, 1, 0).reshape(c, c * Q)


def _block_line(coeffs, alpha):
    """The line of taps coeffs (M, N) in block form: one input, M outputs.

    Output k is sum_n coeffs[k, n] A^n x.  State n is the lfilter state of
    section n, its input plus alpha times its output; section n maps tap n
    to tap n+1.
    """
    M, N = coeffs.shape
    H, G = _line_runs(alpha, N)
    # z_imp[n, tau]: end state of section n after a unit impulse at sample tau
    z_imp = (H[:-1] + alpha * H[1:])[:, ::-1]
    # z_unit[d]: end state of the section d below one whose start state is 1
    z_unit = alpha * G[:-1, -1]
    z_unit[1:] += G[:-2, -1]
    # phi[m, n] = z_unit[n - m]: the signal runs to higher section indices
    phi = _toeplitz(z_unit[None])
    # psi[n, t, k] = sum_d coeffs[k, n+1+d] G[d, t], from the sections below n
    psi = np.empty((N - 1, _CHUNK, M))
    for n in range(N - 1):
        np.matmul(G[: N - 1 - n].T, coeffs[:, n + 1 :].T, out=psi[n])
    return _BlockLine(
        theta=_toeplitz(coeffs @ H),
        psi=psi.reshape(N - 1, _CHUNK * M),
        gamma=np.ascontiguousarray(z_imp.T),
        phi=phi,
    )


def _block_length():
    return max(1, _BLOCK // _CHUNK) * _CHUNK


def _period_groups(ratios, phases):
    """The channels' kept samples, grouped by the period of their places.

    Channel k keeps the samples g = phase_k (mod S_k).  In chunk J they sit
    at the places t with J*c + t = phase_k (mod S_k), which repeat every
    P = S_k/gcd(S_k, c) chunks, so each class r = J mod P has a fixed set of
    at most q_k = ceil(c/S_k) places.  The channels of one period share a
    class's Q = sum q_k slots, each channel q_k of them (padded where a
    class keeps fewer).

    Returns (P, Q, members) per period; member (k, slot, index) gives the
    kept samples of channel k over P*c samples from a chunk J = 0 (mod P),
    in time order: slot = r*Q + column in the class, and index = t*M + k,
    the place among a chunk's c*M channel samples (sample-major).
    """
    M = len(ratios)
    periods = {}
    for k, (s, p) in enumerate(zip(ratios, phases)):
        s, p = int(s), int(p)
        periods.setdefault(s // math.gcd(s, _CHUNK), []).append((k, s, p))
    groups = []
    for period, channels in sorted(periods.items()):
        places, width = [], 0
        for k, s, p in channels:
            r, t = np.divmod(p + s * np.arange(period * _CHUNK // s), _CHUNK)
            # rank within the class: classes come in order, so each starts
            # where searchsorted finds its first place
            column = width + np.arange(r.size) - np.searchsorted(r, r)
            places.append((k, r, column, t * M + k))
            width += -(-_CHUNK // s)
        members = [(k, r * width + column, index) for k, r, column, index in places]
        groups.append((period, width, members))
    return groups


@dataclass
class _Group:
    """Channels whose kept samples repeat every `period` chunks, with the
    rows of the block maps that give them, one (Q, c+N-1) matrix per class."""

    period: int
    weights: np.ndarray  # (period, Q, c+N-1)
    members: list  # (channel, slot) as from _period_groups

    def classes(self, rows, first, count, margin):
        """The rows of the whole periods that cover chunks first.. first+count-1,
        one matrix per class: (period, periods, width).

        The chunks sit at rows[margin:margin+count], with a margin of at least
        period-1 rows on either side.  Also returns the chunk the first
        period starts at, a multiple of the period.
        """
        lead = first % self.period
        periods = -(-(lead + count) // self.period)
        start = margin - lead
        view = rows[start : start + periods * self.period].reshape(periods, self.period, -1)
        return first - lead, view.transpose(1, 0, 2)


def _groups(line, ratios, phases, synthesis):
    """Per period group, the rows of [Theta' | Gamma'] (synthesis, scaled by
    S_k for zero insertion) or the columns of [Theta; Psi] (analysis) that
    touch kept samples."""
    groups = []
    for period, width, members in _period_groups(ratios, phases):
        weights = np.zeros((period * width, _CHUNK + line.phi.shape[0]))
        for k, slot, index in members:
            if synthesis:
                weights[slot] = ratios[k] * np.hstack([line.theta[index], line.gamma[index]])
            else:
                weights[slot] = np.vstack([line.theta[:, index], line.psi[:, index]]).T
        groups.append(
            _Group(period, weights.reshape(period, width, -1), [m[:2] for m in members])
        )
    return groups


def analyze(design, signal):
    """Split a signal into decimated subband frames.

    Parameters
    ----------
    design : BankDesign
    signal : array_like
        Real 1-D signal; must be nonempty and finite (one NaN or inf would
        stay in the recursive allpass state for the rest of the signal).

    Returns
    -------
    list of SubbandFrame
        Frame k holds every subsampling[k]-th sample (offset 0) of the
        warped channel-k filter output, length ceil(len(signal)/S_k).
    """
    x = _real_samples(signal, "signal")
    if x.size == 0:
        raise ValueError("signal must be a nonempty 1-D array")
    _check_finite(x, "signal")
    line = _block_line(modulate(design.prototype_half()).analysis, design.alpha)
    ratios = design.subsampling
    groups = _groups(line, ratios, [0] * ratios.size, False)
    line.theta = line.psi = None
    return _analyze(line, groups, ratios, x)


def _analyze(line, groups, ratios, x):
    c, n = _CHUNK, line.phi.shape[0]
    out = [np.empty(-(-x.size // int(s))) for s in ratios]
    step = _block_length()
    margin = max(g.period for g in groups) - 1
    # rows [chunk input | start state], zero around the super-block's chunks
    rows = np.zeros((-(-min(step, x.size) // c) + 2 * margin, c + n))
    state = np.zeros(n)
    for start in range(0, x.size, step):
        blk = x[start : start + step]
        full, rest = divmod(blk.size, c)
        count = full + (rest > 0)
        body = rows[margin : margin + count]
        body[:full, :c] = blk[: full * c].reshape(full, c)
        if rest:
            body[full, :c] = 0.0
            body[full, :rest] = blk[full * c :]
        line.carry(body[:, :c] @ line.gamma, body[:, c:], state)
        for g in groups:
            base, view = g.classes(rows, start // c, count, margin)
            # (period, periods, Q) -> the kept samples of each period, in order
            y = np.matmul(view, g.weights.transpose(0, 2, 1))
            y = y.transpose(1, 0, 2).reshape(y.shape[1], -1)
            for k, slot in g.members:
                s = int(ratios[k])
                lo, hi = -(-start // s), -(-(start + blk.size) // s)
                skip = lo - base * c // s
                out[k][lo:hi] = y[:, slot].ravel()[skip : skip + hi - lo]
    return [SubbandFrame(k, out[k], int(s)) for k, s in enumerate(ratios)]


def synthesize(design, frames):
    """Rebuild a signal from subband frames.

    Frames are upsampled by zero insertion at their stated phase, scaled by
    the ratio (the decimate/upsample pair is gain 1/S otherwise), run through
    the warped synthesis filters and summed.  Output length is the largest
    upsampled channel length.

    The zero-inserted samples are never formed.  Per super-block, the frame
    samples of the channels that share a period of chunk classes go through
    one batched matmul with the rows of the transposed line's maps that they
    touch, into each chunk's output and the input to its end state (see the
    module docstring).  The state carried between super-blocks is the N-1
    states of the transposed line, and within a super-block of C chunks the
    chunked scan carries it in 2K + C/K calls.  Per output sample that costs
    about (c + N-1) * sum_k 1/S_k + (N-1) + 2(N-1)^2/c multiply-adds.  Frame
    samples must be real, 1-D and finite.
    """
    M = design.channels
    if len(frames) != M:
        raise ValueError("expected %d frames, got %d" % (M, len(frames)))
    for f in frames:
        _check_count("frame channel", f.channel, 0)
    order = sorted(frames, key=lambda f: f.channel)
    if [f.channel for f in order] != list(range(M)):
        raise ValueError("frames must cover channels 0..%d exactly once" % (M - 1))
    checked = []
    for f in order:
        what = "frame %d" % f.channel
        if _check_count(what + " ratio", f.ratio, 1) != design.subsampling[f.channel]:
            raise ValueError(
                "%s ratio %d does not match design ratio %d"
                % (what, f.ratio, design.subsampling[f.channel])
            )
        if _check_count(what + " phase", f.phase, 0) >= f.ratio:
            raise ValueError("%s phase out of range" % what)
        samples = _real_samples(f.samples, what + " samples")
        _check_finite(samples, what)
        checked.append(SubbandFrame(f.channel, samples, f.ratio, f.phase))
    line = _block_line(modulate(design.prototype_half()).synthesis, design.alpha)
    line = line.transposed()
    groups = _groups(line, [f.ratio for f in checked], [f.phase for f in checked], True)
    line.theta = line.gamma = None
    return _synthesize(line, groups, checked)


def _synthesize(line, groups, frames):
    c, n = _CHUNK, line.phi.shape[0]
    length = max(f.phase + f.samples.size * f.ratio for f in frames)
    out = np.empty(length)
    step = _block_length()
    margin = max(g.period for g in groups) - 1
    # per chunk, the sum of what the frame samples add to its outputs and
    # its end state, [outputs | end state], and a margin around the chunks
    chunks = -(-min(step, length) // c)
    acc = np.empty((chunks + 2 * margin, c + n))
    starts = np.empty((chunks, n))
    state = np.zeros(n)
    for start in range(0, length, step):
        stop = min(start + step, length)
        count = -(-(stop - start) // c)
        acc.fill(0.0)
        for g in groups:
            base, view = g.classes(acc, start // c, count, margin)
            periods = view.shape[1]
            # the frame samples of those periods (zero past a frame's end),
            # in the slots of the compact (periods, P*Q) input
            u = np.zeros((periods, g.weights.shape[0] * g.weights.shape[1]))
            for k, slot in g.members:
                f = frames[k]
                part = np.zeros(periods * slot.size)
                kept = f.samples[base * c // f.ratio :][: part.size]
                part[: kept.size] = kept
                u[:, slot] = part.reshape(periods, slot.size)
            view += np.matmul(u.reshape(periods, g.period, -1).transpose(1, 0, 2), g.weights)
        body = acc[margin : margin + count]
        line.carry(body[:, c:], starts, state)
        y = body[:, :c] + starts[:count] @ line.psi
        out[start:stop] = y.ravel()[: stop - start]
    return out


def process_signal(design, signal, gains_db=None):
    """Full analysis-synthesis pass, output trimmed to the input length.

    gains_db applies a per-channel gain in dB between analysis and synthesis
    (-inf silences a channel; NaN and +inf are rejected).
    """
    x = _real_samples(signal, "signal")
    if gains_db is not None:
        gains_db = np.asarray(gains_db, dtype=float)
        if gains_db.shape != (design.channels,):
            raise ValueError("need one gain per channel")
        if np.any(np.isnan(gains_db) | (gains_db == np.inf)):
            raise ValueError("gains must be finite dB values or -inf")
    frames = analyze(design, x)
    if gains_db is not None:
        for f in frames:
            f.samples = f.samples * 10.0 ** (gains_db[f.channel] / 20.0)
    y = synthesize(design, frames)
    if y.size < x.size:
        y = np.pad(y, (0, x.size - y.size))
    return y[: x.size]


def measure_response(design, probe_freqs):
    """Measure |T_all| at probe frequencies by running sines through the bank.

    Each probe feeds a unit sine, discards a settle transient of
    _SETTLE*N*max(S) samples, and reads the steady-state amplitude by
    Hann-windowed quadrature correlation over _WINDOW samples.  Returns
    magnitudes in dB.  Probes at (or numerically touching) 0 or pi are
    rejected, since the correlation cannot separate the conjugate line
    there, and so are non-finite ones.  Both lines and their period groups
    are built once, from one modulate call, and serve every probe.
    """
    freqs = np.atleast_1d(np.asarray(probe_freqs, dtype=float))
    bad = [float(f) for f in freqs if not 1e-9 < f < np.pi - 1e-9]
    if bad:
        raise ValueError("probe frequencies not inside (0, pi): %r" % bad)
    settle = _SETTLE * design.order * int(design.subsampling.max())
    win = np.hanning(_WINDOW)
    norm = 0.5 * win.sum()
    n = np.arange(settle + _WINDOW)
    filters = modulate(design.prototype_half())
    ratios, phases = design.subsampling, [0] * design.subsampling.size
    analysis = _block_line(filters.analysis, design.alpha)
    synthesis = _block_line(filters.synthesis, design.alpha).transposed()
    split = _groups(analysis, ratios, phases, False)
    merge = _groups(synthesis, ratios, phases, True)
    analysis.theta = analysis.psi = synthesis.theta = synthesis.gamma = None
    out = np.empty(freqs.size)
    for i, w in enumerate(freqs):
        # the synthesized signal is at least as long as the sine
        frames = _analyze(analysis, split, ratios, np.sin(w * n))
        y = _synthesize(synthesis, merge, frames)
        z = np.sum(win * y[settle : n.size] * np.exp(-1j * w * n[settle:]))
        out[i] = 20.0 * np.log10(abs(z) / norm)
    return out
