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
which is what a section puts out from a unit state.  A super-block of
_BLOCK samples then costs three GEMMs over its chunks plus one (N-1)-square
GEMV per chunk to carry the state; only the N-1 states persist between
super-blocks.  Per sample that is about c*M + (M+1)*(N-1) + (N-1)^2/c
multiply-adds in either direction, for M channels.
"""

from dataclasses import dataclass

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
        self.samples = np.asarray(self.samples, dtype=float)


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
    """

    theta: np.ndarray  # (c*P, c*Q) chunk input -> outputs
    psi: np.ndarray  # (N-1, c*Q) start state -> outputs
    gamma: np.ndarray  # (c*P, N-1) chunk input -> end state
    phi: np.ndarray  # (N-1, N-1) start state -> end state

    def run(self, chunks, state):
        """Outputs (chunks, c*Q) of consecutive chunks (chunks, c*P).

        state holds the start state of the first chunk and is advanced in
        place past the last one.
        """
        starts = np.empty((chunks.shape[0], state.size))
        s = state
        for j, w in enumerate(chunks @ self.gamma):
            starts[j] = s
            s = s @ self.phi + w
        state[:] = s
        out = chunks @ self.theta
        out += starts @ self.psi
        return out

    def transposed(self):
        """The dual line, whose transfer matrix is the transpose of this one's.

        Transposing every map runs a chunk backwards in time, so the samples
        inside a chunk are reversed as well (R below): Theta' = R Theta^T R,
        Psi' = Gamma^T R, Gamma' = R Psi^T, Phi' = Phi^T.  A line with one
        input and M outputs becomes one with M inputs and one output.
        """
        c, n = _CHUNK, self.phi.shape[0]
        P, Q = self.theta.shape[0] // c, self.theta.shape[1] // c
        theta = self.theta.reshape(c, P, c, Q)[::-1, :, ::-1].transpose(2, 3, 0, 1)
        return _BlockLine(
            theta=theta.reshape(c * Q, c * P),
            psi=self.gamma.reshape(c, P, n)[::-1].transpose(2, 0, 1).reshape(n, c * P),
            gamma=self.psi.reshape(n, c, Q)[:, ::-1].transpose(1, 2, 0).reshape(c * Q, n),
            phi=np.ascontiguousarray(self.phi.T),
        )


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
    """Causal chunk map (c, c*Q) of one input from responses resp[q, delay]."""
    Q, c = resp.shape
    lag = np.subtract.outer(np.arange(c), np.arange(c))  # [t, tau] = t - tau
    blocks = resp[:, np.maximum(lag, 0)] * (lag >= 0)  # [q, t, tau]
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
    d = np.subtract.outer(np.arange(N - 1), np.arange(N - 1))
    phi = np.where(d <= 0, z_unit[np.maximum(-d, 0)], 0.0)
    # psi[n, k, t] = sum_d coeffs[k, n+1+d] G[d, t], from the sections below n
    psi = np.stack([coeffs[:, n + 1 :] @ G[: N - 1 - n] for n in range(N - 1)])
    return _BlockLine(
        theta=_toeplitz(coeffs @ H),
        psi=psi.transpose(0, 2, 1).reshape(N - 1, _CHUNK * M),
        gamma=np.ascontiguousarray(z_imp.T),
        phi=phi,
    )


def _block_length():
    return max(1, _BLOCK // _CHUNK) * _CHUNK


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
    x = np.asarray(signal, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("signal must be a nonempty 1-D array")
    _check_finite(x, "signal")
    line = _block_line(modulate(design.prototype_half()).analysis, design.alpha)
    return _analyze(design, line, x)


def _analyze(design, line, x):
    ratios = design.subsampling
    out = [np.empty(-(-x.size // s)) for s in ratios]
    state = np.zeros(line.phi.shape[0])
    step = _block_length()
    for start in range(0, x.size, step):
        blk = x[start : start + step]
        chunks = np.zeros(-(-blk.size // _CHUNK) * _CHUNK)
        chunks[: blk.size] = blk
        y = line.run(chunks.reshape(-1, _CHUNK), state).reshape(-1, ratios.size)
        # keep every S_k-th sample of the whole signal as the block is made
        for k, s in enumerate(ratios):
            part = y[(-start) % s : blk.size : s, k]
            first = -(-start // s)
            out[k][first : first + part.size] = part
    return [SubbandFrame(k, out[k], int(s)) for k, s in enumerate(ratios)]


def synthesize(design, frames):
    """Rebuild a signal from subband frames.

    Frames are upsampled by zero insertion at their stated phase, scaled by
    the ratio (the decimate/upsample pair is gain 1/S otherwise), run through
    the warped synthesis filters and summed.  Output length is the largest
    upsampled channel length.

    The zero-inserted frames of a super-block go in as they are, one row of
    c*M values per chunk: channel mixing and the allpass line together are
    the chunk GEMMs of the block state-space form (see the module
    docstring).  The state carried between super-blocks is the N-1 states
    of the transposed line.  Per output sample that costs about
    c*M + (M+1)*(N-1) + (N-1)^2/c multiply-adds.  Frame samples must be
    finite.
    """
    M = design.channels
    if len(frames) != M:
        raise ValueError("expected %d frames, got %d" % (M, len(frames)))
    for f in frames:
        _check_count("frame channel", f.channel, 0)
    order = sorted(frames, key=lambda f: f.channel)
    if [f.channel for f in order] != list(range(M)):
        raise ValueError("frames must cover channels 0..%d exactly once" % (M - 1))
    for f in order:
        what = "frame %d" % f.channel
        if _check_count(what + " ratio", f.ratio, 1) != design.subsampling[f.channel]:
            raise ValueError(
                "%s ratio %d does not match design ratio %d"
                % (what, f.ratio, design.subsampling[f.channel])
            )
        if _check_count(what + " phase", f.phase, 0) >= f.ratio:
            raise ValueError("%s phase out of range" % what)
        _check_finite(f.samples, what)
    # only the transposed maps stay alive while the line runs
    line = _block_line(modulate(design.prototype_half()).synthesis, design.alpha)
    line = line.transposed()
    return _synthesize(line, order)


def _synthesize(line, frames):
    M = len(frames)
    length = max(f.phase + f.samples.size * f.ratio for f in frames)
    out = np.empty(length)
    state = np.zeros(line.phi.shape[0])
    step = _block_length()
    for start in range(0, length, step):
        stop = min(start + step, length)
        u = np.zeros((-(-(stop - start) // _CHUNK) * _CHUNK, M))
        for f in frames:
            s = f.ratio
            first = f.phase if start <= f.phase else start + (-(start - f.phase)) % s
            if first >= stop:
                continue
            src = (first - f.phase) // s
            count = (stop - 1 - first) // s + 1
            count = min(count, f.samples.size - src)
            if count > 0:
                u[first - start :: s, f.channel][:count] = (
                    f.samples[src : src + count] * s
                )
        y = line.run(u.reshape(-1, _CHUNK * M), state)
        out[start:stop] = y.ravel()[: stop - start]
    return out


def process_signal(design, signal, gains_db=None):
    """Full analysis-synthesis pass, output trimmed to the input length.

    gains_db applies a per-channel gain in dB between analysis and synthesis
    (-inf silences a channel; NaN and +inf are rejected).
    """
    x = np.asarray(signal, dtype=float)
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
    there, and so are non-finite ones.  Both lines are built once, from one
    modulate call, and serve every probe.
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
    analysis = _block_line(filters.analysis, design.alpha)
    synthesis = _block_line(filters.synthesis, design.alpha).transposed()
    out = np.empty(freqs.size)
    for i, w in enumerate(freqs):
        # the synthesized signal is at least as long as the sine
        y = _synthesize(synthesis, _analyze(design, analysis, np.sin(w * n)))
        z = np.sum(win * y[settle : n.size] * np.exp(-1j * w * n[settle:]))
        out[i] = 20.0 * np.log10(abs(z) / norm)
    return out
