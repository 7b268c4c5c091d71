"""Sample-domain execution of the warped analysis/synthesis chain.

Both directions run on one tapped cascade of N-1 first-order allpass
sections (the warped delay line), each realizing

    A(z) = (z^-1 - alpha) / (1 - alpha z^-1)

which matches the analytic warping phase; with alpha = 0 the line degenerates
to an ordinary FIR delay line.

Analysis pushes the input down the line and takes channel outputs as inner
products of the tap vector with the modulated analysis coefficients.

Synthesis uses the transposed structure.  A is linear and time-invariant, so
summing the warped synthesis filters over the zero-inserted channels u_k,

    sum_k sum_n f_k[n] A^n u_k = sum_n A^n v_n,   v_n = sum_k f_k[n] u_k,

folds by Horner's rule into v_0 + A(v_1 + A(v_2 + ... + A(v_{N-1}))): the
channels are mixed first and a single 1-D signal passes through the line.
Per output sample both directions therefore cost N-1 allpass section updates
and M*N multiply-adds of channel mixing, independent of the channel count on
the allpass side.
"""

from dataclasses import dataclass

import numpy as np
from scipy.signal import lfilter

from .modulation import modulate

_BLOCK = 1 << 16
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


def _design_filters(design):
    filters = modulate(design.prototype_half())
    return filters.analysis, filters.synthesis


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
    ha, _ = _design_filters(design)
    M, N = ha.shape
    b, a = _section_coeffs(design.alpha)
    ratios = design.subsampling
    out = [np.empty(-(-x.size // s)) for s in ratios]
    zi = np.zeros((N - 1, 1))
    buf = np.empty((N, min(_BLOCK, x.size)))
    for start in range(0, x.size, _BLOCK):
        blk = x[start : start + _BLOCK]
        taps = buf[:, : blk.size]
        taps[0] = blk
        for n in range(1, N):
            taps[n], zi[n - 1] = lfilter(b, a, taps[n - 1], zi=zi[n - 1])
        y = ha @ taps
        # keep every S_k-th sample of the whole signal as the block is made
        for k, s in enumerate(ratios):
            part = y[k, (-start) % s :: s]
            first = -(-start // s)
            out[k][first : first + part.size] = part
    return [SubbandFrame(k, out[k], int(s)) for k, s in enumerate(ratios)]


def synthesize(design, frames):
    """Rebuild a signal from subband frames.

    Frames are upsampled by zero insertion at their stated phase, scaled by
    the ratio (the decimate/upsample pair is gain 1/S otherwise), run through
    the warped synthesis filters and summed.  Output length is the largest
    upsampled channel length.

    The filtering is evaluated by Horner's rule on one allpass line (see the
    module docstring): starting from acc = v_{N-1}, each of the N-1 sections
    filters the running sum once and the next mixed tap v_n = fs[:, n] @ u is
    added.  Only N-1 scalar section states persist between blocks, one per
    Horner stage; frame samples must be finite.
    """
    M = design.channels
    if len(frames) != M:
        raise ValueError("expected %d frames, got %d" % (M, len(frames)))
    order = sorted(frames, key=lambda f: f.channel)
    if [f.channel for f in order] != list(range(M)):
        raise ValueError("frames must cover channels 0..%d exactly once" % (M - 1))
    for f in order:
        if f.ratio != design.subsampling[f.channel]:
            raise ValueError(
                "frame %d ratio %d does not match design ratio %d"
                % (f.channel, f.ratio, design.subsampling[f.channel])
            )
        if not 0 <= f.phase < f.ratio:
            raise ValueError("frame %d phase out of range" % f.channel)
        _check_finite(f.samples, "frame %d" % f.channel)
    _, fs = _design_filters(design)
    M, N = fs.shape
    b, a = _section_coeffs(design.alpha)
    length = max(f.phase + f.samples.size * f.ratio for f in order)
    out = np.empty(length)
    zi = np.zeros((N - 1, 1))
    for start in range(0, length, _BLOCK):
        stop = min(start + _BLOCK, length)
        u = np.zeros((M, stop - start))
        for f in order:
            s = f.ratio
            first = f.phase if start <= f.phase else start + (-(start - f.phase)) % s
            if first >= stop:
                continue
            src = (first - f.phase) // s
            count = (stop - 1 - first) // s + 1
            count = min(count, f.samples.size - src)
            if count > 0:
                u[f.channel, first - start :: s][:count] = (
                    f.samples[src : src + count] * s
                )
        acc = fs[:, N - 1] @ u
        for n in range(N - 2, -1, -1):
            acc, zi[n] = lfilter(b, a, acc, zi=zi[n])
            acc += fs[:, n] @ u
        out[start:stop] = acc
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
    rejected: the correlation cannot separate the conjugate line there.
    """
    freqs = np.atleast_1d(np.asarray(probe_freqs, dtype=float))
    bad = [float(f) for f in freqs if f <= 1e-9 or f >= np.pi - 1e-9]
    if bad:
        raise ValueError("probe frequencies too close to 0 or pi: %r" % bad)
    settle = _SETTLE * design.order * int(design.subsampling.max())
    win = np.hanning(_WINDOW)
    norm = 0.5 * win.sum()
    n = np.arange(settle + _WINDOW)
    out = np.empty(freqs.size)
    for i, w in enumerate(freqs):
        y = process_signal(design, np.sin(w * n))
        z = np.sum(win * y[settle:] * np.exp(-1j * w * n[settle:]))
        out[i] = 20.0 * np.log10(abs(z) / norm)
    return out
