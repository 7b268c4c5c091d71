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
run of two sequences down the line gives all four: an impulse, and alpha^t,
which is what a section puts out from a unit state.  That run, Phi's first
row and the line's memory (_line_memory) come from allpass, whose block
model of the line the uniform transfer route reads too.  Phi and Gamma
depend only on alpha, so one copy serves both directions (_StateMaps): the
transposed line carries its state by Phi^T and reads it out through Gamma^T
in reversed time order.  Within a super-block of _BLOCK samples, the
chunks' start states come from the recursion s <- s Phi + x Gamma, run as a
chunked scan (_StateMaps.carry): segments of K chunks run as GEMMs over all
segments at once, and Phi^K carries the state from segment to segment.

Neither direction computes a channel sample that decimation drops or that
zero insertion makes zero (the polyphase rule).  Channel k keeps every S_k-th
sample, and the places of those samples in a chunk repeat every
P_k = S_k/gcd(S_k, c) chunks, so each chunk class (chunk index mod P_k) has
fixed columns of [Theta; Psi] (analysis) or rows of [Theta' | Gamma']
(synthesis).  One pass builds them for every group and both directions as
rows of one array (_groups): Theta's from windows of the channel responses,
and Psi's for every channel of both directions at once, by Horner's rule
from the last section back, one GEMM per block of sections (_psi_rows); the
full maps are never formed, nor Psi whole.  The channels that share a period
run as one batched matmul over the chunk classes.  Per sample that is about
(c + N-1) * sum_k 1/S_k multiply-adds for the kept channel samples, plus
(N-1) + 2(N-1)^2/c for the state (the scan does twice the work of a plain
per-chunk step, in 2K + C/K calls per super-block of C chunks in place of
C), in either direction.

One engine (_Line) runs a super-block at a time and keeps only the N-1
states of each direction between them.  Its split half writes each chunk's
analysis start state into the rows [input | start state]; its merge half
carries the drive in the acc [output | drive] down the transposed line and
adds the start states' output.  analyze runs the split half and scatters
the kept samples into frames; synthesize gathers frame samples, at any
phase, into the acc and runs the merge half.  BankStream runs both, fused:
at phase 0 both directions share each period group's slot layout, so the
kept samples y = [x | s] W_a^T go straight on as y W_s, with the channel
gains folded into W_s, and no frame is stored.
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import allpass
from .allpass import _CHUNK, _check_count, _line_runs, _phi_row, _power_rows, _upper_toeplitz
from .modulation import modulate

# samples per super-block (rounded down to whole chunks), which bounds the
# working memory; on a 2-core host with one BLAS thread, 20 s of flagship
# noise ran as fast at 8192 as at 16384, and about 30 % slower at 4096
_BLOCK = 1 << 13
# measure_response: the Hann window length of the steady-state read
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


def _check_finite(samples, what):
    if not np.all(np.isfinite(samples)):
        raise ValueError("%s holds non-finite samples (NaN or inf)" % what)


def _signal(signal):
    x = _real_samples(signal, "signal")
    if x.size == 0:
        raise ValueError("signal must be a nonempty 1-D array")
    _check_finite(x, "signal")
    return x


@dataclass
class _StateMaps:
    """The state side of the line in block form, shared by both directions.

    State n is the lfilter state of section n, its input plus alpha times
    its output; section n maps tap n to tap n+1.  Analysis advances a chunk
    by s <- s Phi + x Gamma.  Synthesis runs the transposed line, whose maps
    are Phi' = Phi^T and Psi' = Gamma^T R (R reverses a chunk in time).
    """

    phi: np.ndarray  # (N-1, N-1) start state -> end state, upper triangular
    gamma: np.ndarray  # (c, N-1) chunk input -> end state
    power: tuple = field(default=(1, None), repr=False)  # (k, Phi^k), the last built

    def carry(self, drive, starts, state, transposed=False):
        """Start states (into starts) of consecutive chunks whose inputs add
        drive (chunks, N-1) to their end states; state holds the start state
        of the first chunk and is advanced in place past the last one.  The
        transposed line carries by Phi^T.

        The recursion s <- s Phi + w runs as a chunked scan.  The C chunks
        split into S segments of K chunks: K GEMMs (S, N-1) by Phi find each
        segment's end state from a zero start, S GEMVs by Phi^K carry the
        true segment heads, and K GEMMs run each segment again from its head
        into starts.  The C - S*K chunks left over, and a call with S < 2,
        take the plain step.  That is 2K + C/K calls, fewest at K =
        sqrt(C/2), but the GEMMs do 2C(N-1)^2 multiply-adds, twice the plain
        step's, at a rate that grows with their S rows; K = ceil(sqrt(C)/2)
        (6 of a super-block's 128 chunks; of 256 chunks, 8 measured faster
        than 12).
        """
        phi = self.phi.T if transposed else self.phi
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
                ends = ends @ phi
                ends += w[:, i]
            power = self.phi_power(k).T if transposed else self.phi_power(k)
            heads[0, 0] = state
            for j in range(1, segments):
                heads[j, 0] = heads[j - 1, 0] @ power + ends[j - 1]
            for i in range(1, k):
                np.matmul(heads[:, i - 1], phi, out=heads[:, i])
                heads[:, i] += w[:, i - 1]
            s = heads[-1, -1] @ phi + w[-1, -1]
        for j in range(done, count):
            starts[j] = s
            s = s @ phi + drive[j]
        state[:] = s

    def phi_power(self, k):
        """Phi^k, from its first row (_power_rows).  Only the last power
        built is kept: a run of whole super-blocks asks for one k."""
        if k == 1:
            return self.phi
        if self.power[0] != k:
            edge = next(itertools.islice(_power_rows(self.phi[0]), k - 1, None))
            self.power = (k, _upper_toeplitz(edge))
        return self.power[1]


def _state_maps(alpha, runs):
    H, G = runs
    # z_imp[n, tau]: end state of section n after a unit impulse at sample tau
    z_imp = (H[:-1] + alpha * H[1:])[:, ::-1]
    # phi[m, n] = z_unit[n - m]: the signal runs to higher section indices
    return _StateMaps(phi=_upper_toeplitz(_phi_row(alpha, G)), gamma=np.ascontiguousarray(z_imp.T))


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

    Returns (P, Q, members) per period; member (k, slot, place) gives the
    kept samples of channel k over P*c samples from a chunk J = 0 (mod P),
    in time order: slot = r*Q + column in the class, and place = t, the
    sample's place in its chunk.
    """
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
            places.append((k, r, column, t))
            width += -(-_CHUNK // s)
        members = [(k, r * width + column, t) for k, r, column, t in places]
        groups.append((period, width, members))
    return groups


@dataclass
class _Group:
    """Channels whose kept samples repeat every `period` chunks, with the
    columns of [Theta; Psi] (split) and the rows of [Theta' | Gamma'] (merge)
    that give them (see _groups), one matrix per class."""

    period: int
    members: list  # (channel, slot) as from _period_groups
    split: np.ndarray = None  # (period, c+N-1, Q)
    merge: np.ndarray = None  # (period, Q, c+N-1)


def _groups(runs, ratios, phases, split=None, merge=None):
    """Per period group, the columns of [Theta; Psi] that give the kept
    samples of the line of taps split (M, N), and the rows of [Theta' |
    Gamma'] that the frame samples drive in the transposed line of taps
    merge, which carry the channel scale; a side left None is not built.

    Every slot of every group, of both sides, is a row of one [Theta | Psi]
    array, and a group's weights are views of its rows; padding slots are
    zero rows.  Synthesis reads Theta' = R Theta^T R and Gamma' = R Psi^T:
    the input at place t reaches samples tau >= t, and the end state as
    Psi's output at c-1-t would.  So the slot at place t takes the window
    c-1-t of its channel's response, reversed and zero-padded after (split)
    or zero-padded before (merge), and the column t (split) or c-1-t (merge)
    of Psi (see _psi_rows).
    """
    H, _ = runs
    c, taps = _CHUNK, H.shape[0]
    coeffs = np.concatenate([w for w in (split, merge) if w is not None])
    M = (merge if split is None else split).shape[0]
    sides = coeffs.shape[0] // M
    plan = _period_groups(ratios, phases)
    offsets = np.cumsum([0] + [period * width for period, width, _ in plan])
    size = offsets[-1]
    at, channel, place = [], [], []
    for offset, (_, _, members) in zip(offsets, plan):
        for k, slot, t in members:
            at.append(offset + slot)
            channel.append(np.full(slot.size, k))
            place.append(t)
    at = np.concatenate(at)
    # per slot of each side, its row of coeffs (past the last for padding,
    # which reads zeros) and its place
    row = np.full((sides, size), coeffs.shape[0])
    row[:, at] = M * np.arange(sides)[:, None] + np.concatenate(channel)
    places = np.zeros_like(row)
    places[:, at] = np.concatenate(place)
    column = places.copy()
    if merge is not None:
        column[-1] = c - 1 - places[-1]
    weights = np.empty((sides * size, c + taps - 1))
    _psi_rows(weights[:, c:], runs, coeffs, row.ravel(), column.ravel())
    # Theta from the windows of the padded responses, a zero row last, one
    # group's slots of one side at a time
    responses = coeffs @ H
    padded = np.zeros((coeffs.shape[0] + 1, 2 * c))
    if split is not None:
        padded[:M, :c] = responses[:M, ::-1]
    if merge is not None:
        padded[-1 - M : -1, c - 1 : -1] = responses[-M:]
    windows = np.lib.stride_tricks.sliding_window_view(padded.ravel(), c)
    first = (row * 2 * c + c - 1 - places).ravel()
    groups = []
    for offset, (period, width, members) in zip(offsets, plan):
        views = []
        for side in range(sides):
            lo = side * size + offset
            rows = weights[lo : lo + period * width]
            rows[:, :c] = windows[first[lo : lo + period * width]]
            views.append(rows.reshape(period, width, -1))
        groups.append(
            _Group(
                period,
                [m[:2] for m in members],
                None if split is None else views[0].transpose(0, 2, 1),
                None if merge is None else views[-1],
            )
        )
    return groups


def _psi_rows(into, runs, coeffs, row, column):
    """Fill into[j] with Psi_r[:, t] for r = row[j], t = column[j], and with
    zeros for r past the rows of coeffs.  Psi_r[n, t] = sum_d coeffs[r,
    n+1+d] G[d, t] is the output at sample t from a unit state in section n.

    Psi runs for every row of coeffs at once, by Horner's rule from the last
    section back, in blocks of B sections.  With U^j the chunk map of j
    sections, G[d] U^j = G[d+j], so for i < B

        Psi[n0+i] = sum_{d < B-i} coeffs[:, n0+i+1+d] G[d] + Psi[n0+B] U^(B-i),

    one GEMM per block of [coeffs[:, n0+1:n0+B+1] | Psi[n0+B]] by a fixed
    (B+c, c*B) map.  Each block's sections are gathered into the slots
    before the next block overwrites them, so Psi is never held whole.
    """
    H, G = runs
    c, taps = _CHUNK, H.shape[0]
    rows_of = coeffs.shape[0]
    # blocks of 8 sections, a 295 kB map; on the flagship, blocks of 16
    # built about 5 % faster and raised the build's peak by 0.6 MB
    B = min(8, taps - 1)
    blocks = -(-(taps - 1) // B)
    lead = blocks * B - (taps - 1)
    step = np.zeros((B + c, c, B))
    for i in range(B):
        step[i:B, :, i] = G[: B - i]
        step[B:, :, i] = _upper_toeplitz(H[B - i])
    step = step.reshape(B + c, c * B)
    # coeffs after lead zero columns: block b reads columns b*B+1 to (b+1)*B
    tail = np.zeros((rows_of, lead + taps))
    tail[:, lead:] = coeffs
    drive = np.zeros((rows_of, B + c))
    # out[r*c + t, i] is Psi_r[n0+i, t]; the rows past rows_of*c stay zero
    out = np.zeros(((rows_of + 1) * c, B))
    picks = row * c + column
    for block in range(blocks - 1, -1, -1):
        n0 = block * B - lead
        drive[:, :B] = tail[:, block * B + 1 : (block + 1) * B + 1]
        np.matmul(drive, step, out=out[: rows_of * c].reshape(rows_of, c * B))
        drive[:, B:] = out[: rows_of * c, 0].reshape(rows_of, c)
        skip = max(0, -n0)
        into[:, n0 + skip : n0 + B] = np.take(out, picks, axis=0)[:, skip:]


def _operators(design):
    """The modulated filters and the line runs of a design.  Callers make
    the state maps from the runs after the groups, so that the groups'
    build temporaries and the maps are not held at once."""
    return modulate(design.prototype_half()), _line_runs(design.alpha, design.order)


class _Line:
    """The super-block engine and its two halves (see the module docstring).

    The rows and the acc hold a super-block's chunks at [margin:], between
    margins of the longest group period less one.  The split half keeps its
    drive in the acc, and the merge half puts its start states over the
    split's in the rows: a driver of both fills the acc after the split and
    reads the rows before the merge.
    """

    def __init__(self, maps, groups, chunks=math.inf):
        # a signal of known length needs no more rows than its chunks
        self._step = min(_block_length() // _CHUNK, chunks)
        self._maps = maps
        self._margin = max(g.period for g in groups) - 1
        self._rows = np.zeros((self._step + 2 * self._margin, _CHUNK + maps.phi.shape[0]))
        self._acc = np.zeros_like(self._rows)
        self.reset()

    def reset(self):
        self._split_state, self._merge_state = np.zeros((2, self._maps.phi.shape[0]))
        self._chunk = 0

    def _blocks(self, total):
        """(chunks before it, its chunks, its (count, c) rows of input to
        fill) per super-block of the next total chunks."""
        done = 0
        while done < total:
            count = min(self._step, total - done)
            yield done, count, self._rows[self._margin : self._margin + count, :_CHUNK]
            self._chunk += count
            done += count

    def _split(self, count):
        """The split half: the drive x Gamma of the inputs, and the analysis
        carry, which writes each chunk's start state into its row."""
        c, margin = _CHUNK, self._margin
        body = self._rows[margin : margin + count]
        drive = np.matmul(body[:, :c], self._maps.gamma, out=self._acc[margin : margin + count, c:])
        self._maps.carry(drive, body[:, c:], self._split_state)

    def _views(self, period, count):
        """The chunk the first of the whole periods that cover the block
        starts at, and their rows and acc, (period, periods, c+N-1) each."""
        lead = self._chunk % period
        periods = -(-(lead + count) // period)
        start = self._margin - lead
        rows, acc = (
            a[start : start + periods * period].reshape(periods, period, -1).transpose(1, 0, 2)
            for a in (self._rows, self._acc)
        )
        return self._chunk - lead, rows, acc

    def _merge(self, count, out):
        """The merge half: the transposed carry of the acc's drive into the
        rows' state columns, then the acc plus Psi' = Gamma^T R of each start
        state into out (count, c)."""
        c, margin, maps = _CHUNK, self._margin, self._maps
        merged, starts = self._acc[margin : margin + count], self._rows[margin : margin + count, c:]
        maps.carry(merged[:, c:], starts, self._merge_state, transposed=True)
        # the start states' output, reversed in time
        np.matmul(starts, maps.gamma.T, out=out)
        np.add(merged[:, :c], out[:, ::-1], out=merged[:, :c])
        out[:] = merged[:, :c]


def analyze(design, signal):
    """Split a signal into decimated subband frames.

    Runs the split half of the line and scatters each group's kept samples
    into the frames, one super-block at a time.

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
    x = _signal(signal)
    filters, runs = _operators(design)
    ratios = design.subsampling
    groups = _groups(runs, ratios, [0] * ratios.size, split=filters.analysis)
    c, chunks = _CHUNK, -(-x.size // _CHUNK)
    line = _Line(_state_maps(design.alpha, runs), groups, chunks)
    out = [np.empty(-(-x.size // int(s))) for s in ratios]
    for done, count, inputs in line._blocks(chunks):
        blk = x[done * c : (done + count) * c]
        # the last partial chunk, if any, is padded with zeros in place
        full = blk.size // c
        inputs[-1] = 0.0
        inputs[:full] = blk[: full * c].reshape(full, c)
        inputs[full:, : blk.size - full * c] = blk[full * c :]
        line._split(count)
        for g in groups:
            base, view, _ = line._views(g.period, count)
            # (period, periods, Q) -> the kept samples of each period, in order
            y = np.matmul(view, g.split)
            y = y.transpose(1, 0, 2).reshape(y.shape[1], -1)
            for k, slot in g.members:
                s = int(ratios[k])
                lo, hi = -(-done * c // s), -(-(done * c + blk.size) // s)
                skip = lo - base * c // s
                out[k][lo:hi] = y[:, slot].ravel()[skip : skip + hi - lo]
    return [SubbandFrame(k, out[k], int(s)) for k, s in enumerate(ratios)]


def synthesize(design, frames):
    """Rebuild a signal from subband frames.

    Frames are upsampled by zero insertion at their stated phase, scaled by
    the ratio (the decimate/upsample pair is gain 1/S otherwise), run through
    the warped synthesis filters and summed.  Output length is the largest
    upsampled channel length.  Frame samples must be real, 1-D and finite.

    The zero-inserted samples are never formed: per super-block, each
    period group gathers its frame samples into the slots of their phases,
    one batched matmul adds them into the acc, and the merge half runs.
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
    filters, runs = _operators(design)
    ratios = [f.ratio for f in checked]
    scaled = filters.synthesis * np.array(ratios)[:, None]
    groups = _groups(runs, ratios, [f.phase for f in checked], merge=scaled)
    c = _CHUNK
    length = max(f.phase + f.samples.size * f.ratio for f in checked)
    chunks = -(-length // c)
    line = _Line(_state_maps(design.alpha, runs), groups, chunks)
    out = np.empty((chunks, c))
    for done, count, _ in line._blocks(chunks):
        line._acc.fill(0.0)
        for g in groups:
            base, _, view = line._views(g.period, count)
            periods = view.shape[1]
            # the frame samples of those periods (zero past a frame's end),
            # in the slots of the compact (periods, P*Q) input
            u = np.zeros((periods, g.merge.shape[0] * g.merge.shape[1]))
            for k, slot in g.members:
                f = checked[k]
                kept = f.samples[base * c // f.ratio :][: periods * slot.size]
                places = np.arange(periods)[:, None] * u.shape[1] + slot
                u.ravel()[places.ravel()[: kept.size]] = kept
            view += np.matmul(u.reshape(periods, g.period, -1).transpose(1, 0, 2), g.merge)
        line._merge(count, out[done : done + count])
    return out.ravel()[:length]


def _gain_factors(design, gains_db):
    if gains_db is None:
        return np.ones(design.channels)
    gains_db = np.asarray(gains_db, dtype=float)
    if gains_db.shape != (design.channels,):
        raise ValueError("need one gain per channel")
    if np.any(np.isnan(gains_db) | (gains_db == np.inf)):
        raise ValueError("gains must be finite dB values or -inf")
    return 10.0 ** (gains_db / 20.0)


class BankStream(_Line):
    """Analysis and synthesis of one design, fused, over a signal that
    arrives in pieces.

    push(samples) takes the next samples and returns the output of every
    whole chunk of 64 samples received so far, so the output lags the input
    by under 64 samples.  flush() pads the last partial chunk with zeros,
    returns the rest of the output, so that the output is as long as the
    input, and resets the stream for a new signal.  The output is
    process_signal's: per-channel gains in dB (gains_db, -inf silences a
    channel) apply between analysis and synthesis.

    Per super-block it runs the split half, each group's kept samples
    straight into the synthesis rows, which carry the gains, and the merge
    half.  It keeps its operators and one super-block of working memory.
    """

    def __init__(self, design, gains_db=None):
        gains = _gain_factors(design, gains_db)
        filters, runs = _operators(design)
        ratios = design.subsampling
        phases = [0] * ratios.size
        # at phase 0 both sides share each group's slots, which need not be kept
        groups = _groups(
            runs, ratios, phases, filters.analysis, filters.synthesis * (ratios * gains)[:, None]
        )
        self._groups = [(g.period, g.split, g.merge) for g in groups]
        self._pending = np.empty(_CHUNK)
        super().__init__(_state_maps(design.alpha, runs), groups)

    def reset(self):
        """Forget the signal so far: zero state, no samples held."""
        super().reset()
        self._held = 0

    def push(self, samples):
        """Output of every whole chunk completed by samples (real, 1-D,
        finite), in order."""
        x = _real_samples(samples, "samples")
        _check_finite(x, "samples")
        out = np.empty((self._held + x.size) // _CHUNK * _CHUNK)
        self._feed(x, out)
        return out

    def flush(self):
        """The output of the samples held back, and a reset stream."""
        held = self._held
        out = np.empty(-(-held // _CHUNK) * _CHUNK)
        self._feed(np.zeros(out.size - held), out)
        self.reset()
        return out[:held]

    def _run(self, x):
        """The output of the whole checked signal x, ending in a reset stream."""
        out = np.empty(x.size)
        whole = x.size // _CHUNK * _CHUNK
        self._feed(x, out[:whole])
        out[whole:] = self.flush()
        return out

    def _feed(self, x, out):
        """Run the held samples and x for out.size // c whole chunks into
        out, and hold what is left of x."""
        c, used = _CHUNK, 0
        out = out.reshape(-1, c)
        for done, count, inputs in self._blocks(out.shape[0]):
            held = self._held
            if held:
                inputs[0, :held] = self._pending[:held]
                inputs[0, held:] = x[: c - held]
                used, self._held = c - held, 0
            first = 1 if held else 0
            end = used + (count - first) * c
            inputs[first:] = x[used:end].reshape(count - first, c)
            used = end
            self._split(count)
            self._acc.fill(0.0)
            for i, (period, split, merge) in enumerate(self._groups):
                _, view, into = self._views(period, count)
                # kept samples, then what they add to each chunk; the first
                # group writes its share, the others add theirs from a product
                # laid out as the rows are (a sum from the class order would
                # be buffered)
                if i == 0:
                    np.matmul(np.matmul(view, split), merge, out=into)
                else:
                    part = np.empty((into.shape[1], period, into.shape[2])).transpose(1, 0, 2)
                    into += np.matmul(np.matmul(view, split), merge, out=part)
                    del part  # before the next group's is made
            self._merge(count, out[done : done + count])
        rest = x.size - used
        self._pending[self._held : self._held + rest] = x[used:]
        self._held += rest


def process_signal(design, signal, gains_db=None):
    """Full analysis-synthesis pass, output as long as the input.

    gains_db applies a per-channel gain in dB between analysis and synthesis
    (-inf silences a channel; NaN and +inf are rejected).  The signal runs
    through one BankStream, so the working memory beyond the output does not
    grow with its length.
    """
    x = _signal(signal)
    return BankStream(design, gains_db)._run(x)


def measure_response(design, probe_freqs):
    """Measure |T_all| at probe frequencies by running sines through the bank.

    Each probe feeds a unit sine, discards a settle transient, and reads
    the steady-state amplitude by Hann-windowed quadrature correlation over
    _WINDOW samples.  The settle is twice allpass._line_memory, (K+1)*c
    samples for the K chunks of c = _CHUNK after which the line's state map
    has vanished: the analysis line's memory, then the synthesis line's,
    each with a chunk to spare.  On the flagship K = 14, a settle of 1920
    samples.  Decimation and zero insertion add no memory, so the settle
    does not depend on the ratios.

    Returns magnitudes in dB.  The probes are a real scalar or 1-D array;
    those at (or numerically touching) 0 or pi are rejected, since the
    correlation cannot separate the conjugate line there, and so are
    non-finite ones.  One BankStream serves every probe.
    """
    freqs = _real_samples(np.atleast_1d(probe_freqs), "probe frequencies")
    bad = [float(f) for f in freqs if not 1e-9 < f < np.pi - 1e-9]
    if bad:
        raise ValueError("probe frequencies not inside (0, pi): %r" % bad)
    stream = BankStream(design)
    settle = 2 * allpass._line_memory(design.alpha, design.order)
    win = np.hanning(_WINDOW)
    norm = 0.5 * win.sum()
    n = np.arange(settle + _WINDOW)
    out = np.empty(freqs.size)
    for i, w in enumerate(freqs):
        y = stream._run(np.sin(w * n))
        z = np.sum(win * y[settle:] * np.exp(-1j * w * n[settle:]))
        out[i] = 20.0 * np.log10(abs(z) / norm)
    return out
