import math
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from pytest import raises as assert_raises
from scipy.signal import lfilter

from oracles import (
    AllpassLine,
    block_line,
    carry_loop,
    dense_process_signal,
    dense_synthesize,
)
from warpbank import (
    BankConfig,
    BankDesign,
    BankStream,
    SubbandFrame,
    allpass,
    analyze,
    channel_response_warped,
    files,
    initial_prototype,
    measure_response,
    modulate,
    overall_transfer,
    process_signal,
    streaming,
    synthesize,
    to_db,
    transfer,
)


def _toy_design(channels, order, alpha, sub):
    config = BankConfig(channels=channels, order=order, alpha=alpha, subsampling=sub)
    return BankDesign(initial_prototype(config).coeffs, config, 0.0, -300.0, 0, True)


def _fir_reference(design, x):
    # unwarped multirate chain built from plain FIR filtering
    filters = modulate(design.prototype_half())
    frames = []
    for k in range(design.channels):
        s = int(design.subsampling[k])
        y = lfilter(filters.analysis[k], 1.0, x)
        frames.append(y[::s])
    length = max(f.size * int(s) for f, s in zip(frames, design.subsampling))
    out = np.zeros(length)
    for k in range(design.channels):
        s = int(design.subsampling[k])
        u = np.zeros(length)
        u[: frames[k].size * s : s] = frames[k] * s
        out += lfilter(filters.synthesis[k], 1.0, u)
    return frames, out


def _phased_frames(rng, ratios, phases, length):
    return [
        SubbandFrame(k, rng.standard_normal((length - p - 1) // s + 1), s, phase=p)
        for k, (s, p) in enumerate(zip(ratios, phases))
    ]


def test_unwarped_chain_matches_fir_reference():
    design = _toy_design(4, 32, 0.0, [4, 3, 2, 1])
    rng = np.random.default_rng(113)
    x = rng.standard_normal(400)
    ref_frames, ref_out = _fir_reference(design, x)
    frames = analyze(design, x)
    for k in range(4):
        assert frames[k].channel == k
        assert frames[k].ratio == design.subsampling[k]
        assert frames[k].phase == 0
        assert_allclose(frames[k].samples, ref_frames[k], atol=1e-10)
    out = synthesize(design, frames)
    assert_allclose(out, ref_out, atol=1e-10)


def test_frame_lengths():
    design = _toy_design(4, 32, 0.3, [4, 3, 2, 1])
    frames = analyze(design, np.zeros(101))
    for k, s in enumerate((4, 3, 2, 1)):
        assert frames[k].samples.size == -(-101 // s)


def test_chain_is_linear():
    design = _toy_design(2, 16, 0.5, [2, 1])
    rng = np.random.default_rng(127)
    x1 = rng.standard_normal(300)
    x2 = rng.standard_normal(300)
    lhs = process_signal(design, 2.0 * x1 - 0.5 * x2)
    rhs = 2.0 * process_signal(design, x1) - 0.5 * process_signal(design, x2)
    assert_allclose(lhs, rhs, atol=1e-10)


def test_shift_by_common_multiple_shifts_frames():
    design = _toy_design(4, 32, 0.4, [4, 3, 2, 1])
    shift = int(np.lcm.reduce([4, 3, 2, 1]))
    rng = np.random.default_rng(131)
    x = rng.standard_normal(240)
    base = analyze(design, x)
    delayed = analyze(design, np.concatenate([np.zeros(shift), x]))
    for k in range(4):
        d = shift // int(design.subsampling[k])
        a = delayed[k].samples[d:]
        b = base[k].samples[: a.size]
        assert_allclose(a, b, atol=1e-12)


def test_dc_steady_state():
    # every allpass section has unit gain at DC, so channel outputs settle to
    # the analysis row sums
    design = _toy_design(4, 32, 0.6, [4, 3, 2, 1])
    frames = analyze(design, np.ones(4000))
    dc = modulate(design.prototype_half()).analysis.sum(axis=1)
    for k in range(4):
        assert_allclose(frames[k].samples[-1], dc[k], atol=1e-10)


def test_measured_response_matches_analytic_transfer():
    design = _toy_design(8, 64, 0.4, [8, 5, 3, 2, 1, 1, 1, 2])
    config = BankConfig(
        channels=8, order=64, alpha=0.4, subsampling=[8, 5, 3, 2, 1, 1, 1, 2]
    )
    probes = np.array([0.3, 0.8, 1.4, 2.2, 2.9])
    measured = measure_response(design, probes)
    analytic = to_db(overall_transfer(design.half, probes, config))
    assert np.max(np.abs(measured - analytic)) < 0.05


def test_measured_response_of_strongly_warped_unsubsampled_banks():
    # the line's memory grows with |alpha| and not with the ratios: here
    # it is 30 chunks, and a settle of 256 samples reads 3.8e-2 dB off
    probes = np.linspace(0.05, np.pi - 0.05, 12)
    for alpha in (0.9, -0.9):
        design = _toy_design(8, 64, alpha, [1] * 8)
        config = BankConfig(channels=8, order=64, alpha=alpha, subsampling=[1] * 8)
        measured = measure_response(design, probes)
        analytic = to_db(overall_transfer(design.half, probes, config))
        assert np.max(np.abs(measured - analytic)) <= 1e-4


@pytest.mark.parametrize("taps", [2, 32, 64, 66, 176])
def test_memory_chunks_is_where_the_state_map_vanishes(taps):
    eps = np.finfo(float).eps
    chunks = {}
    for alpha in (0.0, 0.5783, -0.5783, 0.9, -0.9):
        phi = streaming._state_maps(alpha, streaming._line_runs(alpha, taps)).phi
        k = allpass._line_memory(alpha, taps) // streaming._CHUNK - 1
        assert np.abs(np.linalg.matrix_power(phi, k)).max() <= eps
        assert np.abs(np.linalg.matrix_power(phi, k - 1)).max() > eps
        chunks[alpha] = k
    for alpha in (0.5783, 0.9):
        assert chunks[alpha] == chunks[-alpha]
    # unwarped, a chunk moves the state c sections down an FIR delay line
    assert chunks[0.0] == -(-(taps - 1) // streaming._CHUNK)


def test_flagship_probes_hold_with_twice_the_settle(monkeypatch):
    design = files.load_design(Path(__file__).parents[1] / "bench" / "bark22_design.yaml")
    probes = np.linspace(0.05, np.pi - 0.05, 8)
    settled = measure_response(design, probes)
    memory = allpass._line_memory
    # 2*((2K+1)+1)*c samples, twice 2*(K+1)*c
    twice = mock.Mock(side_effect=lambda alpha, order: 2 * memory(alpha, order))
    monkeypatch.setattr(allpass, "_line_memory", twice)
    longer = measure_response(design, probes)
    assert twice.call_count == 1
    assert np.max(np.abs(longer - settled)) <= 1e-3


def test_settle_and_response_length_read_one_line_memory(monkeypatch):
    # measure_response's settle and the uniform route's impulse responses
    # both read allpass._line_memory: doubling it there doubles both
    design = _toy_design(4, 32, 0.6, [2, 1, 1, 2])
    proto = design.prototype_half()
    run, sizes = BankStream._run, []

    def recorded(self, x):
        sizes.append(x.size)
        return run(self, x)

    def lengths():
        sizes.clear()
        measure_response(design, [1.0])
        responses = transfer._impulse_responses(proto, design.config)
        return sizes[0] - streaming._WINDOW, responses.shape[2]

    monkeypatch.setattr(BankStream, "_run", recorded)
    settle, length = lengths()
    memory = allpass._line_memory
    assert settle == 2 * memory(design.alpha, design.order)
    monkeypatch.setattr(allpass, "_line_memory", lambda alpha, order: 2 * memory(alpha, order))
    assert lengths() == (2 * settle, 2 * length)


def test_measure_rejects_edge_probes():
    design = _toy_design(2, 16, 0.3, [1, 1])
    assert_raises(ValueError, measure_response, design, [0.0])
    assert_raises(ValueError, measure_response, design, [np.pi])
    assert_raises(ValueError, measure_response, design, [0.5, 1e-12])


def test_measure_rejects_non_finite_probes():
    design = _toy_design(2, 16, 0.3, [1, 1])
    for bad in (np.nan, np.inf, -np.inf):
        with assert_raises(ValueError, match="inside"):
            measure_response(design, [bad, 1.0])
    # a complex probe is not cut to its real part, and a 2-D array of
    # probes is named, not met by numpy's ambiguous truth value
    for bad in (np.array([0.5 + 1j]), 0.5 + 0j, np.full((2, 2), 0.5)):
        with assert_raises(ValueError, match="probe frequencies must be a real 1-D"):
            measure_response(design, bad)
    # a scalar probe is one probe, and no probes measure nothing
    assert_array_equal(measure_response(design, 0.5), measure_response(design, [0.5]))
    assert measure_response(design, []).shape == (0,)


def test_analyze_validation():
    design = _toy_design(2, 16, 0.3, [1, 1])
    assert_raises(ValueError, analyze, design, np.array([]))
    assert_raises(ValueError, analyze, design, np.zeros((4, 4)))


def test_synthesize_validation():
    design = _toy_design(2, 16, 0.3, [2, 1])
    good = analyze(design, np.ones(40))
    assert_raises(ValueError, synthesize, design, good[:1])
    both = [good[0], SubbandFrame(0, good[0].samples, 2)]
    assert_raises(ValueError, synthesize, design, both)
    wrong_ratio = [SubbandFrame(0, good[0].samples, 3), good[1]]
    assert_raises(ValueError, synthesize, design, wrong_ratio)
    bad_phase = [SubbandFrame(0, good[0].samples, 2, phase=2), good[1]]
    assert_raises(ValueError, synthesize, design, bad_phase)
    # frame counts are integers: a float or bool is named, not truncated
    for field, value in (("phase", 1.0), ("phase", True), ("ratio", 2.0),
                         ("channel", 0.0)):
        frame = SubbandFrame(0, good[0].samples, 2)
        setattr(frame, field, value)
        with assert_raises(ValueError, match="frame.*integer"):
            synthesize(design, [frame, good[1]])
    # samples are real and 1-D: no imaginary part is dropped, no 2-D frame
    # reaches the line
    for samples in (good[0].samples + 1j, np.ones((2, 20))):
        with assert_raises(ValueError, match="real 1-D"):
            SubbandFrame(0, samples, 2)
        frame = SubbandFrame(0, good[0].samples, 2)
        frame.samples = samples
        with assert_raises(ValueError, match="frame 0 samples"):
            synthesize(design, [frame, good[1]])


def test_synthesize_honors_frame_phase():
    # unwarped case: zero insertion at phase p must equal the dense reference
    design = _toy_design(4, 32, 0.0, [2, 3, 2, 1])
    rng = np.random.default_rng(137)
    filters = modulate(design.prototype_half())
    frames = _phased_frames(rng, (2, 3, 2, 1), (1, 2, 0, 0), 120)
    length = max(f.phase + f.samples.size * f.ratio for f in frames)
    want = np.zeros(length)
    for f in frames:
        u = np.zeros(length)
        stop = f.phase + f.samples.size * f.ratio
        u[f.phase : stop : f.ratio] = f.samples * f.ratio
        want += lfilter(filters.synthesis[f.channel], 1.0, u)
    got = synthesize(design, frames)
    assert_allclose(got, want, atol=1e-10)


def test_warped_synthesis_matches_allpass_line_oracle():
    # sum_k sum_n f_k[n] (A^n u_k)[t], each A^n u_k read off the taps of a
    # per-sample allpass line fed the zero-inserted channel
    alpha = 0.55
    design = _toy_design(4, 32, alpha, [4, 3, 2, 1])
    filters = modulate(design.prototype_half())
    rng = np.random.default_rng(157)
    frames = _phased_frames(rng, (4, 3, 2, 1), (3, 1, 1, 0), 150)
    length = max(f.phase + f.samples.size * f.ratio for f in frames)
    want = np.zeros(length)
    for f in frames:
        u = np.zeros(length)
        u[f.phase : f.phase + f.samples.size * f.ratio : f.ratio] = f.samples * f.ratio
        line = AllpassLine(alpha, design.order)
        taps = np.array([line.step(v) for v in u]).T
        want += filters.synthesis[f.channel] @ taps
    assert_allclose(synthesize(design, frames), want, atol=1e-12)


def test_block_splits_match_one_block(monkeypatch):
    # an odd block size that no ratio divides carries the allpass states and
    # the zero-insertion phase across many block boundaries; blocks of 62,
    # 60 and 58 chunks, which the scan splits into segments of K = 4, leave
    # tail blocks of 1, K-1 and K+1 of the 63 chunks 4000 samples span
    c = streaming._CHUNK
    design = _toy_design(4, 32, 0.55, [4, 3, 2, 1])
    rng = np.random.default_rng(163)
    one_block = streaming._BLOCK
    for length, blocks in ((1000, [97]), (4000, [62 * c, 60 * c, 58 * c])):
        x = rng.standard_normal(length)
        frames = _phased_frames(rng, (4, 3, 2, 1), (2, 1, 1, 0), length)
        monkeypatch.setattr(streaming, "_BLOCK", one_block)
        whole_frames = analyze(design, x)
        whole_out = synthesize(design, frames)
        for block in blocks:
            monkeypatch.setattr(streaming, "_BLOCK", block)
            for got, want in zip(analyze(design, x), whole_frames):
                assert_allclose(got.samples, want.samples, atol=1e-12)
            assert_allclose(synthesize(design, frames), whole_out, atol=1e-12)


# chunk counts of one super-block (256), below two segments (1), off a
# multiple of the segment length, or anything up to 600
_CHUNK_COUNTS = st.one_of(st.sampled_from([1, 2, 3, 7, 255, 256, 257]), st.integers(1, 600))


@given(
    _CHUNK_COUNTS,
    st.floats(-0.99, 0.99, allow_subnormal=False),
    st.integers(2, 180),
    st.booleans(),
    st.integers(0, 2**16),
)
@example(256, 0.5783, 176, False, 0)
@example(256, 0.5783, 176, True, 0)
@example(1, -0.99, 176, True, 1)
@example(257, 0.99, 180, False, 2)
def test_carry_matches_loop_oracle(count, alpha, taps, transposed, seed):
    rng = np.random.default_rng(seed)
    maps = streaming._state_maps(alpha, streaming._line_runs(alpha, taps))
    n = taps - 1
    drive = rng.standard_normal((count, n))
    start = rng.standard_normal(n)
    # starts is a strided view, as the columns of the analysis rows are
    rows = np.zeros((count, n + 3))
    state = start.copy()
    maps.carry(drive, rows[:, 3:], state, transposed)
    want_starts, want_state = np.empty((count, n)), start.copy()
    carry_loop(maps.phi.T if transposed else maps.phi, drive, want_starts, want_state)
    assert_allclose(rows[:, 3:], want_starts, rtol=0, atol=1e-12 * np.abs(want_starts).max())
    assert_allclose(state, want_state, rtol=0, atol=1e-12 * np.abs(want_state).max())


def test_non_finite_samples_rejected():
    design = _toy_design(2, 16, 0.5, [2, 1])
    for bad in (np.nan, np.inf, -np.inf):
        x = np.ones(400)
        x[100] = bad
        assert_raises(ValueError, analyze, design, x)
        assert_raises(ValueError, process_signal, design, x)
        frames = analyze(design, np.ones(400))
        frames[1].samples[100] = bad
        assert_raises(ValueError, synthesize, design, frames)
    # a complex signal is rejected, not cut to its real part
    for call in (analyze, process_signal):
        with assert_raises(ValueError, match="signal must be a real 1-D"):
            call(design, np.ones(400) + 1j)


def test_zero_frames_give_zero_output():
    design = _toy_design(2, 16, 0.5, [2, 2])
    frames = [SubbandFrame(k, np.zeros(32), 2) for k in range(2)]
    assert_allclose(synthesize(design, frames), 0.0, atol=0)


def test_process_signal_gains():
    design = _toy_design(2, 16, 0.4, [2, 1])
    rng = np.random.default_rng(139)
    x = rng.standard_normal(500)
    assert_allclose(
        process_signal(design, x, gains_db=[0.0, 0.0]),
        process_signal(design, x),
        atol=1e-12,
    )
    silent = process_signal(design, x, gains_db=[-np.inf, -np.inf])
    assert_allclose(silent, 0.0, atol=0)
    assert_raises(ValueError, process_signal, design, x, [0.0, 0.0, 0.0])
    assert_raises(ValueError, process_signal, design, x, [0.0, np.nan])
    assert_raises(ValueError, process_signal, design, x, [np.inf, 0.0])
    assert process_signal(design, x).size == x.size
    # unequal finite gains, against scaling the frames of analyze by hand
    gains = rng.uniform(-30.0, 10.0, 2)
    frames = analyze(design, x)
    for f, g in zip(frames, gains):
        f.samples *= 10.0 ** (g / 20.0)
    want = synthesize(design, frames)[: x.size]
    got = process_signal(design, x, gains_db=gains)
    assert_allclose(got, want, rtol=0, atol=1e-12 * np.max(np.abs(want)))


def test_allpass_line_matches_block_filtering():
    alpha = 0.55
    n_taps = 6
    rng = np.random.default_rng(149)
    x = rng.standard_normal(64)
    line = AllpassLine(alpha, n_taps)
    taps = np.array([line.step(v) for v in x]).T
    want = np.empty_like(taps)
    want[0] = x
    b = np.array([-alpha, 1.0])
    a = np.array([1.0, -alpha])
    for n in range(1, n_taps):
        want[n] = lfilter(b, a, want[n - 1])
    assert_allclose(taps, want, atol=1e-12)


def test_allpass_line_validation():
    assert_raises(ValueError, AllpassLine, 1.0, 4)
    assert_raises(ValueError, AllpassLine, 0.5, 0)


def test_long_noise_run_stays_bounded():
    design = _toy_design(4, 32, 0.6, [4, 3, 2, 1])
    rng = np.random.default_rng(151)
    x = rng.standard_normal(20000)
    y = process_signal(design, x)
    assert np.all(np.isfinite(y))
    assert np.max(np.abs(y)) < 10.0 * np.max(np.abs(x))


def test_impulse_frames_transform_to_channel_responses():
    # truncated transform of the impulse response against the closed form
    design = _toy_design(2, 16, 0.4, [1, 1])
    x = np.zeros(2048)
    x[0] = 1.0
    frames = analyze(design, x)
    omega = np.linspace(0.2, 2.9, 7)
    proto = design.prototype_half()
    for k in range(2):
        dft = np.exp(-1j * np.outer(omega, np.arange(2048))) @ frames[k].samples
        want = channel_response_warped(proto, k, omega, 0.4)
        assert_allclose(dft, want, atol=1e-8)


# ratios that divide the chunk or not, coprime to it (7, 13, 27) and above it
# (65, 97), so that some chunks keep no sample of a channel
_RATIOS = (1, 2, 3, 4, 5, 7, 13, 27, 65, 97)


@st.composite
def _streams(draw, pool=_RATIOS):
    """A toy bank, frame phases, a super-block length and a signal length.

    The ratios are a few distinct values from pool shared out over the
    channels, so channels often repeat a ratio and share a period group.
    The length is whole super-blocks plus a part of one, so it runs from
    below one chunk to across several super-block boundaries.
    """
    channels = draw(st.integers(1, 4))
    order = 2 * channels * draw(st.integers(1, 4))
    alpha = draw(st.floats(-0.95, 0.95, allow_subnormal=False))
    distinct = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=channels, unique=True))
    ratios = [draw(st.sampled_from(distinct)) for _ in range(channels)]
    phases = [draw(st.integers(0, s - 1)) for s in ratios]
    block = streaming._CHUNK * draw(st.integers(1, 3))
    length = block * draw(st.integers(0, 4)) + draw(st.integers(1, block - 1))
    seed = draw(st.integers(0, 2**16))
    return _toy_design(channels, order, alpha, ratios), phases, block, length, seed


def _oracle_taps(design, x):
    line = AllpassLine(design.alpha, design.order)
    return np.array([line.step(v) for v in x]).T


@given(_streams())
def test_analyze_matches_allpass_line_oracle(case):
    design, _, block, length, seed = case
    x = np.random.default_rng(seed).standard_normal(length)
    y = modulate(design.prototype_half()).analysis @ _oracle_taps(design, x)
    with mock.patch.object(streaming, "_BLOCK", block):
        frames = analyze(design, x)
    for k, s in enumerate(design.subsampling):
        assert_allclose(frames[k].samples, y[k, ::s], atol=1e-12)


@given(_streams())
def test_synthesize_matches_allpass_line_oracle(case):
    design, phases, block, length, seed = case
    filters = modulate(design.prototype_half())
    rng = np.random.default_rng(seed)
    frames = _phased_frames(rng, design.subsampling, phases, length)
    size = max(f.phase + f.samples.size * f.ratio for f in frames)
    want = np.zeros(size)
    for f in frames:
        u = np.zeros(size)
        u[f.phase : f.phase + f.samples.size * f.ratio : f.ratio] = f.samples * f.ratio
        want += filters.synthesis[f.channel] @ _oracle_taps(design, u)
    with mock.patch.object(streaming, "_BLOCK", block):
        got = synthesize(design, frames)
    assert_allclose(got, want, atol=1e-12)


@given(_streams(), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
def test_chain_is_linear_property(case, a, b):
    design, _, block, length, seed = case
    x1, x2 = np.random.default_rng(seed).standard_normal((2, length))
    with mock.patch.object(streaming, "_BLOCK", block):
        lhs = process_signal(design, a * x1 + b * x2)
        rhs = a * process_signal(design, x1) + b * process_signal(design, x2)
    assert_allclose(lhs, rhs, atol=1e-10)


# the shift is a multiple of the ratios' least common multiple, which 65 and
# 97 next to the others would take into the millions of samples
@given(_streams(pool=_RATIOS[:-2]), st.integers(1, 3))
def test_shift_by_common_multiple_shifts_frames_property(case, multiple):
    design, _, block, length, seed = case
    shift = multiple * int(np.lcm.reduce(design.subsampling))
    x = np.random.default_rng(seed).standard_normal(length)
    delayed = np.concatenate([np.zeros(shift), x])
    with mock.patch.object(streaming, "_BLOCK", block):
        base, late = analyze(design, x), analyze(design, delayed)
        out, late_out = process_signal(design, x), process_signal(design, delayed)
    for k, s in enumerate(design.subsampling):
        assert_allclose(late[k].samples[shift // s :], base[k].samples, atol=1e-12)
    assert_allclose(late_out[shift:], out, atol=1e-12)


@given(_streams(), st.data())
def test_stream_splits_match_one_shot(case, data):
    # pieces shorter than a chunk, and pieces that end inside a chunk, a
    # period or a super-block; gains fold into the synthesis rows, -inf too
    design, _, block, length, seed = case
    x = np.random.default_rng(seed).standard_normal(length)
    gain = st.one_of(st.just(-np.inf), st.floats(-20.0, 20.0))
    gains = data.draw(st.lists(gain, min_size=design.channels, max_size=design.channels))
    sizes = data.draw(st.lists(st.one_of(st.integers(0, 70), st.integers(1, 3 * block))))
    cuts = np.minimum(np.cumsum(sizes, dtype=int), length)
    with mock.patch.object(streaming, "_BLOCK", block):
        want = process_signal(design, x, gains)
        stream = BankStream(design, gains)
        parts, seen = [], 0
        for piece in np.split(x, cuts):
            parts.append(stream.push(piece))
            seen += piece.size
            # every whole chunk in is out: a lag of under one chunk
            assert sum(p.size for p in parts) == seen // streaming._CHUNK * streaming._CHUNK
        parts.append(stream.flush())
    got = np.concatenate(parts)
    assert got.size == length
    assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())


@given(_streams(), st.data())
def test_analyze_then_synthesize_matches_process_signal(case, data):
    # frames of analyze scaled by hand and run through synthesize: the two
    # halves of the line composed, against the fused group product of the
    # stream with the gains folded into its rows, -inf too
    design, _, block, length, seed = case
    x = np.random.default_rng(seed).standard_normal(length)
    gain = st.one_of(st.just(-np.inf), st.floats(-20.0, 20.0))
    gains = data.draw(st.lists(gain, min_size=design.channels, max_size=design.channels))
    with mock.patch.object(streaming, "_BLOCK", block):
        frames = analyze(design, x)
        for f, g in zip(frames, gains):
            f.samples *= 10.0 ** (g / 20.0)
        got = synthesize(design, frames)[: x.size]
        want = process_signal(design, x, gains)
    assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())


def test_stream_flush_resets_and_bad_push_changes_nothing():
    design = _toy_design(4, 32, 0.55, [4, 3, 2, 1])
    x = np.random.default_rng(179).standard_normal(500)
    stream = BankStream(design, [0.0, -6.0, -np.inf, 3.0])
    first = np.concatenate([stream.push(x[:130]), stream.push(x[130:]), stream.flush()])
    assert_allclose(first, process_signal(design, x, [0.0, -6.0, -np.inf, 3.0]), atol=1e-13)
    # flush ended the signal: the same signal again gives the same output
    head = stream.push(x[:130])
    assert head.size == 128
    for bad in (np.array([1.0, np.nan]), np.ones((2, 2)), np.ones(3) + 1j):
        with assert_raises(ValueError):
            stream.push(bad)
    again = np.concatenate([head, stream.push(x[130:]), stream.flush()])
    assert_array_equal(again, first)
    assert stream.flush().size == 0
    assert_raises(ValueError, BankStream, design, [0.0, 0.0])
    assert_raises(ValueError, BankStream, design, [0.0, np.nan, 0.0, 0.0])


@given(st.lists(st.tuples(st.sampled_from(_RATIOS), st.integers(0, 96)), min_size=1, max_size=6))
def test_period_groups_place_each_kept_sample_once(pairs):
    ratios = [s for s, _ in pairs]
    phases = [p % s for s, p in pairs]
    c = streaming._CHUNK
    grouped = []
    for period, width, members in streaming._period_groups(ratios, phases):
        slots = np.concatenate([m[1] for m in members])
        assert np.unique(slots).size == slots.size
        assert slots.min() >= 0 and slots.max() < period * width
        for k, slot, t in members:
            s = ratios[k]
            assert period == s // math.gcd(s, c)
            assert t.min() >= 0 and t.max() < c
            # class and place give back the kept samples of one period
            kept = (slot // width) * c + t
            assert_array_equal(kept, phases[k] + s * np.arange(period * c // s))
            grouped.append(k)
    assert sorted(grouped) == list(range(len(ratios)))


def _check_group_weights(design, phases, scale):
    # every group's weights at (channel, slot) against the dense block line:
    # the column t*M + k of [Theta; Psi] for analysis, and the row t*M + k of
    # the transposed line's [Theta' | Gamma'] times scale[k] for synthesis;
    # padding slots exactly 0.  Built one side at a time, as analyze and
    # synthesize do, and both at once, as BankStream does
    M, c = design.channels, streaming._CHUNK
    ratios = design.subsampling
    filters = modulate(design.prototype_half())
    split = block_line(filters.analysis, design.alpha)
    merge = block_line(filters.synthesis, design.alpha).transposed()
    dense = {
        "split": np.vstack([split.theta, split.psi]).T,
        "merge": np.hstack([merge.theta, merge.gamma]) * np.tile(scale, c)[:, None],
    }
    taps = {"split": filters.analysis, "merge": filters.synthesis * scale[:, None]}
    runs = streaming._line_runs(design.alpha, design.order)
    plan = streaming._period_groups(ratios, phases)
    for sides in (["split"], ["merge"], ["split", "merge"]):
        groups = streaming._groups(runs, ratios, phases, **{s: taps[s] for s in sides})
        assert [g.period for g in groups] == [period for period, _, _ in plan]
        for g, (period, width, members) in zip(groups, plan):
            for (k, slot), (want_k, want_slot, _) in zip(g.members, members, strict=True):
                assert k == want_k
                assert_array_equal(slot, want_slot)
            for side in ("split", "merge"):
                weights = getattr(g, side)
                if side not in sides:
                    assert weights is None
                    continue
                rows = weights.transpose(0, 2, 1) if side == "split" else weights
                rows = rows.reshape(period * width, c + design.order - 1)
                want = np.zeros_like(rows)
                for k, slot, t in members:
                    want[slot] = dense[side][t * M + k]
                scale_of = np.abs(dense[side]).max()
                assert_allclose(rows, want, rtol=0, atol=1e-12 * scale_of, err_msg=side)
                kept = np.concatenate([slot for _, slot, _ in members])
                assert_array_equal(np.delete(rows, kept, axis=0), 0.0)


@given(
    st.integers(2, 8),
    st.integers(1, 3),
    st.floats(-0.95, 0.95, allow_subnormal=False),
    st.data(),
)
def test_group_weights_match_dense_block_line(channels, multiple, alpha, data):
    ratios = data.draw(st.lists(st.sampled_from(_RATIOS), min_size=channels, max_size=channels))
    phases = [data.draw(st.integers(0, s - 1)) for s in ratios]
    scale = np.array(data.draw(st.lists(st.floats(0.0, 40.0), min_size=channels, max_size=channels)))
    design = _toy_design(channels, 2 * channels * multiple, alpha, ratios)
    _check_group_weights(design, phases, scale)


def test_flagship_group_weights_match_dense_block_line():
    design = files.load_design(Path(__file__).parents[1] / "bench" / "bark22_design.yaml")
    rng = np.random.default_rng(191)
    phases = [int(rng.integers(0, s)) for s in design.subsampling]
    _check_group_weights(design, phases, design.subsampling * rng.uniform(0.0, 2.0, 22))
    _check_group_weights(design, [0] * 22, design.subsampling.astype(float))


def test_flagship_stream_build_memory():
    # the kept operators (4.32 MB of group weights, the state maps and one
    # super-block of rows and acc) and the build's temporaries, 5.61 MB: a
    # build that held Psi whole, (44, 175, 64) floats or 3.9 MB, would not fit
    design = files.load_design(Path(__file__).parents[1] / "bench" / "bark22_design.yaml")
    BankStream(design)
    tracemalloc.start()
    BankStream(design)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak <= 5.9e6


def test_flagship_stream_matches_dense_oracle():
    # the polyphase line against the parent's all-samples line, on the
    # 22-channel bench design: kept samples only, the same samples
    design = files.load_design(Path(__file__).parents[1] / "bench" / "bark22_design.yaml")
    rng = np.random.default_rng(173)
    x = rng.standard_normal(2 * 16000)
    assert_allclose(process_signal(design, x), dense_process_signal(design, x), atol=1e-13)
    phases = [int(rng.integers(0, s)) for s in design.subsampling]
    frames = _phased_frames(rng, design.subsampling, phases, x.size - 5)
    assert_allclose(synthesize(design, frames), dense_synthesize(design, frames), atol=1e-13)


def test_process_memory_does_not_grow_with_length():
    # what process_signal holds beyond its output is the per-super-block
    # working set, the same at L and 8L samples; the stream keeps no frames
    design = _toy_design(4, 32, 0.6, [4, 3, 2, 1])
    rng = np.random.default_rng(167)
    short = 2 * streaming._BLOCK
    process_signal(design, rng.standard_normal(100))
    rest = []
    for length in (short, 8 * short):
        x = rng.standard_normal(length)
        tracemalloc.start()
        process_signal(design, x)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        rest.append(peak - 8 * length)
    # one byte more per sample of the longer signal would show as 7*short
    assert rest[1] - rest[0] < 7 * short


def test_frame_api_memory_does_not_grow_with_length():
    # what analyze and synthesize hold beyond their output is one
    # super-block of rows and acc, the same at L and 8L samples
    design = _toy_design(4, 32, 0.6, [4, 3, 2, 1])
    rng = np.random.default_rng(181)
    short = 2 * streaming._BLOCK
    synthesize(design, analyze(design, rng.standard_normal(100)))
    rest = {"analyze": [], "synthesize": []}
    for length in (short, 8 * short):
        x = rng.standard_normal(length)
        frames = analyze(design, x)
        for call, arg in ((analyze, x), (synthesize, frames)):
            tracemalloc.start()
            got = call(design, arg)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            size = got.nbytes if call is synthesize else sum(f.samples.nbytes for f in got)
            rest[call.__name__].append(peak - size)
    for name, (at_short, at_long) in rest.items():
        # one byte more per sample of the longer signal would show as 7*short
        assert at_long - at_short < 7 * short, name
