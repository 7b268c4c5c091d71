import numpy as np
from numpy.testing import assert_allclose
from pytest import raises as assert_raises
from scipy.signal import lfilter

from oracles import AllpassLine
from warpbank import (
    BankConfig,
    BankDesign,
    SubbandFrame,
    analyze,
    channel_response_warped,
    initial_prototype,
    measure_response,
    modulate,
    overall_transfer,
    process_signal,
    streaming,
    synthesize,
    to_db,
)


def _toy_design(channels, order, alpha, sub):
    config = BankConfig(channels=channels, order=order, alpha=alpha)
    half = initial_prototype(config).coeffs
    return BankDesign(half, channels, alpha, sub, 0.0, -300.0, 0, True)


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


def test_measure_rejects_edge_probes():
    design = _toy_design(2, 16, 0.3, [1, 1])
    assert_raises(ValueError, measure_response, design, [0.0])
    assert_raises(ValueError, measure_response, design, [np.pi])
    assert_raises(ValueError, measure_response, design, [0.5, 1e-12])


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
    # the zero-insertion phase across many block boundaries
    design = _toy_design(4, 32, 0.55, [4, 3, 2, 1])
    rng = np.random.default_rng(163)
    x = rng.standard_normal(1000)
    frames = _phased_frames(rng, (4, 3, 2, 1), (2, 1, 1, 0), 1000)
    whole_frames = analyze(design, x)
    whole_out = synthesize(design, frames)
    monkeypatch.setattr(streaming, "_BLOCK", 97)
    for got, want in zip(analyze(design, x), whole_frames):
        assert_allclose(got.samples, want.samples, atol=1e-12)
    assert_allclose(synthesize(design, frames), whole_out, atol=1e-12)


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
