import time
import tracemalloc

import numpy as np
import pytest
import yaml
from numpy.testing import assert_allclose

from warpbank import (
    BankConfig,
    BankDesign,
    initial_prototype,
    read_wav,
    save_design,
    write_wav,
)
from warpbank.cli import main


TOY_CONFIG = """\
channels: 4
order: 32
alpha: 0.5783
sample_rate_hz: 16000
grid_points: 512
"""

FLAT_CONFIG = """\
channels: 4
order: 32
alpha: 0.4
subsampling: [1, 1, 1, 1]
grid_points: 512
"""


@pytest.fixture(scope="module")
def toy_design(tmp_path_factory):
    """Small automatic-ratio design driven through the design subcommand."""
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "toy.yaml"
    cfg.write_text(TOY_CONFIG)
    out = root / "toy_design.yaml"
    t0 = time.perf_counter()
    code = main(["design", str(cfg), "-o", str(out)])
    elapsed = time.perf_counter() - t0
    assert code == 0
    assert elapsed < 10.0
    return str(out)


@pytest.fixture(scope="module")
def flat_design(tmp_path_factory):
    """Design with no subsampling anywhere (alias-free by construction)."""
    root = tmp_path_factory.mktemp("cli_flat")
    cfg = root / "flat.yaml"
    cfg.write_text(FLAT_CONFIG)
    out = root / "flat_design.yaml"
    assert main(["design", str(cfg), "-o", str(out)]) == 0
    return str(out)


def test_design_prints_metrics(tmp_path, capsys):
    cfg = tmp_path / "c.yaml"
    cfg.write_text("channels: 2\norder: 8\nalpha: 0.0\ngrid_points: 128\n")
    out = tmp_path / "d.yaml"
    assert main(["design", str(cfg), "-o", str(out)]) == 0
    captured = capsys.readouterr().out
    for key in ("channels:", "order:", "ripple_db:", "max_alias_db:",
                "outer_iterations:", "converged:", "wrote"):
        assert key in captured
    assert out.exists()


def test_design_missing_config_exits_2(tmp_path):
    assert main(["design", str(tmp_path / "no.yaml"), "-o", str(tmp_path / "d")]) == 2


def test_design_malformed_value_exits_2(tmp_path):
    cfg = tmp_path / "c.yaml"
    cfg.write_text("channels: 2\norder: twelve\nalpha: 0.0\n")
    assert main(["design", str(cfg), "-o", str(tmp_path / "d.yaml")]) == 2


def test_design_out_of_range_value_exits_2(tmp_path, capsys):
    cfg = tmp_path / "c.yaml"
    cfg.write_text(
        "channels: 4\norder: 32\nalpha: 0.3\nsubsampling: [2, 2, 2, 2]\n"
        "max_outer: 0\npsi: -1\n"
    )
    out = tmp_path / "d.yaml"
    assert main(["design", str(cfg), "-o", str(out)]) == 2
    assert "max_outer must be" in capsys.readouterr().err
    assert not out.exists()


def test_design_nonconvergence_warns_but_succeeds(tmp_path, capsys):
    cfg = tmp_path / "c.yaml"
    cfg.write_text(
        "channels: 2\norder: 8\nalpha: 0.0\ngrid_points: 128\n"
        "psi: 1.0e-9\nmax_outer: 2\n"
    )
    out = tmp_path / "d.yaml"
    assert main(["design", str(cfg), "-o", str(out)]) == 0
    captured = capsys.readouterr()
    assert "warning" in captured.err
    assert out.exists()


def test_subsample_table(capsys, tmp_path):
    out = tmp_path / "bands.csv"
    code = main(
        ["subsample", "--channels", "22", "--alpha", "0.5783", "-o", str(out)]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["channel", "f_lower", "f_upper", "band", "ratio"]
    assert lines[4].split() == ["3", "0.0122220", "0.0316169", "1", "15"]
    assert len(lines) == 24  # header + 22 rows + wrote line
    rows = out.read_text().splitlines()
    assert rows[0] == "channel,f_lower,f_upper,band_index,ratio"
    assert len(rows) == 23
    first = rows[1].split(",")
    assert first[0] == "0" and first[4] == "40"


def test_evaluate_headers_and_determinism(toy_design, tmp_path):
    whats = {
        "prototype": "omega_norm,value_db",
        "channels": None,
        "tall": "omega_norm,value_db",
        "tdist": "omega_norm,value_db",
        "talias": "omega_norm,coherent_db,bound_db",
        "error": "omega_norm,value_db",
    }
    for what, header in whats.items():
        p1 = tmp_path / ("%s_1.csv" % what)
        p2 = tmp_path / ("%s_2.csv" % what)
        for p in (p1, p2):
            code = main(
                ["evaluate", toy_design, "--what", what, "-o", str(p),
                 "--grid", "64"]
            )
            assert code == 0
        assert p1.read_bytes() == p2.read_bytes()
        lines = p1.read_text().splitlines()
        assert len(lines) == 65
        if what == "channels":
            assert lines[0] == "omega_norm," + ",".join(
                "ch%02d_db" % k for k in range(4)
            )
        else:
            assert lines[0] == header
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        last = lines[-1].split(",")
        assert_allclose(float(last[0]), 0.5, atol=1e-9)


def test_evaluate_alias_bound_dominates(toy_design, tmp_path):
    out = tmp_path / "al.csv"
    assert main(["evaluate", toy_design, "--what", "talias", "-o", str(out),
                 "--grid", "128"]) == 0
    data = np.loadtxt(str(out), delimiter=",", skiprows=1)
    assert np.all(data[:, 1] <= data[:, 2] + 1e-6)


def test_evaluate_alias_floor_without_subsampling(flat_design, tmp_path):
    out = tmp_path / "al.csv"
    assert main(["evaluate", flat_design, "--what", "talias", "-o", str(out),
                 "--grid", "64"]) == 0
    data = np.loadtxt(str(out), delimiter=",", skiprows=1)
    assert np.all(data[:, 1] == -300.0)
    assert np.all(data[:, 2] == -300.0)


def test_evaluate_missing_design_exits_2(tmp_path):
    assert main(["evaluate", str(tmp_path / "no.yaml"), "-o",
                 str(tmp_path / "x.csv")]) == 2


def test_evaluate_grid_below_2_exits_2(flat_design, tmp_path, capsys):
    code = main(["evaluate", flat_design, "--what", "tall", "-o",
                 str(tmp_path / "x.csv"), "--grid", "1"])
    assert code == 2
    assert "grid_points must be >= 2" in capsys.readouterr().err


def test_evaluate_memory_stays_bounded(tmp_path):
    # one-shot curves go channel by channel; transfer tables over this grid
    # would hold 2 x 16384 x 4 x 16 complex values (about 34 MB)
    config = BankConfig(channels=4, order=32, alpha=0.3, subsampling=[2, 2, 2, 2])
    design = tmp_path / "toy.yaml"
    save_design(
        BankDesign(
            half=initial_prototype(config).coeffs,
            channels=4,
            alpha=0.3,
            subsampling=config.subsampling,
            ripple_db=0.0,
            max_alias_db=0.0,
            outer_iterations=1,
            converged=False,
        ),
        str(design),
    )
    for what in ("error", "tall"):
        tracemalloc.start()
        try:
            code = main(["evaluate", str(design), "--what", what, "-o",
                         str(tmp_path / "x.csv"), "--grid", "16384"])
            peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak_mb < 16.0, (what, peak_mb)


def test_bifreq_grid_below_2_exits_2(flat_design, tmp_path, capsys):
    for flag, value in (("--grid-in", "-3"), ("--grid-out", "1"), ("--grid-in", "x")):
        code = main(["bifreq", flat_design, "-o", str(tmp_path / "b.csv"), flag, value])
        assert code == 2
        assert "argument %s" % flag in capsys.readouterr().err
    assert not (tmp_path / "b.csv").exists()


def test_bifreq_diagonal_support(flat_design, tmp_path):
    out = tmp_path / "b.csv"
    code = main(["bifreq", flat_design, "-o", str(out),
                 "--grid-in", "9", "--grid-out", "9"])
    assert code == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "omega_in,omega_out,mag_db"
    data = np.loadtxt(str(out), delimiter=",", skiprows=1)
    assert data.shape == (81, 3)
    diag = np.abs(data[:, 0] - data[:, 1]) < 1e-12
    # with no subsampling the map collapses to its diagonal
    assert np.all(data[~diag, 2] == -300.0)
    assert np.all(data[diag, 2] > -3.0)


def _write_sine(path, freq_hz=440.0, rate=16000, seconds=1.0, amp=0.5):
    n = np.arange(int(rate * seconds))
    write_wav(str(path), rate, amp * np.sin(2 * np.pi * freq_hz / rate * n))


def test_process_preserves_sine_level(toy_design, tmp_path):
    wav_in = tmp_path / "in.wav"
    wav_out = tmp_path / "out.wav"
    _write_sine(wav_in)
    assert main(["process", toy_design, str(wav_in), str(wav_out)]) == 0
    rate, x, _ = read_wav(str(wav_in))
    _, y, kind = read_wav(str(wav_out))
    assert rate == 16000
    assert kind == "int16"
    assert y.size == x.size
    # compare steady-state levels; the chain is allpass to within the ripple
    rms_x = np.sqrt(np.mean(x[4000:12000] ** 2))
    rms_y = np.sqrt(np.mean(y[4000:12000] ** 2))
    assert abs(20 * np.log10(rms_y / rms_x)) < 0.2


def test_process_mute_all_channels(toy_design, tmp_path):
    wav_in = tmp_path / "in.wav"
    wav_out = tmp_path / "out.wav"
    _write_sine(wav_in, seconds=0.2)
    code = main(["process", toy_design, str(wav_in), str(wav_out),
                 "--gains=-inf,-inf,-inf,-inf"])
    assert code == 0
    _, y, _ = read_wav(str(wav_out))
    assert_allclose(y, 0.0, atol=0)


def test_process_gain_count_mismatch_exits_2(toy_design, tmp_path):
    wav_in = tmp_path / "in.wav"
    _write_sine(wav_in, seconds=0.1)
    code = main(["process", toy_design, str(wav_in), str(tmp_path / "o.wav"),
                 "--gains", "0,0"])
    assert code == 2


def test_process_gain_parse_error_exits_2(toy_design, tmp_path):
    wav_in = tmp_path / "in.wav"
    _write_sine(wav_in, seconds=0.1)
    for gains in ("0,loud,0,0", "0,nan,0,0", "inf,0,0,0"):
        code = main(["process", toy_design, str(wav_in), str(tmp_path / "o.wav"),
                     "--gains", gains])
        assert code == 2


def test_process_empty_wav_exits_1(toy_design, tmp_path):
    wav_in = tmp_path / "in.wav"
    write_wav(str(wav_in), 16000, np.zeros(0))
    code = main(["process", toy_design, str(wav_in), str(tmp_path / "o.wav")])
    assert code == 1


def test_process_non_finite_wav_exits_2(toy_design, tmp_path, capsys):
    wav_in = tmp_path / "in.wav"
    x = np.zeros(400, dtype=np.float32)
    x[100] = np.nan
    write_wav(str(wav_in), 16000, x, "float32")
    code = main(["process", toy_design, str(wav_in), str(tmp_path / "o.wav")])
    assert code == 2
    assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "o.wav").exists()


def test_process_bad_sample_rate_exits_2(toy_design, tmp_path, capsys):
    design = tmp_path / "d.yaml"
    with open(toy_design) as fh:
        text = fh.read()
    assert "sample_rate_hz: 16000" in text
    design.write_text(text.replace("sample_rate_hz: 16000", "sample_rate_hz: fast"))
    wav_in = tmp_path / "in.wav"
    _write_sine(wav_in, rate=8000, seconds=0.1)
    code = main(["process", str(design), str(wav_in), str(tmp_path / "o.wav")])
    assert code == 2
    assert "sample_rate_hz" in capsys.readouterr().err
    assert not (tmp_path / "o.wav").exists()


def _nan_coefficient(data):
    half = data["prototype_half"]
    half[0] = float("nan")
    data["prototype"][len(half) - 1] = float("nan")


@pytest.mark.parametrize(
    "field, edit",
    [
        ("alpha", lambda d: d.update(alpha=1.5)),
        ("channels", lambda d: d.update(channels=4.9)),
        ("subsampling", lambda d: d["subsampling"].__setitem__(0, 0)),
        ("subsampling", lambda d: d["subsampling"].pop()),
        ("prototype", _nan_coefficient),
    ],
    ids=["alpha-unstable", "channels-fraction", "ratio-zero", "ratios-short",
         "nan-coefficient"],
)
def test_bad_design_file_exits_2(toy_design, tmp_path, capsys, field, edit):
    with open(toy_design) as fh:
        data = yaml.safe_load(fh)
    edit(data)
    design = tmp_path / "bad.yaml"
    design.write_text(yaml.safe_dump(data))
    wav_in = tmp_path / "in.wav"
    _write_sine(wav_in, seconds=0.1)
    outputs = [tmp_path / "o.wav", tmp_path / "o.csv"]
    for argv in (["process", str(design), str(wav_in), str(outputs[0])],
                 ["evaluate", str(design), "-o", str(outputs[1])]):
        assert main(argv) == 2
        assert field in capsys.readouterr().err
    assert not any(p.exists() for p in outputs)


def test_process_stereo_exits_2(toy_design, tmp_path):
    from scipy.io import wavfile

    wav_in = tmp_path / "in.wav"
    wavfile.write(str(wav_in), 16000, np.zeros((64, 2), dtype=np.int16))
    code = main(["process", toy_design, str(wav_in), str(tmp_path / "o.wav")])
    assert code == 2


def test_process_rate_mismatch_warns(toy_design, tmp_path, capsys):
    wav_in = tmp_path / "in.wav"
    _write_sine(wav_in, rate=8000, seconds=0.2)
    code = main(["process", toy_design, str(wav_in), str(tmp_path / "o.wav")])
    assert code == 0
    assert "warning" in capsys.readouterr().err


def test_process_format_override(toy_design, tmp_path):
    wav_in = tmp_path / "in.wav"
    _write_sine(wav_in, seconds=0.1)
    wav_out = tmp_path / "out.wav"
    code = main(["process", toy_design, str(wav_in), str(wav_out),
                 "--format", "float32"])
    assert code == 0
    _, _, kind = read_wav(str(wav_out))
    assert kind == "float32"


def test_usage_errors():
    assert main([]) == 2
    assert main(["frobnicate"]) == 2
    assert main(["design"]) == 2


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "subsample" in capsys.readouterr().out
