import dataclasses
import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_equal
from pytest import raises as assert_raises

from warpbank import (
    BankConfig,
    BankDesign,
    ConfigError,
    design,
    load_config,
    load_design,
    read_wav,
    save_config,
    save_design,
    select_all,
    write_csv,
    write_wav,
)


def _write(path, text):
    path.write_text(text)
    return str(path)


def test_config_roundtrip_is_a_fixpoint(tmp_path):
    config = BankConfig(
        channels=4, order=32, alpha=0.5783, subsampling=[2, 1, 1, 2],
        sample_rate_hz=16000,
    )
    p1 = tmp_path / "a.yaml"
    p2 = tmp_path / "b.yaml"
    save_config(config, str(p1))
    loaded = load_config(str(p1))
    save_config(loaded, str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    assert loaded.channels == 4
    assert loaded.order == 32
    assert loaded.alpha == 0.5783
    assert_equal(loaded.subsampling, [2, 1, 1, 2])
    assert loaded.sample_rate_hz == 16000


def test_config_minimal_file_selects_ratios(tmp_path):
    path = _write(tmp_path / "min.yaml", "channels: 4\norder: 32\nalpha: 0.0\n")
    config = load_config(path)
    assert_equal(config.subsampling, select_all(4, 0.0))
    assert config.grid_points == max(8 * 32, 1024)
    assert config.theta == 1.2
    assert config.psi == 0.6


def test_config_auto_subsampling_string(tmp_path):
    path = _write(
        tmp_path / "auto.yaml",
        "channels: 4\norder: 32\nalpha: 0.0\nsubsampling: auto\n",
    )
    assert_equal(load_config(path).subsampling, [2, 1, 1, 2])


def test_config_rejects_unknown_key(tmp_path):
    path = _write(
        tmp_path / "bad.yaml", "channels: 4\norder: 32\nalpha: 0.0\nchannles: 3\n"
    )
    assert_raises(ConfigError, load_config, path)


def test_config_rejects_missing_required(tmp_path):
    path = _write(tmp_path / "bad.yaml", "channels: 4\norder: 32\n")
    assert_raises(ConfigError, load_config, path)


def test_config_rejects_bad_subsampling_string(tmp_path):
    path = _write(
        tmp_path / "bad.yaml",
        "channels: 4\norder: 32\nalpha: 0.0\nsubsampling: fast\n",
    )
    assert_raises(ConfigError, load_config, path)


def test_config_rejects_malformed_yaml(tmp_path):
    assert_raises(ConfigError, load_config, _write(tmp_path / "a.yaml", "a: [1,\n"))
    assert_raises(ConfigError, load_config, _write(tmp_path / "b.yaml", "- 1\n- 2\n"))
    assert_raises(ConfigError, load_config, str(tmp_path / "missing.yaml"))


@st.composite
def _valid_banks(draw):
    """Bank geometry (channels, order, alpha, ratios) plus an optional rate."""
    channels = draw(st.integers(1, 6))
    order = 2 * channels * draw(st.integers(1, 3))
    alpha = draw(st.floats(-0.99, 0.99, allow_subnormal=False))
    ratios = draw(st.lists(st.integers(1, 40), min_size=channels, max_size=channels))
    rate = draw(st.none() | st.integers(1, 192000) | st.floats(1.0, 1e6))
    return channels, order, alpha, ratios, rate


_finite = st.floats(-1e3, 1e3, allow_subnormal=False)


def _roundtrip_is_fixpoint(obj, save, load):
    """save(obj), load it, save again: same bytes, same field values."""
    with tempfile.TemporaryDirectory() as root:
        p1, p2 = os.path.join(root, "a.yaml"), os.path.join(root, "b.yaml")
        save(obj, p1)
        loaded = load(p1)
        save(loaded, p2)
        with open(p1, "rb") as f1, open(p2, "rb") as f2:
            assert f1.read() == f2.read()
    for field in dataclasses.fields(obj):
        assert_equal(getattr(loaded, field.name), getattr(obj, field.name))


@settings(derandomize=True, deadline=None)
@given(_valid_banks(), st.none() | st.integers(2, 5000),
       st.tuples(_finite, _finite, _finite, _finite).map(np.abs),
       st.integers(1, 100), st.integers(1, 100))
def test_config_save_load_fixpoint(bank, grid, reals, max_inner, max_outer):
    channels, order, alpha, ratios, rate = bank
    theta, psi, kaiser_beta, step_tol = reals
    config = BankConfig(
        channels=channels, order=order, alpha=alpha, subsampling=ratios,
        grid_points=grid, sample_rate_hz=rate, theta=theta, psi=psi,
        kaiser_beta=kaiser_beta, max_inner=max_inner, max_outer=max_outer,
        step_tol=step_tol,
    )
    _roundtrip_is_fixpoint(config, save_config, load_config)


@settings(derandomize=True, deadline=None)
@given(_valid_banks(), st.data(), _finite, _finite, st.integers(0, 100),
       st.booleans())
def test_design_save_load_fixpoint(bank, data, ripple, alias, outer, converged):
    channels, order, alpha, ratios, rate = bank
    half = data.draw(st.lists(_finite, min_size=order // 2, max_size=order // 2))
    design = BankDesign(half, channels, alpha, ratios, ripple, alias, outer,
                        converged, rate)
    _roundtrip_is_fixpoint(design, save_design, load_design)


def test_design_roundtrip(tmp_path):
    config = BankConfig(channels=2, order=16, alpha=0.4, subsampling=[2, 2])
    bank, _ = design(config)
    p1 = tmp_path / "d1.yaml"
    p2 = tmp_path / "d2.yaml"
    save_design(bank, str(p1))
    loaded = load_design(str(p1))
    save_design(loaded, str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    assert_allclose(loaded.half, bank.half, atol=0)
    assert_equal(loaded.subsampling, bank.subsampling)
    assert loaded.ripple_db == bank.ripple_db
    assert loaded.max_alias_db == bank.max_alias_db
    assert loaded.outer_iterations == bank.outer_iterations
    assert loaded.converged == bank.converged


def test_design_file_validation(tmp_path):
    bank = BankDesign(np.arange(1, 5.0), 2, 0.3, [1, 1], -1.0, -100.0, 1, True)
    path = tmp_path / "d.yaml"
    save_design(bank, str(path))
    text = path.read_text()

    broken = text.replace("order: 8", "order: 12")
    assert_raises(ConfigError, load_design, _write(tmp_path / "e1.yaml", broken))

    # corrupt one mirrored coefficient
    broken = text.replace("- 4.0", "- 4.5", 1)
    assert_raises(ConfigError, load_design, _write(tmp_path / "e2.yaml", broken))

    broken = text.replace("metrics:", "metrics_x:")
    assert_raises(ConfigError, load_design, _write(tmp_path / "e3.yaml", broken))

    broken = text.replace("  ripple_db:", "  ripple_x:")
    assert_raises(ConfigError, load_design, _write(tmp_path / "e4.yaml", broken))

    assert "  converged: true" in text and "  outer_iterations: 1" in text
    broken = text.replace("  converged: true", "  converged: maybe")
    with assert_raises(ConfigError, match="converged"):
        load_design(_write(tmp_path / "e5.yaml", broken))

    broken = text.replace("  outer_iterations: 1", "  outer_iterations: 2.7")
    with assert_raises(ConfigError, match="outer_iterations"):
        load_design(_write(tmp_path / "e6.yaml", broken))


def test_write_csv(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(str(path), ["x", "y"], [np.array([0.0, 0.5]), np.array([1.0, 1e-12])])
    lines = path.read_text().splitlines()
    assert lines[0] == "x,y"
    assert lines[1] == "0,1"
    assert lines[2] == "0.5,1e-12"
    assert_raises(ValueError, write_csv, str(path), ["x"], [np.zeros(2), np.zeros(2)])
    assert_raises(ValueError, write_csv, str(path), ["x", "y"],
                  [np.zeros(2), np.zeros(3)])


def test_write_csv_deterministic(tmp_path):
    rng = np.random.default_rng(157)
    cols = [rng.standard_normal(20), rng.standard_normal(20)]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(str(p1), ["u", "v"], cols)
    write_csv(str(p2), ["u", "v"], cols)
    assert p1.read_bytes() == p2.read_bytes()


def test_wav_int16_roundtrip(tmp_path):
    path = str(tmp_path / "t.wav")
    x = np.sin(2 * np.pi * 440 / 16000 * np.arange(1600)) * 0.5
    write_wav(path, 16000, x, "int16")
    rate, y, kind = read_wav(path)
    assert rate == 16000
    assert kind == "int16"
    assert_allclose(y, x, atol=1.0 / 32768.0)


def test_wav_float32_roundtrip(tmp_path):
    path = str(tmp_path / "t.wav")
    x = np.linspace(-1.2, 1.2, 64)
    write_wav(path, 8000, x, "float32")
    rate, y, kind = read_wav(path)
    assert rate == 8000
    assert kind == "float32"
    assert_allclose(y, x, atol=1e-7)


def test_wav_int16_clips(tmp_path):
    path = str(tmp_path / "t.wav")
    write_wav(path, 8000, np.array([2.0, -2.0, 0.0]), "int16")
    _, y, _ = read_wav(path)
    assert_allclose(y, [32767.0 / 32768.0, -1.0, 0.0], atol=0)


def test_wav_rejects_bad_input(tmp_path):
    path = str(tmp_path / "t.wav")
    from scipy.io import wavfile

    wavfile.write(path, 8000, np.zeros((16, 2), dtype=np.int16))
    assert_raises(ConfigError, read_wav, path)
    wavfile.write(path, 8000, np.zeros(16, dtype=np.int32))
    assert_raises(ConfigError, read_wav, path)
    assert_raises(ConfigError, read_wav, str(tmp_path / "missing.wav"))
    assert_raises(ValueError, write_wav, path, 8000, np.zeros(4), "int8")


def test_wav_rejects_non_finite_float_samples(tmp_path):
    path = str(tmp_path / "t.wav")
    for bad in (np.nan, np.inf, -np.inf):
        x = np.zeros(16, dtype=np.float32)
        x[5] = bad
        write_wav(path, 8000, x, "float32")
        with assert_raises(ConfigError, match="finite"):
            read_wav(path)
