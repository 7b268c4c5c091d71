import dataclasses
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal, assert_equal
from pytest import raises as assert_raises

from oracles import write_csv_rows
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
from warpbank import files


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


def test_config_rejects_malformed_yaml(tmp_path, monkeypatch, yaml_loaders):
    for loader in yaml_loaders:
        monkeypatch.setattr(yaml, "CSafeLoader", loader, raising=False)
        assert_raises(ConfigError, load_config, _write(tmp_path / "a.yaml", "a: [1,\n"))
        assert_raises(ConfigError, load_config, _write(tmp_path / "b.yaml", "- 1\n- 2\n"))
        assert_raises(ConfigError, load_config, str(tmp_path / "missing.yaml"))


def test_design_file_loads_alike_under_both_yaml_loaders(monkeypatch, yaml_loaders):
    path = Path(__file__).parents[1] / "bench" / "bark22_design.yaml"
    loaded = []
    for loader in yaml_loaders:
        monkeypatch.setattr(yaml, "CSafeLoader", loader, raising=False)
        loaded.append(load_design(path))
    python, libyaml = loaded
    assert_array_equal(libyaml.half, python.half)
    _assert_fields_equal(libyaml.config, python.config)
    for name in ("ripple_db", "max_alias_db", "outer_iterations", "converged"):
        assert getattr(libyaml, name) == getattr(python, name), name
    # the file records only the geometry and the rate, so every other
    # setting is its default, the grid max(8*176, 1024) included
    config = python.config
    assert config.grid_points == 1408
    _assert_fields_equal(config, BankConfig(channels=22, order=176, alpha=0.5783,
                                            subsampling=config.subsampling,
                                            sample_rate_hz=16000))


_finite = st.floats(-1e3, 1e3, allow_subnormal=False)


@st.composite
def _configs(draw):
    """A BankConfig with every setting drawn: geometry, an optional rate, an
    optional grid (None takes the default) and the optimizer's settings."""
    channels = draw(st.integers(1, 6))
    order = 2 * channels * draw(st.integers(1, 3))
    theta, psi, kaiser_beta, step_tol = np.abs(draw(st.tuples(*[_finite] * 4)))
    return BankConfig(
        channels=channels, order=order,
        alpha=draw(st.floats(-0.99, 0.99, allow_subnormal=False)),
        subsampling=draw(st.lists(st.integers(1, 40), min_size=channels, max_size=channels)),
        grid_points=draw(st.none() | st.integers(2, 5000)),
        sample_rate_hz=draw(st.none() | st.integers(1, 192000) | st.floats(1.0, 1e6)),
        theta=theta, psi=psi, kaiser_beta=kaiser_beta,
        max_inner=draw(st.integers(1, 100)), max_outer=draw(st.integers(1, 100)),
        step_tol=step_tol,
    )


def _assert_fields_equal(got, want):
    """Equal field by field, into nested dataclasses such as a design's config."""
    for field in dataclasses.fields(want):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if dataclasses.is_dataclass(b):
            _assert_fields_equal(a, b)
        else:
            assert_equal(a, b)


def _roundtrip_is_fixpoint(obj, save, load):
    """save(obj), load it, save again: same bytes, same field values."""
    with tempfile.TemporaryDirectory() as root:
        p1, p2 = os.path.join(root, "a.yaml"), os.path.join(root, "b.yaml")
        save(obj, p1)
        loaded = load(p1)
        save(loaded, p2)
        with open(p1, "rb") as f1, open(p2, "rb") as f2:
            assert f1.read() == f2.read()
    _assert_fields_equal(loaded, obj)


@given(_configs())
def test_config_save_load_fixpoint(config):
    _roundtrip_is_fixpoint(config, save_config, load_config)


@given(_configs(), st.data(), _finite, _finite, st.integers(0, 100),
       st.booleans())
def test_design_save_load_fixpoint(config, data, ripple, alias, outer, converged):
    size = config.order // 2
    half = data.draw(st.lists(_finite, min_size=size, max_size=size))
    design = BankDesign(half, config, ripple, alias, outer, converged)
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
    config = BankConfig(channels=2, order=8, alpha=0.3, subsampling=[1, 1])
    bank = BankDesign(np.arange(1, 5.0), config, -1.0, -100.0, 1, True)
    # a half of the right size that is not 1-D
    with assert_raises(ValueError, match="1-D"):
        BankDesign(np.ones((2, 2)), config, 0.0, -300.0, 0, True)
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


def _bits(values):
    return np.array(values, dtype=np.uint64).view(np.float64)


# values whose %.9g text is easy to get wrong when formatted once and
# reused: signed zeros, NaNs of two payloads and a negative one, both
# infinities, subnormals, and neighbours that print alike
_SPECIAL = np.concatenate([
    [0.0, -0.0, np.inf, -np.inf, 5e-324, -2.5e-320, 2.2250738585072009e-308],
    _bits([0x7FF8000000000001, 0x7FF8000000000002, 0xFFF8000000000000]),
    [1.0, np.nextafter(1.0, 2.0), 0.1, 1e16, -1e300],
])


def _csv_matches_rows(path, header, cols):
    write_csv(str(path), header, cols)
    want = path.with_suffix(".want")
    write_csv_rows(str(want), header, cols)
    return path.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("rows", [0, 1, 2, 5, 6, 7, 12, 13, 30])
def test_write_csv_blocks_match_row_writer(tmp_path, monkeypatch, rows):
    # blocks of 6 rows: none, a part block, one block less or more a row,
    # ragged; each column kind, formatted once per distinct value or once
    # per row, alone and beside each other kind
    monkeypatch.setattr(files, "_CSV_ROWS", 6)
    rng = np.random.default_rng(rows)
    cols = {
        "ints": np.arange(rows) * (2**58 + 1) - 3,  # past 2**53, so %g rounds them
        "floats": rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows),
        "mixed": np.resize([-0.0, 1e300, -2.5e-320, 123456789012, 0.1, -1, 7, 3e-7,
                            2**62, -1e-5, 1.5, 1e16, 2.0], rows),
        "flags": np.arange(rows) % 2 == 0,
        # +-0.0 in one block, +-inf in the next, NaNs of three payloads in
        # the third: two or three distinct values a block
        "repeats": np.resize(np.concatenate([
            [0.0, -0.0, -0.0, 0.0, 0.0, -0.0, np.inf, -np.inf, np.inf, -np.inf, -np.inf, np.inf],
            _bits([0x7FF8000000000001, 0x7FF8000000000002, 0xFFF8000000000000] * 2),
        ]), rows),
        "half": _SPECIAL[np.arange(rows) // 2 % _SPECIAL.size],  # 3 distinct a full block
        "specials": np.resize(_SPECIAL, rows),
        "repeated_ints": np.arange(rows) % 3 * (2**58 + 1) - 2**62,
    }
    # the route each block of each column takes: at most half its rows
    # distinct (exactly half included) formats once per value, any other
    # block once per row
    for name, col in cols.items():
        for first in range(0, rows, 6):
            part = col[first : first + 6]
            distinct = np.unique(part.astype(float).view(np.uint64)).size
            assert (files._block_texts(part) is not None) == (2 * distinct <= part.size), name
    for first in range(0, rows - 5, 6):
        for name in ("repeats", "half", "flags", "repeated_ints"):
            assert files._block_texts(cols[name][first : first + 6]) is not None, name
        for name in ("ints", "floats", "specials"):
            assert files._block_texts(cols[name][first : first + 6]) is None, name
    names = list(cols)
    for i, name in enumerate(names):
        for other in names[i:]:
            header = [name, other]
            assert _csv_matches_rows(tmp_path / "t.csv", header, [cols[name], cols[other]]), header
    assert _csv_matches_rows(tmp_path / "t.csv", names, list(cols.values()))
    assert len((tmp_path / "t.csv").read_text().splitlines()) == rows + 1


_column_values = (
    st.sampled_from(list(_SPECIAL))
    | st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
)


@st.composite
def _csv_columns(draw):
    """1-4 columns of 0-40 rows: floats from a pool of 1-8 values (often
    repeated) or drawn per row, ints past 2**53, or bools."""
    rows = draw(st.integers(0, 40))
    columns = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["pool", "floats", "ints", "bools"]))
        if kind == "pool":
            pool = draw(st.lists(_column_values, min_size=1, max_size=8))
            picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=rows, max_size=rows))
            columns.append(np.array(pool)[picks])
        elif kind == "floats":
            columns.append(np.array(draw(st.lists(_column_values, min_size=rows,
                                                  max_size=rows)), dtype=float))
        elif kind == "ints":
            pool = draw(st.lists(st.integers(-2**63, 2**63 - 1), min_size=1, max_size=8))
            columns.append(np.array(pool, dtype=np.int64)[np.arange(rows) % len(pool)])
        else:
            columns.append(np.array(draw(st.lists(st.booleans(), min_size=rows,
                                                  max_size=rows)), dtype=bool))
    return columns, draw(st.integers(1, 8))


@given(_csv_columns())
def test_write_csv_matches_row_writer_property(case):
    columns, block = case
    header = ["c%d" % i for i in range(len(columns))]
    with tempfile.TemporaryDirectory() as root, pytest.MonkeyPatch.context() as mp:
        mp.setattr(files, "_CSV_ROWS", block)
        assert _csv_matches_rows(Path(root) / "t.csv", header, columns)


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
    assert write_wav(path, 8000, np.array([2.0, -2.0, 0.0, 0.99998]), "int16") == 2
    _, y, _ = read_wav(path)
    assert_allclose(y, [32767.0 / 32768.0, -1.0, 0.0, 32767.0 / 32768.0], atol=0)
    assert write_wav(path, 8000, np.array([2.0]), "float32") == 0


@pytest.mark.parametrize("kind", ["int16", "float32"])
def test_block_wav_writer_matches_scipy(tmp_path, kind):
    # the header states the length up front, so a file written block by
    # block is byte for byte scipy's file of the whole signal
    from scipy.io import wavfile

    block = files.WAV_BLOCK
    rng = np.random.default_rng(181)
    for n in (1, block - 1, block, block + 1, 3 * block):
        x = rng.uniform(-1.2, 1.2, n)
        levels = np.round(x * 32768.0)
        clipped = np.count_nonzero((levels < -32768.0) | (levels > 32767.0))
        if kind == "int16":
            want = np.clip(levels, -32768.0, 32767.0).astype(np.int16)
        else:
            want, clipped = x.astype(np.float32), 0
        wavfile.write(tmp_path / "scipy.wav", 16000, want)
        with files.WavWriter(tmp_path / "blocks.wav", 16000, n, kind) as out:
            for first in range(0, n, block):
                out.write(x[first : first + block])
        assert out.clipped == clipped
        assert write_wav(tmp_path / "whole.wav", 16000, x, kind) == out.clipped
        scipy_bytes = (tmp_path / "scipy.wav").read_bytes()
        assert (tmp_path / "blocks.wav").read_bytes() == scipy_bytes, n
        assert (tmp_path / "whole.wav").read_bytes() == scipy_bytes, n


def test_block_wav_writer_removes_unfinished_file(tmp_path):
    path = tmp_path / "o.wav"
    with assert_raises(ValueError, match="wrote 3 of the 4"):
        with files.WavWriter(path, 8000, 4) as out:
            out.write(np.zeros(3))
    assert not path.exists()
    with assert_raises(ValueError, match="more than the 4"):
        with files.WavWriter(path, 8000, 4, "float32") as out:
            out.write(np.zeros(5))
    assert not path.exists()


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
