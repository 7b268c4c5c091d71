"""Reading and writing bank configurations, finished designs, CSV and WAV."""

import dataclasses

import numpy as np
import yaml
from scipy.io import wavfile

from .optimize import BankDesign
from .subsampling import select_all
from .transfer import BankConfig


class ConfigError(Exception):
    """Raised for malformed configuration or design files."""


_CONFIG_KEYS = tuple(f.name for f in dataclasses.fields(BankConfig))
_REQUIRED_KEYS = [f.name for f in dataclasses.fields(BankConfig)
                  if f.default is dataclasses.MISSING]


def _plain(value):
    """numpy scalars/arrays to yaml-representable python objects."""
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, np.ndarray):
        return [_plain(v) for v in value]
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


def _load_yaml(path):
    try:
        with open(path) as fh:
            data = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(str(exc)) from exc
    except yaml.YAMLError as exc:
        raise ConfigError("cannot parse %s: %s" % (path, exc)) from exc
    if not isinstance(data, dict):
        raise ConfigError("%s: expected a mapping at top level" % path)
    return data


def load_config(path):
    """Read a bank configuration from a YAML file.

    Unlisted optional keys take their defaults; subsampling accepts an
    explicit ratio list or the string "auto", which selects the largest
    alias-free ratio per channel from the warped band edges.
    """
    data = _load_yaml(path)
    unknown = sorted(set(data) - set(_CONFIG_KEYS))
    if unknown:
        raise ConfigError("%s: unknown keys %s" % (path, ", ".join(unknown)))
    missing = [k for k in _REQUIRED_KEYS if k not in data]
    if missing:
        raise ConfigError("%s: missing keys %s" % (path, ", ".join(missing)))
    kwargs = dict(data)
    # subsampling defaults to automatic selection when the file omits it
    sub = kwargs.pop("subsampling", "auto")
    if isinstance(sub, str) and sub != "auto":
        raise ConfigError("%s: subsampling must be a list or \"auto\"" % path)
    try:
        config = BankConfig(**kwargs, subsampling=None if sub == "auto" else sub)
        if sub == "auto":
            config.subsampling = select_all(config.channels, config.alpha)
        return config
    except (TypeError, ValueError) as exc:
        raise ConfigError("%s: %s" % (path, exc)) from exc


def save_config(config, path):
    """Write a configuration as YAML; load_config(save_config(c)) == c."""
    data = {k: v for k, v in dataclasses.asdict(config).items() if v is not None}
    with open(path, "w") as fh:
        yaml.safe_dump(_plain(data), fh, sort_keys=True)


def save_design(design, path):
    """Write a finished design (coefficients plus metrics) as YAML."""
    data = {
        "channels": design.channels,
        "order": design.order,
        "alpha": design.alpha,
        "subsampling": design.subsampling,
        "prototype_half": design.half,
        "prototype": design.prototype(),
        "metrics": {
            "ripple_db": design.ripple_db,
            "max_alias_db": design.max_alias_db,
            "outer_iterations": design.outer_iterations,
            "converged": design.converged,
        },
    }
    if design.sample_rate_hz is not None:
        data["sample_rate_hz"] = design.sample_rate_hz
    with open(path, "w") as fh:
        yaml.safe_dump(_plain(data), fh, sort_keys=True)


def load_design(path):
    """Read a design file back into a BankDesign."""
    data = _load_yaml(path)
    for key in ("channels", "order", "alpha", "subsampling", "prototype_half",
                "prototype", "metrics"):
        if key not in data:
            raise ConfigError("%s: missing key %s" % (path, key))
    metrics = data["metrics"]
    if not isinstance(metrics, dict):
        raise ConfigError("%s: metrics must be a mapping" % path)
    for key in ("ripple_db", "max_alias_db", "outer_iterations", "converged"):
        if key not in metrics:
            raise ConfigError("%s: missing metrics key %s" % (path, key))
    try:
        half = np.asarray(data["prototype_half"], dtype=float)
        full = np.asarray(data["prototype"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError("%s: bad coefficient data: %s" % (path, exc)) from exc
    if half.ndim != 1 or full.shape != (2 * half.size,):
        raise ConfigError("%s: prototype must be twice the half length" % path)
    if data["order"] != 2 * half.size:
        raise ConfigError("%s: coefficient count does not match order" % path)
    try:
        design = BankDesign(
            half=half,
            channels=data["channels"],
            alpha=data["alpha"],
            subsampling=data["subsampling"],
            ripple_db=float(metrics["ripple_db"]),
            max_alias_db=float(metrics["max_alias_db"]),
            outer_iterations=metrics["outer_iterations"],
            converged=metrics["converged"],
            sample_rate_hz=data.get("sample_rate_hz"),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError("%s: %s" % (path, exc)) from exc
    # the half is finite here, so a NaN or inf in the full prototype fails
    scale = max(np.abs(half).max(), 1.0)
    if not np.allclose(full, design.prototype(), rtol=0.0, atol=1e-9 * scale):
        raise ConfigError("%s: prototype is not the mirrored half" % path)
    return design


def write_csv(path, header, columns):
    """Write numeric columns as CSV with %.9g formatting."""
    columns = [np.atleast_1d(np.asarray(c)) for c in columns]
    if len(columns) != len(header):
        raise ValueError("one header entry per column required")
    n = columns[0].size
    if any(c.size != n for c in columns):
        raise ValueError("columns must share a length")
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(n):
            fh.write(",".join("%.9g" % c[i] for c in columns) + "\n")


def read_wav(path):
    """Read a mono WAV file.

    Returns (rate, samples, kind) with float samples in [-1, 1] and kind one
    of "int16" / "float32", so a processed file can be written back in the
    format it arrived in.  Float files holding NaN or inf are rejected.
    """
    try:
        rate, data = wavfile.read(path)
    except (OSError, ValueError) as exc:
        raise ConfigError("%s: %s" % (path, exc)) from exc
    if data.ndim != 1:
        raise ConfigError("%s: only mono WAV input is supported" % path)
    if data.dtype == np.int16:
        return rate, data.astype(float) / 32768.0, "int16"
    if data.dtype == np.float32:
        if not np.all(np.isfinite(data)):
            raise ConfigError("%s: samples must be finite (found NaN or inf)" % path)
        return rate, data.astype(float), "float32"
    raise ConfigError("%s: unsupported sample format %s" % (path, data.dtype))


def write_wav(path, rate, samples, kind="int16"):
    """Write float samples as a mono WAV file (int16 output clips)."""
    samples = np.asarray(samples, dtype=float)
    if kind == "int16":
        clipped = np.clip(samples, -1.0, 32767.0 / 32768.0)
        wavfile.write(path, int(rate), np.round(clipped * 32768.0).astype(np.int16))
    elif kind == "float32":
        wavfile.write(path, int(rate), samples.astype(np.float32))
    else:
        raise ValueError("kind must be int16 or float32")
