"""Reading and writing bank configurations, finished designs, CSV and WAV."""

import dataclasses
import numbers
import os
import struct

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
# what a design file holds beside its config's keys
_DESIGN_KEYS = ("prototype_half", "prototype", "metrics")


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
    # libyaml's safe loader, where pyyaml has it, builds the same values as
    # the pure-Python one (same constructor and resolver) about 7x faster
    loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    try:
        with open(path, encoding="utf-8") as fh:
            data = yaml.load(fh, Loader=loader)
    except OSError as exc:
        raise ConfigError(str(exc)) from exc
    except UnicodeDecodeError as exc:
        raise ConfigError("%s is not UTF-8 text: %s" % (path, exc)) from exc
    except yaml.YAMLError as exc:
        raise ConfigError("cannot parse %s: %s" % (path, exc)) from exc
    if not isinstance(data, dict):
        raise ConfigError("%s: expected a mapping at top level" % path)
    return data


def _parse_config(path, data, design=False):
    """The BankConfig of a YAML mapping's _CONFIG_KEYS.

    A config file may give subsampling as "auto" or leave it out; a design
    file must list its ratios, and must also hold _DESIGN_KEYS.
    """
    extra = _DESIGN_KEYS if design else ()
    unknown = sorted(set(data) - set(_CONFIG_KEYS) - set(extra))
    if unknown:
        raise ConfigError("%s: unknown keys %s" % (path, ", ".join(unknown)))
    required = _REQUIRED_KEYS + (["subsampling", *extra] if design else [])
    missing = [k for k in required if k not in data]
    if missing:
        raise ConfigError("%s: missing keys %s" % (path, ", ".join(missing)))
    kwargs = {k: data[k] for k in _CONFIG_KEYS if k in data}
    # subsampling defaults to automatic selection when a config omits it
    sub = kwargs.pop("subsampling", "auto")
    if isinstance(sub, str) and (design or sub != "auto"):
        raise ConfigError("%s: subsampling must be a list%s"
                          % (path, "" if design else " or \"auto\""))
    try:
        config = BankConfig(**kwargs, subsampling=None if sub == "auto" else sub)
        if sub == "auto":
            config.subsampling = select_all(config.channels, config.alpha)
        return config
    except (TypeError, ValueError) as exc:
        raise ConfigError("%s: %s" % (path, exc)) from exc


def _config_data(config):
    """The YAML mapping of a config: every setting, sample_rate_hz if set."""
    return {k: v for k, v in dataclasses.asdict(config).items() if v is not None}


def _dump(data, path):
    with open(path, "w") as fh:
        yaml.safe_dump(_plain(data), fh, sort_keys=True)


def load_config(path):
    """Read a bank configuration from a YAML file.

    Unlisted optional keys take their defaults; subsampling accepts an
    explicit ratio list or the string "auto", which selects the largest
    alias-free ratio per channel from the warped band edges.
    """
    return _parse_config(path, _load_yaml(path))


def save_config(config, path):
    """Write a configuration as YAML; load_config(save_config(c)) == c."""
    _dump(_config_data(config), path)


def save_design(design, path):
    """Write a finished design as YAML: its config's keys, as save_config
    writes them, plus prototype_half, prototype and metrics."""
    data = _config_data(design.config)
    data.update(
        prototype_half=design.half,
        prototype=design.prototype(),
        metrics={
            "ripple_db": design.ripple_db,
            "max_alias_db": design.max_alias_db,
            "outer_iterations": design.outer_iterations,
            "converged": design.converged,
        },
    )
    _dump(data, path)


def load_design(path):
    """Read a design file back into a BankDesign.

    The config keys go through load_config's parser, except that the ratios
    must be listed; settings the file does not hold take their defaults, so
    a file that records only the geometry loads with the default grid.
    """
    data = _load_yaml(path)
    config = _parse_config(path, data, design=True)
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
    try:
        for key in ("ripple_db", "max_alias_db"):
            value = metrics[key]
            real = isinstance(value, numbers.Real) and not isinstance(value, bool)
            if not (real and np.isfinite(value)):
                raise ValueError("%s must be a finite number, got %r" % (key, value))
        design = BankDesign(
            half=half,
            config=config,
            ripple_db=float(metrics["ripple_db"]),
            max_alias_db=float(metrics["max_alias_db"]),
            outer_iterations=metrics["outer_iterations"],
            converged=metrics["converged"],
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError("%s: %s" % (path, exc)) from exc
    # the half is finite here, so a NaN or inf in the full prototype fails
    scale = max(np.abs(half).max(), 1.0)
    if full.shape != (design.order,) or not np.allclose(
        full, design.prototype(), rtol=0.0, atol=1e-9 * scale
    ):
        raise ConfigError("%s: prototype is not the mirrored half" % path)
    return design


# rows of a CSV file formatted by one % on the repeated row template
_CSV_ROWS = 4096


def _block_texts(values):
    """Each row's %.9g text of a real block with at most half its rows
    distinct, formatting each distinct float64 bit pattern once; None for
    any other block."""
    if values.dtype.kind not in "biuf":
        return None
    bits, codes = np.unique(np.asarray(values, dtype=np.float64).view(np.uint64),
                            return_inverse=True)
    if 2 * bits.size > values.size:
        return None
    texts = ("%.9g," * bits.size % tuple(bits.view(np.float64).tolist())).split(",")
    return np.array(texts[:-1], dtype=object)[codes]


def write_csv(path, header, columns):
    """Write numeric columns as CSV with %.9g formatting.

    Rows go out in blocks of _CSV_ROWS, each formatted by one % on the row
    template repeated, so memory stays bounded for large maps.  %g formats
    an int as the float it converts to, so int columns stacked with float
    ones print as they do alone.

    Within a block, a real column with at most half its rows distinct,
    counted by float64 bit pattern (so -0.0 and 0.0, or NaNs of two
    payloads, stay apart), is formatted once per distinct value and written
    through %s; any other column keeps %.9g.  The bytes are the same either
    way.  Half is where the distinct route stops paying: on a 4096-row
    block of dB values it took 0.68 of the time of %.9g at a quarter
    distinct, 0.98 at half and 1.16 at 0.7.  Only one block's texts are
    held at a time.  A bifrequency map's grid columns (16 and 256 values a
    block at 256x256) and its magnitudes (about 38 % distinct, the -300 dB
    floor repeating) take the distinct route.
    """
    columns = [np.atleast_1d(np.asarray(c)) for c in columns]
    if len(columns) != len(header):
        raise ValueError("one header entry per column required")
    n = columns[0].size
    if any(c.size != n for c in columns):
        raise ValueError("columns must share a length")
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for first in range(0, n, _CSV_ROWS):
            parts = [c[first : first + _CSV_ROWS] for c in columns]
            texts = [_block_texts(part) for part in parts]
            row = ",".join("%.9g" if t is None else "%s" for t in texts) + "\n"
            block = np.empty((parts[0].size, len(parts)), dtype=object)
            for j, (part, t) in enumerate(zip(parts, texts)):
                block[:, j] = part if t is None else t
            fh.write((row * block.shape[0]) % tuple(block.ravel().tolist()))


# samples per block when a WAV file is checked, read or written by blocks;
# any size works (BankStream.push takes pieces of any length), it only
# bounds the memory of one block
WAV_BLOCK = 8192
_WAV_TYPES = {"int16": np.dtype("<i2"), "float32": np.dtype("<f4")}


def open_wav(path):
    """Open a mono int16 or float32 WAV file for reading by blocks.

    Returns (rate, data, kind): data is a memory map of the samples in the
    file's own format, and kind is "int16" or "float32".  Float files holding
    NaN or inf are rejected; they are checked a block at a time, so no whole
    copy of the samples is made.
    """
    try:
        rate, data = wavfile.read(path, mmap=True)
    except (OSError, ValueError) as exc:
        raise ConfigError("%s: %s" % (path, exc)) from exc
    if data.ndim != 1:
        raise ConfigError("%s: only mono WAV input is supported" % path)
    if data.dtype == np.int16:
        return rate, data, "int16"
    if data.dtype == np.float32:
        for first in range(0, data.size, WAV_BLOCK):
            if not np.all(np.isfinite(data[first : first + WAV_BLOCK])):
                raise ConfigError("%s: samples must be finite (found NaN or inf)" % path)
        return rate, data, "float32"
    raise ConfigError("%s: unsupported sample format %s" % (path, data.dtype))


def wav_samples(data, kind):
    """Float samples in [-1, 1] of WAV data of the given kind, as from
    open_wav, or any slice of it."""
    samples = np.array(data, dtype=float)
    if kind == "int16":
        samples /= 32768.0
    return samples


def read_wav(path):
    """Read a mono WAV file.

    Returns (rate, samples, kind) with float samples in [-1, 1] and kind one
    of "int16" / "float32", so a processed file can be written back in the
    format it arrived in.  Float files holding NaN or inf are rejected.
    """
    rate, data, kind = open_wav(path)
    return rate, wav_samples(data, kind), kind


def _wav_header(rate, count, dtype):
    """The header scipy.io.wavfile.write puts before count mono samples of
    dtype: RIFF, or RF64 past 4 GiB, and a fact chunk for float data."""
    width = dtype.itemsize
    floating = dtype.kind == "f"
    fmt = struct.pack("<HHIIHH", 3 if floating else 1, 1, rate, rate * width, width, 8 * width)
    if floating:
        fmt += b"\x00\x00"  # cbSize of a non-PCM format
    fact = struct.pack("<4sII", b"fact", 4, count) if floating else b""
    nbytes = count * width
    total = 28 + len(fmt) + len(fact) + nbytes
    # scipy sizes the file without the fact chunk to choose RF64
    if 20 + len(fmt) + nbytes <= 0xFFFFFFFF:
        head = struct.pack("<4sI4s", b"RIFF", total - 8, b"WAVE")
    else:
        head = struct.pack("<4sI4s4sIQQQI", b"RF64", 0xFFFFFFFF, b"WAVE", b"ds64", 28,
                           total + 36 - 8, nbytes, count, 0)
    head += struct.pack("<4sI", b"fmt ", len(fmt)) + fmt + fact
    return head + struct.pack("<4sI", b"data", min(nbytes, 0xFFFFFFFF))


class WavWriter:
    """A mono WAV file of count samples, written a block at a time.

    The header goes out first, so the file is byte for byte what
    scipy.io.wavfile.write makes of the whole signal.  write() takes float
    samples; int16 output clips to the representable range, and clipped
    sums the samples that clipped (always 0 for float32).  Used as a context
    manager, the writer closes the file on exit and removes it if the block
    raised or fewer than count samples came.
    """

    def __init__(self, path, rate, count, kind="int16"):
        if kind not in _WAV_TYPES:
            raise ValueError("kind must be int16 or float32")
        self.path = path
        self.count = int(count)
        self.kind = kind
        self.written = 0
        self.clipped = 0
        self._fh = open(path, "wb")
        self._fh.write(_wav_header(int(rate), self.count, _WAV_TYPES[kind]))

    def write(self, samples):
        """Append float samples, adding the ones that clip to clipped."""
        samples = np.asarray(samples, dtype=float)
        if self.written + samples.size > self.count:
            raise ValueError("more than the %d samples the header states" % self.count)
        if self.kind == "int16":
            levels = np.round(samples * 32768.0)
            self.clipped += int(np.count_nonzero((levels < -32768.0) | (levels > 32767.0)))
            samples = np.clip(levels, -32768.0, 32767.0, out=levels)
        self._fh.write(samples.astype(_WAV_TYPES[self.kind]).data)
        self.written += samples.size

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, traceback):
        self._fh.close()
        short = exc_type is None and self.written != self.count
        if exc_type is not None or short:
            os.remove(self.path)
        if short:
            raise ValueError("wrote %d of the %d samples the header states"
                             % (self.written, self.count))


def write_wav(path, rate, samples, kind="int16"):
    """Write float samples as a mono WAV file.

    int16 output clips to the representable range; returns the number of
    samples that clipped (always 0 for float32).
    """
    samples = np.asarray(samples, dtype=float)
    with WavWriter(path, rate, samples.size, kind) as out:
        out.write(samples)
    return out.clipped
