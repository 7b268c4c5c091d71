import time

import pytest
import yaml
from hypothesis import settings

import warpbank as wb

# every property test replays one fixed example sequence and has no deadline
settings.register_profile("warpbank", derandomize=True, deadline=None)
settings.load_profile("warpbank")

# warp coefficient approximating the auditory band scale at 16 kHz
BARK_ALPHA_16K = 0.5783


@pytest.fixture(scope="session")
def flagship():
    """22-channel warped design with rule-selected ratios, timed.

    Shared by the acceptance tests (design quality, probe measurement,
    optimizer bookkeeping) so the optimization runs once per session.
    Returns (config, bank, report, design_seconds).
    """
    ratios = wb.select_all(22, BARK_ALPHA_16K)
    config = wb.BankConfig(
        channels=22,
        order=176,
        alpha=BARK_ALPHA_16K,
        subsampling=ratios,
        sample_rate_hz=16000,
    )
    t0 = time.perf_counter()
    bank, report = wb.design(config)
    elapsed = time.perf_counter() - t0
    return config, bank, report, elapsed


@pytest.fixture
def yaml_loaders():
    """The pure-Python safe loader and libyaml's, where pyyaml has it.  The
    readers in warpbank.files take whichever one yaml.CSafeLoader names."""
    return [yaml.SafeLoader, getattr(yaml, "CSafeLoader", yaml.SafeLoader)]
