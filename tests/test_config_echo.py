"""Provenance echoes read back: parse_config_echo inverts config_echo."""
import pytest

from swphase.gate import GateConfig
from swphase.io import config_echo, parse_config_echo
from swphase.trackers import ALGORITHMS, TrackerConfig

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

positive = st.floats(min_value=0.0, exclude_min=True, allow_nan=False,
                     allow_infinity=False)

tracker_configs = st.builds(
    TrackerConfig,
    algorithm=st.sampled_from(ALGORITHMS),
    phi_target_deg=st.none() | st.floats(min_value=0.0, max_value=360.0,
                                         exclude_max=True),
    k_pll=positive, k_pv=positive,
    maf_span=st.integers(min_value=1, max_value=10**6),
    at_threshold_uv=positive, sample_rate_hz=positive)

gate_configs = st.builds(
    GateConfig, positive, positive, positive, positive, positive,
    onoff_enabled=st.booleans())


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.one_of(tracker_configs, gate_configs))
def test_echo_reads_back_as_the_config(cfg):
    assert parse_config_echo(config_echo(cfg), type(cfg)()) == cfg
