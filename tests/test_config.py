"""Config text parsing: the dataclasses are the key table, and every
invalid value is a ConfigError."""

from dataclasses import fields, is_dataclass

import pytest
from hypothesis import given, settings, strategies as st

from critifusion import vocab
from critifusion.agents import AgentEndpoint
from critifusion.cadr import CadrConfig
from critifusion.config import ConfigError, load_config, parse_kv
from critifusion.criticore import CommitteeConfig
from critifusion.pipeline import PipelineConfig


def to_text(config, endpoint=None) -> str:
    """``key = value`` lines for every field, nested configs as sections."""
    lines = []

    def emit(obj, prefix):
        for f in fields(obj):
            value = getattr(obj, f.name)
            if is_dataclass(value):
                emit(value, f"{prefix}{f.name}.")
                continue
            if isinstance(value, bool):
                value = str(value).lower()
            elif isinstance(value, tuple):
                value = ",".join(str(v) for v in value)
            lines.append(f"{prefix}{f.name} = {value}")

    emit(config, "")
    if endpoint is not None:
        emit(endpoint, "agent.")
    return "\n".join(lines) + "\n"


# Small draws keep the round trip quick: a config builds its two schedules,
# O(steps + cadr.t_max), when it is built.
def unit(lo=0.0, hi=1.0, **kw):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False, **kw)


committees = st.builds(
    CommitteeConfig,
    mode=st.sampled_from(["moa", "mad"]),
    agents=st.integers(1, 5),
    rounds=st.integers(1, 3),
    layer_widths=st.lists(st.integers(1, 5), min_size=1, max_size=3).map(tuple),
    k_edit=st.integers(0, 16),
    k_hints=st.integers(1, 16),
)
# lambda and rho: an endpoint and a span whose range stays in [0, 1].
unit_ranges = st.tuples(unit(), unit()).filter(lambda r: r[0] + r[1] <= 1.0)
cadrs = st.builds(
    lambda lam, rho, **kw: CadrConfig(
        lam_min=lam[0], lam_span=lam[1], rho_min=rho[0], rho_span=rho[1], **kw
    ),
    unit_ranges,
    unit_ranges,
    g_min=unit(0.0, 10.0),
    t_min=st.integers(1, 50),
    g_span=unit(0.0, 10.0),
    t_span=st.integers(0, 50),
    skip_threshold=unit(exclude_min=True),
)
# Only betas whose schedules build, so alpha_bar stays in (0, 1): from 1e-16,
# above the 2**-54 at which 1 - beta_start rounds to 1, up to 0.999, which
# leaves at least 0.001 ** 100 > 0 after the at most 100 steps that `steps`
# and `cadr.t_max` reach here.
betas = st.lists(unit(1e-16, 0.999), min_size=2, max_size=2).map(sorted)
configs = st.builds(
    lambda b, **kw: PipelineConfig(beta_start=b[0], beta_end=b[1], **kw),
    betas,
    prompt=st.lists(st.sampled_from(vocab.CANONICAL_NAMES), max_size=5).map(" ".join),
    channels=st.integers(1, 8),
    height=st.integers(16, 64),
    width=st.integers(16, 64),
    gamma=unit(1e-3, 10.0),
    steps=st.integers(1, 100),
    sampler=st.sampled_from(["ddim", "ddpm"]),
    refine_mode=st.sampled_from(["img2img", "blend"]),
    seed=st.integers(0, 2**64 - 1),
    budget=st.integers(1, 200),
    taper=unit(0.0, 0.5),
    clamp=st.booleans(),
    committee=committees,
    cadr=cadrs,
    agent_backend=st.sampled_from(["mock", "http"]),
    degrade=st.sampled_from(["abort", "allow"]),
)
endpoints = st.builds(
    AgentEndpoint,
    base_url=st.sampled_from(["http://127.0.0.1:8080", "https://agents.example/v1"]),
    model_id=st.text("abcxyz0123-_./", min_size=1, max_size=12),
    timeout=unit(1e-3, 100.0),
    max_retries=st.integers(0, 5),
    backoff=unit(0.0, 5.0),
)


@given(configs, endpoints)
@settings(max_examples=100, deadline=None)
def test_text_round_trip(config, endpoint):
    if config.agent_backend != "http":
        endpoint = None
    assert load_config(to_text(config, endpoint)) == (config, endpoint)


def test_empty_text_gives_the_dataclass_defaults():
    assert load_config("") == (PipelineConfig(), None)


@given(st.text())
@settings(max_examples=300, deadline=None)
def test_parse_kv_raises_only_config_error(text):
    try:
        parsed = parse_kv(text)
    except ConfigError:
        return
    assert all(key and "=" not in key for key in parsed)


@pytest.mark.parametrize(
    "text, message",
    [
        ("steps = 1.5", "bad value for steps"),
        ("clamp = maybe", "bad value for clamp"),
        ("committee.layer_widths = 3,x", "bad value for committee.layer_widths"),
        ("agent.auth_env = OTHER", "unknown config keys"),
        ("agent_backend = http", "agent.base_url is required"),
        ("agent_backend = http\nagent.base_url = http://h\nagent.backoff = -1", "backoff"),
    ],
)
def test_rejections(text, message):
    with pytest.raises(ConfigError, match=message):
        load_config(text)
