"""Plain key=value configuration with section prefixes.

A config file is UTF-8 text, one ``section.key = value`` (or bare
``key = value``) per line; ``#`` starts a comment.  The keys, their types,
their defaults and their rules are the fields of the config dataclasses,
so a run needs nothing beyond a prompt:

    bare keys      PipelineConfig  (critifusion.pipeline)
    committee.*    CommitteeConfig (critifusion.criticore)
    cadr.*         CadrConfig      (critifusion.cadr)
    agent.*        AgentEndpoint   (critifusion.agents), read only when
                   agent_backend = http

Booleans accept true/false, yes/no and 1/0; tuples are comma-separated
integers (``committee.layer_widths = 3,3``).
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass
from typing import get_type_hints

from .agents import AgentEndpoint
from .pipeline import PipelineConfig


class ConfigError(ValueError):
    pass


_BOOL = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}

_CASTS = {
    str: str,
    int: int,
    float: float,
    bool: lambda raw: _BOOL[raw.lower()],
    tuple: lambda raw: tuple(int(part) for part in raw.split(",") if part.strip()),
}


def parse_kv(text: str) -> dict:
    """Flat dict of dotted keys -> raw string values."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        out[key] = value.strip()
    return out


def _take(cls, kv: dict, prefix: str = "") -> dict:
    """Pop and cast the keys of ``cls``'s fields: its constructor kwargs.

    Keys absent from ``kv`` are left to the field defaults.  A field whose
    type is itself a dataclass is built from the keys under its own name
    as section prefix (``committee.k_edit``).
    """
    types = get_type_hints(cls)
    kwargs = {}
    for f in fields(cls):
        kind = types[f.name]
        if is_dataclass(kind):
            section = f"{prefix}{f.name}."
            kwargs[f.name] = _build(kind, _take(kind, kv, section), section)
            continue
        key = prefix + f.name
        if key not in kv:
            continue
        cast, raw = _CASTS[kind], kv.pop(key)
        try:
            kwargs[f.name] = cast(raw)
        except (ValueError, KeyError) as exc:
            raise ConfigError(f"bad value for {key}: {raw!r}") from exc
    return kwargs


def _build(cls, kwargs: dict, prefix: str):
    """``cls(**kwargs)``, a rejection raised as a ConfigError under its key.

    Every config dataclass starts a rejection with the name of the field
    at fault, so the section prefix turns it into the key the user wrote
    (``cadr.t_min must be >= 1``).
    """
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{prefix}{exc}") from exc


def load_config(
    text: str, overrides: dict | None = None
) -> tuple[PipelineConfig, AgentEndpoint | None]:
    """Parse config text plus CLI overrides.

    Returns (PipelineConfig, AgentEndpoint | None); the endpoint is only
    populated when agent_backend = http.  Every invalid value, including
    one the dataclasses reject when built, raises ConfigError.
    """
    kv = parse_kv(text)
    if overrides:
        kv.update({k: str(v) for k, v in overrides.items()})

    config = _build(PipelineConfig, _take(PipelineConfig, kv), "")
    # Endpoint keys are consumed even for the mock backend so they never
    # count as unknown.
    agent = _take(AgentEndpoint, kv, "agent.")
    if kv:
        raise ConfigError(f"unknown config keys: {sorted(kv)}")
    if config.agent_backend != "http":
        return config, None
    if "base_url" not in agent:
        raise ConfigError("agent.base_url is required when agent_backend = http")
    return config, _build(AgentEndpoint, agent, "agent.")
