"""End-to-end orchestration, run provenance, and experiment harnesses."""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field, asdict, replace

from . import vocab
from .agents import AgentError, MockAgentBackend, mock_respond
from .basis import _check_toy_dims
from .cadr import CadrConfig, CadrParams, cadr_from_alignment
from .criticore import (
    Clause,
    CommitteeConfig,
    clauses_for,
    conditioning_from_prompt,
    decompose_clauses,
    make_prompt_bundle,
    merge_topk,
    moa_aggregate,
    run_mad,
    score_clauses,
    vlm_hints,
)
from .diffusion import (
    REFINE_MODES,
    SAMPLERS,
    base_sample,
    img2img_refine,
    make_schedule,
)
from .latents import LatentError, LatentField, VaeScale, _check_dims
from .latents import apply_vae_scale, latent_digest
from .spectral import TaperSpec, spec_fuse

CORRECTIVE_SEED_OFFSET = 999
STAGES = (
    "base_sample",
    "decode",
    "vlm_hints",
    "decompose_clauses",
    "aggregate",
    "score_clauses",
    "merge_topk",
    "cadr",
    "img2img_refine",
    "spec_fuse",
    "decode_final",
)
ABLATABLE = ("vlm", "multi_llm", "specfusion")


class PipelineError(Exception):
    pass


class SweepConfigError(PipelineError):
    pass


class StageFailure(PipelineError):
    """Carries the failed stage name and the partial run record."""

    def __init__(self, stage: str, record: "RunRecord", cause: Exception):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.record = record
        self.cause = cause


@dataclass(frozen=True)
class PipelineConfig:
    """Every knob of one run; an invalid value is rejected when built."""

    prompt: str = ""
    channels: int = 4
    height: int = 64
    width: int = 64
    gamma: float = 1.0  # toy decode scale; SD-class models use 0.18215 / 0.13025
    steps: int = 50
    beta_start: float = 1e-4
    beta_end: float = 0.02
    sampler: str = "ddim"
    refine_mode: str = "img2img"
    base_guidance: float = 0.0
    seed: int = 0
    budget: int = 77
    taper: float = 0.10
    clamp: bool = True
    committee: CommitteeConfig = field(default_factory=CommitteeConfig)
    cadr: CadrConfig = field(default_factory=CadrConfig)
    agent_backend: str = "mock"
    degrade: str = "abort"

    def __post_init__(self):
        for name, allowed in (
            ("sampler", SAMPLERS),
            ("refine_mode", REFINE_MODES),
            ("degrade", ("abort", "allow")),
            ("agent_backend", ("mock", "http")),
        ):
            value = getattr(self, name)
            if value not in allowed:
                raise ValueError(f"{name} must be one of {allowed}, got {value!r}")
        if self.budget < 1:
            raise ValueError(f"budget must be >= 1, got {self.budget}")
        if not (math.isfinite(self.base_guidance) and self.base_guidance >= 0):
            raise ValueError(
                f"base_guidance must be finite and >= 0, got {self.base_guidance}"
            )
        _check_dims(self.channels, self.height, self.width)
        _check_toy_dims(self.height, self.width)
        make_schedule(self.steps, self.beta_start, self.beta_end)
        VaeScale(self.gamma)
        TaperSpec(self.taper)

    def digest(self) -> str:
        payload = json.dumps(asdict(self), sort_keys=True, default=str)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass
class RunRecord:
    """Full provenance of one pipeline run; append-only while running."""

    config_digest: str = ""
    base_seed: int = 0
    corrective_seed: int = 0
    prompt: str = ""
    enhanced_tokens: list = field(default_factory=list)
    hints: list = field(default_factory=list)
    clause_scores: dict = field(default_factory=dict)
    mean_score: float | None = None
    cadr: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)
    alignment: dict = field(default_factory=dict)
    wall_clock: dict = field(default_factory=dict)
    transcript: list = field(default_factory=list)
    stages: list = field(default_factory=list)
    status: str = "running"
    failed_stage: str | None = None

    def to_dict(self) -> dict:
        out = {"kind": "run_record"}
        out.update(asdict(self))
        return out

    def to_json_line(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @staticmethod
    def from_dict(data: dict) -> "RunRecord":
        data = dict(data)
        data.pop("kind", None)
        return RunRecord(**data)


@dataclass(frozen=True)
class SweepTable:
    """Rows of (axis value, base score, final score, parameters used)."""

    axis: str
    rows: tuple

    def to_json_lines(self) -> list[str]:
        lines = []
        for row in self.rows:
            payload = {"kind": "sweep_row", "axis": self.axis}
            payload.update(row)
            lines.append(json.dumps(payload, sort_keys=True))
        return lines


class _MockFallbackBackend:
    """degrade=allow: a failing remote call falls back to the mock for that slot."""

    def __init__(self, inner):
        self._inner = inner
        self.degraded_calls = 0

    def respond(self, agent_id, request):
        try:
            return self._inner.respond(agent_id, request)
        except AgentError:
            self.degraded_calls += 1
            return mock_respond(agent_id, request)


class _RecordingBackend:
    """Delegates to the real backend and keeps an ordered transcript."""

    def __init__(self, inner, transcript: list, stage_holder: list):
        self._inner = inner
        self._transcript = transcript
        self._stage = stage_holder

    def respond(self, agent_id, request):
        resp = self._inner.respond(agent_id, request)
        self._transcript.append([agent_id, self._stage[0], resp.text])
        return resp


def _reorder_by_text(clauses: list[Clause], aggregated: str) -> list[Clause]:
    order = vocab.descriptor_indices(vocab.tokenize(aggregated))
    rank = {j: i for i, j in enumerate(order)}
    return sorted(clauses, key=lambda c: (rank.get(c.clause_id, len(rank)), c.clause_id))


def run_critifusion(
    config: PipelineConfig,
    backend=None,
    disable: frozenset = frozenset(),
    forced_k: int | None = None,
    forced_params: CadrParams | None = None,
    base_latent: LatentField | None = None,
):
    """Execute the full refinement pipeline.

    Returns (record, latents) where latents maps stage names
    ('z_base', 'z_ref', 'z_fused') to LatentField values.  Any stage error
    raises StageFailure carrying the partial record with a failure marker.
    A ``base_latent`` replaces the base sample and must have the config's
    (channels, height, width).
    """
    unknown = set(disable) - set(ABLATABLE)
    if unknown:
        raise SweepConfigError(f"unknown ablation components: {sorted(unknown)}")
    expected = (config.channels, config.height, config.width)
    if base_latent is not None and base_latent.shape != expected:
        raise LatentError(f"base latent shape {base_latent.shape} is not {expected}")
    if backend is None:
        backend = MockAgentBackend()
    elif config.degrade == "allow" and not isinstance(backend, MockAgentBackend):
        backend = _MockFallbackBackend(backend)

    record = RunRecord(
        config_digest=config.digest(),
        base_seed=config.seed,
        corrective_seed=config.seed + CORRECTIVE_SEED_OFFSET,
        prompt=config.prompt,
    )
    stage_holder = ["init"]
    recording = _RecordingBackend(backend, record.transcript, stage_holder)
    latents: dict[str, LatentField] = {}
    scale = VaeScale(config.gamma)
    sched = make_schedule(config.steps, config.beta_start, config.beta_end)
    bundle = make_prompt_bundle(config.prompt, config.budget)

    def stage(name: str, fn):
        stage_holder[0] = name
        start = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:
            record.status = "failed"
            record.failed_stage = name
            record.wall_clock[name] = time.perf_counter() - start
            raise StageFailure(name, record, exc) from exc
        record.wall_clock[name] = time.perf_counter() - start
        record.stages.append(name)
        return result

    z_base = stage(
        "base_sample",
        lambda: base_latent
        if base_latent is not None
        else base_sample(
            conditioning_from_prompt(bundle, config.base_guidance),
            sched,
            config.sampler,
            config.seed,
            config.channels,
            config.height,
            config.width,
        ),
    )
    latents["z_base"] = z_base
    record.digests["z_base"] = latent_digest(z_base)

    x_base = stage("decode", lambda: apply_vae_scale(z_base, scale, "decode"))

    if "vlm" in disable:
        hints = stage("vlm_hints", lambda: [])
    else:
        hints = stage(
            "vlm_hints",
            lambda: vlm_hints(x_base, bundle, k_hints=config.committee.k_hints),
        )
    record.hints = list(hints)

    if "multi_llm" in disable:
        clauses = stage(
            "decompose_clauses",
            lambda: clauses_for(vocab.descriptor_indices(bundle.tokens)),
        )
        stage("aggregate", lambda: None)
    else:
        clauses = stage(
            "decompose_clauses",
            lambda: decompose_clauses(bundle, hints, config.committee, recording),
        )
        instruction = " ".join(
            list(bundle.tokens) + vocab.tokenize(" ".join(hints))
        )
        if config.committee.mode == "moa":
            aggregated = stage(
                "aggregate",
                lambda: moa_aggregate(instruction, config.committee, recording),
            )
        else:
            aggregated = stage(
                "aggregate", lambda: run_mad(instruction, config.committee, recording)
            )
        clauses = _reorder_by_text(clauses, aggregated)

    report = stage(
        "score_clauses",
        lambda: score_clauses(
            clauses, x_base, hints=hints, transcript=tuple(record.transcript)
        ),
    )
    record.clause_scores = {str(c.clause_id): c.score for c in report.clauses}
    record.mean_score = report.mean_score
    record.alignment["base"] = report.mean_score

    enhanced = stage(
        "merge_topk",
        lambda: merge_topk(bundle, report.clauses, config.committee.k_edit),
    )
    record.enhanced_tokens = list(enhanced.tokens)

    if forced_params is not None:
        params = stage("cadr", lambda: forced_params)
    else:
        params = stage(
            "cadr", lambda: cadr_from_alignment(report.mean_score, config.cadr)
        )
    record.cadr = {
        "lam": params.lam,
        "g": params.g,
        "T_prime": params.T_prime,
        "rho": params.rho,
    }

    skip = params.T_prime == 0 or forced_k == 0
    if skip:
        z_ref = stage("img2img_refine", lambda: z_base)
        z_fused = stage("spec_fuse", lambda: z_base)
    else:
        cond_ref = conditioning_from_prompt(enhanced)
        z_ref = stage(
            "img2img_refine",
            lambda: img2img_refine(
                z_base,
                cond_ref,
                params,
                sched,
                config.seed,
                mode=config.refine_mode,
                forced_k=forced_k,
            ),
        )
        if "specfusion" in disable:
            z_fused = stage("spec_fuse", lambda: z_ref)
        else:
            z_fused = stage(
                "spec_fuse",
                lambda: spec_fuse(
                    z_ref, z_base, params.rho, TaperSpec(config.taper), config.clamp
                ),
            )
    latents["z_ref"] = z_ref
    latents["z_fused"] = z_fused
    record.digests["z_ref"] = latent_digest(z_ref)
    record.digests["z_fused"] = latent_digest(z_fused)

    x_final = stage("decode_final", lambda: apply_vae_scale(z_fused, scale, "decode"))
    final_report = score_clauses(report.clauses, x_final)
    record.alignment["final"] = final_report.mean_score
    record.status = "ok"
    return record, latents


def _sweep(axis: str, rows, backend, base_latent: LatentField | None = None):
    """Run ``rows`` of (axis value, config, run kwargs) in order.

    Rows differ only downstream of ``base_sample``, so every row reuses the
    first base latent: ``base_latent`` if given, else the first row's.
    """
    out = []
    for value, config, kwargs in rows:
        record, latents = run_critifusion(
            config, backend, base_latent=base_latent, **kwargs
        )
        base_latent = latents["z_base"]
        out.append(
            {
                "axis_value": value,
                "base_score": record.alignment.get("base"),
                "final_score": record.alignment.get("final"),
                "cadr": dict(record.cadr),
            }
        )
    return SweepTable(axis=axis, rows=tuple(out))


def sweep_k(config: PipelineConfig, k_values, backend=None) -> SweepTable:
    """One run per corrective-step count k, all else held fixed.

    T' is pinned to its maximum so every requested k fits one common
    schedule; the remaining corrective parameters come from a single probe
    run.  k = 0 skips the corrective pass entirely.
    """
    k_values = list(k_values)
    if not k_values:
        raise SweepConfigError("no k values")
    if len(set(k_values)) != len(k_values):
        raise SweepConfigError("duplicate k values")
    t_fixed = config.cadr.t_min + config.cadr.t_span
    for k in k_values:
        if not (0 <= k <= t_fixed):
            raise SweepConfigError(f"k={k} outside [0, {t_fixed}]")

    probe, latents = run_critifusion(config, backend)
    params = CadrParams(
        lam=probe.cadr["lam"],
        g=probe.cadr["g"],
        T_prime=t_fixed,
        rho=probe.cadr["rho"],
    )
    rows = [
        (k, config, {"forced_k": k, "forced_params": params if k > 0 else None})
        for k in sorted(k_values)
    ]
    return _sweep("k", rows, backend, latents["z_base"])


def ablate(config: PipelineConfig, mask, backend=None) -> SweepTable:
    """Full model plus one row per disabled component in the mask."""
    mask = list(mask)
    unknown = set(mask) - set(ABLATABLE)
    if unknown:
        raise SweepConfigError(f"unknown components: {sorted(unknown)}")
    rows = [("full", config, {})]
    for component in ABLATABLE:
        if component in mask:
            rows.append(
                (f"without_{component}", config, {"disable": frozenset({component})})
            )
    return _sweep("component", rows, backend)


def sweep_ensemble(config: PipelineConfig, sizes, backend=None) -> SweepTable:
    """Vary the committee width; everything else fixed."""
    sizes = list(sizes)
    if not sizes:
        raise SweepConfigError("no ensemble sizes")
    if len(set(sizes)) != len(sizes):
        raise SweepConfigError("duplicate ensemble sizes")
    for size in sizes:
        if size < 1:
            raise SweepConfigError(f"ensemble size must be >= 1, got {size}")
        if size > vocab.MAX_AGENTS:
            raise SweepConfigError(
                f"ensemble size {size} exceeds the {vocab.MAX_AGENTS} mock lexicons"
            )

    rows = []
    for size in sorted(sizes):
        committee = config.committee
        if committee.mode == "mad":
            committee = replace(committee, agents=size)
        else:
            committee = replace(
                committee, layer_widths=(size,) + committee.layer_widths[1:]
            )
        rows.append((size, replace(config, committee=committee), {}))
    return _sweep("ensemble_size", rows, backend)


def write_run_record(record: RunRecord, path) -> None:
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(record.to_json_line() + "\n")


def write_sweep_table(table: SweepTable, path) -> None:
    with open(path, "a", encoding="utf-8") as fh:
        for line in table.to_json_lines():
            fh.write(line + "\n")


def read_records(path) -> list[dict]:
    out = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(json.loads(line))
    return out


def write_ppm(latent: LatentField, path) -> None:
    """Binary PPM (P6) dump of the first three channels, min-max normalized."""
    import numpy as np

    vals = latent.values
    if latent.channels >= 3:
        rgb = vals[:3]
    else:
        rgb = np.repeat(vals[:1], 3, axis=0)
    lo, hi = float(rgb.min()), float(rgb.max())
    span = hi - lo if hi > lo else 1.0
    pix = ((rgb - lo) / span * 255.0).round().astype(np.uint8)
    body = np.moveaxis(pix, 0, -1).tobytes()
    with open(path, "wb") as fh:
        fh.write(f"P6\n{latent.width} {latent.height}\n255\n".encode("ascii"))
        fh.write(body)
