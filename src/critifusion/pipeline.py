"""End-to-end orchestration, run provenance, and experiment harnesses."""

from __future__ import annotations

import hashlib
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, asdict, replace
from functools import cached_property, partial

import numpy as np

from . import vocab
from .agents import AgentError, MockAgentBackend, mock_respond
from .basis import _check_toy_dims, pattern_coefficients
from .cadr import CadrConfig, cadr_from_alignment
from .criticore import (
    DEFAULT_BUDGET,
    CommitteeConfig,
    committee_instruction,
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
    CORRECTIVE_SEED_OFFSET,
    REFINE_MODES,
    SAMPLERS,
    base_sample,
    img2img_refine,
    make_schedule,
)
from .latents import LatentError, LatentField, _check_dims, latent_digest
from .spectral import TaperSpec, spec_fuse

STAGES = (
    "base_sample",
    "decode",
    "vlm_hints",
    "aggregate",
    "decompose_clauses",
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
        self.finished = None  # from a sweep: a SweepTable of the rows before it


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
    seed: int = 0
    budget: int = DEFAULT_BUDGET
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
        _check_dims(self.channels, self.height, self.width)
        _check_toy_dims(self.height, self.width)
        # Each schedule checks its alpha_bar when built.  Underflow to 0 only
        # grows with the step count, so the longest correction covers every T'.
        for name, steps in (
            ("steps", self.steps),  # sampling
            ("cadr.t_min + cadr.t_span", self.cadr.t_max),  # the longest correction
        ):
            make_schedule(steps, self.beta_start, self.beta_end, name)
        if not (math.isfinite(self.gamma) and self.gamma > 0):
            raise ValueError(f"gamma must be finite and > 0, got {self.gamma}")
        TaperSpec(self.taper)

    def digest(self) -> str:
        """SHA-256 of the config's JSON; computed once, as the config is frozen."""
        return self._digest

    @cached_property
    def _digest(self) -> str:
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
    degraded_calls: int = 0
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


# Worker threads per committee round.  An HTTP backend's pool keeps
# agents.MAX_IDLE idle connections; more workers would open connections it
# closes after one call.
ROUND_WORKERS = 10


class _AgentCalls:
    """The one path from the committee to the backend; records every call.

    Each answer lands in the record's transcript under the current stage.
    With degrade=allow, an AgentError is answered by the mock for that slot
    and counted in ``record.degraded_calls``.  With ``concurrent`` set, the
    backend calls of a round run on worker threads, so their network waits
    overlap; the answers are still settled here, one by one in call order,
    once the whole round has answered, so the transcript, the fallback count
    and the error that aborts a round are those of a sequential run.
    """

    def __init__(self, backend, record: RunRecord, fallback: bool, concurrent: bool):
        self.backend = backend
        self.record = record
        self.fallback = fallback
        self.concurrent = concurrent
        self.stage = "init"

    def respond(self, agent_id, request):
        answer = partial(self.backend.respond, agent_id, request)
        return self._settle(agent_id, request, answer)

    def respond_all(self, calls):
        if not self.concurrent:
            return [self.respond(*call) for call in calls]
        with ThreadPoolExecutor(max_workers=min(len(calls), ROUND_WORKERS)) as pool:
            futures = [pool.submit(self.backend.respond, *call) for call in calls]
        return [self._settle(*call, f.result) for call, f in zip(calls, futures)]

    def _settle(self, agent_id, request, answer):
        """Record ``answer()``, or the mock's answer if it raised AgentError."""
        try:
            resp = answer()
        except AgentError:
            if not self.fallback:
                raise
            self.record.degraded_calls += 1
            resp = mock_respond(agent_id, request)
        self.record.transcript.append([agent_id, self.stage, resp.text])
        return resp


class _Held:
    """A latent with its digest and pattern projection, each computed at
    most once."""

    def __init__(self, latent: LatentField):
        self.latent = latent

    @cached_property
    def digest(self) -> str:
        return latent_digest(self.latent)

    @cached_property
    def projection(self):
        return pattern_coefficients(self.latent.values)


class _SharedBase:
    """The last row's latents: the base, the last refinement made on it and
    the last fusion made from that, each ``_Held`` so that it is hashed and
    projected at most once.  A sweep hands one to every row: the first row
    sets the base it sampled; a later row whose refinement input equals the
    last one's gets the same z_ref back, and, if its rho, taper and clamp
    equal the last fusion's too, the same z_fused.  A new refinement drops
    the held refinement and fusion before it is made, and a new fusion the
    held fusion, so a sweep holds the base and one z_ref and z_fused at most.
    """

    def __init__(self, latent: LatentField | None = None):
        self.base = None if latent is None else _Held(latent)
        self._refinement = None  # (key, z_ref)
        self._fusion = None  # ((rho, taper, clamp), z_ref, z_fused)

    def refine(self, key, make) -> _Held:
        """The held z_ref if ``key`` is its key, else ``make()``'s output."""
        held = self._refinement
        if held is not None and held[0] == key:
            return held[1]
        self._refinement = self._fusion = held = None
        z_ref = _Held(make())
        self._refinement = (key, z_ref)
        return z_ref

    def fuse(self, z_ref: _Held, rho, taper, clamp) -> _Held:
        """``spec_fuse(z_ref, base, ...)``, or the held fusion if it was made
        from this same z_ref object with equal rho, taper and clamp."""
        key = (rho, taper, clamp)
        held = self._fusion
        if held is not None and held[1] is z_ref and held[0] == key:
            return held[2]
        self._fusion = held = None
        z_fused = _Held(
            spec_fuse(z_ref.latent, self.base.latent, rho, TaperSpec(taper), clamp)
        )
        self._fusion = (key, z_ref, z_fused)
        return z_fused


def _check_k(k: int, config: PipelineConfig) -> None:
    if not (0 <= k <= config.cadr.t_max):
        raise SweepConfigError(f"k={k} outside [0, {config.cadr.t_max}]")


def run_critifusion(
    config: PipelineConfig,
    backend=None,
    disable: frozenset = frozenset(),
    forced_k: int | None = None,
    base_latent: LatentField | None = None,
    *,
    _base: _SharedBase | None = None,
):
    """Execute the full refinement pipeline.

    Returns (record, latents) where latents maps stage names
    ('z_base', 'z_ref', 'z_fused') to LatentField values.  Any stage error
    raises StageFailure carrying the partial record with a failure marker.
    A ``base_latent`` replaces the base sample and must have the config's
    (channels, height, width).  ``forced_k`` fixes the corrective pass at k
    steps: k = 0 skips it and records the alignment's own T', and k > 0
    keeps the alignment's lambda, g and rho but pins T' to the longest
    schedule, ``config.cadr.t_max``, so every k up to it fits.  k must lie
    in [0, t_max].  The toy's img2img pass lands on the enhanced prompt's
    target for every k, so k > 0 reaches only the recorded T'.  Blend
    refinement ignores k, so ``forced_k`` needs ``refine_mode = img2img``.
    ``_base``, from a sweep, stands in for ``base_latent`` and holds the
    last row's latents: a row whose refinement input (mode, conditioning,
    T', beta endpoints and, for blend, lambda and seed) equals the last
    one's gets that ``z_ref`` back, and if its rho, taper and clamp match
    too, that ``z_fused``; a latent it gets back keeps its digest and
    projection.  Every other stage is the row's own.
    """
    unknown = set(disable) - set(ABLATABLE)
    if unknown:
        raise SweepConfigError(f"unknown ablation components: {sorted(unknown)}")
    if forced_k is not None:
        if config.refine_mode != "img2img":
            raise SweepConfigError("forced_k needs refine_mode = img2img")
        _check_k(forced_k, config)
    shared = _base if _base is not None else _SharedBase(base_latent)
    expected = (config.channels, config.height, config.width)
    if shared.base is not None and shared.base.latent.shape != expected:
        raise LatentError(
            f"base latent shape {shared.base.latent.shape} is not {expected}"
        )
    record = RunRecord(
        config_digest=config.digest(),
        base_seed=config.seed,
        corrective_seed=config.seed + CORRECTIVE_SEED_OFFSET,
        prompt=config.prompt,
    )
    if backend is None:
        backend = MockAgentBackend()
    # Rounds fan out only when calls wait on the network.  The mock answers
    # at once; on one CPU, even a pool shared by all rounds made its
    # sweeps_64 ops about 5 ms (4%) slower.
    calls = _AgentCalls(
        backend,
        record,
        fallback=config.degrade == "allow",
        concurrent=config.agent_backend == "http",
    )
    latents: dict[str, LatentField] = {}
    sched = make_schedule(config.steps, config.beta_start, config.beta_end)
    bundle = make_prompt_bundle(config.prompt, config.budget)

    def stage(name: str, fn):
        calls.stage = name
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

    def sample():
        if shared.base is None:
            shared.base = _Held(
                base_sample(
                    conditioning_from_prompt(bundle),
                    sched,
                    config.sampler,
                    config.seed,
                    config.channels,
                    config.height,
                    config.width,
                )
            )
        return shared.base

    base = stage("base_sample", sample)
    latents["z_base"] = base.latent
    record.digests["z_base"] = base.digest

    def decode(z: _Held):
        # The critique reads an image only as its pattern coefficients, and
        # decoding's division by gamma commutes with the projection.
        return z.projection / config.gamma

    coefs = stage("decode", lambda: decode(base))

    if "vlm" in disable:
        hints = stage("vlm_hints", lambda: [])
    else:
        hints = stage(
            "vlm_hints",
            lambda: vlm_hints(coefs, bundle, k_hints=config.committee.k_hints),
        )
    record.hints = list(hints)

    # Without the committee, the prompt itself is the consensus.
    if "multi_llm" in disable:
        consensus = stage("aggregate", lambda: bundle.text)
    else:
        consult = moa_aggregate if config.committee.mode == "moa" else run_mad
        consensus = stage(
            "aggregate",
            lambda: consult(
                committee_instruction(bundle, hints), config.committee, calls
            ),
        )
    # The prompt's descriptors come first, so a committee too narrow to
    # name one never drops it; the consensus adds its enrichments after.
    clauses = stage(
        "decompose_clauses",
        lambda: decompose_clauses(bundle.text + " " + consensus),
    )

    report = stage("score_clauses", lambda: score_clauses(clauses, coefs))
    record.clause_scores = {str(c.clause_id): c.score for c in report.clauses}
    record.mean_score = report.mean_score
    record.alignment["base"] = report.mean_score

    enhanced = stage(
        "merge_topk",
        lambda: merge_topk(bundle, report.clauses, config.committee.k_edit),
    )
    record.enhanced_tokens = list(enhanced.tokens)

    def corrective_params():
        params = cadr_from_alignment(report.mean_score, config.cadr)
        # Every forced k > 0 fits one schedule, the longest.
        return replace(params, T_prime=config.cadr.t_max) if forced_k else params

    params = stage("cadr", corrective_params)
    record.cadr = asdict(params)

    skip = params.T_prime == 0 or forced_k == 0
    # A stage that passes its input through passes its digest and projection
    # on too.
    if skip:
        z_ref = stage("img2img_refine", lambda: base)
    else:
        cond_ref = conditioning_from_prompt(enhanced)
        # What the pass reads, as plain values (a schedule's == compares
        # arrays and raises).  Only blend reads lambda, the seed's noise and
        # the base's values; the base is the sweep's.
        key = (
            config.refine_mode,
            cond_ref.embedding.tobytes(),
            params.T_prime,
            sched.beta_start,
            sched.beta_end,
        )
        if config.refine_mode == "blend":
            key += (params.lam, config.seed)
        z_ref = stage(
            "img2img_refine",
            lambda: shared.refine(
                key,
                lambda: img2img_refine(
                    base.latent,
                    cond_ref,
                    params,
                    sched,
                    config.seed,
                    mode=config.refine_mode,
                ),
            ),
        )
    latents["z_ref"] = z_ref.latent
    record.digests["z_ref"] = z_ref.digest
    if skip or "specfusion" in disable:
        z_fused = stage("spec_fuse", lambda: z_ref)
    else:
        z_fused = stage(
            "spec_fuse",
            lambda: shared.fuse(z_ref, params.rho, config.taper, config.clamp),
        )
    latents["z_fused"] = z_fused.latent
    record.digests["z_fused"] = z_fused.digest

    final_report = stage(
        "decode_final", lambda: score_clauses(report.clauses, decode(z_fused))
    )
    record.alignment["final"] = final_report.mean_score
    record.status = "ok"
    return record, latents


def _sweep(axis: str, rows, backend):
    """Run ``rows`` of (axis value, config, run kwargs) in order.

    No rows, or a repeated axis value, fails before any run.  Rows differ
    only downstream of ``base_sample``, so the first row samples the base
    latent and every later row reuses it.  The sweep holds the last row's
    refinement and fusion: a row whose refinement input equals the last
    one's reuses its z_ref, and then, with equal rho, taper and clamp, its
    z_fused; any other row replaces them.  Each latent the sweep holds is
    hashed and projected once.  A failing row's StageFailure leaves with
    the rows finished before it.
    """
    values = [value for value, _, _ in rows]
    if not values:
        raise SweepConfigError(f"no {axis} values")
    if len(set(values)) != len(values):
        raise SweepConfigError(f"duplicate {axis} values")
    out = []
    base = _SharedBase()
    for value, config, kwargs in rows:
        try:
            # Only the record: a row's latents are freed before the next row.
            record = run_critifusion(config, backend, _base=base, **kwargs)[0]
        except StageFailure as exc:
            exc.finished = SweepTable(axis=axis, rows=tuple(out))
            raise
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

    Each row is ``run_critifusion(config, forced_k=k)``: T' is pinned to
    ``config.cadr.t_max`` for k > 0, and the row sets its own lambda, g and
    rho from its critique of the shared base latent; there is no probe run.
    k = 0 skips the corrective pass.  Blend refinement ignores k and is
    rejected.  In the toy every k >= 1 row refines to the same z_ref, the
    enhanced prompt's target, so those rows are equal; only k = 0 differs.
    """
    k_values = sorted(k_values)
    for k in k_values:
        _check_k(k, config)
    return _sweep("k", [(k, config, {"forced_k": k}) for k in k_values], backend)


def ablate(config: PipelineConfig, mask, backend=None) -> SweepTable:
    """Full model plus one row per disabled component in the mask.

    Under the mock committee the ``without_vlm`` row has equalled
    ``full`` in every toy run measured (README, "What the toy can show").
    """
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
    rows = []
    for size in sorted(sizes):
        if size < 1:
            raise SweepConfigError(f"ensemble size must be >= 1, got {size}")
        if size > vocab.MAX_AGENTS:
            raise SweepConfigError(
                f"ensemble size {size} exceeds the {vocab.MAX_AGENTS} mock lexicons"
            )
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


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# The run-record fields ``inspect`` reads: name -> (JSON type, test).  The
# first three are required; the others may be absent or null.
_RECORD_FIELDS = {
    "status": ("a string", lambda v: isinstance(v, str)),
    "base_seed": ("an integer", _is_int),
    "stages": (
        "a list of strings",
        lambda v: isinstance(v, list) and all(isinstance(s, str) for s in v),
    ),
    "failed_stage": ("a string", lambda v: isinstance(v, str)),
    "mean_score": ("a number", lambda v: _is_int(v) or isinstance(v, float)),
    "degraded_calls": ("an integer", _is_int),
    "digests": ("an object", lambda v: isinstance(v, dict)),
    "alignment": ("an object", lambda v: isinstance(v, dict)),
    "cadr": ("an object", lambda v: isinstance(v, dict)),
}
_REQUIRED_FIELDS = ("status", "base_seed", "stages")


def read_records(path) -> list[dict]:
    """The JSON objects of a record file, one per nonblank line.

    Raises ValueError, naming the line, for a line that is not a JSON object,
    or a run record that lacks a required field or has a field that
    ``inspect`` reads of the wrong JSON type.
    """
    out = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                data = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"line {lineno}: not JSON: {exc}") from exc
            if not isinstance(data, dict):
                raise ValueError(f"line {lineno}: not a JSON object")
            if data.get("kind") == "run_record":
                missing = set(_REQUIRED_FIELDS) - set(data)
                if missing:
                    raise ValueError(
                        f"line {lineno}: run record lacks {sorted(missing)}"
                    )
                for name, (kind, is_kind) in _RECORD_FIELDS.items():
                    value = data.get(name)
                    required = name in _REQUIRED_FIELDS
                    if (required or value is not None) and not is_kind(value):
                        raise ValueError(f"line {lineno}: {name} is not {kind}")
            out.append(data)
    return out


def write_ppm(latent: LatentField, path) -> None:
    """Binary PPM (P6) dump of the first three channels, min-max normalized."""
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
