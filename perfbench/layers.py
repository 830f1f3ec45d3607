"""Per-layer tracing: which public functions are wrapped, and the metrics.

Wrappers are installed on the namespace each caller looks the function up
in (``pipeline.base_sample`` for the pipeline's call, ``diffusion.ddim_step``
for the samplers' calls, ...), so the program itself is never edited.
"""

from __future__ import annotations

from collections import defaultdict

from critifusion import agents, diffusion, latents, pipeline
from critifusion.latents import LatentField
from critifusion.pipeline import STAGES

from tracer import Tracer, self_times

# (owner, attribute, span name)
WRAPPED = (
    (pipeline, "base_sample", "diffusion.base_sample"),
    (pipeline, "img2img_refine", "diffusion.img2img_refine"),
    (diffusion, "toy_denoiser", "diffusion.toy_denoiser"),
    (diffusion, "ddim_step", "diffusion.step"),
    (diffusion, "ddpm_step", "diffusion.step"),
    (diffusion, "synthesize_target", "basis.synthesize_target"),
    (latents, "ndtri", "latents.ndtri"),
    (pipeline, "latent_digest", "latents.latent_digest"),
    (pipeline, "spec_fuse", "spectral.spec_fuse"),
    (pipeline, "vlm_hints", "criticore.vlm_hints"),
    (pipeline, "decompose_clauses", "criticore.committee"),
    (pipeline, "moa_aggregate", "criticore.committee"),
    (pipeline, "run_mad", "criticore.committee"),
    (pipeline, "score_clauses", "criticore.score_clauses"),
    (agents.MockAgentBackend, "respond", "agents.call"),
    (agents.HttpAgentBackend, "respond", "agents.call"),
)


def install(tracer: Tracer) -> None:
    """Wrap every traced function; undo with ``tracer.restore()``."""
    for owner, attr, name in WRAPPED:
        tracer.wrap(owner, attr, name)

    stream_span = tracer.span("latents.gaussian_stream", latents._gaussian_stream)

    def gaussian_stream(seed, count, stream=0):
        tracer.count("latents.gaussian_draws", count)
        return stream_span(seed, count, stream)

    tracer.patch(latents, "_gaussian_stream", gaussian_stream)
    tracer.patch(diffusion, "_gaussian_stream", gaussian_stream)

    post_init = LatentField.__post_init__

    def counted_post_init(field):
        tracer.count("latents.field_constructions")
        # LatentField keeps a private float64 copy of every value it is given.
        tracer.count(
            "latents.field_bytes_copied", 8 * field.channels * field.height * field.width
        )
        post_init(field)

    tracer.patch(LatentField, "__post_init__", counted_post_init)


def layer_metrics(tracer: Tracer, results, agent_delay_s: float, stub_requests) -> dict:
    """Per-op means of every per-layer metric except the ``trace.*`` ones.

    ``results`` are the traced ops; ``stub_requests`` is the number of HTTP
    requests the stub saw during them (None when no stub ran).
    """
    n_ops = len(results)
    inclusive = defaultdict(float)
    calls = defaultdict(int)
    own = defaultdict(float)
    for (name, start, end, _parent, _op), self_s in zip(tracer.spans, self_times(tracer.spans)):
        inclusive[name] += end - start
        own[name] += self_s
        calls[name] += 1

    def per_op(value):
        return value / n_ops

    runs = [run for r in results for run in r.runs]
    stage_s = defaultdict(float)
    for run in runs:
        for stage, seconds in run.record.wall_clock.items():
            stage_s[stage] += seconds
    decided = [run for run in runs if run.record.cadr]
    agent_calls = calls["agents.call"]
    agent_s = inclusive["agents.call"]
    attempts = agent_calls if stub_requests is None else stub_requests
    op_s = sum(r.wall_seconds for r in results)  # spans are wall time too

    return {
        "diffusion.base_sample.ms": per_op(1e3 * inclusive["diffusion.base_sample"]),
        "diffusion.img2img_refine.ms": per_op(1e3 * inclusive["diffusion.img2img_refine"]),
        "diffusion.toy_denoiser.calls": per_op(calls["diffusion.toy_denoiser"]),
        "diffusion.toy_denoiser.ms": per_op(1e3 * inclusive["diffusion.toy_denoiser"]),
        "diffusion.step.ms": per_op(1e3 * own["diffusion.step"]),
        "basis.synthesize_target.calls": per_op(calls["basis.synthesize_target"]),
        "basis.synthesize_target.ms": per_op(1e3 * inclusive["basis.synthesize_target"]),
        "latents.field_constructions": per_op(tracer.counts["latents.field_constructions"]),
        "latents.field_bytes_copied": per_op(tracer.counts["latents.field_bytes_copied"] / 1e6),
        "latents.gaussian_draws": per_op(tracer.counts["latents.gaussian_draws"]),
        "latents.gaussian_stream.ms": per_op(1e3 * inclusive["latents.gaussian_stream"]),
        "latents.ndtri.ms": per_op(1e3 * inclusive["latents.ndtri"]),
        "latents.latent_digest.ms": per_op(1e3 * inclusive["latents.latent_digest"]),
        **{f"pipeline.stage.{s}.ms": per_op(1e3 * stage_s[s]) for s in STAGES},
        "pipeline.base_sample_calls_per_op": per_op(calls["diffusion.base_sample"]),
        "spectral.spec_fuse.ms": per_op(1e3 * inclusive["spectral.spec_fuse"]),
        "criticore.vlm_hints.ms": per_op(1e3 * inclusive["criticore.vlm_hints"]),
        "criticore.committee.ms": per_op(1e3 * inclusive["criticore.committee"]),
        "criticore.score_clauses.ms": per_op(1e3 * inclusive["criticore.score_clauses"]),
        "criticore.clauses_per_op": per_op(sum(len(r.record.clause_scores) for r in runs)),
        "agents.calls_per_op": per_op(agent_calls),
        "agents.call.ms": 1e3 * agent_s / agent_calls if agent_calls else 0.0,
        "agents.call_overhead.ms": (
            1e3 * (agent_s - agent_delay_s * attempts) / agent_calls if agent_calls else 0.0
        ),
        "agents.attempts_per_call": attempts / agent_calls if agent_calls else 0.0,
        "agents.wait_share": agent_s / op_s if op_s else 0.0,
        "cadr.skip_share": (
            sum(r.record.cadr["T_prime"] == 0 for r in decided) / len(decided)
            if decided else 0.0
        ),
    }
