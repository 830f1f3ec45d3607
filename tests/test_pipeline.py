"""End-to-end orchestration, provenance records, and sweep harnesses."""

import hashlib
import itertools
import json
import threading
import time
import tracemalloc
import weakref
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from critifusion import diffusion, pipeline, vocab
from critifusion.agents import AgentTransportError, MockAgentBackend, mock_respond
from critifusion.cadr import CadrConfig
from critifusion.criticore import CommitteeConfig, EmptyInputError
from critifusion.latents import LatentError, LatentField, read_latent
from critifusion.pipeline import (
    ABLATABLE,
    STAGES,
    PipelineConfig,
    RunRecord,
    StageFailure,
    SweepConfigError,
    ablate,
    read_records,
    run_critifusion,
    sweep_ensemble,
    sweep_k,
    write_ppm,
    write_run_record,
    write_sweep_table,
)


DEGRADED = "aurora"          # committee restores the paired "basalt"
COMPLETE = "aurora basalt"   # closed under enrichment -> skip path


class CommitteeRows:
    """Committee tests that an ``OverHttp`` subclass reruns over http.

    ``agent_backend = http`` fans each committee round out on threads; the
    assertions are the mock rows' own, so both paths must give the same
    records.
    """

    agent_backend = "mock"

    def config(self, **kwargs):
        return PipelineConfig(agent_backend=self.agent_backend, **kwargs)


class NumberedAnswers:
    """Records every ``(agent_id, request)`` sent; numbers every answer.

    The mock's layer-2 proposals repeat layer 1's, so its layer-2 aggregator
    request would repeat too.  A real model's answers differ from call to
    call; the number gives the mock that property, so a request repeats
    only if the pipeline itself sends it twice.
    """

    def __init__(self):
        self.sent = []
        self.numbers = itertools.count()

    def respond(self, agent_id, request):
        self.sent.append((agent_id, request))
        resp = mock_respond(agent_id, request)
        return replace(resp, text=f"{resp.text} call{next(self.numbers)}")


class RunCommitteeTests(CommitteeRows):
    def test_transcript_recorded(self):
        rec, _ = run_critifusion(self.config(prompt=DEGRADED, seed=0))
        # default MoA (3,): 3 proposers + aggregator
        assert len(rec.transcript) == 4
        assert all(len(entry) == 3 for entry in rec.transcript)
        assert [(agent, stage) for agent, stage, _ in rec.transcript] == [
            (1, "aggregate"),
            (2, "aggregate"),
            (3, "aggregate"),
            (0, "aggregate"),
        ]

    def test_mad_committee(self):
        committee = CommitteeConfig(mode="mad", agents=2, rounds=2)
        cfg = self.config(prompt=DEGRADED, seed=0, committee=committee)
        backend = MockAgentBackend()
        rec, _ = run_critifusion(cfg, backend)
        assert rec.status == "ok"
        # 2 * 2 debate + judge
        assert len(backend.calls) == 2 * 2 + 1
        assert [(agent, stage) for agent, stage, _ in rec.transcript] == [
            (1, "aggregate"),
            (2, "aggregate"),
            (1, "aggregate"),
            (2, "aggregate"),
            (0, "aggregate"),
        ]


    @pytest.mark.parametrize(
        "committee",
        [
            CommitteeConfig(),
            CommitteeConfig(layer_widths=(3, 3)),
            CommitteeConfig(mode="mad", agents=2, rounds=2),
        ],
        ids=["moa_3", "moa_3_3", "mad_2x2"],
    )
    def test_no_request_sent_twice(self, committee):
        backend = NumberedAnswers()
        cfg = self.config(prompt=DEGRADED, seed=0, committee=committee)
        rec, _ = run_critifusion(cfg, backend)
        assert rec.status == "ok"
        assert len(set(backend.sent)) == len(backend.sent)

    def test_uneven_moa_clauses_come_from_the_last_layer(self):
        committee = CommitteeConfig(layer_widths=(3, 1))
        cfg = self.config(prompt="aurora iris", seed=0, committee=committee)
        rec, _ = run_critifusion(cfg)
        agent, stage, consensus = rec.transcript[-1]
        assert (agent, stage) == (0, "aggregate")
        ids = [int(j) for j in rec.clause_scores]
        assert ids == vocab.descriptor_indices(vocab.tokenize(f"aurora iris {consensus}"))
        # Layer 1 also named iris and jade; agent 1 alone cannot.  The prompt
        # keeps iris, and the last layer's consensus adds only basalt.
        assert ids == [0, 8, 1]

    @pytest.mark.parametrize("prompt", ["meadow", "onyx prism"])
    def test_descriptors_no_agent_names_are_still_scored(self, prompt):
        rec, _ = run_critifusion(self.config(prompt=prompt, seed=0))
        assert rec.status == "ok"
        ids = [int(j) for j in rec.clause_scores]
        assert ids == vocab.descriptor_indices(vocab.tokenize(prompt))
        assert rec.cadr["T_prime"] == 0

    def test_prompt_without_descriptors_records_zero_clauses_and_skips(self):
        rec, lat = run_critifusion(self.config(prompt="hello world", seed=0))
        assert rec.status == "ok"
        assert (rec.clause_scores, rec.mean_score) == ({}, 1.0)
        assert rec.cadr["T_prime"] == 0
        assert rec.alignment == {"base": 1.0, "final": 1.0}
        assert np.array_equal(lat["z_fused"].values, lat["z_base"].values)


class TestRunCritifusion(RunCommitteeTests):
    def test_skip_path(self):
        rec, lat = run_critifusion(PipelineConfig(prompt=COMPLETE, seed=1))
        assert rec.cadr["T_prime"] == 0
        assert rec.digests["z_fused"] == rec.digests["z_base"]
        assert rec.digests["z_ref"] == rec.digests["z_base"]
        assert np.array_equal(lat["z_fused"].values, lat["z_base"].values)
        assert rec.alignment["final"] == rec.alignment["base"]

    def test_improvement_on_degraded_prompt(self):
        rec, _ = run_critifusion(PipelineConfig(prompt=DEGRADED, seed=1))
        assert rec.alignment["final"] > rec.alignment["base"]
        assert "basalt" in rec.enhanced_tokens

    def test_stage_order(self):
        rec, _ = run_critifusion(PipelineConfig(prompt=DEGRADED, seed=0))
        assert tuple(rec.stages) == STAGES
        assert sorted(rec.wall_clock) == sorted(STAGES)

    def test_determinism_modulo_wall_clock(self):
        cfg = PipelineConfig(prompt=DEGRADED, seed=4)
        a, _ = run_critifusion(cfg)
        b, _ = run_critifusion(cfg)
        da, db = a.to_dict(), b.to_dict()
        da.pop("wall_clock")
        db.pop("wall_clock")
        assert da == db
        la = json.dumps(da, sort_keys=True)
        lb = json.dumps(db, sort_keys=True)
        assert la == lb

    def test_seed_discipline(self):
        rec, _ = run_critifusion(PipelineConfig(prompt=DEGRADED, seed=123))
        assert rec.corrective_seed == 123 + 999
        assert rec.base_seed == 123

    def test_blend_mode_runs(self):
        cfg = PipelineConfig(prompt=DEGRADED, seed=0, refine_mode="blend")
        rec, _ = run_critifusion(cfg)
        assert rec.status == "ok"

    def test_score_on_the_threshold_in_its_last_ulps_refines(self):
        # 4.5 of 5 clauses scores 0.9000000000000004: a clause is missing,
        # and the last-ULP excess over the 0.9 threshold must not skip it.
        cfg = PipelineConfig(
            prompt="meadow aurora basalt soft iris and shot",
            seed=488587777,
            committee=CommitteeConfig(layer_widths=(3, 3)),
        )
        rec, _ = run_critifusion(cfg)
        assert rec.alignment["base"] == pytest.approx(0.9, abs=1e-12)
        assert rec.cadr["T_prime"] > 0
        assert rec.alignment["final"] > rec.alignment["base"]


class TestRunCritifusionOverHttp(RunCommitteeTests):
    agent_backend = "http"


FILLER = ("a", "the", "over", "hello", "world", "quiet")


@st.composite
def prompts(draw):
    """0-4 distinct descriptors and 1-3 filler words, shuffled."""
    words = draw(st.lists(st.sampled_from(vocab.CANONICAL_NAMES), max_size=4, unique=True))
    words += draw(st.lists(st.sampled_from(FILLER), min_size=1, max_size=3))
    return " ".join(draw(st.permutations(words)))


class TestEveryPromptCritiqued:
    @settings(max_examples=200, deadline=None)
    @given(
        prompt=prompts(),
        mode=st.sampled_from(["moa", "mad"]),
        width=st.integers(1, vocab.MAX_AGENTS),
    )
    def test_every_run_ends_ok_and_scores_the_prompt_first(self, prompt, mode, width):
        committee = CommitteeConfig(mode=mode, agents=width, layer_widths=(width,))
        cfg = PipelineConfig(
            prompt=prompt, height=16, width=16, steps=4, committee=committee
        )
        rec, _ = run_critifusion(cfg)
        assert rec.status == "ok"
        named = vocab.descriptor_indices(vocab.tokenize(prompt))
        assert [int(j) for j in rec.clause_scores][: len(named)] == named


# Betas log-uniform from 1e-20 to 1: some leave 1 - beta_start == 1, and
# some underflow alpha_bar to 0 within the longer schedules.
log_betas = st.floats(-20.0, 0.0, exclude_max=True).map(lambda e: 10.0**e)
step_counts = st.integers(1, diffusion.MAX_STEPS)


class TestEveryBuiltConfigRuns:
    """A config checks its schedules when it is built, so a config that
    builds never fails on its schedule at run time, and every corrective
    T' it can pick has a schedule that builds."""

    @settings(max_examples=60, deadline=None)
    @given(
        prompt=prompts(),
        betas=st.tuples(log_betas, log_betas).map(sorted),
        steps=step_counts,
        t_range=st.tuples(step_counts, step_counts).map(sorted),
        sampler=st.sampled_from(diffusion.SAMPLERS),
        refine_mode=st.sampled_from(diffusion.REFINE_MODES),
        mode=st.sampled_from(["moa", "mad"]),
        width=st.integers(1, vocab.MAX_AGENTS),
        dims=st.tuples(st.integers(1, 2), st.integers(16, 40), st.integers(16, 40)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_a_config_that_builds_runs(
        self, prompt, betas, steps, t_range, sampler, refine_mode, mode, width,
        dims, seed,
    ):
        (beta_start, beta_end), (t_min, t_max) = betas, t_range
        try:
            cfg = PipelineConfig(
                prompt=prompt,
                channels=dims[0],
                height=dims[1],
                width=dims[2],
                steps=steps,
                beta_start=beta_start,
                beta_end=beta_end,
                sampler=sampler,
                refine_mode=refine_mode,
                seed=seed,
                committee=CommitteeConfig(mode=mode, agents=width, layer_widths=(width,)),
                cadr=CadrConfig(t_min=t_min, t_span=t_max - t_min),
            )
        except diffusion.ScheduleError:
            return  # rejected when built
        for T_prime in range(t_min, t_max + 1):
            diffusion.make_schedule(T_prime, beta_start, beta_end)
        rec, _ = run_critifusion(cfg)
        assert rec.status == "ok"


class FailingBackend:
    def respond(self, agent_id, request):
        raise AgentTransportError("injected outage", status=503, agent_id=agent_id)


class FlakyAgentBackend:
    """Fails every call to one agent id; the others answer like the mock."""

    def __init__(self, failing_agent):
        self.failing_agent = failing_agent

    def respond(self, agent_id, request):
        if agent_id == self.failing_agent:
            raise AgentTransportError("injected outage", status=503, agent_id=agent_id)
        return mock_respond(agent_id, request)


class CrashingBackend:
    def respond(self, agent_id, request):
        raise RuntimeError("not an agent error")


class FailureCommitteeTests(CommitteeRows):
    def test_stage_failure_carries_partial_record(self):
        cfg = self.config(prompt=DEGRADED, seed=0)
        with pytest.raises(StageFailure) as exc:
            run_critifusion(cfg, FailingBackend())
        failure = exc.value
        assert failure.stage == "aggregate"
        assert failure.record.status == "failed"
        assert failure.record.failed_stage == "aggregate"
        # stages before the failure completed; none after
        assert failure.record.stages == ["base_sample", "decode", "vlm_hints"]

    def test_degrade_allow_falls_back_to_mock(self):
        cfg = self.config(prompt=DEGRADED, seed=0, degrade="allow")
        rec, _ = run_critifusion(cfg, FailingBackend())
        assert rec.status == "ok"
        assert rec.alignment["final"] > rec.alignment["base"]

    def test_degrade_allow_matches_mock_run(self):
        cfg = self.config(prompt=DEGRADED, seed=0, degrade="allow")
        degraded, _ = run_critifusion(cfg, FailingBackend())
        healthy, _ = run_critifusion(cfg)
        assert degraded.transcript == healthy.transcript
        assert degraded.digests == healthy.digests
        # default MoA (3,): 3 proposers and the aggregator
        assert degraded.degraded_calls == 4
        assert healthy.degraded_calls == 0

    def test_degrade_allow_counts_only_failed_calls(self):
        cfg = self.config(prompt=DEGRADED, seed=0, degrade="allow")
        rec, _ = run_critifusion(cfg, FlakyAgentBackend(failing_agent=2))
        # agent 2 is called once, as a layer-1 proposer
        assert rec.degraded_calls == 1
        healthy, _ = run_critifusion(cfg)
        assert rec.transcript == healthy.transcript

    def test_degrade_abort_counts_no_fallback(self):
        cfg = self.config(prompt=DEGRADED, seed=0)
        with pytest.raises(StageFailure) as exc:
            run_critifusion(cfg, FlakyAgentBackend(failing_agent=2))
        assert exc.value.record.degraded_calls == 0
        # agent 1 answered before agent 2 failed
        assert [entry[:2] for entry in exc.value.record.transcript] == [
            [1, "aggregate"]
        ]

    def test_degrade_allow_only_catches_agent_errors(self):
        cfg = self.config(prompt=DEGRADED, seed=0, degrade="allow")
        with pytest.raises(StageFailure) as exc:
            run_critifusion(cfg, CrashingBackend())
        assert exc.value.stage == "aggregate"
        assert isinstance(exc.value.cause, RuntimeError)
        assert exc.value.record.failed_stage == "aggregate"


    def test_empty_prompt_fails_at_aggregate_before_any_call(self):
        backend = MockAgentBackend()
        with pytest.raises(StageFailure) as exc:
            run_critifusion(self.config(prompt="", seed=0), backend)
        assert exc.value.stage == "aggregate"
        assert isinstance(exc.value.cause, EmptyInputError)
        assert backend.calls == []


class TestFailurePaths(FailureCommitteeTests):
    def test_unknown_disable_component(self):
        with pytest.raises(SweepConfigError):
            run_critifusion(
                PipelineConfig(prompt=DEGRADED), disable=frozenset({"magic"})
            )

    def test_final_scoring_failure_is_a_decode_final_stage_failure(self, monkeypatch):
        calls = []
        original = pipeline.score_clauses

        def failing_second_call(*args):
            calls.append(args)
            if len(calls) == 2:
                raise RuntimeError("injected scoring failure")
            return original(*args)

        monkeypatch.setattr(pipeline, "score_clauses", failing_second_call)
        with pytest.raises(StageFailure) as exc:
            run_critifusion(PipelineConfig(prompt=DEGRADED, seed=0))
        record = exc.value.record
        assert exc.value.stage == "decode_final"
        assert record.status == "failed"
        assert record.failed_stage == "decode_final"
        assert "final" not in record.alignment
        assert "decode_final" in record.wall_clock
        assert tuple(record.stages) == STAGES[:-1]

    @pytest.mark.parametrize("shape", [(3, 64, 64), (4, 32, 64), (4, 64, 32)])
    def test_base_latent_shape_must_match_config(self, shape):
        base = LatentField(*shape, np.zeros(shape))
        backend = MockAgentBackend()
        with pytest.raises(LatentError):
            run_critifusion(PipelineConfig(prompt=DEGRADED), backend, base_latent=base)
        assert backend.calls == []


class TestFailurePathsOverHttp(FailureCommitteeTests):
    agent_backend = "http"


class BarrierBackend:
    """Each propose call waits until three are in flight at once."""

    def __init__(self):
        self.barrier = threading.Barrier(3, timeout=5)

    def respond(self, agent_id, request):
        if request.directive == "propose":
            self.barrier.wait()
        return mock_respond(agent_id, request)


class SlowFirstBackend:
    """Proposers with lower agent ids answer later."""

    def __init__(self):
        self.finished = []

    def respond(self, agent_id, request):
        if request.directive == "propose":
            time.sleep(0.05 * (4 - agent_id))
        self.finished.append(agent_id)
        return mock_respond(agent_id, request)


class FailFirstBackend:
    """Agent 1 fails at once; every other call answers 0.1 s later."""

    def __init__(self):
        self.finished = []

    def respond(self, agent_id, request):
        if agent_id == 1:
            raise AgentTransportError("injected outage", status=503, agent_id=agent_id)
        time.sleep(0.1)
        self.finished.append(agent_id)
        return mock_respond(agent_id, request)


class InFlightBackend:
    """Holds each propose call until more than ``limit`` are in flight.

    A call gives up waiting after 0.2 s; ``most_in_flight`` is the most
    propose calls seen in flight at once.
    """

    def __init__(self, limit):
        self.limit = limit
        self.cond = threading.Condition()
        self.in_flight = 0
        self.most_in_flight = 0

    def respond(self, agent_id, request):
        if request.directive == "propose":
            with self.cond:
                self.in_flight += 1
                self.most_in_flight = max(self.most_in_flight, self.in_flight)
                self.cond.notify_all()
                self.cond.wait_for(lambda: self.in_flight > self.limit, timeout=0.2)
                self.in_flight -= 1
        return mock_respond(agent_id, request)


class TestConcurrentRounds:
    def test_round_calls_overlap(self):
        # a sequential round would break the barrier after its timeout
        cfg = PipelineConfig(prompt=DEGRADED, seed=0, agent_backend="http")
        rec, _ = run_critifusion(cfg, BarrierBackend())
        mock, _ = run_critifusion(replace(cfg, agent_backend="mock"))
        assert rec.transcript == mock.transcript

    def test_transcript_keeps_agent_order(self):
        cfg = PipelineConfig(prompt=DEGRADED, seed=0, agent_backend="http")
        backend = SlowFirstBackend()
        rec, _ = run_critifusion(cfg, backend)
        mock, _ = run_critifusion(replace(cfg, agent_backend="mock"))
        assert backend.finished[:3] == [3, 2, 1]
        assert rec.transcript == mock.transcript
        assert rec.digests == mock.digests

    def test_abort_waits_for_the_whole_round(self):
        cfg = PipelineConfig(prompt=DEGRADED, seed=0, agent_backend="http")
        backend = FailFirstBackend()
        with pytest.raises(StageFailure) as exc:
            run_critifusion(cfg, backend)
        assert exc.value.record.transcript == []
        # no call of the failed round is still running when the run fails
        assert sorted(backend.finished) == [2, 3]

    def test_round_wider_than_the_pool(self):
        width = pipeline.ROUND_WORKERS + 2
        committee = CommitteeConfig(layer_widths=(width,))
        cfg = PipelineConfig(
            prompt=DEGRADED, seed=0, committee=committee, agent_backend="http"
        )
        backend = InFlightBackend(limit=pipeline.ROUND_WORKERS)
        rec, _ = run_critifusion(cfg, backend)
        mock, _ = run_critifusion(replace(cfg, agent_backend="mock"))
        assert backend.most_in_flight <= pipeline.ROUND_WORKERS
        assert rec.transcript == mock.transcript
        assert [agent for agent, stage, _ in rec.transcript[:width]] == list(
            range(1, width + 1)
        )


class TestSweepK:
    def test_k_zero_row_equals_no_correction(self):
        table = sweep_k(PipelineConfig(prompt=DEGRADED, seed=2), [0])
        row = table.rows[0]
        assert row["axis_value"] == 0
        assert row["final_score"] == row["base_score"]

    def test_nondecreasing_and_sorted(self):
        table = sweep_k(PipelineConfig(prompt=DEGRADED, seed=2), [30, 0, 15])
        ks = [r["axis_value"] for r in table.rows]
        assert ks == [0, 15, 30]
        finals = [r["final_score"] for r in table.rows]
        assert all(b >= a - 1e-12 for a, b in zip(finals, finals[1:]))

    def test_duplicate_rejected(self):
        with pytest.raises(SweepConfigError):
            sweep_k(PipelineConfig(prompt=DEGRADED), [3, 3])

    def test_out_of_range_rejected_before_any_run(self):
        with pytest.raises(SweepConfigError):
            sweep_k(PipelineConfig(prompt=DEGRADED), [31])
        with pytest.raises(SweepConfigError):
            sweep_k(PipelineConfig(prompt=DEGRADED), [-1])

    def test_empty_rejected_before_any_run(self, base_sample_calls):
        with pytest.raises(SweepConfigError):
            sweep_k(PipelineConfig(prompt=DEGRADED), [])
        assert base_sample_calls == []

    def test_one_run_per_k(self, monkeypatch):
        runs = []
        original = pipeline.run_critifusion

        def counting(*args, **kwargs):
            runs.append(kwargs.get("forced_k"))
            return original(*args, **kwargs)

        monkeypatch.setattr(pipeline, "run_critifusion", counting)
        sweep_k(PipelineConfig(prompt=DEGRADED, seed=2), [0, 5, 30])
        assert runs == [0, 5, 30]

    def test_forced_k_pins_the_longest_schedule(self):
        cfg = PipelineConfig(prompt=DEGRADED, seed=2)
        free, _ = run_critifusion(cfg)
        rec, _ = run_critifusion(cfg, forced_k=30)
        assert rec.status == "ok"
        assert rec.cadr == {**free.cadr, "T_prime": 30}

    def test_forced_k_zero_skips_and_keeps_its_own_t_prime(self):
        cfg = PipelineConfig(prompt=DEGRADED, seed=2)
        free, _ = run_critifusion(cfg)
        rec, latents = run_critifusion(cfg, forced_k=0)
        assert rec.status == "ok"
        assert rec.cadr == free.cadr
        assert rec.cadr["T_prime"] > 0
        assert np.array_equal(latents["z_fused"].values, latents["z_base"].values)

    @pytest.mark.parametrize("k", [-1, 31])
    def test_forced_k_out_of_range_rejected_before_any_run(self, base_sample_calls, k):
        with pytest.raises(SweepConfigError, match=f"k={k}"):
            run_critifusion(PipelineConfig(prompt=DEGRADED, seed=2), forced_k=k)
        assert base_sample_calls == []

    def test_forced_k_rejects_blend(self, base_sample_calls):
        cfg = PipelineConfig(prompt=DEGRADED, seed=2, refine_mode="blend")
        with pytest.raises(SweepConfigError, match="img2img"):
            run_critifusion(cfg, forced_k=5)
        assert base_sample_calls == []

    def test_blend_rejected_before_any_run(self, base_sample_calls):
        # blend refinement ignores k, so every k > 0 row would be one run
        cfg = PipelineConfig(prompt=DEGRADED, seed=2, refine_mode="blend")
        with pytest.raises(SweepConfigError, match="img2img"):
            sweep_k(cfg, [0, 5, 15, 30])
        assert base_sample_calls == []


class TestAblate:
    def test_specfusion_bypass_digest(self):
        rec, _ = run_critifusion(
            PipelineConfig(prompt=DEGRADED, seed=1), disable=frozenset({"specfusion"})
        )
        assert rec.digests["z_fused"] == rec.digests["z_ref"]

    def test_vlm_bypass_empty_hints(self):
        rec, _ = run_critifusion(
            PipelineConfig(prompt=DEGRADED, seed=1), disable=frozenset({"vlm"})
        )
        assert rec.hints == []

    def test_multi_llm_and_vlm_bypass(self):
        # full-budget prompt: the enhanced prompt equals the original after
        # the budget clip drops the appended duplicates
        prompt = " ".join(["aurora"] * 77)
        cfg = PipelineConfig(prompt=prompt, seed=1)
        rec, _ = run_critifusion(cfg, disable=frozenset({"multi_llm", "vlm"}))
        assert rec.enhanced_tokens == ["aurora"] * 77
        assert rec.cadr  # CADR still ran on the raw prompt's clause scores
        assert rec.status == "ok"

    def test_four_rows_full_dominates(self):
        cfg = PipelineConfig(prompt=DEGRADED, seed=1, clamp=False)
        table = ablate(cfg, ["vlm", "multi_llm", "specfusion"])
        assert [r["axis_value"] for r in table.rows] == [
            "full",
            "without_vlm",
            "without_multi_llm",
            "without_specfusion",
        ]
        full = table.rows[0]["final_score"]
        for row in table.rows[1:]:
            assert full >= row["final_score"] - 1e-9

    def test_unknown_component(self):
        with pytest.raises(SweepConfigError):
            ablate(PipelineConfig(prompt=DEGRADED), ["warp"])


def final_score(sampler, refine_mode, lam):
    """A DEGRADED run's final score with CADR's lambda pinned to ``lam``."""
    cadr = CadrConfig(lam_min=lam, lam_span=0.0)
    config = PipelineConfig(
        prompt=DEGRADED, seed=3, sampler=sampler, refine_mode=refine_mode, cadr=cadr
    )
    record, _ = run_critifusion(config)
    return record.alignment["final"]


@pytest.mark.parametrize("sampler", ["ddim", "ddpm"])
class TestLambdaReach:
    """README, "What the toy can show": lambda acts only in blend mode.

    The blend guard keeps the img2img invariance (and the closed-form
    properties in test_diffusion.py) from passing because lambda reaches
    nothing at all.
    """

    def test_lambda_moves_a_blend_score(self, sampler):
        low, high = (final_score(sampler, "blend", lam) for lam in (0.12, 0.3))
        assert abs(high - low) > 0.05

    def test_lambda_leaves_an_img2img_score(self, sampler):
        low, high = (final_score(sampler, "img2img", lam) for lam in (0.12, 0.3))
        assert low == high


class TestSweepEnsemble:
    def test_repeat_identical(self):
        cfg = PipelineConfig(prompt=DEGRADED, seed=0)
        a = sweep_ensemble(cfg, [1])
        b = sweep_ensemble(cfg, [1])
        assert a == b

    def test_coverage_nondecreasing(self):
        cfg = PipelineConfig(prompt="aurora iris krait meadow", seed=0)
        coverages = []
        for size in range(1, 6):
            committee = CommitteeConfig(mode="moa", layer_widths=(size,))
            rec, _ = run_critifusion(
                PipelineConfig(prompt=cfg.prompt, seed=0, committee=committee)
            )
            coverages.append(len(vocab.descriptor_indices(rec.enhanced_tokens)))
        assert coverages == sorted(coverages)
        table = sweep_ensemble(cfg, [1, 2, 3, 4, 5])
        assert [r["axis_value"] for r in table.rows] == [1, 2, 3, 4, 5]

    def test_size_zero_rejected(self):
        with pytest.raises(SweepConfigError):
            sweep_ensemble(PipelineConfig(prompt=DEGRADED), [0])

    def test_size_above_lexicon_count_rejected(self):
        with pytest.raises(SweepConfigError):
            sweep_ensemble(PipelineConfig(prompt=DEGRADED), [6])

    def test_empty_rejected_before_any_run(self, base_sample_calls):
        with pytest.raises(SweepConfigError):
            sweep_ensemble(PipelineConfig(prompt=DEGRADED), [])
        assert base_sample_calls == []

    def test_mad_width_varied(self):
        committee = CommitteeConfig(mode="mad", agents=3, rounds=1)
        cfg = PipelineConfig(prompt=DEGRADED, seed=0, committee=committee)
        table = sweep_ensemble(cfg, [1, 2])
        assert len(table.rows) == 2


def _oracle_row(axis_value, config, **kwargs):
    record, _ = run_critifusion(config, **kwargs)
    return {
        "axis_value": axis_value,
        "base_score": record.alignment["base"],
        "final_score": record.alignment["final"],
        "cadr": record.cadr,
    }


@pytest.fixture()
def base_sample_calls(monkeypatch):
    calls = []
    original = pipeline.base_sample

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(pipeline, "base_sample", counting)
    return calls


@pytest.fixture()
def sweep_runs(monkeypatch):
    """(config, run kwargs, record, latents) of every run a sweep makes."""
    runs = []
    original = pipeline.run_critifusion

    def capturing(config, backend=None, **kwargs):
        record, latents = original(config, backend, **kwargs)
        runs.append((config, kwargs, record, latents))
        return record, latents

    monkeypatch.setattr(pipeline, "run_critifusion", capturing)
    return runs


def without_wall_clock(record):
    """A record's JSON line minus its timings: floats compare by repr."""
    data = record.to_dict()
    del data["wall_clock"]
    return json.dumps(data, sort_keys=True)


HARNESSES = {
    "sweep_k": (sweep_k, [0, 5, 30]),
    "ablate": (ablate, ABLATABLE),
    "sweep_ensemble": (sweep_ensemble, [1, 2, 3]),
}


class TestSharedBaseLatent:
    """Every sweep row equals an independent run that samples its own base.

    What the rows share, they compute once: the base latent, its digest and
    projection, each config's digest and each schedule.
    """

    @pytest.mark.parametrize("sampler", ["ddim", "ddpm"])
    @pytest.mark.parametrize(
        "committee",
        [CommitteeConfig(mode="moa"), CommitteeConfig(mode="mad", agents=3)],
        ids=["moa", "mad"],
    )
    def test_rows_match_independent_runs(self, sampler, committee):
        cfg = PipelineConfig(
            prompt=DEGRADED, seed=2, sampler=sampler, committee=committee
        )

        expected = [_oracle_row(k, cfg, forced_k=k) for k in (0, 10, 30)]
        assert list(sweep_k(cfg, [30, 0, 10]).rows) == expected

        expected = [_oracle_row("full", cfg)] + [
            _oracle_row(f"without_{c}", cfg, disable=frozenset({c}))
            for c in ("vlm", "multi_llm", "specfusion")
        ]
        assert list(ablate(cfg, ["vlm", "multi_llm", "specfusion"]).rows) == expected

        expected = []
        for size in (1, 2, 3):
            if committee.mode == "mad":
                varied = CommitteeConfig(mode="mad", agents=size)
            else:
                varied = CommitteeConfig(mode="moa", layer_widths=(size,))
            expected.append(_oracle_row(size, replace(cfg, committee=varied)))
        assert list(sweep_ensemble(cfg, [3, 1, 2]).rows) == expected

    def test_one_base_sample_per_harness_call(self, base_sample_calls):
        cfg = PipelineConfig(prompt=DEGRADED, seed=2)
        for name, (harness, axis) in HARNESSES.items():
            base_sample_calls.clear()
            harness(cfg, axis)
            assert len(base_sample_calls) == 1, name

    @pytest.mark.parametrize("harness", sorted(HARNESSES))
    @pytest.mark.parametrize("sampler", ["ddim", "ddpm"])
    @pytest.mark.parametrize(
        "committee",
        [CommitteeConfig(mode="moa"), CommitteeConfig(mode="mad", agents=3)],
        ids=["moa", "mad"],
    )
    @pytest.mark.parametrize("prompt", [DEGRADED, COMPLETE])
    def test_each_record_equals_an_independent_run(
        self, sweep_runs, harness, sampler, committee, prompt
    ):
        run, axis = HARNESSES[harness]
        cfg = PipelineConfig(prompt=prompt, seed=2, sampler=sampler, committee=committee)
        table = run(cfg, axis)
        assert len(sweep_runs) == len(table.rows)
        for config, kwargs, record, _ in sweep_runs:
            public = {k: v for k, v in kwargs.items() if not k.startswith("_")}
            alone, _ = run_critifusion(config, **public)
            assert without_wall_clock(record) == without_wall_clock(alone)

    @pytest.mark.parametrize("harness", sorted(HARNESSES))
    def test_base_hashed_and_projected_once(self, monkeypatch, sweep_runs, harness):
        hashed, projected = [], []
        digest, project = pipeline.latent_digest, pipeline.pattern_coefficients
        monkeypatch.setattr(
            pipeline, "latent_digest", lambda f: hashed.append(f) or digest(f)
        )
        monkeypatch.setattr(
            pipeline,
            "pattern_coefficients",
            lambda values: projected.append(values) or project(values),
        )
        run, axis = HARNESSES[harness]
        run(PipelineConfig(prompt=DEGRADED, seed=2), axis)
        z_base = sweep_runs[0][3]["z_base"]
        assert all(latents["z_base"] is z_base for *_, latents in sweep_runs)
        assert sum(f is z_base for f in hashed) == 1
        assert sum(v is z_base.values for v in projected) == 1

    def test_each_distinct_config_digested_once(self, monkeypatch):
        digested = []
        payload = pipeline._config_payload

        def counting(obj):
            if isinstance(obj, PipelineConfig):
                digested.append(obj)
            return payload(obj)

        monkeypatch.setattr(pipeline, "_config_payload", counting)
        cfg = PipelineConfig(prompt=DEGRADED, seed=2)
        sweep_k(cfg, [0, 5, 30])
        ablate(cfg, ABLATABLE)
        assert digested == [cfg]
        digested.clear()
        sweep_ensemble(cfg, [1, 2, 3])
        assert sorted(c.committee.layer_widths for c in digested) == [(1,), (2,), (3,)]

    def test_config_digest_is_the_sha256_of_its_json(self):
        cfg = PipelineConfig(prompt=DEGRADED, seed=2)
        payload = json.dumps(asdict(cfg), sort_keys=True, default=str)
        expected = hashlib.sha256(payload.encode("utf-8")).hexdigest()
        assert cfg.digest() == expected
        assert replace(cfg, seed=3).digest() != expected

    def test_each_schedule_built_once(self):
        diffusion._schedule.cache_clear()
        cfg = PipelineConfig(prompt=DEGRADED, seed=2)
        rows = sweep_k(cfg, [5, 30]).rows + ablate(cfg, ABLATABLE).rows
        # The config's checks build the sampling schedule and the longest
        # correction; each other T' a row refines over is built once.
        lengths = {cfg.steps, cfg.cadr.t_max} | {r["cadr"]["T_prime"] for r in rows}
        assert diffusion._schedule.cache_info().misses == len(lengths - {0})


@pytest.fixture()
def spec_fuse_outputs(monkeypatch):
    """Each ``pipeline.spec_fuse`` call's output, as a weak reference."""
    outputs = []
    original = pipeline.spec_fuse

    def counting(*args):
        out = original(*args)
        outputs.append(weakref.ref(out))
        return out

    monkeypatch.setattr(pipeline, "spec_fuse", counting)
    return outputs


def fusion_input(config, record, latents):
    """What a row fuses, or None if it passes z_ref through."""
    if latents["z_fused"] is latents["z_ref"]:
        return None
    z_ref = latents["z_ref"].values.tobytes()
    return z_ref, record.cadr["rho"], config.taper, config.clamp


class TestSharedFusion:
    """A sweep fuses each run of equal consecutive inputs once, holds one
    fusion at most, and every row still equals an independent run."""

    def test_sweep_k_fuses_once(self, spec_fuse_outputs):
        sweep_k(PipelineConfig(prompt=DEGRADED, seed=2), range(0, 31, 5))
        assert len(spec_fuse_outputs) == 1

    @pytest.mark.parametrize("refine_mode", ["img2img", "blend"])
    @pytest.mark.parametrize("harness", ["ablate", "sweep_ensemble"])
    def test_one_fusion_per_run_of_equal_inputs(
        self, spec_fuse_outputs, sweep_runs, harness, refine_mode
    ):
        run, _ = HARNESSES[harness]
        axis = ABLATABLE if harness == "ablate" else range(1, 6)
        run(PipelineConfig(prompt=DEGRADED, seed=2, refine_mode=refine_mode), axis)
        inputs = [fusion_input(c, r, lat) for c, _, r, lat in sweep_runs]
        inputs = [i for i in inputs if i is not None]
        runs = [key for key, _ in itertools.groupby(inputs)]
        assert len(spec_fuse_outputs) == len(runs) < len(inputs)

    @pytest.mark.parametrize(
        "harness, refine_mode",
        [(h, "img2img") for h in sorted(HARNESSES)]
        + [("ablate", "blend"), ("lam", "blend")],
    )
    def test_rows_exact_under_digest_collisions(
        self, monkeypatch, sweep_runs, harness, refine_mode
    ):
        # A pure guard: every digest collides, so only the refinement key,
        # which holds lambda for blend, tells the lambda rows' z_ref apart.
        monkeypatch.setattr(pipeline, "latent_digest", lambda field: "0" * 64)
        cfg = PipelineConfig(prompt=DEGRADED, seed=2, refine_mode=refine_mode)
        if harness == "lam":
            # lambda moves a blend z_ref, and rho does not follow it.
            configs = [replace(cfg, cadr=CadrConfig(lam_min=x)) for x in (0.12, 0.3)]
            pipeline._sweep("lam_min", [(c.cadr.lam_min, c, {}) for c in configs], None)
        else:
            run, axis = HARNESSES[harness]
            run(cfg, axis)
        for config, kwargs, record, latents in sweep_runs:
            public = {k: v for k, v in kwargs.items() if not k.startswith("_")}
            alone, alone_latents = run_critifusion(config, **public)
            assert without_wall_clock(record) == without_wall_clock(alone)
            assert (
                latents["z_fused"].values.tobytes()
                == alone_latents["z_fused"].values.tobytes()
            )
        if harness == "lam":
            refs = [latents["z_ref"].values.tobytes() for *_, latents in sweep_runs]
            assert refs[0] != refs[1]
            assert len({record.cadr["rho"] for _, _, record, _ in sweep_runs}) == 1

    def test_alternating_inputs_fuse_each_time_and_hold_one(
        self, monkeypatch, spec_fuse_outputs
    ):
        live_at_fusion, live_after_row, records = [], [], []
        original_fuse, original_run = pipeline.spec_fuse, pipeline.run_critifusion

        def fuse(*args):
            live_at_fusion.append(sum(ref() is not None for ref in spec_fuse_outputs))
            return original_fuse(*args)

        def run(*args, **kwargs):
            records.append(original_run(*args, **kwargs)[0])
            live_after_row.append(sum(ref() is not None for ref in spec_fuse_outputs))
            return records[-1], None

        monkeypatch.setattr(pipeline, "spec_fuse", fuse)
        monkeypatch.setattr(pipeline, "run_critifusion", run)
        # One z_ref throughout; each row's clamp, taper or rho is not the
        # last row's.
        first = PipelineConfig(prompt=DEGRADED, seed=2)
        others = [
            replace(first, clamp=False),
            replace(first, taper=0.2),
            replace(first, cadr=CadrConfig(rho_min=0.5)),
        ]
        configs = [c for other in others for c in (first, other)]
        pipeline._sweep("row", [(i, c, {}) for i, c in enumerate(configs)], None)
        assert len({r.digests["z_ref"] for r in records}) == 1
        assert len({r.cadr["rho"] for r in records}) == 2
        assert len(spec_fuse_outputs) == len(configs)
        assert live_at_fusion == [0] * len(configs)
        assert live_after_row == [1] * len(configs)


def refine_input(config, kwargs, record):
    """What a row's corrective pass reads, or None if it passes z_base on."""
    if record.cadr["T_prime"] == 0 or kwargs.get("forced_k") == 0:
        return None
    cond = tuple(sorted(vocab.descriptor_indices(record.enhanced_tokens)))
    T_prime = record.cadr["T_prime"]
    out = (config.refine_mode, cond, T_prime, config.beta_start, config.beta_end)
    if config.refine_mode == "blend":
        out += (record.cadr["lam"], config.seed)
    return out


@pytest.fixture()
def pipeline_calls(monkeypatch):
    """(args, output) of each call through ``pipeline.img2img_refine``,
    ``pipeline.latent_digest`` and ``pipeline.pattern_coefficients``."""
    calls = {}
    for name in ("img2img_refine", "latent_digest", "pattern_coefficients"):
        original, calls[name] = getattr(pipeline, name), []

        def counting(*args, _original=original, _name=name, **kwargs):
            out = _original(*args, **kwargs)
            calls[_name].append((args, out))
            return out

        monkeypatch.setattr(pipeline, name, counting)
    return calls


class TestSharedRefinement:
    """A sweep refines each run of equal consecutive refinement inputs once,
    holds one refinement at most, and hashes and projects each latent it
    holds once; every row still equals an independent run."""

    @pytest.mark.parametrize(
        "harness, refine_mode",
        [(h, "img2img") for h in sorted(HARNESSES)]
        + [("ablate", "blend"), ("sweep_ensemble", "blend")],
    )
    def test_one_refinement_digest_and_projection_per_run_of_equal_inputs(
        self, pipeline_calls, sweep_runs, harness, refine_mode
    ):
        run, _ = HARNESSES[harness]
        axis = {"sweep_k": range(0, 31, 5), "ablate": ABLATABLE}.get(
            harness, range(1, 6)
        )
        run(PipelineConfig(prompt=DEGRADED, seed=2, refine_mode=refine_mode), axis)
        inputs = [refine_input(c, kw, r) for c, kw, r, _ in sweep_runs]
        inputs = [i for i in inputs if i is not None]
        runs = [key for key, _ in itertools.groupby(inputs)]
        refined = [out for _, out in pipeline_calls["img2img_refine"]]
        assert len(refined) == len(runs) < len(inputs)
        # Each latent the rows report is hashed once, and the base and each
        # latent a row scores is projected once.
        held = {id(z): z for *_, lat in sweep_runs for z in lat.values()}
        hashed = [id(args[0]) for args, _ in pipeline_calls["latent_digest"]]
        assert sorted(hashed) == sorted(held)
        scored = {
            id(lat[name].values)
            for *_, lat in sweep_runs
            for name in ("z_base", "z_fused")
        }
        projected = [id(args[0]) for args, _ in pipeline_calls["pattern_coefficients"]]
        assert sorted(projected) == sorted(scored)
        for config, kwargs, record, latents in sweep_runs:
            public = {k: v for k, v in kwargs.items() if not k.startswith("_")}
            alone, alone_latents = run_critifusion(config, **public)
            assert without_wall_clock(record) == without_wall_clock(alone)
            for name, field in latents.items():
                assert field.values.tobytes() == alone_latents[name].values.tobytes()

    def test_alternating_conditioning_refines_each_time_and_holds_one(
        self, monkeypatch
    ):
        refined, live_at_refine, live_after_row, records = [], [], [], []
        original_refine = pipeline.img2img_refine
        original_run = pipeline.run_critifusion

        def refine(*args, **kwargs):
            live_at_refine.append(sum(ref() is not None for ref in refined))
            out = original_refine(*args, **kwargs)
            refined.append(weakref.ref(out))
            return out

        def run(*args, **kwargs):
            records.append(original_run(*args, **kwargs)[0])
            live_after_row.append(sum(ref() is not None for ref in refined))
            return records[-1], None

        monkeypatch.setattr(pipeline, "img2img_refine", refine)
        monkeypatch.setattr(pipeline, "run_critifusion", run)
        # Each row's enhanced prompt, and so its conditioning, is not the
        # last row's.
        first = PipelineConfig(prompt=DEGRADED, seed=2)
        configs = [replace(first, prompt=p) for p in ("aurora", "cobalt") * 3]
        pipeline._sweep("row", [(i, c, {}) for i, c in enumerate(configs)], None)
        assert all(r.cadr["T_prime"] > 0 for r in records)
        assert len({tuple(r.enhanced_tokens) for r in records}) == 2
        assert len(refined) == len(configs)
        assert live_at_refine == [0] * len(configs)
        assert live_after_row == [1] * len(configs)

    def test_blend_rows_that_differ_only_in_lambda_refine_each_row(
        self, pipeline_calls, sweep_runs
    ):
        cfg = PipelineConfig(prompt=DEGRADED, seed=2, refine_mode="blend")
        lams = (0.12, 0.3, 0.3, 0.12)
        rows = [
            (i, replace(cfg, cadr=CadrConfig(lam_min=x)), {})
            for i, x in enumerate(lams)
        ]
        pipeline._sweep("row", rows, None)
        # rho, T' and the conditioning stay; only lambda moves z_ref.
        assert len({(r.cadr["rho"], r.cadr["T_prime"]) for *_, r, _ in sweep_runs}) == 1
        assert len({tuple(r.enhanced_tokens) for _, _, r, _ in sweep_runs}) == 1
        assert len(pipeline_calls["img2img_refine"]) == 3
        refs = [lat["z_ref"] for *_, lat in sweep_runs]
        assert refs[1] is refs[2]
        assert refs[0].values.tobytes() != refs[1].values.tobytes()
        for config, _, record, latents in sweep_runs:
            alone, alone_latents = run_critifusion(config)
            assert without_wall_clock(record) == without_wall_clock(alone)
            z_ref = latents["z_ref"].values.tobytes()
            assert z_ref == alone_latents["z_ref"].values.tobytes()


CADR_VARIANTS = (
    CadrConfig(),
    CadrConfig(t_min=4, t_span=6),
    CadrConfig(skip_threshold=0.5),
    CadrConfig(lam_min=0.3, rho_min=0.4, rho_span=0.5),
    CadrConfig(t_min=2, t_span=0, lam_span=0.0, rho_span=0.0),
)


@st.composite
def committees(draw):
    mode = draw(st.sampled_from(["moa", "mad"]))
    widths = st.integers(1, vocab.MAX_AGENTS)
    return CommitteeConfig(
        mode=mode,
        agents=draw(st.integers(1, 3)),
        rounds=draw(st.integers(1, 2)),
        layer_widths=tuple(draw(st.lists(widths, min_size=1, max_size=2))),
        k_edit=draw(st.integers(0, 6)),
        k_hints=draw(st.integers(1, 6)),
    )


@st.composite
def sweep_rows(draw):
    """(config, run kwargs) rows that share every field deciding the base.

    Rows are drawn from two or three variants, so a variant, and with it a
    critique, often comes back after a different row.
    """
    base = PipelineConfig(
        prompt=draw(prompts()),
        channels=draw(st.integers(1, 2)),
        height=draw(st.integers(16, 33)),
        width=draw(st.integers(16, 47)),
        steps=draw(st.integers(2, 30)),
        beta_start=draw(st.sampled_from([1e-4, 5e-4])),
        beta_end=draw(st.sampled_from([0.01, 0.02, 0.05])),
        sampler=draw(st.sampled_from(diffusion.SAMPLERS)),
        seed=draw(st.integers(0, 2**32 - 1)),
        budget=draw(st.integers(1, 12)),
    )
    # Variants share committees often, so keys that differ in one other
    # field (gamma, a disable set) meet.
    pool = draw(st.lists(committees(), min_size=1, max_size=2))
    variants = []
    for _ in range(draw(st.integers(2, 3))):
        config = replace(
            base,
            gamma=draw(st.sampled_from([1.0, 0.5])),
            refine_mode=draw(st.sampled_from(diffusion.REFINE_MODES)),
            taper=draw(st.sampled_from([0.0, 0.1, 0.5])),
            clamp=draw(st.booleans()),
            committee=draw(st.sampled_from(pool)),
            cadr=draw(st.sampled_from(CADR_VARIANTS)),
            degrade=draw(st.sampled_from(["abort", "allow"])),
        )
        kwargs = {}
        disable = draw(st.sets(st.sampled_from(ABLATABLE)))
        if disable:
            kwargs["disable"] = frozenset(disable)
        if config.refine_mode == "img2img" and draw(st.booleans()):
            kwargs["forced_k"] = draw(st.integers(0, config.cadr.t_max))
        variants.append((config, kwargs))
    return draw(st.lists(st.sampled_from(variants), min_size=1, max_size=6))


# Rows whose critique inputs differ in gamma alone, the one the harnesses
# never vary, with the first row's critique coming back last.
GAMMA_ROWS = [
    (PipelineConfig(prompt=DEGRADED, seed=2, height=16, width=16, gamma=g), {})
    for g in (1.0, 0.5, 1.0)
]


class TestSweepDifferential:
    """Any rows that share a base give, row by row, an independent run's
    record and latents: whatever a sweep shares between rows, its keys
    must tell apart every input a row reads."""

    @example(rows=GAMMA_ROWS)
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(rows=sweep_rows())
    def test_every_row_equals_an_independent_run(self, sweep_runs, rows):
        sweep_runs.clear()
        pipeline._sweep("row", [(i, c, kw) for i, (c, kw) in enumerate(rows)], None)
        assert len(sweep_runs) == len(rows)
        for config, kwargs, record, latents in sweep_runs:
            public = {k: v for k, v in kwargs.items() if not k.startswith("_")}
            alone, alone_latents = run_critifusion(config, **public)
            assert without_wall_clock(record) == without_wall_clock(alone)
            for name in ("z_base", "z_ref", "z_fused"):
                got = latents[name].values.tobytes()
                assert got == alone_latents[name].values.tobytes(), name


class TestSerialization:
    def test_record_round_trip(self, tmp_path):
        rec, _ = run_critifusion(PipelineConfig(prompt=DEGRADED, seed=9))
        path = tmp_path / "records.jsonl"
        write_run_record(rec, path)
        write_run_record(rec, path)
        loaded = read_records(path)
        assert len(loaded) == 2
        assert RunRecord.from_dict(loaded[0]).to_dict() == rec.to_dict()

    def test_record_without_degraded_calls_loads(self):
        rec, _ = run_critifusion(PipelineConfig(prompt=DEGRADED, seed=9))
        data = json.loads(rec.to_json_line())
        del data["degraded_calls"]
        assert RunRecord.from_dict(data).degraded_calls == 0

    def test_stable_key_order(self):
        rec, _ = run_critifusion(PipelineConfig(prompt=DEGRADED, seed=9))
        line = rec.to_json_line()
        keys = list(json.loads(line))
        assert keys == sorted(keys)

    def test_sweep_table_lines(self, tmp_path):
        table = sweep_k(PipelineConfig(prompt=DEGRADED, seed=0), [0, 5])
        path = tmp_path / "sweep.jsonl"
        write_sweep_table(table, path)
        rows = read_records(path)
        assert [r["kind"] for r in rows] == ["sweep_row", "sweep_row"]
        assert [r["axis_value"] for r in rows] == [0, 5]

    def test_ppm_dump(self, tmp_path):
        _, lat = run_critifusion(PipelineConfig(prompt=DEGRADED, seed=0))
        path = tmp_path / "img.ppm"
        write_ppm(lat["z_fused"], path)
        blob = path.read_bytes()
        assert blob.startswith(b"P6\n64 64\n255\n")
        assert len(blob) == len(b"P6\n64 64\n255\n") + 3 * 64 * 64

    def test_latent_files_round_trip(self, tmp_path):
        from critifusion.latents import latent_digest, write_latent

        rec, lat = run_critifusion(PipelineConfig(prompt=DEGRADED, seed=0))
        for name, field in lat.items():
            p = tmp_path / f"{name}.crtf"
            write_latent(field, p)
            assert latent_digest(read_latent(p)) == rec.digests[name]


class TestDecode:
    def test_scores_read_the_projection_of_the_decoded_base(self):
        from test_diffusion import reference_coefficients

        config = PipelineConfig(prompt=DEGRADED, seed=3, gamma=2.0)
        rec, lat = run_critifusion(config)
        coefs = reference_coefficients(lat["z_base"].values / 2.0)
        scores = [1.0 / (1.0 + (coefs[int(j)] - 1.0) ** 2) for j in rec.clause_scores]
        assert abs(rec.alignment["base"] - sum(scores) / len(scores)) <= 1e-12

    def test_decode_allocates_less_than_one_field(self, monkeypatch):
        # Traced peak from the end of the base digest to the first read of
        # the coefficients, which spans the whole decode stage.
        config = PipelineConfig(prompt=DEGRADED, seed=2, height=128, width=128)
        field = 8 * config.channels * 128 * 128
        digest, hints = pipeline.latent_digest, pipeline.vlm_hints
        marks, peaks = [], []

        def marked_digest(z):
            out = digest(z)
            tracemalloc.reset_peak()
            marks.append(tracemalloc.get_traced_memory()[0])
            return out

        def measured_hints(*args, **kwargs):
            peaks.append(tracemalloc.get_traced_memory()[1] - marks[-1])
            return hints(*args, **kwargs)

        monkeypatch.setattr(pipeline, "latent_digest", marked_digest)
        monkeypatch.setattr(pipeline, "vlm_hints", measured_hints)
        tracemalloc.start()
        try:
            run_critifusion(config)
        finally:
            tracemalloc.stop()
        assert len(peaks) == 1
        assert 0 < peaks[0] < field


class TestRunMemory:
    """A whole run's peak memory is a few fields, under either sampler.

    The peak is in ``spec_fuse``, with ``z_base`` and ``z_ref`` held: 4.27
    fields at 4 x 64 x 64, 4.17 at 4 x 128 x 128 and 4.14 at 4 x 256 x 256,
    under either sampler and refine mode.  The first run at a size reads up
    to 1.1 fields more (cosine tables and allocations made once), so one
    untraced run of the same config comes first.  Each bound adds about
    half a field.  A sweep stays within a single run's bound: it holds the
    last row's fusion, z_ref and z_fused, but no row's other latents, and
    reads 4.53 fields at 4 x 128 x 128.
    """

    PEAK_FIELDS = {64: 4.8, 128: 4.7, 256: 4.6}

    def peak_fields(self, size, **knobs):
        from test_diffusion import peak_bytes

        config = PipelineConfig(prompt=DEGRADED, seed=2, height=size, width=size, **knobs)
        run_critifusion(config)
        records = []
        peak = peak_bytes(lambda: records.append(run_critifusion(config)[0]))
        assert records[0].cadr["T_prime"] > 0  # the run refines and fuses
        return peak / (8 * config.channels * size * size)

    @pytest.mark.parametrize("sampler", ["ddim", "ddpm"])
    @pytest.mark.parametrize("size", [64, 128])
    def test_peak_within_twelve_fields(self, size, sampler):
        assert self.peak_fields(size, sampler=sampler) < self.PEAK_FIELDS[size]

    @pytest.mark.parametrize("refine_mode", ["img2img", "blend"])
    def test_ddpm_peak_at_256(self, refine_mode):
        peak = self.peak_fields(256, sampler="ddpm", refine_mode=refine_mode)
        assert peak < self.PEAK_FIELDS[256]

    @pytest.mark.parametrize("harness", sorted(HARNESSES))
    def test_sweep_peak_within_a_single_run_bound(self, harness):
        from test_diffusion import peak_bytes

        run, axis = HARNESSES[harness]
        config = PipelineConfig(prompt=DEGRADED, seed=2, height=128, width=128)
        run(config, axis)
        peak = peak_bytes(lambda: run(config, axis))
        assert peak / (8 * config.channels * 128 * 128) < self.PEAK_FIELDS[128]


# The name each critique stage calls through when a row computes it.
CRITIQUE_CALLS = {
    "decode": "pattern_coefficients",  # the base's projection, on row 0
    "vlm_hints": "vlm_hints",
    "aggregate": "moa_aggregate",
    "decompose_clauses": "decompose_clauses",
    "score_clauses": "score_clauses",
    "merge_topk": "merge_topk",
}
REUSE_HARNESSES = {"sweep_k": (sweep_k, range(0, 31, 5)), "ablate": (ablate, ABLATABLE)}


class FailingCritique:
    """A held critique whose output for one stage raises when taken."""

    def __init__(self, held, stage):
        self.held, self.field = held, pipeline.CRITIQUE_STAGES[stage]

    def __getattr__(self, name):
        if name == self.field:
            raise RuntimeError("injected failure taking a held critique")
        return getattr(self.held, name)


def critique_fields(record):
    """The record fields the critique sets, by the stage that sets them."""
    return {
        "vlm_hints": record.hints,
        "aggregate": record.transcript,
        "score_clauses": (
            record.clause_scores,
            record.mean_score,
            record.alignment.get("base"),
        ),
        "merge_topk": record.enhanced_tokens,
    }


def failing_call(name):
    def fail(*args, **kwargs):
        raise RuntimeError(f"injected {name} failure")

    return fail


class TestPartialRecordsUnderReuse:
    """A critique stage that fails leaves the partial record an independent
    run leaves when that stage fails, whether the row computes the critique
    or takes a held one: each record field is set as its stage ends."""

    @pytest.mark.parametrize("path", ["compute", "reuse"])
    @pytest.mark.parametrize("stage", list(CRITIQUE_CALLS))
    @pytest.mark.parametrize("harness", sorted(REUSE_HARNESSES))
    def test_failed_stage_leaves_an_independent_runs_partial_record(
        self, monkeypatch, harness, stage, path
    ):
        # ablate's rows: full, without_vlm, without_multi_llm (each computes)
        # and without_specfusion, which takes full's critique.
        if path == "reuse":
            target = 3
        elif harness == "sweep_k" or stage == "decode":
            target = 0
        else:
            target = 2 if stage == "vlm_hints" else 1
        rows, taken = [], []
        original_run = pipeline.run_critifusion
        original_call = getattr(pipeline, CRITIQUE_CALLS[stage])
        original_critique = pipeline._SharedBase.critique

        def run(config, backend=None, **kwargs):
            rows.append((config, kwargs))
            return original_run(config, backend, **kwargs)

        def call(*args, **kwargs):
            if path == "compute" and len(rows) - 1 == target:
                raise RuntimeError(f"injected {stage} failure")
            return original_call(*args, **kwargs)

        def critique(shared, key):
            held = original_critique(shared, key)
            if path == "reuse" and len(rows) - 1 == target and held is not None:
                taken.append(held)
                return FailingCritique(held, stage)
            return held

        monkeypatch.setattr(pipeline, "run_critifusion", run)
        monkeypatch.setattr(pipeline, CRITIQUE_CALLS[stage], call)
        monkeypatch.setattr(pipeline._SharedBase, "critique", critique)
        harness_fn, axis = REUSE_HARNESSES[harness]
        # DDPM's base misses its target, so the VLM has hints to record.
        cfg = PipelineConfig(prompt=DEGRADED, seed=2, sampler="ddpm")
        with pytest.raises(StageFailure) as exc:
            harness_fn(cfg, axis)
        assert len(rows) == target + 1
        assert len(taken) == (path == "reuse")
        assert exc.value.stage == stage
        assert len(exc.value.finished.rows) == target
        record = exc.value.record
        assert (record.status, record.failed_stage) == ("failed", stage)

        monkeypatch.undo()
        config, kwargs = rows[target]
        public = {k: v for k, v in kwargs.items() if not k.startswith("_")}
        # The fields of the stages before the failed one are the full run's;
        # the others are still unset.
        full, _ = run_critifusion(config, **public)
        assert full.hints or "vlm" in public.get("disable", ())
        finished = STAGES[: STAGES.index(stage)]
        expected = {
            name: critique_fields(full if name in finished else RunRecord())[name]
            for name in critique_fields(record)
        }
        assert critique_fields(record) == expected
        monkeypatch.setattr(pipeline, CRITIQUE_CALLS[stage], failing_call(stage))
        with pytest.raises(StageFailure) as alone:
            run_critifusion(config, **public)
        assert alone.value.stage == stage
        assert without_wall_clock(record) == without_wall_clock(alone.value.record)
        assert sorted(record.wall_clock) == sorted(alone.value.record.wall_clock)


class TestCallersBackendAskedEveryRow:
    """Only the built-in mock's critiques are shared between rows: a
    backend the caller passes answers every row, as in independent runs."""

    @pytest.mark.parametrize("harness", sorted(HARNESSES))
    def test_every_row_asks_the_backend(self, sweep_runs, harness):
        backend = NumberedAnswers()
        run, axis = HARNESSES[harness]
        table = run(PipelineConfig(prompt=DEGRADED, seed=2), axis, backend)
        expected = NumberedAnswers()
        for config, kwargs, _, _ in sweep_runs:
            public = {k: v for k, v in kwargs.items() if not k.startswith("_")}
            run_critifusion(config, expected, **public)
        assert len(sweep_runs) == len(table.rows)
        assert backend.sent == expected.sent
