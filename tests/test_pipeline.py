"""End-to-end orchestration, provenance records, and sweep harnesses."""

import json
from dataclasses import replace

import numpy as np
import pytest

from critifusion import pipeline, vocab
from critifusion.agents import AgentTransportError, MockAgentBackend
from critifusion.cadr import CadrParams
from critifusion.criticore import CommitteeConfig
from critifusion.latents import LatentError, LatentField, read_latent
from critifusion.pipeline import (
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


class TestRunCritifusion:
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

    def test_transcript_recorded(self):
        rec, _ = run_critifusion(PipelineConfig(prompt=DEGRADED, seed=0))
        # default MoA (3,): 3 proposals in decompose + 3 + aggregator
        assert len(rec.transcript) == 7
        assert all(len(entry) == 3 for entry in rec.transcript)

    def test_mad_committee(self):
        committee = CommitteeConfig(mode="mad", agents=2, rounds=2)
        cfg = PipelineConfig(prompt=DEGRADED, seed=0, committee=committee)
        backend = MockAgentBackend()
        rec, _ = run_critifusion(cfg, backend)
        assert rec.status == "ok"
        # 2 decompose proposals + 2 * 2 debate + judge
        assert len(backend.calls) == 2 + 2 * 2 + 1

    def test_blend_mode_runs(self):
        cfg = PipelineConfig(prompt=DEGRADED, seed=0, refine_mode="blend")
        rec, _ = run_critifusion(cfg)
        assert rec.status == "ok"


class FailingBackend:
    def respond(self, agent_id, request):
        raise AgentTransportError("injected outage", status=503, agent_id=agent_id)


class TestFailurePaths:
    def test_stage_failure_carries_partial_record(self):
        cfg = PipelineConfig(prompt=DEGRADED, seed=0)
        with pytest.raises(StageFailure) as exc:
            run_critifusion(cfg, FailingBackend())
        failure = exc.value
        assert failure.stage == "decompose_clauses"
        assert failure.record.status == "failed"
        assert failure.record.failed_stage == "decompose_clauses"
        # stages before the failure completed; none after
        assert failure.record.stages == ["base_sample", "decode", "vlm_hints"]

    def test_degrade_allow_falls_back_to_mock(self):
        cfg = PipelineConfig(prompt=DEGRADED, seed=0, degrade="allow")
        rec, _ = run_critifusion(cfg, FailingBackend())
        assert rec.status == "ok"
        assert rec.alignment["final"] > rec.alignment["base"]

    def test_unknown_disable_component(self):
        with pytest.raises(SweepConfigError):
            run_critifusion(
                PipelineConfig(prompt=DEGRADED), disable=frozenset({"magic"})
            )

    @pytest.mark.parametrize("shape", [(3, 64, 64), (4, 32, 64), (4, 64, 32)])
    def test_base_latent_shape_must_match_config(self, shape):
        base = LatentField(*shape, np.zeros(shape))
        backend = MockAgentBackend()
        with pytest.raises(LatentError):
            run_critifusion(PipelineConfig(prompt=DEGRADED), backend, base_latent=base)
        assert backend.calls == []


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


class TestSharedBaseLatent:
    """Every sweep row equals an independent run that samples its own base."""

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

        probe, _ = run_critifusion(cfg)
        params = CadrParams(
            lam=probe.cadr["lam"],
            g=probe.cadr["g"],
            T_prime=cfg.cadr.t_min + cfg.cadr.t_span,
            rho=probe.cadr["rho"],
        )
        expected = [_oracle_row(0, cfg, forced_k=0)] + [
            _oracle_row(k, cfg, forced_k=k, forced_params=params) for k in (10, 30)
        ]
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
        for harness, axis in (
            (sweep_k, [0, 5, 30]),
            (ablate, ["vlm", "multi_llm", "specfusion"]),
            (sweep_ensemble, [1, 2, 3]),
        ):
            base_sample_calls.clear()
            harness(cfg, axis)
            assert len(base_sample_calls) == 1, harness.__name__


class TestSerialization:
    def test_record_round_trip(self, tmp_path):
        rec, _ = run_critifusion(PipelineConfig(prompt=DEGRADED, seed=9))
        path = tmp_path / "records.jsonl"
        write_run_record(rec, path)
        write_run_record(rec, path)
        loaded = read_records(path)
        assert len(loaded) == 2
        assert RunRecord.from_dict(loaded[0]).to_dict() == rec.to_dict()

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
