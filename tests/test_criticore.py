"""Critique path: hints, clause decomposition, committees, scoring, merge.

Committee behavior is checked against independent set-union / coverage
oracles and hand-simulated traces of the documented mock-agent rules.
"""

import numpy as np
import pytest

from critifusion import vocab
from critifusion.agents import MockAgentBackend
from critifusion.basis import pattern_coefficients
from critifusion.criticore import (
    Clause,
    CommitteeConfig,
    CommitteeConfigError,
    CritiqueReport,
    EmptyInputError,
    PromptBundle,
    committee_instruction,
    conditioning_from_prompt,
    decompose_clauses,
    judge,
    mad_round,
    make_prompt_bundle,
    merge_topk,
    moa_aggregate,
    run_mad,
    score_clauses,
    vlm_hints,
)
from critifusion.diffusion import Conditioning, target_field
from critifusion.latents import LatentField


def coefs_from_weights(weights, h=32, w=32):
    """The pattern coefficients of the image mixing the bank by ``weights``."""
    cond = Conditioning(np.asarray(weights, dtype=float), 0.0)
    return pattern_coefficients(target_field(cond, 1, h, w).values)


def weights(*indices, **scaled):
    out = np.zeros(16)
    for j in indices:
        out[j] = 1.0
    for key, val in scaled.items():
        out[int(key.lstrip("w"))] = val
    return out


class TestPromptBundle:
    def test_budget_enforced(self):
        with pytest.raises(ValueError):
            PromptBundle(("a",) * 5, (0.5,) * 5, budget=4)

    def test_tokenize_and_truncate(self):
        b = make_prompt_bundle("Aurora, BASALT! cobalt", budget=2)
        assert b.tokens == ("aurora", "basalt")
        assert b.salience == (0.5, 0.5)

    def test_tokens_and_salience_lengths_must_match(self):
        with pytest.raises(ValueError, match="equal length"):
            PromptBundle(("a", "b"), (0.5,))

    def test_salience_range(self):
        with pytest.raises(ValueError):
            PromptBundle(("a",), (1.5,))

    def test_conditioning(self):
        cond = conditioning_from_prompt(make_prompt_bundle("ember aurora ember"))
        assert cond.embedding[0] == 1.0
        assert cond.embedding[4] == 1.0
        assert cond.embedding.sum() == 2.0


class TestVlmHints:
    def test_perfect_match_no_hints(self):
        prompt = make_prompt_bundle("aurora dune")
        coefs = coefs_from_weights(weights(0, 3))
        assert vlm_hints(coefs, prompt) == []

    def test_missing_pattern_hint(self):
        prompt = make_prompt_bundle("dune")
        coefs = coefs_from_weights(weights())  # pattern 3 absent
        hints = vlm_hints(coefs, prompt)
        assert hints == ["increase dune"]

    def test_surplus_pattern_hint(self):
        prompt = make_prompt_bundle("dune")
        coefs = coefs_from_weights(weights(3, 5))
        assert vlm_hints(coefs, prompt) == ["reduce fjord"]

    def test_top_k_by_gap(self):
        prompt = make_prompt_bundle(
            "aurora basalt cobalt dune ember fjord garnet harbor iris"
        )
        # 9 mismatching patterns with distinct gaps, largest first expected
        w = weights()
        gaps = [0.9, 0.8, 0.7, 0.6, 0.5, 0.45, 0.4, 0.3, 0.2]
        for j, gap in enumerate(gaps):
            w[j] = 1.0 - gap
        coefs = coefs_from_weights(w)
        hints = vlm_hints(coefs, prompt, k_hints=5)
        assert len(hints) == 5
        assert hints == [
            "increase aurora",
            "increase basalt",
            "increase cobalt",
            "increase dune",
            "increase ember",
        ]

    def test_k_hints_validation(self):
        with pytest.raises(ValueError):
            vlm_hints(coefs_from_weights(weights()), make_prompt_bundle("aurora"), k_hints=0)


class TestDecompose:
    def test_single_token_single_clause(self):
        committee = CommitteeConfig(mode="moa", layer_widths=(5,))
        clauses = decompose_clauses(moa_aggregate("prism", committee, MockAgentBackend()))
        assert len(clauses) == 1
        assert clauses[0].clause_id == 15
        assert clauses[0].kind == "entity"

    def test_pair_enrichment(self):
        committee = CommitteeConfig(mode="moa", layer_widths=(3,))
        clauses = decompose_clauses(moa_aggregate("aurora", committee, MockAgentBackend()))
        assert [c.clause_id for c in clauses] == [0, 1]

    def test_duplicates_removed(self):
        clauses = decompose_clauses("aurora aurora1 basalt aurora")
        assert [c.clause_id for c in clauses] == [0, 1]

    def test_order_of_the_text(self):
        clauses = decompose_clauses("cobalt2, the aurora and dune3")
        assert [c.clause_id for c in clauses] == [2, 0, 3]
        assert [c.text for c in clauses] == [("cobalt",), ("aurora",), ("dune",)]
        assert all(c.score is None for c in clauses)

    def test_set_union_oracle(self):
        committee = CommitteeConfig(mode="moa", layer_widths=(3,))
        prompt = make_prompt_bundle("aurora cobalt ember garnet iris krait")
        consensus = moa_aggregate(prompt.text, committee, MockAgentBackend())
        clauses = decompose_clauses(consensus)

        # independent recomputation of the union of per-agent proposals
        base = set(vocab.descriptor_indices(prompt.tokens))
        expected = set()
        for agent in (1, 2, 3):
            reach = {j for j in range(6 + 2 * agent)}
            enriched = base | {vocab.associate(j) for j in base}
            expected |= enriched & reach
        assert {c.clause_id for c in clauses} == expected

    def test_empty_prompt(self):
        with pytest.raises(EmptyInputError):
            committee_instruction(make_prompt_bundle(""), ["increase aurora"])
        assert decompose_clauses("") == []


class RecordingBackend(MockAgentBackend):
    def __init__(self):
        super().__init__()
        self.texts = []

    def respond(self, agent_id, request):
        self.texts.append((agent_id, request.user_text))
        return super().respond(agent_id, request)


class TestMad:
    def test_single_agent_empty_context(self):
        committee = CommitteeConfig(mode="mad", agents=1, rounds=1)
        backend = RecordingBackend()
        mad_round([""], committee, backend, "aurora")
        assert backend.texts == [(1, "aurora")]

    def test_self_exclusion(self):
        committee = CommitteeConfig(mode="mad", agents=3, rounds=1)
        backend = RecordingBackend()
        state = ["out1", "out2", "out3"]
        mad_round(state, committee, backend, "aurora")
        agent2_text = backend.texts[1][1]
        assert "out1" in agent2_text
        assert "out3" in agent2_text
        assert "out2" not in agent2_text

    def test_two_round_hand_trace(self):
        committee = CommitteeConfig(mode="mad", agents=2, rounds=2)
        backend = MockAgentBackend()
        final = run_mad("aurora cobalt", committee, backend)

        # hand simulation of the documented mock rule
        base = {0, 2}
        enriched = base | {vocab.associate(j) for j in base}  # {0,1,2,3}
        def agent_text(agent):
            reach = sorted(enriched & set(range(6 + 2 * agent)))
            return " ".join(vocab.lexicon_word(agent, j) for j in reach)
        # both agents cover 0..3, rounds are stable, judge ties to agent 1
        assert final == agent_text(1)
        assert final == "aurora1 basalt1 cobalt1 dune1"
        # M*T + 1 calls
        assert len(backend.calls) == 2 * 2 + 1

    def test_call_count_grid(self):
        for m in range(1, 7):
            for t in range(1, 4):
                committee = CommitteeConfig(mode="mad", agents=m, rounds=t)
                backend = MockAgentBackend()
                run_mad("aurora basalt", committee, backend)
                assert len(backend.calls) == m * t + 1

    def test_mode_guard(self):
        committee = CommitteeConfig(mode="moa", layer_widths=(2,))
        with pytest.raises(CommitteeConfigError):
            mad_round([""], committee, MockAgentBackend(), "x")


class TestJudge:
    def test_singleton(self):
        assert judge(["aurora1 basalt1"], MockAgentBackend()) == "aurora1 basalt1"

    def test_tie_earliest(self):
        out = judge(["aurora basalt", "cobalt dune"], MockAgentBackend())
        assert out == "aurora basalt"

    def test_max_coverage(self):
        cands = [
            "aurora basalt",
            "aurora basalt cobalt dune ember",
            "aurora basalt cobalt",
        ]
        assert judge(cands, MockAgentBackend()) == cands[1]

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            judge([], MockAgentBackend())


class TestMoa:
    def test_call_counts(self):
        cases = [((1,), 2), ((3, 2), 7)]
        for widths, expected in cases:
            committee = CommitteeConfig(mode="moa", layer_widths=widths)
            backend = MockAgentBackend()
            moa_aggregate("aurora", committee, backend)
            assert len(backend.calls) == expected

    def test_random_layer_configs(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            widths = tuple(int(x) for x in rng.integers(1, 5, size=int(rng.integers(1, 4))))
            committee = CommitteeConfig(mode="moa", layer_widths=widths)
            backend = MockAgentBackend()
            moa_aggregate("aurora ember", committee, backend)
            assert len(backend.calls) == sum(n + 1 for n in widths)

    def test_two_layer_hand_trace(self):
        committee = CommitteeConfig(mode="moa", layer_widths=(2, 2))
        out = moa_aggregate("aurora cobalt", committee, MockAgentBackend())
        # layer candidates all resolve to {0,1,2,3}; the mock aggregator
        # emits the canonical dedup-union in first-appearance order
        assert out == "aurora basalt cobalt dune"

    def test_mode_guard(self):
        committee = CommitteeConfig(mode="mad", agents=2, rounds=1)
        with pytest.raises(CommitteeConfigError):
            moa_aggregate("x", committee, MockAgentBackend())


class TestScoring:
    def make_clauses(self, *ids):
        return [
            Clause(clause_id=j, text=(vocab.CANONICAL_NAMES[j],), kind="entity")
            for j in ids
        ]

    def test_exact_match_scores_one(self):
        coefs = coefs_from_weights(weights(0, 1))
        report = score_clauses(self.make_clauses(0, 1), coefs)
        assert all(c.score == pytest.approx(1.0, abs=1e-9) for c in report.clauses)
        assert report.mean_score == pytest.approx(1.0, abs=1e-9)

    def test_large_error_drives_score_to_zero(self):
        w = weights()
        w[2] = 1001.0  # MSE = 1e6
        coefs = coefs_from_weights(w)
        report = score_clauses(self.make_clauses(2), coefs)
        assert report.clauses[0].score < 1e-5

    def test_mse_triple(self):
        # coefficient errors 0, 1, sqrt(3) -> MSEs 0, 1, 3
        w = weights()
        w[0] = 1.0
        w[1] = 0.0
        w[2] = 1.0 - np.sqrt(3.0)
        coefs = coefs_from_weights(w)
        report = score_clauses(self.make_clauses(0, 1, 2), coefs)
        scores = [c.score for c in report.clauses]
        assert scores == pytest.approx([1.0, 0.5, 0.25], abs=1e-9)
        assert report.mean_score == pytest.approx((1 + 0.5 + 0.25) / 3, abs=1e-9)

    def test_clause_text_must_be_nonempty(self):
        with pytest.raises(ValueError, match="nonempty"):
            Clause(0, (), "entity")

    @pytest.mark.parametrize("score", [-0.1, 1.5])
    def test_clause_score_must_lie_in_the_unit_interval(self, score):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            Clause(0, ("aurora",), "entity", score=score)

    def test_no_clauses_give_an_empty_report_scoring_one(self):
        report = score_clauses([], coefs_from_weights(weights()))
        assert (report.clauses, report.mean_score) == ((), 1.0)

    def test_report_mean_consistency_guard(self):
        clauses = (Clause(0, ("aurora",), "entity", score=0.5),)
        with pytest.raises(ValueError):
            CritiqueReport(clauses=clauses, mean_score=0.9)


class TestMergeTopk:
    def scored(self, pairs):
        return [
            Clause(clause_id=j, text=(vocab.CANONICAL_NAMES[j % 16],), kind="entity", score=s)
            for j, s in pairs
        ]

    def test_exact_fit(self):
        base = PromptBundle(tuple(f"tok{i}" for i in range(70)), (0.5,) * 70)
        clause = Clause(0, tuple(f"c{i}" for i in range(7)), "entity", score=0.1)
        out = merge_topk(base, [clause], k_edit=1)
        assert len(out.tokens) == 77
        assert out.tokens[70:] == tuple(f"c{i}" for i in range(7))

    def test_duplicates_pruned_first(self):
        base = PromptBundle(tuple(f"tok{i}" for i in range(77)), (0.5,) * 77)
        clause = Clause(0, ("tok0", "fresh"), "entity", score=0.0)
        out = merge_topk(base, [clause], k_edit=1)
        assert len(out.tokens) == 77
        # the duplicate appended token goes; the fresh high-salience one
        # displaces a base token
        assert out.tokens.count("tok0") == 1
        assert "fresh" in out.tokens

    def test_repeated_base_tokens_survive_pass_one(self):
        # One over budget: pass 1 drops the appended repeat, never the
        # base prompt's own repeat.
        base = PromptBundle(("aurora", "aurora", "basalt"), (0.5,) * 3, budget=4)
        clause = Clause(0, ("cobalt", "aurora"), "entity", score=0.0)
        out = merge_topk(base, [clause], k_edit=1)
        assert out.tokens == ("aurora", "aurora", "basalt", "cobalt")

    def test_lowest_scores_merge_in_order(self):
        base = make_prompt_bundle("aurora")
        clauses = self.scored([(0, 0.9), (1, 0.2), (2, 0.5)])
        out = merge_topk(base, clauses, k_edit=2)
        assert out.tokens == ("aurora", "basalt", "cobalt")
        assert out.salience == (0.5, pytest.approx(0.8), pytest.approx(0.5))

    def test_k_edit_exceeding_clause_count(self):
        base = make_prompt_bundle("aurora")
        out = merge_topk(base, self.scored([(1, 0.3)]), k_edit=10)
        assert out.tokens == ("aurora", "basalt")

    def test_k_edit_zero(self):
        base = make_prompt_bundle("aurora basalt")
        out = merge_topk(base, self.scored([(2, 0.1)]), k_edit=0)
        assert out.tokens == base.tokens

    def test_randomized_budget_property(self):
        rng = np.random.default_rng(7)
        names = vocab.CANONICAL_NAMES
        for _ in range(1000):
            n_base = int(rng.integers(0, 90))
            base_tokens = tuple(
                names[int(rng.integers(0, 16))] for _ in range(min(n_base, 77))
            )
            base = PromptBundle(base_tokens, (0.5,) * len(base_tokens))
            n_clauses = int(rng.integers(0, 8))
            clauses = [
                Clause(
                    clause_id=int(rng.integers(0, 1000)),
                    text=tuple(
                        names[int(rng.integers(0, 16))]
                        for _ in range(int(rng.integers(1, 5)))
                    ),
                    kind="entity",
                    score=float(rng.random()),
                )
                for _ in range(n_clauses)
            ]
            k_edit = int(rng.integers(0, 8))
            appended = sum(
                len(c.text)
                for c in sorted(clauses, key=lambda c: (c.score, c.clause_id))[:k_edit]
            )
            out = merge_topk(base, clauses, k_edit)
            assert len(out.tokens) <= 77
            if len(base.tokens) + appended > 77:
                assert len(out.tokens) == 77
