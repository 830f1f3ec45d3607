"""Prompt critique: hints, clause decomposition, committees, scoring, merge.

The offline path is fully analytic: the VLM stand-in and the clause scorer
read an image once, as its ``pattern_coefficients`` vector; mock agents
speak the shared descriptor vocabulary, and a clause scores 1 / (1 + MSE)
against its unit target coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import vocab
from .agents import make_request
from .basis import N_BASIS
from .diffusion import Conditioning

HINT_THRESHOLD = 0.1
CLAUSE_KINDS = ("entity", "attribute", "relation")
DEFAULT_BUDGET = 77


class EmptyInputError(ValueError):
    pass


class CommitteeConfigError(ValueError):
    pass


@dataclass(frozen=True)
class PromptBundle:
    """Ordered tokens with per-token salience under a token budget."""

    tokens: tuple
    salience: tuple
    budget: int = DEFAULT_BUDGET

    def __post_init__(self):
        if len(self.tokens) != len(self.salience):
            raise ValueError("tokens and salience must have equal length")
        if len(self.tokens) > self.budget:
            raise ValueError(
                f"token count {len(self.tokens)} exceeds budget {self.budget}"
            )
        if any(not (0.0 <= w <= 1.0) for w in self.salience):
            raise ValueError("salience weights must lie in [0, 1]")

    @property
    def text(self) -> str:
        return " ".join(self.tokens)


def make_prompt_bundle(text: str, budget: int = DEFAULT_BUDGET) -> PromptBundle:
    tokens = vocab.tokenize(text)[:budget]
    return PromptBundle(tuple(tokens), (0.5,) * len(tokens), budget)


def conditioning_from_prompt(bundle: PromptBundle) -> Conditioning:
    """Binary basis weights: 1 for every descriptor the prompt mentions."""
    weights = np.zeros(N_BASIS)
    for j in vocab.descriptor_indices(bundle.tokens):
        weights[j] = 1.0
    return Conditioning(weights)


@dataclass(frozen=True)
class Clause:
    """One grounded visual clause tied to a basis pattern."""

    clause_id: int
    text: tuple
    kind: str
    score: float | None = None

    def __post_init__(self):
        if not self.text:
            raise ValueError("clause text must be nonempty")
        if self.score is not None and not (0.0 <= self.score <= 1.0):
            raise ValueError("clause score must lie in [0, 1]")


@dataclass(frozen=True)
class CritiqueReport:
    clauses: tuple
    mean_score: float

    def __post_init__(self):
        scores = [c.score for c in self.clauses if c.score is not None]
        if scores and abs(self.mean_score - sum(scores) / len(scores)) > 1e-12:
            raise ValueError("mean score inconsistent with clause scores")


@dataclass(frozen=True)
class CommitteeConfig:
    mode: str = "moa"
    agents: int = 3  # MAD width
    rounds: int = 1  # MAD rounds
    layer_widths: tuple = (3,)  # MoA proposers per layer
    k_edit: int = 5
    k_hints: int = 5

    def __post_init__(self):
        if self.mode not in ("mad", "moa"):
            raise CommitteeConfigError(f"mode must be 'mad' or 'moa', got {self.mode!r}")
        if self.mode == "mad":
            for name in ("agents", "rounds"):
                if getattr(self, name) < 1:
                    raise CommitteeConfigError(f"{name} must be >= 1 for MAD")
        elif not self.layer_widths or any(n < 1 for n in self.layer_widths):
            raise CommitteeConfigError(
                f"layer_widths must name at least one layer, each >= 1, "
                f"got {self.layer_widths}"
            )
        if self.k_edit < 0:
            raise CommitteeConfigError(f"k_edit must be >= 0, got {self.k_edit}")
        if self.k_hints < 1:
            raise CommitteeConfigError(f"k_hints must be >= 1, got {self.k_hints}")


def vlm_hints(coefs: np.ndarray, prompt: PromptBundle, k_hints: int = 5) -> list[str]:
    """Grounded hints: where an image's pattern coefficients miss the prompt.

    Every basis pattern is checked against its desired coefficient (1 when
    the prompt names it, 0 otherwise); mismatches above threshold become
    hints, largest first, at most k_hints.  The analytic diff is the
    offline VLM.
    """
    if k_hints < 1:
        raise ValueError("k_hints must be >= 1")
    wanted = set(vocab.descriptor_indices(prompt.tokens))
    mismatches = []
    for j in range(N_BASIS):
        coef = float(coefs[j])
        desired = 1.0 if j in wanted else 0.0
        gap = abs(coef - desired)
        if gap > HINT_THRESHOLD:
            verb = "increase" if coef < desired else "reduce"
            mismatches.append((gap, j, f"{verb} {vocab.CANONICAL_NAMES[j]}"))
    mismatches.sort(key=lambda m: (-m[0], m[1]))
    return [text for _, _, text in mismatches[:k_hints]]


def committee_instruction(prompt: PromptBundle, hints) -> str:
    """The prompt's tokens followed by the hints' tokens, space-joined."""
    if not prompt.tokens:
        raise EmptyInputError("prompt has no tokens")
    return " ".join(list(prompt.tokens) + vocab.tokenize(" ".join(hints)))


def ask_all(backend, calls) -> list:
    """The answers to one round of ``(agent_id, request)`` calls, in order.

    A backend with ``respond_all`` gets the whole round at once; any other
    backend is asked one call after another through ``respond``.
    """
    respond_all = getattr(backend, "respond_all", None)
    if respond_all is not None:
        return respond_all(calls)
    return [backend.respond(agent_id, request) for agent_id, request in calls]


def decompose_clauses(text: str) -> list[Clause]:
    """One unscored clause per descriptor the text names, in order."""
    return [
        Clause(
            clause_id=j,
            text=(vocab.CANONICAL_NAMES[j],),
            kind=CLAUSE_KINDS[j % len(CLAUSE_KINDS)],
        )
        for j in vocab.descriptor_indices(vocab.tokenize(text))
    ]


def mad_round(state, committee: CommitteeConfig, backend, instruction: str):
    """One debate round: each agent sees all other agents' prior outputs."""
    if committee.mode != "mad":
        raise CommitteeConfigError("mad_round requires MAD mode")
    calls = []
    for i in range(1, committee.agents + 1):
        context_lines = [
            f"agent {j}: {state[j - 1]}"
            for j in range(1, committee.agents + 1)
            if j != i and state[j - 1]
        ]
        text = "\n".join([instruction] + context_lines)
        calls.append((i, make_request("propose", text)))
    return [resp.text for resp in ask_all(backend, calls)]


def judge(candidates, backend) -> str:
    """Pick the final answer from the round's candidates (one backend call)."""
    candidates = list(candidates)
    if not candidates:
        raise EmptyInputError("judge needs at least one candidate")
    resp = backend.respond(0, make_request("judge", "\n".join(candidates)))
    return resp.text


def run_mad(instruction: str, committee: CommitteeConfig, backend) -> str:
    """T debate rounds then judging; exactly agents * rounds + 1 calls."""
    state = ["" for _ in range(committee.agents)]
    for _ in range(committee.rounds):
        state = mad_round(state, committee, backend, instruction)
    return judge(state, backend)


def moa_aggregate(instruction: str, committee: CommitteeConfig, backend) -> str:
    """Layered committee: proposers then an aggregator per layer.

    Layer l proposers see [instruction; previous synthesis]; the mock
    aggregator emits the ordered dedup-union of the layer's candidates.
    Total calls are sum over layers of (width + 1).
    """
    if committee.mode != "moa":
        raise CommitteeConfigError("moa_aggregate requires MoA mode")
    synthesis = instruction
    for width in committee.layer_widths:
        text = instruction if synthesis == instruction else f"{instruction}\n{synthesis}"
        request = make_request("propose", text)
        answers = ask_all(backend, [(j, request) for j in range(1, width + 1)])
        candidates = [resp.text for resp in answers]
        agg = backend.respond(0, make_request("aggregate", " ".join(candidates)))
        synthesis = agg.text
    return synthesis


def score_clauses(clauses, coefs: np.ndarray) -> CritiqueReport:
    """Score every clause as 1 / (1 + MSE) against its unit coefficient.

    No clauses leave nothing to correct: the report is empty and scores 1.
    """
    clauses = list(clauses)
    if not clauses:
        return CritiqueReport(clauses=(), mean_score=1.0)
    scored = []
    for clause in clauses:
        coef = float(coefs[clause.clause_id])
        mse = (coef - 1.0) ** 2
        scored.append(replace(clause, score=1.0 / (1.0 + mse)))
    mean = sum(c.score for c in scored) / len(scored)
    return CritiqueReport(clauses=tuple(scored), mean_score=mean)


def merge_topk(base: PromptBundle, clauses, k_edit: int) -> PromptBundle:
    """Append the k_edit lowest-scoring clauses, then enforce the budget.

    Over budget, appended tokens that duplicate an earlier token are
    pruned first; after that, the lowest-salience tokens go (ties resolved
    from the end), so base filler is dropped before fresh edits.
    """
    if k_edit < 0:
        raise ValueError("k_edit must be >= 0")
    K = base.budget
    scored = [c for c in clauses if c.score is not None]
    scored.sort(key=lambda c: (c.score, c.clause_id))
    selected = scored[:k_edit]

    entries = [(t, s, False) for t, s in zip(base.tokens, base.salience)]
    entries += [
        (token, 1.0 - clause.score, True) for clause in selected for token in clause.text
    ]

    # Pass 1: in order, drop appended tokens that repeat an earlier token
    # while over budget.  A dropped token leaves an earlier equal one kept.
    excess = len(entries) - K
    seen = set()
    kept = []
    for token, salience, appended in entries:
        if excess > 0 and appended and token in seen:
            excess -= 1
        else:
            kept.append((token, salience))
        seen.add(token)
    # Pass 2: drop the excess lowest-salience tokens, ties from the end.
    # Dropping one changes no other's key or order, so one sort suffices.
    if excess > 0:
        order = sorted(range(len(kept)), key=lambda idx: (kept[idx][1], -idx))
        victims = set(order[:excess])
        kept = [e for idx, e in enumerate(kept) if idx not in victims]

    return PromptBundle(tuple(t for t, _ in kept), tuple(s for _, s in kept), K)
