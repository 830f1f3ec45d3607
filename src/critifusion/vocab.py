"""Descriptor vocabulary shared by the toy conditioning and mock agents.

Each of the 16 basis patterns has a canonical descriptor word.  Mock agent
``i`` speaks an id-keyed lexicon in which the descriptor for pattern ``j``
is the canonical word with the agent id appended (``ember`` -> ``ember3``);
resolution strips trailing digits, so every dialect maps back to the same
pattern.  Agent coverage grows with id, which makes ensemble-size sweeps
change the reachable descriptor set.  Descriptors are paired (j <-> j^1):
an agent that sees one half of a pair proposes the other, which is the
deterministic stand-in for LLM prompt enrichment.
"""

from __future__ import annotations

import re
from functools import lru_cache

from .basis import N_BASIS

CANONICAL_NAMES = (
    "aurora",
    "basalt",
    "cobalt",
    "dune",
    "ember",
    "fjord",
    "garnet",
    "harbor",
    "iris",
    "jade",
    "krait",
    "lotus",
    "meadow",
    "nimbus",
    "onyx",
    "prism",
)

assert len(CANONICAL_NAMES) == N_BASIS

# Coverage saturates at 6 + 2 * 5 = 16 patterns, so larger committees would
# just repeat existing lexicons.
MAX_AGENTS = 5

_NAME_TO_INDEX = {name: j for j, name in enumerate(CANONICAL_NAMES)}
_PUNCT = re.compile(r"[^a-z0-9\s]+")
_TRAILING_DIGITS = re.compile(r"[0-9]+$")


def tokenize(text: str) -> list[str]:
    """Lowercase, strip punctuation, whitespace-split; one token = one budget unit."""
    return _PUNCT.sub(" ", text.lower()).split()


# A run resolves the same few dozen words hundreds of times.
@lru_cache(maxsize=4096)
def resolve_token(token: str):
    """Basis index for a descriptor token in any agent dialect, else None."""
    stem = _TRAILING_DIGITS.sub("", token)
    return _NAME_TO_INDEX.get(stem)


def descriptor_indices(tokens) -> list[int]:
    """Ordered, de-duplicated basis indices referenced by the tokens."""
    seen: list[int] = []
    for token in tokens:
        j = resolve_token(token)
        if j is not None and j not in seen:
            seen.append(j)
    return seen


def lexicon_word(agent_id: int, index: int) -> str:
    """Descriptor for pattern ``index`` in agent ``agent_id``'s dialect."""
    name = CANONICAL_NAMES[index]
    return name if agent_id == 0 else f"{name}{agent_id}"


def coverage(agent_id: int) -> frozenset[int]:
    """Pattern indices agent ``agent_id`` can talk about (0 = full coverage)."""
    if agent_id == 0:
        return frozenset(range(N_BASIS))
    return frozenset(range(min(N_BASIS, 6 + 2 * agent_id)))


def associate(index: int) -> int:
    """Paired descriptor used for enrichment.

    Patterns 0..13 come in (j, j^1) pairs; the last two descriptors are
    self-paired, so a prompt naming only one of them stays a single clause.
    The map is an involution, which keeps fully paired prompts closed under
    committee enrichment.
    """
    return index if index >= 14 else index ^ 1
