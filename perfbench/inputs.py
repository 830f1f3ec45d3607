"""Seeded prompt generator for the benchmark workloads.

A natural prompt names 1-4 distinct descriptors, drawn uniformly from the
16-word vocabulary, mixed with 2-6 filler words.  Whether the default
committee can critique a prompt depends only on its descriptors' band:

* band ``A``: names one of descriptors 0-7 (probability 61/78);
* band ``B``: names none of 0-7 but one of 8-11 (11/78); a one-agent
  committee covers no clause, so the ensemble sweep fails on it;
* band ``C``: names only descriptors 12-15 (6/78 = 1/13); no agent of a
  three-wide committee covers it, so every workload fails on it.

Drawn independently, the first 13 inputs would hold anywhere from zero to
several band-C prompts, and so would the defect probe of ``run.py``, which
runs the first block's inputs a workload cannot complete.  So the draw is
stratified: every block of 13 inputs holds exactly one band-C prompt and the
band-B count of the first k blocks is round(11k/6).  A workload's timed ops
then also keep the natural band mix whatever the seed.  Each op then
draws a natural prompt by rejection until it falls in its assigned band, so
within a band prompts keep their natural distribution.  Positions inside a
block and every prompt come from the seed alone; a given (seed, index)
always yields the same prompt.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

VOCABULARY = (
    "aurora", "basalt", "cobalt", "dune", "ember", "fjord", "garnet", "harbor",
    "iris", "jade", "krait", "lotus", "meadow", "nimbus", "onyx", "prism",
)
FILLER = (
    "a", "photo", "of", "the", "with", "bright", "over", "under", "soft",
    "light", "scene", "and", "in", "wide", "shot", "detailed", "at", "dusk",
)
BLOCK = 13
B_PER_SIX_BLOCKS = 11


@dataclass(frozen=True)
class OpInput:
    index: int
    prompt: str
    descriptors: tuple
    band: str
    seed: int


def band_of(descriptors) -> str:
    low = min(descriptors)
    if low < 8:
        return "A"
    return "B" if low < 12 else "C"


def _b_count(block: int) -> int:
    """Band-B prompts in ``block`` so that k blocks hold round(11k/6)."""

    def upto(k):
        return (2 * B_PER_SIX_BLOCKS * k + 6) // 12

    return upto(block + 1) - upto(block)


def _block_bands(seed: int, block: int) -> list[str]:
    rng = random.Random(f"bands:{seed}:{block}")
    bands = ["C"] + ["B"] * _b_count(block)
    bands += ["A"] * (BLOCK - len(bands))
    rng.shuffle(bands)
    return bands


def _natural(rng: random.Random) -> tuple:
    n = rng.randint(1, 4)
    return tuple(rng.sample(range(len(VOCABULARY)), n))


def op_input(seed: int, index: int) -> OpInput:
    """The ``index``-th input of the run seeded with ``seed``."""
    band = _block_bands(seed, index // BLOCK)[index % BLOCK]
    rng = random.Random(f"prompt:{seed}:{index}")
    descriptors = _natural(rng)
    while band_of(descriptors) != band:
        descriptors = _natural(rng)
    words = [VOCABULARY[j] for j in descriptors]
    words += [rng.choice(FILLER) for _ in range(rng.randint(2, 6))]
    rng.shuffle(words)
    return OpInput(
        index=index,
        prompt=" ".join(words),
        descriptors=descriptors,
        band=band,
        seed=rng.randrange(1 << 31),
    )
