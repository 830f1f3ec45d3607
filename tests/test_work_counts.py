"""Pinned work counts of the ``sweeps_64`` op shape.

One op is ``sweep_k`` over k = 0, 5, ..., 30, ``ablate`` of every
component and ``sweep_ensemble`` of sizes 1-5 on one config: 16 rows.
``WORK`` pins, per prompt, how many times the op calls each name below,
counted through wrappers.  Time on a shared machine moves from run to run;
these counts do not, so a change that adds or saves work shows here as a
named pin that moved.

``PYTHONPATH=src python tests/test_work_counts.py`` prints the current
pins in this file's literal format.
"""

import json
from collections import Counter

import pytest

from critifusion import pipeline
from critifusion.agents import MockAgentBackend
from critifusion.pipeline import ABLATABLE, PipelineConfig

# The names counted, as the pipeline calls them.
COUNTED = (
    "MockAgentBackend.respond",
    "moa_aggregate",
    "vlm_hints",
    "merge_topk",
    "score_clauses",
    "pattern_coefficients",
)

# prompt -> calls per op, in COUNTED's order
WORK = {
    "aurora": (32, 8, 8, 9, 20, 7),
    "aurora basalt": (32, 8, 8, 9, 19, 4),
    "dune at over lotus a with basalt at iris light": (32, 8, 8, 9, 20, 9),
}


def sweeps_64_op(prompt):
    config = PipelineConfig(prompt=prompt, seed=2)
    pipeline.sweep_k(config, range(0, 31, 5))
    pipeline.ablate(config, ABLATABLE)
    pipeline.sweep_ensemble(config, range(1, 6))


def counted_calls(patch, prompt):
    """Run one op with ``patch(owner, name, wrapper)`` wrapping each name."""
    counts = Counter()

    def counting(label, fn):
        def wrapper(*args, **kwargs):
            counts[label] += 1
            return fn(*args, **kwargs)

        return wrapper

    for label in COUNTED:
        owner, name = (
            (MockAgentBackend, "respond") if "." in label else (pipeline, label)
        )
        patch(owner, name, counting(label, getattr(owner, name)))
    sweeps_64_op(prompt)
    return tuple(counts[label] for label in COUNTED)


@pytest.mark.parametrize("prompt", sorted(WORK))
def test_sweeps_64_op_work_is_pinned(monkeypatch, prompt):
    assert counted_calls(monkeypatch.setattr, prompt) == WORK[prompt]


def print_pins():
    """Print WORK as computed now, in this file's format."""
    print("# prompt -> calls per op, in COUNTED's order")
    print("WORK = {")
    for prompt in WORK:
        patch = pytest.MonkeyPatch()
        try:
            counts = counted_calls(patch.setattr, prompt)
        finally:
            patch.undo()
        print(f"    {json.dumps(prompt)}: {counts},")
    print("}")


if __name__ == "__main__":
    print_pins()
