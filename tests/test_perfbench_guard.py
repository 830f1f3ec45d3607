"""The program names perfbench binds by string still exist.

perfbench wraps pipeline functions by attribute name and reads
``forced_k`` off ``run_critifusion``'s signature.  A rename would only
show when the benchmark runs; these checks make it a test failure.
"""

import inspect
from pathlib import Path

import pytest

from critifusion import pipeline
from critifusion.pipeline import PipelineConfig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture()
def perfbench_on_path(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))


def test_every_traced_name_installs_and_restores(perfbench_on_path):
    import layers
    from tracer import Tracer

    originals = {
        (owner, attr): owner.__dict__[attr] for owner, attr, _ in layers.WRAPPED
    }
    tracer = Tracer()
    try:
        layers.install(tracer)
    finally:
        tracer.restore()
    for (owner, attr), original in originals.items():
        assert owner.__dict__[attr] is original, attr


def test_run_capture_binds_forced_k(perfbench_on_path):
    signature = inspect.signature(pipeline.run_critifusion)
    bound = signature.bind(PipelineConfig(), forced_k=0)
    assert bound.arguments["forced_k"] == 0


def test_workloads_import_and_capture_runs(perfbench_on_path):
    import workloads

    original = pipeline.run_critifusion
    with workloads.RunCapture():
        assert pipeline.run_critifusion is not original
    assert pipeline.run_critifusion is original
