"""Tests of the benchmark's own parts: input generator, tracer, agent stub.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from critifusion.agents import (  # noqa: E402
    AgentEndpoint,
    HttpAgentBackend,
    make_request,
    mock_respond,
)

from inputs import BLOCK, VOCABULARY, band_of, op_input  # noqa: E402
from run import Bench  # noqa: E402
from stub_server import StubAgentServer  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402


class TestGenerator:
    def test_same_seed_same_inputs(self):
        assert [op_input(7, i) for i in range(40)] == [op_input(7, i) for i in range(40)]

    def test_seeds_differ(self):
        assert [op_input(1, i).prompt for i in range(13)] != [
            op_input(2, i).prompt for i in range(13)
        ]

    def test_prompts_are_natural_draws_in_their_band(self):
        for i in range(78):
            inp = op_input(3, i)
            assert 1 <= len(inp.descriptors) <= 4
            assert len(set(inp.descriptors)) == len(inp.descriptors)
            assert band_of(inp.descriptors) == inp.band
            words = inp.prompt.split()
            assert sorted(w for w in words if w in VOCABULARY) == sorted(
                VOCABULARY[j] for j in inp.descriptors
            )

    def test_band_counts_match_natural_rates_per_block(self):
        for seed in (0, 5):
            bands = [op_input(seed, i).band for i in range(6 * BLOCK)]
            for k in range(1, 7):
                prefix = bands[: k * BLOCK]
                assert prefix.count("C") == k  # 1/13 of ops
                assert prefix.count("B") == int(11 * k / 6 + 0.5)  # 11/78


class TestTimedAndProbedInputs:
    def test_first_block_splits_between_timed_loop_and_probe(self):
        import argparse

        for name, probed in (("gen_ddpm_256", 1), ("sweeps_64", 3), ("remote_committee", 1)):
            for seed in (0, 9):
                bench = Bench(argparse.Namespace(workload=name, seed=seed))
                probe = {inp.index for inp in bench.probe_inputs()}
                timed = {inp.index for inp in bench.pool if inp.index < BLOCK}
                assert len(probe) == probed
                assert probe.isdisjoint(timed) and probe | timed == set(range(BLOCK))
                assert {inp.band for inp in bench.pool} <= set(bench.workload.bands)


class TestSelfTime:
    def test_nested_spans(self):
        spans = [
            ["root", 0.0, 10.0, -1, 0],
            ["child", 1.0, 4.0, 0, 0],
            ["grandchild", 2.0, 3.0, 1, 0],
            ["child", 5.0, 9.0, 0, 0],
        ]
        assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]

    def test_overlapping_children_counted_once(self):
        spans = [
            ["root", 0.0, 10.0, -1, 0],
            ["a", 1.0, 5.0, 0, 0],
            ["b", 3.0, 7.0, 0, 0],
            ["c", 8.0, 12.0, 0, 0],
        ]
        assert self_times(spans)[0] == 10.0 - 6.0 - 2.0

    def test_wrapped_calls_nest(self):
        import types

        tracer = Tracer()
        mod = types.SimpleNamespace()
        mod.inner = lambda: None
        mod.outer = lambda: mod.inner()
        tracer.wrap(mod, "inner", "inner")
        tracer.wrap(mod, "outer", "outer")
        tracer.op = 4
        mod.outer()
        tracer.restore()
        assert [(s[0], s[3], s[4]) for s in tracer.spans] == [("outer", -1, 4), ("inner", 0, 4)]
        total = tracer.spans[0][2] - tracer.spans[0][1]
        inner = tracer.spans[1][2] - tracer.spans[1][1]
        assert abs(self_times(tracer.spans)[0] - (total - inner)) < 1e-12
        mod.outer()
        assert len(tracer.spans) == 2


def _bodies():
    return [
        {"model": f"seat-{a}", "messages": [{"role": "system", "content": "propose"},
                                            {"role": "user", "content": f"aurora {w}"}]}
        for a in range(4)
        for w in VOCABULARY
    ]


class TestStub:
    def test_503_choice_ignores_order(self):
        def failing(bodies):
            stub = StubAgentServer(0.0)
            return {b["model"] + b["messages"][1]["content"]
                    for b in bodies if stub.decide(b) == 503}

        bodies = _bodies()
        forward = failing(bodies)
        assert forward and failing(list(reversed(bodies))) == forward
        assert failing(bodies[1::2] + bodies[::2]) == forward

    def test_each_body_fails_once_until_reset(self):
        stub = StubAgentServer(0.0)
        statuses = [[stub.decide(b) for b in _bodies()] for _ in range(2)]
        assert 503 in statuses[0] and 503 not in statuses[1]
        stub.reset()
        assert [stub.decide(b) for b in _bodies()] == statuses[0]
        assert stub.requests == 3 * len(_bodies())

    def test_http_round_trip_matches_mock_and_order(self):
        stub = StubAgentServer(0.001)
        url = stub.start()
        try:
            seats = {a: HttpAgentBackend(AgentEndpoint(url, f"seat-{a}", timeout=5.0,
                                                       backoff=0.0)) for a in range(4)}
            calls = [(a, make_request("propose", f"aurora {w}"))
                     for a in range(4) for w in VOCABULARY]

            def send(order):
                stub.reset()
                before = stub.failures
                texts = {(a, req): seats[a].respond(a, req).text for a, req in order}
                return stub.failures - before, texts

            failures, texts = send(calls)
            assert failures > 0
            assert send(list(reversed(calls))) == (failures, texts)
            assert all(text == mock_respond(a, req).text for (a, req), text in texts.items())
        finally:
            stub.stop()
