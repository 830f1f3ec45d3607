"""The three benchmark workloads, their per-op output checks and fingerprints.

Every workload is closed-loop with one client and no think time.  An op
draws its input from ``inputs.op_input(seed, index)`` and calls only the
public entry points of ``critifusion.pipeline`` (with ``critifusion.agents``
backends).  Pipeline runs are captured through a thin wrapper around
``pipeline.run_critifusion`` so that runs made inside the sweep harnesses
can be checked too.

Each workload times only prompts of the bands (see ``inputs``) its op can
complete; the others hit a known program defect and go to a separate,
untimed probe in ``run.py``.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import time
from dataclasses import dataclass, field

import numpy as np

from critifusion import pipeline
from critifusion.agents import AgentEndpoint, HttpAgentBackend
from critifusion.criticore import CommitteeConfig, EmptyInputError
from critifusion.latents import latent_digest
from critifusion.pipeline import ABLATABLE, STAGES, PipelineConfig, StageFailure

import clock
from inputs import OpInput
from stub_server import StubAgentServer

# Fixed stub delay per request: long enough that the committee dominates the
# op, short enough for ~80 ops in a 30 s run.
STUB_DELAY_S = 0.020
# op_tail_ms percentile per workload: the highest with at least 10 ops beyond
# it at the op counts of a 30 s run (about 22, 45 and 80 ops).
TAIL_PERCENTILE = {"gen_ddpm_256": 55, "sweeps_64": 75, "remote_committee": 85}


@dataclass
class Run:
    """One captured ``run_critifusion`` call."""

    record: object
    latents: dict | None
    forced_k: int | None
    error: Exception | None


@dataclass
class OpResult:
    index: int
    seconds: float  # net of steal, see clock.py
    runs: list
    table_lines: list = field(default_factory=list)
    error: Exception | None = None
    violations: list = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def known_defect(self) -> bool:
        """Failed with the empty-clause error no committee proposer can avoid."""
        return isinstance(self.error, StageFailure) and isinstance(
            self.error.cause, EmptyInputError
        )

    @property
    def ok(self) -> bool:
        return self.error is None and not self.violations

    def fingerprint(self) -> str:
        parts = [
            [
                r.record.status,
                r.record.failed_stage,
                sorted(r.record.digests.items()),
                repr(r.record.alignment.get("final")),
            ]
            for r in self.runs
        ]
        parts.append(self.table_lines)
        parts.append(type(self.error).__name__ if self.error else None)
        return hashlib.sha256(json.dumps(parts).encode("utf-8")).hexdigest()


class RunCapture:
    """Wraps ``pipeline.run_critifusion``; every call lands in ``runs``."""

    def __init__(self):
        self.runs: list[Run] = []
        self._original = pipeline.run_critifusion
        self._signature = inspect.signature(self._original)

    def __enter__(self):
        original, signature, runs = self._original, self._signature, self.runs

        def run_critifusion(*args, **kwargs):
            forced_k = signature.bind(*args, **kwargs).arguments.get("forced_k")
            try:
                record, latents = original(*args, **kwargs)
            except StageFailure as exc:
                runs.append(Run(exc.record, None, forced_k, exc))
                raise
            runs.append(Run(record, latents, forced_k, None))
            return record, latents

        pipeline.run_critifusion = run_critifusion
        return self

    def __exit__(self, *exc):
        pipeline.run_critifusion = self._original

    def take(self) -> list[Run]:
        out = self.runs[:]
        self.runs.clear()
        return out


def check_run(run: Run) -> list[str]:
    """Output checks for one captured pipeline run; returns violations."""
    record = run.record
    if run.error is not None:
        if record.status != "failed" or record.failed_stage != run.error.stage:
            return [f"failed run left record status={record.status!r} "
                    f"failed_stage={record.failed_stage!r}"]
        return []
    out = []
    if record.status != "ok":
        out.append(f"status {record.status!r}")
    missing = [s for s in STAGES if s not in record.wall_clock]
    if missing:
        out.append(f"untimed stages {missing}")
    for name in ("z_base", "z_ref", "z_fused"):
        if latent_digest(run.latents[name]) != record.digests.get(name):
            out.append(f"{name} does not re-hash to its recorded digest")
    if record.cadr.get("T_prime") == 0 or run.forced_k == 0:
        if not np.array_equal(run.latents["z_fused"].values, run.latents["z_base"].values):
            out.append("skip path changed z_fused away from z_base")
    final = record.alignment.get("final")
    if final is None or not (0.0 < final <= 1.0):
        out.append(f"final alignment {final!r} outside (0, 1]")
    return out


class SeatRouter:
    """Committee backend: each seat is its own model behind one gateway."""

    def __init__(self, base_url: str):
        self._base_url = base_url
        self._seats: dict[int, HttpAgentBackend] = {}

    def respond(self, agent_id, request):
        seat = self._seats.get(agent_id)
        if seat is None:
            seat = self._seats[agent_id] = HttpAgentBackend(
                AgentEndpoint(
                    base_url=self._base_url,
                    model_id=f"seat-{agent_id}",
                    timeout=5.0,
                    max_retries=2,
                    backoff=0.01,
                )
            )
        return seat.respond(agent_id, request)


class Workload:
    name = ""
    # Prompt bands the op completes on; prompts of other bands fail with the
    # known empty-clause defect and are only probed, never timed.
    bands = "AB"
    stub: StubAgentServer | None = None

    def start(self) -> None:
        pass

    def stop(self) -> None:
        pass

    def before_op(self) -> None:
        pass

    def op(self, inp: OpInput) -> list[str]:
        """Run one op; returns the sweep table lines it produced, if any."""
        raise NotImplementedError


class GenDdpm256(Workload):
    name = "gen_ddpm_256"

    def op(self, inp):
        config = PipelineConfig(
            prompt=inp.prompt, height=256, width=256, sampler="ddpm", seed=inp.seed
        )
        pipeline.run_critifusion(config)
        return []


class Sweeps64(Workload):
    name = "sweeps_64"
    # The one-agent row of sweep_ensemble covers descriptors 0-7 only.
    bands = "A"

    def op(self, inp):
        config = PipelineConfig(prompt=inp.prompt, seed=inp.seed)
        lines = []
        for table in (
            pipeline.sweep_k(config, range(0, 31, 5)),
            pipeline.ablate(config, ABLATABLE),
            pipeline.sweep_ensemble(config, range(1, 6)),
        ):
            lines += table.to_json_lines()
        return lines


class RemoteCommittee(Workload):
    name = "remote_committee"

    def start(self):
        self.stub = StubAgentServer(STUB_DELAY_S)
        self.backend = SeatRouter(self.stub.start())

    def stop(self):
        if self.stub is not None:
            self.stub.stop()

    def before_op(self):
        self.stub.reset()

    def op(self, inp):
        config = PipelineConfig(
            prompt=inp.prompt,
            seed=inp.seed,
            agent_backend="http",
            committee=CommitteeConfig(layer_widths=(3, 3)),
        )
        pipeline.run_critifusion(config, self.backend)
        return []


WORKLOADS = {w.name: w for w in (GenDdpm256, Sweeps64, RemoteCommittee)}


def run_op(workload: Workload, capture: RunCapture, inp: OpInput) -> OpResult:
    """Time one op, then check its outputs outside the timed region."""
    workload.before_op()
    start, wall_start = clock.now(), time.perf_counter()
    error, lines = None, []
    try:
        lines = workload.op(inp)
    except Exception as exc:  # every op failure is counted, never fatal
        error = exc
    seconds, wall_seconds = clock.now() - start, time.perf_counter() - wall_start
    result = OpResult(inp.index, seconds, capture.take(), lines, error,
                      wall_seconds=wall_seconds)
    for run in result.runs:
        result.violations += check_run(run)
        run.latents = None  # keep peak RSS to what one op needs
    if error is not None and not result.known_defect:
        result.violations.append(f"unexpected {type(error).__name__}: {error}")
    return result
