"""critifusion benchmark: one workload per run, outputs checked on every op.

Run from the root of a critifusion checkout:

    python3 perfbench/run.py --workload gen_ddpm_256 --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run; BENCHMARK.json names both sets and their units.
The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See perfbench/README.md.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
STATE = HERE / ".state"
SETUP_SAMPLES = 3
# A run stops at the first op that ends past --seconds; this cap keeps a
# pathologically slow run inside the 180 s exit limit.
HARD_CAP_S = 120.0
POOL_BLOCKS = 20  # blocks of natural inputs generated during set-up
KEPT_FINGERPRINTS = 13  # ops per workload and seed compared across runs


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_program():
    """Put the checkout's ``src`` first on sys.path; refuse any other copy."""
    src = (Path.cwd() / "src").resolve()
    if not (src / "critifusion" / "__init__.py").is_file():
        sys.exit("perfbench: no src/critifusion here; run from a critifusion checkout")
    sys.path[:0] = [str(src), str(HERE)]
    import critifusion

    if not Path(critifusion.__file__).resolve().is_relative_to(src):
        sys.exit(f"perfbench: imported critifusion from {critifusion.__file__}, not {src}")


def ok_rate(results):
    seconds = sum(r.seconds for r in results)
    return sum(r.ok for r in results) / seconds if seconds else 0.0


class Bench:
    def __init__(self, args):
        import inputs
        import workloads

        if args.workload not in workloads.WORKLOADS:
            sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
        self.args = args
        self.inputs = inputs
        self.workloads = workloads
        self.workload = workloads.WORKLOADS[args.workload]()
        self.capture = workloads.RunCapture()
        self.drawn = 0  # natural inputs drawn so far
        self.pool = []  # the drawn inputs of the workload's bands, in order
        self.draw(POOL_BLOCKS * inputs.BLOCK)

    def draw(self, n):
        natural = [self.inputs.op_input(self.args.seed, i) for i in range(self.drawn, self.drawn + n)]
        self.drawn += n
        self.pool += [inp for inp in natural if inp.band in self.workload.bands]

    def op(self, position):
        """Run the ``position``-th timed input of this workload."""
        while position >= len(self.pool):
            self.draw(self.inputs.BLOCK)
        return self.workloads.run_op(self.workload, self.capture, self.pool[position])

    def ops_for(self, seconds):
        """Timed ops from position 0 until ``seconds`` have passed."""
        results = []
        start = time.perf_counter()
        while time.perf_counter() - start < min(seconds, HARD_CAP_S):
            results.append(self.op(len(results)))
        return results

    def probe_inputs(self):
        """The first block's natural inputs of the bands the workload skips."""
        natural = (self.inputs.op_input(self.args.seed, i) for i in range(self.inputs.BLOCK))
        return [inp for inp in natural if inp.band not in self.workload.bands]

    def defect_probe(self):
        """Run the probe inputs untimed through the workload's op.

        They name only descriptors the committee cannot cover, so today each
        fails with the known empty-clause defect.  An op that succeeds (the
        defect fixed) passes if its outputs check out; any other failure is a
        violation.
        """
        return [self.workloads.run_op(self.workload, self.capture, inp)
                for inp in self.probe_inputs()]

    def traced(self, n_ops):
        """Re-run the first ``n_ops`` timed inputs with every layer wrapped."""
        import layers
        from tracer import Tracer

        tracer = Tracer()
        stub = self.workload.stub
        requests_before = stub.requests if stub else 0
        layers.install(tracer)
        try:
            results = []
            for index in range(n_ops):
                tracer.op = index
                results.append(self.op(index))
        finally:
            tracer.restore()
        STATE.mkdir(exist_ok=True)
        tracer.write(STATE / f"spans-{self.args.workload}.jsonl")
        values = layers.layer_metrics(
            tracer,
            results,
            self.workloads.STUB_DELAY_S if stub else 0.0,
            stub.requests - requests_before if stub else None,
        )
        return results, values


def setup_samples(args):
    """Set-up time and warm-up fingerprint of fresh set-up-only processes."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    samples = []
    for _ in range(SETUP_SAMPLES - 1):
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
        samples.append(json.loads(out.stdout.strip().splitlines()[-1]))
    return samples


def fingerprint_violations(key, fingerprints):
    """Every op index must give one fingerprint, in this run and earlier ones.

    ``fingerprints`` maps op index -> the fingerprints this run saw for it.
    Returns (op index, message) pairs.  The first ops' fingerprints are kept
    on disk for later runs of ``key``.
    """
    STATE.mkdir(exist_ok=True)
    path = STATE / "fingerprints.json"
    stored = json.loads(path.read_text()) if path.exists() else {}
    earlier = stored.setdefault(key, {})
    out = []
    for index, fps in sorted(fingerprints.items()):
        if len(set(fps)) > 1:
            out.append((index, "gave different outputs within one run"))
        previous = earlier.get(str(index))
        if previous is not None and previous != fps[0]:
            out.append((index, "differs from an earlier run with the same seed"))
        if index < KEPT_FINGERPRINTS:
            earlier[str(index)] = fps[0]
    path.write_text(json.dumps(stored, indent=0, sort_keys=True))
    return out


def report_probe(probe):
    """Print the probe's outcome; returns how many hit the known defect."""
    for r in probe:
        outcome = "known defect, EmptyInputError at score_clauses" if r.known_defect else (
            "ok: the known defect no longer shows" if r.ok else "failed otherwise")
        print(f"# defect probe, input {r.index}: {outcome}")
    return sum(r.known_defect for r in probe)


def end_to_end(name, results, setup_s):
    import numpy as np
    import workloads

    ok = [r for r in results if r.ok]
    latencies = [1e3 * r.seconds for r in ok] or [0.0]
    q = workloads.TAIL_PERCENTILE[name]
    tail = float(np.percentile(latencies, q))
    finals = [run.record.alignment["final"] for r in ok for run in r.runs]
    print(f"# {name}: {len(results)} ops, {len(ok)} ok; op_tail_ms is p{q} of "
          f"{len(ok)} ok ops, {sum(v > tail for v in latencies)} beyond it")
    return {
        "ops_per_s": ok_rate(results),
        "op_p50_ms": float(np.percentile(latencies, 50)),
        "op_tail_ms": tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
        "alignment_final_mean": statistics.fmean(finals) if finals else 0.0,
    }


def main(argv=None):
    import clock

    args = parse_args(argv)
    clock.pin()
    # Net set-up clock; the few milliseconds before pinning count as wall time.
    t0 = clock.now() - (time.perf_counter() - _T0)
    os.environ["NO_PROXY"] = os.environ["no_proxy"] = "127.0.0.1,localhost"
    # One client thread (plus the stub's): numpy's BLAS must not add workers.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    import_program()
    spec = json.loads(Path("BENCHMARK.json").read_text())
    bench = Bench(args)
    bench.workload.start()
    try:
        with bench.capture:
            warm = bench.op(0)
            setup_s = clock.now() - t0
            if args.setup_only:
                print(json.dumps({"setup_s": setup_s, "fingerprint": warm.fingerprint()}))
                return 0
            timed = bench.ops_for(args.seconds / 2 if args.trace else args.seconds)
            traced, values = bench.traced(len(timed)) if args.trace else ([], {})
            probe = bench.defect_probe()
    finally:
        bench.workload.stop()

    results = timed + traced
    fingerprints = {warm.index: [warm.fingerprint()]}
    if not args.trace:
        samples = setup_samples(args)
        fingerprints[warm.index] += [s["fingerprint"] for s in samples]
        setup_s = statistics.median([setup_s] + [s["setup_s"] for s in samples])
    for r in results + probe:
        fingerprints.setdefault(r.index, []).append(r.fingerprint())
    for index, message in fingerprint_violations(f"{args.workload}:{args.seed}", fingerprints):
        for r in results + probe:
            if r.index == index:
                r.violations.append(message)

    defect_hits = report_probe(probe)
    if args.trace:
        values["criticore.empty_clause_failures"] = defect_hits
        untraced_rate, traced_rate = ok_rate(timed), ok_rate(traced)
        values["trace.untraced_ops_per_s"] = untraced_rate
        values["trace.traced_ops_per_s"] = traced_rate
        values["trace.overhead_share"] = 1.0 - traced_rate / untraced_rate if untraced_rate else 0.0
        declared = spec["per_layer"]
    else:
        values = end_to_end(args.workload, timed, setup_s)
        declared = spec["end_to_end"]
    if sorted(values) != sorted(m["name"] for m in declared):
        sys.exit(f"perfbench: computed metrics {sorted(values)} do not match BENCHMARK.json")

    for r in results + probe:
        for v in r.violations:
            print(f"# op {r.index}: {v}")
    print(json.dumps({
        "correct": not any(r.violations for r in results + probe),
        "attempted": len(results),
        "failed": sum(not r.ok for r in results),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
