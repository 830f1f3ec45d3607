"""Command-line entry point.

Subcommands: generate, refine, sweep-k, ablate, sweep-ensemble, inspect.
Exit codes: 0 success, 1 run failure, 2 config/argument error.  Every
output file lands under the --out directory, which is created only when the
first of them is written, so an error before that leaves no directory.
Before that first write a command removes the outputs an earlier command
left there, and nothing else, so the directory holds one command's outputs.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .agents import AgentError, HttpAgentBackend
from .config import ConfigError, load_config
from .latents import LatentError, latent_digest, read_latent, write_latent
from .pipeline import (
    ABLATABLE,
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

EXIT_OK = 0
EXIT_RUN_FAILURE = 1
EXIT_CONFIG = 2

LATENT_FILES = {"z_base": "z_base.crtf", "z_ref": "z_ref.crtf", "z_fused": "z_fused.crtf"}
# Every name a command writes under --out.
OUTPUT_FILES = ("record.jsonl", "sweep.jsonl", *LATENT_FILES.values(), "image.ppm")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="critifusion")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="key=value config file")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="seed override")
        p.add_argument("--prompt", default=None, help="prompt override")

    gen = sub.add_parser("generate", help="run the full pipeline from a prompt")
    refine = sub.add_parser("refine", help="refine an existing base latent")
    for p in (gen, refine):
        common(p)
        p.add_argument("--dump-image", action="store_true", help="write a PPM preview")
    refine.add_argument("--latent", required=True, help="base latent file (CRTFLAT1)")
    sweep = sub.add_parser("sweep-k", help="sweep the corrective step count")
    common(sweep)
    sweep.add_argument("--k", required=True, help="comma-separated k values")
    abl = sub.add_parser("ablate", help="component ablation table")
    common(abl)
    abl.add_argument("--mask", default=",".join(ABLATABLE), help="components to drop")
    ens = sub.add_parser("sweep-ensemble", help="sweep the committee width")
    common(ens)
    ens.add_argument("--sizes", required=True, help="comma-separated widths")
    ins = sub.add_parser("inspect", help="report and verify a run record")
    ins.add_argument("record", help="record file (one JSON object per line)")
    return parser


def _load(args):
    path = Path(args.config)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.prompt is not None:
        overrides["prompt"] = args.prompt
    return load_config(path.read_text(encoding="utf-8"), overrides)


def _make_backend(config, endpoint):
    """The HTTP backend, or None for the built-in mock, whose answers a
    sweep may reuse across rows."""
    if config.agent_backend == "http":
        return HttpAgentBackend(endpoint)
    return None


def _int_list(raw: str):
    try:
        return [int(part) for part in raw.split(",") if part.strip()]
    except ValueError as exc:
        raise SweepConfigError(f"bad integer list {raw!r}") from exc


def _fresh_out(args) -> Path:
    """The --out directory, created, without an earlier command's outputs."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name in OUTPUT_FILES:
        (out / name).unlink(missing_ok=True)
    return out


def _run_single(args) -> int:
    config, endpoint = _load(args)
    base_latent = read_latent(args.latent) if args.subcommand == "refine" else None
    backend = _make_backend(config, endpoint)
    record, latents = run_critifusion(config, backend, base_latent=base_latent)
    out = _fresh_out(args)
    write_run_record(record, out / "record.jsonl")
    for name, filename in LATENT_FILES.items():
        if name in latents:
            write_latent(latents[name], out / filename)
    if args.dump_image:
        write_ppm(latents["z_fused"], out / "image.ppm")
    print(
        f"{args.subcommand}: seed={record.base_seed} "
        f"base={record.alignment['base']:.6f} final={record.alignment['final']:.6f} "
        f"T'={record.cadr['T_prime']} -> {out / 'record.jsonl'}"
    )
    return EXIT_OK


def _run_sweep(args) -> int:
    config, endpoint = _load(args)
    backend = _make_backend(config, endpoint)
    if args.subcommand == "sweep-k":
        table = sweep_k(config, _int_list(args.k), backend)
    elif args.subcommand == "ablate":
        mask = [part.strip() for part in args.mask.split(",") if part.strip()]
        table = ablate(config, mask, backend)
    else:
        table = sweep_ensemble(config, _int_list(args.sizes), backend)
    _write_rows(_fresh_out(args), args, table)
    return EXIT_OK


def _write_rows(out: Path, args, table) -> None:
    path = out / "sweep.jsonl"
    write_sweep_table(table, path)
    for row in table.rows:
        print(
            f"{args.subcommand}: {table.axis}={row['axis_value']} "
            f"base={row['base_score']:.6f} final={row['final_score']:.6f}"
        )
    print(f"{len(table.rows)} rows -> {path}")


def inspect(record_path: str) -> int:
    """Print a run report and verify latent digests against sibling files."""
    path = Path(record_path)
    if not path.is_file():
        raise ConfigError(f"record file not found: {path}")
    try:
        records = read_records(path)
    except ValueError as exc:
        raise ConfigError(f"malformed record line: {exc}") from exc
    if not records:
        raise ConfigError(f"empty record file: {path}")
    exit_code = EXIT_OK
    for data in records:
        if data.get("kind") != "run_record":
            print(f"skipping non-run line of kind {data.get('kind')!r}")
            continue
        print(f"record: status={data['status']} seed={data['base_seed']}")
        print(f"  stages: {' -> '.join(data['stages'])}")
        if data.get("failed_stage"):
            print(f"  FAILED at stage: {data['failed_stage']}")
        if data.get("mean_score") is not None:
            print(f"  mean clause score: {data['mean_score']:.6f}")
        if data.get("alignment"):
            print(f"  alignment: {data['alignment']}")
        if data.get("cadr"):
            print(f"  cadr: {data['cadr']}")
        if data.get("degraded_calls"):
            print(f"  degraded_calls: {data['degraded_calls']} (answered by the mock)")
        for name, digest in sorted((data.get("digests") or {}).items()):
            sibling = path.parent / LATENT_FILES.get(name, "")
            if not sibling.is_file():
                print(f"  digest {name}: {digest} (no latent file)")
                continue
            try:
                actual = latent_digest(read_latent(sibling))
            except LatentError as exc:
                print(f"  digest UNREADABLE at stage output {name}: {sibling}: {exc}")
                exit_code = EXIT_RUN_FAILURE
                continue
            if actual == digest:
                print(f"  digest {name}: verified")
            else:
                print(f"  digest MISMATCH at stage output {name}: {sibling}")
                exit_code = EXIT_RUN_FAILURE
    return exit_code


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        if args.subcommand == "inspect":
            return inspect(args.record)
        run = _run_single if args.subcommand in ("generate", "refine") else _run_sweep
        try:
            return run(args)
        except StageFailure as exc:  # the failed run's partial record, sweeps too
            out = _fresh_out(args)
            if exc.finished is not None and exc.finished.rows:
                _write_rows(out, args, exc.finished)
            write_run_record(exc.record, out / "record.jsonl")
            print(f"run failed at stage {exc.stage}: {exc.cause}", file=sys.stderr)
            return EXIT_RUN_FAILURE
    except (ConfigError, SweepConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (AgentError, LatentError, OSError) as exc:
        print(f"run error: {exc}", file=sys.stderr)
        return EXIT_RUN_FAILURE


if __name__ == "__main__":
    sys.exit(main())
