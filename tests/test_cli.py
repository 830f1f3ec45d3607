"""Command-line interface: exit codes, outputs, determinism, inspection."""

import json
import math

import numpy as np
import pytest

from critifusion.cadr import CadrConfig
from critifusion.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUN_FAILURE, main
from critifusion.latents import LatentField, write_latent
from critifusion.pipeline import (
    PipelineConfig,
    StageFailure,
    run_critifusion,
    write_run_record,
)


@pytest.fixture()
def cfg_file(tmp_path):
    path = tmp_path / "toy.cfg"
    path.write_text("prompt = aurora\nseed = 3\n", encoding="utf-8")
    return path


def read_record(out_dir):
    lines = (out_dir / "record.jsonl").read_text().splitlines()
    return [json.loads(line) for line in lines if line]


class TestGenerate:
    def test_success_and_outputs(self, tmp_path, cfg_file, capsys):
        out = tmp_path / "run"
        code = main(["generate", "--config", str(cfg_file), "--out", str(out)])
        assert code == EXIT_OK
        assert (out / "record.jsonl").is_file()
        for name in ("z_base.crtf", "z_ref.crtf", "z_fused.crtf"):
            assert (out / name).is_file()
        assert "generate:" in capsys.readouterr().out

    def test_determinism(self, tmp_path, cfg_file):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["generate", "--config", str(cfg_file), "--out", str(out1)]) == 0
        assert main(["generate", "--config", str(cfg_file), "--out", str(out2)]) == 0
        r1, r2 = read_record(out1)[0], read_record(out2)[0]
        r1.pop("wall_clock")
        r2.pop("wall_clock")
        assert r1 == r2

    def test_seed_override(self, tmp_path, cfg_file):
        out = tmp_path / "run"
        main(["generate", "--config", str(cfg_file), "--out", str(out), "--seed", "11"])
        assert read_record(out)[0]["base_seed"] == 11

    def test_prompt_override(self, tmp_path, cfg_file):
        out = tmp_path / "run"
        main(
            ["generate", "--config", str(cfg_file), "--out", str(out),
             "--prompt", "aurora basalt"]
        )
        rec = read_record(out)[0]
        assert rec["prompt"] == "aurora basalt"
        assert rec["cadr"]["T_prime"] == 0  # complete prompt skips

    def test_image_dump(self, tmp_path, cfg_file):
        out = tmp_path / "run"
        main(["generate", "--config", str(cfg_file), "--out", str(out), "--dump-image"])
        assert (out / "image.ppm").read_bytes().startswith(b"P6\n")


# Each row is rejected when the config is built, before any stage runs.
INVALID = [
    {"steps": 0},
    {"beta_start": 0.5, "beta_end": 0.1},
    {"budget": -1},
    {"budget": 0},
    {"gamma": 0},
    {"height": 8},
    {"channels": 0},
    {"base_guidance": -1},
    {"base_guidance": math.inf},
    {"cadr.lam_span": math.nan},
    {"cadr.g_min": math.nan},
    {"cadr.t_min": -40},
    {"prompt": "aurora basalt", "taper": 0.9},  # complete prompt: CADR skips
    {"diffusion_backend": "toy"},  # not a config key
]



# Sweep subcommands, each with its required axis argument.
SWEEPS = (["sweep-k", "--k", "0"], ["ablate"], ["sweep-ensemble", "--sizes", "1"])


def row_id(row):
    return ",".join(f"{k}={v}" for k, v in row.items())


class TestErrors:
    def test_missing_config_exit_2_no_outputs(self, tmp_path):
        out = tmp_path / "nope"
        code = main(
            ["refine", "--config", str(tmp_path / "missing.cfg"), "--out", str(out)]
        )
        assert code == EXIT_CONFIG
        assert not out.exists()

    def test_bad_config_key(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("prompt = aurora\nwarp.factor = 9\n")
        code = main(["generate", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG

    def test_unknown_flag(self, cfg_file):
        assert main(["generate", "--config", str(cfg_file), "--frobnicate"]) == 2

    def test_unknown_subcommand(self):
        assert main(["transmogrify"]) == 2

    @pytest.mark.parametrize("row", INVALID, ids=row_id)
    def test_invalid_value_exit_2_no_record(self, tmp_path, row):
        bad = tmp_path / "bad.cfg"
        bad.write_text(
            "prompt = aurora\n" + "".join(f"{k} = {v}\n" for k, v in row.items())
        )
        out = tmp_path / "o"
        code = main(["generate", "--config", str(bad), "--out", str(out)])
        assert code == EXIT_CONFIG
        assert not (out / "record.jsonl").exists()

    @pytest.mark.parametrize(
        "row",
        [row for row in INVALID if "diffusion_backend" not in row]
        + [{"refine_mode": "bogus"}],
        ids=row_id,
    )
    def test_invalid_value_rejected_when_built(self, row):
        cadr = {k[len("cadr."):]: v for k, v in row.items() if k.startswith("cadr.")}
        rest = {k: v for k, v in row.items() if not k.startswith("cadr.")}
        with pytest.raises(ValueError):
            PipelineConfig(**{"prompt": "aurora", **rest}, cadr=CadrConfig(**cadr))

    def test_duplicate_k(self, tmp_path, cfg_file):
        code = main(
            ["sweep-k", "--config", str(cfg_file), "--out", str(tmp_path / "o"),
             "--k", "1,1"]
        )
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize(
        "argv",
        [["sweep-k", "--k", ""], ["sweep-ensemble", "--sizes", ","]],
        ids=["k", "sizes"],
    )
    def test_empty_sweep_list_exit_2_no_rows(self, tmp_path, cfg_file, argv):
        out = tmp_path / "o"
        code = main(argv + ["--config", str(cfg_file), "--out", str(out)])
        assert code == EXIT_CONFIG
        assert not (out / "sweep.jsonl").exists()

    @pytest.mark.parametrize(
        "argv",
        [sub + ["--dump-image"] for sub in SWEEPS]
        + [sub + ["--jobs", "2"] for sub in (["generate"], ["refine"], *SWEEPS)],
        ids=" ".join,
    )
    def test_unregistered_flag_exit_2(self, tmp_path, cfg_file, argv):
        out = tmp_path / "o"
        code = main(argv + ["--config", str(cfg_file), "--out", str(out)])
        assert code == EXIT_CONFIG
        assert not out.exists()


class TestSweeps:
    def test_sweep_k_rows(self, tmp_path, cfg_file):
        out = tmp_path / "sw"
        code = main(
            ["sweep-k", "--config", str(cfg_file), "--out", str(out),
             "--k", "0,15,30"]
        )
        assert code == EXIT_OK
        rows = [
            json.loads(line)
            for line in (out / "sweep.jsonl").read_text().splitlines()
            if line
        ]
        assert len(rows) == 3
        assert [r["axis_value"] for r in rows] == [0, 15, 30]

    def test_ablate_rows(self, tmp_path, cfg_file):
        out = tmp_path / "ab"
        code = main(["ablate", "--config", str(cfg_file), "--out", str(out)])
        assert code == EXIT_OK
        rows = (out / "sweep.jsonl").read_text().splitlines()
        assert len(rows) == 4

    def test_sweep_ensemble(self, tmp_path, cfg_file):
        out = tmp_path / "ens"
        code = main(
            ["sweep-ensemble", "--config", str(cfg_file), "--out", str(out),
             "--sizes", "1,2"]
        )
        assert code == EXIT_OK
        assert len((out / "sweep.jsonl").read_text().splitlines()) == 2

    def test_sweep_ensemble_bad_size(self, tmp_path, cfg_file):
        code = main(
            ["sweep-ensemble", "--config", str(cfg_file),
             "--out", str(tmp_path / "o"), "--sizes", "9"]
        )
        assert code == EXIT_CONFIG


class TestRefine:
    def test_refine_from_latent(self, tmp_path, cfg_file):
        base_out = tmp_path / "base"
        main(["generate", "--config", str(cfg_file), "--out", str(base_out)])
        out = tmp_path / "refined"
        code = main(
            ["refine", "--config", str(cfg_file), "--out", str(out),
             "--latent", str(base_out / "z_base.crtf")]
        )
        assert code == EXIT_OK
        rec = read_record(out)[0]
        assert rec["digests"]["z_base"] == read_record(base_out)[0]["digests"]["z_base"]

    def test_refine_bad_latent(self, tmp_path, cfg_file):
        bad = tmp_path / "bad.crtf"
        bad.write_bytes(b"JUNKJUNK" + b"\x00" * 20)
        code = main(
            ["refine", "--config", str(cfg_file), "--out", str(tmp_path / "o"),
             "--latent", str(bad)]
        )
        assert code == EXIT_RUN_FAILURE

    def test_refine_latent_shape_mismatch_exit_1_no_record(self, tmp_path, cfg_file):
        small = tmp_path / "small.crtf"
        write_latent(LatentField(3, 32, 32, np.zeros((3, 32, 32))), small)
        out = tmp_path / "o"
        code = main(
            ["refine", "--config", str(cfg_file), "--out", str(out),
             "--latent", str(small)]
        )
        assert code == EXIT_RUN_FAILURE
        assert not (out / "record.jsonl").exists()


class TestInspect:
    def test_fresh_run_verifies(self, tmp_path, cfg_file, capsys):
        out = tmp_path / "run"
        main(["generate", "--config", str(cfg_file), "--out", str(out)])
        code = main(["inspect", str(out / "record.jsonl")])
        assert code == EXIT_OK
        text = capsys.readouterr().out
        assert text.count("verified") == 3
        assert "MISMATCH" not in text

    def test_tampered_latent_detected(self, tmp_path, cfg_file, capsys):
        out = tmp_path / "run"
        main(["generate", "--config", str(cfg_file), "--out", str(out)])
        target = out / "z_ref.crtf"
        blob = bytearray(target.read_bytes())
        blob[-1] ^= 0xFF
        target.write_bytes(bytes(blob))
        code = main(["inspect", str(out / "record.jsonl")])
        assert code == EXIT_RUN_FAILURE
        text = capsys.readouterr().out
        assert "MISMATCH at stage output z_ref" in text
        # only the tampered stage is reported
        assert text.count("MISMATCH") == 1
        assert text.count("verified") == 2

    def test_failed_record_reports_stage_exit_0(self, tmp_path, capsys):
        from test_pipeline import FailingBackend

        with pytest.raises(StageFailure) as exc:
            run_critifusion(PipelineConfig(prompt="aurora", seed=0), FailingBackend())
        path = tmp_path / "record.jsonl"
        write_run_record(exc.value.record, path)
        code = main(["inspect", str(path)])
        assert code == EXIT_OK
        assert "FAILED at stage: decompose_clauses" in capsys.readouterr().out

    def test_missing_record(self, tmp_path):
        assert main(["inspect", str(tmp_path / "none.jsonl")]) == EXIT_CONFIG
