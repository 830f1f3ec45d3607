"""Command-line interface: exit codes, outputs, determinism, inspection."""

import json
import math
import re
import struct

import numpy as np
import pytest

from critifusion import cli, pipeline
from critifusion.cadr import CadrConfig
from critifusion.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUN_FAILURE, main
from critifusion.latents import MAGIC, MAX_CHANNELS, LatentField, write_latent
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
    {"steps": 1001},  # one over MAX_STEPS
    {"cadr.t_span": 985},  # the longest corrective pass, 16 + 985, is 1001
    {"beta_start": 0.5, "beta_end": 0.1},
    {"budget": -1},
    {"budget": 0},
    {"gamma": 0},
    {"height": 8},
    {"channels": 0},
    # One over MAX_CHANNELS, on the smallest grid the toy basis allows.
    {"channels": 65537, "height": 16, "width": 16, "steps": 2},
    # Each dimension is in range, but one field would hold 2**31 values
    # (17 GB in float64): over MAX_ELEMENTS.  Only ever built, never run.
    {"channels": 128, "height": 4096, "width": 4096},
    {"cadr.lam_span": math.nan},
    {"cadr.g_min": math.nan},
    {"cadr.t_min": -40},
    {"cadr.rho_min": 1.5},
    {"cadr.rho_span": 2},
    {"cadr.lam_min": -0.5},
    {"cadr.lam_span": 5},
    {"prompt": "aurora basalt", "taper": 0.9},  # complete prompt: CADR skips
    # Deleted keys: no config names them any more.
    {"diffusion_backend": "toy"},
    {"base_guidance": 0},  # the toy's guidance scale cancels
]
DELETED_KEYS = {"diffusion_backend", "base_guidance"}



# Sweep subcommands, each with its required axis argument.
SWEEPS = (["sweep-k", "--k", "0"], ["ablate"], ["sweep-ensemble", "--sizes", "1"])
# The same subcommands with two rows each, and the first row's axis value.
TWO_ROWS = {
    "sweep-k": (["sweep-k", "--k", "0,30"], 0),
    "ablate": (["ablate", "--mask", "vlm"], "full"),
    "sweep-ensemble": (["sweep-ensemble", "--sizes", "1,2"], 1),
}


def row_id(row):
    return ",".join(f"{k}={v}" for k, v in row.items())


class TestErrors:
    def test_missing_config_exit_2_no_outputs(self, tmp_path):
        out = tmp_path / "nope"
        code = main(
            ["refine", "--config", str(tmp_path / "missing.cfg"), "--out", str(out),
             "--latent", str(tmp_path / "z_base.crtf")]
        )
        assert code == EXIT_CONFIG
        assert not out.exists()

    def test_refine_without_latent_exit_2(self, tmp_path, cfg_file):
        out = tmp_path / "o"
        code = main(["refine", "--config", str(cfg_file), "--out", str(out)])
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
    def test_invalid_value_exit_2_no_record(self, tmp_path, capsys, row):
        bad = tmp_path / "bad.cfg"
        bad.write_text(
            "prompt = aurora\n" + "".join(f"{k} = {v}\n" for k, v in row.items())
        )
        out = tmp_path / "o"
        code = main(["generate", "--config", str(bad), "--out", str(out)])
        assert code == EXIT_CONFIG
        assert not (out / "record.jsonl").exists()
        err = capsys.readouterr().err
        # The message names one of the row's keys as a whole key, not as
        # part of a longer identifier (taper_fraction does not name taper).
        named = (rf"(?<![\w.]){re.escape(key)}(?![\w.])" for key in row)
        assert any(re.search(pattern, err) for pattern in named), err

    @pytest.mark.parametrize("key", ["agent.timeout", "agent.backoff"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_agent_timing_exit_2_no_record(self, tmp_path, key, value):
        bad = tmp_path / "bad.cfg"
        bad.write_text(
            "prompt = aurora\nagent_backend = http\ndegrade = allow\n"
            f"agent.base_url = http://localhost:9\n{key} = {value}\n"
        )
        out = tmp_path / "o"
        code = main(["generate", "--config", str(bad), "--out", str(out)])
        assert code == EXIT_CONFIG
        assert not (out / "record.jsonl").exists()

    @pytest.mark.parametrize(
        "row",
        [row for row in INVALID if not DELETED_KEYS & row.keys()]
        + [{"refine_mode": "bogus"}],
        ids=row_id,
    )
    def test_invalid_value_rejected_when_built(self, row):
        cadr = {k[len("cadr."):]: v for k, v in row.items() if k.startswith("cadr.")}
        rest = {k: v for k, v in row.items() if not k.startswith("cadr.")}
        with pytest.raises(ValueError):
            PipelineConfig(**{"prompt": "aurora", **rest}, cadr=CadrConfig(**cadr))

    def test_max_channels_builds(self):
        # 2**16 channels fit under MAX_ELEMENTS on the smallest toy grid.
        PipelineConfig(prompt="aurora", channels=MAX_CHANNELS, height=16, width=16)

    def test_duplicate_k(self, tmp_path, cfg_file):
        out = tmp_path / "o"
        code = main(
            ["sweep-k", "--config", str(cfg_file), "--out", str(out), "--k", "1,1"]
        )
        assert code == EXIT_CONFIG
        assert not out.exists()

    def test_duplicate_sizes_exit_2_no_outputs(self, tmp_path, cfg_file):
        out = tmp_path / "o"
        code = main(
            ["sweep-ensemble", "--config", str(cfg_file), "--out", str(out),
             "--sizes", "1,1"]
        )
        assert code == EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [["sweep-k", "--k", ""], ["sweep-ensemble", "--sizes", ","]],
        ids=["k", "sizes"],
    )
    def test_empty_sweep_list_exit_2_no_rows(self, tmp_path, cfg_file, argv):
        out = tmp_path / "o"
        code = main(argv + ["--config", str(cfg_file), "--out", str(out)])
        assert code == EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [sub + ["--dump-image"] for sub in SWEEPS]
        + [sub + ["--jobs", "2"] for sub in (["generate"], ["refine"], *SWEEPS)]
        + [
            sub + [flag]
            for flag in ("-v", "--verbose")
            for sub in (["generate"], ["refine"], *SWEEPS)
        ],
        ids=" ".join,
    )
    def test_unregistered_flag_exit_2(self, tmp_path, cfg_file, argv):
        out = tmp_path / "o"
        if argv[0] == "refine":
            # so that only the flag under test is wrong
            argv = argv + ["--latent", str(tmp_path / "z_base.crtf")]
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

    def test_sweep_k_blend_exit_2_no_rows(self, tmp_path):
        cfg = tmp_path / "blend.cfg"
        cfg.write_text("prompt = aurora\nrefine_mode = blend\n", encoding="utf-8")
        out = tmp_path / "sw"
        code = main(
            ["sweep-k", "--config", str(cfg), "--out", str(out), "--k", "0,15,30"]
        )
        assert code == EXIT_CONFIG
        assert not (out / "sweep.jsonl").exists()

    def test_sweep_ensemble(self, tmp_path, cfg_file):
        out = tmp_path / "ens"
        code = main(
            ["sweep-ensemble", "--config", str(cfg_file), "--out", str(out),
             "--sizes", "1,2"]
        )
        assert code == EXIT_OK
        assert len((out / "sweep.jsonl").read_text().splitlines()) == 2

    @pytest.mark.parametrize("argv", SWEEPS, ids=lambda argv: argv[0])
    def test_failed_row_writes_partial_record_exit_1(
        self, tmp_path, cfg_file, monkeypatch, capsys, argv
    ):
        from test_pipeline import FailingBackend

        monkeypatch.setattr(cli, "_make_backend", lambda config, endpoint: FailingBackend())
        out = tmp_path / "o"
        code = main(argv + ["--config", str(cfg_file), "--out", str(out)])
        assert code == EXIT_RUN_FAILURE
        assert "run failed at stage aggregate" in capsys.readouterr().err
        [rec] = read_record(out)
        assert (rec["status"], rec["failed_stage"]) == ("failed", "aggregate")
        assert not (out / "sweep.jsonl").exists()

        # Only the last row fails: the row finished before it is written.
        monkeypatch.undo()
        runs = []

        def last_row_fails(config, backend=None, **kwargs):
            runs.append(config)
            if len(runs) == 2:
                backend = FailingBackend()
            return run_critifusion(config, backend, **kwargs)

        monkeypatch.setattr(pipeline, "run_critifusion", last_row_fails)
        two_rows, first_value = TWO_ROWS[argv[0]]
        out = tmp_path / "last"
        code = main(two_rows + ["--config", str(cfg_file), "--out", str(out)])
        assert code == EXIT_RUN_FAILURE
        lines = (out / "sweep.jsonl").read_text().splitlines()
        assert [json.loads(line)["axis_value"] for line in lines] == [first_value]
        [rec] = read_record(out)
        assert (rec["status"], rec["failed_stage"]) == ("failed", "aggregate")

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
        assert not out.exists()

    def test_refine_oversized_header_exit_1_no_traceback(self, tmp_path, cfg_file, capsys):
        huge = tmp_path / "huge.crtf"
        huge.write_bytes(MAGIC + struct.pack("<III", 4, 4096, 4096) + bytes(16))
        out = tmp_path / "o"
        code = main(
            ["refine", "--config", str(cfg_file), "--out", str(out), "--latent", str(huge)]
        )
        assert code == EXIT_RUN_FAILURE
        err = capsys.readouterr().err
        assert err.startswith("run error: ")
        assert "Traceback" not in err
        assert not out.exists()

    def test_refine_padded_latent_exit_1_no_out(self, tmp_path, cfg_file):
        base_out = tmp_path / "base"
        main(["generate", "--config", str(cfg_file), "--out", str(base_out)])
        padded = tmp_path / "padded.crtf"
        padded.write_bytes((base_out / "z_base.crtf").read_bytes() + b"junk")
        out = tmp_path / "o"
        code = main(
            ["refine", "--config", str(cfg_file), "--out", str(out),
             "--latent", str(padded)]
        )
        assert code == EXIT_RUN_FAILURE
        assert not out.exists()

    def test_stage_failure_writes_partial_record_exit_1(
        self, tmp_path, cfg_file, monkeypatch
    ):
        from test_pipeline import FailingBackend

        monkeypatch.setattr(cli, "_make_backend", lambda config, endpoint: FailingBackend())
        out = tmp_path / "o"
        code = main(["generate", "--config", str(cfg_file), "--out", str(out)])
        assert code == EXIT_RUN_FAILURE
        [rec] = read_record(out)
        assert (rec["status"], rec["failed_stage"]) == ("failed", "aggregate")


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

    def test_padded_latent_exit_1(self, tmp_path, cfg_file, capsys):
        out = tmp_path / "run"
        main(["generate", "--config", str(cfg_file), "--out", str(out)])
        target = out / "z_ref.crtf"
        target.write_bytes(target.read_bytes() + b"junk")
        code = main(["inspect", str(out / "record.jsonl")])
        assert code == EXIT_RUN_FAILURE
        text = capsys.readouterr().out
        unreadable = f"digest UNREADABLE at stage output z_ref: {target}: bytes follow"
        assert unreadable in text
        assert "digest z_base: verified" in text
        assert "digest z_fused: verified" in text

    def test_unreadable_first_sibling_checks_the_rest(self, tmp_path, cfg_file, capsys):
        out = tmp_path / "run"
        main(["generate", "--config", str(cfg_file), "--out", str(out)])
        target = out / "z_base.crtf"
        target.write_bytes(target.read_bytes()[:-1])
        code = main(["inspect", str(out / "record.jsonl")])
        assert code == EXIT_RUN_FAILURE
        text = capsys.readouterr().out
        assert "digest UNREADABLE at stage output z_base" in text
        assert text.count("UNREADABLE") == 1
        assert text.count("verified") == 2

    def test_failed_record_reports_stage_exit_0(self, tmp_path, capsys):
        from test_pipeline import FailingBackend

        with pytest.raises(StageFailure) as exc:
            run_critifusion(PipelineConfig(prompt="aurora", seed=0), FailingBackend())
        path = tmp_path / "record.jsonl"
        write_run_record(exc.value.record, path)
        code = main(["inspect", str(path)])
        assert code == EXIT_OK
        assert "FAILED at stage: aggregate" in capsys.readouterr().out

    def test_degraded_calls_reported(self, tmp_path, capsys):
        from test_pipeline import FailingBackend

        config = PipelineConfig(prompt="aurora", seed=0, degrade="allow")
        degraded, _ = run_critifusion(config, FailingBackend())
        healthy, _ = run_critifusion(config)
        path = tmp_path / "record.jsonl"
        write_run_record(healthy, path)
        assert main(["inspect", str(path)]) == EXIT_OK
        assert "degraded" not in capsys.readouterr().out
        write_run_record(degraded, path)
        assert main(["inspect", str(path)]) == EXIT_OK
        text = capsys.readouterr().out
        assert text.count("degraded_calls: 4 (answered by the mock)") == 1

    def test_null_optional_fields_exit_0(self, tmp_path, capsys):
        path = tmp_path / "record.jsonl"
        fields = ("failed_stage", "mean_score", "degraded_calls", "digests",
                  "alignment", "cadr")
        record = {"kind": "run_record", "status": "failed", "base_seed": 0,
                  "stages": [], **dict.fromkeys(fields)}
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        assert main(["inspect", str(path)]) == EXIT_OK
        assert "record: status=failed seed=0" in capsys.readouterr().out

    def test_missing_record(self, tmp_path):
        assert main(["inspect", str(tmp_path / "none.jsonl")]) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "lines, message",
        [
            (['{"kind": "run_record"}'], "line 1: run record lacks"),
            (["[1, 2]"], "line 1: not a JSON object"),
            (['{"kind": "sweep_row"}', '{"kind": "sweep_row"}', "not json"],
             "line 3: not JSON"),
            (['{"kind": "run_record", "status": "ok", "base_seed": 0, "stages": [],'
              ' "mean_score": "x"}'], "line 1: mean_score is not a number"),
            (['{"kind": "run_record", "status": "ok", "base_seed": 0, "stages": 5}'],
             "line 1: stages is not a list of strings"),
            (['{"kind": "sweep_row"}',
              '{"kind": "run_record", "status": "ok", "base_seed": 0, "stages": [],'
              ' "digests": []}'], "line 2: digests is not an object"),
        ],
        ids=["no_status", "not_object", "not_json", "mean_score_str", "stages_int",
             "digests_list"],
    )
    def test_malformed_line_exit_2(self, tmp_path, capsys, lines, message):
        path = tmp_path / "record.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["inspect", str(path)]) == EXIT_CONFIG
        assert f"malformed record line: {message}" in capsys.readouterr().err


# Runs the given CLI argv lists in order in a fresh interpreter and prints
# their exit codes and whether scipy was loaded.
SCIPY_PROBE = """
import json, sys
from critifusion.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "scipy": "scipy" in sys.modules}))
"""


def probe_scipy(runs):
    from test_agents import fresh_interpreter

    return json.loads(fresh_interpreter(SCIPY_PROBE, json.dumps(runs)).splitlines()[-1])


class TestNoRunImportsScipy:
    """The Gaussian draws are numpy's ziggurat, so no run loads scipy,
    under either sampler or refine mode."""

    def test_ddim_runs_and_sweeps_never_import_scipy(self, tmp_path, cfg_file):
        cfg, out = str(cfg_file), str(tmp_path)
        runs = [
            ["generate", "--config", cfg, "--out", f"{out}/gen"],
            ["refine", "--config", cfg, "--out", f"{out}/refine",
             "--latent", f"{out}/gen/z_base.crtf"],
            ["sweep-k", "--config", cfg, "--out", f"{out}/k", "--k", "0,10"],
            ["ablate", "--config", cfg, "--out", f"{out}/ablate"],
            ["sweep-ensemble", "--config", cfg, "--out", f"{out}/ens", "--sizes", "1,2"],
        ]
        assert probe_scipy(runs) == {"codes": [EXIT_OK] * len(runs), "scipy": False}

    def test_ddpm_runs_never_import_scipy_and_keep_their_pins(self, tmp_path):
        from test_golden import GOLDEN

        runs = []
        for mode in ("img2img", "blend"):
            cfg = tmp_path / f"{mode}.cfg"
            cfg.write_text(
                f"prompt = aurora\nseed = 3\nsampler = ddpm\nrefine_mode = {mode}\n",
                encoding="utf-8",
            )
            runs.append(["generate", "--config", str(cfg), "--out", str(tmp_path / mode)])
        assert probe_scipy(runs) == {"codes": [EXIT_OK, EXIT_OK], "scipy": False}
        for mode in ("img2img", "blend"):
            digests = read_record(tmp_path / mode)[0]["digests"]
            got = tuple(digests[name] for name in ("z_base", "z_ref", "z_fused"))
            assert got == GOLDEN[(3, "ddpm", mode)]
