"""Golden SHA-256 digests of the three stage latents.

Two runs agreeing only shows determinism; these digests pin the exact
bits, so a refactor that drifts every run the same way still fails.  The
prompt ``aurora`` scores 0.75 and refines in every case with T' = 20, so
z_ref and z_fused are exercised, not copies of z_base.  The
committee mode does not change the clause set for this prompt, so the MoA
and MAD runs share one row.  DDIM's z_base is the prompt's target for every
seed, and the img2img z_ref is the enhanced prompt's target in every row:
both are closed forms, so their pins repeat.

``TABLES`` pins the SHA-256 of each sweep harness's JSON lines the same
way, for ``aurora`` and for the skip prompt ``aurora basalt`` (T' = 0).

``PYTHONPATH=src python tests/test_golden.py`` prints the current pins in
this file's literal format, so a named digest change re-pins by pasting
its output and the diff shows exactly which pins moved.
"""

import hashlib
import json

import pytest

from critifusion.criticore import CommitteeConfig
from critifusion.pipeline import (
    PipelineConfig,
    ablate,
    run_critifusion,
    sweep_ensemble,
    sweep_k,
)

# (seed, sampler, refine_mode) -> (z_base, z_ref, z_fused)
GOLDEN = {
    (0, "ddim", "img2img"): (
        "aceb9b15bb7608fd8b1b0d52ba10f61a3ed69877ce88d1c375375c71a37c4bac",
        "7dd6004b19d428284f7f9107d05a3b09190db4ed62a851b3feb715931a2de584",
        "0042be3600729604d063f59809cfdbe7207f512a720d534367f4d8eda718eef4",
    ),
    (0, "ddim", "blend"): (
        "aceb9b15bb7608fd8b1b0d52ba10f61a3ed69877ce88d1c375375c71a37c4bac",
        "153412daa230fd725ee7080801da76255cae4e25f550f54b14b30213027e0f58",
        "c43e1dd722c3d240f484efa1f7142a02c8a07f6a00660fc90a07ef4af135527c",
    ),
    (0, "ddpm", "img2img"): (
        "6344d1d13c8e1db40b1ef383071bb00bed9caec7eba8745a398559be3ed1ff9d",
        "7dd6004b19d428284f7f9107d05a3b09190db4ed62a851b3feb715931a2de584",
        "d785dbc2c2a053df6f0e3e8108143a72d22fced7e9976ed476251b32130c207e",
    ),
    (0, "ddpm", "blend"): (
        "6344d1d13c8e1db40b1ef383071bb00bed9caec7eba8745a398559be3ed1ff9d",
        "e9ad05dda90db19f4a7a07f56503a603dae5ad3db160d4f22937703a2a646b7a",
        "74a97203fe9dd8d8f91b90842e77172d17faaffdf203f8e6514d842e8e87e52c",
    ),
    (3, "ddim", "img2img"): (
        "aceb9b15bb7608fd8b1b0d52ba10f61a3ed69877ce88d1c375375c71a37c4bac",
        "7dd6004b19d428284f7f9107d05a3b09190db4ed62a851b3feb715931a2de584",
        "0042be3600729604d063f59809cfdbe7207f512a720d534367f4d8eda718eef4",
    ),
    (3, "ddim", "blend"): (
        "aceb9b15bb7608fd8b1b0d52ba10f61a3ed69877ce88d1c375375c71a37c4bac",
        "93a8aedacf2f780634a9c1faec1eb2113fbb0eee7a9fd0b8f753cc4a531ccacc",
        "c6a0c345a5f09d2b673d51851741dd65b607bd3be9942d23c2e88d46c162620e",
    ),
    (3, "ddpm", "img2img"): (
        "2f2a915395f7d8aaaff28ddd8486a7e31e02ac4d8610260aaca1603b4ce41e71",
        "7dd6004b19d428284f7f9107d05a3b09190db4ed62a851b3feb715931a2de584",
        "e546954b4ce05591d1ecd22cedb2a45550199691fae0e77e971b748755efbf4c",
    ),
    (3, "ddpm", "blend"): (
        "2f2a915395f7d8aaaff28ddd8486a7e31e02ac4d8610260aaca1603b4ce41e71",
        "bf653405c5d83e3f28fd6a991f3a94a98b997d0a284f6aaedfdd2dfd33881b7b",
        "f44eda3876db56cd9b36accb6571a57b464065375c5e4797ecd0f4813b6ba685",
    ),
}


def stage_digests(seed, sampler, refine_mode, committee_mode="moa"):
    config = PipelineConfig(
        prompt="aurora",
        seed=seed,
        sampler=sampler,
        refine_mode=refine_mode,
        committee=CommitteeConfig(mode=committee_mode),
    )
    record, _ = run_critifusion(config)
    assert record.cadr["T_prime"] == 20
    return tuple(record.digests[name] for name in ("z_base", "z_ref", "z_fused"))


@pytest.mark.parametrize("committee_mode", ["moa", "mad"])
@pytest.mark.parametrize("seed, sampler, refine_mode", sorted(GOLDEN))
def test_stage_digests_are_pinned(seed, sampler, refine_mode, committee_mode):
    got = stage_digests(seed, sampler, refine_mode, committee_mode)
    assert got == GOLDEN[(seed, sampler, refine_mode)]


HARNESSES = {
    "sweep_k": (sweep_k, [0, 10, 30]),
    "ablate": (ablate, ["vlm", "multi_llm", "specfusion"]),
    "sweep_ensemble": (sweep_ensemble, [1, 2, 3]),
}

# (prompt, sampler, harness) -> SHA-256 of the table's JSON lines, seed 2
TABLES = {
    ("aurora", "ddim", "sweep_k"): (
        "7a3d6fd9a0cf51b02f57972d4733e501502b0bb6b0ecce8088b23f3962c7b233"
    ),
    ("aurora", "ddim", "ablate"): (
        "7e38586d23b6ca12ce35e01d55e9c6643d1fed2c099fc8c7d11c161b0c94a724"
    ),
    ("aurora", "ddim", "sweep_ensemble"): (
        "9aa145b95518cfdc3ba4cb39e4cecfb358e2deed961d9f0b7530b1bc3d27e267"
    ),
    ("aurora", "ddpm", "sweep_k"): (
        "ed4cdcbe274c4cfd6f4b9c3cacd1bd75cb9829f4e6c0ae02afab2ecbd41eafe4"
    ),
    ("aurora", "ddpm", "ablate"): (
        "80409ad1e4dda9fd2db1ff87074d12d1049292dbb0d9a8e5b3ce2b98d027eb62"
    ),
    ("aurora", "ddpm", "sweep_ensemble"): (
        "62c01536ddee61dc7f2277b866e3290620f6f1ffa58543f766276d66fce7a803"
    ),
    ("aurora basalt", "ddim", "sweep_k"): (
        "0d2e48314880fd8ead3e5cfbde23d40dc32b6ddcb6e253ca514181db35f8ba61"
    ),
    ("aurora basalt", "ddim", "ablate"): (
        "74965cfba1d0ac32e413557296c3839c76d6f608b90c3261b20418f251f9ec98"
    ),
    ("aurora basalt", "ddim", "sweep_ensemble"): (
        "3ce85588bfbba018c6673623915c98318c36e63494b500c0c9a59abde1c4ebe0"
    ),
    ("aurora basalt", "ddpm", "sweep_k"): (
        "e36d684de999ba91bb0c3912c8bf7d30cdf6a1a3b58dec433fe50c1748d8af38"
    ),
    ("aurora basalt", "ddpm", "ablate"): (
        "7847d0e796df255b5f7aad2da824bb4bdd1880c75fa55a191589cd4b55dfd427"
    ),
    ("aurora basalt", "ddpm", "sweep_ensemble"): (
        "6852075217c27814c51bdf75a806992c4c69f26e3c0a646ff9f0a0711e3c6d87"
    ),
}


def table_digest(prompt, sampler, harness, committee_mode="moa"):
    config = PipelineConfig(
        prompt=prompt,
        seed=2,
        sampler=sampler,
        committee=CommitteeConfig(mode=committee_mode),
    )
    run, axis = HARNESSES[harness]
    lines = run(config, axis).to_json_lines()
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("committee_mode", ["moa", "mad"])
@pytest.mark.parametrize("prompt, sampler, harness", sorted(TABLES))
def test_harness_tables_are_pinned(prompt, sampler, harness, committee_mode):
    got = table_digest(prompt, sampler, harness, committee_mode)
    assert got == TABLES[(prompt, sampler, harness)]


def print_pins():
    """Print GOLDEN and TABLES as computed now, in this file's format."""

    def key(parts):
        return "(" + ", ".join(json.dumps(part) for part in parts) + ")"

    for name, pins, compute in (
        ("GOLDEN", GOLDEN, lambda k: stage_digests(*k)),
        ("TABLES", TABLES, lambda k: (table_digest(*k),)),
    ):
        print(f"{name} = {{")
        for parts in pins:
            digests = compute(parts)
            print(f"    {key(parts)}: (")
            for digest in digests:
                print(f'        "{digest}"' + ("," if len(digests) > 1 else ""))
            print("    ),")
        print("}\n")


if __name__ == "__main__":
    print_pins()
