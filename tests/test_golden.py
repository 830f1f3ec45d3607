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
        "1cf273916a74cb16e0fca2cf328f5913d9f8c9d481e71e625af675b3e684b902",
        "0411826bfdf1f90462a1e580a86f6a7eec5e618c16bcf5bb0d712d6d7dc6e5ed",
    ),
    (0, "ddpm", "img2img"): (
        "078c7765cc34f0396f3bcda636e2e337e2eeeb9c9bba3d44cca05478e739d70b",
        "7dd6004b19d428284f7f9107d05a3b09190db4ed62a851b3feb715931a2de584",
        "11d9d31e2b1db92107844a6b91d177db6dd3952361068d541e22900083f6a764",
    ),
    (0, "ddpm", "blend"): (
        "078c7765cc34f0396f3bcda636e2e337e2eeeb9c9bba3d44cca05478e739d70b",
        "7494a16224ef4308b0c60816f3cdf1163395e9aca81514e9110359e9cefd9d3c",
        "c7f013b7a2788ed3b25dc6b6194ba70a4617e7a31748b11876ce850e452c846a",
    ),
    (3, "ddim", "img2img"): (
        "aceb9b15bb7608fd8b1b0d52ba10f61a3ed69877ce88d1c375375c71a37c4bac",
        "7dd6004b19d428284f7f9107d05a3b09190db4ed62a851b3feb715931a2de584",
        "0042be3600729604d063f59809cfdbe7207f512a720d534367f4d8eda718eef4",
    ),
    (3, "ddim", "blend"): (
        "aceb9b15bb7608fd8b1b0d52ba10f61a3ed69877ce88d1c375375c71a37c4bac",
        "dec8fb5d2477196563ddeef7545da8e822bcd3c4523da922d9b6544092cade7d",
        "32f820496825506074c1dcca24fd73a4402bba3c31796bc971670389765df41a",
    ),
    (3, "ddpm", "img2img"): (
        "029afe5aa8e7c892ab301272cfbbb696421b09dae5c6a7ad45318400c6bec346",
        "7dd6004b19d428284f7f9107d05a3b09190db4ed62a851b3feb715931a2de584",
        "39443ff93c335ce09b6f1980e30ca4beb1e4bcd0fb1bc5fea68414187ca398c4",
    ),
    (3, "ddpm", "blend"): (
        "029afe5aa8e7c892ab301272cfbbb696421b09dae5c6a7ad45318400c6bec346",
        "3a1a57d7988981fab2403117d1ccf670fc8fff6dc53fb55104f205a90de5868e",
        "097a5779ba4db9fa6f96f6529613b5336431e07dd150ae320a03098b1b13cdb4",
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
        "67d241575814e450fd1dd757ba43f4acae4d385ff29208572f1d0d0c4620f284"
    ),
    ("aurora", "ddpm", "ablate"): (
        "e6602b312a0433c83c17c65770870cdf2024c21985daa35aea0325412b969296"
    ),
    ("aurora", "ddpm", "sweep_ensemble"): (
        "cf978873a73a949943ae9211e8fae925a6ddaa4739a20a81c3d21504d0aa0c1a"
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
        "6d83cd92a0cdf5b6c64a4b68e7f58253b54a4c569b42438449605d0cc979bd07"
    ),
    ("aurora basalt", "ddpm", "ablate"): (
        "98fa2d9ab93d3e97fbbe6adaf187e893f911ea5f7be000064ca67b41226660f4"
    ),
    ("aurora basalt", "ddpm", "sweep_ensemble"): (
        "34547848802ea1cdf2353c0008e762661a044c502530bc625bd96c44e04f768b"
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
