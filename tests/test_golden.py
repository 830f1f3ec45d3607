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
        "56bb204088abcaf4ade5909c8f40ffb62c91f906b08f0ab1f1f2da530fd06712",
        "b8c7080490ef0ae7fd2cb4996740bed94adbbc4d1fd050dde96ba470978b78b3",
    ),
    (0, "ddpm", "img2img"): (
        "9fd90268b45a86edc48616b89cc9a8fd68f3c5b64a9d8fa88967ec6b6a8019a5",
        "7dd6004b19d428284f7f9107d05a3b09190db4ed62a851b3feb715931a2de584",
        "66dce2171779c01f1159dd2729b93faca32a2c1cb10dffeb7db0ac3cb357cdc2",
    ),
    (0, "ddpm", "blend"): (
        "9fd90268b45a86edc48616b89cc9a8fd68f3c5b64a9d8fa88967ec6b6a8019a5",
        "4ac487c01e0e22ab217e77bb05e12c827dcbb2572483a6de46247106aa4f3ca6",
        "d86582fd2149ab345c9a86946040f5c00df2830b7ba3225d1f8f59d01944daab",
    ),
    (3, "ddim", "img2img"): (
        "aceb9b15bb7608fd8b1b0d52ba10f61a3ed69877ce88d1c375375c71a37c4bac",
        "7dd6004b19d428284f7f9107d05a3b09190db4ed62a851b3feb715931a2de584",
        "0042be3600729604d063f59809cfdbe7207f512a720d534367f4d8eda718eef4",
    ),
    (3, "ddim", "blend"): (
        "aceb9b15bb7608fd8b1b0d52ba10f61a3ed69877ce88d1c375375c71a37c4bac",
        "11f0e85a8defd7e10287c771eb9d0b4d314d8d1fc43a55eebd5af678e51785e3",
        "a0892cac3b6f362c15e3a241f5f77c14714022242ea7d284e2fd14c2c0c3fce1",
    ),
    (3, "ddpm", "img2img"): (
        "3c0797a09e7faadb56eb717b3d440dfc795e1987356d8cec8694f18d348424fa",
        "7dd6004b19d428284f7f9107d05a3b09190db4ed62a851b3feb715931a2de584",
        "ba677df0f02ef5a8b3f303ff87954639caf2be8b4aed8f61aaa96113d0d7c1de",
    ),
    (3, "ddpm", "blend"): (
        "3c0797a09e7faadb56eb717b3d440dfc795e1987356d8cec8694f18d348424fa",
        "eb11050c350fb3a8e73809507576154da55d0271ab411dfdb8b50d648e723910",
        "3213f50c9858c2e0b000cf97fb2762e438b4c68faba261a8f715a7b33527b024",
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
        "613d71600111b0f34d51c12600333036135fadc3ffb76bd3ea36989cc82b0085"
    ),
    ("aurora", "ddpm", "ablate"): (
        "171956f99818ebc2d794bf76561641c71cb0f114df94ff60ab93a1d312e62fbe"
    ),
    ("aurora", "ddpm", "sweep_ensemble"): (
        "444013925d9576c683c3aab3f4f312795fe3565cf29ceb9d6155d034dc7a698a"
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
        "7ba20330c52b97f147c2d9ca815fdd267d9b88b336f3c5ad2cf92352225b206c"
    ),
    ("aurora basalt", "ddpm", "ablate"): (
        "c528902f0df1134c3eb7d14e4e81d8d2d119b0afdbd3b373f9c92871d744506b"
    ),
    ("aurora basalt", "ddpm", "sweep_ensemble"): (
        "5f173f329fd8fcf650f9f838d359847627f835edd754122cf9a99b55e0e2152e"
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
