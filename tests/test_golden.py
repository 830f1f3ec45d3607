"""Golden SHA-256 digests of the three stage latents.

Two runs agreeing only shows determinism; these digests pin the exact
bits, so a refactor that drifts every run the same way still fails.  The
prompt ``aurora`` refines in every case (T' = 19 under DDIM, 20 under
DDPM), so z_ref and z_fused are exercised, not copies of z_base.  The
committee mode does not change the clause set for this prompt, so the MoA
and MAD runs share one row.

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
        "a219c577d7aea7c67beb4b956a4262ebc26946409cf47d738f25c188ee5125bc",
        "2a439b50d584340ccfddf350a3eaca40c5aac0e7190703fba532dbffca0b8880",
        "e99cc595e99c6be3a7c606ac61d2e852c031acc6902e967a80b6d4eb73616a80",
    ),
    (0, "ddim", "blend"): (
        "a219c577d7aea7c67beb4b956a4262ebc26946409cf47d738f25c188ee5125bc",
        "bb8746d69852423f986bc025abfb468fc755b141692b3a1dcd4e36047320bc34",
        "63265fe9c3e276b26e6d8acbdfb39c16df1b81595ea7fa053f7fccef388a92b3",
    ),
    (0, "ddpm", "img2img"): (
        "078c7765cc34f0396f3bcda636e2e337e2eeeb9c9bba3d44cca05478e739d70b",
        "317f193dcc8b7557a65345efcacd86d77014a417cd6b59328ca1b5b6b31a29e1",
        "11d9d31e2b1db92107844a6b91d177db6dd3952361068d541e22900083f6a764",
    ),
    (0, "ddpm", "blend"): (
        "078c7765cc34f0396f3bcda636e2e337e2eeeb9c9bba3d44cca05478e739d70b",
        "7494a16224ef4308b0c60816f3cdf1163395e9aca81514e9110359e9cefd9d3c",
        "c7f013b7a2788ed3b25dc6b6194ba70a4617e7a31748b11876ce850e452c846a",
    ),
    (3, "ddim", "img2img"): (
        "6a740f85b1972181221e86fea99ab233c858d8df4f195037c367fd4bb2fb3077",
        "0431f68d605c68213211bc65184bfd1100b5c44767efa6d576de0c564106a9dc",
        "a1e633d0f056af44664d51908e26314395303421bc001cccef65ffeddb9b6f8e",
    ),
    (3, "ddim", "blend"): (
        "6a740f85b1972181221e86fea99ab233c858d8df4f195037c367fd4bb2fb3077",
        "7154d15510de8af4fad65ab911a4ac54ed54b7bb4b3d1a05092c11af58a97345",
        "d293d389508c3fbac489f5cba87f381059d225970b8501befd0736dc4ce8768c",
    ),
    (3, "ddpm", "img2img"): (
        "029afe5aa8e7c892ab301272cfbbb696421b09dae5c6a7ad45318400c6bec346",
        "164592394f09dc4b52121135853229dbf1610a095ff3177abc5c2959dc21f77a",
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
    assert record.cadr["T_prime"] > 0
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
        "27950f62df2d5062675b8f9349eefb4bbce10ab94cb86c2a0ce724e7684331c1"
    ),
    ("aurora", "ddim", "ablate"): (
        "a8bdcaca852561507b5852f277efb821c7adc241c3b83bf2aa198182c5b66c09"
    ),
    ("aurora", "ddim", "sweep_ensemble"): (
        "995aed7212978c6f54bd6ec997f0deff5acf5e8af5f9e3b6398fb1700f4826b0"
    ),
    ("aurora", "ddpm", "sweep_k"): (
        "21ceec7e14807cf8203cf1557a47371da84720aeed5c7deaed50b8647e72c9b1"
    ),
    ("aurora", "ddpm", "ablate"): (
        "91ec7e414ecf0904e105d6406a7a0c12a9bf21aa4257532fdf1e74ce2d6d94ed"
    ),
    ("aurora", "ddpm", "sweep_ensemble"): (
        "3ec56919c6c4e7d4630f178b48f8418a875bfa775c38dc362871468ef5cfd186"
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
        "c3bc00af311c9ac5ea028bbac1861ee20f3819c05349baa0ec45f1178347b947"
    ),
    ("aurora basalt", "ddpm", "ablate"): (
        "29af340af3098dd43b99f55dfdcb0051ca87917927504441d2648aca27ba8825"
    ),
    ("aurora basalt", "ddpm", "sweep_ensemble"): (
        "2f80eccb6a346afbd6302327aee48f27d4d55d245bab70138ff1e211cc9ee850"
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
