"""Golden SHA-256 digests of the three stage latents.

Two runs agreeing only shows determinism; these digests pin the exact
bits, so a refactor that drifts every run the same way still fails.  The
prompt ``aurora`` refines in every case (T' = 19 under DDIM, 20 under
DDPM), so z_ref and z_fused are exercised, not copies of z_base.  The
committee mode does not change the clause set for this prompt, so the MoA
and MAD runs share one row.

``TABLES`` pins the SHA-256 of each sweep harness's JSON lines the same
way, for ``aurora`` and for the skip prompt ``aurora basalt`` (T' = 0).
"""

import hashlib

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
        "a046023842a6b045bc2f86d723763d9c191a31eb730c44d9f6b4a072b38b5954",
        "dbf053ff05a543aac751485984abfc4863c9ec3baed7c4eadaff0ff14cc530ad",
    ),
    (0, "ddim", "blend"): (
        "a219c577d7aea7c67beb4b956a4262ebc26946409cf47d738f25c188ee5125bc",
        "bb8746d69852423f986bc025abfb468fc755b141692b3a1dcd4e36047320bc34",
        "63265fe9c3e276b26e6d8acbdfb39c16df1b81595ea7fa053f7fccef388a92b3",
    ),
    (0, "ddpm", "img2img"): (
        "078c7765cc34f0396f3bcda636e2e337e2eeeb9c9bba3d44cca05478e739d70b",
        "0c37675d8d044b3c334945cc90dae8ecdbf3555cefaa0d40555e859dc57ebb18",
        "11d9d31e2b1db92107844a6b91d177db6dd3952361068d541e22900083f6a764",
    ),
    (0, "ddpm", "blend"): (
        "078c7765cc34f0396f3bcda636e2e337e2eeeb9c9bba3d44cca05478e739d70b",
        "7494a16224ef4308b0c60816f3cdf1163395e9aca81514e9110359e9cefd9d3c",
        "c7f013b7a2788ed3b25dc6b6194ba70a4617e7a31748b11876ce850e452c846a",
    ),
    (3, "ddim", "img2img"): (
        "6a740f85b1972181221e86fea99ab233c858d8df4f195037c367fd4bb2fb3077",
        "abcc9fa3ba4e38117d2bdd81e18eca24f6e55d6afd0f67908160de479c7ea92a",
        "585f36f3adc20c8cf07090a9add752bb8c5e348d18068cd70a29b182ec209f95",
    ),
    (3, "ddim", "blend"): (
        "6a740f85b1972181221e86fea99ab233c858d8df4f195037c367fd4bb2fb3077",
        "7154d15510de8af4fad65ab911a4ac54ed54b7bb4b3d1a05092c11af58a97345",
        "d293d389508c3fbac489f5cba87f381059d225970b8501befd0736dc4ce8768c",
    ),
    (3, "ddpm", "img2img"): (
        "029afe5aa8e7c892ab301272cfbbb696421b09dae5c6a7ad45318400c6bec346",
        "4948ab231e80ce6681d278755ced2a18b8f8cc560cd3784fc7c62f9690b3e480",
        "39443ff93c335ce09b6f1980e30ca4beb1e4bcd0fb1bc5fea68414187ca398c4",
    ),
    (3, "ddpm", "blend"): (
        "029afe5aa8e7c892ab301272cfbbb696421b09dae5c6a7ad45318400c6bec346",
        "3a1a57d7988981fab2403117d1ccf670fc8fff6dc53fb55104f205a90de5868e",
        "097a5779ba4db9fa6f96f6529613b5336431e07dd150ae320a03098b1b13cdb4",
    ),
}


@pytest.mark.parametrize("committee_mode", ["moa", "mad"])
@pytest.mark.parametrize("seed, sampler, refine_mode", sorted(GOLDEN))
def test_stage_digests_are_pinned(seed, sampler, refine_mode, committee_mode):
    config = PipelineConfig(
        prompt="aurora",
        seed=seed,
        sampler=sampler,
        refine_mode=refine_mode,
        committee=CommitteeConfig(mode=committee_mode),
    )
    record, _ = run_critifusion(config)
    assert record.cadr["T_prime"] > 0
    got = tuple(record.digests[name] for name in ("z_base", "z_ref", "z_fused"))
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


@pytest.mark.parametrize("committee_mode", ["moa", "mad"])
@pytest.mark.parametrize("prompt, sampler, harness", sorted(TABLES))
def test_harness_tables_are_pinned(prompt, sampler, harness, committee_mode):
    config = PipelineConfig(
        prompt=prompt,
        seed=2,
        sampler=sampler,
        committee=CommitteeConfig(mode=committee_mode),
    )
    run, axis = HARNESSES[harness]
    lines = run(config, axis).to_json_lines()
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    assert digest == TABLES[(prompt, sampler, harness)]
