"""Top-level acceptance checks, one test per release gate.

Each test re-derives its expected values independently (plain-Python
direct-sum DFTs, exact-fraction arithmetic, hand-simulated committee
traces) and enforces the stated tolerance and runtime budget.
"""

import cmath
import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from critifusion import vocab
from critifusion.agents import (
    AgentEndpoint,
    AgentTimeoutError,
    AgentTransportError,
    HttpAgentBackend,
    MockAgentBackend,
    http_complete,
    make_request,
)
from critifusion.cadr import CadrConfig, CadrParams, cadr_from_alignment
from critifusion.cli import main
from critifusion.criticore import (
    Clause,
    CommitteeConfig,
    PromptBundle,
    mad_round,
    merge_topk,
    moa_aggregate,
    run_mad,
)
from critifusion.diffusion import (
    Conditioning,
    base_sample,
    forward_noise,
    make_schedule,
    predict_x0,
    strength_to_start,
    target_field,
    toy_denoiser,
)
from critifusion.latents import LatentField, sample_gaussian_latent
from critifusion.pipeline import PipelineConfig, ablate, run_critifusion, sweep_k
from critifusion.spectral import TaperSpec, build_lowpass_mask, forward_spectrum, inverse_spectrum, spec_fuse


def test_cadr_endpoints():
    start = time.monotonic()
    assert cadr_from_alignment(0.0) == CadrParams(lam=0.30, g=5.0, T_prime=30, rho=0.85)
    assert cadr_from_alignment(1.0, CadrConfig(skip_threshold=1.0)) == CadrParams(
        lam=0.12, g=3.6, T_prime=16, rho=0.60
    )
    assert cadr_from_alignment(0.95).T_prime == 0
    assert time.monotonic() - start < 1.0


def _brute_dft(plane):
    """O(N^4) direct-sum transform with the DC bin at (H//2, W//2)."""
    H, W = plane.shape
    out = np.zeros((H, W), dtype=complex)
    for p in range(H):
        for q in range(W):
            u, v = p - H // 2, q - W // 2
            acc = 0j
            for y in range(H):
                for x in range(W):
                    acc += plane[y, x] * cmath.exp(
                        -2j * math.pi * (u * y / H + v * x / W)
                    )
            out[p, q] = acc
    return out


def _brute_idft(spec):
    H, W = spec.shape
    out = np.zeros((H, W), dtype=complex)
    for y in range(H):
        for x in range(W):
            acc = 0j
            for p in range(H):
                for q in range(W):
                    u, v = p - H // 2, q - W // 2
                    acc += spec[p, q] * cmath.exp(
                        2j * math.pi * (u * y / H + v * x / W)
                    )
            out[y, x] = acc
    return out / (H * W)


def test_spectral_suite():
    start = time.monotonic()
    taper = TaperSpec()

    # round trip: 100 random 4x64x64 fields
    for seed in range(100):
        f = sample_gaussian_latent(4, 64, 64, seed)
        back = inverse_spectrum(forward_spectrum(f))
        assert np.abs(back.values - f.values).max() < 1e-5

    # Parseval, relative
    f = sample_gaussian_latent(4, 64, 64, 1000)
    spatial = float(np.sum(f.values**2))
    spectral = float(np.sum(np.abs(forward_spectrum(f).coefficients) ** 2)) / (64 * 64)
    assert abs(spatial - spectral) / spatial < 1e-6

    # identity fusion and rho limits
    a = sample_gaussian_latent(2, 16, 16, 7)
    b = sample_gaussian_latent(2, 16, 16, 8)
    same = spec_fuse(a, a, 0.5, taper, clamp=False)
    assert np.abs(same.values - a.values).max() < 1e-5
    assert np.abs(
        spec_fuse(a, b, 0.0, taper, clamp=False).values - a.values
    ).max() < 1e-9  # rho=0 keeps nothing from the base: output is z_ref
    assert np.abs(
        spec_fuse(a, b, 1.0, taper, clamp=False).values - b.values
    ).max() < 1e-9  # rho=1 keeps everything from the base

    # small-field fusion against the direct-sum oracle
    for h, w, seeds in ((4, 4, (21, 22)), (8, 8, (23, 24))):
        ref = sample_gaussian_latent(1, h, w, seeds[0])
        base = sample_gaussian_latent(1, h, w, seeds[1])
        mask = build_lowpass_mask(h, w, 0.5, taper).weights
        fused_spec = mask * _brute_dft(base.values[0]) + (1.0 - mask) * _brute_dft(
            ref.values[0]
        )
        oracle = _brute_idft(fused_spec).real
        got = spec_fuse(ref, base, 0.5, taper, clamp=False).values[0]
        assert np.abs(got - oracle).max() < 1e-9

    assert time.monotonic() - start < 30.0


def test_diffusion_suite():
    start = time.monotonic()
    sched = make_schedule(50, 1e-4, 0.02)

    # forward noising then x0 prediction invert each other at every t
    x0 = sample_gaussian_latent(2, 16, 16, 3)
    noise = sample_gaussian_latent(2, 16, 16, 4)
    for t in range(50):
        z_t = forward_noise(x0, t, sched, noise)
        back = predict_x0(z_t, t + 1, noise, sched)
        assert np.abs(back.values - x0.values).max() < 1e-9

    # deterministic sampling converges to the conditioning's target
    emb = np.zeros(16)
    emb[0] = 1.0
    emb[3] = 1.0
    for guidance in (0.0, 4.0):
        cond = Conditioning(emb, guidance)
        tgt = target_field(cond, 1, 16, 16)
        for T in (5, 20, 50):
            s = make_schedule(T, 1e-4, 0.02)
            for seed in range(20):
                z = base_sample(cond, s, "ddim", seed, 1, 16, 16)
                assert np.abs(z.values - tgt.values).max() < 1e-6

    # single-step hand examples, re-derived with plain floats
    two = make_schedule(2, 0.1, 0.2)
    z = LatentField(1, 2, 2, np.full((1, 2, 2), 1.0))
    eps = LatentField(1, 2, 2, np.full((1, 2, 2), 0.5))
    x0_hand = (1.0 - math.sqrt(1.0 - 0.72) * 0.5) / math.sqrt(0.72)
    ddim_hand = math.sqrt(0.9) * x0_hand + math.sqrt(1.0 - 0.9) * 0.5
    from critifusion.diffusion import ddim_step, ddpm_step

    got = ddim_step(z, 2, eps, two)
    assert abs(float(got.values[0, 0, 0]) - ddim_hand) < 1e-9
    zero = LatentField(1, 2, 2, np.zeros((1, 2, 2)))
    got = ddpm_step(z, 1, eps, two, zero)  # t=1: sigma is exactly zero
    assert abs(float(got.values[0, 0, 0]) - (1.0 - 0.1 * 0.5) / math.sqrt(0.9)) < 1e-9

    # strength mapping on the exhaustive grid, exact-fraction oracle
    for T_prime in range(1, 51):
        for k in range(0, T_prime + 1):
            m = strength_to_start(k, T_prime)
            s = min(max(Fraction(k, T_prime), Fraction(1, 100)), Fraction(95, 100))
            assert abs(m.strength - float(s)) < 1e-12
            assert m.t0 == math.floor((1 - s) * T_prime)

    assert time.monotonic() - start < 60.0


class _TextRecorder:
    """Backend wrapper capturing (agent_id, request text) for every call."""

    def __init__(self):
        self.inner = MockAgentBackend()
        self.texts = []

    def respond(self, agent_id, request):
        self.texts.append((agent_id, request.messages[-1][1]))
        return self.inner.respond(agent_id, request)


def test_committee_suite():
    rng = np.random.default_rng(99)

    # MoA call count for 20 random layer configurations
    for _ in range(20):
        widths = tuple(int(rng.integers(1, 5)) for _ in range(int(rng.integers(1, 4))))
        committee = CommitteeConfig(mode="moa", layer_widths=widths)
        backend = MockAgentBackend()
        moa_aggregate("aurora dune", committee, backend)
        assert len(backend.calls) == sum(n + 1 for n in widths)

    # MAD: an agent never sees its own prior output; call count M*T + 1
    for agents in range(1, 7):
        for rounds in range(1, 4):
            committee = CommitteeConfig(mode="mad", agents=agents, rounds=rounds)
            recorder = _TextRecorder()
            run_mad("aurora", committee, recorder)
            assert len(recorder.texts) == agents * rounds + 1
            for agent_id, text in recorder.texts:
                if agent_id == 0:
                    continue  # the judge sees everything
                assert f"agent {agent_id}:" not in text

    # merge budget over 1000 randomized cases
    names = vocab.CANONICAL_NAMES
    for _ in range(1000):
        n_base = int(rng.integers(0, 90))
        base_tokens = tuple(
            names[int(rng.integers(0, 16))] for _ in range(min(n_base, 77))
        )
        base = PromptBundle(base_tokens, (0.5,) * len(base_tokens))
        clauses = [
            Clause(
                clause_id=int(rng.integers(0, 1000)),
                text=tuple(
                    names[int(rng.integers(0, 16))]
                    for _ in range(int(rng.integers(1, 5)))
                ),
                kind="entity",
                score=float(rng.random()),
            )
            for _ in range(int(rng.integers(0, 8)))
        ]
        k_edit = int(rng.integers(0, 6))
        appended = sum(len(c.text) for c in sorted(clauses, key=lambda c: c.score)[:k_edit])
        out = merge_topk(base, clauses, k_edit=k_edit)
        assert len(out.tokens) <= 77
        if len(base.tokens) + appended > 77:
            assert len(out.tokens) == 77


def test_end_to_end_improvement():
    start = time.monotonic()
    improved = 0
    for seed in range(100):
        cfg = PipelineConfig(prompt="aurora", seed=seed, sampler="ddpm")
        rec, _ = run_critifusion(cfg)
        if rec.alignment["final"] >= rec.alignment["base"]:
            improved += 1
    assert improved >= 90

    # already-aligned prompt: skip path, final identical to base
    rec, lat = run_critifusion(PipelineConfig(prompt="aurora basalt", seed=0))
    assert rec.cadr["T_prime"] == 0
    assert rec.digests["z_fused"] == rec.digests["z_base"]
    assert time.monotonic() - start < 120.0


def test_determinism(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("prompt = aurora\nseed = 5\n")
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
        outs.append(out)
    recs = [
        json.loads((out / "record.jsonl").read_text().splitlines()[0]) for out in outs
    ]
    for rec in recs:
        rec.pop("wall_clock")
    assert json.dumps(recs[0], sort_keys=True) == json.dumps(recs[1], sort_keys=True)
    assert recs[0]["digests"] == recs[1]["digests"]
    for name in ("z_base.crtf", "z_ref.crtf", "z_fused.crtf"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_sweep_harnesses():
    cfg = PipelineConfig(prompt="aurora", seed=2)
    table = sweep_k(cfg, [0, 5, 15, 30])
    finals = [row["final_score"] for row in table.rows]
    assert all(b >= a - 1e-12 for a, b in zip(finals, finals[1:]))

    table = ablate(
        PipelineConfig(prompt="aurora", seed=2, clamp=False),
        ["vlm", "multi_llm", "specfusion"],
    )
    assert len(table.rows) == 4
    full = table.rows[0]["final_score"]
    for row in table.rows[1:]:
        assert full >= row["final_score"] - 1e-9


def test_agent_client_contracts_and_secret_hygiene(tmp_path, monkeypatch):
    from test_agents import StubState, make_handler
    import threading
    from http.server import ThreadingHTTPServer

    from critifusion.agents import AUTH_ENV_VAR
    from critifusion.latents import write_latent
    from critifusion.pipeline import write_run_record

    state = StubState()
    server = ThreadingHTTPServer(("127.0.0.1", 0), make_handler(state))
    threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
    ).start()
    url = f"http://127.0.0.1:{server.server_address[1]}"
    try:
        def endpoint(**kw):
            opts = dict(base_url=url, model_id="stub", timeout=5.0,
                        max_retries=2, backoff=0.01)
            opts.update(kw)
            return AgentEndpoint(**opts)

        # transient retries: two 500s then success, exactly 3 requests
        state.script = [500, 500]
        resp = http_complete(endpoint(), make_request("propose", "aurora"))
        assert resp.text == "echo: aurora"
        assert len(state.requests) == 3

        # terminal 4xx: a single attempt
        state.requests.clear()
        state.script = [404]
        with pytest.raises(AgentTransportError) as exc:
            http_complete(endpoint(), make_request("propose", "x"))
        assert exc.value.status == 404
        assert len(state.requests) == 1

        # timeouts consume exactly max_retries + 1 attempts
        state.requests.clear()
        state.script = ["sleep", "sleep"]
        with pytest.raises(AgentTimeoutError):
            http_complete(
                endpoint(timeout=0.2, max_retries=1), make_request("propose", "x")
            )
        assert len(state.requests) == 2

        # secret hygiene: the bearer token reaches the wire but never any
        # persisted artifact
        sentinel = "sk-SENTINEL-do-not-persist"
        monkeypatch.setenv(AUTH_ENV_VAR, sentinel)
        state.requests.clear()
        state.script = []
        backend = HttpAgentBackend(endpoint())
        cfg = PipelineConfig(prompt="aurora", seed=0, agent_backend="http")
        rec, lat = run_critifusion(cfg, backend)
        assert rec.status == "ok"
        assert any(sentinel in r["auth"] for r in state.requests)

        record_path = tmp_path / "record.jsonl"
        write_run_record(rec, record_path)
        blob = record_path.read_bytes()
        for name, field in lat.items():
            p = tmp_path / f"{name}.crtf"
            write_latent(field, p)
            blob += p.read_bytes()
        assert sentinel.encode() not in blob
        assert b"SENTINEL" not in blob
    finally:
        server.shutdown()
        server.server_close()
