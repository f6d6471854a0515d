"""End-to-end acceptance checks; one pass/fail line per criterion is
printed in the terminal summary section."""

import struct
import threading
import time
from dataclasses import replace

import numpy as np

from specsteer.core import (
    PrivateContext,
    ProtocolConfig,
    ROLE_DRAFT,
    kl_divergence,
    make_streams,
    stream,
    total_variation,
)
from specsteer.fusion import fused_target, one_step_protocol_law, recovery_distribution
from specsteer.metrics import (
    CostModel,
    LatencyModel,
    acceptance_rate,
    expected_speedup,
    flops_llm_rag,
    flops_specsteer,
)
from specsteer.models import condition_private
from specsteer.protocol import (
    CloudVerifier,
    DraftBatch,
    autoregressive_decode,
    draft_frame_bytes,
    run_session,
)
from specsteer.toydata import LLM_PROFILE, SLM_PROFILE
from specsteer.transport import (
    DIR_DOWN,
    DIR_UP,
    FrameLog,
    MSG_VERDICT,
    SparseSteeringPayload,
    Verdict,
    decode_draft,
    decode_frame,
    decode_hello,
    decode_verdict,
    encode_draft,
    encode_hello,
    encode_verdict,
    run_edge_socket,
    run_simulated_session,
    scan_frame_log,
    serve_cloud_once,
    vocab_hash64,
)

from conftest import ACCEPTANCE_RESULTS, random_table_triple


def record(num: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    ACCEPTANCE_RESULTS.append(f"{verdict}: criterion {num} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def session_alphas(world, lam, seeds, max_len=48, prompt=None):
    """Per-session acceptance rates on the toy world."""
    prompt = prompt or world.vocab.ids_of(["we", "ordered", "the"])
    cfg = ProtocolConfig(lam=lam, max_len=max_len)
    rates = []
    for s in seeds:
        _, traces = run_session(
            replace(cfg, seed=s),
            world.llm, world.slm_plus, world.slm_minus, world.vocab, prompt,
        )
        if traces:
            rates.append(acceptance_rate(traces))
    return np.array(rates)


def cut_after_eos(tokens: tuple, vocab) -> tuple:
    eos = vocab.eos_id
    return tokens[: tokens.index(eos) + 1] if eos in tokens else tokens


class TestAcceptance:
    def test_criterion_01_single_step_law(self):
        rng = np.random.default_rng(1001)
        n = 200_000
        budget_s = 120.0
        worst_tv = 0.0
        t0 = time.perf_counter()
        for trial in range(20):
            v = int(rng.integers(3, 11))
            vocab, (llm, plus, minus) = random_table_triple(rng, v)
            lam = float(np.exp(rng.uniform(np.log(0.3), np.log(2.0))))
            cfg = ProtocolConfig(lam=lam, beta=1.0, horizon_k=1, top_k=v, max_len=2, seed=trial)
            law = one_step_protocol_law(
                llm.next_token_probs([0]),
                plus.next_token_probs([0]),
                minus.next_token_probs([0]),
                llm.next_token_logits([0]),
                plus.next_token_logits([0]),
                minus.next_token_logits([0]),
                lam,
                1.0,
            )
            counts = np.zeros(v)
            streams = make_streams(trial)
            prompt = (0,)
            for _ in range(n):
                committed, _ = run_session(cfg, llm, plus, minus, vocab, prompt, streams=streams)
                counts[committed[1]] += 1
            worst_tv = max(worst_tv, total_variation(counts / n, law))
        elapsed = time.perf_counter() - t0
        ok = worst_tv < 0.01 and elapsed < budget_s
        record(
            1, ok,
            f"single-step law: worst TV {worst_tv:.4f} over 20 triples x {n} sessions "
            f"(tolerance 0.01), runtime {elapsed:.1f}s (budget {budget_s:.0f}s)",
        )

    def test_criterion_02_recovery_exactness(self):
        rng = np.random.default_rng(1002)
        worst = 0.0
        for _ in range(1000):
            v = int(rng.integers(3, 51))
            h_llm, h_plus, h_minus = (rng.normal(0, 3, v) for _ in range(3))
            rec = recovery_distribution(h_llm, h_plus, h_minus, beta=1.0)
            target = fused_target(
                np.exp(h_llm - np.logaddexp.reduce(h_llm)),
                np.exp(h_plus - np.logaddexp.reduce(h_plus)),
                np.exp(h_minus - np.logaddexp.reduce(h_minus)),
            ).target
            worst = max(worst, kl_divergence(rec, target))
        record(
            2, worst < 1e-10,
            f"steered softmax equals fused target at beta=1: worst KL {worst:.2e} "
            f"over 1000 logit triples (tolerance 1e-10)",
        )

    def test_criterion_03_cancellation(self):
        rng = np.random.default_rng(1003)
        identical = True
        for trial in range(20):
            v = int(rng.integers(4, 16))
            vocab, (llm, plus_a, minus) = random_table_triple(rng, v)
            _, (plus_b, _, _) = random_table_triple(rng, v)
            cfg = ProtocolConfig(lam=0.9, top_k=v, max_len=64, seed=trial)
            # Drafts as an honest edge sends them: nothing after eos (the
            # cloud refuses anything else).
            batches = [
                DraftBatch(i, cut_after_eos(tuple(int(t) for t in rng.integers(0, v, 4)), vocab))
                for i in range(4)
            ]
            outputs = []
            for _plus in (plus_a, plus_b):
                # The drafter never enters the verifier; same stream, same
                # fixed drafts must give byte-identical verdicts.
                cloud = CloudVerifier(cfg, llm, minus, vocab, [0])
                frames = []
                alphas = []
                for b in batches:
                    if cloud.mirror[-1] == vocab.eos_id:
                        break  # an honest edge drafts no further
                    delta = 0 if cloud.awaiting_delta else None
                    frames.append(encode_verdict(cloud.handle_draft(b, delta)))
                    alphas.append(cloud.traces[-1].alphas)
                outputs.append((frames, alphas))
            identical = identical and outputs[0] == outputs[1]
        record(
            3, identical,
            "drafter swap with fixed drafts: alpha values and encoded verdicts "
            "bit-identical across 20 trials (0 tolerance)",
        )

    def test_criterion_04_lambda_monotonicity(self, world):
        lambdas = (1.0, 0.5, 0.1, 0.01)
        seeds = range(150)
        means, sems = [], []
        for lam in lambdas:
            rates = session_alphas(world, lam, seeds)
            means.append(rates.mean())
            sems.append(rates.std(ddof=1) / np.sqrt(len(rates)))
        gap = means[-1] - means[0]
        monotone = all(
            means[i + 1] - means[i] > -3.0 * np.hypot(sems[i + 1], sems[i])
            for i in range(len(lambdas) - 1)
        )
        ok = gap >= 0.15 and monotone
        detail = ", ".join(f"alpha({l:g})={m:.3f}" for l, m in zip(lambdas, means))
        record(
            4, ok,
            f"{detail}; gap {gap:.3f} (>= 0.15 required), monotone within 3 sigma: {monotone}",
        )

    def test_criterion_05_speedup_regimes(self):
        latency = LatencyModel()
        ratio = latency.llm_token_ms / latency.draft_token_ms
        hi = expected_speedup(0.80, 4, latency)
        lo = expected_speedup(0.40, 4, latency)
        hi_all = all(expected_speedup(a, 4, latency) >= 2.0 for a in (0.80, 0.85, 0.90, 0.95))
        lo_all = all(expected_speedup(a, 4, latency) < 1.2 for a in (0.10, 0.25, 0.40))
        ok = ratio == 53.0 and hi_all and lo_all
        record(
            5, ok,
            f"53:1 cost ratio, K=4: speedup {hi:.2f}x at alpha=0.80 (>= 2.0), "
            f"{lo:.2f}x at alpha=0.40 (< 1.2)",
        )

    def test_criterion_06_flops_trend(self, world):
        alpha = float(session_alphas(world, 0.75, range(100)).mean())
        cost = CostModel(llm=LLM_PROFILE, slm=SLM_PROFILE, horizon_k=4)
        split_vs_mono = flops_llm_rag(cost, 10_000) / flops_specsteer(cost, 10_000, alpha)
        split_flat = flops_specsteer(cost, 10_000, alpha) / flops_specsteer(cost, 100, alpha)
        mono_grows = flops_llm_rag(cost, 10_000) / flops_llm_rag(cost, 100)
        ok = split_vs_mono >= 3.0 and split_flat <= 1.15 and mono_grows >= 1.5
        record(
            6, ok,
            f"at measured alpha={alpha:.3f} (lambda=0.75): monolithic/split {split_vs_mono:.2f} "
            f"(>= 3.0), split 10k/100 {split_flat:.3f} (<= 1.15), "
            f"monolithic 10k/100 {mono_grows:.1f} (>= 1.5)",
        )

    def test_criterion_07_wire_fidelity(self):
        rng = np.random.default_rng(1007)
        exact = True
        for _ in range(10_000):
            kind = int(rng.integers(0, 3))
            if kind == 0:
                k = int(rng.integers(1, 17))
                batch = DraftBatch(
                    int(rng.integers(0, 2**32)),
                    tuple(int(t) for t in rng.integers(0, 2**32, k)),
                )
                delta = int(rng.integers(0, 2**32)) if rng.random() < 0.5 else None
                frame = encode_draft(batch, delta)
                _, payload = decode_frame(frame)
                out, d = decode_draft(payload, expect_delta=delta is not None)
                exact = exact and encode_draft(out, d) == frame
            elif kind == 1:
                n = int(rng.integers(0, 65))
                rec = (
                    SparseSteeringPayload(
                        tuple(
                            (int(t), float(np.float32(x)))
                            for t, x in zip(rng.integers(0, 2**32, n), rng.normal(0, 5, n))
                        )
                    )
                    if n
                    else None
                )
                v = Verdict(int(rng.integers(0, 2**32)), int(rng.integers(0, 2**16)), rec)
                frame = encode_verdict(v)
                _, payload = decode_frame(frame)
                exact = exact and encode_verdict(decode_verdict(payload)) == frame
            else:
                cfg = ProtocolConfig(
                    lam=float(rng.uniform(1e-3, 5.0)),
                    beta=float(rng.uniform(0.0, 4.0)),
                    horizon_k=int(rng.integers(1, 9)),
                    top_k=int(rng.integers(1, 65)),
                    max_len=int(rng.integers(2, 4096)),
                    seed=int(rng.integers(0, 2**32)),
                )
                prompt = tuple(int(t) for t in rng.integers(0, 2**32, int(rng.integers(0, 9))))
                vhash = int(rng.integers(0, 2**63))
                frame = encode_hello(cfg, vhash, prompt)
                _, payload = decode_frame(frame)
                out_cfg, out_hash, out_prompt = decode_hello(payload)
                exact = exact and encode_hello(out_cfg, out_hash, out_prompt) == frame

        size_ok = True
        for k in range(1, 9):
            for v in (100, 10_000):
                ids = tuple(int(t) for t in rng.integers(0, v, k))
                size_ok = size_ok and len(encode_draft(DraftBatch(0, ids))) == 16 + 4 * k
                size_ok = size_ok and len(encode_draft(DraftBatch(0, ids), 3)) == 16 + 4 * k + 4
                size_ok = size_ok and draft_frame_bytes(k, False) == 16 + 4 * k
        record(
            7, exact and size_ok,
            "10000 random frames re-encode bit-exactly; uplink frame is "
            "16+4K bytes (+4 with history delta), independent of vocabulary size",
        )

    def test_criterion_08_privacy_flow(self, world, tmp_path):
        cfg = ProtocolConfig(lam=0.5, max_len=48, seed=13)
        prompt = world.vocab.ids_of(["we", "ordered", "the"])
        edge_path = str(tmp_path / "edge.bin")
        cloud_path = str(tmp_path / "cloud.bin")
        with FrameLog(edge_path) as el, FrameLog(cloud_path) as cl:
            run_simulated_session(
                cfg, world.llm, world.slm_plus, world.slm_minus, world.vocab, prompt,
                edge_log=el, cloud_log=cl,
            )
        forbidden = [d_bytes for doc in world.private_ctx.documents[:20]
                     for d_bytes in [" ".join(world.vocab.tokens[i] for i in doc).encode()]]
        violations = scan_frame_log(edge_path, forbidden) + scan_frame_log(cloud_path, forbidden)

        # Swap the edge's private context; replay the same logged uplink
        # drafts and compare the verdict frames to the logged ones.
        alt_ctx = PrivateContext.from_documents(
            [list(reversed(doc)) for doc in world.private_ctx.documents]
        )
        alt_plus = condition_private(world.slm_minus, alt_ctx, mu=0.9)
        assert alt_plus is not world.slm_plus
        logged_verdicts = [
            frame for direction, frame in FrameLog.read(cloud_path)
            if direction == DIR_DOWN and frame[5] == MSG_VERDICT
        ]
        verifier = None
        replayed = []
        for direction, frame in FrameLog.read(cloud_path):
            if direction != DIR_UP:
                continue
            msg_type, payload = decode_frame(frame)
            if msg_type == 1:  # handshake
                hcfg, _, hprompt = decode_hello(payload)
                verifier = CloudVerifier(hcfg, world.llm, world.slm_minus, world.vocab, hprompt)
            elif msg_type == 2 and verifier is not None:
                batch, delta = decode_draft(payload, expect_delta=verifier.awaiting_delta)
                replayed.append(encode_verdict(verifier.handle_draft(batch, delta)))
        swap_exact = replayed == logged_verdicts and len(replayed) > 0
        ok = not violations and swap_exact
        record(
            8, ok,
            f"uplink scanner violations: {len(violations)}; private-context swap with "
            f"fixed drafts leaves {len(replayed)} verdict frames bit-identical: {swap_exact}",
        )

    def test_criterion_09_degenerate_limits(self, world):
        prompt = world.vocab.ids_of(["we", "ordered", "the"])
        # Vanishing verification threshold: everything is accepted, so the
        # session is the drafter's own stochastic decode.
        cfg = ProtocolConfig(lam=1e-12, max_len=48, seed=21)
        committed, _ = run_session(
            cfg, world.llm, world.slm_plus, world.slm_minus, world.vocab, prompt
        )
        baseline = autoregressive_decode(
            world.slm_plus, world.vocab, prompt, 48, "stochastic", stream(21, ROLE_DRAFT)
        )
        slm_exact = committed == baseline

        # No private blending, everything rejected, greedy: every emitted
        # token is the large model's argmax.
        cfg2 = ProtocolConfig(lam=1e9, beta=0.0, max_len=48, decode_mode="greedy", seed=3)
        committed2, traces2 = run_session(
            cfg2, world.llm, world.slm_minus, world.slm_minus, world.vocab, prompt
        )
        baseline2 = autoregressive_decode(world.llm, world.vocab, prompt, 48, "greedy")
        llm_exact = committed2 == baseline2 and all(t.accepted_count == 0 for t in traces2)
        record(
            9, slm_exact and llm_exact,
            f"vanishing-lambda session equals drafter decode: {slm_exact}; "
            f"no-blend all-reject greedy session equals large-model greedy: {llm_exact}",
        )

    def test_criterion_10_backend_equivalence(self, tmp_path):
        rng = np.random.default_rng(1010)
        all_equal = True
        for trial in range(50):
            v = int(rng.integers(5, 31))
            vocab, (llm, plus, minus) = random_table_triple(rng, v)
            cfg = ProtocolConfig(
                lam=float(rng.uniform(0.3, 1.5)),
                horizon_k=int(rng.integers(1, 7)),
                top_k=min(32, v),
                max_len=int(rng.integers(8, 40)),
                seed=trial,
            )
            sim_path = str(tmp_path / f"sim_{trial}.bin")
            with FrameLog(sim_path) as cl:
                sim_committed, _, _ = run_simulated_session(
                    cfg, llm, plus, minus, vocab, [0], cloud_log=cl
                )

            ready = threading.Event()
            bound: list = []
            sock_path = str(tmp_path / f"sock_{trial}.bin")
            out = {}

            def serve():
                with FrameLog(sock_path) as fl:
                    out["stats"] = serve_cloud_once(
                        ("127.0.0.1", 0), llm, minus, vocab,
                        frame_log=fl, ready=ready, bound=bound,
                    )

            thread = threading.Thread(target=serve, daemon=True)
            thread.start()
            assert ready.wait(10)
            sock_committed, _ = run_edge_socket(cfg, bound[0], plus, vocab, [0])
            thread.join(timeout=10)

            def verdict_frames(path):
                return [
                    frame for direction, frame in FrameLog.read(path)
                    if direction == DIR_DOWN and frame[5] == MSG_VERDICT
                ]

            same = (
                sim_committed == sock_committed
                and verdict_frames(sim_path) == verdict_frames(sock_path)
            )
            all_equal = all_equal and same
        record(
            10, all_equal,
            "socket and simulated channels: identical committed sequences and "
            "identical verdict frame streams over 50 randomized sessions",
        )
