import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from specsteer.core import (
    ProtocolConfig,
    ROLE_DRAFT,
    SequenceError,
    Vocabulary,
    make_streams,
    softmax,
    stream,
    total_variation,
)
from specsteer.fusion import fused_target
from specsteer.models import TableModel
from specsteer.protocol import (
    CloudVerifier,
    DraftBatch,
    EdgeSession,
    ProtocolStateError,
    SparseSteeringPayload,
    autoregressive_decode,
    build_steering_payload,
    draft_frame_bytes,
    exact_partition_fn,
    history_tail,
    recover,
    recovery_law,
    run_session,
    verdict_frame_bytes,
)
from specsteer.transport import decode_frame, decode_hello, encode_hello, vocab_hash64

from conftest import make_vocab, random_table_triple


def single_row_model(vocab, row):
    return TableModel(vocab, {(): row})


class TestFrameSizeFormulas:
    def test_draft_bytes(self):
        assert draft_frame_bytes(4, False) == 32
        assert draft_frame_bytes(4, True) == 36
        assert draft_frame_bytes(1, False) == 20

    def test_verdict_bytes(self):
        assert verdict_frame_bytes(0) == 17
        assert verdict_frame_bytes(32) == 17 + 2 + 32 * 8


class TestDrafting:
    def test_greedy_repetition(self):
        vocab = make_vocab(3)
        cfg = ProtocolConfig(horizon_k=3, decode_mode="greedy", max_len=16, top_k=3)
        edge = EdgeSession(cfg, single_row_model(vocab, [0.1, 0.8, 0.1]), vocab, [0])
        assert edge.next_draft().token_ids == (1, 1, 1)

    def test_batch_capped_at_max_len(self):
        vocab = make_vocab(3)
        cfg = ProtocolConfig(horizon_k=4, decode_mode="greedy", max_len=3, top_k=3)
        edge = EdgeSession(cfg, single_row_model(vocab, [0.1, 0.8, 0.1]), vocab, [0])
        assert len(edge.next_draft().token_ids) == 2

    def test_batch_truncated_at_eos(self):
        vocab = make_vocab(3)
        cfg = ProtocolConfig(horizon_k=4, decode_mode="greedy", max_len=16, top_k=3)
        edge = EdgeSession(cfg, single_row_model(vocab, [0.0, 0.0, 1.0]), vocab, [0])
        assert edge.next_draft().token_ids == (vocab.eos_id,)

    def test_double_draft_rejected(self):
        vocab = make_vocab(3)
        cfg = ProtocolConfig(decode_mode="greedy", max_len=16, top_k=3)
        edge = EdgeSession(cfg, single_row_model(vocab, [0.1, 0.8, 0.1]), vocab, [0])
        edge.next_draft()
        with pytest.raises(ProtocolStateError):
            edge.next_draft()

    def test_stochastic_draft_reproducible(self):
        vocab = make_vocab(5)
        row = np.array([0.1, 0.2, 0.3, 0.3, 0.1])
        cfg = ProtocolConfig(horizon_k=4, max_len=16, seed=9, top_k=5)
        drafts = []
        for _ in range(2):
            edge = EdgeSession(cfg, single_row_model(vocab, row), vocab, [0])
            drafts.append(edge.next_draft().token_ids)
        assert drafts[0] == drafts[1]


class TestVerify:
    def _cloud(self, vocab, p_llm, p_minus, lam, **kw):
        cfg = ProtocolConfig(lam=lam, top_k=vocab.size, max_len=16, **kw)
        return CloudVerifier(
            cfg,
            single_row_model(vocab, p_llm),
            single_row_model(vocab, p_minus),
            vocab,
            [0],
        )

    def test_alpha_hand_values(self):
        # P_LLM = 0.3, lambda = 0.5, P_SLM- = 0.4 -> alpha = 1.
        vocab = make_vocab(3)
        cloud = self._cloud(vocab, [0.3, 0.5, 0.2], [0.4, 0.4, 0.2], 0.5)
        verdict = cloud.handle_draft(DraftBatch(0, (0,)), None)
        assert cloud.traces[0].alphas[0] == 1.0
        assert verdict.accepted_count == 1
        assert verdict.recovery is None

    def test_alpha_quarter(self):
        # P_LLM = 0.1, lambda = 1.0, P_SLM- = 0.4 -> alpha = 0.25.
        vocab = make_vocab(3)
        cloud = self._cloud(vocab, [0.1, 0.7, 0.2], [0.4, 0.4, 0.2], 1.0)
        cloud.handle_draft(DraftBatch(0, (0,)), None)
        assert cloud.traces[0].alphas[0] == pytest.approx(0.25)

    def test_tiny_lambda_accepts_everything(self):
        vocab = make_vocab(3)
        cloud = self._cloud(vocab, [0.3, 0.5, 0.2], [0.4, 0.4, 0.2], 1e-12)
        verdict = cloud.handle_draft(DraftBatch(0, (0, 1, 0, 1)), None)
        assert verdict.accepted_count == 4
        assert verdict.recovery is None

    def test_greedy_verify_rejects_alpha_below_one(self):
        vocab = make_vocab(3)
        cloud = self._cloud(
            vocab, [0.1, 0.7, 0.2], [0.4, 0.4, 0.2], 1.0, decode_mode="greedy"
        )
        verdict = cloud.handle_draft(DraftBatch(0, (0,)), None)
        assert verdict.accepted_count == 0
        assert verdict.recovery is not None

    def test_out_of_order_seq(self):
        vocab = make_vocab(3)
        cloud = self._cloud(vocab, [0.3, 0.5, 0.2], [0.4, 0.4, 0.2], 0.5)
        with pytest.raises(ProtocolStateError):
            cloud.handle_draft(DraftBatch(3, (0,)), None)

    def test_empty_batch(self):
        vocab = make_vocab(3)
        cloud = self._cloud(vocab, [0.3, 0.5, 0.2], [0.4, 0.4, 0.2], 0.5)
        with pytest.raises(ProtocolStateError):
            cloud.handle_draft(DraftBatch(0, ()), None)

    def test_unexpected_delta(self):
        vocab = make_vocab(3)
        cloud = self._cloud(vocab, [0.3, 0.5, 0.2], [0.4, 0.4, 0.2], 0.5)
        with pytest.raises(ProtocolStateError):
            cloud.handle_draft(DraftBatch(0, (0,)), 1)


class TestCloudIngest:
    """Untrusted ids end in a typed error before any model or logit index
    sees them, and the refused frame leaves the mirror untouched."""

    def _cloud(self, vocab, lam=0.5, decode_mode="stochastic", prompt=(0,)):
        cfg = ProtocolConfig(lam=lam, top_k=vocab.size, max_len=16, decode_mode=decode_mode)
        llm = single_row_model(vocab, [0.1, 0.7, 0.2])
        minus = single_row_model(vocab, [0.4, 0.4, 0.2])
        return CloudVerifier(cfg, llm, minus, vocab, prompt)

    @pytest.mark.parametrize("ids", [(3,), (0, 1, 3), (-1,), (0, -2), (2**32 - 1,)])
    def test_draft_id_out_of_range(self, ids):
        # (0, 1, 3): the last draft token is never scored as history, so
        # only the ingest check keeps it out of verify's logit index.
        vocab = make_vocab(3)
        cloud = self._cloud(vocab, lam=1e-12)
        with pytest.raises(ProtocolStateError):
            cloud.handle_draft(DraftBatch(0, ids), None)
        assert cloud.mirror == [0] and cloud.expected_seq == 0

    @pytest.mark.parametrize("delta", [3, -1])
    def test_history_delta_out_of_range(self, delta):
        vocab = make_vocab(3)
        cloud = self._cloud(vocab, lam=1.0, decode_mode="greedy")
        assert cloud.handle_draft(DraftBatch(0, (0,)), None).recovery is not None
        with pytest.raises(ProtocolStateError):
            cloud.handle_draft(DraftBatch(1, (1,)), delta)
        assert cloud.mirror == [0] and cloud.awaiting_delta

    def test_trailing_id_out_of_range(self):
        vocab = make_vocab(3)
        cloud = self._cloud(vocab, lam=1.0, decode_mode="greedy")
        cloud.handle_draft(DraftBatch(0, (0,)), None)
        with pytest.raises(ProtocolStateError):
            cloud.finish([7])

    @pytest.mark.parametrize("prompt", [(0, 3), (0, 2, 1), (2**32 - 1,), (0,) * 17])
    def test_hello_prompt_refused(self, prompt):
        # Out of range, a token after eos (eos is id 2), and longer than max_len.
        vocab = make_vocab(3)
        cfg = ProtocolConfig(top_k=3, max_len=16)
        _, payload = decode_frame(encode_hello(cfg, vocab_hash64(vocab), prompt))
        hcfg, _, hprompt = decode_hello(payload)
        with pytest.raises(SequenceError):
            CloudVerifier(hcfg, single_row_model(vocab, [0.1, 0.7, 0.2]),
                          single_row_model(vocab, [0.4, 0.4, 0.2]), vocab, hprompt)


    def test_draft_longer_than_horizon(self):
        vocab = make_vocab(3)
        cloud = self._cloud(vocab, lam=1e-12)
        with pytest.raises(ProtocolStateError, match="horizon_k"):
            cloud.handle_draft(DraftBatch(0, (0, 1, 0, 1, 0)), None)
        assert cloud.mirror == [0] and cloud.expected_seq == 0
        cloud.handle_draft(DraftBatch(0, (0, 1, 0, 1)), None)
        assert cloud.mirror == [0, 0, 1, 0, 1]

    def test_long_draft_not_scored(self):
        # A 200-token draft at horizon_k=4, max_len=10 used to be accepted
        # whole, growing the mirror to 201 tokens.
        vocab = make_vocab(3)
        cfg = ProtocolConfig(lam=1e-12, horizon_k=4, top_k=3, max_len=10)
        calls = []
        llm = single_row_model(vocab, [0.1, 0.7, 0.2])
        minus = single_row_model(vocab, [0.4, 0.4, 0.2])
        minus_logits = minus.next_token_logits
        minus.next_token_logits = lambda h: calls.append(1) or minus_logits(h)
        cloud = CloudVerifier(cfg, llm, minus, vocab, [0])
        with pytest.raises(ProtocolStateError):
            cloud.handle_draft(DraftBatch(0, (0, 1) * 100), None)
        assert cloud.mirror == [0] and not calls

    def test_draft_past_max_len(self):
        vocab = make_vocab(3)
        cloud = self._cloud(vocab, lam=1e-12, prompt=(0,) * 13)
        with pytest.raises(ProtocolStateError, match="max_len"):
            cloud.handle_draft(DraftBatch(0, (0, 1, 0, 1)), None)
        assert cloud.mirror == [0] * 13 and cloud.expected_seq == 0
        cloud.handle_draft(DraftBatch(0, (0, 1, 0)), None)
        assert len(cloud.mirror) == 16

    def test_delta_counts_toward_max_len(self):
        vocab = make_vocab(3)
        cloud = self._cloud(vocab, lam=1.0, decode_mode="greedy", prompt=(0,) * 12)
        assert cloud.handle_draft(DraftBatch(0, (0,)), None).recovery is not None
        with pytest.raises(ProtocolStateError, match="max_len"):
            cloud.handle_draft(DraftBatch(1, (0, 0, 0, 0)), 1)
        assert cloud.mirror == [0] * 12 and cloud.awaiting_delta

    @pytest.mark.parametrize("ids", [(2, 0), (2, 1, 0), (0, 2, 2), (2, 2)])
    def test_token_after_eos(self, ids):
        # eos is id 2; it may only end a draft.
        vocab = make_vocab(3)
        cloud = self._cloud(vocab, lam=1e-12)
        with pytest.raises(ProtocolStateError, match="after eos"):
            cloud.handle_draft(DraftBatch(0, ids), None)
        assert cloud.mirror == [0] and cloud.expected_seq == 0

    def test_draft_ending_in_eos_accepted(self):
        vocab = make_vocab(3)
        cloud = self._cloud(vocab, lam=1e-12)
        assert cloud.handle_draft(DraftBatch(0, (0, 1, 2)), None).accepted_count == 3

    @pytest.mark.parametrize("prompt", [(0, 2), (0,) * 16, (2,)])
    def test_draft_after_session_ended(self, prompt):
        # The prompt already ends in eos or fills max_len.
        vocab = make_vocab(3)
        cloud = self._cloud(vocab, lam=1e-12, prompt=prompt)
        with pytest.raises(ProtocolStateError, match="after the session ended"):
            cloud.handle_draft(DraftBatch(0, (0,)), None)
        assert cloud.mirror == list(prompt) and cloud.expected_seq == 0

    def test_draft_after_accepted_eos(self):
        vocab = make_vocab(3)
        cloud = self._cloud(vocab, lam=1e-12)
        cloud.handle_draft(DraftBatch(0, (1, 2)), None)
        with pytest.raises(ProtocolStateError, match="after the session ended"):
            cloud.handle_draft(DraftBatch(1, (0,)), None)
        assert cloud.mirror == [0, 1, 2] and cloud.expected_seq == 1

    def test_draft_after_eos_delta(self):
        # The recovery token the delta repairs was eos, so the edge is done.
        vocab = make_vocab(3)
        cloud = self._cloud(vocab, lam=1.0, decode_mode="greedy")
        assert cloud.handle_draft(DraftBatch(0, (0,)), None).recovery is not None
        with pytest.raises(ProtocolStateError, match="after the session ended"):
            cloud.handle_draft(DraftBatch(1, (0,)), 2)
        assert cloud.mirror == [0] and cloud.awaiting_delta


class TestSteeringPayload:
    def test_sorted_unique_truncated(self):
        rng = np.random.default_rng(2)
        h_llm, h_minus = rng.normal(0, 2, 10), rng.normal(0, 2, 10)
        payload = build_steering_payload(h_llm, h_minus, beta=1.0, top_k=4)
        vals = [v for _, v in payload.entries]
        ids = [i for i, _ in payload.entries]
        assert len(payload.entries) == 4
        assert vals == sorted(vals, reverse=True)
        assert len(set(ids)) == 4

    def test_values_formula(self):
        h_llm = np.array([1.0, 0.0, -1.0])
        h_minus = np.array([0.5, 0.5, 0.5])
        payload = build_steering_payload(h_llm, h_minus, beta=2.0, top_k=3)
        expected = h_llm - 2.0 * h_minus
        for i, v in payload.entries:
            assert v == pytest.approx(expected[i])


class TestRecover:
    def test_beta_zero_truncated_prior(self):
        rng = np.random.default_rng(7)
        v = 8
        h_llm, h_minus, h_plus = (rng.normal(0, 2, v) for _ in range(3))
        payload = build_steering_payload(h_llm, h_minus, beta=0.0, top_k=4)
        law = recovery_law(payload, h_plus, 0.0, v)
        ids = [i for i, _ in payload.entries]
        expected = np.zeros(v)
        expected[ids] = softmax(h_llm[ids])
        np.testing.assert_allclose(law, expected, atol=1e-12)

    def test_vanishing_steering_recovers_prior(self):
        # h_plus == h_minus and full support: recovery law is the prior.
        rng = np.random.default_rng(8)
        v = 6
        h_llm, h_minus = rng.normal(0, 2, v), rng.normal(0, 2, v)
        payload = build_steering_payload(h_llm, h_minus, beta=1.0, top_k=v)
        law = recovery_law(payload, h_minus, 1.0, v)
        np.testing.assert_allclose(law, softmax(h_llm), atol=1e-12)

    def test_full_support_beta_one_is_fused_target(self):
        rng = np.random.default_rng(9)
        v = 7
        h_llm, h_plus, h_minus = (rng.normal(0, 2, v) for _ in range(3))
        payload = build_steering_payload(h_llm, h_minus, beta=1.0, top_k=v)
        law = recovery_law(payload, h_plus, 1.0, v)
        target = fused_target(softmax(h_llm), softmax(h_plus), softmax(h_minus)).target
        assert total_variation(law, target) < 1e-9

    def test_greedy_tie_break(self):
        from specsteer.protocol import SparseSteeringPayload

        payload = SparseSteeringPayload(entries=((2, 1.0), (1, 1.0), (0, 0.0)))
        tok = recover(payload, np.zeros(3), beta=0.0, rng=None, greedy=True)
        assert tok == 1

    def test_empty_payload_error(self):
        from specsteer.protocol import SparseSteeringPayload

        with pytest.raises(ProtocolStateError):
            recover(SparseSteeringPayload(entries=()), np.zeros(3), 1.0, None, True)

    def test_stochastic_draws_match_law(self):
        rng = np.random.default_rng(10)
        v = 5
        h_llm, h_plus, h_minus = (rng.normal(0, 1.5, v) for _ in range(3))
        payload = build_steering_payload(h_llm, h_minus, beta=1.0, top_k=3)
        law = recovery_law(payload, h_plus, 1.0, v)
        draws = np.zeros(v)
        sampler = stream(5, ROLE_DRAFT)
        n = 200_000
        for _ in range(n):
            draws[recover(payload, h_plus, 1.0, sampler)] += 1
        assert total_variation(draws / n, law) < 0.01


def recover_by_running_sum(payload, h_plus, beta, u):
    """``recover``'s stochastic pick as the Python running-sum loop it
    used to be, given the uniform ``u``."""
    scores = [(i, v + beta * h_plus.item(i)) for i, v in payload.entries]
    m = max(s for _, s in scores)
    weights = [math.exp(s - m) for _, s in scores]
    threshold = u * math.fsum(weights)
    acc = 0.0
    for (i, _), w in zip(scores, weights):
        acc += w
        if acc > threshold:
            return i
    return scores[-1][0]


class FixedUniform:
    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


# Few distinct values, so scores tie; -800 underflows to a zero weight, so
# cumulative sums tie too.
_VALUES = st.sampled_from([-800.0, -36.8, -2.0, 0.0, 0.0, 0.5, 3.0])


class TestRecoverPick:
    @given(
        data=st.data(),
        v=st.integers(1, 12),
        beta=st.sampled_from([0.0, 0.5, 1.0]),
        u=st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 0.5, math.nextafter(1.0, 0.0), 1.0])),
    )
    def test_equals_running_sum(self, data, v, beta, u):
        ids = data.draw(st.permutations(range(v)))
        n = data.draw(st.integers(1, v))
        entries = tuple((i, data.draw(_VALUES)) for i in ids[:n])
        h_plus = np.array([data.draw(_VALUES) for _ in range(v)])
        payload = SparseSteeringPayload(entries)
        assert (recover(payload, h_plus, beta, FixedUniform(u))
                == recover_by_running_sum(payload, h_plus, beta, u))

    def test_threshold_past_last_sum_picks_last_id(self):
        # Ten weights of ~1e-16 vanish from the running sum after 1.0 but
        # not from fsum, so a draw just below 1 lands past every sum.
        payload = SparseSteeringPayload(((3, 0.0),) + tuple((i, -36.8) for i in range(10)))
        h_plus = np.zeros(11)
        weights = [math.exp(v) for _, v in payload.entries]
        u = math.nextafter(1.0, 0.0)
        assert u * math.fsum(weights) > sum(weights)
        assert recover(payload, h_plus, 1.0, FixedUniform(u)) == 9
        assert recover_by_running_sum(payload, h_plus, 1.0, u) == 9


class TestRunSession:
    def test_tiny_lambda_equals_pure_drafter(self):
        rng = np.random.default_rng(12)
        vocab, (llm, plus, minus) = random_table_triple(rng, 6)
        cfg = ProtocolConfig(lam=1e-12, max_len=24, seed=77, top_k=6)
        committed, traces = run_session(cfg, llm, plus, minus, vocab, [0, 1])
        baseline = autoregressive_decode(
            plus, vocab, [0, 1], 24, "stochastic", stream(77, ROLE_DRAFT)
        )
        assert committed == baseline
        assert all(t.recovery_token is None for t in traces)

    def test_all_reject_greedy_equals_pure_llm(self):
        rng = np.random.default_rng(13)
        vocab, (llm, plus, minus) = random_table_triple(rng, 6)
        cfg = ProtocolConfig(
            lam=1e12, max_len=24, decode_mode="greedy", top_k=6, seed=3
        )
        committed, _ = run_session(cfg, llm, minus, minus, vocab, [0])
        baseline = autoregressive_decode(llm, vocab, [0], 24, "greedy")
        assert committed == baseline

    def test_trace_completeness(self):
        rng = np.random.default_rng(14)
        vocab, (llm, plus, minus) = random_table_triple(rng, 8)
        cfg = ProtocolConfig(lam=0.8, max_len=32, seed=21, top_k=8)
        committed, traces = run_session(cfg, llm, plus, minus, vocab, [0, 1])
        emitted = sum(
            t.accepted_count + (1 if t.recovery_token is not None else 0)
            for t in traces
        )
        assert emitted == len(committed) - 2

    def test_alpha_values_in_range(self):
        rng = np.random.default_rng(15)
        vocab, (llm, plus, minus) = random_table_triple(rng, 5)
        cfg = ProtocolConfig(lam=1.0, max_len=32, seed=2, top_k=5)
        _, traces = run_session(cfg, llm, plus, minus, vocab, [0])
        for t in traces:
            assert all(0.0 <= a <= 1.0 for a in t.alphas)

    def test_determinism(self):
        rng = np.random.default_rng(16)
        vocab, (llm, plus, minus) = random_table_triple(rng, 6)
        cfg = ProtocolConfig(lam=0.7, max_len=24, seed=101, top_k=6)
        a, _ = run_session(cfg, llm, plus, minus, vocab, [0])
        b, _ = run_session(cfg, llm, plus, minus, vocab, [0])
        assert a == b

    def test_vocab_mismatch(self):
        rng = np.random.default_rng(17)
        vocab, (llm, plus, minus) = random_table_triple(rng, 6)
        other_vocab, (llm2, _, _) = random_table_triple(rng, 7)
        cfg = ProtocolConfig(max_len=8, top_k=6)
        with pytest.raises(ProtocolStateError):
            run_session(cfg, llm2, plus, minus, vocab, [0])

    def test_session_stops_at_max_len(self):
        rng = np.random.default_rng(18)
        vocab, (llm, plus, minus) = random_table_triple(rng, 6)
        cfg = ProtocolConfig(lam=0.5, max_len=10, seed=4, top_k=6)
        committed, _ = run_session(cfg, llm, plus, minus, vocab, [0])
        assert len(committed) <= 10

    def test_exact_z_mode(self):
        rng = np.random.default_rng(19)
        vocab, (llm, plus, minus) = random_table_triple(rng, 6)
        cfg = ProtocolConfig(exact_z=True, max_len=16, seed=6, top_k=6)
        committed, traces = run_session(cfg, llm, plus, minus, vocab, [0])
        assert len(committed) > 1
        zt = exact_partition_fn(llm, plus, minus)
        assert zt([0]) == pytest.approx(
            float(np.sum(llm.next_token_probs([0]) * plus.next_token_probs([0])
                         / minus.next_token_probs([0]))),
        )

    def test_exact_z_needs_callback(self):
        rng = np.random.default_rng(20)
        vocab, (llm, plus, minus) = random_table_triple(rng, 6)
        cfg = ProtocolConfig(exact_z=True, max_len=16, top_k=6)
        with pytest.raises(ProtocolStateError):
            CloudVerifier(cfg, llm, minus, vocab, [0])


# Per session: the committed tokens after the prompt, "/", and the accepted
# count of each round, for 64 consecutive sessions on one make_streams set
# per (trial, (horizon_k, max_len)).  Recorded with one scalar
# Generator.random() call per uniform.
SHARED_STREAM_PINS = {
    (0, (1, 2)): (
        '5/0 6/1 5/1 5/1 6/1 2/1 7/1 5/1 5/1 5/0 6/1 5/1 5/0 5/1 2/1 2/1 2/1 0/1 '
        '5/0 5/1 6/1 4/1 0/1 2/1 6/1 5/1 5/1 5/1 5/1 8/1 0/0 0/1 4/1 5/1 0/1 5/1 '
        '5/1 0/0 2/1 1/1 5/1 5/1 0/0 0/0 5/0 6/1 6/1 6/1 2/1 5/0 4/1 6/1 6/1 5/1 '
        '5/1 5/1 2/1 5/1 0/0 0/1 6/1 4/1 6/1 5/0'
    ),
    (1, (1, 2)): (
        '1/1 8/1 7/1 1/0 7/1 1/0 2/1 7/1 7/1 7/1 0/1 4/1 0/0 2/1 0/1 2/1 2/1 2/1 '
        '2/1 7/1 0/0 2/1 0/1 0/0 7/1 9/1 1/1 3/1 2/1 7/1 0/0 4/0 0/1 2/1 1/1 8/1 '
        '7/1 3/1 7/1 4/1 2/1 6/1 6/1 8/1 3/1 2/1 2/1 1/1 9/1 7/1 7/1 0/1 1/0 1/1 '
        '7/1 6/1 2/1 2/1 2/1 2/1 7/0 1/0 1/0 2/1'
    ),
    (2, (1, 2)): (
        '0/0 3/1 0/1 3/0 3/1 2/0 3/1 0/1 3/1 2/0 2/1 0/0 2/0 0/1 2/0 3/1 3/1 2/1 '
        '0/0 2/0 2/1 3/1 0/1 2/1 2/1 3/1 0/1 2/1 2/1 0/1 2/0 0/1 2/1 2/0 2/1 1/1 '
        '0/1 2/1 2/0 2/1 0/1 1/1 3/1 0/1 0/0 2/0 2/1 2/0 0/0 0/0 0/0 0/1 3/0 0/1 '
        '0/1 0/0 2/0 2/1 3/1 2/1 0/1 2/1 2/0 2/0'
    ),
    (3, (1, 2)): (
        '1/1 1/1 1/1 1/0 1/0 1/0 3/0 1/0 3/0 1/0 1/1 1/1 1/1 1/1 1/1 1/1 1/1 1/1 '
        '1/1 3/0 3/1 1/0 1/1 1/1 1/1 1/1 0/1 1/0 1/1 1/1 1/0 0/1 0/1 1/0 1/1 1/0 '
        '1/0 1/1 1/0 0/0 1/0 1/1 3/0 1/1 3/0 1/1 1/1 1/0 1/0 1/0 1/0 3/0 1/1 1/0 '
        '1/1 1/1 1/1 1/1 1/0 1/0 1/1 1/0 1/1 1/1'
    ),
    (4, (4, 7)): (
        '3/1 2123/4 3/1 23/2 23/2 002202/401 203/3 2023/4 3/1 223/3 210221/23 '
        '02203/41 2223/4 3/1 13/2 3/1 3/1 3/1 03/2 23/2 203/3 20203/111 3/1 '
        '20213/41 120200/23 2003/101 222002/32 002223/004 123/3 3/1 03/01 3/1 '
        '3/1 003/3 23/2 023/3 223/3 222212/42 3/1 2223/4 3/1 13/2 2223/4 3/1 '
        '022223/42 2203/4 23/2 220222/42 10213/41 2203/21 222202/42 023/3 '
        '222222/42 3/1 222203/401 23/2 223/3 23/2 1223/4 3/1 20003/102 223/3 3/1 '
        '203/11'
    ),
}


class TestSharedStreamPins:
    @pytest.mark.parametrize("trial, shape", list(SHARED_STREAM_PINS))
    def test_consecutive_sessions(self, trial, shape):
        horizon_k, max_len = shape
        rng = np.random.default_rng(7000 + trial)
        v = int(rng.integers(3, 11))
        vocab, (llm, plus, minus) = random_table_triple(rng, v)
        lam = float(np.exp(rng.uniform(np.log(0.3), np.log(2.0))))
        cfg = ProtocolConfig(lam=lam, beta=1.0, horizon_k=horizon_k, top_k=v, max_len=max_len,
                             seed=trial)
        streams = make_streams(trial)
        out = []
        for _ in range(64):
            committed, traces = run_session(cfg, llm, plus, minus, vocab, (0,), streams=streams)
            out.append("".join(map(str, committed[1:])) + "/"
                       + "".join(str(t.accepted_count) for t in traces))
        assert " ".join(out) == SHARED_STREAM_PINS[trial, shape]


class TestCancellation:
    def test_verdicts_independent_of_drafter(self):
        rng = np.random.default_rng(21)
        vocab, (llm, plus_a, minus) = random_table_triple(rng, 6)
        _, (plus_b, _, _) = random_table_triple(rng, 6)
        batch = DraftBatch(0, (0, 2, 4, 1))
        cfg = ProtocolConfig(lam=0.9, top_k=6, max_len=32, seed=55)
        verdicts = []
        alphas = []
        for _ in range(2):
            cloud = CloudVerifier(cfg, llm, minus, vocab, [0])
            verdicts.append(cloud.handle_draft(batch, None))
            alphas.append(cloud.traces[0].alphas)
        assert verdicts[0] == verdicts[1]
        assert alphas[0] == alphas[1]


class TestHistoryTail:
    def test_tail(self):
        h = [1, 2, 3]
        assert history_tail(h, 2) == [2, 3]
        assert history_tail(h, 5) == [1, 2, 3]
        assert history_tail(h, 0) == []  # not h[-0:], the whole list
        assert history_tail(h, 5) is not h


class TestAutoregressive:
    def test_greedy_deterministic(self):
        vocab = make_vocab(3)
        m = single_row_model(vocab, [0.1, 0.8, 0.1])
        out = autoregressive_decode(m, vocab, [0], 5, "greedy")
        assert out == [0, 1, 1, 1, 1]

    def test_stops_at_eos(self):
        vocab = make_vocab(3)
        m = single_row_model(vocab, [0.0, 0.0, 1.0])
        out = autoregressive_decode(m, vocab, [0], 10, "greedy")
        assert out == [0, vocab.eos_id]


class TestSingleStepLawMonteCarlo:
    def test_session_first_token_matches_oracle(self):
        from specsteer.fusion import one_step_protocol_law

        rng = np.random.default_rng(22)
        vocab, (llm, plus, minus) = random_table_triple(rng, 5)
        lam, beta = 0.9, 1.0
        cfg = ProtocolConfig(
            lam=lam, beta=beta, max_len=2, top_k=5, horizon_k=4, seed=0
        )
        law = one_step_protocol_law(
            llm.next_token_probs([0]),
            plus.next_token_probs([0]),
            minus.next_token_probs([0]),
            llm.next_token_logits([0]),
            plus.next_token_logits([0]),
            minus.next_token_logits([0]),
            lam,
            beta,
        )
        counts = np.zeros(5)
        streams = make_streams(0)
        n = 60_000
        for _ in range(n):
            committed, _ = run_session(cfg, llm, plus, minus, vocab, [0], streams=streams)
            counts[committed[1]] += 1
        assert total_variation(counts / n, law) < 0.01
