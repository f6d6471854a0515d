import math
import socket
import struct
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from specsteer import transport
from specsteer.core import ProtocolConfig, SequenceError, Vocabulary
from specsteer.models import ModelError, TableModel
from specsteer.protocol import (
    DraftBatch,
    ProtocolStateError,
    SparseSteeringPayload,
    Verdict,
    draft_frame_bytes,
    run_session,
    verdict_frame_bytes,
)
from specsteer.transport import (
    ChannelModel,
    FrameLog,
    HandshakeError,
    MAX_PAYLOAD,
    MSG_DONE,
    MSG_DRAFT,
    MSG_HELLO,
    MSG_VERDICT,
    DIR_DOWN,
    DIR_UP,
    WireError,
    decode_done,
    decode_draft,
    decode_frame,
    decode_hello,
    decode_hello_ack,
    decode_verdict,
    encode_done,
    encode_draft,
    encode_frame,
    encode_hello,
    encode_hello_ack,
    encode_verdict,
    replay_cloud_log,
    run_cloud,
    run_edge,
    run_edge_socket,
    run_simulated_session,
    scan_frame_log,
    serve_cloud_once,
    simulated_pair,
    SocketEndpoint,
    vocab_hash64,
)

from conftest import make_vocab, random_table_triple


def f32(x):
    return struct.unpack("<f", struct.pack("<f", x))[0]


class TestFrameArithmetic:
    def test_draft_frame_size(self):
        frame = encode_draft(DraftBatch(0, (1, 2, 3, 4)))
        assert len(frame) == draft_frame_bytes(4, False) == 32

    def test_draft_frame_size_with_delta(self):
        frame = encode_draft(DraftBatch(1, (1, 2, 3, 4)), history_delta=7)
        assert len(frame) == draft_frame_bytes(4, True) == 36

    def test_accept_all_verdict_size(self):
        frame = encode_verdict(Verdict(0, 4, None))
        assert len(frame) == verdict_frame_bytes(0) == 17

    def test_rejection_verdict_size_top_k_32(self):
        entries = tuple((i, float(i)) for i in range(32))
        frame = encode_verdict(Verdict(0, 1, SparseSteeringPayload(entries)))
        assert len(frame) == verdict_frame_bytes(32) == 275
        _, payload = decode_frame(frame)
        assert len(payload) == 265

    def test_uplink_size_independent_of_vocab(self):
        # The draft frame carries fixed-width ids: same bytes for any V.
        for big_id in (99, 9_999):
            frame = encode_draft(DraftBatch(0, (big_id,) * 4))
            assert len(frame) == 32


class TestCodecRoundTrips:
    def test_draft(self):
        batch = DraftBatch(5, (0, 7, 2))
        for delta in (None, 9):
            msg_type, payload = decode_frame(encode_draft(batch, delta))
            assert msg_type == MSG_DRAFT
            out, d = decode_draft(payload, expect_delta=delta is not None)
            assert out == batch and d == delta

    def test_verdict_accept_all(self):
        v = Verdict(3, 4, None)
        _, payload = decode_frame(encode_verdict(v))
        assert decode_verdict(payload) == v

    def test_verdict_values_are_binary32(self):
        entries = ((4, 1.2345678901234), (1, -0.1), (0, 3.0))
        v = Verdict(2, 1, SparseSteeringPayload(entries))
        _, payload = decode_frame(encode_verdict(v))
        out = decode_verdict(payload)
        assert out.seq_no == 2 and out.accepted_count == 1
        for (i, x), (j, y) in zip(entries, out.recovery.entries):
            assert i == j and y == f32(x)

    def test_verdict_reencode_stable(self):
        entries = ((4, 1.2345678901234), (1, -0.1))
        frame = encode_verdict(Verdict(0, 0, SparseSteeringPayload(entries)))
        _, payload = decode_frame(frame)
        assert encode_verdict(decode_verdict(payload)) == frame

    def test_hello(self):
        cfg = ProtocolConfig(lam=0.7, beta=2.0, horizon_k=3, top_k=8, max_len=99, seed=5)
        _, payload = decode_frame(encode_hello(cfg, 12345, (1, 2, 3)))
        out_cfg, vhash, prompt = decode_hello(payload)
        assert out_cfg == cfg and vhash == 12345 and prompt == (1, 2, 3)

    def test_hello_ack(self):
        _, payload = decode_frame(encode_hello_ack(2**63 + 1))
        assert decode_hello_ack(payload) == 2**63 + 1

    def test_done(self):
        _, payload = decode_frame(encode_done(42, (7,)))
        assert decode_done(payload) == (42, (7,))
        _, payload = decode_frame(encode_done(10, ()))
        assert decode_done(payload) == (10, ())

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=40),
        st.one_of(st.none(), st.integers(0, 2**32 - 1)),
    )
    def test_draft_roundtrip_random(self, seq, ids, delta):
        batch = DraftBatch(seq, tuple(ids))
        _, payload = decode_frame(encode_draft(batch, delta))
        out, d = decode_draft(payload, expect_delta=delta is not None)
        assert out == batch and d == delta

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(0, 2**16 - 1),
        st.one_of(
            st.none(),
            st.lists(
                st.tuples(st.integers(0, 2**32 - 1), st.floats(-1e6, 1e6, width=32)),
                min_size=1,
                max_size=64,
            ),
        ),
    )
    def test_verdict_roundtrip_random(self, seq, accepted, entries):
        rec = SparseSteeringPayload(tuple(entries)) if entries else None
        v = Verdict(seq, accepted, rec)
        _, payload = decode_frame(encode_verdict(v))
        assert decode_verdict(payload) == v

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=40),
        st.one_of(st.none(), st.integers(0, 2**32 - 1)),
        st.lists(st.tuples(st.integers(0, 2**32 - 1), st.floats(-1e6, 1e6)),
                 min_size=1, max_size=64),
    )
    def test_frames_equal_per_element_packing(self, ids, delta, entries):
        def frame(msg_type, payload):
            return struct.pack("<4sBBI", b"SPST", 1, msg_type, len(payload)) + payload

        def u32s(xs):
            return b"".join(struct.pack("<I", x) for x in xs)

        tail = u32s([delta]) if delta is not None else b""
        assert encode_draft(DraftBatch(3, tuple(ids)), delta) == frame(
            MSG_DRAFT, struct.pack("<IH", 3, len(ids)) + u32s(ids) + tail)
        verdict = Verdict(3, 1, SparseSteeringPayload(tuple(entries)))
        assert encode_verdict(verdict) == frame(
            MSG_VERDICT, struct.pack("<IHBH", 3, 1, 1, len(entries))
            + b"".join(struct.pack("<If", i, x) for i, x in entries))
        assert encode_done(9, ids) == frame(MSG_DONE, struct.pack("<IH", 9, len(ids)) + u32s(ids))
        cfg = ProtocolConfig()
        assert encode_hello(cfg, 5, ids)[-4 * len(ids):] == u32s(ids)


class TestCodecErrors:
    def test_bad_magic(self):
        frame = b"XXXX" + encode_done(1, ())[4:]
        with pytest.raises(WireError):
            decode_frame(frame)

    def test_bad_version(self):
        frame = bytearray(encode_done(1, ()))
        frame[4] = 99
        with pytest.raises(WireError):
            decode_frame(bytes(frame))

    def test_unknown_type(self):
        with pytest.raises(WireError):
            encode_frame(77, b"")

    def test_short_frame(self):
        with pytest.raises(WireError):
            decode_frame(b"SPST")

    def test_payload_length_mismatch(self):
        frame = encode_done(1, ()) + b"\x00"
        with pytest.raises(WireError):
            decode_frame(frame)

    def test_empty_draft(self):
        with pytest.raises(WireError):
            encode_draft(DraftBatch(0, ()))

    def test_draft_wrong_delta_expectation(self):
        _, payload = decode_frame(encode_draft(DraftBatch(0, (1, 2))))
        with pytest.raises(WireError):
            decode_draft(payload, expect_delta=True)

    def test_verdict_truncated_entries(self):
        # Count field says two entries, only one follows.
        payload = struct.pack("<IHBH", 0, 0, 1, 2) + struct.pack("<If", 1, 0.5)
        with pytest.raises(WireError):
            decode_verdict(payload)

    def test_recovery_with_empty_entries(self):
        with pytest.raises(WireError):
            encode_verdict(Verdict(0, 0, SparseSteeringPayload(())))

    @pytest.mark.parametrize("bad", [2**32, -1])
    def test_id_outside_u32(self, bad):
        with pytest.raises(WireError):
            encode_draft(DraftBatch(0, (1, bad)))
        with pytest.raises(WireError):
            encode_draft(DraftBatch(0, (1,)), history_delta=bad)
        with pytest.raises(WireError):
            encode_done(2, (bad,))
        with pytest.raises(WireError):
            encode_hello(ProtocolConfig(), 0, (bad,))
        with pytest.raises(WireError):
            encode_verdict(Verdict(0, 0, SparseSteeringPayload(((bad, 0.5),))))


class TestVocabHash:
    def test_deterministic(self):
        v = make_vocab(9)
        assert vocab_hash64(v) == vocab_hash64(make_vocab(9))

    def test_sensitive_to_tokens(self):
        assert vocab_hash64(make_vocab(9)) != vocab_hash64(make_vocab(10))

    def test_sensitive_to_eos(self):
        a = Vocabulary(tokens=("x", "</s>"), eos_id=1)
        b = Vocabulary(tokens=("x", "</s>"), eos_id=0)
        assert vocab_hash64(a) != vocab_hash64(b)


class TestChannel:
    def test_transfer_time(self):
        model = ChannelModel(one_way_latency_ms=10.0, bandwidth_bps=1000.0)
        assert model.transfer_ms(100) == pytest.approx(10.0 + 100_000.0 / 1000.0)

    def test_invalid_params(self):
        with pytest.raises(WireError):
            ChannelModel(one_way_latency_ms=-1.0)
        with pytest.raises(WireError):
            ChannelModel(bandwidth_bps=0.0)

    def test_counters_accumulate(self):
        edge_end, cloud_end, counters = simulated_pair(
            ChannelModel(one_way_latency_ms=1.0, bandwidth_bps=1e6)
        )
        edge_end.send_frame(b"x" * 10)
        cloud_end.send_frame(b"y" * 20)
        assert counters.up_bytes == 10
        assert counters.down_bytes == 20
        assert counters.clock_ms == pytest.approx(2.0 + 1000.0 * 30 / 1e6)


class TestSimulatedEqualsInProcess:
    def test_committed_and_traces_match(self):
        rng = np.random.default_rng(31)
        for trial in range(5):
            vocab, (llm, plus, minus) = random_table_triple(rng, 8)
            cfg = ProtocolConfig(lam=0.8, max_len=24, top_k=8, seed=100 + trial)
            ref_committed, ref_traces = run_session(cfg, llm, plus, minus, vocab, [0])
            committed, edge_stats, cloud_stats = run_simulated_session(
                cfg, llm, plus, minus, vocab, [0]
            )
            assert committed == ref_committed
            assert cloud_stats.mirror == ref_committed
            assert [t.alphas for t in cloud_stats.traces] == [
                t.alphas for t in ref_traces
            ]
            assert [t.accepted_count for t in edge_stats.traces] == [
                t.accepted_count for t in ref_traces
            ]

    def test_uplink_bytes_independent_of_vocab_size(self):
        rng = np.random.default_rng(32)
        sizes = []
        for v in (100, 1000):
            vocab, (llm, plus, minus) = random_table_triple(rng, v)
            cfg = ProtocolConfig(lam=1e-9, max_len=9, horizon_k=4, top_k=32, seed=1)
            _, edge_stats, _ = run_simulated_session(cfg, llm, plus, minus, vocab, [0])
            sizes.append([t.uplink_bytes for t in edge_stats.traces])
        assert sizes[0] == sizes[1]


class TestHandshake:
    def test_vocab_mismatch_refused(self):
        rng = np.random.default_rng(33)
        vocab_a, (_, plus, _) = random_table_triple(rng, 6)
        vocab_b, (llm_b, _, minus_b) = random_table_triple(rng, 7)
        edge_end, cloud_end, _ = simulated_pair()
        out = {}

        def cloud_main():
            out["stats"] = run_cloud(cloud_end, llm_b, minus_b, vocab_b)

        thread = threading.Thread(target=cloud_main, daemon=True)
        thread.start()
        cfg = ProtocolConfig(max_len=8, top_k=6)
        with pytest.raises(HandshakeError):
            run_edge(cfg, edge_end, plus, vocab_a, [0])
        thread.join(timeout=10)
        assert out["stats"].refused

    @pytest.mark.parametrize("prompt", [[0, 6], [5, 1]])
    def test_bad_prompt_not_acknowledged(self, prompt):
        # Out of range, and a token after eos (id 5): checked before the ack.
        rng = np.random.default_rng(34)
        vocab, (llm, _, minus) = random_table_triple(rng, 6)
        edge_end, cloud_end, counters = simulated_pair()
        cfg = ProtocolConfig(max_len=8, top_k=6)
        edge_end.send_frame(encode_hello(cfg, vocab_hash64(vocab), prompt))
        with pytest.raises(SequenceError):
            run_cloud(cloud_end, llm, minus, vocab)
        # No ack: the only downlink frame is the DONE refusal.
        refusal = encode_done(0, ())
        assert counters.down_bytes == len(refusal)
        assert edge_end.recv_frame() == refusal


class TestFrameLogs:
    def _logged_session(self, tmp_path, seed=5):
        rng = np.random.default_rng(seed)
        vocab, (llm, plus, minus) = random_table_triple(rng, 8)
        cfg = ProtocolConfig(lam=0.8, max_len=24, top_k=8, seed=seed)
        cloud_path = str(tmp_path / "cloud_frames.bin")
        with FrameLog(cloud_path) as cloud_log:
            committed, _, _ = run_simulated_session(
                cfg, llm, plus, minus, vocab, [0], cloud_log=cloud_log
            )
        return vocab, llm, minus, cloud_path, committed

    def test_scan_clean_log(self, tmp_path):
        _, _, _, path, _ = self._logged_session(tmp_path)
        assert scan_frame_log(path) == []

    def test_scan_flags_values_on_uplink(self, tmp_path):
        path = str(tmp_path / "bad.bin")
        verdict = encode_verdict(Verdict(0, 0, SparseSteeringPayload(((1, 0.5),))))
        with FrameLog(path) as fl:
            fl.write(DIR_UP, verdict)
        violations = scan_frame_log(path)
        assert len(violations) == 1
        assert "message type 3" in violations[0]

    def test_scan_flags_forbidden_bytes(self, tmp_path):
        path = str(tmp_path / "leak.bin")
        with FrameLog(path) as fl:
            fl.write(DIR_UP, encode_frame(MSG_DRAFT, struct.pack("<IH", 0, 1) + b"gino"))
        violations = scan_frame_log(path, forbidden=[b"gino"])
        assert any("forbidden" in v for v in violations)

    def test_scan_ignores_downlink_values(self, tmp_path):
        path = str(tmp_path / "down.bin")
        verdict = encode_verdict(Verdict(0, 0, SparseSteeringPayload(((1, 0.5),))))
        with FrameLog(path) as fl:
            fl.write(DIR_DOWN, verdict)
        assert scan_frame_log(path) == []

    def test_replay_matches_log(self, tmp_path):
        vocab, llm, minus, path, _ = self._logged_session(tmp_path)
        assert replay_cloud_log(path, llm, minus, vocab) == []

    def test_replay_detects_tampering(self, tmp_path):
        vocab, llm, minus, path, _ = self._logged_session(tmp_path)
        records = FrameLog.read(path)
        tampered = str(tmp_path / "tampered.bin")
        with FrameLog(tampered) as fl:
            for direction, frame in records:
                if direction == DIR_DOWN and frame[5] == MSG_VERDICT:
                    frame = frame[:-1] + bytes([frame[-1] ^ 0xFF])
                fl.write(direction, frame)
        assert replay_cloud_log(tampered, llm, minus, vocab) != []


class TestSocketMode:
    def test_socket_equals_in_process(self):
        rng = np.random.default_rng(41)
        vocab, (llm, plus, minus) = random_table_triple(rng, 8)
        cfg = ProtocolConfig(lam=0.8, max_len=24, top_k=8, seed=17)
        ref, _ = run_session(cfg, llm, plus, minus, vocab, [0])

        ready = threading.Event()
        bound: list = []
        out = {}

        def serve():
            out["stats"] = serve_cloud_once(
                ("127.0.0.1", 0), llm, minus, vocab, ready=ready, bound=bound
            )

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        assert ready.wait(10)
        committed, _ = run_edge_socket(cfg, bound[0], plus, vocab, [0])
        thread.join(timeout=10)
        assert committed == ref
        assert out["stats"].mirror == ref


class Tamper:
    """Edge endpoint that rewrites the first uplink frame of one type."""

    def __init__(self, inner, msg_type, rewrite) -> None:
        self._inner = inner
        self._msg_type = msg_type
        self._rewrite = rewrite

    def send_frame(self, frame):
        msg_type, payload = decode_frame(frame)
        if msg_type == self._msg_type and self._rewrite is not None:
            frame, self._rewrite = self._rewrite(payload), None
        self._inner.send_frame(frame)

    def recv_frame(self):
        return self._inner.recv_frame()


def in_thread(fn):
    """Run ``fn`` on a daemon thread; returns the thread and its errors."""
    errors: list = []

    def main():
        try:
            fn()
        except Exception as exc:
            errors.append(exc)

    thread = threading.Thread(target=main, daemon=True)
    thread.start()
    return thread, errors


class TestSocketHardening:
    def test_declared_length_capped_before_reading(self):
        a, b = socket.socketpair()
        try:
            a.sendall(struct.pack("<4sBBI", b"SPST", 1, MSG_VERDICT, 2**32 - 1))
            with pytest.raises(WireError, match="largest legal payload"):
                SocketEndpoint(b, timeout=5).recv_frame()
        finally:
            a.close()
            b.close()

    def test_largest_verdict_fits_the_cap(self):
        assert MAX_PAYLOAD == 7 + 2 + 8 * 0xFFFF
        entries = tuple((i, 0.5) for i in range(0xFFFF))
        frame = encode_verdict(Verdict(0, 0, SparseSteeringPayload(entries)))
        assert len(frame) == 10 + MAX_PAYLOAD
        a, b = socket.socketpair()
        try:
            thread, errors = in_thread(lambda: a.sendall(frame))
            assert SocketEndpoint(b, timeout=5).recv_frame() == frame
            thread.join(timeout=5)
            assert not thread.is_alive() and not errors
            a.sendall(struct.pack("<4sBBI", b"SPST", 1, MSG_VERDICT, MAX_PAYLOAD + 1))
            with pytest.raises(WireError):
                SocketEndpoint(b, timeout=5).recv_frame()
        finally:
            a.close()
            b.close()

    def test_accept_times_out(self, monkeypatch):
        monkeypatch.setattr(transport, "DEFAULT_SOCKET_TIMEOUT", 0.05)
        vocab, (llm, _, minus) = random_table_triple(np.random.default_rng(0), 4)
        with pytest.raises(TimeoutError):
            serve_cloud_once(("127.0.0.1", 0), llm, minus, vocab)


def hostile_hello(cfg, vocab):
    return lambda payload: encode_hello(cfg, vocab_hash64(vocab), [0, 10**6])


def hostile_draft(cfg, vocab):
    def rewrite(payload):
        batch, _ = decode_draft(payload, expect_delta=False)
        return encode_draft(DraftBatch(batch.seq_no, (vocab.size + 5,) + batch.token_ids[1:]))
    return rewrite


def hostile_done(cfg, vocab):
    def rewrite(payload):
        final_len, trailing = decode_done(payload)
        return encode_done(final_len + 1, trailing)
    return rewrite


class TestCloudRefusal:
    @pytest.mark.parametrize("msg_type, rewrite, cloud_error", [
        (MSG_HELLO, hostile_hello, SequenceError),
        (MSG_DRAFT, hostile_draft, ProtocolStateError),
        (MSG_DONE, hostile_done, WireError),
    ])
    def test_refusal_reaches_edge(self, msg_type, rewrite, cloud_error):
        vocab, (llm, plus, minus) = random_table_triple(np.random.default_rng(51), 8)
        cfg = ProtocolConfig(lam=0.8, max_len=24, top_k=8, seed=3)
        a, b = socket.socketpair()
        try:
            thread, errors = in_thread(
                lambda: run_cloud(SocketEndpoint(a, timeout=5), llm, minus, vocab))
            edge_end = Tamper(SocketEndpoint(b, timeout=5), msg_type, rewrite(cfg, vocab))
            with pytest.raises(HandshakeError, match="refused by cloud"):
                run_edge(cfg, edge_end, plus, vocab, [0])
            thread.join(timeout=5)
            assert not thread.is_alive()
            assert len(errors) == 1 and isinstance(errors[0], cloud_error)
        finally:
            a.close()
            b.close()

    def test_cloud_error_surfaces_in_simulated_session(self):
        # The cloud's generalist knows fewer ids than the session uses, so
        # scoring the prompt raises on the cloud.
        rng = np.random.default_rng(52)
        vocab, (_, plus, minus) = random_table_triple(rng, 8)
        p = rng.dirichlet(np.ones(6))
        llm = TableModel(make_vocab(6), {(): p, (0,): p})
        cfg = ProtocolConfig(lam=0.8, max_len=24, top_k=8, seed=3)
        with pytest.raises(ModelError):
            run_simulated_session(cfg, llm, plus, minus, vocab, [6])



def draft_rewrite(tokens_of):
    """Rewrite the first draft's ids to ``tokens_of(vocab)``."""
    def rewrite(cfg, vocab):
        def apply(payload):
            batch, _ = decode_draft(payload, expect_delta=False)
            return encode_draft(DraftBatch(batch.seq_no, tokens_of(vocab)))
        return apply
    return rewrite


def done_to_draft(cfg, vocab):
    """Turn the edge's DONE, after a one-round session, into a second
    draft, sent after the session ended."""
    def apply(payload):
        _, trailing = decode_done(payload)
        return encode_draft(DraftBatch(1, (0,)), trailing[0] if trailing else None)
    return apply


class TestDraftBoundsRefusal:
    """Each ingest bound on a draft ends, over a socket, in the DONE
    refusal on the edge and a ProtocolStateError on the cloud."""

    @pytest.mark.parametrize("cfg_kw, drafter, msg_type, rewrite, match", [
        ({"horizon_k": 4, "max_len": 24}, None, MSG_DRAFT,
         draft_rewrite(lambda vocab: (0,) * 5), "horizon_k"),
        ({"horizon_k": 4, "max_len": 3}, None, MSG_DRAFT,
         draft_rewrite(lambda vocab: (0, 1, 0)), "max_len"),
        ({"horizon_k": 4, "max_len": 24}, None, MSG_DRAFT,
         draft_rewrite(lambda vocab: (vocab.eos_id, 0, 1)), "after eos"),
        ({"horizon_k": 1, "max_len": 2}, None, MSG_DONE, done_to_draft, "after the session ended"),
        ({"horizon_k": 4, "max_len": 24, "lam": 1e-12}, "eos", MSG_DONE, done_to_draft,
         "after the session ended"),
    ])
    def test_refusal_reaches_edge(self, cfg_kw, drafter, msg_type, rewrite, match):
        vocab, (llm, plus, minus) = random_table_triple(np.random.default_rng(55), 8)
        if drafter == "eos":  # drafts eos at once, and lam accepts it
            plus = TableModel(vocab, {(): np.eye(vocab.size)[vocab.eos_id]})
        cfg = ProtocolConfig(**{"lam": 0.8, "top_k": 8, "seed": 3, **cfg_kw})
        a, b = socket.socketpair()
        try:
            thread, errors = in_thread(
                lambda: run_cloud(SocketEndpoint(a, timeout=5), llm, minus, vocab))
            edge_end = Tamper(SocketEndpoint(b, timeout=5), msg_type, rewrite(cfg, vocab))
            with pytest.raises(HandshakeError, match="refused by cloud"):
                run_edge(cfg, edge_end, plus, vocab, [0])
            thread.join(timeout=5)
            assert not thread.is_alive()
            assert len(errors) == 1 and isinstance(errors[0], ProtocolStateError)
            assert match in str(errors[0])
        finally:
            a.close()
            b.close()

class TestEdgeVerdictIngest:
    @pytest.mark.parametrize("entries, match", [
        (((8, 0.5),), "out of range"),
        (((1, 0.5), (1, 0.25)), "repeats"),
        (((1, math.nan),), "not finite"),
        (((1, math.inf), (2, 0.5)), "not finite"),
        (tuple((i, 0.5) for i in range(5)), "top_k"),
    ])
    def test_bad_payload_rejected(self, entries, match):
        vocab, (_, plus, _) = random_table_triple(np.random.default_rng(61), 8)
        cfg = ProtocolConfig(lam=0.8, max_len=24, top_k=4, seed=3)
        a, b = socket.socketpair()

        def fake_cloud():
            cloud_end = SocketEndpoint(a, timeout=5)
            cloud_end.recv_frame()
            cloud_end.send_frame(encode_hello_ack(vocab_hash64(vocab)))
            cloud_end.recv_frame()
            cloud_end.send_frame(encode_verdict(Verdict(0, 0, SparseSteeringPayload(entries))))

        try:
            thread, errors = in_thread(fake_cloud)
            with pytest.raises(ProtocolStateError, match=match):
                run_edge(cfg, SocketEndpoint(b, timeout=5), plus, vocab, [0])
            thread.join(timeout=5)
            assert not thread.is_alive() and not errors
        finally:
            a.close()
            b.close()


class TestDeadCloud:
    def test_model_error_surfaces_instead_of_hanging(self):
        # A cloud whose generalist raises something other than a
        # SpecSteerError sends no refusal; the edge must still wake up.
        class BrokenModel(TableModel):
            def next_token_logits(self, history):
                raise RuntimeError("generalist crashed")

        rng = np.random.default_rng(53)
        vocab, (llm, plus, minus) = random_table_triple(rng, 8)
        broken = BrokenModel(vocab, {(): llm.next_token_probs([])})
        cfg = ProtocolConfig(lam=0.8, max_len=24, top_k=8, seed=3)
        outcome: list[BaseException] = []

        def edge() -> None:
            try:
                run_simulated_session(cfg, broken, plus, minus, vocab, [1])
            except BaseException as exc:
                outcome.append(exc)

        thread = threading.Thread(target=edge, daemon=True)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive(), "edge still waiting on a dead cloud"
        assert len(outcome) == 1 and isinstance(outcome[0], RuntimeError)
        assert "generalist crashed" in str(outcome[0])

    def test_edge_error_ends_the_cloud_thread(self):
        # The edge's own error wins over the cloud's view of the closed
        # channel, and the cloud thread does not outlive the session.
        class BrokenDrafter(TableModel):
            def next_token_cdf(self, history):
                raise RuntimeError("drafter crashed")

            next_token_probs = next_token_cdf

        rng = np.random.default_rng(54)
        vocab, (llm, plus, minus) = random_table_triple(rng, 8)
        broken = BrokenDrafter(vocab, {(): plus.next_token_probs([])})
        cfg = ProtocolConfig(lam=0.8, max_len=24, top_k=8, seed=3)
        before = set(threading.enumerate())
        with pytest.raises(RuntimeError, match="drafter crashed"):
            run_simulated_session(cfg, llm, broken, minus, vocab, [1])
        assert set(threading.enumerate()) <= before
