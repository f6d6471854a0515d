import struct
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from specsteer.core import ProtocolConfig, SequenceError, Vocabulary
from specsteer.protocol import (
    DraftBatch,
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
    MSG_DRAFT,
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
        assert counters.down_bytes == 0


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
