import math
import socket
import struct
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from specsteer import transport
from specsteer.core import (
    DECODE_MODES,
    ConfigError,
    ProtocolConfig,
    SequenceError,
    SpecSteerError,
    Vocabulary,
    validate_sequence,
)
from specsteer.models import TableModel
from specsteer.protocol import (
    DraftBatch,
    EdgeSession,
    ProtocolStateError,
    Verdict,
    draft_frame_bytes,
    pack_steering_entries,
    run_session,
    unpack_steering_entries,
    verdict_frame_bytes,
)
from specsteer.transport import (
    ChannelModel,
    ChannelTimeoutError,
    CloudSession,
    DirectEndpoint,
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
    SocketEndpoint,
    vocab_hash64,
)

from conftest import make_vocab, random_table_triple


def f32(x):
    return struct.unpack("<f", struct.pack("<f", x))[0]


def raw_hello(cfg, vhash, prompt, **fields) -> bytes:
    """``encode_hello(cfg, vhash, prompt)`` with ``fields`` of the config
    replaced and packed as they are: the handshake a hostile edge could
    send, carrying values no ``ProtocolConfig`` takes."""
    f = {**vars(cfg), **fields}
    payload = transport._HELLO.pack(
        f["lam"], f["beta"], f["horizon_k"], f["top_k"], f["max_len"],
        DECODE_MODES.index(f["decode_mode"]), f["seed"], vhash, len(prompt),
    )
    return encode_frame(MSG_HELLO, payload + struct.pack(f"<{len(prompt)}I", *prompt))


def section(entries) -> bytes:
    """``entries`` packed one by one as a verdict's entry section, with no
    check, as a hostile cloud could send them."""
    return b"".join(struct.pack("<If", i, x) for i, x in entries)


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
        frame = encode_verdict(Verdict(0, 1, section(entries)))
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
        values = (1.2345678901234, -0.1, 3.0)
        v = Verdict(2, 1, pack_steering_entries((4, 1, 0), values))
        _, payload = decode_frame(encode_verdict(v))
        out = decode_verdict(payload)
        assert out == v
        assert unpack_steering_entries(out.recovery) == ((4, 1, 0), tuple(map(f32, values)))

    def test_verdict_reencode_stable(self):
        frame = encode_verdict(Verdict(0, 0, pack_steering_entries((4, 1), (1.2345678901234, -0.1))))
        _, payload = decode_frame(frame)
        assert encode_verdict(decode_verdict(payload)) == frame

    def test_hello(self):
        cfg = ProtocolConfig(lam=0.7, beta=2.0, horizon_k=3, top_k=8, max_len=99, seed=5)
        _, payload = decode_frame(encode_hello(cfg, 12345, (1, 2, 3)))
        out_cfg, vhash, prompt = decode_hello(payload)
        assert out_cfg == cfg and vhash == 12345 and prompt == (1, 2, 3)
        assert raw_hello(cfg, 12345, (1, 2, 3)) == encode_hello(cfg, 12345, (1, 2, 3))

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
        v = Verdict(seq, accepted, section(entries) if entries else None)
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
        verdict = Verdict(3, 1, pack_steering_entries(*zip(*entries)))
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
            encode_verdict(Verdict(0, 0, b""))
        # Part of an entry would make a frame the decoder refuses.
        with pytest.raises(WireError):
            encode_verdict(Verdict(0, 0, section(((1, 0.5),)) + b"\0"))

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
        with pytest.raises(ProtocolStateError, match="u32 id"):
            pack_steering_entries([bad], [0.5])

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, 3.5e38, -1e39])
    def test_value_not_finite_in_binary32(self, value):
        # 3.5e38 is finite in float64 but rounds past the largest binary32.
        with pytest.raises(ProtocolStateError, match="finite binary32"):
            pack_steering_entries([0, 1], [0.5, value])
        # The largest binary32 itself packs.
        top = 3.4028234663852886e38
        assert unpack_steering_entries(pack_steering_entries([1], [top])) == ((1,), (top,))


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

    @pytest.mark.parametrize("latency, bandwidth", [
        (math.nan, 1000.0), (math.inf, 1000.0), (-math.inf, 1000.0),
        (0.0, math.nan), (0.0, -math.inf), (math.nan, math.nan),
    ])
    def test_non_finite_params(self, latency, bandwidth):
        with pytest.raises(WireError):
            ChannelModel(one_way_latency_ms=latency, bandwidth_bps=bandwidth)

    def test_infinite_bandwidth_adds_no_delay(self):
        assert ChannelModel(one_way_latency_ms=2.5).transfer_ms(10**9) == 2.5


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


def serve_uplink(frames, llm, minus, vocab, log_path):
    """``run_cloud`` over a socketpair on the given uplink frames, with a
    cloud frame log at ``log_path``.  Returns the cloud's error, or None,
    and the downlink frames an edge would read."""
    a, b = socket.socketpair()
    try:
        b.sendall(b"".join(frames))
        b.shutdown(socket.SHUT_WR)
        error = None
        with FrameLog(log_path) as fl:
            try:
                run_cloud(SocketEndpoint(a, timeout=5), llm, minus, vocab, fl)
            except SpecSteerError as exc:
                error = exc
        a.shutdown(socket.SHUT_WR)
        return error, read_frames(b)
    finally:
        a.close()
        b.close()


class TestHandshake:
    def test_vocab_mismatch_refused(self, tmp_path):
        rng = np.random.default_rng(33)
        vocab_a, (_, plus, _) = random_table_triple(rng, 6)
        vocab_b, (llm_b, _, minus_b) = random_table_triple(rng, 7)
        cloud = CloudSession(llm_b, minus_b, vocab_b)
        cfg = ProtocolConfig(max_len=8, top_k=6)
        path = str(tmp_path / "cloud.bin")
        with FrameLog(path) as fl:
            with pytest.raises(HandshakeError, match="refused by cloud"):
                run_edge(cfg, DirectEndpoint(cloud, fl), plus, vocab_a, [0])
        # Refused by the one rule for errors, which keeps the cause.
        assert isinstance(cloud.error, HandshakeError)
        assert str(cloud.error) == "vocabulary hash mismatch"
        assert cloud.finished and cloud.stats().rounds == 0
        # No ack: the only downlink frame is the DONE refusal.
        assert [r for r in FrameLog.read(path) if r[0] == DIR_DOWN] == [
            (DIR_DOWN, encode_done(0, ()))
        ]
        # Served over a channel, the refusal is sent and the error raised.
        hello = encode_hello(cfg, vocab_hash64(vocab_a), [0])
        error, down = serve_uplink([hello], llm_b, minus_b, vocab_b, str(tmp_path / "sock.bin"))
        assert isinstance(error, HandshakeError) and str(error) == "vocabulary hash mismatch"
        assert down == [encode_done(0, ())]

    @pytest.mark.parametrize("prompt", [[0, 6], [5, 1]])
    def test_bad_prompt_not_acknowledged(self, tmp_path, prompt):
        # Out of range, and a token after eos (id 5): checked before the ack.
        rng = np.random.default_rng(34)
        vocab, (llm, _, minus) = random_table_triple(rng, 6)
        cfg = ProtocolConfig(max_len=8, top_k=6)
        hello = encode_hello(cfg, vocab_hash64(vocab), prompt)
        path = str(tmp_path / "cloud.bin")
        error, down = serve_uplink([hello], llm, minus, vocab, path)
        assert isinstance(error, SequenceError)
        # No ack: the only downlink frame is the DONE refusal.
        refusal = encode_done(0, ())
        assert down == [refusal]
        assert FrameLog.read(path) == [(DIR_UP, hello), (DIR_DOWN, refusal)]

    @pytest.mark.parametrize("field, value", [
        ("lam", math.nan), ("lam", math.inf), ("beta", math.nan), ("beta", math.inf),
    ])
    def test_non_finite_config_not_acknowledged(self, tmp_path, field, value):
        self._check_not_acknowledged(tmp_path, field, value, "finite")

    @pytest.mark.parametrize("field, value", [
        ("lam", 0.0), ("lam", -1.0), ("beta", -0.5), ("horizon_k", 0), ("top_k", 0),
        ("max_len", 0),
    ])
    def test_out_of_range_config_not_acknowledged(self, tmp_path, field, value):
        self._check_not_acknowledged(tmp_path, field, value, field)

    def _check_not_acknowledged(self, tmp_path, field, value, match):
        # The handshake decoder builds the config, which checks its fields.
        rng = np.random.default_rng(35)
        vocab, (llm, _, minus) = random_table_triple(rng, 6)
        hello = raw_hello(ProtocolConfig(max_len=8, top_k=6), vocab_hash64(vocab), [0],
                          **{field: value})
        with pytest.raises(ConfigError, match=match):
            CloudSession(llm, minus, vocab).handle(hello)
        path = str(tmp_path / "cloud.bin")
        error, down = serve_uplink([hello], llm, minus, vocab, path)
        assert isinstance(error, ConfigError)
        assert down == [encode_done(0, ())]
        assert FrameLog.read(path) == [(DIR_UP, hello), (DIR_DOWN, encode_done(0, ()))]


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

    def test_scan_clean_two_session_log(self, tmp_path):
        # FrameLog appends, so runs into one out dir leave several sessions
        # in one log.
        vocab, (llm, plus, minus) = random_table_triple(np.random.default_rng(5), 8)
        path = str(tmp_path / "cloud_frames.bin")
        for seed in (5, 6):
            cfg = ProtocolConfig(lam=0.8, max_len=24, top_k=8, seed=seed)
            with FrameLog(path) as fl:
                run_simulated_session(cfg, llm, plus, minus, vocab, [0], cloud_log=fl)
        assert sum(1 for d, f in FrameLog.read(path) if d == DIR_UP and f[5] == MSG_HELLO) == 2
        assert scan_frame_log(path) == []
        assert replay_cloud_log(path, llm, minus, vocab) == []

    def test_scan_flags_ack_on_uplink(self, tmp_path):
        path = str(tmp_path / "ack.bin")
        vocab = make_vocab(8)
        with FrameLog(path) as fl:
            fl.write(DIR_UP, encode_hello(ProtocolConfig(top_k=8), vocab_hash64(vocab), [0]))
            fl.write(DIR_DOWN, encode_hello_ack(vocab_hash64(vocab)))
            fl.write(DIR_UP, encode_hello_ack(vocab_hash64(vocab)))
        violations = scan_frame_log(path)
        assert len(violations) == 1 and violations[0].startswith("frame 2: malformed uplink")

    def test_scan_flags_values_on_uplink(self, tmp_path):
        path = str(tmp_path / "bad.bin")
        verdict = encode_verdict(Verdict(0, 0, section(((1, 0.5),))))
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
        verdict = encode_verdict(Verdict(0, 0, section(((1, 0.5),))))
        with FrameLog(path) as fl:
            fl.write(DIR_DOWN, verdict)
        assert scan_frame_log(path) == []

    def test_replay_matches_log(self, tmp_path):
        vocab, llm, minus, path, _ = self._logged_session(tmp_path)
        assert replay_cloud_log(path, llm, minus, vocab) == []

    def test_replay_checks_the_done_exchange(self, tmp_path):
        vocab, llm, minus, path, _ = self._logged_session(tmp_path)
        records = FrameLog.read(path)
        assert records[-1][0] == DIR_DOWN and records[-1][1][5] == MSG_DONE
        final_len, _ = decode_done(decode_frame(records[-1][1])[1])
        tampered = str(tmp_path / "tampered.bin")
        with FrameLog(tampered) as fl:
            for direction, frame in records[:-1]:
                fl.write(direction, frame)
            fl.write(DIR_DOWN, encode_done(final_len + 1, ()))
        assert len(replay_cloud_log(tampered, llm, minus, vocab)) == 1

    @pytest.mark.parametrize("field, value", [("lam", math.nan), ("top_k", 0)])
    def test_bad_hello_is_a_violation_and_replays(self, tmp_path, field, value):
        # An honest session, then a handshake whose config no ProtocolConfig
        # takes: the audit lists it and raises nothing, and the cloud's
        # refusal of it replays byte for byte.
        vocab, llm, minus, path, _ = self._logged_session(tmp_path)
        n = len(FrameLog.read(path))
        hello = raw_hello(ProtocolConfig(max_len=24, top_k=8), vocab_hash64(vocab), [0],
                          **{field: value})
        error, _ = serve_uplink([hello], llm, minus, vocab, path)
        assert isinstance(error, ConfigError)
        assert FrameLog.read(path)[n:] == [(DIR_UP, hello), (DIR_DOWN, encode_done(0, ()))]
        assert scan_frame_log(path) == [f"frame {n}: malformed uplink payload ({error})"]
        assert replay_cloud_log(path, llm, minus, vocab) == []

    def test_replay_matches_a_refused_session(self, tmp_path):
        vocab, (llm, plus, minus) = random_table_triple(np.random.default_rng(51), 8)
        cfg = ProtocolConfig(lam=0.8, max_len=24, top_k=8, seed=3)
        path = str(tmp_path / "refused.bin")
        a, b = socket.socketpair()
        try:
            with FrameLog(path) as fl:
                thread, errors = in_thread(
                    lambda: run_cloud(SocketEndpoint(a, timeout=5), llm, minus, vocab, fl))
                edge_end = Tamper(
                    SocketEndpoint(b, timeout=5), MSG_DRAFT, hostile_draft(cfg, vocab))
                with pytest.raises(HandshakeError):
                    run_edge(cfg, edge_end, plus, vocab, [0])
                thread.join(timeout=5)
                assert not thread.is_alive() and len(errors) == 1
        finally:
            a.close()
            b.close()
        assert FrameLog.read(path)[-1] == (DIR_DOWN, encode_done(0, ()))
        assert replay_cloud_log(path, llm, minus, vocab) == []

    @pytest.mark.parametrize("blob", [
        b"\x00\x01\x02",                                    # cut inside a record header
        struct.pack("<BI", DIR_UP, 16) + encode_done(1)[:4],  # cut inside a frame
    ])
    def test_truncated_log_is_a_wire_error(self, tmp_path, blob):
        path = tmp_path / "cut.bin"
        path.write_bytes(blob)
        with pytest.raises(WireError, match="truncated"):
            scan_frame_log(str(path))

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

    @pytest.mark.parametrize("top_k, prompt, error", [
        (8, [0, 1.5], SequenceError), (8, [0, 8], SequenceError), (9, [0], ConfigError),
    ])
    def test_edge_checks_before_connecting(self, top_k, prompt, error):
        # A prompt or a top_k the edge refuses by itself costs the cloud no
        # connection: a listening socket finds none waiting to be accepted.
        refused_before_connecting(ProtocolConfig(max_len=24, top_k=top_k), prompt, error)

    def test_handshake_encoded_before_connecting(self):
        # The edge takes a 66000-id prompt under max_len 70000, but no
        # handshake frame can carry more than 65535 prompt ids.
        refused_before_connecting(
            ProtocolConfig(max_len=70000, top_k=8), [0] * 66000, WireError,
            "prompt too long for handshake frame")


def refused_before_connecting(cfg, prompt, error, match=None):
    """``run_edge_socket`` raises ``error`` and leaves a listening socket
    no connection to accept."""
    vocab, (_, plus, _) = random_table_triple(np.random.default_rng(42), 8)
    server = socket.create_server(("127.0.0.1", 0))
    try:
        with pytest.raises(error, match=match):
            run_edge_socket(cfg, server.getsockname(), plus, vocab, prompt, timeout=5)
        server.settimeout(0.2)
        with pytest.raises(TimeoutError):
            server.accept()
    finally:
        server.close()


def socket_session(cfg, models, vocab, prompt, edge_log, cloud_log):
    """``run_edge`` against ``run_cloud`` over a socketpair, each with its
    frame log.  Returns the edge's error and the cloud's, or None."""
    llm, plus, minus = models
    a, b = socket.socketpair()
    try:
        thread, errors = in_thread(
            lambda: run_cloud(SocketEndpoint(a, timeout=5), llm, minus, vocab, cloud_log))
        edge_error = None
        try:
            run_edge(cfg, SocketEndpoint(b, timeout=5), plus, vocab, prompt, frame_log=edge_log)
        except SpecSteerError as exc:
            edge_error = exc
        thread.join(timeout=5)
        assert not thread.is_alive()
        return edge_error, (errors[0] if errors else None)
    finally:
        a.close()
        b.close()


class TestBackendFrameLogs:
    """The simulated channel is the socket path minus the socket: a
    session's edge and cloud frame logs are byte-equal over both, every
    frame counted, a refused session's included."""

    @pytest.mark.parametrize("seed", [0, 1, 2, "refused"])
    def test_simulated_logs_equal_socket_logs(self, tmp_path, monkeypatch, seed):
        rng = np.random.default_rng(71)
        vocab, (llm, plus, minus) = random_table_triple(rng, 8)
        cfg = ProtocolConfig(lam=0.8, horizon_k=3, max_len=24, top_k=8,
                             seed=7 if seed == "refused" else seed)
        if seed == "refused":
            # A generalist over another vocabulary: the cloud refuses the
            # handshake with a ProtocolStateError.
            p = rng.dirichlet(np.ones(6))
            llm = TableModel(make_vocab(6), {(): p, (0,): p})

        def logs(name, run):
            paths = [str(tmp_path / f"{name}_{side}.bin") for side in ("edge", "cloud")]
            with FrameLog(paths[0]) as el, FrameLog(paths[1]) as cl:
                errors = run(el, cl)
            return [FrameLog.read(path) for path in paths], errors

        def simulated(el, cl):
            with monkeypatch.context() as m:
                m.setattr(threading.Thread, "start", no_thread)
                try:
                    run_simulated_session(cfg, llm, plus, minus, vocab, [0],
                                          edge_log=el, cloud_log=cl)
                except SpecSteerError as exc:
                    return exc
            return None

        sim_logs, sim_error = logs("sim", simulated)
        sock_logs, (edge_error, cloud_error) = logs(
            "sock", lambda el, cl: socket_session(cfg, (llm, plus, minus), vocab, [0], el, cl))
        assert sim_logs == sock_logs
        if seed == "refused":
            assert isinstance(edge_error, HandshakeError)
            assert type(sim_error) is type(cloud_error) is ProtocolStateError
            assert sim_logs[1][-1] == (DIR_DOWN, encode_done(0, ())) and len(sim_logs[1]) == 2
        else:
            assert sim_error is edge_error is cloud_error is None
            # HELLO, ack, at least one draft and verdict, and the DONE exchange.
            assert len(sim_logs[0]) >= 6


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
        frame = encode_verdict(Verdict(0, 0, section(entries)))
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

    @settings(max_examples=40, deadline=None)
    @given(
        sizes=st.lists(st.integers(0, 20_000), min_size=1, max_size=6),
        chunk=st.integers(1, 9000),
    )
    def test_stream_reassembles_frames(self, sizes, chunk):
        # Frames of any size, read from a stream cut at arbitrary points:
        # reads run past frame ends and the buffer grows with unread bytes
        # in it.
        frames = [encode_frame(MSG_DONE, bytes([i % 251]) * n) for i, n in enumerate(sizes)]
        stream = b"".join(frames)
        a, b = socket.socketpair()
        try:
            thread, errors = in_thread(
                lambda: [a.sendall(stream[i:i + chunk]) for i in range(0, len(stream), chunk)])
            endpoint = SocketEndpoint(b, timeout=1)
            assert [endpoint.recv_frame() for _ in frames] == frames
            thread.join(timeout=5)
            assert not thread.is_alive() and not errors
        finally:
            a.close()
            b.close()

    def test_accept_times_out(self, monkeypatch):
        monkeypatch.setattr(transport, "DEFAULT_SOCKET_TIMEOUT", 0.05)
        vocab, (llm, _, minus) = random_table_triple(np.random.default_rng(0), 4)
        with pytest.raises(TimeoutError):
            serve_cloud_once(("127.0.0.1", 0), llm, minus, vocab)

    @pytest.mark.parametrize("timeout", [0.2, 1e-9])
    def test_recv_times_out(self, timeout):
        # A zero timeval would block forever: a timeout under a microsecond
        # must still fire.
        a, b = socket.socketpair()
        try:
            thread, errors = in_thread(SocketEndpoint(b, timeout=timeout).recv_frame)
            thread.join(timeout=5)
            assert not thread.is_alive()
            assert len(errors) == 1 and isinstance(errors[0], ChannelTimeoutError)
        finally:
            a.close()
            b.close()

    def test_trickling_peer_hits_the_frame_deadline(self):
        # One byte every 0.1 s would reset a per-read timeout of 0.35 s for
        # the whole 1.6 s the frame takes.
        frame = encode_done(1)
        a, b = socket.socketpair()

        def trickle():
            for i in range(len(frame)):
                a.sendall(frame[i:i + 1])
                time.sleep(0.1)

        try:
            thread, _ = in_thread(trickle)
            began = time.monotonic()
            with pytest.raises(ChannelTimeoutError):
                SocketEndpoint(b, timeout=0.35).recv_frame()
            assert time.monotonic() - began < 1.0
            thread.join(timeout=5)
        finally:
            a.close()
            b.close()

    def test_send_times_out(self):
        # Nobody reads b, so the socket buffers fill and the send stalls.
        frame = encode_verdict(Verdict(0, 0, section((i, 0.5) for i in range(0xFFFF))))
        a, b = socket.socketpair()
        try:
            endpoint = SocketEndpoint(a, timeout=0.2)
            began = time.monotonic()
            with pytest.raises(ChannelTimeoutError):
                for _ in range(8):
                    endpoint.send_frame(frame)
            assert time.monotonic() - began < 3.0
        finally:
            a.close()
            b.close()

    def test_connect_times_out(self):
        # A listener that accepts nothing: once its queue is full, the
        # handshake of the next connection never completes.
        server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        held: list = []
        try:
            server.bind(("127.0.0.1", 0))
            server.listen(0)
            with pytest.raises(ChannelTimeoutError):
                for _ in range(16):
                    held.append(transport._connect(server.getsockname(), 0.2))
        finally:
            for sock in held:
                sock.close()
            server.close()

    def test_cloud_send_timeout_is_not_followed_by_a_refusal(self):
        # An edge that reads nothing: the ack cannot be sent, and a refusal
        # after it would wait out a second timeout on the same full buffer.
        vocab, (llm, _, minus) = random_table_triple(np.random.default_rng(0), 4)
        a, b = socket.socketpair()
        try:
            b.sendall(encode_hello(ProtocolConfig(max_len=8, top_k=4), vocab_hash64(vocab), [0]))
            a.setblocking(False)
            with pytest.raises(BlockingIOError):
                while True:
                    a.send(b"\0" * 4096)
            began = time.monotonic()
            with pytest.raises(ChannelTimeoutError):
                run_cloud(SocketEndpoint(a, timeout=0.5), llm, minus, vocab)
            assert time.monotonic() - began < 0.85
        finally:
            a.close()
            b.close()

    def test_stalled_edge_gets_the_refusal(self):
        vocab, (llm, _, minus) = random_table_triple(np.random.default_rng(0), 4)
        cfg = ProtocolConfig(max_len=8, top_k=4)
        a, b = socket.socketpair()
        try:
            b.sendall(encode_hello(cfg, vocab_hash64(vocab), [0]))
            with pytest.raises(ChannelTimeoutError):
                run_cloud(SocketEndpoint(a, timeout=0.2), llm, minus, vocab)
            a.shutdown(socket.SHUT_WR)
            assert read_frames(b) == [encode_hello_ack(vocab_hash64(vocab)), encode_done(0, ())]
        finally:
            a.close()
            b.close()


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


def padded_done(cfg, vocab):
    """DONE with ids after the honest trailing ones, among them a second
    eos, and the length they would give the mirror."""
    def rewrite(payload):
        final_len, trailing = decode_done(payload)
        extra = [vocab.eos_id, 5, vocab.eos_id, 7]
        return encode_done(final_len + len(extra), list(trailing) + extra)
    return rewrite


class TestCloudRefusal:
    @pytest.mark.parametrize("msg_type, rewrite, cloud_error", [
        (MSG_HELLO, hostile_hello, SequenceError),
        (MSG_DRAFT, hostile_draft, ProtocolStateError),
        (MSG_DONE, hostile_done, WireError),
        (MSG_DONE, padded_done, ProtocolStateError),
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
        # The cloud's generalist has another vocabulary than the session,
        # so the cloud refuses the handshake.
        rng = np.random.default_rng(52)
        vocab, (_, plus, minus) = random_table_triple(rng, 8)
        p = rng.dirichlet(np.ones(6))
        llm = TableModel(make_vocab(6), {(): p, (0,): p})
        cfg = ProtocolConfig(lam=0.8, max_len=24, top_k=8, seed=3)
        with pytest.raises(ProtocolStateError, match="share the session vocabulary"):
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
            cloud_end.send_frame(encode_verdict(Verdict(0, 0, section(entries))))

        try:
            thread, errors = in_thread(fake_cloud)
            with pytest.raises(ProtocolStateError, match=match):
                run_edge(cfg, SocketEndpoint(b, timeout=5), plus, vocab, [0])
            thread.join(timeout=5)
            assert not thread.is_alive() and not errors
        finally:
            a.close()
            b.close()

    def test_refused_payload_leaves_the_edge_as_it_was(self):
        vocab = make_vocab(8)
        # Never drafts eos, so a draft has horizon_k = 4 ids.
        plus = TableModel(vocab, {(): [0.25] * 4 + [0.0] * 4})
        edge = EdgeSession(ProtocolConfig(max_len=24, top_k=4), plus, vocab, [0])
        tokens = edge.next_draft().token_ids
        assert len(tokens) == 4

        with pytest.raises(ProtocolStateError, match="out of range"):
            edge.apply_verdict(Verdict(0, 2, section(((8, 0.5),))))
        assert edge.committed == [0] and edge.seq_no == 0
        with pytest.raises(ProtocolStateError, match="part of an entry"):
            edge.apply_verdict(Verdict(0, 2, section(((1, 0.5),)) + b"\0"))
        assert edge.committed == [0] and edge.seq_no == 0
        assert edge.apply_verdict(Verdict(0, 2, section(((1, 0.5),)))) == (2, 1)
        assert edge.committed == [0, *tokens[:2], 1]


class RowCounter(TableModel):
    """A table that counts its row lookups, checked or not."""

    lookups = 0

    def _counted(name):
        def at(self, key):
            self.lookups += 1
            return getattr(TableModel, name)(self, key)

        return at

    probs_at = _counted("probs_at")
    logits_at = _counted("logits_at")
    cdf_at = _counted("cdf_at")
    del _counted


def row_counter_triple(rng, size):
    vocab = make_vocab(size)
    return vocab, tuple(
        RowCounter(vocab, {(): rng.dirichlet(np.ones(size)),
                           (0,): rng.dirichlet(np.ones(size))})
        for _ in range(3)
    )


class TestIdsCheckedBeforeRowLookup:
    """The protocol cores read model rows with ids nobody checks again, so
    every untrusted id must end in a typed error before any row lookup:
    the HELLO prompt, a draft, a history delta and the DONE's trailing id
    at the cloud, and a steering entry at the edge."""

    BAD = (8, 9, 2**32 - 1)  # out of range for V=8, up to the u32 limit

    def rejected_cloud(self, models, vocab, cfg):
        """A cloud session whose first draft, [0], was rejected, so it now
        awaits the recovered token."""
        llm, _, minus = models
        cloud = CloudSession(llm, minus, vocab)
        cloud.handle(encode_hello(cfg, vocab_hash64(vocab), [0]))
        frame = cloud.handle(encode_draft(DraftBatch(0, (0,))))
        assert decode_verdict(decode_frame(frame)[1]).accepted_count == 0
        assert cloud.verifier.awaiting_delta
        return cloud

    def assert_no_lookup(self, models, call):
        before = [m.lookups for m in models]
        with pytest.raises(SpecSteerError):
            call()
        assert [m.lookups for m in models] == before

    @pytest.mark.parametrize("bad", BAD)
    def test_cloud_entry_points(self, bad):
        vocab, models = row_counter_triple(np.random.default_rng(91), 8)
        llm, _, minus = models
        # Greedy at a large lambda rejects every draft at its first token.
        cfg = ProtocolConfig(lam=1e6, horizon_k=3, top_k=8, max_len=12, seed=1,
                             decode_mode="greedy")
        hello = CloudSession(llm, minus, vocab)
        self.assert_no_lookup(
            models, lambda: hello.handle(encode_hello(cfg, vocab_hash64(vocab), [0, bad])))
        fresh = CloudSession(llm, minus, vocab)
        fresh.handle(encode_hello(cfg, vocab_hash64(vocab), [0]))
        self.assert_no_lookup(models, lambda: fresh.handle(encode_draft(DraftBatch(0, (1, bad)))))
        cloud = self.rejected_cloud(models, vocab, cfg)
        self.assert_no_lookup(
            models, lambda: cloud.handle(encode_draft(DraftBatch(1, (1,)), history_delta=bad)))
        cloud = self.rejected_cloud(models, vocab, cfg)
        self.assert_no_lookup(models, lambda: cloud.handle(encode_done(3, (bad,))))
        # The same entry points answer with the refusal when they arrive
        # through answer(), as a served session's do.
        cloud = self.rejected_cloud(models, vocab, cfg)
        before = [m.lookups for m in models]
        assert cloud.answer(encode_done(3, (bad,))) == encode_done(0, ())
        assert isinstance(cloud.error, ProtocolStateError)
        assert [m.lookups for m in models] == before

    @pytest.mark.parametrize("bad", BAD)
    def test_edge_steering_entry(self, bad):
        vocab, models = row_counter_triple(np.random.default_rng(92), 8)
        plus = models[1]
        cfg = ProtocolConfig(lam=0.5, horizon_k=3, top_k=8, max_len=12, seed=1)
        edge = EdgeSession(cfg, plus, vocab, [0])
        edge.next_draft()
        self.assert_no_lookup(
            models, lambda: edge.apply_verdict(Verdict(0, 0, section(((1, 0.5), (bad, 0.25))))))
        assert edge.committed == [0]


class TestDeadCloud:
    def test_model_error_surfaces_instead_of_hanging(self, monkeypatch):
        # A cloud whose generalist raises something other than a
        # SpecSteerError sends no refusal; its error reaches the caller
        # straight from the frame handler, with no thread to wait on.  The
        # override of a public method is not skipped by the row layer.
        class BrokenModel(TableModel):
            def next_token_logits(self, history):
                raise RuntimeError("generalist crashed")

        rng = np.random.default_rng(53)
        vocab, (llm, plus, minus) = random_table_triple(rng, 8)
        broken = BrokenModel(vocab, {(): llm.next_token_probs([])})
        cfg = ProtocolConfig(lam=0.8, max_len=24, top_k=8, seed=3)
        monkeypatch.setattr(threading.Thread, "start", no_thread)
        with pytest.raises(RuntimeError, match="generalist crashed"):
            run_simulated_session(cfg, broken, plus, minus, vocab, [1])

    def test_edge_error_surfaces_without_a_thread(self, monkeypatch):
        # The edge's own error reaches the caller, and the simulated session
        # runs the cloud in the caller's thread: it starts none.  Here the
        # row layer itself fails.
        class BrokenDrafter(TableModel):
            def cdf_at(self, key):
                raise RuntimeError("drafter crashed")

            probs_at = cdf_at

        rng = np.random.default_rng(54)
        vocab, (llm, plus, minus) = random_table_triple(rng, 8)
        broken = BrokenDrafter(vocab, {(): plus.next_token_probs([])})
        cfg = ProtocolConfig(lam=0.8, max_len=24, top_k=8, seed=3)
        monkeypatch.setattr(threading.Thread, "start", no_thread)
        with pytest.raises(RuntimeError, match="drafter crashed"):
            run_simulated_session(cfg, llm, broken, minus, vocab, [1])


def no_thread(self):
    raise AssertionError("the simulated session started a thread")


# ---------------------------------------------------------------------------
# Uplink fuzzing
# ---------------------------------------------------------------------------

FUZZ_VOCAB, FUZZ_MODELS = random_table_triple(np.random.default_rng(81), 8)
_honest_uplinks: dict = {}


def honest_uplink(seed: int, lam: float, horizon_k: int, max_len: int) -> list[bytes]:
    """The uplink frames (HELLO, DRAFTs, DONE) of an honest edge's session
    against an honest cloud, over a socketpair."""
    key = (seed, lam, horizon_k, max_len)
    if key not in _honest_uplinks:
        llm, plus, minus = FUZZ_MODELS
        cfg = ProtocolConfig(lam=lam, horizon_k=horizon_k, top_k=8, max_len=max_len, seed=seed)
        frames: list[bytes] = []

        class Recorder(SocketEndpoint):
            def send_frame(self, frame):
                frames.append(frame)
                super().send_frame(frame)

        a, b = socket.socketpair()
        try:
            thread, errors = in_thread(
                lambda: run_cloud(SocketEndpoint(a, timeout=5), llm, minus, FUZZ_VOCAB))
            run_edge(cfg, Recorder(b, timeout=5), plus, FUZZ_VOCAB, [0])
            thread.join(timeout=5)
            assert not thread.is_alive() and not errors
        finally:
            a.close()
            b.close()
        _honest_uplinks[key] = frames
    return list(_honest_uplinks[key])


ids_strategy = st.lists(st.integers(0, FUZZ_VOCAB.size + 1), max_size=6)


@st.composite
def mutated_uplink(draw) -> tuple[list[bytes], tuple]:
    """An honest session's uplink with one frame mutated: raw bytes flipped,
    cut or appended, a frame dropped or repeated, or a frame re-encoded with
    other ids, seq, delta, final length or handshake config."""
    params = (
        draw(st.integers(0, 40), label="seed"),
        draw(st.sampled_from([0.3, 0.8, 1e-12]), label="lam"),
        draw(st.integers(1, 4), label="horizon_k"),
        draw(st.integers(2, 10), label="max_len"),
    )
    frames = honest_uplink(*params)
    kind = draw(st.sampled_from(["flip", "cut", "append", "drop", "repeat", MSG_HELLO,
                                 MSG_DRAFT, MSG_DONE]), label="kind")
    if kind in (MSG_HELLO, MSG_DRAFT, MSG_DONE):
        # A re-encoded frame of each type is as likely as the others,
        # though drafts outnumber the one HELLO and the one DONE.
        i = draw(st.sampled_from([j for j, f in enumerate(frames) if f[5] == kind]))
    else:
        i = draw(st.integers(0, len(frames) - 1), label="frame")
    frame = frames[i]
    msg_type, payload = decode_frame(frame)
    if kind == "flip":
        pos = draw(st.integers(0, len(frame) - 1))
        frames[i] = frame[:pos] + bytes([draw(st.integers(0, 255))]) + frame[pos + 1:]
    elif kind == "cut":
        frames[i] = frame[: draw(st.integers(0, len(frame) - 1))]
    elif kind == "append":
        frames[i] = frame + draw(st.binary(min_size=1, max_size=12))
    elif kind == "drop":
        del frames[i]
    elif kind == "repeat":
        frames.insert(i, frame)
    elif msg_type == MSG_HELLO:
        cfg, vhash, prompt = decode_hello(payload)
        frames[i] = raw_hello(
            cfg, vhash,
            horizon_k=draw(st.sampled_from([cfg.horizon_k, 0, 1, 6])),
            top_k=draw(st.sampled_from([cfg.top_k, 0, 3, 9])),
            max_len=draw(st.sampled_from([cfg.max_len, 0, 1, 2, 64])),
            prompt=draw(st.one_of(st.just(list(prompt)), ids_strategy)),
        )
    elif msg_type == MSG_DRAFT:
        delta = None
        try:
            batch, delta = decode_draft(payload, expect_delta=True)
        except WireError:
            batch, _ = decode_draft(payload, expect_delta=False)
        tokens = draw(ids_strategy.filter(bool))
        seq = draw(st.sampled_from([batch.seq_no, batch.seq_no + 1, 0]))
        delta = draw(st.sampled_from([delta, None, 0, FUZZ_VOCAB.eos_id, FUZZ_VOCAB.size]))
        frames[i] = encode_draft(DraftBatch(seq, tuple(tokens)), delta)
    else:
        final_len, trailing = decode_done(payload)
        new = draw(ids_strategy, label="trailing")
        # The length an attacker who kept count would report, or another.
        honest = final_len - len(trailing) + len(new)
        frames[i] = encode_done(draw(st.sampled_from([honest, final_len, 0])), new)
    return frames, params


def read_frames(sock) -> list[bytes]:
    """Every frame left to read on ``sock``, up to the peer's close."""
    data = bytearray()
    while chunk := sock.recv(65536):
        data += chunk
    frames = []
    while data:
        n = transport.FRAME_HEADER.size + transport.FRAME_HEADER.unpack_from(data)[3]
        frames.append(bytes(data[:n]))
        del data[:n]
    return frames


class TestUplinkFuzz:
    """Mutated uplink frames from an honest edge end in a typed refusal or
    in a completed session whose mirror is a valid sequence."""

    @settings(max_examples=250, deadline=None)
    @given(case=mutated_uplink())
    def test_refused_or_valid(self, case):
        frames, _ = case
        llm, _, minus = FUZZ_MODELS
        a, b = socket.socketpair()
        try:
            # The whole uplink is queued before the cloud reads it; the
            # half-close then ends any frame the mutation cut short.
            b.sendall(b"".join(frames))
            b.shutdown(socket.SHUT_WR)
            try:
                stats = run_cloud(SocketEndpoint(a, timeout=5), llm, minus, FUZZ_VOCAB)
                refused = False
            except SpecSteerError:
                refused, stats = True, None
            # A half-close, not a close: closing with uplink left unread
            # would reset the connection under the downlink.
            a.shutdown(socket.SHUT_WR)
            down = read_frames(b)
        finally:
            a.close()
            b.close()
        msg_type, payload = decode_frame(down[-1])
        assert msg_type == MSG_DONE
        final_len, trailing = decode_done(payload)
        assert trailing == ()
        if refused:
            assert final_len == 0
            return
        cfg, _, _ = decode_hello(decode_frame(frames[0])[1])
        validate_sequence(stats.mirror, FUZZ_VOCAB, cfg.max_len)
        assert final_len == len(stats.mirror)


# ---------------------------------------------------------------------------
# Downlink fuzzing
# ---------------------------------------------------------------------------

_honest_downlinks: dict = {}


def honest_downlink(seed: int, lam: float, top_k: int, max_len: int) -> list[bytes]:
    """The downlink frames (HELLO ack, VERDICTs, DONE) of an honest cloud's
    session against an honest edge, over a socketpair."""
    key = (seed, lam, top_k, max_len)
    if key not in _honest_downlinks:
        llm, plus, minus = FUZZ_MODELS
        frames: list[bytes] = []

        class Recorder(SocketEndpoint):
            def send_frame(self, frame):
                frames.append(frame)
                super().send_frame(frame)

        a, b = socket.socketpair()
        try:
            thread, errors = in_thread(
                lambda: run_cloud(Recorder(a, timeout=5), llm, minus, FUZZ_VOCAB))
            run_edge(downlink_config(*key), SocketEndpoint(b, timeout=5), plus, FUZZ_VOCAB, [0])
            thread.join(timeout=5)
            assert not thread.is_alive() and not errors
        finally:
            a.close()
            b.close()
        _honest_downlinks[key] = frames
    return list(_honest_downlinks[key])


def downlink_config(seed: int, lam: float, top_k: int, max_len: int) -> ProtocolConfig:
    return ProtocolConfig(lam=lam, horizon_k=3, top_k=top_k, max_len=max_len, seed=seed)


def verdict_bytes(seq: int, accepted: int, entries) -> bytes:
    """A verdict frame packed field by field, so that any entries, none
    among them, can be sent."""
    payload = struct.pack("<IHB", seq, accepted, 0 if entries is None else 1)
    if entries is not None:
        payload += struct.pack("<H", len(entries))
        payload += b"".join(struct.pack("<If", i, x) for i, x in entries)
    return encode_frame(MSG_VERDICT, payload)


hostile_entries = st.one_of(
    st.none(),
    st.just(()),
    st.lists(st.tuples(st.integers(0, FUZZ_VOCAB.size + 1),
                       st.sampled_from([0.5, -2.0, 0.0, math.inf, math.nan])),
             min_size=1, max_size=9).map(tuple),
)


@st.composite
def mutated_downlink(draw) -> tuple[list[bytes], tuple]:
    """An honest session's downlink with one frame mutated: raw bytes
    flipped, cut or appended, a frame dropped or repeated, or a frame
    re-encoded with another hash, seq, accepted count, entries or length."""
    params = (
        draw(st.integers(0, 40), label="seed"),
        draw(st.sampled_from([0.3, 3.0]), label="lam"),
        draw(st.sampled_from([2, 8]), label="top_k"),
        draw(st.integers(2, 10), label="max_len"),
    )
    frames = honest_downlink(*params)
    kind = draw(st.sampled_from(["flip", "cut", "append", "drop", "repeat", MSG_HELLO,
                                 MSG_VERDICT, MSG_DONE]), label="kind")
    if kind in (MSG_HELLO, MSG_VERDICT, MSG_DONE):
        i = draw(st.sampled_from([j for j, f in enumerate(frames) if f[5] == kind]))
    else:
        i = draw(st.integers(0, len(frames) - 1), label="frame")
    frame = frames[i]
    msg_type, payload = decode_frame(frame)
    if kind == "flip":
        pos = draw(st.integers(0, len(frame) - 1))
        frames[i] = frame[:pos] + bytes([draw(st.integers(0, 255))]) + frame[pos + 1:]
    elif kind == "cut":
        frames[i] = frame[: draw(st.integers(0, len(frame) - 1))]
    elif kind == "append":
        frames[i] = frame + draw(st.binary(min_size=1, max_size=12))
    elif kind == "drop":
        del frames[i]
    elif kind == "repeat":
        frames.insert(i, frame)
    elif msg_type == MSG_HELLO:
        frames[i] = encode_hello_ack(draw(st.sampled_from([0, decode_hello_ack(payload) ^ 1])))
    elif msg_type == MSG_VERDICT:
        v = decode_verdict(payload)
        entries = None if v.recovery is None else tuple(zip(*unpack_steering_entries(v.recovery)))
        frames[i] = verdict_bytes(
            draw(st.sampled_from([v.seq_no, v.seq_no + 1, 0])),
            draw(st.sampled_from([v.accepted_count, 0, v.accepted_count + 1, 0xFFFF])),
            draw(st.one_of(st.just(entries), hostile_entries)),
        )
    else:
        final_len, _ = decode_done(payload)
        frames[i] = encode_done(draw(st.sampled_from([final_len + 1, 0, final_len])),
                                draw(ids_strategy))
    return frames, params


def edge_against(frames: list[bytes], params: tuple, drip: bool = False):
    """``run_edge`` against a cloud that sends ``frames`` whatever the edge
    says: all at once in one send, or, with ``drip``, a few bytes per send."""
    a, b = socket.socketpair()
    stream = b"".join(frames)

    def drip_feed():
        for i in range(0, len(stream), 3):
            a.sendall(stream[i:i + 3])
            time.sleep(0.0005)
        a.shutdown(socket.SHUT_WR)

    try:
        if drip:
            thread, errors = in_thread(drip_feed)
        else:
            a.sendall(stream)
            # The half-close ends any frame the mutation cut short.
            a.shutdown(socket.SHUT_WR)
        committed, _ = run_edge(downlink_config(*params), SocketEndpoint(b, timeout=5),
                                FUZZ_MODELS[1], FUZZ_VOCAB, [0])
        if drip:
            thread.join(timeout=5)
            assert not thread.is_alive() and not errors
        return committed
    finally:
        a.close()
        b.close()


class TestDownlinkFuzz:
    """Mutated downlink frames from an honest cloud end in a typed error
    on the edge or in a completed session whose committed sequence is
    valid."""

    @settings(max_examples=250, deadline=None)
    @given(case=mutated_downlink())
    def test_refused_or_valid(self, case):
        frames, params = case
        try:
            committed = edge_against(frames, params)
        except SpecSteerError:
            return
        validate_sequence(committed, FUZZ_VOCAB, params[3])

    @pytest.mark.parametrize("drip", [False, True])
    def test_coalesced_or_split_frames(self, drip):
        # Every downlink frame of a session in one send, so reads run past
        # frame ends; or each frame split over many sends, so frames arrive
        # in pieces.
        params = (7, 3.0, 8, 10)
        llm, plus, minus = FUZZ_MODELS
        ref, traces = run_session(downlink_config(*params), llm, plus, minus, FUZZ_VOCAB, [0])
        assert len(traces) > 1 and any(t.recovery_token is not None for t in traces)
        assert edge_against(honest_downlink(*params), params, drip=drip) == ref

    def test_cached_entry_bytes_are_checked_again_under_a_smaller_top_k(self):
        # The honest session at top_k 8 leaves its 8-entry payloads in the
        # drafter's recovery cache; the same verdict bytes sent to a session
        # at top_k 4 must still be refused.
        params = (7, 3.0, 8, 10)
        frames = honest_downlink(*params)
        assert any(f[5] == MSG_VERDICT and len(f) == verdict_frame_bytes(8) for f in frames)
        with pytest.raises(ProtocolStateError, match="top_k"):
            edge_against(frames, (7, 3.0, 4, 10))
