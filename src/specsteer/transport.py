"""Wire protocol and channel backends for the edge/cloud split.

Frames are little-endian: 4-byte magic ``SPST``, version byte, message
type byte, u32 payload length, payload.  The uplink carries token ids and
handshake configuration only; steering values (IEEE-754 binary32) appear
exclusively in downlink verdicts.  Two interchangeable channel backends
exist: an in-process simulated channel with a latency/bandwidth clock,
and a length-delimited byte stream over a local socket.  Both drive the
same state machines from the protocol module, so committed sequences are
identical for identical seeds.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import logging
import queue
import socket
import struct
import threading
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .core import DECODE_MODES, ProtocolConfig, SpecSteerError, Vocabulary
from .protocol import (
    CloudVerifier,
    DraftBatch,
    EdgeSession,
    RoundTrace,
    SparseSteeringPayload,
    Verdict,
    check_steering_payload,
)

log = logging.getLogger("specsteer.transport")

MAGIC = b"SPST"
VERSION = 1

MSG_HELLO = 1
MSG_DRAFT = 2
MSG_VERDICT = 3
MSG_DONE = 4

DIR_UP = 0    # edge -> cloud
DIR_DOWN = 1  # cloud -> edge

_HEADER = struct.Struct("<4sBBI")
_HELLO = struct.Struct("<ddHHIBQQH")
_DRAFT_FIXED = struct.Struct("<IH")
_VERDICT_FIXED = struct.Struct("<IHB")
_ENTRY = struct.Struct("<If")
_DONE_FIXED = struct.Struct("<IH")
_U32 = struct.Struct("<I")

# Every variable-length section has a u16 count, so the largest legal payload
# is a verdict with 0xFFFF entries.  SocketEndpoint refuses any longer
# declared length before reading, which bounds what a peer can make it
# allocate.
MAX_PAYLOAD = max(
    _HELLO.size + _U32.size * 0xFFFF,
    _DRAFT_FIXED.size + _U32.size * (0xFFFF + 1),
    _VERDICT_FIXED.size + 2 + _ENTRY.size * 0xFFFF,
    _DONE_FIXED.size + _U32.size * 0xFFFF,
)

DEFAULT_SOCKET_TIMEOUT = 30.0


class WireError(SpecSteerError):
    pass


class HandshakeError(WireError):
    pass


class ChannelClosedError(WireError):
    """The peer closed the channel; no further frame will arrive."""


# ---------------------------------------------------------------------------
# Frame codec
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=64)
def vocab_hash64(vocab: Vocabulary) -> int:
    """Handshake fingerprint of the vocabulary; computed once per vocabulary."""
    digest = hashlib.sha256()
    digest.update(b"\x00".join(t.encode("utf-8") for t in vocab.tokens))
    digest.update(struct.pack("<I", vocab.eos_id))
    return int.from_bytes(digest.digest()[:8], "little")


@functools.lru_cache(maxsize=256)
def _ids_struct(n: int) -> struct.Struct:
    """n u32 token ids."""
    return struct.Struct(f"<{n}I")


@functools.lru_cache(maxsize=256)
def _entries_struct(n: int) -> struct.Struct:
    """n steering entries, each a u32 id and an f32 value."""
    return struct.Struct("<" + "If" * n)


def _pack_ids(ids: Sequence[int]) -> bytes:
    try:
        return _ids_struct(len(ids)).pack(*ids)
    except struct.error:
        raise WireError("token id does not fit in an unsigned 32-bit field") from None


def encode_frame(msg_type: int, payload: bytes) -> bytes:
    if msg_type not in (MSG_HELLO, MSG_DRAFT, MSG_VERDICT, MSG_DONE):
        raise WireError(f"unknown message type {msg_type}")
    return _HEADER.pack(MAGIC, VERSION, msg_type, len(payload)) + payload


def decode_frame(frame: bytes) -> tuple[int, bytes]:
    if len(frame) < _HEADER.size:
        raise WireError("frame shorter than header")
    magic, version, msg_type, payload_len = _HEADER.unpack_from(frame, 0)
    if magic != MAGIC:
        raise WireError("bad frame magic")
    if version != VERSION:
        raise WireError(f"unsupported protocol version {version}")
    if msg_type not in (MSG_HELLO, MSG_DRAFT, MSG_VERDICT, MSG_DONE):
        raise WireError(f"unknown message type {msg_type}")
    payload = frame[_HEADER.size:]
    if len(payload) != payload_len:
        raise WireError("declared payload length mismatch")
    return msg_type, payload


def encode_hello(config: ProtocolConfig, vhash: int, prompt_ids: Sequence[int]) -> bytes:
    if len(prompt_ids) > 0xFFFF:
        raise WireError("prompt too long for handshake frame")
    payload = _HELLO.pack(
        config.lam,
        config.beta,
        config.horizon_k,
        config.top_k,
        config.max_len,
        DECODE_MODES.index(config.decode_mode),
        config.seed,
        vhash,
        len(prompt_ids),
    ) + _pack_ids(prompt_ids)
    return encode_frame(MSG_HELLO, payload)


def decode_hello(payload: bytes) -> tuple[ProtocolConfig, int, tuple[int, ...]]:
    if len(payload) < _HELLO.size:
        raise WireError("truncated handshake payload")
    lam, beta, k, top_k, max_len, mode, seed, vhash, plen = _HELLO.unpack_from(payload, 0)
    ids_blob = payload[_HELLO.size:]
    if len(ids_blob) != 4 * plen:
        raise WireError("handshake prompt length mismatch")
    prompt = _ids_struct(plen).unpack(ids_blob)
    if mode >= len(DECODE_MODES):
        raise WireError(f"unknown decode mode {mode}")
    config = ProtocolConfig(
        lam=lam, beta=beta, horizon_k=k, top_k=top_k, max_len=max_len,
        decode_mode=DECODE_MODES[mode], seed=seed,
    )
    return config, vhash, prompt


def encode_hello_ack(vhash: int) -> bytes:
    return encode_frame(MSG_HELLO, struct.pack("<Q", vhash))


def decode_hello_ack(payload: bytes) -> int:
    if len(payload) != 8:
        raise WireError("bad handshake ack")
    return struct.unpack("<Q", payload)[0]


def encode_draft(batch: DraftBatch, history_delta: int | None = None) -> bytes:
    k = len(batch.token_ids)
    if k == 0:
        raise WireError("cannot encode an empty draft batch")
    if k > 0xFFFF:
        raise WireError("draft batch too large for frame")
    ids = batch.token_ids if history_delta is None else (*batch.token_ids, history_delta)
    return encode_frame(MSG_DRAFT, _DRAFT_FIXED.pack(batch.seq_no, k) + _pack_ids(ids))


def decode_draft(payload: bytes, expect_delta: bool) -> tuple[DraftBatch, int | None]:
    if len(payload) < _DRAFT_FIXED.size:
        raise WireError("truncated draft payload")
    seq_no, k = _DRAFT_FIXED.unpack_from(payload, 0)
    expected = _DRAFT_FIXED.size + 4 * k + (4 if expect_delta else 0)
    if len(payload) != expected:
        raise WireError(f"draft payload length {len(payload)}, expected {expected}")
    if not expect_delta:
        return DraftBatch(seq_no, _ids_struct(k).unpack_from(payload, _DRAFT_FIXED.size)), None
    ids = _ids_struct(k + 1).unpack_from(payload, _DRAFT_FIXED.size)
    return DraftBatch(seq_no, ids[:k]), ids[k]


def encode_verdict(v: Verdict) -> bytes:
    flag = 0 if v.recovery is None else 1
    payload = _VERDICT_FIXED.pack(v.seq_no, v.accepted_count, flag)
    if v.recovery is not None:
        entries = v.recovery.entries
        if not entries:
            raise WireError("recovery verdict with empty payload")
        payload += struct.pack("<H", len(entries))
        try:
            payload += _entries_struct(len(entries)).pack(*itertools.chain.from_iterable(entries))
        except (struct.error, OverflowError):
            raise WireError("steering entry does not fit a u32 id and an f32 value") from None
    return encode_frame(MSG_VERDICT, payload)


def decode_verdict(payload: bytes) -> Verdict:
    if len(payload) < _VERDICT_FIXED.size:
        raise WireError("truncated verdict payload")
    seq_no, accepted, flag = _VERDICT_FIXED.unpack_from(payload, 0)
    off = _VERDICT_FIXED.size
    if flag == 0:
        if len(payload) != off:
            raise WireError("accept-all verdict carries extra bytes")
        return Verdict(seq_no, accepted, None)
    if flag != 1:
        raise WireError(f"unknown verdict flag {flag}")
    if len(payload) < off + 2:
        raise WireError("truncated verdict payload")
    (n,) = struct.unpack_from("<H", payload, off)
    off += 2
    if len(payload) != off + 8 * n:
        raise WireError("verdict entry section length mismatch")
    flat = _entries_struct(n).unpack_from(payload, off)
    # The entry bytes fix the decoded entries exactly, so they key the
    # edge's recovery cache (see SparseSteeringPayload).
    entries = tuple(zip(flat[::2], flat[1::2]))
    return Verdict(seq_no, accepted, SparseSteeringPayload(entries, payload[off:]))


def encode_done(final_len: int, trailing_ids: Sequence[int] = ()) -> bytes:
    payload = _DONE_FIXED.pack(final_len, len(trailing_ids)) + _pack_ids(trailing_ids)
    return encode_frame(MSG_DONE, payload)


def decode_done(payload: bytes) -> tuple[int, tuple[int, ...]]:
    if len(payload) < _DONE_FIXED.size:
        raise WireError("truncated done payload")
    final_len, n = _DONE_FIXED.unpack_from(payload, 0)
    if len(payload) != _DONE_FIXED.size + 4 * n:
        raise WireError("done payload length mismatch")
    return final_len, _ids_struct(n).unpack_from(payload, _DONE_FIXED.size)


# ---------------------------------------------------------------------------
# Channels
# ---------------------------------------------------------------------------


@dataclass
class ChannelModel:
    """Simulated link: one-way latency plus serialization delay."""

    one_way_latency_ms: float = 0.0
    bandwidth_bps: float = float("inf")

    def __post_init__(self) -> None:
        if self.one_way_latency_ms < 0 or self.bandwidth_bps <= 0:
            raise WireError("invalid channel parameters")

    def transfer_ms(self, nbytes: int) -> float:
        return self.one_way_latency_ms + 1000.0 * nbytes / self.bandwidth_bps


@dataclass
class ChannelCounters:
    up_bytes: int = 0
    down_bytes: int = 0
    clock_ms: float = 0.0
    lock: threading.Lock = field(default_factory=threading.Lock)


class QueueEndpoint:
    """One end of the deterministic in-process channel."""

    def __init__(
        self,
        tx: "queue.Queue[bytes | None]",
        rx: "queue.Queue[bytes | None]",
        direction: int,
        model: ChannelModel,
        counters: ChannelCounters,
    ) -> None:
        self._tx = tx
        self._rx = rx
        self._direction = direction
        self._model = model
        self.counters = counters

    def send_frame(self, frame: bytes) -> None:
        with self.counters.lock:
            if self._direction == DIR_UP:
                self.counters.up_bytes += len(frame)
            else:
                self.counters.down_bytes += len(frame)
            self.counters.clock_ms += self._model.transfer_ms(len(frame))
        self._tx.put(frame)

    def recv_frame(self) -> bytes:
        frame = self._rx.get()
        if frame is None:
            raise ChannelClosedError("peer closed the channel")
        return frame

    def close(self) -> None:
        """Wake the peer: once it has read every frame sent before this,
        its next ``recv_frame`` raises ``ChannelClosedError``."""
        self._tx.put(None)


def simulated_pair(model: ChannelModel | None = None) -> tuple[QueueEndpoint, QueueEndpoint, ChannelCounters]:
    model = model or ChannelModel()
    up: "queue.Queue[bytes | None]" = queue.Queue()
    down: "queue.Queue[bytes | None]" = queue.Queue()
    counters = ChannelCounters()
    edge_end = QueueEndpoint(up, down, DIR_UP, model, counters)
    cloud_end = QueueEndpoint(down, up, DIR_DOWN, model, counters)
    return edge_end, cloud_end, counters


class SocketEndpoint:
    """Frame stream over a connected socket; frames are self-delimiting."""

    def __init__(self, sock: socket.socket, timeout: float = DEFAULT_SOCKET_TIMEOUT) -> None:
        sock.settimeout(timeout)
        self._sock = sock

    def send_frame(self, frame: bytes) -> None:
        self._sock.sendall(frame)

    def _recv_exact(self, n: int) -> bytes:
        buf = bytearray()
        while len(buf) < n:
            chunk = self._sock.recv(n - len(buf))
            if not chunk:
                raise ChannelClosedError("peer closed the connection mid-frame")
            buf.extend(chunk)
        return bytes(buf)

    def recv_frame(self) -> bytes:
        header = self._recv_exact(_HEADER.size)
        magic, version, msg_type, payload_len = _HEADER.unpack(header)
        if magic != MAGIC:
            raise WireError("bad frame magic on stream")
        if payload_len > MAX_PAYLOAD:
            raise WireError(
                f"declared payload length {payload_len} exceeds the largest legal payload "
                f"({MAX_PAYLOAD} bytes)"
            )
        payload = self._recv_exact(payload_len) if payload_len else b""
        return header + payload

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass


# ---------------------------------------------------------------------------
# Frame logs
# ---------------------------------------------------------------------------


class FrameLog:
    """Append-only binary log: u8 direction, u32 length, raw frame."""

    _REC = struct.Struct("<BI")

    def __init__(self, path: str) -> None:
        self.path = path
        self._fh = open(path, "ab")

    def write(self, direction: int, frame: bytes) -> None:
        self._fh.write(self._REC.pack(direction, len(frame)) + frame)

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "FrameLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @staticmethod
    def read(path: str) -> list[tuple[int, bytes]]:
        records: list[tuple[int, bytes]] = []
        with open(path, "rb") as fh:
            blob = fh.read()
        off = 0
        while off < len(blob):
            direction, n = FrameLog._REC.unpack_from(blob, off)
            off += FrameLog._REC.size
            records.append((direction, blob[off:off + n]))
            off += n
        return records


# ---------------------------------------------------------------------------
# Endpoint loops
# ---------------------------------------------------------------------------


@dataclass
class EdgeStats:
    rounds: int
    uplink_bytes: int
    downlink_bytes: int
    clock_ms: float
    traces: list[RoundTrace]


@dataclass
class CloudStats:
    refused: bool
    rounds: int
    traces: list[RoundTrace]
    mirror: list[int]


def run_edge(
    config: ProtocolConfig,
    endpoint,
    drafter,
    vocab: Vocabulary,
    prompt_ids: Sequence[int],
    frame_log: FrameLog | None = None,
) -> tuple[list[int], EdgeStats]:
    """Drive a full session from the edge side of a channel."""
    vhash = vocab_hash64(vocab)
    edge = EdgeSession(config, drafter, vocab, prompt_ids)
    up_bytes = 0
    down_bytes = 0

    def send(frame: bytes) -> None:
        nonlocal up_bytes
        up_bytes += len(frame)
        if frame_log is not None:
            frame_log.write(DIR_UP, frame)
        endpoint.send_frame(frame)

    def recv(expected_type: int) -> bytes:
        nonlocal down_bytes
        frame = endpoint.recv_frame()
        down_bytes += len(frame)
        if frame_log is not None:
            frame_log.write(DIR_DOWN, frame)
        msg_type, payload = decode_frame(frame)
        if msg_type != expected_type:
            if msg_type == MSG_DONE:
                raise HandshakeError("session refused by cloud")
            raise WireError(f"unexpected message type {msg_type}")
        return payload

    send(encode_hello(config, vhash, prompt_ids))
    ack_hash = decode_hello_ack(recv(MSG_HELLO))
    if ack_hash != vhash:
        raise HandshakeError("vocabulary hash mismatch in handshake ack")

    traces: list[RoundTrace] = []
    while True:
        batch = edge.next_draft()
        if batch is None:
            trailing = [edge.pending_delta] if edge.pending_delta is not None else []
            send(encode_done(len(edge.committed), trailing))
            # The cloud acknowledges with its mirror length, and refuses with
            # a DONE of length 0; a finished session is never empty.
            final_len, _ = decode_done(recv(MSG_DONE))
            if final_len != len(edge.committed):
                raise HandshakeError("session refused by cloud")
            break
        delta = edge.take_delta()
        draft_frame = encode_draft(batch, delta)
        send(draft_frame)
        verdict_payload = recv(MSG_VERDICT)
        verdict = decode_verdict(verdict_payload)
        if verdict.recovery is not None:
            check_steering_payload(verdict.recovery, vocab.size, config.top_k)
        accepted, rec_token = edge.apply_verdict(verdict)
        clock = getattr(endpoint, "counters", None)
        traces.append(
            RoundTrace(
                index=batch.seq_no,
                drafted=batch.token_ids,
                alphas=(),
                accepted_count=accepted,
                recovery_token=rec_token,
                uplink_bytes=len(draft_frame),
                downlink_bytes=len(verdict_payload) + _HEADER.size,
                clock_ms=clock.clock_ms if clock is not None else 0.0,
            )
        )

    counters = getattr(endpoint, "counters", None)
    stats = EdgeStats(
        rounds=len(traces),
        uplink_bytes=up_bytes,
        downlink_bytes=down_bytes,
        clock_ms=counters.clock_ms if counters is not None else 0.0,
        traces=traces,
    )
    return edge.committed, stats


def run_cloud(
    endpoint,
    llm,
    slm_minus,
    vocab: Vocabulary,
    frame_log: FrameLog | None = None,
) -> CloudStats:
    """Serve one session from the cloud side of a channel."""
    vhash = vocab_hash64(vocab)

    def send(frame: bytes) -> None:
        if frame_log is not None:
            frame_log.write(DIR_DOWN, frame)
        endpoint.send_frame(frame)

    def recv() -> tuple[int, bytes]:
        frame = endpoint.recv_frame()
        if frame_log is not None:
            frame_log.write(DIR_UP, frame)
        return decode_frame(frame)

    try:
        return _serve_session(send, recv, llm, slm_minus, vocab, vhash)
    except SpecSteerError:
        # Tell the edge the session is over before giving up on it.  The
        # peer may already be gone, which is not a further error.
        try:
            send(encode_done(0, ()))
        except OSError:
            pass
        raise


def _serve_session(send, recv, llm, slm_minus, vocab: Vocabulary, vhash: int) -> CloudStats:
    msg_type, payload = recv()
    if msg_type != MSG_HELLO:
        raise WireError("expected handshake frame")
    config, peer_hash, prompt = decode_hello(payload)
    if peer_hash != vhash:
        log.warning("refusing session: vocabulary hash mismatch")
        send(encode_done(0, ()))
        return CloudStats(refused=True, rounds=0, traces=[], mirror=[])
    # Checks the handshake's config and prompt before acknowledging it.
    verifier = CloudVerifier(config, llm, slm_minus, vocab, prompt)
    send(encode_hello_ack(vhash))

    while True:
        msg_type, payload = recv()
        if msg_type == MSG_DRAFT:
            batch, delta = decode_draft(payload, expect_delta=verifier.awaiting_delta)
            verdict = verifier.handle_draft(batch, delta)
            send(encode_verdict(verdict))
        elif msg_type == MSG_DONE:
            final_len, trailing = decode_done(payload)
            verifier.finish(trailing)
            if final_len != len(verifier.mirror):
                raise WireError(
                    f"edge reports length {final_len}, cloud mirror has {len(verifier.mirror)}"
                )
            send(encode_done(len(verifier.mirror), ()))
            break
        else:
            raise WireError(f"unexpected message type {msg_type} mid-session")

    return CloudStats(
        refused=False,
        rounds=verifier.expected_seq,
        traces=verifier.traces,
        mirror=verifier.mirror,
    )


def run_simulated_session(
    config: ProtocolConfig,
    llm,
    slm_plus,
    slm_minus,
    vocab: Vocabulary,
    prompt_ids: Sequence[int],
    channel: ChannelModel | None = None,
    edge_log: FrameLog | None = None,
    cloud_log: FrameLog | None = None,
) -> tuple[list[int], EdgeStats, CloudStats]:
    """Edge and cloud over the in-process channel (cloud on a thread)."""
    edge_end, cloud_end, _ = simulated_pair(channel)
    result: dict[str, CloudStats] = {}
    errors: list[BaseException] = []

    def cloud_main() -> None:
        try:
            result["stats"] = run_cloud(cloud_end, llm, slm_minus, vocab, frame_log=cloud_log)
        except BaseException as exc:  # surfaced to the caller below
            errors.append(exc)
        finally:
            # However the cloud ends, an edge waiting for a frame wakes up.
            cloud_end.close()

    thread = threading.Thread(target=cloud_main, daemon=True)
    thread.start()
    try:
        try:
            committed, edge_stats = run_edge(
                config, edge_end, slm_plus, vocab, prompt_ids, frame_log=edge_log
            )
        finally:
            # Likewise a cloud still waiting for a frame, so its thread ends.
            edge_end.close()
            thread.join(timeout=DEFAULT_SOCKET_TIMEOUT)
    except WireError:
        # A refusal or a closed channel: the cloud ended the session, and its
        # error is the more specific one, unless all it saw was this edge
        # closing the channel.
        if errors and not isinstance(errors[0], ChannelClosedError):
            raise errors[0] from None
        raise
    if errors:
        raise errors[0]
    return committed, edge_stats, result["stats"]


# ---------------------------------------------------------------------------
# Socket mode
# ---------------------------------------------------------------------------


def serve_cloud_once(
    bind: tuple[str, int],
    llm,
    slm_minus,
    vocab: Vocabulary,
    frame_log: FrameLog | None = None,
    ready: threading.Event | None = None,
    bound: list | None = None,
) -> CloudStats:
    """Accept one connection and serve one session."""
    server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    server.bind(bind)
    server.listen(1)
    server.settimeout(DEFAULT_SOCKET_TIMEOUT)
    if bound is not None:
        bound.append(server.getsockname())
    if ready is not None:
        ready.set()
    try:
        conn, _ = server.accept()
        endpoint = SocketEndpoint(conn)
        try:
            return run_cloud(endpoint, llm, slm_minus, vocab, frame_log=frame_log)
        finally:
            endpoint.close()
    finally:
        server.close()


def run_edge_socket(
    config: ProtocolConfig,
    connect: tuple[str, int],
    drafter,
    vocab: Vocabulary,
    prompt_ids: Sequence[int],
    frame_log: FrameLog | None = None,
    timeout: float = DEFAULT_SOCKET_TIMEOUT,
) -> tuple[list[int], EdgeStats]:
    sock = socket.create_connection(connect, timeout=timeout)
    endpoint = SocketEndpoint(sock, timeout=timeout)
    try:
        return run_edge(config, endpoint, drafter, vocab, prompt_ids, frame_log=frame_log)
    finally:
        endpoint.close()


# ---------------------------------------------------------------------------
# Frame-log analysis
# ---------------------------------------------------------------------------

_UPLINK_TYPES = {MSG_HELLO, MSG_DRAFT, MSG_DONE}


def scan_frame_log(path: str, forbidden: Iterable[bytes] = ()) -> list[str]:
    """Audit a frame log: uplink frames must be token-id/config frames that
    parse exactly, with no steering-value sections and none of the given
    forbidden byte patterns (e.g. raw private-document text)."""
    forbidden = [f for f in forbidden if f]
    violations: list[str] = []
    hello_seen = False
    for idx, (direction, frame) in enumerate(FrameLog.read(path)):
        try:
            msg_type, payload = decode_frame(frame)
        except WireError as exc:
            violations.append(f"frame {idx}: undecodable ({exc})")
            continue
        if direction != DIR_UP:
            continue
        if msg_type not in _UPLINK_TYPES:
            violations.append(f"frame {idx}: uplink carries message type {msg_type}")
            continue
        try:
            if msg_type == MSG_HELLO:
                if hello_seen:
                    decode_hello_ack(payload)
                else:
                    decode_hello(payload)
                    hello_seen = True
            elif msg_type == MSG_DRAFT:
                try:
                    decode_draft(payload, expect_delta=False)
                except WireError:
                    decode_draft(payload, expect_delta=True)
            else:
                decode_done(payload)
        except WireError as exc:
            violations.append(f"frame {idx}: malformed uplink payload ({exc})")
            continue
        for pattern in forbidden:
            if pattern in payload:
                violations.append(f"frame {idx}: uplink contains forbidden bytes {pattern!r}")
    return violations


def replay_cloud_log(path: str, llm, slm_minus, vocab: Vocabulary) -> list[str]:
    """Re-run the cloud state machine over the logged uplink frames and
    compare the produced verdicts to the logged downlink, bit for bit."""
    records = FrameLog.read(path)
    mismatches: list[str] = []
    verifier: CloudVerifier | None = None
    pending_verdicts: list[bytes] = []
    for direction, frame in records:
        msg_type, payload = decode_frame(frame)
        if direction == DIR_UP:
            if msg_type == MSG_HELLO:
                config, _, prompt = decode_hello(payload)
                verifier = CloudVerifier(config, llm, slm_minus, vocab, prompt)
            elif msg_type == MSG_DRAFT and verifier is not None:
                batch, delta = decode_draft(payload, expect_delta=verifier.awaiting_delta)
                verdict = verifier.handle_draft(batch, delta)
                pending_verdicts.append(encode_verdict(verdict))
        elif msg_type == MSG_VERDICT:
            if not pending_verdicts:
                mismatches.append("logged verdict without matching draft")
                continue
            expected = pending_verdicts.pop(0)
            if expected != frame:
                mismatches.append("replayed verdict differs from log")
    if pending_verdicts:
        mismatches.append(f"{len(pending_verdicts)} replayed verdicts missing from log")
    return mismatches
