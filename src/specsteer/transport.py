"""Wire protocol and channel backends for the edge/cloud split.

Frames are little-endian: 4-byte magic ``SPST``, version byte, message
type byte, u32 payload length, payload.  The uplink carries token ids and
handshake configuration only; steering values (IEEE-754 binary32) appear
exclusively in downlink verdicts.  Two channel backends exist: a
length-delimited byte stream over a local socket, and a simulated channel
that is the socket path minus the socket: ``run_edge`` over an endpoint
that answers each frame at once by calling the cloud's frame handler in
the caller's thread.  Both run the same edge loop and the same frame
handler, so their frames, and the committed sequences, are identical for
identical seeds.  The edge loop is ``protocol.drive``, the one that
``run_session`` runs in process, with a verify step that exchanges frames;
a HELLO opens it and a DONE closes it.  Modeled channel time is not kept
here: ``metrics.round_time_ms`` computes it from a round's byte counts.

The endpoint loops read draft and verdict frames in place.  The cloud's
frame handler (``CloudSession.handle``) hands a draft's ids to
``CloudVerifier.verify`` and appends the packed entry section it returns,
the one form a steering payload takes, to the verdict as it is; the edge
checks a verdict's fields with ``protocol.check_verdict`` and hands that
section to the commit core undecoded.  So the wire adds nothing to a
payload that an in-process session does not see.  The ``encode_*`` and
``decode_*`` functions are the same codec in message form; a ``Verdict``
carries the section undecoded too.
"""

from __future__ import annotations

import functools
import math
import socket
import struct
import threading
from collections import deque
from dataclasses import dataclass
from time import monotonic
from typing import Iterable, Sequence

from .core import (
    DECODE_MODES,
    ConfigError,
    ProtocolConfig,
    SpecSteerError,
    Vocabulary,
    make_streams,
)
from .protocol import (
    DRAFT_FIXED,
    FRAME_HEADER,
    STEERING_ENTRY_BYTES,
    VERDICT_FIXED,
    CloudVerifier,
    DraftBatch,
    RoundTrace,
    Verdict,
    check_verdict,
    drive,
    edge_start,
    round_trace,
)

MAGIC = b"SPST"
VERSION = 1

MSG_HELLO = 1
MSG_DRAFT = 2
MSG_VERDICT = 3
MSG_DONE = 4
_MSG_TYPES = (MSG_HELLO, MSG_DRAFT, MSG_VERDICT, MSG_DONE)

DIR_UP = 0    # edge -> cloud
DIR_DOWN = 1  # cloud -> edge

_HELLO = struct.Struct("<ddHHIBQQH")
_DONE_FIXED = struct.Struct("<IH")
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
# A whole accept-all verdict frame, and a recovery verdict frame up to its
# entry section: header, fixed fields and the u16 entry count.
_ACCEPT_ALL_FRAME = struct.Struct(FRAME_HEADER.format + VERDICT_FIXED.format[1:])
_RECOVERY_HEAD = struct.Struct(_ACCEPT_ALL_FRAME.format + "H")

# Every variable-length section has a u16 count, so the largest legal payload
# is a verdict with 0xFFFF entries.  SocketEndpoint refuses any longer
# declared length before reading, which bounds what a peer can make it
# allocate.
MAX_PAYLOAD = max(
    _HELLO.size + _U32.size * 0xFFFF,
    DRAFT_FIXED.size + _U32.size * (0xFFFF + 1),
    VERDICT_FIXED.size + 2 + STEERING_ENTRY_BYTES * 0xFFFF,
    _DONE_FIXED.size + _U32.size * 0xFFFF,
)

DEFAULT_SOCKET_TIMEOUT = 30.0


class WireError(SpecSteerError):
    pass


class HandshakeError(WireError):
    pass


class ChannelClosedError(WireError):
    """The peer closed the channel; no further frame will arrive."""


class ChannelTimeoutError(WireError, TimeoutError):
    """A frame was not received or sent, or a connection not accepted or
    made, within the socket timeout."""


# ---------------------------------------------------------------------------
# Frame codec
# ---------------------------------------------------------------------------


def vocab_hash64(vocab: Vocabulary) -> int:
    """Handshake fingerprint of the vocabulary: ``Vocabulary.fingerprint``,
    computed once, when the vocabulary was made."""
    return vocab.fingerprint


@functools.lru_cache(maxsize=256)
def _ids_struct(n: int) -> struct.Struct:
    """n u32 token ids."""
    return struct.Struct(f"<{n}I")


@functools.lru_cache(maxsize=256)
def _draft_struct(n: int) -> struct.Struct:
    """A whole draft frame carrying n u32 ids: the draft's, then any
    history delta."""
    return struct.Struct(f"{FRAME_HEADER.format}{DRAFT_FIXED.format[1:]}{n}I")


def _pack_ids(ids: Sequence[int]) -> bytes:
    try:
        return _ids_struct(len(ids)).pack(*ids)
    except struct.error:
        raise WireError("token id does not fit in an unsigned 32-bit field") from None


def encode_frame(msg_type: int, payload: bytes) -> bytes:
    if msg_type not in _MSG_TYPES:
        raise WireError(f"unknown message type {msg_type}")
    return FRAME_HEADER.pack(MAGIC, VERSION, msg_type, len(payload)) + payload


def _frame_type(frame: bytes) -> int:
    """The message type of a whole frame, once its header is checked
    against the frame."""
    if len(frame) < FRAME_HEADER.size:
        raise WireError("frame shorter than header")
    magic, version, msg_type, payload_len = FRAME_HEADER.unpack_from(frame, 0)
    if magic != MAGIC:
        raise WireError("bad frame magic")
    if version != VERSION:
        raise WireError(f"unsupported protocol version {version}")
    if msg_type not in _MSG_TYPES:
        raise WireError(f"unknown message type {msg_type}")
    if len(frame) - FRAME_HEADER.size != payload_len:
        raise WireError("declared payload length mismatch")
    return msg_type


def decode_frame(frame: bytes) -> tuple[int, bytes]:
    return _frame_type(frame), frame[FRAME_HEADER.size:]


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
    """(config, vocabulary hash, prompt) of a handshake payload.  The
    config checks its fields as it is made, so one out of range raises
    ``ConfigError``."""
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


def _draft_frame(seq_no: int, tokens: Sequence[int], history_delta: int | None) -> bytes:
    k = len(tokens)
    if k == 0:
        raise WireError("cannot encode an empty draft batch")
    if k > 0xFFFF:
        raise WireError("draft batch too large for frame")
    ids = tokens if history_delta is None else (*tokens, history_delta)
    try:
        return _draft_struct(len(ids)).pack(
            MAGIC, VERSION, MSG_DRAFT, DRAFT_FIXED.size + 4 * len(ids), seq_no, k, *ids
        )
    except struct.error:
        raise WireError("draft seq or token id does not fit an unsigned 32-bit field") from None


def encode_draft(batch: DraftBatch, history_delta: int | None = None) -> bytes:
    return _draft_frame(batch.seq_no, batch.token_ids, history_delta)


def _draft_fields(
    buf: bytes, off: int, expect_delta: bool
) -> tuple[int, tuple[int, ...], int | None]:
    """(seq_no, token ids, history delta) of the draft payload that starts
    at ``off`` in ``buf`` and runs to its end."""
    size = len(buf) - off
    if size < DRAFT_FIXED.size:
        raise WireError("truncated draft payload")
    seq_no, k = DRAFT_FIXED.unpack_from(buf, off)
    expected = DRAFT_FIXED.size + 4 * k + (4 if expect_delta else 0)
    if size != expected:
        raise WireError(f"draft payload length {size}, expected {expected}")
    off += DRAFT_FIXED.size
    if not expect_delta:
        return seq_no, _ids_struct(k).unpack_from(buf, off), None
    ids = _ids_struct(k + 1).unpack_from(buf, off)
    return seq_no, ids[:k], ids[k]


def decode_draft(payload: bytes, expect_delta: bool) -> tuple[DraftBatch, int | None]:
    seq_no, ids, delta = _draft_fields(payload, 0, expect_delta)
    return DraftBatch(seq_no, ids), delta


def _verdict_frame(seq_no: int, accepted: int, section: bytes | None) -> bytes:
    """The verdict frame around ``section``, a packed entry section (see
    ``protocol.pack_steering_entries``), or the accept-all verdict."""
    if section is None:
        return _ACCEPT_ALL_FRAME.pack(
            MAGIC, VERSION, MSG_VERDICT, VERDICT_FIXED.size, seq_no, accepted, 0
        )
    n, rest = divmod(len(section), STEERING_ENTRY_BYTES)
    if not n or rest:
        raise WireError("recovery verdict needs one or more whole steering entries")
    payload_len = VERDICT_FIXED.size + 2 + len(section)
    return _RECOVERY_HEAD.pack(
        MAGIC, VERSION, MSG_VERDICT, payload_len, seq_no, accepted, 1, n
    ) + section


def encode_verdict(v: Verdict) -> bytes:
    return _verdict_frame(v.seq_no, v.accepted_count, v.recovery)


def _verdict_fields(buf: bytes, off: int) -> tuple[int, int, bytes | None]:
    """(seq_no, accepted count, packed entry section or None) of the
    verdict payload that starts at ``off`` in ``buf`` and runs to its end."""
    size = len(buf) - off
    if size < VERDICT_FIXED.size:
        raise WireError("truncated verdict payload")
    seq_no, accepted, flag = VERDICT_FIXED.unpack_from(buf, off)
    if flag == 0:
        if size != VERDICT_FIXED.size:
            raise WireError("accept-all verdict carries extra bytes")
        return seq_no, accepted, None
    if flag != 1:
        raise WireError(f"unknown verdict flag {flag}")
    if size < VERDICT_FIXED.size + 2:
        raise WireError("truncated verdict payload")
    (n,) = _U16.unpack_from(buf, off + VERDICT_FIXED.size)
    off += VERDICT_FIXED.size + 2
    if len(buf) != off + STEERING_ENTRY_BYTES * n:
        raise WireError("verdict entry section length mismatch")
    return seq_no, accepted, buf[off:]


def decode_verdict(payload: bytes) -> Verdict:
    return Verdict(*_verdict_fields(payload, 0))


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


# The cloud's refusal: a DONE of length 0 (a finished session is never empty).
_REFUSAL = encode_done(0, ())


# ---------------------------------------------------------------------------
# Channels
# ---------------------------------------------------------------------------


@dataclass
class ChannelModel:
    """Modeled link: one-way latency plus serialization delay, for
    ``metrics.round_time_ms``."""

    one_way_latency_ms: float = 0.0
    bandwidth_bps: float = float("inf")

    def __post_init__(self) -> None:
        # Written so that NaN fails both checks; an infinite bandwidth is
        # the default and means no serialization delay.
        if not (0 <= self.one_way_latency_ms < math.inf and self.bandwidth_bps > 0):
            raise WireError("invalid channel parameters")

    def transfer_ms(self, nbytes: int) -> float:
        return self.one_way_latency_ms + 1000.0 * nbytes / self.bandwidth_bps


_TIMEVAL = struct.Struct("@ll")


def _timeval(seconds: float | None) -> bytes:
    """``seconds`` as the ``struct timeval`` of SO_RCVTIMEO/SO_SNDTIMEO.
    None is the zero timeval, which never times out, so a positive timeout
    shorter than a microsecond rounds up to one."""
    if seconds is None:
        return _TIMEVAL.pack(0, 0)
    if not seconds >= 0:
        raise ValueError(f"timeout must be non-negative or None, not {seconds}")
    return _TIMEVAL.pack(*divmod(max(1, math.ceil(seconds * 1_000_000)), 1_000_000))


class SocketEndpoint:
    """Frame stream over a connected socket; frames are self-delimiting.

    The socket blocks in the kernel with ``timeout`` as its SO_RCVTIMEO and
    SO_SNDTIMEO, so a frame that has arrived costs one ``recv_into``, into
    a buffer the endpoint reuses and that keeps any bytes read past the
    frame for the next one.  ``timeout`` is a deadline for each whole
    frame, not for each read: after a partial read or write the kernel
    timeout is re-armed with what is left of it, so a peer that trickles
    bytes cannot stretch a frame.  A declared payload length is checked
    against ``MAX_PAYLOAD`` before the buffer grows for it.  Timeouts raise
    ``ChannelTimeoutError``.
    """

    BUFFER_BYTES = 4096

    def __init__(
        self, sock: socket.socket, timeout: float | None = DEFAULT_SOCKET_TIMEOUT
    ) -> None:
        if sock.gettimeout() is not None:
            sock.settimeout(None)
        self._sock = sock
        self._timeout = timeout
        self._timeval = _timeval(timeout)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVTIMEO, self._timeval)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDTIMEO, self._timeval)
        self._buf = bytearray(self.BUFFER_BYTES)
        self._view = memoryview(self._buf)
        # The unread bytes are _buf[_start:_end].
        self._start = 0
        self._end = 0

    def _rearm(self, option: int, began: float) -> None:
        """Set the kernel timeout ``option`` to what is left of the frame's
        deadline, ``timeout`` after ``began``."""
        if self._timeout is None:
            return
        left = began + self._timeout - monotonic()
        if left <= 0:
            raise ChannelTimeoutError(f"frame not completed within {self._timeout} s")
        self._sock.setsockopt(socket.SOL_SOCKET, option, _timeval(left))

    def send_frame(self, frame: bytes) -> None:
        sock = self._sock
        began = monotonic()
        try:
            sent = sock.send(frame)
            if sent == len(frame):
                return
            view = memoryview(frame)
            try:
                while sent < len(frame):
                    self._rearm(socket.SO_SNDTIMEO, began)
                    sent += sock.send(view[sent:])
            finally:
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDTIMEO, self._timeval)
        except BlockingIOError:
            raise ChannelTimeoutError(f"frame not sent within {self._timeout} s") from None

    def _make_room(self, need: int) -> None:
        """Move the unread bytes to the front of the buffer, into a larger
        one when ``need`` bytes would not fit.  ``need`` is at most a whole
        frame whose declared length was checked against the cap, so this
        bounds the buffer."""
        start, end = self._start, self._end
        buf = self._buf
        if need > len(buf):
            buf = bytearray(min(max(need, 2 * len(buf)), FRAME_HEADER.size + MAX_PAYLOAD))
        buf[: end - start] = self._buf[start:end]
        if buf is not self._buf:
            self._buf, self._view = buf, memoryview(buf)
        self._start, self._end = 0, end - start

    def recv_frame(self) -> bytes:
        began = None  # when the frame's first read began
        rearmed = False
        try:
            while True:
                start, end = self._start, self._end
                size = FRAME_HEADER.size
                if end - start >= size:
                    magic, _, _, payload_len = FRAME_HEADER.unpack_from(self._buf, start)
                    if magic != MAGIC:
                        raise WireError("bad frame magic on stream")
                    if payload_len > MAX_PAYLOAD:
                        raise WireError(
                            f"declared payload length {payload_len} exceeds the largest legal "
                            f"payload ({MAX_PAYLOAD} bytes)"
                        )
                    size += payload_len
                    if end - start >= size:
                        break
                if start + size > len(self._buf):
                    self._make_room(size)
                    end = self._end
                # The frame's first read waits the whole timeout, each later
                # one what is left of it.
                if began is None:
                    began = monotonic()
                else:
                    self._rearm(socket.SO_RCVTIMEO, began)
                    rearmed = True
                try:
                    n = self._sock.recv_into(self._view[end:])
                except BlockingIOError:
                    raise ChannelTimeoutError(f"no whole frame within {self._timeout} s") from None
                if not n:
                    raise ChannelClosedError("peer closed the connection mid-frame")
                self._end = end + n
        finally:
            if rearmed:
                self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVTIMEO, self._timeval)
        end = start + size
        if end == self._end:
            self._start = self._end = 0
        else:
            self._start = end
        return bytes(self._view[start:end])

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
        """Every (direction, frame) record; a log whose last record is cut
        short raises ``WireError``."""
        records: list[tuple[int, bytes]] = []
        with open(path, "rb") as fh:
            blob = fh.read()
        off = 0
        while off < len(blob):
            if off + FrameLog._REC.size > len(blob):
                raise WireError(f"frame log ends in a truncated record header at byte {off}")
            direction, n = FrameLog._REC.unpack_from(blob, off)
            off += FrameLog._REC.size
            if off + n > len(blob):
                raise WireError(f"frame log ends in a truncated frame at byte {off}")
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
    traces: list[RoundTrace]


@dataclass
class CloudStats:
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
    start = edge_start(config, drafter, vocab, prompt_ids)
    hello = encode_hello(config, vocab.fingerprint, start[2])
    return _edge_loop(config, start, vocab.fingerprint, hello, endpoint, frame_log)


def _edge_loop(
    config: ProtocolConfig, start: tuple, vhash: int, hello: bytes, endpoint,
    frame_log: FrameLog | None,
) -> tuple[list[int], EdgeStats]:
    """``run_edge`` from ``edge_start``'s checked ``start`` and the encoded
    ``hello``, which opens the session: ``protocol.drive`` with a verify
    step that exchanges a draft frame for a verdict frame.  A DONE closes
    the session."""
    rec, drafter, history = start
    up_bytes = 0
    down_bytes = 0

    def send(frame: bytes) -> None:
        nonlocal up_bytes
        up_bytes += len(frame)
        if frame_log is not None:
            frame_log.write(DIR_UP, frame)
        endpoint.send_frame(frame)

    def recv(expected_type: int) -> bytes:
        """The next frame, once its header is checked and its type is
        ``expected_type``."""
        nonlocal down_bytes
        frame = endpoint.recv_frame()
        down_bytes += len(frame)
        if frame_log is not None:
            frame_log.write(DIR_DOWN, frame)
        msg_type = _frame_type(frame)
        if msg_type != expected_type:
            if msg_type == MSG_DONE:
                raise HandshakeError("session refused by cloud")
            raise WireError(f"unexpected message type {msg_type}")
        return frame

    def exchange(config, _llm, _slm_minus, _zt_fn, history, tokens, _rng, seq, has_delta):
        """``SessionRecord.scan`` done by the cloud: send draft ``seq``, with
        the recovered token as its history delta when ``has_delta``, and
        return the round's trace and section from the checked verdict.  The
        edge never sees the alphas."""
        send(_draft_frame(seq, tokens, history[-1] if has_delta else None))
        v_seq, accepted, section = _verdict_fields(recv(MSG_VERDICT), FRAME_HEADER.size)
        check_verdict(config, seq, tokens, v_seq, accepted, section)
        return round_trace(seq, tokens, (), accepted, None, has_delta, section), section

    send(hello)
    if decode_hello_ack(recv(MSG_HELLO)[FRAME_HEADER.size:]) != vhash:
        raise HandshakeError("vocabulary hash mismatch in handshake ack")
    history, traces = drive(config, rec, drafter, history, make_streams(config.seed), exchange)
    last = traces[-1].recovery_token if traces else None
    send(encode_done(len(history), () if last is None else (last,)))
    # The cloud acknowledges with its mirror length, and refuses with a DONE
    # of length 0; a finished session is never empty.
    final_len, _ = decode_done(recv(MSG_DONE)[FRAME_HEADER.size:])
    if final_len != len(history):
        raise HandshakeError("session refused by cloud")
    stats = EdgeStats(
        rounds=len(traces), uplink_bytes=up_bytes, downlink_bytes=down_bytes, traces=traces
    )
    return history, stats


class CloudSession:
    """The cloud's side of one session as a function from frames to frames,
    and the cloud's single entry point: ``handle`` takes an uplink frame and
    returns the downlink frame that answers it.  ``answer`` adds the one
    rule for errors: a ``SpecSteerError`` (a foreign vocabulary's among
    them) ends the session with the DONE refusal, logged on the downlink.
    ``run_cloud`` serves a channel with it, ``DirectEndpoint`` the simulated
    channel, and ``replay_cloud_log`` a logged uplink."""

    def __init__(self, llm, slm_minus, vocab: Vocabulary) -> None:
        self.llm = llm
        self.slm_minus = slm_minus
        self.vocab = vocab
        self.verifier: CloudVerifier | None = None
        # Set once the last frame of the session has been answered.
        self.finished = False
        # The error that ended the session, if one did.
        self.error: SpecSteerError | None = None

    def handle(self, frame: bytes) -> bytes:
        """The answer to ``frame``: a handshake ack, a verdict, or the DONE
        acknowledgement.  A ``SpecSteerError`` (a handshake from another
        vocabulary raises ``HandshakeError``) ends the session, which
        ``answer`` then refuses with a DONE of length 0."""
        msg_type = _frame_type(frame)
        verifier = self.verifier
        if msg_type == MSG_DRAFT and verifier is not None:
            seq_no, ids, delta = _draft_fields(frame, FRAME_HEADER.size, verifier.awaiting_delta)
            accepted, payload = verifier.verify(seq_no, ids, delta)
            return _verdict_frame(seq_no, accepted, payload)
        if self.finished:
            raise WireError("frame after the session ended")
        if verifier is None:
            if msg_type != MSG_HELLO:
                raise WireError("expected handshake frame")
            config, peer_hash, prompt = decode_hello(frame[FRAME_HEADER.size:])
            if peer_hash != self.vocab.fingerprint:
                raise HandshakeError("vocabulary hash mismatch")
            # Checks the handshake's config and prompt before acknowledging it.
            self.verifier = CloudVerifier(config, self.llm, self.slm_minus, self.vocab, prompt)
            return encode_hello_ack(self.vocab.fingerprint)
        if msg_type != MSG_DONE:
            raise WireError(f"unexpected message type {msg_type} mid-session")
        final_len, trailing = decode_done(frame[FRAME_HEADER.size:])
        verifier.finish(trailing)
        mirror = verifier.mirror
        if final_len != len(mirror):
            raise WireError(f"edge reports length {final_len}, cloud mirror has {len(mirror)}")
        self.finished = True
        return encode_done(len(mirror), ())

    def answer(self, frame: bytes, frame_log: FrameLog | None = None) -> bytes:
        """``handle``'s answer to ``frame``, or the refusal if it raises a
        ``SpecSteerError``.  A log gets ``frame`` on its uplink and the
        answer on its downlink."""
        if frame_log is not None:
            frame_log.write(DIR_UP, frame)
        try:
            reply = self.handle(frame)
        except SpecSteerError as exc:
            return self.refuse(exc, frame_log)
        if frame_log is not None:
            frame_log.write(DIR_DOWN, reply)
        return reply

    def refuse(self, error: SpecSteerError, frame_log: FrameLog | None = None) -> bytes:
        """End the session on ``error``, kept in ``self.error``, and return
        the refusal, a DONE of length 0, logged on the downlink."""
        self.error = error
        self.finished = True
        if frame_log is not None:
            frame_log.write(DIR_DOWN, _REFUSAL)
        return _REFUSAL

    def stats(self) -> CloudStats:
        verifier = self.verifier
        if verifier is None:
            return CloudStats(rounds=0, traces=[], mirror=[])
        return CloudStats(
            rounds=verifier.expected_seq,
            traces=verifier.traces,
            mirror=verifier.mirror,
        )


def run_cloud(
    endpoint,
    llm,
    slm_minus,
    vocab: Vocabulary,
    frame_log: FrameLog | None = None,
) -> CloudStats:
    """Serve one session from the cloud side of a channel.  A session that
    ends in an error is refused, and the error raised."""
    session = CloudSession(llm, slm_minus, vocab)
    while not session.finished:
        try:
            frame = endpoint.recv_frame()
        except SpecSteerError as exc:
            reply = session.refuse(exc, frame_log)
        else:
            reply = session.answer(frame, frame_log)
        try:
            endpoint.send_frame(reply)
        except OSError:
            # Once refused, the peer may already be gone, which is not a
            # further error.  Any other send that fails leaves the stream
            # broken, perhaps mid-frame, and the peer not reading: no
            # refusal can follow it.
            if session.error is None:
                raise
        if session.error is not None:
            raise session.error
    return session.stats()


class DirectEndpoint:
    """The edge's end of the simulated channel.  The protocol is strict
    request/response, so ``send_frame`` has the cloud's frame handler answer
    the frame at once, in the caller's thread, and the next ``recv_frame``
    returns that answer."""

    def __init__(self, session: CloudSession, frame_log: FrameLog | None = None) -> None:
        self._session = session
        self._log = frame_log
        self._answer = b""

    def send_frame(self, frame: bytes) -> None:
        self._answer = self._session.answer(frame, self._log)

    def recv_frame(self) -> bytes:
        return self._answer


def run_simulated_session(
    config: ProtocolConfig,
    llm,
    slm_plus,
    slm_minus,
    vocab: Vocabulary,
    prompt_ids: Sequence[int],
    edge_log: FrameLog | None = None,
    cloud_log: FrameLog | None = None,
) -> tuple[list[int], EdgeStats, CloudStats]:
    """Edge and cloud over the simulated channel: ``run_edge`` over a
    ``DirectEndpoint``, in the caller's thread.  A session the cloud ended
    on an error raises that error, the more specific one, instead of the
    edge's view of the refusal."""
    cloud = CloudSession(llm, slm_minus, vocab)
    try:
        committed, edge_stats = run_edge(
            config, DirectEndpoint(cloud, cloud_log), slm_plus, vocab, prompt_ids,
            frame_log=edge_log,
        )
    except WireError:
        if cloud.error is not None:
            raise cloud.error from None
        raise
    return committed, edge_stats, cloud.stats()


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
    """Accept one connection, within ``DEFAULT_SOCKET_TIMEOUT`` seconds,
    and serve one session.  Once the socket listens, its address is
    appended to ``bound`` and then ``ready.set()`` is called (``ready`` may
    be any object with a ``set()`` method)."""
    timeout = DEFAULT_SOCKET_TIMEOUT
    server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        server.bind(bind)
        server.listen(1)
        # A blocking accept, bounded by the kernel's receive timeout.
        server.setsockopt(socket.SOL_SOCKET, socket.SO_RCVTIMEO, _timeval(timeout))
        if bound is not None:
            bound.append(server.getsockname())
        if ready is not None:
            ready.set()
        try:
            conn, _ = server.accept()
        except BlockingIOError:
            raise ChannelTimeoutError(f"no connection within {timeout} s") from None
        endpoint = SocketEndpoint(conn, timeout=timeout)
        try:
            return run_cloud(endpoint, llm, slm_minus, vocab, frame_log=frame_log)
        finally:
            endpoint.close()
    finally:
        server.close()


def _connect(address: tuple[str, int], timeout: float | None) -> socket.socket:
    """A TCP socket connected to ``address`` within ``timeout`` seconds.  A
    numeric IPv4 host is connected to directly, without the resolver call
    of ``create_connection``.  The connect keeps a timeout of its own:
    CPython would poll a blocking socket's interrupted connect without
    limit."""
    host, port = address
    try:
        socket.inet_pton(socket.AF_INET, host)
        numeric = True
    except (OSError, TypeError):
        numeric = False
    try:
        if not numeric:
            return socket.create_connection(address, timeout=timeout)
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            sock.settimeout(timeout)
            sock.connect((host, port))
        except BaseException:
            sock.close()
            raise
        return sock
    except TimeoutError:
        raise ChannelTimeoutError(f"connect to {host}:{port} took over {timeout} s") from None


def run_edge_socket(
    config: ProtocolConfig,
    connect: tuple[str, int],
    drafter,
    vocab: Vocabulary,
    prompt_ids: Sequence[int],
    frame_log: FrameLog | None = None,
    timeout: float = DEFAULT_SOCKET_TIMEOUT,
) -> tuple[list[int], EdgeStats]:
    """``run_edge`` over a TCP connection to ``connect``.  The config and
    the prompt are checked, and the handshake encoded, before the
    connection is made."""
    start = edge_start(config, drafter, vocab, prompt_ids)
    hello = encode_hello(config, vocab.fingerprint, start[2])
    endpoint = SocketEndpoint(_connect(connect, timeout), timeout=timeout)
    try:
        return _edge_loop(config, start, vocab.fingerprint, hello, endpoint, frame_log)
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
            # Every uplink HELLO is a handshake: a log may hold several
            # sessions, and acks travel only on the downlink.
            if msg_type == MSG_HELLO:
                decode_hello(payload)
            elif msg_type == MSG_DRAFT:
                try:
                    decode_draft(payload, expect_delta=False)
                except WireError:
                    decode_draft(payload, expect_delta=True)
            else:
                decode_done(payload)
        except (WireError, ConfigError) as exc:
            violations.append(f"frame {idx}: malformed uplink payload ({exc})")
            continue
        for pattern in forbidden:
            if pattern in payload:
                violations.append(f"frame {idx}: uplink contains forbidden bytes {pattern!r}")
    return violations


def replay_cloud_log(path: str, llm, slm_minus, vocab: Vocabulary) -> list[str]:
    """Serve the logged uplink frames again through the cloud's frame
    handler and compare every answer (handshake ack, verdicts, the DONE
    exchange, or a refusal) to the logged downlink, bit for bit.  A log may
    hold several sessions one after another."""
    mismatches: list[str] = []
    answers: deque[bytes] = deque()
    session: CloudSession | None = None
    for idx, (direction, frame) in enumerate(FrameLog.read(path)):
        if direction == DIR_UP:
            if session is None:
                session = CloudSession(llm, slm_minus, vocab)
            answers.append(session.answer(frame))
            if session.finished:
                session = None
        elif not answers:
            mismatches.append(f"frame {idx}: logged downlink frame answers no uplink frame")
        elif answers.popleft() != frame:
            mismatches.append(f"frame {idx}: replayed downlink frame differs from log")
    if answers:
        mismatches.append(f"{len(answers)} replayed downlink frames missing from log")
    return mismatches
