"""The traced run: per-layer spans recorded from the benchmark's own code.

Nothing inside the program is instrumented.  Spans come from wrappers
passed into public functions (model proxies, timed socket endpoints) and
from a small loop over the public ``EdgeSession``/``CloudVerifier``
state machines that splits a round into draft, verify and apply.  Every
traced output is checked against the untraced one.

Spans live in memory as parallel arrays (name, start, end, parent,
session) and are written out as one ``.npz`` file when the run ends.
"""

from __future__ import annotations

import dataclasses
import socket
import struct
import threading
import time
from array import array
from pathlib import Path

import numpy as np

from workloads import (
    SOCKET_PACE_S,
    SOCKET_TIMEOUT_S,
    BenchError,
    Digest,
    Env,
    Pacer,
    Sizes,
    check_output,
    inprocess_session,
    inprocess_traces,
    socket_session,
    unblock_accept,
)

NAMES = (
    "session",
    "protocol.setup", "protocol.draft", "protocol.verify", "protocol.apply",
    "models.llm", "models.slm_minus", "models.slm_plus",
    "transport.connect", "transport.edge_send", "transport.edge_recv",
    "transport.cloud_session", "transport.cloud_recv", "transport.cloud_send",
    "transport.cloud_busy",
)
(SESSION, P_SETUP, P_DRAFT, P_VERIFY, P_APPLY, M_LLM, M_MINUS, M_PLUS,
 T_CONNECT, T_EDGE_SEND, T_EDGE_RECV, T_CLOUD_SESSION, T_CLOUD_RECV, T_CLOUD_SEND,
 T_CLOUD_BUSY) = range(len(NAMES))

# Frame layout fixed by the wire protocol: 10-byte header with the message
# type at offset 5; a draft's count is a u16 at 14; a verdict's recovery
# flag is the byte at 16 and its entry count a u16 at 17.
HEADER_BYTES = 10
TYPE_OFFSET = 5
DRAFT_COUNT_OFFSET = 14
VERDICT_FLAG_OFFSET = 16
VERDICT_FIXED_BYTES = HEADER_BYTES + 7
ENTRY_BYTES = 8

CODEC_FRAMES = 4096       # rounds of real frames kept for codec timing
CODEC_MIN_NS = 50_000_000  # re-time the kept frames for at least this long

# Share of --seconds given to the workload's own path; the rest is split
# between the other path (socket or in-process) and the simulated channel.
PRIMARY_SHARE = 0.7


class Tracer:
    """Span recorder for one thread."""

    def __init__(self) -> None:
        self.name = array("B")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.session = array("q")
        self._stack: list[int] = []
        self._sid = -1

    def begin(self, sid: int) -> None:
        self._sid = sid
        self._stack.clear()

    def open(self, name: int) -> int:
        idx = len(self.name)
        self.name.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.session.append(self._sid)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        stack = self._stack
        while stack and stack.pop() != idx:
            pass

    def totals(self) -> dict:
        """name -> (count, summed duration ns, summed self time ns), plus
        the summed duration of spans whose parent is a session span."""
        names = np.frombuffer(self.name, dtype=np.uint8)
        if names.size == 0:
            return {"_session_children": 0}
        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.where(end > 0, end - start, 0).astype(np.float64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=names.size)
        self_ns = dur - child
        out = {}
        for n in range(len(NAMES)):
            m = names == n
            if m.any():
                out[n] = (int(m.sum()), float(dur[m].sum()), float(self_ns[m].sum()))
        under_session = has_parent.copy()
        under_session[has_parent] = names[parent[has_parent]] == SESSION
        out["_session_children"] = float(dur[under_session].sum())
        return out


class ModelProxy:
    """Duck-typed model wrapper timing ``next_token_{probs,logits,cdf}``.

    ``next_token_cdf`` exists only when the wrapped model has it, because
    the edge samples through it when present."""

    def __init__(self, model, tracer: Tracer, name: int) -> None:
        self._m = model
        self._tr = tracer
        self._n = name
        self.vocab = model.vocab
        if hasattr(model, "next_token_cdf"):
            self.next_token_cdf = self._cdf

    def _call(self, fn, history):
        i = self._tr.open(self._n)
        try:
            return fn(history)
        finally:
            self._tr.close(i)

    def next_token_probs(self, history):
        return self._call(self._m.next_token_probs, history)

    def next_token_logits(self, history):
        return self._call(self._m.next_token_logits, history)

    def _cdf(self, history):
        return self._call(self._m.next_token_cdf, history)

    def __getattr__(self, attr):
        if attr == "next_token_cdf":
            raise AttributeError(attr)
        return getattr(self._m, attr)


def proxies(models: tuple, tracer: Tracer) -> tuple:
    llm, plus, minus = models
    return ModelProxy(llm, tracer, M_LLM), ModelProxy(plus, tracer, M_PLUS), ModelProxy(minus, tracer, M_MINUS)


class WireStats:
    """Frames seen by the edge: bytes per round, the uplink size law, and
    the first ``CODEC_FRAMES`` rounds of frames for codec timing."""

    def __init__(self, msg_draft: int, msg_verdict: int) -> None:
        self.msg_draft = msg_draft
        self.msg_verdict = msg_verdict
        self.up = self.down = self.rounds = self.bad_uplink = 0
        self.rounds_kept: list = []
        self._draft: tuple | None = None
        self._expect_delta = False

    def begin(self) -> None:
        self._draft = None
        self._expect_delta = False

    def sent(self, frame: bytes) -> None:
        if frame[TYPE_OFFSET] != self.msg_draft:
            return
        (k,) = struct.unpack_from("<H", frame, DRAFT_COUNT_OFFSET)
        if len(frame) != 16 + 4 * k + (4 if self._expect_delta else 0):
            self.bad_uplink += 1
        self.up += len(frame)
        self._draft = (frame, self._expect_delta)

    def received(self, frame: bytes) -> None:
        if frame[TYPE_OFFSET] != self.msg_verdict:
            return
        self.down += len(frame)
        self.rounds += 1
        self._expect_delta = frame[VERDICT_FLAG_OFFSET] == 1
        if self._draft is not None and len(self.rounds_kept) < CODEC_FRAMES:
            self.rounds_kept.append((*self._draft, frame))


class TimedEndpoint:
    """Wraps an endpoint handed to ``run_edge``/``run_cloud``: spans its
    send and recv calls; on the cloud, a busy span runs from a draft's
    arrival to the end of the verdict's send."""

    def __init__(self, inner, tracer: Tracer, edge: bool, wire: WireStats) -> None:
        self._inner = inner
        self._tr = tracer
        self._edge = edge
        self._wire = wire
        self._send = T_EDGE_SEND if edge else T_CLOUD_SEND
        self._recv = T_EDGE_RECV if edge else T_CLOUD_RECV
        self._busy = -1

    def send_frame(self, frame: bytes) -> None:
        i = self._tr.open(self._send)
        try:
            self._inner.send_frame(frame)
        finally:
            self._tr.close(i)
        if self._edge:
            self._wire.sent(frame)
        elif self._busy >= 0:
            self._tr.close(self._busy)
            self._busy = -1

    def recv_frame(self) -> bytes:
        i = self._tr.open(self._recv)
        try:
            frame = self._inner.recv_frame()
        finally:
            self._tr.close(i)
        if self._edge:
            self._wire.received(frame)
        elif frame[TYPE_OFFSET] == self._wire.msg_draft:
            self._busy = self._tr.open(T_CLOUD_BUSY)
        return frame

    def close(self) -> None:
        self._inner.close()

    def __getattr__(self, attr):
        return getattr(self._inner, attr)


# ---------------------------------------------------------------------------
# Traced session loops
# ---------------------------------------------------------------------------


def traced_inprocess(sp, tr: Tracer, spec, streams, models: tuple) -> tuple[list, int]:
    """``run_session``'s loop over the public state machines, with a span
    around set-up and around each draft, verify and apply call."""
    llm, plus, minus = models
    s = tr.open(SESSION)
    try:
        i = tr.open(P_SETUP)
        rngs = streams if streams is not None else sp.make_streams(spec.cfg.seed)
        edge = sp.EdgeSession(spec.cfg, plus, spec.vocab, spec.prompt, streams=rngs)
        cloud = sp.CloudVerifier(spec.cfg, llm, minus, spec.vocab, spec.prompt, streams=rngs)
        tr.close(i)
        rounds = 0
        while True:
            i = tr.open(P_DRAFT)
            batch = edge.next_draft()
            tr.close(i)
            if batch is None:
                break
            delta = edge.take_delta()
            i = tr.open(P_VERIFY)
            verdict = cloud.handle_draft(batch, delta)
            tr.close(i)
            i = tr.open(P_APPLY)
            edge.apply_verdict(verdict)
            tr.close(i)
            rounds += 1
        cloud.finish([edge.pending_delta] if edge.pending_delta is not None else [])
    finally:
        tr.close(s)
    return edge.committed, rounds


def traced_run_session(sp, tr: Tracer, spec, streams, models: tuple) -> tuple[list, int]:
    """Fallback when the state machines are unavailable: models only."""
    s = tr.open(SESSION)
    try:
        return inprocess_session(sp, dataclasses.replace(spec, models=models), streams)
    finally:
        tr.close(s)


def traced_socket(sp, edge_tr: Tracer, cloud_tr: Tracer, spec, wire: WireStats,
                  edge_models: tuple, cloud_models: tuple) -> tuple[list, int]:
    """``serve_cloud_once``/``run_edge_socket`` rebuilt around ``run_cloud``
    and ``run_edge`` so that both endpoints can be wrapped."""
    T = sp.transport
    llm, _, minus = cloud_models
    plus = edge_models[1]
    server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    errors: list = []

    def serve() -> None:
        s = cloud_tr.open(T_CLOUD_SESSION)
        try:
            conn, _ = server.accept()
            ep = TimedEndpoint(T.SocketEndpoint(conn), cloud_tr, False, wire)
            try:
                T.run_cloud(ep, llm, minus, spec.vocab)
            finally:
                ep.close()
        except Exception as exc:  # surfaced to the edge side below
            errors.append(exc)
        finally:
            cloud_tr.close(s)

    s = edge_tr.open(SESSION)
    try:
        server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        server.bind(("127.0.0.1", 0))
        server.listen(1)
        server.settimeout(SOCKET_TIMEOUT_S)
        address = server.getsockname()
        wire.begin()
        rounds_before = wire.rounds
        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        try:
            i = edge_tr.open(T_CONNECT)
            sock = socket.create_connection(address, timeout=SOCKET_TIMEOUT_S)
            edge_tr.close(i)
            ep = TimedEndpoint(T.SocketEndpoint(sock, timeout=SOCKET_TIMEOUT_S), edge_tr, True, wire)
            try:
                committed, _ = T.run_edge(spec.cfg, ep, plus, spec.vocab, spec.prompt)
            finally:
                ep.close()
        except Exception:
            unblock_accept(address)
            raise
        finally:
            thread.join(SOCKET_TIMEOUT_S)
    finally:
        server.close()
        edge_tr.close(s)
    if thread.is_alive():
        raise BenchError("cloud thread did not finish")
    if errors:
        raise errors[0]
    return committed, wire.rounds - rounds_before


def time_codec(T, rounds_kept: list) -> tuple[float, int]:
    """Re-encode check and timing of the public codec on real frames:
    (us per round, frames that did not re-encode bit-exactly)."""

    def roundtrip(draft: bytes, delta: bool, verdict: bytes) -> int:
        _, p = T.decode_frame(draft)
        batch, d = T.decode_draft(p, delta)
        _, q = T.decode_frame(verdict)
        return (T.encode_draft(batch, d) != draft) + (T.encode_verdict(T.decode_verdict(q)) != verdict)

    bad = sum(roundtrip(*r) for r in rounds_kept)
    if not rounds_kept:
        return 0.0, bad
    reps = elapsed = 0
    while elapsed < CODEC_MIN_NS:
        t0 = time.perf_counter_ns()
        for r in rounds_kept:
            roundtrip(*r)
        elapsed += time.perf_counter_ns() - t0
        reps += 1
    return elapsed / (reps * len(rounds_kept)) / 1e3, bad


# ---------------------------------------------------------------------------
# The traced run
# ---------------------------------------------------------------------------


def available_layers(sp) -> dict:
    T = getattr(sp, "transport", None)
    return {
        "protocol": all(hasattr(sp, n) for n in ("EdgeSession", "CloudVerifier")),
        "transport": T is not None and all(hasattr(T, n) for n in (
            "SocketEndpoint", "run_edge", "run_cloud", "MSG_DRAFT", "MSG_VERDICT",
            "decode_frame", "decode_draft", "encode_draft", "decode_verdict", "encode_verdict")),
        "sim": hasattr(sp, "run_simulated_session"),
    }


class Phase:
    """Spans and counters of one traced phase."""

    def __init__(self) -> None:
        self.edge = Tracer()
        self.cloud = Tracer()
        self.sessions = self.rounds = 0
        self.untraced_ns = self.traced_ns = 0
        self._proxies: dict = {}

    def models(self, models: tuple, cloud: bool = False) -> tuple:
        key = (id(models[0]), cloud)
        if key not in self._proxies:
            self._proxies[key] = proxies(models, self.cloud if cloud else self.edge)
        return self._proxies[key]


class TracedRun:
    def __init__(self, sp, env: Env, sizes: Sizes) -> None:
        self.sp = sp
        self.env = env
        self.sizes = sizes
        self.have = available_layers(sp)
        self.notes: list[str] = []
        self.errors: list[str] = []
        self.attempted = self.failed = 0
        self._refs: dict[int, tuple] = {}
        T = getattr(sp, "transport", None)
        self.wire = WireStats(getattr(T, "MSG_DRAFT", -1), getattr(T, "MSG_VERDICT", -1))
        self.pacer = Pacer(SOCKET_PACE_S)

    # -- helpers -----------------------------------------------------------

    def reference(self, i: int) -> tuple:
        """In-process run_session output of spec i with its own seed."""
        idx = self.env.spec_index(i)
        if idx not in self._refs:
            self._refs[idx] = tuple(inprocess_session(self.sp, self.env.pool[idx])[0])
        return self._refs[idx]

    def _unavailable(self, layer: str, exc: Exception) -> None:
        self.have[layer] = False
        self.notes.append(f"{layer} layer unavailable: {type(exc).__name__}: {exc}")

    def _inprocess(self, ph: Phase, i: int, spec, streams):
        ph.edge.begin(i)
        models = ph.models(spec.models)
        if self.have["protocol"]:
            try:
                return traced_inprocess(self.sp, ph.edge, spec, streams, models)
            except (AttributeError, TypeError) as exc:
                self._unavailable("protocol", exc)
                if streams is not None:  # the failed attempt consumed draws
                    raise BenchError("protocol layer vanished mid-session") from exc
        return traced_run_session(self.sp, ph.edge, spec, streams, models)

    def _socket(self, ph: Phase, i: int, spec):
        ph.edge.begin(i)
        ph.cloud.begin(i)
        if self.have["transport"]:
            bad = self.wire.bad_uplink
            try:
                out = traced_socket(self.sp, ph.edge, ph.cloud, spec, self.wire,
                                    ph.models(spec.models), ph.models(spec.models, cloud=True))
            except (AttributeError, TypeError) as exc:
                self._unavailable("transport", exc)
            else:
                if self.wire.bad_uplink != bad:
                    raise BenchError("uplink frame size is not 16 + 4K (+4 with a delta)")
                return out
        # Models still traced through the public socket entry points.
        s = ph.edge.open(SESSION)
        try:
            edge_models = ph.models(spec.models)
            cloud_models = ph.models(spec.models, cloud=True)
            models = (cloud_models[0], edge_models[1], cloud_models[2])
            return socket_session(self.sp, dataclasses.replace(spec, models=models))
        finally:
            ph.edge.close(s)

    def _loop(self, seconds: float, body) -> None:
        """Run body(i) for i = 0, 1, ... for ``seconds`` and at least
        ``sizes.min_traced`` times; body returns the sessions it ran."""
        i = 0
        end = time.perf_counter() + seconds
        while time.perf_counter() < end or i < self.sizes.min_traced:
            try:
                self.attempted += body(i)
            except Exception as exc:  # counted; the run goes on
                self.attempted += 1
                self.failed += 1
                if len(self.errors) < 5:
                    self.errors.append(f"{type(exc).__name__}: {exc}")
            i += 1

    def _same(self, spec, *outputs) -> None:
        check_output(self.sp, spec, outputs[0])
        if any(tuple(o) != tuple(outputs[0]) for o in outputs[1:]):
            raise BenchError("traced and untraced outputs differ")

    # -- phases ------------------------------------------------------------

    def primary_inprocess(self, ph: Phase, i: int) -> int:
        """Untraced run_session and the traced loop on one spec; shared
        stream sets advance in lockstep through their twin copies."""
        spec = self.env.spec(i)
        t0 = time.perf_counter_ns()
        c_u, r_u = inprocess_session(self.sp, spec, spec.streams)
        t1 = time.perf_counter_ns()
        c_t, r_t = self._inprocess(ph, i, spec, spec.twin_streams)
        t2 = time.perf_counter_ns()
        self._same(spec, c_u, c_t)
        ph.untraced_ns += t1 - t0
        ph.traced_ns += t2 - t1
        ph.sessions += 1
        ph.rounds += r_t
        return 2

    def primary_socket(self, ph: Phase, i: int) -> int:
        spec = self.env.spec(i)
        self.pacer.wait()
        t0 = time.perf_counter_ns()
        c_u, _ = socket_session(self.sp, spec)
        untraced = time.perf_counter_ns() - t0
        self.pacer.wait()
        t1 = time.perf_counter_ns()
        c_t, r_t = self._socket(ph, i, spec)
        t2 = time.perf_counter_ns()
        self._same(spec, c_u, c_t, self.reference(i))
        ph.untraced_ns += untraced
        ph.traced_ns += t2 - t1
        ph.sessions += 1
        ph.rounds += r_t
        return 2

    def side_inprocess(self, ph: Phase, i: int) -> int:
        spec = self.env.spec(i)
        c_t, r_t = self._inprocess(ph, i, spec, None)
        self._same(spec, c_t, self.reference(i))
        ph.sessions += 1
        ph.rounds += r_t
        return 1

    def side_socket(self, ph: Phase, i: int) -> int:
        spec = self.env.spec(i)
        self.pacer.wait()
        c_t, r_t = self._socket(ph, i, spec)
        self._same(spec, c_t, self.reference(i))
        ph.sessions += 1
        ph.rounds += r_t
        return 1

    def simulated(self, ph: Phase, i: int) -> int:
        """run_simulated_session against run_session on the same spec."""
        spec = self.env.spec(i)
        llm, plus, minus = spec.models
        t0 = time.perf_counter_ns()
        c_b, r_b = inprocess_session(self.sp, spec)
        t1 = time.perf_counter_ns()
        c_s, _, _ = self.sp.run_simulated_session(spec.cfg, llm, plus, minus, spec.vocab, spec.prompt)
        t2 = time.perf_counter_ns()
        self._same(spec, c_b, c_s)
        ph.untraced_ns += t1 - t0
        ph.traced_ns += t2 - t1
        ph.sessions += 1
        ph.rounds += r_b
        return 2

    # -- run ---------------------------------------------------------------

    def count_pass(self) -> tuple[dict, Digest]:
        """Deterministic protocol counts and the output digest, from
        run_session over the first ``sizes.digest_sessions`` sessions."""
        sp, env = self.sp, self.env
        digest = Digest(self.sizes.digest_sessions)
        fresh: dict[int, object] = {}
        traces: list = []
        for i in range(self.sizes.digest_sessions):
            spec = env.spec(i)
            streams = None
            if spec.fresh_streams is not None:
                streams = fresh.setdefault(env.spec_index(i), spec.fresh_streams())
            committed, t = inprocess_traces(sp, spec, streams)
            digest.add(committed)
            traces.extend(t)
        drafted = sum(len(t.drafted) for t in traces)
        recoveries = [t for t in traces if t.recovery_token is not None]
        entries = sum((t.downlink_bytes - VERDICT_FIXED_BYTES - 2) // ENTRY_BYTES for t in recoveries)
        counts = {
            "protocol.accept_ratio": sum(t.accepted_count for t in traces) / drafted,
            "protocol.recovery_ratio": len(recoveries) / len(traces),
            "protocol.draft_tokens_per_round": drafted / len(traces),
            "protocol.payload_entries_per_recovery": entries / len(recoveries) if recoveries else 0.0,
            "metrics.modeled_speedup": sp.speedup(traces, sp.LatencyModel()),
        }
        return counts, digest

    def run(self, seconds: float) -> dict:
        socket_primary = self.env.name == "wire_socket"
        primary, side, sim = Phase(), Phase(), Phase()
        side_s = sim_s = seconds * (1.0 - PRIMARY_SHARE) / 2
        if socket_primary:
            self._loop(seconds * PRIMARY_SHARE, lambda i: self.primary_socket(primary, i))
            self._loop(side_s, lambda i: self.side_inprocess(side, i))
        else:
            self._loop(seconds * PRIMARY_SHARE, lambda i: self.primary_inprocess(primary, i))
            if self.have["transport"]:
                self._loop(side_s, lambda i: self.side_socket(side, i))
        if self.have["sim"]:
            self._loop(sim_s, lambda i: self.simulated(sim, i))
        self.phases = {"primary": primary, "side": side, "sim": sim}
        return self.metrics(primary, side if socket_primary else primary,
                            primary if socket_primary else side, sim)

    def metrics(self, primary: Phase, inproc: Phase, sock: Phase, sim: Phase) -> dict:
        def per(total, n):
            return total / n if n else 0.0

        m: dict = {}
        pt = inproc.edge.totals()
        for key, name in (("protocol.draft_self_us", P_DRAFT), ("protocol.verify_self_us", P_VERIFY),
                          ("protocol.apply_self_us", P_APPLY)):
            m[key] = per(pt.get(name, (0, 0, 0))[2], inproc.rounds) / 1e3
        m["protocol.setup_us"] = per(pt.get(P_SETUP, (0, 0, 0))[1], inproc.sessions) / 1e3

        et, ct = primary.edge.totals(), primary.cloud.totals()
        for label, name in (("llm", M_LLM), ("slm_minus", M_MINUS), ("slm_plus", M_PLUS)):
            n, dur, _ = et.get(name, (0, 0, 0))
            cn, cdur, _ = ct.get(name, (0, 0, 0))
            m[f"models.{label}.calls_per_round"] = per(n + cn, primary.rounds)
            m[f"models.{label}.us_per_call"] = per(dur + cdur, n + cn) / 1e3

        st, sc = sock.edge.totals(), sock.cloud.totals()
        for key, name in (("transport.connect_us", T_CONNECT), ("transport.edge_send_us", T_EDGE_SEND),
                          ("transport.edge_recv_wait_us", T_EDGE_RECV)):
            n, dur, _ = st.get(name, (0, 0, 0))
            m[key] = per(dur, n) / 1e3
        m["transport.cloud_busy_us"] = per(sc.get(T_CLOUD_BUSY, (0, 0, 0))[1], self.wire.rounds) / 1e3
        codec_us = 0.0
        if self.have["transport"]:
            codec_us, bad = time_codec(self.sp.transport, self.wire.rounds_kept)
            if bad:
                self.failed += bad
                self.errors.append(f"{bad} frames did not re-encode bit-exactly")
        m["transport.codec_us_per_round"] = codec_us
        m["transport.up_bytes_per_round"] = per(self.wire.up, self.wire.rounds)
        m["transport.down_bytes_per_round"] = per(self.wire.down, self.wire.rounds)
        m["transport.sim_overhead_us_per_round"] = per(sim.traced_ns - sim.untraced_ns, sim.rounds) / 1e3

        m["trace.overhead_ratio"] = per(primary.traced_ns, primary.untraced_ns)
        session = et.get(SESSION, (0, 0, 0))[1]
        m["trace.unattributed_ratio"] = per(session - et["_session_children"], session)
        if not self.have["protocol"]:
            self.notes.append("protocol.* self times reported as 0")
        if not self.have["transport"]:
            self.notes.append("transport.* span metrics reported as 0")
        if not self.have["sim"]:
            self.notes.append("transport.sim_overhead_us_per_round reported as 0")
        return m

    def write_spans(self, path: Path, seed: int) -> int:
        """All spans of all phases, as parallel arrays; returns the count."""
        cols: dict[str, list] = {k: [] for k in ("name", "start", "end", "parent", "session", "tracer")}
        labels = []
        for pname, ph in self.phases.items():
            for side, tr in (("edge", ph.edge), ("cloud", ph.cloud)):
                labels.append(f"{pname}.{side}")
                cols["name"].append(np.frombuffer(tr.name, dtype=np.uint8))
                for k in ("start", "end", "parent", "session"):
                    cols[k].append(np.frombuffer(getattr(tr, k), dtype=np.int64))
                cols["tracer"].append(np.full(len(tr.name), len(labels) - 1, dtype=np.uint8))
        arrays = {k: np.concatenate(v) for k, v in cols.items()}
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, seed=seed, names=np.array(NAMES), tracers=np.array(labels), **arrays)
        return int(arrays["name"].size)

