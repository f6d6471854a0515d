"""Workload inputs, session runners, output checks and the untraced timed loop.

Every input is generated here from the workload seed; the program only
receives the generated worlds, configs and prompts through its public
entry points (``toy_world``, ``ProtocolConfig``, ``make_streams``,
``run_session``, ``serve_cloud_once``, ``run_edge_socket``,
``one_step_protocol_law``), so the same benchmark code can time a parent
commit and a child commit that refactors everything behind them.
"""

from __future__ import annotations

import hashlib
import math
import resource
import socket
import statistics
import struct
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

WORKLOADS = ("single_step", "toy_session", "long_prompt", "wire_socket")

# Carrier-phrase prompts of the toy world ("<pronoun> <carrier> the").
PRONOUNS = ("we", "they", "she", "he", "i")
CARRIERS = ("ordered", "carried", "visited", "shared", "watched", "finished", "bought", "tried")
CARRIER_LEN = 3  # tokens in "<pronoun> <carrier> the"
LAMBDAS = (0.1, 0.5, 1.0)
TOY_MAX_LEN = 64
LONG_NEW_TOKENS = 64

# Sessions of one single_step triple run back to back before the loop
# moves to the next triple; each triple keeps one shared stream set, as in
# acceptance criterion 1.
SINGLE_STEP_BLOCK = 64
# Failure probability allowed per triple by the single-step law check.
LAW_DELTA = 1e-6

SOCKET_TIMEOUT_S = 30.0
# Warm-up sessions of long_prompt (each costs ~100 toy rounds) and extra
# socket sessions in wire_socket's warm-up.
LONG_WARMUP = 8
SOCKET_WARMUP = 8
# Socket sessions start at most this often.  Each session leaves one
# TIME_WAIT socket for 60 s; back to back (~400/s) they fill the ephemeral
# port range and connect/bind slow down by 2x or more depending on how many
# sessions earlier runs left behind, so the pace keeps them under ~9000.
SOCKET_PACE_S = 0.007

# The timed phase runs every session REPEATS times, SPREAD sessions apart,
# and keeps its fastest run.  A session that the host stalled (a core taken
# away for a few ms) then does not set the figures; see perfbench/README.md.
REPEATS = 3
SPREAD = 32


class BenchError(Exception):
    """A session or check that the benchmark counts as failed."""


@dataclass(frozen=True)
class Sizes:
    """How much work one run does; the command line always uses ``FULL``."""

    min_runs: int = 1000       # timed-run floor: p90 keeps >= 10 sessions beyond it
    pool: int = 2048           # distinct session specs per pool workload
    setup_repeats: int = 5     # set-up runs per benchmark run; setup_s is their median
    warmup: int = 32           # warm-up sessions per set-up
    triples: int = 64          # single_step table triples
    prompt_len: int = 4096     # long_prompt prompt length
    long_prompts: int = 8      # distinct long prompt bodies
    min_traced: int = 20       # session floor of each traced phase
    digest_sessions: int = 256  # sessions covered by the output digest and the counts


FULL = Sizes()


@dataclass
class Spec:
    """One session's inputs."""

    cfg: object
    models: tuple  # (llm, slm_plus, slm_minus)
    vocab: object
    prompt: tuple
    streams: object = None        # shared stream set (single_step) or None
    twin_streams: object = None   # lockstep copy used by the traced run
    fresh_streams: Callable | None = None  # rebuilds the shared set from its start


@dataclass
class Env:
    """A set-up workload: its inputs plus per-run check state."""

    name: str
    pool: list
    block: int = 1
    laws: list = field(default_factory=list)   # single_step: exact first-token law per triple
    world_s: float = 0.0
    inputs_s: float = 0.0
    warmup_s: float = 0.0

    def spec(self, i: int) -> Spec:
        return self.pool[(i // self.block) % len(self.pool)]

    def spec_index(self, i: int) -> int:
        return (i // self.block) % len(self.pool)


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def workload_rng(name: str, seed: int) -> np.random.Generator:
    # wire_socket runs toy_session's inputs, so both draw from one stream.
    key = "toy_session" if name == "wire_socket" else name
    return np.random.default_rng([WORKLOADS.index(key), seed])


def _session_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**63))


def single_step_triples(sp, rng: np.random.Generator, sizes: Sizes) -> tuple[list, list]:
    """Random TableModel triples over vocabularies of 3-10 tokens, in the
    shape of acceptance criterion 1: K=1, max_len=2, top_k=v, prompt (0,)."""
    pool, laws = [], []
    for _ in range(sizes.triples):
        v = int(rng.integers(3, 11))
        vocab = sp.Vocabulary(tokens=tuple(f"t{i}" for i in range(v - 1)) + ("</s>",), eos_id=v - 1)
        llm, plus, minus = (sp.TableModel(vocab, {(): rng.dirichlet(np.ones(v))}) for _ in range(3))
        lam = float(np.exp(rng.uniform(np.log(0.3), np.log(2.0))))
        cfg = sp.ProtocolConfig(lam=lam, beta=1.0, horizon_k=1, top_k=v, max_len=2,
                                seed=_session_seed(rng))
        laws.append(sp.one_step_protocol_law(
            llm.next_token_probs([0]), plus.next_token_probs([0]), minus.next_token_probs([0]),
            llm.next_token_logits([0]), plus.next_token_logits([0]), minus.next_token_logits([0]),
            lam, 1.0,
        ))
        seed = cfg.seed
        pool.append(Spec(
            cfg=cfg, models=(llm, plus, minus), vocab=vocab, prompt=(0,),
            streams=sp.make_streams(seed), twin_streams=sp.make_streams(seed),
            fresh_streams=lambda seed=seed: sp.make_streams(seed),
        ))
    return pool, laws


def toy_pool(sp, world, rng: np.random.Generator, sizes: Sizes) -> list:
    """Carrier prompts, lambda drawn per session, stochastic decoding."""
    models = (world.llm, world.slm_plus, world.slm_minus)
    pool = []
    for _ in range(sizes.pool):
        words = carrier_words(rng)
        cfg = sp.ProtocolConfig(lam=LAMBDAS[rng.integers(len(LAMBDAS))], beta=1.0, horizon_k=4,
                                top_k=32, max_len=TOY_MAX_LEN, seed=_session_seed(rng))
        pool.append(Spec(cfg=cfg, models=models, vocab=world.vocab,
                         prompt=tuple(world.vocab.ids_of(words))))
    return pool


def carrier_words(rng: np.random.Generator) -> list[str]:
    return [PRONOUNS[rng.integers(len(PRONOUNS))], CARRIERS[rng.integers(len(CARRIERS))], "the"]


def long_prompt_body(world, rng: np.random.Generator, length: int) -> tuple:
    """In-distribution history with no eos: sentences sampled from the
    generalist model, concatenated with their eos dropped."""
    eos = world.vocab.eos_id
    out: list[int] = []
    sentence: list[int] = []
    while len(out) < length:
        # Eight tokens of context cover any n-gram order the toy world uses.
        cdf = np.cumsum(world.llm.next_token_probs(sentence[-8:]))
        tok = min(int(np.searchsorted(cdf, rng.random(), side="right")), len(cdf) - 1)
        if tok == eos:
            sentence = []
            continue
        sentence.append(tok)
        out.append(tok)
    return tuple(out)


def long_pool(sp, world, rng: np.random.Generator, sizes: Sizes) -> list:
    """Each prompt is one of ``sizes.long_prompts`` long bodies followed by a
    carrier phrase drawn per session, so continuations behave as in
    toy_session.  The phrase sets how a session goes (acceptance, recovery,
    length), so drawing it per session keeps a run's mix of sessions close
    to the workload's; bodies only set the history length."""
    bodies = [long_prompt_body(world, rng, sizes.prompt_len - CARRIER_LEN)
              for _ in range(sizes.long_prompts)]
    models = (world.llm, world.slm_plus, world.slm_minus)
    prompts: dict = {}  # one tuple per (body, phrase), shared by the specs that use it
    pool = []
    for _ in range(sizes.pool):
        key = (int(rng.integers(len(bodies))), *world.vocab.ids_of(carrier_words(rng)))
        prompt = prompts.get(key)
        if prompt is None:
            prompt = prompts[key] = bodies[key[0]] + key[1:]
        cfg = sp.ProtocolConfig(lam=LAMBDAS[rng.integers(len(LAMBDAS))], beta=1.0, horizon_k=4,
                                top_k=32, max_len=len(prompt) + LONG_NEW_TOKENS,
                                seed=_session_seed(rng))
        pool.append(Spec(cfg=cfg, models=models, vocab=world.vocab, prompt=prompt))
    return pool


# ---------------------------------------------------------------------------
# Session runners (untraced: public entry points only)
# ---------------------------------------------------------------------------


def inprocess_traces(sp, spec: Spec, streams=None) -> tuple[list, list]:
    """``run_session`` on one spec; ``streams`` only for a shared stream set."""
    llm, plus, minus = spec.models
    kw = {} if streams is None else {"streams": streams}
    return sp.run_session(spec.cfg, llm, plus, minus, spec.vocab, spec.prompt, **kw)


def inprocess_session(sp, spec: Spec, streams=None) -> tuple[list, int]:
    committed, traces = inprocess_traces(sp, spec, streams)
    return committed, len(traces)


class Pacer:
    """Sleeps so that successive ``wait`` calls are at least ``interval_s`` apart."""

    def __init__(self, interval_s: float) -> None:
        self.interval_ns = int(interval_s * 1e9)
        self._next = 0

    def wait(self) -> None:
        now = time.perf_counter_ns()
        if now < self._next:
            time.sleep((self._next - now) / 1e9)
            now = time.perf_counter_ns()
        self._next = now + self.interval_ns


def unblock_accept(address) -> None:
    """Connect once so a server still waiting in accept() returns."""
    try:
        socket.create_connection(address, timeout=1.0).close()
    except OSError:
        pass


def socket_session(sp, spec: Spec) -> tuple[list, int]:
    """One session over loopback: serve_cloud_once on a thread, the edge on
    the calling thread, one connection including connect and handshake."""
    llm, plus, minus = spec.models
    ready = threading.Event()
    bound: list = []
    errors: list = []

    def serve() -> None:
        try:
            sp.serve_cloud_once(("127.0.0.1", 0), llm, minus, spec.vocab, ready=ready, bound=bound)
        except Exception as exc:  # surfaced to the edge side below
            errors.append(exc)
            ready.set()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    if not ready.wait(SOCKET_TIMEOUT_S) or not bound:
        thread.join(SOCKET_TIMEOUT_S)
        raise BenchError(f"cloud did not start: {errors[:1]}")
    try:
        committed, stats = sp.run_edge_socket(spec.cfg, bound[0], plus, spec.vocab, spec.prompt)
    except Exception:
        unblock_accept(bound[0])
        raise
    finally:
        thread.join(SOCKET_TIMEOUT_S)
    if thread.is_alive():
        raise BenchError("cloud thread did not finish")
    if errors:
        raise errors[0]
    return committed, stats.rounds


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


def build(sp, name: str, seed: int, sizes: Sizes) -> Env:
    """World build, input generation and the cache warm-up pass."""
    rng = workload_rng(name, seed)
    t0 = time.perf_counter()
    laws: list = []
    if name == "single_step":
        # The table triples are this workload's world and its inputs.
        pool, laws = single_step_triples(sp, rng, sizes)
        t1 = t2 = time.perf_counter()
    else:
        world = sp.toy_world()
        t1 = time.perf_counter()
        pool = (long_pool if name == "long_prompt" else toy_pool)(sp, world, rng, sizes)
        t2 = time.perf_counter()
    env = Env(name=name, pool=pool, block=SINGLE_STEP_BLOCK if name == "single_step" else 1,
              laws=laws)
    # Warm-up uses its own streams, so the timed phase starts every shared
    # stream set from the beginning.
    warmup = {"single_step": sizes.warmup * SINGLE_STEP_BLOCK, "long_prompt": LONG_WARMUP}
    for i in range(warmup.get(name, sizes.warmup)):
        spec = env.spec(i)
        inprocess_session(sp, spec, spec.fresh_streams() if spec.fresh_streams else None)
    if name == "wire_socket":
        for i in range(SOCKET_WARMUP):
            socket_session(sp, env.spec(i))
    t3 = time.perf_counter()
    env.world_s, env.inputs_s, env.warmup_s = t1 - t0, t2 - t1, t3 - t2
    return env


def setup(sp, name: str, seed: int, sizes: Sizes) -> tuple[Env, dict]:
    """Set up ``sizes.setup_repeats`` times; keep the last, report medians.

    Only one set-up is alive at a time, so peak memory is that of one."""
    parts = []
    for _ in range(sizes.setup_repeats):
        env = None  # frees the previous set-up before the next is built
        env = build(sp, name, seed, sizes)
        parts.append((env.world_s, env.inputs_s, env.warmup_s))
    times = {
        "setup_s": statistics.median(sum(p) for p in parts),
        "world_s": statistics.median(p[0] for p in parts),
        "warmup_s": statistics.median(p[2] for p in parts),
    }
    return env, times


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def check_output(sp, spec: Spec, committed) -> None:
    """The committed sequence keeps the prompt, passes validate_sequence and
    ends at eos or max_len."""
    n = len(spec.prompt)
    if len(committed) <= n or tuple(committed[:n]) != spec.prompt:
        raise BenchError("committed sequence does not extend the prompt")
    try:
        sp.core.validate_sequence(committed, spec.vocab, spec.cfg.max_len)
    except sp.SpecSteerError as exc:
        raise BenchError(f"invalid committed sequence: {exc}") from None
    if committed[-1] != spec.vocab.eos_id and len(committed) != spec.cfg.max_len:
        raise BenchError("session stopped before eos and max_len")


def law_tolerance(n: int, v: int, delta: float = LAW_DELTA) -> float:
    """TV bound that an empirical law of n i.i.d. draws over v outcomes
    exceeds with probability at most delta: E||p^ - p||_1 <= sqrt(v/n), and
    McDiarmid adds sqrt(2 ln(1/delta) / n)."""
    return 0.5 * (math.sqrt(v / n) + math.sqrt(2.0 * math.log(1.0 / delta) / n))


def law_check(counts: np.ndarray, law: np.ndarray) -> tuple[float, float]:
    """(total variation to the exact law, tolerance at this sample size)."""
    n = int(counts.sum())
    tv = 0.5 * float(np.abs(counts / n - law).sum())
    return tv, law_tolerance(n, len(law))


class Digest:
    """SHA-256 over the first ``limit`` committed sequences, in session
    order, so two commits can be compared for bit-identical output."""

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.count = 0
        self._h = hashlib.sha256()

    def add(self, committed) -> None:
        if self.count < self.limit:
            self._h.update(struct.pack(f"<I{len(committed)}I", len(committed), *committed))
            self.count += 1

    def hexdigest(self) -> str:
        return self._h.hexdigest()


class Checker:
    """Per-session checks plus the end-of-run checks of one workload."""

    def __init__(self, sp, env: Env, digest_limit: int) -> None:
        self.sp = sp
        self.env = env
        self.digest = Digest(digest_limit)
        self.counts = [np.zeros(len(law)) for law in env.laws]
        self.outputs: dict[int, int] = {}  # wire_socket: spec index -> output hash
        self.passed: dict[int, int] = {}   # wire_socket: spec index -> sessions checked
        self.errors: list[str] = []

    def session(self, i: int, committed) -> None:
        """Raises BenchError when the output of session i is wrong."""
        spec = self.env.spec(i)
        check_output(self.sp, spec, committed)
        self.digest.add(committed)
        if self.counts:
            self.counts[self.env.spec_index(i)][committed[1]] += 1
        if self.env.name == "wire_socket":
            key = hash(tuple(committed))
            idx = self.env.spec_index(i)
            if self.outputs.setdefault(idx, key) != key:
                raise BenchError("socket output differs between repeats of one spec")
            self.passed[idx] = self.passed.get(idx, 0) + 1

    def finish(self) -> int:
        """End-of-run checks; returns how many checked sessions they fail."""
        failed = 0
        for t, (counts, law) in enumerate(zip(self.counts, self.env.laws)):
            if counts.sum() == 0:
                continue
            tv, tol = law_check(counts, law)
            if tv >= tol:
                failed += int(counts.sum())
                self.errors.append(f"triple {t}: first-token TV {tv:.4f} >= tolerance {tol:.4f}")
        if self.outputs:
            wrong = set()
            for idx, key in self.outputs.items():
                ref, _ = inprocess_session(self.sp, self.env.pool[idx])
                if hash(tuple(ref)) != key:
                    wrong.add(idx)
            if wrong:
                failed += sum(self.passed[idx] for idx in wrong)
                self.errors.append(f"{len(wrong)} specs: socket output != in-process run_session")
        return failed


# ---------------------------------------------------------------------------
# Untraced timed phase
# ---------------------------------------------------------------------------


@dataclass
class Timed:
    session_us: np.ndarray  # per timed session: its fastest run
    rounds: np.ndarray      # per timed session, of its fastest run
    tokens: np.ndarray      # per timed session, of its fastest run: emitted tokens
    raw_us: np.ndarray      # every successful run
    peak_rss_kb: int        # read as the timed phase ends, before any post-processing
    attempted: int          # runs
    failed: int             # runs
    errors: list
    digest: str
    digest_count: int


def _note(errors: list, exc: BaseException) -> None:
    if len(errors) < 5:
        errors.append(f"{type(exc).__name__}: {exc}")


# Sample buffers are allocated and touched before timing, sized for this
# many runs per second, so the benchmark's own memory does not grow with
# the program's speed and peak_rss_mb measures the program.
MAX_RUNS_PER_S = {"single_step": 200_000}
DEFAULT_MAX_RUNS_PER_S = 20_000


def timed_run(sp, env: Env, seconds: float, sizes: Sizes) -> Timed:
    """Closed loop, one client: runs back to back (socket runs paced by
    ``SOCKET_PACE_S``), each timed on its own.  Sessions go in groups of
    ``SPREAD``; a group is run ``REPEATS`` times over, and each session
    keeps its fastest run.  Groups start until ``seconds`` have passed and
    ``sizes.min_runs`` runs are made; a started group finishes."""
    runner = socket_session if env.name == "wire_socket" else None
    pacer = Pacer(SOCKET_PACE_S if runner else 0.0)
    checker = Checker(sp, env, sizes.digest_sessions)
    rate = MAX_RUNS_PER_S.get(env.name, DEFAULT_MAX_RUNS_PER_S)
    groups = max(math.ceil(sizes.min_runs / (REPEATS * SPREAD)),
                 int(seconds * rate) // (REPEATS * SPREAD))
    cap = groups * SPREAD
    best_us = np.full(cap, np.inf, dtype=np.float32)
    rounds_of = np.full(cap, 0, dtype=np.uint16)
    tokens_of = np.full(cap, 0, dtype=np.uint16)
    raw_us = np.full(cap * REPEATS, 0, dtype=np.float32)
    ok = np.full(cap, True)
    n = runs = attempted = failed = 0
    errors: list = []
    clock = time.perf_counter_ns
    end = time.perf_counter() + seconds
    while (time.perf_counter() < end or attempted < sizes.min_runs) and n < cap:
        for _ in range(REPEATS):
            for slot in range(n, n + SPREAD):
                spec = env.spec(slot)
                pacer.wait()
                attempted += 1
                try:
                    t0 = clock()
                    if runner is None:
                        committed, rounds = inprocess_session(sp, spec, spec.streams)
                    else:
                        committed, rounds = runner(sp, spec)
                    dt = clock() - t0
                    checker.session(slot, committed)
                except Exception as exc:  # every failure is counted, the loop goes on
                    failed += 1
                    ok[slot] = False
                    _note(errors, exc)
                    continue
                us = dt / 1e3
                raw_us[runs] = us
                runs += 1
                if us < best_us[slot]:
                    best_us[slot] = us
                    rounds_of[slot] = rounds
                    tokens_of[slot] = len(committed) - len(spec.prompt)
        n += SPREAD
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if n == cap and time.perf_counter() < end:
        errors.append(f"note: sample buffer full after {n} sessions; phase ended early")
    late = checker.finish()
    keep = ok[:n]
    return Timed(
        session_us=best_us[:n][keep], rounds=rounds_of[:n][keep], tokens=tokens_of[:n][keep],
        raw_us=raw_us[:runs], peak_rss_kb=peak, attempted=attempted, failed=failed + late,
        errors=errors + checker.errors, digest=checker.digest.hexdigest(),
        digest_count=checker.digest.count,
    )
