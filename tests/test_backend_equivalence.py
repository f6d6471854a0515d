"""Backend equivalence by construction: a steering payload takes one form,
the cloud's packed binary32 entry section, in process and on the wire, so
``run_session``, the simulated channel and a socket commit the same ids
and record the same rounds.  Pinned here: a near-tie that float64 and
binary32 break differently, a beta whose steering values overflow
binary32, the one trace record on both sides, bad session starts (a
top_k past the vocabulary, prompts too long for max_len or for the
handshake, or holding ids that are not token ids), which every backend
refuses by the one intake before any frame is sent, a config at the
handshake's limits, which every backend runs alike, and two properties
over random table worlds, the first also over the golden trace pin's
backend subset (``tools/frame_digest.py``'s ``backend_cases()``)."""

from __future__ import annotations

import os
import socket
import tempfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from specsteer.core import (
    LOOP_IDS,
    U16_MAX,
    U32_MAX,
    ConfigError,
    ProtocolConfig,
    SequenceError,
    SpecSteerError,
)
from specsteer.models import TableModel
from specsteer.protocol import CloudVerifier, EdgeSession, ProtocolStateError, run_session
from specsteer.transport import (
    DIR_DOWN,
    FrameLog,
    HandshakeError,
    encode_done,
    run_edge_socket,
    run_simulated_session,
)

from conftest import load_tool, make_vocab, serving, socketpair_session

NEAR_TIE_LLM = [0.05, 0.45, 0.45 + 3e-10, 0.05 - 3e-10]
DRAFTER = [0.97, 0.01, 0.01, 0.01]


def four_token_triple(minus_row):
    vocab = make_vocab(4)
    return vocab, tuple(
        TableModel(vocab, {(): row}) for row in (NEAR_TIE_LLM, DRAFTER, minus_row)
    )


def test_near_tie_commits_the_same_ids_on_every_backend():
    # Ids 1 and 2 have steering values 7e-10 apart (relative): distinct in
    # float64, one value in binary32, where greedy recovery takes the lower
    # id.  Every backend recovers from the binary32 section.
    vocab, models = four_token_triple([0.25] * 4)
    cfg = ProtocolConfig(decode_mode="greedy", beta=0.0, lam=1.0, horizon_k=1, top_k=3,
                         max_len=2, seed=0)
    assert run_session(cfg, *models, vocab, [])[0] == [1, 1]
    assert run_simulated_session(cfg, *models, vocab, [])[0] == [1, 1]
    (committed, _), cloud_error = socketpair_session(cfg, models, vocab, [])
    assert committed == [1, 1] and cloud_error is None


def test_steering_overflow_ends_every_backend_in_the_same_error(tmp_path):
    # beta * h_minus is about 1e40, past the largest binary32: the cloud
    # refuses to pack the payload, in process and on the wire alike.
    vocab, models = four_token_triple([0.4, 0.2, 0.3, 0.1])
    cfg = ProtocolConfig(beta=1e40, lam=1.0, horizon_k=1, top_k=3, max_len=3, seed=0)
    errors = []
    for run in (run_session, run_simulated_session):
        with pytest.raises(ProtocolStateError, match="finite binary32") as info:
            run(cfg, *models, vocab, [])
        errors.append(info.value)
    assert type(errors[0]) is type(errors[1]) and str(errors[0]) == str(errors[1])
    # On the wire the refusal is the DONE of length 0, as for any error.
    path = str(tmp_path / "cloud.bin")
    with FrameLog(path) as log:
        edge_error, cloud_error = socketpair_session(cfg, models, vocab, [], log)
    assert isinstance(edge_error, HandshakeError)
    assert type(cloud_error) is ProtocolStateError and str(cloud_error) == str(errors[0])
    assert FrameLog.read(path)[-1] == (DIR_DOWN, encode_done(0, ()))


# Bad starts over four_token_triple's vocabulary (ids 0-2, eos 3): the id
# put at position n // 2 of an n-id prompt, the config's top_k, by how many
# ids the prompt passes max_len, the error and its message.  The length cap
# is checked before the ids, and top_k before the prompt.
BAD_STARTS = {
    "float": (1.5, 4, 0, SequenceError, "unknown token id 1.5 at position {pos}: not an integer"),
    "integral_float": (1.0, 4, 0, SequenceError,
                       "unknown token id 1.0 at position {pos}: not an integer"),
    "str": ("3", 4, 0, SequenceError, "unknown token id '3' at position {pos}: not an integer"),
    "negative": (-1, 4, 0, SequenceError,
                 "unknown token id -1 at position {pos}: out of range [0, 4)"),
    "out_of_range": (4, 4, 0, SequenceError,
                     "unknown token id 4 at position {pos}: out of range [0, 4)"),
    "eos_mid_prompt": (3, 4, 0, SequenceError, "token after eos at position {pos}"),
    "past_max_len": (1.5, 4, 1, SequenceError, "sequence length {n} exceeds cap {cap}"),
    "top_k_over_vocab": (3, 5, 0, ConfigError, "top_k 5 exceeds vocabulary size 4"),
}


@pytest.fixture(scope="module")
def listener():
    server = socket.create_server(("127.0.0.1", 0))
    server.setblocking(False)
    yield server
    server.close()


def every_start(cfg, models, vocab, prompt, listener):
    """Each entry point that starts a session, by name: in process, each
    message-form view, the simulated channel and a socket edge aimed at
    ``listener``."""
    llm, plus, minus = models
    return {
        "run_session": lambda: run_session(cfg, *models, vocab, prompt),
        "EdgeSession": lambda: EdgeSession(cfg, plus, vocab, prompt),
        "CloudVerifier": lambda: CloudVerifier(cfg, llm, minus, vocab, prompt),
        "run_simulated_session": lambda: run_simulated_session(cfg, *models, vocab, prompt),
        "run_edge_socket": lambda: run_edge_socket(
            cfg, listener.getsockname(), plus, vocab, prompt, timeout=5),
    }


def assert_every_start_refuses(starts, listener, error, message):
    for name, start in starts.items():
        with pytest.raises(SpecSteerError) as info:
            start()
        assert (name, type(info.value), str(info.value)) == (name, error, message)
    with pytest.raises(BlockingIOError):
        listener.accept()


@pytest.mark.parametrize("n", [3, LOOP_IDS + 24], ids=["short", "long"])
@pytest.mark.parametrize("case", BAD_STARTS)
def test_every_start_refuses_alike(case, n, listener):
    # The one intake, SessionRecord.start, refuses a bad start in process,
    # in each message-form view, over the simulated channel and at a socket
    # edge, which makes no connection: a listening cloud finds none waiting.
    bad, top_k, over, error, message = BAD_STARTS[case]
    vocab, models = four_token_triple([0.25] * 4)
    pos, cap = n // 2, n - over
    prompt = [i % 3 for i in range(n)]
    prompt[pos] = bad
    cfg = ProtocolConfig(top_k=top_k, max_len=cap, seed=5)
    starts = every_start(cfg, models, vocab, prompt, listener)
    assert_every_start_refuses(starts, listener, error, message.format(pos=pos, n=n, cap=cap))


def test_every_start_refuses_a_prompt_too_long_for_the_handshake(listener):
    # A HELLO counts the prompt's ids in a u16, so the one intake refuses a
    # longer prompt on every backend, in process too, though max_len and
    # the ids would allow it.
    vocab, models = four_token_triple([0.25] * 4)
    prompt = [0] * (U16_MAX + 1)
    cfg = ProtocolConfig(top_k=3, max_len=70010, seed=5)
    starts = every_start(cfg, models, vocab, prompt, listener)
    assert_every_start_refuses(starts, listener, SequenceError,
                               "prompt of 65536 ids exceeds the handshake's limit of 65535")


def test_config_at_the_handshake_limits_runs_alike():
    # The widest config and the longest prompt a HELLO carries commit the
    # same ids in process, over the simulated channel and over a socket.
    vocab, models = four_token_triple([0.25] * 4)
    llm, plus, minus = models
    cfg = ProtocolConfig(horizon_k=U16_MAX, top_k=3, max_len=U32_MAX, seed=2**64 - 1)
    prompt = [i % 3 for i in range(U16_MAX)]
    committed, _ = run_session(cfg, *models, vocab, prompt)
    assert len(committed) > U16_MAX
    assert run_simulated_session(cfg, *models, vocab, prompt)[0] == committed
    thread, errors, stats, address = serving(llm, minus, vocab)
    assert run_edge_socket(cfg, address, plus, vocab, prompt, timeout=5)[0] == committed
    thread.join(timeout=10)
    assert not thread.is_alive() and not errors and stats[0].mirror == committed


def test_edge_traces_equal_run_session_traces_but_for_alphas(world):
    prompt = world.vocab.ids_of(["we", "ordered", "the"])
    triple = (world.llm, world.slm_plus, world.slm_minus)
    rounds = recoveries = 0
    for seed, kw in enumerate([{}, {"lam": 0.1}, {"lam": 1.0, "decode_mode": "greedy"}]):
        cfg = ProtocolConfig(max_len=40, horizon_k=4, top_k=16, seed=seed, **kw)
        committed, traces = run_session(cfg, *triple, world.vocab, prompt)
        without_alphas = [replace(t, alphas=()) for t in traces]
        sim, edge_stats, cloud_stats = run_simulated_session(cfg, *triple, world.vocab, prompt)
        (sock, sock_stats), _ = socketpair_session(cfg, triple, world.vocab, prompt)
        assert sim == sock == committed
        assert edge_stats.traces == sock_stats.traces == without_alphas
        # The cloud's own traces carry the alphas, and learn each recovered
        # token from the next draft's delta or the DONE's trailing id.
        assert cloud_stats.traces == traces
        assert all(t.alphas for t in traces)
        rounds += len(traces)
        recoveries += sum(t.recovery_token is not None for t in traces)
    assert 0 < recoveries < rounds


# ---------------------------------------------------------------------------
# Property: run_session equals the simulated channel and a socket on random
# table worlds
# ---------------------------------------------------------------------------


def table_row(rng: np.random.Generator, kind: str, v: int) -> np.ndarray:
    """A distribution over v ids: dense, sparse (zeros read as the
    probability floor), or dense with a near-tie at the top, below binary32
    resolution.  The higher id of the tie is the larger in float64 and
    the two are equal in binary32, so a greedy recovery at beta 0 that
    read float64 values would pick another id than one that reads the
    binary32 section."""
    weights = rng.uniform(0.01, 1.0, v)
    if kind == "sparse":
        weights[rng.random(v) < 0.6] = 0.0
        weights[rng.integers(v)] = 1.0
    elif kind == "near_tie" and v > 1:
        top = weights.max()
        lo, hi = sorted(rng.choice(v, 2, replace=False))
        weights[lo] = top
        weights[hi] = top * (1 + rng.choice([3e-10, 1e-9]))
    return weights / weights.sum()


ROW_KINDS = st.sampled_from(["near_tie", "dense", "sparse"])


@st.composite
def table_model(draw, vocab) -> TableModel:
    """A model of window 0, 1 or 2, with rows for some windows of each
    length up to it.  Hypothesis draws the shape, numpy the weights."""
    v = vocab.size
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    window = draw(st.integers(0, 2))
    rows = {(): table_row(rng, draw(ROW_KINDS), v)}
    for n in range(1, window + 1):
        keys = draw(st.lists(st.tuples(*[st.integers(0, v - 1)] * n), min_size=1, max_size=4))
        rows.update({k: table_row(rng, draw(ROW_KINDS), v) for k in keys})
    return TableModel(vocab, rows)


@st.composite
def table_session(draw):
    v = draw(st.integers(2, 40), label="vocab")
    vocab = make_vocab(v)
    models = tuple(draw(table_model(vocab)) for _ in range(3))
    # Drawn so that the simplest examples reject often (a large lambda)
    # and send every entry (top_k = V), where near-ties reach a recovery.
    cfg = ProtocolConfig(
        lam=draw(st.sampled_from([1.5, 1.0, 0.8, 0.3])),
        beta=draw(st.sampled_from([0.0, 0.5, 1.0, 2.0])),
        horizon_k=draw(st.integers(1, 6)),
        top_k=v - draw(st.integers(0, v - 1)),
        max_len=draw(st.integers(2, 16)),
        decode_mode=draw(st.sampled_from(["greedy", "stochastic"])),
        seed=draw(st.integers(0, 2**64 - 1)),
    )
    # Non-eos ids only, so the prompt never ends the session.
    prompt = draw(st.lists(st.integers(0, v - 2), max_size=2))
    return cfg, models, vocab, prompt


def with_backend_cases(test):
    """``test`` with each session of the golden trace pin's backend subset,
    toy-world grid sessions among them, as an explicit example."""
    for c in load_tool("frame_digest").backend_cases():
        test = example(case=(c.config, c.models, c.vocab, c.prompt))(test)
    return test


@with_backend_cases
@settings(max_examples=150, deadline=None)
@given(case=table_session())
def test_run_session_equals_simulated_channel(case):
    # And a socket: the same ids and traces, and the frames each end logs,
    # the verdicts among them, equal to the simulated channel's bit for bit.
    cfg, models, vocab, prompt = case
    committed, traces = run_session(cfg, *models, vocab, prompt)
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, name) for name in ("sim_e", "sim_c", "sock_e", "sock_c")]
        with FrameLog(paths[0]) as el, FrameLog(paths[1]) as cl:
            sim, edge_stats, cloud_stats = run_simulated_session(
                cfg, *models, vocab, prompt, edge_log=el, cloud_log=cl)
        sock_cloud = []
        with FrameLog(paths[2]) as el, FrameLog(paths[3]) as cl:
            (sock, sock_stats), cloud_error = socketpair_session(
                cfg, models, vocab, prompt, cl, sock_cloud, el)
        sim_logs, sock_logs = [[FrameLog.read(p) for p in pair] for pair in (paths[:2], paths[2:])]
        assert sock_logs == sim_logs
    assert sim == sock == committed and cloud_error is None
    assert cloud_stats.traces == sock_cloud[0].traces == traces
    assert edge_stats.traces == sock_stats.traces == [replace(t, alphas=()) for t in traces]


# ---------------------------------------------------------------------------
# Property: both backends refuse the same prompts, by the same typed error
# ---------------------------------------------------------------------------


def prompt_element(v: int):
    """Anything a caller might put in a prompt over a vocabulary of v ids:
    ids (ints, bools, NumPy integers) and non-ids (floats, integral or
    not, strings, None, negative values and values of v or more)."""
    return st.one_of(
        st.integers(0, v - 2),
        st.booleans(),
        st.integers(0, v - 1).map(np.int64),
        st.integers(-2, v + 2).map(float),
        st.floats(-2, v + 2).filter(lambda x: not x.is_integer()),
        st.sampled_from(["0", "1", "t0", ""]),
        st.none(),
        st.integers(max_value=-1),
        st.integers(min_value=v),
    )


@settings(max_examples=150, deadline=None)
@given(case=table_session(), data=st.data())
def test_backends_refuse_the_same_prompts(case, data):
    cfg, models, vocab, _ = case
    prompt = data.draw(st.lists(prompt_element(vocab.size), max_size=3), label="prompt")
    outcomes = []
    for run in (run_session, run_simulated_session):
        try:
            out = run(cfg, *models, vocab, prompt)
        except SpecSteerError as exc:
            outcomes.append(type(exc))
        else:
            # The cloud's traces, which run_session's equal.
            outcomes.append((out[0], out[-1].traces if run is run_simulated_session else out[1]))
    assert outcomes[0] == outcomes[1]
