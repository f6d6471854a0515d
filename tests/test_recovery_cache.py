"""Per-window recovery caches: the cloud's steering-payload cache and the
edge's recovery cache, both held by the session record of a model set,
which outlives a session.

A cached payload and a cached recovery must equal what an uncached
computation gives, bit for bit, so these tests pin both against a
reference kept here: the payload build, packed entry by entry as binary32,
and the recovery pick, written out as they were before any cache
existed.  They also pin that records of different model sets never share
entries, that every cache keeps to its bound, that each kind of session
start holds a record of its own, and that the record lookup neither keeps
a dropped model alive nor mistakes a new model for a dead one whose id it
reuses.
"""

from __future__ import annotations

import gc
import math
import struct
import weakref
from bisect import bisect_right
from dataclasses import replace
from itertools import accumulate
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from specsteer import models, protocol
from specsteer.core import ROLE_RECOVERY, ConfigError, ProtocolConfig, UniformStream
from specsteer.models import TableModel, model_rows
from specsteer.protocol import (
    CloudVerifier,
    EdgeSession,
    ProtocolStateError,
    SessionRecord,
    SparseSteeringPayload,
    Verdict,
    build_steering_payload,
    exact_partition_fn,
    pack_steering_entries,
    recover,
    run_session,
    session_record,
    unpack_steering_entries,
)
from specsteer.toydata import toy_world
from specsteer.transport import (
    decode_frame,
    decode_verdict,
    encode_verdict,
    run_simulated_session,
)

from conftest import EXACT_Z, exact_zt, make_vocab, split_mode

# ---------------------------------------------------------------------------
# Uncached reference
# ---------------------------------------------------------------------------


def reference_entries(h_llm, h_minus, beta, top_k):
    """The top-k steering entries, by a stable sort of the negated values."""
    values = h_llm - beta * h_minus
    order = np.argsort(-values, kind="stable")[: min(top_k, len(values))]
    return tuple(zip(order.tolist(), values[order].tolist()))


def reference_recover(entries, h_plus, beta, rng, greedy):
    """Recovery pick over ``entries`` completed with ``h_plus``."""
    ids = [i for i, _ in entries]
    scores = [v + beta * float(h_plus[i]) for i, v in entries]
    best = max(scores)
    if greedy:
        return min(i for i, s in zip(ids, scores) if s == best)
    weights = [math.exp(s - best) for s in scores]
    threshold = rng.random() * math.fsum(weights)
    j = bisect_right(list(accumulate(weights)), threshold)
    return ids[j] if j < len(ids) else ids[-1]


def bits(entries):
    """Entries with each value as its exact bit pattern (keeps -0.0)."""
    return [(i, float(v).hex()) for i, v in entries]


def packed(entries) -> bytes:
    """``entries`` packed one by one: a u32 id and a binary32 value each."""
    return b"".join(struct.pack("<If", i, v) for i, v in entries)


class TailModel:
    """Duck-typed model whose logits are a pure function of the last
    ``window`` ids of the history (all of it when shorter)."""

    def __init__(self, vocab_size: int, window: int, salt: int) -> None:
        self.window = window
        self._v = vocab_size
        self._salt = salt

    def next_token_logits(self, history):
        tail = list(history[-self.window:]) if self.window else []
        return np.random.default_rng([self._salt, len(tail), *tail]).normal(0.0, 4.0, self._v)


def wire_section(entries) -> bytes:
    """``entries`` as the edge gets them over the wire: packed by the
    cloud, then read back out of a verdict frame as a new bytes object."""
    frame = encode_verdict(Verdict(0, 0, pack_steering_entries(*zip(*entries))))
    return decode_verdict(decode_frame(frame)[1]).recovery


# ---------------------------------------------------------------------------
# (a) Cached values equal the direct and the reference computations
# ---------------------------------------------------------------------------

BETAS = (0.0, -0.0, 0.5, 1.0, 2.5)
BOUND = 3
# Histories are drawn from a few ids, so that windows repeat, and a
# cache that kept too short a tail would serve a wrong entry.


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_cached_payload_equals_direct_build(data):
    v = data.draw(st.integers(2, 9), label="vocab")
    llm = TailModel(v, data.draw(st.integers(0, 2)), 1)
    minus = TailModel(v, data.draw(st.integers(0, 2)), 2)
    top_k = data.draw(st.integers(1, v), label="top_k")
    calls = data.draw(st.lists(
        st.tuples(st.lists(st.integers(0, min(v - 1, 2)), max_size=3), st.sampled_from(BETAS)),
        min_size=1, max_size=40,
    ), label="calls")
    rec = SessionRecord(make_vocab(v))
    # The row keys a scan carries: each model's own tail of the history.
    rows = model_rows(llm), model_rows(minus)
    with mock.patch.object(protocol, "PAYLOAD_CACHE_SIZE", BOUND):
        for history, beta in calls:
            h_llm = llm.next_token_logits(history)
            h_minus = minus.next_token_logits(history)
            keys = tuple(r.key_of(history) for r in rows)
            got = rec.payload(h_llm, h_minus, beta, top_k, keys)
            want = reference_entries(h_llm, h_minus, beta, top_k)
            # The section is the float64 reference's entries in binary32,
            # bit for bit.
            assert got == packed(want)
            assert bits(build_steering_payload(h_llm, h_minus, beta, top_k).entries) == bits(want)
            assert len(rec._payloads) <= BOUND


entries_strategy = st.integers(1, 9).flatmap(
    lambda n: st.tuples(
        st.permutations(range(12)).map(lambda ids: ids[:n]),
        # Values on the scale of the drafter's logits, so the pick depends
        # on the history as well as on the payload.
        st.lists(st.floats(-3, 3, allow_nan=False), min_size=n, max_size=n),
    ).map(lambda t: tuple(zip(t[0], t[1])))
)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_cached_recovery_equals_direct_recover(data):
    drafter = TailModel(12, data.draw(st.integers(0, 2), label="window"), 3)
    shapes = data.draw(st.lists(entries_strategy, min_size=1, max_size=3), label="entries")
    sections = [wire_section(e) for e in shapes]
    # What the edge reads from each section: its binary32 values.
    payloads = [SparseSteeringPayload(tuple(zip(*unpack_steering_entries(s)))) for s in sections]
    calls = data.draw(st.lists(
        st.tuples(
            st.integers(0, len(payloads) - 1),
            st.lists(st.integers(0, 2), max_size=3),
            st.sampled_from(BETAS),
            st.booleans(),
        ),
        min_size=1, max_size=40,
    ), label="calls")
    seed = data.draw(st.integers(0, 2**64 - 1), label="seed")
    cached, direct, ref = (UniformStream(seed, ROLE_RECOVERY) for _ in range(3))
    rec = SessionRecord(make_vocab(12))
    rows = model_rows(drafter)
    with mock.patch.object(protocol, "RECOVERY_CACHE_SIZE", BOUND):
        for p, history, beta, greedy in calls:
            payload = payloads[p]
            h_plus = drafter.next_token_logits(history)
            want = reference_recover(payload.entries, h_plus, beta, ref, greedy)
            assert recover(payload, h_plus, beta, direct, greedy) == want
            key = rows.key_of(history)
            got = rec.recover(sections[p], key, rows, beta, cached, greedy, 12)
            assert got == want
            assert len(rec._states) <= BOUND
    # Every stream made the same draws.
    assert cached.random() == direct.random() == ref.random()


def test_zero_beta_keeps_its_sign():
    # 0.0 == -0.0, but with a -0.0 logit the two betas give steering values
    # that differ in the sign of a zero, and so would their frames.
    h_llm, h_minus = np.array([-0.0, -1.0]), np.array([-1.0, -2.0])
    rec = SessionRecord(make_vocab(2))
    for beta in (0.0, -0.0, 0.0):
        got = rec.payload(h_llm, h_minus, beta, 2, ((), ()))
        assert got == packed(reference_entries(h_llm, h_minus, beta, 2))
    assert packed(reference_entries(h_llm, h_minus, 0.0, 2)) != packed(
        reference_entries(h_llm, h_minus, -0.0, 2))


def test_wire_payloads_that_differ_anywhere_do_not_share_a_state():
    drafter = model_rows(TailModel(3, 0, 7))
    rec = SessionRecord(make_vocab(3))
    rest = ((1, 0.0), (2, -0.5))
    for first, want in ((1.0, 0), (-1.0, 1), (1.0, 0)):
        section = wire_section(((0, first),) + rest)
        assert rec.recover(section, (), drafter, 0.0, None, True, 3) == want


def test_cached_wire_bytes_are_checked_again_for_another_vocabulary():
    # Ids 0-4 are in range at V=5, id 4 is not at V=4: the state cached for
    # the same bytes at V=5 must not serve the V=4 recovery.  A record has
    # one vocabulary, so the two recover through two records.  (The entry
    # count is check_verdict's to check, on every verdict.)
    drafter = model_rows(TailModel(5, 0, 8))
    v5, v4 = make_vocab(5), make_vocab(4)
    five, four = session_record(v5), session_record(v4)
    assert five is not four and session_record(v5) is five
    section = packed(((4, 1.0), (0, 0.5)))
    assert five.recover(section, (), drafter, 0.0, None, True, 2) == 4
    with pytest.raises(ProtocolStateError, match="out of range"):
        four.recover(section, (), drafter, 0.0, None, True, 2)
    assert (len(five._states), len(four._states)) == (1, 0)


# ---------------------------------------------------------------------------
# (b) Interleaved model sets give what cold caches give
# ---------------------------------------------------------------------------


def window_triple(rng, vocab, drafter_window=1):
    """Three tables over ``vocab``, window 1 but for the drafter's: every
    model set sees the same windows, so an entry shared across sets would
    show."""
    v = vocab.size

    def table(window=1):
        rows = {(): rng.dirichlet(np.ones(v))}
        rows.update({(i,): rng.dirichlet(np.ones(v)) for i in range(v)})
        if window == 2:
            rows.update({(i, j): rng.dirichlet(np.ones(v)) for i in range(v) for j in range(v)})
        return TableModel(vocab, rows)

    return table(), table(drafter_window), table()


def configs(rng, n, v):
    out = []
    for seed in range(n):
        out.append(ProtocolConfig(
            lam=float(rng.choice([0.3, 0.8, 1.5])),
            beta=float(rng.choice([0.0, 1.0, 2.0])),
            horizon_k=int(rng.integers(1, 5)),
            top_k=int(rng.choice([2, v])),
            max_len=24,
            decode_mode=str(rng.choice(["stochastic", "greedy"])),
            seed=seed,
        ))
    return out


def run_record(llm, plus, minus, vocab) -> SessionRecord:
    """``run_session``'s record of a model set and vocabulary, as
    registered."""
    return protocol._records[(id(vocab), id(plus), id(llm), id(minus))][0]


def cold(cfg, models, vocab, prompt, zt_fn=None):
    protocol._records.clear()
    return run_session(cfg, *models, vocab, prompt, zt_fn=zt_fn)


def test_interleaved_table_triples_match_cold_caches():
    rng = np.random.default_rng(71)
    vocab = make_vocab(6)
    llm, plus, minus = window_triple(rng, vocab)
    # The second set shares the first's generalist and drafter, the third
    # shares nothing and drafts from a longer window than its cloud scores.
    sets = [
        (llm, plus, minus),
        (llm, plus, window_triple(rng, vocab)[2]),
        window_triple(rng, vocab, drafter_window=2),
    ]
    cfgs = configs(rng, 120, vocab.size)
    # Each config runs on every set, back to back, and again later, so warm
    # entries of one set are there for the other to (wrongly) find.
    order = [(cfg, models) for cfg in cfgs + cfgs for models in sets]
    protocol._records.clear()
    warm = [run_session(cfg, *models, vocab, [0]) for cfg, models in order]
    # The warm runs did reuse entries: far fewer were made than recoveries.
    recoveries = sum(t.recovery_token is not None for _, traces in warm for t in traces)
    made = sum(len(run_record(*m, vocab)._payloads) for m in sets)
    assert 0 < made < recoveries / 4
    assert warm == [cold(cfg, models, vocab, [0]) for cfg, models in order]


def test_interleaved_worlds_match_cold_caches(world):
    worlds = [world, toy_world("trail")]
    prompts = [w.vocab.ids_of(["we", "ordered", "the"]) for w in worlds]
    rng = np.random.default_rng(72)
    cfgs = configs(rng, 40, 32)
    order = [(cfg, i) for cfg in cfgs for i in range(2)]

    def session(cfg, i, run):
        w = worlds[i]
        return run(cfg, (w.llm, w.slm_plus, w.slm_minus), w.vocab, prompts[i])

    warm = [session(cfg, i, lambda c, m, v, p: run_session(c, *m, v, p)) for cfg, i in order]
    assert warm == [session(cfg, i, cold) for cfg, i in order]


# ---------------------------------------------------------------------------
# (c) Bounds
# ---------------------------------------------------------------------------


def test_every_cache_keeps_to_its_bound(world):
    prompt = world.vocab.ids_of(["we", "ordered", "the"])
    cfgs = configs(np.random.default_rng(73), 30, 32)
    want = [cold(cfg, (world.llm, world.slm_plus, world.slm_minus), world.vocab, prompt)
            for cfg in cfgs]
    # A world of its own, so every cache starts empty under the small bounds.
    w = toy_world()
    triple = (w.llm, w.slm_plus, w.slm_minus)
    with mock.patch.object(protocol, "PAYLOAD_CACHE_SIZE", 4), \
            mock.patch.object(protocol, "RECOVERY_CACHE_SIZE", 5), \
            mock.patch.object(models, "ROW_CACHE_SIZE", 6):
        rec = session_record(w.vocab, w.slm_plus, w.llm, w.slm_minus)
        for cfg, out in zip(cfgs, want):
            assert run_session(cfg, *triple, w.vocab, prompt) == out
            assert len(rec._payloads) <= 4
            assert len(rec._states) <= 5
            assert all(len(m._rows) <= 6 for m in triple)
    assert len(rec._payloads) == 4 and len(rec._states) == 5


def test_logit_only_model_keeps_no_probability_rows():
    w = toy_world()
    prompt = w.vocab.ids_of(["they", "shared", "the"])
    for seed in range(20):
        run_session(ProtocolConfig(max_len=32, seed=seed), w.llm, w.slm_plus, w.slm_minus,
                    w.vocab, prompt)
    for m in (w.llm, w.slm_minus):
        rows = list(m._rows.values())
        assert rows and all(r.probs is None and r.cdf is None for r in rows)
        assert all(r.logits is not None for r in rows)


# ---------------------------------------------------------------------------
# (d) Record lookup
# ---------------------------------------------------------------------------


def test_lookup_keeps_no_dropped_model_alive():
    rng = np.random.default_rng(74)
    vocab = make_vocab(5)
    triple = window_triple(rng, vocab)
    # Sessions at several configs and in exact-Z mode, and the views'.
    for seed, mode in enumerate(
            [{}, {}, {"lam": 0.9}, {"decode_mode": "greedy"}, EXACT_Z, {"beta": 0.0}]):
        fields, exact = split_mode(mode)
        cfg = ProtocolConfig(max_len=12, top_k=3, seed=seed, **fields)
        run_session(cfg, *triple, vocab, [0], zt_fn=exact_zt(exact, *triple))
        EdgeSession(cfg, triple[1], vocab, [0])
        CloudVerifier(cfg, triple[0], triple[2], vocab, [0], zt_fn=exact_zt(exact, *triple))
    # One record each for run_session and the two views, under the one key
    # shape (vocabulary, drafter, llm, slm_minus).
    llm, plus, minus = map(id, triple)
    ids = {llm, plus, minus}
    none = id(None)
    assert all(len(key) == 4 for key in protocol._records)
    assert {key for key in protocol._records if ids & set(key)} == {
        (id(vocab), plus, llm, minus), (id(vocab), plus, none, none),
        (id(vocab), none, llm, minus)}
    refs = [weakref.ref(m) for m in triple]
    del triple
    gc.collect()
    assert all(r() is None for r in refs)
    assert not any(ids & set(key) for key in protocol._records)


def test_lookup_is_not_fooled_by_a_reused_id():
    vocab = make_vocab(4)
    rng = np.random.default_rng(75)
    llm, plus, minus = window_triple(rng, vocab)
    other = window_triple(rng, vocab)[0]
    # Entries as a model that has died would leave them if its id came back:
    # one naming a different live object, one whose references are dead.
    stale = SessionRecord(vocab)
    protocol._records[(id(vocab), id(plus), id(None), id(None))] = (
        stale, weakref.ref(vocab), weakref.ref(other), protocol._ABSENT, protocol._ABSENT)
    assert session_record(vocab, plus) is not stale
    assert session_record(vocab, plus) is session_record(vocab, plus)

    class Gone:
        pass

    gone = Gone()
    dead = weakref.ref(gone)
    del gone
    gc.collect()
    stale_cloud = SessionRecord(vocab)
    protocol._records[(id(vocab), id(None), id(llm), id(minus))] = (
        stale_cloud, weakref.ref(vocab), protocol._ABSENT, dead, dead)
    assert session_record(vocab, llm=llm, slm_minus=minus) is not stale_cloud


def test_unregistrable_model_gets_a_one_session_record():
    class Slotted:
        __slots__ = ("vocab", "window")

        def __init__(self, vocab) -> None:
            self.vocab = vocab
            self.window = 1

    vocab = make_vocab(3)
    m = Slotted(vocab)
    with pytest.raises(TypeError):
        weakref.ref(m)
    assert session_record(vocab, m) is not session_record(vocab, m)
    assert not any(id(m) in key for key in protocol._records)


def test_each_session_start_holds_a_record_of_its_own():
    rng = np.random.default_rng(79)
    vocab = make_vocab(5)
    llm, plus, minus = triple = window_triple(rng, vocab)
    cfg = ProtocolConfig(max_len=12, top_k=3)
    run_session(cfg, *triple, vocab, [0])
    edge = EdgeSession(cfg, plus, vocab, [0])
    cloud = CloudVerifier(cfg, llm, minus, vocab, [0])
    recs = (run_record(*triple, vocab), edge._rec, cloud._rec)
    assert len(set(map(id, recs))) == 3
    assert edge._rec is session_record(vocab, plus) is EdgeSession(cfg, plus, vocab, [0])._rec
    assert cloud._rec is session_record(vocab, llm=llm, slm_minus=minus)
    # So a wire session's edge and cloud, which may run in two threads,
    # never share a record: the edge's fills only the recovery cache, the
    # cloud's only the payload cache, and run_session's is left alone.
    before = dict(recs[0]._payloads), dict(recs[0]._states)
    for seed in range(10):
        run_simulated_session(replace(cfg, seed=seed), *triple, vocab, [0])
    assert edge._rec._states and not edge._rec._payloads
    assert cloud._rec._payloads and not cloud._rec._states
    assert (recs[0]._payloads, recs[0]._states) == before


# ---------------------------------------------------------------------------
# (e) One session record per model set
# ---------------------------------------------------------------------------


def test_configs_that_differ_in_seed_share_a_record():
    rng = np.random.default_rng(76)
    vocab = make_vocab(5)
    triple = window_triple(rng, vocab)
    cfg = ProtocolConfig(max_len=12, top_k=3)
    run_session(cfg, *triple, vocab, [0])
    rec = run_record(*triple, vocab)
    for seed in (1, 2**64 - 1):
        run_session(replace(cfg, seed=seed), *triple, vocab, [0])
    assert run_record(*triple, vocab) is rec
    # The record holds the vocabulary's constants, wrap and the two caches,
    # no config field.
    assert SessionRecord.__slots__ == ("eos", "vsize", "wrap", "_payloads", "_states")
    assert (rec.eos, rec.vsize) == (vocab.eos_id, vocab.size)
    assert session_record(vocab, triple[1], triple[0], triple[2]) is rec


# Each config field but the seed, with a second value.
FIELD_VALUES = {
    "lam": 0.75, "beta": 2.0, "horizon_k": 2, "top_k": 4, "max_len": 9,
    "decode_mode": "greedy",
}


def test_every_config_field_runs_warm_as_cold():
    rng = np.random.default_rng(77)
    vocab = make_vocab(5)
    triple = window_triple(rng, vocab)
    base = ProtocolConfig(max_len=12, top_k=3, seed=4)
    runs = [(base, None)] + [(replace(base, **{f: v}), None) for f, v in FIELD_VALUES.items()]
    # Exact-Z verification, which the partition callback selects.
    runs += [(base, exact_partition_fn(*triple))]
    # A zero beta keeps its sign, as the payload cache's key does.
    runs += [(replace(base, beta=0.0), None), (replace(base, beta=-0.0), None)]
    # And many configs in turn, twice over, through one record.
    runs += [(replace(base, lam=0.1 * (i + 1), seed=i), None) for i in range(10)] * 2
    want = [cold(cfg, triple, vocab, [0], zt) for cfg, zt in runs]
    protocol._records.clear()
    assert [run_session(cfg, *triple, vocab, [0], zt_fn=zt) for cfg, zt in runs] == want
    assert [run_session(cfg, *triple, vocab, [0], zt_fn=zt)
            for cfg, zt in reversed(runs)] == want[::-1]


@pytest.mark.parametrize("bad", [{"lam": 0.0}, {"top_k": 6}, {"decode_mode": "beam"},
                                 {"seed": -1}, {"seed": 2**64}])
def test_invalid_config_or_seed_raises_on_every_call(bad):
    rng = np.random.default_rng(78)
    vocab = make_vocab(5)
    triple = window_triple(rng, vocab)
    good = ProtocolConfig(max_len=12, top_k=3)
    # The record of the model set already exists.  A field out of range
    # raises where the config is replaced; a top_k above the vocabulary's
    # size, on every session made with it.
    run_session(good, *triple, vocab, [0])
    rec = run_record(*triple, vocab)
    for _ in range(3):
        with pytest.raises(ConfigError):
            run_session(replace(good, **bad), *triple, vocab, [0])
        with pytest.raises(ConfigError):
            EdgeSession(replace(good, **bad), triple[1], vocab, [0])
        with pytest.raises(ConfigError):
            CloudVerifier(replace(good, **bad), triple[0], triple[2], vocab, [0])
    assert run_record(*triple, vocab) is rec
