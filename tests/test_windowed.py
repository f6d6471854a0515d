"""Windowed scoring: the state machines hand each model only the tail of
the history its ``window`` covers, as a row key.  These tests pin that
this changes no committed token and no verdict frame, that no public
model call sees a history longer than its window, and that every row
lookup gets a key the model itself makes."""

import numpy as np
import pytest

from specsteer.core import PrivateContext, ProtocolConfig, make_streams, stream, ROLE_DRAFT
from specsteer.models import TableModel, condition_private, train_ngram
from specsteer.protocol import (
    CloudVerifier,
    EdgeSession,
    autoregressive_decode,
    run_session,
)
from specsteer.transport import encode_verdict

from conftest import EXACT_Z, exact_zt, make_vocab, split_mode

PROMPT_LEN = 1024
NEW_TOKENS = 48


class FullHistory:
    """Reports a window longer than any history, so the state machines
    pass whole histories to the wrapped model."""

    window = 10**9

    def __init__(self, model) -> None:
        self._m = model

    def __getattr__(self, name):
        return getattr(self._m, name)


class Spy:
    """Asserts that every history its public methods are given fits its
    window, or ``bound`` when given.  Its class has no row layer, so the
    cores score it through ``PublicRows``, whose keys are window tails."""

    def __init__(self, model, bound=None) -> None:
        self._m = model
        self.window = model.window
        self.vocab = model.vocab
        self.bound = model.window if bound is None else bound
        self.calls = 0
        if hasattr(model, "next_token_cdf"):
            self.next_token_cdf = lambda h: self._m.next_token_cdf(self._seen(h))

    def _seen(self, history):
        assert len(history) <= self.bound, (len(history), self.bound)
        self.calls += 1
        return history

    def next_token_probs(self, history):
        return self._m.next_token_probs(self._seen(history))

    def next_token_logits(self, history):
        return self._m.next_token_logits(self._seen(history))


class RowSpy(Spy):
    """Serves the wrapped model's row layer, so the cores call it as they
    call the model, and asserts that every row key is the one the model
    gives some history: no longer than its window, of exactly its window
    for an n-gram (BOS-padded), and the key of itself for a table."""

    def key_of(self, history):
        return self._m.key_of(history)

    def _key(self, key):
        assert type(key) is tuple and self._m.key_of(key) == key, key
        return self._seen(key)

    def probs_at(self, key):
        return self._m.probs_at(self._key(key))

    def logits_at(self, key):
        return self._m.logits_at(self._key(key))

    def cdf_at(self, key):
        return self._m.cdf_at(self._key(key))


def drive(cfg, llm, plus, minus, vocab, prompt, exact):
    """run_session's loop, verified with the exact partition function when
    ``exact``, also returning every encoded verdict frame."""
    rngs = make_streams(cfg.seed)
    edge = EdgeSession(cfg, plus, vocab, prompt, streams=rngs)
    zt_fn = exact_zt(exact, llm, plus, minus)
    cloud = CloudVerifier(cfg, llm, minus, vocab, prompt, streams=rngs, zt_fn=zt_fn)
    frames = []
    while (batch := edge.next_draft()) is not None:
        verdict = cloud.handle_draft(batch, edge.take_delta())
        frames.append(encode_verdict(verdict))
        edge.apply_verdict(verdict)
    cloud.finish([edge.pending_delta] if edge.pending_delta is not None else [])
    assert cloud.mirror == edge.committed
    return edge.committed, frames


def long_prompt(rng, vocab):
    """In-vocabulary history with no eos."""
    ids = [i for i in range(vocab.size) if i != vocab.eos_id]
    return rng.choice(ids, PROMPT_LEN).tolist()


def ngram_triple(rng, vocab, llm_order, slm_order):
    def corpus(n_docs):
        return [rng.integers(0, vocab.size - 1, rng.integers(3, 12)).tolist() + [vocab.eos_id]
                for _ in range(n_docs)]

    llm = train_ngram(corpus(300), vocab, llm_order, 0.1)
    minus = train_ngram(corpus(80), vocab, slm_order, 0.5)
    plus = condition_private(minus, PrivateContext.from_documents(corpus(10)), mu=0.6)
    return llm, plus, minus


def table_model(rng, vocab, window):
    v = vocab.size
    rows = {(): rng.dirichlet(np.ones(v))}
    for a in range(v):
        if window >= 1 and rng.random() < 0.7:
            rows[(a,)] = rng.dirichlet(np.ones(v))
        for b in range(v):
            if window == 2 and rng.random() < 0.5:
                rows[(a, b)] = rng.dirichlet(np.ones(v))
    if window == 2:
        rows.setdefault((0, 0), rng.dirichlet(np.ones(v)))
    if window >= 1:
        rows.setdefault((0,), rng.dirichlet(np.ones(v)))
    model = TableModel(vocab, rows)
    assert model.window == window
    return model


def assert_same_sessions(models, vocab, rng, **mode):
    llm, plus, minus = models
    full = tuple(FullHistory(m) for m in models)
    fields, exact = split_mode(mode)
    for seed in range(3):
        prompt = long_prompt(rng, vocab)
        cfg = ProtocolConfig(top_k=vocab.size, max_len=PROMPT_LEN + NEW_TOKENS, seed=seed, **fields)
        windowed = drive(cfg, llm, plus, minus, vocab, prompt, exact)
        reference = drive(cfg, *full, vocab, prompt, exact)
        assert windowed == reference
        assert len(windowed[1]) > 0
        committed, _ = run_session(cfg, llm, plus, minus, vocab, prompt,
                                   zt_fn=exact_zt(exact, llm, plus, minus))
        assert committed == windowed[0]


MODES = [
    {"lam": 0.5},
    {"lam": 1.0, "horizon_k": 3},
    {"lam": 0.5, "decode_mode": "greedy"},
    EXACT_Z,
]


class TestWindowedEquivalence:
    @pytest.mark.parametrize("orders", [(1, 1), (2, 2), (3, 3), (3, 1), (1, 3), (3, 2)])
    @pytest.mark.parametrize("mode", MODES)
    def test_ngram(self, orders, mode):
        rng = np.random.default_rng(sum(orders) * 31 + len(mode))
        vocab = make_vocab(9)
        models = ngram_triple(rng, vocab, *orders)
        assert [m.window for m in models] == [orders[0] - 1, orders[1] - 1, orders[1] - 1]
        assert_same_sessions(models, vocab, rng, **mode)

    @pytest.mark.parametrize("windows", [(0, 0, 0), (1, 1, 1), (2, 2, 2), (2, 0, 1), (0, 2, 1)])
    @pytest.mark.parametrize("mode", MODES)
    def test_table(self, windows, mode):
        rng = np.random.default_rng(sum(windows) * 17 + len(mode))
        vocab = make_vocab(6)
        models = tuple(table_model(rng, vocab, w) for w in windows)
        assert_same_sessions(models, vocab, rng, **mode)

    @pytest.mark.parametrize("order", [1, 2, 3])
    @pytest.mark.parametrize("mode", ["stochastic", "greedy"])
    def test_autoregressive(self, order, mode):
        rng = np.random.default_rng(order)
        vocab = make_vocab(9)
        model = ngram_triple(rng, vocab, order, order)[1]
        prompt = long_prompt(rng, vocab)
        max_len = PROMPT_LEN + NEW_TOKENS
        outs = [
            autoregressive_decode(m, vocab, prompt, max_len, mode, stream(5, ROLE_DRAFT))
            for m in (model, FullHistory(model))
        ]
        assert outs[0] == outs[1]


def spy_models(rng, kind, world):
    if kind == "toy":
        return world.vocab, (world.llm, world.slm_plus, world.slm_minus)
    vocab = make_vocab(6)
    if kind == "ngram1":
        return vocab, ngram_triple(rng, vocab, 1, 1)
    window = int(kind[-1])
    return vocab, tuple(table_model(rng, vocab, window) for _ in range(3))


class TestHistoryBound:
    @pytest.mark.parametrize("kind", ["toy", "ngram1", "table0", "table1", "table2"])
    @pytest.mark.parametrize("exact", [False, True])
    def test_models_see_only_their_window(self, world, kind, exact):
        rng = np.random.default_rng(7)
        k = 4
        vocab, models = spy_models(rng, kind, world)
        prompt = long_prompt(rng, vocab)
        # The exact-Z callback gives each model's public methods the tail
        # that the widest window of the three covers, plus the round's
        # tokens scanned so far.
        bound = max(m.window for m in models) + k if exact else None
        for spy in (Spy, RowSpy):
            spies = tuple(spy(m, bound) for m in models)
            for seed in range(4):
                cfg = ProtocolConfig(lam=0.5, horizon_k=k, top_k=min(32, vocab.size),
                                     max_len=PROMPT_LEN + NEW_TOKENS, seed=seed)
                run_session(cfg, *spies, vocab, prompt, zt_fn=exact_zt(exact, *spies))
            assert all(s.calls > 0 for s in spies)
            autoregressive_decode(spies[0], vocab, prompt, PROMPT_LEN + NEW_TOKENS,
                                  rng=stream(1, ROLE_DRAFT))
