"""Scoring stops at the rejection: the cloud scores a drafted position only
when its scan reaches it.  These tests pin that this changes no committed
token, no alpha and no verdict frame against a reference that scores every
drafted position first, and that each round makes exactly the model calls
the scan needs."""

import math
from itertools import product

import numpy as np
import pytest

from specsteer.core import PROB_FLOOR, PrivateContext, ProtocolConfig, make_streams
from specsteer.models import TableModel, condition_private, train_ngram
from specsteer.protocol import (
    CloudVerifier,
    EdgeSession,
    Verdict,
    build_steering_payload,
    exact_partition_fn,
    pack_steering_entries,
)
from specsteer.transport import encode_verdict

from conftest import EXACT_Z, exact_zt, make_vocab, split_mode


class FullScoringCloud:
    """Reference verifier: scores every drafted position on the whole
    mirror, then scans.  Ids are trusted here; the edge is our own."""

    def __init__(self, cfg, llm, minus, prompt, rngs, zt_fn):
        self.cfg, self.llm, self.minus, self.zt_fn = cfg, llm, minus, zt_fn
        self.mirror = list(prompt)
        self.rng = rngs.verify

    def handle_draft(self, batch, delta):
        if delta is not None:
            self.mirror.append(delta)
        prefix = list(self.mirror)
        scored = []
        for tok in batch.token_ids:
            lam = self.zt_fn(prefix) if self.zt_fn is not None else self.cfg.lam
            scored.append((self.llm.next_token_logits(prefix),
                           self.minus.next_token_logits(prefix), lam))
            prefix.append(tok)
        alphas, accepted, payload = [], len(batch.token_ids), None
        for t, (tok, (h_llm, h_minus, lam)) in enumerate(zip(batch.token_ids, scored)):
            p_llm = math.exp(h_llm[tok])
            p_minus = max(math.exp(h_minus[tok]), PROB_FLOOR)
            alpha = min(1.0, p_llm / (lam * p_minus))
            alphas.append(alpha)
            greedy = self.cfg.decode_mode == "greedy"
            if not (alpha >= 1.0 if greedy else self.rng.random() <= alpha):
                accepted = t
                entries = build_steering_payload(h_llm, h_minus, self.cfg.beta, self.cfg.top_k)
                payload = pack_steering_entries(*zip(*entries.entries))
                break
        self.mirror.extend(batch.token_ids[:accepted])
        return Verdict(batch.seq_no, accepted, payload), tuple(alphas)


class CallCounter:
    """Counts ``next_token_logits`` calls; everything else passes through.
    Its class has no row layer, so the cores score it through
    ``PublicRows``."""

    def __init__(self, model) -> None:
        self._m = model
        self.calls = 0

    def __getattr__(self, name):
        return getattr(self._m, name)

    def next_token_logits(self, history):
        self.calls += 1
        return self._m.next_token_logits(history)


class RowCallCounter(CallCounter):
    """Counts ``logits_at`` calls of the wrapped model's row layer, which
    its class serves, so the cores call it as they call the model."""

    def key_of(self, history):
        return self._m.key_of(history)

    def logits_at(self, key):
        self.calls += 1
        return self._m.logits_at(key)


def drive(cfg, llm, plus, minus, vocab, prompt, reference, exact):
    """One session, verified with the exact partition function when
    ``exact``; returns committed ids, per-round alphas, verdict frames and
    draft lengths."""
    rngs = make_streams(cfg.seed)
    edge = EdgeSession(cfg, plus, vocab, prompt, streams=rngs)
    zt_fn = exact_zt(exact, llm, plus, minus)
    if reference:
        cloud = FullScoringCloud(cfg, llm, minus, prompt, rngs, zt_fn)
    else:
        cloud = CloudVerifier(cfg, llm, minus, vocab, prompt, streams=rngs, zt_fn=zt_fn)
    alphas, frames, drafted = [], [], []
    while (batch := edge.next_draft()) is not None:
        drafted.append(len(batch.token_ids))
        if reference:
            verdict, round_alphas = cloud.handle_draft(batch, edge.take_delta())
        else:
            verdict = cloud.handle_draft(batch, edge.take_delta())
            round_alphas = cloud.traces[-1].alphas
        alphas.append(round_alphas)
        frames.append(encode_verdict(verdict))
        edge.apply_verdict(verdict)
    return edge.committed, alphas, frames, drafted


def ngram_triple(rng, vocab, order):
    def corpus(n_docs):
        return [rng.integers(0, vocab.size - 1, rng.integers(3, 12)).tolist() + [vocab.eos_id]
                for _ in range(n_docs)]

    llm = train_ngram(corpus(300), vocab, order, 0.1)
    minus = train_ngram(corpus(80), vocab, order, 0.5)
    plus = condition_private(minus, PrivateContext.from_documents(corpus(10)), mu=0.6)
    return llm, plus, minus


def models_of(kind, world, rng):
    if kind == "toy":
        return world.vocab, (world.llm, world.slm_plus, world.slm_minus)
    if kind == "ngram":
        vocab = make_vocab(9)
        return vocab, ngram_triple(rng, vocab, 3)
    vocab = make_vocab(6)
    triple = []
    for _ in range(3):
        rows = {(): rng.dirichlet(np.ones(6))}
        rows.update({(a,): rng.dirichlet(np.ones(6)) for a in range(6) if rng.random() < 0.7})
        triple.append(TableModel(vocab, rows))
    return vocab, tuple(triple)


MODES = [
    {"lam": 0.5},
    {"lam": 1.0, "horizon_k": 6},
    {"lam": 0.5, "decode_mode": "greedy"},
    EXACT_Z,
]
KINDS = ["toy", "ngram", "table"]


def prompt_of(kind, vocab):
    if kind == "toy":
        return vocab.ids_of(["we", "ordered", "the"])
    return [0]


class TestScanScoring:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("mode", MODES)
    def test_same_as_full_scoring(self, world, kind, mode):
        rng = np.random.default_rng(len(kind) * 7 + len(mode))
        vocab, models = models_of(kind, world, rng)
        unscored = 0
        fields, exact = split_mode(mode)
        for seed in range(12):
            cfg = ProtocolConfig(top_k=min(32, vocab.size), max_len=40, seed=seed, **fields)
            prompt = prompt_of(kind, vocab)
            scanned = drive(cfg, *models, vocab, prompt, reference=False, exact=exact)
            full = drive(cfg, *models, vocab, prompt, reference=True, exact=exact)
            assert scanned == full
            unscored += sum(k - len(a) for a, k in zip(scanned[1], scanned[3]))
        # Some rejection must leave drafted positions unscored.
        assert unscored > 0

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("mode", MODES)
    def test_scores_only_scanned_positions(self, world, kind, mode):
        rng = np.random.default_rng(len(kind) * 5 + len(mode))
        vocab, (llm, plus, minus) = models_of(kind, world, rng)
        fields, exact = split_mode(mode)
        for seed, counter in product(range(6), (CallCounter, RowCallCounter)):
            cfg = ProtocolConfig(top_k=min(32, vocab.size), max_len=40, seed=seed, **fields)
            spies = counter(llm), counter(minus)
            rngs = make_streams(seed)
            edge = EdgeSession(cfg, plus, vocab, prompt_of(kind, vocab), streams=rngs)
            zt_calls = [0]
            zt_fn = None
            if exact:
                zt = exact_partition_fn(llm, plus, minus)

                def zt_fn(prefix):
                    zt_calls[0] += 1
                    return zt(prefix)

                zt_fn.window = zt.window
            cloud = CloudVerifier(cfg, *spies, vocab, prompt_of(kind, vocab), streams=rngs,
                                  zt_fn=zt_fn)
            while (batch := edge.next_draft()) is not None:
                before = [s.calls for s in spies] + zt_calls
                verdict = cloud.handle_draft(batch, edge.take_delta())
                rejected = verdict.recovery is not None
                expected = verdict.accepted_count + (1 if rejected else 0)
                calls = [s.calls - b for s, b in zip(spies, before)]
                assert calls == [expected, expected]
                assert zt_calls[0] - before[2] == (expected if exact else 0)
                assert len(cloud.traces[-1].alphas) == expected
                edge.apply_verdict(verdict)
