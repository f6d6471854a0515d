"""Next-token models standing in for the generalist and specialist pair.

Two desk-scale backends implement the same scoring interface:

* ``TableModel`` maps a short history window directly to a distribution;
  it is the exact, hand-constructable oracle backend used by tests.
* ``NGramModel`` is an add-k smoothed n-gram counter.  The "large" model
  is a higher-order n-gram trained on a bigger corpus; the "small" model
  a lower-order one on a subset.  Private conditioning is a linear blend
  with an add-k table built from the user's documents, so the plus/minus
  probability ratio is analytically controllable.

Both expose ``next_token_probs`` / ``next_token_logits`` over the full
vocabulary; logits are log-probabilities (softmax round-trips exactly up
to the probability floor).  Both also expose ``window``: the number of
trailing history tokens a score depends on.  Callers may pass any history
that ends in the same ``window`` tokens (or the whole history when it is
shorter) and get the same result, which keeps per-token cost independent
of history length.

Each model has two layers.  The public ``next_token_*`` methods check
every id they are given (``core.check_token_ids``) and then call the row
layer, which checks none: ``key_of(history)`` is a history's row key, and
``probs_at``/``logits_at``/``cdf_at(key)`` its rows there.  The protocol
cores, whose ids were checked where they entered, call only the row
layer; ``PublicRows`` gives a model whose class has no row layer one over
its public methods.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from typing import Sequence

import numpy as np

from .core import (
    PROB_FLOOR,
    PrivateContext,
    SpecSteerError,
    Vocabulary,
    check_distribution,
    check_token_ids,
    evict_oldest,
)

# Sentinel id used to left-pad history windows at the start of a sequence.
BOS = -1


class ModelError(SpecSteerError):
    pass


def _frozen(row: np.ndarray) -> np.ndarray:
    """``row`` made read-only, so no caller can corrupt a cached row."""
    row.flags.writeable = False
    return row


class _Row:
    """The rows of one window: its probs, logits and CDF.  An
    ``NGramModel`` fills each on first use, so a model scored only through
    logits keeps no probability row or CDF; a ``TableModel`` fills all
    three when it is built."""

    __slots__ = ("probs", "logits", "cdf")

    def __init__(
        self,
        probs: np.ndarray | None = None,
        logits: np.ndarray | None = None,
        cdf: list[float] | None = None,
    ) -> None:
        self.probs = probs
        self.logits = logits
        self.cdf = cdf


class _CheckedRows:
    """The checked public layer over a class's row layer: each method
    checks every id of ``history``, then reads the row at its key."""

    _vsize: int

    def next_token_probs(self, history: Sequence[int]) -> np.ndarray:
        check_token_ids(history, self._vsize, ModelError)
        return self.probs_at(self.key_of(history))

    def next_token_logits(self, history: Sequence[int]) -> np.ndarray:
        check_token_ids(history, self._vsize, ModelError)
        return self.logits_at(self.key_of(history))

    def next_token_cdf(self, history: Sequence[int]) -> list[float]:
        """Cached cumulative distribution; lets samplers skip the cumsum."""
        check_token_ids(history, self._vsize, ModelError)
        return self.cdf_at(self.key_of(history))


class TableModel(_CheckedRows):
    """History-window lookup table over windows of 0, 1, or 2 tokens.

    Missing histories fall back to the empty-window row, which must be
    present.  Rows are validated distributions, and their keys tuples of
    in-vocabulary ids; probs, logits, and CDFs are kept in one record per
    window so sessions can query in tight loops.
    """

    def __init__(
        self,
        vocab: Vocabulary,
        rows: dict[tuple[int, ...], Sequence[float]],
    ) -> None:
        if () not in rows:
            raise ModelError("TableModel requires an empty-window fallback row")
        size = vocab.size
        for k in rows:
            if not (type(k) is tuple and all(type(i) is int and 0 <= i < size for i in k)):
                raise ModelError(f"row key {k!r} is not a tuple of token ids below {size}")
        self.vocab = vocab
        self.window = max(len(k) for k in rows)
        if self.window > 2:
            raise ModelError("TableModel windows are limited to 2 tokens")
        self._vsize = size
        self._rows: dict[tuple[int, ...], _Row] = {}
        for k, v in rows.items():
            p = check_distribution(v, size)
            self._rows[k] = _Row(p, np.log(np.maximum(p, PROB_FLOOR)), p.cumsum().tolist())
        # The nonzero window lengths that have rows, longest first: the
        # only suffixes of a key worth a probe.
        self._lengths = sorted({len(k) for k in rows if k}, reverse=True)

    def key_of(self, history: Sequence[int]) -> tuple[int, ...]:
        """The last ``window`` ids of ``history`` (all of it when shorter)."""
        w = self.window
        return tuple(history[-w:]) if w else ()

    def _resolve(self, key: tuple[int, ...]) -> _Row:
        """The record of the longest stored window that ``key``, which is
        not itself stored, ends in: the empty window's when none is."""
        n = len(key)
        rows = self._rows
        for m in self._lengths:
            if m < n and (row := rows.get(key[n - m:])) is not None:
                return row
        return rows[()]

    def probs_at(self, key: tuple[int, ...]) -> np.ndarray:
        return (self._rows.get(key) or self._resolve(key)).probs

    def logits_at(self, key: tuple[int, ...]) -> np.ndarray:
        return (self._rows.get(key) or self._resolve(key)).logits

    def cdf_at(self, key: tuple[int, ...]) -> list[float]:
        return (self._rows.get(key) or self._resolve(key)).cdf


# An NGramModel keeps the rows of at most this many windows and drops the
# oldest first.  The largest benchmark working set is the generalist's on
# the long_prompt workload, about 10,100 windows (see CHANGES.md), so no
# benchmark workload recomputes a row; at V=102 a full generalist cache of
# logit rows holds about 15 MB.
ROW_CACHE_SIZE = 16384


class NGramModel(_CheckedRows):
    """Add-k smoothed n-gram model with optional private-table blending.

    The emitted distribution is ``(1-mu) * base + mu * private`` where both
    terms are add-k tables; ``mu == 0`` is exactly the paired generic model.
    Trained models are immutable; per-window rows are cached as read-only
    arrays in one record per window, at most ``ROW_CACHE_SIZE`` windows.
    Every window in neither count table shares one record.
    """

    def __init__(
        self,
        vocab: Vocabulary,
        order: int,
        add_k: float,
        counts: dict[tuple[int, ...], dict[int, int]],
        totals: dict[tuple[int, ...], int],
        mu: float = 0.0,
        private_counts: dict[tuple[int, ...], dict[int, int]] | None = None,
        private_totals: dict[tuple[int, ...], int] | None = None,
    ) -> None:
        if order not in (1, 2, 3):
            raise ModelError("order must be 1, 2, or 3")
        if add_k <= 0:
            raise ModelError("add_k must be > 0")
        if not 0.0 <= mu <= 1.0:
            raise ModelError("mu must lie in [0, 1]")
        if mu > 0 and private_counts is None:
            raise ModelError("mu > 0 requires a private table")
        self.vocab = vocab
        self.order = order
        self.add_k = float(add_k)
        self.mu = float(mu)
        self.window = order - 1
        self._vsize = vocab.size
        self._counts = counts
        self._totals = totals
        self._private_counts = private_counts
        self._private_totals = private_totals
        self._rows: dict[tuple[int, ...], _Row] = {}
        # Made on first use; the record of every window in neither count table.
        self._unseen_row: _Row | None = None

    def _table_probs(
        self,
        window: tuple[int, ...],
        counts: dict[tuple[int, ...], dict[int, int]],
        totals: dict[tuple[int, ...], int],
    ) -> np.ndarray:
        v = self.vocab.size
        total = totals.get(window, 0)
        p = np.full(v, self.add_k / (total + self.add_k * v))
        row = counts.get(window)
        if row:
            denom = total + self.add_k * v
            for tok, c in row.items():
                p[tok] = (c + self.add_k) / denom
        return p

    def _probs(self, window: tuple[int, ...]) -> np.ndarray:
        p = self._table_probs(window, self._counts, self._totals)
        if self.mu > 0.0:
            assert self._private_counts is not None and self._private_totals is not None
            priv = self._table_probs(window, self._private_counts, self._private_totals)
            p = (1.0 - self.mu) * p + self.mu * priv
        return p

    def _unseen(self, window: tuple[int, ...]) -> bool:
        """True when ``window`` is in neither count table, so its row is the
        same smoothed row as that of every other such window."""
        return window not in self._totals and (
            self._private_totals is None or window not in self._private_totals
        )

    def _add_row(self, window: tuple[int, ...]) -> _Row:
        """The record of a window not in the cache, now cached; the oldest
        record goes first when the cache is full."""
        rows = self._rows
        if len(rows) >= ROW_CACHE_SIZE:
            evict_oldest(rows)
        if self._unseen(window):
            if self._unseen_row is None:
                self._unseen_row = _Row()
            row = self._unseen_row
        else:
            row = _Row()
        rows[window] = row
        return row

    def key_of(self, history: Sequence[int]) -> tuple[int, ...]:
        """The last ``window`` ids of ``history``, left-padded with BOS when
        it is shorter."""
        m = self.window
        n = len(history)
        if n >= m:
            return tuple(history[n - m:])
        return (BOS,) * (m - n) + tuple(history)

    def probs_at(self, key: tuple[int, ...]) -> np.ndarray:
        row = self._rows.get(key) or self._add_row(key)
        probs = row.probs
        if probs is None:
            probs = row.probs = _frozen(self._probs(key))
        return probs

    def logits_at(self, key: tuple[int, ...]) -> np.ndarray:
        row = self._rows.get(key) or self._add_row(key)
        logits = row.logits
        if logits is None:
            p = row.probs
            logits = row.logits = _frozen(
                np.log(np.maximum(p if p is not None else self._probs(key), PROB_FLOOR))
            )
        return logits

    def cdf_at(self, key: tuple[int, ...]) -> list[float]:
        row = self._rows.get(key) or self._add_row(key)
        cdf = row.cdf
        if cdf is None:
            cdf = row.cdf = self.probs_at(key).cumsum().tolist()
        return cdf


_PUBLIC = ("next_token_probs", "next_token_logits", "next_token_cdf")


def _defined_at(mro: tuple[type, ...], name: str) -> int:
    """The place in ``mro`` of the class that defines ``name``; past its
    end when none does."""
    return next((i for i, c in enumerate(mro) if name in c.__dict__), len(mro))


def serves_rows(model) -> bool:
    """Whether the class of ``model`` implements the row layer: ``key_of``
    and ``probs_at``/``logits_at``/``cdf_at``, which check no ids.  The
    cores call that layer in place of the public ``next_token_*``, so a
    class that defines one of those at or below the class that gives it
    ``key_of`` (a subclass overriding ``next_token_logits``, say) does not
    serve it: the override would be skipped."""
    mro = type(model).__mro__
    at = _defined_at(mro, "key_of")
    return at < len(mro) and all(_defined_at(mro, n) > at for n in _PUBLIC)


def next_key(key: tuple[int, ...], tok: int, window: int) -> tuple[int, ...]:
    """The row key of a history one token on: ``key`` with ``tok`` appended
    and its first id dropped once it holds ``window`` ids.  An n-gram's key
    is BOS-padded to its window, a table's or ``PublicRows``' is the short
    tail of a short history; both move on by this rule.  A window-0 key
    stays ``()``."""
    if not window:
        return key
    return key[1:] + (tok,) if len(key) == window else key + (tok,)


class PublicRows:
    """The row layer over the public methods of a model whose class has
    none (a proxy, a test spy): a key is the tail of the history that the
    model's ``window`` covers, as a tuple, which the model scores as it
    would the whole history.  ``cdf_at`` is the model's ``next_token_cdf``
    when it has one, else the running sum of its probs, whose bisection
    draws exactly as ``core.sample`` does."""

    __slots__ = ("window", "_model", "cdf_at")

    def __init__(self, model) -> None:
        self.window = model.window
        self._model = model
        self.cdf_at = getattr(model, "next_token_cdf", None) or self._cdf

    def key_of(self, history: Sequence[int]) -> tuple[int, ...]:
        w = self.window
        return tuple(history[-w:]) if w else ()

    def probs_at(self, key: tuple[int, ...]) -> np.ndarray:
        return self._model.next_token_probs(key)

    def logits_at(self, key: tuple[int, ...]) -> np.ndarray:
        return self._model.next_token_logits(key)

    def _cdf(self, key: tuple[int, ...]) -> list[float]:
        return self._model.next_token_probs(key).cumsum().tolist()


def model_rows(model):
    """``model`` itself when it serves the row layer, else its
    ``PublicRows``."""
    return model if serves_rows(model) else PublicRows(model)


def _count_table(
    corpus: Sequence[Sequence[int]],
    order: int,
) -> tuple[dict[tuple[int, ...], dict[int, int]], dict[tuple[int, ...], int]]:
    """Per-window next-token counts and window totals, each dict in order of
    first occurrence.

    The documents are joined, each behind its own ``order - 1`` BOS pad, and
    every ``order``-gram of the result is counted at once.  A gram that
    straddles two documents ends in the next document's pad, so dropping the
    grams whose target is BOS leaves exactly the grams of the documents.
    """
    m = order - 1
    pad = (BOS,) * m
    seq = list(chain.from_iterable(chain(pad, doc) for doc in corpus))
    grams = Counter(zip(*(seq[i:] for i in range(order))))
    counts: dict[tuple[int, ...], dict[int, int]] = {}
    totals: dict[tuple[int, ...], int] = {}
    for gram, c in grams.items():
        tok = gram[m]
        if tok == BOS:
            continue
        window = gram[:m]
        row = counts.get(window)
        if row is None:
            row = counts[window] = {}
            totals[window] = 0
        # A plain int: NumPy would read a bool index as a mask.
        row[int(tok)] = c
        totals[window] += c
    return counts, totals


def train_ngram(
    corpus: Sequence[Sequence[int]],
    vocab: Vocabulary,
    order: int,
    add_k: float,
) -> NGramModel:
    """Count the corpus exactly; documents are used as given (append an
    eos token to each document beforehand if sessions should terminate).
    An id error's position counts through the documents, joined."""
    ids = list(chain.from_iterable(corpus))
    check_token_ids(ids, vocab.size, ModelError, "corpus token")
    if not ids:
        raise ModelError("training corpus is empty")
    counts, totals = _count_table(corpus, order)
    return NGramModel(vocab, order, add_k, counts, totals, mu=0.0)


def condition_private(base: NGramModel, ctx: PrivateContext, mu: float) -> NGramModel:
    """Blend the base model with an add-k table over the private documents.

    Returns a new specialist_private model; the base model is untouched and
    remains the paired generic baseline.
    """
    if not 0.0 <= mu <= 1.0:
        raise ModelError("mu must lie in [0, 1]")
    ids = list(chain.from_iterable(ctx.documents))
    check_token_ids(ids, base.vocab.size, ModelError, "private token")
    if not ids and mu > 0:
        raise ModelError("private context is empty but mu > 0")
    private_counts, private_totals = _count_table(ctx.documents, base.order)
    return NGramModel(
        base.vocab,
        base.order,
        base.add_k,
        base._counts,
        base._totals,
        mu=mu,
        private_counts=private_counts,
        private_totals=private_totals,
    )
