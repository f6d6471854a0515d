import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from specsteer.core import PrivateContext, Vocabulary, softmax
from specsteer.fusion import pmi_reward
from specsteer.models import (
    BOS,
    ModelError,
    NGramModel,
    PublicRows,
    TableModel,
    condition_private,
    model_rows,
    next_key,
    serves_rows,
    train_ngram,
)
from specsteer.protocol import exact_partition_fn

from conftest import make_vocab


def vocab_of(*docs):
    return Vocabulary.build([list(d) for d in docs])


def longest_stored_suffix(rows, window, history):
    """Reference row resolution: probe every suffix of ``history`` from the
    model's window length down to the empty one."""
    n = len(history)
    for m in range(min(window, n), -1, -1):
        key = tuple(history[n - m:])
        if key in rows:
            return key
    return ()


@st.composite
def sparse_tables(draw):
    """A vocabulary of 2-8 tokens, a sparse set of rows over windows of 0-2
    tokens, and histories of 0-5 ids."""
    v = draw(st.integers(2, 8))
    ids = st.integers(0, v - 1)
    keys = draw(st.sets(st.lists(ids, min_size=1, max_size=2).map(tuple), max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = {k: rng.dirichlet(np.ones(v)) for k in [(), *sorted(keys)]}
    histories = draw(st.lists(st.lists(ids, max_size=5), min_size=1, max_size=8))
    return make_vocab(v), rows, histories


class TestTableRowResolution:
    @settings(max_examples=300, deadline=None)
    @given(sparse_tables())
    def test_same_objects_as_longest_suffix_search(self, table):
        vocab, rows, histories = table
        m = TableModel(vocab, rows)
        for history in histories:
            key = longest_stored_suffix(rows, m.window, history)
            rec = m._rows[key]
            np.testing.assert_array_equal(rec.probs, rows[key])
            for h in (history, tuple(history)):
                assert m.next_token_probs(h) is rec.probs
                assert m.next_token_logits(h) is rec.logits
                assert m.next_token_cdf(h) is rec.cdf

    @settings(max_examples=200, deadline=None)
    @given(sparse_tables(), st.data())
    def test_bad_id_anywhere_raises(self, table, data):
        vocab, rows, histories = table
        m = TableModel(vocab, rows)
        history = data.draw(st.sampled_from(histories))
        bad = data.draw(st.sampled_from(
            [-1, BOS - 1, vocab.size, vocab.size + 7, 2**40, 1.0, 1.5, "3"]))
        at = data.draw(st.integers(0, len(history)))
        spoiled = history[:at] + [bad] + history[at:]
        for score in (m.next_token_probs, m.next_token_logits, m.next_token_cdf):
            with pytest.raises(ModelError, match="unknown token id"):
                score(spoiled)
        # NumPy integers and bools are ids, and read the same rows.
        for i, good in ((1, True), (0, np.int64(0)), (vocab.size - 1, np.int64(vocab.size - 1))):
            same = history[:at] + [good] + history[at:]
            want = history[:at] + [i] + history[at:]
            for score in (m.next_token_probs, m.next_token_logits, m.next_token_cdf):
                assert score(same) is score(want)

    def test_row_record_values(self):
        vocab = make_vocab(4)
        probs = [0.1, 0.2, 0.3, 0.4]
        m = TableModel(vocab, {(): probs, (1,): [0.25] * 4})
        rec = m._rows[()]
        np.testing.assert_array_equal(rec.probs, probs)
        np.testing.assert_array_equal(rec.logits, np.log(np.maximum(probs, 1e-12)))
        assert rec.cdf == np.cumsum(probs).tolist()


def assert_rows_equal_public(m, fresh, history, tok):
    """``m``'s row layer gives the public layer's rows at ``history``, as the
    same objects, and ``fresh`` (built as ``m`` was, scored only through
    its row layer) gives equal values; the key one token on is the key of
    the history one token on."""
    key = m.key_of(history)
    assert type(key) is tuple and key == m.key_of(tuple(history))
    assert next_key(key, tok, m.window) == m.key_of(history + [tok])
    for public, row_at, fresh_at in (
        (m.next_token_probs, m.probs_at, fresh.probs_at),
        (m.next_token_logits, m.logits_at, fresh.logits_at),
        (m.next_token_cdf, m.cdf_at, fresh.cdf_at),
    ):
        want = public(history)
        assert row_at(key) is want
        np.testing.assert_array_equal(fresh_at(fresh.key_of(history)), want)


@st.composite
def ngram_models(draw):
    """Two equal n-gram models (orders 1-3, mu 0 or above 0) over 2-7
    tokens, and histories of 0-5 ids: shorter than the window and longer."""
    v = draw(st.integers(2, 7))
    vocab = make_vocab(v)
    ids = st.integers(0, v - 1)
    order = draw(st.integers(1, 3))
    corpus = draw(st.lists(st.lists(ids, min_size=1, max_size=8), min_size=1, max_size=6))
    private = draw(st.lists(st.lists(ids, min_size=1, max_size=6), min_size=1, max_size=3))
    mu = draw(st.sampled_from([0.0, 0.3, 1.0]))

    def build():
        m = train_ngram(corpus, vocab, order, 0.5)
        return condition_private(m, PrivateContext.from_documents(private), mu) if mu else m

    histories = draw(st.lists(st.lists(ids, max_size=5), min_size=1, max_size=8))
    return build(), build(), histories, draw(ids)


class TestRowLayer:
    """The unchecked row layer the protocol cores call gives exactly the
    rows of the checked public layer."""

    @settings(max_examples=150, deadline=None)
    @given(ngram_models())
    def test_ngram(self, case):
        m, fresh, histories, tok = case
        for history in histories:
            assert_rows_equal_public(m, fresh, history, tok)
            assert len(m.key_of(history)) == m.window

    @settings(max_examples=150, deadline=None)
    @given(sparse_tables(), st.data())
    def test_table(self, table, data):
        vocab, rows, histories = table
        m, fresh = TableModel(vocab, rows), TableModel(vocab, rows)
        tok = data.draw(st.integers(0, vocab.size - 1))
        for history in histories:
            assert_rows_equal_public(m, fresh, history, tok)
            assert len(m.key_of(history)) == min(m.window, len(history))
        # Resolving keys stores nothing: a table holds only its own rows.
        assert m._rows.keys() == rows.keys() and fresh._rows.keys() == rows.keys()

    def test_public_override_is_not_skipped(self):
        # A subclass that overrides a public method does not serve the row
        # layer, so the cores reach the override through PublicRows; one
        # that overrides only the row layer still serves it.
        class PublicOverride(TableModel):
            def next_token_logits(self, history):
                return super().next_token_logits(history)

        class RowOverride(TableModel):
            def logits_at(self, key):
                return super().logits_at(key)

        vocab = make_vocab(3)
        rows = {(): [0.2, 0.3, 0.5]}
        for cls, serves in ((TableModel, True), (RowOverride, True), (PublicOverride, False)):
            m = cls(vocab, rows)
            assert serves_rows(m) is serves
            assert (model_rows(m) is m) is serves
        assert isinstance(model_rows(PublicOverride(vocab, rows)), PublicRows)

    def test_exact_partition_fn_checks_ids(self, world):
        vocab = make_vocab(3)
        table = TableModel(vocab, {(): [0.2, 0.3, 0.5], (1,): [0.5, 0.3, 0.2]})
        for triple in ((table,) * 3, (world.llm, world.slm_plus, world.slm_minus)):
            zt = exact_partition_fn(*triple)
            size = triple[0].vocab.size
            assert zt([0]) > 0
            for bad in ([size], [0, size], [-1]):
                with pytest.raises(ModelError, match="unknown token id"):
                    zt(bad)
        assert table._rows.keys() == {(), (1,)}

    def test_public_rows_adapter(self, world):
        # A model whose class has no row layer is scored through its public
        # methods, at the tail of the history its window covers.
        class Wrapped:
            def __init__(self, model):
                self.window, self._m = model.window, model

            def next_token_probs(self, history):
                assert len(history) <= self.window
                return self._m.next_token_probs(history)

            next_token_logits = next_token_probs

        m = world.llm
        for model in (Wrapped(m), Wrapped(TableModel(make_vocab(3), {(): [0.2, 0.3, 0.5]}))):
            rows = model_rows(model)
            assert isinstance(rows, PublicRows) and model_rows(m) is m
            for history in ([], [4], [4, 9, 12, 3]):
                key = rows.key_of(history)
                assert key == tuple(history[-rows.window:] if rows.window else ())
                probs = model.next_token_probs(key)
                assert rows.probs_at(key) is probs
                assert rows.cdf_at(key) == probs.cumsum().tolist()


class TestTableModel:
    def test_single_row_roundtrip(self):
        vocab = vocab_of(["a", "b"])
        m = TableModel(vocab, {(): [0.5, 0.3, 0.2]})
        np.testing.assert_allclose(
            softmax(m.next_token_logits([0, 1])), [0.5, 0.3, 0.2], atol=1e-9
        )

    def test_fallback_to_shorter_window(self):
        vocab = vocab_of(["a", "b"])
        m = TableModel(vocab, {(): [0.5, 0.3, 0.2], (1,): [0.1, 0.8, 0.1]})
        np.testing.assert_allclose(m.next_token_probs([0, 1]), [0.1, 0.8, 0.1])
        np.testing.assert_allclose(m.next_token_probs([2, 0]), [0.5, 0.3, 0.2])

    def test_two_token_window_preferred(self):
        vocab = vocab_of(["a", "b"])
        m = TableModel(
            vocab,
            {(): [1 / 3] * 3, (1,): [0.1, 0.8, 0.1], (0, 1): [0.7, 0.2, 0.1]},
        )
        np.testing.assert_allclose(m.next_token_probs([2, 0, 1]), [0.7, 0.2, 0.1])

    @pytest.mark.parametrize("key", [(-1, 0), (0, 3), (3,), (BOS,), (2**40,), (1.0,), (True,),
                                     (np.int64(1),), ("a",), "ab"])
    def test_row_key_outside_the_vocabulary(self, key):
        # Every stored key must be a row key the protocol cores could carry:
        # a tuple of int ids below the vocabulary size.
        with pytest.raises(ModelError, match="row key"):
            TableModel(make_vocab(3), {(): [0.2, 0.3, 0.5], key: [1 / 3] * 3})

    def test_requires_fallback_row(self):
        vocab = vocab_of(["a", "b"])
        with pytest.raises(ModelError):
            TableModel(vocab, {(1,): [0.1, 0.8, 0.1]})

    def test_window_limit(self):
        vocab = vocab_of(["a", "b"])
        with pytest.raises(ModelError):
            TableModel(vocab, {(): [1 / 3] * 3, (0, 1, 2): [1 / 3] * 3})

    def test_unknown_token_id(self):
        vocab = vocab_of(["a"])
        m = TableModel(vocab, {(): [0.5, 0.5]})
        with pytest.raises(ModelError):
            m.next_token_probs([9])

    def test_cdf_matches_probs(self):
        vocab = vocab_of(["a", "b"])
        m = TableModel(vocab, {(): [0.5, 0.3, 0.2]})
        np.testing.assert_allclose(
            m.next_token_cdf([]), np.cumsum(m.next_token_probs([])), atol=0
        )


class TestNGramTraining:
    def test_bigram_hand_count(self):
        # corpus "a b a b": window (a) saw b twice; add-1 over V=3.
        vocab = vocab_of(["a", "b"])
        a, b = vocab.id_of("a"), vocab.id_of("b")
        m = train_ngram([[a, b, a, b]], vocab, order=2, add_k=1.0)
        p = m.next_token_probs([a])
        assert p[b] == pytest.approx((2 + 1) / (2 + 1 * 3))

    def test_unigram_hand_count(self):
        # corpus "a a a": P(a) = (3+k)/(3+kV), V=2 here.
        vocab = vocab_of(["a"])
        a = vocab.id_of("a")
        m = train_ngram([[a, a, a]], vocab, order=1, add_k=0.5)
        assert m.next_token_probs([])[a] == pytest.approx(3.5 / (3 + 0.5 * 2))

    def test_empty_corpus_error(self):
        vocab = vocab_of(["a"])
        with pytest.raises(ModelError):
            train_ngram([], vocab, order=1, add_k=1.0)
        with pytest.raises(ModelError):
            train_ngram([[]], vocab, order=1, add_k=1.0)

    def test_training_deterministic(self):
        vocab = vocab_of(["a", "b"])
        docs = [[0, 1, 2], [1, 1, 0]]
        m1 = train_ngram(docs, vocab, order=2, add_k=0.3)
        m2 = train_ngram(docs, vocab, order=2, add_k=0.3)
        for hist in ([], [0], [1], [0, 1]):
            np.testing.assert_array_equal(
                m1.next_token_probs(hist), m2.next_token_probs(hist)
            )

    def test_distributions_valid_everywhere(self):
        vocab = vocab_of(["a", "b", "c"])
        m = train_ngram([[0, 1, 2, 3]], vocab, order=3, add_k=0.1)
        for hist in ([], [0], [3, 2], [1, 1, 1]):
            p = m.next_token_probs(hist)
            assert abs(p.sum() - 1.0) < 1e-9
            assert (p > 0).all()

    def test_bad_order(self):
        vocab = vocab_of(["a"])
        with pytest.raises(ModelError):
            train_ngram([[0]], vocab, order=4, add_k=1.0)

    def test_bad_add_k(self):
        vocab = vocab_of(["a"])
        with pytest.raises(ModelError):
            train_ngram([[0]], vocab, order=1, add_k=0.0)

    @pytest.mark.parametrize("bad", [1.0, 1.5, "3", -1, 3])
    def test_bad_corpus_id(self, bad):
        # The position counts through the documents, joined.
        vocab = vocab_of(["a", "b"])
        with pytest.raises(ModelError, match="corpus token id .* at position 4"):
            train_ngram([[0, 1, 2], [1, bad, 0]], vocab, order=2, add_k=1.0)

    def test_numpy_and_bool_corpus_ids(self):
        vocab = vocab_of(["a", "b"])
        m = train_ngram([[0, True, np.int64(2)]], vocab, order=2, add_k=0.5)
        ref = train_ngram([[0, 1, 2]], vocab, order=2, add_k=0.5)
        for hist in ([], [0], [1], [2]):
            np.testing.assert_array_equal(m.next_token_probs(hist), ref.next_token_probs(hist))

    @pytest.mark.parametrize("bad", [1.0, 1.5, "3", -1, 3])
    def test_bad_history_id(self, bad):
        vocab = vocab_of(["a", "b"])
        m = train_ngram([[0, 1, 2, 1]], vocab, order=3, add_k=1.0)
        for score in (m.next_token_probs, m.next_token_logits, m.next_token_cdf):
            with pytest.raises(ModelError, match="unknown token id"):
                score([0, bad, 1])
            assert score([np.int64(0), True, 1]) is score([0, 1, 1])

    def test_cdf_matches_probs(self):
        vocab = vocab_of(["a", "b"])
        m = train_ngram([[0, 1, 2]], vocab, order=2, add_k=1.0)
        np.testing.assert_allclose(
            m.next_token_cdf([0]), np.cumsum(m.next_token_probs([0])), atol=0
        )


class TestPrivateConditioning:
    def _base(self):
        vocab = vocab_of(["a", "b"])
        return vocab, train_ngram([[1, 2, 1, 2]], vocab, order=1, add_k=1.0)

    def test_mu_zero_equals_base(self):
        vocab, base = self._base()
        plus = condition_private(base, PrivateContext.from_documents([[2]]), mu=0.0)
        for hist in ([], [1], [2]):
            np.testing.assert_array_equal(
                plus.next_token_probs(hist), base.next_token_probs(hist)
            )

    def test_mu_one_private_dominates(self):
        vocab, base = self._base()
        b = vocab.id_of("b")
        plus = condition_private(
            base, PrivateContext.from_documents([[b, b, b, b]]), mu=1.0
        )
        assert plus.next_token_probs([])[b] > base.next_token_probs([])[b]

    def test_hand_blend(self):
        # mu=0.5: P(b) = 0.5*base_P(b) + 0.5*priv_P(b), both add-k tables.
        vocab, base = self._base()
        b = vocab.id_of("b")
        plus = condition_private(base, PrivateContext.from_documents([[b, b]]), mu=0.5)
        base_p = (2 + 1) / (4 + 1 * 3)
        priv_p = (2 + 1) / (2 + 1 * 3)
        assert plus.next_token_probs([])[b] == pytest.approx(0.5 * base_p + 0.5 * priv_p)

    def test_empty_context_with_mu_errors(self):
        _, base = self._base()
        with pytest.raises(ModelError):
            condition_private(base, PrivateContext.from_documents([]), mu=0.5)

    @pytest.mark.parametrize("bad", [1.0, 1.5, "3", -1, 3])
    def test_bad_private_id(self, bad):
        _, base = self._base()
        with pytest.raises(ModelError, match="private token id .* at position 1"):
            condition_private(base, PrivateContext.from_documents([[2], [bad]]), mu=0.5)

    def test_numpy_and_bool_private_ids(self):
        _, base = self._base()
        plus = condition_private(base, PrivateContext.from_documents([[np.int64(2), True]]), mu=0.5)
        ref = condition_private(base, PrivateContext.from_documents([[2, 1]]), mu=0.5)
        for hist in ([], [1], [2]):
            np.testing.assert_array_equal(plus.next_token_probs(hist), ref.next_token_probs(hist))

    def test_base_untouched(self):
        vocab, base = self._base()
        before = base.next_token_probs([]).copy()
        condition_private(base, PrivateContext.from_documents([[2, 2]]), mu=0.9)
        np.testing.assert_array_equal(base.next_token_probs([]), before)
        assert base.mu == 0.0

    def test_reward_zero_at_mu_zero(self):
        vocab, base = self._base()
        plus = condition_private(base, PrivateContext.from_documents([[2]]), mu=0.0)
        r = pmi_reward(plus.next_token_probs([1]), base.next_token_probs([1]))
        assert np.max(np.abs(r)) < 1e-12

    def test_reward_increases_with_mu(self):
        vocab, base = self._base()
        b = vocab.id_of("b")
        ctx = PrivateContext.from_documents([[b, b, b, b, b, b]])
        rewards = []
        for mu in (0.1, 0.5, 0.9):
            plus = condition_private(base, ctx, mu)
            rewards.append(
                pmi_reward(plus.next_token_probs([]), base.next_token_probs([]))[b]
            )
        assert rewards[0] < rewards[1] < rewards[2]


class TestUnseenRows:
    """Every window in neither count table shares one cached row."""

    def _models(self):
        vocab = vocab_of(["a", "b", "c"])
        base = train_ngram([[1, 2, 0], [2, 2, 0]], vocab, order=3, add_k=0.5)
        plus = condition_private(base, PrivateContext.from_documents([[3, 1, 0]]), mu=0.4)
        return base, plus

    @pytest.mark.parametrize("which", [0, 1])
    def test_unseen_windows_share_one_row(self, which):
        m = self._models()[which]
        # (3, 3) and (0, 3) are in no table of either model.
        for score in (m.next_token_probs, m.next_token_logits):
            first = score([3, 3])
            assert score([0, 3]) is first
            assert score([1, 3, 3]) is first
            assert score([1, 2]) is not first

    @pytest.mark.parametrize("which", [0, 1])
    def test_shared_row_equals_a_fresh_computation(self, which):
        m = self._models()[which]
        m.next_token_probs([3, 3])
        m.next_token_logits([0, 3])
        for window in ((3, 3), (0, 3)):
            p = m._probs(window)
            np.testing.assert_array_equal(m.next_token_probs(list(window)), p)
            np.testing.assert_array_equal(
                m.next_token_logits(list(window)), np.log(np.maximum(p, 1e-12))
            )

    def test_private_window_is_not_unseen(self):
        base, plus = self._models()
        # (BOS, 3) starts only the private document.
        assert plus.next_token_probs([3]) is not plus.next_token_probs([3, 3])
        assert base.next_token_probs([3]) is base.next_token_probs([3, 3])

    @pytest.mark.parametrize("history", [[3, 3], [1, 2], []])
    def test_cached_rows_are_read_only(self, history):
        for m in self._models():
            before = m.next_token_probs(history).copy()
            for row in (m.next_token_probs(history), m.next_token_logits(history)):
                with pytest.raises(ValueError):
                    row[0] = 0.5
            np.testing.assert_array_equal(m.next_token_probs(history), before)
