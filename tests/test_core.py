import numpy as np
import pytest
from hypothesis import given, strategies as st

from specsteer.core import (
    DistributionError,
    ConfigError,
    ProtocolConfig,
    ROLE_DRAFT,
    ROLE_RECOVERY,
    ROLE_VERIFY,
    SCALAR_DRAWS,
    UNIFORM_BLOCK,
    RngStreams,
    SequenceError,
    UniformStream,
    VocabError,
    Vocabulary,
    check_distribution,
    clamp_probs,
    greedy_pick,
    kl_divergence,
    log_softmax,
    make_streams,
    sample,
    sample_many,
    softmax,
    stream,
    total_variation,
    uniform_stream,
    validate_sequence,
)
from specsteer.protocol import run_session

from conftest import random_table_triple


class TestVocabulary:
    def test_build_sorted_union_with_eos(self):
        vocab = Vocabulary.build([["b", "a"], ["c"]])
        assert vocab.tokens == ("</s>", "a", "b", "c")
        assert vocab.tokens[vocab.eos_id] == "</s>"

    def test_lookup_roundtrip(self):
        vocab = Vocabulary.build([["a", "b"]])
        assert vocab.text_of(vocab.ids_of(["a", "b"])) == "a b"

    def test_build_from_a_generator(self):
        vocab = Vocabulary.build(doc.split() for doc in ["b a", "", "c a"])
        assert vocab.tokens == ("</s>", "a", "b", "c")

    def test_unknown_token(self):
        vocab = Vocabulary.build([["a"]])
        with pytest.raises(VocabError):
            vocab.id_of("zzz")

    def test_ids_of_names_unknown_token(self):
        vocab = Vocabulary.build([["a", "b"]])
        assert vocab.ids_of(iter(["b", "a"])) == [2, 1]
        with pytest.raises(VocabError, match="'zzz'"):
            vocab.ids_of(["a", "zzz", "b"])

    def test_duplicate_tokens_rejected(self):
        with pytest.raises(VocabError):
            Vocabulary(tokens=("a", "a"), eos_id=0)

    def test_eos_out_of_range(self):
        with pytest.raises(VocabError):
            Vocabulary(tokens=("a",), eos_id=3)


class TestSequenceValidation:
    def test_ok(self):
        vocab = Vocabulary.build([["a", "b"]])
        validate_sequence([1, 2, 0], vocab)

    def test_out_of_range(self):
        vocab = Vocabulary.build([["a"]])
        with pytest.raises(SequenceError):
            validate_sequence([5], vocab)

    def test_token_after_eos(self):
        vocab = Vocabulary.build([["a"]])
        with pytest.raises(SequenceError):
            validate_sequence([vocab.eos_id, 1], vocab)

    def test_length_cap(self):
        vocab = Vocabulary.build([["a"]])
        with pytest.raises(SequenceError):
            validate_sequence([1, 1, 1], vocab, max_len=2)


class TestProtocolConfig:
    def test_defaults(self):
        cfg = ProtocolConfig()
        assert cfg.lam == 0.5
        assert cfg.beta == 1.0
        assert cfg.horizon_k == 4
        assert cfg.top_k == 32
        assert cfg.max_len == 1024
        cfg.validate(100)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lam": 0.0},
            {"lam": -1.0},
            {"beta": -0.5},
            {"horizon_k": 0},
            {"top_k": 0},
            {"max_len": 0},
            {"decode_mode": "beam"},
            {"seed": -1},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            ProtocolConfig(**kwargs).validate(100)

    def test_top_k_exceeds_vocab(self):
        with pytest.raises(ConfigError):
            ProtocolConfig(top_k=200).validate(100)


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(softmax([0.0, 0.0, 0.0]), [1 / 3] * 3)

    def test_extreme_logits_no_overflow(self):
        p = softmax([1000.0, 0.0, -1000.0])
        assert p[0] == pytest.approx(1.0)
        assert p[1] == pytest.approx(0.0, abs=1e-300)

    def test_hand_value(self):
        # exp(1)+exp(2)+exp(-1) = 10.475217..., normalized by hand.
        p = softmax([1.0, 2.0, -1.0])
        np.testing.assert_allclose(
            p, [0.2594964603424191, 0.7053845126982412, 0.03511902695933972], atol=1e-12
        )

    def test_rejects_non_finite(self):
        with pytest.raises(DistributionError):
            softmax([np.inf, 0.0])
        with pytest.raises(DistributionError):
            softmax([np.nan, 0.0])

    @given(
        st.lists(st.floats(-50, 50), min_size=2, max_size=12),
        st.floats(-100, 100),
    )
    def test_shift_invariance(self, logits, shift):
        a = softmax(np.array(logits))
        b = softmax(np.array(logits) + shift)
        assert np.max(np.abs(a - b)) < 1e-12

    def test_log_softmax_consistency(self):
        h = np.array([0.3, -1.2, 2.0, 0.0])
        np.testing.assert_allclose(np.exp(log_softmax(h)), softmax(h), atol=1e-12)


class TestDistributionChecks:
    def test_rejects_bad_sum(self):
        with pytest.raises(DistributionError):
            check_distribution([0.5, 0.4])

    def test_rejects_negative(self):
        with pytest.raises(DistributionError):
            check_distribution([-0.1, 1.1])

    def test_size_mismatch(self):
        with pytest.raises(DistributionError):
            check_distribution([0.5, 0.5], size=3)

    def test_clamp_floor(self):
        out = clamp_probs(np.array([0.0, 1.0]))
        assert out[0] == 1e-12

    def test_kl_identical_zero(self):
        p = np.array([0.2, 0.3, 0.5])
        assert kl_divergence(p, p) == pytest.approx(0.0, abs=1e-15)

    def test_tv_basic(self):
        assert total_variation(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0


class TestSampling:
    def test_degenerate(self):
        rng = np.random.default_rng(0)
        assert sample(np.array([1.0, 0.0, 0.0]), rng) == 0

    def test_greedy_argmax(self):
        assert greedy_pick(np.array([0.2, 0.5, 0.3])) == 1

    def test_greedy_tie_break_lowest_index(self):
        assert greedy_pick(np.array([0.4, 0.4, 0.2])) == 0

    def test_seed_determinism(self):
        p = np.array([0.1, 0.2, 0.3, 0.4])
        a = [sample(p, stream(7, ROLE_DRAFT)) for _ in range(5)]
        b = [sample(p, stream(7, ROLE_DRAFT)) for _ in range(5)]
        assert a == b

    def test_empirical_frequencies(self):
        p = np.array([0.1, 0.2, 0.3, 0.4])
        rng = stream(123, ROLE_DRAFT)
        draws = sample_many(p, rng, 1_000_000)
        freq = np.bincount(draws, minlength=4) / len(draws)
        assert total_variation(freq, p) < 0.005

    def test_sample_many_matches_sample(self):
        p = np.array([0.25, 0.25, 0.5])
        a = sample_many(p, stream(3, ROLE_VERIFY), 20).tolist()
        b = [sample(p, stream(3, ROLE_VERIFY)) for _ in range(1)]
        assert a[0] == b[0]


class TestStreams:
    def test_roles_distinct(self):
        s = make_streams(42)
        assert s.draft.random() != s.verify.random()

    def test_same_seed_same_stream(self):
        assert stream(9, ROLE_DRAFT).random() == stream(9, ROLE_DRAFT).random()

    def test_different_seeds_differ(self):
        assert stream(1, ROLE_DRAFT).random() != stream(2, ROLE_DRAFT).random()

    @pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1])
    @pytest.mark.parametrize("role", [ROLE_DRAFT, ROLE_VERIFY, ROLE_RECOVERY])
    def test_equals_philox_keyed_stream(self, seed, role):
        keyed = np.random.Generator(np.random.Philox(key=((role + 1) << 64) | seed))
        ours = stream(seed, role)
        for field in ("key", "counter"):
            assert (ours.bit_generator.state["state"][field].tolist()
                    == keyed.bit_generator.state["state"][field].tolist())
        assert ours.random(64).tolist() == keyed.random(64).tolist()
        assert ours.integers(0, 2**63, 16).tolist() == keyed.integers(0, 2**63, 16).tolist()


class TestUniformStream:
    """Block-served draws are the scalar draws of the same stream."""

    @pytest.mark.parametrize("n", [1, SCALAR_DRAWS, SCALAR_DRAWS + 1,
                                   SCALAR_DRAWS + UNIFORM_BLOCK, SCALAR_DRAWS + UNIFORM_BLOCK + 1,
                                   3 * UNIFORM_BLOCK + 7])
    @pytest.mark.parametrize("role", [ROLE_DRAFT, ROLE_VERIFY, ROLE_RECOVERY])
    def test_equals_scalar_draws(self, n, role):
        scalar = stream(2**64 - 3, role)
        served = uniform_stream(2**64 - 3, role)
        got = [served.random() for _ in range(n)]
        assert got == [scalar.random() for _ in range(n)]
        assert all(type(u) is float for u in got)

    def test_make_streams_serves_each_role(self):
        s = make_streams(17)
        for role, served in ((ROLE_DRAFT, s.draft), (ROLE_VERIFY, s.verify),
                             (ROLE_RECOVERY, s.recovery)):
            assert isinstance(served, UniformStream)
            scalar = stream(17, role)
            assert [served.random() for _ in range(100)] == [scalar.random() for _ in range(100)]

    @pytest.mark.parametrize("horizon_k, max_len", [(1, 2), (4, 9)])
    def test_shared_set_across_sessions(self, horizon_k, max_len):
        # Consecutive sessions on one set continue its blocks exactly where
        # scalar Generator draws would be: same outputs, and the same next
        # draw of every role afterwards.
        rng = np.random.default_rng(5)
        vocab, (llm, plus, minus) = random_table_triple(rng, 5)
        cfg = ProtocolConfig(lam=0.7, horizon_k=horizon_k, top_k=5, max_len=max_len, seed=11)
        served = make_streams(11)
        scalar = RngStreams(*(stream(11, r) for r in (ROLE_DRAFT, ROLE_VERIFY, ROLE_RECOVERY)))
        for _ in range(150):
            assert (run_session(cfg, llm, plus, minus, vocab, [0], streams=served)
                    == run_session(cfg, llm, plus, minus, vocab, [0], streams=scalar))
        for role in ("draft", "verify", "recovery"):
            assert getattr(served, role).random() == getattr(scalar, role).random()
