import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from specsteer.core import (
    DistributionError,
    ConfigError,
    ProtocolConfig,
    ROLE_DRAFT,
    ROLE_RECOVERY,
    ROLE_VERIFY,
    LOOP_IDS,
    UNIFORM_BLOCK,
    RngStreams,
    SequenceError,
    UniformStream,
    VocabError,
    Vocabulary,
    check_distribution,
    check_token_ids,
    clamp_probs,
    greedy_pick,
    kl_divergence,
    make_streams,
    sample,
    softmax,
    stream,
    total_variation,
    uniform_block,
    validate_sequence,
)
from specsteer import core
from specsteer.protocol import CloudVerifier, EdgeSession, run_session
from specsteer.transport import run_simulated_session

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

    @pytest.mark.parametrize("bad", [1.0, 1.5, "3", None])
    def test_non_integer_id(self, bad):
        vocab = Vocabulary.build([["a", "b"]])
        with pytest.raises(SequenceError, match="not an integer"):
            validate_sequence([1, bad, 0], vocab)

    def test_numpy_integers_and_bools_are_ids(self):
        vocab = Vocabulary.build([["a", "b"]])
        validate_sequence([np.int64(1), True, np.uint8(2), 0], vocab)


class TestCheckTokenIds:
    """The one rule for an untrusted token id, on short inputs (the loop)
    and long ones (the C pass), which must agree."""

    SIZE = 7
    LENGTHS = (3, LOOP_IDS + 40)

    @staticmethod
    def ids(n):
        return [i % 5 + 1 for i in range(n)]

    @pytest.mark.parametrize("n", LENGTHS)
    @pytest.mark.parametrize("bad, reason", [
        (1.0, "not an integer"), (1.5, "not an integer"), ("3", "not an integer"),
        (None, "not an integer"), (np.float64(2.0), "not an integer"),
        (-1, "out of range"), (SIZE, "out of range"), (2**64, "out of range"),
    ])
    def test_first_bad_id_named_with_its_position(self, n, bad, reason):
        for pos in (0, n // 2, n - 1):
            ids = self.ids(n)
            ids[pos] = bad
            # A later bad id does not hide the first.
            ids.append(-5)
            with pytest.raises(VocabError, match=rf"unknown thing id .* at position {pos}: {reason}"):
                check_token_ids(ids, self.SIZE, VocabError, "thing")

    @pytest.mark.parametrize("n", LENGTHS)
    def test_integers_of_any_kind_pass(self, n):
        for good in (True, False, np.int64(3), np.uint8(6), np.int32(0)):
            ids = self.ids(n)
            ids[n // 2] = good
            check_token_ids(ids, self.SIZE, VocabError)
            check_token_ids(tuple(ids), self.SIZE, VocabError)

    @pytest.mark.parametrize("n", LENGTHS)
    def test_eos_only_last(self, n):
        ids = self.ids(n) + [0]
        check_token_ids(ids, self.SIZE, SequenceError, eos=0)
        ids[n // 2] = 0
        with pytest.raises(SequenceError, match=f"after eos at position {n // 2}"):
            check_token_ids(ids, self.SIZE, SequenceError, eos=0)
        check_token_ids(ids, self.SIZE, SequenceError)

    def test_empty(self):
        check_token_ids([], 1, SequenceError, eos=0)

    @settings(max_examples=200, deadline=None)
    @given(
        ids=st.lists(st.one_of(
            st.integers(0, SIZE - 1), st.booleans(), st.integers(0, SIZE - 1).map(np.int64),
            st.integers(-2, SIZE + 2), st.floats(-2, SIZE + 2), st.sampled_from(["1", None]),
        ), max_size=2 * LOOP_IDS),
        eos=st.sampled_from([None, 0, SIZE - 1]),
    )
    def test_c_pass_decides_as_the_loop(self, ids, eos):
        # The loop is the reference: long and short, every input gets the
        # same verdict and message whichever path decides it, as a list
        # (which the C pass reads as it is) and as a tuple (which it copies).
        outcomes = []
        for loop_ids in (0, len(ids)):
            for seq in (ids, tuple(ids)):
                with pytest.MonkeyPatch.context() as m:
                    m.setattr(core, "LOOP_IDS", loop_ids)
                    try:
                        check_token_ids(seq, self.SIZE, SequenceError, eos=eos)
                        outcomes.append(None)
                    except SequenceError as exc:
                        outcomes.append(str(exc))
        assert outcomes == outcomes[:1] * 4


class TestProtocolConfig:
    def test_defaults(self):
        cfg = ProtocolConfig()
        assert cfg.lam == 0.5
        assert cfg.beta == 1.0
        assert cfg.horizon_k == 4
        assert cfg.top_k == 32
        assert cfg.max_len == 1024
        cfg.check_top_k(100)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lam": 0.0},
            {"lam": -1.0},
            {"beta": -0.5},
            {"lam": float("nan")},
            {"lam": float("inf")},
            {"beta": float("nan")},
            {"beta": float("inf")},
            {"horizon_k": 0},
            {"top_k": 0},
            {"max_len": 0},
            {"decode_mode": "beam"},
            {"seed": -1},
            {"seed": 2**64},
        ],
    )
    def test_invalid(self, kwargs):
        # A config is valid once made: where it is built and where it is
        # replaced, one field out of range raises.
        with pytest.raises(ConfigError):
            ProtocolConfig(**kwargs)
        with pytest.raises(ConfigError):
            replace(ProtocolConfig(), **kwargs)

    @pytest.mark.parametrize("name", ["horizon_k", "top_k", "max_len", "seed"])
    @pytest.mark.parametrize("value", [2.5, "3", None])
    def test_integer_fields_refuse_non_integers(self, name, value):
        with pytest.raises(ConfigError, match=f"^{name} must be an integer"):
            ProtocolConfig(**{name: value})
        with pytest.raises(ConfigError, match=f"^{name} must be an integer"):
            replace(ProtocolConfig(), **{name: value})

    @pytest.mark.parametrize("kwargs", [{"lam": "0.5"}, {"beta": None}, {"lam": 1j}])
    def test_lam_and_beta_must_be_real(self, kwargs):
        (name,) = kwargs
        with pytest.raises(ConfigError, match=f"^{name} must be a real number"):
            ProtocolConfig(**kwargs)

    def test_integer_fields_become_plain_ints(self, world):
        # A NumPy seed would otherwise overflow in the stream key's mask.
        cfg = ProtocolConfig(lam=0.5, horizon_k=4, top_k=32, max_len=24, seed=2**63 + 5)
        numpy_cfg = ProtocolConfig(lam=np.float64(0.5), horizon_k=np.int64(4), top_k=np.int64(32),
                                   max_len=np.int64(24), seed=np.uint64(2**63 + 5))
        assert numpy_cfg == cfg
        for name in ("horizon_k", "top_k", "max_len", "seed"):
            assert type(getattr(numpy_cfg, name)) is int
        assert ProtocolConfig(horizon_k=np.int64(4)) == ProtocolConfig(horizon_k=4)
        assert ProtocolConfig(max_len=True).max_len == 1
        prompt = world.vocab.ids_of(["we", "ordered", "the"])
        models = (world.llm, world.slm_plus, world.slm_minus, world.vocab, prompt)
        assert run_session(numpy_cfg, *models) == run_session(cfg, *models)

    def test_top_k_exceeds_vocab(self):
        cfg = ProtocolConfig(top_k=200)
        cfg.check_top_k(200)
        with pytest.raises(ConfigError, match="exceeds vocabulary size 100"):
            cfg.check_top_k(100)


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
        rng = UniformStream(123, ROLE_DRAFT)
        draws = [sample(p, rng) for _ in range(1_000_000)]
        freq = np.bincount(draws, minlength=4) / len(draws)
        assert total_variation(freq, p) < 0.005


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

    @pytest.mark.parametrize("n", sorted({1, 4, 5, 68, 69, 199, UNIFORM_BLOCK - 1, UNIFORM_BLOCK,
                                          UNIFORM_BLOCK + 1, 2 * UNIFORM_BLOCK + 1}))
    @pytest.mark.parametrize("role", [ROLE_DRAFT, ROLE_VERIFY, ROLE_RECOVERY])
    def test_equals_scalar_draws(self, n, role):
        scalar = stream(2**64 - 3, role)
        served = UniformStream(2**64 - 3, role)
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


ROLES = (ROLE_DRAFT, ROLE_VERIFY, ROLE_RECOVERY)


@pytest.fixture
def built(monkeypatch):
    """The roles of the streams whose first block was drawn while the test
    runs, in order."""
    roles = []
    real = core.uniform_block

    def counted(seed, role, counter):
        if counter == 0:
            roles.append(role)
        return real(seed, role, counter)

    monkeypatch.setattr(core, "uniform_block", counted)
    return roles


STEPS = UNIFORM_BLOCK // 4  # Philox counter steps per block


class TestKeyedRefills:
    """A block is the next ``UNIFORM_BLOCK`` draws of the stream at its
    counter, whatever this thread's Philox drew before."""

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    @pytest.mark.parametrize("role", ROLES)
    def test_blocks_equal_scalar_draws(self, seed, role):
        scalar = stream(seed, role)
        want = [scalar.random() for _ in range(3 * UNIFORM_BLOCK)]
        # Out of order, and with other keys drawn in between.
        blocks = {}
        for c in (2, 0, 1):
            uniform_block(seed ^ 1, (role + 1) % 3, c * STEPS)
            blocks[c] = uniform_block(seed, role, c * STEPS)
        assert blocks[0] + blocks[1] + blocks[2] == want
        assert all(type(u) is float for u in want)

    def test_counter_past_64_bits(self):
        # A counter past 64 bits carries into Philox's second counter word.
        keyed = np.random.Philox(key=(1 << 64) | 5)
        keyed = np.random.Generator(keyed.advance(2**64))
        assert uniform_block(5, ROLE_DRAFT, 2**64) == keyed.random(UNIFORM_BLOCK).tolist()

    def test_two_threads_draw_interleaved(self):
        # Each thread alternates between two streams and the two threads
        # refill at the same time, block after block.
        n_blocks = 4
        barrier = threading.Barrier(2)
        got: dict = {}

        def drain(seeds):
            streams = [UniformStream(seed, ROLE_VERIFY) for seed in seeds]
            out = {seed: [] for seed in seeds}
            for _ in range(n_blocks):
                barrier.wait(timeout=10)
                for _ in range(UNIFORM_BLOCK):
                    for seed, s in zip(seeds, streams):
                        out[seed].append(s.random())
            got.update(out)

        threads = [threading.Thread(target=drain, args=(seeds,)) for seeds in ((0, 7), (2**64 - 1, 8))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        for seed in (0, 7, 2**64 - 1, 8):
            scalar = stream(seed, ROLE_VERIFY)
            assert got[seed] == [scalar.random() for _ in range(n_blocks * UNIFORM_BLOCK)]

    def test_more_threads_than_cores_under_fast_switching(self):
        # Every block re-keys the one shared Philox: a refill that another
        # thread's re-keying interrupted would draw from the wrong key.
        n_threads, n_blocks = 6, 12
        seeds = list(range(n_threads))
        got: dict = {}

        def drain(seed):
            s = UniformStream(seed, ROLE_DRAFT)
            got[seed] = [s.random() for _ in range(n_blocks * UNIFORM_BLOCK)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=drain, args=(seed,)) for seed in seeds]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for seed in seeds:
            scalar = stream(seed, ROLE_DRAFT)
            assert got[seed] == [scalar.random() for _ in range(n_blocks * UNIFORM_BLOCK)]


class TestLazyStreams:
    """A stream draws its first block at its first draw, and only then."""

    def test_set_up_builds_no_philox(self, built):
        rng = np.random.default_rng(3)
        vocab, (llm, plus, minus) = random_table_triple(rng, 5)
        cfg = ProtocolConfig(lam=0.7, horizon_k=2, top_k=5, max_len=6, seed=9)
        streams = make_streams(9)
        served = [UniformStream(9, role) for role in ROLES]
        edges = [EdgeSession(cfg, plus, vocab, [0], streams=s) for s in (None, streams)]
        clouds = [CloudVerifier(cfg, llm, minus, vocab, [0], streams=s) for s in (None, streams)]
        assert built == []
        served[ROLE_RECOVERY].random()
        streams.verify.random()
        streams.verify.random()
        assert built == [ROLE_RECOVERY, ROLE_VERIFY]
        clouds[0].verify(0, edges[0].next_draft().token_ids, None)
        assert built == [ROLE_RECOVERY, ROLE_VERIFY, ROLE_DRAFT, ROLE_VERIFY]

    @pytest.mark.parametrize("simulated", [False, True])
    def test_all_accepted_session_builds_no_recovery_stream(self, built, simulated):
        # At a vanishing lambda every alpha is 1: every draft is accepted.
        rng = np.random.default_rng(4)
        vocab, (llm, plus, minus) = random_table_triple(rng, 6)
        cfg = ProtocolConfig(lam=1e-12, horizon_k=3, top_k=6, max_len=12, seed=21)
        if simulated:
            committed, edge_stats, _ = run_simulated_session(cfg, llm, plus, minus, vocab, [0])
            traces = edge_stats.traces
        else:
            committed, traces = run_session(cfg, llm, plus, minus, vocab, [0])
        assert traces and all(t.recovery_token is None for t in traces)
        assert ROLE_RECOVERY not in built and {ROLE_DRAFT, ROLE_VERIFY} <= set(built)

    def test_rejection_builds_the_recovery_stream(self, built):
        rng = np.random.default_rng(4)
        vocab, (llm, plus, minus) = random_table_triple(rng, 6)
        cfg = ProtocolConfig(lam=50.0, horizon_k=3, top_k=6, max_len=12, seed=21)
        committed, traces = run_session(cfg, llm, plus, minus, vocab, [0])
        assert any(t.recovery_token is not None for t in traces)
        assert sorted(built) == [ROLE_DRAFT, ROLE_VERIFY, ROLE_RECOVERY]

    @pytest.mark.parametrize("simulated", [False, True])
    def test_greedy_session_builds_no_stream(self, built, simulated):
        rng = np.random.default_rng(6)
        vocab, (llm, plus, minus) = random_table_triple(rng, 6)
        cfg = ProtocolConfig(lam=50.0, horizon_k=3, top_k=6, max_len=12, seed=2,
                             decode_mode="greedy")
        if simulated:
            committed, edge_stats, _ = run_simulated_session(cfg, llm, plus, minus, vocab, [0])
            traces = edge_stats.traces
        else:
            committed, traces = run_session(cfg, llm, plus, minus, vocab, [0])
        assert any(t.recovery_token is not None for t in traces)
        assert built == []

    @pytest.mark.parametrize("seed", [0, 2**63, 2**64 - 1])
    @pytest.mark.parametrize("role", ROLES)
    def test_lazy_start_draws_the_keyed_philox_stream(self, seed, role):
        keyed = np.random.Generator(np.random.Philox(key=((role + 1) << 64) | seed))
        n = 2 * UNIFORM_BLOCK + 1
        want = [keyed.random() for _ in range(n)]
        for served in (UniformStream(seed, role),
                       getattr(make_streams(seed), ("draft", "verify", "recovery")[role])):
            assert [served.random() for _ in range(n)] == want
