"""Shared value types, numerics, and seeded RNG streams.

Everything downstream (models, fusion math, the protocol engine, the
transport) builds on the primitives here: a shared vocabulary, validated
probability/logit vectors represented as 1-D float64 numpy arrays, a
numerically stable softmax, inverse-CDF sampling, and counter-based
(Philox) random streams split by role so that the in-process engine and
the two-process transport consume identical random numbers.  A Philox
stream is only a key and a counter, so the streams the protocol draws
from (``UniformStream``) hold no generator: each block of uniforms is
drawn by one process-wide Philox, re-keyed for it under a lock.  Every
token id from outside is checked by one function, ``check_token_ids``.
"""

from __future__ import annotations

import hashlib
import math
import numbers
import operator
import threading
from array import array
from dataclasses import dataclass
from itertools import chain, islice
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

# Probabilities below this floor are clamped before entering any log or
# ratio denominator.  Ratios of small probabilities are the core of the
# method, so the floor is applied at every division site, never silently
# inside model outputs.
PROB_FLOOR = 1e-12

# Tolerance for "sums to one" checks on distributions.
SUM_TOL = 1e-9

DECODE_MODES = ("stochastic", "greedy")

# The widest values the handshake frame holds: it packs ``horizon_k``,
# ``top_k`` and the prompt's length as u16 and ``max_len`` as u32, so a
# config or a prompt past them could not open a session on the wire.
U16_MAX = 0xFFFF
U32_MAX = 0xFFFFFFFF


class SpecSteerError(Exception):
    """Base class for all engine errors."""


class VocabError(SpecSteerError):
    pass


class SequenceError(SpecSteerError):
    pass


class DistributionError(SpecSteerError):
    pass


class ConfigError(SpecSteerError):
    pass


# ---------------------------------------------------------------------------
# Vocabulary and sequences
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Vocabulary:
    """Ordered token inventory shared by every model in a session.
    ``fingerprint``, computed once when the vocabulary is made, is a 64-bit
    hash of its tokens and eos id, which a handshake carries.  Tokens that
    are not unique strings encodable as UTF-8, or an eos id that is not an
    integer in range, raise ``VocabError``."""

    tokens: tuple[str, ...]
    eos_id: int

    def __post_init__(self) -> None:
        tokens = self.tokens
        if len(tokens) == 0:
            raise VocabError("vocabulary must be nonempty")
        if not all(isinstance(t, str) for t in tokens):
            raise VocabError("tokens must be strings")
        if len(set(tokens)) != len(tokens):
            raise VocabError("token strings must be unique")
        try:
            eos = operator.index(self.eos_id)
        except TypeError:
            raise VocabError(f"eos_id must be an integer, got {self.eos_id!r}") from None
        if not 0 <= eos < len(tokens):
            raise VocabError(f"eos_id {eos} out of range")
        object.__setattr__(self, "_index", {t: i for i, t in enumerate(tokens)})
        try:
            digest = hashlib.sha256(b"\x00".join(t.encode("utf-8") for t in tokens))
        except UnicodeEncodeError as exc:
            raise VocabError(f"token {exc.object!r} is not valid UTF-8") from None
        digest.update(eos.to_bytes(4, "little"))
        object.__setattr__(self, "fingerprint", int.from_bytes(digest.digest()[:8], "little"))

    @property
    def size(self) -> int:
        return len(self.tokens)

    def id_of(self, token: str) -> int:
        try:
            return self._index[token]  # type: ignore[attr-defined]
        except KeyError:
            raise VocabError(f"unknown token {token!r}") from None

    def ids_of(self, tokens: Iterable[str]) -> list[int]:
        try:
            return list(map(self._index.__getitem__, tokens))  # type: ignore[attr-defined]
        except KeyError as exc:
            raise VocabError(f"unknown token {exc.args[0]!r}") from None

    def text_of(self, ids: Iterable[int]) -> str:
        return " ".join(self.tokens[i] for i in ids)

    @classmethod
    def build(cls, documents: Iterable[Sequence[str]], eos_token: str = "</s>") -> "Vocabulary":
        """Vocabulary from tokenized documents, eos appended if absent."""
        seen = set(chain.from_iterable(documents))
        seen.add(eos_token)
        tokens = tuple(sorted(seen))
        return cls(tokens=tokens, eos_id=tokens.index(eos_token))


# Longer inputs (prompts, corpora) take one C pass; a loop costs less below.
LOOP_IDS = 96


def check_token_ids(
    ids: Sequence[int], size: int, error: type[SpecSteerError], what: str = "token",
    eos: int | None = None,
) -> None:
    """The one rule for a token id from outside: ``operator.index`` takes it
    (an int, a bool or a NumPy integer; not a float, a str or None) and it
    lies in [0, ``size``); ``eos``, when given, may stand only last.  Else
    ``error`` names the first bad id and its position.  A short input is
    decided by a plain loop, a long one by one C pass: an ``array("Q")``
    filled by ``fromlist`` refuses non-integers and negative values, and
    NumPy scans its buffer (a set would not do: ``{1, 1.0}`` hides the
    float).  ``fromlist`` from a list costs less than ``array("Q", ids)``,
    so a non-list is copied to a list first.  The last loop names the
    culprit, or passes an input whose one eos is last."""
    n = len(ids)
    if n > LOOP_IDS:
        a = array("Q")
        try:
            a.fromlist(ids if type(ids) is list else list(ids))
            u = np.frombuffer(a, np.uint64)
            if u.max() < size and (eos is None or not (u[:-1] == eos).any()):
                return
        except (TypeError, OverflowError):
            pass
    else:
        for i in ids:
            if type(i) is not int or not 0 <= i < size or i == eos:
                break
        else:
            return
    for pos, i in enumerate(ids):
        try:
            i = operator.index(i)
        except TypeError:
            raise error(f"unknown {what} id {i!r} at position {pos}: not an integer") from None
        if not 0 <= i < size:
            raise error(f"unknown {what} id {i} at position {pos}: out of range [0, {size})")
        if i == eos and pos != n - 1:
            raise error(f"{what} after eos at position {pos}")


def check_sequence(ids: Sequence[int], size: int, eos: int, max_len: int | None) -> Sequence[int]:
    """``ids``, once checked against the token-sequence invariants over a
    vocabulary of ``size`` ids whose eos id is ``eos``: the length cap,
    token ids by ``check_token_ids``, and nothing after eos."""
    if max_len is not None and len(ids) > max_len:
        raise SequenceError(f"sequence length {len(ids)} exceeds cap {max_len}")
    check_token_ids(ids, size, SequenceError, "token", eos)
    return ids


def validate_sequence(ids: Sequence[int], vocab: Vocabulary, max_len: int | None = None) -> None:
    """``check_sequence`` over ``vocab``."""
    check_sequence(ids, vocab.size, vocab.eos_id, max_len)


@dataclass(frozen=True)
class PrivateContext:
    """User history documents; lives only on the edge, never on the wire."""

    documents: tuple[tuple[int, ...], ...]
    identifier: str = ""

    @classmethod
    def from_documents(cls, docs: Iterable[Sequence[int]], identifier: str = "") -> "PrivateContext":
        return cls(documents=tuple(tuple(d) for d in docs), identifier=identifier)


# ---------------------------------------------------------------------------
# Protocol configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProtocolConfig:
    """Session hyperparameters, valid once made: ``__post_init__`` makes
    the integer fields plain ints by the rule token ids use
    (``operator.index``), requires real ``lam`` and ``beta`` and runs
    ``validate``.  So a config with a field of the wrong type or out of
    range raises ``ConfigError`` where it is built, by
    ``dataclasses.replace`` and by the handshake decoder too.  Only
    ``top_k`` against the vocabulary is left to the session that knows it.

    The fields are exactly the handshake's, and each range fits its field
    there (``U16_MAX``, ``U32_MAX``), so every config that can be made
    runs on every backend.  ``lam`` is the scalar verification threshold
    standing in for the per-step partition function; exact-Z verification
    (analysis mode, in process only) is chosen by passing the partition
    callback, ``zt_fn``, to ``run_session`` or ``CloudVerifier``, never by
    the config.
    """

    lam: float = 0.5
    beta: float = 1.0
    horizon_k: int = 4
    top_k: int = 32
    max_len: int = 1024
    decode_mode: str = "stochastic"
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("horizon_k", "top_k", "max_len", "seed"):
            value = getattr(self, name)
            if type(value) is not int:
                try:
                    object.__setattr__(self, name, operator.index(value))
                except TypeError:
                    raise ConfigError(f"{name} must be an integer, got {value!r}") from None
        for name in ("lam", "beta"):
            value = getattr(self, name)
            # float first: the ABC check costs ten times as much.
            if not isinstance(value, (float, numbers.Real)):
                raise ConfigError(f"{name} must be a real number, got {value!r}")
        self.validate()

    def validate(self) -> None:
        if not (self.lam > 0 and math.isfinite(self.lam)):
            raise ConfigError("lambda must be finite and > 0")
        if not (self.beta >= 0 and math.isfinite(self.beta)):
            raise ConfigError("beta must be finite and >= 0")
        if not 1 <= self.horizon_k <= U16_MAX:
            raise ConfigError(f"horizon_k must be >= 1 and <= {U16_MAX}")
        if not 1 <= self.top_k <= U16_MAX:
            raise ConfigError(f"top_k must be >= 1 and <= {U16_MAX}")
        if not 1 <= self.max_len <= U32_MAX:
            raise ConfigError(f"max_len must be >= 1 and <= {U32_MAX}")
        if self.decode_mode not in DECODE_MODES:
            raise ConfigError(f"decode_mode must be one of {DECODE_MODES}")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must fit in 64 bits")

    def check_top_k(self, vocab_size: int) -> None:
        """Raise ``ConfigError`` unless ``top_k`` fits a vocabulary of
        ``vocab_size`` tokens: the one check a session makes of its config."""
        if self.top_k > vocab_size:
            raise ConfigError(f"top_k {self.top_k} exceeds vocabulary size {vocab_size}")


# ---------------------------------------------------------------------------
# Random streams
# ---------------------------------------------------------------------------

ROLE_DRAFT = 0
ROLE_VERIFY = 1
ROLE_RECOVERY = 2


_U64_MASK = 2**64 - 1


def stream(seed: int, role: int) -> np.random.Generator:
    """Counter-based Philox stream for one role of one session.

    The 128-bit key is (role+1) << 64 | seed, so streams for different
    roles of the same session never collide and the edge/cloud processes
    can reconstruct their own streams from the handshake seed alone.
    """
    return np.random.Generator(np.random.Philox(key=((role + 1) << 64) | (seed & _U64_MASK)))


# A stream is served in blocks of UNIFORM_BLOCK uniforms.  Philox makes
# four 64-bit words per counter step and a uniform takes one word, so a
# block that is a multiple of four ends on a counter step, and block ``n``
# is exactly what a Philox at counter ``n * UNIFORM_BLOCK // 4``, its buffer
# empty, draws next.  Blocks stay small because a caller may hold many
# stream sets at once (one per table triple in the single-step workload).
UNIFORM_BLOCK = 64
_STEPS_PER_BLOCK = UNIFORM_BLOCK // 4
assert UNIFORM_BLOCK % 4 == 0

# One Philox, re-keyed for every block under a lock: the cloud and the edge
# of a wire session draw from two threads, and a new thread builds none.
_philox = np.random.Generator(np.random.Philox(0))
_philox_lock = threading.Lock()


def uniform_block(seed: int, role: int, counter: int) -> list[float]:
    """The block of ``stream(seed, role)`` that starts at Philox counter
    ``counter``: the shared Philox, re-keyed through its ``state`` setter,
    draws it.  Re-keying costs a fraction of building a stream."""
    state = {
        "bit_generator": "Philox",
        "state": {"counter": (counter & _U64_MASK, counter >> 64, 0, 0), "key": (seed, role + 1)},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    with _philox_lock:
        _philox.bit_generator.state = state
        block = _philox.random(UNIFORM_BLOCK)
    return block.tolist()


def _uniforms(seed: int, role: int) -> Iterator[float]:
    # A generator's body runs at its first next(), so the first block is
    # drawn at the first draw: a stream a session never draws from (the
    # recovery stream of a session with no rejection) costs nothing.
    seed &= _U64_MASK
    counter = 0
    while True:
        yield from uniform_block(seed, role, counter)
        counter += _STEPS_PER_BLOCK


class UniformStream:
    """The uniforms of ``stream(seed, role)``, served a block at a time.

    ``random()`` returns the same floats, in the same order, as successive
    ``stream(seed, role).random()`` calls.  A stream keeps no Philox of its
    own, only its seed, role and block counter: each block is drawn by
    ``uniform_block`` at the stream's first draw from it.
    """

    __slots__ = ("random",)

    def __init__(self, seed: int, role: int) -> None:
        self.random: Callable[[], float] = _uniforms(seed, role).__next__


@dataclass
class RngStreams:
    """One session's streams by role.  The blocks live here, not in a
    session, so consecutive sessions that share a set (as the single-step
    law checks do) continue one stream each."""

    draft: UniformStream
    verify: UniformStream
    recovery: UniformStream


def make_streams(seed: int) -> RngStreams:
    return RngStreams(
        draft=UniformStream(seed, ROLE_DRAFT),
        verify=UniformStream(seed, ROLE_VERIFY),
        recovery=UniformStream(seed, ROLE_RECOVERY),
    )


# ---------------------------------------------------------------------------
# Bounded caches
# ---------------------------------------------------------------------------


def evict_oldest(cache: dict) -> None:
    """Drop the first entry of ``cache`` in iteration order: the oldest for
    a dict used first-in first-out, and the least recently used for one
    whose hits move their entry to the end.  The key is read and removed
    by single C-level calls, so a thread that changes ``cache`` meanwhile
    cannot make this raise."""
    for key in list(islice(cache, 1)):
        cache.pop(key, None)


# ---------------------------------------------------------------------------
# Distributions and logits
# ---------------------------------------------------------------------------


def check_logits(values: Sequence[float] | np.ndarray, size: int | None = None) -> np.ndarray:
    h = np.asarray(values, dtype=np.float64)
    if h.ndim != 1:
        raise DistributionError("logit vector must be 1-D")
    if size is not None and h.shape[0] != size:
        raise DistributionError(f"logit vector has length {h.shape[0]}, expected {size}")
    if not np.all(np.isfinite(h)):
        raise DistributionError("logit vector contains non-finite entries")
    return h


def check_distribution(probs: Sequence[float] | np.ndarray, size: int | None = None) -> np.ndarray:
    p = np.asarray(probs, dtype=np.float64)
    if p.ndim != 1:
        raise DistributionError("distribution must be 1-D")
    if size is not None and p.shape[0] != size:
        raise DistributionError(f"distribution has length {p.shape[0]}, expected {size}")
    if not np.all(np.isfinite(p)):
        raise DistributionError("distribution contains non-finite entries")
    if np.any(p < 0) or np.any(p > 1 + SUM_TOL):
        raise DistributionError("distribution entries outside [0, 1]")
    if abs(float(p.sum()) - 1.0) > SUM_TOL:
        raise DistributionError(f"distribution sums to {p.sum()!r}, not 1")
    return p


def clamp_probs(p: np.ndarray) -> np.ndarray:
    """Apply the probability floor before logs or ratio denominators."""
    return np.maximum(p, PROB_FLOOR)


def softmax(logits: Sequence[float] | np.ndarray) -> np.ndarray:
    """Max-subtracted exp-normalization; rejects non-finite input."""
    h = check_logits(logits)
    z = np.exp(h - h.max())
    return z / z.sum()


def kl_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """KL(p || q) in nats with floor-clamped arguments."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    pc = clamp_probs(p)
    qc = clamp_probs(q)
    return float(np.sum(p * (np.log(pc) - np.log(qc))))


def total_variation(p: np.ndarray, q: np.ndarray) -> float:
    return 0.5 * float(np.abs(np.asarray(p, dtype=np.float64) - np.asarray(q, dtype=np.float64)).sum())


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def greedy_pick(probs: np.ndarray) -> int:
    """Argmax with lowest-index tie-break."""
    return int(np.argmax(probs))


def sample(probs: np.ndarray, rng: np.random.Generator | UniformStream) -> int:
    """Single inverse-CDF draw; deterministic given the stream state."""
    cdf = np.cumsum(probs)
    u = rng.random()
    # The method skips the dispatch layer of the np.searchsorted function.
    idx = int(cdf.searchsorted(u, side="right"))
    return min(idx, len(cdf) - 1)
