"""Shared value types, numerics, and seeded RNG streams.

Everything downstream (models, fusion math, the protocol engine, the
transport) builds on the primitives here: a shared vocabulary, validated
probability/logit vectors represented as 1-D float64 numpy arrays, a
numerically stable softmax, inverse-CDF sampling, and counter-based
(Philox) random streams split by role so that the in-process engine and
the two-process transport consume identical random numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# Probabilities below this floor are clamped before entering any log or
# ratio denominator.  Ratios of small probabilities are the core of the
# method, so the floor is applied at every division site, never silently
# inside model outputs.
PROB_FLOOR = 1e-12

# Tolerance for "sums to one" checks on distributions.
SUM_TOL = 1e-9

DECODE_MODES = ("stochastic", "greedy")


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
    """Ordered token inventory shared by every model in a session."""

    tokens: tuple[str, ...]
    eos_id: int

    def __post_init__(self) -> None:
        if len(self.tokens) == 0:
            raise VocabError("vocabulary must be nonempty")
        if len(set(self.tokens)) != len(self.tokens):
            raise VocabError("token strings must be unique")
        if not 0 <= self.eos_id < len(self.tokens):
            raise VocabError(f"eos_id {self.eos_id} out of range")
        object.__setattr__(self, "_index", {t: i for i, t in enumerate(self.tokens)})
        object.__setattr__(self, "_ids", frozenset(range(len(self.tokens))))

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


def validate_sequence(ids: Sequence[int], vocab: Vocabulary, max_len: int | None = None) -> None:
    """Enforce the token-sequence invariants: ids in range, length cap, and
    nothing after eos."""
    n = len(ids)
    if max_len is not None and n > max_len:
        raise SequenceError(f"sequence length {n} exceeds cap {max_len}")
    # C-level set operations decide; the loop below only runs to name the
    # position in its error message.
    valid: frozenset[int] = vocab._ids  # type: ignore[attr-defined]
    seen = set(ids)
    eos = vocab.eos_id
    if valid.issuperset(seen) and (eos not in seen or ids.index(eos) == n - 1):
        return
    for pos, i in enumerate(ids):
        if not 0 <= i < vocab.size:
            raise SequenceError(f"token id {i} out of range at position {pos}")
        if i == vocab.eos_id and pos != len(ids) - 1:
            raise SequenceError(f"token follows eos at position {pos}")


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
    """Session hyperparameters.

    ``lam`` is the scalar verification threshold standing in for the
    per-step partition function; ``exact_z`` switches verification to the
    true per-step partition function (analysis mode, in-process only).
    """

    lam: float = 0.5
    beta: float = 1.0
    horizon_k: int = 4
    top_k: int = 32
    max_len: int = 1024
    decode_mode: str = "stochastic"
    seed: int = 0
    exact_z: bool = False

    def validate(self, vocab_size: int | None = None) -> None:
        if not self.lam > 0:
            raise ConfigError("lambda must be > 0")
        if self.beta < 0:
            raise ConfigError("beta must be >= 0")
        if self.horizon_k < 1:
            raise ConfigError("horizon_k must be >= 1")
        if self.top_k < 1:
            raise ConfigError("top_k must be >= 1")
        if vocab_size is not None and self.top_k > vocab_size:
            raise ConfigError(f"top_k {self.top_k} exceeds vocabulary size {vocab_size}")
        if self.max_len < 1:
            raise ConfigError("max_len must be >= 1")
        if self.decode_mode not in DECODE_MODES:
            raise ConfigError(f"decode_mode must be one of {DECODE_MODES}")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must fit in 64 bits")


# ---------------------------------------------------------------------------
# Random streams
# ---------------------------------------------------------------------------

ROLE_DRAFT = 0
ROLE_VERIFY = 1
ROLE_RECOVERY = 2


_U64_MASK = 2**64 - 1


class _PhiloxKey(ISeedSequence):
    """Seed sequence that hands Philox a fixed 128-bit key.

    ``Philox(key=...)`` first builds a ``SeedSequence`` from OS entropy and
    then discards it.  Philox asks its seed sequence for exactly two 64-bit
    words and uses them as the key, so answering with the key's words gives
    the same stream without drawing entropy.
    """

    __slots__ = ("_words",)

    def __init__(self, key: int) -> None:
        self._words = (key & _U64_MASK, key >> 64)

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != 2 or np.dtype(dtype) != np.uint64:
            raise ValueError("a Philox key is two 64-bit words")
        return np.array(self._words, dtype=np.uint64)


def stream(seed: int, role: int) -> np.random.Generator:
    """Counter-based Philox stream for one role of one session.

    The 128-bit key is (role+1) << 64 | seed, so streams for different
    roles of the same session never collide and the edge/cloud processes
    can reconstruct their own streams from the handshake seed alone.  The
    stream equals ``Generator(Philox(key=key))``.
    """
    key = ((role + 1) << 64) | (seed & _U64_MASK)
    return np.random.Generator(np.random.Philox(_PhiloxKey(key)))


# A stream serves its first SCALAR_DRAWS uniforms with one scalar
# ``Generator.random()`` call each, and the rest from blocks of
# UNIFORM_BLOCK, one ``Generator.random(UNIFORM_BLOCK)`` call a block.  A
# block costs about six scalar calls (the NumPy call and the list it
# makes), so a stream that a session draws from only once or twice, as a
# single-step session with its own streams does, never pays for one, and a
# stream drawn from often pays a fraction of a scalar call per draw.  Blocks
# stay small because a caller may hold many stream sets at once (one per
# table triple in the single-step workload).
SCALAR_DRAWS = 4
UNIFORM_BLOCK = 64


def _uniforms(generator: np.random.Generator) -> Iterator[float]:
    draw = generator.random
    for _ in range(SCALAR_DRAWS):
        yield draw()
    while True:
        yield from draw(UNIFORM_BLOCK).tolist()


class UniformStream:
    """The uniforms of one Philox stream, served from blocks after the
    first few.

    ``random()`` returns the same floats, in the same order, as successive
    ``generator.random()`` calls, at a fraction of the cost of a NumPy call
    per draw.  The generator runs up to a block ahead of what has been
    served, so draw only through this object.
    """

    __slots__ = ("random",)

    def __init__(self, generator: np.random.Generator) -> None:
        self.random: Callable[[], float] = _uniforms(generator).__next__


def uniform_stream(seed: int, role: int) -> UniformStream:
    """Block-served uniforms of ``stream(seed, role)``."""
    return UniformStream(stream(seed, role))


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
        draft=uniform_stream(seed, ROLE_DRAFT),
        verify=uniform_stream(seed, ROLE_VERIFY),
        recovery=uniform_stream(seed, ROLE_RECOVERY),
    )


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


def log_softmax(logits: Sequence[float] | np.ndarray) -> np.ndarray:
    h = check_logits(logits)
    shifted = h - h.max()
    return shifted - np.log(np.exp(shifted).sum())


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
    idx = int(np.searchsorted(cdf, u, side="right"))
    return min(idx, len(cdf) - 1)


def sample_many(probs: np.ndarray, rng: np.random.Generator, n: int) -> np.ndarray:
    cdf = np.cumsum(probs)
    u = rng.random(n)
    idx = np.searchsorted(cdf, u, side="right")
    return np.minimum(idx, len(cdf) - 1)
