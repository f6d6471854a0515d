"""The draft-verify-recover session state machine.

The edge side owns the private drafter and the recovery sampler; the
cloud side owns the large prior and the generic baseline and issues
verdicts.  The draft, scan and commit logic exists once, as the cores of a
``SessionRecord``: the vocabulary constants and recovery caches of one
model set, memoized per model set and vocabulary.  The cores read their config
constants from the ``ProtocolConfig`` they are passed, which was checked
when it was made.  The edge's round loop exists once too, as ``drive``:
draft, hand the draft to a verify step, commit, until the session ends.
``run_session`` passes it the scan core itself; the transport module's
edge passes a frame exchange with the cloud's ``CloudVerifier``, a checked
view over the same scan core, over a socket or over the simulated
channel, which calls the cloud's frame handler directly in one thread.
So the execution modes are equivalent by construction (same loop, same
random streams, same draw order).  ``EdgeSession`` is the edge's side in
message form, for callers that drive an edge and a ``CloudVerifier`` by
hand.

A steering payload takes one form between cloud and edge in every
backend: the packed entry section of a verdict frame (``entries_struct``),
which the cloud packs once per cache entry and the edge decodes and checks
on a recovery-cache miss.  ``SparseSteeringPayload`` is its float64
reference, for analysis and tests.

Token ids are checked once, where they enter, by ``core.check_token_ids``:
the prompt when a session starts (``SessionRecord.start``, the one intake
of every backend), every draft id, recovery delta and trailing id at
cloud ingest, and every steering entry when the edge decodes it.  Tokens
the edge samples itself are trusted.  So the cores score through the
models' unchecked row layer (``key_of`` and ``probs_at``/``logits_at``/
``cdf_at``): each core carries one row key per model and extends it one
token at a time (``models.next_key``), so a round costs O(K + window)
whatever the history length.  A model whose class has no row layer is
scored through ``models.PublicRows``.
"""

from __future__ import annotations

import math
import struct
import weakref
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import accumulate
from typing import Callable, Sequence

import numpy as np

from .core import (
    PROB_FLOOR,
    ROLE_VERIFY,
    U16_MAX,
    ProtocolConfig,
    RngStreams,
    SequenceError,
    SpecSteerError,
    UniformStream,
    Vocabulary,
    check_sequence,
    check_token_ids,
    evict_oldest,
    greedy_pick,
    make_streams,
    sample,
    softmax,
)
from .models import model_rows, next_key, serves_rows

# The frame layout, little-endian, which the transport's codec packs and
# round traces count: the header (magic, version, message type, payload
# length), then a draft's seq_no and id count before its u32 ids, or a
# verdict's seq_no, accepted count and recovery flag before any entries.
FRAME_HEADER = struct.Struct("<4sBBI")
DRAFT_FIXED = struct.Struct("<IH")
VERDICT_FIXED = struct.Struct("<IHB")
STEERING_ENTRY_BYTES = 8  # token id u32 + value binary32
# The bytes of a draft frame before its ids, and of a verdict frame before
# any entry section, added up once: every round's trace reads them.
_DRAFT_HEAD = FRAME_HEADER.size + DRAFT_FIXED.size
_VERDICT_HEAD = FRAME_HEADER.size + VERDICT_FIXED.size


class ProtocolStateError(SpecSteerError):
    pass


# ---------------------------------------------------------------------------
# Messages
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DraftBatch:
    """Uplink unit: bare token ids, nothing else."""

    seq_no: int
    token_ids: tuple[int, ...]


@lru_cache(maxsize=256)
def entries_struct(n: int) -> struct.Struct:
    """The packed form of n steering entries: each a u32 token id and an
    IEEE-754 binary32 value, little-endian."""
    return struct.Struct("<" + "If" * n)


@dataclass(frozen=True)
class SparseSteeringPayload:
    """Top-k slice of the cloud-side steering term (prior logits minus
    beta times the generic baseline logits) at the rejected position, in
    float64: the reference ``recover`` and ``recovery_law`` read.  Sessions
    hold only its packed entry section (``pack_steering_entries``).

    Entries are (token_id, value), sorted by descending value with
    token-id tie-break, unique ids.
    """

    entries: tuple[tuple[int, float], ...]


@dataclass(frozen=True)
class Verdict:
    """Downlink unit: the accepted count and, after a rejection, the
    steering payload as its packed entry section, undecoded."""

    seq_no: int
    accepted_count: int
    recovery: bytes | None


@dataclass
class RoundTrace:
    """One round, made by ``round_trace`` on either side.  ``alphas`` is
    cloud-only, one per scored position: alphas never cross the wire, so an
    edge's trace has none."""

    index: int
    drafted: tuple[int, ...]
    alphas: tuple[float, ...]
    accepted_count: int
    recovery_token: int | None
    uplink_bytes: int
    downlink_bytes: int


def draft_frame_bytes(k: int, has_delta: bool) -> int:
    return _DRAFT_HEAD + 4 * k + (4 if has_delta else 0)


def verdict_frame_bytes(n_entries: int) -> int:
    # After a rejection, a u16 entry count and the entries.
    return _VERDICT_HEAD + (2 + STEERING_ENTRY_BYTES * n_entries if n_entries else 0)


def round_trace(
    index: int, drafted: tuple[int, ...], alphas: tuple[float, ...], accepted: int,
    recovery_token: int | None, has_delta: bool, section: bytes | None,
) -> RoundTrace:
    """The trace of round ``index``: ``drafted`` (sent with a history delta
    when ``has_delta``) answered by ``accepted`` and, after a rejection,
    the packed entry ``section``.  Every trace is made here."""
    return RoundTrace(
        index, drafted, alphas, accepted, recovery_token,
        draft_frame_bytes(len(drafted), has_delta),
        verdict_frame_bytes(len(section) // STEERING_ENTRY_BYTES if section is not None else 0),
    )


def history_tail(history: list[int], window: int) -> list[int]:
    """The last ``window`` tokens of ``history`` as a new list (all of it
    when shorter, none when ``window`` is 0).  A model scores it exactly as
    it scores the whole history."""
    # history[-0:] would be the whole list.
    return history[-window:] if window else []


# ---------------------------------------------------------------------------
# Recovery
# ---------------------------------------------------------------------------


def _steering_entries(
    h_llm: np.ndarray, h_minus: np.ndarray, beta: float, top_k: int
) -> tuple[list[int], list[float]]:
    """The ids and the float64 values of the top-k steering entries."""
    values = h_llm - beta * h_minus
    order = np.argsort(-values, kind="stable")[: min(top_k, len(values))]
    return order.tolist(), values[order].tolist()


def build_steering_payload(
    h_llm: np.ndarray, h_minus: np.ndarray, beta: float, top_k: int
) -> SparseSteeringPayload:
    """The float64 reference of the payload a cloud packs for these
    logits."""
    return SparseSteeringPayload(tuple(zip(*_steering_entries(h_llm, h_minus, beta, top_k))))


def pack_steering_entries(ids: Sequence[int], values: Sequence[float]) -> bytes:
    """The entries ``zip(ids, values)`` as a verdict's packed entry section
    (``entries_struct``), the one form a steering payload takes between
    cloud and edge, in every backend.  An id that does not fit a u32, or a
    value that is not finite in binary32, raises ``ProtocolStateError``."""
    flat: list = [None] * (2 * len(ids))
    flat[::2] = ids
    flat[1::2] = values
    try:
        section = entries_struct(len(ids)).pack(*flat)
    except (struct.error, OverflowError):
        section = None
    # Once packed, every finite value is below 3.5e38 (and every id below
    # 2**32), so the sum is finite exactly when every value is.
    if section is None or not math.isfinite(sum(flat)):
        raise ProtocolStateError("steering entry does not fit a u32 id and a finite binary32 value")
    return section


def unpack_steering_entries(section: bytes) -> tuple[tuple[int, ...], tuple[float, ...]]:
    """The ids and the values of a packed entry section, unchecked: the
    inverse of ``pack_steering_entries``."""
    n, rest = divmod(len(section), STEERING_ENTRY_BYTES)
    if rest:
        raise ProtocolStateError("steering section ends in part of an entry")
    flat = entries_struct(n).unpack(section)
    return flat[::2], flat[1::2]


def check_steering_count(n: int, top_k: int) -> None:
    """A steering payload holds between 1 and ``top_k`` entries."""
    if not n:
        raise ProtocolStateError("empty steering payload")
    if n > top_k:
        raise ProtocolStateError(f"steering payload has {n} entries, top_k is {top_k}")


def check_steering_payload(
    ids: Sequence[int], values: Sequence[float], vocab_size: int, top_k: int
) -> None:
    """Steering entries decoded from a packed section must hold at most
    ``top_k`` entries with unique in-vocabulary ids and finite values
    before a recovery reads them.  The edge checks every section it
    decodes, whether it came from the wire or from the cloud in-process."""
    check_steering_count(len(ids), top_k)
    check_token_ids(ids, vocab_size, ProtocolStateError, "steering token")
    # Binary32 values are below 3.5e38, so at most 0xFFFF of them sum to a
    # finite number exactly when each is finite.
    if not math.isfinite(sum(values)):
        bad = next(v for v in values if not math.isfinite(v))
        raise ProtocolStateError(f"steering value {bad} is not finite")
    if len(set(ids)) != len(ids):
        raise ProtocolStateError("steering payload repeats a token id")


def _recovery_state(
    ids: Sequence[int], values: Sequence[float], h_plus: np.ndarray, beta: float, greedy: bool
) -> int | tuple[tuple[int, ...], array, float]:
    """Everything recovery computes before its random draw: the picked id
    when ``greedy``, else the payload's ids, the running sums of their
    weights (float64, held compactly for the edge's cache) and the weights'
    total (see ``_draw_recovery``)."""
    if not ids:
        raise ProtocolStateError("empty steering payload")
    # Only the payload's ids are read from the private logits: item() costs
    # O(top_k), where tolist() or a fancy index would also pay for the
    # vocabulary or for an index array.
    h = h_plus.item
    scores = [v + beta * h(i) for i, v in zip(ids, values)]
    best = max(scores)
    if greedy:
        return min(i for i, s in zip(ids, scores) if s == best)
    # Scores are finite once the entries are checked, so no revalidation on
    # this hot path.  accumulate adds left to right, as a running sum would.
    weights = [math.exp(s - best) for s in scores]
    return tuple(ids), array("d", accumulate(weights)), math.fsum(weights)


def _draw_recovery(
    state: tuple[tuple[int, ...], array, float], rng: np.random.Generator | None
) -> int:
    """Inverse-CDF draw over the payload support of a stochastic
    ``_recovery_state``: bisect_right finds the first running sum above the
    threshold; fsum's total can round above the last sum, and then the pick
    falls back to the last id."""
    assert rng is not None
    ids, sums, total = state
    j = bisect_right(sums, rng.random() * total)
    return ids[j] if j < len(ids) else ids[-1]


def recover(
    payload: SparseSteeringPayload,
    h_plus: np.ndarray,
    beta: float,
    rng: np.random.Generator | None,
    greedy: bool = False,
) -> int:
    """Complete the steering sum with the private term and resample: the
    float64 reference of what ``SessionRecord.recover`` does with a section.

    Tokens outside the payload support are masked out entirely; the edge
    cannot reconstruct the tail of the cloud logits.
    """
    ids, values = [i for i, _ in payload.entries], [v for _, v in payload.entries]
    state = _recovery_state(ids, values, h_plus, beta, greedy)
    return state if greedy else _draw_recovery(state, rng)


def recovery_law(
    payload: SparseSteeringPayload, h_plus: np.ndarray, beta: float, vocab_size: int
) -> np.ndarray:
    """Exact distribution the stochastic recovery samples from, as a dense
    vector over the vocabulary (zero outside the payload support)."""
    ids = [e[0] for e in payload.entries]
    vals = np.array([e[1] for e in payload.entries]) + beta * h_plus[ids]
    p = np.zeros(vocab_size)
    p[ids] = softmax(vals)
    return p


# ---------------------------------------------------------------------------
# Session records and the cores
# ---------------------------------------------------------------------------

# Entries per record of the cloud's steering-payload cache and of the edge's
# recovery cache; the least recently used entry goes first.  See CHANGES.md
# for the hit rates and memory these bounds were chosen from.
PAYLOAD_CACHE_SIZE = 512
RECOVERY_CACHE_SIZE = 512

def _beta_key(beta: float) -> float | tuple[float, float]:
    """``beta`` as a cache key.  A zero keeps its sign, which ``0.0 ==
    -0.0`` would lose, since the two can give steering values that differ
    in the sign of a zero."""
    return beta if beta else (beta, math.copysign(1.0, beta))


class SessionRecord:
    """What every session of one model set and vocabulary shares, memoized
    by ``session_record``: the vocabulary's eos id and size, ``wrap``, and
    the two recovery caches, the cloud's steering payloads (``payload``)
    and the edge's recovery states (``recover``).  A record holds no
    config: a config is valid once made, and the draft, scan and commit
    cores read their constants from the one they are passed.  A record
    references no model either: the cores take the models as arguments.
    Making a record checks that its models share the vocabulary.

    Every session starts with ``start``, which checks its config's
    ``top_k`` and its prompt, and hands the cores its models through
    ``rows``.  The cores score through the models' row layer (``key_of``
    and ``*_at``), which checks no ids: every id they see was checked where
    it entered or sampled by the edge itself.  They carry one row key per
    model and extend it one token at a time.  ``wrap`` is decided once per
    model set: whether some model's class lacks the layer, so that
    ``rows`` gives ``model_rows`` of each model.
    """

    __slots__ = ("eos", "vsize", "wrap", "_payloads", "_states")

    def __init__(self, vocab: Vocabulary, drafter=None, llm=None, slm_minus=None) -> None:
        models = tuple(m for m in (llm, drafter, slm_minus) if m is not None)
        for m in models:
            if m.vocab.tokens != vocab.tokens or m.vocab.eos_id != vocab.eos_id:
                raise ProtocolStateError("models do not share the session vocabulary")
        self.eos = vocab.eos_id
        self.vsize = vocab.size
        self.wrap = not all(map(serves_rows, models))
        self._payloads: dict[tuple, bytes] = {}
        self._states: dict[tuple, int | tuple] = {}

    def payload(
        self,
        h_llm: np.ndarray,
        h_minus: np.ndarray,
        beta: float,
        top_k: int,
        keys: tuple[tuple[int, ...], tuple[int, ...]],
    ) -> bytes:
        """The packed entry section of ``build_steering_payload(h_llm,
        h_minus, beta, top_k)`` for the logits at the row ``keys`` (the
        llm's and slm_minus's), from the cache when it holds it.  A value
        that is not finite in binary32 raises ``ProtocolStateError``.

        A payload is a pure function of the two models' logits at the
        rejected position, beta and top_k, so it is cached under (beta,
        top_k, the two row keys), packed: a hit returns the entry section
        packed on the miss."""
        key = (_beta_key(beta), top_k, keys)
        cache = self._payloads
        section = cache.pop(key, None)
        if section is None:
            section = pack_steering_entries(*_steering_entries(h_llm, h_minus, beta, top_k))
            if len(cache) >= PAYLOAD_CACHE_SIZE:
                evict_oldest(cache)
        cache[key] = section
        return section

    def recover(
        self, section: bytes, key: tuple[int, ...], drafter, beta: float, rng, greedy: bool, top_k: int
    ) -> int:
        """The token recovered from the packed entry ``section`` with the
        logits of ``drafter``'s row layer (``model_rows``) at ``key``, from
        the cache when it holds the state.  Entries that fail
        ``check_steering_payload`` raise ``ProtocolStateError``.

        A recovery's state before its random draw (``_recovery_state``) is a
        pure function of the entry section, beta, the decode mode and the
        drafter's logits at the rejected position.  The checks of the
        section's entries depend on nothing but its bytes, the record's
        vocabulary size and ``top_k``, whose part ``check_verdict`` repeats
        on every verdict.  So the state is cached under (beta, greedy, the
        section, the drafter's row key): a cached state was checked when it
        was cached, and a hit skips the decoding, the checks, the drafter
        call and the sums."""
        ckey = (_beta_key(beta), greedy, section, key)
        cache = self._states
        state = cache.pop(ckey, None)
        if state is None:
            ids, values = unpack_steering_entries(section)
            check_steering_payload(ids, values, self.vsize, top_k)
            state = _recovery_state(ids, values, drafter.logits_at(key), beta, greedy)
            if len(cache) >= RECOVERY_CACHE_SIZE:
                evict_oldest(cache)
        cache[ckey] = state
        return state if greedy else _draw_recovery(state, rng)

    def start(self, config: ProtocolConfig, prompt_ids: Sequence[int]) -> list[int]:
        """A new session's history: the one intake of every session, in
        every backend.  The config's ``top_k`` is checked against the
        vocabulary first; then the prompt is copied to a list, and the copy,
        what the session runs on, is checked: its length against the
        handshake's u16 prompt count, then by ``check_sequence`` (the length
        cap, the ids, eos only last)."""
        config.check_top_k(self.vsize)
        prompt = list(prompt_ids)
        if len(prompt) > U16_MAX:
            raise SequenceError(
                f"prompt of {len(prompt)} ids exceeds the handshake's limit of {U16_MAX}")
        return check_sequence(prompt, self.vsize, self.eos, config.max_len)

    def rows(self, *models) -> tuple:
        """``models`` as the cores score them: themselves, or, when some
        model of the set lacks the row layer, ``model_rows`` of each."""
        return tuple(map(model_rows, models)) if self.wrap else models

    def ended(self, config: ProtocolConfig, history: list[int]) -> bool:
        """Whether a session with this history drafts no more: it ends in
        eos or has reached ``max_len``."""
        return len(history) >= config.max_len or (bool(history) and history[-1] == self.eos)

    def draft(self, config: ProtocolConfig, drafter, history: list[int], rng) -> tuple[int, ...]:
        """Sample up to ``horizon_k`` tokens after ``history`` from the
        drafter's rows, stopping at eos and at ``max_len``; the session
        must not have ended."""
        k = config.max_len - len(history)
        if k > config.horizon_k:
            k = config.horizon_k
        eos = self.eos
        w = drafter.window
        key = drafter.key_of(history)
        greedy = config.decode_mode == "greedy"
        row_at = drafter.probs_at if greedy else drafter.cdf_at
        tokens: list[int] = []
        for left in range(k - 1, -1, -1):
            if greedy:
                tok = greedy_pick(row_at(key))
            else:
                cdf = row_at(key)
                tok = min(bisect_right(cdf, rng.random()), len(cdf) - 1)
            tokens.append(tok)
            # No key past the last token drafted.
            if tok == eos or not left:
                break
            key = next_key(key, tok, w)
        return tuple(tokens)

    def scan(
        self,
        config: ProtocolConfig,
        llm,
        slm_minus,
        zt_fn: Callable[[Sequence[int]], float] | None,
        history: list[int],
        tokens: tuple[int, ...],
        rng,
        seq: int,
        has_delta: bool,
    ) -> tuple[RoundTrace, bytes | None]:
        """Score and scan-accept ``tokens`` drafted after ``history``, which
        this leaves as it was; returns the round's trace (without its
        recovery token) and, when a token was rejected, the steering
        payload's packed entry section.

        Position t is scored from the two models' rows (and, in exact-Z
        mode, by the partition callback ``zt_fn``, which exposes the
        ``window`` it reads) only when the scan reaches it: everything
        drafted after the first rejection is discarded unscored.  Scoring is
        pure, and verify draws stop at the rejection either way, so this
        gives the same alphas and verdicts as scoring every position.
        Nothing about the private drafter distribution enters here.
        """
        lw, mw = llm.window, slm_minus.window
        lkey, mkey = llm.key_of(history), slm_minus.key_of(history)
        llm_at, minus_at = llm.logits_at, slm_minus.logits_at
        prefix = history_tail(history, zt_fn.window) if zt_fn is not None else None
        draw = rng.random
        greedy = config.decode_mode == "greedy"
        alphas: list[float] = []
        accepted = len(tokens)
        section: bytes | None = None
        for t, tok in enumerate(tokens, 1):
            h_llm = llm_at(lkey)
            h_minus = minus_at(mkey)
            lam = zt_fn(prefix) if zt_fn is not None else config.lam
            # Conditionals equal to builtin max/min here, and cheaper.
            p_minus = math.exp(h_minus[tok])
            if p_minus < PROB_FLOOR:
                p_minus = PROB_FLOOR
            alpha = math.exp(h_llm[tok]) / (lam * p_minus)
            if not alpha < 1.0:
                alpha = 1.0
            alphas.append(alpha)
            ok = alpha >= 1.0 if greedy else draw() <= alpha
            if not ok:
                accepted = t - 1
                section = self.payload(h_llm, h_minus, config.beta, config.top_k, (lkey, mkey))
                break
            # No keys past the last position scanned: every token was
            # accepted, and accepted is still their count.
            if t == accepted:
                break
            lkey = next_key(lkey, tok, lw)
            mkey = next_key(mkey, tok, mw)
            if prefix is not None:
                prefix.append(tok)
        trace = round_trace(seq, tokens, tuple(alphas), accepted, None, has_delta, section)
        return trace, section

    def commit(
        self,
        config: ProtocolConfig,
        drafter,
        history: list[int],
        tokens: tuple[int, ...],
        accepted: int,
        section: bytes | None,
        rng,
    ) -> int | None:
        """Append ``tokens[:accepted]`` to ``history`` and, when the packed
        entry ``section`` is given (the draft was rejected at ``accepted``),
        the token recovered with the drafter's rows, which is returned."""
        history.extend(tokens[:accepted])
        if section is None:
            return None
        # The history is now exactly the history at the rejected position,
        # so the private term is scored lazily here, if at all.
        tok = self.recover(
            section, drafter.key_of(history), drafter, config.beta, rng,
            config.decode_mode == "greedy", config.top_k,
        )
        history.append(tok)
        return tok

    def check_extension(
        self,
        config: ProtocolConfig,
        history: list[int],
        delta: int | None,
        tokens: Sequence[int],
        what: str,
    ) -> None:
        """An honest edge sends at most ``horizon_k`` new tokens at a time,
        never past ``max_len``, and none once its history (with the pending
        ``delta``, when given) ends in eos or reaches ``max_len``; anything
        else is refused before it costs a model call."""
        n = len(history)
        last = history[-1] if n else None
        if delta is not None:
            n += 1
            last = delta
        if last == self.eos or n >= config.max_len:
            raise ProtocolStateError(f"{what} arrived after the session ended")
        k = len(tokens)
        if k > config.horizon_k:
            raise ProtocolStateError(f"{what} of {k} tokens exceeds horizon_k {config.horizon_k}")
        if n + k > config.max_len:
            raise ProtocolStateError(
                f"{what} of {k} tokens takes the history to {n + k}, past max_len {config.max_len}"
            )


# Session records, by the ids of the vocabulary and the models they were
# made for.  An entry is the record followed by a weak reference to each of
# those objects, or ``_ABSENT`` for a model not given: nothing an entry
# holds references a model, a dead object's entry is dropped, and a new
# object that reuses a dead one's id does not match the old entry.
_records: dict[tuple, tuple] = {}
# Called like a reference, it gives None: the model not given.
_ABSENT = type(None)


def _forget(key: tuple, ref: weakref.ref) -> None:
    entry = _records.get(key)
    if entry is not None and ref in entry:
        del _records[key]


def session_record(vocab: Vocabulary, drafter=None, llm=None, slm_minus=None) -> SessionRecord:
    """The record of ``vocab`` and the models given, made on first use: an
    edge's names its drafter, a cloud's its (llm, slm_minus) pair, and
    ``run_session``'s all three.  An object that takes no weak reference
    leaves the record unregistered, so its caches last one session."""
    key = (id(vocab), id(drafter), id(llm), id(slm_minus))
    entry = _records.get(key)
    # Every session pays for a lookup: four calls and tests cost less than
    # zipping the references with the objects.
    if entry is not None and entry[1]() is vocab and entry[2]() is drafter:
        if entry[3]() is llm and entry[4]() is slm_minus:
            return entry[0]
    rec = SessionRecord(vocab, drafter, llm, slm_minus)
    forget = partial(_forget, key)
    try:
        refs = [_ABSENT if o is None else weakref.ref(o, forget)
                for o in (vocab, drafter, llm, slm_minus)]
    except TypeError:
        return rec
    _records[key] = (rec, *refs)
    return rec


# ---------------------------------------------------------------------------
# Edge
# ---------------------------------------------------------------------------


def edge_start(
    config: ProtocolConfig, drafter, vocab: Vocabulary, prompt_ids: Sequence[int]
) -> tuple[SessionRecord, object, list[int]]:
    """What an edge session starts from: the drafter's record (its
    vocabulary checked once per drafter and vocabulary), the drafter as the
    cores score it (``SessionRecord.rows``), and the history that
    ``SessionRecord.start`` made of the prompt."""
    rec = session_record(vocab, drafter)
    history = rec.start(config, prompt_ids)
    return rec, rec.rows(drafter)[0], history


def check_verdict(
    config: ProtocolConfig, seq: int, tokens: tuple[int, ...] | None, v_seq: int, accepted: int,
    section: bytes | None,
) -> None:
    """The edge's one check of a verdict from outside, on draft ``seq`` of
    ``tokens`` (None when no draft awaits one): it answers that draft, its
    accepted count is in range, a packed entry section comes exactly with a
    rejection, and holds 1 to ``top_k`` entries.  The entries themselves
    are checked when the commit first recovers from them."""
    if tokens is None or v_seq != seq:
        raise ProtocolStateError("verdict does not match outstanding draft")
    k = len(tokens)
    if not 0 <= accepted <= k:
        raise ProtocolStateError(f"accepted_count {accepted} out of range for batch of {k}")
    if (section is None) != (accepted == k):
        raise ProtocolStateError("recovery payload presence inconsistent with accepted_count")
    if section is not None:
        check_steering_count(len(section) // STEERING_ENTRY_BYTES, config.top_k)


class EdgeSession:
    """The edge's side of a session in message form, for callers that
    interleave it with a ``CloudVerifier`` by hand: ``next_draft`` gives a
    ``DraftBatch`` and ``apply_verdict`` commits the ``Verdict`` on it.
    The package's own sessions run ``drive`` instead; both start from
    ``edge_start`` and run the same cores (``SessionRecord.draft``,
    ``check_verdict``, ``SessionRecord.commit``).
    """

    def __init__(
        self,
        config: ProtocolConfig,
        drafter,
        vocab: Vocabulary,
        prompt_ids: Sequence[int],
        streams: RngStreams | None = None,
    ) -> None:
        self._rec, self._rows, self.committed = edge_start(config, drafter, vocab, prompt_ids)
        self.config = config
        self.seq_no = 0
        self.pending_delta: int | None = None
        rngs = streams if streams is not None else make_streams(config.seed)
        self._draft_rng, self._recovery_rng = rngs.draft, rngs.recovery
        self._outstanding: tuple[int, ...] | None = None

    def take_delta(self) -> int | None:
        delta, self.pending_delta = self.pending_delta, None
        return delta

    def next_draft(self) -> DraftBatch | None:
        """Draft ``seq_no``, or None once the session has ended."""
        rec, config = self._rec, self.config
        if rec.ended(config, self.committed):
            return None
        if self._outstanding is not None:
            raise ProtocolStateError("previous draft awaiting verdict")
        tokens = self._outstanding = rec.draft(config, self._rows, self.committed, self._draft_rng)
        return DraftBatch(self.seq_no, tokens)

    def apply_verdict(self, verdict: Verdict) -> tuple[int, int | None]:
        """Commit ``verdict`` on the outstanding draft: its first
        ``accepted_count`` ids plus, after a rejection, the token recovered
        from its packed entry section.  Returns (accepted, recovery_token).
        A refused verdict leaves the session as it was."""
        tokens, accepted, section = self._outstanding, verdict.accepted_count, verdict.recovery
        config = self.config
        check_verdict(config, self.seq_no, tokens, verdict.seq_no, accepted, section)
        committed = self.committed
        n = len(committed)
        try:
            rec_token = self._rec.commit(
                config, self._rows, committed, tokens, accepted, section, self._recovery_rng
            )
        except ProtocolStateError:
            # A section's entries are checked when first recovered from;
            # one refused then leaves the session as it was.
            del committed[n:]
            raise
        if rec_token is not None:
            self.pending_delta = rec_token
        self.seq_no += 1
        self._outstanding = None
        return accepted, rec_token


# ---------------------------------------------------------------------------
# Cloud
# ---------------------------------------------------------------------------


class CloudVerifier:
    """Verifier-side state machine: scoring up to the first rejection, ratio
    verdicts.

    Sees only token ids and its own two models; keeps a mirror of the
    committed history repaired by the one-token delta riding on the next
    draft frame, and by the DONE message's trailing id.  Every id arriving
    from the edge (prompt, draft, delta, trailing id) is untrusted, and
    ``verify`` (``handle_draft`` in message form) and ``finish`` check it,
    and its length and place in the session, before running the scan core
    (``SessionRecord.scan``) that ``run_session`` calls directly with drafts
    its own edge sampled.  Passing ``zt_fn``, the per-step partition
    callback (``exact_partition_fn``), selects exact-Z verification in
    place of the config's lambda; like the models, it exposes the
    ``window`` it reads.  No handshake carries it, so a wire session's
    cloud verifies with lambda.  The models' vocabularies are checked once
    per model pair and vocabulary; the mirror starts as the history that
    ``SessionRecord.start`` made of the prompt.  Its place in the session
    is ``len(traces)``, the next draft's seq, and ``awaiting_delta``; that
    the session has ended is ``CloudSession.end``, on the wire.
    """

    def __init__(
        self,
        config: ProtocolConfig,
        llm,
        slm_minus,
        vocab: Vocabulary,
        prompt_ids: Sequence[int],
        streams: RngStreams | None = None,
        zt_fn: Callable[[Sequence[int]], float] | None = None,
    ) -> None:
        rec = self._rec = session_record(vocab, llm=llm, slm_minus=slm_minus)
        self.mirror = rec.start(config, prompt_ids)
        self.config = config
        self._rows = rec.rows(llm, slm_minus)
        self.awaiting_delta = False
        self.traces: list[RoundTrace] = []
        self._verify_rng = (
            streams.verify if streams is not None else UniformStream(config.seed, ROLE_VERIFY)
        )
        self._zt_fn = zt_fn

    def verify(
        self, seq_no: int, tokens: tuple[int, ...], history_delta: int | None
    ) -> tuple[int, bytes | None]:
        """Check an untrusted draft, then score and scan-accept it; returns
        (accepted_count, the steering payload's packed entry section or
        None).  A refused draft leaves the verifier as it was."""
        if seq_no != len(self.traces):
            raise ProtocolStateError(
                f"out-of-order draft: got seq {seq_no}, expected {len(self.traces)}"
            )
        if not tokens:
            raise ProtocolStateError("empty draft batch")
        if self.awaiting_delta != (history_delta is not None):
            raise ProtocolStateError("recovery history delta missing or unexpected")
        rec = self._rec
        check_token_ids(tokens, rec.vsize, ProtocolStateError, "draft token", rec.eos)
        mirror = self.mirror
        rec.check_extension(self.config, mirror, history_delta, tokens, "draft")
        n = len(mirror)
        if history_delta is not None:
            check_token_ids((history_delta,), rec.vsize, ProtocolStateError, "history delta")
            mirror.append(history_delta)
        try:
            trace, section = rec.scan(
                self.config, *self._rows, self._zt_fn, mirror, tokens, self._verify_rng,
                seq_no, history_delta is not None,
            )
        except SpecSteerError:
            # A refused scan (a payload that does not pack) takes the delta
            # back out, so the verifier is as it was.
            del mirror[n:]
            raise
        if history_delta is not None:
            self.traces[-1].recovery_token = history_delta
        accepted = trace.accepted_count
        mirror.extend(tokens[:accepted])
        self.awaiting_delta = section is not None
        self.traces.append(trace)
        return accepted, section

    def handle_draft(self, batch: DraftBatch, history_delta: int | None) -> Verdict:
        """``verify`` for a ``DraftBatch``, answered with a ``Verdict``."""
        accepted, section = self.verify(batch.seq_no, batch.token_ids, history_delta)
        return Verdict(batch.seq_no, accepted, section)

    def finish(self, trailing_ids: Sequence[int]) -> None:
        """Apply the final history repair carried by the DONE message: the
        pending recovery token when there is one, and nothing otherwise.
        The token is checked as a one-token draft would be.  Call it once,
        after the last draft: it does not guard against a second call or a
        later draft, which ``CloudSession`` refuses on the wire."""
        want = 1 if self.awaiting_delta else 0
        if len(trailing_ids) != want:
            raise ProtocolStateError(
                f"DONE carries {len(trailing_ids)} trailing ids, expected {want}"
            )
        if want:
            rec = self._rec
            check_token_ids(trailing_ids, rec.vsize, ProtocolStateError, "trailing token")
            rec.check_extension(self.config, self.mirror, None, trailing_ids, "trailing id")
            self.mirror.extend(trailing_ids)
            self.traces[-1].recovery_token = trailing_ids[0]
        self.awaiting_delta = False


# ---------------------------------------------------------------------------
# End-to-end session
# ---------------------------------------------------------------------------


def exact_partition_fn(llm, slm_plus, slm_minus) -> Callable[[Sequence[int]], float]:
    """Per-step true partition function for exact-Z verification; its
    ``window`` covers all three models.  It scores through the models'
    checked public methods, so a ``prefix`` holding an id outside the
    vocabulary raises ``ModelError``."""

    def zt(prefix: Sequence[int]) -> float:
        p_llm = llm.next_token_probs(prefix)
        p_plus = slm_plus.next_token_probs(prefix)
        p_minus = np.maximum(slm_minus.next_token_probs(prefix), PROB_FLOOR)
        return float(np.sum(p_llm * p_plus / p_minus))

    zt.window = max(llm.window, slm_plus.window, slm_minus.window)
    return zt


def drive(
    config: ProtocolConfig, rec: SessionRecord, drafter, history: list[int], rngs: RngStreams,
    verify: Callable[..., tuple[RoundTrace, bytes | None]], llm=None, slm_minus=None, zt_fn=None,
) -> tuple[list[int], list[RoundTrace]]:
    """The edge's round loop, whatever the channel: draft after ``history``,
    hand the draft to ``verify``, commit its outcome, until the session
    ends; returns (history, traces).

    ``verify`` has ``SessionRecord.scan``'s signature and is called with
    ``llm``, ``slm_minus``, ``zt_fn`` and ``rngs.verify``: in process it is
    the scan core itself, and on the wire a frame exchange that returns
    what the cloud's scan did.  It sees ``history`` as committed so far, so
    after a recovery the recovered token, the history delta, is its last
    element.
    """
    draft_rng, verify_rng, recovery_rng = rngs.draft, rngs.verify, rngs.recovery
    traces: list[RoundTrace] = []
    section = None
    while not rec.ended(config, history):
        tokens = rec.draft(config, drafter, history, draft_rng)
        trace, section = verify(
            config, llm, slm_minus, zt_fn, history, tokens, verify_rng, len(traces),
            section is not None,
        )
        trace.recovery_token = rec.commit(
            config, drafter, history, tokens, trace.accepted_count, section, recovery_rng
        )
        traces.append(trace)
    return history, traces


def run_session(
    config: ProtocolConfig,
    llm,
    slm_plus,
    slm_minus,
    vocab: Vocabulary,
    prompt_ids: Sequence[int],
    streams: RngStreams | None = None,
    zt_fn: Callable[[Sequence[int]], float] | None = None,
) -> tuple[list[int], list[RoundTrace]]:
    """Full draft-verify-recover loop until eos or the length cap: ``drive``
    with the scan core as its verify step.  ``zt_fn``, the per-step
    partition callback (``exact_partition_fn(llm, slm_plus, slm_minus)``),
    selects exact-Z verification in place of the config's lambda; the
    wire backends have no such argument.

    Its one history list is both the edge's committed history and the
    cloud's mirror, which are equal in-process: the draft goes straight
    into the scan and the outcome straight into the commit, no messages are
    built, and ids the edge sampled itself are not checked again.  So the
    final repair that the DONE message carries on the wire has nothing to
    do here.
    """
    rec = session_record(vocab, slm_plus, llm, slm_minus)
    history = rec.start(config, prompt_ids)
    rngs = streams if streams is not None else make_streams(config.seed)
    llm, slm_plus, slm_minus = rec.rows(llm, slm_plus, slm_minus)
    return drive(config, rec, slm_plus, history, rngs, rec.scan, llm, slm_minus, zt_fn)


def autoregressive_decode(
    model,
    vocab: Vocabulary,
    prompt_ids: Sequence[int],
    max_len: int,
    mode: str = "stochastic",
    rng: np.random.Generator | None = None,
) -> list[int]:
    """Plain single-model decoding; the baseline the degenerate protocol
    limits collapse to."""
    out = check_sequence(list(prompt_ids), vocab.size, vocab.eos_id, max_len)
    greedy = mode == "greedy"
    while len(out) < max_len and (not out or out[-1] != vocab.eos_id):
        probs = model.next_token_probs(history_tail(out, model.window))
        tok = greedy_pick(probs) if greedy else sample(probs, rng)
        out.append(tok)
    return out
