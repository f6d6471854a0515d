"""The draft-verify-recover session state machine.

The edge side owns the private drafter and the recovery sampler; the
cloud side owns the large prior and the generic baseline and issues
verdicts.  ``run_session`` wires the two state machines together
in-process; the transport module reuses the exact same machines over a
byte channel, so the two execution modes are equivalent by construction
(same random streams, same draw order).

Models are scored from the tail of the history that their ``window``
covers, so a round costs O(K + window) whatever the history length.  Token
ids are checked once, where they enter: the prompt when a session starts,
and every draft id and recovery delta at cloud ingest.  Tokens the edge
samples itself are trusted.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import (
    PROB_FLOOR,
    ROLE_DRAFT,
    ROLE_RECOVERY,
    ROLE_VERIFY,
    ProtocolConfig,
    RngStreams,
    SpecSteerError,
    Vocabulary,
    greedy_pick,
    make_streams,
    sample,
    softmax,
    stream,
    validate_sequence,
)

FRAME_HEADER_BYTES = 10
DRAFT_PAYLOAD_FIXED = 6   # seq_no u32 + count u16
VERDICT_PAYLOAD_FIXED = 7  # seq_no u32 + accepted u16 + flag u8


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


@dataclass(frozen=True)
class SparseSteeringPayload:
    """Top-k slice of the cloud-side steering term (prior logits minus
    beta times the generic baseline logits) at the rejected position.

    Entries are (token_id, value), sorted by descending value with
    token-id tie-break, unique ids.
    """

    entries: tuple[tuple[int, float], ...]


@dataclass(frozen=True)
class Verdict:
    seq_no: int
    accepted_count: int
    recovery: SparseSteeringPayload | None


@dataclass
class RoundTrace:
    index: int
    drafted: tuple[int, ...]
    alphas: tuple[float, ...]
    accepted_count: int
    recovery_token: int | None
    uplink_bytes: int
    downlink_bytes: int
    clock_ms: float = 0.0


def draft_frame_bytes(k: int, has_delta: bool) -> int:
    return FRAME_HEADER_BYTES + DRAFT_PAYLOAD_FIXED + 4 * k + (4 if has_delta else 0)


def verdict_frame_bytes(n_entries: int) -> int:
    size = FRAME_HEADER_BYTES + VERDICT_PAYLOAD_FIXED
    if n_entries:
        size += 2 + 8 * n_entries
    return size


def history_tail(history: list[int], window: int) -> list[int]:
    """The last ``window`` tokens of ``history`` as a new list (all of it
    when shorter, none when ``window`` is 0).  A model scores it exactly as
    it scores the whole history."""
    # history[-0:] would be the whole list.
    return history[-window:] if window else []


# ---------------------------------------------------------------------------
# Recovery
# ---------------------------------------------------------------------------


def build_steering_payload(
    h_llm: np.ndarray, h_minus: np.ndarray, beta: float, top_k: int
) -> SparseSteeringPayload:
    values = h_llm - beta * h_minus
    order = np.argsort(-values, kind="stable")[: min(top_k, len(values))]
    return SparseSteeringPayload(entries=tuple(zip(order.tolist(), values[order].tolist())))


def check_steering_payload(payload: SparseSteeringPayload, vocab_size: int, top_k: int) -> None:
    """An untrusted payload (one decoded from the wire) must hold at most
    ``top_k`` entries with unique in-vocabulary ids and finite values
    before ``recover`` reads it.  Payloads our own cloud builds in-process
    skip this."""
    entries = payload.entries
    if not entries:
        raise ProtocolStateError("empty steering payload")
    if len(entries) > top_k:
        raise ProtocolStateError(f"steering payload has {len(entries)} entries, top_k is {top_k}")
    for i, v in entries:
        if not 0 <= i < vocab_size:
            raise ProtocolStateError(
                f"steering token id {i} out of range for vocabulary of size {vocab_size}"
            )
        if not math.isfinite(v):
            raise ProtocolStateError(f"steering value {v} for token id {i} is not finite")
    if len({i for i, _ in entries}) != len(entries):
        raise ProtocolStateError("steering payload repeats a token id")


def recover(
    payload: SparseSteeringPayload,
    h_plus: np.ndarray,
    beta: float,
    rng: np.random.Generator | None,
    greedy: bool = False,
) -> int:
    """Complete the steering sum with the private term and resample.

    Tokens outside the payload support are masked out entirely; the edge
    cannot reconstruct the tail of the cloud logits.
    """
    entries = payload.entries
    if not entries:
        raise ProtocolStateError("empty steering payload")
    # Only the payload's ids are read from the private logits: item() costs
    # O(top_k), where tolist() or a fancy index would also pay for the
    # vocabulary or for an index array.
    h = h_plus.item
    scores = [(i, v + beta * h(i)) for i, v in entries]
    if greedy:
        best = max(s for _, s in scores)
        return min(i for i, s in scores if s == best)
    assert rng is not None
    # Inverse-CDF draw over the payload support; scores are our own finite
    # values, so no revalidation on this hot path.
    m = max(s for _, s in scores)
    weights = [math.exp(s - m) for _, s in scores]
    threshold = rng.random() * math.fsum(weights)
    acc = 0.0
    for (i, _), w in zip(scores, weights):
        acc += w
        if acc > threshold:
            return i
    return scores[-1][0]


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
# Edge
# ---------------------------------------------------------------------------


class EdgeSession:
    """Drafter-side state machine: draft, commit verdicts, recover.

    ``checked=True`` skips the config and prompt checks, for a caller that
    has already run them for this session.
    """

    def __init__(
        self,
        config: ProtocolConfig,
        drafter,
        vocab: Vocabulary,
        prompt_ids: Sequence[int],
        streams: RngStreams | None = None,
        *,
        checked: bool = False,
    ) -> None:
        if not checked:
            config.validate(vocab.size)
            validate_sequence(prompt_ids, vocab, config.max_len)
        self.config = config
        self.drafter = drafter
        self.vocab = vocab
        self.committed: list[int] = list(prompt_ids)
        self.prompt_len = len(self.committed)
        self.seq_no = 0
        self.finished = len(self.committed) >= config.max_len
        if self.committed and self.committed[-1] == vocab.eos_id:
            self.finished = True
        self.pending_delta: int | None = None
        if streams is not None:
            self._draft_rng = streams.draft
            self._recovery_rng = streams.recovery
        else:
            self._draft_rng = stream(config.seed, ROLE_DRAFT)
            self._recovery_rng = stream(config.seed, ROLE_RECOVERY)
        self._greedy = config.decode_mode == "greedy"
        self._cdf_fn = getattr(drafter, "next_token_cdf", None)
        self._window = drafter.window
        self._max_len = config.max_len
        self._horizon = config.horizon_k
        self._beta = config.beta
        self._last_batch: DraftBatch | None = None

    def take_delta(self) -> int | None:
        delta, self.pending_delta = self.pending_delta, None
        return delta

    def next_draft(self) -> DraftBatch | None:
        if self.finished:
            return None
        if self._last_batch is not None:
            raise ProtocolStateError("previous draft awaiting verdict")
        budget = self._max_len - len(self.committed)
        k = min(self._horizon, budget)
        tokens: list[int] = []
        hist = history_tail(self.committed, self._window)
        for _ in range(k):
            if self._greedy:
                tok = greedy_pick(self.drafter.next_token_probs(hist))
            elif self._cdf_fn is not None:
                cdf = self._cdf_fn(hist)
                tok = min(bisect_right(cdf, self._draft_rng.random()), len(cdf) - 1)
            else:
                tok = sample(self.drafter.next_token_probs(hist), self._draft_rng)
            tokens.append(tok)
            hist.append(tok)
            if tok == self.vocab.eos_id:
                break
        batch = DraftBatch(self.seq_no, tuple(tokens))
        self._last_batch = batch
        return batch

    def apply_verdict(self, verdict: Verdict) -> tuple[int, int | None]:
        """Commit the accepted prefix plus any recovery token; returns
        (accepted_count, recovery_token)."""
        batch = self._last_batch
        if batch is None or verdict.seq_no != batch.seq_no:
            raise ProtocolStateError("verdict does not match outstanding draft")
        k = len(batch.token_ids)
        a = verdict.accepted_count
        if not 0 <= a <= k:
            raise ProtocolStateError(f"accepted_count {a} out of range for batch of {k}")
        if (verdict.recovery is None) != (a == k):
            raise ProtocolStateError("recovery payload presence inconsistent with accepted_count")
        self.committed.extend(batch.token_ids[:a])
        rec_token: int | None = None
        if verdict.recovery is not None:
            # The committed list is now exactly the history at the rejected
            # position, so the private term is scored lazily here.
            rec_token = recover(
                verdict.recovery,
                self.drafter.next_token_logits(history_tail(self.committed, self._window)),
                self._beta,
                self._recovery_rng,
                greedy=self._greedy,
            )
            self.committed.append(rec_token)
            self.pending_delta = rec_token
        self._last_batch = None
        self.seq_no += 1
        if self.committed[-1] == self.vocab.eos_id or len(self.committed) >= self._max_len:
            self.finished = True
        return a, rec_token


# ---------------------------------------------------------------------------
# Cloud
# ---------------------------------------------------------------------------


class CloudVerifier:
    """Verifier-side state machine: scoring up to the first rejection, ratio
    verdicts.

    Sees only token ids and its own two models; keeps a mirror of the
    committed history repaired by the one-token delta riding on the next
    draft frame.  Every id arriving from the edge (prompt, draft, delta) is
    untrusted and checked here before it reaches a model or an index.
    ``zt_fn``, like the models, exposes the ``window`` it reads.
    ``checked=True`` skips the config and prompt checks, for a caller that
    has already run them for this session.
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
        *,
        checked: bool = False,
    ) -> None:
        if not checked:
            config.validate(vocab.size)
            validate_sequence(prompt_ids, vocab, config.max_len)
        if config.exact_z and zt_fn is None:
            raise ProtocolStateError("exact-Z verification needs a partition callback")
        self.config = config
        self.llm = llm
        self.slm_minus = slm_minus
        self.vocab = vocab
        self.mirror: list[int] = list(prompt_ids)
        self.expected_seq = 0
        self.awaiting_delta = False
        self.traces: list[RoundTrace] = []
        self._verify_rng = (
            streams.verify if streams is not None else stream(config.seed, ROLE_VERIFY)
        )
        self._greedy = config.decode_mode == "greedy"
        self._zt_fn = zt_fn
        self._lam = config.lam
        self._beta = config.beta
        self._top_k = config.top_k
        self._exact_z = config.exact_z
        self._vsize = vocab.size
        # Conditionals, not builtin max: this runs once per session and the
        # single-step session is a hot loop.
        w, w_minus = llm.window, slm_minus.window
        self._window = w if w >= w_minus else w_minus
        if self._exact_z and zt_fn.window > self._window:
            self._window = zt_fn.window

    def _check_ids(self, ids: Sequence[int], what: str) -> None:
        """Untrusted ids must index the vocabulary before any model or
        logit vector sees them.  A plain loop: these are at most K ids, and
        builtin min/max cost more than the loop at that size."""
        vsize = self._vsize
        for i in ids:
            if not 0 <= i < vsize:
                raise ProtocolStateError(
                    f"{what} token id {i} out of range for vocabulary of size {vsize}"
                )

    def handle_draft(self, batch: DraftBatch, history_delta: int | None) -> Verdict:
        """Score and scan-accept the drafted tokens.

        Position t is scored by the two models (and, in exact-Z mode, the
        partition callback) only when the scan reaches it: everything
        drafted after the first rejection is discarded unscored.  Scoring
        is pure, and verify draws stop at the rejection either way, so this
        gives the same alphas and verdicts as scoring every position.
        Nothing about the private drafter distribution enters here.
        """
        if batch.seq_no != self.expected_seq:
            raise ProtocolStateError(
                f"out-of-order draft: got seq {batch.seq_no}, expected {self.expected_seq}"
            )
        tokens = batch.token_ids
        if not tokens:
            raise ProtocolStateError("empty draft batch")
        if self.awaiting_delta != (history_delta is not None):
            raise ProtocolStateError("recovery history delta missing or unexpected")
        self._check_ids(tokens, "draft")
        if history_delta is not None:
            self._check_ids((history_delta,), "history delta")
            self.mirror.append(history_delta)
            self.awaiting_delta = False

        prefix = history_tail(self.mirror, self._window)
        llm_logits = self.llm.next_token_logits
        minus_logits = self.slm_minus.next_token_logits
        rng = self._verify_rng
        alphas: list[float] = []
        k = len(tokens)
        accepted = k
        payload: SparseSteeringPayload | None = None
        for t, tok in enumerate(tokens):
            h_llm = llm_logits(prefix)
            h_minus = minus_logits(prefix)
            lam = self._zt_fn(prefix) if self._exact_z else self._lam
            # Conditionals equal to builtin max/min here, and cheaper.
            p_minus = math.exp(h_minus[tok])
            if p_minus < PROB_FLOOR:
                p_minus = PROB_FLOOR
            alpha = math.exp(h_llm[tok]) / (lam * p_minus)
            if not alpha < 1.0:
                alpha = 1.0
            alphas.append(alpha)
            ok = alpha >= 1.0 if self._greedy else rng.random() <= alpha
            if not ok:
                accepted = t
                payload = build_steering_payload(h_llm, h_minus, self._beta, self._top_k)
                break
            prefix.append(tok)

        self.mirror.extend(tokens[:accepted])
        if payload is not None:
            self.awaiting_delta = True
        self.traces.append(
            RoundTrace(
                index=batch.seq_no,
                drafted=tokens,
                alphas=tuple(alphas),
                accepted_count=accepted,
                recovery_token=None,
                uplink_bytes=draft_frame_bytes(k, history_delta is not None),
                downlink_bytes=verdict_frame_bytes(len(payload.entries) if payload else 0),
            )
        )
        self.expected_seq += 1
        return Verdict(batch.seq_no, accepted, payload)

    def finish(self, trailing_ids: Sequence[int]) -> None:
        """Apply the final history repair carried by the DONE message."""
        if self.awaiting_delta and not trailing_ids:
            raise ProtocolStateError("session ended with unrepaired recovery token")
        self._check_ids(trailing_ids, "trailing")
        self.mirror.extend(trailing_ids)
        self.awaiting_delta = False


# ---------------------------------------------------------------------------
# End-to-end session
# ---------------------------------------------------------------------------


def _check_shared_vocab(vocab: Vocabulary, *models) -> None:
    for m in models:
        if m.vocab.tokens != vocab.tokens or m.vocab.eos_id != vocab.eos_id:
            raise ProtocolStateError("models do not share the session vocabulary")


def exact_partition_fn(llm, slm_plus, slm_minus) -> Callable[[Sequence[int]], float]:
    """Per-step true partition function for exact-Z verification; its
    ``window`` covers all three models."""

    def zt(prefix: Sequence[int]) -> float:
        p_llm = llm.next_token_probs(prefix)
        p_plus = slm_plus.next_token_probs(prefix)
        p_minus = np.maximum(slm_minus.next_token_probs(prefix), PROB_FLOOR)
        return float(np.sum(p_llm * p_plus / p_minus))

    zt.window = max(llm.window, slm_plus.window, slm_minus.window)
    return zt


def run_session(
    config: ProtocolConfig,
    llm,
    slm_plus,
    slm_minus,
    vocab: Vocabulary,
    prompt_ids: Sequence[int],
    streams: RngStreams | None = None,
) -> tuple[list[int], list[RoundTrace]]:
    """Full draft-verify-recover loop until eos or the length cap."""
    _check_shared_vocab(vocab, llm, slm_plus, slm_minus)
    config.validate(vocab.size)
    validate_sequence(prompt_ids, vocab, config.max_len)
    rngs = streams if streams is not None else make_streams(config.seed)
    edge = EdgeSession(config, slm_plus, vocab, prompt_ids, streams=rngs, checked=True)
    zt_fn = exact_partition_fn(llm, slm_plus, slm_minus) if config.exact_z else None
    cloud = CloudVerifier(
        config, llm, slm_minus, vocab, prompt_ids, streams=rngs, zt_fn=zt_fn, checked=True
    )

    traces: list[RoundTrace] = []
    while True:
        batch = edge.next_draft()
        if batch is None:
            break
        delta = edge.take_delta()
        verdict = cloud.handle_draft(batch, delta)
        accepted, rec_token = edge.apply_verdict(verdict)
        trace = cloud.traces[-1]
        trace.recovery_token = rec_token
        traces.append(trace)
    cloud.finish([edge.pending_delta] if edge.pending_delta is not None else [])
    return edge.committed, traces


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
    validate_sequence(prompt_ids, vocab, max_len)
    out = list(prompt_ids)
    greedy = mode == "greedy"
    while len(out) < max_len and (not out or out[-1] != vocab.eos_id):
        probs = model.next_token_probs(history_tail(out, model.window))
        tok = greedy_pick(probs) if greedy else sample(probs, rng)
        out.append(tok)
    return out
