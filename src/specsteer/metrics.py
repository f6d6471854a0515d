"""Acceptance-rate, modeled latency/speedup, payload, and FLOPs accounting.

This module is the one home of the cost model: the latency model
(``LatencyModel``), the modeled link (``ChannelModel``), the model
profiles (``ModelProfile``, and ``LLM_PROFILE``/``SLM_PROFILE`` of the
paper's models) and the FLOPs model (``CostModel``).  No other module
defines a cost, and a round trace records only what the protocol did:
its modeled time is ``round_time_ms`` of the trace, computed wherever it
is read, ``write_trace_csv``'s ``clock_ms`` column among them.

Wall-clock is always modeled, never measured: the latency model prices a
round as drafting plus one batched verifier forward plus fixed per-round
overhead, plus the channel's latency and serialization time, in one
formula (``_round_ms``) for a traced round and its closed form alike.  The
FLOPs model uses the standard 2N-per-token approximation plus a linear
attention term, with the cloud re-scoring the full (context-free) history
each round, as the round protocol prescribes.  Absolute numbers are
abstract units; only trends and ratios are meaningful.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .core import SpecSteerError
from .protocol import RoundTrace, draft_frame_bytes, verdict_frame_bytes


class MetricsError(SpecSteerError):
    pass


# ---------------------------------------------------------------------------
# Acceptance rate
# ---------------------------------------------------------------------------


def acceptance_rate(traces: Sequence[RoundTrace]) -> float:
    """Accepted draft tokens over drafted tokens; order-invariant."""
    if not traces:
        raise MetricsError("no traces")
    drafted = sum(len(t.drafted) for t in traces)
    if drafted == 0:
        raise MetricsError("traces contain no drafted tokens")
    accepted = sum(t.accepted_count for t in traces)
    return accepted / drafted


def emitted_tokens(traces: Sequence[RoundTrace]) -> int:
    return sum(t.accepted_count + (1 if t.recovery_token is not None else 0) for t in traces)


# ---------------------------------------------------------------------------
# Latency model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LatencyModel:
    """Per-step costs in simulated milliseconds.

    Defaults encode a 53:1 large/small cost ratio (a 32B verifier against
    a 0.6B drafter) with the large model priced at 53 ms per sequential
    token.  ``round_overhead_ms`` covers everything in a round besides the
    model forwards (cloud-side baseline scoring, sampling, scheduling);
    it is calibrated so the model reproduces the observed regime of
    roughly 1.1x at ~40% acceptance and >2x at >80% acceptance.
    """

    llm_token_ms: float = 53.0
    draft_token_ms: float = 1.0
    verify_batch_ms: float = 53.0
    round_overhead_ms: float = 17.0
    recovery_ms: float = 1.0

    def __post_init__(self) -> None:
        # Every field is a cost; written so that NaN fails the check.
        for cost in vars(self).values():
            if not 0 <= cost < math.inf:
                raise MetricsError("latency costs must be finite and >= 0")


@dataclass(frozen=True)
class ChannelModel:
    """Modeled link: one-way latency plus serialization delay, for
    ``round_time_ms``."""

    one_way_latency_ms: float = 0.0
    bandwidth_bps: float = float("inf")

    def __post_init__(self) -> None:
        # Written so that NaN fails both checks; an infinite bandwidth is
        # the default and means no serialization delay.
        if not (0 <= self.one_way_latency_ms < math.inf and self.bandwidth_bps > 0):
            raise MetricsError("invalid channel parameters")


def _round_ms(
    drafted: float, recovery: float, up_bytes: float, down_bytes: float,
    latency: LatencyModel, channel: ChannelModel | None,
) -> float:
    """The one modeled price of a round: ``drafted`` draft tokens, one
    verify batch, the round overhead, ``recovery`` times the recovery cost
    (1 or 0 for a round, a probability in expectation), then two one-way
    latencies and the bytes sent each way over the bandwidth."""
    t = drafted * latency.draft_token_ms
    t += latency.verify_batch_ms + latency.round_overhead_ms
    t += recovery * latency.recovery_ms
    if channel is not None:
        t += 2.0 * channel.one_way_latency_ms
        t += 1000.0 * (up_bytes + down_bytes) / channel.bandwidth_bps
    return t


def round_time_ms(
    trace: RoundTrace,
    latency: LatencyModel,
    channel: ChannelModel | None = None,
) -> float:
    recovered = trace.recovery_token is not None
    return _round_ms(len(trace.drafted), recovered, trace.uplink_bytes, trace.downlink_bytes,
                     latency, channel)


def session_time_ms(
    traces: Sequence[RoundTrace],
    latency: LatencyModel,
    channel: ChannelModel | None = None,
) -> float:
    return sum(round_time_ms(t, latency, channel) for t in traces)


def speedup(
    traces: Sequence[RoundTrace], latency: LatencyModel, channel: ChannelModel | None = None
) -> float:
    """Modeled time of the llm decoding the same output autoregressively
    over the protocol's modeled time."""
    out = emitted_tokens(traces)
    if out == 0:
        raise MetricsError("zero-length output")
    return out * latency.llm_token_ms / session_time_ms(traces, latency, channel)


def expected_tokens_per_round(alpha: float, k: int) -> float:
    """Accepted prefix plus one recovery token on rejecting rounds, under a
    constant per-token acceptance probability."""
    if not 0.0 <= alpha <= 1.0:
        raise MetricsError("alpha must lie in [0, 1]")
    accepted = sum(alpha**t for t in range(1, k + 1))
    return accepted + (1.0 - alpha**k)


def expected_speedup(
    alpha: float,
    k: int,
    latency: LatencyModel | None = None,
    channel: ChannelModel | None = None,
    top_k: int = 32,
) -> float:
    """Closed-form speedup of the latency model at a given acceptance rate."""
    latency = latency or LatencyModel()
    reject_p = 1.0 - alpha**k
    n = expected_tokens_per_round(alpha, k)
    # A round after a rejection carries a history delta up, and a
    # rejecting round's verdict carries top_k steering entries down.
    up = (1.0 - reject_p) * draft_frame_bytes(k, False) + reject_p * draft_frame_bytes(k, True)
    down = (1.0 - reject_p) * verdict_frame_bytes(0) + reject_p * verdict_frame_bytes(top_k)
    return n * latency.llm_token_ms / _round_ms(k, reject_p, up, down, latency, channel)


# ---------------------------------------------------------------------------
# FLOPs model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelProfile:
    """Cost statistics of an abstract scorer, read by ``CostModel``."""

    param_count: int
    layers: int
    hidden_dim: int

    def __post_init__(self) -> None:
        if min(self.param_count, self.layers, self.hidden_dim) <= 0:
            raise MetricsError("profile statistics must be positive")


# Cost statistics of the models the toy world stands in for (a 32B
# generalist and a 0.6B specialist); ``default.cfg`` holds the same.
LLM_PROFILE = ModelProfile(param_count=32_000_000_000, layers=64, hidden_dim=5120)
SLM_PROFILE = ModelProfile(param_count=600_000_000, layers=28, hidden_dim=1024)


@dataclass(frozen=True)
class CostModel:
    """Parametric forward-pass cost: 2N weight FLOPs per token plus a
    4 * layers * hidden * seq_len attention term, per model profile."""

    llm: ModelProfile
    slm: ModelProfile
    horizon_k: int = 4

    def per_token_flops(self, profile: ModelProfile, seq_len: float) -> float:
        if seq_len < 0:
            raise MetricsError("seq_len must be >= 0")
        return 2.0 * profile.param_count + 4.0 * profile.layers * profile.hidden_dim * seq_len

    def prefill_flops(self, profile: ModelProfile, context_len: float) -> float:
        c = float(context_len)
        return (
            2.0 * profile.param_count * c
            + 4.0 * profile.layers * profile.hidden_dim * c * (c + 1.0) / 2.0
        )


def flops_llm_rag(cost: CostModel, context_len: int, gen_tokens: int = 100) -> float:
    """Monolithic large model with the retrieved context in its prompt:
    quadratic prefill over the context, then decode at growing length."""
    if context_len <= 0:
        raise MetricsError("context length must be > 0")
    total = cost.prefill_flops(cost.llm, context_len)
    for i in range(1, gen_tokens + 1):
        total += cost.per_token_flops(cost.llm, context_len + i)
    return total


def flops_specsteer(cost: CostModel, context_len: int, alpha: float, gen_tokens: int = 100) -> float:
    """Split execution: the small drafter pays for the private context, the
    cloud pair re-scores only the context-free history each round."""
    if context_len <= 0:
        raise MetricsError("context length must be > 0")
    if not 0.0 < alpha <= 1.0:
        raise MetricsError("alpha must lie in (0, 1]")
    k = cost.horizon_k
    rounds = gen_tokens / (k * alpha + 1.0)
    # Edge: small-model prefill over the private context plus drafting.
    edge = cost.prefill_flops(cost.slm, context_len)
    edge += rounds * k * cost.per_token_flops(cost.slm, context_len + gen_tokens / 2.0)
    # Cloud: each round scores history + batch in parallel, no KV reuse
    # across rounds, and never sees the private context.
    positions = rounds * k + gen_tokens * max(rounds - 1.0, 0.0) / 2.0
    cloud = positions * (
        cost.per_token_flops(cost.llm, gen_tokens / 2.0)
        + cost.per_token_flops(cost.slm, gen_tokens / 2.0)
    )
    return edge + cloud


# ---------------------------------------------------------------------------
# Output files
# ---------------------------------------------------------------------------

TRACE_FIELDS = ("round", "alpha", "accepted", "drafted", "uplink_bytes", "downlink_bytes", "clock_ms")


def write_trace_csv(
    path: str,
    traces: Iterable[RoundTrace],
    config_hash: str,
    latency: LatencyModel,
    channel: ChannelModel | None = None,
) -> None:
    """One row per round; ``clock_ms`` is the round's ``round_time_ms``."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# config_hash={config_hash}\n")
        writer = csv.writer(fh)
        writer.writerow(TRACE_FIELDS)
        for t in traces:
            mean_alpha = sum(t.alphas) / len(t.alphas) if t.alphas else ""
            writer.writerow(
                [t.index, mean_alpha, t.accepted_count, len(t.drafted),
                 t.uplink_bytes, t.downlink_bytes, f"{round_time_ms(t, latency, channel):.6f}"]
            )


def write_summary_json(path: str, summary: dict, config_hash: str) -> None:
    payload = {"config_hash": config_hash, **summary}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def summarize(
    traces: Sequence[RoundTrace],
    latency: LatencyModel,
    cost: CostModel | None = None,
    channel: ChannelModel | None = None,
    context_len: int = 1000,
) -> dict:
    alpha = acceptance_rate(traces)
    summary = {
        "alpha_mean": alpha,
        "speedup": speedup(traces, latency, channel=channel),
        "payload_up": sum(t.uplink_bytes for t in traces),
        "payload_down": sum(t.downlink_bytes for t in traces),
        "rounds": len(traces),
        "emitted_tokens": emitted_tokens(traces),
    }
    if cost is not None:
        summary["flops_llm_rag"] = flops_llm_rag(cost, context_len)
        summary["flops_specsteer"] = flops_specsteer(cost, context_len, max(alpha, 1e-6))
    return summary
