import json

import numpy as np
import pytest

from specsteer.core import ProtocolConfig
from specsteer.metrics import (
    CostModel,
    LatencyModel,
    MetricsError,
    acceptance_rate,
    apply_clock,
    emitted_tokens,
    expected_speedup,
    expected_tokens_per_round,
    flops_llm_rag,
    flops_specsteer,
    flops_total,
    round_time_ms,
    session_time_ms,
    speedup,
    summarize,
    write_summary_json,
    write_trace_csv,
)
from specsteer.protocol import RoundTrace, run_session
from specsteer.toydata import LLM_PROFILE, SLM_PROFILE
from specsteer.transport import ChannelModel

from conftest import random_table_triple


def trace(drafted, accepted, recovery=None, up=32, down=17):
    return RoundTrace(
        index=0,
        drafted=tuple(drafted),
        alphas=(0.5,) * len(drafted),
        accepted_count=accepted,
        recovery_token=recovery,
        uplink_bytes=up,
        downlink_bytes=down,
    )


class TestAcceptanceRate:
    def test_hand_value(self):
        traces = [trace([1, 2, 3, 4], 3, recovery=0), trace([1, 2], 2)]
        assert acceptance_rate(traces) == pytest.approx(5 / 6)

    def test_order_invariant(self):
        traces = [trace([1, 2], 1, recovery=0), trace([1, 2, 3], 3)]
        assert acceptance_rate(traces) == acceptance_rate(traces[::-1])

    def test_empty_errors(self):
        with pytest.raises(MetricsError):
            acceptance_rate([])

    def test_emitted_tokens(self):
        traces = [trace([1, 2, 3, 4], 2, recovery=9), trace([1], 1)]
        assert emitted_tokens(traces) == 4


class TestLatencyModel:
    def test_default_cost_ratio(self):
        m = LatencyModel()
        assert m.llm_token_ms / m.draft_token_ms == pytest.approx(53.0)

    def test_negative_cost_rejected(self):
        with pytest.raises(MetricsError):
            LatencyModel(llm_token_ms=-1.0)

    def test_round_time_components(self):
        m = LatencyModel()
        t = trace([1, 2, 3, 4], 2, recovery=9)
        expected = 4 * m.draft_token_ms + m.verify_batch_ms + m.round_overhead_ms + m.recovery_ms
        assert round_time_ms(t, m) == pytest.approx(expected)

    def test_channel_adds_latency_and_serialization(self):
        m = LatencyModel()
        ch = ChannelModel(one_way_latency_ms=5.0, bandwidth_bps=1000.0)
        t = trace([1], 1, up=100, down=100)
        base = round_time_ms(t, m)
        assert round_time_ms(t, m, ch) == pytest.approx(base + 10.0 + 1000.0 * 200 / 1000.0)

    def test_session_time_is_sum(self):
        m = LatencyModel()
        ts = [trace([1, 2], 2), trace([1], 0, recovery=3)]
        assert session_time_ms(ts, m) == pytest.approx(sum(round_time_ms(t, m) for t in ts))

    def test_apply_clock(self):
        m = LatencyModel()
        ts = [trace([1, 2], 2)]
        apply_clock(ts, m)
        assert ts[0].clock_ms == pytest.approx(round_time_ms(ts[0], m))


class TestSpeedup:
    def test_increases_with_acceptance(self):
        m = LatencyModel()
        slow = [trace([1, 2, 3, 4], 0, recovery=9)] * 5
        fast = [trace([1, 2, 3, 4], 4)] * 5
        assert speedup(fast, m) > speedup(slow, m)

    def test_unknown_baseline(self):
        with pytest.raises(MetricsError):
            speedup([trace([1], 1)], LatencyModel(), baseline="gpu")

    def test_zero_output_errors(self):
        with pytest.raises(MetricsError):
            speedup([trace([1], 0)], LatencyModel())

    def test_expected_tokens_per_round(self):
        # alpha=1: all k accepted, no recovery. alpha->0: recovery only.
        assert expected_tokens_per_round(1.0, 4) == pytest.approx(4.0)
        assert expected_tokens_per_round(0.0, 4) == pytest.approx(1.0)
        with pytest.raises(MetricsError):
            expected_tokens_per_round(1.5, 4)

    def test_high_acceptance_regime(self):
        assert expected_speedup(0.8, 4) >= 2.0

    def test_low_acceptance_regime(self):
        assert expected_speedup(0.4, 4) < 1.2

    def test_monotone_in_alpha(self):
        vals = [expected_speedup(a, 4) for a in (0.1, 0.3, 0.5, 0.7, 0.9)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_channel_slows_down(self):
        ch = ChannelModel(one_way_latency_ms=20.0, bandwidth_bps=1e5)
        assert expected_speedup(0.8, 4, channel=ch) < expected_speedup(0.8, 4)


class TestFlops:
    def _cost(self):
        return CostModel(llm=LLM_PROFILE, slm=SLM_PROFILE, horizon_k=4)

    def test_split_flat_in_context(self):
        cost = self._cost()
        ratio = flops_specsteer(cost, 10_000, 0.32) / flops_specsteer(cost, 100, 0.32)
        assert 1.0 < ratio <= 1.15

    def test_monolithic_grows_with_context(self):
        cost = self._cost()
        ratio = flops_llm_rag(cost, 10_000) / flops_llm_rag(cost, 100)
        assert ratio >= 1.5

    def test_split_beats_monolithic_at_long_context(self):
        cost = self._cost()
        assert flops_llm_rag(cost, 10_000) / flops_specsteer(cost, 10_000, 0.32) >= 3.0

    def test_higher_acceptance_cheaper(self):
        cost = self._cost()
        assert flops_specsteer(cost, 1000, 0.9) < flops_specsteer(cost, 1000, 0.2)

    def test_dispatch(self):
        cost = self._cost()
        assert flops_total(cost, "llm_rag", 500) == flops_llm_rag(cost, 500)
        assert flops_total(cost, "specsteer", 500, alpha=0.5) == flops_specsteer(cost, 500, 0.5)
        with pytest.raises(MetricsError):
            flops_total(cost, "specsteer", 500)
        with pytest.raises(MetricsError):
            flops_total(cost, "tpu", 500)

    def test_invalid_inputs(self):
        cost = self._cost()
        with pytest.raises(MetricsError):
            flops_llm_rag(cost, 0)
        with pytest.raises(MetricsError):
            flops_specsteer(cost, 100, 0.0)


class TestPayloadReconciliation:
    def test_trace_bytes_match_frame_sizes(self):
        from specsteer.protocol import draft_frame_bytes, verdict_frame_bytes

        rng = np.random.default_rng(51)
        vocab, (llm, plus, minus) = random_table_triple(rng, 8)
        cfg = ProtocolConfig(lam=0.8, max_len=32, top_k=8, seed=3)
        _, traces = run_session(cfg, llm, plus, minus, vocab, [0])
        saw_delta = False
        for t in traces:
            has_delta = t.uplink_bytes == draft_frame_bytes(len(t.drafted), True)
            assert t.uplink_bytes == draft_frame_bytes(len(t.drafted), has_delta)
            n = 0 if t.recovery_token is None else min(cfg.top_k, vocab.size)
            assert t.downlink_bytes == verdict_frame_bytes(n)
            saw_delta = saw_delta or has_delta
        assert saw_delta


class TestOutputFiles:
    def test_trace_csv_hash_header(self, tmp_path):
        path = str(tmp_path / "trace.csv")
        write_trace_csv(path, [trace([1, 2], 2)], "abc123")
        with open(path) as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "# config_hash=abc123"
        assert lines[1].startswith("round,alpha,accepted")
        assert len(lines) == 3

    def test_summary_json_hash_field(self, tmp_path):
        path = str(tmp_path / "summary.json")
        write_summary_json(path, {"alpha_mean": 0.5}, "abc123")
        with open(path) as fh:
            data = json.load(fh)
        assert data["config_hash"] == "abc123"
        assert data["alpha_mean"] == 0.5

    def test_summarize_fields(self):
        traces = [trace([1, 2, 3, 4], 3, recovery=0), trace([1, 2], 2)]
        cost = CostModel(llm=LLM_PROFILE, slm=SLM_PROFILE)
        out = summarize(traces, LatencyModel(), cost=cost, context_len=10_000)
        assert out["alpha_mean"] == pytest.approx(5 / 6)
        assert out["rounds"] == 2
        assert out["emitted_tokens"] == 6
        assert out["payload_up"] == 64
        assert out["flops_llm_rag"] > out["flops_specsteer"] > 0
