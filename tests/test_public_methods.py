"""``run_session`` calls the draft, scan and commit cores directly; the
transport drives the checked public methods ``next_draft``,
``handle_draft`` and ``apply_verdict``.  Driving the public methods by hand
must give the same committed ids and the same round traces."""

from dataclasses import replace

import numpy as np
import pytest

from specsteer.core import ProtocolConfig, make_streams
from specsteer.protocol import CloudVerifier, EdgeSession, exact_partition_fn, run_session

from test_scan_scoring import models_of

MODES = {
    "stochastic": {"lam": 0.5},
    "greedy": {"lam": 1.0, "decode_mode": "greedy"},
    "exact_z": {"exact_z": True},
}


def drive_public(cfg, llm, plus, minus, vocab, prompt, streams):
    """The session loop over the public message interface."""
    edge = EdgeSession(cfg, plus, vocab, prompt, streams=streams)
    zt_fn = exact_partition_fn(llm, plus, minus) if cfg.exact_z else None
    cloud = CloudVerifier(cfg, llm, minus, vocab, prompt, streams=streams, zt_fn=zt_fn)
    traces = []
    while (batch := edge.next_draft()) is not None:
        verdict = cloud.handle_draft(batch, edge.take_delta())
        accepted, rec_token = edge.apply_verdict(verdict)
        assert accepted == verdict.accepted_count
        trace = cloud.traces[-1]
        trace.recovery_token = rec_token
        traces.append(trace)
    cloud.finish([edge.pending_delta] if edge.pending_delta is not None else [])
    assert cloud.mirror == edge.committed
    return edge.committed, traces


@pytest.mark.parametrize("k", [1, 4, 6])
@pytest.mark.parametrize("mode", list(MODES))
@pytest.mark.parametrize("kind", ["table", "ngram"])
def test_public_methods_equal_run_session(kind, mode, k):
    vocab, (llm, plus, minus) = models_of(kind, None, np.random.default_rng(40 + k))
    cfg = ProtocolConfig(horizon_k=k, top_k=4, max_len=24, seed=900 + k, **MODES[mode])
    # Fresh streams per session, and then one set shared by consecutive
    # sessions, as the single-step checks use it.
    shared_core, shared_public = make_streams(cfg.seed), make_streams(cfg.seed)
    traces = []
    for s in range(6):
        prompt = [s % (vocab.size - 1)]
        seeded = replace(cfg, seed=s)
        core = run_session(seeded, llm, plus, minus, vocab, prompt)
        assert core == drive_public(seeded, llm, plus, minus, vocab, prompt, make_streams(s))
        traces += core[1]
        core = run_session(cfg, llm, plus, minus, vocab, prompt, streams=shared_core)
        assert core == drive_public(cfg, llm, plus, minus, vocab, prompt, shared_public)
        traces += core[1]
    # Both commit paths ran: accepted draft tokens and recoveries.
    assert any(t.accepted_count for t in traces)
    assert any(t.recovery_token is not None for t in traces)
