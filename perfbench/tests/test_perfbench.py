"""Tiny-size runs of every workload, and checks that corrupted output is
counted as failed.

Run from the root of the repository:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

TINY = workloads.Sizes(
    min_runs=20, pool=64, setup_repeats=1, warmup=4, triples=2, prompt_len=256,
    long_prompts=2, min_traced=3, digest_sessions=16,
)
SECONDS = 0.3


@pytest.fixture(scope="module")
def sp():
    return run.load_program()


def tiny(workload, trace, tmp_path, seconds=SECONDS, sizes=TINY, seed=3):
    return run.run(workload, seed, seconds, trace, sizes=sizes, spans_dir=tmp_path)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_end_to_end_metrics_printed_and_correct(workload, tmp_path):
    result, lines = tiny(workload, False, tmp_path)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= TINY.min_runs
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END_UNITS
    assert all(v["value"] > 0 for v in result["metrics"].values())
    text = "\n".join(lines)
    for name, unit in {**run.END_TO_END_UNITS, **run.PRINTED_UNITS}.items():
        assert f"\n{name} = " in text and f" {unit} (" in text
    assert f"failed_ratio = 0 (0/{result['attempted']} runs)" in text
    json.dumps(result)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_per_layer_metrics_printed_and_correct(workload, tmp_path):
    result, lines = tiny(workload, True, tmp_path)
    assert result["correct"] and result["failed"] == 0, lines
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.PER_LAYER_UNITS
    for name in ("protocol.draft_self_us", "protocol.verify_self_us", "models.llm.us_per_call",
                 "transport.connect_us", "transport.cloud_busy_us", "transport.codec_us_per_round",
                 "transport.sim_overhead_us_per_round", "trace.overhead_ratio"):
        assert m[name] > 0, name
    assert not any(line.startswith("note:") for line in lines)
    spans = np.load(tmp_path / f"spans-{workload}.npz")
    assert spans["name"].size == spans["parent"].size > 0


def test_uplink_bytes_follow_frame_law(tmp_path):
    result, _ = tiny("single_step", True, tmp_path)
    # K=1 and recoveries add a 4-byte delta to the next draft only.
    assert 20 <= result["metrics"]["transport.up_bytes_per_round"]["value"] <= 24


def test_wire_socket_digest_equals_toy_session(tmp_path):
    _, toy = tiny("toy_session", False, tmp_path)
    _, wire = tiny("wire_socket", False, tmp_path)
    digest = [line for line in toy if line.startswith("digest:")]
    assert digest and digest == [line for line in wire if line.startswith("digest:")]


def test_flipped_committed_token_counts_as_failed(sp, tmp_path, monkeypatch):
    real = sp.run_session

    def flipped(cfg, llm, plus, minus, vocab, prompt, **kw):
        committed, traces = real(cfg, llm, plus, minus, vocab, prompt, **kw)
        committed[len(prompt)] = vocab.size  # out of range
        return committed, traces

    monkeypatch.setattr(sp, "run_session", flipped)
    result, lines = tiny("toy_session", False, tmp_path)
    assert not result["correct"] and result["failed"] == result["attempted"]
    assert any("invalid committed sequence" in line for line in lines)


def test_mismatched_socket_sequence_counts_as_failed(sp, tmp_path, monkeypatch):
    real = sp.run_edge_socket

    def mismatched(cfg, connect, drafter, vocab, prompt, **kw):
        committed, stats = real(cfg, connect, drafter, vocab, prompt, **kw)
        pos = len(prompt)
        eos = vocab.eos_id
        committed[pos] = next(i for i in range(vocab.size) if i not in (committed[pos], eos))
        if committed[-1] != eos and len(committed) < cfg.max_len:
            committed.append(eos)  # keep the sequence valid; only equality can catch it
        return committed, stats

    monkeypatch.setattr(sp, "run_edge_socket", mismatched)
    result, lines = tiny("wire_socket", False, tmp_path)
    assert not result["correct"] and result["failed"] > 0
    assert any("socket output != in-process" in line for line in lines)


def test_wrong_single_step_law_fails(sp, tmp_path, monkeypatch):
    real = sp.run_session

    def no_verification(cfg, *args, **kw):
        return real(replace(cfg, lam=1e-9), *args, **kw)  # every draft accepted

    monkeypatch.setattr(sp, "run_session", no_verification)
    result, lines = tiny("single_step", False, tmp_path, seconds=1.0)
    assert not result["correct"] and result["failed"] > 0
    assert any("first-token TV" in line for line in lines)


def test_law_tolerance_separates_right_and_wrong_law():
    rng = np.random.default_rng(0)
    law = np.array([0.5, 0.3, 0.2])
    wrong = np.array([0.4, 0.35, 0.25])
    n = 20_000
    for p, ok in ((law, True), (wrong, False)):
        counts = np.bincount(rng.choice(3, size=n, p=p), minlength=3).astype(float)
        tv, tol = workloads.law_check(counts, law)
        assert (tv < tol) == ok


def test_traced_output_mismatch_counts_as_failed(sp, tmp_path, monkeypatch):
    real = sp.make_streams
    monkeypatch.setattr(sp, "make_streams", lambda seed: real(seed ^ 1))
    result, lines = tiny("toy_session", True, tmp_path)
    assert not result["correct"] and result["failed"] > 0
    assert any("traced and untraced outputs differ" in line for line in lines)


@pytest.mark.parametrize("module, attr, layer", [
    ("", "EdgeSession", "protocol"),
    ("transport", "SocketEndpoint", "transport"),
])
def test_renamed_layer_reported_unavailable(sp, tmp_path, monkeypatch, module, attr, layer):
    monkeypatch.delattr(getattr(sp, module) if module else sp, attr)
    result, lines = tiny("toy_session", True, tmp_path)
    assert result["correct"] and result["failed"] == 0, lines
    assert any(line.startswith("note:") and layer in line for line in lines)
    m = result["metrics"]
    assert m["models.llm.us_per_call"]["value"] > 0


def test_fails_without_program_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "toy_session", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
