"""specsteer benchmark: whole draft-verify-recover sessions timed from outside.

Run from the root of a checkout:

    python3 perfbench/run.py --workload toy_session --seed 1 --seconds 25 --trace 0

``--trace 0`` times the untraced sessions and reports the end-to-end
metrics; ``--trace 1`` is a separate run that reports the per-layer
metrics.  Human-readable lines come first; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
from pathlib import Path

import numpy as np

from workloads import FULL, REPEATS, WORKLOADS, Sizes, setup, timed_run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

END_TO_END_UNITS = {
    "setup_s": "s",
    "session_us_p50": "us",
    "session_us_p90": "us",
    "round_us_p50": "us",
    "tokens_per_s": "tok/s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "protocol.setup_us": "us",
    "protocol.draft_self_us": "us",
    "protocol.verify_self_us": "us",
    "protocol.apply_self_us": "us",
    "models.llm.calls_per_round": "count",
    "models.llm.us_per_call": "us",
    "models.slm_minus.calls_per_round": "count",
    "models.slm_minus.us_per_call": "us",
    "models.slm_plus.calls_per_round": "count",
    "models.slm_plus.us_per_call": "us",
    "transport.connect_us": "us",
    "transport.edge_send_us": "us",
    "transport.edge_recv_wait_us": "us",
    "transport.cloud_busy_us": "us",
    "transport.codec_us_per_round": "us",
    "transport.up_bytes_per_round": "bytes",
    "transport.down_bytes_per_round": "bytes",
    "transport.sim_overhead_us_per_round": "us",
    "protocol.accept_ratio": "ratio",
    "protocol.recovery_ratio": "ratio",
    "protocol.draft_tokens_per_round": "count",
    "protocol.payload_entries_per_recovery": "count",
    "metrics.modeled_speedup": "ratio",
    "setup.world_s": "s",
    "setup.warmup_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.unattributed_ratio": "ratio",
}


def load_program(root: Path = ROOT):
    """Import specsteer from the checkout's own ``src``, never from elsewhere."""
    src = root / "src"
    if not (src / "specsteer" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: program source not found under {src}")
    sys.path.insert(0, str(src))
    import specsteer

    if Path(specsteer.__file__).resolve().parent != (src / "specsteer").resolve():
        raise SystemExit(f"perfbench: imported specsteer from {specsteer.__file__}, not {src}")
    return specsteer


def machine_info() -> str:
    return (f"machine: nproc={os.cpu_count()} cpu={platform.processor() or platform.machine()} "
            f"python={platform.python_version()} numpy={np.__version__}")


# Printed before the JSON with their sample counts, but not gated.  On a
# few shared cores the host stalls about 1% of socket sessions for a few ms,
# so p99 of every run, and even of the fastest runs, moves with its load.
PRINTED_UNITS = {
    "session_us_p99": "us",
    "session_us_p50_all_runs": "us",
    "session_us_p99_all_runs": "us",
}


def end_to_end(sp, workload: str, seed: int, seconds: float, sizes: Sizes) -> tuple[dict, list]:
    env, setup_times = setup(sp, workload, seed, sizes)
    t = timed_run(sp, env, seconds, sizes)
    sessions = t.session_us.astype(np.float64)
    rounds = sessions / t.rounds
    tokens = t.tokens.astype(np.int64)
    raw = t.raw_us.astype(np.float64)
    n = len(sessions)
    if n == 0:  # every session failed: report zeros, correct is false
        sessions = rounds = raw = np.zeros(1)
        tokens = np.zeros(1, dtype=np.int64)
    best = f"n={n} sessions, fastest of {REPEATS} runs each"
    values = {
        "setup_s": (setup_times["setup_s"], f"median of {sizes.setup_repeats} set-ups"),
        "session_us_p50": (float(np.median(sessions)), best),
        "session_us_p90": (float(np.percentile(sessions, 90)), best),
        "session_us_p99": (float(np.percentile(sessions, 99)),
                           f"{best}, {n - math.ceil(0.99 * n)} beyond it"),
        "round_us_p50": (float(np.median(rounds)), best),
        "tokens_per_s": (float(tokens.sum() / (sessions.sum() / 1e6)) if n else 0.0,
                         f"{best}, {int(tokens.sum())} tokens"),
        "peak_rss_mb": (t.peak_rss_kb / 1024.0, "n=1"),
        "session_us_p50_all_runs": (float(np.median(raw)), f"n={len(t.raw_us)} runs"),
        "session_us_p99_all_runs": (float(np.percentile(raw, 99)), f"n={len(t.raw_us)} runs"),
    }
    units = {**END_TO_END_UNITS, **PRINTED_UNITS}
    lines = [f"{k} = {v:.6g} {units[k]} ({c}{'; not gated' if k in PRINTED_UNITS else ''})"
             for k, (v, c) in values.items()]
    lines.append(f"failed_ratio = {t.failed / t.attempted:.6g} ({t.failed}/{t.attempted} runs)")
    lines.append(f"digest: sha256 {t.digest} over the first {t.digest_count} runs")
    lines += [f"error: {e}" for e in t.errors]
    result = {
        "correct": t.failed == 0,
        "attempted": t.attempted,
        "failed": t.failed,
        "metrics": {k: {"value": values[k][0], "unit": u} for k, u in END_TO_END_UNITS.items()},
    }
    return result, lines


def per_layer(sp, workload: str, seed: int, seconds: float, sizes: Sizes,
              spans_dir: Path) -> tuple[dict, list]:
    from tracing import TracedRun

    env, setup_times = setup(sp, workload, seed, sizes)
    traced = TracedRun(sp, env, sizes)
    counts, digest = traced.count_pass()
    values = traced.run(seconds)
    values.update(counts)
    values["setup.world_s"] = setup_times["world_s"]
    values["setup.warmup_s"] = setup_times["warmup_s"]
    # One file per workload, overwritten by the next traced run of it.
    spans_path = spans_dir / f"spans-{workload}.npz"
    n_spans = traced.write_spans(spans_path, seed)
    lines = [f"{k} = {values[k]:.6g} {u}" for k, u in PER_LAYER_UNITS.items()]
    lines.append(f"phases: " + ", ".join(
        f"{name} {ph.sessions} sessions / {ph.rounds} rounds" for name, ph in traced.phases.items()))
    lines.append(f"failed_ratio = {traced.failed / max(traced.attempted, 1):.6g} "
                 f"({traced.failed}/{traced.attempted} sessions)")
    lines.append(f"digest: sha256 {digest.hexdigest()} over the first {digest.count} sessions")
    lines.append(f"spans: {n_spans} written to {spans_path}")
    lines += [f"note: {x}" for x in traced.notes]
    lines += [f"error: {e}" for e in traced.errors]
    result = {
        "correct": traced.failed == 0,
        "attempted": max(traced.attempted, 1),
        "failed": traced.failed,
        "metrics": {k: {"value": float(values[k]), "unit": u} for k, u in PER_LAYER_UNITS.items()},
    }
    return result, lines


def run(workload: str, seed: int, seconds: float, trace: bool, sizes: Sizes = FULL,
        spans_dir: Path = HERE / "out", root: Path = ROOT) -> tuple[dict, list]:
    sp = load_program(root)
    header = [f"perfbench workload={workload} seed={seed} seconds={seconds} trace={int(trace)}",
              machine_info()]
    if trace:
        result, lines = per_layer(sp, workload, seed, seconds, sizes, spans_dir)
    else:
        result, lines = end_to_end(sp, workload, seed, seconds, sizes)
    return result, header + lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
