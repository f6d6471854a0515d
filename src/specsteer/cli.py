"""Command-line experiment harness.

Subcommands: ``run`` (one in-process session), ``sweep`` (lambda/beta grid
with CSV + SVG chart), ``oracle`` (exact fusion report for a history),
and ``serve-cloud`` / ``run-edge`` (real two-process socket session).
Configuration is a flat key=value text file of deployment settings: the
three corpora, the protocol, the sweep grid, the modeled channel and the
output directory.  The models are not configured: ``toydata`` holds the
n-gram orders, smoothing and private mixing weight, and ``metrics`` the
model profiles of the FLOPs model.  Every emitted file carries the hash of
the effective configuration in a header.  Exit status is 0 iff
all requested outputs were written.
"""

from __future__ import annotations

import argparse
import hashlib
import logging
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np

from .core import (
    DECODE_MODES,
    ConfigError,
    ProtocolConfig,
    SpecSteerError,
    clamp_probs,
    kl_divergence,
)
from .fusion import fused_target, one_step_protocol_law, verification_alpha
from .metrics import (
    LLM_PROFILE,
    SLM_PROFILE,
    ChannelModel,
    CostModel,
    LatencyModel,
    summarize,
    write_summary_json,
    write_trace_csv,
)
from .protocol import run_session
from .toydata import DATA_DIR, ToyWorld, assemble_world, load_corpus
from .transport import FrameLog, run_edge_socket, serve_cloud_once

log = logging.getLogger("specsteer.cli")

DEFAULT_CONFIG = DATA_DIR / "default.cfg"


def _float_list(text: str) -> tuple[float, ...]:
    parts = text.replace(",", " ").split()
    if not parts:
        raise ValueError("expected a nonempty list of numbers")
    return tuple(float(p) for p in parts)


# Every config key: the type its value is parsed with and, for a protocol
# key, the ``ProtocolConfig`` field it sets.
KNOWN_KEYS: dict[str, tuple[Callable[[str], object], str | None]] = {
    "corpus.generalist": (str, None),
    "corpus.specialist": (str, None),
    "corpus.private": (str, None),
    "protocol.lambda": (float, "lam"),
    "protocol.beta": (float, "beta"),
    "protocol.k": (int, "horizon_k"),
    "protocol.top_k": (int, "top_k"),
    "protocol.max_len": (int, "max_len"),
    "protocol.mode": (str, "decode_mode"),
    "protocol.seed": (int, "seed"),
    "sweep.lambda_list": (_float_list, None),
    "sweep.beta_list": (_float_list, None),
    "sweep.trials": (int, None),
    "channel.latency_ms": (float, None),
    "channel.bandwidth_bps": (float, None),
    "output.dir": (str, None),
}
_PROTOCOL_FIELDS = {key: field for key, (_, field) in KNOWN_KEYS.items() if field}


@dataclass
class ExperimentConfig:
    """Everything a run needs, resolved to absolute paths."""

    corpus_generalist: Path
    corpus_specialist: Path
    corpus_private: Path
    protocol: ProtocolConfig
    lambda_list: tuple[float, ...]
    beta_list: tuple[float, ...]
    trials: int
    channel: ChannelModel
    out_dir: Path
    raw: dict  # every value the file sets, parsed with its key's type


def _parse_kv_file(path: Path) -> dict[str, object]:
    """The file's keys and their values, each parsed with its key's type."""
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    values: dict[str, object] = {}
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key not in KNOWN_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        try:
            values[key] = KNOWN_KEYS[key][0](value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from None
    return values


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    raw = _parse_kv_file(path)

    def required(key: str):
        if key not in raw:
            raise ConfigError(f"missing config key {key!r}")
        return raw[key]

    def resolve(key: str) -> Path:
        p = path.parent / required(key)
        if not p.is_file():
            raise ConfigError(f"corpus file not found: {p}")
        return p

    trials = raw.get("sweep.trials", 200)
    if trials < 1:
        raise ConfigError("sweep.trials must be >= 1")
    return ExperimentConfig(
        corpus_generalist=resolve("corpus.generalist"),
        corpus_specialist=resolve("corpus.specialist"),
        corpus_private=resolve("corpus.private"),
        protocol=ProtocolConfig(**{f: raw[k] for k, f in _PROTOCOL_FIELDS.items() if k in raw}),
        lambda_list=raw.get("sweep.lambda_list", (1.0, 0.5, 0.1, 0.01)),
        beta_list=raw.get("sweep.beta_list", (0.0, 1.0)),
        trials=trials,
        channel=ChannelModel(
            one_way_latency_ms=raw.get("channel.latency_ms", 0.0),
            bandwidth_bps=raw.get("channel.bandwidth_bps", float("inf")),
        ),
        out_dir=Path.cwd() / raw.get("output.dir", "out"),
        raw=raw,
    )


def config_hash(cfg: ExperimentConfig) -> str:
    """Hash of the effective configuration (file plus CLI overrides) and of
    the bytes of each corpus file it names."""
    effective = {**cfg.raw, "output.dir": str(cfg.out_dir)}
    effective.update((k, getattr(cfg.protocol, f)) for k, f in _PROTOCOL_FIELDS.items())
    blob = "\n".join(f"{k}={v!r}" for k, v in sorted(effective.items()))
    digest = hashlib.sha256(blob.encode("utf-8"))
    for corpus in (cfg.corpus_generalist, cfg.corpus_specialist, cfg.corpus_private):
        digest.update(hashlib.sha256(corpus.read_bytes()).digest())
    return digest.hexdigest()[:16]


def build_world(cfg: ExperimentConfig) -> ToyWorld:
    corpora = (cfg.corpus_generalist, cfg.corpus_specialist, cfg.corpus_private)
    return assemble_world(*map(load_corpus, corpora), user_id=cfg.corpus_private.stem)


def _prompt_ids(world: ToyWorld, tokens: list[str]) -> list[int]:
    if not tokens:
        tokens = ["we", "ordered", "the"]
    return world.vocab.ids_of(tokens)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_run(cfg: ExperimentConfig, prompt_tokens: list[str]) -> int:
    world = build_world(cfg)
    prompt = _prompt_ids(world, prompt_tokens)
    committed, traces = run_session(
        cfg.protocol, world.llm, world.slm_plus, world.slm_minus, world.vocab, prompt
    )
    latency = LatencyModel()
    cost = CostModel(LLM_PROFILE, SLM_PROFILE, cfg.protocol.horizon_k)
    chash = config_hash(cfg)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    write_trace_csv(str(cfg.out_dir / "trace.csv"), traces, chash, latency, cfg.channel)
    write_summary_json(
        str(cfg.out_dir / "summary.json"),
        summarize(traces, latency, cost=cost, channel=cfg.channel),
        chash,
    )
    print(world.vocab.text_of(committed))
    print(f"# rounds={len(traces)} tokens={len(committed)} config_hash={chash}", file=sys.stderr)
    return 0


def _write_sweep_svg(path: Path, rows: list[dict], lambda_list: tuple[float, ...], beta_list: tuple[float, ...]) -> None:
    """Self-contained line chart: mean acceptance rate against the lambda
    grid, one polyline per beta."""
    width, height, margin = 480, 320, 48
    inner_w, inner_h = width - 2 * margin, height - 2 * margin
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" stroke="black"/>',
        f'<text x="{width // 2}" y="{height - 8}" text-anchor="middle" font-size="12">lambda (grid order)</text>',
        f'<text x="14" y="{height // 2}" font-size="12" transform="rotate(-90 14 {height // 2})" text-anchor="middle">mean alpha</text>',
    ]
    n = len(lambda_list)
    xs = [margin + (inner_w * i / max(n - 1, 1)) for i in range(n)]
    for i, lam in enumerate(lambda_list):
        parts.append(
            f'<text x="{xs[i]:.1f}" y="{height - margin + 16}" text-anchor="middle" font-size="10">{lam:g}</text>'
        )
    for frac in (0.0, 0.5, 1.0):
        y = height - margin - inner_h * frac
        parts.append(f'<text x="{margin - 6}" y="{y + 4:.1f}" text-anchor="end" font-size="10">{frac:.1f}</text>')
    colors = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")
    for bi, beta in enumerate(beta_list):
        pts = []
        for i, lam in enumerate(lambda_list):
            row = next(r for r in rows if r["lambda"] == lam and r["beta"] == beta)
            y = height - margin - inner_h * row["alpha_mean"]
            pts.append(f"{xs[i]:.1f},{y:.1f}")
        color = colors[bi % len(colors)]
        parts.append(f'<polyline points="{" ".join(pts)}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        parts.append(
            f'<text x="{width - margin + 4}" y="{margin + 14 * bi + 10}" font-size="10" fill="{color}">b={beta:g}</text>'
        )
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n", encoding="utf-8")


def cmd_sweep(cfg: ExperimentConfig, prompt_tokens: list[str]) -> int:
    world = build_world(cfg)
    prompt = _prompt_ids(world, prompt_tokens)
    latency = LatencyModel()
    chash = config_hash(cfg)
    # kl_first_token: the KL of each cell's first emitted tokens against the
    # exact fused target at the prompt, which no cell changes.
    target = clamp_probs(fused_target(
        world.llm.next_token_probs(prompt),
        world.slm_plus.next_token_probs(prompt),
        world.slm_minus.next_token_probs(prompt),
    ).target)
    rows: list[dict] = []
    for lam in cfg.lambda_list:
        for beta in cfg.beta_list:
            cell = replace(cfg.protocol, lam=lam, beta=beta)
            traces = []
            counts = np.zeros(world.vocab.size)
            for s in range(cfg.trials):
                committed, t = run_session(
                    replace(cell, seed=s),
                    world.llm, world.slm_plus, world.slm_minus, world.vocab, prompt,
                )
                traces.extend(t)
                # A session that emitted nothing counts nothing here, and
                # ``summarize`` refuses the cell for its lack of traces.
                counts[committed[len(prompt):len(prompt) + 1]] += 1
            summary = summarize(traces, latency, channel=cfg.channel)
            rows.append(
                {
                    "lambda": lam,
                    "beta": beta,
                    "alpha_mean": summary["alpha_mean"],
                    "speedup": summary["speedup"],
                    "payload_up": summary["payload_up"],
                    "payload_down": summary["payload_down"],
                    "kl_first_token": kl_divergence(counts / counts.sum(), target),
                }
            )
            log.info("sweep cell lambda=%g beta=%g alpha=%.3f", lam, beta, rows[-1]["alpha_mean"])
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = cfg.out_dir / "sweep.csv"
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(f"# config_hash={chash}\n")
        fh.write("lambda,beta,alpha_mean,speedup,payload_up,payload_down,kl_first_token\n")
        for r in rows:
            fh.write(
                f"{r['lambda']:g},{r['beta']:g},{r['alpha_mean']:.6f},{r['speedup']:.6f},"
                f"{r['payload_up']},{r['payload_down']},{r['kl_first_token']:.6e}\n"
            )
    _write_sweep_svg(cfg.out_dir / "sweep.svg", rows, cfg.lambda_list, cfg.beta_list)
    print(f"wrote {csv_path} and {csv_path.with_suffix('.svg')}")
    return 0


def cmd_oracle(cfg: ExperimentConfig, history_tokens: list[str]) -> int:
    world = build_world(cfg)
    history = _prompt_ids(world, history_tokens)
    p_llm = world.llm.next_token_probs(history)
    p_plus = world.slm_plus.next_token_probs(history)
    p_minus = world.slm_minus.next_token_probs(history)
    h_llm = world.llm.next_token_logits(history)
    h_plus = world.slm_plus.next_token_logits(history)
    h_minus = world.slm_minus.next_token_logits(history)
    fused = fused_target(p_llm, p_plus, p_minus)
    alpha = verification_alpha(p_llm, p_minus, cfg.protocol.lam)
    p_out = one_step_protocol_law(
        p_llm, p_plus, p_minus, h_llm, h_plus, h_minus, cfg.protocol.lam, cfg.protocol.beta
    )
    print(f"history: {world.vocab.text_of(history)}")
    print(f"lambda={cfg.protocol.lam:g} beta={cfg.protocol.beta:g} Z={fused.partition:.6f}")
    print("token p_llm p_plus p_minus reward p_star alpha p_out")
    order = np.argsort(-fused.target)
    for i in order[:16]:
        print(
            f"{world.vocab.tokens[i]} {p_llm[i]:.6f} {p_plus[i]:.6f} {p_minus[i]:.6f} "
            f"{fused.reward[i]:+.4f} {fused.target[i]:.6f} {alpha[i]:.4f} {p_out[i]:.6f}"
        )
    return 0


def _parse_hostport(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    bracketed = host.startswith("[") and host.endswith("]")
    if bracketed:
        host = host[1:-1]  # an IPv6 literal, as in [::1]:5555
    valid_port = port.isascii() and port.isdigit() and int(port) <= 65535
    # An IPv6 literal needs its brackets: ::1:5555 is itself an address.
    if not host or (":" in host and not bracketed) or not valid_port:
        raise ConfigError(
            f"expected HOST:PORT, an IPv6 HOST in brackets, with a port of at most 65535, got {text!r}")
    return host, int(port)


def _format_hostport(host: str, port: int) -> str:
    """The text ``_parse_hostport`` reads back as ``(host, port)``."""
    return f"[{host}]:{port}" if ":" in host else f"{host}:{port}"


def cmd_serve_cloud(cfg: ExperimentConfig, bind: str) -> int:
    address = _parse_hostport(bind)
    world = build_world(cfg)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    log_path = cfg.out_dir / "cloud_frames.bin"
    # Printed before the accept, so that an edge can learn a port 0 bind.
    bound: list = []
    announce = SimpleNamespace(
        set=lambda: print("listening on", _format_hostport(*bound[0][:2]), flush=True))
    with FrameLog(str(log_path)) as flog:
        stats = serve_cloud_once(
            address, world.llm, world.slm_minus, world.vocab,
            frame_log=flog, ready=announce, bound=bound,
        )
    print(f"served {stats.rounds} rounds, frame log at {log_path}")
    return 0


def cmd_run_edge(cfg: ExperimentConfig, connect: str, prompt_tokens: list[str]) -> int:
    address = _parse_hostport(connect)
    world = build_world(cfg)
    prompt = _prompt_ids(world, prompt_tokens)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    log_path = cfg.out_dir / "edge_frames.bin"
    with FrameLog(str(log_path)) as flog:
        committed, stats = run_edge_socket(
            cfg.protocol, address, world.slm_plus, world.vocab, prompt, frame_log=flog
        )
    write_trace_csv(str(cfg.out_dir / "trace.csv"), stats.traces, config_hash(cfg),
                    LatencyModel(), cfg.channel)
    print(world.vocab.text_of(committed))
    print(
        f"# rounds={stats.rounds} up={stats.uplink_bytes}B down={stats.downlink_bytes}B "
        f"frame log at {log_path}",
        file=sys.stderr,
    )
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="specsteer", description=__doc__)
    parser.add_argument("--config", default=str(DEFAULT_CONFIG), help="key=value config file")
    # Each protocol flag's dest is the ProtocolConfig field it overrides.
    parser.add_argument("--seed", dest="seed", type=int)
    parser.add_argument("--lambda", dest="lam", type=float)
    parser.add_argument("--beta", dest="beta", type=float)
    parser.add_argument("--k", dest="horizon_k", type=int, help="draft horizon")
    parser.add_argument("--top-k", dest="top_k", type=int, help="sparse payload size")
    parser.add_argument("--mode", dest="decode_mode", choices=DECODE_MODES)
    parser.add_argument("--out", default=None, help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="one in-process session")
    p_run.add_argument("prompt", nargs="*", help="prompt tokens")
    p_sweep = sub.add_parser("sweep", help="lambda/beta grid")
    p_sweep.add_argument("prompt", nargs="*")
    p_oracle = sub.add_parser("oracle", help="exact fusion report for a history")
    p_oracle.add_argument("history", nargs="*")
    p_serve = sub.add_parser("serve-cloud", help="serve one session over a socket")
    p_serve.add_argument("--bind", required=True, metavar="HOST:PORT")
    p_edge = sub.add_parser("run-edge", help="drive a session against a cloud socket")
    p_edge.add_argument("--connect", required=True, metavar="HOST:PORT")
    p_edge.add_argument("prompt", nargs="*")
    return parser


def _apply_overrides(cfg: ExperimentConfig, args: argparse.Namespace) -> ExperimentConfig:
    flags = {f: v for f in _PROTOCOL_FIELDS.values() if (v := getattr(args, f, None)) is not None}
    cfg.protocol = replace(cfg.protocol, **flags)
    if args.out is not None:
        cfg.out_dir = Path.cwd() / args.out
    return cfg


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(
        level=os.environ.get("SPECSTEER_LOG", "WARNING").upper(),
        format="%(name)s %(levelname)s %(message)s",
    )
    args = _build_parser().parse_args(argv)
    try:
        cfg = _apply_overrides(load_config(args.config), args)
        if args.command == "run":
            return cmd_run(cfg, args.prompt)
        if args.command == "sweep":
            return cmd_sweep(cfg, args.prompt)
        if args.command == "oracle":
            return cmd_oracle(cfg, args.history)
        if args.command == "serve-cloud":
            return cmd_serve_cloud(cfg, args.bind)
        if args.command == "run-edge":
            return cmd_run_edge(cfg, args.connect, args.prompt)
        raise ConfigError(f"unknown command {args.command!r}")
    except SpecSteerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
