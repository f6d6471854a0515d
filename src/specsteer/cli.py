"""Command-line experiment harness.

Subcommands: ``run`` (one in-process session), ``sweep`` (lambda/beta grid
with CSV + SVG chart), ``oracle`` (exact fusion report for a history),
and ``serve-cloud`` / ``run-edge`` (real two-process socket session).
Configuration is a flat key=value text file; every emitted file carries
the hash of the effective configuration in a header.  Exit status is 0 iff
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

import numpy as np

from .core import (
    ConfigError,
    ProtocolConfig,
    SpecSteerError,
    clamp_probs,
    kl_divergence,
)
from .fusion import fused_target, one_step_protocol_law, verification_alpha
from .metrics import (
    CostModel,
    LatencyModel,
    apply_clock,
    summarize,
    write_summary_json,
    write_trace_csv,
)
from .models import ModelProfile
from .protocol import run_session
from .toydata import DATA_DIR, ToyWorld, assemble_world, load_corpus
from .transport import ChannelModel, FrameLog, run_edge_socket, serve_cloud_once

log = logging.getLogger("specsteer.cli")

DEFAULT_CONFIG = DATA_DIR / "default.cfg"

_MODEL_KEYS = ("name", "role", "n_params", "layers", "hidden_dim", "order", "add_k", "mu")

KNOWN_KEYS = (
    ("corpus.generalist", str),
    ("corpus.specialist", str),
    ("corpus.private", str),
    *((f"llm.{k}", str) for k in _MODEL_KEYS),
    *((f"slm.{k}", str) for k in _MODEL_KEYS),
    ("protocol.lambda", float),
    ("protocol.beta", float),
    ("protocol.k", int),
    ("protocol.top_k", int),
    ("protocol.max_len", int),
    ("protocol.mode", str),
    ("protocol.seed", int),
    ("sweep.lambda_list", str),
    ("sweep.beta_list", str),
    ("sweep.trials", int),
    ("channel.latency_ms", float),
    ("channel.bandwidth_bps", float),
    ("output.dir", str),
)
_KEY_TYPES = dict(KNOWN_KEYS)

_INT_MODEL_KEYS = ("n_params", "layers", "hidden_dim", "order")
_FLOAT_MODEL_KEYS = ("add_k", "mu")


@dataclass
class ExperimentConfig:
    """Everything a run needs, resolved to absolute paths."""

    corpus_generalist: Path
    corpus_specialist: Path
    corpus_private: Path
    llm: dict
    slm: dict
    protocol: ProtocolConfig
    lambda_list: tuple[float, ...]
    beta_list: tuple[float, ...]
    trials: int
    channel: ChannelModel
    out_dir: Path
    raw: dict


def _parse_kv_file(path: Path) -> dict[str, str]:
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    values: dict[str, str] = {}
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _KEY_TYPES:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        values[key] = value
    return values


def _float_list(text: str, key: str) -> tuple[float, ...]:
    parts = [p for p in text.replace(",", " ").split() if p]
    if not parts:
        raise ConfigError(f"{key} must be a nonempty list")
    return tuple(float(p) for p in parts)


def _model_section(raw: dict[str, str], prefix: str) -> dict:
    section: dict = {}
    for k in _MODEL_KEYS:
        full = f"{prefix}.{k}"
        if full not in raw:
            raise ConfigError(f"missing config key {full!r}")
        v = raw[full]
        if k in _INT_MODEL_KEYS:
            section[k] = int(v)
        elif k in _FLOAT_MODEL_KEYS:
            section[k] = float(v)
        else:
            section[k] = v
    return section


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    raw = _parse_kv_file(path)
    base = path.parent

    def resolve(key: str) -> Path:
        if key not in raw:
            raise ConfigError(f"missing config key {key!r}")
        p = Path(raw[key])
        p = p if p.is_absolute() else base / p
        if not p.is_file():
            raise ConfigError(f"corpus file not found: {p}")
        return p

    llm = _model_section(raw, "llm")
    slm = _model_section(raw, "slm")
    if llm["mu"] != 0.0:
        raise ConfigError("llm.mu must be 0 (private blending is edge-side only)")

    protocol = ProtocolConfig(
        lam=float(raw.get("protocol.lambda", 0.5)),
        beta=float(raw.get("protocol.beta", 1.0)),
        horizon_k=int(raw.get("protocol.k", 4)),
        top_k=int(raw.get("protocol.top_k", 32)),
        max_len=int(raw.get("protocol.max_len", 1024)),
        decode_mode=raw.get("protocol.mode", "stochastic"),
        seed=int(raw.get("protocol.seed", 0)),
    )
    trials = int(raw.get("sweep.trials", 200))
    if trials < 1:
        raise ConfigError("sweep.trials must be >= 1")
    out_dir = Path(raw.get("output.dir", "out"))
    if not out_dir.is_absolute():
        out_dir = Path.cwd() / out_dir
    return ExperimentConfig(
        corpus_generalist=resolve("corpus.generalist"),
        corpus_specialist=resolve("corpus.specialist"),
        corpus_private=resolve("corpus.private"),
        llm=llm,
        slm=slm,
        protocol=protocol,
        lambda_list=_float_list(raw.get("sweep.lambda_list", "1.0,0.5,0.1,0.01"), "sweep.lambda_list"),
        beta_list=_float_list(raw.get("sweep.beta_list", "0.0,1.0"), "sweep.beta_list"),
        trials=trials,
        channel=ChannelModel(
            one_way_latency_ms=float(raw.get("channel.latency_ms", 0.0)),
            bandwidth_bps=float(raw.get("channel.bandwidth_bps", float("inf"))),
        ),
        out_dir=out_dir,
        raw=dict(raw),
    )


def config_hash(cfg: ExperimentConfig) -> str:
    """Hash of the effective configuration (file plus CLI overrides)."""
    effective = dict(cfg.raw)
    effective.update(
        {
            "protocol.lambda": repr(cfg.protocol.lam),
            "protocol.beta": repr(cfg.protocol.beta),
            "protocol.k": repr(cfg.protocol.horizon_k),
            "protocol.top_k": repr(cfg.protocol.top_k),
            "protocol.max_len": repr(cfg.protocol.max_len),
            "protocol.mode": cfg.protocol.decode_mode,
            "protocol.seed": repr(cfg.protocol.seed),
            "output.dir": str(cfg.out_dir),
        }
    )
    blob = "\n".join(f"{k}={v}" for k, v in sorted(effective.items()))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def build_world(cfg: ExperimentConfig) -> ToyWorld:
    def profile(section: dict, role: str) -> ModelProfile:
        return ModelProfile(
            name=section["name"],
            param_count=section["n_params"],
            layers=section["layers"],
            hidden_dim=section["hidden_dim"],
            role=role,
        )

    world = assemble_world(
        load_corpus(cfg.corpus_generalist),
        load_corpus(cfg.corpus_specialist),
        load_corpus(cfg.corpus_private),
        llm_order=cfg.llm["order"],
        llm_add_k=cfg.llm["add_k"],
        slm_order=cfg.slm["order"],
        slm_add_k=cfg.slm["add_k"],
        mu=cfg.slm["mu"],
        user_id=cfg.corpus_private.stem,
    )
    # Profiles drive the cost model only; rebuild with configured stats.
    world.llm.profile = profile(cfg.llm, "generalist")
    world.slm_minus.profile = profile(cfg.slm, "specialist_generic")
    return world


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
    apply_clock(traces, latency, cfg.channel)
    chash = config_hash(cfg)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    cost = CostModel(llm=world.llm.profile, slm=world.slm_minus.profile, horizon_k=cfg.protocol.horizon_k)
    write_trace_csv(str(cfg.out_dir / "trace.csv"), traces, chash)
    write_summary_json(
        str(cfg.out_dir / "summary.json"),
        summarize(traces, latency, cost=cost, channel=cfg.channel),
        chash,
    )
    print(world.vocab.text_of(committed))
    print(f"# rounds={len(traces)} tokens={len(committed)} config_hash={chash}", file=sys.stderr)
    return 0


def _first_token_law_kl(
    world: ToyWorld, protocol: ProtocolConfig, prompt: list[int], trials: int
) -> float:
    """KL of the empirical first-emitted-token law against the exact fused
    target at the prompt, over seeded single-step sessions."""
    target = fused_target(
        world.llm.next_token_probs(prompt),
        world.slm_plus.next_token_probs(prompt),
        world.slm_minus.next_token_probs(prompt),
    ).target
    counts = np.zeros(world.vocab.size)
    one_step = replace(protocol, max_len=len(prompt) + 1, horizon_k=1)
    for s in range(trials):
        committed, _ = run_session(
            replace(one_step, seed=s),
            world.llm, world.slm_plus, world.slm_minus, world.vocab, prompt,
        )
        counts[committed[len(prompt)]] += 1
    empirical = counts / counts.sum()
    return kl_divergence(empirical, clamp_probs(target))


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
    rows: list[dict] = []
    for lam in cfg.lambda_list:
        for beta in cfg.beta_list:
            cell = replace(cfg.protocol, lam=lam, beta=beta)
            traces = []
            for s in range(cfg.trials):
                _, t = run_session(
                    replace(cell, seed=s),
                    world.llm, world.slm_plus, world.slm_minus, world.vocab, prompt,
                )
                traces.extend(t)
            apply_clock(traces, latency, cfg.channel)
            summary = summarize(traces, latency, channel=cfg.channel)
            rows.append(
                {
                    "lambda": lam,
                    "beta": beta,
                    "alpha_mean": summary["alpha_mean"],
                    "speedup": summary["speedup"],
                    "payload_up": summary["payload_up"],
                    "payload_down": summary["payload_down"],
                    "kl_first_token": _first_token_law_kl(world, cell, prompt, cfg.trials),
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
    if not host or not (port.isascii() and port.isdigit()) or int(port) > 65535:
        raise ConfigError(f"expected HOST:PORT with a port of at most 65535, got {text!r}")
    return host, int(port)


def cmd_serve_cloud(cfg: ExperimentConfig, bind: str) -> int:
    address = _parse_hostport(bind)
    world = build_world(cfg)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    log_path = cfg.out_dir / "cloud_frames.bin"
    # Printed before the accept, so that an edge can learn a port 0 bind.
    bound: list = []
    announce = SimpleNamespace(set=lambda: print("listening on %s:%d" % bound[0], flush=True))
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
    cfg.protocol.check_top_k(world.vocab.size)
    prompt = _prompt_ids(world, prompt_tokens)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    log_path = cfg.out_dir / "edge_frames.bin"
    with FrameLog(str(log_path)) as flog:
        committed, stats = run_edge_socket(
            cfg.protocol, address, world.slm_plus, world.vocab, prompt, frame_log=flog
        )
    chash = config_hash(cfg)
    latency = LatencyModel()
    apply_clock(stats.traces, latency, cfg.channel)
    write_trace_csv(str(cfg.out_dir / "trace.csv"), stats.traces, chash)
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
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--lambda", dest="lam", type=float, default=None)
    parser.add_argument("--beta", type=float, default=None)
    parser.add_argument("--k", type=int, default=None, help="draft horizon")
    parser.add_argument("--top-k", type=int, default=None, help="sparse payload size")
    parser.add_argument("--mode", choices=("greedy", "stochastic"), default=None)
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
    proto = cfg.protocol
    if args.seed is not None:
        proto = replace(proto, seed=args.seed)
    if args.lam is not None:
        proto = replace(proto, lam=args.lam)
    if args.beta is not None:
        proto = replace(proto, beta=args.beta)
    if args.k is not None:
        proto = replace(proto, horizon_k=args.k)
    if args.top_k is not None:
        proto = replace(proto, top_k=args.top_k)
    if args.mode is not None:
        proto = replace(proto, decode_mode=args.mode)
    cfg.protocol = proto
    if args.out is not None:
        out = Path(args.out)
        cfg.out_dir = out if out.is_absolute() else Path.cwd() / out
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
