"""Hash every frame of a fixed set of wire sessions into one sha256, so
that "the frames of honest sessions stay bit-identical" is one line to
compare between two checkouts.

    python tools/frame_digest.py [SRC_DIR]    # default: the src/ beside tools/

``SRC_DIR`` is put first on ``sys.path`` before ``specsteer`` is imported,
so the same script hashes the package of another checkout, such as a copy
of a parent commit.  The hash covers, in this order:

- both ends' frame logs of ``run_simulated_session`` over two bundled
  worlds x three seeds x (stochastic, greedy) x four lambdas x five
  ``top_k``, 240 sessions from carrier-phrase prompts;
- both ends' frame logs of one refused session, an edge whose vocabulary
  the cloud does not share;
- boundary frames: a HELLO with every field at its limit, a DONE and a
  HELLO ack, and a draft and a verdict with every field at its limit.

It prints one line: ``sha256 <hex>``, then the counts of sessions and
frames.  ``tests/test_golden.py`` loads this script by path, calls
``digest()`` and pins its result, so the tier-1 run gates the digest and
the session set lives here alone.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

WORLDS = ("gino", "trail")
SEEDS = (0, 1, 2)
HORIZONS = (1, 4, 8)     # horizon_k of each seed
LAMBDAS = (0.05, 0.3, 1.0, 4.0)
TOP_KS = (1, 4, 16, 32, 102)
PROMPTS = ("we ordered the", "he carried the", "i shared the", "the")
MAX_LEN = 40


def digest() -> tuple[str, int, int]:
    """(sha256 hex, sessions, frames) of the fixed set of frames."""
    from specsteer.core import DECODE_MODES, U16_MAX, U32_MAX, ProtocolConfig
    from specsteer.protocol import DraftBatch, Verdict
    from specsteer.toydata import toy_world
    from specsteer.transport import (
        CloudSession, DirectEndpoint, FrameLog, HandshakeError, encode_done, encode_draft,
        encode_hello, encode_hello_ack, encode_verdict, run_edge, run_simulated_session,
    )

    worlds = {theme: toy_world(theme) for theme in WORLDS}
    sha = hashlib.sha256()
    sessions = frames = 0
    with tempfile.TemporaryDirectory() as tmp:
        edge_path, cloud_path = f"{tmp}/edge.log", f"{tmp}/cloud.log"
        with FrameLog(edge_path) as edge_log, FrameLog(cloud_path) as cloud_log:
            for i, theme in enumerate(WORLDS):
                w = worlds[theme]
                for seed, k in zip(SEEDS, HORIZONS):
                    for mode in DECODE_MODES:
                        for lam in LAMBDAS:
                            for j, top_k in enumerate(TOP_KS):
                                cfg = ProtocolConfig(
                                    lam=lam, horizon_k=k, top_k=top_k, max_len=MAX_LEN,
                                    decode_mode=mode, seed=1000 * i + 100 * seed + j,
                                )
                                prompt = w.vocab.ids_of(PROMPTS[(seed + j) % len(PROMPTS)].split())
                                run_simulated_session(
                                    cfg, w.llm, w.slm_plus, w.slm_minus, w.vocab, prompt,
                                    edge_log=edge_log, cloud_log=cloud_log,
                                )
                                sessions += 1
            # The cloud serves the second world; the edge speaks the first's.
            edge, cloud = worlds[WORLDS[0]], worlds[WORLDS[1]]
            session = CloudSession(cloud.llm, cloud.slm_minus, cloud.vocab)
            try:
                run_edge(ProtocolConfig(), DirectEndpoint(session, cloud_log), edge.slm_plus,
                         edge.vocab, edge.vocab.ids_of(PROMPTS[0].split()), frame_log=edge_log)
            except HandshakeError:
                sessions += 1
            else:
                raise SystemExit("the foreign-vocabulary session was not refused")
        for path in (edge_path, cloud_path):
            records = FrameLog.read(path)
            frames += len(records)
            sha.update(Path(path).read_bytes())

    top = ProtocolConfig(
        lam=sys.float_info.max, beta=sys.float_info.max, horizon_k=U16_MAX, top_k=U16_MAX,
        max_len=U32_MAX, decode_mode=DECODE_MODES[-1], seed=2**64 - 1,
    )
    ids = (U32_MAX,) * U16_MAX
    for frame in (
        encode_hello(top, 2**64 - 1, ids),
        encode_done(U32_MAX, ids),
        encode_hello_ack(2**64 - 1),
        encode_draft(DraftBatch(U32_MAX, ids), U32_MAX),
        encode_verdict(Verdict(U32_MAX, U16_MAX, b"\xff" * 8 * U16_MAX)),
    ):
        sha.update(len(frame).to_bytes(4, "little") + frame)
        frames += 1
    return sha.hexdigest(), sessions, frames


def main(argv: list[str]) -> int:
    src = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parents[1] / "src"
    sys.path.insert(0, str(src.resolve()))
    import specsteer
    if not Path(specsteer.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"specsteer was imported from {specsteer.__file__}, not from {src}")
    hexdigest, sessions, frames = digest()
    print(f"sha256 {hexdigest} ({sessions} sessions, {frames} frames)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
