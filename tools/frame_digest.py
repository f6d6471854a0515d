"""Hash a fixed set of sessions into two sha256s, one over their frames and
one over their committed ids and round traces, so that "the frames of
honest sessions, the committed ids and the ``RoundTrace``s stay
bit-identical" is two lines to compare between two checkouts.

    python tools/frame_digest.py [SRC_DIR]    # default: the src/ beside tools/

``SRC_DIR`` is put first on ``sys.path`` before ``specsteer`` is imported,
so the same script hashes the package of another checkout, such as a copy
of a parent commit.  The sessions of both digests start from one grid,
``grid_cases()``: two bundled worlds x three seeds x (stochastic, greedy)
x four lambdas x five ``top_k``, 240 sessions from carrier-phrase prompts.

``digest()``, the frame digest, covers, in this order:

- both ends' frame logs of the grid sessions, run by
  ``run_simulated_session``;
- both ends' frame logs of one refused session, an edge whose vocabulary
  the cloud does not share;
- boundary frames: a HELLO with every field at its limit, a DONE and a
  HELLO ack, and a draft and a verdict with every field at its limit.

``trace_digest()``, the trace digest, covers ``trace_cases()``, each run
by ``run_session`` in process:

- the grid sessions;
- the same worlds, three seeds, both modes and two ``top_k`` with exact-Z
  verification (``zt_fn=exact_partition_fn(...)``), 24 sessions;
- 48 random ``TableModel`` worlds, V from 3 to 16 with rows for windows of
  0, 1 and 2 ids, each with a random config, half of them exact-Z.

Each session adds its committed ids and, per round, its index, drafted
ids, alphas as ``float.hex``, accepted count, recovery token and both
frame sizes, so a one-ulp move of one alpha changes the trace digest.
``backend_cases()`` is a fixed subset of the lambda sessions that
``tests/test_backend_equivalence.py`` also runs over the simulated channel
and a socketpair.

It prints two lines, ``sha256 <hex>`` and the counts of sessions and of
frames or rounds, for the frames and then for the traces.
``tests/test_golden.py`` loads this script by path, calls ``digest()`` and
``trace_digest()`` and pins their results, so the tier-1 run gates both
digests and the session set lives here alone.
"""

from __future__ import annotations

import functools
import hashlib
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

WORLDS = ("gino", "trail")
SEEDS = (0, 1, 2)
HORIZONS = (1, 4, 8)     # horizon_k of each seed
LAMBDAS = (0.05, 0.3, 1.0, 4.0)
TOP_KS = (1, 4, 16, 32, 102)
PROMPTS = ("we ordered the", "he carried the", "i shared the", "the")
MAX_LEN = 40
EXACT_TOP_KS = (4, 32)
TABLES = 48
BACKEND_EVERY = 23     # every 23rd grid session is in the backend subset


class Case(NamedTuple):
    config: object
    models: tuple       # (llm, slm_plus, slm_minus)
    vocab: object
    prompt: list
    exact_z: bool


@functools.lru_cache(maxsize=None)
def _world(theme: str):
    from specsteer.toydata import toy_world
    return toy_world(theme)


def _world_case(theme: str, config, prompt: str, exact_z: bool = False) -> Case:
    w = _world(theme)
    return Case(config, (w.llm, w.slm_plus, w.slm_minus), w.vocab, w.vocab.ids_of(prompt.split()),
                exact_z)


def grid_cases() -> list[Case]:
    """The lambda sessions over both toy worlds, in hashing order."""
    from specsteer.core import DECODE_MODES, ProtocolConfig

    out: list[Case] = []
    for i, theme in enumerate(WORLDS):
        for seed, k in zip(SEEDS, HORIZONS):
            for mode in DECODE_MODES:
                for lam in LAMBDAS:
                    for j, top_k in enumerate(TOP_KS):
                        config = ProtocolConfig(
                            lam=lam, horizon_k=k, top_k=top_k, max_len=MAX_LEN,
                            decode_mode=mode, seed=1000 * i + 100 * seed + j,
                        )
                        out.append(_world_case(theme, config, PROMPTS[(seed + j) % len(PROMPTS)]))
    return out


def exact_cases() -> list[Case]:
    """The exact-Z sessions over both toy worlds."""
    from specsteer.core import DECODE_MODES, ProtocolConfig

    return [
        _world_case(theme, ProtocolConfig(horizon_k=4, top_k=top_k, max_len=MAX_LEN,
                                          decode_mode=mode, seed=5000 + 100 * i + seed),
                    PROMPTS[seed % len(PROMPTS)], exact_z=True)
        for i, theme in enumerate(WORLDS) for seed in SEEDS for mode in DECODE_MODES
        for top_k in EXACT_TOP_KS
    ]


def table_case(i: int) -> Case:
    """Random table world ``i``: a vocabulary of 3 to 16 ids (eos last),
    three tables with rows for the empty window and a few windows of one
    and two ids, a random config and prompt."""
    import numpy as np
    from specsteer.core import DECODE_MODES, ProtocolConfig, Vocabulary
    from specsteer.models import TableModel

    rng = np.random.default_rng(7000 + i)
    size = int(rng.integers(3, 17))
    vocab = Vocabulary(tuple(f"t{j}" for j in range(size - 1)) + ("</s>",), eos_id=size - 1)

    def row():
        p = rng.random(size) + 0.02
        return p / p.sum()

    def table():
        keys = [()] + [(int(a),) for a in rng.integers(0, size - 1, 2)]
        keys += [(int(a), int(b)) for a, b in rng.integers(0, size - 1, (2, 2))]
        return TableModel(vocab, {k: row() for k in keys})

    models = (table(), table(), table())
    config = ProtocolConfig(
        lam=float(rng.choice([0.1, 0.5, 1.0, 3.0])), beta=float(rng.choice([0.0, 0.5, 1.0])),
        horizon_k=int(rng.integers(1, 7)), top_k=int(rng.integers(1, size + 1)),
        max_len=int(rng.integers(4, 25)), decode_mode=DECODE_MODES[i % 2], seed=i,
    )
    prompt = [int(t) for t in rng.integers(0, size - 1, int(rng.integers(1, 3)))]
    return Case(config, models, vocab, prompt, i % 4 >= 2)


def trace_cases() -> list[Case]:
    """Every session of the trace digest, in hashing order."""
    return grid_cases() + exact_cases() + [table_case(i) for i in range(TABLES)]


def backend_cases() -> list[Case]:
    """The fixed subset that also runs over both channels: every
    ``BACKEND_EVERY``-th grid session and every table world's lambda
    session (exact-Z has no wire form)."""
    tables = [table_case(i) for i in range(TABLES)]
    return grid_cases()[::BACKEND_EVERY] + [c for c in tables if not c.exact_z]


def digest() -> tuple[str, int, int]:
    """(sha256 hex, sessions, frames) of the fixed set of frames."""
    from specsteer.core import DECODE_MODES, U16_MAX, U32_MAX, ProtocolConfig
    from specsteer.protocol import DraftBatch, Verdict
    from specsteer.transport import (
        CloudSession, DirectEndpoint, FrameLog, HandshakeError, encode_done, encode_draft,
        encode_hello, encode_hello_ack, encode_verdict, run_edge, run_simulated_session,
    )

    sha = hashlib.sha256()
    sessions = frames = 0
    with tempfile.TemporaryDirectory() as tmp:
        edge_path, cloud_path = f"{tmp}/edge.log", f"{tmp}/cloud.log"
        with FrameLog(edge_path) as edge_log, FrameLog(cloud_path) as cloud_log:
            for case in grid_cases():
                run_simulated_session(case.config, *case.models, case.vocab, case.prompt,
                                      edge_log=edge_log, cloud_log=cloud_log)
                sessions += 1
            # The cloud serves the second world; the edge speaks the first's.
            edge, cloud = _world(WORLDS[0]), _world(WORLDS[1])
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


def run(case: Case) -> tuple[list[int], list]:
    """``run_session`` of ``case``, in process."""
    from specsteer.protocol import exact_partition_fn, run_session

    llm, plus, minus = case.models
    zt_fn = exact_partition_fn(llm, plus, minus) if case.exact_z else None
    return run_session(case.config, llm, plus, minus, case.vocab, case.prompt, zt_fn=zt_fn)


def session_bytes(committed, traces) -> bytes:
    """The hashed form of one session: its committed ids, then one line per
    round."""
    lines = [" ".join(map(str, committed))]
    for t in traces:
        lines.append(
            f"{t.index} {' '.join(map(str, t.drafted))} | {' '.join(a.hex() for a in t.alphas)}"
            f" | {t.accepted_count} {t.recovery_token} {t.uplink_bytes} {t.downlink_bytes}"
        )
    return ("\n".join(lines) + "\n\n").encode()


def trace_digest() -> tuple[str, int, int]:
    """(sha256 hex, sessions, rounds) of the committed ids and round traces
    of ``trace_cases()``."""
    sha = hashlib.sha256()
    sessions = rounds = 0
    for case in trace_cases():
        committed, traces = run(case)
        sha.update(session_bytes(committed, traces))
        sessions += 1
        rounds += len(traces)
    return sha.hexdigest(), sessions, rounds


def main(argv: list[str]) -> int:
    src = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parents[1] / "src"
    sys.path.insert(0, str(src.resolve()))
    import specsteer
    if not Path(specsteer.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"specsteer was imported from {specsteer.__file__}, not from {src}")
    hexdigest, sessions, frames = digest()
    print(f"sha256 {hexdigest} ({sessions} sessions, {frames} frames)")
    hexdigest, sessions, rounds = trace_digest()
    print(f"sha256 {hexdigest} ({sessions} sessions, {rounds} rounds)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
