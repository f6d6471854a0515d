"""Shared fixtures, the socket harness and the acceptance-report terminal
hook."""

from __future__ import annotations

import importlib.util
import socket
import threading
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from specsteer.core import SpecSteerError, Vocabulary
from specsteer.models import TableModel
from specsteer.protocol import exact_partition_fn
from specsteer.toydata import toy_world
from specsteer.transport import SocketEndpoint, run_cloud, run_edge, serve_cloud_once

# One line per acceptance criterion, printed after the test run so the
# verdicts survive pytest's output capture.
ACCEPTANCE_RESULTS: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_RESULTS:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def world():
    """Bundled toy corpora world; built once per test run."""
    return toy_world()


def load_tool(name: str):
    """The script ``tools/<name>.py``, loaded by path as a module."""
    path = Path(__file__).resolve().parents[1] / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def make_vocab(size: int) -> Vocabulary:
    tokens = tuple(f"t{i}" for i in range(size - 1)) + ("</s>",)
    return Vocabulary(tokens=tokens, eos_id=size - 1)


def random_table_triple(rng: np.random.Generator, size: int):
    """Three single-row TableModels over a shared vocabulary."""
    vocab = make_vocab(size)
    models = tuple(
        TableModel(vocab, {(): rng.dirichlet(np.ones(size))}) for _ in range(3)
    )
    return vocab, models


# The test modes' marker for exact-Z verification, which no config field
# selects: a session in this mode is passed
# ``zt_fn=exact_partition_fn(llm, slm_plus, slm_minus)``.
EXACT_Z = {"exact_z": True}


def split_mode(mode: dict) -> tuple[dict, bool]:
    """A test mode's ``ProtocolConfig`` fields, and whether the mode
    verifies with the exact partition function (``EXACT_Z``)."""
    fields = dict(mode)
    return fields, fields.pop("exact_z", False)


def exact_zt(exact: bool, llm, slm_plus, slm_minus):
    """The ``zt_fn`` a session of an exact-Z mode is passed, or None."""
    return exact_partition_fn(llm, slm_plus, slm_minus) if exact else None


# ---------------------------------------------------------------------------
# Socket harness
# ---------------------------------------------------------------------------


@contextmanager
def socket_pair():
    """A connected pair of sockets, both closed when the block ends."""
    a, b = socket.socketpair()
    with a, b:
        yield a, b


def in_thread(fn):
    """Run ``fn`` on a daemon thread; returns the thread and its errors."""
    errors: list = []

    def main():
        try:
            fn()
        except Exception as exc:
            errors.append(exc)

    thread = threading.Thread(target=main, daemon=True)
    thread.start()
    return thread, errors


def _has_ipv6_loopback() -> bool:
    try:
        with socket.socket(socket.AF_INET6) as probe:
            probe.bind(("::1", 0))
    except OSError:
        return False
    return True


needs_ipv6 = pytest.mark.skipif(not _has_ipv6_loopback(), reason="no IPv6 loopback")


def serving(llm, minus, vocab, host="127.0.0.1"):
    """``serve_cloud_once`` on ``host`` on a daemon thread, once it
    listens: the thread, its errors, the list its stats are appended to,
    and the address it is bound to."""
    ready = threading.Event()
    bound: list = []
    stats: list = []
    thread, errors = in_thread(lambda: stats.append(
        serve_cloud_once((host, 0), llm, minus, vocab, ready=ready, bound=bound)))
    assert ready.wait(10)
    return thread, errors, stats, bound[0]


def socketpair_session(cfg, models, vocab, prompt, cloud_log=None, cloud_stats=None,
                       edge_log=None):
    """``run_edge`` against ``run_cloud`` over a socketpair, each with its
    frame log when one is given: the edge's committed ids and stats, or its
    error, and the cloud's error, or None.  The cloud's stats are appended
    to the list ``cloud_stats`` when given."""
    llm, plus, minus = models
    stats = cloud_stats if cloud_stats is not None else []
    with socket_pair() as (a, b):
        thread, errors = in_thread(lambda: stats.append(
            run_cloud(SocketEndpoint(a, timeout=5), llm, minus, vocab, cloud_log)))
        try:
            edge = run_edge(cfg, SocketEndpoint(b, timeout=5), plus, vocab, prompt, edge_log)
        except SpecSteerError as exc:
            edge = exc
        thread.join(timeout=5)
        assert not thread.is_alive()
        return edge, (errors[0] if errors else None)
