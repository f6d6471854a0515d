"""Shared fixtures and the acceptance-report terminal hook."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from specsteer.core import Vocabulary
from specsteer.models import TableModel
from specsteer.protocol import exact_partition_fn
from specsteer.toydata import toy_world

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
