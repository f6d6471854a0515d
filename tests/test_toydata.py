"""The bundled toy data: one source for the library and the CLI, counted
exactly as the per-token reference loop counts it."""

from __future__ import annotations

import fnmatch
import hashlib
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import specsteer.toydata as toydata
from specsteer.cli import DEFAULT_CONFIG, build_world, load_config
from specsteer.core import ConfigError, ProtocolConfig, SpecSteerError, Vocabulary
from specsteer.models import BOS, _count_table
from specsteer.protocol import run_session
from specsteer.toydata import DATA_DIR, EOS_TOKEN, bundled_themes, load_corpus, toy_world

PACKAGE_DIR = Path(toydata.__file__).parent
PYPROJECT = PACKAGE_DIR.parents[1] / "pyproject.toml"

# Every digest, committed sequence and test outcome depends on these bytes.
DATA_SHA256 = {
    "default.cfg": "d48116d5f6573b369673c0db796b24df7cd670688cf4ae6fc8420a580931e0d1",
    "generalist.txt": "c74f6460c14e1d3b7886eff0d38aa5cf66d5321385fe66e7fb774b4466effae4",
    "specialist_base.txt": "59e3f27196bb8475c9482e65c3c3be7512c30975924decc4e9bfcdc14ee3cc5c",
    "user_atelier.txt": "619b71828c085bd3a2c26d4e2dee3a8107d064c99a15ac06c6bfe56bbae82ac6",
    "user_gino.txt": "b1138302753e1829cb6ab790781fc3d372d155f1a75e06e047f8d9c1d15175dd",
    "user_trail.txt": "b649ade1435b132ea57307d34e417638bfe271993a0ad5cad3cbdd8ef49f799e",
}

# Committed ids of fixed-seed sessions on toy_world(), recorded when the
# world was still built from corpora generated in code.
PINNED_SESSIONS = [
    (0, 0.5, ["we", "ordered", "the"], [99, 65, 87, 14, 9, 61, 0]),
    (7, 0.1, ["she", "visited", "the"],
     [77, 94, 87, 82, 37, 67, 35, 60, 77, 39, 94, 15, 9, 52, 93, 20, 12, 15, 88, 98,
      87, 54, 24, 20, 12, 1, 92, 72, 98, 60, 55, 89]),
    (13, 1.0, ["the"],
     [87, 51, 41, 63, 87, 22, 7, 98, 47, 34, 62, 86, 28, 94, 8, 97, 78, 35, 24, 73,
      33, 14, 92, 48, 5, 70, 92, 96, 30, 27, 76, 60]),
    (21, 0.5, ["they", "tried", "the"],
     [88, 92, 87, 83, 2, 87, 21, 9, 34, 53, 79, 86, 95, 81, 51, 26, 83, 43, 14, 27,
      54, 97, 37, 54, 95, 37, 27, 3, 83, 70, 29, 51]),
]


def reference_count_table(corpus, order):
    """The per-token counting loop ``_count_table`` replaced."""
    m = order - 1
    counts: dict = {}
    totals: dict = {}
    for doc in corpus:
        padded = [BOS] * m + list(doc)
        for i in range(m, len(padded)):
            window = tuple(padded[i - m:i])
            tok = padded[i]
            counts.setdefault(window, {})
            counts[window][tok] = counts[window].get(tok, 0) + 1
            totals[window] = totals.get(window, 0) + 1
    return counts, totals


def assert_same_tables(got, want):
    """Equal dicts with equal key order, at both levels."""
    (counts, totals), (ref_counts, ref_totals) = got, want
    assert counts == ref_counts and totals == ref_totals
    assert list(counts) == list(ref_counts) and list(totals) == list(ref_totals)
    for window, row in counts.items():
        assert list(row) == list(ref_counts[window])


class TestCountTable:
    @pytest.mark.parametrize("order", [1, 2, 3])
    @pytest.mark.parametrize("name", sorted(n for n in DATA_SHA256 if n.endswith(".txt")))
    def test_bundled_corpora_match_reference(self, name, order):
        docs = load_corpus(DATA_DIR / name)
        vocab = Vocabulary.build(docs, EOS_TOKEN)
        corpus = [vocab.ids_of(doc) + [vocab.eos_id] for doc in docs]
        assert_same_tables(_count_table(corpus, order), reference_count_table(corpus, order))

    @settings(max_examples=300, deadline=None)
    @given(
        corpus=st.lists(st.lists(st.integers(0, 4), max_size=6), max_size=8),
        order=st.integers(1, 3),
    )
    @example(corpus=[], order=2)
    @example(corpus=[[], [3], [], [1, 1]], order=3)
    @example(corpus=[[2], [2], [0, 2]], order=1)
    def test_matches_reference(self, corpus, order):
        assert_same_tables(_count_table(corpus, order), reference_count_table(corpus, order))


class TestBundledData:
    @pytest.mark.parametrize("name", sorted(DATA_SHA256))
    def test_file_pinned(self, name):
        digest = hashlib.sha256((DATA_DIR / name).read_bytes()).hexdigest()
        assert digest == DATA_SHA256[name]

    def test_no_unpinned_files(self):
        assert sorted(p.name for p in DATA_DIR.iterdir() if p.is_file()) == sorted(DATA_SHA256)

    def test_every_file_read_is_packaged(self, monkeypatch):
        tomllib = pytest.importorskip("tomllib")
        with open(PYPROJECT, "rb") as fh:
            globs = tomllib.load(fh)["tool"]["setuptools"]["package-data"]["specsteer"]
        read: set[Path] = {DEFAULT_CONFIG}
        cfg = load_config(DEFAULT_CONFIG)
        read |= {cfg.corpus_generalist, cfg.corpus_specialist, cfg.corpus_private}

        def recording_load(path):
            read.add(Path(path))
            return load_corpus(path)

        monkeypatch.setattr(toydata, "load_corpus", recording_load)
        for theme in bundled_themes():
            toy_world(theme)
        assert len(read) == 2 + len(bundled_themes()) + 1
        for path in read:
            rel = path.resolve().relative_to(PACKAGE_DIR.resolve()).as_posix()
            assert any(fnmatch.fnmatchcase(rel, g) for g in globs), rel


class TestToyWorld:
    def test_shape_pinned(self, world):
        assert world.vocab.size == 102
        assert world.vocab.tokens[world.vocab.eos_id] == EOS_TOKEN
        assert (world.llm.window, world.slm_minus.window, world.slm_plus.window) == (2, 1, 1)

    @pytest.mark.parametrize("seed, lam, words, committed", PINNED_SESSIONS)
    def test_sessions_pinned(self, world, seed, lam, words, committed):
        cfg = ProtocolConfig(lam=lam, max_len=32, seed=seed)
        got, _ = run_session(
            cfg, world.llm, world.slm_plus, world.slm_minus, world.vocab, world.vocab.ids_of(words)
        )
        assert got == committed

    def test_default_config_builds_the_toy_world(self, world):
        # One source of toy data: the CLI's default world commits what
        # toy_world() commits.
        cfg = load_config(DEFAULT_CONFIG)
        cli_world = build_world(cfg)
        assert cli_world.vocab == world.vocab
        prompt = world.vocab.ids_of(["we", "ordered", "the"])
        for seed in (0, 1, 2, 3, 17):
            protocol = replace(cfg.protocol, seed=seed)
            got = run_session(protocol, cli_world.llm, cli_world.slm_plus, cli_world.slm_minus,
                              cli_world.vocab, prompt)
            want = run_session(protocol, world.llm, world.slm_plus, world.slm_minus,
                               world.vocab, prompt)
            assert got == want

    def test_themes(self):
        assert bundled_themes() == ("atelier", "gino", "trail")

    @pytest.mark.parametrize("theme", ["trail", "atelier"])
    def test_theme_reads_its_bundled_file(self, theme):
        world = toy_world(theme)
        docs = load_corpus(DATA_DIR / f"user_{theme}.txt")
        vocab = world.vocab
        expected = tuple(tuple(vocab.ids_of(d) + [vocab.eos_id]) for d in docs)
        assert world.private_ctx.documents == expected
        assert world.private_ctx.identifier == theme

    @pytest.mark.parametrize("theme", ["nope", "../generalist", ""])
    def test_unknown_theme(self, theme):
        with pytest.raises(ConfigError, match="atelier, gino, trail") as info:
            toy_world(theme)
        assert isinstance(info.value, SpecSteerError)
