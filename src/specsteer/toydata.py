"""The bundled toy corpora and a ready-made model world.

The corpora under ``data/`` are synthetic English-like text over a small
shared vocabulary, one sentence per line.  ``generalist.txt`` repeats a
handful of carrier phrases ("we ordered the ...") at high frequency so the
large n-gram is confident about what usually follows them;
``specialist_base.txt`` is a smaller sample of the same public text.  Each
private corpus ``user_<theme>.txt`` (themes ``gino``, ``trail`` and
``atelier``) reuses those carriers but continues with idiosyncratic
vocabulary the public corpora never contain.  That construction gives the
ratio-based verifier genuine decisions to make: private continuations are
cheap under the generic baseline but expensive under the confident
generalist.

The files are the only source of toy data: ``toy_world`` and the CLI's
``default.cfg`` both read them.  This module's constants are the one
definition of the models' settings: ``assemble_world`` builds every world,
the CLI's included, with them, and no config sets them.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .core import ConfigError, PrivateContext, Vocabulary
from .models import NGramModel, condition_private, train_ngram

EOS_TOKEN = "</s>"

DATA_DIR = Path(__file__).parent / "data"


def bundled_themes() -> tuple[str, ...]:
    """Themes with a private corpus ``user_<theme>.txt`` in ``DATA_DIR``."""
    return tuple(sorted(p.stem.removeprefix("user_") for p in DATA_DIR.glob("user_*.txt")))


def tokenize_corpus(lines: list[str]) -> list[list[str]]:
    return [words for line in lines if (words := line.split())]


def load_corpus(path: str | Path) -> list[list[str]]:
    with open(path, encoding="utf-8") as fh:
        return tokenize_corpus(fh.read().splitlines())


# ---------------------------------------------------------------------------
# Model assembly
# ---------------------------------------------------------------------------

# The order and add-k smoothing of the generalist and of the specialist,
# and the weight of the private table in the private specialist.
LLM_ORDER = 3
LLM_ADD_K = 0.01
SLM_ORDER = 2
SLM_ADD_K = 1.0
MU = 0.9


@dataclass
class ToyWorld:
    vocab: Vocabulary
    llm: NGramModel
    slm_minus: NGramModel
    slm_plus: NGramModel
    private_ctx: PrivateContext


def assemble_world(
    generalist_docs: list[list[str]],
    specialist_docs: list[list[str]],
    private_docs: list[list[str]],
    user_id: str = "user",
) -> ToyWorld:
    """Shared vocabulary over all corpora, eos appended to every document;
    the models are trained with this module's n-gram settings."""
    vocab = Vocabulary.build(generalist_docs + specialist_docs + private_docs, EOS_TOKEN)

    def encode(docs: list[list[str]]) -> list[list[int]]:
        return [vocab.ids_of(doc) + [vocab.eos_id] for doc in docs]

    llm = train_ngram(encode(generalist_docs), vocab, LLM_ORDER, LLM_ADD_K)
    slm_minus = train_ngram(encode(specialist_docs), vocab, SLM_ORDER, SLM_ADD_K)
    ctx = PrivateContext.from_documents(encode(private_docs), identifier=user_id)
    slm_plus = condition_private(slm_minus, ctx, MU)
    return ToyWorld(vocab=vocab, llm=llm, slm_minus=slm_minus, slm_plus=slm_plus, private_ctx=ctx)


def toy_world(theme: str = "gino") -> ToyWorld:
    """The default desk-scale world used by tests and the CLI examples,
    built from the bundled corpora and the private corpus of ``theme``."""
    themes = bundled_themes()
    if theme not in themes:
        raise ConfigError(f"unknown theme {theme!r}; bundled themes: {', '.join(themes)}")
    return assemble_world(
        load_corpus(DATA_DIR / "generalist.txt"),
        load_corpus(DATA_DIR / "specialist_base.txt"),
        load_corpus(DATA_DIR / f"user_{theme}.txt"),
        user_id=theme,
    )
