"""Lexico-semantic summary scoring and batch evaluation.

For every (peer, model) pair the two texts disambiguate each other, the
peer becomes one sense-seeded walk vector, and each model n-gram becomes a
walk vector seeded by its assigned senses. A gram's score blends its
clipped lexical match with the rank overlap of the two vectors:

    blended = beta * match + (1 - beta) * overlap

Corpus scores aggregate gram scores over all models and divide by the
total model gram count, so beta = 1 reduces exactly to plain recall.

Each peer is scored from one plan (``parts_by_family``): its pairs are
disambiguated from one similarity table, and each distinct walk vector
and each distinct (gram vector, peer vector) overlap is computed once for
all of its models and gram families. Its clipped matches with all of the
models come from one ``GramIndex`` per gram family, which ``score_batch``
builds once per topic.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .disambiguation import AssignedWord, SimilarityTable, build_word_types, disambiguate_pair
from .fileio import csv_bytes, write_atomic
from .graph import Dictionary, SemanticGraph, SenseId
from .ppr import PprEngine, PprVector
from .rouge import GramIndex, content_terms, grams_for
from .similarity import insert_oov, sim_sem
from .text import SummaryText, tokenize

ALL_VARIANTS = ("g1", "g2", "gsu4", "r1", "r2", "rsu4")


def variant_family(variant: str) -> str:
    """Gram family ("1", "2", "su4") of a score variant."""
    if variant not in ALL_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    return variant.lstrip("gr")


def variant_is_semantic(variant: str) -> bool:
    return variant.startswith("g")


@dataclass(frozen=True)
class GrougeConfig:
    variant: str = "g1"
    beta: float = 0.5
    oov_enabled: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must be in [0, 1], got {self.beta}")
        variant_family(self.variant)


@dataclass(frozen=True)
class ScoreParts:
    """Sufficient statistics of a corpus score; the blend is affine in beta."""

    lexical: float = 0.0
    semantic: float = 0.0
    total: float = 0.0

    def __add__(self, other: "ScoreParts") -> "ScoreParts":
        return ScoreParts(
            self.lexical + other.lexical,
            self.semantic + other.semantic,
            self.total + other.total,
        )

    def blend(self, beta: float) -> float:
        if self.total == 0.0:
            return 0.0
        return (beta * self.lexical + (1.0 - beta) * self.semantic) / self.total


def variant_score(variant: str, parts: ScoreParts, beta: float) -> tuple[ScoreParts, float]:
    """A variant's parts and score, from its gram family's parts.

    A ``g*`` variant blends the family's parts with beta. An ``r*`` variant
    is plain clipped recall: its parts drop the semantic sum and it scores
    with beta 1.
    """
    if not variant_is_semantic(variant):
        parts, beta = ScoreParts(parts.lexical, 0.0, parts.total), 1.0
    return parts, parts.blend(beta)


# A walk vector's identity: its seed senses and its OOV terms. The engine
# sorts the seeds (``_seed_key``) and ``insert_oov`` sorts the terms, so the
# order they were collected in never changes a bit.
SignatureKey = tuple[frozenset[SenseId], frozenset[str]]


def _signature_key(
    terms: Sequence[str], sense_of: Mapping[str, SenseId | None], oov_enabled: bool
) -> SignatureKey:
    """Key of the walk vector of terms: their assigned senses, and the terms
    without a sense as OOV dimensions (none when OOV dimensions are off)."""
    senses = [sense_of.get(t) for t in terms]
    oov = (t for t, s in zip(terms, senses) if s is None) if oov_enabled else ()
    return frozenset(s for s in senses if s is not None), frozenset(oov)


def _signature(
    graph: SemanticGraph, vec: PprVector | None, oov: frozenset[str]
) -> PprVector | None:
    """A seed set's walk vector (None without seeds) plus OOV dimensions;
    None when empty."""
    if vec is None:
        vec = PprVector(graph, np.empty(0, np.int64), np.empty(0, np.float64))
    vec = insert_oov(vec, oov)
    return vec if vec else None


def _debug_lines(pair: tuple[tuple[AssignedWord, ...], ...] | None) -> list[str]:
    lines = []
    for label, assignment in zip(("model", "peer"), pair or ()):
        lines.append(f"# side={label}")
        for entry in assignment:
            sense = entry.sense.canonical if entry.sense else "OOV"
            lines.append(f"{entry.word.stem}\t{sense}\t{entry.support:.6f}")
    return lines


def parts_by_family(
    peer: SummaryText,
    models: Sequence[SummaryText],
    families: Sequence[str],
    engine: PprEngine | None,
    dictionary: Dictionary | None,
    oov_enabled: bool = True,
    gram_sets: Mapping[SummaryText, Mapping[str, Counter[tuple[str, ...]]]] | None = None,
    debug: list[list[str]] | None = None,
    indexes: Mapping[str, GramIndex] | None = None,
) -> dict[str, ScoreParts]:
    """Score parts of one peer per gram family, summed over its models.

    gram_sets maps every text to its gram counts by family; without it
    they are extracted here. indexes maps each family to a ``GramIndex``
    of the models' grams, in the order of models, which gives the peer's
    clipped matches with every model at once and the models' gram totals;
    without it one is built here per family, and one built for another
    number of models is a ``ValueError``. Without an engine only the
    lexical parts are computed. When debug is given, each pair's sense
    assignment lines are appended to it, one list per model.

    This is the whole plan of a peer. Every candidate sense of the peer
    and its models is walked in one batch, then one ``SimilarityTable`` of
    model senses × peer senses is filled, each cell once, and each
    (model, peer) pair is disambiguated from it. The pair's peer side and
    each of its model grams get a ``SignatureKey``, and the vectors of
    every distinct seed set among them come from a second batch. Each
    distinct signature is then built once from its batch vector, and each
    distinct (gram key, peer key) overlap computed once, for all of the
    peer's models and families. Planning per peer bounds the batch width
    and the table, and so a peer's memory; the engine's cache decides only
    which vectors outlive the peer.
    """
    if not models:
        raise ValueError("at least one model summary is required")
    if gram_sets is None:
        gram_sets = {
            text: {family: grams_for(text, family) for family in families}
            for text in (peer, *models)
        }
    if indexes is None:
        indexes = {f: GramIndex([gram_sets[model][f] for model in models]) for f in families}
    elif any(len(indexes[f].totals) != len(models) for f in families):
        raise ValueError(f"gram indexes must be built for the {len(models)} models given")
    pairs: list[tuple[tuple[AssignedWord, ...], ...] | None] = [None] * len(models)
    semantic = [dict.fromkeys(families, 0.0) for _ in models]
    if engine is not None and peer.token_count:
        word_types = {
            text: build_word_types(text, dictionary)
            for text in (peer, *models) if text.token_count
        }
        engine.prime_senses(s for words in word_types.values() for w in words for s in w.senses)
        model_words = [w for model in models if model.token_count for w in word_types[model]]
        table = SimilarityTable(model_words, word_types[peer], engine)
        plans = []  # (model index, peer key, {gram: key}) of each disambiguated pair
        for i, model in enumerate(models):
            if not model.token_count:
                continue
            pairs[i] = disambiguate_pair(word_types[model], word_types[peer], table)
            model_senses, peer_senses = ({e.word.stem: e.sense for e in side} for side in pairs[i])
            grams = dict.fromkeys(g for f in families for g in gram_sets[model][f])
            plans.append((i, _signature_key(list(peer_senses), peer_senses, oov_enabled), {
                gram: _signature_key(content_terms(gram), model_senses, oov_enabled)
                for gram in grams
            }))
        seed_sets = list(dict.fromkeys(
            seeds for _, peer_key, keys in plans for seeds, _ in (peer_key, *keys.values()) if seeds
        ))
        vectors = dict(zip(seed_sets, engine.prime_seed_sets(seed_sets)))
        signature = functools.cache(  # each built once
            lambda key: _signature(engine.graph, vectors.get(key[0]), key[1])
        )
        overlaps: dict[tuple[SignatureKey, SignatureKey], float] = {}
        for i, peer_key, keys in plans:
            peer_sig = signature(peer_key)
            for family in families:
                for gram, mc in gram_sets[models[i]][family].items():
                    both = keys[gram], peer_key
                    if both not in overlaps:
                        sig = None if peer_sig is None else signature(keys[gram])
                        overlaps[both] = 0.0 if sig is None else sim_sem(sig, peer_sig)
                    semantic[i][family] += mc * overlaps[both]
    matches = {f: indexes[f].matches(gram_sets[peer][f]) for f in families}
    out = {family: ScoreParts() for family in families}
    for i in range(len(models)):
        if debug is not None:
            debug.append(_debug_lines(pairs[i]))
        for family in families:
            out[family] += ScoreParts(float(matches[family][i]), semantic[i][family],
                                      float(indexes[family].totals[i]))
    return out


def grouge_score(
    peer: SummaryText,
    models: list[SummaryText],
    cfg: GrougeConfig,
    engine: PprEngine | None = None,
    dictionary: Dictionary | None = None,
) -> float:
    """Corpus-level score of one peer against its models.

    A ``g*`` variant blends lexical and semantic parts with cfg.beta and
    needs an engine and a dictionary; an ``r*`` variant is plain clipped
    recall and needs neither.
    """
    semantic = variant_is_semantic(cfg.variant)
    if semantic and (engine is None or dictionary is None):
        raise ValueError(f"variant {cfg.variant} needs an engine and a dictionary")
    family = variant_family(cfg.variant)
    parts = parts_by_family(
        peer, models, (family,), engine if semantic else None, dictionary,
        oov_enabled=cfg.oov_enabled,
    )
    return variant_score(cfg.variant, parts[family], cfg.beta)[1]


# ---------------------------------------------------------------------------
# batch evaluation over a directory corpus
# ---------------------------------------------------------------------------


@dataclass
class ScoreReport:
    variants: tuple[str, ...]
    rows: dict[tuple[str, str, str], float] = field(default_factory=dict)
    parts: dict[tuple[str, str, str], ScoreParts] = field(default_factory=dict)
    flagged: list[str] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    debug_lines: list[str] = field(default_factory=list)

    def score(self, topic: str, system: str, variant: str) -> float:
        return self.rows[(topic, system, variant)]

    def to_csv_bytes(self) -> bytes:
        return csv_bytes([
            ["topic", "system", "variant", "score"],
            *([*key, f"{score:.12g}"] for key, score in sorted(self.rows.items())),
        ])

    def write_csv(self, path: str | Path) -> None:
        write_atomic(path, self.to_csv_bytes())


def _scan_corpus_dir(directory: Path, errors: list[str]) -> dict[tuple[str, str], Path]:
    """Map (topic, id) -> file for a <topic>.<id>.txt directory layout; a
    .txt file named otherwise is appended to errors."""
    out: dict[tuple[str, str], Path] = {}
    for path in sorted(directory.iterdir()):
        if not path.is_file() or path.suffix != ".txt":
            continue
        fields = path.name.split(".")
        if len(fields) < 3:
            errors.append(f"{path}: expected <topic>.<id>.txt, skipped")
        else:
            out[(fields[0], ".".join(fields[1:-1]))] = path
    return out


def score_batch(
    peers_dir: str | Path,
    models_dir: str | Path,
    cfg: GrougeConfig,
    engine: PprEngine | None,
    dictionary: Dictionary | None,
    variants: tuple[str, ...] = ALL_VARIANTS,
    stemming: bool = True,
    remove_stopwords: bool = False,
    collect_debug: bool = False,
) -> ScoreReport:
    """Score every (topic, system) peer against its topic's model summaries.

    Missing peer summaries score 0 and are flagged so every system covers
    the same topic set; badly named and unreadable files become error
    entries and the rest of the batch continues. The corpus is read in one
    pass: every model text first, in (topic, id) order, then each topic's
    peers in system order, each scored as it is read on the calling thread.
    A topic with peers but no models, or whose models are all unreadable,
    is flagged and skipped. The engine and dictionary are used only when
    some variant is semantic.
    """
    families = sorted({variant_family(v) for v in variants})
    if not any(variant_is_semantic(v) for v in variants):
        engine = None
    elif engine is None or dictionary is None:
        raise ValueError("semantic variants need an engine and a dictionary")
    report = ScoreReport(variants=tuple(variants))
    peers = _scan_corpus_dir(Path(peers_dir), report.errors)
    models = _scan_corpus_dir(Path(models_dir), report.errors)

    def read_text(path: Path) -> SummaryText | None:
        try:
            raw = path.read_text("utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            report.errors.append(f"{path}: {exc}")
            return None
        return tokenize(raw, stemming=stemming, remove_stopwords=remove_stopwords)

    for topic in sorted({topic for topic, _ in peers} - {topic for topic, _ in models}):
        report.flagged.append(f"topic {topic}: no model summaries, skipped")
    topic_models: dict[str, list[SummaryText]] = {}
    for (topic, _), path in sorted(models.items()):
        texts = topic_models.setdefault(topic, [])
        if (text := read_text(path)) is not None:
            texts.append(text)
    for topic in [topic for topic, texts in topic_models.items() if not texts]:
        report.flagged.append(f"topic {topic}: all model summaries unreadable, skipped")
        del topic_models[topic]

    systems = sorted({system for _, system in peers})
    for topic, texts in topic_models.items():
        model_grams = {text: {f: grams_for(text, f) for f in families} for text in texts}
        indexes = {f: GramIndex([model_grams[text][f] for text in texts]) for f in families}
        for system in systems:
            parts: dict[str, ScoreParts] = {}
            path = peers.get((topic, system))
            if path is None:
                report.flagged.append(f"{topic}.{system}: peer summary missing, scored 0")
            elif (peer := read_text(path)) is not None:
                pair_lines: list[list[str]] | None = [] if collect_debug else None
                parts = parts_by_family(
                    peer, texts, families, engine, dictionary, oov_enabled=cfg.oov_enabled,
                    gram_sets={**model_grams, peer: {f: grams_for(peer, f) for f in families}},
                    debug=pair_lines, indexes=indexes,
                )
                header = f"# topic={topic} system={system}"
                report.debug_lines.extend(
                    line for lines in pair_lines or () for line in (header, *lines)
                )
            for variant in variants:
                key = (topic, system, variant)
                report.parts[key], report.rows[key] = variant_score(
                    variant, parts.get(variant_family(variant), ScoreParts()), cfg.beta
                )
    return report
