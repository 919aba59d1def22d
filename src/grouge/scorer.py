"""Lexico-semantic summary scoring and batch evaluation.

For every (peer, model) pair the two texts disambiguate each other, the
peer becomes one sense-seeded walk vector, and each model n-gram becomes a
walk vector seeded by its assigned senses. A gram's score blends its
clipped lexical match with the rank overlap of the two vectors:

    blended = beta * match + (1 - beta) * overlap

Corpus scores aggregate gram scores over all models and divide by the
total model gram count, so beta = 1 reduces exactly to plain recall.
"""

from __future__ import annotations

import csv
import functools
import io
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .disambiguation import SenseAssignment, WordType, build_word_types, disambiguate_pair
from .fileio import write_atomic
from .graph import Dictionary, SenseId
from .ppr import PprConfig, PprEngine, PprVector
from .rouge import NGram, NGramMultiset, clipped_matches, grams_for
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
    ppr: PprConfig = PprConfig()
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


def _signature(
    engine: PprEngine, seeds: tuple[SenseId, ...], oov: tuple[str, ...], oov_enabled: bool
) -> PprVector | None:
    """Walk vector seeded by senses plus OOV dimensions; None when empty."""
    if seeds:
        vec = engine.ppr_for_sense_set(seeds)
    else:
        vec = PprVector(engine.graph, np.empty(0, np.int64), np.empty(0, np.float64))
    if oov_enabled:
        vec = insert_oov(vec, oov)
    return vec if vec else None


class PairScorer:
    """Scoring context for one (model summary, peer summary) pair.

    Disambiguation runs once per pair and is shared by every n-gram and
    every variant scored against it. A lexical-only scorer (semantic=False)
    needs no engine or dictionary. word_types maps each text to its
    ``build_word_types`` list; without it both are built here.

    Walk vectors are looked up in the engine's cache and walked one at a
    time on a miss; ``parts_by_family`` primes them in batches first.
    """

    def __init__(
        self,
        model_text: SummaryText,
        peer_text: SummaryText,
        engine: PprEngine | None,
        dictionary: Dictionary | None,
        oov_enabled: bool = True,
        semantic: bool = True,
        word_types: Mapping[SummaryText, list[WordType]] | None = None,
    ):
        self.engine = engine
        self.oov_enabled = oov_enabled
        self.semantic = semantic
        self.model_assignment: SenseAssignment | None = None
        self.peer_assignment: SenseAssignment | None = None
        self._peer_key: tuple[tuple[SenseId, ...], tuple[str, ...]] = ((), ())
        self._sense_map: dict[str, SenseId | None] = {}
        self._sig_cache: dict[tuple, PprVector | None] = {}
        if semantic and model_text.token_count and peer_text.token_count:
            if word_types is None:
                word_types = {
                    text: build_word_types(text, dictionary) for text in (model_text, peer_text)
                }
            self.model_assignment, self.peer_assignment = disambiguate_pair(
                word_types[model_text], word_types[peer_text], engine
            )
            self._sense_map = {
                e.word.stem: e.sense for e in self.model_assignment
            }
            self._peer_key = (self.peer_assignment.senses(), self.peer_assignment.oov_stems())

    @functools.cached_property
    def peer_signature(self) -> PprVector | None:
        """Walk vector of the peer's assigned senses plus its OOV stems;
        None when the pair was not disambiguated or the vector is empty."""
        if self.peer_assignment is None:
            return None
        return _signature(self.engine, *self._peer_key, self.oov_enabled)

    def _gram_key(self, gram: NGram) -> tuple:
        terms = tuple(dict.fromkeys(gram.content_terms()))
        seeds = []
        oov = []
        for term in terms:
            sense = self._sense_map.get(term)
            if sense is None:
                oov.append(term)
            else:
                seeds.append(sense)
        return tuple(dict.fromkeys(seeds)), tuple(oov)

    def seed_sets(self, gram_multisets: Iterable[NGramMultiset]) -> list[tuple[SenseId, ...]]:
        """Seed sets of every walk vector that scoring gram_multisets
        against the peer looks up: the peer signature's and each gram's."""
        keys = [self._peer_key]
        keys += (self._gram_key(gram) for grams in gram_multisets for gram, _ in grams.items())
        return [seeds for seeds, _ in keys if seeds]

    def gram_signature(self, gram: NGram) -> PprVector | None:
        key = self._gram_key(gram)
        if key not in self._sig_cache:
            self._sig_cache[key] = _signature(self.engine, *key, self.oov_enabled)
        return self._sig_cache[key]

    def gram_overlap(self, gram: NGram) -> float:
        """Semantic term of the blend for one gram against the peer text."""
        if self.peer_signature is None:
            return 0.0
        sig = self.gram_signature(gram)
        if sig is None:
            return 0.0
        return sim_sem(sig, self.peer_signature)

    def parts(self, model_grams: NGramMultiset, peer_grams: NGramMultiset) -> ScoreParts:
        """Clipped match, occurrence-weighted overlap and gram count of the
        model grams against the peer's."""
        semantic = 0.0
        if self.semantic:
            for gram, mc in model_grams.items():
                semantic += mc * self.gram_overlap(gram)
        lexical = float(clipped_matches(model_grams, peer_grams))
        return ScoreParts(lexical, semantic, float(model_grams.total))

    def debug_lines(self) -> list[str]:
        lines = []
        for label, assignment in (
            ("model", self.model_assignment),
            ("peer", self.peer_assignment),
        ):
            if assignment is None:
                continue
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
    semantic: bool = True,
    gram_sets: Mapping[SummaryText, Mapping[str, NGramMultiset]] | None = None,
    debug: list[list[str]] | None = None,
) -> dict[str, ScoreParts]:
    """Score parts of one peer per gram family, summed over its models.

    gram_sets maps every text to its gram multisets by family; without it
    they are extracted here. When debug is given, each pair's sense
    assignment lines are appended to it, one list per model.

    This is where walks are planned. Every candidate sense of the peer and
    its models is walked in one batch before the pairs are disambiguated,
    and every peer-signature and gram seed set of those pairs in a second
    batch before they are scored, so scoring itself only reads the engine's
    cache. Planning per peer bounds the batch width, and with it the
    memory a walk holds.
    """
    if not models:
        raise ValueError("at least one model summary is required")
    if gram_sets is None:
        gram_sets = {
            text: {family: grams_for(text, family) for family in families}
            for text in (peer, *models)
        }
    word_types = None
    if semantic and peer.token_count:
        word_types = {
            text: build_word_types(text, dictionary)
            for text in (peer, *models) if text.token_count
        }
        engine.prime_senses(s for words in word_types.values() for w in words for s in w.senses)
    pairs = [
        PairScorer(model, peer, engine, dictionary, oov_enabled, semantic, word_types)
        for model in models
    ]
    if semantic:
        engine.prime_seed_sets([
            seeds
            for model, pair in zip(models, pairs)
            for seeds in pair.seed_sets(gram_sets[model][family] for family in families)
        ])
    peer_grams = gram_sets[peer]
    out = {family: ScoreParts() for family in families}
    for model, pair in zip(models, pairs):
        if debug is not None:
            debug.append(pair.debug_lines())
        model_grams = gram_sets[model]
        for family in families:
            out[family] = out[family] + pair.parts(model_grams[family], peer_grams[family])
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
        peer, models, (family,), engine, dictionary,
        oov_enabled=cfg.oov_enabled, semantic=semantic,
    )
    return parts[family].blend(cfg.beta if semantic else 1.0)


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
    provenance: dict = field(default_factory=dict)
    debug_lines: list[str] = field(default_factory=list)

    def score(self, topic: str, system: str, variant: str) -> float:
        return self.rows[(topic, system, variant)]

    def to_csv_bytes(self) -> bytes:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["topic", "system", "variant", "score"])
        for (topic, system, variant) in sorted(self.rows):
            writer.writerow([topic, system, variant, f"{self.rows[(topic, system, variant)]:.12g}"])
        return buf.getvalue().encode("utf-8")

    def write_csv(self, path: str | Path) -> None:
        write_atomic(path, self.to_csv_bytes())


def _scan_corpus_dir(directory: Path) -> tuple[dict[tuple[str, str], Path], list[str]]:
    """Map (topic, id) -> file for a <topic>.<id>.txt directory layout."""
    out: dict[tuple[str, str], Path] = {}
    errors: list[str] = []
    for path in sorted(directory.iterdir()):
        if not path.is_file() or path.suffix != ".txt":
            continue
        fields = path.name.split(".")
        if len(fields) < 3:
            errors.append(f"{path}: expected <topic>.<id>.txt, skipped")
            continue
        out[(fields[0], ".".join(fields[1:-1]))] = path
    return out, errors


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
    provenance: dict | None = None,
) -> ScoreReport:
    """Score every (topic, system) peer against its topic's model summaries.

    Missing peer summaries score 0 and are flagged so every system covers
    the same topic set; unreadable files become error entries and the rest
    of the batch continues. Peers are scored one after another on the
    calling thread, and one topic's texts and grams are held at a time.
    """
    families = sorted({variant_family(v) for v in variants})
    semantic = any(variant_is_semantic(v) for v in variants)
    report = ScoreReport(variants=tuple(variants), provenance=provenance or {})

    peers, peer_scan_errors = _scan_corpus_dir(Path(peers_dir))
    models, model_scan_errors = _scan_corpus_dir(Path(models_dir))
    report.errors.extend(peer_scan_errors)
    report.errors.extend(model_scan_errors)

    def read_text(path: Path) -> SummaryText:
        return tokenize(
            path.read_text("utf-8"),
            stemming=stemming,
            remove_stopwords=remove_stopwords,
        )

    def gram_sets_of(text: SummaryText) -> dict[str, NGramMultiset]:
        return {family: grams_for(text, family) for family in families}

    model_topics = sorted({topic for topic, _ in models})
    peer_topics = {topic for topic, _ in peers}
    for topic in sorted(peer_topics - set(model_topics)):
        report.flagged.append(f"topic {topic}: no model summaries, skipped")

    topic_models: dict[str, list[SummaryText]] = {}
    for topic in model_topics:
        loaded = []
        for (t, model_id), path in sorted(models.items()):
            if t != topic:
                continue
            try:
                loaded.append(read_text(path))
            except (OSError, UnicodeDecodeError) as exc:
                report.errors.append(f"{path}: {exc}")
        if loaded:
            topic_models[topic] = loaded
        else:
            report.flagged.append(f"topic {topic}: all model summaries unreadable, skipped")

    systems = sorted({system for _, system in peers})

    def score_peer(
        topic: str, system: str, model_grams: dict[SummaryText, dict[str, NGramMultiset]]
    ) -> tuple[dict[str, ScoreParts], list[str]]:
        peer_path = peers.get((topic, system))
        if peer_path is None:
            report.flagged.append(f"{topic}.{system}: peer summary missing, scored 0")
            return {}, []
        try:
            peer_text = read_text(peer_path)
        except (OSError, UnicodeDecodeError) as exc:
            report.errors.append(f"{peer_path}: {exc}")
            return {}, []
        gram_sets = {**model_grams, peer_text: gram_sets_of(peer_text)}
        pair_lines: list[list[str]] | None = [] if collect_debug else None
        parts = parts_by_family(
            peer_text, topic_models[topic], families, engine, dictionary,
            oov_enabled=cfg.oov_enabled, semantic=semantic, gram_sets=gram_sets,
            debug=pair_lines,
        )
        header = f"# topic={topic} system={system}"
        return parts, [line for lines in pair_lines or () for line in (header, *lines)]

    for topic in sorted(topic_models):
        model_grams = {text: gram_sets_of(text) for text in topic_models[topic]}
        for system in systems:
            family_parts, debug = score_peer(topic, system, model_grams)
            for variant in variants:
                p = family_parts.get(variant_family(variant), ScoreParts())
                beta = cfg.beta
                if not variant_is_semantic(variant):
                    p, beta = ScoreParts(p.lexical, 0.0, p.total), 1.0
                report.rows[(topic, system, variant)] = p.blend(beta)
                report.parts[(topic, system, variant)] = p
            report.debug_lines.extend(debug)
    return report
