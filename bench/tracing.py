"""Spans and counters recorded around calls into grouge's modules.

The tracer replaces module attributes and ``PprEngine`` methods with
wrappers, so every call made through them opens a span (name, start, end,
parent). Spans stay in memory until the run ends. A layer is the first
component of a span name; its self time is the time its spans cover minus
the time their child spans cover. Scoring runs on one thread (jobs is 1),
so one stack of open spans gives every span its parent.
"""

from __future__ import annotations

import functools
import importlib
import time

# (module[:class], attribute, span name). Functions are patched where the
# caller looks them up: cli and scorer import them by name.
_PATCHES = (
    ("grouge.cli", "load_graph", "graph.load"),
    ("grouge.cli", "load_dictionary", "graph.dictionary_load"),
    ("grouge.cli", "score_batch", "scorer.score_batch"),
    ("grouge.cli", "correlate", "stats.correlate"),
    ("grouge.scorer:ScoreReport", "write_csv", "scorer.csv_write"),
    ("grouge.scorer", "tokenize", "text.tokenize"),
    ("grouge.scorer", "grams_for", "rouge.grams"),
    ("grouge.scorer", "build_word_types", "disambiguation.word_types"),
    ("grouge.scorer", "disambiguate_pair", "disambiguation.pair"),
    ("grouge.disambiguation", "align_disambiguate", "disambiguation.align"),
    ("grouge.scorer", "sim_sem", "similarity.sim_sem"),
    ("grouge.similarity", "sim_sem", "similarity.sim_sem"),  # sense_similarity's lookup
    ("grouge.stats", "bootstrap_ci", "stats.bootstrap"),
)

# Engine calls that produce walk vectors; ppr.walk_s is their self time.
_WALK_METHODS = ("prime_seed_sets", "prime_senses", "vector_for_seeds", "ppr_for_sense_set")


def _owner(path: str):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    def __init__(self, origin: float):
        self.origin = origin
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []
        self.gram_keys: set = set()
        self.sense_sim_calls = 0
        self.sense_pairs: set = set()
        self.walk_calls = 0
        self.walk_columns = 0

    def span(self, name: str, fn, before=None, after=None):
        """Wrap fn so each call records a span; before/after take counters."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            record = [name, 0.0, 0.0, parent]
            stack.append(len(spans))
            spans.append(record)
            token = before(parent, args) if before else None
            record[1] = time.monotonic()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = time.monotonic()
                stack.pop()
                if after:
                    after(token, args)

        return traced

    def install(self) -> None:
        from grouge.ppr import PprEngine

        for owner_path, attr, name in _PATCHES:
            owner = _owner(owner_path)
            before = self._count_grams if name == "rouge.grams" else None
            setattr(owner, attr, self.span(name, getattr(owner, attr), before))
        for method in _WALK_METHODS:
            setattr(PprEngine, method, self.span(
                "ppr." + method, getattr(PprEngine, method),
                before=self._misses_before, after=self._misses_after,
            ))
        # Too hot for a span per call (most calls are memo hits): count only.
        sense_similarity = PprEngine.sense_similarity
        tracer = self

        @functools.wraps(sense_similarity)
        def counted(engine, a, b):
            tracer.sense_sim_calls += 1
            tracer.sense_pairs.add((a, b) if hash(a) <= hash(b) else (b, a))
            return sense_similarity(engine, a, b)

        PprEngine.sense_similarity = counted

    def _count_grams(self, parent, args):
        self.gram_keys.add((id(args[0]), args[1]))  # (text, family)

    def _misses_before(self, parent, args):
        # Only the outermost engine call counts: prime_senses delegates to
        # prime_seed_sets and ppr_for_sense_set to vector_for_seeds.
        if parent >= 0 and self.spans[parent][0].startswith("ppr."):
            return None
        return args[0].stats().misses

    def _misses_after(self, misses_before, args):
        if misses_before is not None:
            columns = args[0].stats().misses - misses_before
            self.walk_columns += columns
            self.walk_calls += columns > 0

    def layer_table(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        table: dict[str, dict[str, float]] = {}
        for (name, start, end, _), child_s in zip(self.spans, covered):
            row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_s
        return table

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{parent},{name},{start - self.origin:.9f},{end - self.origin:.9f}\n")

    def summary(self) -> dict:
        return {
            "table": self.layer_table(),
            "gram_distinct": len(self.gram_keys),
            "sense_sim_calls": self.sense_sim_calls,
            "sense_sim_distinct": len(self.sense_pairs),
            "walk_calls": self.walk_calls,
            "walk_columns": self.walk_columns,
        }


def per_layer_metrics(score: dict, meta: dict, cache: dict | None,
                      pairs_per_s: float) -> dict[str, float]:
    """Per-layer metrics from the summaries of a traced score process and a
    traced meta-eval process, and the engine's cache statistics."""
    table: dict[str, dict[str, float]] = {}
    for summary in (score, meta):
        for name, row in summary["table"].items():
            merged = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in merged:
                merged[key] += row[key]

    def total(name: str) -> float:
        return table[name]["total_s"] if name in table else 0.0

    def calls(name: str) -> int:
        return table[name]["calls"] if name in table else 0

    def self_of(layer: str) -> float:
        return sum((row["self_s"] for name, row in table.items()
                    if name.startswith(layer + ".")), 0.0)

    cache = cache or {"hits": 0, "misses": 0, "size": 0, "memory_bytes": 0}
    return {
        "import.grouge_s": score["import_s"],
        "graph.load_s": total("graph.load"),
        "graph.dictionary_load_s": total("graph.dictionary_load"),
        "text.tokenize_s": total("text.tokenize"),
        "text.tokenize_calls": calls("text.tokenize"),
        "rouge.grams_s": total("rouge.grams"),
        "rouge.grams_calls": calls("rouge.grams"),
        "rouge.grams_distinct": score["gram_distinct"],
        "disambiguation.self_s": self_of("disambiguation"),
        "disambiguation.pairs": calls("disambiguation.pair"),
        "disambiguation.sense_sim_calls": score["sense_sim_calls"],
        "disambiguation.sense_sim_distinct": score["sense_sim_distinct"],
        "similarity.sim_sem_s": total("similarity.sim_sem"),
        "similarity.sim_sem_calls": calls("similarity.sim_sem"),
        "ppr.walk_s": self_of("ppr"),
        "ppr.walk_calls": score["walk_calls"],
        "ppr.walk_columns": score["walk_columns"],
        "ppr.cache_hits": cache["hits"],
        "ppr.cache_misses": cache["misses"],
        "ppr.cache_vectors": cache["size"],
        "ppr.cache_mb": cache["memory_bytes"] / 2**20,
        "scorer.self_s": self_of("scorer"),
        "scorer.csv_write_s": total("scorer.csv_write"),
        "stats.correlate_s": total("stats.correlate"),
        "stats.bootstrap_calls": calls("stats.bootstrap"),
        "cli.self_s": self_of("cli"),
        "process.cpu_s": score["cpu_s"] + meta["cpu_s"],
        "trace.pairs_per_s": pairs_per_s,
    }
