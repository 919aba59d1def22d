"""Command-line entry point.

Subcommands: score, meta-eval, sweep-beta, ppr, cache-stats. Exit codes:
0 success, 1 fatal error, 2 partial failure (some files skipped), 64 usage
error. Relative data paths fall back to $GROUGE_DATA_DIR when not found in
the working directory. A ``--config`` file of ``key = value`` lines supplies
defaults that explicit flags override; unknown keys are rejected.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .fileio import write_atomic
from .graph import Dictionary, SemanticGraph, load_dictionary, load_graph
from .ppr import PprConfig, PprEngine, read_cache_file
from .scorer import (
    ALL_VARIANTS,
    GrougeConfig,
    ScoreReport,
    score_batch,
    variant_is_semantic,
)
from .stats import JudgmentTable, correlate, kendall, load_judgments, pearson, spearman

log = logging.getLogger("grouge")

EX_OK = 0
EX_FATAL = 1
EX_PARTIAL = 2
EX_USAGE = 64

DEFAULT_CACHE_FILE = "grouge-cache.pkl"


class UsageError(Exception):
    pass


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # usage problems exit 64, not argparse's 2
        raise UsageError(message)


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()[:12]


def _resolve(path_text: str) -> Path:
    path = Path(path_text)
    if path.exists():
        return path
    data_dir = os.environ.get("GROUGE_DATA_DIR")
    if data_dir and not path.is_absolute():
        candidate = Path(data_dir) / path_text
        if candidate.exists():
            return candidate
    return path


def _require(path_text: str, what: str) -> Path:
    path = _resolve(path_text)
    if not path.exists():
        raise CliError(f"{what} not found: {path_text}")
    return path


def _parse_variants(text: str) -> tuple[str, ...]:
    variants = tuple(dict.fromkeys(v.strip() for v in text.split(",") if v.strip()))
    for v in variants:
        if v not in ALL_VARIANTS:
            raise UsageError(f"unknown variant {v!r} (choose from {', '.join(ALL_VARIANTS)})")
    if not variants:
        raise UsageError("no variants given")
    return variants


def _parse_betas(text: str) -> list[float]:
    if ":" in text:
        start_s, stop_s, step_s = (text.split(":") + ["", ""])[:3]
        start, stop, step = float(start_s), float(stop_s), float(step_s or 0.1)
        if step <= 0:
            raise UsageError("beta step must be positive")
        out = []
        k = 0
        while True:
            value = start + k * step
            if value > stop + 1e-9:
                break
            out.append(round(value, 10))
            k += 1
        return out
    return [float(v) for v in text.split(",") if v.strip()]


def _version_text() -> str:
    lines = [f"grouge {__version__}"]
    # Only the file's existence is reported: reading a cache file unpickles
    # it, and printing the version must not run code from the working
    # directory. `cache-stats` reads an explicitly named file.
    cache_path = Path(os.environ.get("GROUGE_CACHE_FILE", DEFAULT_CACHE_FILE))
    lines.append(f"last cache: {cache_path if cache_path.exists() else 'none'}")
    return "\n".join(lines)


def _add_ppr_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--alpha", type=float, default=0.15, help="restart probability")
    sub.add_argument("--iterations", type=int, default=30, help="walk iterations")
    sub.add_argument("--truncation", type=int, default=None,
                     help="keep only the top-K vector dimensions (approximation)")


def _add_scoring_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--graph", help="relation file (UKB format)")
    sub.add_argument("--dict", dest="dict_path", help="sense dictionary file")
    sub.add_argument("--peers", required=True, help="peer summaries directory")
    sub.add_argument("--models", required=True, help="model summaries directory")
    sub.add_argument("--variant", default=",".join(ALL_VARIANTS),
                     help="comma list from: " + ",".join(ALL_VARIANTS))
    sub.add_argument("--beta", type=float, default=0.5, help="lexical blend weight")
    sub.add_argument("--no-stem", action="store_true", help="disable stemming")
    sub.add_argument("--remove-stopwords", action="store_true",
                     help="drop stopwords (kept by default)")
    sub.add_argument("--no-oov", action="store_true",
                     help="do not inject out-of-vocabulary dimensions")
    sub.add_argument("--jobs", type=int, default=1,
                     help="accepted for compatibility and ignored; scoring runs on one thread")
    sub.add_argument("--cache-capacity", type=int, default=200_000,
                     help="walk-vector cache size; 0 disables caching")
    sub.add_argument("--cache-persist", nargs="?", const=DEFAULT_CACHE_FILE, default=None,
                     help="load/save the walk-vector cache at this path")
    _add_ppr_flags(sub)


def build_parser() -> tuple[_Parser, dict[str, argparse.ArgumentParser]]:
    parser = _Parser(prog="grouge", description=__doc__)
    parser.add_argument("--version", action="store_true", help="print version and exit")
    subparsers = parser.add_subparsers(dest="command")
    submap: dict[str, argparse.ArgumentParser] = {}

    score = subparsers.add_parser("score", parents=[], description="Score peer summaries.")
    _add_scoring_flags(score)
    score.add_argument("--out", required=True, help="output CSV path")
    score.add_argument("--debug-senses", action="store_true",
                       help="print word<TAB>sense<TAB>support assignments")
    score.add_argument("--config", help="key = value defaults file")
    submap["score"] = score

    meta = subparsers.add_parser("meta-eval", description="Correlate scores with judgments.")
    meta.add_argument("--scores", required=True, help="score CSV from the score command")
    meta.add_argument("--human", required=True, help="judgments CSV (system, metrics...)")
    meta.add_argument("--join", default="system", help="join column name in the judgments CSV")
    meta.add_argument("--baseline", default=None, help="variant for Williams significance")
    meta.add_argument("--alpha", type=float, default=0.05, help="significance level")
    meta.add_argument("--seed", type=int, default=42, help="bootstrap seed")
    meta.add_argument("--resamples", type=int, default=1000, help="bootstrap resamples")
    meta.add_argument("--kendall-variant", choices=("a", "b"), default="b")
    meta.add_argument("--out", required=True, help="output CSV path")
    meta.add_argument("--config", help="key = value defaults file")
    submap["meta-eval"] = meta

    sweep = subparsers.add_parser("sweep-beta", description="Correlation as a function of beta.")
    _add_scoring_flags(sweep)
    sweep.add_argument("--human", required=True, help="judgments CSV")
    sweep.add_argument("--join", default="system", help="join column name")
    sweep.add_argument("--betas", default="0:1:0.1", help="comma list or start:stop:step")
    sweep.add_argument("--out", required=True, help="output CSV path")
    sweep.add_argument("--config", help="key = value defaults file")
    submap["sweep-beta"] = sweep

    ppr = subparsers.add_parser("ppr", description="Print a walk vector (debugging).")
    ppr.add_argument("--graph", required=True)
    ppr.add_argument("--dict", dest="dict_path", required=True)
    ppr.add_argument("--lemma", required=True)
    ppr.add_argument("--pos", choices=("n", "v", "a", "r"), default=None)
    ppr.add_argument("--sense", type=int, default=None, help="1-based sense rank")
    ppr.add_argument("--top", type=int, default=20, help="dimensions to print")
    ppr.add_argument("--config", help="key = value defaults file")
    _add_ppr_flags(ppr)
    submap["ppr"] = ppr

    cache = subparsers.add_parser("cache-stats", description="Inspect a persisted cache.")
    cache.add_argument("--cache", default=DEFAULT_CACHE_FILE, help="persisted cache path")
    submap["cache-stats"] = cache

    return parser, submap


def read_config(path_text: str, sub: argparse.ArgumentParser) -> dict:
    """Parse a key = value defaults file against a subcommand's options.

    Keys are flag names without the leading dashes (``dict``, ``no-stem``);
    values land on the option's dest so later flags still override them.
    """
    path = _require(path_text, "config file")
    actions: dict[str, argparse.Action] = {}
    for action in sub._actions:
        if action.dest in ("help", "config") or action.dest == argparse.SUPPRESS:
            continue
        for option in action.option_strings:
            actions[option.lstrip("-").replace("-", "_")] = action
        actions.setdefault(action.dest, action)
    out = {}
    for lineno, raw in enumerate(path.read_text("utf-8").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise UsageError(f"{path}:{lineno}: expected key = value")
        key = key.strip().replace("-", "_")
        value = value.strip()
        if key not in actions:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        action = actions[key]
        if isinstance(action, (argparse._StoreTrueAction, argparse._StoreFalseAction)):
            out[action.dest] = value.lower() in ("1", "true", "yes", "on")
        elif action.type is not None:
            try:
                out[action.dest] = action.type(value)
            except ValueError:
                raise UsageError(f"{path}:{lineno}: bad value for {key}: {value!r}") from None
        else:
            out[action.dest] = value
    return out


def _load_resources(args) -> tuple[SemanticGraph, Dictionary, Path, Path]:
    graph_path = _require(args.graph, "graph file")
    dict_path = _require(args.dict_path, "dictionary file")
    graph = load_graph(graph_path)
    dictionary = load_dictionary(dict_path, graph)
    return graph, dictionary, graph_path, dict_path


def _make_engine(args, graph: SemanticGraph) -> PprEngine:
    cfg = PprConfig(alpha=args.alpha, iterations=args.iterations, truncation=args.truncation)
    return PprEngine(graph, cfg, cache_capacity=args.cache_capacity)


def _run_scoring(args, variants) -> tuple[ScoreReport, PprEngine | None, dict]:
    need_semantics = any(variant_is_semantic(v) for v in variants)
    provenance: dict = {
        "variants": list(variants),
        "beta": args.beta,
        "alpha": args.alpha,
        "iterations": args.iterations,
        "truncation": args.truncation,
        "stemming": not args.no_stem,
        "remove_stopwords": args.remove_stopwords,
        "oov_enabled": not args.no_oov,
    }
    engine = None
    dictionary = None
    cache_meta: dict = {}
    if need_semantics:
        if not args.graph or not args.dict_path:
            raise UsageError("semantic variants require --graph and --dict")
        graph, dictionary, graph_path, dict_path = _load_resources(args)
        provenance["graph_sha256"] = _sha256(graph_path)
        provenance["dict_sha256"] = _sha256(dict_path)
        # the walk configuration is part of the cache identity: vectors from
        # a different alpha/iteration/truncation setting must not be reused
        cache_meta = {
            "graph_sha256": provenance["graph_sha256"],
            "dict_sha256": provenance["dict_sha256"],
            "alpha": args.alpha,
            "iterations": args.iterations,
            "truncation": args.truncation,
        }
        engine = _make_engine(args, graph)
        if args.cache_persist and Path(args.cache_persist).exists():
            if engine.load_cache(args.cache_persist, cache_meta):
                log.info("loaded persisted cache from %s", args.cache_persist)
            else:
                log.warning("persisted cache %s does not match graph/dict, ignored",
                            args.cache_persist)
    cfg = GrougeConfig(
        variant=next((v for v in variants if variant_is_semantic(v)), "g1"),
        beta=args.beta,
        ppr=PprConfig(alpha=args.alpha, iterations=args.iterations, truncation=args.truncation),
        oov_enabled=not args.no_oov,
    )
    report = score_batch(
        peers_dir=_require(args.peers, "peers directory"),
        models_dir=_require(args.models, "models directory"),
        cfg=cfg,
        engine=engine,
        dictionary=dictionary,
        variants=variants,
        stemming=not args.no_stem,
        remove_stopwords=args.remove_stopwords,
        collect_debug=getattr(args, "debug_senses", False),
        provenance=provenance,
    )
    if engine is not None and args.cache_persist:
        engine.save_cache(args.cache_persist, cache_meta)
    return report, engine, provenance


def run_score(args) -> int:
    variants = _parse_variants(args.variant)
    report, _, provenance = _run_scoring(args, variants)
    out = Path(args.out)
    report.write_csv(out)
    write_atomic(
        out.with_suffix(out.suffix + ".meta.json"),
        (json.dumps(provenance, indent=2, sort_keys=True) + "\n").encode("utf-8"),
    )
    if args.debug_senses:
        for line in report.debug_lines:
            print(line)
    for note in report.flagged:
        log.warning("%s", note)
    if report.errors:
        sidecar = out.with_suffix(out.suffix + ".errors.log")
        write_atomic(sidecar, "".join(e + "\n" for e in report.errors).encode("utf-8"))
        log.error("%d file error(s), details in %s", len(report.errors), sidecar)
        return EX_PARTIAL
    return EX_OK


def _system_table(
    means: dict[str, dict[str, float]],
    human_ids: list[str],
    human_columns: dict[str, np.ndarray],
) -> JudgmentTable:
    """Inner-join per-system metric means with judgment rows."""
    variants = sorted(means)
    scored_systems = set()
    for per_system in means.values():
        scored_systems.update(per_system)
    systems = [s for s in human_ids if s in scored_systems]
    if not systems:
        raise CliError("no systems shared between scores and judgments")
    index = [human_ids.index(s) for s in systems]
    human = {name: col[index] for name, col in human_columns.items()}
    auto = {
        variant: np.array([means[variant][s] for s in systems], dtype=np.float64)
        for variant in variants
    }
    return JudgmentTable(systems=systems, human=human, auto=auto)


def system_means(rows: dict[tuple[str, str, str], float]) -> dict[str, dict[str, float]]:
    """Per variant, each system's (topic, system, variant) scores averaged
    over every topic in rows.

    Every system must have a row for every topic, so that all systems are
    compared over the same topic set.
    """
    topics = sorted({topic for topic, _, _ in rows})
    systems = sorted({system for _, system, _ in rows})
    means: dict[str, dict[str, float]] = {}
    for variant in sorted({variant for _, _, variant in rows}):
        per_system = {}
        for system in systems:
            values = []
            for topic in topics:
                if (topic, system, variant) not in rows:
                    raise CliError(f"system {system} has no {variant} score for topic {topic}")
                values.append(rows[(topic, system, variant)])
            per_system[system] = sum(values) / len(values)
        means[variant] = per_system
    return means


def _read_score_rows(path: Path) -> dict[tuple[str, str, str], float]:
    rows: dict[tuple[str, str, str], float] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        required = {"topic", "system", "variant", "score"}
        if not required.issubset(reader.fieldnames or ()):
            raise CliError(f"{path}: expected columns {sorted(required)}")
        for row in reader:
            rows[(row["topic"], row["system"], row["variant"])] = float(row["score"])
    return rows


def run_meta_eval(args) -> int:
    scores_path = _require(args.scores, "scores CSV")
    human_path = _require(args.human, "judgments CSV")
    join_name, ids, columns = load_judgments(human_path)
    if join_name != args.join:
        log.warning("judgments join column is %r, expected %r", join_name, args.join)
    means = system_means(_read_score_rows(scores_path))
    table = _system_table(means, ids, columns)
    if args.baseline is not None and args.baseline not in table.auto:
        raise UsageError(f"baseline {args.baseline!r} is not a scored variant")
    report = correlate(
        table,
        significance_against=args.baseline,
        alpha=args.alpha,
        resamples=args.resamples,
        seed=args.seed,
        kendall_variant=args.kendall_variant,
    )
    report.write_csv(args.out)
    return EX_OK


def run_sweep_beta(args) -> int:
    variants = _parse_variants(args.variant)
    betas = _parse_betas(args.betas)
    if not betas:
        raise UsageError("empty beta grid")
    human_path = _require(args.human, "judgments CSV")
    join_name, ids, columns = load_judgments(human_path)
    if join_name != args.join:
        log.warning("judgments join column is %r, expected %r", join_name, args.join)
    report, _, _ = _run_scoring(args, variants)

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["beta", "variant", "human_metric", "pearson", "spearman", "kendall"])
    for beta in betas:
        # round through the score CSV's 12-significant-digit format so one
        # sweep row equals the score -> meta-eval composition
        rows = {
            key: float(f"{p.blend(beta if variant_is_semantic(key[2]) else 1.0):.12g}")
            for key, p in report.parts.items()
        }
        means = system_means(rows)
        table = _system_table(means, ids, columns)
        for variant in variants:
            a = table.auto[variant]
            for human_name in sorted(table.human):
                h = table.human[human_name]
                writer.writerow([
                    f"{beta:g}", variant, human_name,
                    f"{pearson(a, h):.12g}", f"{spearman(a, h):.12g}", f"{kendall(a, h):.12g}",
                ])
    write_atomic(args.out, buf.getvalue().encode("utf-8"))
    if report.errors:
        return EX_PARTIAL
    return EX_OK


def run_ppr(args) -> int:
    graph, dictionary, _, _ = _load_resources(args)
    engine = PprEngine(
        graph,
        PprConfig(alpha=args.alpha, iterations=args.iterations, truncation=args.truncation),
    )
    senses = dictionary.senses_of(args.lemma, args.pos)
    if not senses:
        raise CliError(f"no senses for lemma {args.lemma!r}"
                       + (f" with pos {args.pos}" if args.pos else ""))
    if args.sense is not None:
        if not 1 <= args.sense <= len(senses):
            raise CliError(f"sense rank {args.sense} out of range 1..{len(senses)}")
        vector = engine.ppr_for_sense(senses[args.sense - 1])
    else:
        vector = engine.ppr_for_sense_set(senses)
    for key, weight in vector.top(args.top):
        print(f"{key}\t{weight:.12g}")
    return EX_OK


def run_cache_stats(args) -> int:
    path = _resolve(args.cache)
    if not path.exists():
        raise CliError(f"cache file not found: {args.cache}")
    payload = read_cache_file(path)
    stats = payload["stats"]
    if not stats.get("enabled", False):
        print("cache: disabled")
        return EX_OK
    meta = payload["meta"]
    print(f"cache: {path}")
    print(f"graph: {meta.get('graph_sha256', '?')}  dict: {meta.get('dict_sha256', '?')}")
    print(f"hits: {stats.get('preloaded_hits', 0)}")
    print(f"misses: {stats.get('misses', 0)}")
    print(f"vectors: {stats.get('size', 0)}")
    print(f"memory: {stats.get('memory_bytes', 0)} bytes")
    return EX_OK


_RUNNERS = {
    "score": run_score,
    "meta-eval": run_meta_eval,
    "sweep-beta": run_sweep_beta,
    "ppr": run_ppr,
    "cache-stats": run_cache_stats,
}


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, submap = build_parser()
    try:
        if argv and argv[0] in submap and "--config" in argv:
            config_index = argv.index("--config")
            if config_index + 1 >= len(argv):
                raise UsageError("--config requires a path")
            sub = submap[argv[0]]
            defaults = read_config(argv[config_index + 1], sub)
            sub.set_defaults(**defaults)
            for action in sub._actions:  # a config value satisfies "required"
                if action.dest in defaults:
                    action.required = False
        args = parser.parse_args(argv)
        if getattr(args, "version", False):
            print(_version_text())
            return EX_OK
        if not args.command:
            parser.print_help()
            return EX_USAGE
        return _RUNNERS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EX_USAGE
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_FATAL
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_FATAL


if __name__ == "__main__":
    sys.exit(main())
