"""Command-line entry point.

Subcommands: score, meta-eval, sweep-beta, ppr, cache-stats. Exit codes:
0 success, 1 fatal error, 2 partial failure (some files skipped), 64 usage
error. Relative data paths fall back to $GROUGE_DATA_DIR when not found in
the working directory. A ``--config`` file of ``key = value`` lines supplies
defaults that explicit flags override; unknown keys are rejected.

Each run setting has one owner, which holds its default and checks its
range: ``GrougeConfig`` (beta), ``PprConfig`` (alpha, iterations),
``PprEngine`` (cache capacity) and ``grouge.stats`` (meta-eval's alpha,
resamples, seed and Kendall variant). A command's
settings are built from them straight after parsing, so an out-of-range
value is a usage error before any data file is opened, and
``.meta.json`` records the objects that were built.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import sys
from dataclasses import asdict
from itertools import zip_longest
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .fileio import csv_bytes, csv_rows, write_atomic
from .graph import Dictionary, SemanticGraph, load_dictionary, load_graph
from .ppr import (
    DEFAULT_CACHE_CAPACITY,
    CacheFileError,
    PprConfig,
    PprEngine,
    compute_ppr,
    read_cache_file,
)
from .scorer import (
    ALL_VARIANTS,
    GrougeConfig,
    ScoreReport,
    score_batch,
    variant_is_semantic,
    variant_score,
)
from .stats import (
    JudgmentTable,
    check_resamples,
    check_seed,
    check_significance_level,
    coefficients,
    correlate,
    load_judgments,
)

log = logging.getLogger("grouge")

EX_OK = 0
EX_FATAL = 1
EX_PARTIAL = 2
EX_USAGE = 64

DEFAULT_CACHE_FILE = "grouge-cache.npz"
_MAX_BETAS = 10_001  # a step of 1e-4 over [0, 1]; a finer grid is a typo, not a sweep


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


def _check_betas(betas, text: str) -> None:
    for beta in betas:
        if not 0.0 <= beta <= 1.0:
            raise UsageError(f"beta {beta:g} in grid {text!r} is outside [0, 1]")


def _parse_betas(text: str) -> list[float]:
    """A comma list or start:stop[:step] grid of blend weights, each in
    [0, 1]. A grid's ends and length are checked before it is expanded."""
    try:
        if ":" in text:
            if text.count(":") > 2:
                raise ValueError(text)
            start_s, stop_s, step_s = (text.split(":") + [""])[:3]
            start, stop, step = float(start_s), float(stop_s), float(step_s or 0.1)
            if step <= 0:
                raise UsageError("beta step must be positive")
            _check_betas((start, stop), text)
            count = (stop + 1e-9 - start) // step + 1
            if count > _MAX_BETAS:
                raise UsageError(f"grid {text!r} has {count:.0f} betas, more than {_MAX_BETAS}")
            out = []
            while (value := start + len(out) * step) <= stop + 1e-9:
                out.append(round(value, 10))
        else:
            out = [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise UsageError(f"malformed beta grid {text!r}") from None
    _check_betas(out, text)
    if not out:
        raise UsageError("empty beta grid")
    return out


def _add_ppr_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--alpha", type=float, help="restart probability, in (0, 1)")
    sub.add_argument("--iterations", type=int, help="walk iterations, at least 1")


def _add_scoring_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--graph", help="relation file (UKB format)")
    sub.add_argument("--dict", dest="dict_path", help="sense dictionary file")
    sub.add_argument("--peers", required=True, help="peer summaries directory")
    sub.add_argument("--models", required=True, help="model summaries directory")
    sub.add_argument("--variant", type=_parse_variants, default=",".join(ALL_VARIANTS),
                     help="comma list from: " + ",".join(ALL_VARIANTS))
    sub.add_argument("--no-stem", action="store_true", help="disable stemming")
    sub.add_argument("--remove-stopwords", action="store_true",
                     help="drop stopwords (kept by default)")
    sub.add_argument("--no-oov", action="store_true",
                     help="do not inject out-of-vocabulary dimensions")
    sub.add_argument("--jobs", type=int, default=1,
                     help="accepted for compatibility and ignored; walks use every usable CPU")
    sub.add_argument("--cache-capacity", type=int,
                     help="walk-vector cache size, at least 0; 0 disables caching")
    sub.add_argument("--cache-persist", nargs="?", const=DEFAULT_CACHE_FILE, default=None,
                     help="load/save the walk-vector cache at this path")
    _add_ppr_flags(sub)


def build_parser() -> tuple[_Parser, dict[str, argparse.ArgumentParser]]:
    parser = _Parser(prog="grouge", description=__doc__)
    parser.add_argument("--version", action="store_true", help="print version and exit")
    subparsers = parser.add_subparsers(dest="command")

    score = subparsers.add_parser("score", description="Score peer summaries.")
    _add_scoring_flags(score)
    score.add_argument("--beta", type=float, help="lexical blend weight, in [0, 1]")
    score.add_argument("--out", required=True, help="output CSV path")
    score.add_argument("--debug-senses", action="store_true",
                       help="print word<TAB>sense<TAB>support assignments")

    meta = subparsers.add_parser("meta-eval", description="Correlate scores with judgments.")
    meta.add_argument("--scores", required=True, help="score CSV from the score command")
    meta.add_argument("--human", required=True, help="judgments CSV (system, metrics...)")
    meta.add_argument("--baseline", default=None, help="variant for Williams significance")
    meta.add_argument("--alpha", type=float, help="significance level, in (0, 1)")
    meta.add_argument("--seed", type=int, help="bootstrap seed")
    meta.add_argument("--resamples", type=int, help="bootstrap resamples, at least 1")
    meta.add_argument("--kendall-variant", choices=("a", "b"), help="Kendall tau variant")
    meta.add_argument("--out", required=True, help="output CSV path")

    # no abbreviations here, so that score's --beta is not read as --betas
    sweep = subparsers.add_parser("sweep-beta", allow_abbrev=False,
                                  description="Correlation as a function of beta.")
    _add_scoring_flags(sweep)
    sweep.add_argument("--human", required=True, help="judgments CSV")
    sweep.add_argument("--betas", type=_parse_betas, default="0:1:0.1",
                       help="comma list or start:stop:step, each beta in [0, 1]")
    sweep.add_argument("--out", required=True, help="output CSV path")

    ppr = subparsers.add_parser("ppr", description="Print a walk vector (debugging).")
    ppr.add_argument("--graph", required=True)
    ppr.add_argument("--dict", dest="dict_path", required=True)
    ppr.add_argument("--lemma", required=True)
    ppr.add_argument("--pos", choices=("n", "v", "a", "r"), default=None)
    ppr.add_argument("--sense", type=int, default=None, help="1-based sense rank")
    ppr.add_argument("--top", type=int, default=20, help="dimensions to print, at least 1")
    _add_ppr_flags(ppr)

    cache = subparsers.add_parser("cache-stats", description="Inspect a persisted cache.")
    cache.add_argument("--cache", default=DEFAULT_CACHE_FILE, help="persisted cache path")

    for sub in (score, meta, sweep, ppr):
        sub.add_argument("--config", help="key = value defaults file")
    return parser, subparsers.choices


def _config_tokens(path_text: str, sub: argparse.ArgumentParser) -> list[str]:
    """The option tokens of a key = value file, for the subcommand to parse.

    A key is a flag name without the leading dashes (``dict``, ``no-stem``)
    or its dest (``dict_path``). A line becomes ``--option=value``, or the
    bare switch when a switch's value is true, so argparse converts and
    checks every value as it would on the command line.
    """
    path = _require(path_text, "config file")
    actions: dict[str, argparse.Action] = {}
    for action in sub._actions:
        if action.dest in ("help", "config"):
            continue
        for option in action.option_strings:
            actions[option.lstrip("-").replace("-", "_")] = action
        actions.setdefault(action.dest, action)
    tokens = []
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
        option = actions[key].option_strings[-1]
        if actions[key].nargs == 0:  # a switch
            if value.lower() in ("1", "true", "yes", "on"):
                tokens.append(option)
        else:
            tokens.append(f"{option}={value}")
    return tokens


def _config_path(argv: list[str]) -> str | None:
    """The path of ``--config PATH`` or ``--config=PATH`` in a subcommand's
    arguments, read as argparse reads it; None without the option."""
    pre = _Parser(add_help=False)
    pre.add_argument("--config")
    return pre.parse_known_args(argv)[0].config


def _load_resources(args) -> tuple[SemanticGraph, Dictionary, Path, Path]:
    graph_path = _require(args.graph, "graph file")
    dict_path = _require(args.dict_path, "dictionary file")
    graph = load_graph(graph_path)
    dictionary = load_dictionary(dict_path, graph)
    return graph, dictionary, graph_path, dict_path


class RunSettings(NamedTuple):
    blend: GrougeConfig
    walk: PprConfig
    cache_capacity: int


def _run_settings(args) -> RunSettings:
    """The blend, walk and cache settings of score, sweep-beta and ppr; an
    option that was not given (None) takes its owner's default. The
    options that need no data to check are checked here too: the data
    paths that semantic variants need, ppr's --top and --sense, and a
    persisted cache with capacity 0, which would be saved empty over the
    file it loaded."""
    given = {name: value for name, value in vars(args).items() if value is not None}
    if any(variant_is_semantic(v) for v in given.get("variant", ())) and not (
        given.get("graph") and given.get("dict_path")
    ):
        raise UsageError("semantic variants require --graph and --dict")
    if given.get("top", 1) < 1:
        raise UsageError(f"top must be >= 1, got {args.top}")
    if given.get("sense", 1) < 1:
        raise UsageError(f"sense must be >= 1, got {args.sense}")
    if given.get("cache_capacity") == 0 and given.get("cache_persist"):
        raise UsageError("--cache-persist needs a cache: --cache-capacity is 0")

    def pick(*names: str) -> dict:
        return {name: given[name] for name in names if name in given}

    return RunSettings(
        GrougeConfig(oov_enabled=not given.get("no_oov", False), **pick("beta")),
        PprConfig(**pick("alpha", "iterations")),
        PprEngine.check_capacity(given.get("cache_capacity", DEFAULT_CACHE_CAPACITY)),
    )


def _correlate_settings(args) -> dict:
    """meta-eval's keyword arguments for ``correlate``: the options given,
    range-checked; the others take correlate's defaults."""
    names = ("alpha", "resamples", "seed", "kendall_variant")
    settings = {name: getattr(args, name) for name in names if getattr(args, name) is not None}
    checks = {"alpha": check_significance_level, "resamples": check_resamples, "seed": check_seed}
    for name, check in checks.items():
        if name in settings:
            check(settings[name])
    return settings


def _run_scoring(args, settings: RunSettings, write: Callable[[ScoreReport, dict], int]) -> int:
    """Score the corpus and return ``write(report, provenance)``, the exit
    code of the command's outputs; the provenance is the settings the
    corpus was scored with and, for a semantic run, the graph and
    dictionary checksums. A persisted cache is saved after ``write``, even
    when it fails; a cache that cannot be saved is a warning."""
    engine = None
    dictionary = None
    checksums: dict = {}
    if any(variant_is_semantic(v) for v in args.variant):
        graph, dictionary, graph_path, dict_path = _load_resources(args)
        checksums = {"graph_sha256": _sha256(graph_path), "dict_sha256": _sha256(dict_path)}
        engine = PprEngine(graph, settings.walk, cache_capacity=settings.cache_capacity)
        if args.cache_persist and Path(args.cache_persist).exists():
            try:
                if engine.load_cache(args.cache_persist, checksums):
                    log.info("loaded persisted cache from %s", args.cache_persist)
                else:
                    log.warning("persisted cache %s does not match graph/dict/walk settings,"
                                " ignored", args.cache_persist)
            except CacheFileError as exc:
                log.warning("%s; ignored", exc)
    report = score_batch(
        peers_dir=_require(args.peers, "peers directory"),
        models_dir=_require(args.models, "models directory"),
        cfg=settings.blend,
        engine=engine,
        dictionary=dictionary,
        variants=args.variant,
        stemming=not args.no_stem,
        remove_stopwords=args.remove_stopwords,
        collect_debug=getattr(args, "debug_senses", False),
    )
    provenance = {**asdict(settings.blend), **asdict(settings.walk), **checksums,
                  "variants": list(args.variant), "stemming": not args.no_stem,
                  "remove_stopwords": args.remove_stopwords}
    del provenance["variant"]  # the run scores every entry of "variants"
    try:
        return write(report, provenance)
    finally:
        if engine is not None and args.cache_persist:
            try:
                engine.save_cache(args.cache_persist, checksums)
            except OSError as exc:
                log.warning("cannot save cache file %s: %s", args.cache_persist, exc)


def _report_problems(report: ScoreReport, out: Path) -> int:
    """Log the scored corpus's flagged notes, write its file errors to the
    ``<out>.errors.log`` sidecar, and return the command's exit code."""
    for note in report.flagged:
        log.warning("%s", note)
    if not report.errors:
        return EX_OK
    sidecar = out.with_suffix(out.suffix + ".errors.log")
    write_atomic(sidecar, "".join(e + "\n" for e in report.errors).encode("utf-8"))
    log.error("%d file error(s), details in %s", len(report.errors), sidecar)
    return EX_PARTIAL


def run_score(args, settings: RunSettings) -> int:
    out = Path(args.out)

    def write(report: ScoreReport, provenance: dict) -> int:
        report.write_csv(out)
        write_atomic(
            out.with_suffix(out.suffix + ".meta.json"),
            (json.dumps(provenance, indent=2, sort_keys=True) + "\n").encode("utf-8"),
        )
        if args.debug_senses:
            for line in report.debug_lines:
                print(line)
        return _report_problems(report, out)

    return _run_scoring(args, settings, write)


def _system_table(
    rows: dict[tuple[str, str, str], float],
    ids: list[str],
    columns: dict[str, np.ndarray],
) -> JudgmentTable:
    """Per variant, each system's (topic, system, variant) scores averaged
    over every topic in rows, inner-joined with the judgment rows.

    Every system must have a row for every topic, so that all systems are
    compared over the same topic set.
    """
    topics = sorted({topic for topic, _, _ in rows})
    scored = sorted({system for _, system, _ in rows})
    variants = sorted({variant for _, _, variant in rows})
    means: dict[tuple[str, str], float] = {}
    for variant in variants:
        for system in scored:
            missing = [t for t in topics if (t, system, variant) not in rows]
            if missing:
                raise CliError(f"system {system} has no {variant} score for topic {missing[0]}")
            means[variant, system] = sum(rows[t, system, variant] for t in topics) / len(topics)
    systems = [s for s in ids if s in scored]
    if not systems:
        raise CliError("no systems shared between scores and judgments")
    index = [ids.index(s) for s in systems]
    human = {name: col[index] for name, col in columns.items()}
    auto = {
        variant: np.array([means[variant, s] for s in systems], dtype=np.float64)
        for variant in variants
    }
    return JudgmentTable(systems=systems, human=human, auto=auto)


def _read_score_rows(path: Path) -> dict[tuple[str, str, str], float]:
    rows: dict[tuple[str, str, str], float] = {}
    records = csv_rows(path)
    header = next(records, (0, []))[1]
    required = {"topic", "system", "variant", "score"}
    if not required.issubset(header):
        raise CliError(f"{path}: expected columns {sorted(required)}")
    for line, record in records:
        if not record:
            continue
        row = dict(zip_longest(header, record))  # None for the fields of a short row
        key = (row["topic"], row["system"], row["variant"])
        if key in rows:
            raise CliError(f"{path}:{line}: repeated row for topic {key[0]}, "
                           f"system {key[1]}, variant {key[2]}")
        try:
            rows[key] = float(row["score"])
        except (TypeError, ValueError):
            raise CliError(f"{path}:{line}: non-numeric score {row['score']!r}") from None
    return rows


def run_meta_eval(args, settings: dict) -> int:
    scores_path = _require(args.scores, "scores CSV")
    ids, columns = load_judgments(_require(args.human, "judgments CSV"))
    table = _system_table(_read_score_rows(scores_path), ids, columns)
    if args.baseline is not None and args.baseline not in table.auto:
        raise UsageError(f"baseline {args.baseline!r} is not a scored variant")
    report = correlate(table, significance_against=args.baseline, **settings)
    report.write_csv(args.out)
    return EX_OK


def run_sweep_beta(args, settings: RunSettings) -> int:
    ids, columns = load_judgments(_require(args.human, "judgments CSV"))

    def write(report: ScoreReport, _provenance: dict) -> int:
        out = [["beta", "variant", "human_metric", "pearson", "spearman", "kendall"]]
        for beta in args.betas:
            # round through the score CSV's 12-significant-digit format so
            # one sweep row equals the score -> meta-eval composition
            rows = {
                key: float(f"{variant_score(key[2], p, beta)[1]:.12g}")
                for key, p in report.parts.items()
            }
            table = _system_table(rows, ids, columns)
            for variant in args.variant:
                for human_name in sorted(table.human):
                    values = coefficients(table.auto[variant], table.human[human_name])
                    out.append([f"{beta:g}", variant, human_name,
                                *(f"{value:.12g}" for value in values)])
        write_atomic(args.out, csv_bytes(out))
        return _report_problems(report, Path(args.out))

    return _run_scoring(args, settings, write)


def run_ppr(args, settings: RunSettings) -> int:
    graph, dictionary, _, _ = _load_resources(args)
    senses = dictionary.senses_of(args.lemma, args.pos)
    if not senses:
        raise CliError(f"no senses for lemma {args.lemma!r}"
                       + (f" with pos {args.pos}" if args.pos else ""))
    if args.sense is not None:
        if args.sense > len(senses):
            raise CliError(f"sense rank {args.sense} out of range 1..{len(senses)}")
        senses = senses[args.sense - 1 : args.sense]
    for key, weight in compute_ppr(graph, senses, settings.walk).top(args.top):
        print(f"{key}\t{weight:.12g}")
    return EX_OK


def run_cache_stats(args, settings: None) -> int:
    path = _require(args.cache, "cache file")
    header, _ = read_cache_file(path)
    meta, stats = header["meta"], header["stats"]
    if not stats.get("enabled", False):
        print("cache: disabled")
        return EX_OK
    print(f"cache: {path}")
    print(f"graph: {meta.get('graph_sha256', '?')}  dict: {meta.get('dict_sha256', '?')}")
    print(f"hits: {stats.get('hits', 0)}")
    print(f"misses: {stats.get('misses', 0)}")
    print(f"vectors: {stats.get('size', 0)}")
    print(f"memory: {stats.get('memory_bytes', 0)} bytes")
    return EX_OK


_COMMANDS = {  # command: (settings builder, runner)
    "score": (_run_settings, run_score),
    "meta-eval": (_correlate_settings, run_meta_eval),
    "sweep-beta": (_run_settings, run_sweep_beta),
    "ppr": (_run_settings, run_ppr),
    "cache-stats": (lambda args: None, run_cache_stats),
}


def _check_output_dirs(args) -> None:
    """--out and --cache-persist name files in directories that exist, and
    --out is not itself a directory; checked after the settings are built,
    before any data file is read."""
    for option in ("out", "cache_persist"):
        path = getattr(args, option, None)
        if path and not Path(path).parent.is_dir():
            raise CliError(f"no directory for --{option.replace('_', '-')} {path}")
    if getattr(args, "out", None) and Path(args.out).is_dir():
        raise CliError(f"--out {args.out} is a directory")


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, submap = build_parser()
    try:
        config = _config_path(argv[1:]) if argv and argv[0] in submap else None
        if config is not None:  # the user's own arguments come later and win
            argv[1:1] = _config_tokens(config, submap[argv[0]])
        args = parser.parse_args(argv)
        if getattr(args, "version", False):
            print(f"grouge {__version__}")
            return EX_OK
        if not args.command:
            parser.print_help()
            return EX_USAGE
        build, run = _COMMANDS[args.command]
        try:  # before any data file is opened
            settings = build(args)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        _check_output_dirs(args)
        return run(args, settings)
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
