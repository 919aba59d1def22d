import csv
import hashlib
import inspect
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import grouge
from grouge import GrougeConfig, PprConfig, load_dictionary, load_graph
from grouge.cli import EX_FATAL, EX_OK, EX_PARTIAL, EX_USAGE, build_parser, main
from grouge.ppr import PprEngine, _composes, read_cache_file
from grouge.stats import correlate

from conftest import CACHE_DAMAGES, damage_cache_file, planted_pickle
from oracles import compress_reference, walk_reference
from synth import (
    build_synthetic_eval,
    lemma,
    node_id,
    relist_lines,
    symmetric_relation_lines,
    write_corpus,
    write_dictionary,
)


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    base = tmp_path_factory.mktemp("world")
    return build_synthetic_eval(
        base, n_nodes=240, n_words=30, n_systems=6, n_models=2, seed=99
    )


@pytest.fixture(scope="module")
def isolated_world(world, tmp_path_factory):
    """world with six more nodes, each isolated and the one sense of one of
    the first six words."""
    base = tmp_path_factory.mktemp("isolated")
    graph, dictionary = base / "relations.txt", base / "dictionary.txt"
    isolated = range(240, 246)
    graph.write_text(world["graph"].read_text("utf-8")
                     + "".join(f"u:{node_id(i)} v:{node_id(i)}\n" for i in isolated), "utf-8")
    entries = world["dict"].read_text("utf-8").splitlines()
    for k, i in enumerate(isolated):
        entries[k] = f"{lemma(k)} {node_id(i)}:5"
    dictionary.write_text("\n".join(entries) + "\n", "utf-8")
    return {**world, "graph": graph, "dict": dictionary}


def score_args(world, out, variant="g1,r1", extra=()):
    return [
        "score",
        "--graph", str(world["graph"]),
        "--dict", str(world["dict"]),
        "--peers", str(world["peers"]),
        "--models", str(world["models"]),
        "--variant", variant,
        "--out", str(out),
        "--jobs", "1",
        *extra,
    ]


def cache_counts(report):
    """The numbers on cache-stats's hits, misses, vectors and memory lines."""
    lines = dict(line.split(": ", 1) for line in report.splitlines())
    return {name: int(lines[name].split()[0]) for name in ("hits", "misses", "vectors", "memory")}


def record_engines(monkeypatch) -> list:
    """Every PprEngine the CLI makes from here on, in order."""
    engines = []

    class RecordingEngine(grouge.cli.PprEngine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            engines.append(self)

    monkeypatch.setattr(grouge.cli, "PprEngine", RecordingEngine)
    return engines


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestScoreCommand:
    def test_valid_corpus_exits_zero_with_csv(self, world, tmp_path):
        out = tmp_path / "report.csv"
        assert main(score_args(world, out)) == EX_OK
        rows = read_csv(out)
        assert {r["variant"] for r in rows} == {"g1", "r1"}
        assert len(rows) == 6 * 2
        assert all(0.0 <= float(r["score"]) <= 1.0 for r in rows)
        meta = out.with_suffix(".csv.meta.json")
        assert meta.exists()
        assert "graph_sha256" in meta.read_text()

    def test_missing_models_flag_is_usage_error(self, world, tmp_path, capsys):
        code = main([
            "score", "--graph", str(world["graph"]), "--dict", str(world["dict"]),
            "--peers", str(world["peers"]), "--out", str(tmp_path / "o.csv"),
        ])
        assert code == EX_USAGE

    def test_unknown_variant_is_usage_error(self, world, tmp_path):
        assert main(score_args(world, tmp_path / "o.csv", variant="g9")) == EX_USAGE

    def test_nonexistent_path_is_fatal(self, world, tmp_path):
        args = score_args(world, tmp_path / "o.csv")
        args[args.index("--peers") + 1] = str(tmp_path / "nope")
        assert main(args) == EX_FATAL

    def test_unreadable_peer_gives_partial_exit_and_sidecar(self, world, tmp_path):
        bad = world["peers"] / "d1001.sysbad.txt"
        bad.write_bytes(b"\xff\xfe invalid utf8")
        try:
            out = tmp_path / "report.csv"
            assert main(score_args(world, out, variant="r1")) == EX_PARTIAL
            sidecar = out.with_suffix(".csv.errors.log")
            assert sidecar.exists()
            assert "sysbad" in sidecar.read_text()
            rows = read_csv(out)
            assert any(r["system"] == "sysbad" and float(r["score"]) == 0.0 for r in rows)
        finally:
            bad.unlink()

    def test_debug_senses_prints_assignments(self, world, tmp_path, capsys):
        out = tmp_path / "report.csv"
        assert main(score_args(world, out, variant="g1", extra=("--debug-senses",))) == EX_OK
        printed = capsys.readouterr().out
        tabbed = [l for l in printed.splitlines() if "\t" in l]
        assert tabbed
        assert all(len(l.split("\t")) == 3 for l in tabbed)

    def test_lexical_only_run_needs_no_graph(self, world, tmp_path):
        out = tmp_path / "lex.csv"
        code = main([
            "score", "--peers", str(world["peers"]), "--models", str(world["models"]),
            "--variant", "r1,r2,rsu4", "--out", str(out), "--jobs", "1",
        ])
        assert code == EX_OK
        assert len(read_csv(out)) == 6 * 3

    def test_byte_identical_across_jobs(self, world, tmp_path):
        outputs = []
        for jobs in ("1", "3"):
            out = tmp_path / f"report{jobs}.csv"
            args = score_args(world, out)
            args[args.index("--jobs") + 1] = jobs
            assert main(args) == EX_OK
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_byte_identical_across_thread_counts(self, world, tmp_path, monkeypatch, capsys):
        """Walk passes and composed batches split into 1, 2 or 3 shares
        give the same CSV, .meta.json, --debug-senses lines and cache file.
        The world is small, so every batch of two or more items is split."""
        monkeypatch.setattr(grouge.ppr, "_MIN_SHARE_SIZE", 0)
        outputs = []
        for threads in (1, 2, 3):
            monkeypatch.setattr(grouge.ppr, "_THREADS", threads)
            run = tmp_path / str(threads)
            run.mkdir()
            out = run / "report.csv"
            extra = ("--debug-senses", "--cache-persist", str(tmp_path / f"cache{threads}.npz"))
            assert main(score_args(world, out, "g1,g2,gsu4,r1", extra)) == EX_OK
            outputs.append((out.read_bytes(), out.with_suffix(".csv.meta.json").read_bytes(),
                            (tmp_path / f"cache{threads}.npz").read_bytes(),
                            capsys.readouterr().out))
        assert outputs[0] == outputs[1] == outputs[2]

    def test_relation_line_order_does_not_change_scores(self, tmp_path):
        # mirror senses of the symmetric graph tie; listing its edges in
        # another order must not change which way a tie is broken
        lines = symmetric_relation_lines()
        small = {"graph": tmp_path / "relations.txt", "dict": tmp_path / "dictionary.txt"}
        small["graph"].write_text("\n".join(lines) + "\n")
        vocab = write_dictionary(small["dict"], 16, 24, seed=5)
        small["peers"], small["models"], _, _ = write_corpus(
            tmp_path, vocab, n_systems=4, n_models=2, seed=6
        )
        relisted = dict(small, graph=tmp_path / "relisted.txt")
        relisted["graph"].write_text("\n".join(relist_lines(lines, 0)) + "\n")
        outputs = []
        for label, paths in (("listed", small), ("relisted", relisted)):
            out = tmp_path / f"{label}.csv"
            assert main(score_args(paths, out, variant="g1,g2,gsu4")) == EX_OK
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_data_dir_env_fallback(self, world, tmp_path, monkeypatch):
        monkeypatch.setenv("GROUGE_DATA_DIR", str(world["graph"].parent))
        out = tmp_path / "report.csv"
        code = main([
            "score", "--graph", "relations.txt", "--dict", "dictionary.txt",
            "--peers", "peers", "--models", "models",
            "--variant", "r1", "--out", str(out), "--jobs", "1",
        ])
        assert code == EX_OK


def missing_data_args(command, missing, out):
    """command's arguments with every data path pointing at a missing file,
    so a run that opens one before checking its settings exits 1, not 64."""
    graph = ["--graph", str(missing / "relations.txt"), "--dict", str(missing / "dict.txt")]
    corpus = ["--peers", str(missing / "peers"), "--models", str(missing / "models")]
    return {
        "score": ["score", *graph, *corpus, "--variant", "g1,r1", "--out", str(out)],
        "lexical": ["score", *corpus, "--variant", "r1", "--out", str(out)],
        "sweep-beta": ["sweep-beta", *graph, *corpus, "--human", str(missing / "human.csv"),
                       "--variant", "g1", "--out", str(out)],
        "ppr": ["ppr", *graph, "--lemma", "w000"],
        "meta-eval": ["meta-eval", "--scores", str(missing / "scores.csv"),
                      "--human", str(missing / "human.csv"), "--out", str(out)],
    }[command]


WALK_SETTINGS = [("--alpha", "0"), ("--alpha", "1"), ("--alpha", "2"), ("--iterations", "0")]
SCORING_SETTINGS = [*WALK_SETTINGS, ("--cache-capacity", "-3")]
OUT_OF_RANGE = (
    [("score", flag, value) for flag, value in
     [("--beta", "1.5"), ("--beta", "-0.1"), *SCORING_SETTINGS]]
    + [("lexical", flag, value) for flag, value in [("--beta", "1.5"), *SCORING_SETTINGS]]
    + [("sweep-beta", flag, value) for flag, value in SCORING_SETTINGS]
    + [("ppr", flag, value) for flag, value in
       [*WALK_SETTINGS, ("--top", "-1"), ("--top", "0"), ("--sense", "0"), ("--sense", "-2")]]
    + [("meta-eval", flag, value) for flag, value in
       [("--alpha", "0"), ("--alpha", "1"), ("--alpha", "7"), ("--resamples", "0"),
        ("--resamples", "-1"), ("--resamples", "100001"), ("--seed", "-1")]]
)


class TestSettingsCheckedFirst:
    @pytest.mark.parametrize("command, flag, value", OUT_OF_RANGE,
                             ids=[f"{c}{f}={v}" for c, f, v in OUT_OF_RANGE])
    def test_out_of_range_setting_is_usage_error(self, tmp_path, capsys, command, flag, value):
        out = tmp_path / "out.csv"
        argv = missing_data_args(command, tmp_path / "missing", out)
        assert main([*argv, flag, value]) == EX_USAGE
        setting = flag.lstrip("-").replace("-", "_")
        assert f"usage error: {setting} must be" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["score", "lexical", "sweep-beta", "ppr"])
    def test_out_of_range_setting_from_config_file(self, tmp_path, capsys, command):
        config = tmp_path / "run.conf"
        config.write_text("alpha = 2\n")
        argv = missing_data_args(command, tmp_path / "missing", tmp_path / "out.csv")
        assert main([*argv, "--config", str(config)]) == EX_USAGE
        assert "usage error: alpha must be in (0, 1), got 2.0" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.conf"]

    def test_negative_seed_from_config_file(self, tmp_path, capsys):
        config = tmp_path / "run.conf"
        config.write_text("seed = -1\n")
        argv = missing_data_args("meta-eval", tmp_path / "missing", tmp_path / "out.csv")
        assert main([*argv, "--config", str(config)]) == EX_USAGE
        assert "usage error: seed must be >= 0, got -1" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.conf"]

    @pytest.mark.parametrize("command", ["score", "lexical", "sweep-beta", "ppr", "meta-eval"])
    def test_valid_settings_reach_the_missing_files(self, tmp_path, capsys, command):
        argv = missing_data_args(command, tmp_path / "missing", tmp_path / "out.csv")
        assert main(argv) == EX_FATAL
        assert "not found" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["score", "lexical", "sweep-beta", "meta-eval"])
    def test_out_in_a_missing_directory_is_fatal_before_the_data(self, tmp_path, capsys,
                                                                  command):
        out = tmp_path / "nodir" / "out.csv"
        argv = missing_data_args(command, tmp_path / "missing", out)
        assert main(argv) == EX_FATAL
        err = capsys.readouterr().err
        assert f"error: no directory for --out {out}" in err
        assert "not found" not in err  # no data file was looked for
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["score", "lexical", "sweep-beta", "meta-eval"])
    def test_out_that_is_a_directory_is_fatal_before_the_data(self, tmp_path, capsys,
                                                              command):
        out = tmp_path / "outdir"
        out.mkdir()
        argv = missing_data_args(command, tmp_path / "missing", out)
        assert main(argv) == EX_FATAL
        err = capsys.readouterr().err
        assert f"error: --out {out} is a directory" in err
        assert "not found" not in err  # no data file was looked for
        assert list(tmp_path.iterdir()) == [out]
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command", ["score", "sweep-beta"])
    def test_cache_file_in_a_missing_directory_is_fatal_before_the_data(self, tmp_path,
                                                                         capsys, command):
        cache = tmp_path / "nodir" / "cache.npz"
        argv = missing_data_args(command, tmp_path / "missing", tmp_path / "out.csv")
        assert main([*argv, "--cache-persist", str(cache)]) == EX_FATAL
        err = capsys.readouterr().err
        assert f"error: no directory for --cache-persist {cache}" in err
        assert "not found" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["score", "sweep-beta"])
    @pytest.mark.parametrize("drop", ["--graph", "--dict"])
    def test_semantic_variant_without_graph_data_is_usage_error(self, tmp_path, capsys,
                                                                 command, drop):
        argv = missing_data_args(command, tmp_path / "missing", tmp_path / "out.csv")
        at = argv.index(drop)
        del argv[at : at + 2]
        assert main(argv) == EX_USAGE
        assert "usage error: semantic variants require --graph and --dict" in (
            capsys.readouterr().err
        )
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["score", "lexical", "sweep-beta", "ppr"])
    def test_truncation_is_not_a_setting(self, tmp_path, capsys, command):
        argv = missing_data_args(command, tmp_path / "missing", tmp_path / "out.csv")
        assert main([*argv, "--truncation", "5000"]) == EX_USAGE
        assert "unrecognized arguments: --truncation 5000" in capsys.readouterr().err
        config = tmp_path / "run.conf"
        config.write_text("truncation = 5000\n")
        assert main([*argv, "--config", str(config)]) == EX_USAGE
        assert "unknown config key 'truncation'" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.conf"]

    @pytest.mark.parametrize("command", ["meta-eval", "sweep-beta"])
    def test_join_is_not_a_setting(self, tmp_path, capsys, command):
        argv = missing_data_args(command, tmp_path / "missing", tmp_path / "out.csv")
        assert main([*argv, "--join", "system"]) == EX_USAGE
        assert "unrecognized arguments: --join system" in capsys.readouterr().err
        config = tmp_path / "run.conf"
        config.write_text("join = system\n")
        assert main([*argv, "--config", str(config)]) == EX_USAGE
        assert "unknown config key 'join'" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.conf"]

    @pytest.mark.parametrize("command", ["score", "sweep-beta"])
    def test_persisted_cache_with_capacity_zero_is_usage_error(self, tmp_path, capsys,
                                                                command):
        argv = missing_data_args(command, tmp_path / "missing", tmp_path / "out.csv")
        cache = ["--cache-persist", str(tmp_path / "cache.npz")]
        assert main([*argv, *cache, "--cache-capacity", "0"]) == EX_USAGE
        assert "usage error: --cache-persist needs a cache" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_sweep_beta_takes_no_beta(self, tmp_path, capsys):
        argv = missing_data_args("sweep-beta", tmp_path / "missing", tmp_path / "out.csv")
        assert main([*argv, "--beta", "0.5"]) == EX_USAGE
        assert "unrecognized arguments: --beta" in capsys.readouterr().err
        config = tmp_path / "run.conf"
        config.write_text("beta = 0.5\n")
        assert main([*argv, "--config", str(config)]) == EX_USAGE
        assert "unknown config key 'beta'" in capsys.readouterr().err

    def test_meta_records_the_built_settings(self, world, tmp_path):
        out = tmp_path / "lex.csv"
        assert main([
            "score", "--peers", str(world["peers"]), "--models", str(world["models"]),
            "--variant", "r1,r2", "--out", str(out), "--iterations", "7", "--no-oov",
        ]) == EX_OK
        assert json.loads(out.with_suffix(".csv.meta.json").read_text()) == {
            "variants": ["r1", "r2"], "beta": GrougeConfig().beta,
            "alpha": PprConfig().alpha, "iterations": 7,
            "stemming": True, "remove_stopwords": False, "oov_enabled": False,
        }


class TestConfigFile:
    def test_config_supplies_defaults_and_flags_override(self, world, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text(
            f"graph = {world['graph']}\n"
            f"dict = {world['dict']}\n"
            f"peers = {world['peers']}\n"
            f"models = {world['models']}\n"
            "variant = r1\n"
            "jobs = 1\n"
            "# comment line\n"
        )
        out = tmp_path / "a.csv"
        assert main(["score", "--config", str(config), "--out", str(out)]) == EX_OK
        assert {r["variant"] for r in read_csv(out)} == {"r1"}

        out2 = tmp_path / "b.csv"
        assert main([
            "score", "--config", str(config), "--variant", "r2", "--out", str(out2),
        ]) == EX_OK
        assert {r["variant"] for r in read_csv(out2)} == {"r2"}

    def test_unknown_config_key_rejected(self, world, tmp_path):
        config = tmp_path / "bad.conf"
        config.write_text("spline_reticulation = on\n")
        assert main(["score", "--config", str(config), "--out", "x.csv"]) == EX_USAGE

    @pytest.mark.parametrize("joined", [False, True], ids=["separate", "equals"])
    def test_config_read_in_either_form(self, world, tmp_path, joined):
        config = tmp_path / "cfg.txt"
        config.write_text("beta = 0.9\n")
        out = tmp_path / "a.csv"
        option = [f"--config={config}"] if joined else ["--config", str(config)]
        assert main(score_args(world, out, extra=option)) == EX_OK
        meta = json.loads(out.with_suffix(".csv.meta.json").read_text())
        assert meta["beta"] == 0.9

    @pytest.mark.parametrize("joined", [False, True], ids=["separate", "equals"])
    def test_missing_config_file_is_fatal(self, world, tmp_path, joined, capsys):
        missing = tmp_path / "absent.conf"
        option = [f"--config={missing}"] if joined else ["--config", str(missing)]
        assert main(score_args(world, tmp_path / "a.csv", extra=option)) == EX_FATAL
        assert "config file not found" in capsys.readouterr().err

    def test_config_without_path_is_usage_error(self, world, tmp_path):
        assert main(score_args(world, tmp_path / "a.csv", extra=["--config"])) == EX_USAGE

    @pytest.mark.parametrize("line, flag", [
        ("beta = 0.9", ["--beta", "0.9"]),
        ("iterations = 7", ["--iterations", "7"]),
        ("no-stem = true", ["--no-stem"]),
        ("dict_path = {dict}", ["--dict", "{dict}"]),
        ("cache-persist = {run}/walks.npz", ["--cache-persist", "{run}/walks.npz"]),
        ("graph = {run}/rel=1.txt", ["--graph", "{run}/rel=1.txt"]),
    ], ids=["float", "int", "switch", "dest", "optional-value", "equals-in-value"])
    def test_config_line_equals_flag(self, world, tmp_path, line, flag):
        results = []
        for mode in ("config", "flag"):
            run = tmp_path / mode
            run.mkdir()
            (run / "rel=1.txt").write_bytes(Path(world["graph"]).read_bytes())
            args = score_args(world, run / "a.csv")
            if flag[0] in args:  # the setting is given once, by config or by flag
                del args[args.index(flag[0]):args.index(flag[0]) + 2]
            if mode == "config":
                config = tmp_path / "run.conf"
                config.write_text(line.format(dict=world["dict"], run=run) + "\n")
                args += ["--config", str(config)]
            else:
                args += [token.format(dict=world["dict"], run=run) for token in flag]
            code = main(args)
            results.append((code, (run / "a.csv.meta.json").read_bytes(),
                            (run / "a.csv").read_bytes(), sorted(os.listdir(run))))
        assert results[0][0] == EX_OK
        assert results[0] == results[1]

    def test_bad_config_value_names_the_option(self, world, tmp_path, capsys):
        config = tmp_path / "run.conf"
        config.write_text("beta = half\n")
        out = tmp_path / "a.csv"
        assert main(score_args(world, out, extra=["--config", str(config)])) == EX_USAGE
        assert "argument --beta: invalid float value: 'half'" in capsys.readouterr().err
        assert not out.exists()

    def test_config_value_outside_choices_is_usage_error(self, world, score_csv, tmp_path,
                                                         capsys):
        config = tmp_path / "run.conf"
        config.write_text("kendall-variant = c\n")
        out = tmp_path / "corr.csv"
        assert main([
            "meta-eval", "--config", str(config), "--scores", str(score_csv),
            "--human", str(world["judgments"]), "--out", str(out),
        ]) == EX_USAGE
        assert "argument --kendall-variant: invalid choice: 'c'" in capsys.readouterr().err
        assert not out.exists()

        config.write_text("pos = x\n")
        assert main([
            "ppr", "--config", str(config), "--graph", str(world["graph"]),
            "--dict", str(world["dict"]), "--lemma", "w000",
        ]) == EX_USAGE
        assert "argument --pos: invalid choice: 'x'" in capsys.readouterr().err


@pytest.fixture(scope="module")
def score_csv(world, tmp_path_factory):
    out = tmp_path_factory.mktemp("scores") / "report.csv"
    assert main(score_args(world, out, variant="g1,g2,r1")) == EX_OK
    return out


class TestMetaEvalCommand:
    def test_meta_eval_produces_correlation_csv(self, world, score_csv, tmp_path):
        out = tmp_path / "corr.csv"
        code = main([
            "meta-eval", "--scores", str(score_csv), "--human", str(world["judgments"]),
            "--baseline", "r1", "--seed", "42", "--resamples", "100",
            "--out", str(out),
        ])
        assert code == EX_OK
        rows = read_csv(out)
        assert {r["auto_metric"] for r in rows} == {"g1", "g2", "r1"}
        assert {r["human_metric"] for r in rows} == {"pyramid", "responsiveness", "readability"}
        for row in rows:
            assert -1.0 <= float(row["pearson"]) <= 1.0
            if row["auto_metric"] == "r1":
                assert row["williams_p"] == ""
            else:
                assert 0.0 <= float(row["williams_p"]) <= 1.0

    def test_defaults_are_correlates_own(self, world, score_csv, tmp_path):
        names = ("alpha", "resamples", "seed", "kendall_variant")
        args = build_parser()[0].parse_args(
            ["meta-eval", "--scores", "s.csv", "--human", "h.csv", "--out", "o.csv"]
        )
        assert [getattr(args, name) for name in names] == [None] * len(names)
        defaults = inspect.signature(correlate).parameters
        explicit = [
            token for name in names
            for token in ("--" + name.replace("_", "-"), str(defaults[name].default))
        ]
        outputs = []
        for label, extra in (("implicit", []), ("explicit", explicit)):
            out = tmp_path / f"{label}.csv"
            assert main([
                "meta-eval", "--scores", str(score_csv), "--human", str(world["judgments"]),
                "--out", str(out), *extra,
            ]) == EX_OK
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_seeded_runs_byte_identical(self, world, score_csv, tmp_path):
        outputs = []
        for name in ("a", "b"):
            out = tmp_path / f"{name}.csv"
            assert main([
                "meta-eval", "--scores", str(score_csv), "--human", str(world["judgments"]),
                "--seed", "42", "--resamples", "100", "--out", str(out),
            ]) == EX_OK
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_kendall_interval_follows_kendall_variant(self, world, score_csv, tmp_path):
        rows = {}
        for variant in ("a", "b"):
            out = tmp_path / f"{variant}.csv"
            assert main([
                "meta-eval", "--scores", str(score_csv), "--human", str(world["judgments"]),
                "--resamples", "200", "--kendall-variant", variant, "--out", str(out),
            ]) == EX_OK
            rows[variant] = read_csv(out)
        kendall_columns = {"kendall", "kendall_ci_lo", "kendall_ci_hi"}
        for a, b in zip(rows["a"], rows["b"]):
            assert {k: v for k, v in a.items() if k not in kendall_columns} == {
                k: v for k, v in b.items() if k not in kendall_columns
            }
        # resamples repeat systems, and tau-a counts a tied pair as zero
        # where tau-b drops it, so the intervals differ
        assert any(a["kendall_ci_hi"] != b["kendall_ci_hi"] for a, b in zip(rows["a"], rows["b"]))

    def test_williams_test_does_not_load_scipy_stats(self, world, score_csv, tmp_path):
        out = tmp_path / "corr.csv"
        code = (
            "import sys; from grouge.cli import main; "
            f"rc = main(sys.argv[1:]); print(rc, 'scipy.stats' in sys.modules)"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(grouge.__file__).parent.parent), env.get("PYTHONPATH", "")]
        )
        result = subprocess.run(
            [sys.executable, "-c", code, "meta-eval", "--scores", str(score_csv),
             "--human", str(world["judgments"]), "--baseline", "r1", "--resamples", "20",
             "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        assert result.stdout.split() == [str(EX_OK), "False"]
        assert any(row["williams_p"] for row in read_csv(out))

    def test_unknown_baseline_is_usage_error(self, world, score_csv, tmp_path):
        assert main([
            "meta-eval", "--scores", str(score_csv), "--human", str(world["judgments"]),
            "--baseline", "bleu", "--out", str(tmp_path / "c.csv"),
        ]) == EX_USAGE

    @pytest.mark.parametrize("command", ["meta-eval", "sweep-beta"])
    def test_repeated_judgment_column_is_fatal(self, world, score_csv, tmp_path, capsys,
                                               command):
        human = tmp_path / "human.csv"
        human.write_text("system,pyramid,pyramid\nA,0.9,0.1\nB,0.5,0.5\n")
        out = tmp_path / "out.csv"
        if command == "meta-eval":
            argv = ["meta-eval", "--scores", str(score_csv), "--out", str(out)]
        else:
            argv = ["sweep-beta", *score_args(world, out, variant="g1")[1:]]
        assert main([*argv, "--human", str(human)]) == EX_FATAL
        assert "column 'pyramid' appears more than once" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("scored", [True, False], ids=["scored", "not-scored"])
    def test_repeated_judgment_system_is_fatal(self, world, score_csv, tmp_path, capsys,
                                               scored):
        lines = world["judgments"].read_text().splitlines()
        system = lines[1].split(",")[0] if scored else "unscored"
        if not scored:
            lines.append(f"{system},0.5,0.5,0.5")
        lines.append(f"{system},0.1,0.2,0.3")  # the repeat disagrees
        human = tmp_path / "human.csv"
        human.write_text("\n".join(lines) + "\n")
        out = tmp_path / "corr.csv"
        assert main(["meta-eval", "--scores", str(score_csv), "--human", str(human),
                     "--resamples", "10", "--out", str(out)]) == EX_FATAL
        err = capsys.readouterr().err
        assert f"{human}:{len(lines)}: repeated system {system!r}" in err
        assert not out.exists()

    def test_non_finite_judgment_is_fatal(self, world, score_csv, tmp_path, capsys):
        lines = world["judgments"].read_text().splitlines()
        header, rows = lines[0].split(","), [line.split(",") for line in lines[1:]]
        rows[3][1] = "inf"
        human = tmp_path / "human.csv"
        human.write_text("\n".join(",".join(row) for row in [header, *rows]) + "\n")
        out = tmp_path / "corr.csv"
        assert main([
            "meta-eval", "--scores", str(score_csv), "--human", str(human),
            "--resamples", "10", "--out", str(out),
        ]) == EX_FATAL
        assert f"column {header[1]!r} has missing or non-finite values" in capsys.readouterr().err
        assert not out.exists()

    def test_variant_equal_to_baseline_gets_no_williams_p(self, world, tmp_path):
        """At beta 1 g1 is r1's lexical score, so its Williams test has
        r23 = 1: its rows are left empty, and g2's rows are still tested."""
        scores = tmp_path / "scores.csv"
        assert main(score_args(world, scores, variant="g1,r1,g2", extra=["--beta", "1"])) == EX_OK
        out = tmp_path / "corr.csv"
        assert main([
            "meta-eval", "--scores", str(scores), "--human", str(world["judgments"]),
            "--baseline", "r1", "--resamples", "20", "--out", str(out),
        ]) == EX_OK
        rows = read_csv(out)
        assert {r["auto_metric"] for r in rows} == {"g1", "g2", "r1"}
        for row in rows:
            tested = row["auto_metric"] == "g2"
            assert bool(row["williams_p"]) == bool(row["significant"]) == tested

    def score_rows_with(self, score_csv, tmp_path, extra):
        """score_csv with one more line; the path and the new line's number."""
        lines = score_csv.read_text().splitlines()
        path = tmp_path / "scores.csv"
        path.write_text("\n".join([*lines, extra]) + "\n")
        return path, len(lines) + 1

    def test_repeated_score_row_is_fatal(self, world, score_csv, tmp_path, capsys):
        topic, system, variant, _ = score_csv.read_text().splitlines()[1].split(",")
        scores, lineno = self.score_rows_with(
            score_csv, tmp_path, f"{topic},{system},{variant},0.123")
        out = tmp_path / "corr.csv"
        assert main([
            "meta-eval", "--scores", str(scores), "--human", str(world["judgments"]),
            "--resamples", "10", "--out", str(out),
        ]) == EX_FATAL
        assert (f"error: {scores}:{lineno}: repeated row for topic {topic}, "
                f"system {system}, variant {variant}") in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("extra, shown", [
        ("d9,Z,r1,abc", "'abc'"), ("d9,Z,r1,", "''"), ("d9,Z,r1", "None"),
    ])
    def test_non_numeric_score_is_fatal(self, world, score_csv, tmp_path, capsys, extra, shown):
        scores, lineno = self.score_rows_with(score_csv, tmp_path, extra)
        out = tmp_path / "corr.csv"
        assert main([
            "meta-eval", "--scores", str(scores), "--human", str(world["judgments"]),
            "--resamples", "10", "--out", str(out),
        ]) == EX_FATAL
        assert f"error: {scores}:{lineno}: non-numeric score {shown}" in capsys.readouterr().err
        assert not out.exists()

    def test_oversized_score_field_is_fatal(self, world, score_csv, tmp_path, capsys):
        scores, lineno = self.score_rows_with(score_csv, tmp_path, "d9,Z,r1," + "9" * 200_000)
        out = tmp_path / "corr.csv"
        assert main([
            "meta-eval", "--scores", str(scores), "--human", str(world["judgments"]),
            "--resamples", "10", "--out", str(out),
        ]) == EX_FATAL
        err = capsys.readouterr().err
        assert f"error: {scores}:{lineno}: field larger than field limit" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_oversized_judgment_field_is_fatal(self, world, score_csv, tmp_path, capsys):
        lines = world["judgments"].read_text().splitlines()
        human = tmp_path / "human.csv"
        human.write_text("\n".join([*lines, "Z," + "9" * 200_000]) + "\n")
        out = tmp_path / "corr.csv"
        assert main([
            "meta-eval", "--scores", str(score_csv), "--human", str(human),
            "--resamples", "10", "--out", str(out),
        ]) == EX_FATAL
        err = capsys.readouterr().err
        assert f"error: {human}:{len(lines) + 1}: field larger than field limit" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_system_missing_a_topic_row_is_fatal(self, tmp_path, capsys):
        scores = tmp_path / "scores.csv"
        scores.write_text(
            "topic,system,variant,score\n"
            "d1,A,r1,0.5\nd1,B,r1,0.4\nd1,C,r1,0.3\n"
            "d2,A,r1,0.6\nd2,C,r1,0.2\n"
        )
        human = tmp_path / "human.csv"
        human.write_text("system,pyramid\nA,0.9\nB,0.5\nC,0.1\n")
        out = tmp_path / "corr.csv"
        code = main([
            "meta-eval", "--scores", str(scores), "--human", str(human),
            "--resamples", "10", "--out", str(out),
        ])
        assert code == EX_FATAL
        err = capsys.readouterr().err
        assert "system B" in err and "topic d2" in err
        assert not out.exists()


class TestSweepBeta:
    def test_two_point_grid(self, world, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main([
            "sweep-beta",
            "--graph", str(world["graph"]), "--dict", str(world["dict"]),
            "--peers", str(world["peers"]), "--models", str(world["models"]),
            "--human", str(world["judgments"]),
            "--variant", "g1", "--betas", "0,1", "--out", str(out), "--jobs", "1",
        ])
        assert code == EX_OK
        rows = read_csv(out)
        assert {r["beta"] for r in rows} == {"0", "1"}
        assert len(rows) == 2 * 1 * 3  # betas x variants x human metrics

    def test_default_grid_has_eleven_betas(self, world, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main([
            "sweep-beta",
            "--graph", str(world["graph"]), "--dict", str(world["dict"]),
            "--peers", str(world["peers"]), "--models", str(world["models"]),
            "--human", str(world["judgments"]),
            "--variant", "g1", "--out", str(out), "--jobs", "1",
        ])
        assert code == EX_OK
        assert len({r["beta"] for r in read_csv(out)}) == 11

    def test_beta_one_row_equals_lexical_correlations(self, world, tmp_path):
        sweep_out = tmp_path / "sweep.csv"
        assert main([
            "sweep-beta",
            "--graph", str(world["graph"]), "--dict", str(world["dict"]),
            "--peers", str(world["peers"]), "--models", str(world["models"]),
            "--human", str(world["judgments"]),
            "--variant", "g1,r1", "--betas", "1", "--out", str(sweep_out), "--jobs", "1",
        ]) == EX_OK
        rows = read_csv(sweep_out)
        g1 = {r["human_metric"]: r for r in rows if r["variant"] == "g1"}
        r1 = {r["human_metric"]: r for r in rows if r["variant"] == "r1"}
        for metric in g1:
            assert g1[metric]["pearson"] == r1[metric]["pearson"]
            assert g1[metric]["spearman"] == r1[metric]["spearman"]
            assert g1[metric]["kendall"] == r1[metric]["kendall"]

    def test_curve_not_monotone_increasing_in_beta(self, tmp_path_factory, tmp_path):
        # paraphrased peers carry real semantic signal, so pure lexical
        # matching (beta=1) must not be the uniformly best point on the grid
        base = tmp_path_factory.mktemp("sweep_world")
        world = build_synthetic_eval(
            base, n_nodes=400, n_words=40, n_systems=12, n_models=2, seed=31
        )
        out = tmp_path / "sweep.csv"
        assert main([
            "sweep-beta",
            "--graph", str(world["graph"]), "--dict", str(world["dict"]),
            "--peers", str(world["peers"]), "--models", str(world["models"]),
            "--human", str(world["judgments"]),
            "--variant", "g1", "--out", str(out), "--jobs", "1",
        ]) == EX_OK
        rows = [r for r in read_csv(out) if r["human_metric"] == "pyramid"]
        curve = [float(r["pearson"]) for r in sorted(rows, key=lambda r: float(r["beta"]))]
        assert len(curve) == 11
        assert any(b < a for a, b in zip(curve, curve[1:]))

    def test_compose_score_then_meta_eval_matches_single_beta_sweep(self, world, tmp_path):
        beta = "0.4"
        report = tmp_path / "report.csv"
        assert main(score_args(world, report, variant="g1",
                               extra=("--beta", beta))) == EX_OK
        corr = tmp_path / "corr.csv"
        assert main([
            "meta-eval", "--scores", str(report), "--human", str(world["judgments"]),
            "--resamples", "10", "--out", str(corr),
        ]) == EX_OK
        sweep_out = tmp_path / "sweep.csv"
        assert main([
            "sweep-beta",
            "--graph", str(world["graph"]), "--dict", str(world["dict"]),
            "--peers", str(world["peers"]), "--models", str(world["models"]),
            "--human", str(world["judgments"]),
            "--variant", "g1", "--betas", beta, "--out", str(sweep_out), "--jobs", "1",
        ]) == EX_OK
        manual = {
            (r["auto_metric"], r["human_metric"]): r for r in read_csv(corr)
        }
        for row in read_csv(sweep_out):
            ref = manual[(row["variant"], row["human_metric"])]
            assert row["pearson"] == ref["pearson"]
            assert row["spearman"] == ref["spearman"]
            assert row["kendall"] == ref["kendall"]


    @pytest.mark.parametrize("grid, named", [
        ("0:2:1", "beta 2 "), ("0,1.5", "beta 1.5 "), ("-0.1:0.5", "beta -0.1 "),
        ("abc", "'abc'"), ("0:1:x", "'0:1:x'"), ("0:1:0.1:junk", "'0:1:0.1:junk'"),
        ("0:inf:0.1", "beta inf "),
        ("0:1:1e-6", "has 1000001 betas, more than 10001"),
        ("0:1:1e-12", "has 1000000001001 betas, more than 10001"),
    ])
    def test_bad_grid_is_usage_error(self, world, tmp_path, capsys, grid, named):
        out = tmp_path / "sweep.csv"
        code = main([
            "sweep-beta",
            "--graph", str(world["graph"]), "--dict", str(world["dict"]),
            "--peers", str(world["peers"]), "--models", str(world["models"]),
            "--human", str(world["judgments"]),
            "--variant", "g1", f"--betas={grid}", "--out", str(out),
        ])
        assert code == EX_USAGE
        assert named in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_file_problems_reported_as_by_score(self, world, tmp_path):
        """An unreadable peer and a missing one: exit 2, the unreadable file
        named in the errors sidecar, the missing one flagged on stderr."""
        peers, models = tmp_path / "peers", tmp_path / "models"
        for src, dst in ((world["peers"], peers), (world["models"], models)):
            dst.mkdir()
            for path in src.iterdir():  # a second topic, so a missing peer is flagged
                for topic in ("d1001", "d1002"):
                    (dst / path.name.replace("d1001", topic)).write_bytes(path.read_bytes())
        (peers / "d1001.sys04.txt").write_bytes(b"\xff\xfe invalid utf8")
        (peers / "d1002.sys05.txt").unlink()
        out = tmp_path / "sweep.csv"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(grouge.__file__).parent.parent), env.get("PYTHONPATH", "")]
        )
        result = subprocess.run(
            [sys.executable, "-m", "grouge.cli", "sweep-beta",
             "--peers", str(peers), "--models", str(models), "--human", str(world["judgments"]),
             "--variant", "r1", "--betas", "0,1", "--out", str(out)],
            env=env, capture_output=True, text=True,
        )
        assert result.returncode == EX_PARTIAL
        assert "d1002.sys05: peer summary missing, scored 0" in result.stderr
        sidecar = out.with_suffix(".csv.errors.log")
        assert sidecar.name in result.stderr
        assert "d1001.sys04.txt" in sidecar.read_text()
        assert len(read_csv(out)) == 2 * 1 * 3


class TestPprCommand:
    def test_prints_tab_separated_dimensions(self, world, capsys):
        code = main([
            "ppr", "--graph", str(world["graph"]), "--dict", str(world["dict"]),
            "--lemma", "w000", "--top", "5",
        ])
        assert code == EX_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 5
        for line in lines:
            sense_text, weight_text = line.split("\t")
            assert len(sense_text) == 10
            float(weight_text)

    def test_specific_sense_rank(self, world, capsys):
        code = main([
            "ppr", "--graph", str(world["graph"]), "--dict", str(world["dict"]),
            "--lemma", "w000", "--sense", "1", "--top", "3",
        ])
        assert code == EX_OK

    def test_sense_set_lists_the_composed_walk(self, world, capsys):
        """Without --sense the listing is the mean of the senses' walk
        columns, summed in ascending node index: the bytes it printed when
        engines kept composed weights (the SHA-256 below)."""
        graph = load_graph(world["graph"])
        nodes = sorted(graph.node_index(s)
                       for s in load_dictionary(world["dict"], graph).senses_of("w000"))
        assert _composes(graph, tuple(nodes))
        total = np.zeros(graph.node_count)
        for i in nodes:
            v0 = np.zeros((graph.node_count, 1))
            v0[i, 0] = 1.0
            total += walk_reference(graph, v0)[:, 0]
        total *= 1.0 / len(nodes)
        idx, weights = compress_reference(graph, total)
        want = "".join(f"{graph.sense_at(int(i))}\t{w:.12g}\n"
                       for i, w in zip(idx[:20], weights[:20]))
        assert main(["ppr", "--graph", str(world["graph"]), "--dict", str(world["dict"]),
                     "--lemma", "w000", "--top", "20"]) == EX_OK
        out = capsys.readouterr().out
        assert out == want
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "824440f336ed4624a8817aedf2151ee0ae4b0b96d0715a868e95d43a131c28aa"
        )

    def test_unknown_lemma_fatal(self, world):
        code = main([
            "ppr", "--graph", str(world["graph"]), "--dict", str(world["dict"]),
            "--lemma", "zzzz",
        ])
        assert code == EX_FATAL

    def test_sense_rank_out_of_range_fatal(self, world):
        code = main([
            "ppr", "--graph", str(world["graph"]), "--dict", str(world["dict"]),
            "--lemma", "w000", "--sense", "99",
        ])
        assert code == EX_FATAL


class TestCacheWorkflow:
    def test_fresh_then_warm_cache_stats(self, world, tmp_path, capsys, monkeypatch):
        engines = record_engines(monkeypatch)
        cache = tmp_path / "cache.npz"
        out = tmp_path / "r.csv"
        assert main(score_args(world, out, variant="g1",
                               extra=("--cache-persist", str(cache)))) == EX_OK
        assert main(["cache-stats", "--cache", str(cache)]) == EX_OK
        fresh = cache_counts(capsys.readouterr().out)
        assert fresh["misses"] > 0 and fresh["vectors"] > 0
        walked = len(read_cache_file(cache)[1]["sizes"])
        assert 0 < walked < fresh["vectors"]

        assert main(score_args(world, tmp_path / "r2.csv", variant="g1",
                               extra=("--cache-persist", str(cache)))) == EX_OK
        warm = engines[-1].stats()
        # the file holds the walked vectors; the warm run's misses are the
        # composed sets it composed again
        assert warm.misses == fresh["vectors"] - walked
        assert warm.hits + warm.misses == fresh["hits"] + fresh["misses"]
        assert (warm.size, warm.memory_bytes) == (fresh["vectors"], fresh["memory"])
        assert (tmp_path / "r2.csv").read_bytes() == out.read_bytes()
        # a warm run that walks nothing leaves the file, and its counts, as they were
        assert main(["cache-stats", "--cache", str(cache)]) == EX_OK
        assert cache_counts(capsys.readouterr().out) == fresh

    def test_warm_run_walks_no_column(self, isolated_world, tmp_path, capsys, monkeypatch):
        """The file holds every vector that keeps weights, sets with an
        isolated seed included, so a warm run composes the rest and walks
        nothing."""
        cache = tmp_path / "cache.npz"
        cold = tmp_path / "cold.csv"
        variants = "g1,g2,gsu4,r1"
        assert main(score_args(isolated_world, cold, variant=variants,
                               extra=("--cache-persist", str(cache)))) == EX_OK
        assert main(["cache-stats", "--cache", str(cache)]) == EX_OK
        fresh = cache_counts(capsys.readouterr().out)
        _, members = read_cache_file(cache)
        assert (members["key_sizes"] > 1).any()  # a set with an isolated seed was walked

        walks = []
        walk = grouge.ppr._walk
        monkeypatch.setattr(grouge.ppr, "_walk", lambda g, keys, cfg: walks.append(keys)
                            or walk(g, keys, cfg))
        engines = record_engines(monkeypatch)
        warm = tmp_path / "warm.csv"
        assert main(score_args(isolated_world, warm, variant=variants,
                               extra=("--cache-persist", str(cache)))) == EX_OK
        assert walks == []
        assert warm.read_bytes() == cold.read_bytes()
        again = engines[0].stats()
        assert again.misses == fresh["vectors"] - len(members["sizes"]) > 0
        assert (again.size, again.memory_bytes) == (fresh["vectors"], fresh["memory"])

    def test_file_is_rewritten_only_when_its_vectors_change(self, world, tmp_path):
        cache = tmp_path / "cache.npz"
        one_system = tmp_path / "peers"
        one_system.mkdir()
        for path in sorted(world["peers"].iterdir())[:1]:
            (one_system / path.name).write_bytes(path.read_bytes())

        def run(peers, *extra):
            return main(score_args({**world, "peers": peers}, tmp_path / "r.csv", variant="g1",
                                   extra=("--cache-persist", str(cache), *extra)))

        def walked():
            return len(read_cache_file(cache)[1]["sizes"])

        def stamp():  # an mtime that any rewrite replaces
            os.utime(cache, ns=(10**18, 10**18))
            return cache.read_bytes()

        assert run(one_system) == EX_OK
        saved, vectors = stamp(), walked()
        assert run(one_system) == EX_OK  # walks and evicts nothing
        assert (cache.read_bytes(), cache.stat().st_mtime_ns) == (saved, 10**18)
        assert run(world["peers"]) == EX_OK  # the other systems' senses are walked
        assert cache.stat().st_mtime_ns != 10**18 and walked() > vectors
        stamp()
        assert run(world["peers"], "--cache-capacity", "1") == EX_OK  # loading evicts
        assert cache.stat().st_mtime_ns != 10**18 and walked() <= 1

    def test_cache_stats_runs_no_code_from_a_planted_pickle(self, tmp_path, capsys,
                                                            monkeypatch):
        # check_pickle_refused_unread plants one at the --cache-persist path
        marker = tmp_path / "marker"
        monkeypatch.chdir(tmp_path)
        Path("grouge-cache.npz").write_bytes(planted_pickle(marker))
        assert main(["cache-stats"]) == EX_FATAL
        assert "error: cannot read cache file grouge-cache.npz" in capsys.readouterr().err
        assert main(["cache-stats", "--cache", "grouge-cache.npz"]) == EX_FATAL
        assert not marker.exists()

    def test_cache_stats_reports_the_saving_runs_counts(self, world, tmp_path, capsys,
                                                        monkeypatch):
        engines = record_engines(monkeypatch)
        cache = tmp_path / "cache.npz"
        assert main(score_args(world, tmp_path / "r.csv", variant="g1,g2",
                               extra=("--cache-persist", str(cache)))) == EX_OK
        stats = engines[0].stats()
        assert stats.hits > 0 and stats.misses > 0
        capsys.readouterr()
        assert main(["cache-stats", "--cache", str(cache)]) == EX_OK
        assert cache_counts(capsys.readouterr().out) == {
            "hits": stats.hits, "misses": stats.misses, "vectors": stats.size,
            "memory": stats.memory_bytes,
        }

    def test_cache_not_reused_across_walk_settings(self, world, tmp_path, capsys):
        cache = tmp_path / "cache.npz"
        assert main(score_args(world, tmp_path / "r.csv", variant="g1",
                               extra=("--cache-persist", str(cache)))) == EX_OK
        # a different restart probability invalidates the persisted vectors
        assert main(score_args(world, tmp_path / "r2.csv", variant="g1",
                               extra=("--cache-persist", str(cache),
                                      "--alpha", "0.3"))) == EX_OK
        assert main(["cache-stats", "--cache", str(cache)]) == EX_OK
        cold = cache_counts(capsys.readouterr().out)
        # the file holds the second run's own work: nothing was reused
        assert main(score_args(world, tmp_path / "r3.csv", variant="g1",
                               extra=("--cache-persist", str(tmp_path / "cold.npz"),
                                      "--alpha", "0.3"))) == EX_OK
        assert main(["cache-stats", "--cache", str(tmp_path / "cold.npz")]) == EX_OK
        assert cold == cache_counts(capsys.readouterr().out)
        assert cold["misses"] > 0

    def test_capacity_zero_keeps_the_persisted_cache(self, world, tmp_path, capsys):
        cache = tmp_path / "cache.npz"
        assert main(score_args(world, tmp_path / "r.csv", variant="g1",
                               extra=("--cache-persist", str(cache)))) == EX_OK
        saved = cache.read_bytes()
        for command in ("score", "sweep-beta"):
            args = score_args(world, tmp_path / f"{command}.csv", variant="g1",
                              extra=("--cache-persist", str(cache), "--cache-capacity", "0"))
            args[0] = command
            if command == "sweep-beta":
                args += ["--human", str(world["judgments"])]
            assert main(args) == EX_USAGE
            assert not (tmp_path / f"{command}.csv").exists()
        assert cache.read_bytes() == saved
        # a file saved by a library caller's engine that keeps nothing
        PprEngine(load_graph(world["graph"]), cache_capacity=0).save_cache(cache, {})
        capsys.readouterr()
        assert main(["cache-stats", "--cache", str(cache)]) == EX_OK
        assert capsys.readouterr().out == "cache: disabled\n"

    @pytest.mark.parametrize("damage", CACHE_DAMAGES)
    def test_unreadable_cache_file_ignored_with_warning(self, world, tmp_path, capsys, caplog,
                                                        damage):
        cache = tmp_path / "cache.npz"
        assert main(score_args(world, tmp_path / "warm.csv", variant="g1,r2",
                               extra=("--cache-persist", str(cache)))) == EX_OK
        cold_stats = read_cache_file(cache)[0]["stats"]
        damage_cache_file(cache, damage)
        damaged = cache.read_bytes()
        assert main(["cache-stats", "--cache", str(cache)]) == EX_FATAL
        assert "error: cannot read cache file" in capsys.readouterr().err

        for command in ("score", "sweep-beta"):
            caplog.clear()
            cache.write_bytes(damaged)
            runs = {}
            for label, extra in (("cold", ()), ("damaged", ("--cache-persist", str(cache)))):
                out = tmp_path / f"{command}-{label}.csv"
                args = score_args(world, out, variant="g1,r2", extra=extra)
                if command == "sweep-beta":
                    args[0] = "sweep-beta"
                    args += ["--human", str(world["judgments"]), "--betas", "0,0.5,1"]
                assert main(args) == EX_OK
                runs[label] = out.read_bytes()
            assert runs["damaged"] == runs["cold"]
            assert "cannot read cache file" in caplog.text
            assert main(["cache-stats", "--cache", str(cache)]) == EX_OK  # overwritten
            counts = cache_counts(capsys.readouterr().out)
            assert counts["misses"] == cold_stats["misses"] > 0
            assert counts["hits"] == cold_stats["hits"]

    @pytest.mark.parametrize("version", [1, 2], ids=["version-1", "version-2"])
    def test_cache_file_in_the_old_format_is_refused(self, world, tmp_path, caplog, version):
        # Files written while the walk settings had a truncation field were
        # pickles holding a format version and "truncation": None in their
        # meta. A pickle file is refused unread, and the run overwrites it.
        self.check_pickle_refused_unread(world, tmp_path, caplog, {
            "version": version, "meta": {"alpha": 0.15, "iterations": 30, "truncation": None},
        })

    def test_cache_file_from_before_sense_id_node_order_is_refused(self, world, tmp_path,
                                                                   caplog):
        # Files written before nodes were numbered in sense-id order were
        # pickles whose meta lacked "node_order"; their indices may name
        # other senses. A pickle file is refused unread.
        self.check_pickle_refused_unread(world, tmp_path, caplog, {
            "meta": {"alpha": 0.15, "iterations": 30}, "stats": {"enabled": True},
        })

    @staticmethod
    def check_pickle_refused_unread(world, tmp_path, caplog, payload):
        cache = tmp_path / "cache.npz"
        cold = tmp_path / "cold.csv"
        assert main(score_args(world, cold, variant="g1,g2",
                               extra=("--cache-persist", str(cache)))) == EX_OK
        cold_header = read_cache_file(cache)[0]
        marker = tmp_path / "marker"
        cache.write_bytes(planted_pickle(marker, payload))
        caplog.clear()
        warm = tmp_path / "warm.csv"
        assert main(score_args(world, warm, variant="g1,g2",
                               extra=("--cache-persist", str(cache)))) == EX_OK
        assert f"cannot read cache file {cache}" in caplog.text
        assert not marker.exists()
        assert warm.read_bytes() == cold.read_bytes()
        saved = read_cache_file(cache)[0]
        assert saved == cold_header  # the cold run's work, written over
        assert saved["stats"]["misses"] > 0

    @pytest.mark.parametrize("command", ["score", "sweep-beta"])
    def test_outputs_are_written_before_the_cache_file(self, world, tmp_path, monkeypatch,
                                                       command):
        out = tmp_path / "out.csv"
        written = []
        save_cache = PprEngine.save_cache

        def recording_save(engine, path, meta):
            written.append(sorted(p.name for p in tmp_path.iterdir()))
            save_cache(engine, path, meta)

        monkeypatch.setattr(PprEngine, "save_cache", recording_save)
        args = score_args(world, out, extra=("--cache-persist", str(tmp_path / "cache.npz")))
        if command == "sweep-beta":
            args[0] = "sweep-beta"
            args += ["--human", str(world["judgments"]), "--betas", "0,1"]
        else:
            args.append("--debug-senses")
        assert main(args) == EX_OK
        assert written == [["out.csv", "out.csv.meta.json"] if command == "score" else ["out.csv"]]

    @pytest.mark.parametrize("command", ["score", "sweep-beta"])
    def test_cache_path_that_is_a_directory_is_a_warning(self, world, tmp_path, caplog,
                                                         command):
        """The run scores, writes its outputs and exits as without
        --cache-persist; the cache it cannot read or save is a warning."""
        cache = tmp_path / "cache-dir"
        cache.mkdir()
        runs = {}
        for label, extra in (("cold", ()), ("persist", ("--cache-persist", str(cache)))):
            out = tmp_path / f"{label}.csv"
            args = score_args(world, out, extra=extra)
            if command == "sweep-beta":
                args[0] = "sweep-beta"
                args += ["--human", str(world["judgments"]), "--betas", "0,0.5,1"]
            caplog.clear()
            assert main(args) == EX_OK
            runs[label] = out.read_bytes()
        assert runs["persist"] == runs["cold"]
        assert f"cannot read cache file {cache}" in caplog.text
        assert f"cannot save cache file {cache}" in caplog.text
        assert list(cache.iterdir()) == []

    def test_cache_that_cannot_be_saved_keeps_the_partial_exit(self, world, tmp_path, caplog):
        bad = world["peers"] / "d1001.sysbad.txt"
        bad.write_bytes(b"\xff\xfe invalid utf8")
        cache = tmp_path / "cache-dir"
        cache.mkdir()
        try:
            out = tmp_path / "report.csv"
            assert main(score_args(world, out, extra=("--cache-persist", str(cache)))) == EX_PARTIAL
        finally:
            bad.unlink()
        assert "sysbad" in out.with_suffix(".csv.errors.log").read_text()
        assert f"cannot save cache file {cache}" in caplog.text

    def test_missing_cache_file_fatal(self, tmp_path):
        assert main(["cache-stats", "--cache", str(tmp_path / "none.npz")]) == EX_FATAL


class TestImport:
    def test_cli_import_does_not_load_scipy_stats(self):
        code = "import sys, grouge.cli; print('scipy.stats' in sys.modules)"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(grouge.__file__).parent.parent), env.get("PYTHONPATH", "")]
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            timeout=60, check=True,
        )
        assert out.stdout.strip() == "False"

    @pytest.mark.parametrize("command", ["import", "score", "meta-eval"])
    def test_lexical_runs_do_not_load_scipy_sparse(self, world, score_csv, tmp_path, command):
        """Only a graph needs scipy.sparse: importing the CLI, a lexical
        score and meta-eval (Williams test included) leave it unloaded."""
        argv = {
            "import": [],
            "score": score_args(world, tmp_path / "r.csv", variant="r1,r2,rsu4"),
            "meta-eval": ["meta-eval", "--scores", str(score_csv),
                          "--human", str(world["judgments"]), "--baseline", "r1",
                          "--resamples", "20", "--out", str(tmp_path / "corr.csv")],
        }[command]
        code = (
            "import sys; from grouge.cli import main; "
            "rc = main(sys.argv[1:]) if sys.argv[1:] else 0; "
            "print(rc, 'scipy.sparse' in sys.modules)"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(grouge.__file__).parent.parent), env.get("PYTHONPATH", "")]
        )
        result = subprocess.run(
            [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True,
            timeout=60, check=True,
        )
        assert result.stdout.split() == [str(EX_OK), "False"]


class TestVersion:
    def test_version_prints(self, capsys):
        assert main(["--version"]) == EX_OK
        assert capsys.readouterr().out == "grouge 0.1.0\n"

    def test_version_does_not_unpickle_cache_file(self, tmp_path, monkeypatch, capsys):
        marker = tmp_path / "marker"
        payload = planted_pickle(marker)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "grouge-cache.npz").write_bytes(payload)
        assert main(["--version"]) == EX_OK
        assert capsys.readouterr().out == "grouge 0.1.0\n"
        assert not marker.exists()
        pickle.loads(payload)["planted"].close()  # the planted file does run code when unpickled
        assert marker.exists()
