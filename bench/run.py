"""grouge benchmark: score a generated corpus, then meta-evaluate the scores.

    python3 bench/run.py --workload acc10k --seed 1 --seconds 25 --trace 0

Run from the repository root; the program is imported from ``src``. Each
run generates its workload's corpus from ``--seed`` into ``.bench-out/``,
runs ``grouge score`` and then ``grouge meta-eval`` in fresh processes (see
``workload.py``), checks every output against independent computations
(``tests/oracles.py`` and ``reference.py``) and prints one JSON line last.
Times are in seconds at the reference speed of ``pace.py``. ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` runs the same commands with
spans around every layer and reports per-layer metrics instead. See
README.md.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.append(str(ROOT / "tests"))  # the test suite's oracles

import corpus as gen  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
from oracles import (  # noqa: E402
    clipped_match_total,
    kendall_tau_b_oracle,
    pearson_oracle,
    spearman_oracle,
)

OUT = ROOT / ".bench-out"

SEMANTIC = ("g1", "g2", "gsu4", "r1", "r2", "rsu4")
LEXICAL = ("r1", "r2", "rsu4")
HUMAN = ("pyramid", "responsiveness", "readability")

# Why each workload exists is in README.md.
WORKLOADS = {
    "wordnet117k": dict(nodes=117_659, systems=5, models=1, samples=4, sim_samples=2),
    "acc10k": dict(nodes=10_000, systems=50, models=4, samples=8, sim_samples=8),
    "duc-lexical": dict(topics=8, systems=50, models=4),
}

# Score processes fill this share of --seconds, meta-eval processes the
# rest. A phase starts another process only if it would end within its
# share, so a long scoring pass (wordnet117k) runs once and a short one
# (duc-lexical) several times; every metric is a median over processes.
SCORE_SHARE = 0.6
TOP_K = 50  # ranks compared per sampled walk vector
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def generate(name: str, seed: int, root: Path) -> gen.Corpus:
    spec = WORKLOADS[name]
    if "nodes" in spec:
        return gen.semantic_world(root, seed, spec["nodes"], spec["systems"], spec["models"])
    return gen.lexical_world(root, seed, spec["topics"], spec["systems"], spec["models"])


def make_job(name: str, seed: int, world: gen.Corpus, work: Path, trace: bool) -> dict:
    semantic = world.graph is not None
    variants = SEMANTIC if semantic else LEXICAL
    score_argv = ["score", "--peers", str(world.peers), "--models", str(world.models),
                  "--variant", ",".join(variants), "--jobs", "1"]
    if semantic:
        score_argv += ["--graph", str(world.graph), "--dict", str(world.dictionary)]
    job = {
        "mode": "score",
        "trace": trace,
        "variants": variants,
        "score_argv": score_argv,
        "meta_argv": ["meta-eval", "--scores", str(work / "scores0.csv"),
                      "--human", str(world.judgments)],
        "top_k": TOP_K,
        "sample_senses": [],
        "sim_pairs": [],
    }
    if semantic:
        rng = random.Random(seed)
        words = sorted({t for s in world.model_texts.values() for sent in s for t in sent
                        if t in world.lemma_senses})
        senses = []
        for word in rng.sample(words, len(words)):
            sense = gen.node_id(rng.choice(world.lemma_senses[word]))
            if sense not in senses:
                senses.append(sense)
            if len(senses) == WORKLOADS[name]["samples"]:
                break
        job["sample_senses"] = senses
        # The direct overlap ranks whole vectors in Python: fewer on 117k nodes.
        pairs = [[i, i + 1] for i in range(0, WORKLOADS[name]["sim_samples"] - 1, 2)]
        job["sim_pairs"] = (
            [[a, b, [], []] for a, b in pairs]
            + [[a, b, ["x001", "x002"], ["x002", "x003"]] for a, b in pairs]
            + [[0, 0, [], []]]
        )
    return job


def spawn(job: dict, work: Path, tag: str, deadline: float) -> dict:
    """Run one workload process to its end and return what it reported."""
    job_path, out_path = work / f"{tag}.job.json", work / f"{tag}.out.json"
    job_path.write_text(json.dumps(job), "utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    with open(work / f"{tag}.log", "w", encoding="utf-8") as log:
        spawned = time.monotonic()
        cmd = [sys.executable, str(BENCH / "workload.py"), str(job_path), str(out_path), repr(spawned)]
        try:
            proc = subprocess.run(cmd, env=env, cwd=work, stdout=log, stderr=log,
                                  timeout=max(1.0, deadline - spawned))
        except subprocess.TimeoutExpired:
            raise BenchError(f"{tag}: workload process timed out") from None
    if proc.returncode != 0 or not out_path.exists():
        tail = (work / f"{tag}.log").read_text("utf-8")[-2000:]
        raise BenchError(f"{tag}: workload process exited {proc.returncode}\n{tail}")
    return json.loads(out_path.read_text("utf-8"))


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def repeat(one_pass, least: int, until: float) -> list:
    """Run passes until `least` are done and another would end after `until`."""
    done, took = [], 0.0
    while len(done) < least or time.monotonic() + took <= until:
        began = time.monotonic()
        done.append(one_pass(len(done)))
        took = time.monotonic() - began
    return done


def check(world: gen.Corpus, job: dict, runs: list[dict], metas: list[dict],
          work: Path) -> tuple[int, int, list[str]]:
    """Compare the program's outputs with independent computations.

    Operations are the score rows of every score process and the
    correlation rows of every meta-eval process. The first of each is
    checked against the oracles; the others must write the same bytes.
    Returns (attempted, failed, problems).
    """
    problems: list[str] = []
    variants = job["variants"]
    for n, run_n in enumerate(runs):
        if run_n["score_rc"] != 0:
            problems.append(f"score {n} exited {run_n['score_rc']}")
        problems += [f"score {n} flagged: {f}" for f in run_n["flagged"]]
        problems += [f"score {n} error: {e}" for e in run_n["errors"]]
    problems += [f"meta-eval {n} exited {m['meta_rc']}" for n, m in enumerate(metas) if m["meta_rc"]]
    for stem, count in (("scores", len(runs)), ("corr", len(metas))):
        for n in range(1, count):
            if (work / f"{stem}{n}.csv").read_bytes() != (work / f"{stem}0.csv").read_bytes():
                problems.append(f"{stem}{n}.csv differs from {stem}0.csv")
    result = runs[0]

    scores = {(r["topic"], r["system"], r["variant"]): float(r["score"])
              for r in read_csv(work / "scores0.csv")}
    expected = [(t, s, v) for t in world.topics for s in world.systems for v in variants]
    missing = [key for key in expected if key not in scores]
    problems += [f"score row missing: {key}" for key in missing[:5]]
    if len(scores) != len(expected) - len(missing):
        problems.append(f"{len(scores)} score rows, expected {len(expected)}")

    # Lexical rows and the lexical part of blended rows, from clipped counts.
    parts = {tuple(p[:3]): p[3:] for p in result["parts"]}
    families = sorted({v[1:] for v in variants})
    grams = {}
    for key, sentences in [*world.model_texts.items(), *world.peer_texts.items()]:
        for family in families:
            grams[key, family] = reference.grams(sentences, family)
    model_ids = {t: sorted(m for (tt, m) in world.model_texts if tt == t) for t in world.topics}
    for topic in world.topics:
        for system in world.systems:
            for family in families:
                peer = grams[(topic, system), family]
                models = [grams[(topic, m), family] for m in model_ids[topic]]
                lexical = sum(clipped_match_total(model, peer) for model in models)
                total = sum(len(model) for model in models)
                for variant in ("r" + family, "g" + family):
                    key = (topic, system, variant)
                    if variant not in variants or key not in scores:
                        continue
                    if variant[0] == "r":
                        want = lexical / total
                    else:
                        lex, sem, tot = parts[key]
                        if lex != lexical or tot != total or not 0.0 <= sem <= tot:
                            problems.append(f"{key}: parts {parts[key]}, clipped {lexical}/{total}")
                        want = (0.5 * lex + 0.5 * sem) / tot
                    if abs(scores[key] - want) > 1e-11:
                        problems.append(f"{key}: score {scores[key]!r}, expected {want!r}")

    # Walk vectors against a separate power iteration; sim_sem against the
    # direct rank-overlap formula on the same weights.
    if job["sample_senses"]:
        seeds = [[int(s[:8])] for s in job["sample_senses"]]
        exact = reference.power_iteration(world.n_nodes, world.edges, seeds)
        for col, top in enumerate(result["vector_tops"]):
            bad = reference.check_top_ranks([(n, w) for n, w in top], exact[:, col])
            if bad:
                problems.append(f"walk vector {job['sample_senses'][col]}: {bad}")
        for (a, b, *_), (got, want) in zip(job["sim_pairs"], result["sims"]):
            if abs(got - want) > 1e-9:
                problems.append(f"sim_sem({a}, {b}) = {got!r}, direct {want!r}")

    # Meta-eval point estimates and intervals.
    judgments = read_csv(world.judgments)
    human = {h: [float(r[h]) for r in judgments] for h in HUMAN}
    # Mean over topics in sorted order, summed left to right as the CLI
    # defines it: equal means must stay equal, or rank ties would differ.
    means = {v: [sum(scores.get((t, s, v), 0.0) for t in sorted(world.topics)) / len(world.topics)
                 for s in world.systems] for v in variants}
    corr = {(r["auto_metric"], r["human_metric"]): r for r in read_csv(work / "corr0.csv")}
    corr_missing = 0
    for variant in variants:
        for h in HUMAN:
            row = corr.get((variant, h))
            if row is None:
                corr_missing += 1
                problems.append(f"correlation row missing: {variant}/{h}")
                continue
            for coef, fn in (("pearson", pearson_oracle), ("spearman", spearman_oracle),
                             ("kendall", kendall_tau_b_oracle)):
                want = fn(means[variant], human[h])
                lo, hi = float(row[coef + "_ci_lo"]), float(row[coef + "_ci_hi"])
                if abs(float(row[coef]) - want) > 1e-9:
                    problems.append(f"{variant}/{h} {coef}: {row[coef]}, oracle {want!r}")
                if not -1.0 <= lo <= hi <= 1.0:
                    problems.append(f"{variant}/{h} {coef} interval [{lo}, {hi}]")
            if int(row["n"]) != len(world.systems):
                problems.append(f"{variant}/{h}: n = {row['n']}")

    # A property the method must have: better systems score higher.
    ordered = "g1" if "g1" in variants else "r1"
    rho = spearman_oracle(means[ordered], world.qualities)
    if not rho > 0.0:
        problems.append(f"{ordered} means vs generator quality: Spearman {rho:.3f}")

    attempted = len(runs) * len(expected) + len(metas) * len(variants) * len(HUMAN)
    failed = (len(runs) * len(missing) + len(metas) * corr_missing
              + sum(len(r["flagged"]) + len(r["errors"]) for r in runs))
    return attempted, min(failed, attempted), problems


def run(args) -> dict:
    start = time.monotonic()
    deadline = start + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        world = generate(args.workload, args.seed, work)
        job = make_job(args.workload, args.seed, world, work, bool(args.trace))
        spans = OUT / f"{args.workload}-seed{args.seed}"

        def score_pass(n: int) -> dict:
            argv = job["score_argv"] + ["--out", str(work / f"scores{n}.csv")]
            return spawn(dict(job, score_argv=argv, spans_path=f"{spans}.score.spans.csv"),
                         work, f"score{n}", deadline)

        def meta_pass(n: int) -> dict:
            argv = job["meta_argv"] + ["--out", str(work / f"corr{n}.csv")]
            return spawn(dict(job, mode="meta", meta_argv=argv, spans_path=f"{spans}.meta.spans.csv"),
                         work, f"meta{n}", deadline)

        measured_from = time.monotonic()
        gen_s = measured_from - start
        if args.trace:  # one process of each kind
            runs, metas = [score_pass(0)], [meta_pass(0)]
        else:
            runs = repeat(score_pass, 1, measured_from + SCORE_SHARE * args.seconds)
            metas = repeat(meta_pass, 1, measured_from + args.seconds)
        checked_from = time.monotonic()
        attempted, failed, problems = check(world, job, runs, metas, work)
        check_s = time.monotonic() - checked_from
        digest = hashlib.sha256((work / "scores0.csv").read_bytes()).hexdigest()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    rates = [world.pairs / r["score_s"] for r in runs]
    setup = [r["setup_s"] for r in runs]
    if args.trace:
        per_layer = tracing.per_layer_metrics(runs[0]["trace"], metas[0]["trace"], runs[0]["cache"],
                                              rates[0])
        metrics = {k: {"value": v, "unit": _unit(k)} for k, v in per_layer.items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "pairs_per_s": {"value": statistics.median(rates), "unit": "1/s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in runs), "unit": "MiB"},
            "meta_eval_s": {"value": statistics.median(m["meta_eval_s"] for m in metas), "unit": "s"},
        }
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "score_csv_sha256": digest, "pairs": world.pairs,
        "pairs_per_s_samples": rates, "setup_samples": setup,
        "peak_rss_mb_samples": [r["peak_rss_mb"] for r in runs],
        "meta_eval_samples": [m["meta_eval_s"] for m in metas],
        # as measured, before scaling to the reference speed (pace.py)
        "wall_pairs_per_s_samples": [world.pairs / r["score_wall_s"] for r in runs],
        "wall_setup_samples": [r["setup_wall_s"] for r in runs],
        "wall_meta_eval_samples": [m["meta_eval_wall_s"] for m in metas],
        "probe_median_samples": [p["probe_median_s"] for p in (*runs, *metas)],
        "generate_s": gen_s, "check_s": check_s, "run_s": time.monotonic() - start,
        "problems": problems, "metrics": metrics,
        "layers": [p["trace"]["table"] for p in (runs[0], metas[0]) if "trace" in p],
    }
    suffix = "-trace" if args.trace else ""
    (OUT / f"{args.workload}-seed{args.seed}{suffix}.json").write_text(
        json.dumps(record, indent=1), "utf-8")
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(f"score_csv_sha256 {digest}  pairs {world.pairs}  score processes {len(runs)}"
          f"  meta-eval processes {len(metas)}")
    return {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}


def _unit(name: str) -> str:
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    return "MiB" if name.endswith("_mb") else "count"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        summary = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
