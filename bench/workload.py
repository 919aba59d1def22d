"""One benchmark process: ``grouge score`` or ``grouge meta-eval``, timed.

Started by ``run.py`` with ``src`` on PYTHONPATH and a JSON job file. The
commands run through ``grouge.cli.main`` exactly as the command line would
run them, so set-up, scoring and meta-eval follow the user's code paths.
Only standard-library modules load before grouge, so the import is part of
the set-up time.

    python workload.py JOB.json OUT.json START  # START: time.monotonic() at spawn

Modes: ``score`` runs the score command and reports its set-up and scoring
times and peak memory; ``meta`` runs the meta-eval command on an existing
score CSV and reports its time. Every time is reported twice: as measured
and in seconds at the reference speed of ``pace.py``, whose probe runs
from the first line of ``main``. With ``"trace": true`` the process also
records spans (see ``tracing.py``) and reports a summary of them.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

from pace import Pacer


def main() -> int:
    pacer = Pacer()
    pacer.start()
    job_path, out_path, spawned = sys.argv[1], sys.argv[2], float(sys.argv[3])
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    origin = time.monotonic()
    import grouge.cli as cli

    import_s = time.monotonic() - origin
    tracer = None
    run = cli.main
    if job["trace"]:
        from tracing import Tracer

        tracer = Tracer(origin)
        tracer.install()
        run = tracer.span("cli." + job["mode"], cli.main)

    if job["mode"] == "meta":
        start = time.monotonic()
        rc = run(job["meta_argv"])
        end = time.monotonic()
        pacer.stop()
        out = {"meta_eval_wall_s": end - start, "meta_eval_s": pacer.reference_s(start, end),
               "probe_median_s": pacer.probe_median_s(), "meta_rc": rc}
        _summarize(out, tracer, job, import_s)
        return _dump(out_path, out)

    seen: dict = {}
    score_batch = cli.score_batch

    def timed_score_batch(*args, **kwargs):
        seen["start"] = time.monotonic()
        seen["engine"] = kwargs.get("engine")
        seen["report"] = score_batch(*args, **kwargs)
        return seen["report"]

    cli.score_batch = timed_score_batch
    rc = run(job["score_argv"])
    end = time.monotonic()
    pacer.stop()
    report, engine, start = seen["report"], seen["engine"], seen["start"]
    out = {
        "setup_wall_s": start - spawned,
        "setup_s": pacer.reference_s(spawned, start),
        "score_wall_s": end - start,
        "score_s": pacer.reference_s(start, end),
        "probe_median_s": pacer.probe_median_s(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "score_rc": rc,
        "flagged": list(report.flagged),
        "errors": list(report.errors),
        "parts": [[*key, p.lexical, p.semantic, p.total] for key, p in report.parts.items()],
        "cache": engine.stats().as_dict() if engine is not None else None,
    }
    _summarize(out, tracer, job, import_s)  # before sampling, which calls the engine
    if engine is not None:
        out.update(_sample_engine(engine, job))
    return _dump(out_path, out)


def _summarize(out: dict, tracer, job: dict, import_s: float) -> None:
    if tracer is not None:
        out["trace"] = dict(tracer.summary(), import_s=import_s, cpu_s=time.process_time())
        tracer.write_spans(job["spans_path"])


def _sample_engine(engine, job) -> dict:
    """Top ranks of sampled cached vectors and sampled sim_sem results.

    Runs after every timed phase. Each sim_sem result is paired with the
    direct rank-overlap evaluation of the same two vectors' weights.
    """
    from grouge import SenseId, insert_oov, sim_sem

    sys.path.append(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tests"))
    from oracles import weighted_overlap_direct

    vectors = [engine.ppr_for_sense(SenseId.parse(s)) for s in job["sample_senses"]]
    tops = [[[int(k.offset), w] for k, w in v.top(job["top_k"])] for v in vectors]
    weights: dict[int, dict] = {}
    sims = []
    for a, b, oov_a, oov_b in job["sim_pairs"]:
        sides = []
        for i, oov in ((a, oov_a), (b, oov_b)):
            if i not in weights:
                weights[i] = {str(k): w for k, w in vectors[i].items()}
            vec = insert_oov(vectors[i], oov)
            sides.append((vec, {**weights[i], **dict.fromkeys(vec.oov_terms, vec.oov_weight)}))
        (va, wa), (vb, wb) = sides
        sims.append([sim_sem(va, vb), weighted_overlap_direct(wa, wb)])
    return {"vector_tops": tops, "sims": sims}


def _dump(path: str, out: dict) -> int:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
