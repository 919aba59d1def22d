"""The traced benchmark (bench/tracing.py) wraps grouge functions and
methods by name. Every name it hooks must still exist and scoring must still
call it, so that a rename or a refactor fails here rather than silently
dropping a layer from the trace."""

import sys
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
if str(BENCH) not in sys.path:
    sys.path.append(str(BENCH))

import tracing  # noqa: E402
import grouge.scorer  # noqa: E402
import grouge.similarity  # noqa: E402
from grouge import GrougeConfig, load_dictionary, load_graph, score_batch  # noqa: E402
from grouge.ppr import PprEngine  # noqa: E402
from synth import build_synthetic_eval  # noqa: E402


def test_every_patched_attribute_resolves():
    for owner_path, attr, _ in tracing._PATCHES:
        owner = tracing._owner(owner_path)
        assert callable(getattr(owner, attr, None)), f"{owner_path}.{attr}"


def test_every_walk_method_resolves():
    for method in tracing._WALK_METHODS:
        assert callable(getattr(PprEngine, method, None)), f"PprEngine.{method}"


def test_hooked_layers_are_called_when_scoring(tmp_path, monkeypatch):
    """Scoring a small semantic world calls every layer the trace times
    through the names it wraps, and computes each (model sense, peer sense)
    cell of a peer's similarity table once."""
    world = build_synthetic_eval(
        tmp_path, n_nodes=300, n_words=40, n_systems=4, n_models=3, seed=9
    )
    graph = load_graph(world["graph"])
    dictionary = load_dictionary(world["dict"], graph)
    calls: Counter = Counter()
    cells: Counter = Counter()

    def count(owner, attr, key):
        fn = getattr(owner, attr)

        def counted(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)

    count(grouge.scorer, "parts_by_family", "peer")
    count(grouge.scorer, "disambiguate_pair", "disambiguate_pair")
    count(grouge.scorer, "sim_sem", "scorer.sim_sem")
    count(grouge.similarity, "sim_sem", "similarity.sim_sem")
    sense_similarity = PprEngine.sense_similarity

    def counted_cell(engine, a, b):
        cells[calls["peer"], a, b] += 1
        return sense_similarity(engine, a, b)

    monkeypatch.setattr(PprEngine, "sense_similarity", counted_cell)
    score_batch(
        world["peers"], world["models"], GrougeConfig(), PprEngine(graph), dictionary,
        variants=("g1",),
    )
    assert calls["peer"] == 4
    assert calls["disambiguate_pair"] == 12
    assert calls["scorer.sim_sem"] > 0
    assert calls["similarity.sim_sem"] > 0
    assert cells and max(cells.values()) == 1
