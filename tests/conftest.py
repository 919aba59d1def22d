from __future__ import annotations

import pytest
from hypothesis import settings

from grouge import Dictionary, SemanticGraph, SenseId, load_dictionary, load_graph

# `pytest --hypothesis-profile=ci`: the same, larger example set on every
# run, for the tests that take their example count from the profile.
settings.register_profile("ci", derandomize=True, max_examples=400)


def sid(i: int, pos: str = "n") -> str:
    return f"{i:08d}-{pos}"


def sense(i: int, pos: str = "n") -> SenseId:
    return SenseId(f"{i:08d}", pos)


def graph_from_edges(edges: list[tuple[int, int]], isolated: list[int] = ()) -> SemanticGraph:
    """Build a graph from integer edge pairs; isolated nodes are registered
    through the dropped-self-loop rule."""
    lines = [f"u:{sid(i)} v:{sid(j)}" for i, j in edges]
    lines += [f"u:{sid(i)} v:{sid(i)}" for i in isolated]
    return load_graph(lines)


def dictionary_from(graph: SemanticGraph, entries: dict[str, list[int]]) -> Dictionary:
    """Entries map lemma -> ordered list of node numbers (all noun senses)."""
    lines = [
        lemma + " " + " ".join(f"{sid(i)}:1" for i in nodes)
        for lemma, nodes in entries.items()
    ]
    return load_dictionary(lines, graph)


def labelled_graph(edges, n, rng, isolated=()):
    """Graph on nodes 0..n-1 whose SenseIds are a random relabelling with
    mixed parts of speech, so the relation lines list the senses in an
    order other than SenseId order."""
    labels = rng.permutation(n) + 1
    pos = "nvar"

    def sid(i):
        return f"{labels[i]:08d}-{pos[labels[i] % 4]}"

    lines = [f"u:{sid(i)} v:{sid(j)}" for i, j in edges]
    lines += [f"u:{sid(i)} v:{sid(i)}" for i in isolated]
    return load_graph(lines)


def ring_graphs(rng):
    for n in (5, 8, 13, 30, 64):
        yield labelled_graph([(i, (i + 1) % n) for i in range(n)], n, rng)


def star_graphs(rng):
    for leaves in (3, 6, 20, 50):
        yield labelled_graph([(0, i) for i in range(1, leaves + 1)], leaves + 1, rng)


@pytest.fixture
def two_node_graph() -> SemanticGraph:
    return graph_from_edges([(1, 2)])


@pytest.fixture
def path_graph() -> SemanticGraph:
    return graph_from_edges([(1, 2), (2, 3), (3, 4), (4, 5)])
