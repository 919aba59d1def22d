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


@pytest.fixture
def two_node_graph() -> SemanticGraph:
    return graph_from_edges([(1, 2)])


@pytest.fixture
def path_graph() -> SemanticGraph:
    return graph_from_edges([(1, 2), (2, 3), (3, 4), (4, 5)])
