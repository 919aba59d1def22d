from __future__ import annotations

import json
import pickle
import struct
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from grouge import Dictionary, SemanticGraph, SenseId, load_dictionary, load_graph

# `pytest --hypothesis-profile=ci`: the same, larger example set on every
# run, for the tests that take their example count from the profile.
settings.register_profile("ci", derandomize=True, max_examples=400)


# Ways to damage the members of a cache archive; each makes read_cache_file
# raise CacheFileError.
_MEMBER_DAMAGES = {
    "member-missing": lambda m, n: m.pop("weights"),
    "wrong-dtype": lambda m, n: m.update(indices=m["indices"].astype(np.int64)),
    "wrong-shape": lambda m, n: m.update(sizes=m["sizes"].reshape(1, -1)),
    "sizes-do-not-sum": lambda m, n: m["sizes"].__setitem__(-1, m["sizes"][-1] + 1),
    "index-out-of-range": lambda m, n: m["indices"].__setitem__(-1, n),
    "seed-out-of-range": lambda m, n: m["keys"].__setitem__(0, -1),
    "header-not-an-object": lambda m, n: m.update(header=np.array(json.dumps([n]))),
}
CACHE_DAMAGES = ("empty", "truncated", "encrypted", "corrupt-deflate", *_MEMBER_DAMAGES)


def damage_cache_file(path: Path, damage: str) -> None:
    """Rewrite the cache archive at path with one of CACHE_DAMAGES."""
    whole = path.read_bytes()
    if damage in ("empty", "truncated"):
        path.write_bytes(whole[: len(whole) // 2] if damage == "truncated" else b"")
        return
    if damage == "encrypted":  # the first member's "encrypted" flag bit, in both headers
        data = bytearray(whole)
        central = data.find(b"PK\x01\x02")
        data[6] |= 1
        data[central + 8] |= 1
        path.write_bytes(bytes(data))
        return
    with np.load(path) as archive:
        members = {name: archive[name] for name in archive.files}
    if damage == "corrupt-deflate":  # the weights compressed, with an invalid first block
        with open(path, "wb") as fh:
            np.savez_compressed(fh, **members)
        with zipfile.ZipFile(path) as archive:
            at = archive.getinfo("weights.npy").header_offset
        data = bytearray(path.read_bytes())
        name_size, extra_size = struct.unpack("<HH", data[at + 26 : at + 30])
        data[at + 30 + name_size + extra_size] = 0xFF  # block type 3, which is reserved
        path.write_bytes(bytes(data))
        return
    _MEMBER_DAMAGES[damage](members, json.loads(members["header"].item())["meta"]["node_count"])
    with open(path, "wb") as fh:
        np.savez(fh, **members)


def planted_pickle(marker: Path, payload: dict | None = None) -> bytes:
    """A pickle of payload that also holds an object whose loading creates
    marker."""

    class Planted:
        def __reduce__(self):
            return (open, (str(marker), "w"))

    return pickle.dumps({**(payload or {}), "planted": Planted()})


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
