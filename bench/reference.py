"""Independent computations the benchmark checks the program against.

Nothing here imports ``grouge``. Grams are listed from the generator's own
token lists, and walks run on a matrix built from the generator's edge
list. The rest of the checks use ``tests/oracles.py``; its ``dense_ppr``
cannot hold a 117k-node graph, hence the sparse power iteration here.
"""

from __future__ import annotations

import numpy as np
from oracles import su4_pairs  # tests/oracles.py
from scipy import sparse

BOS = "<s>"
ALPHA, ITERATIONS = 0.15, 30  # the CLI's walk defaults
REL_TOL = 1e-9  # walk weights: relative tolerance against the power iteration


def grams(sentences: list[list[str]], family: str) -> list[tuple]:
    """Every gram of one family, within sentence boundaries."""
    out: list[tuple] = []
    for sent in sentences:
        if family == "1":
            out += [(t,) for t in sent]
        elif family == "2":
            out += zip(sent, sent[1:])
        elif family == "su4":
            out += su4_pairs(sent, BOS)
        else:
            raise ValueError(f"unknown family {family!r}")
    return out


def power_iteration(n_nodes: int, edges: np.ndarray, seed_nodes: list[list[int]]) -> np.ndarray:
    """Personalized PageRank columns on the undirected, deduplicated graph.

    Written against scipy.sparse directly; the generated graphs have a ring
    through every node, so there is no dangling mass to return.
    """
    u, v = edges[:, 0], edges[:, 1]
    keep = u != v
    rows = np.concatenate([u[keep], v[keep]])
    cols = np.concatenate([v[keep], u[keep]])
    adj = sparse.coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(n_nodes, n_nodes)).tocsr()
    adj.data[:] = 1.0  # duplicate edges collapse to one
    degree = np.asarray(adj.sum(axis=0)).ravel()
    walk = adj @ sparse.diags(1.0 / degree)  # column-stochastic
    v0 = np.zeros((n_nodes, len(seed_nodes)))
    for col, seeds in enumerate(seed_nodes):
        v0[seeds, col] = 1.0 / len(seeds)
    x = v0.copy()
    for _ in range(ITERATIONS):
        x = (1.0 - ALPHA) * (walk @ x) + ALPHA * v0
    return x


def check_top_ranks(top: list[tuple[int, float]], column: np.ndarray) -> str | None:
    """Whether a program's top-ranked (node, weight) list matches an exact column.

    Each listed weight must equal the column's weight at that node, the list
    must be ordered by descending weight with ties by ascending node, and no
    node left out of the list may outweigh the last one listed. Returns a
    description of the first mismatch, or None.
    """
    def tol(weight: float) -> float:
        return REL_TOL * abs(weight) + 1e-300

    for rank, (node, weight) in enumerate(top, start=1):
        if abs(column[node] - weight) > tol(weight):
            return f"rank {rank}: node {node} weight {weight!r}, exact {column[node]!r}"
    for (n1, w1), (n2, w2) in zip(top, top[1:]):
        if w1 < w2 or (w1 == w2 and n1 > n2):
            return f"nodes {n1}, {n2} out of rank order"
    rest = column.copy()
    rest[[node for node, _ in top]] = -1.0
    last = top[-1][1]
    if rest.max() > last + tol(last):
        return f"node {int(rest.argmax())} (weight {rest.max()!r}) belongs in the top {len(top)}"
    return None
