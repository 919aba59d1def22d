"""Semantic network and sense dictionary loading.

The graph is a WordNet-style sense network: nodes are senses identified by
an 8-digit offset plus part-of-speech letter, edges are undirected semantic
relations. Relation and dictionary files follow the UKB text conventions
(see the README for the exact grammar).
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Iterator

import numpy as np
from scipy import sparse

log = logging.getLogger(__name__)

POS_TAGS = ("n", "v", "a", "r")

_SENSE_RE = re.compile(r"^(\d{8})-([nvar])$")


class ParseError(ValueError):
    """Malformed line in a relation or dictionary file."""


@dataclass(frozen=True, slots=True)
class SenseId:
    """A sense node: 8-digit zero-padded offset plus pos in {n, v, a, r}."""

    offset: str
    pos: str

    def __post_init__(self) -> None:
        if len(self.offset) != 8 or not self.offset.isdigit():
            raise ValueError(f"offset must be 8 decimal digits, got {self.offset!r}")
        if self.pos not in POS_TAGS:
            raise ValueError(f"pos must be one of {POS_TAGS}, got {self.pos!r}")

    @classmethod
    def parse(cls, text: str) -> "SenseId":
        m = _SENSE_RE.match(text)
        if m is None:
            raise ValueError(f"not a valid sense id: {text!r}")
        return cls(m.group(1), m.group(2))

    @property
    def canonical(self) -> str:
        return f"{self.offset}-{self.pos}"

    def __str__(self) -> str:
        return self.canonical

    # Total order is lexicographic on the canonical form.
    def __lt__(self, other: "SenseId") -> bool:
        return self.canonical < other.canonical

    def __le__(self, other: "SenseId") -> bool:
        return self.canonical <= other.canonical

    def __gt__(self, other: "SenseId") -> bool:
        return self.canonical > other.canonical

    def __ge__(self, other: "SenseId") -> bool:
        return self.canonical >= other.canonical


class SemanticGraph:
    """Immutable undirected sense graph with dense integer indexing.

    Edges are stored symmetrically in CSR form; the random-walk kernel
    treats column j as a uniform distribution over j's neighbours.
    """

    def __init__(self, senses: list[SenseId], edges: set[tuple[int, int]]):
        self._senses = list(senses)
        self._index = {s: i for i, s in enumerate(self._senses)}
        if len(self._index) != len(self._senses):
            raise ValueError("duplicate sense ids in node list")
        n = len(self._senses)

        if edges:
            pairs = np.array(sorted(edges), dtype=np.int64)
            rows = np.concatenate([pairs[:, 0], pairs[:, 1]])
            cols = np.concatenate([pairs[:, 1], pairs[:, 0]])
            data = np.ones(len(rows), dtype=np.float64)
            self.adjacency = sparse.csr_matrix((data, (rows, cols)), shape=(n, n))
        else:
            self.adjacency = sparse.csr_matrix((n, n), dtype=np.float64)
        self.degree = np.asarray(self.adjacency.sum(axis=1)).ravel()
        self.dangling = np.flatnonzero(self.degree == 0)
        # Column-stochastic walk matrix P[i, j] = 1/deg(j), sharing the
        # adjacency's structure; a dangling column has no entries.
        adj = self.adjacency
        inv = 1.0 / np.where(self.degree == 0, 1.0, self.degree)
        self.transition = sparse.csr_matrix(
            (adj.data * inv[adj.indices], adj.indices, adj.indptr), shape=(n, n)
        )

        # Node indices in ascending SenseId order; used to break equal-weight
        # ties deterministically.
        canonical = np.array([s.canonical for s in self._senses], dtype="U10")
        self.sid_order = np.argsort(canonical, kind="stable").astype(np.int64)

        self._oov_ids: dict[str, int] = {}

    @property
    def node_count(self) -> int:
        return len(self._senses)

    @property
    def edge_count(self) -> int:
        """Number of undirected edges."""
        return self.adjacency.nnz // 2

    @property
    def arc_count(self) -> int:
        """Number of stored directed arcs (twice the edge count)."""
        return self.adjacency.nnz

    def __contains__(self, sense: SenseId) -> bool:
        return sense in self._index

    def node_index(self, sense: SenseId) -> int:
        try:
            return self._index[sense]
        except KeyError:
            raise ValueError(f"sense {sense} is not in the graph") from None

    def sense_at(self, idx: int) -> SenseId:
        return self._senses[idx]

    def senses(self) -> Iterator[SenseId]:
        return iter(self._senses)

    def out_degree(self, sense: SenseId) -> int:
        return int(self.degree[self.node_index(sense)])

    def edge_list(self) -> list[tuple[SenseId, SenseId]]:
        """Canonical sorted list of undirected edges (u < v)."""
        coo = self.adjacency.tocoo()
        pairs = {
            (min(i, j), max(i, j)) for i, j in zip(coo.row, coo.col) if i != j
        }
        out = [(self._senses[i], self._senses[j]) for i, j in pairs]
        out.sort(key=lambda e: (e[0].canonical, e[1].canonical))
        return out

    def oov_key_id(self, term: str) -> int:
        """Stable integer id for an out-of-vocabulary term, offset past node ids."""
        ident = self._oov_ids.get(term)
        if ident is None:
            ident = self.node_count + len(self._oov_ids)
            self._oov_ids[term] = ident
        return ident

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SemanticGraph):
            return NotImplemented
        return (
            set(self._senses) == set(other._senses)
            and self.edge_list() == other.edge_list()
        )

    def __hash__(self) -> int:  # identity hash; graphs are large and immutable
        return id(self)


def _as_lines(source: str | Path | IO[str] | Iterable[str]) -> Iterable[str]:
    if isinstance(source, (str, Path)):
        with open(source, encoding="utf-8") as fh:
            yield from fh
        return
    yield from source


def load_graph(relations_source: str | Path | IO[str] | Iterable[str]) -> SemanticGraph:
    """Load a semantic graph from a UKB-style relation file.

    Each non-comment line holds whitespace-separated ``key:value`` tokens and
    must include ``u`` and ``v`` with canonical sense-id values. Other keys
    are ignored. The result is the deduplicated symmetric closure with
    self-loops dropped (their endpoints are still registered as nodes).
    """
    senses: list[SenseId] = []
    index: dict[SenseId, int] = {}
    edges: set[tuple[int, int]] = set()

    def intern(sense: SenseId) -> int:
        idx = index.get(sense)
        if idx is None:
            idx = len(senses)
            index[sense] = idx
            senses.append(sense)
        return idx

    for lineno, raw in enumerate(_as_lines(relations_source), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields: dict[str, str] = {}
        for token in line.split():
            key, sep, value = token.partition(":")
            if not sep:
                raise ParseError(f"line {lineno}: malformed token {token!r}")
            fields.setdefault(key, value)
        for required in ("u", "v"):
            if required not in fields:
                raise ParseError(f"line {lineno}: missing key {required!r}")
        try:
            u = SenseId.parse(fields["u"])
            v = SenseId.parse(fields["v"])
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
        ui, vi = intern(u), intern(v)
        if ui == vi:
            continue
        edges.add((min(ui, vi), max(ui, vi)))

    if not edges:
        raise ParseError("no edges loaded")
    return SemanticGraph(senses, edges)


class Dictionary:
    """Lemma to ranked-sense mapping keyed by (lemma, pos).

    Rank order is the file order of senses; rank 1 is the first listed.
    """

    def __init__(self, entries: dict[tuple[str, str], tuple[SenseId, ...]]):
        self.entries = entries

    def senses_of(self, lemma: str, pos: str | None = None) -> list[SenseId]:
        """Ranked senses for a lemma; all pos categories (n, v, a, r order)
        when pos is None. Unknown lemmas yield an empty list."""
        lemma = lemma.lower()
        if pos is not None:
            return list(self.entries.get((lemma, pos), ()))
        out: list[SenseId] = []
        for p in POS_TAGS:
            out.extend(self.entries.get((lemma, p), ()))
        return out

    def __len__(self) -> int:
        return len(self.entries)


def load_dictionary(
    dict_source: str | Path | IO[str] | Iterable[str],
    graph: SemanticGraph,
    on_unknown_sense: str = "drop",
) -> Dictionary:
    """Load a UKB-style dictionary: ``lemma sense1:count sense2:count ...``.

    The lemma may carry a ``#pos`` suffix; senses are grouped under each
    sense's own pos either way, and a suffix that contradicts a sense's pos
    drops that sense. Senses missing from the graph follow
    ``on_unknown_sense``: "drop" (default, warns) or "error".
    """
    if on_unknown_sense not in ("drop", "error"):
        raise ValueError(f"unknown policy {on_unknown_sense!r}")
    entries: dict[tuple[str, str], list[SenseId]] = {}

    for lineno, raw in enumerate(_as_lines(dict_source), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) < 2:
            raise ParseError(f"line {lineno}: expected lemma and at least one sense")
        lemma_token = tokens[0].lower()
        lemma, _, pos_suffix = lemma_token.partition("#")
        if pos_suffix and pos_suffix not in POS_TAGS:
            raise ParseError(f"line {lineno}: bad pos suffix {pos_suffix!r}")
        for token in tokens[1:]:
            sid_text, sep, _count = token.rpartition(":")
            if not sep:
                sid_text = token
            try:
                sense = SenseId.parse(sid_text)
            except ValueError as exc:
                raise ParseError(f"line {lineno}: {exc}") from None
            if pos_suffix and sense.pos != pos_suffix:
                log.warning(
                    "line %d: sense %s contradicts pos suffix #%s, dropped",
                    lineno, sense, pos_suffix,
                )
                continue
            if sense not in graph:
                if on_unknown_sense == "error":
                    raise ParseError(f"line {lineno}: sense {sense} not in graph")
                log.warning("line %d: sense %s not in graph, dropped", lineno, sense)
                continue
            ranked = entries.setdefault((lemma, sense.pos), [])
            if sense not in ranked:
                ranked.append(sense)

    return Dictionary({k: tuple(v) for k, v in entries.items() if v})
