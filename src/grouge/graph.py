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

log = logging.getLogger(__name__)

POS_TAGS = ("n", "v", "a", "r")

_OFFSET_RE = re.compile(r"[0-9]{8}")


class ParseError(ValueError):
    """Malformed line in a relation or dictionary file."""


@dataclass(frozen=True, slots=True, order=True)
class SenseId:
    """A sense node: zero-padded offset of 8 ASCII digits plus pos in
    {n, v, a, r}.

    Ids order by (offset, pos); offsets all have 8 digits, so this is the
    order of the canonical strings.
    """

    offset: str
    pos: str

    def __post_init__(self) -> None:
        if _OFFSET_RE.fullmatch(self.offset) is None:
            raise ValueError(f"offset must be 8 ASCII digits, got {self.offset!r}")
        if self.pos not in POS_TAGS:
            raise ValueError(f"pos must be one of {POS_TAGS}, got {self.pos!r}")

    @classmethod
    def parse(cls, text: str) -> "SenseId":
        """The id of ``offset-pos`` text, checked by the constructor."""
        try:
            offset, pos = text.split("-")
            return cls(offset, pos)
        except ValueError:
            raise ValueError(f"not a valid sense id: {text!r}") from None

    @property
    def canonical(self) -> str:
        return f"{self.offset}-{self.pos}"

    def __str__(self) -> str:
        return self.canonical


class SemanticGraph:
    """Immutable undirected sense graph with dense integer indexing.

    Nodes are numbered in ascending SenseId order, so ascending node index
    is ascending sense id, whatever order the senses and edges were given
    in. The graph is stored once, as the column-stochastic walk matrix
    ``transition`` (CSR, P[i, j] = 1/deg(j) for each neighbour i of j, so
    its sparsity pattern is the symmetric edge set) and each node's
    neighbour count ``degree``; a degree-zero column has no entries.
    Nothing changes after construction, so what a run computes on the graph
    never depends on what it computed before.
    """

    def __init__(self, senses: list[SenseId], pairs: np.ndarray):
        """senses: the nodes, in any order. pairs: (m, 2) int indices into
        senses, in any order and either orientation; repeated pairs count
        once and self-loops add no edge (their node is still registered)."""
        canonical = np.array([s.canonical for s in senses], dtype="U10")
        order = np.argsort(canonical, kind="stable")
        self._senses = [senses[i] for i in order]
        self._index = {s: i for i, s in enumerate(self._senses)}
        if len(self._index) != len(self._senses):
            raise ValueError("duplicate sense ids in node list")
        n = len(self._senses)

        renumber = np.empty(n, dtype=np.int64)
        renumber[order] = np.arange(n)
        pairs = renumber[np.asarray(pairs, dtype=np.int64).reshape(-1, 2)]
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        # the distinct (min, max) pairs in ascending order, keyed by u*n + v:
        # sorted, each key kept where it differs from its predecessor (keys
        # are >= 0, so the first differs from the -1 put before it)
        keys = np.sort(pairs.min(axis=1) * n + pairs.max(axis=1))
        keys = keys[np.diff(keys, prepend=-1) != 0]
        u, v = keys // n, keys % n
        rows, cols = np.concatenate([u, v]), np.concatenate([v, u])
        self.degree = np.bincount(rows, minlength=n).astype(np.float64)
        inv = 1.0 / np.where(self.degree == 0, 1.0, self.degree)
        # imported here, not at module level: lexical runs build no graph,
        # and scipy.sparse is most of the cost of importing grouge
        from scipy import sparse

        self.transition = sparse.csr_matrix((inv[cols], (rows, cols)), shape=(n, n))

    @property
    def node_count(self) -> int:
        return len(self._senses)

    @property
    def edge_count(self) -> int:
        """Number of undirected edges."""
        return self.transition.nnz // 2

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

    def edge_list(self) -> list[tuple[SenseId, SenseId]]:
        """The undirected edges (u < v) in ascending order: the upper
        triangle of the walk matrix's pattern, read row by row."""
        from scipy import sparse  # imported where used, as in __init__

        upper = sparse.triu(self.transition, k=1)
        return [(self._senses[i], self._senses[j])
                for i, j in zip(upper.row.tolist(), upper.col.tolist())]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SemanticGraph):
            return NotImplemented
        return self._senses == other._senses and self.edge_list() == other.edge_list()

    def __hash__(self) -> int:  # identity hash; graphs are large and immutable
        return id(self)


def _records(source: str | Path | IO[str] | Iterable[str]) -> Iterator[tuple[int, list[str]]]:
    """(line number, whitespace-separated tokens) of each line that is
    neither blank nor a ``#`` comment."""
    if isinstance(source, (str, Path)):
        with open(source, encoding="utf-8") as fh:
            yield from _records(fh)
        return
    for lineno, line in enumerate(source, start=1):
        tokens = line.split()
        if tokens and not tokens[0].startswith("#"):
            yield lineno, tokens


def _sense(lineno: int, text: str) -> SenseId:
    try:
        return SenseId.parse(text)
    except ValueError as exc:
        raise ParseError(f"line {lineno}: {exc}") from None


def load_graph(relations_source: str | Path | IO[str] | Iterable[str]) -> SemanticGraph:
    """Load a semantic graph from a UKB-style relation file.

    Each non-comment line holds whitespace-separated ``key:value`` tokens and
    must include ``u`` and ``v`` with canonical sense-id values. Other keys
    are ignored. The result is the deduplicated symmetric closure with
    self-loops dropped (their endpoints are still registered as nodes),
    numbered in sense-id order by ``SemanticGraph``; the order of the lines
    does not matter.
    """
    senses: list[SenseId] = []
    # Distinct token text -> position in senses. A SenseId is the whole
    # token's text, so distinct tokens are distinct senses and each one is
    # parsed once.
    index: dict[str, int] = {}
    ends: list[int] = []  # u0, v0, u1, v1, ...

    for lineno, tokens in _records(relations_source):
        fields: dict[str, str] = {}
        for token in tokens:
            key, sep, value = token.partition(":")
            if not sep:
                raise ParseError(f"line {lineno}: malformed token {token!r}")
            fields.setdefault(key, value)
        for required in ("u", "v"):
            if required not in fields:
                raise ParseError(f"line {lineno}: missing key {required!r}")
        for token in (fields["u"], fields["v"]):
            idx = index.get(token)
            if idx is None:
                idx = index[token] = len(senses)
                senses.append(_sense(lineno, token))
            ends.append(idx)

    graph = SemanticGraph(senses, np.array(ends, dtype=np.int64).reshape(-1, 2))
    if not graph.edge_count:
        raise ParseError("no edges loaded")
    return graph


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
) -> Dictionary:
    """Load a UKB-style dictionary: ``lemma sense1:count sense2:count ...``.

    The lemma may carry a ``#pos`` suffix; senses are grouped under each
    sense's own pos either way, and a suffix that contradicts a sense's pos
    drops that sense. Senses missing from the graph are dropped with a
    warning.
    """
    entries: dict[tuple[str, str], list[SenseId]] = {}

    for lineno, tokens in _records(dict_source):
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
            sense = _sense(lineno, sid_text)
            if pos_suffix and sense.pos != pos_suffix:
                log.warning(
                    "line %d: sense %s contradicts pos suffix #%s, dropped",
                    lineno, sense, pos_suffix,
                )
                continue
            if sense not in graph:
                log.warning("line %d: sense %s not in graph, dropped", lineno, sense)
                continue
            ranked = entries.setdefault((lemma, sense.pos), [])
            if sense not in ranked:
                ranked.append(sense)

    return Dictionary({k: tuple(v) for k, v in entries.items() if v})
