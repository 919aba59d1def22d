"""Semantic network and sense dictionary loading.

The graph is a WordNet-style sense network: nodes are senses identified by
an 8-digit offset plus part-of-speech letter, edges are undirected semantic
relations. Relation and dictionary files follow the UKB text conventions
(see the README for the exact grammar). Both files skip blank lines and
``#`` comments, lines whose first token starts with ``#``.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

log = logging.getLogger(__name__)

POS_TAGS = ("n", "v", "a", "r")

_OFFSET_RE = re.compile(r"[0-9]{8}")
# The two patterns below are compiled on first use (re keeps them), not at
# import: lexical runs read no graph.
_SENSE = r"[0-9]{8}-[nvar]"
# One match per line (re.M): the "u:ID v:ID" head of a line of the canonical
# shape (that head, then single-space tokens that each hold a colon), else "".
_CANONICAL_LINE = rf"^(?:(u:{_SENSE} v:{_SENSE})(?: [^\s:]*:\S*)*$|.*)"
# pos letters in SenseId order; a node's key is offset * 4 + its pos's place
_POS_ORDER = "anrv"
_POS_CODES = np.frombuffer(_POS_ORDER.encode("ascii"), dtype=np.uint8)


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

    Node ids are stored as one sorted int64 array of keys, offset * 4 plus
    the place of the pos in ``a n r v``; that is SenseId order, so node i
    is the i-th smallest sense id, whatever order the senses and edges were
    given in. No per-node object is kept: ``sense_at``, ``senses`` and
    ``edge_list`` build SenseIds when asked, and ``node_index`` reads a
    map from canonical id text to index, built from the keys on the first
    lookup. The graph is stored once, as the column-stochastic walk matrix
    ``transition`` (CSR, P[i, j] = 1/deg(j) for each neighbour i of j, so
    its sparsity pattern is the symmetric edge set) and each node's
    neighbour count ``degree``; a degree-zero column has no entries.
    Nothing changes after construction, so what a run computes on the graph
    never depends on what it computed before. Graphs compare by identity.
    """

    def __init__(self, senses: Sequence[SenseId], pairs: np.ndarray):
        """senses: the nodes, in any order. pairs: (m, 2) int indices into
        senses, in any order and either orientation; repeated pairs count
        once and self-loops add no edge (their node is still registered)."""
        ids = "".join([s.canonical for s in senses]).encode("ascii")
        keys = _keys(np.frombuffer(ids, dtype=np.uint8).reshape(-1, 10))
        distinct, renumber = np.unique(keys, return_inverse=True)
        if len(distinct) != len(keys):
            raise ValueError("duplicate sense ids in node list")
        self._build(distinct, renumber[np.asarray(pairs, dtype=np.int64).reshape(-1, 2)])

    def _build(self, keys: np.ndarray, pairs: np.ndarray) -> None:
        """Set the graph up on distinct ascending int64 keys, pairs (m, 2)
        indexing into them."""
        self._keys = keys
        n = len(keys)
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        # the distinct (min, max) pairs in ascending order, keyed by u*n + v:
        # sorted, each key kept where it differs from its predecessor (keys
        # are >= 0, so the first differs from the -1 put before it)
        edges = np.sort(pairs.min(axis=1) * n + pairs.max(axis=1))
        edges = edges[np.diff(edges, prepend=-1) != 0]
        u, v = edges // n, edges % n
        rows, cols = np.concatenate([u, v]), np.concatenate([v, u])
        self.degree = np.bincount(rows, minlength=n).astype(np.float64)
        inv = 1.0 / np.where(self.degree == 0, 1.0, self.degree)
        # imported here, not at module level: lexical runs build no graph,
        # and scipy.sparse is most of the cost of importing grouge
        from scipy import sparse

        self.transition = sparse.csr_matrix((inv[cols], (rows, cols)), shape=(n, n))

    @cached_property
    def _index(self) -> dict[str, int]:
        """Canonical id text -> node index."""
        return dict(zip(_canonical_texts(self._keys), range(self.node_count)))

    @property
    def node_count(self) -> int:
        return len(self._keys)

    @property
    def edge_count(self) -> int:
        """Number of undirected edges."""
        return self.transition.nnz // 2

    def __contains__(self, sense: SenseId) -> bool:
        return sense.canonical in self._index

    def node_index(self, sense: SenseId) -> int:
        try:
            return self._index[sense.canonical]
        except KeyError:
            raise ValueError(f"sense {sense} is not in the graph") from None

    def sense_at(self, idx: int) -> SenseId:
        return _sense_of_key(int(self._keys[idx]))

    def senses(self) -> Iterator[SenseId]:
        return map(_sense_of_key, self._keys.tolist())

    def edge_list(self) -> list[tuple[SenseId, SenseId]]:
        """The undirected edges (u < v) in ascending order: the upper
        triangle of the walk matrix's pattern, read row by row."""
        from scipy import sparse  # imported where used, as in _build

        upper = sparse.triu(self.transition, k=1)
        senses = list(self.senses())
        return [(senses[i], senses[j]) for i, j in zip(upper.row.tolist(), upper.col.tolist())]


def _keys(ids: np.ndarray) -> np.ndarray:
    """The int64 key of each canonical id in ids, a uint8 array whose last
    axis holds the id's 10 ASCII bytes: offset * 4 plus the place of the pos
    in ``a n r v``."""
    offsets = np.zeros(ids.shape[:-1], dtype=np.int64)
    for column in range(8):
        offsets = offsets * 10 + (ids[..., column] - ord("0"))
    return offsets * 4 + np.searchsorted(_POS_CODES, ids[..., 9])


def _sense_of_key(key: int) -> SenseId:
    return SenseId(f"{key >> 2:08d}", _POS_ORDER[key & 3])


def _canonical_texts(keys: np.ndarray) -> list[str]:
    """The canonical id text of each key, written digit by digit in numpy."""
    chars = np.empty((len(keys), 10), dtype=np.uint32)  # UCS-4 code points
    offsets = keys >> 2
    for column in range(7, -1, -1):
        offsets, digit = np.divmod(offsets, 10)
        chars[:, column] = digit + ord("0")
    chars[:, 8] = ord("-")
    chars[:, 9] = _POS_CODES[keys & 3]
    return chars.view("U10").ravel().tolist()


def _sense_text(lineno: int, text: str) -> str:
    """text, if it is a canonical sense id (what ``SenseId.parse`` accepts)."""
    if re.fullmatch(_SENSE, text) is None:
        raise ParseError(f"line {lineno}: not a valid sense id: {text!r}")
    return text


def _text(source: str | Path | IO[str] | Iterable[str]) -> str:
    """The source's lines joined by newlines: line k of the text is line k
    of the source."""
    if isinstance(source, (str, Path)):
        with open(source, encoding="utf-8") as fh:
            return fh.read()
    # a stream's lines and readlines()' end in a newline, a list's need not;
    # a newline inside an item, whitespace to split(), is read as a space
    return "\n".join(line.removesuffix("\n").replace("\n", " ") for line in source)


def _tokens(line: str) -> list[str]:
    """The whitespace-separated tokens of a line; none for a blank line or a
    ``#`` comment, whose first token starts with ``#``."""
    tokens = line.split()
    return [] if tokens and tokens[0].startswith("#") else tokens


def _relation_head(lineno: int, line: str) -> str:
    """``u:ID v:ID`` with the checked ids of one relation line, read token
    by token; "" for a blank or comment line."""
    fields: dict[str, str] = {}
    for token in _tokens(line):
        key, sep, value = token.partition(":")
        if not sep:
            raise ParseError(f"line {lineno}: malformed token {token!r}")
        fields.setdefault(key, value)
    if not fields:
        return ""
    for required in ("u", "v"):
        if required not in fields:
            raise ParseError(f"line {lineno}: missing key {required!r}")
    return f"u:{_sense_text(lineno, fields['u'])} v:{_sense_text(lineno, fields['v'])}"


def load_graph(relations_source: str | Path | IO[str] | Iterable[str]) -> SemanticGraph:
    """Load a semantic graph from a UKB-style relation file.

    Each non-comment line holds whitespace-separated ``key:value`` tokens and
    must include ``u`` and ``v`` with canonical sense-id values. Other keys
    are ignored. The result is the deduplicated symmetric closure with
    self-loops dropped (their endpoints are still registered as nodes),
    numbered in sense-id order; the order of the lines does not matter.

    The source is read whole. One regular-expression pass takes the ids of
    every line of the canonical shape: ``u:ID v:ID`` at the start, then
    single-space tokens that each hold a colon. Only the other lines
    (comments, blank lines, other key orders or whitespace, and malformed
    lines) are split into tokens one by one, in file order and under their
    own line numbers, so the first bad line raises the ``ParseError`` it
    always did. The ids' ASCII bytes are turned into int64 keys in numpy,
    as ``SemanticGraph`` does, and numbered with ``np.unique``; no per-node
    object is built, and no per-line one beyond the matched text and, when
    some line is not canonical, the list of lines.
    """
    text = _text(relations_source)
    heads = re.findall(_CANONICAL_LINE, text, re.M)  # one per line; "" where not canonical
    if text.endswith("\n"):
        heads.pop()  # the empty "line" after the final newline
    if "" in heads:  # parse the other lines; split the text only up to the last one
        stop = len(heads) - heads[::-1].index("")
        heads[:stop] = [head or _relation_head(lineno, line) for lineno, (head, line)
                        in enumerate(zip(heads[:stop], text.split("\n", stop)), start=1)]
    del text  # the file's text is not needed beside the arrays below
    # each head is "u:" + 10 id characters + " v:" + 10 id characters
    heads = np.frombuffer("".join(heads).encode("ascii"), dtype=np.uint8).reshape(-1, 25)
    keys, inverse = np.unique(_keys(np.stack([heads[:, 2:12], heads[:, 15:]], axis=1)),
                              return_inverse=True)
    graph = SemanticGraph.__new__(SemanticGraph)
    graph._build(keys, inverse.reshape(-1, 2))
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

    for lineno, line in enumerate(_text(dict_source).split("\n"), start=1):
        tokens = _tokens(line)
        if not tokens:
            continue
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
            sense = SenseId.parse(_sense_text(lineno, sid_text))
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
