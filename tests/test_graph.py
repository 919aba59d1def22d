import io
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from grouge import ParseError, SemanticGraph, SenseId, load_dictionary, load_graph
from grouge.graph import POS_TAGS

from conftest import dictionary_from, graph_from_edges, sense, sid
from oracles import load_dictionary_reference, load_graph_reference
from synth import relist_lines, symmetric_relation_lines, write_graph


class TestSenseId:
    def test_parse_and_canonical(self):
        s = SenseId.parse("00123456-v")
        assert s.offset == "00123456"
        assert s.pos == "v"
        assert s.canonical == "00123456-v"

    @pytest.mark.parametrize("bad", [
        "123-v", "001234567-v", "00123456-x", "00123456v", "0012345a-n",
        "\u0661" * 8 + "-n",  # Arabic-Indic digits
        "00000001-n\n", "00000001-n-n",
    ])
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            SenseId.parse(bad)

    def test_ordering_is_lexicographic_on_canonical(self):
        a = SenseId.parse("00000001-n")
        b = SenseId.parse("00000001-v")
        c = SenseId.parse("00000002-a")
        assert a < b < c
        assert sorted([c, b, a]) == [a, b, c]

    @given(st.lists(st.builds(
        lambda offset, pos: SenseId(f"{offset:08d}", pos),
        st.one_of(st.integers(0, 12), st.integers(0, 10**8 - 1)),
        st.sampled_from(POS_TAGS),
    )))
    def test_order_is_canonical_string_order(self, ids):
        assert sorted(ids) == sorted(ids, key=str)


class TestLoadGraph:
    def test_symmetric_closure(self):
        g = load_graph(["u:00000001-n v:00000002-n", "u:00000002-n v:00000003-n"])
        assert g.node_count == 3
        assert g.transition.nnz == 4  # stored directed arcs
        assert g.edge_count == 2

    def test_self_loop_dropped_node_registered(self):
        g = load_graph(["u:00000001-n v:00000001-n", "u:00000002-n v:00000003-n"])
        assert g.node_count == 3
        assert g.edge_count == 1
        assert g.degree[g.node_index(sense(1))] == 0

    def test_duplicate_lines_deduplicated(self):
        once = load_graph(["u:00000001-n v:00000002-n"])
        twice = load_graph(["u:00000001-n v:00000002-n"] * 2)
        reversed_dup = load_graph(["u:00000001-n v:00000002-n", "u:00000002-n v:00000001-n"])
        assert_same_graph(twice, once)
        assert_same_graph(reversed_dup, once)

    def test_comments_blank_lines_extra_keys_ignored(self):
        g = load_graph([
            "# a comment",
            "",
            "u:00000001-n v:00000002-n t:hyper s:wn30 w:0.5",
        ])
        assert g.edge_count == 1

    def test_malformed_sense_names_line_number(self):
        with pytest.raises(ParseError, match="line 2"):
            load_graph(["u:00000001-n v:00000002-n", "u:0000001-n v:00000002-n"])

    def test_non_ascii_digits_name_line_number(self):
        arabic_one = "\u0661"  # a Unicode decimal digit, not an ASCII one
        lines = ["u:00000001-n v:00000002-n", f"u:00000002-n v:{arabic_one * 8}-n"]
        with pytest.raises(ParseError, match="line 2: not a valid sense id"):
            load_graph(lines)
        with pytest.raises(ParseError, match="line 3: not a valid sense id"):
            load_dictionary(["# senses", "word 00000001-n", f"other {arabic_one}0000001-n"],
                            load_graph(lines[:1]))

    def test_missing_required_key(self):
        with pytest.raises(ParseError, match="line 1"):
            load_graph(["u:00000001-n w:1.0"])

    def test_empty_graph_rejected(self):
        with pytest.raises(ParseError, match="no edges loaded"):
            load_graph(["# nothing"])


# Sense ids for mixed relation lines: valid ones of every pos, and ones the
# loader must refuse: with a Unicode digit that is not ASCII, or else bad (a
# short offset, a bad pos letter, an extra part, an empty value).
_IDS = ["00000001-n", "00000001-v", "00000002-a", "00000003-r", "00000010-n"]
_UNICODE_DIGIT_IDS = ["0000000\u0660-n", "\u0660" * 8 + "-v", "0000\u06f10000-a"]
_BAD_IDS = ["0000001-n", "00000001-x", "00000001-n-n", ""]
# Whitespace other than the canonical single space between tokens
_ODD_SPACES = ["  ", "\t", "\x0b", "\x0c", "\xa0", " \t"]


@st.composite
def relation_line(draw, fault: str | None = None, canonical: bool = False) -> str:
    """One relation line: an edge, a self-loop, a comment or a blank line,
    or, given a fault, an edge line with a bad id, a missing key or a token
    without a colon. Some lines are spaced in other ways than the canonical
    single space; with canonical, the line is an edge in the canonical
    shape but for its fault."""
    ids = st.sampled_from(_IDS)
    kinds = ["canonical"] if canonical else ["canonical"] * 5 + ["v-first", "self-loop"]
    kind = draw(st.sampled_from(kinds if fault else kinds + ["comment", "blank"]))
    if kind == "comment":
        return draw(st.sampled_from(["# comment", "  # u:bad", "#"]))
    if kind == "blank":
        return draw(st.sampled_from(["", " ", "\t", "\xa0"]))
    u = draw(ids)
    v = u if kind == "self-loop" else draw(ids)
    if fault in ("unicode-digit", "bad-id"):
        bad = draw(st.sampled_from(_UNICODE_DIGIT_IDS if fault == "unicode-digit" else _BAD_IDS))
        u, v = draw(st.sampled_from([(bad, v), (u, bad)]))
    tokens = [f"v:{v}", f"u:{u}"] if kind == "v-first" else [f"u:{u}", f"v:{v}"]
    tokens += draw(st.lists(st.one_of(
        st.sampled_from(["t:rel", "w:0.5", ":x", "x:", "s:a:b", "u:"]),
        ids.map(lambda i: f"u:{i}"), ids.map(lambda i: f"v:{i}"),
    ), max_size=3))
    if fault == "missing":
        key = draw(st.sampled_from(["u:", "v:"]))
        tokens = [t for t in tokens if not t.startswith(key)]
    if fault == "colonless":
        tokens.insert(draw(st.integers(2 if canonical else 1, len(tokens))), "rel")
    spacing = "single" if canonical else draw(
        st.sampled_from(["single", "between", "leading", "trailing"])
    )
    space = st.sampled_from([" "] + _ODD_SPACES if spacing == "between" else [" "])
    line = tokens[0] if tokens else ""
    for token in tokens[1:]:
        line += draw(space) + token
    odd = draw(st.sampled_from(_ODD_SPACES))
    return {"leading": odd + line, "trailing": line + odd}.get(spacing, line)


@st.composite
def relation_lines(draw) -> str:
    """The text of a relation file whose lines mix the canonical shape with
    every other shape the per-line parser reads; about half of the files
    also hold one faulty line, which the loader must refuse."""
    lines = draw(st.lists(relation_line(), min_size=1, max_size=10))
    if draw(st.booleans()):
        fault = draw(st.sampled_from(["unicode-digit", "colonless", "bad-id", "missing"]))
        line = relation_line(fault, canonical=draw(st.booleans()))
        lines.insert(draw(st.integers(0, len(lines))), draw(line))
    text = "".join(line + draw(st.sampled_from(["\n"] * 4 + ["\r\n"])) for line in lines)
    return text if draw(st.booleans()) else text.removesuffix("\n").removesuffix("\r")


def _loaded(load, source):
    try:
        return load(source)
    except ParseError as exc:
        return f"ParseError: {exc}"


def assert_same_graph(graph, expected):
    assert list(graph.senses()) == list(expected.senses())
    a, b = graph.transition, expected.transition
    assert a.shape == b.shape
    for part in ("indptr", "indices", "data"):
        x, y = getattr(a, part), getattr(b, part)
        assert x.dtype == y.dtype and np.array_equal(x, y), part
    assert graph.degree.dtype == expected.degree.dtype
    assert np.array_equal(graph.degree, expected.degree)


class TestLoaderOracle:
    """load_graph reads canonical lines in one pattern pass and the others
    line by line, and numbers the ids in numpy; the graph, or the first
    error, must be the one the per-line loader gave."""

    def test_conftest_graphs(self, two_node_graph, path_graph):
        edges, isolated = [(5, 1), (1, 5), (3, 2)], [9, 1]
        lines = [f"u:{sid(i)} v:{sid(j)}" for i, j in edges]
        lines += [f"u:{sid(i)} v:{sid(i)}" for i in isolated]
        assert_same_graph(graph_from_edges(edges, isolated), load_graph_reference(lines))
        assert_same_graph(two_node_graph, load_graph_reference([f"u:{sid(1)} v:{sid(2)}"]))
        assert_same_graph(path_graph, load_graph_reference(
            [f"u:{sid(i)} v:{sid(i + 1)}" for i in range(1, 5)]
        ))

    def test_acceptance_graph(self, tmp_path):
        path = tmp_path / "relations.txt"
        write_graph(path, 10_000, extra_edges=10_000, seed=202)
        lines = path.read_text("utf-8").splitlines()
        assert_same_graph(load_graph(path), load_graph_reference(lines))

    @pytest.mark.parametrize("seed", range(8))
    def test_shuffled_duplicate_reversed_and_self_loop_lines(self, seed):
        rng = random.Random(seed)
        nodes = [f"{rng.randrange(10**8):08d}-{rng.choice('nvar')}" for _ in range(40)]
        lines = ["# comment", ""]
        for _ in range(120):
            u, v = rng.choice(nodes), rng.choice(nodes)
            extra = rng.choice(["", " t:hyper", " w:0.5 u:00000000-n"])
            lines.append(f"v:{v} u:{u}{extra}" if rng.random() < 0.3 else f"u:{u} v:{v}{extra}")
        assert_same_graph(load_graph(lines), load_graph_reference(lines))

    # pinned: canonical-looking lines the pattern must leave to the per-line
    # parser, one with a non-ASCII digit and one with a token without a colon
    @settings(deadline=None)
    @given(relation_lines())
    @example("u:00000001-n v:00000002-n\nu:0000000\u0660-n v:00000001-n\n")
    @example("u:00000001-n v:00000002-n\nu:00000001-n v:00000003-r rel\n")
    def test_mixed_lines_match_reference_from_every_source(self, tmp_path_factory, text):
        """Canonical lines take the pattern pass and the others the per-line
        parser; from a path, a stream or a list of lines with or without
        their newlines, the graph or the first error is the reference's."""
        expected = _loaded(load_graph_reference, text.split("\n"))
        path = tmp_path_factory.getbasetemp() / "mixed-relations.txt"
        path.write_bytes(text.encode("utf-8"))
        sources = [path, str(path), io.StringIO(text), io.StringIO(text).readlines(),
                   text.split("\n")]
        for source in sources:
            got = _loaded(load_graph, source)
            if isinstance(expected, str):
                assert got == expected, source
            else:
                assert not isinstance(got, str), (got, source)
                assert_same_graph(got, expected)

    @pytest.mark.parametrize("lines", [
        ["u:00000001-n v:00000002-n", "u:0000001-n v:00000002-n"],
        ["u:00000001-n v:00000002-n", "u:00000002-n v:00000003-x"],
        ["u:00000001-n v:00000002-n", "u:00000009-n v:bad"],
        ["u:00000001-n v:00000002-n", "u:00000001-n w:1.0"],
        ["u:00000001-n v:00000002-n", "u:00000001-n v"],
        ["u:00000001-n v:00000001-n"],
        ["# nothing"],
    ])
    def test_parse_errors_match(self, lines):
        with pytest.raises(ParseError) as new:
            load_graph(lines)
        with pytest.raises(ParseError) as old:
            load_graph_reference(lines)
        assert str(new.value) == str(old.value)


class TestNodeOrder:
    """Nodes are numbered in SenseId order, whatever order the senses and
    pairs come in; the pairs are normalized to distinct edges."""

    def test_constructor_normalizes_nodes_and_pairs(self):
        senses = [sense(3), sense(1), sense(2), sense(9)]
        pairs = np.array([[0, 1], [1, 0], [0, 1], [1, 2], [2, 2], [3, 3]])
        g = SemanticGraph(senses, pairs)
        assert list(g.senses()) == [sense(1), sense(2), sense(3), sense(9)]
        assert [g.node_index(s) for s in senses] == [2, 0, 1, 3]
        assert g.edge_list() == [(sense(1), sense(2)), (sense(1), sense(3))]
        assert g.transition.data.tolist() == [1.0, 1.0, 0.5, 0.5]  # 1/deg of each column
        assert g.degree.tolist() == [2, 1, 1, 0]  # each node's neighbour count
        assert np.flatnonzero(g.degree == 0).tolist() == [3]

    @pytest.mark.parametrize("seed", range(5))
    def test_line_order_does_not_change_the_graph(self, seed):
        lines = symmetric_relation_lines()
        relisted = relist_lines(lines, seed)
        assert relisted != lines
        assert_same_graph(load_graph(relisted), load_graph(lines))


class TestNodeIds:
    """Node ids are kept as int64 keys; SenseIds are built only when asked
    for, and lookups go through the canonical id text."""

    @pytest.fixture(scope="class")
    def acceptance_relations(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("acceptance") / "relations.txt"
        write_graph(path, 10_000, extra_edges=10_000, seed=202)
        return path

    def test_round_trip_on_the_acceptance_graph(self, acceptance_relations):
        graph = load_graph(acceptance_relations)
        assert all(graph.node_index(graph.sense_at(i)) == i for i in range(graph.node_count))
        tokens = acceptance_relations.read_text("utf-8").split()
        reference = sorted({SenseId.parse(t[2:]) for t in tokens if t[:2] in ("u:", "v:")})
        assert list(graph.senses()) == reference
        missing = SenseId.parse("09999999-v")
        assert missing not in reference
        assert missing not in graph
        with pytest.raises(ValueError, match="sense 09999999-v is not in the graph"):
            graph.node_index(missing)

    @settings(deadline=None)
    @given(st.lists(st.builds(
        lambda offset, pos: SenseId(f"{offset:08d}", pos),
        st.one_of(st.integers(0, 12), st.integers(10**8 - 13, 10**8 - 1),
                  st.integers(0, 10**8 - 1)),
        st.sampled_from(POS_TAGS),
    ), min_size=2, max_size=40, unique=True))
    @example([SenseId(f"{offset:08d}", pos) for offset in (0, 10**8 - 1) for pos in POS_TAGS])
    def test_keys_number_nodes_in_sense_id_order(self, senses):
        """Both constructors turn ids into int64 keys through one codec: from
        a sense list and from relation lines, node i must be the i-th
        smallest id, and each id must find its own node."""
        ranked = sorted(senses)
        lines = [f"u:{s} v:{s}" for s in senses] + [f"u:{senses[0]} v:{senses[1]}"]
        for graph in (SemanticGraph(senses, np.empty((0, 2), dtype=np.int64)),
                      load_graph(lines)):
            assert list(graph.senses()) == ranked
            assert all(graph.node_index(graph.sense_at(i)) == i for i in range(graph.node_count))
            assert [graph.node_index(s) for s in senses] == [ranked.index(s) for s in senses]

    def test_loading_builds_no_sense_id(self, acceptance_relations, monkeypatch):
        built = []
        check = SenseId.__post_init__
        monkeypatch.setattr(SenseId, "__post_init__", lambda s: (built.append(s), check(s))[1])
        lines = acceptance_relations.read_text("utf-8").splitlines()
        for source in (acceptance_relations, lines, ["# no edge", "u:00000001-n v:00000002-v"]):
            graph = load_graph(source)
            assert built == []
        first = graph.sense_at(0)
        assert built == [first]  # the counter sees what is built


class TestGraphInvariants:
    def test_symmetry_full_scan(self):
        g = graph_from_edges([(1, 2), (2, 3), (1, 3), (3, 4)])
        adj = g.transition.toarray() != 0
        assert (adj == adj.T).all()

    def test_degree_consistency(self):
        g = graph_from_edges([(1, 2), (2, 3), (1, 3)])
        assert int(g.degree.sum()) == g.transition.nnz

    def test_round_trip_through_edge_list(self):
        g = graph_from_edges([(1, 2), (2, 3), (1, 4), (4, 5)])
        lines = [f"u:{u.canonical} v:{v.canonical}" for u, v in g.edge_list()]
        assert_same_graph(load_graph(lines), g)


class TestDictionary:
    def test_order_preserved_as_rank(self):
        g = load_graph(["u:00378069-v v:00378500-v"])
        d = load_dictionary(["fire 00378069-v:4 00378500-v:1"], g)
        assert d.senses_of("fire", "v") == [SenseId.parse("00378069-v"), SenseId.parse("00378500-v")]

    def test_pos_suffix_accepted(self):
        g = load_graph(["u:00378069-v v:00378500-v"])
        d = load_dictionary(["fire#v 00378069-v:4"], g)
        assert d.senses_of("fire", "v") == [SenseId.parse("00378069-v")]

    def test_lookup_without_pos_concatenates_in_fixed_order(self):
        g = load_graph(["u:00000001-n v:00000002-v", "u:00000002-v v:00000003-n"])
        d = load_dictionary(["fire 00000002-v:1 00000001-n:2 00000003-n:1"], g)
        assert [s.canonical for s in d.senses_of("fire")] == [
            "00000001-n", "00000003-n", "00000002-v",
        ]

    def test_unknown_lemma_is_empty(self):
        g = graph_from_edges([(1, 2)])
        d = dictionary_from(g, {"known": [1]})
        assert d.senses_of("zzzxqj") == []

    def test_singleton_sense(self):
        g = graph_from_edges([(1, 2)])
        d = dictionary_from(g, {"word": [1]})
        assert d.senses_of("word") == [sense(1)]

    def test_unknown_sense_dropped_with_default_policy(self, caplog):
        g = load_graph(["u:00000001-n v:00000002-n"])
        d = load_dictionary(["word 00000001-n:1 09999999-n:1"], g)
        assert d.senses_of("word") == [sense(1)]
        assert "line 1: sense 09999999-n not in graph, dropped" in caplog.text

    def test_entry_omitted_when_all_senses_dropped(self):
        g = load_graph(["u:00000001-n v:00000002-n"])
        d = load_dictionary(["word 09999999-n:1"], g)
        assert d.senses_of("word") == []

    def test_lemma_lowercased_internally(self):
        g = graph_from_edges([(1, 2)])
        d = dictionary_from(g, {"word": [1]})
        assert d.senses_of("WoRd") == [sense(1)]


# Dictionary senses: in the graph below (one of each pos), missing from it,
# and malformed (a short offset, a bad pos letter, no dash, non-ASCII
# digits, an extra part, an empty id).
_DICT_GRAPH_LINES = ["u:00000001-n v:00000002-v", "u:00000003-a v:00000004-r",
                     "u:00000001-n v:00000004-r"]
_DICT_IDS = ["00000001-n", "00000002-v", "00000003-a", "00000004-r", "09999999-n", "00000005-v"]
_DICT_BAD_IDS = ["0000001-n", "00000001-x", "00000001n", "\u0661" * 8 + "-n", "00000001-n-n", ""]


@st.composite
def dictionary_line(draw, fault: str | None = None) -> str:
    """One dictionary line: an entry, a comment or a blank line, or, given
    a fault, an entry with a bad id, a bad pos suffix or no sense. An
    entry's suffix may match or contradict its senses' pos, and its senses
    may repeat, lack a count or be missing from the graph."""
    kind = draw(st.sampled_from(["entry"] if fault else ["entry"] * 4 + ["comment", "blank"]))
    if kind == "comment":
        return draw(st.sampled_from(["#x", "  # x", "#n 00000001-n:1", "\t#"]))
    if kind == "blank":
        return draw(st.sampled_from(["", " ", "\t"]))
    suffix = draw(st.sampled_from(["", "", "#n", "#v", "#a", "#r", "#"]))
    if fault == "bad-suffix":
        suffix = draw(st.sampled_from(["#x", "#nv", "#N1"]))
    lemma = draw(st.sampled_from(["fire", "Fire", "word", "w000"])) + suffix
    ids = draw(st.lists(st.sampled_from(_DICT_IDS), min_size=1, max_size=5))
    if fault == "bad-id":
        ids.insert(draw(st.integers(0, len(ids))), draw(st.sampled_from(_DICT_BAD_IDS)))
    tokens = [draw(st.sampled_from([i, f"{i}:1", f"{i}:12", f"{i}:"])) for i in ids]
    if fault == "no-sense":
        tokens = []
    return draw(st.sampled_from([" ", "\t", "  "])).join([lemma] + tokens)


@st.composite
def dictionary_text(draw) -> str:
    """The text of a dictionary file; about half of the files also hold
    one faulty line, which the loader must refuse."""
    lines = draw(st.lists(dictionary_line(), min_size=1, max_size=10))
    if draw(st.booleans()):
        fault = draw(st.sampled_from(["bad-id", "bad-suffix", "no-sense"]))
        lines.insert(draw(st.integers(0, len(lines))), draw(dictionary_line(fault)))
    text = "".join(line + draw(st.sampled_from(["\n", "\n", "\r\n"])) for line in lines)
    return text if draw(st.booleans()) else text.removesuffix("\n").removesuffix("\r")


class TestDictionaryOracle:
    """load_dictionary reads its source whole and splits it into lines;
    the entries and warnings, or the first error, must be those of the
    line-by-line reader."""

    @pytest.fixture(scope="class")
    def graph(self):
        return load_graph(_DICT_GRAPH_LINES)

    @staticmethod
    def _loaded(load, source, graph, caplog):
        caplog.clear()
        try:
            entries = load(source, graph).entries
        except ParseError as exc:
            return f"ParseError: {exc}"
        return list(entries.items()), [(r.levelname, r.getMessage()) for r in caplog.records]

    @settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(dictionary_text())
    @example("  # x\r\n\r\nfire#n 00000001-n:1 00000002-v 00000001-n\r\n")
    def test_entries_and_warnings_match_reference_from_every_source(
        self, graph, tmp_path_factory, caplog, text,
    ):
        expected = self._loaded(load_dictionary_reference, text.split("\n"), graph, caplog)
        path = tmp_path_factory.getbasetemp() / "mixed-dictionary.txt"
        path.write_bytes(text.encode("utf-8"))
        sources = [path, str(path), io.StringIO(text), io.StringIO(text).readlines(),
                   text.split("\n")]
        for source in sources:
            assert self._loaded(load_dictionary, source, graph, caplog) == expected, source
