import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from grouge import ParseError, SemanticGraph, SenseId, load_dictionary, load_graph
from grouge.graph import POS_TAGS

from conftest import dictionary_from, graph_from_edges, sense, sid
from oracles import load_graph_reference
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
        assert once == twice == reversed_dup

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
    """load_graph parses each distinct token once and builds the edge array
    with numpy; the graph must equal the one the per-line loader built."""

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
        assert load_graph(lines) == g


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
