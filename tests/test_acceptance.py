"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one PASS line per
criterion. Criterion 6 needs real WordNet 3.0 data files supplied through
GROUGE_WORDNET_GRAPH / GROUGE_WORDNET_DICT and is skipped with a visible
marker otherwise.
"""

import os
import time

import numpy as np
import pytest

import grouge.ppr
import grouge.scorer
from grouge import (
    BOS_MARKER,
    GrougeConfig,
    PprConfig,
    PprEngine,
    align_disambiguate,
    bootstrap_ci,
    compute_ppr,
    correlate,
    grouge_score,
    kendall,
    load_dictionary,
    load_graph,
    score_batch,
    sim_sem,
    spearman,
    tokenize,
    williams_test,
)
from grouge.stats import JudgmentTable

from conftest import sense
from oracles import (
    align_loop,
    brute_force_align,
    dense_ppr,
    kendall_tau_b_oracle,
    recall_oracle,
    spearman_oracle,
    vector_from_weights,
    weight_in,
    weighted_overlap_direct,
    williams_oracle,
)
from synth import build_synthetic_eval


@pytest.fixture(scope="module")
def big_world(tmp_path_factory):
    base = tmp_path_factory.mktemp("big_world")
    return build_synthetic_eval(
        base, n_nodes=10_000, n_words=160, n_systems=50, n_models=4, seed=202
    )


@pytest.fixture(scope="module")
def small_world(tmp_path_factory):
    base = tmp_path_factory.mktemp("small_world")
    return build_synthetic_eval(
        base, n_nodes=400, n_words=40, n_systems=10, n_models=2,
        topics=("d1001", "d1002"), seed=31,
    )


def load_world(world):
    graph = load_graph(world["graph"])
    dictionary = load_dictionary(world["dict"], graph)
    return graph, dictionary


def random_graph_lines(rng, n, edge_prob=0.2):
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < edge_prob
    ]
    if not edges:
        edges = [(0, 1)]
    lines = [f"u:{i:08d}-n v:{j:08d}-n" for i, j in edges]
    lines += [f"u:{i:08d}-n v:{i:08d}-n" for i in range(n)]
    return edges, lines


def test_c01_ppr_matches_dense_oracle_on_100_random_graphs():
    start = time.monotonic()
    rng = np.random.default_rng(1234)
    for _ in range(100):
        n = int(rng.integers(2, 51))
        edges, lines = random_graph_lines(rng, n)
        graph = load_graph(lines)
        k = int(rng.integers(1, max(2, n // 2)))
        seed_nodes = sorted(rng.choice(n, size=k, replace=False).tolist())
        seeds = [sense(i) for i in seed_nodes]

        expected = dense_ppr(n, edges, seed_nodes, iterations=30)
        got = np.zeros(n)
        for key, weight in compute_ppr(graph, seeds).items():
            got[int(key.offset)] = weight
        assert np.max(np.abs(got - expected)) <= 1e-12

        for iterations in range(1, 31):
            iterate = compute_ppr(graph, seeds, PprConfig(iterations=iterations))
            assert abs(float(iterate.weights.sum()) - 1.0) <= 1e-9
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 1 PPR dense-oracle equivalence (100 graphs, {elapsed:.2f}s): PASS")


def test_c02_two_node_fixed_point():
    start = time.monotonic()
    graph = load_graph(["u:00000001-n v:00000002-n"])
    # The default 30 iterations oscillate ~3.5e-3 from the fixed point on
    # this bipartite pair, so the criterion is checked at convergence.
    vector = compute_ppr(graph, [sense(1)], PprConfig(iterations=120))
    expected_a = 0.15 / (1.0 - 0.85**2)
    assert weight_in(vector, sense(1)) == pytest.approx(expected_a, abs=1e-6)
    assert weight_in(vector, sense(2)) == pytest.approx(1.0 - expected_a, abs=1e-6)
    assert weight_in(vector, sense(1)) == pytest.approx(0.540541, abs=1e-6)
    assert weight_in(vector, sense(2)) == pytest.approx(0.459459, abs=1e-6)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 2 two-node fixed point ({elapsed:.3f}s): PASS")


def test_c03_weighted_overlap_cases_and_oracle():
    start = time.monotonic()
    graph = load_graph([f"u:{sense(i)} v:{sense(i + 1)}" for i in range(40)])

    def vector(weights):
        return vector_from_weights(graph, weights)

    identity = vector({sense(1): 0.5, sense(2): 0.3, sense(3): 0.2})
    assert sim_sem(identity, identity) == 1.0
    assert sim_sem(vector({sense(1): 1.0}), vector({sense(2): 1.0})) == 0.0
    assert sim_sem(
        vector({sense(1): 0.6, sense(2): 0.4}),
        vector({sense(1): 0.3, sense(2): 0.7}),
    ) == pytest.approx(8.0 / 9.0, abs=1e-12)

    rng = np.random.default_rng(99)
    pool = [sense(i) for i in range(40)]
    for _ in range(1000):
        def draw():
            size = int(rng.integers(1, 16))
            keys = rng.choice(len(pool), size=size, replace=False)
            return {pool[k]: float(rng.uniform(0.01, 1.0)) for k in keys}

        w1, w2 = draw(), draw()
        v1, v2 = vector(w1), vector(w2)
        score = sim_sem(v1, v2)
        assert score == pytest.approx(weighted_overlap_direct(w1, w2), abs=1e-12)
        assert 0.0 <= score <= 1.0
        assert score == sim_sem(v2, v1)
        scale = float(rng.uniform(0.1, 10.0))
        scaled = vector({k: w * scale for k, w in w1.items()})
        assert sim_sem(scaled, v2) == score
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 3 weighted overlap vs direct oracle ({elapsed:.2f}s): PASS")


def test_c04_rouge_reduction_at_beta_one(small_world):
    graph, dictionary = load_world(small_world)
    engine = PprEngine(graph)
    report = score_batch(
        small_world["peers"], small_world["models"],
        GrougeConfig(beta=1.0), engine, dictionary,
        variants=("g1", "g2", "gsu4", "r1", "r2", "rsu4"),
    )
    rows = 0
    for (topic, system, variant), score in report.rows.items():
        if variant.startswith("g"):
            lexical = report.rows[(topic, system, "r" + variant[1:])]
            assert abs(score - lexical) <= 1e-12
            rows += 1
    assert rows == 2 * 10 * 3  # topics x systems x semantic variants
    assert grouge_score(
        tokenize("the cat ran"), [tokenize("the cat sat")], GrougeConfig(variant="r1")
    ) == 2.0 / 3.0
    print(f"\nACCEPTANCE 4 beta=1 reduces to plain recall ({rows} rows): PASS")


def test_c05_scores_affine_in_beta(small_world):
    graph, dictionary = load_world(small_world)
    engine = PprEngine(graph)
    reports = {
        beta: score_batch(
            small_world["peers"], small_world["models"],
            GrougeConfig(beta=beta), engine, dictionary,
            variants=("g1", "g2", "gsu4"),
        )
        for beta in (0.0, 0.5, 1.0)
    }
    for key in reports[0.0].rows:
        s0 = reports[0.0].rows[key]
        s5 = reports[0.5].rows[key]
        s1 = reports[1.0].rows[key]
        assert abs(s5 - (s0 + s1) / 2.0) <= 1e-12
    print(f"\nACCEPTANCE 5 corpus scores affine in beta ({len(reports[0.0].rows)} rows): PASS")


def test_c06_paraphrase_direction_on_wordnet():
    graph_path = os.environ.get("GROUGE_WORDNET_GRAPH")
    dict_path = os.environ.get("GROUGE_WORDNET_DICT")
    if not graph_path or not dict_path:
        print("\nACCEPTANCE 6 paraphrase direction: SKIPPED "
              "(set GROUGE_WORDNET_GRAPH and GROUGE_WORDNET_DICT to WordNet 3.0 files)")
        pytest.skip("WordNet 3.0 data files not present")
    graph = load_graph(graph_path)
    dictionary = load_dictionary(dict_path, graph)
    engine = PprEngine(graph)

    model = tokenize("They strolled around the city")
    peer = tokenize("They took a walk to explore the town")
    lexical = recall_oracle(peer.sentences, [model.sentences], "1", BOS_MARKER)
    blended = grouge_score(peer, [model], GrougeConfig(variant="g1", beta=0.5),
                           engine, dictionary)
    assert blended > lexical

    fire = dictionary.senses_of("fire", "v")
    terminate = dictionary.senses_of("terminate", "v")
    assert len(fire) >= 4 and len(terminate) >= 4
    similarity = sim_sem(engine.ppr_for_sense(fire[3]), engine.ppr_for_sense(terminate[3]))
    assert similarity == pytest.approx(1.0, abs=1e-12)
    print("\nACCEPTANCE 6 paraphrase direction on WordNet 3.0: PASS")


def test_c07_disambiguation_matches_brute_force_100_cases():
    rng = np.random.default_rng(4242)
    from grouge import WordType

    passed = 0
    for _ in range(100):
        n = int(rng.integers(4, 21))
        edges, lines = random_graph_lines(rng, n, edge_prob=0.25)
        graph = load_graph(lines)
        engine = PprEngine(graph)

        def make_words(count, tag):
            out = []
            for w in range(count):
                k = int(rng.integers(0, 4))
                ids = rng.choice(n, size=k, replace=False).tolist() if k else []
                out.append(WordType(stem=f"{tag}{w}", senses=tuple(sense(i) for i in ids)))
            return out

        item = make_words(int(rng.integers(1, 7)), "i")
        context = make_words(int(rng.integers(0, 7)), "c")

        def oracle_sim(a, b):
            va = dense_ppr(n, edges, [int(a.offset)])
            vb = dense_ppr(n, edges, [int(b.offset)])
            return weighted_overlap_direct(
                {f"{i:08d}-n": v for i, v in enumerate(va) if v > 0},
                {f"{i:08d}-n": v for i, v in enumerate(vb) if v > 0},
            )

        got = align_disambiguate(item, context, engine)
        expected = brute_force_align(item, context, oracle_sim)
        for entry, (word, score_map) in zip(got, expected):
            if score_map is None:
                assert entry.sense is None and entry.support == 0.0
            elif not score_map:
                assert entry.sense == word.senses[0] and entry.support == 0.0
            else:
                best = max(score_map.values())
                assert entry.support == pytest.approx(best, abs=1e-9)
                assert score_map[entry.sense] == pytest.approx(best, abs=1e-9)
        passed += 1
    assert passed == 100
    print(f"\nACCEPTANCE 7 alignment vs exhaustive brute force ({passed}/100): PASS")


def test_c08_correlation_suite():
    rng = np.random.default_rng(555)
    for _ in range(200):
        n = int(rng.integers(3, 51))
        x = rng.integers(0, 8, size=n).tolist()
        y = rng.integers(0, 8, size=n).tolist()
        if len(set(x)) < 2 or len(set(y)) < 2:
            continue
        assert kendall(x, y) == kendall_tau_b_oracle(x, y)
        assert spearman(x, y) == spearman_oracle(x, y)

    assert kendall([1, 2, 3], [3, 1, 2]) == pytest.approx(-1.0 / 3.0, abs=1e-15)

    zero = williams_test(0.8, 0.8, 0.3, 40)
    assert zero.t == 0.0 and zero.p == 0.5
    forward = williams_test(0.9, 0.8, 0.7, 51)
    backward = williams_test(0.8, 0.9, 0.7, 51)
    assert forward.t == -backward.t
    t_expected, p_expected = williams_oracle(0.9, 0.8, 0.7, 51)
    assert forward.t == pytest.approx(t_expected, abs=1e-9)
    assert forward.p == pytest.approx(p_expected, abs=1e-9)
    print("\nACCEPTANCE 8 correlation and significance suite: PASS")


def test_c09_bootstrap_determinism_51_rows():
    rng = np.random.default_rng(2024)
    n = 51
    quality = np.sort(rng.uniform(0.0, 1.0, size=n))
    table = JudgmentTable(
        systems=[f"s{i:02d}" for i in range(n)],
        human={"pyramid": quality + rng.normal(0, 0.05, n)},
        auto={"metric": quality + rng.normal(0, 0.08, n)},
    )
    first = correlate(table, resamples=1000, seed=42).to_csv_bytes()
    second = correlate(table, resamples=1000, seed=42).to_csv_bytes()
    assert first == second

    row = correlate(table, resamples=1000, seed=42).rows[0]
    assert row.pearson_ci[0] <= row.pearson <= row.pearson_ci[1]
    assert row.spearman_ci[0] <= row.spearman <= row.spearman_ci[1]
    assert row.kendall_ci[0] <= row.kendall <= row.kendall_ci[1]

    x, y = table.auto["metric"], table.human["pyramid"]
    assert bootstrap_ci(x, y, "pearson", seed=42) == bootstrap_ci(x, y, "pearson", seed=42)
    print("\nACCEPTANCE 9 seeded bootstrap is byte-identical: PASS")


def test_c10_end_to_end_determinism_and_throughput(big_world):
    graph, dictionary = load_world(big_world)

    engine = PprEngine(graph)
    start = time.monotonic()
    timed = score_batch(
        big_world["peers"], big_world["models"], GrougeConfig(), engine, dictionary,
        variants=("g1", "g2", "gsu4"),
    )
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    assert len(timed.rows) == 50 * 3
    assert not timed.errors

    other = score_batch(
        big_world["peers"], big_world["models"], GrougeConfig(), PprEngine(graph),
        dictionary, variants=("g1", "g2", "gsu4"),
    )
    assert timed.to_csv_bytes() == other.to_csv_bytes()
    print(f"\nACCEPTANCE 10 e2e 50x4x3 on 10k nodes ({elapsed:.1f}s, "
          "byte-identical across runs): PASS")


def test_walk_plan_walks_each_seed_set_once_in_two_passes_per_peer(big_world, monkeypatch):
    """parts_by_family computes every sense, peer-signature and gram vector
    of a peer in at most two batched passes, nothing twice, and walks no
    multi-seed column: every seed set of this world composes."""
    graph, dictionary = load_world(big_world)
    passes: list[int] = []
    seeds_per_column: list[int] = []
    walk = grouge.ppr._walk
    parts_by_family = grouge.scorer.parts_by_family

    def counted_walk(graph, keys, cfg):
        passes[-1] += 1
        seeds_per_column.extend(len(key) for key in keys)
        return walk(graph, keys, cfg)

    def planned(*args, **kwargs):
        passes.append(0)
        return parts_by_family(*args, **kwargs)

    monkeypatch.setattr(grouge.ppr, "_walk", counted_walk)
    monkeypatch.setattr(grouge.scorer, "parts_by_family", planned)
    engine = PprEngine(graph)
    score_batch(
        big_world["peers"], big_world["models"], GrougeConfig(), engine, dictionary,
        variants=("g1", "g2", "gsu4"),
    )
    assert len(passes) == 50
    assert 0 < max(passes) <= 2
    assert seeds_per_column and set(seeds_per_column) == {1}
    stats = engine.stats()
    assert stats.misses == stats.size
    assert stats.size > len(seeds_per_column)  # the composed seed sets


def test_peer_table_assignments_match_per_cell_loop(big_world, monkeypatch):
    """One peer against its four models through parts_by_family: every
    pair's assignments, both sides, equal the per-cell loop's, sense and
    support bits, and all four pairs read one similarity table."""
    graph, dictionary = load_world(big_world)
    peer = tokenize((big_world["peers"] / "d1001.sys07.txt").read_text("utf-8"))
    models = [
        tokenize(path.read_text("utf-8")) for path in sorted(big_world["models"].glob("d1001.*.txt"))
    ]
    assert len(models) == 4
    seen = []
    disambiguate_pair = grouge.scorer.disambiguate_pair

    def recorded(model_words, peer_words, table):
        out = disambiguate_pair(model_words, peer_words, table)
        seen.append((model_words, peer_words, table, out))
        return out

    monkeypatch.setattr(grouge.scorer, "disambiguate_pair", recorded)
    grouge.scorer.parts_by_family(peer, models, ("1",), PprEngine(graph), dictionary)
    assert len(seen) == 4
    assert seen[0][2] is not None and all(table is seen[0][2] for _, _, table, _ in seen)
    loop_engine = PprEngine(graph)
    for model_words, peer_words, _, (model, peer_side) in seen:
        loop_engine.prime_senses(s for w in (*model_words, *peer_words) for s in w.senses)
        for assignment, item, context in (
            (model, model_words, peer_words), (peer_side, peer_words, model_words)
        ):
            expected = align_loop(item, context, loop_engine)
            assert [(e.sense, e.support.hex()) for e in assignment] == [
                (sense, float(support).hex()) for sense, support in expected
            ]
