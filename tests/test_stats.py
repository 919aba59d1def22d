import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import grouge.stats
from grouge import (
    JudgmentTable,
    bootstrap_ci,
    correlate,
    kendall,
    pearson,
    spearman,
    williams_test,
)
from grouge.stats import (
    CorrelationReport,
    CorrelationRow,
    _counted_ranks,
    _kendall_rows,
    _multiplicities,
    _spearman_rows,
    average_ranks,
    load_judgments,
)

from oracles import (
    average_ranks_oracle,
    average_ranks_reference,
    average_ranks_rows_reference,
    bootstrap_ci_reference,
    kendall_reference,
    kendall_rows_reference,
    kendall_tau_b_oracle,
    pearson_reference,
    pearson_rows_reference,
    spearman_oracle,
    spearman_reference,
    williams_oracle,
)

int_vectors = st.lists(st.integers(min_value=0, max_value=9), min_size=3, max_size=50)


class TestPearson:
    def test_self_correlation_is_one(self):
        x = [1.0, 4.0, 2.0, 8.0]
        assert pearson(x, x) == 1.0

    def test_negated_is_minus_one(self):
        x = [1.0, 4.0, 2.0, 8.0]
        assert pearson(x, [-v for v in x]) == -1.0

    def test_hand_case(self):
        # closed form: cov 5, var_x 2, var_y 38/3
        assert pearson([1, 2, 3], [2, 4, 7]) == pytest.approx(
            5.0 / math.sqrt(2.0 * 38.0 / 3.0), abs=1e-15
        )

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError, match="zero variance"):
            pearson([1, 1, 1], [1, 2, 3])

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            pearson([1, 2], [3, 4])

    @settings(max_examples=100, deadline=None)
    @given(int_vectors, st.floats(min_value=0.1, max_value=50), st.floats(-10, 10))
    def test_invariant_under_positive_affine_transform(self, x, scale, shift):
        y = [3 * v + 1 for v in x]
        if len(set(x)) < 2:
            return
        base = pearson(x, y)
        transformed = pearson([scale * v + shift for v in x], y)
        assert transformed == pytest.approx(base, abs=1e-9)


class TestSpearman:
    def test_monotone_transform_gives_one(self):
        x = [1.0, 5.0, 2.0, 9.0, 7.0]
        assert spearman(x, [math.exp(v) for v in x]) == 1.0

    def test_hand_case(self):
        assert spearman([1, 2, 3], [3, 1, 2]) == -0.5

    def test_reversed_is_minus_one(self):
        x = [1.0, 2.0, 3.0, 4.0]
        assert spearman(x, x[::-1]) == -1.0

    def test_average_ranks_with_ties(self):
        assert average_ranks([10, 20, 20, 30]).tolist() == [1.0, 2.5, 2.5, 4.0]

    @settings(max_examples=200, deadline=None)
    @given(int_vectors, int_vectors)
    def test_matches_rank_oracle_exactly(self, x, y):
        n = min(len(x), len(y))
        x, y = x[:n], y[:n]
        if n < 3 or len(set(x)) < 2 or len(set(y)) < 2:
            return
        assert spearman(x, y) == spearman_oracle(x, y)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(int_vectors, st.lists(st.floats(allow_nan=False), min_size=1, max_size=50)))
    def test_average_ranks_match_oracle(self, x):
        assert average_ranks(x).tolist() == average_ranks_oracle(x)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=50))
    def test_each_nan_ranks_last_on_its_own(self, x):
        assert average_ranks(x).tobytes() == average_ranks_reference(np.array(x)).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 30), st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_row_wise_ranks_match_oracle_per_row(self, rows, n, levels, seed):
        rng = np.random.default_rng(seed)
        x = rng.integers(0, levels, size=n).astype(float)
        idx = rng.integers(0, n, size=(rows, n))
        # the rank of each drawn position is the rank of the original it drew
        ranks = np.take_along_axis(_counted_ranks(x, _multiplicities(idx, n)), idx, axis=1)
        assert [r.tolist() for r in ranks] == [average_ranks_oracle(r.tolist()) for r in x[idx]]

    @settings(max_examples=100, deadline=None)
    @given(int_vectors)
    def test_invariant_under_strictly_monotone_transform(self, x):
        if len(set(x)) < 2:
            return
        y = list(range(len(x)))
        base = spearman(x, y)
        assert spearman([v**3 + 2 * v for v in x], y) == base


class TestKendall:
    def test_hand_case_minus_third(self):
        assert kendall([1, 2, 3], [3, 1, 2]) == pytest.approx(-1.0 / 3.0, abs=1e-15)

    def test_identical_is_one(self):
        assert kendall([1, 5, 3, 4], [1, 5, 3, 4]) == 1.0

    def test_tie_corrected_hand_case(self):
        assert kendall([1, 2, 3], [1, 1, 2]) == pytest.approx(2.0 / math.sqrt(6.0), abs=1e-15)

    def test_tau_a_variant(self):
        assert kendall([1, 2, 3], [1, 1, 2], variant="a") == pytest.approx(2.0 / 3.0, abs=0)

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError, match="zero variance"):
            kendall([1, 1, 1], [1, 2, 3])

    @settings(max_examples=200, deadline=None)
    @given(int_vectors, int_vectors)
    def test_matches_pairwise_oracle_exactly(self, x, y):
        n = min(len(x), len(y))
        x, y = x[:n], y[:n]
        if n < 3 or len(set(x)) < 2 or len(set(y)) < 2:
            return
        assert kendall(x, y) == kendall_tau_b_oracle(x, y)

    @settings(max_examples=100, deadline=None)
    @given(int_vectors)
    def test_invariant_under_strictly_monotone_transform(self, x):
        if len(set(x)) < 2:
            return
        y = list(range(len(x)))
        assert kendall([2 ** v for v in x], y) == kendall(x, y)


class TestBootstrap:
    def _table(self, n=30, r=0.9, seed=5):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=n)
        y = r * x + math.sqrt(1 - r * r) * rng.normal(size=n)
        return x, y

    def test_same_seed_identical_interval(self):
        x, y = self._table()
        assert bootstrap_ci(x, y, "pearson", seed=42) == bootstrap_ci(x, y, "pearson", seed=42)

    def test_different_seed_differs(self):
        x, y = self._table()
        assert bootstrap_ci(x, y, "pearson", seed=42) != bootstrap_ci(x, y, "pearson", seed=43)

    def test_perfect_correlation_degenerate_interval(self):
        x = np.arange(10, dtype=float)
        lo, hi = bootstrap_ci(x, 2 * x + 1, "pearson", seed=1)
        assert lo == hi == 1.0

    def test_point_estimate_within_interval(self):
        x, y = self._table()
        for coefficient, func in (("pearson", pearson), ("spearman", spearman), ("kendall", kendall)):
            lo, hi = bootstrap_ci(x, y, coefficient, seed=7)
            assert lo <= func(x, y) <= hi

    def test_interval_ordering_and_range(self):
        x, y = self._table(r=0.5)
        lo, hi = bootstrap_ci(x, y, "kendall", seed=3)
        assert -1.0 <= lo <= hi <= 1.0

    def test_requires_four_rows(self):
        with pytest.raises(ValueError):
            bootstrap_ci([1, 2, 3], [1, 2, 3], "pearson")

    def test_unknown_coefficient_rejected(self):
        with pytest.raises(ValueError):
            bootstrap_ci([1, 2, 3, 4], [1, 2, 3, 4], "cosine")

    @pytest.mark.parametrize("resamples", [0, -1])
    def test_resamples_below_one_rejected(self, resamples):
        x, y = self._table()
        with pytest.raises(ValueError, match=f"resamples must be >= 1, got {resamples}"):
            bootstrap_ci(x, y, "pearson", resamples=resamples)

    @pytest.mark.parametrize("seed", [-1, -(10**38)])
    def test_negative_seed_rejected(self, seed):
        x, y = self._table()
        with pytest.raises(ValueError, match=f"seed must be >= 0, got {seed}"):
            bootstrap_ci(x, y, "pearson", seed=seed)

    def test_seed_of_any_size_accepted(self):
        x, y = self._table()
        lo, hi = bootstrap_ci(x, y, "pearson", resamples=20, seed=10**38)
        assert -1.0 <= lo <= hi <= 1.0

    def test_degenerate_resamples_redrawn(self):
        # nearly-constant columns: most resamples are degenerate and must be
        # redrawn rather than crash
        x = np.array([1.0, 1.0, 1.0, 2.0, 1.0])
        y = np.array([3.0, 3.0, 3.0, 1.0, 3.0])
        lo, hi = bootstrap_ci(x, y, "pearson", resamples=50, seed=9)
        assert -1.0 <= lo <= hi <= 1.0


@st.composite
def bootstrap_columns(draw):
    """Two columns of n rows, each continuous, integer-tied or near-constant
    (a few rows off one value, or none: constant)."""
    n = draw(st.integers(min_value=4, max_value=80))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def column() -> np.ndarray:
        kind = draw(st.sampled_from(("continuous", "tied", "near-constant")))
        if kind == "continuous":
            return rng.normal(size=n) * 10.0 ** draw(st.integers(-3, 3))
        if kind == "tied":
            return rng.integers(0, draw(st.integers(2, 5)), size=n).astype(float)
        col = np.full(n, 0.25)
        col[rng.choice(n, size=draw(st.integers(0, 2)), replace=False)] = 0.75
        return col

    return column(), column()


class TestBootstrapOracle:
    """The row-wise bootstrap against the per-resample loop it replaced
    (oracles.bootstrap_ci_reference): the same interval bits, or the same
    ValueError. Example counts follow the Hypothesis profile (conftest)."""

    @staticmethod
    def _outcome(func, x, y, *args, **kwargs):
        try:
            return func(x, y, *args, **kwargs)
        except ValueError as exc:
            return f"ValueError: {exc}"

    @settings(deadline=None)
    @given(
        bootstrap_columns(),
        st.integers(min_value=1, max_value=300),
        st.sampled_from([("pearson", "b"), ("spearman", "b"), ("kendall", "b"), ("kendall", "a")]),
        st.sampled_from([0.5, 0.9, 0.95, 0.99]),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_per_resample_reference(self, columns, resamples, coefficient, confidence, seed):
        x, y = columns
        name, variant = coefficient
        args = (name, resamples, confidence, seed)
        assert self._outcome(bootstrap_ci, x, y, *args, kendall_variant=variant) == self._outcome(
            bootstrap_ci_reference, x, y, *args, kendall_variant=variant
        )

    def test_redrawn_rows_match_reference(self):
        # one row off a constant: about a third of the resamples are redrawn
        x = np.array([1.0] * 7 + [2.0])
        y = np.arange(8.0)
        for name in ("pearson", "spearman", "kendall"):
            got = bootstrap_ci(x, y, name, 500, 0.95, 3)
            assert got == bootstrap_ci_reference(x, y, name, 500, 0.95, 3)

    def test_constant_column_exceeds_retry_cap(self):
        x, y = np.full(6, 0.5), np.arange(6.0)
        for name in ("pearson", "spearman", "kendall"):
            with pytest.raises(ValueError, match="retry cap"):
                bootstrap_ci(x, y, name, resamples=20, seed=1)
            with pytest.raises(ValueError, match="retry cap"):
                bootstrap_ci_reference(x, y, name, resamples=20, seed=1)

    def test_retry_cap_boundary(self):
        # each column is off a constant in one row, so about 57% of the
        # draws of 4 rows are redrawn; one resample allows 10 redraws
        x = np.array([0.0, 0.0, 0.0, 1.0])
        y = np.array([0.0, 0.0, 1.0, 0.0])
        seed_for_redraws: dict[int, int] = {}
        for seed in range(20_000):
            rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
            redraws = 0
            while True:
                idx = rng.integers(0, 4, size=4)
                if np.ptp(x[idx]) > 0 and np.ptp(y[idx]) > 0:
                    break
                redraws += 1
            seed_for_redraws.setdefault(redraws, seed)
            if 10 in seed_for_redraws and 11 in seed_for_redraws:
                break
        at_cap = seed_for_redraws[10]
        assert bootstrap_ci(x, y, "pearson", 1, 0.95, at_cap) == bootstrap_ci_reference(
            x, y, "pearson", 1, 0.95, at_cap
        )
        for func in (bootstrap_ci, bootstrap_ci_reference):
            with pytest.raises(ValueError, match="retry cap"):
                func(x, y, "pearson", 1, 0.95, seed_for_redraws[11])

    def test_kendall_rows_exact_past_blas_blocking(self):
        # n = 600: the (rows, n) x (n, n) products are split into blocks,
        # and the counts must still be exact integers
        rng = np.random.default_rng(12)
        n = 600
        x = rng.integers(0, 40, size=n).astype(float)
        y = x + rng.integers(0, 40, size=n)
        idx = rng.integers(0, n, size=(40, n))
        counts = _multiplicities(idx, n)
        for variant in ("a", "b"):
            got = _kendall_rows(x, y, counts, variant)
            assert got.tobytes() == kendall_rows_reference(x, y, idx, variant).tobytes()

    def test_variance_product_underflow_is_zero_variance(self):
        # both variances are positive but their product underflows to zero
        x = np.array([1e-100, 2e-100, 3e-100, 4e-100])
        with pytest.raises(ValueError, match="zero variance"):
            pearson(x, x)

    def test_tied_kendall_interval_follows_variant(self):
        x = np.array([1, 1, 2, 2, 2, 3, 3, 4, 4, 4, 5, 5], dtype=float)
        y = np.array([1, 2, 1, 3, 3, 2, 4, 3, 5, 5, 4, 5], dtype=float)
        table = JudgmentTable(systems=[f"s{i}" for i in range(12)], human={"h": y}, auto={"m": x})
        intervals = {}
        for variant in ("a", "b"):
            row = correlate(table, resamples=300, seed=42, kendall_variant=variant).rows[0]
            assert row.kendall == kendall(x, y, variant)
            assert row.kendall_ci == bootstrap_ci_reference(
                x, y, "kendall", 300, 0.95, 42, kendall_variant=variant
            )
            intervals[variant] = row.kendall_ci
        assert intervals["a"] != intervals["b"]

    def test_c09_report_equals_reference_report(self):
        # the 51-row table of acceptance criterion 9
        rng = np.random.default_rng(2024)
        n = 51
        quality = np.sort(rng.uniform(0.0, 1.0, size=n))
        human = quality + rng.normal(0, 0.05, n)
        metric = quality + rng.normal(0, 0.08, n)
        table = JudgmentTable(
            systems=[f"s{i:02d}" for i in range(n)], human={"pyramid": human}, auto={"metric": metric}
        )
        for variant in ("a", "b"):
            expected = CorrelationReport(rows=[CorrelationRow(
                auto_metric="metric", human_metric="pyramid", n=n,
                pearson=pearson_reference(metric, human),
                pearson_ci=bootstrap_ci_reference(metric, human, "pearson", seed=42),
                spearman=spearman_reference(metric, human),
                spearman_ci=bootstrap_ci_reference(metric, human, "spearman", seed=42),
                kendall=kendall_reference(metric, human, variant),
                kendall_ci=bootstrap_ci_reference(
                    metric, human, "kendall", seed=42, kendall_variant=variant
                ),
                williams_p=None, significant=None,
            )])
            got = correlate(table, resamples=1000, seed=42, kendall_variant=variant)
            assert got.to_csv_bytes() == expected.to_csv_bytes()


@st.composite
def resampled_columns(draw):
    """Two columns of n rows with 1-6 tie levels, -0.0 next to 0.0 and
    infinities mixed in, and rows of draws from them; drawing from only the
    first few originals repeats draws."""
    n = draw(st.integers(min_value=4, max_value=60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = np.concatenate([
        np.arange(draw(st.integers(1, 6)), dtype=float),
        draw(st.sampled_from([(), (-0.0,), (np.inf,), (-np.inf, -0.0, np.inf)])),
    ])
    x, y = rng.choice(values, size=n), rng.choice(values, size=n)
    idx = rng.integers(0, draw(st.integers(1, n)), size=(draw(st.integers(1, 12)), n))
    return x, y, idx


class TestCountedKernels:
    """The Kendall and Spearman rows computed from multiplicities against
    the kernels that gathered every resampled position (oracles): the same
    bits, or the same ValueError."""

    @staticmethod
    def _outcome(func, *args):
        try:
            return func(*args).tobytes()
        except ValueError as exc:
            return f"ValueError: {exc}"

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf - inf
    @settings(deadline=None)
    @given(resampled_columns(), st.sampled_from("ab"))
    def test_kendall_rows_match_reference(self, columns, variant):
        x, y, idx = columns
        counts = _multiplicities(idx, len(x))
        assert self._outcome(_kendall_rows, x, y, counts, variant) == self._outcome(
            kendall_rows_reference, x, y, idx, variant
        )

    @settings(deadline=None)
    @given(resampled_columns())
    def test_spearman_rows_match_reference(self, columns):
        x, y, idx = columns

        def reference(x, y, idx):
            ranks = average_ranks_rows_reference
            return pearson_rows_reference(ranks(x[idx]), ranks(y[idx]))

        counts = _multiplicities(idx, len(x))
        assert self._outcome(_spearman_rows, x, y, counts) == self._outcome(reference, x, y, idx)

    @settings(deadline=None)
    @given(resampled_columns())
    def test_counted_ranks_match_reference(self, columns):
        x, _, idx = columns
        ranks = np.take_along_axis(_counted_ranks(x, _multiplicities(idx, len(x))), idx, axis=1)
        assert ranks.tobytes() == average_ranks_rows_reference(x[idx]).tobytes()

    def test_multiplicities_count_each_draw(self):
        idx = np.array([[0, 0, 3, 1], [2, 2, 2, 2]])
        assert _multiplicities(idx, 4).tolist() == [[2, 1, 0, 1], [0, 0, 4, 0]]


class TestWilliams:
    def test_equal_correlations_give_zero_t_half_p(self):
        res = williams_test(0.8, 0.8, 0.5, 30)
        assert res.t == 0.0
        assert res.p == 0.5

    def test_antisymmetry(self):
        a = williams_test(0.9, 0.8, 0.7, 51)
        b = williams_test(0.8, 0.9, 0.7, 51)
        assert a.t == -b.t

    def test_matches_high_precision_oracle(self):
        res = williams_test(0.9, 0.8, 0.7, 51)
        t_exp, p_exp = williams_oracle(0.9, 0.8, 0.7, 51)
        assert res.t == pytest.approx(t_exp, abs=1e-9)
        assert res.p == pytest.approx(p_exp, abs=1e-9)

    @settings(max_examples=50, deadline=None)
    @given(
        st.floats(min_value=-0.9, max_value=0.9),
        st.floats(min_value=-0.9, max_value=0.9),
        st.floats(min_value=-0.5, max_value=0.9),
        st.integers(min_value=5, max_value=200),
    )
    def test_oracle_agreement_randomized(self, r12, r13, r23, n):
        try:
            res = williams_test(r12, r13, r23, n)
        except ValueError:
            return  # inconsistent correlation triple
        t_exp, p_exp = williams_oracle(r12, r13, r23, n)
        assert res.t == pytest.approx(t_exp, abs=1e-9)
        assert res.p == pytest.approx(p_exp, abs=1e-9)

    def test_p_value_equals_scipy_stats_t_sf(self):
        from scipy import stats as scipy_stats

        rng = np.random.default_rng(6)
        checked = 0
        for _ in range(400):
            r12, r13 = rng.uniform(-0.95, 0.95, size=2)
            r23 = rng.uniform(-0.5, 0.95)
            n = int(rng.integers(4, 300))
            try:
                res = williams_test(float(r12), float(r13), float(r23), n)
            except ValueError:
                continue
            assert res.p == float(scipy_stats.t.sf(res.t, n - 3))
            checked += 1
        assert checked > 300

    def test_validation(self):
        with pytest.raises(ValueError):
            williams_test(1.0, 0.5, 0.5, 30)
        with pytest.raises(ValueError):
            williams_test(0.5, 0.5, 0.5, 3)


class TestCorrelate:
    def _table(self, n=20, seed=3):
        rng = np.random.default_rng(seed)
        quality = np.sort(rng.uniform(0, 1, size=n))
        return JudgmentTable(
            systems=[f"s{i:02d}" for i in range(n)],
            human={
                "pyramid": quality + rng.normal(0, 0.05, n),
                "responsiveness": quality + rng.normal(0, 0.1, n),
            },
            auto={
                "g1": quality + rng.normal(0, 0.05, n),
                "r1": quality + rng.normal(0, 0.15, n),
            },
        )

    def test_identical_columns_all_coefficients_one(self):
        x = np.array([0.1, 0.5, 0.3, 0.9])
        table = JudgmentTable(
            systems=["a", "b", "c", "d"], human={"h": x.copy()}, auto={"m": x.copy()}
        )
        report = correlate(table, resamples=50)
        row = report.rows[0]
        assert row.pearson == row.spearman == row.kendall == 1.0

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.05, 7.0])
    def test_significance_level_outside_unit_interval_rejected(self, alpha):
        with pytest.raises(ValueError, match="alpha must be in \\(0, 1\\)"):
            correlate(self._table(), significance_against="r1", alpha=alpha, resamples=10)

    def test_three_rows_rejected(self):
        x = np.array([1.0, 2.0, 3.0])
        table = JudgmentTable(systems=["a", "b", "c"], human={"h": x}, auto={"m": x})
        with pytest.raises(ValueError, match="at least 4"):
            correlate(table)

    def test_williams_against_baseline(self):
        table = self._table()
        report = correlate(table, significance_against="r1", resamples=50)
        by_metric = {(r.auto_metric, r.human_metric): r for r in report.rows}
        assert by_metric[("r1", "pyramid")].williams_p is None
        g1_row = by_metric[("g1", "pyramid")]
        assert g1_row.williams_p is not None
        assert g1_row.significant == (g1_row.williams_p < 0.05)

    def test_column_equal_to_baseline_gets_no_williams_p(self):
        """r23 = 1 for a copy of the baseline: williams_test rejects it, so
        that row is left empty and every other row keeps its bytes."""
        table = self._table()
        with_copy = JudgmentTable(systems=table.systems, human=table.human,
                                  auto={**table.auto, "copy": table.auto["r1"].copy()})
        base = table.auto["r1"]
        with pytest.raises(ValueError, match="r23 must be in"):
            williams_test(pearson(base, table.human["pyramid"]),
                          pearson(base, table.human["pyramid"]), pearson(base, base), table.n)
        report = correlate(with_copy, significance_against="r1", resamples=50)
        copies = [r for r in report.rows if r.auto_metric == "copy"]
        assert len(copies) == 2
        assert all(r.williams_p is None and r.significant is None for r in copies)
        expected = correlate(table, significance_against="r1", resamples=50)
        assert [r for r in report.rows if r.auto_metric != "copy"] == expected.rows

    def test_unknown_baseline_rejected(self):
        with pytest.raises(ValueError):
            correlate(self._table(), significance_against="nope")

    def test_point_estimates_inside_cis(self):
        report = correlate(self._table(), resamples=200, seed=11)
        for row in report.rows:
            assert row.pearson_ci[0] <= row.pearson <= row.pearson_ci[1]
            assert row.spearman_ci[0] <= row.spearman <= row.spearman_ci[1]
            assert row.kendall_ci[0] <= row.kendall <= row.kendall_ci[1]

    def test_csv_deterministic_bytes(self):
        table = self._table()
        a = correlate(table, significance_against="r1", resamples=100, seed=42).to_csv_bytes()
        b = correlate(table, significance_against="r1", resamples=100, seed=42).to_csv_bytes()
        assert a == b
        header = a.decode().splitlines()[0]
        assert header.startswith("auto_metric,human_metric,n,pearson")

    def test_table_validation(self):
        with pytest.raises(ValueError, match="unique"):
            JudgmentTable(systems=["a", "a"], human={}, auto={})
        with pytest.raises(ValueError, match="length"):
            JudgmentTable(systems=["a", "b"], human={"h": np.array([1.0])}, auto={})
        with pytest.raises(ValueError, match="missing"):
            JudgmentTable(
                systems=["a", "b"], human={"h": np.array([1.0, np.nan])}, auto={}
            )
        for value in (np.inf, -np.inf):
            with pytest.raises(ValueError, match="column 'm' has missing or non-finite"):
                JudgmentTable(systems=["a", "b"], human={}, auto={"m": np.array([1.0, value])})


class TestLoadJudgments:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "judgments.csv"
        path.write_text("system,pyramid,readability\nA,0.5,0.1\nB,0.75,0.2\n")
        ids, columns = load_judgments(path)
        assert ids == ["A", "B"]
        assert columns["pyramid"].tolist() == [0.5, 0.75]

    def test_non_numeric_cell_rejected(self, tmp_path):
        path = tmp_path / "judgments.csv"
        path.write_text("system,pyramid\nA,high\n")
        with pytest.raises(ValueError, match="non-numeric"):
            load_judgments(path)

    @pytest.mark.parametrize("repeat", ["A,0.5,0.1", "A,0.7,0.3"], ids=["same", "different"])
    def test_repeated_system_rejected(self, tmp_path, repeat):
        path = tmp_path / "judgments.csv"
        path.write_text(f"system,pyramid,readability\nA,0.5,0.1\nB,0.75,0.2\n{repeat}\n")
        with pytest.raises(ValueError, match=f"^{path}:4: repeated system 'A'$"):
            load_judgments(path)

    @pytest.mark.parametrize("header", ["system,pyramid,pyramid", "system,pyramid,system"])
    def test_repeated_column_rejected(self, tmp_path, header):
        path = tmp_path / "judgments.csv"
        path.write_text(f"{header}\nA,0.5,0.1\n")
        repeated = header.rsplit(",", 1)[1]
        with pytest.raises(ValueError, match=f"column '{repeated}' appears more than once"):
            load_judgments(path)
