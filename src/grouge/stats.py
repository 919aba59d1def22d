"""Correlation of metric scores with human judgments.

Pearson, Spearman (average ranks), and tie-corrected Kendall tau-b, with
seeded percentile-bootstrap confidence intervals and the Williams test for
the difference of two dependent correlations sharing one variable.
"""

from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .fileio import csv_bytes, csv_rows, write_atomic

COEFFICIENTS = ("pearson", "spearman", "kendall")
_MAX_RESAMPLES = 100_000  # 100 times correlate's default


def _as_array(x: Sequence[float]) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError("expected a 1-d vector")
    return arr


def _check_pair(x: np.ndarray, y: np.ndarray) -> None:
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    if len(x) < 3:
        raise ValueError(f"need at least 3 points, got {len(x)}")


def _pearson_rows(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Pearson coefficient of each row of x with the same row of y."""
    dx = x - np.mean(x, axis=1, keepdims=True)
    dy = y - np.mean(y, axis=1, keepdims=True)
    return _deviation_rows(dx, dy)


def _deviation_rows(dx: np.ndarray, dy: np.ndarray, weight: np.ndarray | float = 1.0) -> np.ndarray:
    """Pearson coefficient of each row from its deviations from the row
    means, entry i counted weight[:, i] times."""
    scale = np.sqrt(np.sum(weight * dx * dx, axis=1) * np.sum(weight * dy * dy, axis=1))
    if np.any(scale == 0.0):  # a zero variance, or a product that underflows
        raise ValueError("zero variance")
    return np.sum(weight * dx * dy, axis=1) / scale


def _multiplicities(idx: np.ndarray, n: int) -> np.ndarray:
    """counts[r, a]: how many times original a is drawn in row r of idx."""
    flat = idx + n * np.arange(len(idx))[:, None]
    return np.bincount(flat.ravel(), minlength=idx.size).reshape(idx.shape).astype(np.float64)


def _counted_ranks(x: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Fractional rank (1-based) of each original x[a] in each resample,
    where counts[r, a] is how often a is drawn in resample r: the draws
    below it, plus half of one more than the draws equal to it. Values in
    one run of the stably sorted x are equal; each nan is a run of its own.
    The products are multiples of 1/2 summing to at most n, so exact."""
    order = np.argsort(x, kind="stable")
    ordered = x[order]
    run = np.empty(len(x), dtype=np.intp)
    run[order] = np.cumsum(np.append(True, ordered[1:] != ordered[:-1]))
    below = (run[:, None] < run) + (run[:, None] == run) / 2
    return counts @ below + 0.5


def _spearman_rows(x: np.ndarray, y: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Spearman coefficient of each resample, from its multiplicities.

    The n ranks of a resample have mean (n + 1) / 2 exactly, so each
    deviation is a multiple of 1/2 and each counted product a multiple of
    1/4 of magnitude at most n^3 / 4. Every partial sum is then exact
    while n^3 < 2^53 (n below ~208,000 systems), and the sums equal the
    sums over the resample's positions bit for bit.
    """
    mean = (counts.shape[1] + 1) / 2
    dx, dy = _counted_ranks(x, counts) - mean, _counted_ranks(y, counts) - mean
    return _deviation_rows(dx, dy, counts)


def _kendall_rows(x: np.ndarray, y: np.ndarray, counts: np.ndarray, variant: str) -> np.ndarray:
    """Kendall coefficient of each resample, from its multiplicities.

    Of a resample's pairs of positions, counts[a] * counts[b] are drawn
    from originals a < b and C(counts[a], 2) from a twice; a table over
    the originals says which of the four classes each such pair is in.
    The class counts are row sums of integer products below 2^53, so the
    float64 products and sums are exact under any BLAS blocking or thread
    count.
    """
    n = counts.shape[1]
    dx = np.sign(x[:, None] - x[None, :])
    dy = np.sign(y[:, None] - y[None, :])
    product = dx * dy
    tables = np.array([product > 0, product < 0, dx == 0, dy == 0], dtype=np.float64)
    twice = counts * (counts - 1) / 2
    # concordant, discordant, tied in x, tied in y; a value drawn twice is
    # tied with itself unless x - x is nan (an infinite or nan value)
    classes = [np.sum((counts @ np.triu(table, k=1)) * counts, axis=1) + twice @ np.diag(table)
               for table in tables]
    concordant, discordant, ties_x, ties_y = np.array(classes).astype(np.int64)
    pairs = n * (n - 1) // 2
    if variant == "a":
        return (concordant - discordant) / pairs
    denom = (pairs - ties_x) * (pairs - ties_y)
    if np.any(denom == 0):
        raise ValueError("zero variance")
    return (concordant - discordant) / np.sqrt(denom)


def _check_variant(variant: str) -> None:
    if variant not in ("a", "b"):
        raise ValueError(f"variant must be 'a' or 'b', got {variant!r}")


def check_resamples(resamples: int) -> None:
    """The range of ``bootstrap_ci``'s resample count. Memory grows with
    it: meta-eval over 50 systems peaks near 330 MiB at the upper bound."""
    if resamples < 1:
        raise ValueError(f"resamples must be >= 1, got {resamples}")
    if resamples > _MAX_RESAMPLES:
        raise ValueError(f"resamples must be <= {_MAX_RESAMPLES}, got {resamples}")


def check_seed(seed: int) -> None:
    """The range of ``bootstrap_ci``'s seed: any integer >= 0."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")


def check_significance_level(alpha: float) -> None:
    """The range of ``correlate``'s significance level."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    x, y = _as_array(x), _as_array(y)
    _check_pair(x, y)
    return float(_pearson_rows(x[None, :], y[None, :])[0])


def average_ranks(x: Sequence[float]) -> np.ndarray:
    """Fractional ranks (1-based); ties get the mean of their positions."""
    x = _as_array(x)
    return _counted_ranks(x, np.ones((1, len(x))))[0]


def spearman(x: Sequence[float], y: Sequence[float]) -> float:
    x, y = _as_array(x), _as_array(y)
    _check_pair(x, y)
    return pearson(average_ranks(x), average_ranks(y))


def kendall(x: Sequence[float], y: Sequence[float], variant: str = "b") -> float:
    """Kendall rank correlation; tau-b (tie-corrected) by default, tau-a
    via variant="a"."""
    _check_variant(variant)
    x, y = _as_array(x), _as_array(y)
    _check_pair(x, y)
    return float(_kendall_rows(x, y, np.ones((1, len(x))), variant)[0])


def coefficients(
    x: Sequence[float], y: Sequence[float], kendall_variant: str = "b"
) -> tuple[float, float, float]:
    """The Pearson, Spearman and Kendall coefficients of one column pair."""
    return pearson(x, y), spearman(x, y), kendall(x, y, kendall_variant)


@functools.lru_cache(maxsize=4)
def _resample_rows(seed: int, n: int, resamples: int) -> np.ndarray:
    """Row i holds the first n indices drawn from child stream i of the
    seed. Shared by every column pair, so it is read-only."""
    children = np.random.SeedSequence(seed).spawn(resamples)
    rows = np.empty((resamples, n), dtype=np.int64)
    for i, child in enumerate(children):
        rows[i] = np.random.default_rng(child).integers(0, n, size=n)
    rows.flags.writeable = False
    return rows


@functools.lru_cache(maxsize=4)
def _resample_counts(seed: int, n: int, resamples: int) -> np.ndarray:
    """The multiplicities of ``_resample_rows``' rows, read-only like them."""
    counts = _multiplicities(_resample_rows(seed, n, resamples), n)
    counts.flags.writeable = False
    return counts


def _constant(m: np.ndarray) -> np.ndarray:
    """Whether each row (the last axis) holds a single value."""
    return np.all(m == m[..., :1], axis=-1)


def bootstrap_ci(
    x: Sequence[float],
    y: Sequence[float],
    coefficient: str = "pearson",
    resamples: int = 1000,
    confidence: float = 0.95,
    seed: int = 42,
    kendall_variant: str = "b",
) -> tuple[float, float]:
    """Seeded percentile bootstrap interval for a correlation coefficient.

    Rows are resampled with replacement; a resample with a constant column
    is redrawn (total retries capped at 10x resamples). Each resample uses
    its own child stream of the seed, so output is identical for identical
    seeds regardless of evaluation order. The first draw of every stream
    is made once per (seed, n, resamples) and shared by all column pairs;
    only a pair's degenerate resamples are redrawn, each by replaying its
    own stream. Kendall intervals use kendall_variant.

    Pearson is computed from the drawn values, whose order its float sums
    depend on. Spearman and Kendall depend only on how many times each
    row is drawn; those counts are made once with the shared draw, and
    again for a pair with redrawn resamples.
    """
    if coefficient not in COEFFICIENTS:
        raise ValueError(f"unknown coefficient {coefficient!r}")
    _check_variant(kendall_variant)
    check_resamples(resamples)
    check_seed(seed)
    x, y = _as_array(x), _as_array(y)
    _check_pair(x, y)
    if len(x) < 4:
        raise ValueError(f"need at least 4 rows, got {len(x)}")
    n = len(x)
    idx = _resample_rows(seed, n, resamples)
    stop = resamples  # rows before a retry-cap failure, or all of them
    degenerate = np.flatnonzero(_constant(x[idx]) | _constant(y[idx]))
    if len(degenerate):
        idx = idx.copy()
        retries_left = 10 * resamples
        for i in degenerate:
            # child i of the seed, replayed past its shared first draw
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(int(i),)))
            row = rng.integers(0, n, size=n)
            while _constant(x[row]) or _constant(y[row]):
                retries_left -= 1
                if retries_left < 0:
                    break
                row = rng.integers(0, n, size=n)
            if retries_left < 0:
                stop = int(i)
                break
            idx[i] = row
    # rows before a failure are still evaluated: one with zero variance
    # raises first, as it would one resample at a time
    if coefficient == "pearson":  # its float sums depend on the order of the draws
        values = _pearson_rows(x[idx[:stop]], y[idx[:stop]])
    else:
        counts = _multiplicities(idx, n) if len(degenerate) else _resample_counts(seed, n, resamples)
        values = (_kendall_rows(x, y, counts[:stop], kendall_variant) if coefficient == "kendall"
                  else _spearman_rows(x, y, counts[:stop]))
    if stop < resamples:
        raise ValueError("bootstrap exceeded retry cap on degenerate resamples")
    tail = 100.0 * (1.0 - confidence) / 2.0
    lo, hi = _percentiles(values, [tail, 100.0 - tail])
    return float(lo), float(hi)


def _percentiles(values: np.ndarray, q: Sequence[float]) -> np.ndarray:
    """``np.percentile(values, q)`` of a 1-d float64 array, bit for bit.

    The same steps as numpy's default 'linear' method: the same partition,
    the same neighbouring order statistics and the same interpolation,
    which computes from the upper neighbour when the weight is at least
    one half. np.percentile finds its partition points with np.unique,
    which imports numpy.ma, a cost meta-eval need not pay.
    """
    quantiles = np.asarray(q, dtype=np.float64) / 100
    if not np.all((0 <= quantiles) & (quantiles <= 1)):
        raise ValueError("Percentiles must be in the range [0, 100]")
    n = len(values)
    virtual = (n - 1) * quantiles
    below = np.floor(virtual)
    above = below + 1
    last = virtual >= n - 1
    below[last] = above[last] = -1
    below, above = below.astype(np.intp), above.astype(np.intp)
    gamma = virtual - below
    ordered = np.partition(values, sorted({0, -1, *below.tolist(), *above.tolist()}))
    if np.isnan(ordered[-1]):  # a NaN sorts last, and every percentile is it
        return np.full(len(quantiles), ordered[-1])
    a, b = ordered[below], ordered[above]
    diff = b - a
    return np.where(gamma >= 0.5, b - diff * (1 - gamma), a + diff * gamma)


@dataclass(frozen=True)
class WilliamsResult:
    r12: float
    r13: float
    r23: float
    n: int
    t: float
    p: float


def williams_test(r12: float, r13: float, r23: float, n: int) -> WilliamsResult:
    """One-sided test of r12 > r13 for dependent correlations sharing
    variable 1, evaluated against Student t with n - 3 degrees of freedom."""
    for name, r in (("r12", r12), ("r13", r13), ("r23", r23)):
        if not -1.0 < r < 1.0:
            raise ValueError(f"{name} must be in (-1, 1), got {r}")
    if n < 4:
        raise ValueError(f"need n >= 4, got {n}")
    det = 1.0 - r12 * r12 - r13 * r13 - r23 * r23 + 2.0 * r12 * r13 * r23
    rbar = (r12 + r13) / 2.0
    radicand = 2.0 * det * (n - 1) / (n - 3) + rbar * rbar * (1.0 - r23) ** 3
    if radicand <= 0.0:
        raise ValueError("correlations are not jointly consistent")
    t = (r12 - r13) * math.sqrt((n - 1) * (1.0 + r23)) / math.sqrt(radicand)
    # imported here, not at module level: only this test needs it, and
    # stdtr (the Student t distribution function) spares loading scipy.stats
    from scipy.special import stdtr

    p = float(stdtr(n - 3, -t))
    return WilliamsResult(r12=r12, r13=r13, r23=r23, n=n, t=t, p=p)


# ---------------------------------------------------------------------------
# judgment tables and the correlation report
# ---------------------------------------------------------------------------


@dataclass
class JudgmentTable:
    """One row per system: human judgment columns plus metric score columns."""

    systems: list[str]
    human: dict[str, np.ndarray]
    auto: dict[str, np.ndarray]

    def __post_init__(self) -> None:
        if len(set(self.systems)) != len(self.systems):
            raise ValueError("system ids must be unique")
        for name, column in list(self.human.items()) + list(self.auto.items()):
            if len(column) != len(self.systems):
                raise ValueError(f"column {name!r} length mismatch")
            if not np.all(np.isfinite(column)):
                raise ValueError(f"column {name!r} has missing or non-finite values")

    @property
    def n(self) -> int:
        return len(self.systems)


@dataclass(frozen=True)
class CorrelationRow:
    auto_metric: str
    human_metric: str
    n: int
    pearson: float
    pearson_ci: tuple[float, float]
    spearman: float
    spearman_ci: tuple[float, float]
    kendall: float
    kendall_ci: tuple[float, float]
    williams_p: float | None
    significant: bool | None


@dataclass
class CorrelationReport:
    rows: list[CorrelationRow] = field(default_factory=list)

    def to_csv_bytes(self) -> bytes:
        rows: list[list] = [[
            "auto_metric", "human_metric", "n",
            "pearson", "pearson_ci_lo", "pearson_ci_hi",
            "spearman", "spearman_ci_lo", "spearman_ci_hi",
            "kendall", "kendall_ci_lo", "kendall_ci_hi",
            "williams_p", "significant",
        ]]
        for r in self.rows:
            rows.append([
                r.auto_metric, r.human_metric, r.n,
                f"{r.pearson:.12g}", f"{r.pearson_ci[0]:.12g}", f"{r.pearson_ci[1]:.12g}",
                f"{r.spearman:.12g}", f"{r.spearman_ci[0]:.12g}", f"{r.spearman_ci[1]:.12g}",
                f"{r.kendall:.12g}", f"{r.kendall_ci[0]:.12g}", f"{r.kendall_ci[1]:.12g}",
                "" if r.williams_p is None else f"{r.williams_p:.12g}",
                "" if r.significant is None else str(r.significant).lower(),
            ])
        return csv_bytes(rows)

    def write_csv(self, path: str | Path) -> None:
        write_atomic(path, self.to_csv_bytes())


def correlate(
    table: JudgmentTable,
    significance_against: str | None = None,
    alpha: float = 0.05,
    resamples: int = 1000,
    confidence: float = 0.95,
    seed: int = 42,
    kendall_variant: str = "b",
) -> CorrelationReport:
    """All three coefficients per (auto, human) column pair, with bootstrap
    intervals, plus Williams significance against a baseline auto column.

    The Williams test compares Pearson correlations, its classical setting.
    A row whose three correlations the test rejects (a column equal to the
    baseline has r23 = 1) gets no Williams p-value, like the baseline's own
    rows.
    """
    check_significance_level(alpha)
    if table.n < 4:
        raise ValueError(f"need at least 4 rows, got {table.n}")
    if significance_against is not None and significance_against not in table.auto:
        raise ValueError(f"baseline column {significance_against!r} not in table")
    report = CorrelationReport()
    for auto_name in table.auto:
        a = table.auto[auto_name]
        for human_name in table.human:
            h = table.human[human_name]
            r_pearson, r_spearman, r_kendall = coefficients(a, h, kendall_variant)
            williams_p: float | None = None
            significant: bool | None = None
            if significance_against is not None and auto_name != significance_against:
                base = table.auto[significance_against]
                with contextlib.suppress(ValueError):  # the test rejects the correlations
                    result = williams_test(r_pearson, pearson(base, h), pearson(base, a), table.n)
                    williams_p, significant = result.p, result.p < alpha
            report.rows.append(CorrelationRow(
                auto_metric=auto_name,
                human_metric=human_name,
                n=table.n,
                pearson=r_pearson,
                pearson_ci=bootstrap_ci(a, h, "pearson", resamples, confidence, seed),
                spearman=r_spearman,
                spearman_ci=bootstrap_ci(a, h, "spearman", resamples, confidence, seed),
                kendall=r_kendall,
                kendall_ci=bootstrap_ci(
                    a, h, "kendall", resamples, confidence, seed, kendall_variant
                ),
                williams_p=williams_p,
                significant=significant,
            ))
    return report


def load_judgments(path: str | Path) -> tuple[list[str], dict[str, np.ndarray]]:
    """Read a judgments CSV: header row, first column is the system id
    (each at most once), remaining columns numeric. Returns (ids, columns)."""
    rows = csv_rows(path)
    header = next(rows, (0, None))[1]
    if not header or len(header) < 2:
        raise ValueError(f"{path}: expected a header with at least 2 columns")
    repeated = [name for i, name in enumerate(header) if name in header[:i]]
    if repeated:
        raise ValueError(f"{path}: column {repeated[0]!r} appears more than once")
    metric_names = header[1:]
    ids: list[str] = []
    values: list[list[float]] = [[] for _ in metric_names]
    for lineno, row in rows:
        if not row:
            continue
        if len(row) != len(header):
            raise ValueError(f"{path}:{lineno}: expected {len(header)} fields")
        if row[0] in ids:
            raise ValueError(f"{path}:{lineno}: repeated system {row[0]!r}")
        ids.append(row[0])
        for i, cell in enumerate(row[1:]):
            try:
                values[i].append(float(cell))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-numeric cell {cell!r}") from None
    columns = {name: np.array(vals, dtype=np.float64) for name, vals in zip(metric_names, values)}
    return ids, columns
