"""Correlation of metric scores with human judgments.

Pearson, Spearman (average ranks), and tie-corrected Kendall tau-b, with
seeded percentile-bootstrap confidence intervals and the Williams test for
the difference of two dependent correlations sharing one variable.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

COEFFICIENTS = ("pearson", "spearman", "kendall")


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


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    x, y = _as_array(x), _as_array(y)
    _check_pair(x, y)
    dx = x - np.mean(x)
    dy = y - np.mean(y)
    vx = float(np.sum(dx * dx))
    vy = float(np.sum(dy * dy))
    if vx == 0.0 or vy == 0.0:
        raise ValueError("zero variance")
    return float(np.sum(dx * dy)) / math.sqrt(vx * vy)


def average_ranks(x: Sequence[float]) -> np.ndarray:
    """Fractional ranks (1-based); ties get the mean of their positions."""
    x = _as_array(x)
    order = np.argsort(x, kind="stable")
    ranks = np.empty(len(x), dtype=np.float64)
    i = 0
    while i < len(x):
        j = i
        while j + 1 < len(x) and x[order[j + 1]] == x[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j + 2) / 2.0  # mean of 1-based i+1..j+1
        i = j + 1
    return ranks


def spearman(x: Sequence[float], y: Sequence[float]) -> float:
    x, y = _as_array(x), _as_array(y)
    _check_pair(x, y)
    return pearson(average_ranks(x), average_ranks(y))


def kendall(x: Sequence[float], y: Sequence[float], variant: str = "b") -> float:
    """Kendall rank correlation; tau-b (tie-corrected) by default, tau-a
    via variant="a"."""
    if variant not in ("a", "b"):
        raise ValueError(f"variant must be 'a' or 'b', got {variant!r}")
    x, y = _as_array(x), _as_array(y)
    _check_pair(x, y)
    n = len(x)
    iu = np.triu_indices(n, k=1)
    dx = np.sign(x[:, None] - x[None, :])[iu]
    dy = np.sign(y[:, None] - y[None, :])[iu]
    product = dx * dy
    concordant = int(np.sum(product > 0))
    discordant = int(np.sum(product < 0))
    pairs = n * (n - 1) // 2
    if variant == "a":
        return (concordant - discordant) / pairs
    ties_x = int(np.sum(dx == 0))
    ties_y = int(np.sum(dy == 0))
    denom = (pairs - ties_x) * (pairs - ties_y)
    if denom == 0:
        raise ValueError("zero variance")
    return (concordant - discordant) / math.sqrt(denom)


_COEFF_FUNCS = {"pearson": pearson, "spearman": spearman, "kendall": kendall}


def bootstrap_ci(
    x: Sequence[float],
    y: Sequence[float],
    coefficient: str = "pearson",
    resamples: int = 1000,
    confidence: float = 0.95,
    seed: int = 42,
) -> tuple[float, float]:
    """Seeded percentile bootstrap interval for a correlation coefficient.

    Rows are resampled with replacement; a resample with a constant column
    is redrawn (total retries capped at 10x resamples). Each resample uses
    its own child stream of the seed, so output is identical for identical
    seeds regardless of evaluation order.
    """
    if coefficient not in _COEFF_FUNCS:
        raise ValueError(f"unknown coefficient {coefficient!r}")
    x, y = _as_array(x), _as_array(y)
    _check_pair(x, y)
    if len(x) < 4:
        raise ValueError(f"need at least 4 rows, got {len(x)}")
    func = _COEFF_FUNCS[coefficient]
    n = len(x)
    retries_left = 10 * resamples
    values = np.empty(resamples, dtype=np.float64)
    children = np.random.SeedSequence(seed).spawn(resamples)
    for i in range(resamples):
        rng = np.random.default_rng(children[i])
        while True:
            idx = rng.integers(0, n, size=n)
            bx, by = x[idx], y[idx]
            if np.all(bx == bx[0]) or np.all(by == by[0]):
                retries_left -= 1
                if retries_left < 0:
                    raise ValueError("bootstrap exceeded retry cap on degenerate resamples")
                continue
            values[i] = func(bx, by)
            break
    tail = 100.0 * (1.0 - confidence) / 2.0
    lo, hi = np.percentile(values, [tail, 100.0 - tail])
    return float(lo), float(hi)


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
    # imported here, not at module level: importing scipy.stats takes about
    # half a second and only this test needs it
    from scipy import stats as scipy_stats

    p = float(scipy_stats.t.sf(t, n - 3))
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
            if np.any(np.isnan(column)):
                raise ValueError(f"column {name!r} has missing values")

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
    baseline: str | None = None
    alpha: float = 0.05

    def to_csv_bytes(self) -> bytes:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow([
            "auto_metric", "human_metric", "n",
            "pearson", "pearson_ci_lo", "pearson_ci_hi",
            "spearman", "spearman_ci_lo", "spearman_ci_hi",
            "kendall", "kendall_ci_lo", "kendall_ci_hi",
            "williams_p", "significant",
        ])
        for r in self.rows:
            writer.writerow([
                r.auto_metric, r.human_metric, r.n,
                f"{r.pearson:.12g}", f"{r.pearson_ci[0]:.12g}", f"{r.pearson_ci[1]:.12g}",
                f"{r.spearman:.12g}", f"{r.spearman_ci[0]:.12g}", f"{r.spearman_ci[1]:.12g}",
                f"{r.kendall:.12g}", f"{r.kendall_ci[0]:.12g}", f"{r.kendall_ci[1]:.12g}",
                "" if r.williams_p is None else f"{r.williams_p:.12g}",
                "" if r.significant is None else str(r.significant).lower(),
            ])
        return buf.getvalue().encode("utf-8")

    def write_csv(self, path: str | Path) -> None:
        Path(path).write_bytes(self.to_csv_bytes())


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
    """
    if table.n < 4:
        raise ValueError(f"need at least 4 rows, got {table.n}")
    if significance_against is not None and significance_against not in table.auto:
        raise ValueError(f"baseline column {significance_against!r} not in table")
    report = CorrelationReport(baseline=significance_against, alpha=alpha)
    for auto_name in table.auto:
        a = table.auto[auto_name]
        for human_name in table.human:
            h = table.human[human_name]
            row_kendall = kendall(a, h, variant=kendall_variant)
            williams_p: float | None = None
            significant: bool | None = None
            if significance_against is not None and auto_name != significance_against:
                base = table.auto[significance_against]
                result = williams_test(
                    pearson(a, h), pearson(base, h), pearson(base, a), table.n
                )
                williams_p = result.p
                significant = result.p < alpha
            report.rows.append(CorrelationRow(
                auto_metric=auto_name,
                human_metric=human_name,
                n=table.n,
                pearson=pearson(a, h),
                pearson_ci=bootstrap_ci(a, h, "pearson", resamples, confidence, seed),
                spearman=spearman(a, h),
                spearman_ci=bootstrap_ci(a, h, "spearman", resamples, confidence, seed),
                kendall=row_kendall,
                kendall_ci=bootstrap_ci(a, h, "kendall", resamples, confidence, seed),
                williams_p=williams_p,
                significant=significant,
            ))
    return report


def load_judgments(path: str | Path) -> tuple[str, list[str], dict[str, np.ndarray]]:
    """Read a judgments CSV: header row, first column is the system id,
    remaining columns numeric. Returns (join column name, ids, columns)."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or len(header) < 2:
            raise ValueError(f"{path}: expected a header with at least 2 columns")
        join_name, *metric_names = header
        ids: list[str] = []
        values: list[list[float]] = [[] for _ in metric_names]
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(f"{path}:{lineno}: expected {len(header)} fields")
            ids.append(row[0])
            for i, cell in enumerate(row[1:]):
                try:
                    values[i].append(float(cell))
                except ValueError:
                    raise ValueError(f"{path}:{lineno}: non-numeric cell {cell!r}") from None
    columns = {name: np.array(vals, dtype=np.float64) for name, vals in zip(metric_names, values)}
    return join_name, ids, columns
