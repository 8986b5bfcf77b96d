"""Evaluation protocol: Hits@k, MRR, mean rank difference, and reports.

Hits@k follows the inclusive convention (rank <= k) and is reported both
as a count and as a percentage. The mean rank difference (after minus
before) is checked against its algebraic twin, the difference of mean
ranks, on every call. Ranks are filtered object-completion ranks with
optimistic ties (:func:`kgexplain.model.rank`). A report names its
equal-rank cohort, ``rank-<k>``: reciprocal-rank differences are comparable
only between equal starting ranks.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DomainError, KgExplainError
from .kg import KnowledgeGraph, Triple, _write_csv, _write_json
from .pareto import non_dominated

REPORT_SCHEMA_VERSION = 1
HITS_KS = (1, 2, 10)

PER_TRIPLE_CSV_COLUMNS = (
    "subject",
    "relation",
    "object",
    "rank_before",
    "rank_after",
    "reciprocal_before",
    "reciprocal_after",
    "changed",
)


class RankRow(NamedTuple):
    """A prediction's ranks before and after; in mode ``c-sufficient``, its targets' mean ranks."""

    triple: Triple
    rank_before: float
    rank_after: float


@dataclass(frozen=True)
class RankTable:
    """Before/after ranks for an evaluation set, one row per prediction."""

    rows: tuple[RankRow, ...]

    def __post_init__(self) -> None:
        seen = set()
        for row in self.rows:
            if row.rank_before < 1 or row.rank_after < 1:
                raise DomainError(f"ranks must be >= 1, got {row}")
            if row.triple in seen:
                raise DomainError(f"duplicate triple in rank table: {row.triple}")
            seen.add(row.triple)

    def __len__(self) -> int:
        return len(self.rows)

    def ranks(self, which: str) -> np.ndarray:
        if which == "before":
            return np.asarray([r.rank_before for r in self.rows], dtype=np.float64)
        if which == "after":
            return np.asarray([r.rank_after for r in self.rows], dtype=np.float64)
        raise DomainError(f"which must be 'before' or 'after', got {which!r}")


def hits_at_k(table: RankTable, k: int, which: str = "after") -> int:
    """Rows whose selected rank is at most k."""
    if k < 1:
        raise DomainError("k must be >= 1")
    if not table.rows:
        raise DomainError("hits@k is undefined on an empty table")
    return int((table.ranks(which) <= k).sum())


def mrr(table: RankTable, which: str = "after") -> float:
    """Mean reciprocal rank over the table."""
    if not table.rows:
        raise DomainError("MRR is undefined on an empty table")
    return float((1.0 / table.ranks(which)).mean())


def m_delta_r(table: RankTable) -> float:
    """Mean of per-row rank differences (after minus before).

    Verified on every call against the difference of mean ranks; the two
    must agree to 1e-12 times the larger mean rank (at least 1), the scale of
    their rounding error.
    """
    if not table.rows:
        raise DomainError("mean rank difference is undefined on an empty table")
    before = table.ranks("before")
    after = table.ranks("after")
    mean_of_diffs = float((after - before).mean())
    diff_of_means = float(after.mean() - before.mean())
    bound = 1e-12 * max(1.0, abs(before.mean()), abs(after.mean()))
    if abs(mean_of_diffs - diff_of_means) > bound:
        raise KgExplainError(
            f"mean-of-differences and difference-of-means disagree beyond {bound:.3g}"
        )
    return mean_of_diffs


def _sig6(x: float) -> float:
    return float(f"{x:.6g}")


def build_metrics_report(
    table: RankTable, runs: Sequence[dict], kg: KnowledgeGraph, cohort: str
) -> dict:
    """The ``report.json`` object: aggregate metrics and Hits at each of ``HITS_KS``.

    ``runs`` are run payloads, as ``read_run`` returns them. ``cohort`` names
    the equal-rank cohort the table's predictions come from. Each rounded
    value has its ``repr`` under ``full_precision``.
    """
    if not table.rows:
        raise DomainError("cannot build a metrics report from an empty table")
    hits = {}
    for k in HITS_KS:
        before, after = hits_at_k(table, k, "before"), hits_at_k(table, k, "after")
        hits[str(k)] = {
            "count_before": before,
            "count_after": after,
            "pct_before": _sig6(100.0 * (before / len(table))),
            "pct_after": _sig6(100.0 * (after / len(table))),
        }
    deltas = [r.rank_after - r.rank_before for r in table.rows]
    worst = max(range(len(deltas)), key=lambda i: deltas[i])
    lengths = [run["best"]["length"] for run in runs if run["best"]]
    full = {
        "mrr_before": mrr(table, "before"),
        "mrr_after": mrr(table, "after"),
        "m_delta_r": m_delta_r(table),
    }
    if lengths:
        full["mean_explanation_length"] = float(np.mean(lengths))
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "n_triples": len(table),
        "cohort": cohort,
        "mean_explanation_length": None,
        **{name: _sig6(value) for name, value in full.items()},
        "hits": hits,
        "per_triple_delta": deltas,
        "max_delta": {
            "value": deltas[worst],
            "triple": list(table.rows[worst].triple),
            "labels": list(kg.label_triple(table.rows[worst].triple)),
        },
        "full_precision": {name: repr(value) for name, value in full.items()},
    }


def emit_report(
    table: RankTable,
    runs: Sequence[dict],
    kg: KnowledgeGraph,
    out_dir: str | Path,
    cohort: str,
) -> dict:
    """Write ``report.json``, ``report_per_triple.csv`` and ``report_pareto.csv``.

    Runs are run payloads, as ``read_run`` returns them, for predictions
    present in the table. Returns the object that ``report.json`` holds.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    table_triples = {row.triple for row in table.rows}
    for run in runs:
        pred = Triple(*run["prediction"]["ids"])
        if pred not in table_triples:
            raise DomainError(f"run prediction {pred} is missing from the rank table")

    report = build_metrics_report(table, runs, kg, cohort)
    _write_json(out_dir / "report.json", report)
    _write_csv(out_dir / "report_per_triple.csv", [PER_TRIPLE_CSV_COLUMNS] + [
        [
            *kg.label_triple(row.triple), row.rank_before, row.rank_after,
            f"{1.0 / row.rank_before:.6g}", f"{1.0 / row.rank_after:.6g}",
            int(row.rank_after != row.rank_before),
        ]
        for row in table.rows
    ])
    _write_csv(out_dir / "report_pareto.csv", [["length", "psi", "triples"]] + [
        [p["length"], f"{p['psi']:.6g}", ";".join(",".join(map(str, t)) for t in p["triples"])]
        for run in runs for p in run["front"]
    ])
    return report


def comparison_table(summaries: Sequence[dict]) -> list[dict]:
    """Rows sorted by mean rank difference with non-dominated rows flagged.

    Each summary needs ``algorithm``, ``mean_length``, and ``m_delta_r``.
    Dominance treats shorter mean length and higher mean rank difference as
    better, through the same check the front construction uses.
    """
    if not summaries:
        return []
    points = [(float(s["mean_length"]), float(s["m_delta_r"])) for s in summaries]
    flags = non_dominated(points)
    rows = []
    for summary, flag in zip(summaries, flags):
        row = dict(summary)
        row["pareto_optimal"] = bool(flag)
        rows.append(row)
    rows.sort(key=lambda r: (-float(r["m_delta_r"]), float(r["mean_length"])))
    return rows
