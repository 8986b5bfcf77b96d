"""Why a single aggregate metric misleads, and what to report instead.

Two test triples both start at rank 2. Three explainers push their ranks to
(2,8), (3,3), and (2,4). The reciprocal-rank average orders them strictly,
yet hides that the second explainer moved both triples while the others
moved one. Pairing it with Hits@2, the mean rank difference, and per-triple
deltas makes the behavior visible. The comparison table also flags rows
that are non-dominated in (mean length, mean rank difference).
"""
from kgexplain import (
    RankRow,
    RankTable,
    Triple,
    comparison_table,
    hits_at_k,
    m_delta_r,
    mrr,
)


def table(after):
    rows = tuple(RankRow(Triple(i, 0, i + 1), 2, a) for i, a in enumerate(after))
    return RankTable(rows=rows)


print(f"{'explainer':<12} {'after':<8} {'MRR':<6} {'Hits@1':<7} {'Hits@2':<7} {'MdR':<5} per-triple dR")
for name, after in [("one-big", (2, 8)), ("two-small", (3, 3)), ("one-small", (2, 4))]:
    t = table(after)
    deltas = [r.rank_after - r.rank_before for r in t.rows]
    print(
        f"{name:<12} {str(after):<8} {mrr(t, 'after'):<6.2f} "
        f"{hits_at_k(t, 1):<7} {hits_at_k(t, 2):<7} {m_delta_r(t):<5.1f} {deltas}"
    )

print("""
reading the table:
  - by MRR alone: one-big (0.31) < two-small (0.33) < one-small (0.38),
    so one-big looks strongest and two-small beats one-small, although both
    moved a cumulative 2 ranks;
  - Hits@2 = 1, 0, 1 reveals that only two-small moved *both* triples;
  - the mean rank difference credits one-big's single large shift (3.0).
""")

print("equal-rank cohorts make reciprocal ranks comparable as differences:")
mixed = RankTable(
    rows=(
        RankRow(Triple(0, 0, 1), 1, 4),
        RankRow(Triple(1, 0, 2), 2, 2),
        RankRow(Triple(2, 0, 3), 1, 1),
    )
)
# `select` samples predictions of one starting rank, [selection] cohort_rank,
# and each report names that cohort as rank-<cohort_rank>
cohort = RankTable(rows=tuple(r for r in mixed.rows if r.rank_before == 1))
print(f"  cohort 'rank-1' keeps {len(cohort)} of {len(mixed)} rows")

print("\ncross-algorithm comparison, sorted by mean rank difference;")
print("rows not dominated in (mean length, mean rank difference) are flagged:")
rows = comparison_table(
    [
        {"algorithm": "variable-length", "mean_length": 3.92, "m_delta_r": 0.58},
        {"algorithm": "score-shift", "mean_length": 1.0, "m_delta_r": 0.30},
        {"algorithm": "variable-length-k1", "mean_length": 1.0, "m_delta_r": 0.28},
        {"algorithm": "rule-based", "mean_length": 1.0, "m_delta_r": 0.16},
        {"algorithm": "first-order", "mean_length": 1.0, "m_delta_r": 0.14},
    ]
)
for row in rows:
    star = " *" if row["pareto_optimal"] else ""
    print(f"  {row['algorithm']:<20} ML {row['mean_length']:<5} MdR {row['m_delta_r']:.2f}{star}")
