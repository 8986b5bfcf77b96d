"""Evaluation metrics: hits, reciprocal ranks, rank differences, reports."""
from __future__ import annotations

import csv
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kgexplain import (
    DomainError,
    ExplainerConfig,
    RankRow,
    RankTable,
    Triple,
    build_metrics_report,
    build_search_space,
    comparison_table,
    emit_report,
    hits_at_k,
    m_delta_r,
    mrr,
    rank,
)
from kgexplain.explainers import explain


def table(before_after):
    rows = tuple(
        RankRow(Triple(i, 0, i + 1), b, a) for i, (b, a) in enumerate(before_after)
    )
    return RankTable(rows=rows)


class TestWorkedToyExample:
    """Two triples start at rank (2,2); three algorithms yield (2,8), (3,3), (2,4)."""

    def test_first_algorithm(self):
        t = table([(2, 2), (2, 8)])
        assert mrr(t, "after") == pytest.approx(0.3125)
        assert round(mrr(t, "after"), 2) == 0.31
        assert [hits_at_k(t, k) for k in (1, 2, 10)] == [0, 1, 2]
        assert m_delta_r(t) == pytest.approx(3.0)  # mean of the (0, 6) differences

    def test_second_algorithm(self):
        t = table([(2, 3), (2, 3)])
        assert mrr(t, "after") == pytest.approx(1 / 3)
        assert round(mrr(t, "after"), 2) == 0.33
        assert [hits_at_k(t, k) for k in (1, 2, 10)] == [0, 0, 2]

    def test_third_algorithm(self):
        t = table([(2, 2), (2, 4)])
        assert mrr(t, "after") == pytest.approx(0.375)
        assert f"{mrr(t, 'after'):.2f}" == "0.38"
        assert [hits_at_k(t, k) for k in (1, 2, 10)] == [0, 1, 2]

    def test_mrr_ordering_coexists_with_hits_pattern(self):
        mrrs = [
            mrr(table([(2, 2), (2, 8)]), "after"),
            mrr(table([(2, 3), (2, 3)]), "after"),
            mrr(table([(2, 2), (2, 4)]), "after"),
        ]
        hits2 = [
            hits_at_k(table([(2, 2), (2, 8)]), 2),
            hits_at_k(table([(2, 3), (2, 3)]), 2),
            hits_at_k(table([(2, 2), (2, 4)]), 2),
        ]
        assert mrrs[0] < mrrs[1] < mrrs[2]
        assert hits2 == [1, 0, 1]


class TestHits:
    def test_all_rank_one(self):
        t = table([(1, 1)] * 5)
        assert hits_at_k(t, 1) == 5

    def test_monotone_in_k(self):
        t = table([(1, r) for r in (1, 3, 5, 7, 20)])
        values = [hits_at_k(t, k) for k in range(1, 25)]
        assert values == sorted(values)
        assert hits_at_k(t, 10**6) == len(t)

    def test_validation(self):
        with pytest.raises(DomainError):
            hits_at_k(RankTable(rows=()), 1)
        with pytest.raises(DomainError):
            hits_at_k(table([(1, 1)]), 0)


class TestMrr:
    def test_all_rank_one_is_unity(self):
        assert mrr(table([(1, 1)] * 4), "after") == 1.0

    def test_bounded_in_unit_interval(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            ranks = [(1, int(r)) for r in rng.integers(1, 500, size=10)]
            value = mrr(table(ranks), "after")
            assert 0 < value <= 1
            assert (value == 1.0) == all(a == 1 for _, a in ranks)


class TestMeanRankDifference:
    def test_identical_columns_give_zero(self):
        assert m_delta_r(table([(3, 3), (7, 7)])) == 0.0

    def test_two_computation_orders_agree(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            n = int(rng.integers(1, 30))
            rows = [
                (int(rng.integers(1, 10000)), int(rng.integers(1, 10000)))
                for _ in range(n)
            ]
            t = table(rows)
            value = m_delta_r(t)
            diff_of_means = float(np.mean([a for _, a in rows]) - np.mean([b for b, _ in rows]))
            assert abs(value - diff_of_means) <= 1e-12

    def test_large_ranks_agree_within_their_rounding(self):
        # mean ranks in the thousands, as a removal on FB15k-237 can give: the two
        # orders round apart by more than an absolute 1e-12, but within 1e-12 of the means
        before = [2, 1, 2, 2, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 1, 2, 1]
        after = [
            4151, 9810, 13227, 6771, 13987, 4208, 865, 9911, 3040,
            14163, 8187, 13982, 11207, 10030, 931, 12205, 2688,
        ]
        value = m_delta_r(table(list(zip(before, after))))
        assert value == pytest.approx(np.mean(after) - np.mean(before), rel=1e-12)


class TestRankTableValidation:
    def test_duplicate_triple_rejected(self):
        rows = (RankRow(Triple(0, 0, 1), 1, 1), RankRow(Triple(0, 0, 1), 2, 2))
        with pytest.raises(DomainError):
            RankTable(rows=rows)

    def test_rank_below_one_rejected(self):
        with pytest.raises(DomainError):
            RankTable(rows=(RankRow(Triple(0, 0, 1), 0, 1),))


class TestEmitReport(object):
    @pytest.fixture()
    def run_setup(self, tiny_kg, tiny_config, tiny_model):
        predictions = [t for t in tiny_kg.train if rank(tiny_model, t, tiny_kg) == 1][:3]
        runs, rows = [], []
        for p in predictions:
            space = build_search_space(tiny_kg, "shares-entity", p)
            run = explain(
                tiny_kg, tiny_model, p, "exhaustive-length-1", "necessary", space,
                ExplainerConfig(), tiny_config,
            )
            runs.append(run)
            rows.append(RankRow(p, run["prediction"]["rank_before"], int(run["best"]["rank_after"])))
        return RankTable(rows=tuple(rows)), runs

    def test_writes_three_files_with_expected_content(self, run_setup, tiny_kg, tmp_path):
        t, runs = run_setup
        emit_report(t, runs, tiny_kg, tmp_path, "rank-1")
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["n_triples"] == len(t)
        assert report["cohort"] == "rank-1"
        assert "full_precision" in report
        assert report["max_delta"]["value"] == max(
            r.rank_after - r.rank_before for r in t.rows
        )
        with (tmp_path / "report_per_triple.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(t)
        for row, rank_row in zip(rows, t.rows):
            assert int(row["changed"]) == int(rank_row.rank_after != rank_row.rank_before)
        with (tmp_path / "report_pareto.csv").open() as fh:
            front_rows = list(csv.DictReader(fh))
        assert len(front_rows) == sum(len(r["front"]) for r in runs)

    def test_mean_length_cross_checked_by_hand(self, run_setup, tiny_kg):
        t, runs = run_setup
        report = build_metrics_report(t, runs, tiny_kg, "rank-1")
        by_hand = np.mean([len(r["best"]["triples"]) for r in runs])
        assert report["mean_explanation_length"] == pytest.approx(by_hand)

    def test_unchanged_runs_all_flagged_unchanged(self, tiny_kg, tmp_path):
        t = table([(2, 2), (3, 3)])
        emit_report(t, [], tiny_kg, tmp_path, "rank-1")
        with (tmp_path / "report_per_triple.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert all(row["changed"] == "0" for row in rows)

    def test_inconsistent_run_prediction_rejected(self, run_setup, tiny_kg, tmp_path):
        t, runs = run_setup
        shorter = RankTable(rows=t.rows[1:])
        with pytest.raises(DomainError):
            emit_report(shorter, runs, tiny_kg, tmp_path, "rank-1")

    def test_six_significant_digit_serialization(self, tiny_kg, tmp_path):
        t = table([(3, 7), (3, 9), (3, 11)])
        emit_report(t, [], tiny_kg, tmp_path, "rank-3")
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["mrr_after"] == float(f"{mrr(t, 'after'):.6g}")
        assert float(report["full_precision"]["mrr_after"]) == mrr(t, "after")

    def test_worked_example_report_reproduces_columns(self, tiny_kg, tmp_path):
        t = table([(2, 2), (2, 8)])
        emit_report(t, [], tiny_kg, tmp_path, "rank-2")
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["mrr_after"] == 0.3125
        assert report["mrr_before"] == 0.5
        assert report["hits"]["1"]["count_after"] == 0
        assert report["hits"]["2"]["count_after"] == 1
        assert report["hits"]["10"]["count_after"] == 2
        assert report["m_delta_r"] == 3.0
        assert report["per_triple_delta"] == [0, 6]


class TestComparisonTable:
    def test_published_pairs_flag_exactly_two_rows(self):
        summaries = [
            {"algorithm": "variable-length", "mean_length": 3.92, "m_delta_r": 0.58},
            {"algorithm": "score-shift", "mean_length": 1.0, "m_delta_r": 0.30},
            {"algorithm": "variable-length-k1", "mean_length": 1.0, "m_delta_r": 0.28},
            {"algorithm": "rule-based", "mean_length": 1.0, "m_delta_r": 0.16},
            {"algorithm": "first-order", "mean_length": 1.0, "m_delta_r": 0.14},
        ]
        rows = comparison_table(summaries)
        flagged = {r["algorithm"] for r in rows if r["pareto_optimal"]}
        assert flagged == {"variable-length", "score-shift"}

    def test_sorted_by_mean_rank_difference_descending(self):
        summaries = [
            {"algorithm": "a", "mean_length": 1.0, "m_delta_r": 0.1},
            {"algorithm": "b", "mean_length": 2.0, "m_delta_r": 0.9},
            {"algorithm": "c", "mean_length": 1.0, "m_delta_r": 0.5},
        ]
        rows = comparison_table(summaries)
        assert [r["algorithm"] for r in rows] == ["b", "c", "a"]

    def test_single_algorithm_trivially_optimal(self):
        rows = comparison_table(
            [{"algorithm": "only", "mean_length": 2.0, "m_delta_r": 0.0}]
        )
        assert rows[0]["pareto_optimal"] is True

    def test_shorter_at_equal_effect_dominates(self):
        rows = comparison_table(
            [
                {"algorithm": "short", "mean_length": 1.0, "m_delta_r": 0.30},
                {"algorithm": "long", "mean_length": 2.0, "m_delta_r": 0.30},
            ]
        )
        flags = {r["algorithm"]: r["pareto_optimal"] for r in rows}
        assert flags == {"short": True, "long": False}


@given(
    st.lists(
        st.tuples(st.integers(1, 50), st.integers(1, 50)),
        min_size=1,
        max_size=30,
    )
)
def test_identity_property_on_arbitrary_tables(pairs):
    t = table(pairs)
    value = m_delta_r(t)
    assert abs(
        value
        - (np.mean([a for _, a in pairs]) - np.mean([b for b, _ in pairs]))
    ) <= 1e-12
