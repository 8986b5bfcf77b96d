"""Dominance and front construction over (length, effectiveness)."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgexplain import (
    CandidateExplanation,
    DomainError,
    EffectivenessResult,
    Triple,
    non_dominated,
    pareto_front,
)


def candidate(length: int, psi: float):
    triples = frozenset(Triple(i, 0, i + 1) for i in range(length))
    result = EffectivenessResult(
        psi=psi, rank_before=1, rank_after=1 + psi, operator="remove-retrain",
        evaluator="post-train", retrains=1,
    )
    return CandidateExplanation(triples), result


def dominates(a, b):
    """True when `a` is no longer and at least as effective as `b`, one strictly."""
    return a[0] <= b[0] and a[1] >= b[1] and (a[0] < b[0] or a[1] > b[1])


def oracle_front(points):
    """O(n^2) pairwise dominance check."""
    return [not any(dominates(q, p) for q in points) for p in points]


class TestWorkedExample:
    def test_short_weak_and_long_strong_both_survive(self):
        front = pareto_front([candidate(1, 15.0), candidate(2, 30.0)])
        assert sorted((len(e), r.psi) for e, r in front) == [(1, 15.0), (2, 30.0)]

    def test_longer_and_weaker_is_dominated(self):
        front = pareto_front([candidate(1, 15.0), candidate(2, 10.0)])
        assert [(len(e), r.psi) for e, r in front] == [(1, 15.0)]

    def test_equal_points_all_retained(self):
        front = pareto_front([candidate(1, 5.0), candidate(1, 5.0), candidate(1, 4.0)])
        assert [(len(e), r.psi) for e, r in front] == [(1, 5.0), (1, 5.0)]

    def test_empty_input_rejected(self):
        with pytest.raises(DomainError):
            pareto_front([])


class TestAgainstOracle:
    def test_two_hundred_random_points(self):
        rng = np.random.default_rng(17)
        points = [
            (float(rng.integers(1, 6)), float(rng.integers(-10, 40)))
            for _ in range(200)
        ]
        assert non_dominated(points) == oracle_front(points)

    def test_continuous_psi_values(self):
        rng = np.random.default_rng(23)
        points = [(float(rng.integers(1, 5)), float(rng.normal())) for _ in range(150)]
        assert non_dominated(points) == oracle_front(points)


point = st.tuples(
    st.integers(min_value=1, max_value=6).map(float),
    st.integers(min_value=-20, max_value=20).map(float),
)


class TestDominanceOrder:
    @given(point)
    def test_irreflexive(self, a):
        assert not dominates(a, a)

    @given(point, point)
    def test_antisymmetric(self, a, b):
        assert not (dominates(a, b) and dominates(b, a))

    @given(point, point, point)
    def test_transitive(self, a, b, c):
        if dominates(a, b) and dominates(b, c):
            assert dominates(a, c)

    @settings(max_examples=200)
    @given(st.lists(point, min_size=1, max_size=40))
    def test_front_is_dominance_free_and_maximal(self, points):
        keep = non_dominated(points)
        kept = [p for p, k in zip(points, keep) if k]
        for i, p in enumerate(points):
            if keep[i]:
                assert not any(dominates(q, p) for q in points)
            else:
                assert any(dominates(q, p) for q in kept)
