"""Pareto dominance over the joint (length, effectiveness) objective.

A point dominates another when it is no longer, at least as effective, and
strictly better in one of the two. Shorter is better; higher effectiveness
is better. A front is the subset of an explainer's evaluated candidates
that no other candidate dominates; it keeps every tied candidate.
"""
from __future__ import annotations

from typing import Sequence

from .effectiveness import CandidateExplanation, EffectivenessResult
from .errors import DomainError


def non_dominated(points: Sequence[tuple[float, float]]) -> list[bool]:
    """Per-point flag: not dominated by any other point.

    Sort-and-sweep over length groups; points tied on both objectives are
    all kept.
    """
    n = len(points)
    order = sorted(range(n), key=lambda i: (points[i][0], -points[i][1]))
    keep = [False] * n
    best_shorter = float("-inf")
    i = 0
    while i < n:
        j = i
        length = points[order[i]][0]
        while j < n and points[order[j]][0] == length:
            j += 1
        group = order[i:j]
        group_max = max(points[k][1] for k in group)
        if group_max > best_shorter:
            for k in group:
                if points[k][1] == group_max:
                    keep[k] = True
        best_shorter = max(best_shorter, group_max)
        i = j
    return keep


def pareto_front(
    candidates: Sequence[tuple[CandidateExplanation, EffectivenessResult]],
) -> tuple[tuple[CandidateExplanation, EffectivenessResult], ...]:
    """Exactly the candidates whose (length, psi) no other candidate dominates, in input order."""
    if not candidates:
        raise DomainError("cannot build a front from an empty candidate list")
    keep = non_dominated([(float(len(expl)), float(result.psi)) for expl, result in candidates])
    return tuple(c for c, k in zip(candidates, keep) if k)
