"""Bernoulli ensemble over possible triples, and sampling of latent candidates.

The ensemble treats each cell of the |E| x |R| x |E| triple tensor as an
independent Bernoulli variable whose parameter is a calibrated sigmoid of
the trained scorer: p(present | s, r, o) = sigmoid(scale * f(s,r,o) + bias).
Calibration is a two-parameter logistic fit with held-out triples as
positives and seeded random corruptions as negatives.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import ConfigurationError, DomainError
from .kg import KnowledgeGraph, Triple
from .model import EmbeddingModel, score, score_objects

logger = logging.getLogger(__name__)

# Above this many possible triples the sampler switches from exhaustive
# enumeration to seeded stochastic search around high-scoring patterns.
EXHAUSTIVE_SPACE_CAP = 2_000_000
NEGATIVES_PER_POSITIVE = 4


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


@dataclass(frozen=True)
class GenerativeEnsemble:
    """Calibrated Bernoulli parameters over all possible triples."""

    model: EmbeddingModel
    scale: float
    bias: float

    def probability(self, triple: Triple) -> float:
        """p(present) of ``triple``: its entry of the sampler's :meth:`object_probabilities` row."""
        return float(self.object_probabilities(triple.subject, triple.relation)[triple.object])

    def object_probabilities(self, subject: int, relation: int) -> np.ndarray:
        """p(present) over every object for a fixed (subject, relation)."""
        scores = score_objects(self.model, subject, relation)
        return _sigmoid(self.scale * scores + self.bias)


def _strong_wolfe_step(fun, x, p, f0, d0, alpha):
    """``(step, f, gradient)`` from ``x`` along the descent direction ``p`` meeting the strong
    Wolfe conditions (c1 = 1e-4, c2 = 0.9), or None after 50 trials. ``fun`` returns value and
    gradient, and ``f0`` and ``d0`` are the value and slope at ``x``. A passing first trial
    ``alpha`` is kept; else steps double to a bracket that is bisected (Nocedal & Wright 3.5-3.6).
    """
    lo, f_lo, hi = 0.0, f0, np.inf
    for _ in range(50):
        f, g = fun(x + alpha * p)
        d = np.dot(g, p)
        if f > f0 + alpha * (1e-4 * d0) or f >= f_lo:
            hi = alpha
        elif abs(d) <= 0.9 * -d0:
            return alpha, f, g
        else:
            if d * (hi - lo) >= 0:
                hi = lo
            lo, f_lo = alpha, f
        alpha = 2 * alpha if hi == np.inf else (lo + hi) / 2
    return None


def fit_logistic_calibration(
    scores: np.ndarray, labels: np.ndarray
) -> tuple[float, float]:
    """Maximum-likelihood (scale, bias) of a sigmoid over 1-d scores, by scipy's BFGS step for
    step while each first line-search trial passes; a rejected trial is bisected, not interpolated.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)

    def nll_and_grad(params: np.ndarray) -> tuple[float, np.ndarray]:
        scale, bias = params
        z = scale * scores + bias
        p = _sigmoid(z)
        eps = 1e-12
        nll = -np.mean(labels * np.log(p + eps) + (1 - labels) * np.log(1 - p + eps))
        resid = (p - labels) / len(scores)
        return float(nll), np.asarray([float(resid @ scores), float(resid.sum())])

    x = np.asarray([1.0, 0.0])
    f, g = nll_and_grad(x)
    f_prev = f + np.linalg.norm(g) / 2  # scipy's start, a first trial step of about 1
    eye = hess_inv = np.eye(2)
    for _ in range(400):
        if np.max(np.abs(g)) <= 1e-5:
            break
        p = -np.dot(hess_inv, g)
        d0 = np.dot(g, p)
        if not d0 < 0:
            break
        trial = min(1.0, 1.01 * 2 * (f - f_prev) / d0)
        step = _strong_wolfe_step(nll_and_grad, x, p, f, d0, trial if trial > 0 else 1.0)
        if step is None:
            break
        alpha, f_next, g_next = step
        s, y = alpha * p, g_next - g
        x, f_prev, f, g = x + s, f, f_next, g_next
        rho = 1000.0 if np.dot(y, s) == 0 else 1.0 / np.dot(y, s)
        a1 = eye - s[:, np.newaxis] * y[np.newaxis, :] * rho
        a2 = eye - y[:, np.newaxis] * s[np.newaxis, :] * rho
        hess_inv = np.dot(a1, np.dot(hess_inv, a2)) + rho * s[:, np.newaxis] * s[np.newaxis, :]
    return float(x[0]), float(x[1])


def calibrate_ensemble(
    model: EmbeddingModel,
    kg: KnowledgeGraph,
    heldout: Iterable[Triple],
    seed: int = 0,
) -> GenerativeEnsemble:
    """Fit the sigmoid over scores with heldout positives and random corruptions.

    Each positive gets ``NEGATIVES_PER_POSITIVE`` corruptions, which
    replace the object (or subject, alternating) with a random entity,
    rejecting any corruption that forms a known triple. If all
    scores coincide the fit is degenerate: a warning is logged and the
    identity calibration (scale 1, bias 0) is returned.
    """
    positives = tuple(heldout)
    if not positives:
        raise DomainError("calibration requires a non-empty heldout set")
    rng = np.random.default_rng(seed)
    known = kg.all_triples

    negatives: list[Triple] = []
    for t in positives:
        for i in range(NEGATIVES_PER_POSITIVE):
            for _ in range(50):
                e = int(rng.integers(kg.num_entities))
                cand = Triple(t.subject, t.relation, e) if i % 2 == 0 else Triple(e, t.relation, t.object)
                if cand not in known:
                    negatives.append(cand)
                    break

    pos_scores = np.asarray([score(model, t) for t in positives])
    neg_scores = np.asarray([score(model, t) for t in negatives])
    all_scores = np.concatenate([pos_scores, neg_scores])
    if np.ptp(all_scores) == 0.0:
        logger.warning("degenerate calibration: all scores identical; using identity scale")
        return GenerativeEnsemble(model=model, scale=1.0, bias=0.0)

    labels = np.concatenate([np.ones(len(pos_scores)), np.zeros(len(neg_scores))])
    scale, bias = fit_logistic_calibration(all_scores, labels)
    return GenerativeEnsemble(model=model, scale=scale, bias=bias)


def sample_latent_candidates(
    ensemble: GenerativeEnsemble,
    kg: KnowledgeGraph,
    epsilon: float,
    budget: int,
    seed: int,
) -> list[Triple]:
    """Up to ``budget`` unobserved triples with p(present) >= 1 - epsilon.

    On graphs whose full triple space fits under the enumeration cap the
    space is swept exhaustively in canonical (s, r, o) order, so the result
    equals a brute-force filter truncated to the budget. Larger graphs fall
    back to a seeded search that corrupts high-probability patterns; every
    returned triple still satisfies both constraints.
    """
    if not 0.0 < epsilon < 1.0:
        raise ConfigurationError("epsilon must lie strictly between 0 and 1")
    if budget < 1:
        raise ConfigurationError("budget must be >= 1")
    threshold = 1.0 - epsilon
    train_set = kg.train_set
    space_size = kg.num_entities * kg.num_entities * kg.num_relations

    if space_size <= EXHAUSTIVE_SPACE_CAP:
        found: list[Triple] = []
        for s in range(kg.num_entities):
            for r in range(kg.num_relations):
                probs = ensemble.object_probabilities(s, r)
                for o in np.nonzero(probs >= threshold)[0]:
                    t = Triple(s, r, int(o))
                    if t not in train_set:
                        found.append(t)
                        if len(found) == budget:
                            return found
        return found

    rng = np.random.default_rng(seed)
    found_set: set[Triple] = set()
    patterns = list(kg.train)
    max_tries = 200 * budget
    for _ in range(max_tries):
        base = patterns[int(rng.integers(len(patterns)))]
        s = base.subject if rng.random() < 0.5 else int(rng.integers(kg.num_entities))
        probs = ensemble.object_probabilities(s, base.relation)
        candidates = np.nonzero(probs >= threshold)[0]
        if len(candidates) == 0:
            continue
        o = int(rng.choice(candidates))
        t = Triple(s, base.relation, o)
        if t not in train_set and t not in found_set:
            found_set.add(t)
            if len(found_set) == budget:
                break
    return sorted(found_set)
