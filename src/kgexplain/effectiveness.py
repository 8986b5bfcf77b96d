"""Effectiveness of candidate explanations under retraining operators.

Every operator measures a candidate the same way: change the training set,
retrain once (full or post-training, dispatched by :func:`_retrained`), and
compare a probe triple's rank before, which the caller passes, and after.
Every operator ends in one executor, :func:`_one_retrain`, which retrains,
ranks the probe and makes the result; its guards and the builder's ceiling
read one room rule, :func:`_room`, the highest psi a sign allows.
The four operators, one per explanation mode, differ only in the candidate
they accept, the fit rows, the trainable rows, the probe and the sign:

* ``remove-retrain``     (necessary): drop the candidate from training and
  measure how much the prediction's rank worsens.
* ``keep-only-retrain``  (sufficient): relearn from the candidate alone,
  anchored in frozen context, and measure how little the rank degrades.
* ``add-swap-retrain``   (targeted sufficiency): graft the candidate onto
  each target entity, sampled by :func:`build_target_set` with its base rank,
  and measure how much the targets' ranks improve, on average.
* ``add-retrain``        (latent): add unobserved triples and measure the
  rank shift in either direction.

Every mode is signed so that a no-op candidate scores 0 and higher is
better. Each result reports its own retraining cost in ``retrains``. The
base model is never mutated; retraining always happens on a clone or a
fresh initialization, for the given ``config``'s epochs with its seed, so
results are deterministic.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .errors import ConfigurationError, DomainError, TrainingError
from .kg import KnowledgeGraph, Triple, _one_hop_entities
from .model import EmbeddingModel, TrainConfig, init_model, rank
from .training import _pair_rows, _train_rows, _TrainRows, post_train

logger = logging.getLogger(__name__)

EVALUATORS = ("full-retrain", "post-train")


@dataclass(frozen=True)
class CandidateExplanation:
    """A non-empty set of triples."""

    triples: frozenset[Triple]

    def __post_init__(self) -> None:
        object.__setattr__(self, "triples", frozenset(self.triples))
        if not self.triples:
            raise DomainError("an explanation must contain at least one triple")

    def __len__(self) -> int:
        return len(self.triples)

    def sorted_triples(self) -> tuple[Triple, ...]:
        return tuple(sorted(self.triples))


class TargetOutcome(NamedTuple):
    entity: int
    rank_before: int
    rank_after: int
    psi: float
    skipped: int


@dataclass(frozen=True)
class EffectivenessResult:
    """Signed effectiveness with the ranks, operator and retrain count that produced it."""

    psi: float
    rank_before: float
    rank_after: float
    operator: str
    evaluator: str
    retrains: int
    per_target: tuple[TargetOutcome, ...] | None = None
    warnings: tuple[str, ...] = ()


def _as_triples(x) -> frozenset[Triple]:
    return (x if isinstance(x, CandidateExplanation) else CandidateExplanation(x)).triples


def _training_triples(kg: KnowledgeGraph, candidate) -> frozenset[Triple]:
    """The triples of a candidate that must come from the training set."""
    triples = _as_triples(candidate)
    if not triples <= kg.train_set:
        missing = min(triples - kg.train_set)
        raise DomainError(f"the explanation must be a subset of the training set; {missing} is not")
    return triples


def _entities(triples: Iterable[Triple]) -> set[int]:
    return {e for t in triples for e in (t.subject, t.object)}


def _positions(kg: KnowledgeGraph, triples: frozenset[Triple]) -> np.ndarray:
    """The sorted positions in ``kg.train`` of every occurrence of ``triples``."""
    index = kg.train_index
    if len(index) == len(kg.train):
        return np.sort(np.asarray([index[t] for t in triples if t in index], dtype=np.int64))
    return np.flatnonzero([t in triples for t in kg.train])  # a repeated training triple


def _rows_without(kg: KnowledgeGraph, removed: frozenset[Triple]) -> _TrainRows:
    """The training set less ``removed``: every base row but rows 2i and 2i + 1 of each."""
    return _TrainRows(np.delete(np.arange(2 * len(kg.train)), _pair_rows(_positions(kg, removed))))


def _rows_of(kg: KnowledgeGraph, kept: frozenset[Triple]) -> _TrainRows:
    """Only the ``kept`` training triples, in training-set order."""
    return _TrainRows(_pair_rows(_positions(kg, kept)))


def _rows_with(kg: KnowledgeGraph, added: Iterable[Triple]) -> _TrainRows:
    """The training set followed by the sorted ``added`` triples, which it lacks."""
    added = tuple(sorted(set(added)))
    return _TrainRows(np.arange(2 * (len(kg.train) + len(added))), added)


def _retrained(
    kg: KnowledgeGraph,
    base: EmbeddingModel,
    new_train: _TrainRows | tuple[Triple, ...],
    evaluator: str,
    config: TrainConfig,
    trainable_entities: Iterable[int] | None = None,
    trainable_relations: set[int] | None = None,
    reinit: bool = False,
) -> EmbeddingModel:
    if evaluator not in EVALUATORS:
        raise ConfigurationError(f"unknown evaluator: {evaluator!r}")
    fit = new_train if isinstance(new_train, _TrainRows) else _train_rows(kg, new_train)
    if evaluator == "full-retrain":
        if not len(fit.rows):
            raise TrainingError("degenerate retraining: the modified training set is empty")
        # a fresh model with every row trainable: full retraining without the
        # per-epoch validation NLL, which only the train command's loss curve reads
        base, reinit = init_model(kg, config), False
        trainable_entities, trainable_relations = range(kg.num_entities), range(kg.num_relations)
    return post_train(
        base, kg, fit, trainable_entities or set(), config,
        trainable_relations=trainable_relations, reinit_trainable=reinit,
    )


def _worst_rank(kg: KnowledgeGraph, prediction: Triple) -> int:
    """The worst filtered rank: 1 + every entity :func:`rank` keeps, all but ``known ∪ {o}``."""
    known = kg.known_objects.get((prediction.subject, prediction.relation), frozenset())
    return 1 + kg.num_entities - len(known | {prediction.object})


def _room(kg: KnowledgeGraph, prediction: Triple, rank_before: int, sign: int) -> int:
    """The highest psi of ``sign``: the room to the worst filtered rank for 1, to rank 1 for -1."""
    return _worst_rank(kg, prediction) - rank_before if sign == 1 else rank_before - 1


def _one_retrain(
    operator: str, sign: int, kg: KnowledgeGraph, model: EmbeddingModel, probe: Triple,
    rank_before: int, fit: _TrainRows, evaluator: str, config: TrainConfig,
    warnings: tuple[str, ...] = (), **options,
) -> EffectivenessResult:
    """One retrain on ``fit``, scored at ``probe``: ``sign`` 1 counts a worse rank as positive.

    ``options`` go to :func:`_retrained`.
    """
    rank_after = rank(_retrained(kg, model, fit, evaluator, config, **options), probe, kg)
    psi = float(sign * (rank_after - rank_before))
    return EffectivenessResult(
        psi, rank_before, rank_after, operator, evaluator, retrains=1, warnings=warnings
    )


def effectiveness_necessary(
    kg: KnowledgeGraph,
    model: EmbeddingModel,
    prediction: Triple,
    candidate,
    evaluator: str,
    config: TrainConfig,
    rank_before: int,
) -> EffectivenessResult:
    """Rank change caused by removing the candidate and retraining.

    Positive values mean the prediction degraded, i.e. the candidate was
    load-bearing. Requires ``rank_before``, the base rank, to be better than
    the worst filtered rank, otherwise there is no room left to degrade.
    """
    triples = _training_triples(kg, candidate)
    if _room(kg, prediction, rank_before, 1) <= 0:
        raise DomainError("necessary effectiveness requires the base rank to be better than the "
                          "worst filtered rank")
    return _one_retrain(
        "remove-retrain", 1, kg, model, prediction, rank_before, _rows_without(kg, triples),
        evaluator, config, trainable_entities=_one_hop_entities(kg, prediction.subject),
    )


def effectiveness_sufficient(
    kg: KnowledgeGraph,
    model: EmbeddingModel,
    prediction: Triple,
    candidate,
    evaluator: str,
    config: TrainConfig,
    rank_before: int,
) -> EffectivenessResult:
    """How well the candidate alone preserves the prediction's rank, ``rank_before``.

    Under ``post-train`` the candidate's entities are reinitialized and
    relearned from the candidate's triples only, against the frozen
    remainder of the trained model; a relation is relearned the same way
    only when the candidate holds its entire training evidence, so shared
    relation geometry stays anchored. ``full-retrain`` retrains from
    scratch on the candidate alone; with this scorer that rarely produces
    meaningful embeddings, so the result carries a warning. Preserving or
    improving the rank scores at least 0.
    """
    triples = _training_triples(kg, candidate)
    elsewhere = {t.relation for t in kg.train if t not in triples}
    warnings: tuple[str, ...] = ()
    if evaluator == "full-retrain":
        warnings = ("training on the candidate alone likely produced meaningless embeddings",)
    return _one_retrain(
        "keep-only-retrain", -1, kg, model, prediction, rank_before, _rows_of(kg, triples),
        evaluator, config, warnings,
        trainable_entities=_entities(triples),
        trainable_relations={t.relation for t in triples} - elsewhere,
        reinit=True,
    )


def build_target_set(
    kg: KnowledgeGraph, model: EmbeddingModel, prediction: Triple, size: int, seed: int
) -> tuple[tuple[int, int], ...]:
    """Sample pairs (c, rank of (c, r_x, o_x)), c != s_x, whose rank is not 1 under ``model``."""
    if size < 1:
        raise ConfigurationError("target-set size must be >= 1")
    rng = np.random.default_rng(seed)
    order = rng.permutation(kg.num_entities)
    chosen: list[tuple[int, int]] = []
    for c in order:
        c = int(c)
        if c == prediction.subject:
            continue
        before = rank(model, Triple(c, prediction.relation, prediction.object), kg)
        if before > 1:
            chosen.append((c, before))
            if len(chosen) == size:
                break
    if not chosen:
        raise DomainError("no eligible target entities: every candidate completion is top-ranked")
    if len(chosen) < size:
        logger.warning("target set smaller than requested: %d of %d eligible", len(chosen), size)
    return tuple(chosen)


def _swap_subject(t: Triple, s_x: int, c: int) -> Triple:
    subject, obj = (c if e == s_x else e for e in (t.subject, t.object))
    return Triple(subject, t.relation, obj)


def effectiveness_c_sufficient(
    kg: KnowledgeGraph,
    model: EmbeddingModel,
    prediction: Triple,
    candidate,
    targets: tuple[tuple[int, int], ...],
    evaluator: str,
    config: TrainConfig,
) -> EffectivenessResult:
    """Average rank improvement of target completions after grafting the candidate.

    ``targets`` are (entity, rank before) pairs. Every candidate triple must
    contain the prediction's subject; it is swapped for each target entity
    and the swapped copies are added to the training set, retraining once
    per target that gains a triple. Per-target outcomes are retained; single
    targets may worsen, and the result is their mean.
    """
    triples = _training_triples(kg, candidate)
    s_x = prediction.subject
    for t in triples:
        if s_x not in (t.subject, t.object):
            raise DomainError(f"candidate triple {t} does not contain the prediction subject")

    outcomes: list[TargetOutcome] = []
    for c, before in targets:
        swapped = (_swap_subject(t, s_x, c) for t in sorted(triples))
        additions = [sw for sw in swapped if sw not in kg.train_set]
        skipped = len(triples) - len(additions)
        if skipped:
            logger.info("%d swapped triples already in training set; skipped", skipped)
        probe = Triple(c, prediction.relation, prediction.object)
        after = before
        if additions:  # with nothing to add the operator is the identity
            after = _one_retrain(
                "add-swap-retrain", -1, kg, model, probe, before, _rows_with(kg, additions),
                evaluator, config,
                trainable_entities=_one_hop_entities(kg, c) | _entities(additions),
            ).rank_after
        outcomes.append(TargetOutcome(c, before, after, float(before - after), skipped))

    return EffectivenessResult(
        psi=float(np.mean([o.psi for o in outcomes])),
        rank_before=float(np.mean([o.rank_before for o in outcomes])),
        rank_after=float(np.mean([o.rank_after for o in outcomes])),
        operator="add-swap-retrain",
        evaluator=evaluator,
        retrains=sum(o.skipped < len(triples) for o in outcomes),  # targets that gained a triple
        per_target=tuple(outcomes),
    )


def effectiveness_latent(
    kg: KnowledgeGraph,
    model: EmbeddingModel,
    prediction: Triple,
    candidate,
    polarity: str,
    evaluator: str,
    config: TrainConfig,
    rank_before: int,
) -> EffectivenessResult:
    """Rank shift from adding unobserved triples and retraining.

    ``positive`` rewards rank improvement (requires ``rank_before`` > 1);
    ``negative`` rewards degradation (requires the base rank to be better than the
    worst filtered rank). Either way a higher value is better.
    """
    triples = _as_triples(candidate)
    if triples & kg.train_set:
        raise DomainError("latent explanations must be disjoint from the training set")
    for t in triples:
        if not kg.contains_ids(t):
            raise DomainError(f"latent triple {t} has out-of-range ids")
    if polarity not in ("positive", "negative"):
        raise ConfigurationError(f"unknown polarity: {polarity!r}")
    sign = -1 if polarity == "positive" else 1
    if _room(kg, prediction, rank_before, sign) <= 0:
        worst = "the base rank to be better than the worst filtered rank"
        need = "base rank > 1" if sign == -1 else worst
        raise DomainError(f"{polarity} latent effectiveness requires {need}")
    return _one_retrain(
        "add-retrain", sign, kg, model, prediction, rank_before, _rows_with(kg, triples),
        evaluator, config,
        trainable_entities=_one_hop_entities(kg, prediction.subject) | _entities(triples),
    )
