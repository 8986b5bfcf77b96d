"""Fits as rows of the base example table, against fits from plain triple tuples."""
from __future__ import annotations

import dataclasses
from typing import Iterable

import numpy as np
import pytest

from kgexplain import (
    DomainError,
    KnowledgeGraph,
    Triple,
    build_target_set,
    effectiveness_c_sufficient,
    effectiveness_latent,
    effectiveness_necessary,
    effectiveness_sufficient,
    post_train,
    rank,
)
from kgexplain import effectiveness, training
from kgexplain.effectiveness import _retrained
from kgexplain.kg import _one_hop_entities
from kgexplain.training import _Step, _TrainRows, build_examples
from test_training import _ReferenceRestrictedStep

EVALUATORS = ("post-train", "full-retrain")


# Reference: the helpers that built each operator's modified training set as a
# plain tuple before the operators built rows, kept verbatim.
def _ordered_removal(kg: KnowledgeGraph, removed: frozenset[Triple]) -> tuple[Triple, ...]:
    return tuple(t for t in kg.train if t not in removed)


def _ordered_keep(kg: KnowledgeGraph, kept: frozenset[Triple]) -> tuple[Triple, ...]:
    return tuple(t for t in kg.train if t in kept)


def _ordered_addition(kg: KnowledgeGraph, added: Iterable[Triple]) -> tuple[Triple, ...]:
    return kg.train + tuple(sorted(set(added)))


def _swap_subject(t: Triple, s_x: int, c: int) -> Triple:
    return Triple(
        c if t.subject == s_x else t.subject, t.relation, c if t.object == s_x else t.object
    )


@pytest.fixture(scope="module")
def setting(desk_kg, desk_model, desk_config, desk_predictions):
    # few epochs keep the full retrains quick; the operators' logic is unchanged
    config = dataclasses.replace(desk_config, epochs=4, batch_size=128)
    prediction = desk_predictions[0]
    s = prediction.subject
    touching = [t for t in desk_kg.train if s in (t.subject, t.object)]
    return desk_kg, desk_model, config, prediction, touching


def _recording(monkeypatch) -> list:
    """Record every ``_retrained`` call of the operators: its fit, options and result."""
    calls = []

    def record(kg, base, fit, evaluator, config, **options):
        result = _retrained(kg, base, fit, evaluator, config, **options)
        calls.append((fit, evaluator, options, result))
        return result

    monkeypatch.setattr(effectiveness, "_retrained", record)
    return calls


def _assert_same_fit(kg, base, config, call, reference: tuple[Triple, ...]):
    """The recorded row fit equals a fit from the reference tuple, table for table."""
    fit, evaluator, options, got = call
    assert isinstance(fit, _TrainRows)
    want = _retrained(kg, base, reference, evaluator, config, **options)
    assert np.array_equal(got.ent, want.ent) and np.array_equal(got.rel, want.rel)
    return want


@pytest.mark.parametrize("evaluator", EVALUATORS)
def test_necessary_rows_fit_like_the_removal_tuple(setting, monkeypatch, evaluator):
    kg, model, config, prediction, touching = setting
    fit_config = dataclasses.replace(config, epochs=3)
    calls = _recording(monkeypatch)
    for removed in (frozenset(touching[:1]), frozenset(touching[1:3])):
        result = effectiveness_necessary(
            kg, model, prediction, removed, evaluator, fit_config,
            rank_before=rank(model, prediction, kg),
        )
        want = _assert_same_fit(kg, model, fit_config, calls[-1], _ordered_removal(kg, removed))
        assert result.rank_before == rank(model, prediction, kg)
        assert result.rank_after == rank(want, prediction, kg)
        assert result.psi == rank(want, prediction, kg) - rank(model, prediction, kg)


@pytest.mark.parametrize("evaluator", EVALUATORS)
def test_sufficient_rows_fit_like_the_keep_tuple(setting, monkeypatch, evaluator):
    kg, model, config, prediction, touching = setting
    fit_config = dataclasses.replace(config, epochs=3)
    calls = _recording(monkeypatch)
    kept = frozenset(touching[:3])
    result = effectiveness_sufficient(
        kg, model, prediction, kept, evaluator, fit_config, rank_before=rank(model, prediction, kg),
    )
    want = _assert_same_fit(kg, model, fit_config, calls[-1], _ordered_keep(kg, kept))
    assert result.rank_before == rank(model, prediction, kg)
    assert result.rank_after == rank(want, prediction, kg)
    assert result.psi == rank(model, prediction, kg) - rank(want, prediction, kg)


@pytest.mark.parametrize("evaluator", EVALUATORS)
def test_c_sufficient_rows_fit_like_the_addition_tuples(setting, monkeypatch, evaluator):
    kg, model, config, prediction, touching = setting
    fit_config = dataclasses.replace(config, epochs=3)
    targets = build_target_set(kg, model, prediction, 2, seed=0)
    calls = _recording(monkeypatch)
    candidate = frozenset(touching[:2])
    result = effectiveness_c_sufficient(
        kg, model, prediction, candidate, targets, evaluator, fit_config
    )
    outcomes = {o.entity: o for o in result.per_target}
    fits = iter(calls)
    for c, before in targets:
        assert outcomes[c].rank_before == before
        added = [
            sw for sw in (_swap_subject(t, prediction.subject, c) for t in sorted(candidate))
            if sw not in kg.train_set
        ]
        if not added:
            continue
        want = _assert_same_fit(kg, model, fit_config, next(fits), _ordered_addition(kg, added))
        probe = Triple(c, prediction.relation, prediction.object)
        assert outcomes[c].rank_after == rank(want, probe, kg)
        assert outcomes[c].psi == outcomes[c].rank_before - rank(want, probe, kg)
    assert next(fits, None) is None and result.retrains == len(calls) > 0


@pytest.mark.parametrize("evaluator", EVALUATORS)
def test_latent_rows_fit_like_the_addition_tuple(setting, monkeypatch, evaluator):
    kg, model, config, prediction, _ = setting
    fit_config = dataclasses.replace(config, epochs=3)
    unseen = (Triple(prediction.subject, 1, o) for o in range(kg.num_entities))
    latent = frozenset(tuple(t for t in unseen if t not in kg.train_set)[:2])
    calls = _recording(monkeypatch)
    result = effectiveness_latent(
        kg, model, prediction, latent, "negative", evaluator, fit_config,
        rank_before=rank(model, prediction, kg),
    )
    want = _assert_same_fit(kg, model, fit_config, calls[-1], _ordered_addition(kg, latent))
    assert result.rank_after == rank(want, prediction, kg)
    assert result.psi == rank(want, prediction, kg) - rank(model, prediction, kg)


def test_plain_sequence_maps_to_its_own_examples(desk_kg):
    kg = desk_kg
    outside = (Triple(0, 1, 7), Triple(3, 1, 12))
    assert not set(outside) & kg.train_set
    sequence = (kg.train[5], outside[1], kg.train[0], outside[0], kg.train[5], outside[1])
    fit = training._train_rows(kg, sequence)
    assert fit.added == (outside[1], outside[0])
    table = np.concatenate([kg.examples, build_examples(fit.added, kg.num_relations)])
    assert np.array_equal(table[fit.rows], build_examples(sequence, kg.num_relations))


def test_row_fit_steps_match_the_reference_step(desk_kg, desk_model, desk_predictions):
    kg, model = desk_kg, desk_model
    s = desk_predictions[0].subject
    mask = _one_hop_entities(kg, s)
    touching = frozenset(t for t in kg.train if s in (t.subject, t.object))
    base_queries = {(t.subject, t.relation) for t in kg.train}
    base_queries |= {(t.object, t.relation + kg.num_relations) for t in kg.train}
    far = sorted(set(range(kg.num_entities)) - mask)
    # additions between frozen entities: one whose two queries the base set has,
    # one whose (head, relation) query it lacks; both lie past the base table
    known = next(
        Triple(h, 0, o) for h in far for o in far
        if h != o and Triple(h, 0, o) not in kg.train_set
        and {(h, 0), (o, kg.num_relations)} <= base_queries
    )
    new = next(Triple(h, 1, known.object) for h in far if (h, 1) not in base_queries)
    fits = {
        "removal": effectiveness._rows_without(kg, frozenset(list(touching)[:2])),
        "keep-only": effectiveness._rows_of(kg, frozenset(kg.train[::3])),
        "known addition": effectiveness._rows_with(kg, [known]),
        "new addition": effectiveness._rows_with(kg, [new]),
    }
    ent_idx = np.asarray(sorted(mask), dtype=np.int64)
    rel_idx = np.empty(0, dtype=np.int64)
    for name, fit in fits.items():
        table = kg.examples
        if fit.added:
            table = np.concatenate([table, build_examples(fit.added, kg.num_relations)])
        step = _Step(model, table, ent_idx, rel_idx, kg, fit.rows, len(fit.rows))
        reference = _ReferenceRestrictedStep(model, table[fit.rows], ent_idx, rel_idx, kg.train, 37)
        assert (~step.moving).any(), name
        assert step.moving[fit.rows >= 2 * len(kg.train)].all(), name
        for sel in np.array_split(np.random.default_rng(0).permutation(len(fit.rows)), 3):
            (loss, data_loss, grad), want = step(model, sel, 1e-3), reference(model, sel, 1e-3)
            grads = np.split(grad, [len(ent_idx)])
            for got, expected in zip((loss, data_loss, *grads), (*want[:2], *want[2])):
                np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-15, err_msg=name)


@pytest.mark.parametrize("row", [-1, "past"])
@pytest.mark.parametrize("full", [True, False], ids=["full-mask", "frozen-mask"])
def test_out_of_range_row_is_domain_error(desk_kg, desk_model, desk_config, full, row):
    kg = desk_kg
    bad = 2 * len(kg.train) if row == "past" else row
    fit = _TrainRows(np.asarray([0, 1, bad], dtype=np.int64))
    entities = range(kg.num_entities) if full else {0}
    relations = range(kg.num_relations) if full else None
    one_epoch = dataclasses.replace(desk_config, epochs=1)
    with pytest.raises(DomainError, match="example row out of range"):
        post_train(desk_model, kg, fit, entities, one_epoch, trainable_relations=relations)


@pytest.mark.parametrize("full", [True, False], ids=["full-mask", "frozen-mask"])
def test_out_of_range_id_in_an_added_triple_is_domain_error(desk_kg, desk_model, desk_config, full):
    kg = desk_kg
    fit = effectiveness._rows_with(kg, [Triple(kg.num_entities, 0, 1)])
    entities = range(kg.num_entities) if full else {0}
    relations = range(kg.num_relations) if full else None
    one_epoch = dataclasses.replace(desk_config, epochs=1)
    with pytest.raises(DomainError, match="example row id out of range"):
        post_train(desk_model, kg, fit, entities, one_epoch, trainable_relations=relations)


def test_empty_row_fit_is_domain_error(desk_kg, desk_model, desk_config):
    with pytest.raises(DomainError, match="non-empty modified training set"):
        post_train(desk_model, desk_kg, _TrainRows(np.empty(0, dtype=np.int64)), {0}, desk_config)
