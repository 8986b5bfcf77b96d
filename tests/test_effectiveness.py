"""Effectiveness operators: necessary, sufficient, targeted, latent."""
from __future__ import annotations

import numpy as np
import pytest

from kgexplain import (
    CandidateExplanation,
    DomainError,
    KnowledgeGraph,
    TrainConfig,
    TrainingError,
    Triple,
    build_target_set,
    effectiveness_c_sufficient,
    effectiveness_latent,
    effectiveness_necessary,
    effectiveness_sufficient,
    init_model,
    rank,
    score_objects,
    train,
)

from kgexplain.effectiveness import _retrained

from conftest import make_random_kg
from test_model import rank_oracle

ARRAYS = ("ent_re", "ent_im", "rel_re", "rel_im")


def snapshot(model):
    return [getattr(model, n).copy() for n in ARRAYS]


def unchanged(model, snap):
    return all(np.array_equal(getattr(model, n), s) for n, s in zip(ARRAYS, snap))


@pytest.fixture(scope="module")
def pipeline(tiny_kg, tiny_config, tiny_model):
    return tiny_kg, tiny_config, tiny_model


def placed_last(kg, model, prediction, below):
    """A copy of ``model`` ranking ``prediction`` last (``below``) or one above, and the worst rank.

    The object's row becomes the lowest-scoring candidate's (a tie, which
    ``rank`` does not count), or is moved below it by the gap to the second
    lowest; the worst rank is 1 + the candidates, every entity outside the
    known objects and the prediction's own.
    """
    s, r, o = prediction
    assert s != o
    known = kg.known_objects.get((s, r), frozenset())
    candidates = [e for e in range(kg.num_entities) if e not in known and e != o]
    scores = score_objects(model, s, r)
    lowest, second = sorted(candidates, key=lambda e: scores[e])[:2]
    placed = model.clone()
    placed.ent[o] = placed.ent[lowest]
    if below:
        placed.ent[o] += placed.ent[lowest] - placed.ent[second]
    return placed, 1 + len(candidates)


class TestNecessary:
    def test_psi_is_rank_difference(self, pipeline):
        kg, config, model = pipeline
        prediction = kg.train[0]
        result = effectiveness_necessary(
            kg, model, prediction, {kg.train[1]}, "post-train", config,
            rank_before=rank(model, prediction, kg),
        )
        assert result.psi == result.rank_after - result.rank_before
        assert result.operator == "remove-retrain"

    def test_noop_iff_rank_unchanged(self, pipeline):
        kg, config, model = pipeline
        prediction = kg.train[0]
        for t in list(kg.train)[:4]:
            result = effectiveness_necessary(
                kg, model, prediction, {t}, "post-train", config,
                rank_before=rank(model, prediction, kg),
            )
            assert (result.psi == 0) == (result.rank_after == result.rank_before)

    def test_rejects_non_training_triples(self, pipeline):
        kg, config, model = pipeline
        with pytest.raises(DomainError):
            effectiveness_necessary(
                kg, model, kg.train[0], {Triple(0, 0, 11)}, "post-train", config,
                rank_before=rank(model, kg.train[0], kg),
            )

    def test_rejects_empty_candidate(self, pipeline):
        kg, config, model = pipeline
        with pytest.raises(DomainError):
            effectiveness_necessary(
                kg, model, kg.train[0], set(), "post-train", config,
                rank_before=rank(model, kg.train[0], kg),
            )

    def test_removing_everything_with_full_retrain_is_degenerate(self, pipeline):
        kg, config, model = pipeline
        with pytest.raises(TrainingError):
            effectiveness_necessary(
                kg, model, kg.train[0], set(kg.train), "full-retrain", config,
                rank_before=rank(model, kg.train[0], kg),
            )

    def test_bottom_ranked_prediction_violates_precondition(self, pipeline):
        kg, config, model = pipeline
        # craft a prediction ranked last among its filtered candidates
        prediction = kg.test[0]
        placed, worst = placed_last(kg, model, prediction, below=True)
        assert rank(placed, prediction, kg) == worst
        with pytest.raises(DomainError):
            effectiveness_necessary(
                kg, placed, prediction, {kg.train[0]}, "post-train", config,
                rank_before=rank(placed, prediction, kg),
            )

    def test_in_graph_prediction_one_above_the_worst_rank_is_accepted(self, pipeline):
        # the object is a known one, so the worst rank is 1 + E - |known|, and one
        # above it a removal can still degrade the prediction
        kg, config, model = pipeline
        prediction = kg.test[0]
        assert prediction.object in kg.known_objects[prediction.subject, prediction.relation]
        placed, worst = placed_last(kg, model, prediction, below=False)
        assert rank(placed, prediction, kg) == worst - 1
        result = effectiveness_necessary(
            kg, placed, prediction, {kg.train[1]}, "post-train", config,
            rank_before=rank(placed, prediction, kg),
        )
        assert result.rank_before == worst - 1

    def test_full_retrain_matches_scripted_pipeline_exactly(self, pipeline):
        kg, config, model = pipeline
        prediction = kg.test[0]
        for removed in list(kg.train)[:5]:
            result = effectiveness_necessary(
                kg, model, prediction, {removed}, "full-retrain", config,
                rank_before=rank(model, prediction, kg),
            )
            # independent composition: remove, retrain, re-rank with the sort oracle
            modified = kg.with_train(t for t in kg.train if t != removed)
            retrained = train(init_model(kg, config), modified, config)
            expected_after = rank_oracle(retrained, prediction, kg)
            expected_before = rank_oracle(model, prediction, kg)
            assert result.psi == expected_after - expected_before
            assert result.rank_after == expected_after

    def test_full_retrain_equals_train_without_validation_nll(self):
        kg = make_random_kg(seed=21, n_entities=12, n_relations=2, n_triples=40)
        kg = KnowledgeGraph(
            kg.entity_labels, kg.relation_labels, kg.train[:-4], valid=kg.train[-4:]
        )
        config = TrainConfig(dimension=6, epochs=12, batch_size=32, seed=7)
        base = train(init_model(kg, config), kg, config)
        new_train = kg.train[1:]
        retrained = _retrained(kg, base, new_train, "full-retrain", config)
        reference = train(init_model(kg, config), kg.with_train(new_train), config)
        assert np.array_equal(retrained.ent, reference.ent)
        assert np.array_equal(retrained.rel, reference.rel)
        assert all("valid_nll" in record for record in reference.history)
        assert len(retrained.history) == config.epochs
        assert not any("valid_nll" in record for record in retrained.history)

    def test_base_model_never_mutated(self, pipeline):
        kg, config, model = pipeline
        snap = snapshot(model)
        effectiveness_necessary(
            kg, model, kg.train[0], {kg.train[1]}, "post-train", config,
            rank_before=rank(model, kg.train[0], kg),
        )
        effectiveness_necessary(
            kg, model, kg.train[0], {kg.train[1]}, "full-retrain", config,
            rank_before=rank(model, kg.train[0], kg),
        )
        assert unchanged(model, snap)

    def test_meter_counts_retrains(self, pipeline):
        kg, config, model = pipeline
        for evaluator in ("post-train", "full-retrain"):
            result = effectiveness_necessary(
                kg, model, kg.train[0], {kg.train[1]}, evaluator, config,
                rank_before=rank(model, kg.train[0], kg),
            )
            assert result.retrains == 1


class TestSufficient:
    def test_whole_training_set_preserves_everything_exactly(self, pipeline):
        kg, config, model = pipeline
        result = effectiveness_sufficient(
            kg, model, kg.train[0], set(kg.train), "post-train", config,
            rank_before=rank(model, kg.train[0], kg),
        )
        assert result.psi == 0.0
        assert result.rank_after == result.rank_before

    def test_empty_candidate_rejected(self, pipeline):
        kg, config, model = pipeline
        with pytest.raises(DomainError):
            effectiveness_sufficient(
                kg, model, kg.train[0], set(), "post-train", config,
                rank_before=rank(model, kg.train[0], kg),
            )

    def test_none_policy_flags_meaningless_embeddings(self, pipeline):
        kg, config, model = pipeline
        result = effectiveness_sufficient(
            kg, model, kg.train[0], {kg.train[0]}, "full-retrain", config,
            rank_before=rank(model, kg.train[0], kg),
        )
        assert any("meaningless" in w for w in result.warnings)
        assert result.operator == "keep-only-retrain"

    def test_base_model_never_mutated(self, pipeline):
        kg, config, model = pipeline
        snap = snapshot(model)
        effectiveness_sufficient(
            kg, model, kg.train[0], {kg.train[1]}, "post-train", config,
            rank_before=rank(model, kg.train[0], kg),
        )
        assert unchanged(model, snap)


def located_chains_kg(n_chains=8):
    """Parallel region chains; the first chain's city->continent link is held out."""
    base = ["Paris", "Ile-de-France", "France", "Europe"]
    names, chains = [], []
    for k in range(n_chains):
        chain = base if k == 0 else [f"city{k}", f"region{k}", f"country{k}", f"continent{k}"]
        names += chain
        chains.append(chain)
    ids = {n: i for i, n in enumerate(names)}

    def t(s, r, o):
        return Triple(ids[s], 0 if r == "located_in" else 1, ids[o])

    train_triples, test_triples = [], []
    for k, chain in enumerate(chains):
        for a, b in zip(chain, chain[1:]):
            train_triples.append(t(a, "located_in", b))
        (test_triples if k == 0 else train_triples).append(t(chain[0], "city_in", chain[3]))
    kg = KnowledgeGraph(
        names, ["located_in", "city_in"], tuple(sorted(train_triples)), test=tuple(test_triples)
    )
    return kg, t


class TestSufficientPathExample:
    def test_full_path_beats_each_of_its_single_links(self):
        kg, t = located_chains_kg()
        path = [
            t("Paris", "located_in", "Ile-de-France"),
            t("Ile-de-France", "located_in", "France"),
            t("France", "located_in", "Europe"),
        ]
        prediction = t("Paris", "city_in", "Europe")
        config = TrainConfig(dimension=16, epochs=150, batch_size=128, seed=7)
        model = train(init_model(kg, config), kg, config)
        assert rank(model, prediction, kg) > 1
        path_psi = effectiveness_sufficient(
            kg, model, prediction, set(path), "post-train", config,
            rank_before=rank(model, prediction, kg),
        ).psi
        single_psis = [
            effectiveness_sufficient(
                kg, model, prediction, {x}, "post-train", config,
                rank_before=rank(model, prediction, kg),
            ).psi
            for x in path
        ]
        assert all(path_psi > s for s in single_psis)


class TestTargetSet:
    def test_all_top_ranked_pool_is_empty(self, pipeline):
        kg, config, model = pipeline
        flat = model.clone()
        for name in ARRAYS:
            getattr(flat, name)[:] = 0.0  # every completion ties at rank 1
        with pytest.raises(DomainError):
            build_target_set(kg, flat, kg.train[0], size=3, seed=0)

    def test_members_satisfy_rank_above_one(self, pipeline):
        kg, config, model = pipeline
        prediction = kg.train[0]
        targets = build_target_set(kg, model, prediction, size=10, seed=1)
        assert len(targets) <= 10
        for c, before in targets:
            assert c != prediction.subject
            assert before == rank(model, Triple(c, prediction.relation, prediction.object), kg) > 1

    def test_fixed_seed_reproducible(self, pipeline):
        kg, config, model = pipeline
        a = build_target_set(kg, model, kg.train[0], size=5, seed=9)
        b = build_target_set(kg, model, kg.train[0], size=5, seed=9)
        assert a == b


class TestCSufficient:
    def test_per_target_arithmetic_and_mean(self, pipeline):
        kg, config, model = pipeline
        prediction = kg.train[0]
        candidate = {t for t in kg.train if t.subject == prediction.subject}
        targets = build_target_set(kg, model, prediction, size=3, seed=2)
        result = effectiveness_c_sufficient(
            kg, model, prediction, candidate, targets, "post-train", config
        )
        for outcome in result.per_target:
            assert outcome.psi == outcome.rank_before - outcome.rank_after
        assert result.psi == pytest.approx(np.mean([o.psi for o in result.per_target]))
        assert result.operator == "add-swap-retrain"

    def test_candidate_must_contain_subject(self, pipeline):
        kg, config, model = pipeline
        prediction = kg.train[0]
        stranger = next(
            t for t in kg.train if prediction.subject not in (t.subject, t.object)
        )
        targets = build_target_set(kg, model, prediction, size=2, seed=2)
        with pytest.raises(DomainError):
            effectiveness_c_sufficient(
                kg, model, prediction, {stranger}, targets, "post-train", config
            )

    def test_swapped_duplicates_skipped_and_identity(self, pipeline):
        kg, config, model = pipeline
        # kg holds (i, next, i+1); swapping subject 1 -> 0 in (1, next, 2) is new,
        # but swapping (0, skip, 2)'s subject to 4 collides with (4, skip, 6)? craft directly:
        prediction = Triple(0, 0, 1)
        candidate = {Triple(0, 0, 1)}
        # choose the target whose swap already exists in training: (2, next, 1)? none.
        targets = build_target_set(kg, model, prediction, size=2, seed=4)
        result = effectiveness_c_sufficient(
            kg, model, prediction, candidate, targets, "post-train", config
        )
        for outcome, (c, _) in zip(result.per_target, targets):
            swapped = Triple(c, 0, 1)
            if swapped in kg.train_set:
                assert outcome.skipped == 1
                assert outcome.psi == 0.0  # identity operator when nothing is added

    def test_mean_of_three_scripted_runs(self, pipeline):
        kg, config, model = pipeline
        prediction = Triple(0, 0, 1)
        candidate = {Triple(0, 0, 1)}
        targets = build_target_set(kg, model, prediction, size=3, seed=5)
        result = effectiveness_c_sufficient(
            kg, model, prediction, candidate, targets, "full-retrain", config
        )
        expected = []
        for c, _ in targets:
            swapped = Triple(c, 0, 1)
            probe = Triple(c, prediction.relation, prediction.object)
            before = rank_oracle(model, probe, kg)
            if swapped in kg.train_set:
                after = before
            else:
                modified = kg.with_train(kg.train + (swapped,))
                retrained = train(init_model(kg, config), modified, config)
                after = rank_oracle(retrained, probe, kg)
            expected.append(before - after)
        assert result.psi == pytest.approx(np.mean(expected))

    def test_one_retrain_per_target_by_default(self, pipeline):
        kg, config, model = pipeline
        prediction = Triple(0, 0, 1)
        candidate = {Triple(0, 0, 1)}
        targets = build_target_set(kg, model, prediction, size=3, seed=5)
        result = effectiveness_c_sufficient(
            kg, model, prediction, candidate, targets, "post-train", config
        )
        added = sum(1 for o in result.per_target if o.skipped == 0)
        assert result.retrains == added


class TestLatent:
    def test_overlap_with_training_rejected(self, pipeline):
        kg, config, model = pipeline
        with pytest.raises(DomainError):
            effectiveness_latent(
                kg, model, kg.test[0], {kg.train[0]}, "positive", "post-train", config,
                rank_before=rank(model, kg.test[0], kg),
            )

    def test_positive_polarity_requires_room_to_improve(self, pipeline):
        kg, config, model = pipeline
        top = next(t for t in kg.train if rank(model, t, kg) == 1)
        with pytest.raises(DomainError):
            effectiveness_latent(
                kg, model, top, {Triple(0, 1, 11)}, "positive", "post-train", config,
                rank_before=rank(model, top, kg),
            )

    def test_negative_polarity_requires_room_to_degrade(self, pipeline):
        # out of the graph, (0, next, 5) ranks against the entities but 1 and 5: at the
        # worst rank, 11, no addition can degrade it, though 11 is below the entity count
        kg, config, model = pipeline
        prediction, candidate = Triple(0, 0, 5), {Triple(7, 1, 0)}
        placed, worst = placed_last(kg, model, prediction, below=True)
        assert rank(placed, prediction, kg) == worst == kg.num_entities - 1
        with pytest.raises(DomainError, match="worst filtered rank"):
            effectiveness_latent(
                kg, placed, prediction, candidate, "negative", "post-train", config,
                rank_before=rank(placed, prediction, kg),
            )
        placed, _ = placed_last(kg, model, prediction, below=False)
        result = effectiveness_latent(
            kg, placed, prediction, candidate, "negative", "post-train", config,
            rank_before=rank(placed, prediction, kg),
        )
        assert result.rank_before == worst - 1

    def test_noop_iff_rank_unchanged_both_polarities(self, pipeline):
        kg, config, model = pipeline
        prediction = kg.test[0]
        assert rank(model, prediction, kg) > 1
        candidate = {Triple(7, 1, 0)}
        assert candidate.isdisjoint(kg.train_set)
        pos = effectiveness_latent(
            kg, model, prediction, candidate, "positive", "post-train", config,
            rank_before=rank(model, prediction, kg),
        )
        neg = effectiveness_latent(
            kg, model, prediction, candidate, "negative", "post-train", config,
            rank_before=rank(model, prediction, kg),
        )
        assert (pos.psi == 0) == (pos.rank_after == pos.rank_before)
        assert (neg.psi == 0) == (neg.rank_after == neg.rank_before)
        assert pos.psi == -neg.psi

    def test_matches_scripted_add_retrain_pipeline(self, pipeline):
        kg, config, model = pipeline
        prediction = kg.test[0]
        candidate = frozenset({Triple(1, 1, 5), Triple(3, 1, 9)})
        assert candidate.isdisjoint(kg.train_set)
        result = effectiveness_latent(
            kg, model, prediction, candidate, "positive", "full-retrain", config,
            rank_before=rank(model, prediction, kg),
        )
        modified = kg.with_train(kg.train + tuple(sorted(candidate)))
        retrained = train(init_model(kg, config), modified, config)
        after = rank_oracle(retrained, prediction, kg)
        before = rank_oracle(model, prediction, kg)
        assert result.psi == before - after


def countries_kg():
    names = [
        "France", "Germany", "Italy", "Spain", "Belgium", "Poland", "Austria",
        "Japan", "Korea", "China", "Vietnam", "Thailand", "Europe", "Asia",
    ]
    ids = {n: i for i, n in enumerate(names)}

    def t(s, r, o):
        return Triple(ids[s], 0 if r == "neighbor_of" else 1, ids[o])

    europe = ["Germany", "Italy", "Spain", "Belgium", "Poland", "Austria"]
    asia = ["Japan", "Korea", "China", "Vietnam", "Thailand"]
    train_triples = [t(c, "located_in", "Europe") for c in europe]
    train_triples += [t(c, "located_in", "Asia") for c in asia]
    pairs = [
        ("Germany", "Poland"), ("Germany", "Austria"), ("Italy", "Austria"),
        ("Spain", "Italy"), ("Belgium", "Germany"), ("Poland", "Austria"),
        ("Japan", "Korea"), ("China", "Vietnam"), ("Vietnam", "Thailand"),
        ("Korea", "China"),
    ]
    for a, b in pairs:
        train_triples += [t(a, "neighbor_of", b), t(b, "neighbor_of", a)]
    train_triples.append(t("France", "neighbor_of", "Spain"))
    kg = KnowledgeGraph(
        names,
        ["neighbor_of", "located_in"],
        tuple(sorted(set(train_triples))),
        test=(t("France", "located_in", "Europe"),),
    )
    return kg, t


class TestLatentNeighborExample:
    def test_adding_neighbor_links_does_not_worsen_the_prediction(self):
        kg, t = countries_kg()
        prediction = t("France", "located_in", "Europe")
        config = TrainConfig(dimension=12, epochs=100, batch_size=128, seed=0)
        model = train(init_model(kg, config), kg, config)
        assert rank(model, prediction, kg) > 1
        candidate = {t("France", "neighbor_of", "Germany"), t("France", "neighbor_of", "Italy")}
        result = effectiveness_latent(
            kg, model, prediction, candidate, "positive", "full-retrain", config,
            rank_before=rank(model, prediction, kg),
        )
        assert result.psi >= 0.0


class TestCandidateExplanation:
    def test_non_empty_enforced(self):
        with pytest.raises(DomainError):
            CandidateExplanation(frozenset())

    def test_sorted_triples_stable(self):
        c = CandidateExplanation(frozenset({Triple(1, 0, 0), Triple(0, 0, 1)}))
        assert c.sorted_triples() == (Triple(0, 0, 1), Triple(1, 0, 0))
        assert len(c) == 2
