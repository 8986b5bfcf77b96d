"""Bernoulli ensemble calibration and latent-candidate sampling."""
from __future__ import annotations

import numpy as np
import pytest

from kgexplain import (
    ConfigurationError,
    DomainError,
    GenerativeEnsemble,
    KnowledgeGraph,
    TrainConfig,
    Triple,
    calibrate_ensemble,
    fit_logistic_calibration,
    init_model,
    sample_latent_candidates,
    score,
    train,
)

from kgexplain.latent import EXHAUSTIVE_SPACE_CAP

from conftest import make_random_kg


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


class TestCalibration:
    def test_separated_scores_separate_probabilities(self):
        rng = np.random.default_rng(0)
        pos = rng.normal(2.0, 0.1, size=200)
        neg = rng.normal(-2.0, 0.1, size=200)
        scores = np.concatenate([pos, neg])
        labels = np.concatenate([np.ones(200), np.zeros(200)])
        scale, bias = fit_logistic_calibration(scores, labels)
        assert np.all(sigmoid(scale * pos + bias) > 0.5)
        assert np.all(sigmoid(scale * neg + bias) < 0.5)

    def test_identity_parameters_reduce_to_plain_logistic(self, tiny_kg, tiny_model):
        ensemble = GenerativeEnsemble(model=tiny_model, scale=1.0, bias=0.0)
        t = tiny_kg.train[0]
        assert ensemble.probability(t) == pytest.approx(sigmoid(score(tiny_model, t)))

    def test_recovers_known_logistic_model_within_ten_percent(self):
        rng = np.random.default_rng(7)
        true_scale, true_bias = 2.5, -0.8
        scores = rng.normal(0.0, 1.5, size=20000)
        labels = (rng.random(20000) < sigmoid(true_scale * scores + true_bias)).astype(float)
        scale, bias = fit_logistic_calibration(scores, labels)
        assert abs(scale - true_scale) / abs(true_scale) < 0.10
        assert abs(bias - true_bias) / abs(true_bias) < 0.10

    def test_degenerate_scores_fall_back_to_identity(self, caplog):
        kg = make_random_kg(seed=1, n_entities=6, n_relations=2, n_triples=12)
        model = init_model(kg, TrainConfig(dimension=3, seed=0))
        for name in ("ent_re", "ent_im", "rel_re", "rel_im"):
            getattr(model, name)[:] = 0.0
        with caplog.at_level("WARNING"):
            ensemble = calibrate_ensemble(model, kg, kg.train[:4], seed=3)
        assert ensemble.scale == 1.0 and ensemble.bias == 0.0
        assert any("degenerate" in r.message for r in caplog.records)

    def test_empty_heldout_rejected(self, tiny_kg, tiny_model):
        with pytest.raises(DomainError):
            calibrate_ensemble(tiny_model, tiny_kg, ())

    def test_trained_model_calibrates_positively(self, tiny_kg, tiny_config, tiny_model):
        ensemble = calibrate_ensemble(tiny_model, tiny_kg, tiny_kg.train, seed=0)
        probs = [ensemble.probability(t) for t in tiny_kg.train]
        assert ensemble.scale > 0  # higher score means more plausible
        assert np.mean(probs) > 0.5

    def test_probability_is_the_entry_of_the_row_the_sampler_reads(self, desk_kg, desk_model):
        # a triple's scalar score and its entry of the object-score row can round apart
        # in the last bits; the sampler reads the row, so probability must read it too
        heldout = desk_kg.eval_split("valid") or desk_kg.eval_split("test")
        ensemble = calibrate_ensemble(desk_model, desk_kg, heldout, seed=29)
        objects = range(desk_kg.num_entities)
        for s in range(desk_kg.num_entities):
            for r in range(desk_kg.num_relations):
                got = [ensemble.probability(Triple(s, r, o)) for o in objects]
                assert np.array_equal(got, ensemble.object_probabilities(s, r)), (s, r)

    def test_probabilities_in_unit_interval(self, tiny_kg, tiny_model):
        ensemble = calibrate_ensemble(tiny_model, tiny_kg, tiny_kg.train, seed=0)
        for s in range(tiny_kg.num_entities):
            for r in range(tiny_kg.num_relations):
                p = ensemble.object_probabilities(s, r)
                assert np.all((p >= 0) & (p <= 1))


def brute_force_latent(ensemble, kg, epsilon, budget):
    """Full sweep of the triple space in canonical order."""
    found = []
    for s in range(kg.num_entities):
        for r in range(kg.num_relations):
            for o in range(kg.num_entities):
                t = Triple(s, r, o)
                if t in kg.train_set:
                    continue
                if ensemble.probability(t) >= 1 - epsilon:
                    found.append(t)
                    if len(found) == budget:
                        return found
    return found


@pytest.fixture(scope="module")
def ensemble(tiny_kg, tiny_model):
    return calibrate_ensemble(tiny_model, tiny_kg, tiny_kg.train, seed=0)


class TestSampling:
    def test_epsilon_near_one_fills_the_budget(self, ensemble, tiny_kg):
        sample = sample_latent_candidates(ensemble, tiny_kg, epsilon=0.999999, budget=7, seed=0)
        assert len(sample) == 7

    def test_postconditions_hold(self, ensemble, tiny_kg):
        epsilon = 0.4
        sample = sample_latent_candidates(ensemble, tiny_kg, epsilon=epsilon, budget=50, seed=0)
        for t in sample:
            assert t not in tiny_kg.train_set
            assert ensemble.probability(t) >= 1 - epsilon

    def test_equals_brute_force_on_small_graph(self, tiny_kg, tiny_model):
        kg30 = make_random_kg(seed=21, n_entities=30, n_relations=2, n_triples=90)
        config = TrainConfig(dimension=8, epochs=40, batch_size=128, seed=2)
        model = train(init_model(kg30, config), kg30, config)
        ensemble = calibrate_ensemble(model, kg30, kg30.train, seed=1)
        for epsilon, budget in ((0.3, 25), (0.6, 10**6), (0.9, 40)):
            sample = sample_latent_candidates(ensemble, kg30, epsilon, min(budget, 10**6), seed=5)
            assert sample == brute_force_latent(ensemble, kg30, epsilon, budget)

    def test_seeded_search_above_the_enumeration_cap(self):
        # a ring of 1,100 entities under 2 relations: 2.42M possible triples
        n = 1100
        ring = tuple(Triple(i, r, (i + r + 1) % n) for i in range(n) for r in range(2))
        kg = KnowledgeGraph([f"e{i}" for i in range(n)], ["next", "skip"], ring)
        assert kg.num_entities**2 * kg.num_relations > EXHAUSTIVE_SPACE_CAP
        ensemble = GenerativeEnsemble(init_model(kg, TrainConfig(seed=3)), 1.0, 0.0)
        epsilon, budget = 0.6, 15
        sample = sample_latent_candidates(ensemble, kg, epsilon, budget, seed=5)
        assert 0 < len(sample) <= budget
        assert sample == sorted(set(sample))
        for t in sample:
            assert t not in kg.train_set
            assert ensemble.object_probabilities(t.subject, t.relation)[t.object] >= 1 - epsilon
        assert sample_latent_candidates(ensemble, kg, epsilon, budget, seed=5) == sample

    def test_validation(self, ensemble, tiny_kg):
        with pytest.raises(ConfigurationError):
            sample_latent_candidates(ensemble, tiny_kg, epsilon=0.0, budget=3, seed=0)
        with pytest.raises(ConfigurationError):
            sample_latent_candidates(ensemble, tiny_kg, epsilon=1.0, budget=3, seed=0)
        with pytest.raises(ConfigurationError):
            sample_latent_candidates(ensemble, tiny_kg, epsilon=0.5, budget=0, seed=0)
