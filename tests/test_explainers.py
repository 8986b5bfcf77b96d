"""Search algorithms: exhaustive oracle, gradient heuristics, builder."""
from __future__ import annotations

import dataclasses
import inspect
import itertools
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import pytest
from scipy.stats import spearmanr

from kgexplain import (
    ConfigurationError,
    DomainError,
    ExplainerConfig,
    KnowledgeGraph,
    TrainConfig,
    Triple,
    build_search_space,
    build_target_set,
    effectiveness_necessary,
    explain,
    first_order_score_change,
    init_model,
    pareto_front,
    prefilter_topk,
    rank,
    score,
    train,
)
from kgexplain import effectiveness, explainers
from kgexplain.cli import parse_experiment_config
from kgexplain.effectiveness import CandidateExplanation, _room, _worst_rank
from kgexplain.explainers import (
    ALGORITHMS,
    MODES,
    read_run,
    variable_length_builder,
)
from kgexplain.kg import SearchSpace, _write_json
from kgexplain.training import post_train

from conftest import make_desk_kg, make_random_kg
from test_pareto import dominates

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def setup(tiny_kg, tiny_config, tiny_model):
    prediction = next(t for t in tiny_kg.train if rank(tiny_model, t, tiny_kg) == 1)
    return tiny_kg, tiny_config, tiny_model, prediction


def explicit_space(members, preset="custom"):
    return SearchSpace(preset, tuple(members))


def triples_of(entry) -> frozenset[Triple]:
    """The triples of a run file's candidate, best or front entry."""
    return frozenset(Triple(*(t["ids"] if isinstance(t, dict) else t)) for t in entry["triples"])


class TestExhaustive:
    def test_single_member_space_wins_by_vacuity(self, setup):
        kg, config, model, prediction = setup
        space = explicit_space([kg.train[1]])
        run = explain(
            kg, model, prediction, "exhaustive-length-1", "necessary", space, ExplainerConfig(),
            config,
        )
        assert len(run["candidates"]) == 1
        assert triples_of(run["best"]) == {kg.train[1]}

    def test_empty_space_rejected(self, setup):
        kg, config, model, prediction = setup
        with pytest.raises(DomainError):
            explain(
                kg, model, prediction, "exhaustive-length-1", "necessary", explicit_space([]),
                ExplainerConfig(), config,
            )

    def test_larger_space_never_hurts_the_argmax(self, setup):
        kg, config, model, prediction = setup
        small = build_search_space(kg, "subject-match", prediction)
        big = build_search_space(kg, "one-hop", prediction)
        assert set(small.members) <= set(big.members)
        run_small = explain(
            kg, model, prediction, "exhaustive-length-1", "necessary", small, ExplainerConfig(),
            config,
        )
        run_big = explain(
            kg, model, prediction, "exhaustive-length-1", "necessary", big, ExplainerConfig(),
            config,
        )
        assert run_big["best"]["psi"] >= run_small["best"]["psi"]

    def test_best_matches_independent_removal_sweep(self):
        kg = make_desk_kg(seed=41, clusters=4, size=10, heldout_per_cluster=2)
        config = TrainConfig(dimension=16, epochs=40, batch_size=256, seed=41)
        model = train(init_model(kg, config), kg, config)
        prediction = next(t for t in kg.eval_split("test") if rank(model, t, kg) == 1)
        space = build_search_space(kg, "shares-entity", prediction)
        run = explain(
            kg, model, prediction, "exhaustive-length-1", "necessary", space, ExplainerConfig(),
            config,
        )
        # independent sweep over the same members, composed from primitives
        base_rank = rank(model, prediction, kg)
        best_psi, best_triple = None, None
        trainable = {prediction.subject}
        for t in kg.train_adjacency[prediction.subject]:
            trainable.update((t.subject, t.object))
        for t in sorted(space.members):
            modified = tuple(x for x in kg.train if x != t)
            tuned = post_train(model, kg, modified, trainable, config)
            psi = rank(tuned, prediction, kg) - base_rank
            if best_psi is None or psi > best_psi:
                best_psi, best_triple = psi, t
        assert run["best"]["psi"] == best_psi
        assert triples_of(run["best"]) == {best_triple}

    def test_records_every_candidate_and_front_is_subset(self, setup):
        kg, config, model, prediction = setup
        space = build_search_space(kg, "shares-entity", prediction)
        run = explain(
            kg, model, prediction, "exhaustive-length-1", "necessary", space, ExplainerConfig(),
            config,
        )
        assert len(run["candidates"]) == len(space.members)
        evaluated = {triples_of(c) for c in run["candidates"]}
        for point in run["front"]:
            assert triples_of(point) in evaluated

    def test_candidate_warnings_reach_the_run_file_once(self):
        kg = make_random_kg(seed=3, n_entities=10, n_relations=2, n_triples=25)
        config = TrainConfig(dimension=4, epochs=5, batch_size=64, seed=3)
        model = train(init_model(kg, config), kg, config)
        prediction = kg.train[0]
        run = explain(
            kg, model, prediction, "exhaustive-length-1", "sufficient",
            explicit_space(kg.train[:2]), ExplainerConfig(evaluator="full-retrain"), config,
        )
        assert len(run["candidates"]) == 2
        assert run["warnings"] == [
            "training on the candidate alone likely produced meaningless embeddings"
        ]

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_retrain_count_matches_candidates(self, setup, algorithm):
        kg, config, model, prediction = setup
        ec = ExplainerConfig(top_m=3, max_length=2, prefilter_k=4)
        space = build_search_space(kg, "shares-entity", prediction)
        run = explain(kg, model, prediction, algorithm, "necessary", space, ec, config)
        candidates = run["candidates"]
        assert candidates
        assert run["counters"]["retrains"] == sum(c["retrains"] for c in candidates) == len(candidates)
        assert {c["evaluator"] for c in candidates} == {run["config"]["evaluator"]}


class TestDataPoisoning:
    def test_zero_lambda_orders_by_plain_score(self, setup):
        kg, config, model, prediction = setup
        neighbors = sorted(t for t in kg.train if t.subject == prediction.subject)
        ec = ExplainerConfig(lambda_weight=0.0, top_m=len(neighbors), evaluator="post-train")
        run = explain(
            kg, model, prediction, "data-poisoning-direct", "necessary", None, ec, config,
        )
        got = [min(triples_of(c)) for c in run["candidates"]]
        expected = sorted(neighbors, key=lambda t: (-score(model, t), t))
        assert got == expected

    def test_zero_step_orders_by_scaled_score(self, setup):
        kg, config, model, prediction = setup
        neighbors = sorted(t for t in kg.train if t.subject == prediction.subject)
        ec = ExplainerConfig(
            perturbation_step=0.0, lambda_weight=0.5, top_m=len(neighbors),
            evaluator="post-train",
        )
        run = explain(
            kg, model, prediction, "data-poisoning-direct", "necessary", None, ec, config,
        )
        for candidate in run["candidates"]:
            t = min(triples_of(candidate))
            assert candidate["heuristic_score"] == pytest.approx(0.5 * score(model, t))

    def test_never_beats_the_exhaustive_oracle(self, setup):
        kg, config, model, prediction = setup
        ec = ExplainerConfig(top_m=3, evaluator="post-train")
        heuristic = explain(
            kg, model, prediction, "data-poisoning-direct", "necessary", None, ec, config,
        )
        space = build_search_space(kg, "shares-entity", prediction)
        oracle = explain(
            kg, model, prediction, "exhaustive-length-1", "necessary", space, ec, config,
        )
        assert oracle["best"]["psi"] >= heuristic["best"]["psi"]

    def test_isolated_subject_warns_with_empty_run(self, setup):
        kg, config, model, _ = setup
        # entity 11 is a pure sink: never a training subject
        lonely = Triple(11, 0, 0)
        run = explain(
            kg, model, lonely, "data-poisoning-direct", "necessary", None, ExplainerConfig(),
            config,
        )
        assert run["candidates"] == []
        assert "no eligible neighbors" in run["warnings"]


class TestCriageFirstOrder:
    def test_disjoint_candidate_has_zero_estimate(self, setup):
        kg, config, model, _ = setup
        estimate = first_order_score_change(model, Triple(0, 0, 1), Triple(5, 1, 7), 0.1)
        assert estimate == 0.0

    def test_estimate_linear_in_step(self, setup):
        kg, config, model, prediction = setup
        candidate = next(t for t in kg.train if t.object == prediction.object)
        one = first_order_score_change(model, prediction, candidate, 0.1)
        two = first_order_score_change(model, prediction, candidate, 0.2)
        assert two == pytest.approx(2 * one, abs=1e-12)

    def test_estimates_correlate_with_post_train_score_changes(self):
        kg = make_desk_kg(seed=43, clusters=3, size=10, heldout_per_cluster=2)
        config = TrainConfig(dimension=16, epochs=40, batch_size=256, seed=43)
        model = train(init_model(kg, config), kg, config)
        prediction = next(t for t in kg.eval_split("test") if rank(model, t, kg) == 1)
        candidates = sorted(
            t for t in kg.train_adjacency[prediction.object] if t.object == prediction.object
        )
        assert len(candidates) >= 5
        estimates, truths = [], []
        trainable = {prediction.subject, prediction.object}
        for t in kg.train_adjacency[prediction.subject]:
            trainable.update((t.subject, t.object))
        for t in kg.train_adjacency[prediction.object]:
            trainable.update((t.subject, t.object))
        post_config = dataclasses.replace(config, epochs=20)
        for t in candidates:
            estimates.append(first_order_score_change(model, prediction, t, 0.1))
            modified = tuple(x for x in kg.train if x != t)
            tuned = post_train(model, kg, modified, trainable, post_config)
            truths.append(score(tuned, prediction) - score(model, prediction))
        rho = spearmanr(estimates, truths).statistic
        assert rho > 0

    def test_candidates_ordered_by_estimated_damage(self, setup):
        kg, config, model, prediction = setup
        run = explain(
            kg, model, prediction, "criage-first-order", "necessary", None, ExplainerConfig(),
            config,
        )
        estimates = [c["heuristic_score"] for c in run["candidates"]]
        assert estimates == sorted(estimates)

    def test_never_beats_the_exhaustive_oracle(self, setup):
        kg, config, model, prediction = setup
        ec = ExplainerConfig(evaluator="post-train")
        heuristic = explain(
            kg, model, prediction, "criage-first-order", "necessary", None, ec, config,
        )
        space = build_search_space(kg, "shares-entity", prediction)
        oracle = explain(
            kg, model, prediction, "exhaustive-length-1", "necessary", space, ec, config,
        )
        assert oracle["best"]["psi"] >= heuristic["best"]["psi"]


class TestPrefilter:
    def test_returns_all_when_fewer_than_k(self):
        kg = KnowledgeGraph(
            ["a", "b", "c", "d"],
            ["r"],
            (Triple(0, 0, 1), Triple(0, 0, 2), Triple(3, 0, 0)),
        )
        got = prefilter_topk(kg, Triple(0, 0, 1), 10)
        assert set(got) == set(kg.train)

    def test_endpoint_equal_to_object_ranks_first(self):
        kg = KnowledgeGraph(
            ["s", "o", "far", "farther"],
            ["r"],
            (Triple(0, 0, 1), Triple(0, 0, 2), Triple(2, 0, 3)),
        )
        got = prefilter_topk(kg, Triple(0, 0, 1), 10)
        assert got[0] == Triple(0, 0, 1)  # its endpoint is the object itself

    def test_distances_match_bfs_oracle(self):
        kg = make_random_kg(seed=31, n_entities=25, n_relations=2, n_triples=70)
        prediction = kg.train[0]
        s_x, o_x = prediction.subject, prediction.object
        got = prefilter_topk(kg, prediction, 1000)

        # independent breadth-first distances over undirected training edges
        edges = {}
        for t in kg.train:
            edges.setdefault(t.subject, set()).add(t.object)
            edges.setdefault(t.object, set()).add(t.subject)
        dist = {o_x: 0}
        frontier = [o_x]
        while frontier:
            nxt = []
            for e in frontier:
                for nb in edges.get(e, ()):
                    if nb not in dist:
                        dist[nb] = dist[e] + 1
                        nxt.append(nb)
            frontier = nxt

        def key(t):
            other = t.object if t.subject == s_x else t.subject
            return (dist.get(other, float("inf")), t)

        incident = sorted({t for t in kg.train if s_x in (t.subject, t.object)})
        assert list(got) == sorted(incident, key=key)

    def test_isolated_subject_returns_empty(self, caplog):
        kg = KnowledgeGraph(["a", "b", "c"], ["r"], (Triple(1, 0, 2),))
        with caplog.at_level("WARNING"):
            got = prefilter_topk(kg, Triple(0, 0, 1), 5)
        assert got == ()

    def test_k_validation(self):
        kg = KnowledgeGraph(["a", "b"], ["r"], (Triple(0, 0, 1),))
        with pytest.raises(ConfigurationError):
            prefilter_topk(kg, Triple(0, 0, 1), 0)


class TestBuilder:
    def test_max_length_one_stops_after_singletons(self, setup):
        kg, config, model, prediction = setup
        ec = ExplainerConfig(max_length=1, prefilter_k=4, evaluator="post-train")
        run = explain(
            kg, model, prediction, "variable-length-builder", "necessary", None, ec, config,
        )
        assert all(c["length"] == 1 for c in run["candidates"])
        assert len(run["candidates"]) == len(prefilter_topk(kg, prediction, 4))

    def test_pairs_are_exhausted_in_relevance_order(self, setup):
        kg, config, model, prediction = setup
        ec = ExplainerConfig(max_length=2, prefilter_k=4, evaluator="post-train")
        run = explain(
            kg, model, prediction, "variable-length-builder", "necessary", None, ec, config,
        )
        pool = prefilter_topk(kg, prediction, 4)
        singles = [c for c in run["candidates"] if c["length"] == 1]
        pairs = [c for c in run["candidates"] if c["length"] == 2]
        assert len(singles) == len(pool)
        assert len(pairs) == len(list(itertools.combinations(pool, 2)))
        # pairs visited by descending preliminary relevance (sum of member psi)
        singleton_psi = {min(triples_of(c)): c["psi"] for c in singles}
        relevances = [sum(singleton_psi[t] for t in triples_of(c)) for c in pairs]
        assert relevances == sorted(relevances, reverse=True)
        assert all(r == pytest.approx(c["heuristic_score"]) for r, c in zip(relevances, pairs))

    def test_front_is_subset_of_exhaustive_front_up_to_length_two(self, setup):
        kg, config, model, prediction = setup
        ec = ExplainerConfig(max_length=2, prefilter_k=4, evaluator="post-train")
        run = explain(
            kg, model, prediction, "variable-length-builder", "necessary", None, ec, config,
        )
        # true front from explicit enumeration of all subsets of the pool
        pool = prefilter_topk(kg, prediction, 4)
        candidates = []
        for length in (1, 2):
            for combo in itertools.combinations(sorted(pool), length):
                explanation = CandidateExplanation(frozenset(combo))
                result = effectiveness_necessary(
                    kg, model, prediction, explanation, "post-train", config,
                    rank_before=rank(model, prediction, kg),
                )
                candidates.append((explanation, result))
        truth = pareto_front(candidates)
        true_points = {(len(e), r.psi, e.triples) for e, r in truth}
        for point in run["front"]:
            assert (point["length"], point["psi"], triples_of(point)) in true_points

    def test_exhaustive_oracle_front_dominates_the_default_builder(
        self, desk_kg, desk_model, desk_config, desk_predictions
    ):
        # a budget of C(6, 2) = 15 enumerates every pair: 6 + 15 fits per prediction
        oracle_config = ExplainerConfig(
            max_length=2, prefilter_k=6, evaluator="post-train", max_evals_per_length=15,
        )
        default_config = ExplainerConfig(max_length=2, prefilter_k=6, evaluator="post-train")
        for prediction in desk_predictions[:5]:
            pool = prefilter_topk(desk_kg, prediction, 6)
            assert len(pool) == 6
            oracle, default = (
                explain(
                    desk_kg, desk_model, prediction, "variable-length-builder", "necessary", None,
                    ec, desk_config,
                )
                for ec in (oracle_config, default_config)
            )
            subsets = {frozenset(c) for k in (1, 2) for c in itertools.combinations(pool, k)}
            assert sorted(map(triples_of, oracle["candidates"]), key=sorted) == sorted(
                subsets, key=sorted
            )
            for point in default["front"]:
                assert any(
                    o["length"] <= point["length"] and o["psi"] >= point["psi"]
                    for o in oracle["front"]
                ), (prediction, point)
            by_triples = {triples_of(c): c for c in oracle["candidates"]}
            for c in default["candidates"]:
                twin = by_triples[triples_of(c)]
                assert (c["psi"], c["rank_after"]) == (twin["psi"], twin["rank_after"])

    def test_the_default_builder_puts_a_pair_on_every_front(
        self, desk_kg, desk_model, desk_config, desk_predictions
    ):
        # every subset fits the default budget, so the run is the oracle over its pool
        ec = ExplainerConfig(max_length=2, evaluator="post-train")
        for prediction in desk_predictions[:5]:
            pool = prefilter_topk(desk_kg, prediction, ec.prefilter_k)
            run = explain(
                desk_kg, desk_model, prediction, "variable-length-builder", "necessary", None,
                ec, desk_config,
            )
            subsets = {frozenset(c) for k in (1, 2) for c in itertools.combinations(pool, k)}
            assert sorted(map(triples_of, run["candidates"]), key=sorted) == sorted(
                subsets, key=sorted
            )
            assert any(point["length"] == 2 for point in run["front"]), prediction

    def test_deterministic_under_fixed_seed(
        self, desk_kg, desk_model, desk_config, desk_predictions
    ):
        kg, prediction = desk_kg, desk_predictions[0]
        assert len(prefilter_topk(kg, prediction, 4)) == 4
        ec = ExplainerConfig(
            max_length=2, prefilter_k=4, evaluator="post-train",
            max_evals_per_length=3,  # below C(4, 2) = 6
        )
        a, b = (
            explain(
                kg, desk_model, prediction, "variable-length-builder", "necessary", None, ec,
                desk_config,
            )
            for _ in range(2)
        )
        assert len(a["candidates"]) == 4 + 3
        assert [c["triples"] for c in a["candidates"]] == [c["triples"] for c in b["candidates"]]
        assert [c["psi"] for c in a["candidates"]] == [c["psi"] for c in b["candidates"]]

    def test_a_budget_below_the_combination_count_keeps_the_relevance_ordered_prefix(
        self, desk_kg, desk_model, desk_config, desk_predictions
    ):
        kg, prediction = desk_kg, desk_predictions[0]
        ec = ExplainerConfig(
            max_length=3, prefilter_k=6, max_evals_per_length=5, evaluator="post-train",
        )
        run = explain(
            kg, desk_model, prediction, "variable-length-builder", "necessary", None, ec,
            desk_config,
        )
        pool = sorted(prefilter_topk(kg, prediction, 6))
        assert len(pool) == 6  # C(6, 2) = 15 pairs and C(6, 3) = 20 triples, budget 5
        singles = [c for c in run["candidates"] if c["length"] == 1]
        singleton_psi = {min(triples_of(c)): c["psi"] for c in singles}
        for length in (2, 3):
            combos = itertools.combinations(pool, length)
            relevance = {combo: sum(singleton_psi[t] for t in combo) for combo in combos}
            prefix = sorted(relevance, key=lambda combo: (-relevance[combo], combo))[:5]
            got = [c for c in run["candidates"] if c["length"] == length]
            assert [tuple(sorted(triples_of(c))) for c in got] == prefix
            assert [c["heuristic_score"] for c in got] == [relevance[combo] for combo in prefix]

    def test_a_length_whose_combinations_exceed_the_budget_ends(self, tmp_path):
        # singleton psi 9, 7, 5, 3, 2, 1, 0, 0 and psi 0 for every pair: the 28 pairs exceed
        # the budget of 20, which must end the length
        code = """
from types import SimpleNamespace
from kgexplain import ExplainerConfig, KnowledgeGraph, Triple
from kgexplain.explainers import variable_length_builder

class Search:
    kg = KnowledgeGraph(list("abcdefghij"), ["r"], tuple(Triple(0, 0, o) for o in range(1, 9)))
    prediction = Triple(0, 0, 9)
    config = ExplainerConfig(max_length=2, prefilter_k=8, max_evals_per_length=20)
    ceiling = None
    psi = dict(zip(sorted(kg.train), (9, 7, 5, 3, 2, 1, 0, 0)))
    candidates = []

    def evaluate(self, triples, heuristic=None):
        self.candidates.append(triples)
        return SimpleNamespace(psi=self.psi[triples[0]] if len(triples) == 1 else 0)

search = Search()
variable_length_builder(search)
print(sum(len(c) == 1 for c in search.candidates), sum(len(c) == 2 for c in search.candidates))
"""
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        done = subprocess.run(
            [sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["8", "20"]

    def test_a_length_holds_no_more_combinations_in_memory_than_its_budget(self):
        # a 40-triple hub up to length 4: C(40, 4) = 91,390 combinations, 20 of them evaluated
        kg = KnowledgeGraph(
            [f"e{i}" for i in range(42)], ["r"], tuple(Triple(0, 0, o) for o in range(1, 41))
        )
        psi = {t: float(t.object % 7) for t in kg.train}  # ties go to the lowest triple ids
        evaluated = []

        class Search:
            config = ExplainerConfig(max_length=4, prefilter_k=40, max_evals_per_length=20)
            ceiling = None

            def evaluate(self, triples, heuristic=None):
                evaluated.append((tuple(triples), heuristic))
                return SimpleNamespace(psi=psi[triples[0]] if len(triples) == 1 else 0.0)

        search = Search()
        search.kg, search.prediction = kg, Triple(0, 0, 41)
        tracemalloc.start()
        try:
            variable_length_builder(search)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        expected = [((t,), None) for t in sorted(kg.train)]
        for length in (2, 3, 4):
            combos = itertools.combinations(sorted(kg.train), length)
            ordered = sorted(combos, key=lambda c: (-sum(psi[t] for t in c), c))[:20]
            expected += [(c, sum(psi[t] for t in c)) for c in ordered]
        assert evaluated == expected

    @pytest.mark.parametrize("max_length, psi, evaluated", [
        (2, {(1,): 5, (2,): 1, (3,): 0}, [(1,), (2,), (3,)]),
        (3, {(1,): 3, (2,): 2, (3,): 0}, [(1,), (2,), (3,), (1, 2), (1, 3), (2, 3)]),
    ])
    def test_a_psi_at_the_ceiling_ends_the_search(self, max_length, psi, evaluated):
        # ceiling 5: a singleton at it ends the run before the pairs, a pair before the triples
        kg = KnowledgeGraph(list("abcde"), ["r"], tuple(Triple(0, 0, o) for o in (1, 2, 3)))
        seen = []

        class Search:
            config = ExplainerConfig(max_length=max_length, prefilter_k=3)
            ceiling = 5

            def evaluate(self, triples, heuristic=None):
                seen.append(tuple(t.object for t in triples))
                return SimpleNamespace(psi=sum(psi[(t.object,)] for t in triples))

        search = Search()
        search.kg, search.prediction = kg, Triple(0, 0, 4)
        variable_length_builder(search)
        assert seen == evaluated

    def test_a_sufficient_run_at_rank_one_ends_at_its_singletons_with_a_singleton_best(
        self, desk_kg, desk_model, desk_config, desk_predictions
    ):
        # at rank 1 the sufficient ceiling is psi 0, which no singleton falls short of here
        ec = ExplainerConfig(max_length=2, evaluator="post-train", post_train_epochs=20)
        for prediction in desk_predictions[:5]:
            pool = prefilter_topk(desk_kg, prediction, ec.prefilter_k)
            run = explain(
                desk_kg, desk_model, prediction, "variable-length-builder", "sufficient", None,
                ec, desk_config,
            )
            assert run["counters"]["retrains"] == len(run["candidates"]) == len(pool)
            best = run["best"]
            assert (best["length"], best["psi"]) == (1, 0.0), prediction
            assert sorted(triples_of(best)) in [sorted(triples_of(p)) for p in run["front"]]

    def test_max_length_bound_respected(self, setup):
        kg, config, model, prediction = setup
        ec = ExplainerConfig(max_length=2, prefilter_k=4, evaluator="post-train")
        run = explain(
            kg, model, prediction, "variable-length-builder", "necessary", None, ec, config,
        )
        assert max(c["length"] for c in run["candidates"]) <= 2

    def test_empty_pool_rejected(self, tiny_config, tiny_model, tiny_kg):
        lonely = Triple(11, 0, 0)  # sink entity: no incident training subject edge
        kg2 = KnowledgeGraph(
            tiny_kg.entity_labels, tiny_kg.relation_labels,
            tuple(t for t in tiny_kg.train if 11 not in (t.subject, t.object)),
        )
        with pytest.raises(DomainError):
            explain(
                kg2, tiny_model, lonely, "variable-length-builder", "necessary", None,
                ExplainerConfig(max_length=2, evaluator="post-train"), tiny_config,
            )

    def test_max_length_validation(self, setup):
        kg, config, model, prediction = setup
        with pytest.raises(ConfigurationError, match="max_length must lie in"):
            explain(
                kg, model, prediction, "variable-length-builder", "necessary", None,
                ExplainerConfig(max_length=5), config,
            )


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize(
    ("field", "value"), [("top_m", 0), ("top_m", -2), ("prefilter_k", 0)]
)
def test_heuristic_explainers_validate_their_config_first(setup, algorithm, field, value):
    # the Python API holds the bounds the CLI enforces: top_m=0 used to give an
    # empty run and top_m=-2 to drop the last two neighbours
    kg, config, model, prediction = setup
    ec = ExplainerConfig(post_train_epochs=2, **{field: value})
    space = build_search_space(kg, "shares-entity", prediction)
    with pytest.raises(ConfigurationError, match=f"{field} must be >= 1"):
        explain(kg, model, prediction, algorithm, "necessary", space, ec, config)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_explain_and_the_cli_reject_the_same_algorithm_mode_pairs(
    setup, tmp_path, monkeypatch, algorithm, mode
):
    # the heuristics rank removals; the builder's prefilter proposes training triples
    allowed = (
        algorithm == "exhaustive-length-1"
        or mode == "necessary"
        or (algorithm == "variable-length-builder" and not mode.startswith("latent-"))
    )
    ini = tmp_path / "pair.ini"
    ini.write_text(
        f"[dataset]\npath = {tmp_path}\n\n[explain]\nmode = {mode}\nalgorithms = {algorithm}\n"
    )
    functions = {
        "exhaustive-length-1": "exhaustive_length1",
        "data-poisoning-direct": "data_poisoning_direct",
        "criage-first-order": "criage_first_order",
        "variable-length-builder": "variable_length_builder",
    }
    ran = []
    for name in functions.values():
        monkeypatch.setattr(explainers, name, lambda *args, name=name: ran.append(name))
    kg, config, model, prediction = setup
    space = build_search_space(kg, "shares-entity", prediction)
    checks = (
        parse_experiment_config(ini).validate,
        lambda: explain(kg, model, prediction, algorithm, mode, space, ExplainerConfig(), config),
    )
    for check in checks:
        if allowed:
            check()
            continue
        with pytest.raises(ConfigurationError, match="does not explain") as caught:
            check()
        assert repr(algorithm) in str(caught.value) and repr(mode) in str(caught.value)
    assert ran == ([functions[algorithm]] if allowed else [])


@pytest.mark.parametrize(
    ("algorithm", "mode"), [("exhaustive_length1", "necessary"), ("criage-first-order", "necesary")]
)
def test_explain_rejects_an_unknown_algorithm_or_mode_naming_both(setup, algorithm, mode):
    kg, config, model, prediction = setup
    with pytest.raises(ConfigurationError, match="unknown") as caught:
        explain(kg, model, prediction, algorithm, mode, None, ExplainerConfig(), config)
    assert repr(algorithm) in str(caught.value) and repr(mode) in str(caught.value)


def test_explain_runs_the_exhaustive_oracle_only_over_a_given_space(setup):
    kg, config, model, prediction = setup
    with pytest.raises(ConfigurationError, match="'exhaustive-length-1' needs a search space"):
        explain(kg, model, prediction, "exhaustive-length-1", "necessary", None,
                ExplainerConfig(), config)


def test_explain_narrows_the_c_sufficient_space_to_the_subjects_triples(setup):
    kg, config, model, _ = setup
    prediction = kg.test[0]  # its object has triples without its subject
    space = build_search_space(kg, "shares-entity", prediction)
    narrowed = explicit_space(
        [t for t in space.members if prediction.subject in (t.subject, t.object)], space.preset
    )
    assert 0 < len(narrowed.members) < len(space.members)
    ec = ExplainerConfig(post_train_epochs=2)
    targets = build_target_set(kg, model, prediction, 2, seed=0)
    runs = [
        explain(
            kg, model, prediction, "exhaustive-length-1", "c-sufficient", members, ec, config,
            targets,
        )
        for members in (space, narrowed)
    ]
    for run in runs:
        run["counters"].pop("wall_clock_s")
    assert runs[0] == runs[1]


@pytest.mark.parametrize("evaluator", ["post-train", "full-retrain"])
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_every_fit_of_a_run_gets_the_evaluators_epoch_count(
    setup, monkeypatch, algorithm, evaluator
):
    # a post-train runs post_train_epochs; a full retrain keeps the training epochs
    kg, config, model, prediction = setup
    signature, epochs = inspect.signature(post_train), []

    def recording(*args, **kwargs):
        call = signature.bind(*args, **kwargs).arguments
        epochs.append(call["config"].epochs)
        return post_train(*args, **kwargs)

    monkeypatch.setattr(effectiveness, "post_train", recording)
    post = evaluator == "post-train"
    ec = ExplainerConfig(
        evaluator=evaluator, post_train_epochs=2 if post else None, top_m=3, max_length=2,
        prefilter_k=4,
    )
    space = build_search_space(kg, "shares-entity", prediction)
    run = explain(kg, model, prediction, algorithm, "necessary", space, ec, config)
    assert len(epochs) == run["counters"]["retrains"] > 0
    assert set(epochs) == {2 if post else config.epochs}


class TestRunSerialization:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_run_file_round_trip(self, desk_kg, desk_config, desk_model, tmp_path, algorithm):
        prediction = next(
            t for t in desk_kg.eval_split("test") if rank(desk_model, t, desk_kg) == 1
        )
        ec = ExplainerConfig(
            evaluator="post-train", post_train_epochs=2, top_m=3, max_length=2, prefilter_k=4
        )
        space = build_search_space(desk_kg, "shares-entity", prediction)
        run = explain(desk_kg, desk_model, prediction, algorithm, "necessary", space, ec, desk_config)
        path = tmp_path / f"run_{algorithm}_0000.json"
        _write_json(path, run)  # as explain writes it
        assert read_run(path, algorithm, prediction) == run
        tied = [c for c in run["candidates"] if c["psi"] == run["best"]["psi"]]
        assert run["best"] == min(
            tied, key=lambda c: (c["length"], [t["ids"] for t in c["triples"]])
        )
        if algorithm == "data-poisoning-direct":  # its three candidates share the best psi
            assert len(tied) == 3

    def test_front_entries_are_the_non_dominated_candidates_with_float_lengths(self, setup):
        kg, config, model, prediction = setup
        ec = ExplainerConfig(max_length=2, prefilter_k=4, evaluator="post-train")
        payload = explain(
            kg, model, prediction, "variable-length-builder", "necessary", None, ec, config,
        )
        points = [(c["length"], c["psi"]) for c in payload["candidates"]]
        expected = [
            {
                "length": float(c["length"]),
                "psi": c["psi"],
                "triples": [t["ids"] for t in c["triples"]],
            }
            for c, p in zip(payload["candidates"], points)
            if not any(dominates(q, p) for q in points)
        ]
        assert payload["front"] == expected
        assert {p["length"] for p in payload["front"]} == {1.0, 2.0}
        assert all(type(p["length"]) is float for p in payload["front"])


def test_one_explain_ranks_each_model_and_triple_once(
    desk_kg, desk_model, desk_config, monkeypatch
):
    """A base rank is a constant of the prediction: every algorithm and mode ranks it once.

    Each call after that ranks a retrained model, once per retrain, and no
    c-sufficient call ranks a target's completion under the base model:
    ``build_target_set`` has ranked each already.
    """
    kg, model = desk_kg, desk_model
    # room to move either way, so that both latent polarities run
    prediction = next(
        t for t in kg.eval_split("valid") + kg.eval_split("test")
        if 1 < rank(model, t, kg) < _worst_rank(kg, t)
    )
    config = ExplainerConfig(max_length=2, max_evals_per_length=3, post_train_epochs=2)
    unseen = (Triple(prediction.subject, 1, o) for o in range(kg.num_entities))
    spaces = {
        "shares-entity": build_search_space(kg, "shares-entity", prediction),
        "latent": SearchSpace("latent-sample", tuple(t for t in unseen if t not in kg.train_set)[:3]),
    }
    targets = build_target_set(kg, model, prediction, 2, seed=0)
    calls = []

    def counted(ranked, triple, graph):
        calls.append((ranked, triple))  # holding each model keeps its id its own
        return rank(ranked, triple, graph)

    for module in (effectiveness, explainers):
        monkeypatch.setattr(module, "rank", counted)
    for algorithm, modes in ALGORITHMS.items():
        for mode in modes:
            calls.clear()
            space = spaces["latent" if mode.startswith("latent-") else "shares-entity"]
            run = explain(
                kg, model, prediction, algorithm, mode, space, config, desk_config,
                targets if mode == "c-sufficient" else None,
            )
            pairs = [(id(ranked), triple) for ranked, triple in calls]
            assert len(pairs) == len(set(pairs)), (algorithm, mode)
            assert len(calls) == 1 + run["counters"]["retrains"] > 1, (algorithm, mode)
            assert calls[0] == (model, prediction)
            if mode == "c-sufficient":
                completions = {Triple(c, prediction.relation, prediction.object) for c, _ in targets}
                assert not [t for m, t in calls if m is model and t in completions], algorithm


def test_no_candidate_exceeds_its_mode_room(desk_kg, desk_model, desk_config):
    """Every psi is at most the room of its mode's sign, the builder's ceiling where it has one."""
    kg, model = desk_kg, desk_model
    # room to move either way, so that every mode runs
    prediction = next(
        t for t in kg.eval_split("valid") + kg.eval_split("test")
        if 1 < rank(model, t, kg) < _worst_rank(kg, t)
    )
    before = rank(model, prediction, kg)
    config = ExplainerConfig(max_length=2, max_evals_per_length=3, post_train_epochs=2)
    unseen = (Triple(prediction.subject, 1, o) for o in range(kg.num_entities))
    spaces = {
        "shares-entity": build_search_space(kg, "shares-entity", prediction),
        "latent": SearchSpace("latent-sample", tuple(t for t in unseen if t not in kg.train_set)[:3]),
    }
    targets = build_target_set(kg, model, prediction, 2, seed=0)
    signs = {"necessary": 1, "latent-negative": 1, "sufficient": -1, "latent-positive": -1}
    for algorithm, modes in ALGORITHMS.items():
        for mode in modes:
            space = spaces["latent" if mode.startswith("latent-") else "shares-entity"]
            run = explain(
                kg, model, prediction, algorithm, mode, space, config, desk_config,
                targets if mode == "c-sufficient" else None,
            )
            if mode == "c-sufficient":
                room = sum(b - 1 for _, b in targets) / len(targets)
            else:
                room = _room(kg, prediction, before, signs[mode])
            psi = [c["psi"] for c in run["candidates"]]
            assert psi and max(psi) <= room, (algorithm, mode)
            search = explainers._Search(kg, model, prediction, mode, config, desk_config, targets)
            assert search.ceiling == (room if mode in ("necessary", "sufficient") else None), mode
