"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The desk-scale criteria (6-8) share one session-scoped sweep of
full-retrain singleton evaluations over 20 rank-1 predictions on the seeded
50-entity graph, so the whole module completes in a few minutes.
"""
from __future__ import annotations

import dataclasses

import numpy as np

from kgexplain import (
    ExplainerConfig,
    RankRow,
    RankTable,
    TrainConfig,
    Triple,
    calibrate_ensemble,
    comparison_table,
    effectiveness_necessary,
    hits_at_k,
    init_model,
    m_delta_r,
    mrr,
    non_dominated,
    rank,
    sample_latent_candidates,
    score,
    train,
)
from kgexplain.explainers import explain
from kgexplain.model import grad_score_wrt_subject
from kgexplain.training import batch_loss_and_grads, build_examples

from conftest import make_random_kg
from test_model import rank_oracle
from test_pareto import oracle_front


def report(criterion: int, description: str, passed: bool) -> None:
    print(f"[acceptance] criterion {criterion:2d} {'PASS' if passed else 'FAIL'}: {description}")
    assert passed, f"criterion {criterion} failed: {description}"


def test_criterion_01_worked_metric_example_exact():
    """Before-ranks (2,2); three after-rank columns reproduce MRR and Hits."""
    cases = {
        (2, 8): (0.3125, "0.31", [0, 1, 2]),
        (3, 3): (1 / 3, "0.33", [0, 0, 2]),
        (2, 4): (0.375, "0.38", [0, 1, 2]),
    }
    ok = True
    for after, (exact, two_dp, hits) in cases.items():
        t = RankTable(
            rows=(
                RankRow(Triple(0, 0, 1), 2, after[0]),
                RankRow(Triple(1, 0, 2), 2, after[1]),
            )
        )
        ok &= abs(mrr(t, "after") - exact) < 1e-12
        ok &= f"{mrr(t, 'after'):.2f}" == two_dp
        ok &= [hits_at_k(t, k, "after") for k in (1, 2, 10)] == hits
    report(1, "toy-table MRR and Hits@{1,2,10} reproduced at stated precision", ok)


def test_criterion_02_mean_rank_difference_identity():
    """Mean-of-differences equals difference-of-means on 1,000 random tables."""
    rng = np.random.default_rng(1234)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 60))
        rows = tuple(
            RankRow(Triple(i, 0, i + 1), int(rng.integers(1, 5000)), int(rng.integers(1, 5000)))
            for i in range(n)
        )
        t = RankTable(rows=rows)
        value = m_delta_r(t)
        after = np.asarray([r.rank_after for r in rows], dtype=float)
        before = np.asarray([r.rank_before for r in rows], dtype=float)
        worst = max(worst, abs(value - (after.mean() - before.mean())))
    report(2, f"identity holds on 1,000 random tables (worst gap {worst:.2e} <= 1e-12)", worst <= 1e-12)


def test_criterion_03_rank_matches_brute_force_oracle():
    """Filtered rank equals the sort-based oracle on 100 random triples."""
    kg = make_random_kg(seed=77, n_entities=200, n_relations=4, n_triples=800)
    model = init_model(kg, TrainConfig(dimension=4, seed=7))
    rng = np.random.default_rng(99)
    mismatches = 0
    for _ in range(100):
        t = Triple(int(rng.integers(200)), int(rng.integers(4)), int(rng.integers(200)))
        if rank(model, t, kg) != rank_oracle(model, t, kg):
            mismatches += 1
    report(3, "rank equals sort-based oracle on 100 random triples, exactly", mismatches == 0)


def test_criterion_04_pareto_front_correctness():
    """200 random points match the pairwise oracle; the worked pair survives whole."""
    rng = np.random.default_rng(4)
    points = [(float(rng.integers(1, 7)), float(rng.integers(-15, 45))) for _ in range(200)]
    ok = non_dominated(points) == oracle_front(points)
    pair = [(1.0, 15.0), (2.0, 30.0)]
    ok &= non_dominated(pair) == [True, True]
    report(4, "front equals O(n^2) oracle on 200 points; (1,15) and (2,30) both kept", ok)


def test_criterion_05_gradient_checks():
    """Analytic gradients match central differences at 20+ random coordinates."""
    kg = make_random_kg(seed=55, n_entities=15, n_relations=3, n_triples=50)
    config = TrainConfig(dimension=6, epochs=15, seed=3)
    model = train(init_model(kg, config), kg, config)
    rng = np.random.default_rng(5)

    worst_score = 0.0
    for _ in range(20):
        t = Triple(int(rng.integers(15)), int(rng.integers(3)), int(rng.integers(15)))
        while t.subject == t.object:  # self-loops mix the two partials
            t = Triple(int(rng.integers(15)), t.relation, t.object)
        grad = grad_score_wrt_subject(model, t)
        k = int(rng.integers(2 * model.dimension))
        h = 1e-6
        plus, minus = model.clone(), model.clone()
        arr_p = plus.ent_re if k < model.dimension else plus.ent_im
        arr_m = minus.ent_re if k < model.dimension else minus.ent_im
        arr_p[t.subject, k % model.dimension] += h
        arr_m[t.subject, k % model.dimension] -= h
        fd = (score(plus, t) - score(minus, t)) / (2 * h)
        worst_score = max(worst_score, abs(fd - grad[k]) / max(abs(grad[k]), 1e-9))

    examples = build_examples(kg.train, kg.num_relations)
    grad = batch_loss_and_grads(model, examples, 1e-3)[2]
    names = ("ent_re", "ent_im", "rel_re", "rel_im")
    # the model table's gradient as the four real halves, ordered like ``names``
    d = model.dimension
    halves = (slice(d), slice(d, None))
    grads = [part[:, h] for part in np.split(grad, [len(model.ent)]) for h in halves]
    worst_loss = 0.0
    for _ in range(20):
        which = int(rng.integers(4))
        arr = getattr(model, names[which])
        i, j = int(rng.integers(arr.shape[0])), int(rng.integers(arr.shape[1]))
        h = 1e-5
        plus, minus = model.clone(), model.clone()
        getattr(plus, names[which])[i, j] += h
        getattr(minus, names[which])[i, j] -= h
        fd = (
            batch_loss_and_grads(plus, examples, 1e-3)[0]
            - batch_loss_and_grads(minus, examples, 1e-3)[0]
        ) / (2 * h)
        worst_loss = max(worst_loss, abs(fd - grads[which][i, j]) / max(abs(grads[which][i, j]), 1e-8))

    ok = worst_score < 1e-6 and worst_loss < 1e-4
    report(5, f"score grad {worst_score:.1e} < 1e-6, loss grad {worst_loss:.1e} < 1e-4", ok)


def test_criterion_06_necessary_causality_at_desk_scale(
    desk_kg, desk_config, desk_model, desk_oracle_runs
):
    """Removing the oracle's pick and fully retraining never improves the rank
    for >= 90% of rank-1 test predictions; recorded psi matches an independent
    remove-retrain-rank script exactly."""
    test_rank1 = [
        t for t in desk_kg.eval_split("test") if rank(desk_model, t, desk_kg) == 1
    ]
    assert test_rank1, "desk graph must provide rank-1 test predictions"
    non_improving = 0
    strictly_degrading = 0
    psi_mismatches = 0
    for prediction in test_rank1:
        run = desk_oracle_runs[prediction]
        best = run["best"]
        (removed,) = (Triple(*t["ids"]) for t in best["triples"])
        # independent script: remove, retrain from the same seeded init, re-rank
        modified = desk_kg.with_train(t for t in desk_kg.train if t != removed)
        retrained = train(init_model(desk_kg, desk_config), modified, desk_config)
        rank_before = rank_oracle(desk_model, prediction, desk_kg)
        rank_after = rank_oracle(retrained, prediction, desk_kg)
        if best["psi"] != rank_after - rank_before:
            psi_mismatches += 1
        if rank_after >= rank_before:
            non_improving += 1
        if rank_after > rank_before:
            strictly_degrading += 1
    share = non_improving / len(test_rank1)
    print(
        f"[acceptance]   criterion 6 detail: {non_improving}/{len(test_rank1)} non-improving, "
        f"{strictly_degrading}/{len(test_rank1)} strictly degrading, "
        f"{psi_mismatches} psi mismatches"
    )
    report(
        6,
        f"rank' >= rank for {share:.0%} of rank-1 test predictions (>= 90%), psi exact",
        share >= 0.90 and psi_mismatches == 0,
    )


def test_criterion_07_oracle_dominance(
    desk_kg, desk_config, desk_model, desk_predictions, desk_oracle_runs
):
    """No heuristic's best singleton beats the exhaustive oracle under the
    same evaluator and space, on any prediction."""
    config = ExplainerConfig(evaluator="full-retrain", top_m=3)
    violations = 0
    compared = 0
    for prediction in desk_predictions:
        oracle_best = desk_oracle_runs[prediction]["best"]["psi"]
        for heuristic in ("data-poisoning-direct", "criage-first-order"):
            run = explain(
                desk_kg, desk_model, prediction, heuristic, "necessary", None, config, desk_config
            )
            if run["best"] is None:
                continue
            compared += 1
            if run["best"]["psi"] > oracle_best:
                violations += 1
    report(
        7,
        f"exhaustive best psi >= heuristic best psi in {compared} comparisons, zero violations",
        violations == 0 and compared > 0,
    )


def test_criterion_08_post_train_proxy_fidelity(
    desk_kg, desk_config, desk_model, desk_predictions, desk_oracle_runs
):
    """Sign agreement between post-train and full-retrain effectiveness over
    all singleton removals for 20 predictions is at least 80%."""
    agree = 0
    total = 0
    for prediction in desk_predictions:
        for candidate in desk_oracle_runs[prediction]["candidates"]:
            full_psi = candidate["psi"]
            triples = [Triple(*t["ids"]) for t in candidate["triples"]]
            post = effectiveness_necessary(
                desk_kg, desk_model, prediction, triples, "post-train",
                dataclasses.replace(desk_config, epochs=30),
                rank_before=rank(desk_model, prediction, desk_kg),
            )
            agree += int(np.sign(full_psi) == np.sign(post.psi))
            total += 1
    share = agree / total
    report(
        8,
        f"psi-sign agreement {agree}/{total} = {share:.0%} (>= 80%) over 20 predictions",
        share >= 0.80,
    )


def test_criterion_09_comparison_table_qualitative(
    desk_kg, desk_config, desk_model, desk_predictions, desk_oracle_runs
):
    """Comparison rows sort by mean rank difference, flags follow the dominance
    oracle, and the published (ML, MDR) pairs flag exactly two rows."""
    # (a)-(b) on the desk-scale suite: one summary row per algorithm
    config = ExplainerConfig(evaluator="full-retrain", top_m=1)
    summaries = []
    algo_runs = {
        "exhaustive-length-1": [desk_oracle_runs[p] for p in desk_predictions],
        "data-poisoning-direct": [
            explain(
                desk_kg, desk_model, p, "data-poisoning-direct", "necessary", None, config,
                desk_config,
            )
            for p in desk_predictions[:5]
        ],
    }
    for name, runs in algo_runs.items():
        best = [(r, r["best"]) for r in runs if r["best"] is not None]  # each with its own run
        rows = tuple(
            RankRow(Triple(*r["prediction"]["ids"]), int(b["rank_before"]), int(b["rank_after"]))
            for r, b in best
        )
        t = RankTable(rows=rows)
        summaries.append(
            {
                "algorithm": name,
                "mean_length": float(np.mean([b["length"] for _, b in best])),
                "m_delta_r": m_delta_r(t),
            }
        )
    rows = comparison_table(summaries)
    sorted_ok = [r["m_delta_r"] for r in rows] == sorted(
        (r["m_delta_r"] for r in rows), reverse=True
    )
    flags_ok = True
    for row in rows:
        dominated = any(
            q["mean_length"] <= row["mean_length"]
            and q["m_delta_r"] >= row["m_delta_r"]
            and (q["mean_length"] < row["mean_length"] or q["m_delta_r"] > row["m_delta_r"])
            for q in rows
            if q is not row
        )
        flags_ok &= row["pareto_optimal"] == (not dominated)

    # (c) the published mean-length / mean-rank-difference pairs
    published = [
        {"algorithm": "variable-length", "mean_length": 3.92, "m_delta_r": 0.58},
        {"algorithm": "score-shift", "mean_length": 1.0, "m_delta_r": 0.30},
        {"algorithm": "variable-length-k1", "mean_length": 1.0, "m_delta_r": 0.28},
        {"algorithm": "rule-based", "mean_length": 1.0, "m_delta_r": 0.16},
        {"algorithm": "first-order", "mean_length": 1.0, "m_delta_r": 0.14},
    ]
    flagged = {r["algorithm"] for r in comparison_table(published) if r["pareto_optimal"]}
    published_ok = flagged == {"variable-length", "score-shift"}
    report(
        9,
        "comparison sorted by mean rank difference, dominance flags exact, "
        "published pairs flag exactly (3.92, 0.58) and (1, 0.30)",
        sorted_ok and flags_ok and published_ok,
    )


def test_criterion_10_latent_candidate_soundness():
    """Sampled latent candidates are unobserved, above threshold, and equal
    the brute-force sweep on a 30-entity graph."""
    kg = make_random_kg(seed=21, n_entities=30, n_relations=2, n_triples=90)
    config = TrainConfig(dimension=8, epochs=40, batch_size=128, seed=2)
    model = train(init_model(kg, config), kg, config)
    ensemble = calibrate_ensemble(model, kg, kg.train, seed=1)
    ok = True
    for epsilon, budget in ((0.3, 40), (0.7, 10**6)):
        budget = min(budget, 10**6)
        sample = sample_latent_candidates(ensemble, kg, epsilon, budget, seed=5)
        for t in sample:
            ok &= t not in kg.train_set
            ok &= ensemble.probability(t) >= 1 - epsilon
        brute = []
        for s in range(kg.num_entities):
            for r in range(kg.num_relations):
                for o in range(kg.num_entities):
                    t = Triple(s, r, o)
                    if t in kg.train_set:
                        continue
                    if ensemble.probability(t) >= 1 - epsilon:
                        brute.append(t)
                        if len(brute) == budget:
                            break
                if len(brute) == budget:
                    break
            if len(brute) == budget:
                break
        ok &= sample == brute
    report(10, "latent samples unobserved, above threshold, equal to brute force", ok)
