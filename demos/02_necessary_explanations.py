"""Which training triples carry a prediction? Remove, retrain, measure.

A clustered graph with a symmetric "pal" relation: some pair directions are
held out, so their reverse links remain in training as the deciding
evidence. The exhaustive singleton oracle should discover exactly those
reverse links, and the gradient heuristics are compared against it.
"""
import numpy as np

from kgexplain import (
    ExplainerConfig,
    KnowledgeGraph,
    TrainConfig,
    Triple,
    build_search_space,
    explain,
    init_model,
    rank,
    train,
)


def clustered_kg(seed=29, clusters=4, size=8, heldout=2):
    rng = np.random.default_rng(seed)
    labels = [f"c{c}_e{i}" for c in range(clusters) for i in range(size)]
    eid = lambda c, i: c * size + i  # noqa: E731
    pairs = sorted(
        {
            tuple(sorted((eid(c, i), eid(c, (i + j) % size))))
            for c in range(clusters)
            for i in range(size)
            for j in (1, 2)
        }
    )
    train_t, held = [], []
    by_cluster = {}
    for a, b in pairs:
        by_cluster.setdefault(a // size, []).append((a, b))
    for c in range(clusters):
        chosen = set(
            int(x) for x in rng.choice(len(by_cluster[c]), size=heldout, replace=False)
        )
        for k, (a, b) in enumerate(by_cluster[c]):
            train_t.append(Triple(a, 0, b))
            (held if k in chosen else train_t).append(Triple(b, 0, a))
    return KnowledgeGraph(labels, ["pal"], tuple(sorted(train_t)), test=tuple(held))


kg = clustered_kg()
config = TrainConfig(dimension=24, epochs=60, batch_size=256, seed=29)
model = train(init_model(kg, config), kg, config)

prediction = next(t for t in kg.eval_split("test") if rank(model, t, kg) == 1)
s, r, o = kg.label_triple(prediction)
print(f"prediction ({s}, {r}, {o}) holds rank {rank(model, prediction, kg)}")
reverse = Triple(prediction.object, prediction.relation, prediction.subject)
print(f"its reverse link {kg.label_triple(reverse)} is in training: {reverse in kg.train_set}")

space = build_search_space(kg, "shares-entity", prediction)
# every explainer reads its evaluator from the config, so all of them below
# score candidates the same way
ec = ExplainerConfig(evaluator="full-retrain")
oracle = explain(kg, model, prediction, "exhaustive-length-1", "necessary", space, ec, config)
print(f"\nexhaustive oracle evaluated {len(oracle['candidates'])} removals "
      f"({oracle['counters']['retrains']} retrains, {oracle['counters']['wall_clock_s']:.1f}s)")
best = oracle["best"]
print(f"best removal: {[tuple(t['labels']) for t in best['triples']]}")
print(f"  effect: rank {best['rank_before']:.0f} -> {best['rank_after']:.0f} "
      f"(psi = {best['psi']:+.0f})")
print(f"  found the reverse link: {[t['ids'] for t in best['triples']] == [list(reverse)]}")

print("\nheuristics under the same evaluator:")
for name, algorithm in [("score-shift ranking", "data-poisoning-direct"),
                        ("first-order influence", "criage-first-order")]:
    run = explain(kg, model, prediction, algorithm, "necessary", space, ec, config)
    top = run["best"]
    if top is None:
        print(f"  {name}: no eligible candidates")
        continue
    print(f"  {name}: best psi {top['psi']:+.0f} "
          f"(oracle bound {best['psi']:+.0f} holds: {top['psi'] <= best['psi']})")

print("\nnon-dominated (length, psi) points of the oracle run:")
for point in oracle["front"]:
    print(f"  length {point['length']:.0f}  psi {point['psi']:+.0f}")
