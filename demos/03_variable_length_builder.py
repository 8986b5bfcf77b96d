"""Growing explanations beyond single triples with the prefilter + builder.

The builder evaluates all prefiltered singletons first, then explores pairs
(and longer sets, up to four) in order of preliminary relevance: the sum of
each member's singleton effectiveness. It stops at ``max_length``, or
earlier once a candidate reaches the highest psi the mode allows; a length
whose combinations fit ``max_evals_per_length`` is enumerated in full. The
run reports its Pareto front over (length, effectiveness).
"""
import numpy as np

from kgexplain import (
    ExplainerConfig,
    KnowledgeGraph,
    TrainConfig,
    Triple,
    explain,
    init_model,
    prefilter_topk,
    rank,
    train,
)


def clustered_kg(seed=33, clusters=4, size=8, heldout=2):
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
config = TrainConfig(dimension=24, epochs=60, batch_size=256, seed=33)
model = train(init_model(kg, config), kg, config)
prediction = next(t for t in kg.eval_split("test") if rank(model, t, kg) == 1)
print("prediction:", kg.label_triple(prediction))

pool = prefilter_topk(kg, prediction, 6)
print(f"\nprefilter kept {len(pool)} triples, nearest endpoints first:")
for t in pool:
    print("  ", kg.label_triple(t))

ec = ExplainerConfig(
    max_length=2,
    prefilter_k=6,
    evaluator="post-train",
    post_train_epochs=30,  # 6 singletons and all C(6, 2) = 15 pairs: 21 fits
)
# the builder draws its candidates from the prefilter, so it takes no search space
run = explain(kg, model, prediction, "variable-length-builder", "necessary", None, ec, config)
print(f"\nevaluated {len(run['candidates'])} candidates with "
      f"{run['counters']['retrains']} retrains")
for candidate in run["candidates"]:
    triples = [t["labels"][0] + "->" + t["labels"][2] for t in candidate["triples"]]
    print(f"  psi {candidate['psi']:+5.0f}  {' + '.join(triples)}")

print("\nfront (length, psi):", [(int(p["length"]), p["psi"]) for p in run["front"]])
