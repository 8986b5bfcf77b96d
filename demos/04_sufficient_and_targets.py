"""Sufficiency two ways: anchored relearning, and transfer onto targets.

First the keep-only operator: relearn a candidate's entities from the
candidate's triples alone, anchored in the frozen remainder of the model,
and see how well the prediction survives. A full region chain preserves a
held-out city->continent completion better than any of its single links.

Then the transfer proxy: swap the prediction's subject for target entities
whose completions are not yet top-ranked (``build_target_set`` returns each
target's id with the base rank of its completion), add the swapped copies to
training, and measure the targets' average rank improvement. Every operator
takes its base rank from the caller, which ranks the prediction once.
"""
from kgexplain import (
    KnowledgeGraph,
    TrainConfig,
    Triple,
    build_target_set,
    effectiveness_c_sufficient,
    effectiveness_sufficient,
    init_model,
    rank,
    train,
)


def chain_kg(n_chains=8):
    base = ["paris", "ile_de_france", "france", "europe"]
    names, chains = [], []
    for k in range(n_chains):
        chain = base if k == 0 else [f"city{k}", f"region{k}", f"country{k}", f"continent{k}"]
        names += chain
        chains.append(chain)
    ids = {n: i for i, n in enumerate(names)}

    def t(s, r, o):
        return Triple(ids[s], 0 if r == "located_in" else 1, ids[o])

    train_t, test_t = [], []
    for k, chain in enumerate(chains):
        for a, b in zip(chain, chain[1:]):
            train_t.append(t(a, "located_in", b))
        (test_t if k == 0 else train_t).append(t(chain[0], "city_in", chain[3]))
    kg = KnowledgeGraph(
        names, ["located_in", "city_in"], tuple(sorted(train_t)), test=tuple(test_t)
    )
    return kg, t


kg, t = chain_kg()
config = TrainConfig(dimension=16, epochs=150, batch_size=128, seed=7)
model = train(init_model(kg, config), kg, config)

prediction = t("paris", "city_in", "europe")
print(f"held-out prediction {kg.label_triple(prediction)} ranks {rank(model, prediction, kg)}")

path = [
    t("paris", "located_in", "ile_de_france"),
    t("ile_de_france", "located_in", "france"),
    t("france", "located_in", "europe"),
]
print("\nkeep-only post-training (frozen context), psi = rank preserved/improved:")
before = rank(model, prediction, kg)
whole = effectiveness_sufficient(kg, model, prediction, set(path), "post-train", config, before)
print(f"  full chain        psi {whole.psi:+.0f}  (rank {whole.rank_before:.0f} -> {whole.rank_after:.0f})")
for link in path:
    res = effectiveness_sufficient(kg, model, prediction, {link}, "post-train", config, before)
    s, r, o = kg.label_triple(link)
    print(f"  only {s}->{o:<14} psi {res.psi:+.0f}  (rank {res.rank_before:.0f} -> {res.rank_after:.0f})")

print("\ntransfer proxy: graft (paris, located_in, ile_de_france) onto targets")
targets = build_target_set(kg, model, prediction, size=5, seed=3)
print(f"  target entities (completions not top-ranked): "
      f"{[(kg.entity_labels[c], before) for c, before in targets]}")
result = effectiveness_c_sufficient(
    kg, model, prediction, {path[0]}, targets, "post-train", config
)
for outcome in result.per_target:
    print(f"  {kg.entity_labels[outcome.entity]:<12} rank {outcome.rank_before} -> "
          f"{outcome.rank_after} (psi {outcome.psi:+.0f})")
print(f"  average improvement: {result.psi:+.2f}")
