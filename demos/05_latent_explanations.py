"""Unobserved triples as explanations: sample plausibly, add, retrain.

The trained scorer is calibrated into a Bernoulli ensemble over all
possible triples (a two-parameter sigmoid fit on held-out positives vs
random corruptions). Candidates with probability above 1 - epsilon that are
absent from training are latent-explanation material: adding them and
retraining can pull a poorly-ranked prediction up (positive polarity) or
push a confident one down (negative polarity).
"""
from kgexplain import (
    KnowledgeGraph,
    TrainConfig,
    Triple,
    calibrate_ensemble,
    effectiveness_latent,
    init_model,
    rank,
    sample_latent_candidates,
    train,
)

NAMES = [
    "france", "germany", "italy", "spain", "belgium", "poland", "austria",
    "japan", "korea", "china", "vietnam", "thailand", "europe", "asia",
]
IDS = {n: i for i, n in enumerate(NAMES)}


def t(s, r, o):
    return Triple(IDS[s], 0 if r == "neighbor_of" else 1, IDS[o])


europe = ["germany", "italy", "spain", "belgium", "poland", "austria"]
asia = ["japan", "korea", "china", "vietnam", "thailand"]
train_t = [t(c, "located_in", "europe") for c in europe]
train_t += [t(c, "located_in", "asia") for c in asia]
pairs = [
    ("germany", "poland"), ("germany", "austria"), ("italy", "austria"),
    ("spain", "italy"), ("belgium", "germany"), ("poland", "austria"),
    ("japan", "korea"), ("china", "vietnam"), ("vietnam", "thailand"),
    ("korea", "china"),
]
for a, b in pairs:
    train_t += [t(a, "neighbor_of", b), t(b, "neighbor_of", a)]
train_t.append(t("france", "neighbor_of", "spain"))  # france is barely attached

kg = KnowledgeGraph(
    NAMES, ["neighbor_of", "located_in"], tuple(sorted(set(train_t))),
    test=(t("france", "located_in", "europe"),),
)
config = TrainConfig(dimension=12, epochs=100, batch_size=128, seed=0)
model = train(init_model(kg, config), kg, config)

prediction = t("france", "located_in", "europe")
before = rank(model, prediction, kg)  # every operator takes the base rank from its caller
print(f"prediction {kg.label_triple(prediction)} starts at rank {before}")

ensemble = calibrate_ensemble(model, kg, kg.train, seed=1)
print(f"calibrated ensemble: p = sigmoid({ensemble.scale:.2f} * score + {ensemble.bias:.2f})")

# the tiny graph is fit sharply, so unobserved probabilities sit low;
# a loose epsilon still singles out the plausible missing facts
sample = sample_latent_candidates(ensemble, kg, epsilon=0.9, budget=5, seed=2)
print(f"\n{len(sample)} unobserved candidates with p >= 0.10:")
for cand in sample:
    s, r, o = kg.label_triple(cand)
    print(f"  ({s}, {r}, {o})  p = {ensemble.probability(cand):.3f}")

candidate = {t("france", "neighbor_of", "germany"), t("france", "neighbor_of", "italy")}
result = effectiveness_latent(
    kg, model, prediction, candidate, "positive", "full-retrain", config, before
)
print("\nadding {france->germany, france->italy} neighbor links and retraining:")
print(f"  rank {result.rank_before:.0f} -> {result.rank_after:.0f}  psi {result.psi:+.0f}")
