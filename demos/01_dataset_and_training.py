"""Load a triple dataset, train the complex-bilinear scorer, inspect ranks.

Builds a small geography graph in TSV form (the same format real benchmark
dumps use: one TAB-separated triple per line in train.txt / valid.txt /
test.txt), trains with the adaptive-gradient loop, and walks through the
filtered-rank protocol.
"""
import tempfile
from pathlib import Path

from kgexplain import TrainConfig, init_model, load_dataset, rank, score, train

CHAINS = [
    ("paris", "ile_de_france", "france", "europe"),
    ("tokyo", "kanto", "japan", "asia"),
    ("los_angeles", "socal", "usa", "america"),
    ("berlin", "brandenburg", "germany", "europe"),
    ("seoul", "gyeonggi", "korea", "asia"),
]

train_rows, test_rows = [], []
for city, region, country, continent in CHAINS:
    train_rows += [
        (city, "located_in", region),
        (region, "located_in", country),
        (country, "located_in", continent),
    ]
    # hold one city->continent fact out per continent's first chain
    row = (city, "city_in", continent)
    (test_rows if city in ("paris", "tokyo") else train_rows).append(row)

with tempfile.TemporaryDirectory(prefix="kgx-demo-") as tmp:
    workdir = Path(tmp)
    for name, rows in [("train", train_rows), ("valid", []), ("test", test_rows)]:
        (workdir / f"{name}.txt").write_text("".join("\t".join(r) + "\n" for r in rows))
    print(f"dataset written to {workdir}")
    kg = load_dataset(workdir)

print(f"{kg.num_entities} entities, {kg.num_relations} relations, {len(kg.train)} training triples")

config = TrainConfig(dimension=16, epochs=120, batch_size=64, seed=11)
model = train(init_model(kg, config), kg, config)
print(f"final train NLL: {model.history[-1]['train_nll']:.4f}")

print("\nheld-out completions (filtered ranks, lower is better):")
for t in kg.eval_split("test"):
    s, r, o = kg.label_triple(t)
    print(f"  ({s}, {r}, {o})  score {score(model, t):+.3f}  rank {rank(model, t, kg)}")

print("\nsame seed, same data -> byte-identical model:")
again = train(init_model(kg, config), kg, config)
import numpy as np

identical = all(
    np.array_equal(getattr(model, a), getattr(again, a))
    for a in ("ent_re", "ent_im", "rel_re", "rel_im")
)
print(f"  retrained model identical: {identical}")
