"""Seeded inputs of the benchmark: clustered graphs, INI files, workload table.

The graphs follow the clustered design of ``tests/conftest.py::make_desk_kg``:
each cluster of ten entities is a double ring under the symmetric relation
``pal`` (links to the next and the next-but-one member, both directions),
every member points at the cluster hub through ``boss``, and a few pair
directions are held out into valid/test so their reverse link stays in
training as the deciding evidence.

One change keeps the work per run independent of the seed: the held-out
pairs of a cluster are vertex-disjoint and avoid the hub. Every test triple
(b, pal, a) then has exactly 15 ``shares-entity`` candidates, one outgoing
triple for the score-shift heuristic to keep and 3 incoming triples for the
influence heuristic, so a necessary-mode sweep evaluates 19 candidates per
prediction whatever the seed. The seed picks the held-out pairs, the order
in which labels first appear in the files (and so the ids the program
assigns), and every seed of the INI.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

CLUSTER_SIZE = 10
HELDOUT_PER_CLUSTER = 3
# Candidates per necessary-mode prediction on these graphs (see module doc).
SPACE_PER_PREDICTION = 15
CRIAGE_PER_PREDICTION = 3
POISONING_PER_PREDICTION = 1

# Seed of every workload when --seed is not given, and a seed kept out of
# tuning so that a later claim can be checked on inputs it was not fitted to.
DEFAULT_SEED = 29
HELDOUT_SEED = 4099


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: graph size, INI settings and process settings."""

    name: str
    clusters: int
    epochs: int
    mode: str
    algorithms: tuple[str, ...]
    evaluator: str
    post_train_epochs: int | None
    simultaneous_removal: bool
    predictions: int
    workers: int
    pin_blas: bool
    latent_budget: int = 10

    def candidates_per_run_file(self, algorithm: str) -> int:
        """Candidates one run file must hold, fixed by the graph's construction."""
        if algorithm == "exhaustive-length-1":
            return self.latent_budget if self.mode.startswith("latent") else SPACE_PER_PREDICTION
        return {
            "data-poisoning-direct": POISONING_PER_PREDICTION,
            "criage-first-order": CRIAGE_PER_PREDICTION,
        }[algorithm]


NECESSARY_ALGORITHMS = ("exhaustive-length-1", "data-poisoning-direct", "criage-first-order")

WORKLOADS = {
    "desk-full": Workload(
        name="desk-full",
        clusters=5,
        epochs=60,
        mode="necessary",
        algorithms=NECESSARY_ALGORITHMS,
        evaluator="full-retrain",
        post_train_epochs=None,
        simultaneous_removal=True,
        predictions=2,
        workers=1,
        pin_blas=True,
    ),
    "mid-post": Workload(
        name="mid-post",
        clusters=200,
        epochs=3,
        mode="necessary",
        algorithms=("exhaustive-length-1",),
        evaluator="post-train",
        post_train_epochs=1,
        simultaneous_removal=False,
        predictions=1,
        workers=1,
        pin_blas=True,
    ),
    "desk-latent-w2": Workload(
        name="desk-latent-w2",
        clusters=5,
        epochs=60,
        mode="latent-negative",
        algorithms=("exhaustive-length-1",),
        evaluator="post-train",
        post_train_epochs=None,
        simultaneous_removal=False,
        predictions=2,
        workers=2,
        pin_blas=False,
        latent_budget=15,
    ),
}


def _ring_pairs(size: int) -> list[tuple[int, int]]:
    pairs = set()
    for i in range(size):
        pairs.add(tuple(sorted((i, (i + 1) % size))))
        pairs.add(tuple(sorted((i, (i + 2) % size))))
    return sorted(pairs)


def _disjoint_heldout(rng: np.random.Generator, pairs: list[tuple[int, int]]) -> list[int]:
    """Indices of HELDOUT_PER_CLUSTER vertex-disjoint pairs that avoid the hub (0)."""
    while True:
        order = rng.permutation(len(pairs))
        chosen: list[int] = []
        used: set[int] = set()
        for k in order:
            a, b = pairs[int(k)]
            if 0 in (a, b) or a in used or b in used:
                continue
            chosen.append(int(k))
            used.update((a, b))
            if len(chosen) == HELDOUT_PER_CLUSTER:
                return sorted(chosen)


def make_graph(seed: int, clusters: int) -> dict[str, list[tuple[str, str, str]]]:
    """Label triples of the train/valid/test splits, in file order."""
    rng = np.random.default_rng([seed, clusters])
    pairs = _ring_pairs(CLUSTER_SIZE)
    label_order = rng.permutation(clusters * CLUSTER_SIZE)
    labels = [f"c{c}_e{i}" for c in range(clusters) for i in range(CLUSTER_SIZE)]

    train: list[tuple[int, str, int]] = []
    heldout: list[tuple[int, str, int]] = []
    for c in range(clusters):
        base = c * CLUSTER_SIZE
        held = set(_disjoint_heldout(rng, pairs))
        for k, (a, b) in enumerate(pairs):
            train.append((base + a, "pal", base + b))
            (heldout if k in held else train).append((base + b, "pal", base + a))
        for i in range(1, CLUSTER_SIZE):
            train.append((base + i, "boss", base))

    # File order decides the ids the program assigns; shuffle it with the seed.
    rank_of = {int(e): pos for pos, e in enumerate(label_order)}
    train.sort(key=lambda t: (rank_of[t[0]], t[1], rank_of[t[2]]))
    rng.shuffle(heldout)
    half = len(heldout) // 2

    def named(rows):
        return [(labels[s], r, labels[o]) for s, r, o in rows]

    return {"train": named(train), "valid": named(heldout[:half]), "test": named(heldout[half:])}


def write_dataset(directory: Path, splits: dict[str, list[tuple[str, str, str]]]) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for name, rows in splits.items():
        (directory / f"{name}.txt").write_text(
            "".join(f"{s}\t{r}\t{o}\n" for s, r, o in rows), encoding="utf-8"
        )


def write_ini(path: Path, workload: Workload, seed: int, data_dir: Path, out_dir: Path) -> None:
    post = (
        f"post_train_epochs = {workload.post_train_epochs}\n"
        if workload.post_train_epochs is not None
        else ""
    )
    path.write_text(
        f"""[dataset]
path = {data_dir}

[training]
dimension = 32
epochs = {workload.epochs}
learning_rate = 0.1
reg_weight = 0.001
batch_size = 512
seed = {seed}

[selection]
count = {workload.predictions}
seed = {seed + 1}
cohort_rank = 1

[explain]
mode = {workload.mode}
algorithms = {", ".join(workload.algorithms)}
search_space = shares-entity
evaluator = {workload.evaluator}
{post}simultaneous_removal = {str(workload.simultaneous_removal).lower()}

[latent]
epsilon = 0.1
budget = {workload.latent_budget}
seed = {seed + 2}

[output]
directory = {out_dir}
""",
        encoding="utf-8",
    )
