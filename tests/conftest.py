"""Shared fixtures: small graphs, the desk-scale suite, and dataset writers."""
from __future__ import annotations

import threading
from pathlib import Path

import numpy as np
import pytest

from kgexplain import (
    ExplainerConfig,
    KnowledgeGraph,
    TrainConfig,
    Triple,
    build_search_space,
    init_model,
    rank,
    train,
)
from kgexplain.explainers import explain
from kgexplain import training

DESK_SEED = 29


def reset_post_train_state() -> None:
    """Forget every thread's post-train state: example tables, base models and contexts."""
    training._STATE = threading.local()


@pytest.fixture(autouse=True)
def fresh_post_train_state():
    """Each test starts without any thread's post-train state."""
    reset_post_train_state()


def make_chain_kg(n: int = 6, extra=()) -> KnowledgeGraph:
    """Entities 0..n-1 chained by relation 0, plus optional extra triples."""
    labels = [f"e{i}" for i in range(n)]
    triples = tuple(Triple(i, 0, i + 1) for i in range(n - 1)) + tuple(extra)
    return KnowledgeGraph(labels, ["next", "skip"], tuple(sorted(set(triples))))


def make_desk_kg(
    seed: int = DESK_SEED, clusters: int = 5, size: int = 10, heldout_per_cluster: int = 3
) -> KnowledgeGraph:
    """Clustered 50-entity graph with a symmetric relation and held-out reverses.

    Each cluster is a double ring under the symmetric relation "pal"; a few
    pair directions are held out into valid/test, so their reverse links
    remain in training as the deciding evidence. Every entity also points
    at its cluster hub via "boss".
    """
    rng = np.random.default_rng(seed)
    labels = [f"c{c}_e{i}" for c in range(clusters) for i in range(size)]

    def eid(c: int, i: int) -> int:
        return c * size + i

    pairs = set()
    for c in range(clusters):
        for i in range(size):
            pairs.add(tuple(sorted((eid(c, i), eid(c, (i + 1) % size)))))
            pairs.add(tuple(sorted((eid(c, i), eid(c, (i + 2) % size)))))
    by_cluster: dict[int, list[tuple[int, int]]] = {}
    for a, b in sorted(pairs):
        by_cluster.setdefault(a // size, []).append((a, b))

    train_triples: list[Triple] = []
    heldout: list[Triple] = []
    for c in range(clusters):
        cluster_pairs = by_cluster[c]
        held = set(
            int(x)
            for x in rng.choice(len(cluster_pairs), size=heldout_per_cluster, replace=False)
        )
        for k, (a, b) in enumerate(cluster_pairs):
            train_triples.append(Triple(a, 0, b))
            (heldout if k in held else train_triples).append(Triple(b, 0, a))
    for c in range(clusters):
        hub = eid(c, 0)
        for i in range(1, size):
            train_triples.append(Triple(eid(c, i), 1, hub))

    rng.shuffle(heldout)
    half = len(heldout) // 2
    return KnowledgeGraph(
        labels,
        ["pal", "boss"],
        tuple(sorted(set(train_triples))),
        tuple(heldout[:half]),
        tuple(heldout[half:]),
    )


def make_random_kg(
    seed: int, n_entities: int = 20, n_relations: int = 3, n_triples: int = 60
) -> KnowledgeGraph:
    rng = np.random.default_rng(seed)
    triples = set()
    while len(triples) < n_triples:
        triples.add(
            Triple(
                int(rng.integers(n_entities)),
                int(rng.integers(n_relations)),
                int(rng.integers(n_entities)),
            )
        )
    labels = [f"e{i}" for i in range(n_entities)]
    rels = [f"r{j}" for j in range(n_relations)]
    return KnowledgeGraph(labels, rels, tuple(sorted(triples)))


def write_dataset(directory: Path, train, valid=(), test=()) -> Path:
    """Write label triples into the TSV train/valid/test layout."""
    directory.mkdir(parents=True, exist_ok=True)
    for name, rows in (("train", train), ("valid", valid), ("test", test)):
        (directory / f"{name}.txt").write_text(
            "".join(f"{s}\t{r}\t{o}\n" for s, r, o in rows), encoding="utf-8"
        )
    return directory


@pytest.fixture(scope="session")
def desk_kg() -> KnowledgeGraph:
    return make_desk_kg()


@pytest.fixture(scope="session")
def desk_config() -> TrainConfig:
    return TrainConfig(
        dimension=32,
        epochs=60,
        learning_rate=0.1,
        reg_weight=1e-3,
        batch_size=512,
        seed=DESK_SEED,
    )


@pytest.fixture(scope="session")
def desk_model(desk_kg, desk_config):
    return train(init_model(desk_kg, desk_config), desk_kg, desk_config)


@pytest.fixture(scope="session")
def desk_predictions(desk_kg, desk_model) -> list[Triple]:
    """20 rank-1 predictions: every rank-1 test triple plus seeded train triples."""
    preds = [t for t in desk_kg.eval_split("test") if rank(desk_model, t, desk_kg) == 1]
    rng = np.random.default_rng(DESK_SEED + 1)
    candidates = [t for t in desk_kg.train if rank(desk_model, t, desk_kg) == 1]
    order = rng.permutation(len(candidates))
    for i in order:
        if len(preds) == 20:
            break
        t = candidates[int(i)]
        if t not in preds:
            preds.append(t)
    assert len(preds) == 20
    return preds


@pytest.fixture(scope="session")
def desk_oracle_runs(desk_kg, desk_model, desk_config, desk_predictions):
    """Full-retrain exhaustive singleton sweeps over shares-entity, per prediction."""
    config = ExplainerConfig(evaluator="full-retrain")
    runs = {}
    for pred in desk_predictions:
        space = build_search_space(desk_kg, "shares-entity", pred)
        runs[pred] = explain(
            desk_kg, desk_model, pred, "exhaustive-length-1", "necessary", space, config,
            desk_config,
        )
    return runs


@pytest.fixture(scope="session")
def tiny_kg() -> KnowledgeGraph:
    """12 entities, a directed ring plus skips; one test triple held out."""
    labels = [f"e{i}" for i in range(12)]
    triples = set()
    for i in range(11):
        triples.add(Triple(i, 0, i + 1))
    for i in range(0, 10, 2):
        triples.add(Triple(i, 1, i + 2))
    held = Triple(1, 0, 2)
    return KnowledgeGraph(
        labels, ["next", "skip"], tuple(sorted(triples - {held})) , test=(held,)
    )


@pytest.fixture(scope="session")
def tiny_config() -> TrainConfig:
    return TrainConfig(dimension=8, epochs=80, batch_size=64, seed=4)


@pytest.fixture(scope="session")
def tiny_model(tiny_kg, tiny_config):
    return train(init_model(tiny_kg, tiny_config), tiny_kg, tiny_config)
