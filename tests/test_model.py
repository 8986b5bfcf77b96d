"""Scorer: initialization, scoring, filtered ranking, gradients, checkpoints."""
from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import warnings

import numpy as np
import pytest

from kgexplain import (
    ConfigurationError,
    DomainError,
    EmbeddingModel,
    KnowledgeGraph,
    TrainConfig,
    Triple,
    grad_score_wrt_subject,
    init_model,
    load_checkpoint,
    rank,
    save_checkpoint,
    score,
)
from kgexplain.model import _check_train_config, _cmul, _cmul_conj, _split, kg_fingerprint

from conftest import make_random_kg

ARRAYS = ("ent_re", "ent_im", "rel_re", "rel_im")


def simple_kg(n_entities=3, n_relations=1):
    return KnowledgeGraph(
        [f"e{i}" for i in range(n_entities)],
        [f"r{j}" for j in range(n_relations)],
        (Triple(0, 0, 1),),
    )


class TestInit:
    def test_same_seed_bit_identical(self):
        kg = simple_kg()
        config = TrainConfig(dimension=5, seed=9)
        a, b = init_model(kg, config), init_model(kg, config)
        assert all(np.array_equal(getattr(a, n), getattr(b, n)) for n in ARRAYS)

    def test_shapes_d1(self):
        model = init_model(simple_kg(), TrainConfig(dimension=1, seed=0))
        assert model.ent_re.shape == (3, 1) and model.ent_im.shape == (3, 1)
        assert model.rel_re.shape == (2, 1)  # one relation plus its reciprocal twin

    def test_different_seeds_differ(self):
        kg = simple_kg()
        a = init_model(kg, TrainConfig(dimension=5, seed=1))
        b = init_model(kg, TrainConfig(dimension=5, seed=2))
        assert any(not np.array_equal(getattr(a, n), getattr(b, n)) for n in ARRAYS)

    def test_scale_tracks_inverse_sqrt_dimension(self):
        kg = KnowledgeGraph([f"e{i}" for i in range(400)], ["r"], (Triple(0, 0, 1),))
        model = init_model(kg, TrainConfig(dimension=64, seed=0))
        assert np.std(model.ent_re) == pytest.approx(1 / np.sqrt(64), rel=0.1)

    def test_config_validation(self):
        kg = simple_kg()
        with pytest.raises(ConfigurationError):
            init_model(kg, TrainConfig(dimension=0))
        with pytest.raises(ConfigurationError):
            init_model(kg, TrainConfig(learning_rate=-1.0))

    def test_clone_is_value_independent(self):
        model = init_model(simple_kg(), TrainConfig(dimension=3, seed=0))
        twin = model.clone()
        twin.ent_re[0, 0] += 1.0
        assert model.ent_re[0, 0] != twin.ent_re[0, 0]

    def test_every_model_holds_ent_and_rel_as_the_row_blocks_of_one_table(self, tmp_path):
        kg = simple_kg()
        config = TrainConfig(dimension=3, seed=0)
        fresh = init_model(kg, config)
        save_checkpoint(fresh, kg, tmp_path / "model.npz", config)
        ent, rel = fresh.ent.copy(), fresh.rel.copy()
        made = EmbeddingModel(ent=ent, rel=rel, dimension=3)
        twin = fresh.clone()
        for model in (made, fresh, load_checkpoint(tmp_path / "model.npz", kg), twin):
            blocks = (model.table[: len(ent)], model.table[len(ent) :])
            assert [b.__array_interface__ for b in blocks] == [
                model.ent.__array_interface__, model.rel.__array_interface__
            ]
            assert np.array_equal(model.table, np.concatenate([ent, rel]))
        assert not np.shares_memory(made.table, ent) and not np.shares_memory(made.table, rel)
        assert not np.shares_memory(twin.table, fresh.table)


class TestScore:
    def test_identity_embeddings_score_one(self):
        model = init_model(simple_kg(), TrainConfig(dimension=1, seed=0))
        model.ent_re[:] = 1.0
        model.ent_im[:] = 0.0
        model.rel_re[:] = 1.0
        model.rel_im[:] = 0.0
        assert score(model, Triple(0, 0, 1)) == pytest.approx(1.0)

    def test_conjugating_object_leaves_real_part_with_real_factors(self):
        model = init_model(simple_kg(), TrainConfig(dimension=4, seed=1))
        model.ent_im[0] = 0.0
        model.rel_im[0] = 0.0
        before = score(model, Triple(0, 0, 1))
        model.ent_im[1] = -model.ent_im[1]
        assert score(model, Triple(0, 0, 1)) == pytest.approx(before, abs=1e-15)

    def test_matches_scalar_loop_oracle(self):
        kg = simple_kg(5, 2)
        model = init_model(kg, TrainConfig(dimension=4, seed=7))
        rng = np.random.default_rng(0)
        for _ in range(25):
            t = Triple(int(rng.integers(5)), int(rng.integers(2)), int(rng.integers(5)))
            expected = 0.0
            for k in range(4):
                a, b = model.ent_re[t.subject][k], model.ent_im[t.subject][k]
                c, d = model.rel_re[t.relation][k], model.rel_im[t.relation][k]
                e, f = model.ent_re[t.object][k], model.ent_im[t.object][k]
                expected += (a * c - b * d) * e + (a * d + b * c) * f
            assert score(model, t) == pytest.approx(expected, abs=1e-12)

    def test_invalid_id(self):
        model = init_model(simple_kg(), TrainConfig(dimension=2, seed=0))
        with pytest.raises(DomainError):
            score(model, Triple(0, 5, 1))


def _loop_score(model, head, rel_row, tail):
    """Scalar-loop score through an arbitrary relation row (reciprocals allowed)."""
    total = 0.0
    for k in range(model.dimension):
        a, b = model.ent_re[head][k], model.ent_im[head][k]
        c, d = model.rel_re[rel_row][k], model.rel_im[rel_row][k]
        e, f = model.ent_re[tail][k], model.ent_im[tail][k]
        total += (a * c - b * d) * e + (a * d + b * c) * f
    return total


def rank_oracle(model, triple, kg):
    """Sort-based brute force: score every candidate object, count strictly better."""
    head, rel_row, target = triple.subject, triple.relation, triple.object
    candidates = [
        e
        for e in range(kg.num_entities)
        if e != triple.object and Triple(triple.subject, triple.relation, e) not in kg.all_triples
    ]
    target_score = _loop_score(model, head, rel_row, target)
    scored = sorted((_loop_score(model, head, rel_row, e) for e in candidates), reverse=True)
    better = 0
    for s in scored:
        if s > target_score:
            better += 1
        else:
            break
    return 1 + better


class TestComplexProduct:
    """The in-place product on split halves against the allocating packed product."""

    @pytest.mark.parametrize("rows", [1, 7, 64])
    @pytest.mark.parametrize("conj", [False, True])
    def test_split_in_place_equals_packed(self, rows, conj):
        rng = np.random.default_rng(rows)
        x, y = rng.standard_normal((2, rows, 10))
        packed = _cmul_conj(x, y) if conj else _cmul(x, y)
        split_x, split_y = np.ascontiguousarray(_split(x)), np.ascontiguousarray(_split(y))
        out = np.full_like(split_x, np.nan)
        # a workspace longer than the rows, as a step's ragged last batch reads
        tmp = np.full((rows + 3, 5), np.nan)[:rows]
        got = _cmul(split_x, split_y, out=out, tmp=tmp, conj=conj)
        assert got is out
        assert np.array_equal(_split(packed), out)
        assert np.array_equal(_cmul(split_x, split_y, out=np.empty_like(out), conj=conj), out)


class TestRank:
    def test_unique_maximum_is_rank_one(self):
        kg = simple_kg(4)
        model = init_model(kg, TrainConfig(dimension=2, seed=0))
        model.ent_re[:] = 0.0
        model.ent_im[:] = 0.0
        model.rel_re[:, :] = 1.0
        model.rel_im[:, :] = 0.0
        model.ent_re[0] = 1.0
        model.ent_re[1] = 1.0  # target object scores 2, everything else 0
        assert rank(model, Triple(0, 0, 1), kg) == 1

    def test_all_equal_scores_rank_one(self):
        kg = simple_kg(5)
        model = init_model(kg, TrainConfig(dimension=2, seed=0))
        model.ent_re[:] = 1.0
        model.ent_im[:] = 0.0
        assert rank(model, Triple(0, 0, 1), kg) == 1

    def test_matches_sort_oracle_on_random_triples(self):
        kg = make_random_kg(seed=2, n_entities=20, n_relations=3, n_triples=60)
        model = init_model(kg, TrainConfig(dimension=4, seed=5))
        rng = np.random.default_rng(42)
        for _ in range(100):
            t = Triple(int(rng.integers(20)), int(rng.integers(3)), int(rng.integers(20)))
            assert rank(model, t, kg) == rank_oracle(model, t, kg)

    def test_growing_the_candidate_set_moves_rank_by_at_most_one(self):
        # removing a known triple returns its object to the candidate pool
        base = make_random_kg(seed=13, n_entities=12, n_relations=2, n_triples=30)
        model = init_model(base, TrainConfig(dimension=4, seed=3))
        target = base.train[0]
        others = [t for t in base.train if (t.subject, t.relation) == (target.subject, target.relation) and t != target]
        smaller = KnowledgeGraph(
            base.entity_labels, base.relation_labels, tuple(t for t in base.train)
        )
        for t in others:
            without = KnowledgeGraph(
                base.entity_labels,
                base.relation_labels,
                tuple(x for x in base.train if x != t),
            )
            grown = rank(model, target, without)
            assert 0 <= grown - rank(model, target, smaller) <= 1

    def test_rank_upper_bound(self):
        kg = make_random_kg(seed=1, n_entities=10, n_relations=2, n_triples=25)
        model = init_model(kg, TrainConfig(dimension=3, seed=2))
        for t in kg.train:
            known = kg.known_objects.get((t.subject, t.relation), frozenset())
            assert 1 <= rank(model, t, kg) <= 1 + kg.num_entities - len(known)


class TestGradScoreWrtSubject:
    def test_unit_real_product(self):
        kg = simple_kg()
        model = init_model(kg, TrainConfig(dimension=1, seed=0))
        model.rel_re[0] = 1.0
        model.rel_im[0] = 0.0
        model.ent_re[1] = 1.0
        model.ent_im[1] = 0.0
        grad = grad_score_wrt_subject(model, Triple(0, 0, 1))
        assert grad == pytest.approx([1.0, 0.0])

    def test_zero_object_gives_zero_gradient(self):
        model = init_model(simple_kg(), TrainConfig(dimension=3, seed=0))
        model.ent_re[1] = 0.0
        model.ent_im[1] = 0.0
        assert np.all(grad_score_wrt_subject(model, Triple(0, 0, 1)) == 0.0)

    def test_matches_central_differences(self):
        kg = simple_kg(6, 2)
        rng = np.random.default_rng(3)
        for seed in range(3):
            model = init_model(kg, TrainConfig(dimension=5, seed=seed))
            t = Triple(int(rng.integers(6)), int(rng.integers(2)), int(rng.integers(6)))
            while t.subject == t.object:  # self-loops mix the two partials
                t = Triple(int(rng.integers(6)), t.relation, t.object)
            grad = grad_score_wrt_subject(model, t)
            h = 1e-6
            for k in range(10):
                plus, minus = model.clone(), model.clone()
                arr_p = plus.ent_re if k < 5 else plus.ent_im
                arr_m = minus.ent_re if k < 5 else minus.ent_im
                arr_p[t.subject, k % 5] += h
                arr_m[t.subject, k % 5] -= h
                fd = (score(plus, t) - score(minus, t)) / (2 * h)
                assert abs(fd - grad[k]) / max(abs(grad[k]), 1e-9) < 1e-6


class TestCheckpoint:
    def test_round_trip_bit_identical(self, tmp_path):
        kg = make_random_kg(seed=4, n_entities=8, n_relations=2, n_triples=15)
        config = TrainConfig(dimension=4, seed=8)
        model = init_model(kg, config)
        path = tmp_path / "model.npz"
        save_checkpoint(model, kg, path, config)
        loaded = load_checkpoint(path, kg)
        assert all(np.array_equal(getattr(model, n), getattr(loaded, n)) for n in ARRAYS)
        assert loaded.dimension == 4
        with np.load(path) as data:  # the on-disk format other tools read
            assert set(data.files) == {"ent_re", "ent_im", "rel_re", "rel_im", "meta"}
            assert json.loads(str(data["meta"]))["seed"] == config.seed == 8

    def test_mismatched_graph_rejected(self, tmp_path):
        kg = make_random_kg(seed=4, n_entities=8, n_relations=2, n_triples=15)
        other = make_random_kg(seed=5, n_entities=8, n_relations=2, n_triples=15)
        config = TrainConfig(dimension=4, seed=8)
        model = init_model(kg, config)
        path = tmp_path / "model.npz"
        save_checkpoint(model, kg, path, config)
        with pytest.raises(ConfigurationError):
            load_checkpoint(path, other)

    def test_truncated_checkpoint_closes_its_file(self, tmp_path):
        kg = make_random_kg(seed=4, n_entities=8, n_relations=2, n_triples=15)
        path = tmp_path / "model.npz"
        config = TrainConfig(dimension=4, seed=8)
        save_checkpoint(init_model(kg, config), kg, path, config)
        path.write_bytes(path.read_bytes()[:200])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ConfigurationError, match="model.npz"):
                load_checkpoint(path, kg)
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_fingerprint_sensitive_to_splits(self):
        kg = make_random_kg(seed=4, n_entities=8, n_relations=2, n_triples=15)
        shorter = KnowledgeGraph(
            kg.entity_labels, kg.relation_labels, kg.train[:-1]
        )
        assert kg_fingerprint(kg) != kg_fingerprint(shorter)


def _reference_fingerprint(kg: KnowledgeGraph) -> str:
    """The graph hash as first written: one ``np.array`` per triple."""
    h = hashlib.sha256()
    for label in kg.entity_labels:
        h.update(label.encode("utf-8") + b"\x1f")
    h.update(b"\x1e")
    for label in kg.relation_labels:
        h.update(label.encode("utf-8") + b"\x1f")
    for split in (kg.train, kg.valid, kg.test):
        h.update(b"\x1e")
        for t in split:
            h.update(np.array(t, dtype=np.int64).tobytes())
    return h.hexdigest()


class TestFingerprintAndStoredConfig:
    def test_fingerprint_equals_the_per_triple_reference(self, desk_kg):
        no_valid = KnowledgeGraph(
            desk_kg.entity_labels, desk_kg.relation_labels, desk_kg.train, (), desk_kg.test
        )
        assert not no_valid.valid
        for kg in (desk_kg, no_valid):
            assert kg_fingerprint(kg) == _reference_fingerprint(kg)
        assert kg_fingerprint(desk_kg) != kg_fingerprint(no_valid)

    def test_checkpoint_without_stored_config_is_rejected(
        self, desk_kg, desk_config, desk_model, tmp_path
    ):
        # the layout and metadata every checkpoint had before the config was stored
        path = tmp_path / "old.npz"
        meta = {
            "kg_hash": _reference_fingerprint(desk_kg),
            "dimension": desk_model.dimension,
            "seed": desk_config.seed,
        }
        np.savez(
            path, **{name: getattr(desk_model, name) for name in ARRAYS},
            meta=np.array(json.dumps(meta, sort_keys=True)),
        )
        with pytest.raises(ConfigurationError) as caught:
            load_checkpoint(path, desk_kg)
        assert "train_config" in str(caught.value) and str(path) in str(caught.value)
        with pytest.raises(ConfigurationError, match="train_config"):
            _check_train_config(path, TrainConfig())

    def test_stored_config_round_trips_and_names_each_differing_field(self, tmp_path):
        kg = make_random_kg(seed=4, n_entities=8, n_relations=2, n_triples=15)
        config = TrainConfig(dimension=4, seed=8, epochs=7)
        path = tmp_path / "model.npz"
        save_checkpoint(init_model(kg, config), kg, path, config)
        _check_train_config(path, config)
        other = dataclasses.replace(config, learning_rate=0.05, seed=9)
        with pytest.raises(ConfigurationError) as caught:
            _check_train_config(path, other)
        message = str(caught.value)
        assert "learning_rate (checkpoint 0.1, config 0.05)" in message
        assert "seed (checkpoint 8, config 9)" in message and "epochs" not in message
