"""Training loop: loss behavior, gradients, determinism, masked post-training."""
from __future__ import annotations

import dataclasses
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from kgexplain import (
    ConfigurationError,
    DomainError,
    ExplainerConfig,
    KnowledgeGraph,
    SearchSpace,
    TrainConfig,
    TrainingError,
    Triple,
    build_search_space,
    build_target_set,
    init_model,
    post_train,
    train,
)
from kgexplain.explainers import explain
from kgexplain import training
from kgexplain.kg import _one_hop_entities
from kgexplain.model import _cmul, _cmul_conj
from conftest import reset_post_train_state
from kgexplain.training import (
    _Step,
    _n3,
    _query_keys,
    _relation_rows,
    _scatter_rows,
    batch_loss_and_grads,
    build_examples,
)

from conftest import make_random_kg

ARRAYS = ("ent_re", "ent_im", "rel_re", "rel_im")


def arrays_equal(a, b):
    return all(np.array_equal(getattr(a, n), getattr(b, n)) for n in ARRAYS)


def split_grad(model, grad):
    """A ``model.table`` gradient as its ``ent`` and ``rel`` row blocks."""
    return np.split(grad, [len(model.ent)])


def grad_halves(model, grad):
    """A ``model.table`` gradient as its four real halves, ordered like ``ARRAYS``."""
    d = grad.shape[1] // 2
    return [part[:, h] for part in split_grad(model, grad) for h in (slice(d), slice(d, None))]


class TestTrain:
    def test_zero_learning_rate_zero_reg_is_identity(self):
        kg = make_random_kg(seed=0, n_entities=6, n_relations=2, n_triples=10)
        config = TrainConfig(dimension=4, epochs=1, learning_rate=0.0, reg_weight=0.0, seed=1)
        model = init_model(kg, config)
        trained = train(model, kg, config)
        assert arrays_equal(model, trained)

    def test_nll_strictly_decreases_early(self):
        kg = KnowledgeGraph(["a", "b"], ["r"], (Triple(0, 0, 1),))
        config = TrainConfig(dimension=4, epochs=200, batch_size=4, seed=2)
        trained = train(init_model(kg, config), kg, config)
        nll = [record["train_nll"] for record in trained.history]
        assert all(nll[i + 1] < nll[i] for i in range(10))

    def test_deterministic_under_fixed_seed(self):
        kg = make_random_kg(seed=5, n_entities=10, n_relations=2, n_triples=25)
        config = TrainConfig(dimension=6, epochs=15, batch_size=16, seed=3)
        model = init_model(kg, config)
        assert arrays_equal(train(model, kg, config), train(model, kg, config))

    def test_history_records_train_and_valid_nll(self):
        kg = make_random_kg(seed=5, n_entities=10, n_relations=2, n_triples=25)
        kg = KnowledgeGraph(
            kg.entity_labels, kg.relation_labels, kg.train[:-2], valid=kg.train[-2:]
        )
        config = TrainConfig(dimension=4, epochs=5, seed=0)
        trained = train(init_model(kg, config), kg, config)
        assert len(trained.history) == 5
        assert all("train_nll" in r and "valid_nll" in r for r in trained.history)

    def test_divergence_raises_naming_epoch(self):
        # a step this large overflows the trilinear scores to inf, so the
        # shifted softmax yields a NaN loss on the following batch
        kg = make_random_kg(seed=5, n_entities=10, n_relations=2, n_triples=25)
        config = TrainConfig(dimension=4, epochs=50, learning_rate=1e155, seed=0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingError, match="epoch"):
                train(init_model(kg, config), kg, config)

    def test_embeddings_finite_after_training(self):
        kg = make_random_kg(seed=7, n_entities=12, n_relations=2, n_triples=30)
        config = TrainConfig(dimension=8, epochs=30, seed=1)
        trained = train(init_model(kg, config), kg, config)
        assert np.isfinite(trained.ent).all() and np.isfinite(trained.rel).all()

    def test_input_model_untouched(self):
        kg = make_random_kg(seed=5, n_entities=10, n_relations=2, n_triples=25)
        config = TrainConfig(dimension=4, epochs=5, seed=0)
        model = init_model(kg, config)
        snapshot = model.clone()
        train(model, kg, config)
        assert arrays_equal(model, snapshot)


class TestLossGradients:
    def test_analytic_matches_central_differences(self):
        kg = make_random_kg(seed=9, n_entities=10, n_relations=2, n_triples=20)
        config = TrainConfig(dimension=5, epochs=10, seed=6)
        model = train(init_model(kg, config), kg, config)
        examples = build_examples(kg.train, kg.num_relations)
        self._check_against_central_differences(model, examples, [])
        # the first example twice: its (query, target) cell takes 1/n off twice,
        # which reaches its head's, relation row's and target's gradients
        head, relation_row, target = (int(i) for i in examples[0])
        rows = [(which, i) for which in (0, 1) for i in (head, target)]
        rows += [(2, relation_row), (3, relation_row)]
        self._check_against_central_differences(
            model, np.concatenate([examples, examples[:1]]), rows
        )

    @staticmethod
    def _check_against_central_differences(model, examples, rows):
        """Ten random coordinates, then one random column of each (array, row) in ``rows``."""
        grads = grad_halves(model, batch_loss_and_grads(model, examples, reg_weight=1e-3)[2])
        rng = np.random.default_rng(0)
        h = 1e-5

        def coords():
            for _ in range(10):
                which = int(rng.integers(4))
                arr = getattr(model, ARRAYS[which])
                yield which, int(rng.integers(arr.shape[0])), int(rng.integers(arr.shape[1]))
            for which, i in rows:
                yield which, i, int(rng.integers(getattr(model, ARRAYS[which]).shape[1]))

        for which, i, j in coords():
            plus, minus = model.clone(), model.clone()
            getattr(plus, ARRAYS[which])[i, j] += h
            getattr(minus, ARRAYS[which])[i, j] -= h
            fd = (
                batch_loss_and_grads(plus, examples, 1e-3)[0]
                - batch_loss_and_grads(minus, examples, 1e-3)[0]
            ) / (2 * h)
            analytic = grads[which][i, j]
            assert abs(fd - analytic) / max(abs(analytic), 1e-8) < 1e-4

    def test_empty_example_set_rejected(self):
        with pytest.raises(DomainError):
            build_examples((), 1)

    def test_examples_interleave_forward_and_reciprocal_rows(self):
        kg = make_random_kg(seed=3, n_entities=12, n_relations=3, n_triples=40)
        expected = []
        for s, r, o in kg.train:
            expected += [(s, r, o), (o, r + kg.num_relations, s)]
        built = build_examples(kg.train, kg.num_relations)
        assert built.dtype == np.int64
        assert np.array_equal(built, np.asarray(expected, dtype=np.int64))


# Reference: the allocating dense step as it was written before the workspace
# step replaced it, helpers included, kept verbatim but for its result, now the
# ``model.table`` gradient: the plain per-example expression of the loss, which the
# per-query step is checked against.
def _reference_cmul(x, y):
    d = x.shape[-1] // 2
    a, b = x[..., :d], x[..., d:]
    c, e = y[..., :d], y[..., d:]
    return np.concatenate([a * c - b * e, a * e + b * c], axis=-1)


def _reference_cmul_conj(x, y):
    d = x.shape[-1] // 2
    a, b = x[..., :d], x[..., d:]
    c, e = y[..., :d], y[..., d:]
    return np.concatenate([a * c + b * e, b * c - a * e], axis=-1)


def _reference_scatter_rows(out, index, values):
    n_rows, n_cols = out.shape
    flat = (index[:, None] * n_cols + np.arange(n_cols)).ravel()
    out += np.bincount(flat, weights=values.ravel(), minlength=n_rows * n_cols).reshape(
        n_rows, n_cols
    )


def _reference_n3(x):
    d = x.shape[1] // 2
    modulus = np.sqrt(x[:, :d] ** 2 + x[:, d:] ** 2)
    return (modulus**3).sum(axis=1), np.concatenate([modulus, modulus], axis=1) * x


def _reference_batch_loss_and_grads(model, batch, reg_weight):
    ent, rel = model.ent, model.rel
    heads = batch[:, 0]
    rels = batch[:, 1]
    targets = batch[:, 2]
    n = len(batch)
    rows = np.arange(n)

    h, r = ent[heads], rel[rels]
    q = _reference_cmul(h, r)
    scores = q @ ent.T
    shift = scores.max(axis=1, keepdims=True)
    exps = np.exp(scores - shift)
    z = exps.sum(axis=1, keepdims=True)
    data_loss = float(-(scores[rows, targets] - shift[:, 0] - np.log(z[:, 0])).mean())

    grad_scores = exps / z
    grad_scores[rows, targets] -= 1.0
    grad_scores /= n

    d_ent = grad_scores.T @ q
    dq = grad_scores @ ent
    dh = _reference_cmul_conj(dq, r)
    dr = _reference_cmul_conj(dq, h)
    d_rel = np.zeros_like(rel)

    loss = data_loss
    if reg_weight > 0:
        (ph, gh), (pr, gr), (pt, gt) = (
            _reference_n3(h), _reference_n3(r), _reference_n3(ent[targets])
        )
        loss += reg_weight * float(ph.sum() + pr.sum() + pt.sum()) / n
        c = 3.0 * reg_weight / n
        dh += c * gh
        dr += c * gr
        _reference_scatter_rows(d_ent, targets, c * gt)

    _reference_scatter_rows(d_ent, heads, dh)
    _reference_scatter_rows(d_rel, rels, dr)
    return loss, data_loss, np.concatenate([d_ent, d_rel])


# The per-query full-mask step sums in another order than the reference, so they
# agree to this bound rather than bit for bit.
TOLERANCE = {"rtol": 1e-12, "atol": 1e-15}


def assert_matches_reference(model, got, want):
    """A step's (loss, data loss, table gradient) against the reference's, to the bound."""
    (loss, data_loss, grad), (ref_loss, ref_data, ref) = got, want
    np.testing.assert_allclose(loss, ref_loss, **TOLERANCE)
    np.testing.assert_allclose(data_loss, ref_data, **TOLERANCE)
    (d_ent, d_rel), (ref_ent, ref_rel) = split_grad(model, grad), split_grad(model, ref)
    np.testing.assert_allclose(d_ent, ref_ent, **TOLERANCE)
    np.testing.assert_allclose(d_rel, ref_rel, **TOLERANCE)


def assert_fits_match(got, want):
    np.testing.assert_allclose(got.ent, want.ent, **TOLERANCE)
    np.testing.assert_allclose(got.rel, want.rel, **TOLERANCE)


def _full_mask_step(model, examples, batch_size):
    """The one step over ``examples`` with every row trainable, as :func:`train` builds it."""
    ent_idx, rel_idx = np.arange(len(model.ent)), np.arange(len(model.rel))
    return _Step(model, examples, ent_idx, rel_idx, (), None, batch_size)


class TestFullMaskStep:
    """The per-query workspace step, every row trainable, against the per-example reference."""

    @pytest.mark.parametrize("reg_weight", [0.0, 1e-3])
    def test_repeated_full_and_ragged_batches_match_reference(self, reg_weight):
        kg = make_random_kg(seed=4, n_entities=15, n_relations=3, n_triples=60)
        config = TrainConfig(dimension=5, epochs=5, seed=4)
        model = train(init_model(kg, config), kg, config)
        examples = build_examples(kg.train, kg.num_relations)
        step = _full_mask_step(model, examples, batch_size=50)
        perm = np.random.default_rng(0).permutation(len(examples))
        # full, ragged (20 rows), full again and ragged again: a workspace
        # row left over from a longer batch would show in the second pair
        for sel in (perm[:50], perm[100:], perm[50:100], perm[100:]):
            assert_matches_reference(
                model,
                step(model, sel, reg_weight),
                _reference_batch_loss_and_grads(model, examples[sel], reg_weight),
            )

    @pytest.mark.parametrize("reg_weight", [0.0, 1e-3])
    def test_one_batch_wrapper_matches_reference(self, reg_weight):
        kg = make_random_kg(seed=6, n_entities=12, n_relations=2, n_triples=40)
        config = TrainConfig(dimension=4, epochs=3, seed=6)
        model = train(init_model(kg, config), kg, config)
        examples = build_examples(kg.train, kg.num_relations)
        got = batch_loss_and_grads(model, examples, reg_weight)
        want = _reference_batch_loss_and_grads(model, examples, reg_weight)
        assert_matches_reference(model, got, want)
        for got_half, want_half in zip(grad_halves(model, got[2]), grad_halves(model, want[2])):
            np.testing.assert_allclose(got_half, want_half, **TOLERANCE)

    def test_train_with_ragged_last_batch_matches_reference_loop(self):
        kg = make_random_kg(seed=8, n_entities=12, n_relations=2, n_triples=35)
        config = TrainConfig(dimension=4, epochs=6, batch_size=16, seed=2)
        assert len(kg.train) * 2 % config.batch_size
        model = init_model(kg, config)
        reference = model.clone()
        _dense_masked_fit(
            reference,
            build_examples(kg.train, kg.num_relations),
            config,
            config.epochs,
            np.arange(kg.num_entities),
            np.arange(2 * kg.num_relations),
            step=_reference_batch_loss_and_grads,
        )
        assert_fits_match(train(model, kg, config), reference)

    @pytest.mark.parametrize("reg_weight", [0.0, 1e-3])
    def test_batch_repeating_every_query_matches_reference(self, reg_weight):
        # every head points at every object under both relations, so each of the
        # 16 queries, forward (h, r) and reciprocal (o, r + 2), serves four examples
        triples = tuple(Triple(h, r, o) for h in range(4) for r in range(2) for o in range(4, 8))
        kg = KnowledgeGraph([f"e{i}" for i in range(8)], ["r0", "r1"], triples)
        config = TrainConfig(dimension=4, epochs=3, seed=3)
        model = train(init_model(kg, config), kg, config)
        examples = build_examples(kg.train, kg.num_relations)
        uses = np.unique(_query_keys(model, examples), return_counts=True)[1]
        assert len(uses) == 16 and uses.min() >= 3
        step = _full_mask_step(model, examples, batch_size=len(examples))
        sel = np.random.default_rng(1).permutation(len(examples))
        assert_matches_reference(
            model,
            step(model, sel, reg_weight),
            _reference_batch_loss_and_grads(model, examples[sel], reg_weight),
        )

    @pytest.mark.parametrize("reg_weight", [0.0, 1e-3])
    def test_repeated_examples_match_reference(self, reg_weight):
        # an example the batch holds twice takes 1/n off its target's score-gradient
        # entry twice: once per use, as in the per-example reference
        kg = make_random_kg(seed=8, n_entities=12, n_relations=2, n_triples=35)
        config = TrainConfig(dimension=4, epochs=6, batch_size=16, seed=2, reg_weight=reg_weight)
        model = train(init_model(kg, config), kg, config)
        examples = build_examples(kg.train, kg.num_relations)
        batch = np.concatenate([examples[:9], examples[2:5], examples[2:3]])
        step = _full_mask_step(model, batch, batch_size=len(batch))
        assert_matches_reference(
            model,
            step(model, np.arange(len(batch)), reg_weight),
            _reference_batch_loss_and_grads(model, batch, reg_weight),
        )
        # a post-train whose modified set lists a triple twice, under a full mask, and
        # training on a graph built with a repeated triple: both fit with the full-mask step,
        # one batch per epoch, so each batch holds both copies
        config = dataclasses.replace(config, batch_size=128)
        repeated = kg.train + kg.train[3:5]
        tuned = post_train(
            model, kg, repeated, range(kg.num_entities), config,
            trainable_relations=range(kg.num_relations),
        )
        twice = KnowledgeGraph(kg.entity_labels, kg.relation_labels, repeated)
        for got in (tuned, train(model, twice, config)):
            reference = model.clone()
            _dense_masked_fit(
                reference,
                build_examples(repeated, kg.num_relations),
                config,
                config.epochs,
                np.arange(kg.num_entities),
                np.arange(2 * kg.num_relations),
                step=_reference_batch_loss_and_grads,
            )
            assert_fits_match(got, reference)

    def test_out_of_range_example_is_domain_error(self):
        kg = make_random_kg(seed=8, n_entities=12, n_relations=2, n_triples=35)
        model = init_model(kg, TrainConfig(dimension=4, seed=2))
        with pytest.raises(DomainError):
            _full_mask_step(model, np.asarray([[0, 0, 12]]), batch_size=4)

    @pytest.mark.parametrize("reg_weight", [0.0, 1e-3])
    @pytest.mark.parametrize("graph", ["random", "repeated-queries"])
    def test_one_batch_fit_path_is_bit_exact(self, graph, reg_weight):
        # a step whose rows fit one batch groups its queries once per fit; the same
        # permutations through a step with one row more take the per-batch grouping
        if graph == "random":
            kg = make_random_kg(seed=4, n_entities=15, n_relations=3, n_triples=60)
        else:
            triples = tuple(
                Triple(h, r, o) for h in range(4) for r in range(2) for o in range(4, 8)
            )
            kg = KnowledgeGraph([f"e{i}" for i in range(8)], ["r0", "r1"], triples)
        config = TrainConfig(dimension=4, epochs=3, seed=3)
        model = train(init_model(kg, config), kg, config)
        examples = build_examples(kg.train, kg.num_relations)
        whole = _full_mask_step(model, examples, batch_size=len(examples))
        per_batch = _full_mask_step(
            model, np.concatenate([examples, examples[:1]]), batch_size=len(examples)
        )
        rng = np.random.default_rng(5)
        for _ in range(3):
            sel = rng.permutation(len(examples))
            got, want = whole(model, sel, reg_weight), per_batch(model, sel, reg_weight)
            assert got[:2] == want[:2]
            assert np.array_equal(got[2].view(np.int64), want[2].view(np.int64))
        assert whole.whole is not None and per_batch.whole is None



def _dense_masked_fit(
    model, examples, config, epochs, ent_idx, rel_idx, step=batch_loss_and_grads
):
    """Reference: the full-mask step with every frozen row's gradient discarded."""
    lr = config.learning_rate
    params = (model.ent, model.rel)
    acc = [np.zeros_like(a) for a in params]
    rng = np.random.default_rng([config.seed, 1])
    for _ in range(epochs):
        perm = rng.permutation(len(examples))
        for start in range(0, len(examples), config.batch_size):
            batch = examples[perm[start : start + config.batch_size]]
            _, _, joint = step(model, batch, config.reg_weight)
            pairs = zip(split_grad(model, joint), (ent_idx, rel_idx))
            for param, accum, (grad, idx) in zip(params, acc, pairs):
                if len(idx):
                    g = grad[idx]
                    accum[idx] += g * g
                    param[idx] -= lr * g / (np.sqrt(accum[idx]) + 1e-10)


def _split_table(kg):
    """(Example table, base set, fit rows) of a fit of ``build_examples(kg.train)`` in order.

    The base set is every other triple; the table holds its examples, then
    those of the other triples, and the fit's rows pick triple i's pair from
    the half it is in.
    """
    base = kg.train[::2]
    table = np.concatenate(
        [build_examples(base, kg.num_relations), build_examples(kg.train[1::2], kg.num_relations)]
    )
    positions = np.arange(len(kg.train))
    positions = np.where(positions % 2, len(base) + positions // 2, positions // 2)
    return table, base, training._pair_rows(positions)


class TestFrozenContextStep:
    """The step with frozen rows against the full-mask step, its trainable rows read off."""

    @pytest.mark.parametrize("reg_weight", [0.0, 1e-2])
    @pytest.mark.parametrize("with_relations", [False, True])
    def test_trainable_gradients_and_loss_match_full_mask_step(
        self, reg_weight, with_relations, monkeypatch
    ):
        # 7-row score blocks make the frozen-column partials span several blocks
        monkeypatch.setattr(training, "_BLOCK", 7)
        seen = {"head": 0, "target": 0, "fixed_target_in": 0, "fixed_target_out": 0}
        for seed in range(8):
            rng = np.random.default_rng(seed)
            kg = make_random_kg(seed=seed, n_entities=15, n_relations=3, n_triples=60)
            config = TrainConfig(dimension=5, epochs=5, seed=seed)
            model = train(init_model(kg, config), kg, config)
            examples = build_examples(kg.train, kg.num_relations)
            ent_idx = np.sort(rng.choice(15, size=int(rng.integers(1, 8)), replace=False))
            relations = {int(rng.integers(3))} if with_relations else set()
            rel_idx = _relation_rows(relations, kg.num_relations)
            # half the triples seed the shared context, the rest lie past its table and move
            table, base, rows = _split_table(kg)
            step = _Step(model, table, ent_idx, rel_idx, base, rows, len(rows))
            sel = rng.permutation(len(examples))[:50]
            loss, data_loss, grad = step(model, sel, reg_weight)
            dense_loss, dense_data, dense = batch_loss_and_grads(model, examples[sel], reg_weight)
            g_ent, g_rel = np.split(grad, [len(ent_idx)])
            dense_ent, dense_rel = split_grad(model, dense)

            np.testing.assert_allclose(loss, dense_loss, rtol=1e-12)
            np.testing.assert_allclose(data_loss, dense_data, rtol=1e-12)
            np.testing.assert_allclose(g_ent, dense_ent[ent_idx], rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(g_rel, dense_rel[rel_idx], rtol=1e-12, atol=1e-15)
            batch = examples[sel]
            in_t = np.isin(batch, ent_idx)
            fixed = ~step.moving[sel]
            seen["head"] += int(in_t[:, 0].sum())
            seen["target"] += int(in_t[:, 2].sum())
            seen["fixed_target_in"] += int((fixed & in_t[:, 2]).sum())
            seen["fixed_target_out"] += int((fixed & ~in_t[:, 2]).sum())
        assert all(seen.values()), seen

    @pytest.mark.parametrize("reg_weight", [0.0, 1e-3])
    def test_repeated_queries_among_moving_rows_match_reference(self, reg_weight):
        # moving rows that repeat queries share one score row; an example the batch
        # holds twice takes 1/n off its target's score-gradient entry twice
        kg = make_random_kg(seed=8, n_entities=12, n_relations=2, n_triples=35)
        config = TrainConfig(dimension=4, epochs=6, batch_size=16, seed=2)
        model = train(init_model(kg, config), kg, config)
        examples = build_examples(kg.train, kg.num_relations)
        heads, counts = np.unique(examples[:, 0], return_counts=True)
        ent_idx = heads[np.argsort(-counts, kind="stable")[:2]]
        rel_idx = np.empty(0, dtype=np.int64)
        moving = np.flatnonzero(np.isin(examples[:, 0], ent_idx))
        fixed = np.flatnonzero(~np.isin(examples[:, 0], ent_idx))
        rows = np.concatenate([moving, fixed[:6], moving[:1]])
        keys = _query_keys(model, examples[rows])
        on_moving = np.isin(examples[rows, 0], ent_idx)
        assert len(np.unique(keys[on_moving])) < on_moving.sum() - 1
        step = _Step(
            model, examples, ent_idx, rel_idx, kg.train, rows=rows, batch_size=len(rows)
        )
        loss, data_loss, grad = step(model, np.arange(len(rows)), reg_weight)
        g_ent, g_rel = np.split(grad, [len(ent_idx)])
        # against the per-example reference: batch_loss_and_grads runs the same step
        want_loss, want_data, want = _reference_batch_loss_and_grads(
            model, examples[rows], reg_weight
        )
        want_ent, want_rel = split_grad(model, want)
        np.testing.assert_allclose(loss, want_loss, **TOLERANCE)
        np.testing.assert_allclose(data_loss, want_data, **TOLERANCE)
        np.testing.assert_allclose(g_ent, want_ent[ent_idx], **TOLERANCE)
        assert g_rel.shape == (0, want_rel.shape[1])

    def test_post_train_matches_dense_masked_reference(self):
        kg = make_random_kg(seed=12, n_entities=10, n_relations=2, n_triples=30)
        config = TrainConfig(dimension=6, epochs=20, batch_size=32, seed=5)
        model = train(init_model(kg, config), kg, config)
        modified = kg.train[1:]
        config = dataclasses.replace(config, epochs=15)
        for entities, relations in (({0, 3, 4}, set()), ({2, 7}, {1})):
            tuned = post_train(model, kg, modified, entities, config, trainable_relations=relations)
            reference = model.clone()
            ent_idx = np.asarray(sorted(entities))
            rel_idx = _relation_rows(relations, kg.num_relations)
            _dense_masked_fit(
                reference, build_examples(modified, kg.num_relations), config, config.epochs,
                ent_idx, rel_idx,
            )
            frozen = np.setdiff1d(np.arange(kg.num_entities), ent_idx)
            assert np.array_equal(tuned.ent[frozen], model.ent[frozen])
            np.testing.assert_allclose(
                tuned.ent[ent_idx], reference.ent[ent_idx], rtol=1e-11, atol=1e-13
            )
            np.testing.assert_allclose(tuned.rel, reference.rel, rtol=1e-11, atol=1e-13)


class TestSlot:
    """Every fit updates one slot: the fitted model's table, at exactly its trainable rows."""

    def test_each_step_slot_is_the_model_table_at_its_trainable_rows(self, monkeypatch):
        kg = make_random_kg(seed=12, n_entities=10, n_relations=2, n_triples=30)
        config = TrainConfig(dimension=6, epochs=2, batch_size=32, seed=5)
        model = train(init_model(kg, config), kg, config)
        entities, rel_rows = kg.num_entities, 2 * kg.num_relations
        seen, fit = [], training._fit

        def record(tuned, rows, fit_config, step, *rest):
            seen.append((tuned, step))
            fit(tuned, rows, fit_config, step, *rest)

        monkeypatch.setattr(training, "_fit", record)
        train(model, kg, config)
        post_train(model, kg, kg.train[1:], {0, 3, 4}, config)
        post_train(model, kg, kg.train, {2, 7}, config, trainable_relations={1})
        expected = [
            np.arange(entities + rel_rows),
            np.array([0, 3, 4]),
            np.array([2, 7, entities + 1, entities + 1 + kg.num_relations]),
        ]
        assert [type(step) for _, step in seen] == [_Step, _Step, _Step]
        assert seen[0][1].slot[1] == slice(None)
        for (tuned, step), rows in zip(seen, expected):
            table, slot_rows, grad = step.slot
            assert table is tuned.table
            assert np.array_equal(np.arange(len(table))[slot_rows], rows)
            assert grad.shape == (len(rows), table.shape[1])


# Reference: the restricted step and its frozen-context partials as they were
# written before the query table and the step's per-fit constants, kept
# verbatim (but for the names, and a fresh context in place of the shared
# cache): the step that recomputed every fixed query and target score at
# every step, and ran its moving rows one softmax row per example.
def _reference_frozen_partials(model, keys, ent_trainable, chunk):
    heads, rels = np.divmod(keys, len(model.rel))
    maxes = np.empty(len(keys))
    sums = np.empty(len(keys))
    for start in range(0, len(keys), chunk):
        part = slice(start, start + chunk)
        scores = _cmul(model.ent[heads[part]], model.rel[rels[part]]) @ model.ent.T
        scores[:, ent_trainable] = -np.inf
        maxes[part] = scores.max(axis=1)
        scores -= maxes[part, None]
        sums[part] = np.exp(scores, out=scores).sum(axis=1)
    return maxes, sums


class _ReferenceFrozenContext:
    def __init__(self, ent_trainable, rel_trainable, train):
        self.ent_trainable = ent_trainable
        self.rel_trainable = rel_trainable
        self.train = train
        self.keys = None
        self._lock = threading.Lock()

    def partials(self, model, keys, chunk):
        with self._lock:
            if self.keys is None:
                examples = build_examples(self.train, model.num_relations)
                moving = self.ent_trainable[examples[:, 0]] | self.rel_trainable[examples[:, 1]]
                base = np.unique(_query_keys(model, examples[~moving]))
                self.maxes, self.sums = _reference_frozen_partials(
                    model, base, self.ent_trainable, chunk
                )
                self.keys = base
        at = np.searchsorted(self.keys, keys)
        found = at < len(self.keys)
        found[found] = self.keys[at[found]] == keys[found]
        maxes = np.empty(len(keys))
        sums = np.empty(len(keys))
        maxes[found] = self.maxes[at[found]]
        sums[found] = self.sums[at[found]]
        if not found.all():
            missing, back = np.unique(keys[~found], return_inverse=True)
            extra_maxes, extra_sums = _reference_frozen_partials(
                model, missing, self.ent_trainable, chunk
            )
            maxes[~found] = extra_maxes[back]
            sums[~found] = extra_sums[back]
        return maxes, sums


class _ReferenceRestrictedStep:
    def __init__(self, model, examples, ent_idx, rel_idx, train, chunk):
        self.examples = examples
        self.ent_idx = ent_idx
        self.rel_idx = rel_idx
        self.column = np.full(model.num_entities, -1, dtype=np.int64)
        self.column[ent_idx] = np.arange(len(ent_idx))
        self.rel_slot = np.full(len(model.rel), -1, dtype=np.int64)
        self.rel_slot[rel_idx] = np.arange(len(rel_idx))
        ent_trainable = self.column >= 0
        rel_trainable = self.rel_slot >= 0
        self.moving = ent_trainable[examples[:, 0]] | rel_trainable[examples[:, 1]]
        self.frozen_max = np.zeros(len(examples))
        self.frozen_sum = np.zeros(len(examples))
        fixed = ~self.moving
        if fixed.any():
            context = _ReferenceFrozenContext(ent_trainable, rel_trainable, train)
            self.frozen_max[fixed], self.frozen_sum[fixed] = context.partials(
                model, _query_keys(model, examples[fixed]), chunk
            )
        self.ent_penalty = _n3(model.ent)[0]
        self.rel_penalty = _n3(model.rel)[0]

    def __call__(self, model, sel, reg_weight):
        ent, rel = model.ent, model.rel
        batch = self.examples[sel]
        heads, rels, targets = batch[:, 0], batch[:, 1], batch[:, 2]
        n = len(batch)
        head_col, target_col = self.column[heads], self.column[targets]
        ent_t = ent[self.ent_idx]
        nll = np.empty(n)
        d_ent = np.zeros_like(ent_t)
        d_rel = np.zeros((len(self.rel_idx), rel.shape[1]))
        moving = self.moving[sel]

        mv = np.flatnonzero(moving)
        if len(mv):
            h, r = ent[heads[mv]], rel[rels[mv]]
            qm = _cmul(h, r)
            rows = np.arange(len(mv))
            scores = qm @ ent.T
            target_score = scores[rows, targets[mv]]
            shift = scores.max(axis=1, keepdims=True)
            scores -= shift
            probs = np.exp(scores, out=scores)
            z = probs.sum(axis=1, keepdims=True)
            nll[mv] = shift[:, 0] + np.log(z[:, 0]) - target_score
            probs /= z
            probs[rows, targets[mv]] -= 1.0
            probs /= n
            d_ent += probs[:, self.ent_idx].T @ qm
            dq = probs @ ent
            cols = head_col[mv]
            live = cols >= 0
            _scatter_rows(d_ent, cols[live], _cmul_conj(dq[live], r[live]))
            slots = self.rel_slot[rels[mv]]
            live = slots >= 0
            _scatter_rows(d_rel, slots[live], _cmul_conj(dq[live], h[live]))

        fx = np.flatnonzero(~moving)
        if len(fx):
            qf = _cmul(ent[heads[fx]], rel[rels[fx]])
            scores = qf @ ent_t.T
            frozen_max = self.frozen_max[sel[fx]]
            top = np.maximum(frozen_max, scores.max(axis=1))
            probs = np.exp(scores - top[:, None])
            z = self.frozen_sum[sel[fx]] * np.exp(frozen_max - top) + probs.sum(axis=1)
            cols = target_col[fx]
            hit = np.flatnonzero(cols >= 0)
            target_score = np.einsum("ij,ij->i", qf, ent[targets[fx]])
            target_score[hit] = scores[hit, cols[hit]]
            nll[fx] = top + np.log(z) - target_score
            probs /= z[:, None]
            probs[hit, cols[hit]] -= 1.0
            probs /= n
            d_ent += probs.T @ qf

        data_loss = float(nll.mean())
        loss = data_loss
        if reg_weight > 0:
            self.ent_penalty[self.ent_idx], g_ent = _n3(ent_t)
            self.rel_penalty[self.rel_idx], g_rel = _n3(rel[self.rel_idx])
            penalty = self.ent_penalty[heads].sum() + self.ent_penalty[targets].sum()
            loss += reg_weight * float(penalty + self.rel_penalty[rels].sum()) / n
            c = 3.0 * reg_weight / n
            uses = np.bincount(head_col[head_col >= 0], minlength=len(self.ent_idx))
            uses += np.bincount(target_col[target_col >= 0], minlength=len(self.ent_idx))
            d_ent += (c * uses)[:, None] * g_ent
            slots = self.rel_slot[rels]
            uses = np.bincount(slots[slots >= 0], minlength=len(self.rel_idx))
            d_rel += (c * uses)[:, None] * g_rel
        return loss, data_loss, (d_ent, d_rel)


def _reference_post_train(model, kg, modified, entities, config, relations, reinit):
    """``post_train``'s set-up around the reference step."""
    tuned = model.clone()
    ent_idx = np.asarray(sorted(entities), dtype=np.int64)
    rel_idx = _relation_rows(relations, kg.num_relations)
    if reinit:
        fresh = init_model(kg, config)
        tuned.ent[ent_idx] = fresh.ent[ent_idx]
        if len(rel_idx):
            tuned.rel[rel_idx] = fresh.rel[rel_idx]
    examples = build_examples(modified, kg.num_relations)
    step = _ReferenceRestrictedStep(tuned, examples, ent_idx, rel_idx, kg.train, config.batch_size)
    training._fit(tuned, examples, config, _IntoSlots(step, tuned))
    return tuned


class _IntoSlots:
    """A step returning new ``ent`` and ``rel`` gradient arrays, as ``training._fit`` runs it.

    ``_fit`` reads the gradient from the step's (table, rows, gradient) slot:
    the model table's trainable entity rows, then its trainable relation
    rows. Every call copies the returned gradients into it, in that order.
    """

    def __init__(self, step, model):
        self.step = step
        rows = np.concatenate([step.ent_idx, step.rel_idx + len(model.ent)])
        self.slot = (model.table, rows, np.empty((len(rows), model.ent.shape[1])))

    def __call__(self, model, sel, reg_weight):
        loss, data_loss, grads = self.step(model, sel, reg_weight)
        np.concatenate(grads, out=self.slot[2])
        return loss, data_loss, self.slot[2]


# The restricted step scores its moving rows once per query and, in
# a one-batch fit, sums its fixed rows' gradient per query in key order, both
# in another order than the reference's per-example rows; after 12 desk-graph
# epochs trainable rows moved by at most 2.2e-15 from it in batches of 128 and
# 1.1e-14 in one batch, and ``train_nll`` by at most 2.9e-15.
FIT_BOUND = {"rtol": 1e-12, "atol": 1e-14}


def _assert_fit_matches(got, want, model, entities, relations, name):
    """Frozen rows of ``got`` bit-identical to ``model``'s; trainable rows and history within bound."""
    frozen = np.setdiff1d(np.arange(len(model.ent)), sorted(entities))
    frozen_rel = np.setdiff1d(np.arange(len(model.rel)), _relation_rows(relations, model.num_relations))
    assert np.array_equal(got.ent[frozen], model.ent[frozen]), name
    assert np.array_equal(got.rel[frozen_rel], model.rel[frozen_rel]), name
    np.testing.assert_allclose(got.ent, want.ent, **FIT_BOUND, err_msg=name)
    np.testing.assert_allclose(got.rel, want.rel, **FIT_BOUND, err_msg=name)
    np.testing.assert_allclose(
        [h["train_nll"] for h in got.history],
        [h["train_nll"] for h in want.history],
        **FIT_BOUND,
        err_msg=name,
    )


def _restricted_and_reference_fits(model, kg, rows, ent_idx, config):
    """A restricted fit of ``rows`` of ``kg``'s base example table, and the reference fit of them."""
    examples = build_examples(kg.train, kg.num_relations)
    rel_idx = np.empty(0, dtype=np.int64)
    got, want = model.clone(), model.clone()
    step = _Step(
        got, examples, ent_idx, rel_idx, kg.train, rows, config.batch_size
    )
    training._fit(got, rows, config, step)
    reference = _ReferenceRestrictedStep(
        want, examples[rows], ent_idx, rel_idx, kg.train, config.batch_size
    )
    training._fit(want, examples[rows], config, _IntoSlots(reference, want))
    return got, want


class TestRestrictedStepExact:
    """Post-training against the per-example reference: frozen rows bit for bit, the rest bounded."""

    @pytest.mark.parametrize("reg_weight", [0.0, 1e-3])
    def test_post_train_sweeps_match_reference(self, desk_kg, desk_model, desk_config, reg_weight):
        # 460 examples in batches of 128: three full batches and a ragged one per epoch
        self._check_sweeps(desk_kg, desk_model, desk_config, reg_weight, batch_size=128)

    @pytest.mark.parametrize("reg_weight", [0.0, 1e-3])
    def test_one_batch_post_train_sweeps_match_reference(
        self, desk_kg, desk_model, desk_config, reg_weight
    ):
        # every fit's rows in one batch: the fixed rows grouped by query once per fit
        assert desk_config.batch_size >= 2 * len(desk_kg.train) + 2
        self._check_sweeps(desk_kg, desk_model, desk_config, reg_weight, desk_config.batch_size)

    @staticmethod
    def _check_sweeps(kg, desk_model, desk_config, reg_weight, batch_size):
        config = dataclasses.replace(
            desk_config, epochs=12, batch_size=batch_size, reg_weight=reg_weight
        )
        r_count = kg.num_relations
        s = kg.train[0].subject
        near = _one_hop_entities(kg, s)
        touching = [t for t in kg.train if s in (t.subject, t.object)]
        base_queries = {(t.subject, t.relation) for t in kg.train}
        base_queries |= {(t.object, t.relation + r_count) for t in kg.train}
        far = sorted(set(range(kg.num_entities)) - near)
        # latent additions between frozen entities: rows past the base table, so moving
        # rows with a frozen head and relation; one whose two queries the base set has,
        # one whose (head, relation) query is new
        known = next(
            Triple(h, 0, o) for h in far for o in far
            if h != o and Triple(h, 0, o) not in kg.train_set
            and {(h, 0), (o, r_count)} <= base_queries
        )
        new = next(Triple(h, 1, known.object) for h in far if (h, 1) not in base_queries)
        # c-sufficient: the candidate triple with s swapped for a target entity c
        c, t = far[-1], touching[0]
        subject, obj = (c if e == s else e for e in (t.subject, t.object))
        swapped = Triple(subject, t.relation, obj)
        assert swapped not in kg.train_set
        grafted = _one_hop_entities(kg, c) | {swapped.subject, swapped.object}
        kept = tuple(touching[:3])
        sweeps = {
            # two removals share one mask, so the second reads the cached context
            "necessary": [
                (tuple(x for x in kg.train if x != removed), near, (), False)
                for removed in touching[:2]
            ],
            "latent": [(kg.train + (added,), near, (), False) for added in (known, new)],
            "c-sufficient": [(kg.train + (swapped,), grafted, (), False)],
            "sufficient": [
                (kept, {e for x in kept for e in (x.subject, x.object)}, {t.relation}, True)
            ],
        }
        for name, fits in sweeps.items():
            for modified, entities, relations, reinit in fits:
                got = post_train(
                    desk_model, kg, modified, entities, config,
                    trainable_relations=relations, reinit_trainable=reinit,
                )
                want = _reference_post_train(
                    desk_model, kg, modified, entities, config, relations, reinit
                )
                _assert_fit_matches(got, want, desk_model, entities, relations, name)

    @pytest.mark.parametrize("reg_weight", [0.0, 1e-3])
    @pytest.mark.parametrize("case", ["no-moving-row", "repeated-fixed-hits"])
    def test_one_batch_fixed_groups_match_reference(
        self, desk_kg, desk_model, desk_config, reg_weight, case
    ):
        kg = desk_kg
        config = dataclasses.replace(desk_config, epochs=12, reg_weight=reg_weight)
        examples = build_examples(kg.train, kg.num_relations)
        # a fixed query with several targets, one of them the trainable entity
        keys, counts = np.unique(_query_keys(desk_model, examples), return_counts=True)
        key = keys[counts > 1][0]
        at = np.flatnonzero(_query_keys(desk_model, examples) == key)
        trainable = examples[at[0], 2]
        if case == "no-moving-row":
            # the object queries of triples the trainable entity is not the subject of:
            # every row is fixed, and those with it as object hit its column
            rows = np.flatnonzero((np.arange(len(examples)) % 2 == 0) & (examples[:, 0] != trainable))
        else:
            # every row, the query's trainable-target row twice more: three hits in one cell
            rows = np.concatenate([np.arange(len(examples)), at[:1], at[:1]])
        assert config.batch_size >= len(rows)
        step = _Step(
            desk_model, examples, np.array([trainable]), np.empty(0, dtype=np.int64),
            kg.train, rows, config.batch_size,
        )
        fixed = examples[rows][~step.moving]
        hit = fixed[fixed[:, 2] == trainable]
        assert len(hit) and len(np.unique(fixed[:, :2], axis=0)) < len(fixed), case
        assert step.moving.any() == (case != "no-moving-row"), case
        if case != "no-moving-row":
            assert (_query_keys(desk_model, hit) == key).sum() == 3, case
        got, want = _restricted_and_reference_fits(
            desk_model, kg, rows, np.array([trainable]), config
        )
        _assert_fit_matches(got, want, desk_model, {int(trainable)}, (), case)

    @pytest.mark.parametrize("reg_weight", [0.0, 1e-3])
    def test_batch_holding_every_moving_row_of_a_longer_fit_matches_reference(
        self, desk_kg, desk_model, reg_weight
    ):
        # a latent addition between frozen entities: its two rows lie past the base table
        # and move; a batch shorter than the fit holds them, every other moving row and
        # some fixed rows, and groups its moving rows per batch
        kg = desk_kg
        far = sorted(set(range(kg.num_entities)) - _one_hop_entities(kg, kg.train[0].subject))
        added = next(
            Triple(h, 0, o) for h in far[:-1] for o in far[:-1]
            if h != o and Triple(h, 0, o) not in kg.train_set
        )
        examples = build_examples(kg.train + (added,), kg.num_relations)
        ent_idx, rel_idx = np.array(far[-1:]), np.empty(0, dtype=np.int64)
        rng = np.random.default_rng(7)
        rows = rng.permutation(len(examples))
        moving = np.isin(examples[rows, 0], ent_idx) | (rows >= 2 * len(kg.train))
        sel = rng.permutation(np.concatenate([np.flatnonzero(moving), np.flatnonzero(~moving)[:16]]))
        step = _Step(desk_model, examples, ent_idx, rel_idx, kg.train, rows, len(sel))
        assert np.array_equal(step.moving, moving) and moving.sum() > 2
        loss, data_loss, grad = step(desk_model, sel, reg_weight)
        assert step.whole is None
        reference = _ReferenceRestrictedStep(
            desk_model, examples[rows], ent_idx, rel_idx, kg.train, len(sel)
        )
        want_loss, want_data, (want_ent, want_rel) = reference(desk_model, sel, reg_weight)
        np.testing.assert_allclose(loss, want_loss, **FIT_BOUND)
        np.testing.assert_allclose(data_loss, want_data, **FIT_BOUND)
        np.testing.assert_allclose(grad, want_ent, **FIT_BOUND)
        assert want_rel.shape == (0, grad.shape[1])

    def test_one_batch_fit_does_not_depend_on_the_batch_order(self, desk_kg, desk_model, desk_config):
        # a latent addition: moving rows past the base table, repeated fixed queries and
        # fixed rows that hit a trainable target; the two seeds draw two permutations of
        # the same 462 rows, in one batch each
        kg = desk_kg
        s = kg.train[0].subject
        added = next(
            Triple(s, 0, o) for o in range(kg.num_entities) if Triple(s, 0, o) not in kg.train_set
        )
        entities = {s, added.object}
        examples = build_examples(kg.train + (added,), kg.num_relations)
        fixed = examples[~np.isin(examples[:, 0], sorted(entities))]
        assert np.isin(fixed[:, 2], sorted(entities)).any()
        assert len(np.unique(_query_keys(desk_model, fixed))) < len(fixed)
        tables = []
        for seed in (3, 4):
            config = dataclasses.replace(desk_config, epochs=12, seed=seed)
            tuned = post_train(desk_model, kg, kg.train + (added,), entities, config)
            tables.append(np.concatenate([tuned.ent, tuned.rel]).view(np.int64))
            want = _reference_post_train(
                desk_model, kg, kg.train + (added,), entities, config, (), False
            )
            _assert_fit_matches(tuned, want, desk_model, entities, (), f"seed {seed}")
        assert not np.array_equal(tables[0][: len(desk_model.ent)], desk_model.ent.view(np.int64))
        assert np.array_equal(tables[0], tables[1])


class TestPostTrain:
    def setup_method(self):
        self.kg = make_random_kg(seed=12, n_entities=10, n_relations=2, n_triples=30)
        self.config = TrainConfig(dimension=6, epochs=20, batch_size=32, seed=5)
        self.model = train(init_model(self.kg, self.config), self.kg, self.config)

    def test_frozen_mask_keeps_other_rows_bit_identical(self):
        s_x = self.kg.train[0].subject
        config = dataclasses.replace(self.config, epochs=5)
        tuned = post_train(self.model, self.kg, self.kg.train, {s_x}, config)
        for e in range(self.kg.num_entities):
            same_re = np.array_equal(tuned.ent_re[e], self.model.ent_re[e])
            same_im = np.array_equal(tuned.ent_im[e], self.model.ent_im[e])
            if e == s_x:
                assert not (same_re and same_im)
            else:
                assert same_re and same_im
        assert np.array_equal(tuned.rel_re, self.model.rel_re)
        assert np.array_equal(tuned.rel_im, self.model.rel_im)

    def test_zero_epoch_config_is_configuration_error(self):
        config = dataclasses.replace(self.config, epochs=0)
        with pytest.raises(ConfigurationError, match="epochs must be >= 1"):
            post_train(self.model, self.kg, self.kg.train, {0}, config)

    def test_empty_trainable_set_is_configuration_error(self):
        with pytest.raises(ConfigurationError):
            post_train(self.model, self.kg, self.kg.train, set(), self.config)

    def test_empty_modified_train_is_domain_error(self):
        with pytest.raises(DomainError):
            post_train(self.model, self.kg, (), {0}, self.config)

    @pytest.mark.parametrize("batch_size", [32, 128], ids=["per-batch", "one-batch"])
    def test_full_mask_with_reinit_reproduces_training_exactly(self, batch_size):
        # the keep-only retraining operator relies on this identity, through the
        # per-batch grouping (60 rows in batches of 32) and the one-batch grouping
        config = dataclasses.replace(self.config, batch_size=batch_size)
        model = train(init_model(self.kg, config), self.kg, config)
        entities = set(range(self.kg.num_entities))
        relations = set(range(self.kg.num_relations))
        reproduced = post_train(
            model,
            self.kg,
            self.kg.train,
            entities,
            config,
            trainable_relations=relations,
            reinit_trainable=True,
        )
        assert arrays_equal(reproduced, model)

    def test_context_shared_per_mask_and_never_served_for_another_model(self):
        config = dataclasses.replace(self.config, epochs=3)

        def fit(model, triples, entities):
            return post_train(model, self.kg, triples, entities, config)

        mask = {self.kg.train[0].subject}
        frozen_row = next(e for e in range(self.kg.num_entities) if e not in mask)
        other = self.model.clone()
        other.ent[frozen_row, 0] += 0.25
        fit(self.model, self.kg.train[1:], mask)
        base = training._STATE.base
        fit(self.model, self.kg.train[2:], mask)
        assert training._STATE.base is base
        cached = fit(other, self.kg.train, mask)
        assert training._STATE.base is not base
        wider = fit(self.model, self.kg.train, mask | {frozen_row})
        reset_post_train_state()
        assert arrays_equal(cached, fit(other, self.kg.train, mask))
        reset_post_train_state()
        assert arrays_equal(wider, fit(self.model, self.kg.train, mask | {frozen_row}))

    @pytest.mark.parametrize("relation", [-1, 2])
    def test_out_of_range_trainable_relation_is_domain_error_naming_it(self, relation):
        with pytest.raises(DomainError, match=f"relation id {relation} "):
            post_train(
                self.model, self.kg, self.kg.train, {0}, dataclasses.replace(self.config, epochs=1),
                trainable_relations={relation},
            )

    @pytest.mark.parametrize("entity", [-1, 10], ids=["negative", "at-bound"])
    @pytest.mark.parametrize("full", [True, False], ids=["full-mask", "frozen-mask"])
    def test_out_of_range_example_id_is_domain_error(self, full, entity):
        entities = range(self.kg.num_entities) if full else {0}
        relations = range(self.kg.num_relations) if full else None
        with pytest.raises(DomainError, match="example row id out of range"):
            post_train(
                self.model, self.kg, self.kg.train + (Triple(entity, 0, 1),), entities,
                dataclasses.replace(self.config, epochs=1), trainable_relations=relations,
            )

    def _fit(self, entities, triples=None):
        triples = self.kg.train[1:] if triples is None else triples
        return post_train(
            self.model, self.kg, triples, entities, dataclasses.replace(self.config, epochs=2)
        )

    def _partials_passes(self, monkeypatch) -> list:
        passes = []
        partials = training._frozen_partials
        monkeypatch.setattr(
            training, "_frozen_partials", lambda *args: passes.append(1) or partials(*args)
        )
        return passes

    def test_the_same_mask_twice_runs_the_partials_pass_once(self, monkeypatch):
        passes = self._partials_passes(monkeypatch)
        self._fit({1})
        self._fit({1}, self.kg.train[2:])
        assert len(passes) == 1

    def test_a_new_mask_replaces_the_old_one(self, monkeypatch):
        first = self._fit({1})
        base, context = training._STATE.base, training._STATE.base.resolved
        self._fit({2})
        assert training._STATE.base is base and base.resolved is not context
        passes = self._partials_passes(monkeypatch)
        assert arrays_equal(self._fit({1}), first)
        assert len(passes) == 1

    def test_a_second_thread_builds_its_own_base_and_never_reads_the_first_threads(self):
        want = self._fit({1})
        mine = training._STATE.base
        # were the other thread to read this state, its fit would differ
        mine.queries[:] = np.nan
        mine.resolved[:] = 0
        seen = {}

        def run():
            seen["before"] = getattr(training._STATE, "base", None)
            seen["got"] = self._fit({1})
            seen["base"] = training._STATE.base

        thread = threading.Thread(target=run)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert seen["before"] is None and seen["base"] is not mine
        assert training._STATE.base is mine
        assert arrays_equal(seen["got"], want)

    def test_concurrent_fits_sharing_a_context_match_serial_fits(self):
        # each fit adds a triple outside the shared context's training set, so every
        # thread reads the shared context while its added rows move
        mask = {0, 1}
        additions = [
            (Triple(e, 0, (e * 3 + 1) % self.kg.num_entities),) for e in range(2, 10)
        ]
        jobs = [
            tuple(t for t in self.kg.train if t not in extra) + extra for extra in additions
        ]
        config = dataclasses.replace(self.config, epochs=2)
        serial = []
        for job in jobs:
            reset_post_train_state()
            serial.append(post_train(self.model, self.kg, job, mask, config))
        reset_post_train_state()
        results = [None] * len(jobs)

        def run(i):
            results[i] = post_train(self.model, self.kg, jobs[i], mask, config)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(i,)) for i in range(len(jobs))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for got, want in zip(results, serial):
            assert arrays_equal(got, want)

    def test_trainable_relations_move_both_twin_rows(self):
        tuned = post_train(
            self.model,
            self.kg,
            self.kg.train,
            {0},
            dataclasses.replace(self.config, epochs=5),
            trainable_relations={0},
        )
        n_rel = self.kg.num_relations
        assert not np.array_equal(tuned.rel_re[0], self.model.rel_re[0])
        assert not np.array_equal(tuned.rel_re[n_rel], self.model.rel_re[n_rel])
        assert np.array_equal(tuned.rel_re[1], self.model.rel_re[1])


class TestScoreBlocks:
    """Scoring outside a step: one ``_BLOCK``-row block reused across the pass."""

    @pytest.mark.parametrize("block", [4, 5, 20])
    def test_block_size_changes_partials_and_nll_only_by_rounding(self, block, monkeypatch):
        # 21 rows leave a 1-row tail block at each size, which BLAS runs as a
        # matrix-vector product, so the bits may differ; the bound is a few ulps
        kg = make_random_kg(seed=5, n_entities=30, n_relations=3, n_triples=90)
        config = TrainConfig(dimension=6, epochs=5, seed=1)
        model = train(init_model(kg, config), kg, config)
        examples = build_examples(kg.train, kg.num_relations)
        queries = training._query_rows(model, np.unique(_query_keys(model, examples)))
        rows = np.random.default_rng(0).permutation(len(queries))[:21]
        ent_trainable = np.zeros(kg.num_entities, dtype=bool)
        ent_trainable[[2, 11, 17]] = True
        assert len(rows) % block == 1 and len(rows) <= training._BLOCK
        one_block = training._frozen_partials(model, queries, rows, ent_trainable)
        one_nll = training.mean_nll(model, examples[:21])
        monkeypatch.setattr(training, "_BLOCK", block)
        for got, want in zip(training._frozen_partials(model, queries, rows, ent_trainable), one_block):
            np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)
        got_nll = training.mean_nll(model, examples[:21])
        np.testing.assert_allclose(got_nll, one_nll, rtol=1e-15, atol=0)

    def test_context_fill_holds_one_score_block(self, monkeypatch):
        # 2,000 entities and about 5,000 fixed queries: a fill runs many blocks. The
        # fill's other arrays take about a third of a block, so a fill that held a
        # second block at once, as a fresh block per iteration does, passes two
        kg = make_random_kg(seed=3, n_entities=2000, n_relations=4, n_triples=3000)
        config = TrainConfig(dimension=8, epochs=1, batch_size=512, seed=0)
        model = init_model(kg, config)
        post_train(model, kg, kg.train, {0}, config)  # builds the base
        peaks, fill = [], training._frozen_context

        def traced(*args):
            tracemalloc.start()
            try:
                return fill(*args)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        monkeypatch.setattr(training, "_frozen_context", traced)
        post_train(model, kg, kg.train, {1}, config)
        assert len(training._STATE.base.keys) > 50 * training._BLOCK
        block = training._BLOCK * kg.num_entities * 8
        assert len(peaks) == 1 and peaks[0] < 2 * block, (peaks, block)


class TestNoAliasing:
    """Fits work on their own copy of the model's table and never rebind the caller's."""

    def test_fits_leave_the_input_tables_alone(self):
        kg = make_random_kg(seed=12, n_entities=10, n_relations=2, n_triples=30)
        config = TrainConfig(dimension=6, epochs=4, batch_size=32, seed=5)
        model = train(init_model(kg, config), kg, config)
        ent, rel = model.ent, model.rel
        bits = (ent.copy().view(np.int64), rel.copy().view(np.int64))
        full = dict(trainable_relations=range(kg.num_relations))
        train(model, kg, config)
        post_train(model, kg, kg.train[1:], range(kg.num_entities), config, **full)
        short = dataclasses.replace(config, epochs=2)
        post_train(model, kg, kg.train[1:], {0, 3}, short)
        post_train(model, kg, kg.train[1:], {2, 7}, short, trainable_relations={1})
        batch_loss_and_grads(model, build_examples(kg.train, kg.num_relations), 1e-3)
        assert model.ent is ent and model.rel is rel
        assert np.array_equal(ent.view(np.int64), bits[0])
        assert np.array_equal(rel.view(np.int64), bits[1])

    def test_clone_of_a_fitted_model_shares_no_memory_with_it(self):
        kg = make_random_kg(seed=12, n_entities=10, n_relations=2, n_triples=30)
        config = TrainConfig(dimension=6, epochs=2, seed=5)
        model = train(init_model(kg, config), kg, config)
        twin = model.clone()
        for mine in (twin.ent, twin.rel):
            for theirs in (model.ent, model.rel):
                assert not np.shares_memory(mine, theirs)
        twin.ent += 1.0
        twin.rel += 1.0
        assert not np.array_equal(twin.ent, model.ent) and not np.array_equal(twin.rel, model.rel)


def test_desk_sweeps_post_train_from_one_base_model(
    desk_kg, desk_model, desk_config, desk_predictions, monkeypatch
):
    """The traffic the one-base cache rests on, on the desk fixture.

    Necessary, c-sufficient and latent sweeps over one prediction build
    frozen contexts, and their query rows are filled once for all three; a
    sufficient sweep leaves no row fixed and builds none.
    """
    kg, model, prediction = desk_kg, desk_model, desk_predictions[0]
    s_x = prediction.subject
    config = ExplainerConfig(evaluator="post-train", post_train_epochs=2)
    space = build_search_space(kg, "shares-entity", prediction)
    touching = tuple(t for t in space.members if s_x in (t.subject, t.object))
    unseen = (Triple(s_x, 1, o) for o in range(kg.num_entities))
    latent = tuple(t for t in unseen if t not in kg.train_set)[:3]
    targets = build_target_set(kg, model, prediction, 2, seed=0)
    fills, contexts = [], []
    base_init, frozen_context = training._BaseModel.__init__, training._frozen_context
    monkeypatch.setattr(
        training._BaseModel, "__init__", lambda *args: fills.append(1) or base_init(*args)
    )
    monkeypatch.setattr(
        training, "_frozen_context", lambda *args: contexts.append(1) or frozen_context(*args)
    )
    explain(kg, model, prediction, "exhaustive-length-1", "sufficient", space, config, desk_config)
    assert not contexts and not fills
    sweeps = [
        ("necessary", space, None),
        ("c-sufficient", SearchSpace(space.preset, touching), targets),
        ("latent-negative", SearchSpace("latent-sample", latent), None),
    ]
    for mode, members, mode_targets in sweeps:
        before = len(contexts)
        explain(
            kg, model, prediction, "exhaustive-length-1", mode, members, config, desk_config,
            mode_targets,
        )
        assert len(contexts) > before, mode
    assert len(fills) == 1
