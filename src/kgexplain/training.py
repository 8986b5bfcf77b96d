"""Training loops: full training and masked post-training.

The loss is the full-softmax negative log-likelihood over all candidate
objects, with cubed-modulus (N3) regularization of the three embedding
factors of each example. Every training triple contributes two examples:
the object query (s, r) -> o and the reciprocal subject query
(o, r + R) -> s. Optimization is adaptive-gradient with per-coordinate
accumulators; accumulators always start at zero, so post-training does not
depend on the original optimizer trajectory.
"""
from __future__ import annotations

import logging
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigurationError, DomainError, TrainingError
from .kg import KnowledgeGraph, Triple
from .model import EmbeddingModel, TrainConfig, _cmul, _cmul_conj, init_model

logger = logging.getLogger(__name__)

_ADAGRAD_EPS = 1e-10


def build_examples(triples: Iterable[Triple], num_relations: int) -> np.ndarray:
    """Expand triples into (head, relation_row, target) query rows, both directions."""
    rows = []
    for s, r, o in triples:
        rows.append((s, r, o))
        rows.append((o, r + num_relations, s))
    if not rows:
        raise DomainError("no training examples: the triple set is empty")
    return np.asarray(rows, dtype=np.int64)


def _scatter_rows(out: np.ndarray, index: np.ndarray, values: np.ndarray) -> None:
    """out[index] += values with repeated indices, via flat bincount."""
    n_rows, n_cols = out.shape
    flat = (index[:, None] * n_cols + np.arange(n_cols)).ravel()
    out += np.bincount(flat, weights=values.ravel(), minlength=n_rows * n_cols).reshape(
        n_rows, n_cols
    )


class Gradients(tuple):
    """Gradients of the packed ``ent`` and ``rel`` tables.

    As a tuple it holds the four real halves, ordered (ent_re, ent_im,
    rel_re, rel_im) like the model's views; ``ent`` and ``rel`` are the
    packed tables the optimizer updates.
    """

    def __new__(cls, ent: np.ndarray, rel: np.ndarray) -> "Gradients":
        d = ent.shape[1] // 2
        grads = super().__new__(cls, (ent[:, :d], ent[:, d:], rel[:, :d], rel[:, d:]))
        grads.ent, grads.rel = ent, rel
        return grads


def _n3(x: np.ndarray) -> tuple[float, np.ndarray]:
    """Cubed-modulus (N3) penalty of packed ``[re | im]`` rows, and ``|x| * x``.

    The second value is the penalty's gradient divided by three.
    """
    d = x.shape[1] // 2
    modulus = np.sqrt(x[:, :d] ** 2 + x[:, d:] ** 2)
    return float((modulus**3).sum()), np.concatenate([modulus, modulus], axis=1) * x


def batch_loss_and_grads(
    model: EmbeddingModel, batch: np.ndarray, reg_weight: float
) -> tuple[float, float, Gradients]:
    """Mean loss over a batch of query rows plus analytic gradients.

    Returns (total loss, data-only negative log-likelihood, gradients). Each
    step runs one matmul and one scatter per packed parameter table.
    """
    ent, rel = model.ent, model.rel
    heads = batch[:, 0]
    rels = batch[:, 1]
    targets = batch[:, 2]
    n = len(batch)
    rows = np.arange(n)

    h, r = ent[heads], rel[rels]
    q = _cmul(h, r)
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
    dh = _cmul_conj(dq, r)
    dr = _cmul_conj(dq, h)
    d_rel = np.zeros_like(rel)

    loss = data_loss
    if reg_weight > 0:
        (ph, gh), (pr, gr), (pt, gt) = _n3(h), _n3(r), _n3(ent[targets])
        loss += reg_weight * (ph + pr + pt) / n
        c = 3.0 * reg_weight / n
        dh += c * gh
        dr += c * gr
        _scatter_rows(d_ent, targets, c * gt)

    _scatter_rows(d_ent, heads, dh)
    _scatter_rows(d_rel, rels, dr)
    return loss, data_loss, Gradients(d_ent, d_rel)


def mean_nll(model: EmbeddingModel, examples: np.ndarray) -> float:
    """Data negative log-likelihood averaged over query rows, no regularization."""
    ent, rel = model.ent, model.rel
    total = 0.0
    for start in range(0, len(examples), 4096):
        batch = examples[start : start + 4096]
        scores = _cmul(ent[batch[:, 0]], rel[batch[:, 1]]) @ ent.T
        shift = scores.max(axis=1, keepdims=True)
        log_z = np.log(np.exp(scores - shift).sum(axis=1)) + shift[:, 0]
        total += float((log_z - scores[np.arange(len(batch)), batch[:, 2]]).sum())
    return total / len(examples)


def _fit(
    model: EmbeddingModel,
    examples: np.ndarray,
    config: TrainConfig,
    epochs: int,
    ent_idx: np.ndarray | None = None,
    rel_idx: np.ndarray | None = None,
    valid_examples: np.ndarray | None = None,
) -> None:
    """Run adaptive-gradient epochs in place, optionally masked to index sets.

    With both index sets absent every row updates; otherwise only the listed
    rows move and everything else stays bit-identical. Batch order is drawn
    from a stream keyed only by (seed, example count), so two fits over the
    same example set replay the same batches.
    """
    lr = config.learning_rate
    params = (model.ent, model.rel)
    acc = [np.zeros_like(a) for a in params]
    masks = (ent_idx, rel_idx)
    shuffle_rng = np.random.default_rng([config.seed, 1])
    model.history = []

    for epoch in range(epochs):
        perm = shuffle_rng.permutation(len(examples))
        epoch_nll = 0.0
        for start in range(0, len(examples), config.batch_size):
            batch = examples[perm[start : start + config.batch_size]]
            loss, data_loss, grads = batch_loss_and_grads(model, batch, config.reg_weight)
            if not np.isfinite(loss):
                raise TrainingError(f"loss diverged (non-finite) at epoch {epoch}")
            epoch_nll += data_loss * len(batch)
            for param, accum, grad, idx in zip(params, acc, (grads.ent, grads.rel), masks):
                if idx is None:
                    accum += grad * grad
                    param -= lr * grad / (np.sqrt(accum) + _ADAGRAD_EPS)
                elif len(idx):
                    g = grad[idx]
                    accum[idx] += g * g
                    param[idx] -= lr * g / (np.sqrt(accum[idx]) + _ADAGRAD_EPS)
        for param in params:
            if not np.all(np.isfinite(param)):
                raise TrainingError(f"embeddings became non-finite at epoch {epoch}")
        record = {"epoch": epoch, "train_nll": epoch_nll / len(examples)}
        if valid_examples is not None and len(valid_examples):
            record["valid_nll"] = mean_nll(model, valid_examples)
        model.history.append(record)


def train(model: EmbeddingModel, kg: KnowledgeGraph, config: TrainConfig) -> EmbeddingModel:
    """Train a copy of the model on the graph's training split.

    Deterministic under a fixed (seed, config, graph). The returned model
    carries per-epoch train and validation negative log-likelihood in
    ``history``; the input model is left untouched.
    """
    config.validate()
    trained = model.clone()
    examples = build_examples(kg.train, model.num_relations)
    valid = kg.eval_split("valid")
    valid_examples = build_examples(valid, model.num_relations) if valid else None
    _fit(trained, examples, config, config.epochs, valid_examples=valid_examples)
    return trained


def _relation_rows(relations: Iterable[int], num_relations: int) -> np.ndarray:
    base = sorted(set(relations))
    return np.asarray([r for r in base] + [r + num_relations for r in base], dtype=np.int64)


def post_train(
    model: EmbeddingModel,
    kg: KnowledgeGraph,
    modified_train: Sequence[Triple],
    trainable_entities: Iterable[int],
    config: TrainConfig,
    epochs: int | None = None,
    trainable_relations: Iterable[int] | None = None,
    reinit_trainable: bool = False,
) -> EmbeddingModel:
    """Retrain only the designated rows on a modified triple set.

    Embeddings outside ``trainable_entities`` (and, when given, outside
    ``trainable_relations`` and their reciprocal rows) stay bit-identical.
    ``reinit_trainable`` restores trainable rows to their seeded initial
    values before fitting, so a full mask plus the original training set
    reproduces :func:`train` exactly. ``epochs=0`` returns an identical copy.
    """
    config.validate()
    ent_idx = np.asarray(sorted(set(trainable_entities)), dtype=np.int64)
    if ent_idx.size == 0:
        raise ConfigurationError("post-training requires a non-empty trainable entity set")
    if ent_idx.min() < 0 or ent_idx.max() >= model.num_entities:
        raise DomainError("trainable entity id out of range")
    modified = tuple(modified_train)
    if not modified:
        raise DomainError("post-training requires a non-empty modified training set")
    if epochs is None:
        epochs = config.epochs
    if epochs < 0:
        raise ConfigurationError("epochs must be >= 0")

    rel_idx = (
        _relation_rows(trainable_relations, model.num_relations)
        if trainable_relations is not None
        else np.asarray([], dtype=np.int64)
    )

    tuned = model.clone()
    if reinit_trainable:
        fresh = init_model(kg, config)
        tuned.ent[ent_idx] = fresh.ent[ent_idx]
        if len(rel_idx):
            tuned.rel[rel_idx] = fresh.rel[rel_idx]
    if epochs == 0:
        return tuned
    examples = build_examples(modified, model.num_relations)
    _fit(tuned, examples, config, epochs, ent_idx=ent_idx, rel_idx=rel_idx)
    return tuned
