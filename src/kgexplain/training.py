"""Training loops: full training and masked post-training.

The loss is the full-softmax negative log-likelihood over all candidate
objects, with cubed-modulus (N3) regularization of the three embedding
factors of each example. Every training triple contributes two examples:
the object query (s, r) -> o and the reciprocal subject query
(o, r + R) -> s. Optimization is adaptive-gradient with per-coordinate
accumulators; accumulators always start at zero, so post-training does not
depend on the original optimizer trajectory.

Every fit runs :func:`_fit` over a step object. Full training, and a
post-train whose mask covers every row, run :class:`_DenseStep`, whose
workspaces are allocated once per fit; from a fresh model that post-train is
a full retrain without the validation NLL that :func:`train` records. Its
per-row complex values are split, real rows then imaginary rows, so each
complex product runs on contiguous blocks; the matrix products read and
write packed ``[re | im]`` rows, and the tables stay packed.

A post-train with any frozen row runs a restricted step instead. A query
row whose head entity or relation row is trainable keeps the dense softmax
over all entities. Every other row is fixed: its query ``q = h∘r`` and its
scores against frozen entities cannot change during the fit. One cache holds
the most recent base model: ``q`` for every query of its training set,
computed once when that base is set, and a frozen context per recent mask
that keeps, for each fixed query, the max and shifted exp-sum of its
frozen-entity scores. Once per fit the step resolves each fixed example's
query row and partials (queries the base set lacks are computed for that fit
alone) and, when its target is frozen, its target score. Each step then
scores fixed rows against the trainable entities only and merges the two
parts into the normaliser. Gradients are formed for the trainable rows
alone. The cache is keyed by a digest of the embedding tables and the base
training set, and its contexts by the trainable entity and relation sets, so
all candidates of a prediction share one context. Frozen rows stay
bit-identical; trainable rows differ from the dense masked fit only by
summation order (measured at most 1.8e-13 after 60 desk-graph epochs and
9e-15 after one mid-graph epoch).
"""
from __future__ import annotations

import hashlib
import logging
import threading
from collections import OrderedDict
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigurationError, DomainError, TrainingError
from .kg import KnowledgeGraph, Triple
from .model import EmbeddingModel, TrainConfig, _cmul, _cmul_conj, _split, init_model

logger = logging.getLogger(__name__)

_ADAGRAD_EPS = 1e-10


def build_examples(triples: Iterable[Triple], num_relations: int) -> np.ndarray:
    """Expand triples into (head, relation_row, target) query rows, both directions.

    Row 2i is triple i's object query (s, r, o), row 2i + 1 its reciprocal
    subject query (o, r + num_relations, s).
    """
    forward = np.fromiter(chain.from_iterable(triples), dtype=np.int64).reshape(-1, 3)
    if not len(forward):
        raise DomainError("no training examples: the triple set is empty")
    rows = np.empty((2 * len(forward), 3), dtype=np.int64)
    rows[0::2] = forward
    rows[1::2] = forward[:, ::-1]
    rows[1::2, 1] += num_relations
    return rows


def _scatter_rows(out: np.ndarray, index: np.ndarray, values: np.ndarray, flat=None) -> None:
    """out[index] += values with repeated indices, via flat bincount (index built in ``flat``).

    ``index`` may have any shape; ``values`` has that shape plus one row of
    ``out``. Each bin receives its values in the order they are laid out.
    """
    n_rows, n_cols = out.shape
    flat = np.empty(values.shape, dtype=np.int64) if flat is None else flat
    np.add(np.multiply(index[..., None], n_cols, out=flat), np.arange(n_cols), out=flat)
    out += np.bincount(flat.ravel(), weights=values.ravel(), minlength=n_rows * n_cols).reshape(
        n_rows, n_cols
    )


def _halves(table: np.ndarray) -> np.ndarray:
    """The ``(2 * rows, d)`` view of a packed table; row i's halves are its rows 2i and 2i + 1."""
    return table.reshape(-1, table.shape[1] // 2)


def _half_ids(ids: np.ndarray, out=None) -> np.ndarray:
    """Rows ``2 * ids`` and ``2 * ids + 1`` of :func:`_halves`, stacked on a new next-to-last axis.

    Gathering them from :func:`_halves` gives the split ``(2, len(ids), d)``
    form of ``table[ids]``, contiguous, in one ``np.take`` that reads a
    contiguous source (``np.take`` along the rows of the transposed
    ``(2, rows, d)`` view would first copy the whole table). Scattering to
    them adds split rows back into a packed table.
    """
    out = np.empty(ids.shape[:-1] + (2,) + ids.shape[-1:], dtype=np.int64) if out is None else out
    np.multiply(ids, 2, out=out[..., 0, :])
    np.add(out[..., 0, :], 1, out=out[..., 1, :])
    return out


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


def _n3(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cubed-modulus (N3) penalty of each packed ``[re | im]`` row, and ``|x| * x``.

    The second value is the penalty's gradient divided by three.
    """
    d = x.shape[1] // 2
    modulus = np.sqrt(x[:, :d] ** 2 + x[:, d:] ** 2)
    return (modulus**3).sum(axis=1), np.concatenate([modulus, modulus], axis=1) * x


def _gather(table: np.ndarray, rows: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``table[rows]`` into ``out``; ids are range-checked when a step is built."""
    return np.take(table, rows, axis=0, out=out, mode="clip")


def _check_ids(model: EmbeddingModel, examples: np.ndarray) -> None:
    """:class:`DomainError` unless every (head, relation_row, target) id fits the model."""
    bounds = (len(model.ent), len(model.rel), len(model.ent))
    if examples.min() < 0 or (examples.max(axis=0) >= bounds).any():
        raise DomainError("example row id out of range for the model")


class _DenseStep:
    """The full training step: every row trainable, softmax over all entities.

    Its workspaces are allocated once per fit, so a step allocates nothing of
    batch size (only the table-sized N3 terms). Per-row complex values live
    in split ``(2, rows, d)`` workspaces, real rows then imaginary rows, so
    the three complex products and the N3 gradient terms run on contiguous
    blocks. Rows are gathered into that layout, and scattered back, through
    the ``(2 * rows, d)`` view of each packed table (:func:`_half_ids`); one
    packed ``(rows, 2d)`` workspace carries ``q`` into the matrix products
    and ``dq`` out of them. The step runs the plain loss expression's
    operations in the same order, and each scatter bin receives its rows in
    batch order, so it gives the same bits. The returned gradients are
    workspaces, overwritten by the next call.
    """

    ent_idx = rel_idx = slice(None)

    def __init__(self, model: EmbeddingModel, examples: np.ndarray, batch_size: int) -> None:
        _check_ids(model, examples)
        entities, width = model.ent.shape
        n = min(batch_size, len(examples))
        self.columns = np.ascontiguousarray(examples.T)
        self.ids, self.target_at = np.empty(3 * n, dtype=np.int64), np.empty(n, dtype=np.int64)
        self.row_start = np.arange(n) * entities
        # flat buffers: a batch of m rows uses the first m * width values of each,
        # so its split halves are contiguous whatever m is
        self.half_ids = np.empty(6 * n, dtype=np.int64)
        self.flat = np.empty(n * width, dtype=np.int64)
        self.work, self.half = np.empty((7, n * width)), np.empty(n * width // 2)
        self.scores = np.empty((n, entities))
        self.target, self.shift, self.z, self.per_row = np.empty((4, n))
        self.d_ent, self.d_rel = np.empty_like(model.ent), np.empty_like(model.rel)

    def __call__(
        self, model: EmbeddingModel, sel: np.ndarray, reg_weight: float
    ) -> tuple[float, float, tuple[np.ndarray, np.ndarray]]:
        """Loss, data loss and the ``ent`` and ``rel`` gradients over example rows ``sel``."""
        ent, rel, n = model.ent, model.rel, len(sel)
        width = ent.shape[1]
        heads, rels, targets = ids = self.ids[: 3 * n].reshape(3, n)
        np.take(self.columns, sel, axis=1, out=ids, mode="clip")
        at_heads, at_rels, at_targets = _half_ids(ids, self.half_ids[: 6 * n].reshape(3, 2, n))
        packed = self.work[0, : n * width].reshape(n, width)
        h, r, q, dh, dr, g = self.work[1:, : n * width].reshape(6, 2, n, -1)
        half, per_row = self.half[: n * width // 2].reshape(n, -1), self.per_row[:n]
        flat = self.flat[: n * width].reshape(2, n, -1)
        _gather(_halves(ent), at_heads, h)
        _gather(_halves(rel), at_rels, r)
        np.copyto(_split(packed), _cmul(h, r, out=q, tmp=half))

        # softmax in place; the target scores are read before the shift
        scores = np.matmul(packed, ent.T, out=self.scores[:n])
        flat_scores = scores.reshape(-1)
        at = np.add(self.row_start[:n], targets, out=self.target_at[:n])
        target = _gather(flat_scores, at, self.target[:n])
        shift = np.max(scores, axis=1, out=self.shift[:n])
        scores -= shift[:, None]
        z = np.sum(np.exp(scores, out=scores), axis=1, out=self.z[:n])
        target -= shift
        target -= np.log(z, out=per_row)
        data_loss = float(-target.mean())

        scores /= z[:, None]
        hit = np.subtract(_gather(flat_scores, at, per_row), 1.0, out=per_row)
        np.put(flat_scores, at, hit)
        scores /= n
        d_ent = np.matmul(scores.T, packed, out=self.d_ent)
        dq = q  # q's split rows are spent once packed; dq takes their place
        np.copyto(dq, _split(np.matmul(scores, ent, out=packed)))
        _cmul_conj(dq, r, out=dh, tmp=half)
        _cmul_conj(dq, h, out=dr, tmp=half)

        loss = data_loss
        if reg_weight > 0:
            # N3 terms once per table row (table-sized), then gathered for each use of a row
            (ent_penalty, ent_grad), (rel_penalty, rel_grad) = _n3(ent), _n3(rel)
            uses = ((ent_penalty, heads), (rel_penalty, rels), (ent_penalty, targets))
            penalty = sum(_gather(pen, rows, per_row).sum() for pen, rows in uses)
            loss += reg_weight * float(penalty) / n
            c = 3.0 * reg_weight / n
            dh += np.multiply(_gather(_halves(ent_grad), at_heads, g), c, out=g)
            dr += np.multiply(_gather(_halves(rel_grad), at_rels, g), c, out=g)
            np.multiply(_gather(_halves(ent_grad), at_targets, g), c, out=g)
            _scatter_rows(_halves(d_ent), at_targets, g, flat)

        _scatter_rows(_halves(d_ent), at_heads, dh, flat)
        self.d_rel.fill(0.0)
        _scatter_rows(_halves(self.d_rel), at_rels, dr, flat)
        return loss, data_loss, (d_ent, self.d_rel)


def batch_loss_and_grads(
    model: EmbeddingModel, batch: np.ndarray, reg_weight: float
) -> tuple[float, float, Gradients]:
    """(Total loss, data-only negative log-likelihood, analytic gradients) of a batch.

    One :class:`_DenseStep` over the whole batch: the step every dense fit runs.
    """
    step = _DenseStep(model, batch, len(batch))
    loss, data_loss, grads = step(model, np.arange(len(batch)), reg_weight)
    return loss, data_loss, Gradients(*grads)


def mean_nll(model: EmbeddingModel, examples: np.ndarray) -> float:
    """Data negative log-likelihood averaged over query rows, no regularization."""
    ent, rel = model.ent, model.rel
    total = 0.0
    for start in range(0, len(examples), 4096):
        batch = examples[start : start + 4096]
        scores = _cmul(ent[batch[:, 0]], rel[batch[:, 1]]) @ ent.T
        target = scores[np.arange(len(batch)), batch[:, 2]]
        shift = scores.max(axis=1)
        scores -= shift[:, None]
        log_z = np.log(np.exp(scores, out=scores).sum(axis=1)) + shift
        total += float((log_z - target).sum())
    return total / len(examples)


def _query_keys(model: EmbeddingModel, examples: np.ndarray) -> np.ndarray:
    """One integer per (head, relation_row) query of each example row."""
    return examples[:, 0] * len(model.rel) + examples[:, 1]


def _query_rows(model: EmbeddingModel, keys: np.ndarray, chunk: int) -> np.ndarray:
    """The query row ``h∘r`` of each (head, relation_row) key, ``chunk`` keys at a time."""
    heads, rels = np.divmod(keys, len(model.rel))
    queries = np.empty((len(keys), model.ent.shape[1]))
    for start in range(0, len(keys), chunk):
        part = slice(start, start + chunk)
        queries[part] = _cmul(model.ent[heads[part]], model.rel[rels[part]])
    return queries


def _frozen_partials(
    model: EmbeddingModel,
    queries: np.ndarray,
    rows: np.ndarray,
    ent_trainable: np.ndarray,
    chunk: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Max and shifted exp-sum of the scores of ``queries[rows]`` over the frozen columns.

    Works ``chunk`` rows at a time, so no score block is larger than a
    training step's.
    """
    maxes = np.empty(len(rows))
    sums = np.empty(len(rows))
    for start in range(0, len(rows), chunk):
        part = slice(start, start + chunk)
        scores = queries[rows[part]] @ model.ent.T
        scores[:, ent_trainable] = -np.inf
        maxes[part] = scores.max(axis=1)
        scores -= maxes[part, None]
        sums[part] = np.exp(scores, out=scores).sum(axis=1)
    return maxes, sums


class _FrozenContext:
    """Frozen-column softmax partials of fixed queries, for one mask over a base model.

    A query (head, relation_row) is fixed during a post-train when neither
    its head entity nor its relation row is trainable: its embedding and its
    scores against every frozen entity column never change. For each fixed
    query of the base training set the context keeps the max of those scores
    and the sum of their exps shifted by it, computed once, in one pass, from
    the query rows of its :class:`_BaseModel`. A fit that brings queries
    outside that set computes them on its own, so every value a fit reads is
    the same whichever fits ran before it or beside it in other threads.
    """

    def __init__(
        self, ent_trainable: np.ndarray, rel_trainable: np.ndarray, base: _BaseModel
    ) -> None:
        self.ent_trainable = ent_trainable
        self.rel_trainable = rel_trainable
        self.keys, self.queries = base.keys, base.queries
        self.maxes: np.ndarray | None = None
        self._lock = threading.Lock()

    def lookup(
        self, model: EmbeddingModel, keys: np.ndarray, chunk: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(row, max, exp-sum) per fixed query key, and the query rows the rows index.

        ``model`` must be the context's base model. Keys outside the base
        training set get rows appended to a copy of the query rows, for the
        calling fit alone.
        """
        with self._lock:
            if self.maxes is None:
                heads, rels = np.divmod(self.keys, len(model.rel))
                fixed = np.flatnonzero(~(self.ent_trainable[heads] | self.rel_trainable[rels]))
                # indexed like the query rows; the entries of moving queries stay unread
                self.maxes, self.sums = np.zeros((2, len(self.keys)))
                self.maxes[fixed], self.sums[fixed] = _frozen_partials(
                    model, self.queries, fixed, self.ent_trainable, chunk
                )
        at = np.searchsorted(self.keys, keys)
        found = at < len(self.keys)
        found[found] = self.keys[at[found]] == keys[found]
        maxes, sums, queries = self.maxes, self.sums, self.queries
        if not found.all():
            missing, back = np.unique(keys[~found], return_inverse=True)
            extra = _query_rows(model, missing, chunk)
            extra_maxes, extra_sums = _frozen_partials(
                model, extra, np.arange(len(missing)), self.ent_trainable, chunk
            )
            maxes, sums, queries = map(
                np.concatenate, zip((maxes, sums, queries), (extra_maxes, extra_sums, extra))
            )
            at[~found] = len(self.keys) + back
        return at, maxes[at], sums[at], queries


class _BaseModel:
    """One base model and training set: its query rows and its masks' contexts.

    The query row ``q = h∘r`` of every base query depends on the base model
    alone, so it is computed once, here, and read by the context of every mask.
    """

    def __init__(self, key: tuple, model: EmbeddingModel, train: Sequence[Triple], chunk: int):
        self.key = key
        self.train = train  # held, so that the key's id of it stays unique
        self.keys = np.unique(_query_keys(model, build_examples(train, model.num_relations)))
        self.queries = _query_rows(model, self.keys, chunk)
        self.contexts: "OrderedDict[tuple[bytes, bytes], _FrozenContext]" = OrderedDict()


# The base model of the latest post-train with a frozen row. A sweep post-trains
# from one base model (the sufficient operator leaves no row fixed and never
# comes here), so one is kept; a post-train from other embeddings or another
# training set replaces it whole. The candidates of a prediction under one
# operator share a mask, so the most recent few contexts cover a sweep with a
# few workers; each costs two floats per query of the base training set.
_CONTEXT_LIMIT = 8
_CACHE: _BaseModel | None = None
_CACHE_LOCK = threading.Lock()


def _frozen_context(
    model: EmbeddingModel,
    ent_trainable: np.ndarray,
    rel_trainable: np.ndarray,
    train: Sequence[Triple],
    chunk: int,
) -> _FrozenContext:
    """The shared context of this model's content, trainable rows and training set."""
    global _CACHE
    digest = hashlib.sha256()
    for table in (model.ent, model.rel):
        digest.update(np.asarray(table.shape, dtype=np.int64).tobytes())
        digest.update(np.ascontiguousarray(table).data)
    key = (digest.digest(), id(train))
    mask = (ent_trainable.tobytes(), rel_trainable.tobytes())
    with _CACHE_LOCK:
        if _CACHE is None or _CACHE.key != key:
            _CACHE = _BaseModel(key, model, train, chunk)
        contexts = _CACHE.contexts
        context = contexts.pop(mask, None) or _FrozenContext(ent_trainable, rel_trainable, _CACHE)
        contexts[mask] = context
        if len(contexts) > _CONTEXT_LIMIT:
            contexts.popitem(last=False)
        return context


class _RestrictedStep:
    """A training step that computes only what the trainable rows need.

    Query rows whose head entity or relation row is trainable ("moving")
    keep the dense softmax over all entity columns. Every other row is fixed.
    Once per fit the step resolves, for each fixed row, its query's row and
    frozen-column partials from the shared :class:`_FrozenContext` and, when
    its target is frozen, its target score ``q·e_o``. A step then gathers each
    fixed row's query, scores it against the trainable columns only and
    completes its normaliser with the frozen partials. Entity gradients are
    formed for the trainable rows alone, so a step costs
    O(n |T| d + n_moving E d) instead of O(n E d).
    """

    def __init__(
        self,
        model: EmbeddingModel,
        examples: np.ndarray,
        ent_idx: np.ndarray,
        rel_idx: np.ndarray,
        train: Sequence[Triple],
        chunk: int,
    ) -> None:
        _check_ids(model, examples)
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
        self.query_row = np.zeros(len(examples), dtype=np.int64)
        self.frozen_max = np.zeros(len(examples))
        self.frozen_sum = np.zeros(len(examples))
        self.target_score = np.zeros(len(examples))
        self.queries = np.empty((0, model.ent.shape[1]))
        fixed = np.flatnonzero(~self.moving)
        if len(fixed):
            context = _frozen_context(model, ent_trainable, rel_trainable, train, chunk)
            rows, maxes, sums, self.queries = context.lookup(
                model, _query_keys(model, examples[fixed]), chunk
            )
            self.query_row[fixed] = rows
            self.frozen_max[fixed], self.frozen_sum[fixed] = maxes, sums
            # a fixed row's score against its frozen target never changes either
            out = fixed[~ent_trainable[examples[fixed, 2]]]
            for start in range(0, len(out), chunk):
                part = out[start : start + chunk]
                q = self.queries[self.query_row[part]]
                self.target_score[part] = np.einsum("ij,ij->i", q, model.ent[examples[part, 2]])
        # N3 penalty of every row; the trainable rows' entries are refreshed each step
        self.ent_penalty = _n3(model.ent)[0]
        self.rel_penalty = _n3(model.rel)[0]

    def __call__(
        self, model: EmbeddingModel, sel: np.ndarray, reg_weight: float
    ) -> tuple[float, float, tuple[np.ndarray, np.ndarray]]:
        """Loss, data loss and the trainable entity and relation rows' gradients.

        Covers the example rows ``sel`` and equals the dense step's values up
        to the order of summation.
        """
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
            # complex products on contiguous split rows, as in the dense step
            h = _halves(ent)[_half_ids(heads[mv])]
            r = _halves(rel)[_half_ids(rels[mv])]
            qm = np.empty((len(mv), ent.shape[1]))
            np.copyto(_split(qm), _cmul(h, r, out=np.empty_like(h)))
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
            dq = _halves(probs @ ent)
            head_and_relation = [(d_ent, head_col[mv], r)]
            if len(self.rel_idx):  # without a trainable relation row there is no d_rel to form
                head_and_relation.append((d_rel, self.rel_slot[rels[mv]], h))
            for grad, slot, factor in head_and_relation:
                live = np.flatnonzero(slot >= 0)
                dq_live = dq[_half_ids(live)]
                product = _cmul_conj(
                    dq_live, np.take(factor, live, axis=1), out=np.empty_like(dq_live)
                )
                _scatter_rows(_halves(grad), _half_ids(slot[live]), product)

        fx = np.flatnonzero(~moving)
        if len(fx):
            fixed = sel[fx]
            qf = self.queries[self.query_row[fixed]]
            scores = qf @ ent_t.T
            frozen_max = self.frozen_max[fixed]
            top = np.maximum(frozen_max, scores.max(axis=1))
            probs = np.exp(scores - top[:, None])
            z = self.frozen_sum[fixed] * np.exp(frozen_max - top) + probs.sum(axis=1)
            cols = target_col[fx]
            hit = np.flatnonzero(cols >= 0)
            target_score = self.target_score[fixed]
            target_score[hit] = scores[hit, cols[hit]]
            nll[fx] = top + np.log(z) - target_score
            probs /= z[:, None]
            probs[hit, cols[hit]] -= 1.0
            probs /= n
            d_ent += probs.T @ qf

        data_loss = float(nll.mean())
        loss = data_loss
        if reg_weight > 0:
            # every occurrence of a row as a head, relation or target adds its penalty
            c = 3.0 * reg_weight / n
            self.ent_penalty[self.ent_idx], g_ent = _n3(ent_t)
            uses = np.bincount(head_col[head_col >= 0], minlength=len(self.ent_idx))
            uses += np.bincount(target_col[target_col >= 0], minlength=len(self.ent_idx))
            d_ent += (c * uses)[:, None] * g_ent
            if len(self.rel_idx):
                self.rel_penalty[self.rel_idx], g_rel = _n3(rel[self.rel_idx])
                slots = self.rel_slot[rels]
                uses = np.bincount(slots[slots >= 0], minlength=len(self.rel_idx))
                d_rel += (c * uses)[:, None] * g_rel
            penalty = self.ent_penalty[heads].sum() + self.ent_penalty[targets].sum()
            loss += reg_weight * float(penalty + self.rel_penalty[rels].sum()) / n
        return loss, data_loss, (d_ent, d_rel)


def _fit(
    model: EmbeddingModel,
    examples: np.ndarray,
    config: TrainConfig,
    epochs: int,
    step: _DenseStep | _RestrictedStep,
    valid_examples: np.ndarray | None = None,
) -> None:
    """Run adaptive-gradient epochs in place.

    ``step(model, sel, reg_weight)`` gives the loss, the data loss and the
    gradients of the rows in its ``ent_idx`` and ``rel_idx`` slots; only those
    rows move. Batch order is drawn from a stream keyed only by (seed, example
    count), so two fits over the same example set replay the same batches.
    """
    lr = config.learning_rate
    slots = [(model.ent, step.ent_idx), (model.rel, step.rel_idx)]
    acc = [np.zeros_like(param[idx]) for param, idx in slots]
    shuffle_rng = np.random.default_rng([config.seed, 1])
    model.history = []

    for epoch in range(epochs):
        perm = shuffle_rng.permutation(len(examples))
        epoch_nll = 0.0
        for start in range(0, len(examples), config.batch_size):
            sel = perm[start : start + config.batch_size]
            loss, data_loss, grads = step(model, sel, config.reg_weight)
            if not np.isfinite(loss):
                raise TrainingError(f"loss diverged (non-finite) at epoch {epoch}")
            epoch_nll += data_loss * len(sel)
            for (param, idx), accum, grad in zip(slots, acc, grads):
                if len(accum):
                    accum += grad * grad
                    param[idx] -= lr * grad / (np.sqrt(accum) + _ADAGRAD_EPS)
        for param, _ in slots:
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
    step = _DenseStep(trained, examples, config.batch_size)
    _fit(trained, examples, config, config.epochs, step, valid_examples)
    return trained


def _distinct_ids(kind: str, ids: Iterable[int], count: int) -> np.ndarray:
    """The sorted distinct ``ids``; :class:`DomainError` naming one outside [0, count)."""
    ids = np.asarray(sorted(set(ids)), dtype=np.int64)
    if len(ids) and (ids[0] < 0 or ids[-1] >= count):
        bad = ids[0] if ids[0] < 0 else ids[-1]
        raise DomainError(f"trainable {kind} id {bad} out of range [0, {count})")
    return ids


def _relation_rows(relations: Iterable[int], num_relations: int) -> np.ndarray:
    """The rows of the distinct ``relations``, then of their reciprocal twins."""
    ids = _distinct_ids("relation", relations, num_relations)
    return np.concatenate([ids, ids + num_relations])


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
    A full mask fits with the dense step (from a fresh model, that is a full
    retrain without the validation NLL); any frozen row selects the
    restricted step and its shared frozen context (see the module notes).
    """
    config.validate()
    ent_idx = _distinct_ids("entity", trainable_entities, model.num_entities)
    if ent_idx.size == 0:
        raise ConfigurationError("post-training requires a non-empty trainable entity set")
    relations = () if trainable_relations is None else trainable_relations
    rel_idx = _relation_rows(relations, model.num_relations)
    modified = tuple(modified_train)
    if not modified:
        raise DomainError("post-training requires a non-empty modified training set")
    if epochs is None:
        epochs = config.epochs
    if epochs < 0:
        raise ConfigurationError("epochs must be >= 0")

    tuned = model.clone()
    if reinit_trainable:
        fresh = init_model(kg, config)
        tuned.ent[ent_idx] = fresh.ent[ent_idx]
        if len(rel_idx):
            tuned.rel[rel_idx] = fresh.rel[rel_idx]
    if epochs == 0:
        return tuned
    examples = build_examples(modified, model.num_relations)
    if len(ent_idx) == model.num_entities and np.array_equal(rel_idx, np.arange(len(model.rel))):
        step = _DenseStep(tuned, examples, config.batch_size)
    else:
        step = _RestrictedStep(tuned, examples, ent_idx, rel_idx, kg.train, config.batch_size)
    _fit(tuned, examples, config, epochs, step)
    return tuned
