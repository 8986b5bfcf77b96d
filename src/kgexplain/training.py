"""Training loops: full training and masked post-training.

The loss is the full-softmax negative log-likelihood over all candidate
objects, with cubed-modulus (N3) regularization of the three embedding
factors of each example. Every training triple contributes two examples:
the object query (s, r) -> o and the reciprocal subject query
(o, r + R) -> s. Optimization is adaptive-gradient with per-coordinate
accumulators; accumulators always start at zero, so post-training does not
depend on the original optimizer trajectory.

Every fit's training set is a row array into one example table: the
graph's own example table (``kg.examples``, built once per graph), followed
by the examples of any triples the base training set lacks
(:class:`_TrainRows`). The retraining operators build that array directly;
:func:`post_train` maps a plain triple sequence onto it.

Every fit runs :func:`_fit` over one step (:class:`_Step`), on a copy of
the model (:meth:`EmbeddingModel.clone`). Every model is one buffer,
``model.table``, whose row blocks are ``ent`` and ``rel``; a fit updates its
trainable rows in place. A fit row is fixed when its head entity and
relation row are frozen and it lies in the base example table: its query
``q = h∘r`` and its scores against frozen entities cannot change during the
fit. Every other row moves. The step scores each distinct (head,
relation_row) query of its moving rows once per batch (the desk graph's 460
examples hold 150), over all entities, and forms each gradient per query in
key order, so the bits do not depend on the batch order. It groups a batch's
moving rows by query, with the bins of their head and relation scatter, per
batch, or once per fit when the batch holds every fit row, as in every
desk-graph fit. Full training, and a post-train whose mask covers every row,
fix no row. The step sums in another order than the per-example loss, within
a stated bound of it.

A post-train with a fixed row reads the frozen context. The model it
post-trains from owns its base (:class:`_BaseModel`, ``model._base``), which
holds what depends on that model and the graph's example table alone and
the frozen context of its latest mask. Each step scores its fixed rows
against the trainable entities only and merges the two parts into the
normaliser; one gradient is formed, over the table's trainable rows alone.
A one-batch post-train (every desk-graph post-train) groups its fixed rows
by query once per fit and sums their gradient per query in key order, so its
bits do not depend on the batch order either. The removal candidates of a
prediction share one mask, whichever algorithm proposed them, and each
``cli.cmd_explain`` task post-trains one prediction's algorithms from its
own clone of the model, so their context is computed once per prediction
and worker threads never replace each other's. Threads fitting from one
model read only the context words their mask was given, so nothing is
locked. A context fill scores ``_BLOCK`` rows at a time through one reused
block, whatever the batch size. Frozen rows stay
bit-identical; trainable rows differ from a per-example step with frozen
rows only by summation order (measured at most 1.1e-14 after 60 one-batch
desk-graph epochs and 4.4e-15 after one mid-graph epoch).
"""
from __future__ import annotations

import logging
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import ConfigurationError, DomainError, TrainingError
from .kg import KnowledgeGraph, Triple, build_examples
from .model import EmbeddingModel, TrainConfig, _cmul, _cmul_conj, _split, init_model

logger = logging.getLogger(__name__)

_ADAGRAD_EPS = 1e-10
# rows per score block outside a training step (the validation NLL, a context fill)
_BLOCK = 64
# a step's loss, data loss and the gradient of its slot's rows
_StepResult = tuple[float, float, np.ndarray]


def _scatter_rows(out: np.ndarray, index: np.ndarray | None, values: np.ndarray, flat=None) -> None:
    """out[index] += values with repeated indices, via flat bincount.

    ``index`` may have any shape; ``values`` has that shape plus one row of
    ``out``. The bins are built from ``index`` into ``flat`` (allocated when
    not given) or, without ``index``, ``flat`` holds them (:func:`_bins`).
    Each bin receives its values in the order they are laid out.
    """
    if index is not None:
        flat = _bins(index, out.shape[1], flat)
    out += np.bincount(flat.ravel(), weights=values.ravel(), minlength=out.size).reshape(out.shape)


def _bins(index: np.ndarray, n_cols: int, out=None) -> np.ndarray:
    """The flat bin, in ``n_cols``-wide rows ``index``, of each value :func:`_scatter_rows` adds."""
    out = np.empty(index.shape + (n_cols,), dtype=np.int64) if out is None else out
    return np.add(np.multiply(index[..., None], n_cols, out=out), np.arange(n_cols), out=out)


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


def _n3(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cubed-modulus (N3) penalty of each packed ``[re | im]`` row, and ``|x| * x``.

    The second value is the penalty's gradient divided by three.
    """
    d = x.shape[1] // 2
    modulus = np.sqrt(x[:, :d] ** 2 + x[:, d:] ** 2)
    return (modulus**3).sum(axis=1), np.concatenate([modulus, modulus], axis=1) * x


def _gather(table: np.ndarray, rows: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``table[rows]`` into ``out``; ids are range-checked when a step is built."""
    return table.take(rows, axis=0, out=out, mode="clip")


def _check_ids(model: EmbeddingModel, columns: np.ndarray) -> None:
    """:class:`DomainError` unless every (head, relation_row, target) id fits the model.

    ``columns`` holds the heads, relation rows and targets as its three rows.
    """
    bounds = np.array([[len(model.ent)], [len(model.rel)], [len(model.ent)]])
    if columns.size and (columns.min() < 0 or (columns.max(axis=1, keepdims=True) >= bounds).any()):
        raise DomainError("example row id out of range for the model")


def _fit_columns(model: EmbeddingModel, examples: np.ndarray, rows: np.ndarray | None) -> np.ndarray:
    """The contiguous ``(3, n)`` columns of the fit's example rows, range-checked.

    They hold each fit row's head, relation row and target as rows of
    ``model.table``. ``rows`` selects the fit's rows of ``examples`` in fit
    order; without it the fit is ``examples`` itself. A row outside the
    table or an id outside the model raises :class:`DomainError`.
    """
    if rows is not None:
        if len(rows) and (rows.min() < 0 or rows.max() >= len(examples)):
            raise DomainError("example row out of range for the fit's example table")
        examples = np.take(examples, rows, axis=0)
    columns = examples.T.copy()
    _check_ids(model, columns)
    columns[1] += len(model.ent)
    return columns


def batch_loss_and_grads(model: EmbeddingModel, batch: np.ndarray, reg_weight: float) -> _StepResult:
    """(Total loss, data-only negative log-likelihood, analytic gradient) of a batch.

    One :class:`_Step` with every row trainable over the whole batch, the
    step of :func:`train`, which leaves ``model`` as it is. The gradient is of
    ``model.table``, the rows of ``ent`` then those of ``rel``; the caller
    owns it.
    """
    ent_idx, rel_idx = np.arange(len(model.ent)), np.arange(len(model.rel))
    step = _Step(model, batch, ent_idx, rel_idx, None, None, len(batch))
    return step(model, np.arange(len(batch)), reg_weight)


def mean_nll(model: EmbeddingModel, examples: np.ndarray) -> float:
    """Data negative log-likelihood averaged over query rows, no regularization."""
    ent, rel = model.ent, model.rel
    block, values = np.empty((_BLOCK, len(ent))), np.empty(len(examples))
    for start in range(0, len(examples), _BLOCK):
        batch = examples[start : start + _BLOCK]
        scores = block[: len(batch)]
        np.matmul(_cmul(ent[batch[:, 0]], rel[batch[:, 1]]), ent.T, out=scores)
        target = scores[np.arange(len(batch)), batch[:, 2]]
        shift = scores.max(axis=1)
        scores -= shift[:, None]
        log_z = np.log(np.exp(scores, out=scores).sum(axis=1)) + shift
        np.subtract(log_z, target, out=values[start : start + len(batch)])
    # summed 4,096 rows at a time: the order the loss curve's bits rest on
    total = sum(float(values[i : i + 4096].sum()) for i in range(0, len(values), 4096))
    return total / len(examples)


def _query_keys(model: EmbeddingModel, examples: np.ndarray) -> np.ndarray:
    """One integer per (head, relation_row) query of each example row."""
    return examples[:, 0] * len(model.rel) + examples[:, 1]


def _query_rows(model: EmbeddingModel, keys: np.ndarray) -> np.ndarray:
    """The query row ``h∘r`` of each (head, relation_row) key, ``_BLOCK`` keys at a time."""
    heads, rels = np.divmod(keys, len(model.rel))
    queries = np.empty((len(keys), model.ent.shape[1]))
    for start in range(0, len(keys), _BLOCK):
        part = slice(start, start + _BLOCK)
        queries[part] = _cmul(model.ent[heads[part]], model.rel[rels[part]])
    return queries


def _frozen_partials(
    model: EmbeddingModel,
    queries: np.ndarray,
    rows: np.ndarray,
    ent_trainable: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Max and shifted exp-sum of the scores of ``queries[rows]`` over the frozen columns.

    Scores ``_BLOCK`` rows at a time into one block, so a fill holds one
    ``(_BLOCK, E)`` block of scores whatever its row count.
    """
    maxes, sums = np.empty((2, len(rows)))
    block = np.empty((_BLOCK, len(model.ent)))
    for start in range(0, len(rows), _BLOCK):
        part = slice(start, start + _BLOCK)
        scores = block[: len(rows[part])]
        np.matmul(queries[rows[part]], model.ent.T, out=scores)
        scores[:, ent_trainable] = -np.inf
        maxes[part] = scores.max(axis=1)
        scores -= maxes[part, None]
        sums[part] = np.exp(scores, out=scores).sum(axis=1)
    return maxes, sums


class _BaseModel:
    """One base model and its graph's example table, and the frozen context of one mask over them.

    Made when the base is: a copy of the embedding tables, which identifies
    the base, the graph's example table (``kg.examples``), the query row
    ``q = h∘r`` of every distinct base query with each base example's index
    into them (``query_of``), and the N3 penalty of every table row.

    The frozen context is that of the latest mask, kept with it as one pair,
    ``latest`` (:meth:`set_mask`). A query is fixed when neither its head
    entity nor its relation row is trainable: its scores against every frozen
    entity never change. For each fixed base query the context keeps their
    max and the sum of their exps shifted by it, and resolves every base
    example into four words: its query row, those two and, when its row is
    fixed and its target frozen, its target score ``q·e_o`` (zeros for a
    moving row). A fit's rows past the base table move, so what a fit reads
    does not depend on earlier fits.
    """

    def __init__(self, model: EmbeddingModel, kg: KnowledgeGraph):
        self.table = model.table.copy()
        self.examples = kg.examples
        _check_ids(model, self.examples.T)
        self.keys, self.query_of = np.unique(_query_keys(model, self.examples), return_inverse=True)
        self.queries = _query_rows(model, self.keys)
        self.penalty = _n3(self.table)[0]
        self.latest: tuple[tuple[bytes, bytes] | None, np.ndarray | None] = (None, None)

    def serves(self, model: EmbeddingModel, kg: KnowledgeGraph) -> bool:
        """Whether ``model`` holds these tables, bit for bit, and ``kg`` this example table."""
        table = model.table.view(np.int64)
        return kg.examples is self.examples and np.array_equal(table, self.table.view(np.int64))

    def set_mask(
        self, model: EmbeddingModel, ent_trainable: np.ndarray, rel_trainable: np.ndarray
    ) -> np.ndarray:
        """This mask's context words, made unless it is the latest's; ``model`` is the base."""
        mask = (ent_trainable.tobytes(), rel_trainable.tobytes())
        latest, words = self.latest
        if mask == latest:
            return words
        heads, rels = np.divmod(self.keys, len(model.rel))
        fixed = np.flatnonzero(~(ent_trainable[heads] | rel_trainable[rels]))
        # indexed like the query rows; the entries of moving queries stay unread
        maxes, sums = np.zeros((2, len(self.keys)))
        maxes[fixed], sums[fixed] = _frozen_partials(model, self.queries, fixed, ent_trainable)
        query_of = self.query_of
        heads, rels, targets = self.examples.T
        moving = ent_trainable[heads] | rel_trainable[rels]
        words = np.zeros((len(query_of), 4), dtype=np.int64)
        words[:, 0] = np.where(moving, 0, query_of)
        partials = words[:, 1:].view(np.float64)
        partials[:, 0], partials[:, 1] = maxes[query_of], sums[query_of]
        # a fixed row's score against its frozen target never changes either
        out = np.flatnonzero(~(moving | ent_trainable[targets]))
        for start in range(0, len(out), _BLOCK):
            part = out[start : start + _BLOCK]
            q, e = self.queries[query_of[part]], model.ent[targets[part]]
            partials[part, 2] = np.einsum("ij,ij->i", q, e)
        self.latest = mask, words
        return words


def _frozen_context(
    model: EmbeddingModel, kg: KnowledgeGraph, ent_trainable: np.ndarray, rel_trainable: np.ndarray
) -> tuple[_BaseModel, np.ndarray]:
    """``model``'s base over ``kg``'s example table, and its context words for this mask.

    The base is the model's own (``model._base``); one made from other
    embeddings or another example table is replaced whole.
    """
    base = model._base
    if base is None or not base.serves(model, kg):
        base = model._base = _BaseModel(model, kg)
    return base, base.set_mask(model, ent_trainable, rel_trainable)


class _Step:
    """The one training step: it computes only what the trainable rows need.

    A fit row is moving when its head entity or relation row is trainable, or
    when it lies past the base example table, which the frozen context does
    not cover; every other row is fixed. Per example, resolved once per fit:
    ``ids``, its head, relation row and target as rows of ``model.table``,
    and, in a fit with a fixed row, ``moving_at``, its index among the fit's
    moving rows, -1 when fixed, and ``resolved``, its four words of the
    base (:class:`_BaseModel`) of ``source``. Per moving row, once per fit:
    ``query_of``, its query (head, relation row) as an index into the fit's
    queries in key order, whose rows of ``model.table`` are ``query_ids``.

    The step's ``slot`` is the trainable rows of ``model.table``, ``idx``: the
    trainable entities, then the trainable relation rows. Its gradient
    workspace holds one row per trainable row and a spare last row, the
    ``place`` of every frozen row. A batch's moving rows are grouped by query
    (:meth:`_group`) and each query is scored once ("1-N scoring", as in
    ConvE): its examples share its score row and normaliser. Its
    scores-gradient row is ``count · softmax / n``, less ``1/n`` at each of
    its examples' targets, once per use; from it the entity gradient is
    written for the trainable columns alone, and the gradients of the
    query's head and relation are scattered to their places. The fixed rows
    run in groups (:meth:`_groups`), each scored against the trainable
    columns only, its normaliser completed with the frozen partials; each
    fixed row of a batch is its own group. A batch that holds every fit row
    reads one grouping made once per fit (``whole``): its moving rows by
    query in fit order, its distinct fixed queries in key order, and the N3
    uses; with no fixed row, one ``np.take`` puts the moving rows'
    per-example values back into batch order. Every gradient is formed per
    query in key order, so a one-batch fit's bits do not depend on the batch
    order. N3 comes last.

    Per-query complex values live in split ``(2, queries, d)`` workspaces,
    real rows then imaginary rows, gathered in one ``np.take`` through the
    ``(2 * rows, d)`` view of ``model.table`` (:func:`_half_ids`); ``q`` goes
    into the matrix products packed, ``(queries, 2d)``, and ``dq`` comes out
    of them packed. A step costs O(n |T| d + n_moving E d) instead of
    O(n E d); its temporaries live in workspaces allocated once, for the
    fit's longest batch, ``batch_size`` of its rows or all of them. The
    returned gradient is the slot's workspace, overwritten by the next call.

    With every row trainable (``full``) no row is fixed: the slot rows and
    score columns are slices, no frozen context is read, and N3 comes before
    the scatter, the order :func:`train`'s bits rest on. The result is within
    ``rtol=1e-12, atol=1e-15`` of the per-example expression of the loss.
    ``rows`` selects the fit's rows of ``examples``, which starts with
    ``kg.examples``; without them the fit is ``examples``, every row
    trainable, and ``kg`` is not read. ``source`` defaults to ``model``;
    ``ent_idx`` and ``rel_idx`` are sorted.
    """

    def __init__(
        self,
        model: EmbeddingModel,
        examples: np.ndarray,
        ent_idx: np.ndarray,
        rel_idx: np.ndarray,
        kg: KnowledgeGraph | None,
        rows: np.ndarray | None,
        batch_size: int,
        source: EmbeddingModel | None = None,
    ) -> None:
        self.ids = ids = _fit_columns(model, examples, rows)
        entities, width = model.ent.shape
        self.ent_idx, self.table = ent_idx, model.table
        slots = len(ent_idx) + len(rel_idx)
        self.full = slots == len(self.table)
        # the trainable rows of the table, entities first, and each row's place among
        # them; a frozen row's place is the gradient workspace's spare last row
        self.idx = slice(None) if self.full else np.concatenate([ent_idx, rel_idx + entities])
        self.cols = slice(None) if self.full else ent_idx
        self.place = place = np.full(len(self.table), slots, dtype=np.int64)
        place[self.idx] = np.arange(slots)
        trainable = place < slots
        self.moving = trainable[ids[0]] | trainable[ids[1]]
        if rows is not None:
            self.moving |= rows >= len(kg.examples)
        n, fixed = min(batch_size, ids.shape[1]), not self.moving.all()
        self.moving_at = np.full(ids.shape[1], -1, dtype=np.int64) if fixed else None
        if fixed:
            moving = np.flatnonzero(self.moving)
            self.moving_at[moving] = np.arange(len(moving))
            ent_trainable, rel_trainable = np.split(trainable, [entities])
            base, words = _frozen_context(source or model, kg, ent_trainable, rel_trainable)
            self.queries, self.penalty = base.queries, base.penalty.copy()
            # rows past the base set are moving; clipped here, their words stay unread
            self.resolved = words.take(rows, axis=0, mode="clip")
            self.ent_t, self.fixed_grad = np.empty((2, len(ent_idx), width))
            self.vectors = np.empty((3, n))
            self.fixed_q, self.fixed_scores = np.empty(n * width), np.empty(n * len(ent_idx))
        else:
            # the N3 penalty of every row; the trainable rows' entries are refreshed each step
            self.penalty = _n3(self.table)[0]
        self.grad = np.empty((slots + 1, width))
        self.slot = (self.table, self.idx, self.grad[:-1])
        self.batch = np.empty(3 * n, dtype=np.int64)
        self.whole: tuple | None = None

        # the moving rows' state, built after the frozen context, so that a fill's blocks
        # and these are not held at once
        columns = ids[:, moving] if fixed else ids
        self.targets, table_rows = columns[2], len(self.table)
        keys, self.query_of = np.unique(columns[0] * table_rows + columns[1], return_inverse=True)
        self.query_ids = np.stack(np.divmod(keys, table_rows))
        # each fit query's index among its batch's queries, rewritten by every grouping
        self.query_at = np.empty(len(keys), dtype=np.int64)
        n = min(n, len(self.targets))
        self.per_example = np.empty((4, n), dtype=np.int64)
        # flat buffers: a batch of m queries uses the first m * width values of each
        # block, so its split halves and adjacent blocks are contiguous whatever m is
        self.half_ids = np.empty(4 * n, dtype=np.int64)
        self.flat = np.empty(2 * n * width, dtype=np.int64)
        self.work, self.half = np.empty(6 * n * width), np.empty(n * width // 2)
        self.scores = np.empty((n, entities))
        self.target, self.per_row, self.shift, self.z, self.scale = np.empty((5, n))

    def _group(self, sel: np.ndarray) -> tuple:
        """The moving rows ``sel`` (indices among the fit's moving rows) grouped by query.

        Per example, in ``sel``'s order: its query's index among the batch's
        queries and its target's cell in their flat score rows. Per query of
        the batch, in key order: its example count, the half-row ids of its
        head and relation rows (:func:`_half_ids`), and the bins of their
        gradients in the halves of the gradient workspace (:func:`_bins`).
        All but the counts are views of the workspaces, which the next
        grouping overwrites.
        """
        k, entities, width = len(sel), self.scores.shape[1], self.table.shape[1]
        targets, fit_query, of_query, at = self.per_example[:, :k]
        self.targets.take(sel, out=targets, mode="clip")
        self.query_of.take(sel, out=fit_query, mode="clip")
        counts = np.bincount(fit_query, minlength=len(self.query_at))
        held = counts.nonzero()[0]
        m = len(held)
        self.query_at[held] = np.arange(m)
        _gather(self.query_at, fit_query, of_query)
        np.add(np.multiply(of_query, entities, out=at), targets, out=at)
        query_ids = self.query_ids.take(held, axis=1)
        # the half-row ids of the rows' places make the bins, then those of the rows replace them
        halves = self.half_ids[: 4 * m].reshape(2, 2, m)
        flat = self.flat[: 2 * m * width].reshape(2, 2, m, width // 2)
        bins = _bins(_half_ids(self.place.take(query_ids), halves), width // 2, flat)
        return of_query, at, counts.take(held), _half_ids(query_ids, halves), bins

    def _groups(self, at: np.ndarray, by_query: bool) -> tuple | None:
        """The fixed fit rows ``at`` in groups: one per distinct query if ``by_query``, else per row.

        Per group, in key order when ``by_query``: its query row's index, its
        rows' count, and its frozen max and exp-sum; then the flat cells of its
        rows' trainable targets in the ``(|T|, groups)`` scores, with their
        hits, and the sum of the rows' frozen target scores. None without rows.
        """
        if not len(at):
            return None
        words = self.resolved.take(at, axis=0)
        cols, partials = self.place.take(self.ids[2].take(at)), words[:, 1:].view(np.float64)
        hit = cols < len(self.ent_idx)
        if by_query:
            _, first, of, count = np.unique(
                words[:, 0], return_index=True, return_inverse=True, return_counts=True
            )
            cells, hits = np.unique(cols[hit] * len(count) + of[hit], return_counts=True)
        else:
            first, count = slice(None), np.ones(len(at))
            cells, hits = cols[hit] * len(at) + hit.nonzero()[0], np.ones(np.count_nonzero(hit))
        maxes, sums = partials[first, :2].T
        return words[first, 0], count, maxes, sums, cells, hits, np.add.reduce(partials[:, 2])

    def _add_n3(self, grad: np.ndarray, uses: np.ndarray, reg_weight: float, n: int) -> float:
        """Add the trainable rows' N3 gradient to ``grad``; return the batch's N3 loss term.

        Every occurrence of a row as a head, relation or target adds its penalty.
        """
        self.penalty[self.idx], g = _n3(self.table[self.idx])
        grad += np.multiply(g, (3.0 * reg_weight / n * uses[self.idx])[:, None], out=g)
        return reg_weight * float(self.penalty @ uses) / n

    def __call__(self, model: EmbeddingModel, sel: np.ndarray, reg_weight: float) -> _StepResult:
        """Loss, data loss and the trainable rows' gradient (a workspace) over example rows ``sel``.

        A ``sel`` as long as the fit holds each fit row once, as :func:`_fit` draws it.
        """
        n, width = len(sel), self.table.shape[1]
        if n < len(self.moving):
            ids = self.ids.take(sel, axis=1, out=self.batch[: 3 * n].reshape(3, n), mode="clip")
            uses = np.bincount(ids.ravel(), minlength=len(self.table))
            mv, groups, order = sel, None, None
            if self.moving_at is not None:
                at = self.moving_at.take(sel)
                mv, groups = at[at >= 0], self._groups(sel[at < 0], False)
            moving = self._group(mv) if len(mv) else None
        else:
            if self.whole is None:
                k = len(self.targets)
                moving = tuple(a.copy() for a in self._group(np.arange(k))) if k else None
                fixed = self._groups(np.flatnonzero(~self.moving), True)
                self.whole = moving, fixed, np.bincount(self.ids.ravel(), minlength=len(self.table))
            moving, groups, uses = self.whole
            # with no fixed row the per-example values go back into batch order; beside
            # fixed rows they stay in fit order
            order = sel if groups is None else None
        grad, trainable = self.grad[:-1], len(self.ent_idx)
        d_ent = grad[:trainable]
        self.grad[trainable:].fill(0.0)

        nll = penalty = 0.0
        if moving is not None:
            # per example: its query's index among the batch's queries and its target's entry
            # in their flat score rows; per query: its count, half-row ids and scatter bins
            of_query, at, counts, halves, bins = moving
            k, m = len(at), len(counts)
            blocks = self.work[: 6 * m * width].reshape(6, m * width)
            packed, q = blocks[0].reshape(m, width), blocks[3].reshape(2, m, -1)
            hr, dhr = blocks[1:3].reshape(2, 2, m, -1), blocks[4:].reshape(2, 2, m, -1)
            h, r = _gather(_halves(self.table), halves, hr)
            half = self.half[: m * width // 2].reshape(m, -1)
            np.copyto(_split(packed), _cmul(h, r, out=q, tmp=half))

            # softmax in place, one row per query; the target scores are read before the shift
            scores = np.matmul(packed, model.ent.T, out=self.scores[:m])
            flat_scores = scores.reshape(-1)
            target = _gather(flat_scores, at, self.target[:k])
            shift = np.maximum.reduce(scores, axis=1, out=self.shift[:m])
            scores -= shift[:, None]
            z = np.add.reduce(np.exp(scores, out=scores), axis=1, out=self.z[:m])
            # each query's log-normaliser shift + log z, read by each of its examples
            log_z = np.add(shift, np.log(z, out=self.scale[:m]), out=shift)
            target -= _gather(log_z, of_query, self.per_row[:k])
            if order is not None:
                target = _gather(target, order, self.per_row[:k])

            # one pass normalises each row, weights it by its query's count and divides by n;
            # then each example takes 1/n off its target's entry, once per use (np.put would
            # keep one write of an example the batch holds twice)
            scale = np.divide(counts, z, out=self.scale[:m])
            scale /= n
            scores *= scale[:, None]
            np.subtract.at(flat_scores, at, 1.0 / n)
            # packed q stays for d_ent; the product lands in dhr's rows, copied out first
            dq = q  # q's split rows are spent once packed; dq takes their place
            np.copyto(dq, _split(np.matmul(scores, model.ent, out=dhr[0].reshape(m, width))))
            _cmul_conj(dq, r, out=dhr[0], tmp=half)
            _cmul_conj(dq, h, out=dhr[1], tmp=half)
            nll -= np.add.reduce(target)
            np.matmul(scores[:, self.cols].T, packed, out=d_ent)
            if reg_weight > 0 and self.full:
                penalty = self._add_n3(grad, uses, reg_weight, n)
            _scatter_rows(_halves(self.grad), None, dhr, bins)
        else:
            d_ent.fill(0.0)
        if groups is not None:
            query_rows, count, frozen_max, frozen_sum, cells, hits, frozen_targets = groups
            m = len(count)
            ent_t = model.ent.take(self.ent_idx, axis=0, out=self.ent_t)
            qf = _gather(self.queries, query_rows, self.fixed_q[: m * width].reshape(m, -1))
            scores = self.fixed_scores[: m * trainable].reshape(trainable, m)
            np.matmul(ent_t, qf.T, out=scores)
            top, z, value = self.vectors[:, :m]
            np.maximum(frozen_max, np.maximum.reduce(scores, axis=0, out=top), out=top)
            nll -= hits @ scores.take(cells) + frozen_targets
            probs = np.exp(np.subtract(scores, top, out=scores), out=scores)
            np.exp(np.subtract(frozen_max, top, out=z), out=z)
            z *= frozen_sum
            z += np.add.reduce(probs, axis=0, out=value)
            nll += count @ np.add(top, np.log(z, out=value), out=value)
            probs /= np.divide(z, count, out=z)
            probs.reshape(-1)[cells] -= hits
            probs /= n
            d_ent += np.matmul(probs, qf, out=self.fixed_grad)

        data_loss = float(nll / n)
        if reg_weight > 0 and not self.full:
            penalty = self._add_n3(grad, uses, reg_weight, n)
        return data_loss + penalty, data_loss, grad


def _fit(
    model: EmbeddingModel,
    examples: np.ndarray,
    config: TrainConfig,
    step: _Step,
    valid_examples: np.ndarray | None = None,
) -> None:
    """Run ``config.epochs`` adaptive-gradient epochs of ``step`` in place.

    ``step(model, sel, reg_weight)`` gives the loss and the data loss, and
    writes the gradient of its ``slot``, a (table, rows, gradient) triple:
    only those ``rows`` of ``model.table`` move, through one accumulator.
    Batch order is drawn from a stream keyed only by (seed, example count),
    so two fits over the same example set replay the same batches.
    """
    lr = config.learning_rate
    table, rows, grad = step.slot
    accum = np.zeros_like(grad)
    shuffle_rng = np.random.default_rng([config.seed, 1])
    model.history = []

    for epoch in range(config.epochs):
        perm = shuffle_rng.permutation(len(examples))
        epoch_nll = 0.0
        for start in range(0, len(examples), config.batch_size):
            sel = perm[start : start + config.batch_size]
            loss, data_loss, _ = step(model, sel, config.reg_weight)
            if not np.isfinite(loss):
                raise TrainingError(f"loss diverged (non-finite) at epoch {epoch}")
            epoch_nll += data_loss * len(sel)
            accum += grad * grad
            table[rows] -= lr * grad / (np.sqrt(accum) + _ADAGRAD_EPS)
        if not np.isfinite(table).all():
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
    ent_idx, rel_idx = np.arange(len(trained.ent)), np.arange(len(trained.rel))
    step = _Step(trained, examples, ent_idx, rel_idx, None, None, config.batch_size)
    _fit(trained, examples, config, step, valid_examples)
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


class _TrainRows(NamedTuple):
    """A fit's training set as rows of one example table.

    The table is ``build_examples(kg.train)`` followed by the example rows of
    ``added``, triples the base training set lacks; ``rows`` lists the fit's
    rows of it in fit order.
    """

    rows: np.ndarray
    added: tuple[Triple, ...] = ()


def _pair_rows(positions: np.ndarray) -> np.ndarray:
    """The example rows ``2i`` and ``2i + 1`` of each triple position ``i``, in order."""
    return (2 * positions[:, None] + np.arange(2)).ravel()


def _train_rows(kg: KnowledgeGraph, triples: Iterable[Triple]) -> _TrainRows:
    """A plain triple sequence as rows, in its order, through ``kg.train_index``.

    A triple of the base training set maps to its two rows; any other is
    appended once to the table, in order of first appearance.
    """
    index, base = kg.train_index, len(kg.train)
    added: dict[Triple, int] = {}
    positions = np.fromiter(
        (index[t] if t in index else base + added.setdefault(t, len(added)) for t in triples),
        dtype=np.int64,
    )
    return _TrainRows(_pair_rows(positions), tuple(added))


def post_train(
    model: EmbeddingModel,
    kg: KnowledgeGraph,
    modified_train: Sequence[Triple] | _TrainRows,
    trainable_entities: Iterable[int],
    config: TrainConfig,
    trainable_relations: Iterable[int] | None = None,
    reinit_trainable: bool = False,
) -> EmbeddingModel:
    """Retrain only the designated rows on a modified triple set.

    Embeddings outside ``trainable_entities`` (and, when given, outside
    ``trainable_relations`` and their reciprocal rows) stay bit-identical.
    ``reinit_trainable`` restores trainable rows to their seeded initial
    values before fitting, so a full mask plus the original training set
    reproduces :func:`train` exactly. The fit runs ``config.epochs`` epochs.
    ``modified_train`` is a triple sequence, mapped to rows of the training
    set's example table through ``kg.train_index``, or the operators' rows of
    that table directly. Every mask fits with the one step (see the module
    notes): a full mask fixes no row (from a fresh model, that is a full
    retrain without the validation NLL), and a fixed row reads the frozen
    context of the base that ``model`` owns. A model whose relation count is
    not the graph's is a :class:`DomainError`.
    """
    config.validate()
    if model.num_relations != kg.num_relations:
        raise DomainError(f"model has {model.num_relations} relations, graph {kg.num_relations}")
    ent_idx = _distinct_ids("entity", trainable_entities, model.num_entities)
    if ent_idx.size == 0:
        raise ConfigurationError("post-training requires a non-empty trainable entity set")
    relations = () if trainable_relations is None else trainable_relations
    rel_idx = _relation_rows(relations, model.num_relations)
    fit = modified_train
    if not isinstance(fit, _TrainRows):
        fit = _train_rows(kg, modified_train)
    if not len(fit.rows):
        raise DomainError("post-training requires a non-empty modified training set")

    tuned = model.clone()
    if reinit_trainable:
        fresh = init_model(kg, config)
        tuned.ent[ent_idx] = fresh.ent[ent_idx]
        if len(rel_idx):
            tuned.rel[rel_idx] = fresh.rel[rel_idx]
    examples = kg.examples
    if fit.added:
        examples = np.concatenate([examples, build_examples(fit.added, kg.num_relations)])
    step = _Step(tuned, examples, ent_idx, rel_idx, kg, fit.rows, config.batch_size, model)
    _fit(tuned, fit.rows, config, step)
    return tuned
