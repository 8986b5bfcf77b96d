"""Complex-bilinear embedding scorer with filtered ranking.

Embeddings are complex vectors packed as real rows ``[re | im]``: one
``(rows, 2 * dimension)`` array per table. With that layout the score
Re<e_s, w_r, conj(e_o)> is one complex product followed by a plain real dot
product, so scoring every entity is one matrix-vector product. Checkpoints
still store the four real halves, the layout every checkpoint has had.

Relation ``r`` owns a reciprocal twin row ``r + num_relations``, which
training uses to learn subject queries as object queries under the twin.
Ranking follows one protocol: filtered object completion, where candidates
already forming graph triples are excluded and only strictly greater
scores worsen the rank (optimistic ties).
"""
from __future__ import annotations

import hashlib
import json
import zipfile
from dataclasses import asdict, dataclass, field, replace
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, DomainError
from .kg import KnowledgeGraph, Triple, _atomic_open


@dataclass
class TrainConfig:
    """Hyperparameters for training the scorer.

    Defaults target desk-scale graphs (under ~10k triples); override for
    anything larger. The seed fixes every stochastic choice: initialization
    and batch shuffling draw from independent streams derived from it.
    """

    dimension: int = 32
    epochs: int = 100
    learning_rate: float = 0.1
    reg_weight: float = 1e-3
    batch_size: int = 512
    seed: int = 0

    def validate(self) -> None:
        if not 1 <= 2 * self.dimension <= np.iinfo(np.int64).max:  # the packed row width
            raise ConfigurationError("dimension must be >= 1, and twice it must fit in an int64")
        if self.epochs < 1:
            raise ConfigurationError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")
        if self.seed < 0:
            raise ConfigurationError("seed must be >= 0")
        if self.learning_rate < 0 or not np.isfinite(self.learning_rate):
            raise ConfigurationError("learning_rate must be finite and >= 0")
        if self.reg_weight < 0 or not np.isfinite(self.reg_weight):
            raise ConfigurationError("reg_weight must be finite and >= 0")


@dataclass
class EmbeddingModel:
    """Entity and relation embeddings plus bookkeeping.

    ``ent`` and ``rel`` are packed ``[re | im]`` tables; the relation table
    holds ``2 * num_relations`` rows, the second half being the reciprocal
    twins used for subject completion. Every model holds them as the two row
    blocks of one buffer, ``table``, copied from the given arrays when it is
    made; ``ent`` and ``rel`` are views of ``table`` and are not rebound.
    ``ent_re``, ``ent_im``, ``rel_re`` and ``rel_im`` are write-through views
    of the halves. ``history`` carries the per-epoch train/validation
    negative log-likelihood of the last fit. ``_base`` is the base that its
    post-trains share (``training._BaseModel``); a clone starts without it.
    """

    ent: np.ndarray
    rel: np.ndarray
    dimension: int
    history: list[dict] = field(default_factory=list)
    table: np.ndarray = field(init=False, repr=False, compare=False)
    _base: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.table = np.concatenate([self.ent, self.rel])
        self.ent, self.rel = self.table[: len(self.ent)], self.table[len(self.ent) :]

    @property
    def ent_re(self) -> np.ndarray:
        return self.ent[:, : self.dimension]

    @property
    def ent_im(self) -> np.ndarray:
        return self.ent[:, self.dimension :]

    @property
    def rel_re(self) -> np.ndarray:
        return self.rel[:, : self.dimension]

    @property
    def rel_im(self) -> np.ndarray:
        return self.rel[:, self.dimension :]

    @property
    def num_entities(self) -> int:
        return self.ent.shape[0]

    @property
    def num_relations(self) -> int:
        return self.rel.shape[0] // 2

    def clone(self) -> "EmbeddingModel":
        """Value-independent copy, with a ``table`` of its own."""
        return replace(self, history=list(self.history))


def _split(x: np.ndarray) -> np.ndarray:
    """The ``(2, rows, d)`` view of packed ``[re | im]`` rows: real block, imaginary block."""
    return x.reshape(len(x), 2, -1).transpose(1, 0, 2)


def _cmul(x: np.ndarray, y: np.ndarray, out=None, tmp=None, conj: bool = False) -> np.ndarray:
    """Complex product of packed ``[re | im]`` rows (last axis); ``x * conj(y)`` with ``conj``.

    With ``out`` it runs the same operations in place on split operands:
    ``x``, ``y`` and ``out`` are ``(2, rows, d)`` arrays holding the real
    rows, then the imaginary rows (the layout of :func:`_split`), and
    ``tmp``, one ``(rows, d)`` block, takes the one intermediate (allocated
    when not given). On contiguous blocks every ufunc reads unit-stride
    operands, which numpy runs faster than the strided halves of packed
    rows; the values are the same. ``out`` must not overlap the operands.
    """
    first, second = (np.add, np.subtract) if conj else (np.subtract, np.add)
    if out is None:
        d = x.shape[-1] // 2
        a, b, c, e = x[..., :d], x[..., d:], y[..., :d], y[..., d:]
        return np.concatenate([first(a * c, b * e), second(b * c, a * e)], axis=-1)
    (a, b), (c, e), (re, im) = x, y, out
    tmp = np.empty_like(re) if tmp is None else tmp
    first(np.multiply(a, c, out=re), np.multiply(b, e, out=tmp), out=re)
    second(np.multiply(b, c, out=im), np.multiply(a, e, out=tmp), out=im)
    return out


def _cmul_conj(x: np.ndarray, y: np.ndarray, out=None, tmp=None) -> np.ndarray:
    """Complex product ``x * conj(y)``, packed or (with ``out``) split, as :func:`_cmul`."""
    return _cmul(x, y, out, tmp, conj=True)


def init_model(kg: KnowledgeGraph, config: TrainConfig) -> EmbeddingModel:
    """Draw fresh embeddings, i.i.d. zero-mean with scale 1/sqrt(dimension).

    Deterministic under a fixed seed.
    """
    config.validate()
    if kg.num_entities == 0 or kg.num_relations == 0:
        raise ConfigurationError("cannot initialize a model over empty dictionaries")
    d = config.dimension
    rng = np.random.default_rng([config.seed, 0])
    scale = 1.0 / np.sqrt(d)
    ent = rng.standard_normal((kg.num_entities, 2 * d)) * scale
    rel = rng.standard_normal((2 * kg.num_relations, 2 * d)) * scale
    return EmbeddingModel(ent=ent, rel=rel, dimension=d)


def _check_ids(model: EmbeddingModel, triple: Triple) -> None:
    if not (0 <= triple.subject < model.num_entities and 0 <= triple.object < model.num_entities):
        raise DomainError(f"entity id out of range in {triple}")
    if not 0 <= triple.relation < model.num_relations:
        raise DomainError(f"relation id out of range in {triple}")


def score(model: EmbeddingModel, triple: Triple) -> float:
    """Real part of the trilinear product <e_s, w_r, conj(e_o)>."""
    _check_ids(model, triple)
    s, r, o = triple
    return float(_cmul(model.ent[s], model.rel[r]) @ model.ent[o])


def score_objects(model: EmbeddingModel, head: int, relation_row: int) -> np.ndarray:
    """Scores of (head, relation_row, e) for every entity e, as one vector.

    ``relation_row`` indexes the doubled relation table, so reciprocal rows
    serve subject completion.
    """
    return model.ent @ _cmul(model.ent[head], model.rel[relation_row])


def rank(model: EmbeddingModel, triple: Triple, kg: KnowledgeGraph) -> int:
    """Filtered rank of the triple's object completion.

    Candidates forming graph triples (any split) are excluded, and ties are
    optimistic: only strictly greater scores count against the target.
    """
    _check_ids(model, triple)
    known = kg.known_objects.get((triple.subject, triple.relation), frozenset())
    scores = score_objects(model, triple.subject, triple.relation)
    mask = np.ones(model.num_entities, dtype=bool)
    mask[list(known)] = False
    mask[triple.object] = False
    return 1 + int(np.count_nonzero(scores[mask] > scores[triple.object]))


def grad_score_wrt_subject(model: EmbeddingModel, triple: Triple) -> np.ndarray:
    """Analytic gradient of the score w.r.t. the subject embedding.

    Returned as 2*dimension reals: first the real coordinates, then the
    imaginary ones. Equals the object times the conjugated relation.
    """
    _check_ids(model, triple)
    return _cmul_conj(model.ent[triple.object], model.rel[triple.relation])


def kg_fingerprint(kg: KnowledgeGraph) -> str:
    """Stable hash of dictionaries and splits, used to pair checkpoints."""
    h = hashlib.sha256()
    for label in kg.entity_labels:
        h.update(label.encode("utf-8") + b"\x1f")
    h.update(b"\x1e")
    for label in kg.relation_labels:
        h.update(label.encode("utf-8") + b"\x1f")
    for split in (kg.train, kg.valid, kg.test):
        h.update(b"\x1e")
        # the split's ids as one int64 array: the bytes of its triples in order
        ids = np.fromiter(chain.from_iterable(split), dtype=np.int64, count=3 * len(split))
        h.update(ids.tobytes())
    return h.hexdigest()


def save_checkpoint(
    model: EmbeddingModel, kg: KnowledgeGraph, path: str | Path, config: TrainConfig
) -> None:
    """Write embeddings plus metadata (graph hash, dimension, seed) to one file.

    The packed tables are stored as their four real halves (``ent_re``,
    ``ent_im``, ``rel_re``, ``rel_im``), the layout every checkpoint has had.
    ``config``, the training configuration that produced the embeddings, is
    stored whole under ``train_config``, so that a later command can refuse
    to pair the checkpoint with another one; the stored ``seed`` is the
    config's.
    """
    meta = {
        "kg_hash": kg_fingerprint(kg),
        "dimension": model.dimension,
        "seed": config.seed,
        "train_config": asdict(config),
    }
    with _atomic_open(path, binary=True) as fh:
        np.savez(
            fh,
            ent_re=model.ent_re,
            ent_im=model.ent_im,
            rel_re=model.rel_re,
            rel_im=model.rel_im,
            meta=np.array(json.dumps(meta, sort_keys=True)),
        )


def _read_checkpoint(path: str | Path, tables: bool = True) -> tuple[EmbeddingModel | None, dict]:
    """The model (``None`` without ``tables``) and the metadata of a checkpoint file.

    A file that is missing, not an ``.npz`` archive, or lacks the checkpoint
    arrays and metadata (its ``train_config`` object included) raises
    :class:`ConfigurationError` naming the file.
    """
    try:
        with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as data:
            meta = json.loads(str(data["meta"]))
            model = None
            if tables:
                model = EmbeddingModel(
                    ent=np.concatenate([data["ent_re"], data["ent_im"]], axis=1),
                    rel=np.concatenate([data["rel_re"], data["rel_im"]], axis=1),
                    dimension=int(meta["dimension"]),
                )
            if not isinstance(meta["kg_hash"], str):
                raise ValueError("the graph hash is not a string")
            if not isinstance(meta.get("train_config"), dict):
                raise ValueError("no train_config object")
    except (OSError, ValueError, KeyError, TypeError, zipfile.BadZipFile) as exc:
        raise ConfigurationError(f"not a readable checkpoint: {path} ({exc})") from None
    return model, meta


def load_checkpoint(path: str | Path, kg: KnowledgeGraph) -> EmbeddingModel:
    """Read a checkpoint, verifying it was trained against this graph.

    A file :func:`_read_checkpoint` cannot read, one without ``train_config``
    among them, raises :class:`ConfigurationError` naming the file.
    """
    model, meta = _read_checkpoint(path)
    if meta["kg_hash"] != kg_fingerprint(kg):
        raise ConfigurationError(
            "checkpoint does not match the loaded dataset (graph hash differs)"
        )
    return model


def _check_train_config(path: str | Path, config: TrainConfig) -> None:
    """:class:`ConfigurationError` naming each field where the checkpoint's config differs."""
    stored = _read_checkpoint(path, tables=False)[1]["train_config"]
    wanted = asdict(config)
    differ = [
        f"{name} (checkpoint {stored.get(name)!r}, config {value!r})"
        for name, value in wanted.items()
        if stored.get(name) != value
    ]
    if differ:
        raise ConfigurationError(
            f"checkpoint {path} was trained with another [training] configuration: "
            + ", ".join(differ)
        )
