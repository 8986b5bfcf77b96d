"""Knowledge-graph data model: ingestion, indexing, connectivity, search spaces.

Entities and relations are dense integer ids assigned at load time; labels
only appear at I/O boundaries. All hot paths (ranking, retraining) operate
on ids.
"""
from __future__ import annotations

import csv
import json
import logging
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from pathlib import Path
from typing import IO, Iterable, Iterator, NamedTuple

import numpy as np

from .errors import ConfigurationError, DatasetParseError, DomainError

logger = logging.getLogger(__name__)

SPLIT_FILES = {"train": "train.txt", "valid": "valid.txt", "test": "test.txt"}

SEARCH_SPACE_PRESETS = (
    "train-all",
    "shares-entity",
    "subject-match",
    "one-hop",
    "wcc",
)


class Triple(NamedTuple):
    """A (subject, relation, object) fact with dense integer ids."""

    subject: int
    relation: int
    object: int


@dataclass
class LoadReport:
    """Structured summary of a dataset load."""

    directory: str
    triples_read: dict[str, int] = field(default_factory=dict)
    duplicates_dropped: dict[str, int] = field(default_factory=dict)
    cross_split_dropped: dict[str, int] = field(default_factory=dict)
    unseen_in_train: dict[str, int] = field(default_factory=dict)

    def log(self) -> None:
        for split, n in self.triples_read.items():
            logger.info("load %s: %d triples kept", split, n)
        for counts, message in (
            (self.duplicates_dropped, "dropped %d duplicate triples"),
            (self.cross_split_dropped, "dropped %d triples already present in an earlier split"),
            (
                self.unseen_in_train,
                "%d triples use entities/relations unseen in train; "
                "kept in storage but excluded from rank evaluation",
            ),
        ):
            for split, n in counts.items():
                if n:
                    logger.warning("load %s: " + message, split, n)


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


class KnowledgeGraph:
    """Immutable triple store with dictionaries, splits, and adjacency indices.

    Instances are safe for concurrent reads and never edited in place. The
    graph owns its training set's example table, :attr:`examples`; the
    retraining operators describe a modified training set as rows of it,
    found through :attr:`train_index`. :meth:`with_train` wraps a plain
    triple sequence in a derived graph (sharing the dictionaries, rebuilding
    its indices lazily) for callers that want one.
    """

    def __init__(
        self,
        entity_labels: list[str],
        relation_labels: list[str],
        train: tuple[Triple, ...],
        valid: tuple[Triple, ...] = (),
        test: tuple[Triple, ...] = (),
        load_report: LoadReport | None = None,
    ) -> None:
        self.entity_labels = list(entity_labels)
        self.relation_labels = list(relation_labels)
        self.entity_ids = {label: i for i, label in enumerate(self.entity_labels)}
        self.relation_ids = {label: i for i, label in enumerate(self.relation_labels)}
        self.train = tuple(train)
        self.valid = tuple(valid)
        self.test = tuple(test)
        self.load_report = load_report

    @property
    def num_entities(self) -> int:
        return len(self.entity_labels)

    @property
    def num_relations(self) -> int:
        return len(self.relation_labels)

    @cached_property
    def train_set(self) -> frozenset[Triple]:
        return frozenset(self.train)

    @cached_property
    def train_index(self) -> dict[Triple, int]:
        """The position of each training triple in ``train`` (its first, if repeated)."""
        index: dict[Triple, int] = {}
        for i, t in enumerate(self.train):
            index.setdefault(t, i)
        return index

    @cached_property
    def examples(self) -> np.ndarray:
        """``build_examples(train)``, read-only; empty without training triples."""
        train, relations = self.train, self.num_relations
        table = build_examples(train, relations) if train else np.empty((0, 3), dtype=np.int64)
        table.flags.writeable = False
        return table

    @cached_property
    def all_triples(self) -> frozenset[Triple]:
        return frozenset(self.train) | frozenset(self.valid) | frozenset(self.test)

    def label_triple(self, t: Triple) -> tuple[str, str, str]:
        return (
            self.entity_labels[t.subject],
            self.relation_labels[t.relation],
            self.entity_labels[t.object],
        )

    def contains_ids(self, t: Triple) -> bool:
        return (
            0 <= t.subject < self.num_entities
            and 0 <= t.object < self.num_entities
            and 0 <= t.relation < self.num_relations
        )

    @cached_property
    def train_adjacency(self) -> dict[int, tuple[Triple, ...]]:
        """Per-entity incident training triples, once per incident entity."""
        adj: dict[int, list[Triple]] = {}
        for t in self.train:
            adj.setdefault(t.subject, []).append(t)
            if t.object != t.subject:
                adj.setdefault(t.object, []).append(t)
        return {e: tuple(ts) for e, ts in adj.items()}

    @cached_property
    def known_objects(self) -> dict[tuple[int, int], frozenset[int]]:
        """(subject, relation) -> objects appearing in any split.

        Used to build the filtered candidate set for ranking: candidates that
        already form graph triples are excluded.
        """
        known: dict[tuple[int, int], set[int]] = {}
        for t in self.all_triples:
            known.setdefault((t.subject, t.relation), set()).add(t.object)
        return {k: frozenset(v) for k, v in known.items()}

    def eval_split(self, split: str) -> tuple[Triple, ...]:
        """Triples of `split` whose entities and relation all appear in train.

        Triples with unseen components are retained in storage but excluded
        from rank evaluation.
        """
        triples = {"train": self.train, "valid": self.valid, "test": self.test}[split]
        if split == "train":
            return triples
        seen_e = {t.subject for t in self.train} | {t.object for t in self.train}
        seen_r = {t.relation for t in self.train}
        return tuple(
            t
            for t in triples
            if t.subject in seen_e and t.object in seen_e and t.relation in seen_r
        )

    def with_train(self, new_train: Iterator[Triple] | tuple[Triple, ...]) -> "KnowledgeGraph":
        """Derived view with a modified training set (copy-on-write)."""
        return KnowledgeGraph(
            self.entity_labels,
            self.relation_labels,
            tuple(new_train),
            self.valid,
            self.test,
        )


def _text_lines(path: str | Path, kind: str) -> Iterator[str]:
    """The lines of a UTF-8 text file, read as they are consumed.

    A file that cannot be opened or read, or is not UTF-8, raises
    :class:`ConfigurationError` naming ``kind`` and ``path``.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            yield from fh
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"unreadable {kind} file {path}: {exc}") from None


def load_json(path: str | Path, kind: str):
    """Parse a JSON text file; one that cannot be read or parsed is an unreadable ``kind`` file, named."""
    try:
        return json.loads("".join(_text_lines(path, kind)))
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"unreadable {kind} file {path}: {exc}") from None


@contextmanager
def _atomic_open(path: str | Path, binary: bool = False) -> Iterator[IO]:
    """Write ``path`` through a hidden sibling, renamed onto it when the block completes.

    The sibling is opened as a plain ``open`` opens a new file: mode 0666 less
    the umask, and text as UTF-8 with ``newline=""``. Its name carries the
    process and thread, so concurrent writers of different files never share
    it. A block that raises leaves ``path`` as it was and no sibling behind.
    """
    path = Path(path)
    temp = path.with_name(f".{path.name}.{os.getpid()}-{threading.get_ident()}.tmp")
    try:
        with open(temp, "wb") if binary else open(temp, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(temp, path)
    finally:
        temp.unlink(missing_ok=True)


def _write_json(path: str | Path, value) -> None:
    with _atomic_open(path) as fh:
        fh.write(json.dumps(value, indent=2, sort_keys=True))


def _write_csv(path: str | Path, rows: Iterable[Iterable]) -> None:
    """Write ``rows``, the header row first, as CSV."""
    with _atomic_open(path) as fh:
        csv.writer(fh).writerows(rows)


def _parse_split(path: Path) -> Iterator[list[str]]:
    for lineno, line in enumerate(_text_lines(path, "dataset"), start=1):
        line = line.rstrip("\n")
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise DatasetParseError(
                f"{path}:{lineno}: expected 3 TAB-separated fields, got {len(fields)}"
            )
        yield fields


def load_dataset(directory: str | Path) -> KnowledgeGraph:
    """Load a train/valid/test triple directory into an indexed graph.

    Files are UTF-8, one triple per line, three TAB-separated opaque labels.
    Ids are assigned in first-appearance order over train, then valid, then
    test. Duplicate triples within a split, and triples repeating an earlier
    split, are dropped with a warning. valid/test triples whose entities or
    relation never appear in train are flagged in the load report and
    excluded from rank evaluation (but kept in storage).
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise ConfigurationError(f"dataset directory not found: {directory}")

    entity_ids: dict[str, int] = {}
    relation_ids: dict[str, int] = {}
    report = LoadReport(directory=str(directory))
    splits: dict[str, tuple[Triple, ...]] = {}
    earlier: set[Triple] = set()

    for split, fname in SPLIT_FILES.items():
        kept: list[Triple] = []
        seen: set[Triple] = set()
        dup = cross = 0
        for s, r, o in _parse_split(directory / fname):
            t = Triple(
                entity_ids.setdefault(s, len(entity_ids)),
                relation_ids.setdefault(r, len(relation_ids)),
                entity_ids.setdefault(o, len(entity_ids)),
            )
            if t in seen:
                dup += 1
                continue
            if t in earlier:
                cross += 1
                continue
            seen.add(t)
            kept.append(t)
        earlier.update(seen)
        splits[split] = tuple(kept)
        report.triples_read[split] = len(kept)
        report.duplicates_dropped[split] = dup
        report.cross_split_dropped[split] = cross

    kg = KnowledgeGraph(
        list(entity_ids),
        list(relation_ids),
        splits["train"],
        splits["valid"],
        splits["test"],
        load_report=report,
    )
    for split in ("valid", "test"):
        report.unseen_in_train[split] = len(splits[split]) - len(kg.eval_split(split))
    report.log()
    return kg


def _distances(kg: KnowledgeGraph, source: int) -> dict[int, int]:
    """Breadth-first distances from `source` over the undirected training graph.

    Entities the traversal does not reach are absent.
    """
    dist = {source: 0}
    frontier = [source]
    while frontier:
        next_frontier = []
        for e in frontier:
            for t in kg.train_adjacency.get(e, ()):
                for other in (t.subject, t.object):
                    if other not in dist:
                        dist[other] = dist[e] + 1
                        next_frontier.append(other)
        frontier = next_frontier
    return dist


def weakly_connected_component(kg: KnowledgeGraph, entity: int) -> frozenset[Triple]:
    """All train triples in the component containing `entity`, direction ignored.

    The result is identical for any seed entity inside the same component:
    the training triples whose subject the traversal from `entity` reaches.
    """
    if not 0 <= entity < kg.num_entities:
        raise DomainError(f"unknown entity id: {entity}")
    reached = _distances(kg, entity)
    return frozenset(t for t in kg.train if t.subject in reached)


@dataclass(frozen=True)
class SearchSpace:
    """A named set of candidate triples, each member stored once in sorted order."""

    preset: str
    members: tuple[Triple, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "members", tuple(sorted(set(self.members))))


def _one_hop_entities(kg: KnowledgeGraph, entity: int) -> frozenset[int]:
    """The entity plus every endpoint of its incident training triples."""
    near = {entity}
    for t in kg.train_adjacency.get(entity, ()):
        near.add(t.subject)
        near.add(t.object)
    return frozenset(near)


def build_search_space(
    kg: KnowledgeGraph,
    preset: str,
    prediction: Triple | None = None,
) -> SearchSpace:
    """Construct the candidate space named by `preset`.

    Presets over the training set: ``train-all`` (every train triple),
    ``shares-entity`` (an endpoint is the prediction's subject or object),
    ``subject-match`` (subject equals the prediction's subject), ``one-hop``
    (both endpoints within one hop of the prediction's subject), ``wcc``
    (the subject's weakly connected component).
    """
    if preset not in SEARCH_SPACE_PRESETS:
        raise ConfigurationError(
            f"unknown search-space preset {preset!r}; expected one of {SEARCH_SPACE_PRESETS}"
        )
    if preset != "train-all" and prediction is None:
        raise ConfigurationError(f"preset {preset!r} requires a prediction triple")

    if preset == "train-all":
        members = kg.train
    elif preset == "shares-entity":
        anchor = {prediction.subject, prediction.object}
        members = (t for t in kg.train if t.subject in anchor or t.object in anchor)
    elif preset == "subject-match":
        members = (t for t in kg.train if t.subject == prediction.subject)
    elif preset == "one-hop":
        near = _one_hop_entities(kg, prediction.subject)
        members = (t for t in kg.train if t.subject in near and t.object in near)
    else:  # wcc
        members = weakly_connected_component(kg, prediction.subject)
    return SearchSpace(preset, tuple(members))
