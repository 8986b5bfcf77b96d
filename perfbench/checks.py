"""Output checks computed apart from the program.

Every check here reads the files the CLI wrote and recomputes what they
claim from the dataset files and the saved checkpoint arrays, with code that
shares nothing with ``src/``: a complex-number filtered ranker, brute-force
argmax and non-dominated filters, and plain arithmetic for the metrics. Each
check returns a list of problems; an empty list means the output is correct.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

# Scores closer than this to the target's are ties whose order depends on
# rounding; a reported rank anywhere inside the tie band is accepted.
TIE_TOLERANCE = 1e-9


class GraphIndex:
    """The dataset as the program must have read it, with ids by first appearance."""

    def __init__(self, data_dir: Path) -> None:
        self.entity_ids: dict[str, int] = {}
        self.relation_ids: dict[str, int] = {}
        self.splits: dict[str, list[tuple[int, int, int]]] = {}
        for split in ("train", "valid", "test"):
            rows = []
            for line in (data_dir / f"{split}.txt").read_text(encoding="utf-8").splitlines():
                s, r, o = line.split("\t")
                rows.append(
                    (
                        self.entity_ids.setdefault(s, len(self.entity_ids)),
                        self.relation_ids.setdefault(r, len(self.relation_ids)),
                        self.entity_ids.setdefault(o, len(self.entity_ids)),
                    )
                )
            self.splits[split] = rows
        self.num_entities = len(self.entity_ids)
        self.train = set(self.splits["train"])
        self.known: dict[tuple[int, int], set[int]] = {}
        for rows in self.splits.values():
            for s, r, o in rows:
                self.known.setdefault((s, r), set()).add(o)

    def ids_of(self, labels) -> tuple[int, int, int]:
        s, r, o = labels
        return (self.entity_ids[s], self.relation_ids[r], self.entity_ids[o])


def load_embeddings(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """Entity and relation tables of a checkpoint as complex arrays."""
    with np.load(path, allow_pickle=False) as data:
        ent = data["ent_re"] + 1j * data["ent_im"]
        rel = data["rel_re"] + 1j * data["rel_im"]
    return ent, rel


def rank_band(graph: GraphIndex, embeddings, triple) -> tuple[int, int]:
    """Lowest and highest filtered object rank the triple can have.

    The score is the real part of sum(e_s * w_r * conj(e_o)); candidates that
    form a known triple of any split are filtered, and only strictly greater
    scores count. Ties within TIE_TOLERANCE widen the band.
    """
    ent, rel = embeddings
    s, r, o = triple
    scores = np.real((ent[s] * rel[r] * np.conj(ent)).sum(axis=1))
    keep = np.ones(len(scores), dtype=bool)
    keep[list(graph.known.get((s, r), ()))] = False
    keep[o] = False
    target = scores[o]
    tol = TIE_TOLERANCE * (1.0 + abs(target))
    return (
        1 + int(np.count_nonzero(scores[keep] > target + tol)),
        1 + int(np.count_nonzero(scores[keep] > target - tol)),
    )


def _rank_problem(what: str, reported, band: tuple[int, int]) -> list[str]:
    if band[0] <= reported <= band[1]:
        return []
    return [f"{what}: reported rank {reported}, recomputed {band[0]}..{band[1]}"]


def _entry_ids(graph: GraphIndex, entry: dict, what: str) -> tuple[tuple[int, int, int], list[str]]:
    ids = tuple(entry["ids"])
    if ids != graph.ids_of(entry["labels"]):
        return ids, [f"{what}: ids {ids} do not match labels {entry['labels']}"]
    return ids, []


def check_selection(graph: GraphIndex, base, selection: dict, count: int, cohort: int) -> list[str]:
    problems = []
    triples = selection["triples"]
    if len(triples) != count:
        problems.append(f"selection holds {len(triples)} triples, expected {count}")
    test = set(graph.splits["test"])
    for k, entry in enumerate(triples):
        ids, bad = _entry_ids(graph, entry, f"selection[{k}]")
        problems += bad
        if ids not in test:
            problems.append(f"selection[{k}] {ids} is not a test triple")
        if entry["rank"] != cohort:
            problems.append(f"selection[{k}] rank {entry['rank']} is not the cohort rank {cohort}")
        problems += _rank_problem(f"selection[{k}]", entry["rank"], rank_band(graph, base, ids))
    return problems


def _psi(mode: str, before: float, after: float) -> float:
    if mode in ("necessary", "latent-negative"):
        return after - before
    if mode == "latent-positive":
        return before - after
    raise ValueError(f"no psi rule for mode {mode!r}")


def best_candidate(candidates: list[dict]) -> dict | None:
    """Highest psi; ties go to the lowest sorted triple ids."""
    best = None
    for c in candidates:
        key = (-c["psi"], [t["ids"] for t in c["triples"]])
        if best is None or key < best[0]:
            best = (key, c)
    return None if best is None else best[1]


def non_dominated_points(points: list[tuple[float, float]]) -> list[bool]:
    """Brute force: shorter and higher psi are better; ties on both are kept."""
    def dominates(a, b):
        return a[0] <= b[0] and a[1] >= b[1] and (a[0] < b[0] or a[1] > b[1])

    return [not any(dominates(q, p) for q in points) for p in points]


def expected_space(graph: GraphIndex, prediction) -> set[tuple[int, int, int]]:
    """The shares-entity space: training triples touching the subject or object."""
    s, _, o = prediction
    return {t for t in graph.train if t[0] in (s, o) or t[2] in (s, o)}


def check_run(
    graph: GraphIndex, base, payload: dict, algorithm: str, mode: str, prediction, expected: int
) -> list[str]:
    where = f"{algorithm}/{tuple(prediction)}"
    problems = []
    if payload["algorithm"] != algorithm:
        problems.append(f"{where}: algorithm field {payload['algorithm']!r}")
    ids, bad = _entry_ids(graph, payload["prediction"], f"{where} prediction")
    problems += bad
    if ids != tuple(prediction):
        problems.append(f"{where}: run is for {ids}")
    rank_before = payload["prediction"]["rank_before"]
    problems += _rank_problem(f"{where} rank_before", rank_before, rank_band(graph, base, ids))

    candidates = payload["candidates"]
    if len(candidates) != expected:
        problems.append(f"{where}: {len(candidates)} candidates, expected {expected}")
    s, _, o = ids
    seen = set()
    for k, c in enumerate(candidates):
        triples = []
        for entry in c["triples"]:
            t, bad = _entry_ids(graph, entry, f"{where} candidate {k}")
            problems += bad
            triples.append(t)
        seen.update(triples)
        if c["length"] != len(triples):
            problems.append(f"{where} candidate {k}: length {c['length']} for {len(triples)} triples")
        if c["rank_before"] != rank_before:
            problems.append(f"{where} candidate {k}: rank_before {c['rank_before']}")
        if not 1 <= c["rank_after"] <= graph.num_entities:
            problems.append(f"{where} candidate {k}: rank_after {c['rank_after']} out of range")
        if c["psi"] != _psi(mode, c["rank_before"], c["rank_after"]):
            problems.append(f"{where} candidate {k}: psi {c['psi']} is not the {mode} rank shift")
        if c["retrains"] != 1:
            problems.append(f"{where} candidate {k}: {c['retrains']} retrains")
        for t in triples:
            if mode == "necessary":
                if t not in graph.train:
                    problems.append(f"{where} candidate {k}: {t} is not a training triple")
                if not {t[0], t[2]} & {s, o}:
                    problems.append(f"{where} candidate {k}: {t} shares no entity with {ids}")
            else:
                if t in graph.train:
                    problems.append(f"{where} candidate {k}: latent {t} is a training triple")
                if not (0 <= t[0] < graph.num_entities and 0 <= t[2] < graph.num_entities
                        and 0 <= t[1] < len(graph.relation_ids)):
                    problems.append(f"{where} candidate {k}: latent {t} has ids out of range")
    if algorithm == "exhaustive-length-1" and mode == "necessary":
        if seen != expected_space(graph, ids):
            problems.append(f"{where}: candidates are not the shares-entity space")

    best = best_candidate(candidates)
    if (best is None) != (payload["best"] is None) or (
        best is not None and best["triples"] != payload["best"]["triples"]
    ):
        problems.append(f"{where}: best is not the argmax over the candidates")

    points = [(float(c["length"]), float(c["psi"])) for c in candidates]
    keep = non_dominated_points(points)
    expected_front = sorted(
        (p[0], p[1], [t["ids"] for t in c["triples"]])
        for p, c, k in zip(points, candidates, keep)
        if k
    )
    reported_front = sorted((f["length"], f["psi"], f["triples"]) for f in payload["front"])
    if expected_front != reported_front:
        problems.append(f"{where}: front is not the non-dominated set of the candidates")

    if payload["counters"]["retrains"] != len(candidates):
        problems.append(
            f"{where}: retrain counter {payload['counters']['retrains']} for {len(candidates)} candidates"
        )
    return problems


def check_simultaneous(
    graph: GraphIndex, base, payload: dict, runs: list[dict], runs_dir: Path
) -> list[str]:
    algorithm = payload["algorithm"]
    problems = []
    removed = set()
    for run in runs:
        if run["best"]:
            removed.update(tuple(t["ids"]) for t in run["best"]["triples"])
    if {tuple(t) for t in payload["removed"]} != removed:
        problems.append(f"simultaneous {algorithm}: removed set is not the union of the bests")
    after = load_embeddings(runs_dir / payload["checkpoint"])
    for entry in payload["after_ranks"]:
        ids, bad = _entry_ids(graph, entry, f"simultaneous {algorithm}")
        problems += bad
        problems += _rank_problem(
            f"simultaneous {algorithm} {ids} before", entry["rank_before"], rank_band(graph, base, ids)
        )
        problems += _rank_problem(
            f"simultaneous {algorithm} {ids} after", entry["rank_after"], rank_band(graph, after, ids)
        )
    return problems


def _close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def check_comparison_row(
    row: dict, selection: dict, runs: list[dict], simultaneous: dict | None
) -> list[str]:
    algorithm = row["algorithm"]
    after_of = {}
    if simultaneous is not None:
        after_of = {tuple(e["ids"]): e["rank_after"] for e in simultaneous["after_ranks"]}
    before, after, lengths = [], [], []
    for entry, run in zip(selection["triples"], runs):
        ids = tuple(entry["ids"])
        before.append(entry["rank"])
        if ids in after_of:
            after.append(after_of[ids])
        elif run["best"]:
            after.append(run["best"]["rank_after"])
        else:
            after.append(entry["rank"])
        if run["best"]:
            lengths.append(run["best"]["length"])
    n = len(before)
    expected = {
        "mrr_before": sum(1.0 / r for r in before) / n,
        "mrr_after": sum(1.0 / r for r in after) / n,
        "m_delta_r": sum(a - b for a, b in zip(after, before)) / n,
        "mean_length": sum(lengths) / len(lengths) if lengths else 0.0,
    }
    problems = [
        f"comparison {algorithm}: {key} {row[key]} != recomputed {value}"
        for key, value in expected.items()
        if not _close(row[key], value)
    ]
    hits1 = 100.0 * sum(1 for r in after if r <= 1) / n
    if not _close(row["hits1_after_pct"], hits1, rel=1e-5):
        problems.append(f"comparison {algorithm}: hits1_after_pct {row['hits1_after_pct']} != {hits1}")
    return problems


def check_front_file(front: dict, runs_by_algorithm: dict[str, list[dict]]) -> list[str]:
    problems = []
    if sorted(front) != sorted(runs_by_algorithm):
        return [f"front file algorithms {sorted(front)} != {sorted(runs_by_algorithm)}"]
    for algorithm, runs in runs_by_algorithm.items():
        points = [(float(c["length"]), float(c["psi"])) for run in runs for c in run["candidates"]]
        keep = non_dominated_points(points)
        expected = sorted({p for p, k in zip(points, keep) if k})
        reported = sorted((p["length"], p["psi"]) for p in front[algorithm])
        if expected != reported:
            problems.append(f"front file {algorithm}: {reported} != recomputed {expected}")
    return problems


def read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))
