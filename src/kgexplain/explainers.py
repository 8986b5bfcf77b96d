"""Search algorithms producing candidate explanations.

Four strategies over the joint (length, effectiveness) objective:

* :func:`exhaustive_length1` evaluates every singleton in a search space
  and is the reference all heuristics are compared against.
* :func:`data_poisoning_direct` ranks the subject's outgoing triples by a
  score-perturbation heuristic, without retraining inside the heuristic.
* :func:`criage_first_order` estimates each removal's score impact with a
  one-step influence approximation through shared embeddings.
* :func:`variable_length_builder` grows explanations up to length 4 from a
  shortest-path prefilter, evaluating each length's combinations in order of
  the sum of their members' singleton effectiveness, up to a per-length
  budget.

:func:`explain` makes every run: it checks the algorithm and mode against
:data:`ALGORITHMS`, opens one private search, :class:`_Search`, hands it to
the algorithm and closes it. The algorithms only propose candidates; the
search scores each with the mode's effectiveness operator and the configured
evaluator and records its run-file entry. A run is the object its run file
holds, the one :func:`read_run` returns: every evaluated candidate, the front
(the candidates no other one dominates), the best candidate, and the exact
retrain count spent (the sum of the candidates' own counts). One function
derives the front and the best, for runs made and runs read alike.
"""
from __future__ import annotations

import heapq
import itertools
import logging
import sys
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .effectiveness import (
    EVALUATORS,
    CandidateExplanation,
    EffectivenessResult,
    _room,
    effectiveness_c_sufficient,
    effectiveness_latent,
    effectiveness_necessary,
    effectiveness_sufficient,
)
from .errors import ConfigurationError, DomainError
from .kg import SEARCH_SPACE_PRESETS, KnowledgeGraph, SearchSpace, Triple, _distances, load_json
from .model import (
    EmbeddingModel,
    TrainConfig,
    _cmul,
    _cmul_conj,
    grad_score_wrt_subject,
    rank,
    score,
    score_objects,
)
from .pareto import non_dominated

logger = logging.getLogger(__name__)

MODES = ("necessary", "sufficient", "c-sufficient", "latent-positive", "latent-negative")
# Each algorithm and the modes it explains. The two heuristics rank removals
# of training triples, so they explain only necessary; the builder's prefilter
# proposes training triples, which latent explanations exclude.
ALGORITHMS = {
    "exhaustive-length-1": MODES,
    "data-poisoning-direct": ("necessary",),
    "criage-first-order": ("necessary",),
    "variable-length-builder": ("necessary", "sufficient", "c-sufficient"),
}

RUN_SCHEMA_VERSION = 2


@dataclass
class ExplainerConfig:
    """Knobs for the search algorithms; scalars must be finite."""

    search_space: str = "shares-entity"
    max_length: int = 1
    prefilter_k: int = 20
    evaluator: str = "post-train"
    lambda_weight: float = 1.0
    perturbation_step: float = 0.1
    influence_step: float = 0.1
    top_m: int = 1
    max_evals_per_length: int = 256
    post_train_epochs: int | None = None

    def validate(self) -> None:
        if self.search_space not in SEARCH_SPACE_PRESETS:
            preset = self.search_space
            raise ConfigurationError(f"search_space: unknown search-space preset: {preset!r}")
        if self.evaluator not in EVALUATORS:
            raise ConfigurationError(f"evaluator: unknown evaluator: {self.evaluator!r}")
        if self.evaluator == "full-retrain" and self.post_train_epochs is not None:
            raise ConfigurationError(
                "post_train_epochs is set, but evaluator 'full-retrain' never post-trains"
            )
        if self.post_train_epochs is not None and self.post_train_epochs < 1:
            raise ConfigurationError("post_train_epochs must be >= 1")
        if not 1 <= self.max_length <= 4:  # the builder grows explanations to length 4
            raise ConfigurationError("max_length must lie in [1, 4]")
        for name in ("prefilter_k", "top_m", "max_evals_per_length"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be >= 1")
        for name in ("lambda_weight", "perturbation_step", "influence_step"):
            if not np.isfinite(getattr(self, name)):
                raise ConfigurationError(f"{name} must be finite")


def _check_pair(algorithm: str, mode: str) -> None:
    """Reject an unknown mode or algorithm, or a pair that :data:`ALGORITHMS` does not allow."""
    if mode not in MODES:
        raise ConfigurationError(f"unknown explanation mode: {mode!r} (algorithm {algorithm!r})")
    if algorithm not in ALGORITHMS:
        raise ConfigurationError(f"unknown algorithm: {algorithm!r} (mode {mode!r})")
    if mode not in ALGORITHMS[algorithm]:
        raise ConfigurationError(f"algorithm {algorithm!r} does not explain mode {mode!r}")


def _three_ints(value) -> bool:
    """Three integers; ``type`` rules out booleans."""
    return isinstance(value, list) and len(value) == 3 and all(type(i) is int for i in value)


def _numbers(entry, *keys: str) -> bool:
    """An object holding, under each key, a number that fits a finite float."""
    return isinstance(entry, dict) and all(
        type(entry.get(key)) in (int, float) and abs(entry[key]) <= sys.float_info.max
        for key in keys
    )


def _id_entries(value) -> bool:
    """A list of objects whose ``ids`` are three integers."""
    return isinstance(value, list) and all(
        isinstance(t, dict) and _three_ints(t.get("ids")) for t in value
    )


def _front_and_best(candidates: list[dict]) -> tuple[list[dict], dict | None]:
    """A run's ``front`` and ``best``, both derived from its candidate entries.

    The front is each non-dominated candidate's ``{length, psi, triples}``
    (float length, triple ids), in candidate order; the best is the
    highest-psi candidate, ties going to the fewest triples, then to the
    lowest sorted triple ids, so it is a front point; it is None when there
    are no candidates.
    """
    points = [
        {"length": float(c["length"]), "psi": c["psi"],
         "triples": sorted(t["ids"] for t in c["triples"])}
        for c in candidates
    ]
    keep = non_dominated([(p["length"], float(p["psi"])) for p in points])
    argmax = min(
        range(len(points)),
        key=lambda i: (-points[i]["psi"], points[i]["length"], points[i]["triples"]),
        default=None,
    )
    front = [p for p, kept in zip(points, keep) if kept]
    return front, None if argmax is None else candidates[argmax]


def _run_problem(run, algorithm: str | None, prediction: Triple | None) -> str | None:
    """What keeps ``run`` from being the run of ``algorithm`` for ``prediction``, if anything."""
    if not isinstance(run, dict) or type(run.get("algorithm")) is not str:
        return "expected an object with a string algorithm"
    if run.get("schema_version") != RUN_SCHEMA_VERSION:
        return f"schema_version must be {RUN_SCHEMA_VERSION}"
    if not (isinstance(run.get("prediction"), dict) and _three_ints(run["prediction"].get("ids"))):
        return "prediction ids must be three integers"
    candidates = run.get("candidates")
    if not (isinstance(candidates, list) and all(
        _numbers(c, "length", "psi") and _id_entries(c.get("triples")) for c in candidates
    )):
        return "candidates must be a list of objects with numeric length and psi, triples {ids}"
    if any(c["length"] != len({tuple(t["ids"]) for t in c["triples"]}) for c in candidates):
        return "a candidate's length must be the number of distinct triples it holds"
    front, best = _front_and_best(candidates)
    if run.get("front") != front:
        return "front must be the non-dominated candidates' {length, psi, triples}, in order"
    if run.get("best", 0) != best:  # null, not missing
        return "best must be the highest-psi candidate, ties to the fewest, lowest ids, else null"
    if best is not None and not (
        _numbers(best, "rank_before", "rank_after")
        and min(best["rank_before"], best["rank_after"]) >= 1
    ):
        return "best must have numeric rank_before and rank_after >= 1"
    if algorithm is not None and run["algorithm"] != algorithm:
        return f"a run of algorithm {run['algorithm']!r}, not {algorithm!r}"
    if prediction is not None and run["prediction"]["ids"] != list(prediction):
        return f"a run of prediction {run['prediction']['ids']}, not {list(prediction)}"
    return None


def read_run(
    path: str | Path, algorithm: str | None = None, prediction: Triple | None = None,
    settings: dict | None = None,
) -> dict:
    """The payload of a run file, checked in every field that any reader uses.

    ``algorithm`` and ``prediction``, when known, are what the file's name and
    index claim; ``settings``, when known, are the sweep's ``mode`` and
    ``[explain]`` config. A file that does not parse, lacks or mistypes a
    field, has another ``schema_version`` than :data:`RUN_SCHEMA_VERSION`, or
    is another algorithm's, prediction's or setting's run raises
    ConfigurationError naming it.
    """
    run = load_json(path, "run")
    problem = _run_problem(run, algorithm, prediction)
    if problem:
        raise ConfigurationError(f"not a run file: {path} ({problem})")
    if settings is not None:
        config = run.get("config")
        got = {"mode": run.get("mode")} | (config if isinstance(config, dict) else {})
        differ = [k for k in sorted(got.keys() | settings.keys())
                  if (k in got, got.get(k)) != (k in settings, settings.get(k))]
        if differ:
            keys = ", ".join(f"[explain] {k}" for k in differ)
            raise ConfigurationError(f"made under another {keys}: {path}")
    return run


class _Search:
    """One run of one algorithm for one prediction: validates, evaluates, records, finishes.

    :func:`explain` makes it, validating the explainer's config first, and
    closes it with :meth:`finish`. The algorithm proposes each candidate to
    :meth:`evaluate`, which scores it with the mode's operator and
    ``config.evaluator``, so the run's retrain count is the sum of its
    candidates' own counts. Every retrain fits under one config: the training
    config, for ``post_train_epochs`` epochs when that is set. ``ceiling`` is
    the highest psi the operator can give under ``necessary`` and
    ``sufficient``, the room of its sign (``_room``); it is None in the other
    modes.
    """

    def __init__(
        self,
        kg: KnowledgeGraph,
        model: EmbeddingModel,
        prediction: Triple,
        mode: str,
        config: ExplainerConfig,
        training: TrainConfig,
        targets: tuple[tuple[int, int], ...] | None = None,
    ) -> None:
        config.validate()
        self.started = time.perf_counter()
        self.kg, self.model, self.prediction, self.mode = kg, model, prediction, mode
        self.config, self.targets = config, targets
        self.fit_config = replace(training, epochs=config.post_train_epochs or training.epochs)
        self.rank_before = rank(model, prediction, kg)
        sign = {"necessary": 1, "sufficient": -1}.get(mode)
        self.ceiling = None if sign is None else _room(kg, prediction, self.rank_before, sign)
        self.candidates: list[dict] = []  # the run file's candidate entries
        self.found: list[str] = []  # the run's warnings, in order

    def _triple_entry(self, t: Triple) -> dict:
        return {"ids": list(t), "labels": list(self.kg.label_triple(t))}

    def evaluate(self, triples, heuristic: float | None = None) -> EffectivenessResult:
        """Score one candidate, record its run-file entry, and return its result."""
        # each operator is called by its module-global name, which a tracer may rebind
        mode = self.mode
        if mode == "c-sufficient" and self.targets is None:
            raise ConfigurationError("c-sufficient mode requires a target set")
        explanation = CandidateExplanation(triples)
        head = (self.kg, self.model, self.prediction, explanation)
        fit = (self.config.evaluator, self.fit_config)
        if mode == "necessary":
            result = effectiveness_necessary(*head, *fit, self.rank_before)
        elif mode == "sufficient":
            result = effectiveness_sufficient(*head, *fit, self.rank_before)
        elif mode == "c-sufficient":
            result = effectiveness_c_sufficient(*head, self.targets, *fit)
        else:  # latent-positive or latent-negative; explain rejects any other mode
            result = effectiveness_latent(*head, mode.removeprefix("latent-"), *fit, self.rank_before)
        self.candidates.append({
            "triples": [self._triple_entry(t) for t in explanation.sorted_triples()],
            "length": len(explanation),
            "psi": result.psi,
            "rank_before": result.rank_before,
            "rank_after": result.rank_after,
            "operator": result.operator,
            "evaluator": result.evaluator,
            "retrains": result.retrains,
            "heuristic_score": heuristic,
        })
        self.found.extend(result.warnings)
        return result

    def finish(self, algorithm: str) -> dict:
        """The run file's object; its warnings are :attr:`found`, each once."""
        candidates = self.candidates
        front, best = _front_and_best(candidates)
        return {
            "schema_version": RUN_SCHEMA_VERSION,
            "algorithm": algorithm,
            "mode": self.mode,
            "prediction": self._triple_entry(self.prediction) | {"rank_before": self.rank_before},
            "config": asdict(self.config),
            "candidates": candidates,
            "best": best,
            "front": front,
            "counters": {
                "retrains": sum(c["retrains"] for c in candidates),
                "wall_clock_s": time.perf_counter() - self.started,
            },
            "warnings": list(dict.fromkeys(self.found)),
        }


def exhaustive_length1(search: _Search, space: SearchSpace) -> None:
    """Evaluate every singleton in the space; the argmax is flagged best.

    Ties on effectiveness go to the lowest triple ids. This is the oracle
    any heuristic over the same space and evaluator is bounded by.
    """
    if not space.members:
        raise DomainError(f"search space {space.preset!r} is empty")
    for t in space.members:
        search.evaluate((t,))


def data_poisoning_direct(search: _Search) -> None:
    """Rank the subject's outgoing triples by a gradient-shift heuristic.

    The subject embedding is shifted down the prediction's score gradient by
    ``perturbation_step``; each neighbor (s_x, r, o) is scored by
    f(s_x, r, o) - lambda * f~(s_x, r, o), where f~ uses the shifted
    subject. The ``top_m`` maximizers are kept and only then evaluated with
    the configured effectiveness evaluator for reporting.
    """
    model, prediction, config = search.model, search.prediction, search.config
    s_x = prediction.subject
    neighbors = sorted(
        t for t in search.kg.train_adjacency.get(s_x, ()) if t.subject == s_x
    )
    if not neighbors:
        logger.warning("prediction subject has no outgoing training triples")
        search.found.append("no eligible neighbors")
        return

    shifted = model.clone()
    shifted.ent[s_x] -= config.perturbation_step * grad_score_wrt_subject(model, prediction)

    scored = []
    for t in neighbors:
        heuristic = score(model, t) - config.lambda_weight * score(shifted, t)
        scored.append((heuristic, t))
    scored.sort(key=lambda pair: (-pair[0], pair[1]))

    for heuristic, t in scored[: config.top_m]:
        search.evaluate((t,), heuristic)


def _score_gradients(model: EmbeddingModel, triple: Triple) -> dict[tuple[str, int], np.ndarray]:
    """Score gradient w.r.t. each of the triple's own embeddings, keyed by row."""
    s, r, o = triple
    subject, relation, obj = model.ent[s], model.rel[r], model.ent[o]
    grads: dict[tuple[str, int], np.ndarray] = {}
    grads[("e", s)] = _cmul_conj(obj, relation)
    grads[("r", r)] = _cmul_conj(obj, subject)
    grads[("e", o)] = grads.get(("e", o), 0) + _cmul(subject, relation)
    return grads


def _loss_gradients(model: EmbeddingModel, triple: Triple) -> dict[tuple[str, int], np.ndarray]:
    """Gradient of the triple's softmax loss, restricted to its own embeddings.

    The softmax couples every entity, but the first-order estimate freezes
    everything except the triple's subject, relation, and object rows.
    """
    s, r, o = triple
    scores = score_objects(model, s, r)
    shift = scores.max()
    exps = np.exp(scores - shift)
    probs = exps / exps.sum()

    subject, relation = model.ent[s], model.rel[r]
    v = probs @ model.ent - model.ent[o]
    grads: dict[tuple[str, int], np.ndarray] = {}
    grads[("e", s)] = _cmul_conj(v, relation)
    grads[("r", r)] = _cmul_conj(v, subject)
    target_grad = (probs[o] - 1.0) * _cmul(subject, relation)
    grads[("e", o)] = grads.get(("e", o), 0) + target_grad
    return grads


def first_order_score_change(
    model: EmbeddingModel, prediction: Triple, candidate: Triple, step: float
) -> float:
    """Estimated prediction-score change if the candidate were removed.

    One unlearning step of size ``step`` up the candidate's loss gradient,
    propagated through the prediction's score gradient over shared
    embeddings. Candidates sharing no embedding with the prediction yield
    exactly zero; the estimate is linear in the step.
    """
    pred_grads = _score_gradients(model, prediction)
    cand_grads = _loss_gradients(model, candidate)
    total = 0.0
    for key, grad in cand_grads.items():
        if key in pred_grads:
            total += float(np.dot(pred_grads[key], grad))
    return step * total


def criage_first_order(search: _Search) -> None:
    """Order removals of the object's incoming triples by estimated damage.

    Damage is the first-order influence estimate of the prediction-score
    change (most negative first); each candidate's true effectiveness is
    attached with the configured evaluator for reporting.
    """
    prediction = search.prediction
    o_x = prediction.object
    neighbors = sorted(
        t for t in search.kg.train_adjacency.get(o_x, ()) if t.object == o_x
    )
    if not neighbors:
        logger.warning("prediction object has no incoming training triples")
        search.found.append("no eligible neighbors")
        return

    step = search.config.influence_step
    estimates = [
        (first_order_score_change(search.model, prediction, t, step), t) for t in neighbors
    ]
    estimates.sort(key=lambda pair: (pair[0], pair[1]))

    for estimate, t in estimates:
        search.evaluate((t,), estimate)


def prefilter_topk(kg: KnowledgeGraph, prediction: Triple, k: int) -> tuple[Triple, ...]:
    """At most K of the subject's incident triples, nearest endpoints first.

    Triples are ranked by the undirected shortest-path distance from their
    non-subject endpoint to the prediction's object (breadth-first over the
    training graph), ties broken by triple ids. An endpoint equal to the
    object has distance 0 and always ranks first.
    """
    if k < 1:
        raise ConfigurationError("prefilter K must be >= 1")
    s_x = prediction.subject
    incident = sorted(set(kg.train_adjacency.get(s_x, ())))
    if not incident:
        logger.warning("prediction subject %d is isolated in the training graph", s_x)
        return ()

    dist = _distances(kg, prediction.object)

    def sort_key(t: Triple) -> tuple[float, Triple]:
        other = t.object if t.subject == s_x else t.subject
        return (dist.get(other, float("inf")), t)

    return tuple(sorted(incident, key=sort_key)[:k])


def variable_length_builder(search: _Search) -> None:
    """Grow explanations from singletons up to ``max_length`` (at most 4).

    Every singleton from the prefilter is evaluated first. Each longer length
    then evaluates the ``max_evals_per_length`` combinations of highest
    preliminary relevance, the sum of their members' singleton effectiveness
    (ties to the lowest triple ids), in that order. A length whose
    combinations fit the budget is enumerated in full, so the builder is the
    exact oracle over its pool up to such a length. It stops before a length
    once a candidate has reached the search's ``ceiling``: every longer
    candidate is then dominated by it, and is no better ``best``.
    """
    config = search.config
    pool = sorted(prefilter_topk(search.kg, search.prediction, config.prefilter_k))
    if not pool:
        raise DomainError("builder prefilter produced an empty candidate pool")

    singleton_psi = {t: search.evaluate((t,)).psi for t in pool}
    best = max(singleton_psi.values())
    for length in range(2, config.max_length + 1):
        if best == search.ceiling:
            break
        combos = itertools.combinations(pool, length)
        scored = ((-sum(singleton_psi[t] for t in combo), combo) for combo in combos)
        for minus_relevance, combo in heapq.nsmallest(config.max_evals_per_length, scored):
            best = max(best, search.evaluate(combo, -minus_relevance).psi)


def explain(
    kg: KnowledgeGraph,
    model: EmbeddingModel,
    prediction: Triple,
    algorithm: str,
    mode: str,
    space: SearchSpace | None,
    config: ExplainerConfig,
    train_config: TrainConfig,
    targets: tuple[tuple[int, int], ...] | None = None,
) -> dict:
    """The run of ``algorithm`` for ``prediction`` in ``mode``; see :data:`ALGORITHMS`.

    ``space`` is what ``exhaustive-length-1`` searches, and must be given for
    it; the other algorithms pick their own candidates and ignore it. In mode
    ``c-sufficient`` the space is narrowed to the triples holding the
    prediction's subject, the only ones a transfer onto the ``targets`` can
    move. Every retrain runs ``train_config``, for ``post_train_epochs`` epochs if set.
    """
    _check_pair(algorithm, mode)
    if algorithm == "exhaustive-length-1" and space is None:
        raise ConfigurationError("algorithm 'exhaustive-length-1' needs a search space")
    search = _Search(kg, model, prediction, mode, config, train_config, targets)
    # each algorithm is called by its module-global name, which a tracer may rebind
    if algorithm == "exhaustive-length-1":
        if mode == "c-sufficient":
            members = tuple(t for t in space.members if prediction.subject in (t.subject, t.object))
            space = SearchSpace(space.preset, members)
        exhaustive_length1(search, space)
    elif algorithm == "data-poisoning-direct":
        data_poisoning_direct(search)
    elif algorithm == "criage-first-order":
        criage_first_order(search)
    else:
        variable_length_builder(search)
    return search.finish(algorithm)
