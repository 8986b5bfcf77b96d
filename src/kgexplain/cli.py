"""Command-line entry point for reproducible experiments.

Subcommands: ``train`` (fit and checkpoint a scorer), ``select`` (sample an
evaluation set from a rank cohort), ``explain`` (run explainers per
prediction, resumable), ``evaluate`` (metrics reports and the
cross-algorithm comparison), ``pareto`` (front export). A run file counts
only when ``read_run`` accepts it as the run its name and index claim, made
(for ``explain`` and ``evaluate``) under the INI's mode and ``[explain]``
config. One INI file configures all, echoed verbatim into every output
directory. Exit codes: 0 success, 2 validation error, 3 runtime error.
"""
from __future__ import annotations

import argparse
import configparser
import logging
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .effectiveness import _retrained, _rows_without, build_target_set
from .errors import ConfigurationError, DatasetParseError, DomainError, KgExplainError
from .explainers import (
    ALGORITHMS,
    MODES,
    ExplainerConfig,
    _check_pair,
    _numbers,
    _three_ints,
    explain,
    read_run,
)
from .kg import (
    KnowledgeGraph, SearchSpace, Triple, _atomic_open, _text_lines, _write_csv, _write_json,
    build_search_space, load_dataset, load_json,
)
from .latent import calibrate_ensemble, sample_latent_candidates
from .metrics import RankRow, RankTable, comparison_table, emit_report
from .model import (
    TrainConfig,
    _check_train_config,
    init_model,
    load_checkpoint,
    rank,
    save_checkpoint,
)
from .pareto import non_dominated
from .training import train

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3


@dataclass
class ExperimentConfig:
    """Parsed experiment description; every stochastic stage carries a seed."""

    dataset_path: Path
    train: TrainConfig
    selection_count: int
    selection_seed: int
    cohort_rank: int
    mode: str
    algorithms: tuple[str, ...]
    explainer: ExplainerConfig
    simultaneous_removal: bool
    latent_epsilon: float
    latent_budget: int
    latent_seed: int
    targets_size: int
    targets_seed: int
    output_dir: Path
    raw_text: str

    def validate(self) -> None:
        if not self.dataset_path.is_dir():
            path = self.dataset_path
            raise ConfigurationError(f"config [dataset] path is not a directory: {path}")
        for section, part in (("training", self.train), ("explain", self.explainer)):
            try:
                part.validate()
            except ConfigurationError as exc:
                raise ConfigurationError(f"config [{section}] {exc}") from None
        if self.selection_count < 1:
            raise ConfigurationError("config [selection] count must be >= 1")
        if self.cohort_rank < 1:
            raise ConfigurationError(
                f"config [selection] cohort_rank must be >= 1, got {self.cohort_rank}"
            )
        if not self.algorithms:
            raise ConfigurationError("config [explain] algorithms names no algorithm")
        if not 0 < self.latent_epsilon < 1:
            raise ConfigurationError("config [latent] epsilon must lie strictly between 0 and 1")
        if self.latent_budget < 1:
            raise ConfigurationError("config [latent] budget must be >= 1")
        if self.mode == "c-sufficient" and self.targets_size < 1:
            raise ConfigurationError("config [targets] size must be >= 1 in mode 'c-sufficient'")
        seeds = {"selection": self.selection_seed, "latent": self.latent_seed, "targets": self.targets_seed}
        for section, seed in seeds.items():
            if seed < 0:
                raise ConfigurationError(f"config [{section}] seed must be >= 0")
        if self.mode not in MODES:
            raise ConfigurationError(f"config [explain] mode: unknown explanation mode: {self.mode!r}")
        for i, algo in enumerate(self.algorithms):
            if algo in self.algorithms[:i]:
                raise ConfigurationError(f"config [explain] algorithms names {algo!r} twice")
            if algo not in ALGORITHMS:
                raise ConfigurationError(f"config [explain] algorithms: unknown algorithm: {algo!r}")
            try:
                _check_pair(algo, self.mode)
            except ConfigurationError as exc:
                keys = "[explain] mode and [explain] algorithms"
                raise ConfigurationError(f"config {keys}: {exc}") from None


def parse_experiment_config(path: str | Path, seed_override: int | None = None) -> ExperimentConfig:
    """Read an experiment INI; a key no setting reads is a validation error.

    ``[training]`` holds the :class:`TrainConfig` fields and ``[explain]``
    the :class:`ExplainerConfig` fields; each takes the dataclass default
    and the type of that default (``int`` for ``None``).
    """
    raw_text = "".join(_text_lines(path, "config"))
    parser = configparser.ConfigParser()
    try:
        parser.read_string(raw_text, source=str(path))
    except configparser.Error as exc:
        raise ConfigurationError(f"cannot parse config file {path}: {exc}") from None
    asked: set[tuple[str, str]] = set()

    def get(section: str, key: str, fallback, kind: type | None = None):
        asked.add((section, key))
        if not parser.has_option(section, key):
            return fallback
        kind = kind or type(fallback)
        try:
            if kind is bool:
                return parser.getboolean(section, key)
            value = parser.get(section, key)
            if kind in (int, float):
                return kind(value)
        except (configparser.Error, ValueError) as exc:
            raise ConfigurationError(
                f"config [{section}] {key}: expected {kind.__name__}: {exc}"
            ) from None
        return value

    def section(name: str, cls: type):
        return cls(**{
            f.name: get(name, f.name, f.default, int if f.default is None else None)
            for f in fields(cls)
        })

    dataset_path = get("dataset", "path", None, str)
    if dataset_path is None:
        raise ConfigurationError("config must set [dataset] path")
    algorithms = tuple(
        name.strip()
        for name in get("explain", "algorithms", "exhaustive-length-1").split(",")
        if name.strip()
    )
    config = ExperimentConfig(
        dataset_path=Path(dataset_path),
        train=section("training", TrainConfig),
        selection_count=get("selection", "count", 20),
        selection_seed=get("selection", "seed", 0),
        cohort_rank=get("selection", "cohort_rank", 1),
        mode=get("explain", "mode", "necessary"),
        algorithms=algorithms,
        explainer=section("explain", ExplainerConfig),
        simultaneous_removal=get("explain", "simultaneous_removal", False),
        latent_epsilon=get("latent", "epsilon", 0.1),
        latent_budget=get("latent", "budget", 10),
        latent_seed=get("latent", "seed", 0),
        targets_size=get("targets", "size", 10),
        targets_seed=get("targets", "seed", 0),
        output_dir=Path(get("output", "directory", "runs/experiment")),
        raw_text=raw_text,
    )
    for name in parser.sections():
        for key in parser.options(name):
            if (name, key) not in asked:
                raise ConfigurationError(f"config {path}: unknown key [{name}] {key}")
    if seed_override is not None:
        config.train = replace(config.train, seed=seed_override)
        config.selection_seed = seed_override
        config.latent_seed = seed_override
        config.targets_seed = seed_override
    return config


def _prepare_output(config: ExperimentConfig, out: str | None) -> Path:
    out_dir = Path(out) if out else config.output_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    with _atomic_open(out_dir / "config_echo.ini") as fh:
        fh.write(config.raw_text)
    return out_dir


def cmd_train(config: ExperimentConfig, out: str | None = None) -> Path:
    """Train on the configured dataset; write checkpoint and loss curve."""
    config.validate()
    out_dir = _prepare_output(config, out)
    kg = load_dataset(config.dataset_path)
    model = train(init_model(kg, config.train), kg, config.train)
    checkpoint = out_dir / "checkpoint.npz"
    save_checkpoint(model, kg, checkpoint, config.train)
    _write_csv(out_dir / "loss_curve.csv", [["epoch", "train_nll", "valid_nll"]] + [
        [
            record["epoch"],
            f"{record['train_nll']:.10g}",
            f"{record['valid_nll']:.10g}" if "valid_nll" in record else "",
        ]
        for record in model.history
    ])
    logger.info("checkpoint written to %s", checkpoint)
    return checkpoint


def cmd_select(
    config: ExperimentConfig, checkpoint: str | Path, out: str | None = None
) -> Path:
    """Rank the test split and sample the evaluation set from a rank cohort."""
    config.validate()
    out_dir = _prepare_output(config, out)
    kg = load_dataset(config.dataset_path)
    model = load_checkpoint(checkpoint, kg)

    ranked = [(t, rank(model, t, kg)) for t in kg.eval_split("test")]
    cohort = [(t, r) for t, r in ranked if r == config.cohort_rank]
    if not cohort:
        raise DomainError(f"no test triples with rank {config.cohort_rank}")
    if len(cohort) < config.selection_count:
        logger.warning(
            "cohort holds %d triples, fewer than the requested %d; returning all",
            len(cohort),
            config.selection_count,
        )
        chosen = cohort
    else:
        rng = np.random.default_rng(config.selection_seed)
        idx = rng.choice(len(cohort), size=config.selection_count, replace=False)
        chosen = [cohort[i] for i in sorted(idx)]

    selection = {
        "cohort_rank": config.cohort_rank,
        "seed": config.selection_seed,
        "triples": [
            {"ids": list(t), "labels": list(kg.label_triple(t)), "rank": r}
            for t, r in chosen
        ],
    }
    path = out_dir / "selection.json"
    _write_json(path, selection)
    logger.info("selected %d triples into %s", len(chosen), path)
    return path


def _load_selection(path: str | Path) -> list[dict]:
    """The ``triples`` entries of a selection file, each holding ``ids`` and ``rank``.

    ``ids`` must be three integers, each listed once, and ``rank`` a positive
    integer. A file that is not such a list, or whose list is empty, names
    itself.
    """
    data = load_json(path, "selection")
    entries = data.get("triples") if isinstance(data, dict) else None

    def valid(entry) -> bool:
        if not isinstance(entry, dict) or not {"ids", "rank"} <= entry.keys():
            return False
        rank = entry["rank"]
        return _three_ints(entry["ids"]) and type(rank) is int and rank >= 1  # not a bool

    if not isinstance(entries, list) or not entries or not all(map(valid, entries)):
        want = "expected a non-empty triples list of {ids, rank}, ids three integers,"
        want += " rank a positive integer"
        raise ConfigurationError(f"not a selection file: {path} ({want})")
    ids = [tuple(entry["ids"]) for entry in entries]
    if len(set(ids)) < len(ids):
        twice = next(list(i) for n, i in enumerate(ids) if i in ids[:n])
        raise ConfigurationError(f"not a selection file: {path} (ids {twice} listed twice)")
    return entries


def _ranked_selection(path: str | Path, kg: KnowledgeGraph, model) -> dict[Triple, int]:
    """Each prediction of a selection file mapped to its ``rank``, which must be ``model``'s.

    A prediction that ``model`` cannot rank, or whose rank differs from the
    file's (a selection made with another checkpoint), raises
    ConfigurationError naming the file and the prediction.
    """
    predictions = {}
    for entry in _load_selection(path):
        prediction, where = Triple(*entry["ids"]), f"selection {path}: prediction {entry['ids']}"
        try:
            got = rank(model, prediction, kg)
        except DomainError as exc:
            raise ConfigurationError(f"{where}: {exc}") from None
        if got != entry["rank"]:
            raise ConfigurationError(
                f"{where} has rank {got} under the checkpoint, not the selection's "
                f"{entry['rank']}: the selection was made with another checkpoint"
            )
        predictions[prediction] = got
    return predictions


def _latent_space(
    config: ExperimentConfig, kg: KnowledgeGraph, model
) -> SearchSpace:
    heldout = kg.eval_split("valid") or kg.eval_split("test")
    ensemble = calibrate_ensemble(model, kg, heldout, seed=config.latent_seed)
    sample = sample_latent_candidates(
        ensemble, kg, config.latent_epsilon, config.latent_budget, config.latent_seed
    )
    return SearchSpace("latent-sample", tuple(sample))


def cmd_explain(
    config: ExperimentConfig,
    checkpoint: str | Path,
    selection: str | Path,
    out: str | None = None,
    workers: int = 1,
) -> list[Path]:
    """One run file per (prediction, algorithm); existing valid files are kept.

    A checkpoint trained with a ``[training]`` configuration other than the
    INI's is a validation error naming each field that differs, and so is a
    selection whose ranks are not the checkpoint's (:func:`_ranked_selection`).

    One task per prediction runs every algorithm in order, from one search
    space, one c-sufficient target set and its own clone of the model, whose
    base no other worker thread (``workers``) replaces. An existing run file
    is kept only when :func:`read_run` accepts it as the run of its algorithm
    and prediction, made under this sweep's ``mode`` and ``config``; any
    other (truncated, malformed, of another prediction or setting) is logged
    by name and recomputed. Each task returns its runs' payloads.

    A failed (prediction, algorithm) run is logged and the remaining runs
    still go ahead; then ``runs/failures.json`` lists every failure
    (prediction index and ids, algorithm, exception class and message) and
    the command raises, so it exits 3. A run without failures removes a stale
    manifest. With simultaneous removal enabled, each algorithm's best
    necessary explanations are pooled from those payloads, removed in one
    shot, and a single retrained model produces every after-rank. A last
    line counts the run files written, resumed, recomputed and failed.
    """
    config.validate()
    if workers < 1:
        raise ConfigurationError(f"--workers must be >= 1, got {workers}")
    # full-retrain psi would otherwise measure a change of hyperparameters
    _check_train_config(checkpoint, config.train)
    out_dir = _prepare_output(config, out)
    runs_dir = out_dir / "runs"
    runs_dir.mkdir(exist_ok=True)
    kg = load_dataset(config.dataset_path)
    model = load_checkpoint(checkpoint, kg)
    predictions = _ranked_selection(selection, kg, model)

    latent = _latent_space(config, kg, model) if config.mode.startswith("latent-") else None
    tasks = [
        (i, p, latent or build_search_space(kg, config.explainer.search_space, p))
        for i, p in enumerate(predictions)
    ]

    settings = {"mode": config.mode} | asdict(config.explainer)

    def execute(task) -> list[tuple[str, Path, dict]]:
        """Each algorithm's status, run file, and payload or, on failure, manifest entry."""
        index, prediction, pred_space = task
        targets = None  # built for the first algorithm that runs, then shared
        task_model = model.clone()
        outcomes = []
        for algorithm in config.algorithms:
            path = runs_dir / f"run_{algorithm}_{index:04d}.json"
            status = "written"
            if path.exists():
                try:
                    payload = read_run(path, algorithm, prediction, settings)
                except ConfigurationError as exc:
                    logger.warning("recomputing %s: %s", path.name, exc)
                    status = "recomputed"
                else:
                    logger.info("run file %s already exists; skipping", path.name)
                    outcomes.append(("resumed", path, payload))
                    continue
            try:
                if targets is None and config.mode == "c-sufficient":
                    targets = build_target_set(
                        kg, model, prediction, config.targets_size, config.targets_seed
                    )
                run = explain(
                    kg, task_model, prediction, algorithm, config.mode, pred_space,
                    config.explainer, config.train, targets,
                )
            except KgExplainError as exc:
                logger.error("run failed for %s / %s: %s", prediction, algorithm, exc)
                outcomes.append(("failed", path, {
                    "index": index,
                    "prediction": list(prediction),
                    "algorithm": algorithm,
                    "error": type(exc).__name__,
                    "message": str(exc),
                }))
                continue
            _write_json(path, run)
            outcomes.append((status, path, run))
        return outcomes

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            grouped = list(pool.map(execute, tasks))
    else:
        grouped = [execute(task) for task in tasks]
    results = [outcome for outcomes in grouped for outcome in outcomes]
    done = [(path, payload) for status, path, payload in results if status != "failed"]
    failures = [payload for status, _, payload in results if status == "failed"]

    if config.simultaneous_removal and config.mode == "necessary":
        _simultaneous_removal(config, kg, model, predictions, runs_dir, [p for _, p in done])
    statuses = [status for status, *_ in results]
    logger.info(
        "explain: %d run files written, %d resumed, %d recomputed, %d failed",
        *map(statuses.count, ("written", "resumed", "recomputed", "failed")),
    )
    manifest = runs_dir / "failures.json"
    if not failures:
        manifest.unlink(missing_ok=True)
        return [path for path, _ in done]
    _write_json(manifest, {"failures": failures})
    raise KgExplainError(f"{len(failures)} of {len(results)} explain runs failed; see {manifest}")


def _simultaneous_removal(
    config: ExperimentConfig,
    kg: KnowledgeGraph,
    model,
    predictions: dict[Triple, int],
    runs_dir: Path,
    payloads: list[dict],
) -> None:
    """Pool each algorithm's best triples over ``payloads``, the sweep's kept and written runs."""
    for algorithm in config.algorithms:
        removed = {
            Triple(*t["ids"])
            for payload in payloads
            if payload["algorithm"] == algorithm and payload["best"]
            for t in payload["best"]["triples"]
        }
        if not removed:
            continue
        retrained = _retrained(
            kg, model, _rows_without(kg, frozenset(removed)), "full-retrain", config.train
        )
        checkpoint = runs_dir / f"simultaneous_{algorithm}_model.npz"
        save_checkpoint(retrained, kg, checkpoint, config.train)
        entries = [
            {
                "ids": list(prediction),
                "labels": list(kg.label_triple(prediction)),
                "rank_before": before,
                "rank_after": rank(retrained, prediction, kg),
            }
            for prediction, before in predictions.items()
        ]
        payload = {
            "algorithm": algorithm,
            "removed": sorted(list(t) for t in removed),
            "checkpoint": checkpoint.name,
            "after_ranks": entries,
        }
        path = runs_dir / f"simultaneous_{algorithm}.json"
        _write_json(path, payload)
        logger.info("simultaneous removal for %s: %d triples removed", algorithm, len(removed))


def _read_simultaneous(path: Path, algorithm: str) -> dict[Triple, tuple[float, float]]:
    """Each listed prediction's (rank_before, rank_after) in ``algorithm``'s simultaneous file.

    A file that is another algorithm's, holds no entry, or holds an entry
    without three-int ``ids`` and numeric ranks >= 1, raises
    ConfigurationError naming it.
    """
    data = load_json(path, "simultaneous-removal")
    entries = data.get("after_ranks") if isinstance(data, dict) else None

    def valid(entry) -> bool:
        return (
            _numbers(entry, "rank_before", "rank_after") and _three_ints(entry.get("ids"))
            and min(entry["rank_before"], entry["rank_after"]) >= 1
        )

    if not (
        isinstance(entries, list) and entries and data.get("algorithm") == algorithm
        and all(map(valid, entries))
    ):
        want = f"expected algorithm {algorithm!r} and a non-empty after_ranks list of"
        want += " {ids, rank_before, rank_after}, ids three integers, ranks numbers >= 1"
        raise ConfigurationError(f"not a simultaneous-removal file: {path} ({want})")
    return {Triple(*e["ids"]): (e["rank_before"], e["rank_after"]) for e in entries}


def cmd_evaluate(
    config: ExperimentConfig,
    selection: str | Path,
    runs_dir: str | Path,
    out: str | None = None,
    output_format: str = "json",
) -> Path:
    """Per-algorithm metrics reports plus the comparison table sorted by MDR.

    A row's (rank_before, rank_after) comes from one record: the prediction's
    simultaneous-removal entry, else its best candidate's ranks (the targets'
    mean ranks in mode ``c-sufficient``), else the selection's rank as both.
    Each report names the selection's cohort, ``rank-<[selection] cohort_rank>``.
    A run file that :func:`read_run` rejects, one made under another mode or
    ``[explain]`` config among them, is a validation error naming it.
    """
    config.validate()
    out_dir = _prepare_output(config, out)
    runs_dir = Path(runs_dir)
    kg = load_dataset(config.dataset_path)
    predictions = [(Triple(*entry["ids"]), entry["rank"]) for entry in _load_selection(selection)]
    settings = {"mode": config.mode} | asdict(config.explainer)

    summaries = []
    gaps: list[str] = []
    for algorithm in config.algorithms:
        simultaneous = runs_dir / f"simultaneous_{algorithm}.json"
        shot = _read_simultaneous(simultaneous, algorithm) if simultaneous.exists() else {}
        rank_rows, payloads = [], []
        for index, (prediction, selected) in enumerate(predictions):
            path = runs_dir / f"run_{algorithm}_{index:04d}.json"
            if not path.exists():
                gaps.append(path.name)
                continue
            payloads.append(read_run(path, algorithm, prediction, settings))
            best = payloads[-1]["best"]
            ranks = (best["rank_before"], best["rank_after"]) if best else (selected, selected)
            rank_rows.append(RankRow(prediction, *shot.get(prediction, ranks)))
        if not rank_rows:
            continue
        table = RankTable(tuple(rank_rows))
        report = emit_report(
            table, payloads, kg, out_dir / f"metrics_{algorithm}", f"rank-{config.cohort_rank}"
        )
        full = report["full_precision"]
        summaries.append(
            {
                "algorithm": algorithm,
                "mean_length": float(full.get("mean_explanation_length", 0.0)),
                "m_delta_r": float(full["m_delta_r"]),
                "mrr_before": float(full["mrr_before"]),
                "mrr_after": float(full["mrr_after"]),
                "hits1_after_pct": report["hits"]["1"]["pct_after"],
            }
        )
    if gaps:
        raise ConfigurationError("missing run files: " + ", ".join(sorted(gaps)))

    rows = comparison_table(summaries)
    path = out_dir / f"comparison.{output_format}"
    if output_format == "csv":
        header = list(rows[0]) if rows else []
        _write_csv(path, [header] + [[row[key] for key in header] for row in rows])
    else:
        _write_json(path, rows)
    logger.info("comparison written to %s", path)
    return path


def cmd_pareto(
    runs_dir: str | Path, out: str | Path, output_format: str = "json"
) -> Path:
    """Pool every evaluated candidate per algorithm and export the fronts."""
    runs_dir = Path(runs_dir)
    run_files = sorted(runs_dir.glob("run_*.json"))
    if not run_files:
        raise ConfigurationError(f"no run files found under {runs_dir}")
    by_algorithm: dict[str, list[dict]] = {}
    for path in run_files:
        algorithm = path.stem.removeprefix("run_").rsplit("_", 1)[0]
        payload = read_run(path, algorithm)
        by_algorithm.setdefault(algorithm, []).extend(payload["candidates"])

    fronts = {}
    for algorithm, candidates in sorted(by_algorithm.items()):
        points = [(float(c["length"]), float(c["psi"])) for c in candidates]
        fronts[algorithm] = sorted({p for p, keep in zip(points, non_dominated(points)) if keep})

    out = Path(out)
    out.parent.mkdir(parents=True, exist_ok=True)
    if output_format == "csv":
        _write_csv(out, [["algorithm", "length", "psi"]] + [
            [algorithm, length, f"{psi:.6g}"]
            for algorithm, points in fronts.items() for length, psi in points
        ])
    else:
        _write_json(out, {
            algo: [{"length": length, "psi": psi} for length, psi in points]
            for algo, points in fronts.items()
        })
    return out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kgexplain",
        description="Train embedding scorers, extract explanations, evaluate explainers.",
    )
    parser.add_argument("--seed-override", type=int, default=None)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a scorer and write a checkpoint")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--out", default=None)

    p_select = sub.add_parser("select", help="sample the evaluation set")
    p_select.add_argument("--config", required=True)
    p_select.add_argument("--checkpoint", required=True)
    p_select.add_argument("--out", default=None)

    p_explain = sub.add_parser("explain", help="run explainers per prediction")
    p_explain.add_argument("--config", required=True)
    p_explain.add_argument("--checkpoint", required=True)
    p_explain.add_argument("--selection", required=True)
    p_explain.add_argument("--out", default=None)
    p_explain.add_argument("--workers", type=int, default=1)

    p_eval = sub.add_parser("evaluate", help="metrics reports and comparison table")
    p_eval.add_argument("--config", required=True)
    p_eval.add_argument("--selection", required=True)
    p_eval.add_argument("--runs", required=True)
    p_eval.add_argument("--out", default=None)
    p_eval.add_argument("--format", choices=("json", "csv"), default="json")

    p_pareto = sub.add_parser("pareto", help="export pooled fronts from run files")
    p_pareto.add_argument("--runs", required=True)
    p_pareto.add_argument("--out", required=True)
    p_pareto.add_argument("--format", choices=("json", "csv"), default="json")
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="[%(levelname)s] %(message)s")
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "pareto":
            cmd_pareto(args.runs, args.out, args.format)
            return EXIT_OK
        config = parse_experiment_config(args.config, seed_override=args.seed_override)
        if args.command == "train":
            cmd_train(config, args.out)
        elif args.command == "select":
            cmd_select(config, args.checkpoint, args.out)
        elif args.command == "explain":
            cmd_explain(config, args.checkpoint, args.selection, args.out, args.workers)
        elif args.command == "evaluate":
            cmd_evaluate(config, args.selection, args.runs, args.out, args.format)
        return EXIT_OK
    except (ConfigurationError, DatasetParseError, DomainError) as exc:
        logger.error("validation error: %s", exc)
        return EXIT_VALIDATION
    except KgExplainError as exc:
        logger.error("runtime error: %s", exc)
        return EXIT_RUNTIME
    except OSError as exc:
        logger.error("i/o error: %s", exc)
        return EXIT_RUNTIME
    except MemoryError as exc:
        logger.error("runtime error: %s ran out of memory: %s", args.command, exc)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
