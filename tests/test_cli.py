"""Command-line workflow: train, select, explain, evaluate, pareto."""
from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import os
import re
import shutil
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kgexplain
from kgexplain import (
    ConfigurationError, DomainError, ExplainerConfig, TrainConfig, Triple, load_checkpoint,
    load_dataset, rank,
)
from kgexplain import cli, metrics, training
from kgexplain.cli import (
    EXIT_OK,
    EXIT_RUNTIME,
    EXIT_VALIDATION,
    cmd_evaluate,
    cmd_explain,
    cmd_pareto,
    cmd_select,
    cmd_train,
    main,
    parse_experiment_config,
)
from kgexplain.explainers import _front_and_best, read_run

from conftest import make_desk_kg, write_dataset


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Dataset on disk plus a config file pointing at it."""
    root = tmp_path_factory.mktemp("cli")
    kg = make_desk_kg(seed=51, clusters=3, size=8, heldout_per_cluster=3)
    rows = {
        "train": [kg.label_triple(t) for t in kg.train],
        "valid": [kg.label_triple(t) for t in kg.valid],
        "test": [kg.label_triple(t) for t in kg.test],
    }
    data = write_dataset(root / "data", rows["train"], rows["valid"], rows["test"])
    config_path = root / "experiment.ini"
    config_path.write_text(
        f"""[dataset]
path = {data}

[training]
dimension = 16
epochs = 40
learning_rate = 0.1
reg_weight = 0.001
batch_size = 256
seed = 17

[selection]
count = 3
seed = 5
cohort_rank = 1

[explain]
mode = necessary
algorithms = exhaustive-length-1, data-poisoning-direct
search_space = shares-entity
evaluator = post-train
post_train_epochs = 20
simultaneous_removal = true

[output]
directory = {root}/out
"""
    )
    return root, config_path


# Run files that parse but are not runs, each made from a valid run payload.
INVALID_RUNS = {
    "not-an-object": lambda run: [1],
    "best-without-triples": lambda run: {
        **run, "best": {k: v for k, v in run["best"].items() if k != "triples"}
    },
    "best-triples-a-number": lambda run: {**run, "best": {**run["best"], "triples": 5}},
    "best-without-rank-before": lambda run: {
        **run, "best": {k: v for k, v in run["best"].items() if k != "rank_before"}
    },
    "prediction-a-number": lambda run: {**run, "prediction": 5},
    "front-triples-a-number": lambda run: {**run, "front": [{**run["front"][0], "triples": 5}]},
    "front-triples-null": lambda run: {**run, "front": [{**run["front"][0], "triples": None}]},
    "front-point-of-no-candidate": lambda run: {
        **run, "front": [{**run["front"][0], "psi": run["front"][0]["psi"] + 0.5}]
    },
    "front-missing-a-point": lambda run: {**run, "front": run["front"][1:]},
    "best-not-the-argmax": lambda run: {
        **run, "best": next(c for c in run["candidates"] if c != run["best"])
    },
    "candidate-ids-a-number": lambda run: {
        **run, "candidates": [{**run["candidates"][0], "triples": [{"ids": 5}]}]
    },
    "algorithm-a-list": lambda run: {**run, "algorithm": [1]},
    "another-algorithm": lambda run: {**run, "algorithm": "criage-first-order"},
    "schema-version-1": lambda run: {**run, "schema_version": 1},
}

# Simultaneous-removal files that are not one, each made from a valid file of
# the same name (``own``) and the other algorithm's (``other``); a string is
# the file's text.
MALFORMED_SIMULTANEOUS = {
    "truncated": lambda own, other: json.dumps(own)[:40],
    "empty-object": lambda own, other: {},
    "list": lambda own, other: [1],
    "after-ranks-not-a-list": lambda own, other: {"after_ranks": 3},
    "entry-without-rank": lambda own, other: {"after_ranks": [{"ids": [0, 0, 1]}]},
    "ids-a-number": lambda own, other: {
        **own, "after_ranks": [{**own["after_ranks"][0], "ids": 5}]
    },
    "rank-after-a-string": lambda own, other: {
        **own, "after_ranks": [{**own["after_ranks"][0], "rank_after": "x"}]
    },
    "another-algorithms-file": lambda own, other: other,
    "entry-without-rank-before": lambda own, other: {
        **own,
        "after_ranks": [
            {k: v for k, v in entry.items() if k != "rank_before"} for entry in own["after_ranks"]
        ],
    },
}


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def trained(workspace):
    root, config_path = workspace
    config = parse_experiment_config(config_path)
    checkpoint = cmd_train(config, out=root / "out")
    return root, config_path, config, checkpoint


class TestTrain:
    def test_same_config_twice_yields_hash_equal_checkpoints(self, trained, tmp_path):
        root, config_path, config, checkpoint = trained
        second = cmd_train(parse_experiment_config(config_path), out=tmp_path / "again")
        assert sha(checkpoint) == sha(second)

    def test_missing_dataset_fails_validation_before_compute(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[dataset]\npath = /nowhere/at/all\n")
        assert main(["train", "--config", str(bad)]) == EXIT_VALIDATION
        assert not (tmp_path / "out").exists()

    def test_loss_curve_starts_monotone_decreasing(self, trained):
        root, *_ = trained
        lines = (root / "out" / "loss_curve.csv").read_text().strip().splitlines()
        nll = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(nll[i + 1] < nll[i] for i in range(10))

    def test_config_echoed_verbatim(self, trained, workspace):
        root, config_path, *_ = trained
        assert (root / "out" / "config_echo.ini").read_text() == config_path.read_text()


class TestSelect:
    def test_selection_respects_count_and_cohort(self, trained):
        root, config_path, config, checkpoint = trained
        path = cmd_select(config, checkpoint, out=root / "out")
        data = json.loads(path.read_text())
        assert len(data["triples"]) == 3
        assert all(entry["rank"] == 1 for entry in data["triples"])

    def test_fixed_seed_reproduces_selection(self, trained, tmp_path):
        root, config_path, config, checkpoint = trained
        a = cmd_select(config, checkpoint, out=tmp_path / "a")
        b = cmd_select(config, checkpoint, out=tmp_path / "b")
        assert a.read_text() == b.read_text()

    def test_count_zero_is_validation_error(self, trained, tmp_path):
        root, config_path, config, checkpoint = trained
        import dataclasses

        bad = dataclasses.replace(config, selection_count=0)
        from kgexplain import ConfigurationError

        with pytest.raises(ConfigurationError):
            cmd_select(bad, checkpoint, out=tmp_path / "x")

    def test_small_cohort_returns_all_members_with_warning(self, trained, tmp_path, caplog):
        root, config_path, config, checkpoint = trained
        import dataclasses

        greedy = dataclasses.replace(config, selection_count=10**6)
        with caplog.at_level("WARNING"):
            path = cmd_select(greedy, checkpoint, out=tmp_path / "y")
        data = json.loads(path.read_text())
        assert 0 < len(data["triples"]) < 10**6
        assert any("fewer than the requested" in r.message for r in caplog.records)


@pytest.fixture(scope="module")
def explained(trained):
    root, config_path, config, checkpoint = trained
    selection = cmd_select(config, checkpoint, out=root / "out")
    written = cmd_explain(config, checkpoint, selection, out=root / "out")
    return root, config, checkpoint, selection, written


class TestExplain:
    def test_one_run_file_per_prediction_and_algorithm(self, explained):
        root, config, checkpoint, selection, written = explained
        runs = sorted(p.name for p in (root / "out" / "runs").glob("run_*.json"))
        n = len(json.loads(selection.read_text())["triples"])
        assert len(runs) == n * len(config.algorithms)

    def test_resume_skips_existing_run_files(self, explained):
        root, config, checkpoint, selection, _ = explained
        target = next((root / "out" / "runs").glob("run_exhaustive*_0000.json"))
        original = target.read_text()
        sentinel = json.dumps({**json.loads(original), "sentinel": True})
        target.write_text(sentinel)
        try:
            cmd_explain(config, checkpoint, selection, out=root / "out")
            assert target.read_text() == sentinel  # untouched: a valid run of its name is kept
        finally:
            target.write_text(original)

    @pytest.mark.parametrize("case", sorted(INVALID_RUNS) + ["swapped-pair"])
    def test_invalid_run_file_is_recomputed_and_rejected(
        self, explained, tmp_path, caplog, case
    ):
        """A file that is not the run its name and index claim never counts.

        ``evaluate`` and ``pareto`` exit 2 naming it; ``explain`` recomputes
        it, names it, and writes the run it should have held.
        """
        root, config, checkpoint, selection, _ = explained
        runs = tmp_path / "out" / "runs"
        shutil.copytree(root / "out" / "runs", runs)
        victim, twin = (runs / f"run_exhaustive-length-1_000{i}.json" for i in (0, 1))
        originals = {path: json.loads(path.read_text()) for path in (victim, twin)}
        if case == "swapped-pair":
            victim.write_text(json.dumps(originals[twin]))
            twin.write_text(json.dumps(originals[victim]))
        else:
            victim.write_text(json.dumps(INVALID_RUNS[case](originals[victim])))
        ini = str(root / "experiment.ini")
        argv = [
            "evaluate", "--config", ini, "--selection", str(selection),
            "--runs", str(runs), "--out", str(tmp_path / "ev"),
        ]
        assert main(argv) == EXIT_VALIDATION
        assert victim.name in caplog.text
        caplog.clear()
        argv = ["pareto", "--runs", str(runs), "--out", str(tmp_path / "front.json")]
        if case == "swapped-pair":  # fronts pool each algorithm's runs, whatever their index
            assert main(argv) == EXIT_OK
        else:
            assert main(argv) == EXIT_VALIDATION
            assert victim.name in caplog.text
        caplog.clear()
        assert main(_explain_argv(ini, checkpoint, selection, tmp_path / "out")) == EXIT_OK
        recomputed = [victim, twin] if case == "swapped-pair" else [victim]
        for path in recomputed:
            assert f"recomputing {path.name}" in caplog.text
            rewritten, original = json.loads(path.read_text()), originals[path]
            for run in (rewritten, original):
                run["counters"].pop("wall_clock_s")
            assert rewritten == original

    def test_unreadable_run_file_is_recomputed(self, explained, tmp_path, caplog):
        root, config, checkpoint, selection, _ = explained
        runs = tmp_path / "out" / "runs"
        shutil.copytree(root / "out" / "runs", runs)
        victim = sorted(runs.glob("run_*.json"))[0]
        original = json.loads(victim.read_text())
        victim.write_text(victim.read_text()[:100])
        ini = str(root / "experiment.ini")
        argv = [
            "explain", "--config", ini, "--checkpoint", str(checkpoint),
            "--selection", str(selection), "--out", str(tmp_path / "out"),
        ]
        assert main(argv) == EXIT_OK
        assert victim.name in caplog.text
        rewritten = json.loads(victim.read_text())
        original["counters"].pop("wall_clock_s")
        rewritten["counters"].pop("wall_clock_s")
        assert rewritten == original
        argv = [
            "evaluate", "--config", ini, "--selection", str(selection),
            "--runs", str(runs), "--out", str(tmp_path / "ev"),
        ]
        assert main(argv) == EXIT_OK

    def test_run_made_under_another_explain_config_is_recomputed(self, explained, tmp_path, caplog):
        root, config, checkpoint, selection, _ = explained
        runs = tmp_path / "out" / "runs"
        shutil.copytree(root / "out" / "runs", runs)
        ini = tmp_path / "fewer-epochs.ini"
        text = (root / "experiment.ini").read_text()
        ini.write_text(text.replace("post_train_epochs = 20", "post_train_epochs = 2"))
        assert main(_explain_argv(ini, checkpoint, selection, tmp_path / "out")) == EXIT_OK
        paths = sorted(runs.glob("run_*.json"))
        assert len(paths) == len(json.loads(selection.read_text())["triples"]) * 2
        for path in paths:
            assert json.loads(path.read_text())["config"]["post_train_epochs"] == 2
            assert f"recomputing {path.name}: made under another [explain] post_train_epochs" in (
                caplog.text
            )

    def test_worker_pool_produces_identical_run_files(self, explained, tmp_path):
        root, config, checkpoint, selection, _ = explained
        serial_dir = root / "out" / "runs"
        cmd_explain(config, checkpoint, selection, out=tmp_path / "par", workers=2)
        for serial in sorted(serial_dir.glob("run_*.json")):
            parallel = tmp_path / "par" / "runs" / serial.name
            a = json.loads(serial.read_text())
            b = json.loads(parallel.read_text())
            a["counters"].pop("wall_clock_s")
            b["counters"].pop("wall_clock_s")
            assert a == b

    def test_worker_threads_fill_one_context_per_prediction(
        self, explained, tmp_path, monkeypatch
    ):
        root, config, checkpoint, selection, _ = explained
        fills = []
        set_mask = training._BaseModel.set_mask

        def counting(base, *args):
            before = base.latest
            words = set_mask(base, *args)
            if base.latest is not before:
                fills.append(base.latest[0])
            return words

        monkeypatch.setattr(training._BaseModel, "set_mask", counting)
        cmd_explain(config, checkpoint, selection, out=tmp_path / "par", workers=2)
        assert len(fills) == len(set(fills)) == len(json.loads(selection.read_text())["triples"])
        for serial in sorted((root / "out" / "runs").glob("run_*.json")):
            a = json.loads(serial.read_text())
            b = json.loads((tmp_path / "par" / "runs" / serial.name).read_text())
            a["counters"].pop("wall_clock_s")
            b["counters"].pop("wall_clock_s")
            assert a == b

    def test_last_line_counts_written_resumed_recomputed_and_failed_runs(
        self, explained, tmp_path, monkeypatch, caplog
    ):
        root, config, checkpoint, selection, _ = explained
        runs = tmp_path / "out" / "runs"
        shutil.copytree(root / "out" / "runs", runs)
        truncated, missing, failing = sorted(runs.glob("run_*.json"))[:3]
        truncated.write_text(truncated.read_text()[:100])
        missing.unlink()
        failing.unlink()
        algorithm, index = failing.stem.removeprefix("run_").rsplit("_", 1)
        prediction = Triple(*json.loads(selection.read_text())["triples"][int(index)]["ids"])
        explain = cli.explain

        def run(kg, model, *task):
            if task[:2] == (prediction, algorithm):
                raise DomainError("forced failure")
            return explain(kg, model, *task)

        monkeypatch.setattr(cli, "explain", run)
        with caplog.at_level("INFO"), pytest.raises(kgexplain.KgExplainError):
            cmd_explain(config, checkpoint, selection, out=tmp_path / "out")
        summary = "explain: 1 run files written, 3 resumed, 1 recomputed, 1 failed"
        assert caplog.records[-1].getMessage() == summary

    def test_simultaneous_removal_reuses_one_retrained_model(self, explained):
        root, config, checkpoint, selection, _ = explained
        runs_dir = root / "out" / "runs"
        payload = json.loads((runs_dir / "simultaneous_exhaustive-length-1.json").read_text())
        kg = load_dataset(config.dataset_path)
        retrained = load_checkpoint(runs_dir / payload["checkpoint"], kg)
        # every after-rank must come from that single retrained model
        for entry in payload["after_ranks"]:
            assert rank(retrained, Triple(*entry["ids"]), kg) == entry["rank_after"]
        removed = {Triple(*ids) for ids in payload["removed"]}
        assert removed and removed <= kg.train_set


class TestEvaluate:
    def test_truncated_run_file_is_validation_error_naming_it(self, explained, tmp_path, caplog):
        root, config, checkpoint, selection, _ = explained
        runs = tmp_path / "runs"
        shutil.copytree(root / "out" / "runs", runs)
        victim = sorted(runs.glob("run_*.json"))[0]
        victim.write_text(victim.read_text()[:100])
        argv = [
            "evaluate", "--config", str(root / "experiment.ini"), "--selection", str(selection),
            "--runs", str(runs), "--out", str(tmp_path / "ev"),
        ]
        assert main(argv) == EXIT_VALIDATION
        assert victim.name in caplog.text
        caplog.clear()
        argv = ["pareto", "--runs", str(runs), "--out", str(tmp_path / "front.json")]
        assert main(argv) == EXIT_VALIDATION
        assert victim.name in caplog.text

    def test_parsed_file_that_is_not_a_run_is_validation_error_naming_it(
        self, explained, tmp_path, caplog
    ):
        root, config, checkpoint, selection, _ = explained
        runs = tmp_path / "runs"
        shutil.copytree(root / "out" / "runs", runs)
        victim = sorted(runs.glob("run_*.json"))[0]
        run = json.loads(victim.read_text())
        assert run["candidates"] and run["best"] and run["front"]
        candidate, point = run["candidates"][0], run["front"][0]
        relabelled = [{**c, "length": 3} for c in run["candidates"]]  # each holds one triple
        front, best = _front_and_best(relabelled)
        malformed = [
            {**run, "candidates": relabelled, "front": front, "best": best},
            {"sentinel": True},
            {**run, "candidates": [{k: v for k, v in candidate.items() if k != "length"}]},
            {**run, "candidates": {"length": 1, "psi": 0}},
            {**run, "candidates": [{**candidate, "psi": "high"}]},
            {**run, "best": {"length": 1}},
            {**run, "best": [1]},
            {**run, "front": [{k: v for k, v in point.items() if k != "psi"}]},
        ]
        for payload in malformed:
            victim.write_text(json.dumps(payload))
            argv = [
                "evaluate", "--config", str(root / "experiment.ini"), "--selection",
                str(selection), "--runs", str(runs), "--out", str(tmp_path / "ev"),
            ]
            caplog.clear()
            assert main(argv) == EXIT_VALIDATION, payload
            assert victim.name in caplog.text
            caplog.clear()
            argv = ["pareto", "--runs", str(runs), "--out", str(tmp_path / "front.json")]
            assert main(argv) == EXIT_VALIDATION, payload
            assert victim.name in caplog.text

    @pytest.mark.parametrize("case", MALFORMED_SIMULTANEOUS)
    def test_malformed_simultaneous_file_is_validation_error_naming_it(
        self, explained, tmp_path, caplog, case
    ):
        root, config, checkpoint, selection, _ = explained
        runs = tmp_path / "runs"
        shutil.copytree(root / "out" / "runs", runs)
        victim, other = sorted(runs.glob("simultaneous_*.json"))
        own, other = (json.loads(path.read_text()) for path in (victim, other))
        malformed = MALFORMED_SIMULTANEOUS[case](own, other)
        victim.write_text(malformed if isinstance(malformed, str) else json.dumps(malformed))
        argv = [
            "evaluate", "--config", str(root / "experiment.ini"), "--selection", str(selection),
            "--runs", str(runs), "--out", str(tmp_path / "ev"),
        ]
        assert main(argv) == EXIT_VALIDATION
        assert victim.name in caplog.text and "run file" not in caplog.text

    def test_each_report_is_built_once(self, explained, tmp_path, monkeypatch):
        root, config, checkpoint, selection, _ = explained
        built = []
        build = metrics.build_metrics_report

        def counted(table, *args):
            built.append(table)
            return build(table, *args)

        monkeypatch.setattr(metrics, "build_metrics_report", counted)
        # a direct call from the command counts as well as one through emit_report
        monkeypatch.setattr(cli, "build_metrics_report", counted, raising=False)
        cmd_evaluate(config, selection, root / "out" / "runs", out=tmp_path / "ev")
        assert len(built) == len(config.algorithms)

    def test_c_sufficient_rows_are_the_best_candidates_mean_target_ranks(
        self, explained, tmp_path
    ):
        root, _, checkpoint, selection, _ = explained
        text = (root / "experiment.ini").read_text()
        text = text.replace("mode = necessary", "mode = c-sufficient")
        text = text.replace("exhaustive-length-1, data-poisoning-direct", "exhaustive-length-1")
        text = text.replace("post_train_epochs = 20", "post_train_epochs = 2")
        path = tmp_path / "c-sufficient.ini"
        path.write_text(text + "\n[targets]\nsize = 2\n")
        out = tmp_path / "out"
        assert main(_explain_argv(path, checkpoint, selection, out)) == EXIT_OK
        argv = [
            "evaluate", "--config", str(path), "--selection", str(selection),
            "--runs", str(out / "runs"), "--out", str(out),
        ]
        assert main(argv) == EXIT_OK
        bests = [json.loads(p.read_text())["best"] for p in sorted((out / "runs").glob("run_*"))]
        assert all(bests)
        with (out / "metrics_exhaustive-length-1" / "report_per_triple.csv").open() as fh:
            rows = [(float(r["rank_before"]), float(r["rank_after"])) for r in csv.DictReader(fh)]
        assert rows == [(best["rank_before"], best["rank_after"]) for best in bests]
        (summary,) = json.loads((out / "comparison.json").read_text())
        assert summary["m_delta_r"] == pytest.approx(-np.mean([b["psi"] for b in bests]), abs=1e-12)

    def test_reports_and_comparison_written(self, explained, tmp_path):
        root, config, checkpoint, selection, _ = explained
        path = cmd_evaluate(config, selection, root / "out" / "runs", out=tmp_path / "ev")
        rows = json.loads(path.read_text())
        assert {r["algorithm"] for r in rows} == set(config.algorithms)
        mdrs = [r["m_delta_r"] for r in rows]
        assert mdrs == sorted(mdrs, reverse=True)
        for algorithm in config.algorithms:
            report = json.loads((tmp_path / "ev" / f"metrics_{algorithm}" / "report.json").read_text())
            assert report["cohort"] == f"rank-{config.cohort_rank}"

    def test_flags_agree_with_dominance_oracle(self, explained, tmp_path):
        root, config, checkpoint, selection, _ = explained
        path = cmd_evaluate(config, selection, root / "out" / "runs", out=tmp_path / "ev2")
        rows = json.loads(path.read_text())
        for row in rows:
            dominated = any(
                other["mean_length"] <= row["mean_length"]
                and other["m_delta_r"] >= row["m_delta_r"]
                and (
                    other["mean_length"] < row["mean_length"]
                    or other["m_delta_r"] > row["m_delta_r"]
                )
                for other in rows
                if other is not row
            )
            assert row["pareto_optimal"] == (not dominated)

    def test_byte_identical_reports_across_reruns(self, explained, tmp_path):
        root, config, checkpoint, selection, _ = explained
        a = cmd_evaluate(config, selection, root / "out" / "runs", out=tmp_path / "r1")
        b = cmd_evaluate(config, selection, root / "out" / "runs", out=tmp_path / "r2")
        assert a.read_bytes() == b.read_bytes()
        for report in sorted((tmp_path / "r1").rglob("report*.json")):
            twin = tmp_path / "r2" / report.relative_to(tmp_path / "r1")
            assert report.read_bytes() == twin.read_bytes()

    def test_csv_format_holds_the_json_rows(self, explained, tmp_path):
        root, config, checkpoint, selection, _ = explained
        argv = [
            "evaluate", "--config", str(root / "experiment.ini"), "--selection", str(selection),
            "--runs", str(root / "out" / "runs"), "--out",
        ]
        assert main([*argv, str(tmp_path / "json")]) == EXIT_OK
        assert main([*argv, str(tmp_path / "csv"), "--format", "csv"]) == EXIT_OK
        rows = json.loads((tmp_path / "json" / "comparison.json").read_text())
        with (tmp_path / "csv" / "comparison.csv").open(newline="") as fh:
            assert list(csv.DictReader(fh)) == [{k: str(v) for k, v in r.items()} for r in rows]
        assert len(rows) == len(config.algorithms)

    def test_missing_runs_reported_as_gaps(self, explained, tmp_path):
        root, config, checkpoint, selection, _ = explained
        from kgexplain import ConfigurationError

        with pytest.raises(ConfigurationError, match="missing run files"):
            cmd_evaluate(config, selection, tmp_path / "empty_runs", out=tmp_path / "ev3")


class TestPareto:
    def test_front_export(self, explained, tmp_path):
        root, config, checkpoint, selection, _ = explained
        out = tmp_path / "front.json"
        cmd_pareto(root / "out" / "runs", out)
        fronts = json.loads(out.read_text())
        assert set(fronts) <= set(config.algorithms)
        for points in fronts.values():
            psis = [p["psi"] for p in points]
            lengths = [p["length"] for p in points]
            assert lengths == sorted(lengths)
            # along the front, longer explanations must be strictly more effective
            assert all(b > a for a, b in zip(psis, psis[1:]))

    def test_csv_format(self, explained, tmp_path):
        root, config, checkpoint, selection, _ = explained
        out = tmp_path / "front.csv"
        assert main(["pareto", "--runs", str(root / "out" / "runs"), "--out", str(out), "--format", "csv"]) == EXIT_OK
        header = out.read_text().splitlines()[0]
        assert header == "algorithm,length,psi"


@pytest.mark.parametrize("command", ["train", "select", "explain", "evaluate", "pareto"])
def test_interrupted_command_leaves_every_output_as_it_was(
    explained, tmp_path, monkeypatch, command
):
    root, config, checkpoint, selection, _ = explained
    ini, runs, out = root / "experiment.ini", root / "out" / "runs", tmp_path / "out"
    reports = ("report.json", "report_per_triple.csv", "report_pareto.csv")
    argv, written = {
        "train": (["train", "--config", ini], ["checkpoint.npz", "loss_curve.csv"]),
        "select": (["select", "--config", ini, "--checkpoint", checkpoint], ["selection.json"]),
        "explain": (
            ["explain", "--config", ini, "--checkpoint", checkpoint, "--selection", selection],
            [f"runs/{path.name}" for path in runs.iterdir()],
        ),
        "evaluate": (
            ["evaluate", "--config", ini, "--selection", selection, "--runs", runs],
            ["comparison.json"] + [f"metrics_{a}/{r}" for a in config.algorithms for r in reports],
        ),
        "pareto": (["pareto", "--runs", runs], []),
    }[command]
    if command == "pareto":
        argv += ["--out", out / "front.json"]
        written.append("front.json")
    else:
        argv += ["--out", out]
        written.append("config_echo.ini")
    sentinels = {out / name: f"sentinel {name}".encode() for name in written}
    for path, data in sentinels.items():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)

    def killed(src, dst):
        raise KeyboardInterrupt

    monkeypatch.setattr(os, "replace", killed)
    with pytest.raises(KeyboardInterrupt):
        main([str(arg) for arg in argv])
    # every output still holds its sentinel, and no temporary sibling is left
    assert {path: path.read_bytes() for path in out.rglob("*") if path.is_file()} == sentinels


def test_every_output_has_the_mode_a_plain_open_gives(explained):
    root, *_ = explained
    out = root / "out"
    probe = out / "probe.txt"
    with open(probe, "w"):
        pass
    mode = stat.S_IMODE(probe.stat().st_mode)
    probe.unlink()
    modes = {
        path.relative_to(out).as_posix(): stat.S_IMODE(path.stat().st_mode)
        for path in out.rglob("*") if path.is_file()
    }
    assert any(name.startswith("runs/run_") for name in modes)
    assert modes == dict.fromkeys(modes, mode)


class TestSeedOverride:
    def test_override_applies_to_all_stages(self, workspace):
        root, config_path = workspace
        config = parse_experiment_config(config_path, seed_override=99)
        assert config.train.seed == 99
        assert config.selection_seed == 99


@pytest.mark.parametrize(
    "content",
    [
        "{not json", "{}", "[]", '{"triples": [{"ids": [0, 1], "rank": 1}]}',
        '{"triples": [{"ids": [0, 0, 1], "rank": 1}, {"ids": [0, 0, 1], "rank": 2}]}',
    ],
    ids=["not-json", "empty-object", "list", "two-ids", "listed-twice"],
)
@pytest.mark.parametrize("command", ["explain", "evaluate"])
def test_malformed_selection_file_is_validation_error_naming_it(
    explained, tmp_path, caplog, command, content
):
    root, config, checkpoint, selection, _ = explained
    bad = tmp_path / "selection.json"
    bad.write_text(content)
    argv = [command, "--config", str(root / "experiment.ini"), "--selection", str(bad)]
    if command == "explain":
        argv += ["--checkpoint", str(checkpoint), "--out", str(tmp_path / "out")]
    else:
        argv += ["--runs", str(root / "out" / "runs"), "--out", str(tmp_path / "ev")]
    assert main(argv) == EXIT_VALIDATION
    assert str(bad) in caplog.text
    assert not list(tmp_path.rglob("run_*.json"))


@pytest.mark.parametrize("workers", [0, -2])
def test_workers_below_one_is_validation_error_naming_the_flag(
    explained, tmp_path, caplog, workers
):
    root, config, checkpoint, selection, _ = explained
    argv = [
        "explain", "--config", str(root / "experiment.ini"), "--checkpoint", str(checkpoint),
        "--selection", str(selection), "--out", str(tmp_path / "out"), "--workers", str(workers),
    ]
    assert main(argv) == EXIT_VALIDATION
    assert "--workers" in caplog.text
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "mode, algorithm, rejected",
    [
        ("sufficient", "data-poisoning-direct", True),
        ("latent-positive", "criage-first-order", True),
        ("latent-negative", "variable-length-builder", True),
        ("c-sufficient", "variable-length-builder", False),
    ],
)
def test_unsupported_mode_algorithm_pair_is_validation_error(
    workspace, tmp_path, caplog, mode, algorithm, rejected
):
    root, config_path = workspace
    text = config_path.read_text().replace("mode = necessary", f"mode = {mode}")
    text = text.replace("exhaustive-length-1, data-poisoning-direct", algorithm)
    path = tmp_path / "pair.ini"
    path.write_text(text)
    if not rejected:
        parse_experiment_config(path).validate()
        return
    argv = ["explain", "--config", str(path), "--checkpoint", "none.npz", "--selection", "none.json"]
    assert main(argv) == EXIT_VALIDATION
    assert repr(algorithm) in caplog.text and repr(mode) in caplog.text


@pytest.mark.parametrize("mode", ["necessary", "sufficient"])
def test_unknown_evaluator_is_validation_error(explained, tmp_path, caplog, mode):
    root, config, checkpoint, selection, _ = explained
    text = (root / "experiment.ini").read_text()
    text = text.replace("evaluator = post-train", "evaluator = post_train")
    text = text.replace("mode = necessary", f"mode = {mode}")
    text = text.replace("exhaustive-length-1, data-poisoning-direct", "exhaustive-length-1")
    path = tmp_path / "typo.ini"
    path.write_text(text)
    argv = [
        "explain", "--config", str(path), "--checkpoint", str(checkpoint),
        "--selection", str(selection), "--out", str(tmp_path / "out"),
    ]
    assert main(argv) == EXIT_VALIDATION
    assert "unknown evaluator: 'post_train'" in caplog.text
    assert not (tmp_path / "out" / "runs").exists()


def test_readme_ini_block_parses(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "readme.ini"
    path.write_text(block)
    config = parse_experiment_config(path)
    config.train.validate()
    config.explainer.validate()
    assert config.explainer.post_train_epochs == 30
    assert config.simultaneous_removal


@pytest.mark.parametrize(
    "case",
    [
        "ini-value", "ini-no-section", "ini-unknown-key", "ini-cohort-rank-zero",
        "ini-post-train-epochs-under-full-retrain", "ini-post-train-epochs-0",
        "ini-post-train-epochs--1", "ini-max-length-5", "ini-boolean-misspelt",
        "ini-search-space-unknown", "ini-algorithm-repeated",
        "ini-latent-epsilon-1.5", "ini-latent-budget-0",
        "checkpoint-truncated", "checkpoint-foreign", "checkpoint-without-train-config",
    ],
)
def test_malformed_input_file_is_validation_error_naming_it(trained, tmp_path, caplog, case):
    root, config_path, config, checkpoint = trained
    bad = tmp_path / "bad"
    out = str(tmp_path / "out")
    argv = ["train", "--config", str(bad), "--out", out]
    if case == "ini-value":
        bad.write_text(config_path.read_text().replace("dimension = 16", "dimension = abc"))
        expected = ("[training]", "dimension")
    elif case == "ini-no-section":
        bad.write_text("path = data\n")
        expected = (str(bad),)
    elif case == "ini-unknown-key":
        bad.write_text(config_path.read_text().replace("post_train_epochs", "post_train_epoch"))
        expected = (str(bad), "[explain] post_train_epoch")
    elif case == "ini-cohort-rank-zero":
        bad.write_text(config_path.read_text().replace("cohort_rank = 1", "cohort_rank = 0"))
        argv = ["select", "--config", str(bad), "--checkpoint", str(checkpoint), "--out", out]
        expected = ("[selection] cohort_rank",)
    elif case == "ini-post-train-epochs-under-full-retrain":
        text = config_path.read_text()
        bad.write_text(text.replace("evaluator = post-train", "evaluator = full-retrain"))
        expected = ("post_train_epochs", "evaluator 'full-retrain'")
    elif case.startswith("ini-post-train-epochs-"):
        epochs = case.removeprefix("ini-post-train-epochs-")
        text = config_path.read_text()
        bad.write_text(text.replace("post_train_epochs = 20", f"post_train_epochs = {epochs}"))
        expected = ("post_train_epochs must be >= 1",)
    elif case == "ini-max-length-5":  # only the builder reads max_length
        text = config_path.read_text().replace("data-poisoning-direct", "variable-length-builder")
        bad.write_text(text.replace("[explain]\n", "[explain]\nmax_length = 5\n"))
        selection = cmd_select(config, checkpoint, out=tmp_path / "selected")
        argv = _explain_argv(bad, checkpoint, selection, out)
        expected = ("max_length must lie in [1, 4]",)
    elif case == "ini-boolean-misspelt":  # used to read as false
        text = config_path.read_text()
        bad.write_text(text.replace("simultaneous_removal = true", "simultaneous_removal = ture"))
        expected = ("[explain] simultaneous_removal", "ture")
    elif case == "ini-search-space-unknown":  # used to fail only in explain, and never latent
        text = config_path.read_text().replace("mode = necessary", "mode = latent-positive")
        text = text.replace("exhaustive-length-1, data-poisoning-direct", "exhaustive-length-1")
        bad.write_text(text.replace("search_space = shares-entity", "search_space = shares_entity"))
        expected = ("unknown search-space preset: 'shares_entity'",)
    elif case == "ini-algorithm-repeated":  # used to run the simultaneous removal twice
        text = config_path.read_text()
        twice = "data-poisoning-direct, data-poisoning-direct"
        bad.write_text(text.replace("exhaustive-length-1, data-poisoning-direct", twice))
        selection = cmd_select(config, checkpoint, out=tmp_path / "selected")
        argv = _explain_argv(bad, checkpoint, selection, out)
        expected = ("[explain] algorithms", "'data-poisoning-direct' twice")
    elif case.startswith("ini-latent-"):  # used to fail only in explain, after calibration
        key, value = case.removeprefix("ini-latent-").split("-")
        bad.write_text(config_path.read_text() + f"\n[latent]\n{key} = {value}\n")
        expected = (f"[latent] {key}",)
    else:
        if case == "checkpoint-truncated":
            blob = checkpoint.read_bytes()
            bad.write_bytes(blob[: len(blob) // 2])
        elif case == "checkpoint-foreign":
            with bad.open("wb") as fh:
                np.savez(fh, weights=np.zeros(3))
        else:  # the format written before checkpoints stored their training config
            with np.load(checkpoint) as data:
                arrays = {name: data[name] for name in data.files}
            meta = json.loads(str(arrays["meta"]))
            del meta["train_config"]
            with bad.open("wb") as fh:
                np.savez(fh, **arrays | {"meta": np.array(json.dumps(meta, sort_keys=True))})
        argv = ["select", "--config", str(config_path), "--checkpoint", str(bad), "--out", out]
        expected = (str(bad),)
    assert main(argv) == EXIT_VALIDATION
    assert all(text in caplog.text for text in expected)
    assert not list(Path(out).glob("runs/run_*.json"))
    if case == "checkpoint-without-train-config":
        caplog.clear()
        explain = _explain_argv(config_path, bad, tmp_path / "none.json", out)
        assert main(explain) == EXIT_VALIDATION
        assert str(bad) in caplog.text and "train_config" in caplog.text


def test_dimension_no_memory_can_hold_is_runtime_error_naming_the_command(
    trained, tmp_path, caplog
):
    # an entity table of 2**46 columns takes petabytes, far above any address space, so the
    # allocation fails at once and nothing is allocated
    root, config_path, _, _ = trained
    bad = tmp_path / "bad.ini"
    bad.write_text(config_path.read_text().replace("dimension = 16", f"dimension = {2**45}"))
    out = tmp_path / "out"
    assert main(["train", "--config", str(bad), "--out", str(out)]) == EXIT_RUNTIME
    assert "train ran out of memory" in caplog.text
    assert not (out / "checkpoint.npz").exists()


def test_cli_import_leaves_scipy_optimize_unloaded(explained, tmp_path):
    src = str(Path(kgexplain.__file__).resolve().parents[1])
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import kgexplain.cli; "
        "print('scipy.optimize' in sys.modules)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, src], capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "False"

    # nor does a latent explain, the one command that calibrates
    root, _, checkpoint, selection, _ = explained
    text = (root / "experiment.ini").read_text().replace("mode = necessary", "mode = latent-negative")
    text = text.replace("exhaustive-length-1, data-poisoning-direct", "exhaustive-length-1")
    text = text.replace("post_train_epochs = 20", "post_train_epochs = 2")
    path = tmp_path / "latent.ini"
    path.write_text(text + "\n[latent]\nbudget = 3\n")
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); from kgexplain.cli import main; "
        "print(main(sys.argv[2:]), [m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    )
    argv = _explain_argv(path, checkpoint, selection, tmp_path / "out")
    done = subprocess.run(
        [sys.executable, "-c", code, src, *argv], capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == f"{EXIT_OK} []"
    assert list((tmp_path / "out" / "runs").glob("run_exhaustive-length-1_*.json"))


def _explain_argv(config_path, checkpoint, selection, out):
    return [
        "explain", "--config", str(config_path), "--checkpoint", str(checkpoint),
        "--selection", str(selection), "--out", str(out),
    ]


class TestTrainingConfigPairing:
    def test_checkpoint_stores_the_training_config(self, trained):
        _, _, config, checkpoint = trained
        with np.load(checkpoint) as data:
            meta = json.loads(str(data["meta"]))
        assert meta["train_config"] == dataclasses.asdict(config.train)

    def test_explain_with_another_training_config_is_validation_error_naming_fields(
        self, explained, tmp_path, caplog
    ):
        root, _, checkpoint, selection, _ = explained
        other = tmp_path / "other.ini"
        text = (root / "experiment.ini").read_text()
        other.write_text(
            text.replace("epochs = 40", "epochs = 41").replace("batch_size = 256", "batch_size = 128")
        )
        out = tmp_path / "out"
        assert main(_explain_argv(other, checkpoint, selection, out)) == EXIT_VALIDATION
        assert "epochs (checkpoint 40, config 41)" in caplog.text
        assert "batch_size (checkpoint 256, config 128)" in caplog.text
        assert "seed (" not in caplog.text and str(checkpoint) in caplog.text
        assert not out.exists()


class TestSelectionRanks:
    """``explain`` runs a selection only with the checkpoint whose ranks it lists."""

    def test_a_selection_made_with_another_checkpoint_is_validation_error_naming_it(
        self, explained, tmp_path, caplog
    ):
        root, _, _, selection, _ = explained
        other = tmp_path / "other.ini"
        other.write_text((root / "experiment.ini").read_text().replace("seed = 17", "seed = 18"))
        config = parse_experiment_config(other)
        checkpoint = cmd_train(config, out=tmp_path / "trained")
        kg = load_dataset(config.dataset_path)
        model = load_checkpoint(checkpoint, kg)
        listed = json.loads(selection.read_text())["triples"]
        moved = [e["ids"] for e in listed if rank(model, Triple(*e["ids"]), kg) != e["rank"]]
        assert moved  # the two checkpoints rank some selected prediction differently
        out = tmp_path / "out"
        assert main(_explain_argv(other, checkpoint, selection, out)) == EXIT_VALIDATION
        assert f"selection {selection}: prediction {moved[0]} has rank" in caplog.text
        assert not list(out.rglob("run_*.json"))

    def test_a_prediction_the_checkpoint_cannot_rank_is_validation_error_naming_it(
        self, explained, tmp_path, caplog
    ):
        root, _, checkpoint, selection, _ = explained
        bad = tmp_path / "selection.json"
        data = json.loads(selection.read_text())
        data["triples"].append({"ids": [0, 0, 10**6], "rank": 1})
        bad.write_text(json.dumps(data))
        out = tmp_path / "out"
        assert main(_explain_argv(root / "experiment.ini", checkpoint, bad, out)) == EXIT_VALIDATION
        assert f"selection {bad}: prediction [0, 0, 1000000]: entity id out of range" in caplog.text
        assert not list(out.rglob("run_*.json")) and not (out / "runs" / "failures.json").exists()


def test_failed_task_goes_to_the_failures_manifest_and_explain_exits_3(
    explained, tmp_path, monkeypatch, caplog
):
    root, config, checkpoint, selection, _ = explained
    first = Triple(*json.loads(selection.read_text())["triples"][0]["ids"])
    explain = cli.explain

    def failing(kg, model, prediction, algorithm, *rest):
        if prediction == first and algorithm == "data-poisoning-direct":
            raise DomainError("forced failure")
        return explain(kg, model, prediction, algorithm, *rest)

    monkeypatch.setattr(cli, "explain", failing)
    out = tmp_path / "out"
    argv = _explain_argv(root / "experiment.ini", checkpoint, selection, out)
    assert main(argv) == EXIT_RUNTIME
    manifest = out / "runs" / "failures.json"
    assert json.loads(manifest.read_text()) == {
        "failures": [
            {
                "index": 0,
                "prediction": list(first),
                "algorithm": "data-poisoning-direct",
                "error": "DomainError",
                "message": "forced failure",
            }
        ]
    }
    assert "failures.json" in caplog.text
    # the remaining tasks all ran, and the simultaneous removal after them
    expected = sorted(p.name for p in (root / "out" / "runs").glob("run_*.json"))
    written = sorted(p.name for p in (out / "runs").glob("run_*.json"))
    assert written == [name for name in expected if name != "run_data-poisoning-direct_0000.json"]
    assert (out / "runs" / "simultaneous_exhaustive-length-1.json").exists()
    # pareto reads only run files, so the manifest does not disturb it
    assert main(["pareto", "--runs", str(out / "runs"), "--out", str(tmp_path / "f.json")]) == EXIT_OK

    monkeypatch.setattr(cli, "explain", explain)
    assert main(argv) == EXIT_OK
    assert not manifest.exists()


@pytest.mark.parametrize(
    "mode, algorithms",
    [
        ("necessary", "exhaustive-length-1, data-poisoning-direct, criage-first-order"),
        ("sufficient", "exhaustive-length-1, variable-length-builder"),
        ("c-sufficient", "exhaustive-length-1, variable-length-builder"),
        ("latent-negative", "exhaustive-length-1"),
    ],
)
def test_every_run_file_a_sweep_writes_passes_the_reader(
    explained, tmp_path, mode, algorithms
):
    root, _, checkpoint, selection, _ = explained
    text = (root / "experiment.ini").read_text().replace("mode = necessary", f"mode = {mode}")
    text = text.replace("exhaustive-length-1, data-poisoning-direct", algorithms)
    text = text.replace("post_train_epochs = 20", "post_train_epochs = 2")
    path = tmp_path / f"{mode}.ini"
    path.write_text(text + "\n[targets]\nsize = 2\n\n[latent]\nbudget = 3\n")
    assert main(_explain_argv(path, checkpoint, selection, tmp_path / "out")) == EXIT_OK
    predictions = [Triple(*entry["ids"]) for entry in json.loads(selection.read_text())["triples"]]
    written = sorted((tmp_path / "out" / "runs").glob("run_*.json"))
    assert len(written) == len(predictions) * len(algorithms.split(","))
    for run_file in written:
        algorithm, index = run_file.stem.removeprefix("run_").rsplit("_", 1)
        payload = read_run(run_file, algorithm, predictions[int(index)])
        assert payload == json.loads(run_file.read_text())


TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.mark.parametrize(
    "mode, algorithms",
    [
        ("necessary", "exhaustive-length-1, data-poisoning-direct"),
        ("c-sufficient", "exhaustive-length-1, variable-length-builder"),
        ("latent-negative", "exhaustive-length-1"),
    ],
)
def test_traced_explain_fits_once_per_counted_retrain(explained, tmp_path, mode, algorithms):
    """Under the benchmark's tracer (run as a script, never edited), train plus
    post_train spans are the run files' retrains plus one per simultaneous-removal
    file, and effectiveness operator spans are the candidates."""
    _check_traced_explain(explained, tmp_path, mode, algorithms, workers=1)


def test_traced_explain_on_two_workers_fits_once_per_counted_retrain(explained, tmp_path):
    """The same under ``--workers 2``, the route of the benchmark's ``desk-latent-w2``."""
    _check_traced_explain(explained, tmp_path, "latent-negative", "exhaustive-length-1", workers=2)


def _check_traced_explain(explained, tmp_path, mode, algorithms, workers):
    root, _, checkpoint, selection, _ = explained
    text = (root / "experiment.ini").read_text().replace("mode = necessary", f"mode = {mode}")
    text = text.replace("exhaustive-length-1, data-poisoning-direct", algorithms)
    text = text.replace("post_train_epochs = 20", "post_train_epochs = 2")
    path = tmp_path / f"{mode}.ini"
    path.write_text(text + "\n[targets]\nsize = 2\n")
    out, spans = tmp_path / "out", tmp_path / "spans.json"
    argv = [sys.executable, str(TRACER), "--spans", str(spans), "--"]
    argv += _explain_argv(path, checkpoint, selection, out) + ["--workers", str(workers)]
    subprocess.run(argv, cwd=TRACER.parents[1], check=True, capture_output=True)
    names = [span[0] for span in json.loads(spans.read_text())["spans"]]
    runs = [json.loads(p.read_text()) for p in sorted((out / "runs").glob("run_*.json"))]
    simultaneous = sorted((out / "runs").glob("simultaneous_*.json"))
    assert runs and len(simultaneous) == (2 if mode == "necessary" else 0)
    fits = names.count("training.train") + names.count("training.post_train")
    assert fits == sum(run["counters"]["retrains"] for run in runs) + len(simultaneous)
    operators = sum(name.startswith("effectiveness.effectiveness_") for name in names)
    assert operators == sum(len(run["candidates"]) for run in runs)


@pytest.mark.parametrize("case", ["no-algorithms", "c-sufficient-without-targets"])
def test_config_that_leaves_explain_no_work_is_validation_error_naming_the_key(
    explained, tmp_path, caplog, case
):
    root, _, checkpoint, selection, _ = explained
    text = (root / "experiment.ini").read_text()
    if case == "no-algorithms":
        text = text.replace("exhaustive-length-1, data-poisoning-direct", "")
        named = "[explain] algorithms"
    else:
        text = text.replace("mode = necessary", "mode = c-sufficient")
        text = text.replace("exhaustive-length-1, data-poisoning-direct", "exhaustive-length-1")
        text += "\n[targets]\nsize = 0\n"
        named = "[targets] size"
    path = tmp_path / "bad.ini"
    path.write_text(text)
    out = tmp_path / "out"
    assert main(_explain_argv(path, checkpoint, selection, out)) == EXIT_VALIDATION
    assert named in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("rank", ["x", None, 1.5, True, 0], ids=["text", "null", "float", "bool", "zero"])
def test_selection_rank_that_is_not_a_positive_integer_is_validation_error_naming_it(
    explained, tmp_path, caplog, rank
):
    root, _, _, selection, _ = explained
    data = json.loads(selection.read_text())
    data["triples"][-1]["rank"] = rank
    bad = tmp_path / "selection.json"
    bad.write_text(json.dumps(data))
    argv = [
        "evaluate", "--config", str(root / "experiment.ini"), "--selection", str(bad),
        "--runs", str(root / "out" / "runs"), "--out", str(tmp_path / "ev"),
    ]
    assert main(argv) == EXIT_VALIDATION
    assert str(bad) in caplog.text and "rank a positive integer" in caplog.text


@pytest.mark.parametrize(
    "case",
    [
        "training-seed", "selection-seed", "latent-seed", "targets-seed", "explain-seed",
        "seed-override", "max-evals-per-length-0", "acceptance-threshold-nan",
        "dimension-over-int64", "ini-not-utf8", "train-txt-not-utf8", "selection-missing",
    ],
)
def test_unusable_input_is_validation_error_naming_it(trained, tmp_path, caplog, case):
    root, config_path, _, checkpoint = trained
    text = config_path.read_text()
    bad = tmp_path / "bad.ini"
    out = tmp_path / "out"
    argv = ["train", "--config", str(bad), "--out", str(out)]
    if case == "training-seed":
        bad.write_text(text.replace("seed = 17", "seed = -1"))
        expected = "config [training] seed must be >= 0"
    elif case == "selection-seed":
        bad.write_text(text.replace("seed = 5", "seed = -1"))
        expected = "[selection] seed must be >= 0"
    elif case in ("latent-seed", "targets-seed"):
        section = case.removesuffix("-seed")
        bad.write_text(text + f"\n[{section}]\nseed = -1\n")
        expected = f"[{section}] seed must be >= 0"
    elif case == "explain-seed":  # the builder's one pass draws nothing at random
        bad.write_text(text.replace("[explain]\n", "[explain]\nseed = 0\n"))
        expected = "unknown key [explain] seed"
    elif case == "seed-override":
        bad.write_text(text)
        argv = ["--seed-override", "-1"] + argv
        expected = "seed must be >= 0"
    elif case == "max-evals-per-length-0":
        bad.write_text(text.replace("[explain]\n", "[explain]\nmax_evals_per_length = 0\n"))
        expected = "config [explain] max_evals_per_length must be >= 1"
    elif case == "acceptance-threshold-nan":  # the builder stops at max_length alone
        bad.write_text(text.replace("[explain]\n", "[explain]\nacceptance_threshold = nan\n"))
        expected = "unknown key [explain] acceptance_threshold"
    elif case == "dimension-over-int64":  # used to exit 1 with a TypeError from init_model
        bad.write_text(text.replace("dimension = 16", "dimension = 99999999999999999999"))
        expected = "config [training] dimension"
    elif case == "ini-not-utf8":
        bad.write_bytes(b"\xff\xfe")
        expected = str(bad)
    elif case == "train-txt-not-utf8":
        data = tmp_path / "data"
        shutil.copytree(root / "data", data)
        (data / "train.txt").write_bytes(b"\xff\xfe")
        bad.write_text(text.replace(str(root / "data"), str(data)))
        expected = str(data / "train.txt")
    else:
        expected = str(tmp_path / "none.json")
        argv = _explain_argv(config_path, checkpoint, expected, out)
    assert main(argv) == EXIT_VALIDATION
    assert expected in caplog.text
    assert not (out / "checkpoint.npz").exists()


# Every INI key: the [training] and [explain] dataclass fields, then the keys
# the parser reads itself.
INI_KEYS = [("training", f.name) for f in dataclasses.fields(TrainConfig)] + [
    ("explain", f.name) for f in dataclasses.fields(ExplainerConfig)
] + [
    ("dataset", "path"), ("selection", "count"), ("selection", "seed"),
    ("selection", "cohort_rank"), ("explain", "mode"), ("explain", "algorithms"),
    ("explain", "simultaneous_removal"), ("latent", "epsilon"), ("latent", "budget"),
    ("latent", "seed"), ("targets", "size"), ("targets", "seed"), ("output", "directory"),
]
BIG = "99999999999999999999"
HOSTILE = ["", "-1", "0", "nan", "inf", "-inf", "1e400", "abc", BIG, "2.5"]
# The values of HOSTILE that pass validation; every other one must fail naming its key.
LEGAL = {
    ("training", "epochs"): {BIG},  # runs until stopped
    ("training", "learning_rate"): {"0", "2.5", BIG},  # 0 trains nothing
    ("training", "reg_weight"): {"0", "2.5", BIG},
    ("training", "batch_size"): {BIG},
    ("training", "seed"): {"0", BIG},
    ("explain", "prefilter_k"): {BIG},
    ("explain", "lambda_weight"): {"-1", "0", "2.5", BIG},
    ("explain", "perturbation_step"): {"-1", "0", "2.5", BIG},
    ("explain", "influence_step"): {"-1", "0", "2.5", BIG},
    ("explain", "top_m"): {BIG},
    ("explain", "max_evals_per_length"): {BIG},
    ("explain", "post_train_epochs"): {BIG},
    ("dataset", "path"): {""},  # the working directory
    ("selection", "count"): {BIG},
    ("selection", "seed"): {"0", BIG},
    ("selection", "cohort_rank"): {BIG},
    ("explain", "simultaneous_removal"): {"0"},
    ("latent", "budget"): {BIG},
    ("latent", "seed"): {"0", BIG},
    ("targets", "size"): {BIG},
    ("targets", "seed"): {"0", BIG},
    ("output", "directory"): set(HOSTILE),
}


@pytest.mark.parametrize("value", HOSTILE)
@pytest.mark.parametrize("section, key", INI_KEYS, ids=[f"{s}-{k}" for s, k in INI_KEYS])
def test_every_ini_value_passes_validation_or_names_its_key(
    tmp_path, monkeypatch, section, key, value
):
    # mode c-sufficient, where [targets] size is checked too
    settings = {"dataset": {"path": str(tmp_path)}, "explain": {"mode": "c-sufficient"}}
    settings.setdefault(section, {})[key] = value
    path = tmp_path / "sweep.ini"
    path.write_text("".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in pairs.items())
        for name, pairs in settings.items()
    ))
    monkeypatch.chdir(tmp_path)
    if value in LEGAL.get((section, key), ()):
        parse_experiment_config(path).validate()
    else:
        with pytest.raises(ConfigurationError, match=re.escape(f"[{section}] {key}")):
            parse_experiment_config(path).validate()


@pytest.mark.parametrize("mode, algorithm, keys", [
    ("no-such-mode", "exhaustive-length-1", ["[explain] mode:"]),
    ("necessary", "no-such-algorithm", ["[explain] algorithms:"]),
    ("sufficient", "criage-first-order", ["[explain] mode", "[explain] algorithms"]),
])
def test_an_unknown_mode_or_algorithm_names_only_its_own_key(
    tmp_path, monkeypatch, mode, algorithm, keys
):
    path = tmp_path / "pair.ini"
    path.write_text(f"[dataset]\npath = .\n[explain]\nmode = {mode}\nalgorithms = {algorithm}\n")
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ConfigurationError) as caught:
        parse_experiment_config(path).validate()
    named = [key for key in ("[explain] mode", "[explain] algorithms") if key in str(caught.value)]
    assert named == [key.removesuffix(":") for key in keys]
    assert all(key in str(caught.value) for key in keys)


@pytest.mark.parametrize("case", ["mode", "evaluator"])
def test_evaluate_rejects_runs_made_under_other_settings_naming_file_and_key(
    explained, tmp_path, caplog, case
):
    """``evaluate`` reads a run only as ``explain``'s resume keeps it: made under the INI's settings."""
    root, _, _, selection, _ = explained
    runs = tmp_path / "runs"
    shutil.copytree(root / "out" / "runs", runs)
    ini = tmp_path / "sweep.ini"
    text = (root / "experiment.ini").read_text()
    if case == "mode":  # every run says sufficient; the INI says necessary
        for path in runs.glob("run_*.json"):
            path.write_text(json.dumps({**json.loads(path.read_text()), "mode": "sufficient"}))
    else:  # full-retrain never post-trains, so it sets no post_train_epochs
        text = text.replace("evaluator = post-train", "evaluator = full-retrain")
        text = text.replace("post_train_epochs = 20\n", "")
    ini.write_text(text)
    argv = [
        "evaluate", "--config", str(ini), "--selection", str(selection),
        "--runs", str(runs), "--out", str(tmp_path / "ev"),
    ]
    assert main(argv) == EXIT_VALIDATION
    assert re.search(rf"made under another .*\[explain\] {case}.*run_\S+_0000\.json", caplog.text)
    assert not (tmp_path / "ev" / "comparison.json").exists()


# The JSON inputs ``evaluate`` reads, each a file of the ``explained`` sweep.
JSON_INPUTS = {
    "selection": "selection.json",
    "run": "runs/run_exhaustive-length-1_0000.json",
    "simultaneous": "runs/simultaneous_exhaustive-length-1.json",
}
SWAPS = {"drop": None, "null": None, "string": "abc", "list": []}
ANY = set(SWAPS)
# The swaps that pass, by field; a swap of a field not listed must fail naming
# the file. A list stands for its first entry, which in the run file is a
# candidate other than the best. Every field listed with ANY is one that no
# reader reads; a file that lists predictions must list at least one.
LEGAL_SWAPS = {
    "selection": {"cohort_rank": ANY, "seed": ANY, "triples/0/labels": ANY},
    "run": {
        "counters": ANY, "counters/retrains": ANY, "counters/wall_clock_s": ANY, "warnings": ANY,
        "prediction/labels": ANY, "prediction/rank_before": ANY,
        "candidates/0/evaluator": ANY, "candidates/0/heuristic_score": ANY,
        "candidates/0/operator": ANY, "candidates/0/rank_after": ANY,
        "candidates/0/rank_before": ANY, "candidates/0/retrains": ANY,
        "candidates/0/triples/0/labels": ANY,
    },
    "simultaneous": {
        "checkpoint": ANY, "removed": ANY, "after_ranks/0/labels": ANY,
    },
}


def _fields(value, path=()):
    """The path of each object key in ``value``, through the first entry of each list."""
    if isinstance(value, dict):
        for key, inner in value.items():
            yield path + (key,)
            yield from _fields(inner, path + (key,))
    elif isinstance(value, list) and value:
        yield from _fields(value[0], path + (0,))


@pytest.mark.parametrize("kind", JSON_INPUTS)
def test_every_json_field_swap_passes_or_names_its_file(explained, tmp_path, caplog, kind):
    root, _, _, _, _ = explained
    shutil.copytree(root / "out", tmp_path / "out", ignore=shutil.ignore_patterns("metrics_*"))
    victim = tmp_path / "out" / JSON_INPUTS[kind]
    original = victim.read_text()
    data = json.loads(original)
    if kind == "run":
        assert data["candidates"][0] != data["best"]
    argv = [
        "evaluate", "--config", str(root / "experiment.ini"),
        "--selection", str(tmp_path / "out" / "selection.json"),
        "--runs", str(tmp_path / "out" / "runs"), "--out", str(tmp_path / "ev"),
    ]
    wrong = []
    for path in _fields(data):
        name = "/".join(map(str, path))
        for swap, value in SWAPS.items():
            mutated = json.loads(original)
            *head, key = path
            holder = mutated
            for step in head:
                holder = holder[step]
            if swap == "drop":
                del holder[key]
            elif holder[key] == value:  # not a swap
                continue
            else:
                holder[key] = value
            victim.write_text(json.dumps(mutated))
            caplog.clear()
            try:
                code = main(argv)
            finally:
                victim.write_text(original)
            if swap in LEGAL_SWAPS[kind].get(name, ()):
                if code != EXIT_OK:
                    wrong.append(f"{name} {swap}: exit {code}, expected 0")
            elif code != EXIT_VALIDATION or victim.name not in caplog.text:
                wrong.append(f"{name} {swap}: exit {code}, expected 2 naming {victim.name}")
    assert wrong == []
