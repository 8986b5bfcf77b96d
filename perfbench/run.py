"""Benchmark of the kgexplain CLI pipeline on seeded synthetic graphs.

    python3 perfbench/run.py --workload desk-full --seed 29 --seconds 30 --trace 0

Run from the root of a source checkout. Each round writes a seeded graph and
an INI, then drives ``kgexplain train -> select -> explain -> evaluate ->
pareto`` as child processes, one at a time (a closed loop with one client),
and checks every output against computations made apart from the program
(see checks.py). A run holds round(seconds / ROUND_BUDGET_S) rounds, at
least one; set-up runs at least SETUP_SAMPLES times. One set-up before the
first round warms the page and bytecode caches and is not counted.

With ``--trace 1`` one more round runs each command through tracer.py, which
calls ``kgexplain.cli.main`` in-process with every public function wrapped,
and the per-layer metrics are printed instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

# The checks run in this process between rounds; keep its own BLAS single-threaded.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import tracer  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED, HELDOUT_SEED, WORKLOADS, Workload, make_graph, write_dataset, write_ini,
)

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# A run of --seconds holds round(seconds / ROUND_BUDGET_S) rounds, at least
# one. The count does not depend on how fast this run's rounds go: a count
# that stopped on elapsed time would give slow runs fewer samples than fast
# ones, and so widen the spread between runs.
ROUND_BUDGET_S = 15
SETUP_SAMPLES = 3
IMPORT_SAMPLES = 3
COMMAND_TIMEOUT_S = 150
OUTPUT_ROOT = ".perfbench_out"


class Ledger:
    """Operations attempted and failed, and whether every checked output was right."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def operation(self, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
        return ok

    def check(self, problems: list[str]) -> bool:
        for problem in problems:
            print(f"check failed: {problem}", file=sys.stderr)
        if problems:
            self.correct = False
        return self.operation(not problems)


class Pipeline:
    """Runs the CLI stages of one workload in fresh round directories."""

    def __init__(self, root: Path, workload: Workload, seed: int, out_dir: Path) -> None:
        self.root = root
        self.workload = workload
        self.seed = seed
        self.out_dir = out_dir
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        for var in BLAS_THREAD_VARS:
            self.env.pop(var, None)
            if workload.pin_blas:
                self.env[var] = "1"
        self.peak_rss_mb = 0.0
        self.rounds = 0

    def _spawn(self, argv: list[str], log: Path) -> tuple[bool, float, float]:
        """Run one child to its end; (succeeded, wall seconds, peak RSS in MB)."""
        with log.open("ab") as fh:
            started = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env, stdout=fh, stderr=fh)
            killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode == 0, wall, usage.ru_maxrss / 1024.0

    def command(self, argv: list[str], log: Path, spans: Path | None = None) -> tuple[bool, float]:
        if spans is None:
            full = [sys.executable, "-m", "kgexplain.cli", *argv]
        else:
            full = [sys.executable, str(Path(__file__).resolve().parent / "tracer.py"),
                    "--spans", str(spans), "--", *argv]
        ok, wall, rss = self._spawn(full, log)
        self.peak_rss_mb = max(self.peak_rss_mb, rss)
        return ok, wall

    def import_seconds(self) -> float:
        """Median time of a fresh interpreter importing kgexplain.cli."""
        code = "import time; t = time.perf_counter(); import kgexplain.cli; print(time.perf_counter() - t)"
        samples = []
        for _ in range(IMPORT_SAMPLES):
            done = subprocess.run(
                [sys.executable, "-c", code], cwd=self.root, env=self.env,
                capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S, check=True,
            )
            samples.append(float(done.stdout.strip().splitlines()[-1]))
        return statistics.median(samples)

    def run(self, ledger: Ledger | None, full: bool, traced: bool = False) -> dict:
        """One round: set-up, and with `full` the rest of the pipeline, then checks.

        With ``ledger`` None the round is a warm-up: nothing is counted, and a
        failed command aborts the benchmark.
        """
        w = self.workload
        round_dir = self.out_dir / f"round{self.rounds:02d}"
        self.rounds += 1
        data, out, log = round_dir / "data", round_dir / "out", round_dir / "commands.log"
        ini = round_dir / "experiment.ini"
        checkpoint, selection = out / "checkpoint.npz", out / "selection.json"
        runs_dir, front = out / "runs", out / "front.json"
        spans_dir = round_dir / "spans"
        if traced:
            spans_dir.mkdir(parents=True)

        stages = [("train", ["train", "--config", str(ini)]),
                  ("select", ["select", "--config", str(ini), "--checkpoint", str(checkpoint)])]
        if full:
            stages += [
                ("explain", ["explain", "--config", str(ini), "--checkpoint", str(checkpoint),
                             "--selection", str(selection), "--workers", str(w.workers)]),
                ("evaluate", ["evaluate", "--config", str(ini), "--selection", str(selection),
                              "--runs", str(runs_dir)]),
                ("pareto", ["pareto", "--runs", str(runs_dir), "--out", str(front)]),
            ]

        result: dict = {"dir": round_dir}
        started = time.perf_counter()
        write_dataset(data, make_graph(self.seed, w.clusters))
        write_ini(ini, w, self.seed, data, out)
        pipeline_start = time.perf_counter()
        all_ok = True
        for stage, argv in stages:
            if all_ok:
                spans = spans_dir / f"{stage}.json" if traced else None
                ok, wall = self.command(argv, log, spans)
                result[f"{stage}_s"] = wall
            else:
                ok = False  # a stage after a failed one cannot run; it fails too
            if ledger is None and not ok:
                raise SystemExit(f"warm-up {stage} failed; see {log}")
            if ledger is not None:
                ledger.operation(ok)
            all_ok = all_ok and ok
            if stage == "select" and all_ok:
                result["setup_s"] = time.perf_counter() - started
        result["pipeline_s"] = time.perf_counter() - pipeline_start
        result["ok"] = all_ok
        if ledger is not None:
            self._check(ledger, result, data, checkpoint, selection, runs_dir, front, full)
        return result

    def _check(self, ledger, result, data, checkpoint, selection_path, runs_dir, front, full):
        w = self.workload
        if not (checkpoint.is_file() and selection_path.is_file()):
            ledger.operation(False)
            return
        graph = checks.GraphIndex(data)
        base = checks.load_embeddings(checkpoint)
        selection = checks.read_json(selection_path)
        ledger.check(checks.check_selection(graph, base, selection, w.predictions, 1))
        if not full:
            return

        predictions = [tuple(e["ids"]) for e in selection["triples"]]
        runs: dict[str, list[dict]] = {}
        candidates = 0
        for algorithm in w.algorithms:
            expected = w.candidates_per_run_file(algorithm)
            for index, prediction in enumerate(predictions):
                path = runs_dir / f"run_{algorithm}_{index:04d}.json"
                if not ledger.operation(path.is_file()):
                    continue
                payload = checks.read_json(path)
                runs.setdefault(algorithm, []).append(payload)
                candidates += len(payload["candidates"])
                ledger.check(checks.check_run(graph, base, payload, algorithm, w.mode,
                                              prediction, expected))
        result["candidates"] = candidates
        result["runs"] = runs

        simultaneous = {}
        if w.simultaneous_removal:
            for algorithm, algorithm_runs in runs.items():
                path = runs_dir / f"simultaneous_{algorithm}.json"
                if not ledger.operation(path.is_file()):
                    continue
                simultaneous[algorithm] = checks.read_json(path)
                ledger.check(checks.check_simultaneous(
                    graph, base, simultaneous[algorithm], algorithm_runs, runs_dir))
        result["simultaneous"] = len(simultaneous)

        comparison_path = result["dir"] / "out" / "comparison.json"
        if ledger.operation(comparison_path.is_file()):
            rows = {row["algorithm"]: row for row in checks.read_json(comparison_path)}
            for algorithm, algorithm_runs in runs.items():
                if algorithm not in rows:
                    ledger.check([f"comparison has no row for {algorithm}"])
                    continue
                ledger.check(checks.check_comparison_row(
                    rows[algorithm], selection, algorithm_runs, simultaneous.get(algorithm)))
        if ledger.operation(front.is_file()):
            ledger.check(checks.check_front_file(checks.read_json(front), runs))


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; held-out seed {HELDOUT_SEED})")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "kgexplain" / "cli.py").is_file():
        print(f"no kgexplain source tree under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    out_dir = root / OUTPUT_ROOT / f"{workload.name}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)

    pipeline = Pipeline(root, workload, args.seed, out_dir)
    ledger = Ledger()
    pipeline.run(None, full=False)  # warm-up, not counted
    pipeline.peak_rss_mb = 0.0

    round_count = max(1, round(args.seconds / ROUND_BUDGET_S))
    rounds = [pipeline.run(ledger, full=True) for _ in range(round_count)]
    setups = [r["setup_s"] for r in rounds if "setup_s" in r]
    while not args.trace and len(setups) < SETUP_SAMPLES:
        extra = pipeline.run(ledger, full=False)
        if "setup_s" in extra:
            setups.append(extra["setup_s"])
        elif not extra["ok"]:
            break

    done = [r for r in rounds if r["ok"] and r.get("candidates")]
    if args.trace:
        metrics = _trace_metrics(pipeline, ledger, done)
    else:
        metrics = {}
        if done and setups:
            metrics = {
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
                "pipeline_s": {"value": statistics.median(r["pipeline_s"] for r in done),
                               "unit": "s"},
                "cand_per_s": {
                    "value": statistics.median(r["candidates"] / r["explain_s"] for r in done),
                    "unit": "1/s",
                },
                "peak_rss_mb": {"value": pipeline.peak_rss_mb, "unit": "MB"},
            }
    for r in rounds:
        print(json.dumps({k: round(v, 4) for k, v in r.items() if k.endswith("_s")}),
              file=sys.stderr)
    if ledger.failed == 0 and ledger.correct:
        shutil.rmtree(out_dir, ignore_errors=True)
    print(json.dumps({"correct": ledger.correct, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0 if metrics else 1


def _trace_metrics(pipeline: Pipeline, ledger: Ledger, done: list[dict]) -> dict:
    """Per-layer metrics from one traced round, reconciled with its run files."""
    traced = pipeline.run(ledger, full=True, traced=True)
    if not (traced["ok"] and done and traced.get("candidates")):
        return {}
    spans_dir = traced["dir"] / "spans"
    span_files = {p.stem: checks.read_json(p) for p in sorted(spans_dir.glob("*.json"))}
    payloads = [p for runs in traced["runs"].values() for p in runs]
    retrains = sum(p["counters"]["retrains"] for p in payloads)
    calls = tracer.retrain_calls_in(span_files["explain"])
    ledger.check(
        [] if calls == retrains + traced["simultaneous"] else
        [f"traced explain made {calls} train/post_train calls; run files count {retrains} "
         f"retrains plus {traced['simultaneous']} simultaneous removals"]
    )
    layers = tracer.layer_metrics(span_files, payloads, pipeline.workload.workers)
    layers["cli.import_s"] = (pipeline.import_seconds(), "s")
    untraced = statistics.median(r["pipeline_s"] for r in done)
    layers["trace.overhead_s"] = (traced["pipeline_s"] - untraced, "s")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in sorted(layers.items())}


if __name__ == "__main__":
    sys.exit(main())
