"""Compare the outputs of this tree and of a base revision on the benchmark graphs.

    python3 tools/identity.py --base <rev> --seeds 29 4099 [--exact]

Run from anywhere inside a git checkout. The base revision's tree is written
with ``git archive`` into a scratch directory (a temporary one unless
``--work`` names one); the other side is this checkout's working tree, so
uncommitted changes count. Both trees run ``train -> select -> explain ->
evaluate`` as child processes with ``OPENBLAS_NUM_THREADS=1`` (and the other
BLAS thread variables at 1) on each case and seed, in a directory of their
own, with the same relative paths. A case is a benchmark workload of
``perfbench/workloads.py`` (read, never written), a desk-graph variant of
``desk-full`` that reaches the explainers and evaluators the workloads leave
out, or ``mid-post`` in mode ``sufficient``.

For each output file it prints one of: ``identical`` (same bytes), ``equal
outside counters`` (JSON equal once every ``counters`` key is dropped), or
the differing keys, list indices folded to ``[]``, each with its largest
absolute deviation when both values are numbers. For each checkpoint array it
prints the largest absolute deviation. It ends with the largest checkpoint
and ``heuristic_score`` deviations over all cases.

It also prints each command's peak resident set size (``ru_maxrss`` from
``os.wait4``) per case, seed and side, and ends with each side's largest.
These lines are informational: they never change the exit status. On Linux a
child's ``ru_maxrss`` also counts the peak of the process that started it
(the high-water mark of the memory it replaced at ``exec``), so each command
is started by a small launcher process, not by this script, whose own arrays
would otherwise set a floor of about 40 MB under every reading.

Exit status 1 when a guarded value differs: a ``psi``, ``rank_before`` or
``rank_after`` anywhere, a ``best`` entry's triples, a ``front``, anything in
``selection.json``, ``comparison.json`` or a metrics report (``report.json``,
``report_per_triple.csv``, ``report_pareto.csv``), or a file that only one
side wrote. Exit status 2 when a command fails.

With ``--exact`` every output is guarded: each file byte for byte, but for a
JSON file, whose ``counters`` (run time, which no two runs share) are
dropped first, and each checkpoint array bit for bit (``checkpoint.npz``,
``simultaneous_*_model.npz``), so ``loss_curve.csv`` too. A speed-up that
claims to change no bit is checked with ``--exact``.
"""
from __future__ import annotations

import argparse
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS, make_graph, write_dataset, write_ini  # noqa: E402

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ALL_ALGORITHMS = (
    "exhaustive-length-1",
    "data-poisoning-direct",
    "criage-first-order",
    "variable-length-builder",
)
_DESK = WORKLOADS["desk-full"]
CASES = {
    **WORKLOADS,
    "desk-full-all": dataclasses.replace(_DESK, name="desk-full-all", algorithms=ALL_ALGORITHMS),
    "desk-post-necessary": dataclasses.replace(
        _DESK, name="desk-post-necessary", algorithms=ALL_ALGORITHMS, evaluator="post-train",
        post_train_epochs=20,
    ),
    **{
        f"desk-post-{mode}": dataclasses.replace(
            _DESK, name=f"desk-post-{mode}", mode=mode, algorithms=("exhaustive-length-1",),
            evaluator="post-train", post_train_epochs=20, simultaneous_removal=False,
        )
        for mode in ("c-sufficient", "sufficient", "latent-negative")
    },
    # the only case whose restricted fits move every fit row on the 2,000-entity graph
    "mid-post-sufficient": dataclasses.replace(
        WORKLOADS["mid-post"], name="mid-post-sufficient", mode="sufficient"
    ),
}
GUARDED_KEYS = {"psi", "rank_before", "rank_after", "front"}
GUARDED_FILES = {
    "selection.json", "comparison.json",
    "report.json", "report_per_triple.csv", "report_pareto.csv",
}
# Runs the command in argv[2:] and writes its peak RSS in kilobytes to the file argv[1].
LAUNCHER = """\
import os, subprocess, sys
child = subprocess.Popen(sys.argv[2:])
_, status, usage = os.wait4(child.pid, 0)
child.returncode = os.waitstatus_to_exitcode(status)
with open(sys.argv[1], "w") as out:
    out.write(str(usage.ru_maxrss))
sys.exit(child.returncode)
"""


def base_tree(rev: str, into: Path) -> Path:
    """The tree of ``rev``, extracted from ``git archive`` into ``into``."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev], cwd=ROOT, capture_output=True, check=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    return into


def run_case(tree: Path, case: str, seed: int, where: Path) -> dict[str, float]:
    """``train -> select -> explain -> evaluate`` of one case with ``tree``'s source, in ``where``.

    Returns each command's peak resident set size in MB.
    """
    workload = CASES[case]
    where.mkdir(parents=True)
    write_dataset(where / "data", make_graph(seed, workload.clusters))
    write_ini(where / "experiment.ini", workload, seed, Path("data"), Path("out"))
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), **dict.fromkeys(BLAS_THREAD_VARS, "1"))
    ini, checkpoint, selection = "experiment.ini", "out/checkpoint.npz", "out/selection.json"
    stages = [
        ["train", "--config", ini],
        ["select", "--config", ini, "--checkpoint", checkpoint],
        ["explain", "--config", ini, "--checkpoint", checkpoint, "--selection", selection,
         "--workers", str(workload.workers)],
        ["evaluate", "--config", ini, "--selection", selection, "--runs", "out/runs"],
    ]
    log_path, peak_path = where / "commands.log", where / "peak_rss_kb"
    peaks = {}
    with log_path.open("wb") as log:
        for argv in stages:
            done = subprocess.run(
                [sys.executable, "-c", LAUNCHER, str(peak_path),
                 sys.executable, "-m", "kgexplain.cli", *argv],
                cwd=where, env=env, stdout=log, stderr=log,
            )
            if done.returncode:
                print(f"{case}@{seed}: {argv[0]} exited {done.returncode}; its log is {log_path}"
                      " (kept with --work)", file=sys.stderr)
                raise SystemExit(2)
            peaks[argv[0]] = int(peak_path.read_text()) / 1024.0
    return peaks


def _drop_counters(value):
    if isinstance(value, dict):
        return {k: _drop_counters(v) for k, v in value.items() if k != "counters"}
    if isinstance(value, list):
        return [_drop_counters(v) for v in value]
    return value


def _differences(a, b, path: str, out: dict[str, float]) -> None:
    """Leaf paths where ``a`` and ``b`` differ, each with its largest absolute deviation (NaN if none)."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(a.keys() | b.keys()):
            _differences(a.get(key), b.get(key), f"{path}.{key}" if path else key, out)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for x, y in zip(a, b):
            _differences(x, y, f"{path}[]", out)
    elif a != b:
        numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b))
        deviation = abs(a - b) if numbers else math.nan
        out[path] = max(out.get(path, -math.inf), deviation) if numbers else deviation


def _guarded(file: str, key_path: str) -> bool:
    if file.rsplit("/", 1)[-1] in GUARDED_FILES:
        return True
    keys = key_path.replace("[]", "").split(".")
    return bool(GUARDED_KEYS & set(keys)) or key_path.startswith("best.triples")


def compare_file(
    base: Path, change: Path, name: str, exact: bool = False
) -> tuple[str, dict[str, float], bool]:
    """(Verdict line, deviation per key, whether a guarded value differs) for one output file.

    With ``exact`` any difference is guarded, but in a JSON file's ``counters``.
    """
    if base.read_bytes() == change.read_bytes():
        return "identical", {}, False
    if name.endswith(".npz"):
        with np.load(base) as a, np.load(change) as b:
            missing = sorted(set(a.files) ^ set(b.files))
            shared = sorted(set(a.files) & set(b.files))
            deviations = {
                key: float(np.abs(a[key] - b[key]).max())
                if a[key].dtype.kind == "f" and a[key].shape == b[key].shape
                else (0.0 if np.array_equal(a[key], b[key]) else math.nan)
                for key in shared
            }
            same_bits = all(
                (a[key].dtype, a[key].shape, a[key].tobytes())
                == (b[key].dtype, b[key].shape, b[key].tobytes())
                for key in shared
            )
        parts = [f"{key} max |d| {value:.3g}" for key, value in deviations.items()]
        parts += [f"{key} on one side only" for key in missing]
        if same_bits and not missing:
            parts = ["every array bit-identical"]
        return ", ".join(parts), deviations, bool(missing) or (exact and not same_bits)
    if name.endswith(".json"):
        a, b = (json.loads(p.read_text(encoding="utf-8")) for p in (base, change))
        a, b = _drop_counters(a), _drop_counters(b)
        if a == b:
            return "equal outside counters", {}, name.rsplit("/", 1)[-1] in GUARDED_FILES
        diffs: dict[str, float] = {}
        _differences(a, b, "", diffs)
    else:
        a, b = (re.split(r"[,\s]+", p.read_text(encoding="utf-8")) for p in (base, change))
        diffs = {}
        if len(a) != len(b):
            diffs["(token count)"] = math.nan
        for x, y in zip(a, b):
            if x != y:
                try:
                    deviation = abs(float(x) - float(y))
                except ValueError:
                    deviation = math.nan
                diffs["(text)"] = max(diffs.get("(text)", -math.inf), deviation)
    guarded = exact or any(_guarded(name, key) for key in diffs)
    line = "differs: " + ", ".join(f"{key} max |d| {value:.3g}" for key, value in diffs.items())
    return line, diffs, guarded


def compare_trees(
    base: Path, change: Path, label: str, worst: dict[str, float], exact: bool = False
) -> bool:
    """Print one line per output file of a case; whether any guarded value differed."""
    files = {
        str(p.relative_to(root)) for root in (base, change) for p in root.rglob("*") if p.is_file()
    }
    bad = False
    for name in sorted(files):
        a, b = base / name, change / name
        if not (a.is_file() and b.is_file()):
            print(f"{label} {name}: only in {'base' if a.is_file() else 'change'}")
            bad = True
            continue
        line, deviations, guarded = compare_file(a, b, name, exact)
        print(f"{label} {name}: {line}{'  [GUARDED]' if guarded else ''}")
        bad |= guarded
        kind = "checkpoint" if name.endswith(".npz") else None
        for key, value in deviations.items():
            key = kind or key.rsplit(".", 1)[-1]
            if not math.isnan(value):
                worst[key] = max(worst.get(key, 0.0), value)
    return bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--seeds", type=int, nargs="+", default=[29])
    parser.add_argument("--work", type=Path, help="new scratch directory, kept (default: a temporary one)")
    parser.add_argument(
        "--exact", action="store_true",
        help="guard every output byte for byte (JSON outside counters) and every checkpoint bit",
    )
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="kgexplain-identity-") as temp:
        work = Path(temp) if args.work is None else args.work.resolve()
        trees = {"base": base_tree(args.base, work / "base-tree"), "change": ROOT}
        worst: dict[str, float] = {}
        largest_rss = dict.fromkeys(trees, (0.0, ""))
        bad = False
        for case in CASES:
            for seed in args.seeds:
                label = f"{case}@{seed}"
                outs = {}
                for side, tree in trees.items():
                    outs[side] = work / "runs" / side / label
                    peaks = run_case(tree, case, seed, outs[side])
                    print(f"{label} peak RSS MB, {side}: "
                          + ", ".join(f"{command} {mb:.1f}" for command, mb in peaks.items()))
                    largest_rss[side] = max(
                        largest_rss[side], *((mb, f"{label} {c}") for c, mb in peaks.items())
                    )
                bad |= compare_trees(
                    outs["base"] / "out", outs["change"] / "out", label, worst, args.exact
                )
    for key, value in sorted(worst.items()):
        print(f"largest {key} deviation: {value:.3g}")
    for side, (mb, where) in largest_rss.items():
        print(f"largest peak RSS, {side}: {mb:.1f} MB ({where})")
    print("guarded values differ" if bad else "guarded values identical")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
