"""Traced run of one CLI command, and the per-layer metrics derived from spans.

Run as a script, it calls ``kgexplain.cli.main`` in-process with the given
arguments after wrapping the public functions of every module::

    python3 perfbench/tracer.py --spans spans.json -- train --config exp.ini

Each wrapper records a span (name, start, end, parent, extra) in memory; the
spans are written to the ``--spans`` file when the command ends. A function
is rebound in every ``kgexplain`` module that imported it, so calls made
through any of those names enter the span. The functions below the script
part turn the span files of one pipeline into per-layer metrics.
"""
from __future__ import annotations

import functools
import json
import statistics
import sys
import threading
import time
from pathlib import Path

# Public functions timed per layer; a (class, method) pair wraps a method.
TRACED = {
    "cli": ("cmd_train", "cmd_select", "cmd_explain", "cmd_evaluate", "cmd_pareto"),
    "kg": (
        "load_dataset", "build_search_space", "weakly_connected_component",
        ("KnowledgeGraph", "with_train"),
    ),
    "model": (
        "init_model", "rank", "score", "score_objects", "grad_score_wrt_subject",
        "save_checkpoint", "load_checkpoint",
    ),
    "training": ("train", "post_train", "batch_loss_and_grads", "mean_nll"),
    "effectiveness": (
        "effectiveness_necessary", "effectiveness_sufficient", "effectiveness_c_sufficient",
        "effectiveness_latent", "build_target_set",
    ),
    "explainers": (
        "exhaustive_length1", "data_poisoning_direct", "criage_first_order",
        "variable_length_builder", "first_order_score_change", "prefilter_topk",
    ),
    "latent": ("calibrate_ensemble", "fit_logistic_calibration", "sample_latent_candidates"),
    "pareto": ("pareto_front", "non_dominated"),
    "metrics": ("emit_report", "build_metrics_report", "comparison_table"),
}
EXPLAINER_ENTRY_POINTS = (
    "explainers.exhaustive_length1", "explainers.data_poisoning_direct",
    "explainers.criage_first_order", "explainers.variable_length_builder",
)
EFFECTIVENESS_OPERATORS = tuple(
    f"effectiveness.{name}" for name in TRACED["effectiveness"] if name.startswith("effectiveness_")
)


class Tracer:
    """Span recorder; the parent of a worker thread's first span is the command span."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.lock = threading.Lock()
        self.local = threading.local()
        self.command_span: int | None = None

    def wrap(self, name: str, fn):
        spans, lock, local = self.spans, self.lock, self.local
        clock = time.perf_counter
        if name == "training.batch_loss_and_grads":
            extra = lambda args, result: len(args[1])  # noqa: E731  example rows
        elif name == "latent.sample_latent_candidates":
            extra = lambda args, result: len(result)  # noqa: E731  triples sampled
        else:
            extra = None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else self.command_span
            record = [name, clock(), None, parent, None]
            with lock:
                index = len(spans)
                spans.append(record)
            if name.startswith("cli."):
                self.command_span = index
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if extra is not None:
                record[4] = extra(args, result)
            return result

        return traced

    def install(self) -> None:
        """Rebind every traced function in each kgexplain module that holds it."""
        modules = [m for n, m in sys.modules.items() if n == "kgexplain" or n.startswith("kgexplain.")]
        for layer, names in TRACED.items():
            module = sys.modules[f"kgexplain.{layer}"]
            for name in names:
                if isinstance(name, tuple):
                    cls = getattr(module, name[0])
                    setattr(cls, name[1], self.wrap(f"{layer}.{name[1]}", getattr(cls, name[1])))
                    continue
                original = getattr(module, name)
                wrapper = self.wrap(f"{layer}.{name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)


def _trace_command(spans_path: Path, argv: list[str]) -> int:
    sys.path.insert(0, str(Path.cwd() / "src"))
    import kgexplain  # noqa: F401  loads every module before rebinding
    import kgexplain.cli

    tracer = Tracer()
    tracer.install()
    started = time.perf_counter()
    code = kgexplain.cli.main(argv)
    ended = time.perf_counter()
    spans_path.write_text(
        json.dumps({"exit": code, "start": started, "end": ended, "spans": tracer.spans}),
        encoding="utf-8",
    )
    return code


# --- per-layer metrics from the span files of one pipeline -------------------


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def _covered(spans: list[list], children: dict[int, list[int]], index: int, layers) -> float:
    """Length of the part of span `index` that descendant spans in `layers` cover."""
    start, end = spans[index][1], spans[index][2]
    intervals = []
    todo = list(children.get(index, ()))
    while todo:
        k = todo.pop()
        if _layer(spans[k][0]) in layers:
            intervals.append((max(start, spans[k][1]), min(end, spans[k][2])))
        else:
            todo.extend(children.get(k, ()))
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo = max(lo, reach)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def _self_time(spans, children, indices, layers) -> float:
    return sum(spans[i][2] - spans[i][1] - _covered(spans, children, i, layers) for i in indices)


def layer_metrics(span_files: dict[str, dict], run_payloads: list[dict], workers: int) -> dict:
    """Per-layer metrics (value, unit) of one traced pipeline.

    ``span_files`` maps each command to its span file; ``run_payloads`` are
    the run files the traced explain wrote.
    """
    calls: dict[str, list[float]] = {}
    outermost: dict[str, float] = {}
    rows = 0
    sampled = 0
    explain_self = 0.0
    explainer_busy = 0.0
    effectiveness_self = 0.0
    exhaustive_self = 0.0
    heuristics_self = 0.0
    for command, data in span_files.items():
        spans = data["spans"]
        children: dict[int, list[int]] = {}
        for i, span in enumerate(spans):
            if span[3] is not None:
                children.setdefault(span[3], []).append(i)
        by_name: dict[str, list[int]] = {}
        for i, span in enumerate(spans):
            by_name.setdefault(span[0], []).append(i)
            calls.setdefault(span[0], []).append(span[2] - span[1])
            layer = _layer(span[0])
            parent = span[3]
            while parent is not None and _layer(spans[parent][0]) != layer:
                parent = spans[parent][3]
            if parent is None:
                outermost[layer] = outermost.get(layer, 0.0) + span[2] - span[1]
        rows += sum(spans[i][4] for i in by_name.get("training.batch_loss_and_grads", ()))
        sampled += sum(spans[i][4] for i in by_name.get("latent.sample_latent_candidates", ()))
        explain_self += _self_time(
            spans, children, by_name.get("cli.cmd_explain", ()),
            {"explainers", "effectiveness", "training", "latent"},
        )
        effectiveness_self += _self_time(
            spans, children,
            [i for n in EFFECTIVENESS_OPERATORS for i in by_name.get(n, ())],
            {"training", "model"},
        )
        exhaustive_self += _self_time(
            spans, children, by_name.get("explainers.exhaustive_length1", ()),
            {"effectiveness", "training"},
        )
        heuristics_self += _self_time(
            spans, children,
            by_name.get("explainers.data_poisoning_direct", [])
            + by_name.get("explainers.criage_first_order", []),
            {"effectiveness", "training"},
        )
        explainer_busy += sum(
            spans[i][2] - spans[i][1] for n in EXPLAINER_ENTRY_POINTS for i in by_name.get(n, ())
        )

    def total(*names):
        return sum(sum(calls.get(n, ())) for n in names)

    def count(*names):
        return sum(len(calls.get(n, ())) for n in names)

    candidates = [c for run in run_payloads for c in run["candidates"]]
    retrains = sum(run["counters"]["retrains"] for run in run_payloads)
    explain_s = total("cli.cmd_explain")
    step_times = calls.get("training.batch_loss_and_grads", [])
    operator_times = [t for n in EFFECTIVENESS_OPERATORS for t in calls.get(n, ())]
    metrics = {
        "cli.train_s": (total("cli.cmd_train"), "s"),
        "cli.select_s": (total("cli.cmd_select"), "s"),
        "cli.explain_s": (explain_s, "s"),
        "cli.evaluate_s": (total("cli.cmd_evaluate"), "s"),
        "cli.pareto_s": (total("cli.cmd_pareto"), "s"),
        "cli.explain_self_s": (explain_self, "s"),
        "cli.worker_util": (explainer_busy / (workers * explain_s) if explain_s else 0.0, "ratio"),
        "kg.load_dataset_calls": (count("kg.load_dataset"), "count"),
        "kg.load_dataset_s": (total("kg.load_dataset"), "s"),
        "kg.search_space_s": (total("kg.build_search_space"), "s"),
        "kg.with_train_calls": (count("kg.with_train"), "count"),
        "model.rank_calls": (count("model.rank"), "count"),
        "model.rank_s": (total("model.rank"), "s"),
        "model.checkpoint_s": (total("model.save_checkpoint", "model.load_checkpoint"), "s"),
        "training.train_calls": (count("training.train"), "count"),
        "training.train_s": (total("training.train"), "s"),
        "training.post_train_calls": (count("training.post_train"), "count"),
        "training.post_train_s": (total("training.post_train"), "s"),
        "training.step_calls": (len(step_times), "count"),
        "training.step_ms_p50": (
            1000.0 * statistics.median(step_times) if step_times else 0.0, "ms"
        ),
        "training.rows": (rows, "count"),
        "training.rows_per_s": (rows / sum(step_times) if step_times else 0.0, "1/s"),
        "effectiveness.calls": (len(operator_times), "count"),
        "effectiveness.cand_ms_p50": (
            1000.0 * statistics.median(operator_times) if operator_times else 0.0, "ms"
        ),
        "effectiveness.self_s": (effectiveness_self, "s"),
        "effectiveness.retrains_per_cand": (
            retrains / len(candidates) if candidates else 0.0, "ratio"
        ),
        "explainers.exhaustive_self_s": (exhaustive_self, "s"),
        "explainers.heuristics_self_s": (heuristics_self, "s"),
        "explainers.useful_ratio": (
            sum(1 for c in candidates if c["psi"] > 0) / len(candidates) if candidates else 0.0,
            "ratio",
        ),
        "latent.calibrate_s": (total("latent.calibrate_ensemble"), "s"),
        "latent.sample_s": (total("latent.sample_latent_candidates"), "s"),
        "latent.sampled": (sampled, "count"),
        "pareto.front_s": (outermost.get("pareto", 0.0), "s"),
        "metrics.report_s": (outermost.get("metrics", 0.0), "s"),
    }
    return metrics


def retrain_calls_in(span_file: dict) -> int:
    """Calls of train plus post_train recorded in one command's spans."""
    return sum(1 for s in span_file["spans"] if s[0] in ("training.train", "training.post_train"))


if __name__ == "__main__":
    args = sys.argv[1:]
    if len(args) < 3 or args[0] != "--spans" or args[2] != "--":
        sys.exit("usage: tracer.py --spans FILE -- <kgexplain arguments>")
    sys.exit(_trace_command(Path(args[1]), args[3:]))
