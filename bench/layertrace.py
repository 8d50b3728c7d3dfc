"""Outside-in layer trace: spans around the program's public functions.

``Tracer.install`` replaces every public module-level function of each
layer module (and ``pipeline.Workspace.finish``) with a wrapper that
records a span: name, start, end, parent span and run id. Calls between
and inside the modules go through module-global lookups, so the wrappers
see nested calls too, with no change to the program's source.

Spans stay in memory until ``write``. A span's self time is its duration
minus the part of it that its child spans cover; the self times of all
spans of a run add up to the run's root span. A hook that counts rows or
bytes at a boundary records its own run as a ``tracer.hook`` span, so its
time is charged to no layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import re
import time
from collections import Counter, defaultdict
from pathlib import Path

import checks

LAYERS = ("data", "neural", "attacks", "attribution", "detector", "evaluation", "pipeline", "cli")

# Span name -> the pipeline stage metric it feeds.
STAGE_SPANS = {
    "pipeline.cmd_ingest": "pipeline.ingest_s",
    "pipeline.cmd_train_nids": "pipeline.train_nids_s",
    "pipeline.cmd_attack": "pipeline.attack_s",
    "pipeline.cmd_fingerprint": "pipeline.fingerprint_s",
    "pipeline.cmd_train_detector": "pipeline.train_detector_s",
    "pipeline.cmd_evaluate": "pipeline.evaluate_s",
    "pipeline.cmd_detect": "pipeline.detect_s",
    "pipeline.Workspace.finish": "pipeline.finish_s",
}

# Metric -> span names whose summed durations it reports.
DURATION_METRICS = {
    **{metric: (span,) for span, metric in STAGE_SPANS.items()},
    "data.load_csv_s": ("data.load_csv",),
    "data.load_dataset_s": ("data.load_dataset",),
    "data.save_dataset_s": ("data.save_dataset",),
    "data.synth_generate_s": ("data.synth_generate",),
    "neural.train_s": ("neural.train",),
    "neural.forward_s": ("neural.forward",),
    "neural.grad_input_batch_s": ("neural.grad_input_batch",),
    "attacks.codec_s": ("attacks.save_adv_batch", "attacks.load_adv_batch"),
    "attribution.fingerprint_batch_s": ("attribution.fingerprint_batch",),
    "attribution.shap_fingerprint_s": ("attribution.shap_fingerprint",),
    "attribution.codec_s": ("attribution.save_fingerprints", "attribution.load_fingerprints"),
    "detector.train_autoencoder_s": ("detector.train_autoencoder",),
    "detector.reconstruction_errors_s": ("detector.reconstruction_errors",),
    "detector.detect_pipeline_s": ("detector.detect_pipeline",),
}

# Metric -> span name whose call count it reports.
CALL_METRICS = {
    "data.load_dataset_calls": "data.load_dataset",
    "neural.forward_calls": "neural.forward",
    "attribution.fingerprints": "attribution.shap_fingerprint",
    "attribution.expected_output_calls": "attribution.expected_output",
    "detector.detect_pipeline_calls": "detector.detect_pipeline",
}

# Span name of a hook's own run. A hook runs after its span has closed, inside
# the parent span; recording it as a child keeps its time out of the
# parent's self time. Its layer, "tracer", is not one of LAYERS.
HOOK_SPAN = "tracer.hook"

# Metrics a hook counts from a call's arguments, result or files.
COUNTER_METRICS = (
    "pipeline.artifact_bytes",
    "data.load_dataset_bytes",
    "data.save_dataset_bytes",
    "neural.train_rows",
    "neural.forward_rows",
    "neural.forward_flops",
    "neural.forward_bytes",
    "attacks.fgsm_s",
    "attacks.pgd_s",
    "attacks.deepfool_s",
    "attacks.deepfool_iters",
    "attacks.deepfool_degenerate",
    "attacks.adv_bytes",
    "attribution.fingerprint_bytes",
)


_COUNT_UNITS = {
    "calls": "count", "fingerprints": "count", "dropped": "count", "iters": "count",
    "degenerate": "count", "rows": "rows", "bytes": "B", "ratio": "fraction",
}
_SPECIAL_UNITS = {
    "neural.forward_flops": "flop-computed",
    "neural.forward_bytes": "B-computed",
    "attribution.forward_rows_per_fingerprint": "rows",
    "attribution.max_completeness_gap": "logit",
    "trace_overhead_share": "fraction",
}


def _unit(name: str) -> str:
    if name in _SPECIAL_UNITS:
        return _SPECIAL_UNITS[name]
    if name.endswith("_s"):
        return "s"
    return _COUNT_UNITS[re.split(r"[._]", name)[-1]]


# Every per-layer metric the traced run reports, with its unit. Layer
# metrics come from the tracer; the last ones from the run's outputs.
UNITS = {
    name: _unit(name)
    for name in (
        *DURATION_METRICS, *CALL_METRICS, *COUNTER_METRICS,
        "attacks.deepfool_success_ratio", "attribution.forward_rows_per_fingerprint",
        *(f"{layer}.self_s" for layer in LAYERS),
        "trace_overhead_share", "data.rows_dropped", "attribution.max_completeness_gap",
    )
}
UNITS.update({f"evaluation.{name}": "fraction" for name in checks.QUALITY})


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


class Tracer:
    """Span recorder plus per-boundary counters for one benchmark process."""

    def __init__(self) -> None:
        # Each span: [name, start, end, parent index (-1 for a root), run id].
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.run_id = 0
        self._stack: list[int] = []
        self._active: Counter = Counter()   # open spans per layer
        self._restore: list[tuple[object, str, object]] = []
        self._shapes: dict[tuple, tuple[int, int, int]] = {}

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        for layer in LAYERS:
            module = importlib.import_module(f"shapguard.{layer}")
            for name, fn in list(vars(module).items()):
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == module.__name__
                    and not name.startswith("_")
                ):
                    self._patch(module, name, layer, f"{layer}.{name}", fn)
        pipeline = importlib.import_module("shapguard.pipeline")
        self._patch(
            pipeline.Workspace, "finish", "pipeline", "pipeline.Workspace.finish",
            pipeline.Workspace.finish,
        )

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def _patch(self, owner, attr: str, layer: str, name: str, fn) -> None:
        self._restore.append((owner, attr, fn))
        setattr(owner, attr, self.wrap(layer, name, fn))

    def wrap(self, layer: str, name: str, fn):
        """Return ``fn`` recording a span named ``name`` in ``layer``."""
        hook = getattr(self, "_hook_" + name.replace(".", "_"), None)
        spans, stack, active, clock = self.spans, self._stack, self._active, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id]
            stack.append(len(spans))
            spans.append(span)
            active[layer] += 1
            result = exc = None
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as caught:
                exc = caught
                raise
            finally:
                span[2] = clock()
                stack.pop()
                active[layer] -= 1
                if hook is not None:
                    hook_span = [HOOK_SPAN, clock(), 0.0, stack[-1] if stack else -1, self.run_id]
                    hook(span, args, kwargs, result, exc)
                    hook_span[2] = clock()
                    spans.append(hook_span)

        return traced

    # -- counters at layer boundaries --------------------------------------

    def _hook_neural_forward(self, span, args, kwargs, result, exc):
        model = _arg(args, kwargs, 0, "model")
        X = _arg(args, kwargs, 1, "X")
        rows = X.shape[0] if getattr(X, "ndim", 1) == 2 else 1
        sizes = tuple(model.spec.layer_sizes)
        shape = self._shapes.get(sizes)
        if shape is None:
            pairs = list(zip(sizes, sizes[1:]))
            shape = self._shapes[sizes] = (
                sum(2 * a * b for a, b in pairs),          # flops per row
                8 * (sizes[0] + 2 * sum(sizes[1:])),        # input + pre/post bytes per row
                8 * sum(a * b + b for a, b in pairs),       # weight and bias bytes
            )
        c = self.counters
        c["neural.forward_rows"] += rows
        c["neural.forward_flops"] += rows * shape[0]
        c["neural.forward_bytes"] += rows * shape[1] + shape[2]
        if self._active["attribution"]:
            c["attribution.forward_rows"] += rows

    def _hook_neural_train(self, span, args, kwargs, result, exc):
        X = _arg(args, kwargs, 1, "X")
        cfg = _arg(args, kwargs, 3, "cfg")
        self.counters["neural.train_rows"] += len(X) * cfg.epochs

    def _hook_data_load_dataset(self, span, args, kwargs, result, exc):
        self.counters["data.load_dataset_bytes"] += _size(_arg(args, kwargs, 0, "path"))

    def _hook_data_save_dataset(self, span, args, kwargs, result, exc):
        self.counters["data.save_dataset_bytes"] += _size(_arg(args, kwargs, 1, "path"))

    def _hook_attacks_attack_batch(self, span, args, kwargs, result, exc):
        kind = _arg(args, kwargs, 2, "cfg").kind
        self.counters[f"attacks.{kind}_s"] += span[2] - span[1]
        if kind == "deepfool" and result is not None:
            self.counters["attacks.deepfool_batches"] += 1
            self.counters["attacks.deepfool_success_sum"] += result.success_rate

    def _hook_attacks_deepfool(self, span, args, kwargs, result, exc):
        if result is not None:
            self.counters["attacks.deepfool_iters"] += result[1]
        elif type(exc).__name__ == "DegenerateGradientError":
            self.counters["attacks.deepfool_degenerate"] += 1

    def _hook_attacks_save_adv_batch(self, span, args, kwargs, result, exc):
        path = Path(_arg(args, kwargs, 2, "path"))
        self.counters["attacks.adv_bytes"] += _size(path) + _size(path.with_suffix(".config.json"))

    def _hook_attribution_save_fingerprints(self, span, args, kwargs, result, exc):
        self.counters["attribution.fingerprint_bytes"] += _size(_arg(args, kwargs, 1, "path"))

    def _hook_pipeline_Workspace_finish(self, span, args, kwargs, result, exc):
        paths = _arg(args, kwargs, 3, "paths")
        self.counters["pipeline.artifact_bytes"] += sum(_size(p) for p in paths)

    # -- results -------------------------------------------------------------

    def metrics(self, runs: int) -> dict[str, float]:
        """Per-layer metrics, each averaged over ``runs`` traced runs."""
        durations: defaultdict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        layer_self: defaultdict[str, float] = defaultdict(float)
        for span, own in zip(self.spans, self_times(self.spans)):
            name = span[0]
            durations[name] += span[2] - span[1]
            calls[name] += 1
            layer_self[name.split(".", 1)[0]] += own

        c = self.counters
        out: dict[str, float] = {}
        for metric, names in DURATION_METRICS.items():
            out[metric] = sum(durations[n] for n in names)
        for metric, name in CALL_METRICS.items():
            out[metric] = calls[name]
        for metric in COUNTER_METRICS:
            out[metric] = c[metric]
        out = {k: v / runs for k, v in out.items()}
        out["attacks.deepfool_success_ratio"] = (
            c["attacks.deepfool_success_sum"] / c["attacks.deepfool_batches"]
            if c["attacks.deepfool_batches"] else 0.0
        )
        fingerprints = calls["attribution.shap_fingerprint"]
        out["attribution.forward_rows_per_fingerprint"] = (
            c["attribution.forward_rows"] / fingerprints if fingerprints else 0.0
        )
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_self[layer] / runs
        return out

    def hook_seconds(self) -> float:
        """Total time the hooks took, kept out of the layers' self times."""
        return sum(s[2] - s[1] for s in self.spans if s[0] == HOOK_SPAN)

    def write(self, path: Path) -> None:
        payload = {
            "fields": ["name", "start", "end", "parent", "run"],
            "spans": self.spans,
        }
        path.write_text(json.dumps(payload), encoding="utf-8")


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children: defaultdict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out
