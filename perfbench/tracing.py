"""In-memory spans around calls into flowlens modules, and their analysis.

A traced stage process installs wrappers on the public functions each layer
exposes (:data:`TRACE_POINTS`), runs the stage, and writes every span to a
JSON file when it exits. A span is ``[name, parent, start_ns, end_ns, attrs]``
where ``parent`` is the index of the enclosing span (-1 at the top) and
``attrs`` holds counts read from the call's arguments or result after the
span has ended, so reading them is not timed.

The wrappers replace module attributes, which is how ``flowlens.cli`` and the
modules it calls look the functions up at call time; the stage therefore runs
the same code path as ``flowlens <stage>``.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import Counter


class Tracer:
    """Spans of one process, kept in memory until :meth:`dump`."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, attrs=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), 0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[3] = clock()
                stack.pop()
                span[4] = {"error": type(exc).__name__}
                raise
            span[3] = clock()
            stack.pop()
            if attrs is not None:
                span[4] = attrs(args, kwargs, result)
            return result

        return traced

    def dump(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans}, fh)


# --- what a span records about its call ------------------------------------------

def _arg(args, kwargs, index, name):
    if len(args) > index:
        return args[index]
    return kwargs.get(name)


def _parse_attrs(args, kwargs, result):
    stats = _arg(args, kwargs, 1, "stats")
    out = {"records": len(result)}
    if stats is not None:
        out.update(packets=stats.packets, skipped=stats.skipped,
                   reasons=dict(stats.reasons or {}))
    return out


def _assemble_attrs(args, kwargs, result):
    return {"flows": len(result),
            "expired": dict(Counter(f.expiry_reason for f in result))}


def _label_attrs(args, kwargs, result):
    stats = _arg(args, kwargs, 2, "stats")
    out = {"rows": len(result.labels)}
    if stats is not None:
        out.update(attacks=stats.attacks, conflicts=stats.conflicts)
    return out


def _tree_depth(tree) -> int:
    depth = {0: 0}
    deepest = 0
    for node in range(tree.n_nodes()):  # children always follow their parent
        if tree.feature[node] >= 0:
            d = depth[node] + 1
            depth[int(tree.left[node])] = depth[int(tree.right[node])] = d
            deepest = max(deepest, d)
    return deepest


def _forest_attrs(args, kwargs, result):
    leaves = [int((t.feature < 0).sum()) for t in result.trees]
    return {"trees": len(leaves), "leaves": sum(leaves),
            "depth_max": max(_tree_depth(t) for t in result.trees)}


def _mlp_attrs(args, kwargs, result):
    return {"final_loss": result.loss_history[-1] if result.loss_history else None}


def _rows_attrs(args, kwargs, result):
    return {"rows": len(args[1])}


def _explain_attrs(args, kwargs, result):
    return {"samples": len(result), "method": _arg(args, kwargs, 3, "method")}


def _gap_attrs(args, kwargs, result):
    return {"gap": result.additivity_gap()}


def _masks_attrs(args, kwargs, result):
    vf = args[0]
    return {"rows": len(_arg(args, kwargs, 1, "masks")) * len(vf.background)}


def _save_attrs(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


# (module, attribute, span name, attrs). "Class.method" attributes wrap the
# method on the class. Span names are "<layer>.<function>"; the layer is the
# flowlens module the function belongs to.
TRACE_POINTS = [
    ("flowlens.cli", "parse_pcap", "pcap.parse_pcap", _parse_attrs),
    ("flowlens.cli", "assemble_flows", "flows.assemble_flows", _assemble_attrs),
    ("flowlens.cli", "compute_features", "features.compute_features", None),
    ("flowlens.dataset", "write_feature_csv", "dataset.write_feature_csv", None),
    ("flowlens.dataset", "read_feature_csv", "dataset.read_feature_csv", None),
    ("flowlens.dataset", "label_table", "dataset.label_table", _label_attrs),
    ("flowlens.dataset", "write_labeled_csv", "dataset.write_labeled_csv", None),
    ("flowlens.dataset", "read_labeled_csv", "dataset.read_labeled_csv", None),
    ("flowlens.evaluation", "train_forest", "forest.train_forest", _forest_attrs),
    ("flowlens.evaluation", "train_mlp", "mlp.train_mlp", _mlp_attrs),
    ("flowlens.forest", "Forest.predict_proba", "forest.predict_proba", _rows_attrs),
    ("flowlens.forest", "Forest.predict_proba_one", "forest.predict_proba_one", None),
    ("flowlens.mlp", "Mlp.predict_proba_one", "mlp.predict_proba_one", None),
    ("flowlens.cli", "crossval_evaluate", "evaluation.crossval_evaluate", None),
    ("flowlens.explain", "explain_samples", "explain.explain_samples", _explain_attrs),
    ("flowlens.explain", "tree_shap", "explain.tree_shap", _gap_attrs),
    ("flowlens.explain", "kernel_shap", "explain.kernel_shap", _gap_attrs),
    ("flowlens.explain", "CoalitionValueFunction.values_for_masks",
     "explain.values_for_masks", _masks_attrs),
    ("flowlens.cli", "save_model", "model_io.save_model", _save_attrs),
    ("flowlens.cli", "load_model", "model_io.load_model", None),
    ("flowlens.report", "write_report_csv", "report.write_report_csv", None),
    ("flowlens.report", "write_report_jsonl", "report.write_report_jsonl", None),
    ("flowlens.report", "write_explanations_jsonl", "report.write_explanations_jsonl", None),
    ("flowlens.report", "write_ranking_csv", "report.write_ranking_csv", None),
]

LAYERS = ("pcap", "flows", "features", "dataset", "forest", "mlp", "evaluation",
          "explain", "model_io", "report")


def install(tracer: Tracer, points=TRACE_POINTS):
    """Replace each trace point with a span-recording wrapper."""
    for module_name, attr, span_name, attrs in points:
        owner = importlib.import_module(module_name)
        *path, fn_name = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        setattr(owner, fn_name, tracer.wrap(span_name, getattr(owner, fn_name), attrs))


# --- analysis ----------------------------------------------------------------------

class Trace:
    """The spans of one stage process, with self times.

    A span's self time is its duration minus the part of it that its direct
    children cover. Spans of one thread nest, so children never overlap and
    their durations add up.
    """

    def __init__(self, spans: list[list]):
        self.spans = spans
        child_ns = [0] * len(spans)
        for name, parent, start, end, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        self.self_ns = [s[3] - s[2] - c for s, c in zip(spans, child_ns)]

    @classmethod
    def load(cls, path) -> "Trace":
        with open(path, encoding="utf-8") as fh:
            return cls(json.load(fh)["spans"])

    def indices(self, name: str) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s[0] == name]

    def durations_s(self, name: str) -> list[float]:
        return [(s[3] - s[2]) / 1e9 for s in self.spans if s[0] == name]

    def total_s(self, name: str) -> float:
        return sum(self.durations_s(name))

    def self_s(self, name: str) -> float:
        return sum(ns for s, ns in zip(self.spans, self.self_ns) if s[0] == name) / 1e9

    def attrs(self, name: str) -> list[dict]:
        return [s[4] or {} for s in self.spans if s[0] == name]

    def layer_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum(ns for s, ns in zip(self.spans, self.self_ns)
                   if s[0].startswith(prefix)) / 1e9

    def layer_calls(self, layer: str) -> int:
        prefix = layer + "."
        return sum(1 for s in self.spans if s[0].startswith(prefix))

    def within(self, name: str, ancestor: str) -> list[int]:
        """Indices of ``name`` spans that have an ``ancestor`` span above them."""
        out = []
        for i in self.indices(name):
            p = self.spans[i][1]
            while p >= 0 and self.spans[p][0] != ancestor:
                p = self.spans[p][1]
            if p >= 0:
                out.append(i)
        return out
