"""Report rendering and persistence: metric tables, per-fold dumps, feature
rankings, explanation dumps, and the SVG charts built from them."""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

from .dataset import open_csv, typed_columns, write_csv
from .evaluation import METRIC_NAMES, EvaluationReport, FoldMetrics
from .explain import Explanation, GlobalRanking
from .schema import SchemaError
from .svg import grouped_bar_chart, horizontal_bar_chart

TABLE_COLUMNS = ("Accuracy", "F1 Score", "DR", "FAR", "AUC", "Prediction Time")


def format_metrics(means: dict) -> list[str]:
    """Render one result row the way the summary tables print it."""
    return [
        f"{means['accuracy'] * 100:.2f}%",
        f"{means['f1']:.2f}",
        f"{means['dr'] * 100:.2f}%",
        f"{means['far'] * 100:.2f}%",
        f"{means['auc']:.4f}",
        f"{means['prediction_time_micros']:.2f}µs",
    ]


def render_metrics_table(rows: list[tuple[str, dict]], title: str = "") -> str:
    """Fixed-width table: one row per (name, metric means) pair."""
    name_w = max([len("Dataset")] + [len(name) for name, _ in rows])
    lines = []
    if title:
        lines.append(title)
    header = "Dataset".ljust(name_w) + " | " + " | ".join(TABLE_COLUMNS)
    lines.append(header)
    lines.append("-" * len(header))
    for name, means in rows:
        lines.append(name.ljust(name_w) + " | " + " | ".join(format_metrics(means)))
    return "\n".join(lines) + "\n"


# --- evaluation report files --------------------------------------------------

_REPORT_HEADER = ["dataset", "feature_set", "model", "seed", "k", "fold", *METRIC_NAMES]


def write_report_csv(path: str | Path, report: EvaluationReport, meta: dict | None = None):
    prefix = [report.dataset_name, report.feature_set, report.model_name,
              report.seed, report.k]
    rows = [prefix + [fm.fold] + [repr(getattr(fm, m)) for m in METRIC_NAMES]
            for fm in report.folds]
    means = report.means()
    rows.append(prefix + ["mean"] + [repr(means[m]) for m in METRIC_NAMES])
    write_csv(path, _REPORT_HEADER, rows, meta)


def read_report_csv(path: str | Path) -> EvaluationReport:
    """The per-fold rows of a report CSV; its closing ``mean`` row is skipped.
    A wrong header, a ragged row, a bad cell or no fold row is a SchemaError."""
    with open_csv(path) as (header, _, reader):
        if header != _REPORT_HEADER:
            raise SchemaError(f"{path}: report header must be {_REPORT_HEADER}")
        columns = typed_columns(path, header, reader, {0, 1, 2, 5})
    folds = []
    for r, (fold, *values) in enumerate(zip(*columns[5:]), 1):
        if fold == "mean":
            continue
        if not fold.isdecimal():
            raise SchemaError(f"{path}: row {r}, column 'fold': {fold!r} is not a fold number")
        folds.append(FoldMetrics(int(fold), *values))
    if not folds:
        raise SchemaError(f"{path}: report holds no fold rows")
    # The identifying cells are those of the last row.
    dataset, feature_set, model, seed, k = [c[-1] for c in columns[:5]]
    return EvaluationReport(dataset_name=dataset, model_name=model, seed=seed, k=k,
                            folds=folds, feature_set=feature_set)


def write_report_jsonl(path: str | Path, report: EvaluationReport, meta: dict | None = None):
    """Per-fold detail for downstream plotting."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        head = {
            "dataset": report.dataset_name,
            "feature_set": report.feature_set,
            "model": report.model_name,
            "seed": report.seed,
            "k": report.k,
        }
        if meta:
            head["meta"] = meta
        fh.write(json.dumps(head, sort_keys=True) + "\n")
        for fm in report.folds:
            fh.write(json.dumps(asdict(fm), sort_keys=True) + "\n")


# --- rankings and explanation dumps --------------------------------------------

_RANKING_HEADER = ["feature", "mean_abs_shap", "normalized", "rank"]


def write_ranking_csv(path: str | Path, ranking: GlobalRanking, meta: dict | None = None):
    rows = ([ranking.feature_names[idx], repr(float(ranking.mean_abs[idx])),
             repr(float(ranking.normalized[idx])), rank]
            for rank, idx in enumerate(ranking.order, start=1))
    write_csv(path, _RANKING_HEADER, rows, meta)


def read_ranking_csv(path: str | Path) -> tuple[list[str], list[float], list[float]]:
    """Returns (features, mean_abs, normalized) in rank order. A wrong header,
    a ragged row or a bad number is a :class:`SchemaError`."""
    with open_csv(path) as (header, _, reader):
        if header != _RANKING_HEADER:
            raise SchemaError(f"{path}: ranking header must be {_RANKING_HEADER}")
        features, mean_abs, normalized, _ = typed_columns(path, header, reader, {0})
    return features, mean_abs, normalized


def write_explanations_jsonl(
    path: str | Path,
    explanations: list[Explanation],
    seed: int,
    meta: dict | None = None,
):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if meta:
            fh.write(json.dumps({"meta": meta}, sort_keys=True) + "\n")
        for e in explanations:
            fh.write(
                json.dumps(
                    {
                        "phi": [float(v) for v in e.phi],
                        "base": float(e.base_value),
                        "prediction": float(e.predicted),
                        "method": e.method,
                        "seed": seed,
                    },
                    sort_keys=True,
                )
                + "\n"
            )


# --- chart emission -------------------------------------------------------------

def ranking_chart(
    features: list[str], normalized: list[float], title: str, k: int = 20, meta: str = ""
) -> str:
    items = list(zip(features, normalized))[:k]
    return horizontal_bar_chart(items, title=title, meta=meta)


def f1_chart(reports: list[EvaluationReport], title: str = "F1 score by dataset", meta: str = "") -> str:
    """Grouped bars: one group per dataset, one bar per feature set (falling
    back to the model name when feature sets are not recorded)."""
    groups = sorted({r.dataset_name for r in reports})
    label = lambda r: r.feature_set or r.model_name
    names = sorted({label(r) for r in reports})
    series = []
    for name in names:
        values = []
        for g in groups:
            matches = [r for r in reports if r.dataset_name == g and label(r) == name]
            values.append(matches[0].mean("f1") if matches else 0.0)
        series.append((name, values))
    return grouped_bar_chart(groups, series, title=title, y_label="F1", meta=meta)
