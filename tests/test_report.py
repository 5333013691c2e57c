"""Chart geometry, table rendering, and report/ranking file round trips."""

import re

import numpy as np
import pytest

from flowlens.evaluation import EvaluationReport, FoldMetrics
from flowlens.explain import Explanation, global_ranking
from flowlens.report import (f1_chart, ranking_chart, read_ranking_csv,
                             read_report_csv, render_metrics_table,
                             write_ranking_csv, write_report_csv,
                             write_report_jsonl)
from flowlens.schema import SchemaError
from flowlens.svg import grouped_bar_chart, horizontal_bar_chart

BAR = re.compile(r'<rect class="bar" x="[\d.]+" y="[\d.]+" width="([\d.]+)"')


def test_horizontal_bar_chart_geometry():
    items = [(f"feat{i}", 1.0 - i * 0.04) for i in range(25)][:20]
    svg = horizontal_bar_chart(items, title="top")
    widths = [float(m.group(1)) for m in BAR.finditer(svg)]
    assert len(widths) == 20
    assert max(widths) == 420.0  # normalized best bar spans the full plot
    assert widths == sorted(widths, reverse=True)


def test_chart_output_is_deterministic():
    items = [("a", 1.0), ("b", 0.25)]
    assert horizontal_bar_chart(items, "t") == horizontal_bar_chart(items, "t")


def test_grouped_chart_two_bars_per_group():
    svg = grouped_bar_chart(["ds1", "ds2", "ds3"],
                            [("set_a", [0.9, 0.8, 0.7]), ("set_b", [0.5, 0.6, 0.4])],
                            title="f1")
    bars = BAR.findall(svg)
    # 3 groups x 2 series data bars (legend swatches carry no class)
    assert len(bars) == 6


def _report(dataset="synth", model="rf", feature_set="netflow_v2_style", n=3):
    folds = [FoldMetrics(fold=i, accuracy=0.9 + 0.01 * i, f1=0.8, dr=0.7, far=0.1,
                         auc=0.95, prediction_time_micros=12.5) for i in range(n)]
    return EvaluationReport(dataset_name=dataset, model_name=model, seed=7, k=n,
                            folds=folds, feature_set=feature_set)


def test_report_csv_round_trip(tmp_path):
    report = _report()
    path = tmp_path / "r.csv"
    write_report_csv(path, report, meta={"config_hash": "deadbeef", "seed": 7})
    back = read_report_csv(path)
    assert back.dataset_name == report.dataset_name
    assert back.feature_set == report.feature_set
    assert back.model_name == report.model_name
    assert back.k == report.k and back.seed == report.seed
    assert [f.accuracy for f in back.folds] == [f.accuracy for f in report.folds]
    assert back.means() == report.means()


def test_report_jsonl_structure(tmp_path):
    import json

    path = tmp_path / "r.jsonl"
    write_report_jsonl(path, _report(), meta={"config_hash": "x"})
    lines = [json.loads(l) for l in path.read_text().splitlines()]
    assert lines[0]["dataset"] == "synth"
    assert len(lines) == 1 + 3
    assert {"fold", "accuracy", "f1", "dr", "far", "auc",
            "prediction_time_micros"} <= set(lines[1])


def test_f1_chart_groups_by_dataset_with_feature_set_series():
    reports = [_report(feature_set="netflow_v2_style"),
               _report(feature_set="cic_style")]
    svg = f1_chart(reports)
    assert len(BAR.findall(svg)) == 2  # one dataset group, two feature sets
    assert "netflow_v2_style" in svg and "cic_style" in svg


def test_ranking_csv_round_trip_and_chart(tmp_path):
    phi = np.array([0.1, -0.5, 0.3, 0.0])
    ranking = global_ranking(
        [Explanation(phi=phi, base_value=0.0, predicted=0.0, method="tree")],
        ["alpha", "beta", "gamma", "delta"],
    )
    path = tmp_path / "rank.csv"
    write_ranking_csv(path, ranking, meta={"seed": 1})
    feats, mean_abs, normalized = read_ranking_csv(path)
    assert feats == ["beta", "gamma", "alpha", "delta"]
    assert normalized[0] == 1.0
    svg = ranking_chart(feats, normalized, title="top", k=3)
    assert len(BAR.findall(svg)) == 3


def test_table_renders_fixture_row_verbatim():
    means = {"accuracy": 0.9947, "f1": 0.98, "dr": 0.9682, "far": 0.0017,
             "auc": 0.9833, "prediction_time_micros": 20.98}
    table = render_metrics_table([("NF-CSE-CIC-IDS2018-v2", means)])
    assert "99.47% | 0.98 | 96.82% | 0.17% | 0.9833 | 20.98µs" in table


def test_report_and_ranking_csv_bytes(tmp_path):
    """The report and ranking formats, byte for byte: metric cells are the
    repr of the float, so they read back exactly."""
    report, ranking = tmp_path / "r.csv", tmp_path / "k.csv"
    write_report_csv(report, _report(n=2), meta={"seed": 7, "config_hash": "ab"})
    assert report.read_text() == (
        "# config_hash=ab seed=7\n"
        "dataset,feature_set,model,seed,k,fold,accuracy,f1,dr,far,auc,prediction_time_micros\n"
        "synth,netflow_v2_style,rf,7,2,0,0.9,0.8,0.7,0.1,0.95,12.5\n"
        "synth,netflow_v2_style,rf,7,2,1,0.91,0.8,0.7,0.1,0.95,12.5\n"
        "synth,netflow_v2_style,rf,7,2,mean,0.905,0.8,0.7,0.1,0.95,12.5\n")
    phi = np.array([0.25, -1.0])
    write_ranking_csv(ranking, global_ranking(
        [Explanation(phi=phi, base_value=0.0, predicted=0.0, method="tree")], ["a,b", "c"]))
    assert ranking.read_text() == (
        "feature,mean_abs_shap,normalized,rank\n"
        "c,1.0,1.0,1\n"
        '"a,b",0.25,0.25,2\n')


def test_carriage_return_cells_round_trip(tmp_path):
    report = _report(dataset="syn\rth", feature_set="a\r\nb")
    path = tmp_path / "r.csv"
    write_report_csv(path, report)
    back = read_report_csv(path)
    assert (back.dataset_name, back.feature_set) == ("syn\rth", "a\r\nb")
    assert back.means() == report.means()
    ranking = global_ranking(
        [Explanation(phi=np.array([0.5, 0.25]), base_value=0.0, predicted=0.0,
                     method="tree")], ["x\ry", "z"])
    write_ranking_csv(path, ranking)
    assert read_ranking_csv(path)[0] == ["x\ry", "z"]


def _long_ranking(tmp_path, n=300):
    names = [f"f{i}" for i in range(n)]
    phi = np.linspace(1.0, 0.1, n)
    path = tmp_path / "long.csv"
    write_ranking_csv(path, global_ranking(
        [Explanation(phi=phi, base_value=0.0, predicted=0.0, method="tree")], names))
    return path


@pytest.mark.parametrize("line, cell, words", [
    (2, "x", ["row 2", "'mean_abs_shap'", "'x'"]),
    (299, "nan", ["row 299", "'mean_abs_shap'", "'nan'"]),  # past the first chunk
])
def test_bad_ranking_cell_names_row_and_column(tmp_path, line, cell, words):
    path = _long_ranking(tmp_path)
    lines = path.read_text().splitlines(keepends=True)
    cells = lines[line].split(",")
    cells[1] = cell
    lines[line] = ",".join(cells)
    path.write_text("".join(lines))
    with pytest.raises(SchemaError) as err:
        read_ranking_csv(path)
    for word in [str(path), *words]:
        assert word in str(err.value)


@pytest.mark.parametrize("text, words", [
    ("", ["empty CSV"]),
    ("feature,mean_abs_shap\nf,1.0\n", ["ranking header"]),
    ("feature,mean_abs_shap,normalized,rank\nf,1.0,1.0,1\ng\n", ["row 2 has 1 cells"]),
])
def test_malformed_ranking_rejected(tmp_path, text, words):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(SchemaError) as err:
        read_ranking_csv(path)
    for word in [str(path), *words]:
        assert word in str(err.value)


@pytest.mark.parametrize("edit, words", [
    (lambda cells: cells.__setitem__(0, "data"), ["report header"]),
    (lambda cells: cells.__setitem__(7, "x"), ["row 1", "'f1'", "'x'"]),
    (lambda cells: cells.__setitem__(5, "two"), ["row 1", "'fold'", "'two'"]),
    (lambda cells: cells.pop(), ["row 1 has 11 cells"]),
])
def test_malformed_report_rejected(tmp_path, edit, words):
    path = tmp_path / "r.csv"
    write_report_csv(path, _report())
    lines = path.read_text().splitlines()
    line = 0 if "report header" in words else 1
    cells = lines[line].split(",")
    edit(cells)
    lines[line] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SchemaError) as err:
        read_report_csv(path)
    for word in [str(path), *words]:
        assert word in str(err.value)
