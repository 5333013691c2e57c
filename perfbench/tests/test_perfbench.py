"""Tests of the benchmark itself: what it prints, and that its correctness
checks count a failure when an output is corrupted.

The metric tests run every workload once untraced and once traced, one
iteration each, so the module takes a few minutes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from perfbench import run
from perfbench.tracing import Trace, Tracer
from perfbench.workloads import WORKLOADS, Deep, input_seed

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

E2E = {"setup_s", "pipeline_s", "ingest_s", "models_s", "explain_s", "peak_rss_mb",
       "ops_ok_ratio"}
STAGES = {"extract_netflow_v2_pkts_per_s", "extract_cic_pkts_per_s", "label_flows_per_s",
          "train_rf_s", "train_mlp_s", "explain_tree_samples_per_s", "crossval_rf_s",
          "crossval_mlp_s", "predict_one_rf_us", "predict_one_mlp_us",
          "explain_kernel_samples_per_s"}
# Per-layer metrics named in README.md; every workload reports all of them.
LAYER = STAGES | {
    "pcap.decode_us_per_packet", "pcap.packets", "pcap.skipped",
    "flows.assemble_us_per_packet", "flows.count", "flows.expired.idle",
    "flows.expired.active", "flows.expired.fin_rst", "flows.expired.end_of_capture",
    "features.netflow_v2.us_per_flow", "features.cic.us_per_flow",
    "dataset.write_feature_csv_s.netflow_v2", "dataset.write_feature_csv_s.cic",
    "dataset.read_feature_csv_s.netflow_v2", "dataset.read_feature_csv_s.cic",
    "dataset.label_table_s", "dataset.write_labeled_csv_s.netflow_v2",
    "dataset.write_labeled_csv_s.cic", "dataset.label.attacks", "dataset.label.conflicts",
    "dataset.read_labeled_csv_s", "forest.train_s", "forest.leaves_per_tree",
    "forest.depth_max", "forest.predict_batch_us_per_row", "forest.predict_one_us.p50",
    "forest.predict_one_us.p99", "mlp.train_s", "mlp.final_loss", "mlp.predict_one_us.p50",
    "mlp.predict_one_us.p99", "evaluation.crossval_self_s.rf",
    "evaluation.crossval_self_s.mlp", "explain.tree_first_sample_s",
    "explain.tree_ms_per_sample", "explain.kernel_ms_per_sample",
    "explain.kernel_model_rows", "explain.max_additivity_gap.tree",
    "explain.max_additivity_gap.kernel", "explain.failed.kernel_cic", "model_io.save_s",
    "model_io.load_s", "model_io.bytes", "report.write_s", "report.calls",
}
LAYERS = ("pcap", "flows", "features", "dataset", "forest", "mlp", "evaluation", "explain",
          "model_io")
CHECKS_PER_ITERATION = 11


def _run(workload: str, trace: int) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), "\n".join(lines[:-1])


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def untraced(request):
    return request.param, *_run(request.param, 0)


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def traced(request):
    return request.param, *_run(request.param, 1)


def test_benchmark_json_lists_the_workloads_and_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert set(E2E_UNITS) == E2E
    assert LAYER <= set(LAYER_UNITS)
    for m in SPEC["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
    setup = max(SPEC["end_to_end"], key=lambda m: m["bound"])
    assert setup["bound"] == next(m["bound"] for m in SPEC["end_to_end"]
                                  if m["name"] == "setup_s")


def test_every_end_to_end_metric_is_printed_with_its_unit(untraced):
    workload, result, text = untraced
    metrics = result["metrics"]
    assert set(metrics) == E2E == set(E2E_UNITS)  # every workload prints the whole manifest
    for name, m in metrics.items():
        assert m["unit"] == E2E_UNITS[name]
        assert m["value"] > 0
    for name in E2E | STAGES:  # the stage times are printed for a reader too
        unit = E2E_UNITS.get(name) or LAYER_UNITS[name]
        assert any(line.split()[:1] == [name] and unit in line.split()
                   for line in text.splitlines()), name
    assert result["correct"] is True


def test_phases_add_up_to_the_pipeline(untraced):
    _, result, _ = untraced
    m = {name: v["value"] for name, v in result["metrics"].items()}
    # one iteration at --seconds 1, so the medians are single samples
    assert m["pipeline_s"] == pytest.approx(m["ingest_s"] + m["models_s"] + m["explain_s"])


def test_only_the_cic_kernel_attempts_fail(untraced):
    workload, result, text = untraced
    per_iteration = len(WORKLOADS[workload].stages(Path("w"), 0)) + CHECKS_PER_ITERATION
    assert result["attempted"] % per_iteration == 0
    if workload == "deep":
        iterations = result["attempted"] // per_iteration
        assert result["failed"] == Deep.kernel_attempts * iterations
        assert "stage kernel_cic_0" in text
    else:
        assert result["failed"] == 0
    failed_ratio = result["failed"] / result["attempted"]
    assert result["metrics"]["ops_ok_ratio"]["value"] == 1 - failed_ratio
    assert f"(ops_failed_ratio {failed_ratio:.6g})" in text


def test_every_per_layer_metric_is_printed_with_its_unit(traced):
    workload, result, text = traced
    metrics = result["metrics"]
    expected = set(LAYER)
    for layer in LAYERS:
        expected |= {f"{layer}.self_s", f"{layer}.calls"}
    expected |= {f"trace_overhead.{name}" for name in E2E | STAGES
                 if name not in ("setup_s", "ops_ok_ratio")}
    assert set(metrics) == expected == set(LAYER_UNITS)
    for name, m in metrics.items():
        assert m["unit"] == LAYER_UNITS[name], name
        assert any(line.split()[:1] == [name] for line in text.splitlines()), name
    assert result["correct"] is True


def test_facts_record_the_load(untraced):
    workload, result, text = untraced
    facts = json.loads(next(line for line in text.splitlines()
                            if line.startswith("facts "))[len("facts "):])
    for key in ("nproc", "python", "numpy", "cpu", "seed", "packets", "flows", "rows",
                "features", "leaves_per_tree", "tree_samples", "tree_background",
                "kernel_samples", "kernel_background"):
        assert key in facts


def test_self_time_subtracts_children():
    # parent 0..100 with children 10..30 and 40..50; grandchild 12..20
    spans = [["a.f", -1, 0, 100, None], ["b.g", 0, 10, 30, None],
             ["c.h", 1, 12, 20, None], ["b.g", 0, 40, 50, None]]
    t = Trace(spans)
    assert t.self_ns == [70, 12, 8, 10]
    assert t.layer_self_s("b") == pytest.approx(22e-9)
    assert t.layer_calls("b") == 2
    assert t.within("c.h", "a.f") == [2]


def test_tracer_records_nesting_and_errors():
    tracer = Tracer()
    inner = tracer.wrap("x.inner", lambda: 1 / 0)
    outer = tracer.wrap("x.outer", lambda: inner(), attrs=lambda a, k, r: {"r": r})
    with pytest.raises(ZeroDivisionError):
        outer()
    names = [s[0] for s in tracer.spans]
    assert names == ["x.outer", "x.inner"]
    assert tracer.spans[1][1] == 0
    assert tracer.spans[0][4] == tracer.spans[1][4] == {"error": "ZeroDivisionError"}


def test_inputs_cycle_through_recorded_sets():
    reference = json.loads(run.REFERENCE.read_text())
    for name in WORKLOADS:
        for seed in (0, 15, 16, 1234567):
            assert str(input_seed(seed)) in reference[name]


# --- corrupted outputs count as failed operations ---------------------------------

def _fake_outputs(work: Path, workload):
    """A small, self-consistent set of every output the checks read."""
    out = work / "out"
    out.mkdir(parents=True)
    for schema in ("netflow_v2", "cic"):
        for suffix in ("", "_labeled"):
            (out / f"{schema}{suffix}.csv").write_text(f"{schema}{suffix}\n1,2\n")
    head = json.dumps({"model": "rf"})
    for kind in ("rf", "mlp"):
        folds = [{"fold": i, "accuracy": 0.9, "f1": 0.8, "dr": 0.7, "far": 0.1, "auc": 0.95,
                  "prediction_time_micros": 20.0 + i} for i in range(5)]
        workload._output(work, kind, "report.jsonl").write_text(
            "\n".join([head] + [json.dumps(f) for f in folds]) + "\n")
        (out / f"predict_one_{kind}.json").write_text(json.dumps({"max_batch_gap": 0.0}))
    row = {"base": 0.25, "phi": [0.5, 0.25], "prediction": 1.0}
    for kind, method in (("rf", "tree"), ("mlp", "kernel")):
        workload._output(work, kind, f"{method}_explanations.jsonl").write_text(
            "\n".join([head] + [json.dumps(row)] * 3) + "\n")


def _checks(workload, work, reference):
    tally = run.Tally()
    run.run_checks(workload, work, reference, tally)
    return tally


def test_corrupted_csv_fails_the_digest_check(tmp_path):
    workload = WORKLOADS["shallow"]
    _fake_outputs(tmp_path, workload)
    reference = workload.observe(tmp_path)
    tally = _checks(workload, tmp_path, reference)
    assert (tally.attempted, tally.failed) == (CHECKS_PER_ITERATION, 0)
    path = tmp_path / "out" / "cic_labeled.csv"
    path.write_bytes(path.read_bytes().replace(b"1", b"7"))
    tally = _checks(workload, tmp_path, reference)
    assert tally.failures == ["check sha256 cic_labeled.csv"]
    assert tally.unexpected == 1


def test_changed_fold_metric_fails_the_crossval_check(tmp_path):
    workload = WORKLOADS["shallow"]
    _fake_outputs(tmp_path, workload)
    reference = workload.observe(tmp_path)
    path = workload._output(tmp_path, "rf", "report.jsonl")
    path.write_text(path.read_text().replace('"auc": 0.95', '"auc": 0.96', 1))
    assert _checks(workload, tmp_path, reference).failures == ["check fold metrics rf"]


def test_kernel_additivity_gap_fails_its_check(tmp_path):
    workload = WORKLOADS["shallow"]
    _fake_outputs(tmp_path, workload)
    reference = workload.observe(tmp_path)
    path = workload._output(tmp_path, "mlp", "kernel_explanations.jsonl")
    path.write_text(path.read_text().replace('"prediction": 1.0', '"prediction": 1.00001', 1))
    assert _checks(workload, tmp_path, reference).failures == ["check kernel additivity"]


@pytest.fixture(scope="module")
def deep_outputs(tmp_path_factory):
    """Real deep outputs for input set 0, from one untraced iteration."""
    work = tmp_path_factory.mktemp("deep")
    workload = WORKLOADS["deep"]
    os.environ.update(run.THREAD_ENV)
    workload.setup(work, 0)
    reference = json.loads(run.REFERENCE.read_text())["deep"]["0"]
    tally = run.Tally()
    run.run_pass(workload, work, 0, tally, time.monotonic() + 170, False, reference)
    return work, reference, tally


def test_real_tree_shap_outputs_pass_their_checks(deep_outputs):
    work, reference, tally = deep_outputs
    assert tally.unexpected == 0
    assert tally.failed == Deep.kernel_attempts


def test_perturbed_phi_fails_the_tree_checks(deep_outputs):
    work, reference, _ = deep_outputs
    path = WORKLOADS["deep"]._output(work, "rf", "tree_explanations.jsonl")
    lines = path.read_text().splitlines()
    row = json.loads(lines[1])
    row["phi"][0] += 1e-6
    lines[1] = json.dumps(row)
    path.write_text("\n".join(lines) + "\n")
    tally = run.Tally()
    run.run_checks(WORKLOADS["deep"], work, reference, tally)
    assert tally.failures == ["check tree phi vs recorded", "check tree additivity"]
    assert tally.unexpected == 2
