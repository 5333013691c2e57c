"""Command-line surface: subcommand wiring, exit codes, artifact determinism,
and the help/docs consistency check."""

import hashlib
import json
import os
from pathlib import Path

import pytest

from flowlens.cli import build_parser, main
from flowlens.dataset import read_feature_csv, read_labeled_csv
from flowlens.util import parse_meta_line
from conftest import (pcap_global_header, pcap_record, raw_ethernet, raw_ipv4,
                      raw_udp)

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One small synth -> extract -> label -> train run shared by the tests."""
    root = tmp_path_factory.mktemp("cli")
    assert main(["synth", "--out-dir", str(root), "--seed", "11",
                 "--benign-http", "12", "--benign-dns", "6",
                 "--flood-flows", "10", "--dos-flows", "4"]) == 0
    pcap = root / "synth.pcap"
    events = root / "ground_truth.csv"
    features = {}
    labeled = {}
    for schema in ("netflow_v2", "cic"):
        features[schema] = root / f"features_{schema}.csv"
        assert main(["extract", "--pcap", str(pcap), "--schema", schema,
                     "--out", str(features[schema]), "--seed", "11"]) == 0
        labeled[schema] = root / f"labeled_{schema}.csv"
        assert main(["label", "--features", str(features[schema]),
                     "--events", str(events), "--out", str(labeled[schema]),
                     "--seed", "11"]) == 0
    model = root / "model_rf.json"
    assert main(["train", "--data", str(labeled["netflow_v2"]), "--model", "rf",
                 "--out", str(model), "--seed", "11", "--trees", "10",
                 "--max-depth", "6"]) == 0
    mlp = root / "model_mlp.json"
    assert main(["train", "--data", str(labeled["netflow_v2"]), "--model", "mlp",
                 "--out", str(mlp), "--seed", "11", "--epochs", "2"]) == 0
    return {"root": root, "pcap": pcap, "events": events, "features": features,
            "labeled": labeled, "model": model, "mlp": mlp}


def test_extract_same_flows_under_both_schemas(pipeline):
    nf, _ = read_feature_csv(pipeline["features"]["netflow_v2"])
    cic, _ = read_feature_csv(pipeline["features"]["cic"])
    assert len(nf) == len(cic) > 0
    assert nf.schema.column_names != cic.schema.column_names


def test_empty_pcap_gives_header_only_csv(tmp_path):
    import struct

    empty = tmp_path / "empty.pcap"
    empty.write_bytes(struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1))
    out = tmp_path / "empty.csv"
    assert main(["extract", "--pcap", str(empty), "--schema", "cic",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("#")
    assert len(lines) == 2  # provenance + header only


def test_unreadable_pcap_exits_2(tmp_path):
    assert main(["extract", "--pcap", str(tmp_path / "missing.pcap"),
                 "--schema", "cic", "--out", str(tmp_path / "x.csv")]) == 2
    bad = tmp_path / "bad.pcap"
    bad.write_bytes(b"not a capture at all....")
    assert main(["extract", "--pcap", str(bad), "--schema", "cic",
                 "--out", str(tmp_path / "x.csv")]) == 2


def test_eval_missing_model_path_exits_2(pipeline, tmp_path):
    assert main(["eval", "--data", str(pipeline["labeled"]["netflow_v2"]),
                 "--model-file", str(tmp_path / "nope.json"),
                 "--out-dir", str(tmp_path)]) == 2


def test_eval_without_model_arguments_exits_2(pipeline, tmp_path):
    assert main(["eval", "--data", str(pipeline["labeled"]["netflow_v2"]),
                 "--out-dir", str(tmp_path)]) == 2


def test_fingerprint_mismatch_exits_3(pipeline, tmp_path):
    # model trained on the netflow schema, data labeled under the cic schema
    assert main(["explain", "--data", str(pipeline["labeled"]["cic"]),
                 "--model-file", str(pipeline["model"]),
                 "--out-dir", str(tmp_path)]) == 3
    assert main(["eval", "--data", str(pipeline["labeled"]["cic"]),
                 "--model-file", str(pipeline["model"]),
                 "--out-dir", str(tmp_path)]) == 3


def test_model_file_without_scaler_exits_2(pipeline, tmp_path):
    doc = json.loads(pipeline["model"].read_text(encoding="utf-8"))
    doc["scaler"] = None
    model = tmp_path / "no_scaler.json"
    model.write_text(json.dumps(doc), encoding="utf-8")
    data = str(pipeline["labeled"]["netflow_v2"])
    assert main(["eval", "--data", data, "--model-file", str(model),
                 "--out-dir", str(tmp_path)]) == 2
    assert main(["explain", "--data", data, "--model-file", str(model),
                 "--out-dir", str(tmp_path)]) == 2


def test_saved_model_eval_runs(pipeline, tmp_path):
    assert main(["eval", "--data", str(pipeline["labeled"]["netflow_v2"]),
                 "--model-file", str(pipeline["model"]),
                 "--out-dir", str(tmp_path), "--timing-rows", "16",
                 "--timing-repeats", "1", "--seed", "11"]) == 0
    report = next(tmp_path.glob("*_saved_report.csv"))
    assert "rf" in report.name


def test_rerun_artifacts_byte_identical(pipeline, tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out1, out2):
        assert main(["extract", "--pcap", str(pipeline["pcap"]), "--schema",
                     "netflow_v2", "--out", str(out), "--seed", "11"]) == 0
    assert out1.read_bytes() == out2.read_bytes()

    # labeling and training are deterministic too
    lab1, lab2 = tmp_path / "l1.csv", tmp_path / "l2.csv"
    for lab in (lab1, lab2):
        assert main(["label", "--features", str(out1), "--events",
                     str(pipeline["events"]), "--out", str(lab), "--seed", "11"]) == 0
    assert lab1.read_bytes() == lab2.read_bytes()

    m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
    for m in (m1, m2):
        assert main(["train", "--data", str(lab1), "--model", "rf", "--out",
                     str(m), "--seed", "11", "--trees", "5"]) == 0
    assert m1.read_bytes() == m2.read_bytes()


def test_explain_and_report_pipeline(pipeline, tmp_path):
    out = tmp_path / "explain"
    assert main(["explain", "--data", str(pipeline["labeled"]["netflow_v2"]),
                 "--model-file", str(pipeline["model"]), "--samples", "6",
                 "--background", "8", "--out-dir", str(out), "--seed", "11"]) == 0
    ranking = next(out.glob("*_ranking.csv"))
    dumps = next(out.glob("*_explanations.jsonl"))
    lines = dumps.read_text().splitlines()
    head = json.loads(lines[0])
    assert "meta" in head
    sample = json.loads(lines[1])
    assert {"phi", "base", "prediction", "method", "seed"} <= set(sample)
    assert sample["method"] == "tree"
    # efficiency holds on the dumped numbers
    assert abs(sample["base"] + sum(sample["phi"]) - sample["prediction"]) < 1e-6

    report_dir = tmp_path / "reports"
    assert main(["eval", "--data", str(pipeline["labeled"]["netflow_v2"]),
                 "--model", "rf", "--trees", "10", "--folds", "3",
                 "--out-dir", str(report_dir), "--timing-rows", "8",
                 "--timing-repeats", "1", "--seed", "11"]) == 0
    report_csv = next(report_dir.glob("*_rf_report.csv"))
    render_dir = tmp_path / "render"
    assert main(["report", "--reports", str(report_csv), "--rankings",
                 str(ranking), "--out-dir", str(render_dir), "--seed", "11"]) == 0
    assert (render_dir / "metrics_table.txt").exists()
    assert (render_dir / "f1_rf.svg").exists()
    svgs = list(render_dir.glob("*_top20.svg"))
    assert len(svgs) == 1

    # rendering twice is byte-identical
    render2 = tmp_path / "render2"
    assert main(["report", "--reports", str(report_csv), "--rankings",
                 str(ranking), "--out-dir", str(render2), "--seed", "11"]) == 0
    assert (render2 / "f1_rf.svg").read_bytes() == (render_dir / "f1_rf.svg").read_bytes()


def test_report_without_inputs_exits_2(tmp_path):
    assert main(["report", "--out-dir", str(tmp_path)]) == 2


def test_config_file_supplies_defaults(pipeline, tmp_path):
    config = tmp_path / "run.conf"
    config.write_text("idle_timeout=15\nseed=11\n")
    out = tmp_path / "via_config.csv"
    assert main(["extract", "--pcap", str(pipeline["pcap"]), "--schema",
                 "netflow_v2", "--out", str(out), "--config", str(config)]) == 0
    direct = tmp_path / "direct.csv"
    assert main(["extract", "--pcap", str(pipeline["pcap"]), "--schema",
                 "netflow_v2", "--out", str(direct), "--seed", "11",
                 "--idle-timeout", "15"]) == 0
    # same effective settings -> same rows (provenance hashes include config)
    nf1, _ = read_feature_csv(out)
    nf2, _ = read_feature_csv(direct)
    assert nf1.columns == nf2.columns


def test_seed_env_var_used_as_default(pipeline, tmp_path, monkeypatch):
    monkeypatch.setenv("FLOWLENS_SEED", "11")
    out_env = tmp_path / "env.csv"
    assert main(["extract", "--pcap", str(pipeline["pcap"]), "--schema",
                 "netflow_v2", "--out", str(out_env)]) == 0
    _, meta = read_feature_csv(out_env)
    assert meta["seed"] == "11"
    monkeypatch.setenv("FLOWLENS_SEED", "99")
    out_flag = tmp_path / "flag.csv"
    assert main(["extract", "--pcap", str(pipeline["pcap"]), "--schema",
                 "netflow_v2", "--out", str(out_flag), "--seed", "11"]) == 0
    _, meta = read_feature_csv(out_flag)
    assert meta["seed"] == "11"  # explicit flag beats the environment


def test_labeled_csv_has_label_and_attack_columns(pipeline):
    ds, _ = read_labeled_csv(pipeline["labeled"]["netflow_v2"])
    assert set(ds.labels) == {0, 1}
    assert "Benign" in ds.categories


def _subcommands():
    parser = build_parser()
    return parser._subparsers._group_actions[0].choices.items()


def test_every_cli_flag_documented_in_readme():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    for name, sub in _subcommands():
        assert name in readme
        for action in sub._actions:
            for opt in action.option_strings:
                if opt.startswith("--"):
                    assert opt in readme, f"{name} flag {opt} missing from README"


def test_every_cli_flag_appears_in_help():
    for name, sub in _subcommands():
        text = sub.format_help()
        for action in sub._actions:
            for opt in action.option_strings:
                if opt.startswith("--"):
                    assert opt in text


@pytest.mark.parametrize("cell", ["abc", "nan", "inf"])
def test_bad_learnable_cell_exits_2_naming_it(pipeline, tmp_path, capsys, cell):
    lines = pipeline["labeled"]["netflow_v2"].read_text().splitlines(keepends=True)
    column = "IN_BYTES"
    j = lines[1].rstrip("\n").split(",").index(column)
    cells = lines[4].rstrip("\n").split(",")  # provenance, header, then data row 3
    cells[j] = cell
    lines[4] = ",".join(cells) + "\n"
    bad = tmp_path / "bad_cell.csv"
    bad.write_text("".join(lines))
    capsys.readouterr()
    assert main(["train", "--data", str(bad), "--model", "rf", "--trees", "2",
                 "--out", str(tmp_path / "m.json")]) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and "row 3" in err and repr(column) in err and repr(cell) in err
    assert not (tmp_path / "m.json").exists()


# sha256 of every artifact of synth -> extract -> label on the default synth
# scenario (seed 7). A change to these bytes is a change to the file formats
# or to what ingest computes, and must be deliberate.
GOLDEN_SHA256 = {
    "synth.pcap": "21f84efd24e47caefea8c38de0a6b5a7d2f259596e1ab1070e99329c8ed7cd77",
    "ground_truth.csv": "5ffb8eab0df66ff3c76f8995f4c8d2e11d8c1f7b1eb2b1516bf7bb1531864bb3",
    "features_netflow_v2.csv":
        "ed79fb4fd0eb9714048e5c75a71a6d20e12ef84076e41be9696a1adc6a514daa",
    "labeled_netflow_v2.csv":
        "0dc5d3847f73ac1668c3d7a6e2972eb60729f727fc2af6ff951b1962639c2de6",
    "features_cic.csv": "3b73a29e9feb15dad23f77fb91dbff45c3406086ae7286bd6dc9f848016e0343",
    "labeled_cic.csv": "d8ceca12c26f6e4846b74d590bf50c2f816fb8d03f4b5791bc169517d3dc028c",
}
# sha256 of the learnable float64 matrix X() read back from each labeled CSV.
GOLDEN_X_SHA256 = {
    "netflow_v2": "08c67fc4cf66be8c3639b373c3155e6ac3439dd65b9f4dd50faf90b62f3f669b",
    "cic": "9f16ee777844294c446feaf86d53caf30364f81763ddf6041fd997a4889117c7",
}


def test_default_scenario_ingest_artifacts_match_golden_digests(tmp_path):
    assert main(["synth", "--out-dir", str(tmp_path), "--seed", "7"]) == 0
    for schema in ("netflow_v2", "cic"):
        features = tmp_path / f"features_{schema}.csv"
        assert main(["extract", "--pcap", str(tmp_path / "synth.pcap"), "--schema",
                     schema, "--out", str(features), "--seed", "7"]) == 0
        assert main(["label", "--features", str(features), "--events",
                     str(tmp_path / "ground_truth.csv"), "--out",
                     str(tmp_path / f"labeled_{schema}.csv"), "--seed", "7"]) == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in GOLDEN_SHA256}
    assert digests == GOLDEN_SHA256
    matrices = {schema: hashlib.sha256(read_labeled_csv(tmp_path / f"labeled_{schema}.csv")[0]
                                       .X().tobytes()).hexdigest()
                for schema in GOLDEN_X_SHA256}
    assert matrices == GOLDEN_X_SHA256


def test_extract_prints_skip_reasons(tmp_path, capsys):
    udp = raw_ethernet(0x0800, raw_ipv4("10.0.0.1", "10.0.0.2", 17, 64,
                                        raw_udp(5353, 53, b"ab")))
    ipv6 = raw_ethernet(0x86DD, b"\x00" * 40)
    arp = raw_ethernet(0x0806, b"\x00" * 28)
    pcap = tmp_path / "mixed.pcap"
    out = tmp_path / "mixed.csv"
    pcap.write_bytes(pcap_global_header() + pcap_record(0, 0, ipv6) + pcap_record(0, 1, udp)
                     + pcap_record(0, 2, arp) + pcap_record(0, 3, ipv6))
    capsys.readouterr()
    assert main(["extract", "--pcap", str(pcap), "--schema", "netflow_v2",
                 "--out", str(out)]) == 0
    assert capsys.readouterr().out == (
        f"decoded 1 packets (3 skipped: ipv6=2, non_ipv4=1), 1 flows -> {out}\n")

    clean = tmp_path / "clean.pcap"
    clean.write_bytes(pcap_global_header() + pcap_record(0, 1, udp))
    assert main(["extract", "--pcap", str(clean), "--schema", "netflow_v2",
                 "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"decoded 1 packets (0 skipped), 1 flows -> {out}\n"


def _fill(argv, **paths):
    return [a.format(**paths) for a in argv]


@pytest.mark.parametrize("argv, setting", [
    (["train", "--model", "rf", "--feature-fraction", "abc"], "feature_fraction"),
    (["train", "--model", "mlp", "--hidden", "4,x"], "hidden"),
    (["train", "--model", "rf", "--config", "{conf}"], "trees"),
    (["train", "--model", "mlp", "--batch-size", "0"], "batch_size"),
    (["train", "--model", "rf", "--trees", "0"], "trees"),
    (["train", "--model", "rf", "--seed", "-1"], "seed"),
    (["eval", "--model", "rf", "--folds", "1"], "folds"),
    (["eval", "--model-file", "{model}", "--timing-rows", "0"], "timing_rows"),
    (["explain", "--model-file", "{model}", "--samples", "0"], "samples"),
    (["explain", "--model-file", "{model}", "--background", "0"], "background"),
    (["explain", "--model-file", "{model}", "--budget", "abc"], "budget"),
    (["train", "--model", "mlp", "--learning-rate", "nan"], "learning_rate"),
    (["train", "--model", "mlp", "--epochs", "0"], "epochs"),
    (["train", "--model", "rf", "--max-depth", "-1"], "max_depth"),
    (["train", "--model", "rf", "--min-samples-split", "1"], "min_samples_split"),
    (["synth", "--benign-http", "-3"], "benign_http"),
    (["synth", "--benign-dns", "-1"], "benign_dns"),
    (["synth", "--flood-flows", "-2"], "flood_flows"),
    (["synth", "--dos-flows", "-1"], "dos_flows"),
    (["extract", "--pcap", "{pcap}", "--schema", "netflow_v2", "--threads", "-3"], "threads"),
    (["train", "--model", "rf", "--threads", "0"], "threads"),
    (["eval", "--model", "rf", "--threads", "-1"], "threads"),
    (["explain", "--model-file", "{model}", "--method", "exact"], "method"),
    (["explain", "--model-file", "{model}", "--method", "kernel", "--budget", "full"],
     "budget"),
    (["explain", "--model-file", "{mlp}", "--method", "tree"], "method"),
    (["eval", "--model", "rf", "--folds", "1000"], "folds"),
    (["eval", "--model", "rf", "--folds", "2", "--data", "{rare}"], "folds"),
])
def test_bad_setting_exits_2_naming_it(pipeline, tmp_path, capsys, argv, setting):
    conf = tmp_path / "run.conf"
    conf.write_text("trees=abc\n")
    # the netflow table with its benign rows and one attack row
    lines = pipeline["labeled"]["netflow_v2"].read_text().splitlines(keepends=True)
    attack = next(line for line in lines[2:] if line.split(",")[-2] == "1")
    rare = tmp_path / "rare.csv"
    rare.write_text("".join([*lines[:2], *(line for line in lines[2:]
                                            if line.split(",")[-2] == "0"), attack]))
    out = tmp_path / "out"
    command = _fill(argv, conf=conf, model=pipeline["model"], mlp=pipeline["mlp"],
                    pcap=pipeline["pcap"], rare=rare)
    if argv[0] in ("train", "eval", "explain") and "--data" not in argv:
        command += ["--data", str(pipeline["labeled"]["netflow_v2"])]
    command += ["--out", str(out)] if argv[0] in ("train", "extract") else ["--out-dir", str(out)]
    capsys.readouterr()
    assert main(command) == 2
    assert f"setting {setting}=" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [
    ("--idle-timeout", "nan"),
    ("--idle-timeout", "0"),
    ("--active-timeout", "-5"),
    ("--activity-timeout", "inf"),
])
def test_bad_timeout_exits_2_naming_it(pipeline, tmp_path, capsys, flag, value):
    out = tmp_path / "features.csv"
    capsys.readouterr()
    assert main(["extract", "--pcap", str(pipeline["pcap"]), "--schema", "netflow_v2",
                 "--out", str(out), flag, value]) == 2
    setting = flag[2:].replace("-", "_")
    assert f"setting {setting}={float(value)}: " in capsys.readouterr().err
    assert not out.exists()


def test_report_top_k_below_1_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["report", "--rankings", str(tmp_path / "ranking.csv"), "--top-k", "-1",
                 "--out-dir", str(out)]) == 2
    assert "setting top_k=-1: must be at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_kernel_budget_below_minimum_exits_2_naming_it(pipeline, tmp_path, capsys):
    """Kernel SHAP needs the empty and full coalitions plus one value per
    feature: a budget below that is an input error, and the minimum runs."""
    data = pipeline["labeled"]["netflow_v2"]
    minimum = len(read_labeled_csv(data)[0].schema.learnable_names) + 2
    command = ["explain", "--data", str(data), "--model-file", str(pipeline["model"]),
               "--method", "kernel", "--samples", "1", "--background", "2"]
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(command + ["--budget", str(minimum - 1), "--out-dir", str(out)]) == 2
    assert (f"setting budget={minimum - 1}: must be at least {minimum}"
            in capsys.readouterr().err)
    assert not out.exists()
    assert main(command + ["--budget", str(minimum), "--out-dir", str(out)]) == 0


# Provenance of valid settings, as recorded before values were range-checked:
# checking a value must not change what config_hash covers.
@pytest.mark.parametrize("argv, digest", [
    (["train", "--model", "rf", "--trees", "3", "--feature-fraction", "0.5",
      "--max-depth", "4", "--seed", "5", "--out", "{out}"], "2c0ed20b9c48adc6"),
    (["train", "--model", "rf", "--config", "{conf}", "--out", "{out}"], "4182760087cecddf"),
    (["train", "--model", "mlp", "--hidden", "8,4", "--batch-size", "16", "--epochs", "2",
      "--learning-rate", "0.1", "--seed", "5", "--out", "{out}"], "eb59f8d9b7272d0e"),
    (["eval", "--model", "rf", "--trees", "2", "--folds", "2", "--timing-rows", "4",
      "--timing-repeats", "1", "--seed", "5", "--out-dir", "{out}"], "a0f56b97ab1f3944"),
])
def test_valid_settings_keep_their_config_hash(pipeline, tmp_path, argv, digest):
    conf = tmp_path / "run.conf"
    conf.write_text("trees=3\nfeature_fraction=0.5\nseed=5\n")
    out = tmp_path / "out"
    assert main(_fill(argv, conf=conf, out=out)
                + ["--data", str(pipeline["labeled"]["netflow_v2"])]) == 0
    if argv[0] == "train":
        meta = json.loads(out.read_text(encoding="utf-8"))["meta"]
    else:
        meta = parse_meta_line(next(out.glob("*_report.csv")).read_text().splitlines()[0])
    assert meta["config_hash"] == digest


def test_model_file_provenance_is_its_content(pipeline, tmp_path, monkeypatch):
    """The same model under a relative and an absolute path gives the same
    explain files and the same eval provenance."""
    model_dir = tmp_path / "models"
    model_dir.mkdir()
    (model_dir / "rf.json").write_bytes(pipeline["model"].read_bytes())
    monkeypatch.chdir(model_dir)
    data = str(pipeline["labeled"]["netflow_v2"])
    for name, path in (("rel", "rf.json"), ("abs", str(model_dir / "rf.json"))):
        assert main(["explain", "--data", data, "--model-file", path, "--samples", "4",
                     "--background", "4", "--out-dir", str(tmp_path / name)]) == 0
        assert main(["eval", "--data", data, "--model-file", path, "--timing-rows", "2",
                     "--timing-repeats", "1", "--out-dir", str(tmp_path / name)]) == 0
    rel, abs_ = sorted((tmp_path / "rel").iterdir()), sorted((tmp_path / "abs").iterdir())
    assert [p.name for p in rel] == [p.name for p in abs_]
    for a, b in zip(rel, abs_):
        if "_explanations" in a.name or "_ranking" in a.name:
            assert a.read_bytes() == b.read_bytes()
        elif a.suffix == ".csv":  # eval reports: same provenance, measured timings differ
            assert a.read_text().splitlines()[0] == b.read_text().splitlines()[0]


def _report_csv(pipeline, tmp_path):
    out = tmp_path / "eval"
    assert main(["eval", "--data", str(pipeline["labeled"]["netflow_v2"]),
                 "--model-file", str(pipeline["model"]), "--timing-rows", "2",
                 "--timing-repeats", "1", "--out-dir", str(out)]) == 0
    return next(out.glob("*_report.csv")).read_text()


def _ranking_csv(pipeline, tmp_path):
    out = tmp_path / "explain"
    assert main(["explain", "--data", str(pipeline["labeled"]["netflow_v2"]),
                 "--model-file", str(pipeline["model"]), "--samples", "4",
                 "--background", "4", "--out-dir", str(out)]) == 0
    return next(out.glob("*_ranking.csv")).read_text()


def _replace_cell(text, line, column, value):
    lines = text.splitlines(keepends=True)
    cells = lines[line].rstrip("\n").split(",")
    cells[column] = value
    lines[line] = ",".join(cells) + "\n"
    return "".join(lines)


def _labeled_lines(pipeline, keep):
    """The netflow_v2 labeled table with only the data rows ``keep`` accepts."""
    lines = pipeline["labeled"]["netflow_v2"].read_text().splitlines(keepends=True)
    return "".join(lines[:2] + [line for line in lines[2:] if keep(line)])


# The model stages, each reading the malformed table through --data.
DATA_STAGES = {
    "train": ["train", "--model", "rf", "--trees", "2", "--out", "{out}"],
    "eval": ["eval", "--model", "rf", "--trees", "2", "--out-dir", "{out}"],
    "eval_saved": ["eval", "--model-file", "{model}", "--out-dir", "{out}"],
    "explain": ["explain", "--model-file", "{model}", "--out-dir", "{out}"],
}

# Each case: (flag or model stage, make the file's text, words the error must
# hold). Line 0 of every file is the provenance line, line 1 the header.
MALFORMED_TABLES = {
    **{f"labeled_empty_{stage}": (stage, lambda p, t: _labeled_lines(p, lambda line: False),
                                  ["no rows"])
       for stage in DATA_STAGES},
    **{f"labeled_one_class_{stage}": (stage, lambda p, t: _labeled_lines(
        p, lambda line: line.rstrip("\n").endswith(",0,Benign")), ["one class"])
       for stage in ("train", "eval", "eval_saved")},
    "report_header": ("--reports", lambda p, t: _report_csv(p, t).replace("fold", "folds", 1),
                      ["header"]),
    "ranking_empty": ("--rankings", lambda p, t: "", ["empty CSV"]),
    "ranking_cell": ("--rankings", lambda p, t: _replace_cell(_ranking_csv(p, t), 3, 1, "x"),
                     ["row 2", "'mean_abs_shap'", "'x'"]),
    "ranking_short_row": ("--rankings", lambda p, t: _ranking_csv(p, t) + "alpha\n",
                          ["has 1 cells"]),
    "events_start": ("--events", lambda p, t: _replace_cell(p["events"].read_text(), 2, 3, "abc"),
                     ["row 1", "'start_ts'", "'abc'"]),
    "events_order": ("--events", lambda p, t: _replace_cell(p["events"].read_text(), 3, 3,
                                                            "99999999999999"),
                     ["row 2", "start after end"]),
    "events_category": ("--events", lambda p, t: _replace_cell(p["events"].read_text(), 2, 5, ""),
                        ["row 1", "category"]),
    "features_timestamp": ("--features", lambda p, t: _replace_cell(
        p["features"]["netflow_v2"].read_text(), 2, 1, "abc"), ["row 1", "'TIMESTAMP'", "'abc'"]),
    "features_timestamp_nan": ("--features", lambda p, t: _replace_cell(
        p["features"]["netflow_v2"].read_text(), 3, 1, "nan"), ["row 2", "'TIMESTAMP'", "'nan'"]),
    "features_port": ("--features", lambda p, t: _replace_cell(
        p["features"]["netflow_v2"].read_text(), 2, 3, "x"), ["row 1", "'L4_SRC_PORT'", "'x'"]),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_TABLES))
def test_malformed_table_exits_2_naming_it(pipeline, tmp_path, capsys, case):
    flag, make, words = MALFORMED_TABLES[case]
    bad = tmp_path / f"{case}.csv"
    bad.write_text(make(pipeline, tmp_path))
    out = tmp_path / "out"
    if flag == "--events":
        argv = ["label", "--features", str(pipeline["features"]["netflow_v2"]),
                "--events", str(bad), "--out", str(out)]
    elif flag == "--features":
        argv = ["label", "--features", str(bad), "--events", str(pipeline["events"]),
                "--out", str(out)]
    elif flag in DATA_STAGES:
        argv = _fill(DATA_STAGES[flag], model=pipeline["model"], out=out) + ["--data", str(bad)]
    else:
        argv = ["report", flag, str(bad), "--out-dir", str(out)]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert str(bad) in err
    for word in words:
        assert word in err
    assert not out.exists()
