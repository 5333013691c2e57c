"""Command-line surface: subcommand wiring, exit codes, artifact determinism,
and the help/docs consistency check."""

import contextlib
import hashlib
import io
import json
import math
import os
import re
import runpy
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowlens.cli import build_parser, main
from flowlens.dataset import read_feature_csv, read_labeled_csv, read_labeled_matrix
from flowlens.flows import assemble_flows
from flowlens.forest import ForestParams
from flowlens.mlp import MlpParams
from flowlens.pcap import parse_pcap
from flowlens.report import read_report_csv
from flowlens.schema import SchemaError
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


def _traced_peak(fn) -> int:
    """The most memory that ``fn()`` held at once, by tracemalloc."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_extract_holds_no_more_than_the_packets_and_their_flows(tmp_path):
    """Feature rows stream into the writer, and the packet list is dropped
    once flows are assembled: neither the whole table nor the list is held
    while rows are written. A 3x capture, because at 1x both peaks fall while
    decoding, when the pcap reader's 1 MiB buffer is alive, and the writing
    phase stays below them. Observed ratio 1.10 here; 1.13 while extract
    kept the packet list, 1.43 while it built the table first."""
    assert main(["synth", "--out-dir", str(tmp_path), "--benign-http", "450",
                 "--benign-dns", "210", "--flood-flows", "480", "--dos-flows", "210"]) == 0
    pcap = tmp_path / "synth.pcap"

    def decode_and_assemble():
        with open(pcap, "rb") as fh:
            return assemble_flows(parse_pcap(fh))

    extract = _traced_peak(lambda: main(["extract", "--pcap", str(pcap), "--schema", "cic",
                                         "--out", str(tmp_path / "features.csv")]))
    assert extract <= 1.15 * _traced_peak(decode_and_assemble)


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


def test_config_path_that_is_no_file_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["report", "--config", str(tmp_path), "--out-dir", str(out)]) == 2
    assert f"config file not found: {tmp_path}" in capsys.readouterr().err
    assert not out.exists()


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


def _readme_flags() -> dict[str, dict[str, set[str]]]:
    """Per ``### <subcommand>`` section of README, its ``Flags:`` paragraph:
    each backticked ``--flag`` and the backticked values in the parenthesis
    right after it."""
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    flags = {}
    for section in readme.split("\n### ")[1:]:
        name, _, body = section.partition("\n")
        paragraph = body.partition("\nFlags: ")[2].partition("\n\n")[0]
        flags[name] = {flag: set(re.findall(r"`([^`]+)`", values)) for flag, values
                       in re.findall(r"`(--[\w-]+)`(?:\s*\(([^)]*)\))?", paragraph)}
    return flags


def test_every_cli_flag_documented_in_readme():
    """Each subcommand's README flags are its parser's options, and an option
    with choices lists exactly them."""
    readme = _readme_flags()
    for name, sub in _subcommands():
        options = {opt: set(action.choices or ()) for action in sub._actions
                   for opt in action.option_strings if opt.startswith("--") and opt != "--help"}
        assert readme.get(name) == options, name


def test_every_cli_flag_appears_in_help():
    for name, sub in _subcommands():
        text = sub.format_help()
        for action in sub._actions:
            for opt in action.option_strings:
                if opt.startswith("--"):
                    assert opt in text


def test_train_flag_defaults_are_the_params_defaults():
    """Each ``(default N)`` in train's help is the default of the params
    field the flag sets."""
    fields = {"--trees": ForestParams.n_trees, "--max-depth": ForestParams.max_depth,
              "--min-samples-split": ForestParams.min_samples_split,
              "--hidden": ",".join(map(str, MlpParams.hidden)),
              "--learning-rate": MlpParams.learning_rate, "--epochs": MlpParams.epochs,
              "--batch-size": MlpParams.batch_size}
    documented = {}
    for action in dict(_subcommands())["train"]._actions:
        default = re.search(r"\(default ([^)]+)\)", action.help or "")
        if default and action.option_strings[-1] != "--seed":
            documented[action.option_strings[-1]] = default.group(1)
    assert documented == {flag: str(value) for flag, value in fields.items()}


# (id, column, cell, exit code). "1_000" is a number to Python but not to
# numpy, " 3" to both; the quoted category, its label set to 1, holds the
# delimiter.
LEARNABLE_CELLS = [
    ("abc", "IN_BYTES", "abc", 2),
    ("nan", "IN_BYTES", "nan", 2),
    ("inf", "IN_BYTES", "inf", 2),
    ("underscore", "IN_BYTES", "1_000", 0),
    ("space", "IN_BYTES", " 3", 0),
    ("quoted_category", "Attack", '"DoS, slow"', 0),
]


@pytest.mark.parametrize("stage, column, cell, code", [
    pytest.param(stage, column, cell, code, id=name if stage == "train" else f"{stage}-{name}")
    for stage in ("train", "eval", "explain") for name, column, cell, code in LEARNABLE_CELLS
])
def test_bad_learnable_cell_exits_2_naming_it(pipeline, tmp_path, capsys, stage, column, cell,
                                              code):
    """The model stages share one reader: a cell it refuses exits 2 naming
    its row, column and text, and a cell it accepts exits 0."""
    lines = pipeline["labeled"]["netflow_v2"].read_text().splitlines(keepends=True)
    header = lines[1].rstrip("\n").split(",")
    cells = lines[4].rstrip("\n").split(",")  # provenance, header, then data row 3
    cells[header.index(column)] = cell
    if column == "Attack":
        cells[header.index("Label")] = "1"
    lines[4] = ",".join(cells) + "\n"
    bad = tmp_path / "bad_cell.csv"
    bad.write_text("".join(lines))
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(_fill(DATA_STAGES[stage], model=pipeline["model"], out=out)
                + ["--data", str(bad)]) == code
    err = capsys.readouterr().err
    if code == 2:
        assert str(bad) in err and "row 3" in err and repr(column) in err and repr(cell) in err
    assert out.exists() == (code == 0)


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


# sha256 of synth's artifacts on a smaller scenario of another seed, so that
# the order of the generator's draws is pinned beyond seed 7.
GOLDEN_SYNTH_SHA256 = {
    "synth.pcap": "949a90e6d2321f218bf49614ac7850a75c51550e9e964fa9fbac34cdb77177cf",
    "ground_truth.csv": "ce7a1b88fefd195a76cecae02356d1dadb38b58b68574757a718c7c7fbc8c6ea",
}


def test_small_seed_3_scenario_synth_artifacts_match_golden_digests(tmp_path):
    assert main(["synth", "--out-dir", str(tmp_path), "--seed", "3", "--benign-http", "40",
                 "--benign-dns", "20", "--flood-flows", "30", "--dos-flows", "10"]) == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in GOLDEN_SYNTH_SHA256}
    assert digests == GOLDEN_SYNTH_SHA256


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


# Keyed by the number in each case's id, so that a case keeps its id when
# another goes.
BAD_SETTINGS = {
    0: (["train", "--model", "rf", "--feature-fraction", "abc"], "feature_fraction"),
    1: (["train", "--model", "mlp", "--hidden", "4,x"], "hidden"),
    2: (["train", "--model", "rf", "--config", "{conf}"], "trees"),
    3: (["train", "--model", "mlp", "--batch-size", "0"], "batch_size"),
    4: (["train", "--model", "rf", "--trees", "0"], "trees"),
    5: (["train", "--model", "rf", "--seed", "-1"], "seed"),
    6: (["eval", "--model", "rf", "--folds", "1"], "folds"),
    7: (["eval", "--model-file", "{model}", "--timing-rows", "0"], "timing_rows"),
    8: (["explain", "--model-file", "{model}", "--samples", "0"], "samples"),
    9: (["explain", "--model-file", "{model}", "--background", "0"], "background"),
    10: (["explain", "--model-file", "{model}", "--budget", "abc"], "budget"),
    11: (["train", "--model", "mlp", "--learning-rate", "nan"], "learning_rate"),
    12: (["train", "--model", "mlp", "--epochs", "0"], "epochs"),
    13: (["train", "--model", "rf", "--max-depth", "-1"], "max_depth"),
    14: (["train", "--model", "rf", "--min-samples-split", "1"], "min_samples_split"),
    15: (["synth", "--benign-http", "-3"], "benign_http"),
    16: (["synth", "--benign-dns", "-1"], "benign_dns"),
    17: (["synth", "--flood-flows", "-2"], "flood_flows"),
    18: (["synth", "--dos-flows", "-1"], "dos_flows"),
    22: (["explain", "--model-file", "{model}", "--config", "{conf}"], "budget"),
    23: (["explain", "--model-file", "{model}", "--method", "kernel", "--budget", "full"],
         "budget"),
    24: (["explain", "--model-file", "{mlp}", "--method", "tree"], "method"),
    25: (["eval", "--model", "rf", "--folds", "1000"], "folds"),
    26: (["eval", "--model", "rf", "--folds", "2", "--data", "{rare}"], "folds"),
    # finite, but every fit diverges
    27: (["train", "--model", "mlp", "--learning-rate", "1e308"], "learning_rate"),
    28: (["eval", "--model", "mlp", "--learning-rate", "1e308"], "learning_rate"),
}


@pytest.mark.parametrize("argv, setting", [
    pytest.param(argv, setting, id=f"argv{n}-{setting}")
    for n, (argv, setting) in BAD_SETTINGS.items()
])
def test_bad_setting_exits_2_naming_it(pipeline, tmp_path, capsys, argv, setting):
    conf = tmp_path / "run.conf"
    conf.write_text("trees=abc\nbudget=full\n")
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


def test_explain_has_no_exact_method(pipeline, tmp_path, capsys):
    """Exact enumeration needs at most 20 features, and every model train can
    make has 39 or 77: the CLI does not offer it."""
    out = tmp_path / "out"
    capsys.readouterr()
    with pytest.raises(SystemExit) as done:
        main(["explain", "--data", str(pipeline["labeled"]["netflow_v2"]),
              "--model-file", str(pipeline["model"]), "--method", "exact",
              "--out-dir", str(out)])
    assert done.value.code == 2
    assert "argument --method: invalid choice: 'exact'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("stage", ["train", "eval", "extract"])
def test_model_stages_have_no_threads_flag(pipeline, tmp_path, capsys, stage):
    """Forests grow one tree after another, and extract computes one flow's
    features after another: none of them takes --threads."""
    out = tmp_path / "out"
    if stage == "extract":
        argv = [stage, "--pcap", str(pipeline["pcap"]), "--schema", "netflow_v2", "--out"]
    else:
        argv = [stage, "--data", str(pipeline["labeled"]["netflow_v2"]), "--model", "rf",
                "--out" if stage == "train" else "--out-dir"]
    capsys.readouterr()
    with pytest.raises(SystemExit) as done:
        main(argv + [str(out), "--threads", "2"])
    assert done.value.code == 2
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err
    assert not out.exists()


def test_extract_ignores_a_threads_config_entry(pipeline, tmp_path):
    """A config file's threads entry is ignored like any key no setting reads:
    the feature CSV keeps its bytes, config_hash included."""
    conf = tmp_path / "run.conf"
    conf.write_text("threads=4\n")
    out = tmp_path / "features.csv"
    assert main(["extract", "--pcap", str(pipeline["pcap"]), "--schema", "netflow_v2",
                 "--out", str(out), "--seed", "11", "--config", str(conf)]) == 0
    assert out.read_bytes() == pipeline["features"]["netflow_v2"].read_bytes()


@pytest.mark.parametrize("flag, value", [
    ("--idle-timeout", "nan"),
    ("--idle-timeout", "0"),
    ("--active-timeout", "-5"),
    ("--activity-timeout", "inf"),
    # finite, but not in microseconds
    ("--idle-timeout", "1e308"),
    ("--active-timeout", "1e308"),
    ("--activity-timeout", "1e308"),
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
    feature, and evaluates at most the 2**20 coalitions of exact enumeration:
    a budget outside that is an input error, and the minimum runs."""
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
    for budget in (2**20 + 1, 2**39):  # 2**39 once asked numpy for 4 TiB
        assert main(command + ["--budget", str(budget), "--out-dir", str(out)]) == 2
        assert (f"setting budget={budget}: must be at most 1048576"
                in capsys.readouterr().err)
        assert not out.exists()
    assert main(command + ["--budget", str(minimum), "--out-dir", str(out)]) == 0


# Provenance of valid settings: checking a value must not change what
# config_hash covers.
@pytest.mark.parametrize("argv, digest", [
    (["train", "--model", "rf", "--trees", "3", "--feature-fraction", "0.5",
      "--max-depth", "4", "--seed", "5", "--out", "{out}"], "b041a83daa2219e0"),
    (["train", "--model", "rf", "--config", "{conf}", "--out", "{out}"], "e0965c6bf5d85b75"),
    (["train", "--model", "mlp", "--hidden", "8,4", "--batch-size", "16", "--epochs", "2",
      "--learning-rate", "0.1", "--seed", "5", "--out", "{out}"], "41e80f34d837dc22"),
    (["eval", "--model", "rf", "--trees", "2", "--folds", "2", "--timing-rows", "4",
      "--timing-repeats", "1", "--seed", "5", "--out-dir", "{out}"], "f246cedd84ef29fb"),
], ids=["train_rf", "train_rf_config", "train_mlp", "eval_rf"])
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
    # A lone surrogate is written as the byte it escapes: not UTF-8.
    "labeled_not_utf8": ("train", lambda p, t: _replace_cell(
        p["labeled"]["netflow_v2"].read_text(), 5, 8, "\udcff\udcfe"), ["not UTF-8"]),
    "labeled_field_limit": ("train", lambda p, t: _replace_cell(
        p["labeled"]["netflow_v2"].read_text(), 5, -1, "x" * 200_000), ["field limit"]),
    "features_not_utf8": ("--features", lambda p, t: _replace_cell(
        p["features"]["netflow_v2"].read_text(), 3, 0, "\udcff"), ["not UTF-8"]),
    "features_header_not_utf8": ("--features", lambda p, t: _replace_cell(
        p["features"]["netflow_v2"].read_text(), 1, 0, "\udcff"), ["not UTF-8"]),
    "report_header_only": ("--reports", lambda p, t: "".join(
        _report_csv(p, t).splitlines(keepends=True)[:2]), ["no fold rows"]),
    # line 2 is the one fold row of a saved model's report, line 3 its mean
    "report_mean_only": ("--reports", lambda p, t: "".join(
        line for i, line in enumerate(_report_csv(p, t).splitlines(keepends=True))
        if i != 2), ["no fold rows"]),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_TABLES))
def test_malformed_table_exits_2_naming_it(pipeline, tmp_path, capsys, case):
    flag, make, words = MALFORMED_TABLES[case]
    bad = tmp_path / f"{case}.csv"
    bad.write_text(make(pipeline, tmp_path), encoding="utf-8", errors="surrogateescape")
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


# Every output flag given a path that cannot be written (a directory for
# --out, an existing file for --out-dir), and a config file that is not
# UTF-8 text: the path the message must name, the command, and the work the
# command must not start.
UNWRITABLE = {
    "synth": ("file", ["synth", "--out-dir", "{file}"], "flowlens.cli.generate_scenario"),
    "extract": ("dir", ["extract", "--pcap", "{pcap}", "--schema", "cic", "--out", "{dir}"],
                "flowlens.cli.parse_pcap"),
    "label": ("dir", ["label", "--features", "{features}", "--events", "{events}",
                      "--out", "{dir}"], "flowlens.dataset.label_table"),
    "train": ("dir", ["train", "--data", "{labeled}", "--model", "rf", "--trees", "2",
                      "--out", "{dir}"], "flowlens.cli.train_model"),
    "eval": ("file", ["eval", "--data", "{labeled}", "--model-file", "{model}",
                      "--timing-rows", "2", "--timing-repeats", "1", "--out-dir", "{file}"],
             "flowlens.cli.evaluate_split"),
    "eval_crossval": ("file", ["eval", "--data", "{labeled}", "--model", "rf",
                               "--out-dir", "{file}/reports"], "flowlens.cli.crossval_evaluate"),
    "explain": ("file", ["explain", "--data", "{labeled}", "--model-file", "{model}",
                         "--samples", "1", "--background", "2", "--out-dir", "{file}"],
                "flowlens.explain.explain_samples"),
    "report": ("file", ["report", "--rankings", "{ranking}", "--out-dir", "{file}"],
               "flowlens.report.ranking_chart"),
    "config": ("config", ["synth", "--config", "{config}", "--out-dir", "{dir}"], None),
}


@pytest.mark.parametrize("case", sorted(UNWRITABLE))
def test_unusable_path_exits_2_naming_it(pipeline, tmp_path, monkeypatch, capsys, case):
    named, argv, work = UNWRITABLE[case]
    paths = {"file": tmp_path / "taken.txt", "dir": tmp_path / "taken",
             "config": tmp_path / "run.conf", "ranking": tmp_path / "ranking.csv",
             "pcap": pipeline["pcap"], "events": pipeline["events"],
             "features": pipeline["features"]["netflow_v2"],
             "labeled": pipeline["labeled"]["netflow_v2"], "model": pipeline["model"]}
    paths["file"].write_text("kept\n")
    paths["dir"].mkdir()
    paths["config"].write_bytes(b"seed=\xff\n")
    if case == "report":
        paths["ranking"].write_text(_ranking_csv(pipeline, tmp_path))
    if work:
        def never(*args, **kwargs):
            raise AssertionError(f"{work} ran")

        monkeypatch.setattr(work, never)
    capsys.readouterr()
    assert main(_fill(argv, **paths)) == 2
    assert str(paths[named]) in capsys.readouterr().err
    assert paths["file"].read_text() == "kept\n"
    assert not any(paths["dir"].iterdir())


def test_output_is_not_created_before_an_input_error(pipeline, tmp_path):
    """The output check creates nothing: a bad input found after it leaves
    no file and no directory behind."""
    bad = tmp_path / "bad.csv"
    bad.write_text("not,a,table\n")
    assert main(["train", "--data", str(bad), "--model", "rf",
                 "--out", str(tmp_path / "rf.json")]) == 2
    assert main(["explain", "--data", str(bad), "--model-file", str(pipeline["model"]),
                 "--out-dir", str(tmp_path / "out" / "explained")]) == 2
    assert main(["extract", "--pcap", str(bad), "--schema", "cic",
                 "--out", str(tmp_path / "features.csv")]) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.csv"]


def _count_past_int64(doc):
    doc["forest"]["trees"][0]["count"][0] = 10**30


def _kind_object(doc):
    doc["kind"] = {"rf": True}


def _every_leaf_prob_5(doc):
    for tree in doc["forest"]["trees"]:
        tree["prob"] = [5.0 if f < 0 else p for f, p in zip(tree["feature"], tree["prob"])]


def _version_true(doc):
    doc["version"] = True  # equal to 1 in Python


def _version_float(doc):
    doc["version"] = 1.0


def _fingerprint_list(doc):
    doc["schema_fingerprint"] = [1]


def _fingerprint_null(doc):
    doc["schema_fingerprint"] = None


def _fingerprint_disagrees(doc):
    # a renamed column under the hash of the names it was trained on
    doc["feature_names"][0] = "RENAMED"


def _names_null(doc):
    doc["feature_names"] = None


def _meta_missing(doc):
    del doc["meta"]


def _n_features_true(doc):
    # true equals 1: with every split on feature 0 and a one-wide scaler, the
    # rest of the file agrees with it
    forest = doc["forest"]
    forest["n_features"] = True
    for tree in forest["trees"]:
        tree["feature"] = [min(f, 0) for f in tree["feature"]]
    for key in ("mins", "maxs"):
        doc["scaler"][key] = doc["scaler"][key][:1]


def _n_features_float(doc):
    doc["mlp"]["n_features"] = float(doc["mlp"]["n_features"])  # equal to the weights' width


def _names_hash(names):
    return hashlib.sha256("\n".join(names).encode("utf-8")).hexdigest()


def _not_utf8(doc):
    return b"\xff\xfe{}"


def _n_features_40(doc):
    # a file that agrees with itself, one column wider than the data
    doc["forest"]["n_features"] = 40
    doc["feature_names"].append("EXTRA")
    doc["schema_fingerprint"] = _names_hash(doc["feature_names"])
    for key in ("mins", "maxs"):
        doc["scaler"][key].append(0.0)


@pytest.mark.parametrize("model_key, corrupt, code, words", [
    pytest.param("model", corrupt, 2, (), id=corrupt.__name__)
    for corrupt in (_count_past_int64, _kind_object, _every_leaf_prob_5, _version_true,
                    _version_float, _fingerprint_list, _fingerprint_null, _fingerprint_disagrees,
                    _names_null, _meta_missing, _n_features_true, _not_utf8)
] + [
    pytest.param("mlp", _n_features_float, 2, (), id="_mlp_n_features_float"),
    pytest.param("model", _n_features_40, 3, ("takes 40", "has 39 learnable columns"),
                 id="_n_features_40"),
])
def test_malformed_model_file_exits_2(pipeline, tmp_path, capsys, model_key, corrupt, code,
                                      words):
    """A file ``train`` could not have written exits 2; one that agrees with
    itself but was trained on other feature columns exits 3. Either way the
    message names the file and nothing is written. A ``corrupt`` that returns
    bytes gives the whole file."""
    doc = json.loads(pipeline[model_key].read_text(encoding="utf-8"))
    raw = corrupt(doc) or json.dumps(doc).encode("utf-8")
    model = tmp_path / "bad_model.json"
    model.write_bytes(raw)
    data = str(pipeline["labeled"]["netflow_v2"])
    for stage in ("eval", "explain"):
        out = tmp_path / stage
        capsys.readouterr()
        assert main([stage, "--data", data, "--model-file", str(model),
                     "--out-dir", str(out)]) == code
        err = capsys.readouterr().err
        assert str(model) in err
        for word in words:
            assert word in err
        assert not out.exists()


# runpy warns that flowlens.cli is already imported, as the tests have done.
@pytest.mark.filterwarnings("ignore:'flowlens.cli' found in sys.modules")
def test_cli_runs_as_main_of_another_module(pipeline, tmp_path, monkeypatch):
    """``python -m cProfile -m flowlens.cli`` runs cli.py as ``__main__`` in a
    namespace that is not in sys.modules; runpy does the same here."""
    out = tmp_path / "rf.json"
    monkeypatch.setattr(sys, "argv", [
        "flowlens", "train", "--data", str(pipeline["labeled"]["netflow_v2"]),
        "--model", "rf", "--trees", "2", "--out", str(out)])
    with pytest.raises(SystemExit) as done:
        runpy.run_module("flowlens.cli", run_name="__main__", alter_sys=False)
    assert done.value.code == 0
    assert out.is_file()


# Drawn replacements for one cell: numbers in the forms both parsers read,
# forms only Python reads, non-numbers, and the delimiter, quote and CR.
CELL_VALUES = st.one_of(
    st.integers(-2**64, 2**64).map(str),
    st.floats().map(repr),
    st.sampled_from(["-0", "+3", " 3", "3 ", "1e5", "1_000", "", "abc", "nan", "inf",
                     "0x10", "٣", str(2**53 + 1), "0", "1", "2", "Benign", "DoS",
                     '"', 'a"b', '"DoS, slow"', "\r", "x\ry", ",", "#"]),
    st.text(max_size=4),
)


@settings(max_examples=60)
@given(start=st.integers(0, 40), count=st.integers(1, 12), row=st.integers(0, 11),
       col=st.integers(0, 100), edit=st.sampled_from(["cell", "extra", "missing", "line"]),
       value=CELL_VALUES, stage=st.sampled_from(["train", "eval_saved", "explain"]))
# Rows 10-21 of the table; row 5 of the slice is an attack, column 8 IN_BYTES.
@example(start=10, count=12, row=5, col=8, edit="cell", value="1_000", stage="train")
@example(start=10, count=12, row=5, col=8, edit="cell", value="-0", stage="eval_saved")
@example(start=10, count=12, row=5, col=8, edit="cell", value="nan", stage="explain")
@example(start=10, count=12, row=5, col=-2, edit="cell", value="2", stage="explain")
@example(start=10, count=12, row=5, col=-1, edit="cell", value="Benign", stage="train")
@example(start=10, count=12, row=5, col=-1, edit="cell", value='"Benign"', stage="train")
@example(start=10, count=12, row=5, col=-1, edit="cell", value='"DoS, slow"', stage="eval_saved")
@example(start=10, count=12, row=5, col=5, edit="cell", value="x\ry", stage="train")
@example(start=10, count=12, row=5, col=0, edit="extra", value="0", stage="train")
@example(start=10, count=12, row=5, col=8, edit="missing", value="", stage="eval_saved")
@example(start=10, count=12, row=5, col=0, edit="line", value="", stage="explain")
def test_mutated_labeled_csv_exits_0_or_2(pipeline, tmp_path_factory, start, count, row, col,
                                          edit, value, stage):
    """One cell or line of a slice of a valid labeled table replaced: the
    matrix reader gives what ``read_labeled_csv`` then ``X()``/``y()`` give,
    or raises its error text, and the model stages exit 0 or 2, never 1."""
    lines = pipeline["labeled"]["netflow_v2"].read_text().split("\n")
    body = lines[2:-1][start:start + count]
    cells = body[row % len(body)].split(",")
    if edit == "cell":
        cells[col % len(cells)] = value
    elif edit == "extra":
        cells.append(value)
    elif edit == "missing":
        del cells[col % len(cells)]
    body[row % len(body)] = value if edit == "line" else ",".join(cells)
    tmp = tmp_path_factory.mktemp("mutated")
    path = tmp / "table.csv"
    path.write_bytes("\n".join(lines[:2] + body + [""]).encode("utf-8"))

    try:
        expected, meta = read_labeled_csv(path)
    except SchemaError as exc:
        with pytest.raises(SchemaError) as raised:
            read_labeled_matrix(path)
        assert str(raised.value) == str(exc)
    else:
        schema, X, y, got_meta = read_labeled_matrix(path)
        assert X.shape == expected.X().shape
        assert X.tobytes() == expected.X().tobytes()
        assert y.dtype == expected.y().dtype and y.tolist() == expected.labels
        assert schema == expected.schema and got_meta == meta

    argv = _fill(DATA_STAGES[stage], model=pipeline["model"], out=tmp / "out")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv + ["--data", str(path)]) in (0, 2)


# Extreme finite numbers: the ends of the float range, the smallest
# subnormals, the first integer a float cannot hold, and values near 1e15.
EXTREME_VALUES = st.one_of(
    st.sampled_from([1.7976931348623157e308, -1.7976931348623157e308, 5e-324, -5e-324,
                     2**53 + 1]),
    st.floats(9e14, 1.1e15),
    st.floats(-1.1e15, -9e14),
)


@settings(max_examples=10)
@given(col=st.integers(6, 44),
       cells=st.lists(st.tuples(st.integers(0, 43), EXTREME_VALUES), min_size=2, max_size=4,
                      unique_by=lambda cell: cell[0]))
# Column 8 is IN_BYTES: max - min of these two overflows.
@example(col=8, cells=[(0, -1e308), (1, 1e308)])
@example(col=8, cells=[(0, 1.7976931348623157e308), (5, -1.7976931348623157e308),
                       (9, 5e-324)])
@example(col=9, cells=[(0, 2**53 + 1), (1, -5e-324), (2, 1e15)])
def test_extreme_column_values_exit_0_or_2_with_finite_outputs(pipeline, tmp_path_factory,
                                                                col, cells):
    """Cells of one learnable column set to extreme finite numbers: train (rf
    and mlp), eval of the saved model and explain exit 0 or 2, never 1, and
    every metric, phi, base value and prediction they write is finite, with
    the phi adding up to the prediction."""
    lines = pipeline["labeled"]["netflow_v2"].read_text().split("\n")
    body = lines[2:-1]
    for row, value in cells:
        row_cells = body[row % len(body)].split(",")
        row_cells[col] = repr(value)
        body[row % len(body)] = ",".join(row_cells)
    tmp = tmp_path_factory.mktemp("extreme")
    data = tmp / "table.csv"
    data.write_text("\n".join(lines[:2] + body + [""]), encoding="utf-8")
    for kind, flags in (("rf", ["--trees", "3"]), ("mlp", ["--hidden", "4", "--epochs", "2"])):
        model = tmp / f"{kind}.json"
        for argv in (["train", "--model", kind, *flags, "--out", str(model)],
                     ["eval", "--model-file", str(model), "--timing-rows", "2",
                      "--timing-repeats", "1", "--out-dir", str(tmp / "eval")],
                     ["explain", "--model-file", str(model), "--samples", "3",
                      "--background", "3", "--budget", "64", "--out-dir", str(tmp / "explain")]):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                code = main(argv + ["--data", str(data)])
            assert code in (0, 2), err.getvalue()
            if code:
                break
    for path in (tmp / "eval").glob("*_report.csv"):
        for fold in read_report_csv(path).folds:
            assert all(math.isfinite(v) for v in vars(fold).values()), fold
    for path in (tmp / "explain").glob("*_explanations.jsonl"):
        for line in path.read_text(encoding="utf-8").splitlines()[1:]:
            row = json.loads(line)
            numbers = [*row["phi"], row["base"], row["prediction"]]
            assert all(map(math.isfinite, numbers)), row
            assert abs(math.fsum(row["phi"]) + row["base"] - row["prediction"]) <= 1e-6


@pytest.fixture(scope="module")
def tiny_models(pipeline):
    """The documents of a 2-tree depth-2 forest and a one-epoch MLP with one
    2-wide hidden layer, trained on the netflow table."""
    docs = {}
    for kind, flags in (("rf", ["--trees", "2", "--max-depth", "2"]),
                        ("mlp", ["--hidden", "2", "--epochs", "1"])):
        path = pipeline["root"] / f"tiny_{kind}.json"
        assert main(["train", "--data", str(pipeline["labeled"]["netflow_v2"]), "--model", kind,
                     "--out", str(path), "--seed", "11", *flags]) == 0
        docs[kind] = json.loads(path.read_text(encoding="utf-8"))
    return docs


def _node_paths(node, path=()):
    """The path to every member and item below ``node``, containers included."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from _node_paths(child, path + (key,))


def _train_params(kind, params, tmp):
    """The params ``train`` builds when given ``params`` as config-file
    settings, or None when it refuses them."""
    if kind == "rf":
        names = {"n_trees": "trees", "max_depth": "max_depth",
                 "min_samples_split": "min_samples_split",
                 "feature_subsample": "feature_fraction", "seed": "seed"}
    else:
        names = {"hidden": "hidden", "learning_rate": "learning_rate", "epochs": "epochs",
                 "batch_size": "batch_size", "seed": "seed"}
    lines = []
    for field, setting in names.items():
        value = params.get(field)
        if field == "hidden" and isinstance(value, list):
            value = ",".join(map(str, value))
        lines.append(f"{setting}={value}\n")
    conf = tmp / "params.conf"
    conf.write_text("".join(lines), encoding="utf-8")
    from flowlens import cli
    args = build_parser().parse_args(["train", "--data", "-", "--model", kind, "--out", "-",
                                      "--config", str(conf)])
    try:
        given_settings = cli.Settings(args)
        params = cli._model_params(given_settings, given_settings.seed())
    except cli.CliError:
        return None
    return vars(params)


def _assert_closed(kind, doc, tmp):
    """What a file eval or explain accept must hold beyond its structure: tree
    counts that add up, the params ``train`` makes of the same settings, a
    name for each feature and their hash, a scaler, a meta object and finite
    losses."""
    payload = doc["forest" if kind == "rf" else "mlp"]
    names = doc["feature_names"]
    assert isinstance(names, list) and len(names) == payload["n_features"]
    assert all(isinstance(name, str) for name in names)
    assert doc["schema_fingerprint"] == _names_hash(names)
    assert isinstance(doc["scaler"], dict)
    assert isinstance(doc["meta"], dict)
    for loss in payload.get("loss_history", []):
        assert type(loss) in (int, float) and math.isfinite(loss)
    for tree in payload.get("trees", []):
        count = tree["count"]
        for i, feature in enumerate(tree["feature"]):
            assert count[i] >= 0
            if feature >= 0:
                assert count[i] == count[tree["left"][i]] + count[tree["right"][i]]
    params = dict(payload["params"])
    if kind == "rf":
        assert type(params.pop("bootstrap", None)) is bool  # no train setting
    expected = _train_params(kind, params, tmp)
    assert expected is not None, params
    expected.pop("bootstrap", None)
    assert json.dumps(params, sort_keys=True) == json.dumps(expected, sort_keys=True)


# Drawn replacements for one node: big and boundary numbers, bools, null,
# strings and containers.
NODE_VALUES = st.one_of(
    st.sampled_from([2**63, -2**63 - 1, 10**30, 1e308, -1e308, True, False, None, "",
                     "many", "5", 0, -1, 0.5, 5.0]),
    st.integers(), st.floats(), st.text(max_size=3),
    st.recursive(st.none() | st.booleans() | st.integers(-3, 3) | st.text(max_size=2),
                 lambda inner: st.lists(inner, max_size=3)
                 | st.dictionaries(st.text(max_size=2), inner, max_size=2), max_leaves=4),
)


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["rf", "mlp"]), node=st.integers(0, 2**16), value=NODE_VALUES)
@example(kind="rf", node=("forest", "trees", 0, "count", 0), value=0)  # not its children's sum
@example(kind="rf", node=("forest", "trees", 1, "count", -1), value=-1)
@example(kind="rf", node=("forest", "params", "n_trees"), value="many")
@example(kind="rf", node=("forest", "params", "seed"), value=True)
@example(kind="rf", node=("forest", "params", "max_depth"), value=0)
@example(kind="mlp", node=("mlp", "params", "hidden", 0), value=True)
@example(kind="mlp", node=("mlp", "params", "seed"), value=0.5)
@example(kind="mlp", node=("mlp", "params", "learning_rate"), value=-1e308)
@example(kind="rf", node=("feature_names", 0), value=5)
@example(kind="mlp", node=("feature_names",), value=["PROTOCOL"])
@example(kind="rf", node=("meta",), value=[])
@example(kind="mlp", node=("mlp", "loss_history", 0), value=float("nan"))
@example(kind="mlp", node=("mlp", "loss_history"), value=True)
def test_mutated_model_file_exits_0_2_or_3(pipeline, tiny_models, tmp_path_factory, kind, node,
                                           value):
    """One node of a valid model file replaced (``node`` is a path, or an
    index into all of them): eval and explain exit 0, 2 or 3, never 1, and a
    file either accepts holds only counts and params a trained model has."""
    doc = json.loads(json.dumps(tiny_models[kind]))
    paths = list(_node_paths(doc))
    *parents, last = node if isinstance(node, tuple) else paths[node % len(paths)]
    target = doc
    for key in parents:
        target = target[key]
    target[last] = value
    tmp = tmp_path_factory.mktemp("model")
    model = tmp / "model.json"
    model.write_text(json.dumps(doc), encoding="utf-8")
    data = str(pipeline["labeled"]["netflow_v2"])
    codes = []
    for argv in (["eval", "--timing-rows", "2", "--timing-repeats", "1"],
                 ["explain", "--samples", "2", "--background", "2", "--budget", "64"]):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(argv + ["--data", data, "--model-file", str(model),
                                "--out-dir", str(tmp / argv[0])])
        assert code in (0, 2, 3), err.getvalue()
        codes.append(code)
    if 0 in codes:
        _assert_closed(kind, doc, tmp)
