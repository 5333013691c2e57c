"""Package structure: public names exported lazily, and ingest commands that
run without importing numpy. These check structure, not timing."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import flowlens
from flowlens import cli

SRC = Path(flowlens.__file__).resolve().parents[1]

# Runs extract and label in a fresh interpreter, then reports whether numpy
# was ever imported.
INGEST = """
import sys
from flowlens.cli import main
pcap, events, features, labeled = sys.argv[1:]
codes = [main(["extract", "--pcap", pcap, "--schema", "cic", "--out", features]),
         main(["label", "--features", features, "--events", events, "--out", labeled])]
print(codes, "numpy" in sys.modules)
"""

# Trains and evaluates both models in a fresh interpreter, then reports
# whether numpy.ma, which costs about 10 ms to import, was ever imported.
MODELS = """
import sys
from flowlens.cli import main
labeled, out = sys.argv[1:]
data = ["--data", labeled, "--seed", "3"]
codes = [main(["train", *data, "--model", "rf", "--trees", "2", "--out", out + "/rf.json"]),
         main(["train", *data, "--model", "mlp", "--epochs", "1", "--out", out + "/mlp.json"]),
         main(["eval", *data, "--model", "rf", "--trees", "2", "--folds", "2",
               "--timing-rows", "1", "--timing-repeats", "1", "--out-dir", out]),
         main(["eval", *data, "--model-file", out + "/mlp.json",
               "--timing-rows", "1", "--timing-repeats", "1", "--out-dir", out])]
print(codes, "numpy.ma" in sys.modules)
"""


def _synth_capture(out_dir):
    assert cli.main(["synth", "--out-dir", str(out_dir), "--benign-http", "6",
                     "--benign-dns", "4", "--flood-flows", "5", "--dos-flows", "2"]) == 0


def _last_line_of_fresh_run(script: str, *argv) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script, *map(str, argv)],
                          env=env, capture_output=True, text=True, check=True)
    return done.stdout.splitlines()[-1]


def test_extract_and_label_do_not_import_numpy(tmp_path):
    _synth_capture(tmp_path)
    last = _last_line_of_fresh_run(INGEST, tmp_path / "synth.pcap",
                                   tmp_path / "ground_truth.csv", tmp_path / "features.csv",
                                   tmp_path / "labeled.csv")
    assert last == "[0, 0] False"
    assert (tmp_path / "labeled.csv").is_file()


def test_train_and_eval_do_not_import_numpy_ma(tmp_path):
    _synth_capture(tmp_path)
    features, labeled = tmp_path / "features.csv", tmp_path / "labeled.csv"
    assert cli.main(["extract", "--pcap", str(tmp_path / "synth.pcap"),
                     "--schema", "netflow_v2", "--out", str(features)]) == 0
    assert cli.main(["label", "--features", str(features),
                     "--events", str(tmp_path / "ground_truth.csv"), "--out", str(labeled)]) == 0
    assert _last_line_of_fresh_run(MODELS, labeled, tmp_path) == "[0, 0, 0, 0] False"


def test_every_public_name_resolves_and_is_listed():
    listed = dir(flowlens)
    for name in flowlens.__all__:
        assert name in listed
        assert getattr(flowlens, name).__name__ == name
    namespace: dict = {}
    exec("from flowlens import *", namespace)
    assert set(flowlens.__all__) <= set(namespace)


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError):
        flowlens.no_such_name
    with pytest.raises(AttributeError):
        cli.no_such_name
