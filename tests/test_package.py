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


def test_extract_and_label_do_not_import_numpy(tmp_path):
    assert cli.main(["synth", "--out-dir", str(tmp_path), "--benign-http", "6",
                     "--benign-dns", "4", "--flood-flows", "5", "--dos-flows", "2"]) == 0
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", INGEST, str(tmp_path / "synth.pcap"),
         str(tmp_path / "ground_truth.csv"), str(tmp_path / "features.csv"),
         str(tmp_path / "labeled.csv")],
        env=env, capture_output=True, text=True, check=True)
    assert done.stdout.splitlines()[-1] == "[0, 0] False"
    assert (tmp_path / "labeled.csv").is_file()


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
