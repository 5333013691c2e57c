"""Writers split across forked processes (flowlens.parts): the bytes and the
errors are those of the inline run, and no child outlives a write.

Each case runs in a fresh interpreter with one BLAS thread, because this
test process may hold numpy's BLAS threads, under which every write runs
inline. There the split is forced: three CPUs, and parts of any size.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PRELUDE = """
import io, json, os, threading
from flowlens import parts

os.sched_getaffinity = lambda pid: {0, 1, 2}
parts.MIN_PART_ITEMS = 1
forks = []
os.register_at_fork(after_in_parent=lambda: forks.append(1))


def inline(fn):
    parts.MIN_PART_ITEMS = 10**12
    try:
        return fn()
    finally:
        parts.MIN_PART_ITEMS = 1


def outcome(fn):
    try:
        fn()
    except Exception as exc:
        return [type(exc).__name__, str(exc)]
    return None


def reaped():
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


result = {}
"""


def run_forced(body: str) -> dict:
    """Run ``body`` after the prelude; it fills ``result``, printed as JSON."""
    code = PRELUDE + textwrap.dedent(body) + "\nprint(json.dumps(result))\n"
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_split_pipeline_outputs_match_inline(tmp_path):
    """synth, extract under both schemas and label, once split and once
    inline: every file keeps its bytes."""
    result = run_forced(f"""
        from flowlens.cli import main

        def pipeline(out):
            assert main(["synth", "--out-dir", out]) == 0
            for schema in ("netflow_v2", "cic"):
                assert main(["extract", "--pcap", f"{{out}}/synth.pcap", "--schema", schema,
                             "--out", f"{{out}}/{{schema}}.csv"]) == 0
                assert main(["label", "--features", f"{{out}}/{{schema}}.csv",
                             "--events", f"{{out}}/ground_truth.csv",
                             "--out", f"{{out}}/{{schema}}_labeled.csv"]) == 0

        pipeline({str(tmp_path / "split")!r})
        result["forks"] = len(forks)
        inline(lambda: pipeline({str(tmp_path / "inline")!r}))
        result["inline_forks"] = len(forks) - result["forks"]
        result["reaped"] = reaped()
    """)
    # Three parts (two children) for the pcap and for each of the four CSVs.
    assert result == {"forks": 10, "inline_forks": 0, "reaped": True}
    names = sorted(p.name for p in (tmp_path / "inline").iterdir())
    assert names == ["cic.csv", "cic_labeled.csv", "ground_truth.csv", "netflow_v2.csv",
                     "netflow_v2_labeled.csv", "synth.pcap"]
    for name in names:
        assert ((tmp_path / "split" / name).read_bytes()
                == (tmp_path / "inline" / name).read_bytes()), name


def test_split_labeled_csv_with_carriage_returns_matches_inline(tmp_path):
    """A category holding CR is quoted the same in every part."""
    result = run_forced(f"""
        from flowlens.dataset import (FeatureTable, LabeledDataset, read_labeled_csv,
                                      write_labeled_csv)
        from flowlens.schema import load_schema

        schema = load_schema("netflow_v2").learnable_only()
        n = 300
        columns = [[(i * (j + 1)) % 97 + 0.5 * (j % 2) for i in range(n)]
                   for j in range(schema.width())]
        labels = [i % 3 == 0 for i in range(n)]
        categories = ["Dos\\rslow" if lab else "Benign" for lab in labels]
        ds = LabeledDataset(FeatureTable(schema, columns), [int(x) for x in labels], categories)
        write_labeled_csv({str(tmp_path / "split.csv")!r}, ds, meta={{"seed": 1}})
        result["forks"] = len(forks)
        inline(lambda: write_labeled_csv({str(tmp_path / "inline.csv")!r}, ds, meta={{"seed": 1}}))
        back, _ = read_labeled_csv({str(tmp_path / "split.csv")!r})
        result["categories_kept"] = back.categories == categories
        result["reaped"] = reaped()
    """)
    assert result == {"forks": 2, "categories_kept": True, "reaped": True}
    split = (tmp_path / "split.csv").read_bytes()
    assert b'"Dos\rslow"' in split
    assert split == (tmp_path / "inline.csv").read_bytes()


def test_first_failing_item_wins_with_the_inline_output(tmp_path):
    """A bad item in any part, or in two: the split run writes what the
    inline run writes before the first one, raises its exception, and
    leaves no child behind."""
    result = run_forced(f"""
        from itertools import islice
        from flowlens.dataset import write_csv
        from flowlens.pcap import PacketRecord, write_pcap
        from flowlens.schema import SchemaError
        from flowlens.util import LazyItems

        def packets(bad):
            return [PacketRecord(1_000_000 + i, "10.0.0.1", "10.0.0.2", 1024 + i, 53, 17,
                                 300 if i in bad else 64, 28 + i % 50, 8, i % 50)
                    for i in range(300)]

        def rows(bad):
            table = [[i, float("nan") if i in bad else i / 7] for i in range(300)]
            return LazyItems(300, lambda start, stop: islice(table, start, stop))

        def lazy_rows(bad):
            def between(start, stop):
                for i in range(start, stop):
                    if i in bad:
                        raise SchemaError(f"row {{i}} cannot be made")
                    yield [i, "x"]
            return LazyItems(300, between)

        def pcap_case(bad):
            def write():
                buf = io.BytesIO()
                return buf, outcome(lambda: write_pcap(buf, packets(bad)))
            (split, err), (ref, ref_err) = write(), inline(write)
            return split.getvalue() == ref.getvalue(), err == ref_err, err, reaped()

        def csv_case(make, bad):
            split, ref = {str(tmp_path / "split.csv")!r}, {str(tmp_path / "inline.csv")!r}
            err = outcome(lambda: write_csv(split, ["a", "b"], make(bad), None))
            ref_err = inline(lambda: outcome(lambda: write_csv(ref, ["a", "b"], make(bad), None)))
            same = open(split, "rb").read() == open(ref, "rb").read()
            return same, err == ref_err, err, reaped()

        cases = [(), (10,), (150,), (250,), (150, 250), (10, 250)]
        result["pcap"] = [pcap_case(set(bad)) for bad in cases]
        result["csv"] = [csv_case(rows, set(bad)) for bad in cases]
        result["lazy"] = [csv_case(lazy_rows, set(bad)) for bad in cases]
        result["forks"] = len(forks)
    """)
    first = [None, 10, 150, 250, 150, 10]
    for kind in ("pcap", "csv", "lazy"):
        for (same_bytes, same_error, error, reaped), at in zip(result[kind], first):
            assert same_bytes and same_error and reaped, (kind, at)
            assert (error is None) == (at is None), (kind, at)
    assert result["pcap"][2][2] == ["ValueError", "TTL 300 is outside 0..255"]
    assert result["csv"][3][2] == ["ValueError", "non-finite value nan cannot be serialized"]
    assert result["lazy"][4][2] == ["SchemaError", "row 150 cannot be made"]
    assert result["forks"] == 3 * 6 * 2


def test_a_child_killed_by_a_signal_is_an_error(tmp_path):
    result = run_forced(f"""
        import signal
        from flowlens.dataset import write_csv
        from flowlens.util import LazyItems

        def between(start, stop):
            if start:  # the children's parts
                os.kill(os.getpid(), signal.SIGKILL)
            return ([i] for i in range(start, stop))

        result["error"] = outcome(lambda: write_csv({str(tmp_path / "out.csv")!r}, ["a"],
                                                    LazyItems(300, between), None))
        result["reaped"] = reaped()
    """)
    assert result == {"error": ["RuntimeError",
                                "the process writing items 64 to 191 ended with status -9"],
                      "reaped": True}


def test_writes_inline_while_another_thread_runs():
    result = run_forced("""
        from flowlens.pcap import PacketRecord, write_pcap

        packets = [PacketRecord(1_000_000 + i, "10.0.0.1", "10.0.0.2", 1024, 53, 17, 64, 28, 8, 0)
                   for i in range(300)]
        done = threading.Event()
        waiter = threading.Thread(target=done.wait)
        waiter.start()
        try:
            threaded = io.BytesIO()
            write_pcap(threaded, packets)
        finally:
            done.set()
            waiter.join(timeout=10)
        result["forks_while_threaded"] = len(forks)
        result["waiter_alive"] = waiter.is_alive()
        # join returns before the kernel has removed the thread's task.
        for _ in range(1000):
            if len(os.listdir("/proc/self/task")) == 1:
                break
            threading.Event().wait(0.01)
        alone = io.BytesIO()
        write_pcap(alone, packets)
        result["forks_alone"] = len(forks)
        result["same"] = threaded.getvalue() == alone.getvalue()
    """)
    assert result == {"forks_while_threaded": 0, "waiter_alive": False, "forks_alone": 2,
                      "same": True}
