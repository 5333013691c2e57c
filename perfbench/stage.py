"""One benchmark stage in a fresh interpreter, the way a user runs it.

    python3 perfbench/stage.py [--trace FILE] cli <flowlens arguments>
    python3 perfbench/stage.py [--trace FILE] predict-one --data CSV \
        --model-file JSON --rows N --repeats R --out FILE

``cli`` runs ``flowlens.cli.main`` with the given arguments, exactly as the
``flowlens`` entry point does, and exits with its code. ``predict-one`` loads
a saved model and a labeled CSV, then times single-row prediction the way a
deployment calls it: scale one raw row with the stored scaler, then call
``predict_proba_one``. It writes every per-call latency and the largest gap
between the single-row and batch predictions to ``--out`` as JSON.

With ``--trace`` the process records spans around calls into flowlens
modules (see ``tracing.py``) and writes them to FILE when it ends.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def predict_one(argv: list[str]) -> int:
    import argparse

    import numpy as np
    from flowlens import cli

    parser = argparse.ArgumentParser(prog="stage.py predict-one")
    parser.add_argument("--data", required=True)
    parser.add_argument("--model-file", required=True)
    parser.add_argument("--rows", type=int, required=True)
    parser.add_argument("--repeats", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    saved = cli.load_model(args.model_file)
    labeled, _ = cli.ds_mod.read_labeled_csv(args.data)
    X = cli.ds_mod.drop_identifiers(labeled).X()[: args.rows]
    rows = X.tolist()  # plain lists, like rows parsed from a CSV
    model, scaler = saved.model, saved.scaler
    clock = time.perf_counter_ns
    latencies_ns = []
    for _ in range(args.repeats):
        for row in rows:
            t0 = clock()
            model.predict_proba_one(scaler.transform_row(row))
            latencies_ns.append(clock() - t0)
    batch = model.predict_proba(scaler.transform(X))
    singles = [model.predict_proba_one(scaler.transform_row(row)) for row in rows]
    gap = float(np.max(np.abs(np.asarray(singles) - batch)))
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"latencies_ns": latencies_ns, "max_batch_gap": gap}, fh)
    return 0


def main(argv: list[str]) -> int:
    trace_path = None
    if argv[:1] == ["--trace"]:
        trace_path, argv = argv[1], argv[2:]
    sys.path.insert(0, str(ROOT / "src"))
    tracer = None
    if trace_path:
        sys.path.insert(0, str(ROOT))
        from perfbench.tracing import Tracer, install

        tracer = Tracer()
        install(tracer)
    try:
        if argv[:1] == ["cli"]:
            from flowlens.cli import main as flowlens_main

            return flowlens_main(argv[1:])
        if argv[:1] == ["predict-one"]:
            return predict_one(argv[1:])
        print(f"stage.py: unknown mode {argv[:1]}", file=sys.stderr)
        return 2
    finally:
        if tracer is not None:
            tracer.dump(trace_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
