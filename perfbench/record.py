"""Record ``reference.json``: the outputs the correctness checks compare against.

    python3 perfbench/record.py [--workload NAME ...]

For every workload and every input set (``workloads.RECORDED_INPUTS`` of
them), this sets the inputs up once, runs one untraced iteration of the
stages and stores what ``Workload.observe`` returns: the SHA-256 of the
feature and labeled CSVs, the per-fold metrics of both cross-validations
without the measured prediction time, and the phi of the first explained
rows of tree SHAP. Existing entries of other workloads are kept.

Re-record only for a change that is meant to alter these outputs, and say in
that change why the outputs moved.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import run  # noqa: E402
from perfbench.workloads import RECORDED_INPUTS, WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        help="workload to record (default: all)")
    args = parser.parse_args(argv)

    names = args.workload or list(WORKLOADS)
    reference = json.loads(run.REFERENCE.read_text()) if run.REFERENCE.is_file() else {}
    for name in names:
        workload = WORKLOADS[name]
        recorded = {}
        for seed in range(RECORDED_INPUTS):
            res = run.measure(workload, seed, 0, False, None, time.monotonic(),
                              setup_repeats=1)
            if res["tally"].unexpected:
                print(f"{name} input {seed}: stages failed: {res['tally'].failures}",
                      file=sys.stderr)
                return 1
            recorded[str(seed)] = res["observed"]
            print(f"{name} input {seed}: recorded", flush=True)
        reference[name] = recorded
        run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
