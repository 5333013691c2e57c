"""flowlens benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload {shallow,deep} --seed N --seconds S \
        --trace {0,1}

Run from the root of a flowlens checkout; the package is imported from its
``src`` directory. The run

1. sets up the workload's inputs from the seed, several times when
   ``--trace 0``, and reports the median set-up time as ``setup_s``;
2. runs iterations of the workload's stages for about ``--seconds``, each
   stage in a fresh interpreter and one at a time, and checks the outputs of
   every iteration against ``reference.json``;
3. with ``--trace 0`` reports the end-to-end metrics (the time of a whole
   iteration and of its phases) and prints the time of each stage for a
   reader; with ``--trace 1`` it alternates untraced and traced iterations
   and reports the per-layer metrics from the traced ones, the per-stage
   metrics from the untraced ones, plus the tracing overhead (traced minus
   untraced) of every end-to-end and per-stage metric.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are the same numbers for a reader, with sample counts and tail percentiles,
and the facts that set the load. Every stage and every correctness check is
one operation; a failed one counts in ``failed``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STAGE = HERE / "stage.py"
REFERENCE = HERE / "reference.json"
WORK = HERE / ".work"

SETUP_REPEATS = 3
RUN_LIMIT_S = 170.0  # the whole run must end within 180 s
STAGE_LIMIT_S = 120.0

# One BLAS thread per process, so that floating-point results repeat exactly.
# Set before numpy is first imported; stage processes get it from stage_env().
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.tracing import Trace  # noqa: E402
from perfbench.workloads import (WORKLOADS, Metric, StageResult, input_seed,  # noqa: E402
                                 metric, tail_percentile, tree_leaves)


def fail(message: str, code: int = 2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def stage_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env.pop("FLOWLENS_SEED", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_stage(stage, log_dir: Path, deadline: float, trace_file: Path | None = None):
    """Run one stage process; wall time from spawn to exit, and its own maxrss."""
    cmd = [sys.executable, str(STAGE)]
    if trace_file is not None:
        cmd += ["--trace", str(trace_file)]
    cmd += stage.argv
    out_path, err_path = log_dir / f"{stage.name}.out", log_dir / f"{stage.name}.err"
    limit = max(1.0, min(STAGE_LIMIT_S, deadline - time.monotonic()))
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=stage_env(), cwd=ROOT)
        timer = threading.Timer(limit, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    result = StageResult(ok=proc.returncode == 0, wall_s=wall, rss_mb=usage.ru_maxrss / 1024.0,
                         stdout=out_path.read_text(errors="replace"),
                         stderr=err_path.read_text(errors="replace"))
    if stage.result_file is not None and result.ok:
        result.extra = json.loads(Path(stage.result_file).read_text(encoding="utf-8"))
    return result


class Tally:
    """Operations attempted and failed; every stage and every check is one."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.unexpected = 0  # failed checks and failed stages other than probes

    def add(self, name: str, ok: bool, probe: bool = False):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(name)
            if not probe:
                self.unexpected += 1


def run_pass(workload, work: Path, seed: int, tally: Tally, deadline: float,
             traced: bool, reference: dict | None):
    """One iteration: every stage, then the checks. Returns ({stage:
    StageResult} without probes, {stage: Trace})."""
    logs = work / "logs"
    logs.mkdir(parents=True, exist_ok=True)
    (work / "out").mkdir(exist_ok=True)
    results, traces = {}, {}
    for stage in workload.stages(work, seed):
        trace_file = logs / f"{stage.name}.trace.json" if traced else None
        r = run_stage(stage, logs, deadline, trace_file)
        tally.add(f"stage {stage.name}", r.ok, probe=stage.probe)
        if not r.ok and not stage.probe:
            print(f"# stage {stage.name} failed: {r.stderr.strip()[-300:]}", file=sys.stderr)
        if not stage.probe:
            results[stage.name] = r
        if trace_file is not None and trace_file.is_file():
            traces[stage.name] = Trace.load(trace_file)
            trace_file.unlink()
    if reference is not None:
        run_checks(workload, work, reference, tally)
    return results, traces


def run_checks(workload, work: Path, reference: dict, tally: Tally):
    for check in workload.checks(work, reference):
        tally.add(f"check {check.name}", check.ok)
        if not check.ok:
            print(f"# check failed: {check.name}: {check.detail}", file=sys.stderr)


def machine_facts() -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "cpu": cpu}


def overhead(traced: dict, untraced: dict) -> dict:
    return {f"trace_overhead.{name}": Metric(traced[name].value - m.value, m.unit)
            for name, m in untraced.items() if name in traced}


def describe(name: str, m) -> str:
    text = f"{name:<40} {m.value:>14.6g} {m.unit:<9}"
    if m.samples:
        text += f" median of n={len(m.samples)}"
        tail = tail_percentile(m.samples)
        if tail is not None:
            text += f", p{tail[0]:g}={tail[1]:.6g}"
    return text


def measure(workload, seed: int, seconds: float, trace: bool, reference: dict | None,
            start: float, setup_repeats: int = SETUP_REPEATS) -> dict:
    work = WORK / f"{workload.name}-{os.getpid()}"
    try:
        return _measure(workload, work, seed, seconds, trace, reference, start, setup_repeats)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(workload, work: Path, seed: int, seconds: float, trace: bool,
             reference: dict | None, start: float, setup_repeats: int) -> dict:
    deadline = start + RUN_LIMIT_S
    setups = []
    for _ in range(1 if trace else setup_repeats):
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        t0 = time.perf_counter()
        facts = workload.setup(work, seed)
        setups.append(time.perf_counter() - t0)

    tally = Tally()
    iterations, traced_iterations, traces = [], [], []
    t_measure = time.monotonic()
    durations = []
    while True:
        t0 = time.monotonic()
        if trace:
            # Alternate which pass goes first, so neither always runs warm.
            order = (False, True) if len(durations) % 2 == 0 else (True, False)
            for traced in order:
                results, tr = run_pass(workload, work, seed, tally, deadline, traced, reference)
                if traced:
                    traced_iterations.append(results)
                    traces.append(tr)
                else:
                    iterations.append(results)
        else:
            results, _ = run_pass(workload, work, seed, tally, deadline, False, reference)
            iterations.append(results)
        durations.append(time.monotonic() - t0)
        elapsed = time.monotonic() - t_measure
        expected = statistics.mean(durations)
        if elapsed + expected > seconds or time.monotonic() + 1.5 * expected > deadline:
            break

    facts.update(seed=seed, input_set=input_seed(seed), iterations=len(durations),
                 measured_s=round(time.monotonic() - t_measure, 3))
    facts.update(machine_facts())
    model_file = work / "out" / "rf.json"
    if model_file.is_file():
        facts["leaves_per_tree"] = tree_leaves(model_file)
    stages = workload.stage_metrics(iterations, facts)
    e2e = workload.end_to_end(iterations, facts)
    if trace:
        metrics = workload.per_layer(traces, facts)
        metrics.update(stages)
        traced_e2e = workload.end_to_end(traced_iterations, facts)
        traced_e2e.update(workload.stage_metrics(traced_iterations, dict(facts)))
        metrics.update(overhead(traced_e2e, {**e2e, **stages}))
        stages = {}
    else:
        metrics = dict(e2e)
        metrics["setup_s"] = metric(setups, "s")
        metrics["ops_ok_ratio"] = Metric((tally.attempted - tally.failed) / tally.attempted,
                                         "ratio")
    observed = workload.observe(work)
    return {"facts": facts, "metrics": metrics, "stages": stages, "tally": tally,
            "observed": observed}


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through run_stage, which stops its child


def main(argv=None) -> int:
    start = time.monotonic()
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "flowlens" / "cli.py").is_file():
        fail(f"no flowlens sources under {ROOT / 'src'}; run from a flowlens checkout")
    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    references = json.loads(REFERENCE.read_text(encoding="utf-8"))
    reference = references[workload.name].get(str(input_seed(args.seed)))
    if reference is None:
        fail(f"reference.json has no outputs for input set {input_seed(args.seed)}")

    res = measure(workload, args.seed, args.seconds, bool(args.trace), reference, start)
    tally, metrics = res["tally"], res["metrics"]
    print(f"workload {workload.name}: {workload.why}")
    print("facts " + json.dumps(res["facts"], sort_keys=True))
    for name in sorted(metrics):
        print(describe(name, metrics[name]))
    if res["stages"]:
        print("per stage (per-layer metrics of a --trace 1 run, not in the result):")
        for name, m in sorted(res["stages"].items()):
            print("  " + describe(name, m))
    ratio = tally.failed / tally.attempted
    print(f"operations: {tally.attempted} attempted, {tally.failed} failed "
          f"(ops_failed_ratio {ratio:.6g})" + (f": {', '.join(sorted(set(tally.failures)))}"
                                               if tally.failures else ""))
    result = {
        "correct": tally.unexpected == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": m.value, "unit": m.unit} for name, m in sorted(metrics.items())},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
