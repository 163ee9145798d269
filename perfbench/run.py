"""Run one benchmark workload and print its result as the last line of stdout.

    python3 perfbench/run.py --workload emst-d3 --seed 0 --seconds 25 --trace 0

Workloads: emst-d3, emst-d15, index-churn, emst-dup (see perfbench/README.md).
With ``--trace 0`` the result holds the end-to-end metrics; with
``--trace 1`` the per-layer metrics of a separate traced run.  The result
line is ``{"correct", "attempted", "failed", "metrics"}``; the line before it
records the environment and the sample count behind each metric.

Set-up time (``setup_s``) is the median over several fresh processes of the
wall time from process start to the first timed call: import, input
generation and the untimed warm-up.  The last of those processes goes on to
run the workload, so peak RSS is that of a fresh process too.  Like every
time the benchmark reports, set-up time is scaled to the reference host speed
(see ``harness.HostSpeed``), here by the measuring worker's ``host_scale``;
the samples line keeps the wall-clock median as ``setup_wall_s``.

Exits non-zero without a result if a worker fails, a check cannot run, or the
run would pass its time limit.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

WORKER = Path(__file__).resolve().parent / "harness.py"
SETUP_PROBES = 6  # set-up-only processes before the measuring one
TIME_LIMIT_S = 170.0


class WorkerError(RuntimeError):
    pass


def run_worker(argv: list[str], deadline: float) -> tuple[float, str]:
    """Start one worker; return its set-up time and everything it printed after READY."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), *argv], stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(0.0, deadline - start), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "READY" or code != 0:
        raise WorkerError(f"worker {' '.join(argv)} exited with code {code}")
    return setup, rest


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="small inputs and one set-up probe, for tests")
    args = p.parse_args(argv)

    deadline = time.perf_counter() + TIME_LIMIT_S
    common = ["--workload", args.workload, "--seed", str(args.seed), "--trace", str(args.trace)]
    if args.tiny:
        common.append("--tiny")
    try:
        setups = []
        if not args.trace:  # a traced run reports layers only
            for _ in range(1 if args.tiny else SETUP_PROBES):
                setups.append(run_worker([*common, "--seconds", "0", "--setup-only"], deadline)[0])
        setup, out = run_worker([*common, "--seconds", str(args.seconds)], deadline)
        setups.append(setup)
        lines = out.strip().splitlines()
        if not lines:
            raise WorkerError("worker printed no result")
        worker = json.loads(lines[-1])
    except (WorkerError, json.JSONDecodeError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    metrics = worker["metrics"]
    samples = {**worker["samples"], "setup_runs": len(setups)}
    if not args.trace:
        samples["setup_wall_s"] = statistics.median(setups)
        setup = samples["setup_wall_s"] * samples["host_scale"]
        metrics = {"setup_s": {"value": setup, "unit": "s"}, **metrics}
    print(json.dumps({"workload": args.workload, "seed": args.seed, "env": worker["env"], "samples": samples}))
    attempted, failed = worker["attempted"], worker["failed"]
    print(json.dumps({
        "correct": attempted > 0 and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
