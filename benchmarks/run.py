"""livlr benchmark: desk training, desk inference and the tiny gradient audit.

    python3 benchmarks/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
    python3 benchmarks/run.py --selftest [--seed N]

Run from the repository root. Each workload runs in its own
single-threaded process (BLAS pinned to one thread). With ``--trace 0``
the last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics (setup_s, op_ms, peak_rss_mb); with
``--trace 1`` the metrics are the per-layer ones. Without ``--workload``
every workload runs in turn, a table of all metrics is printed, and the
last line maps each workload to its result. ``--selftest`` shows that each
correctness check fails on a corrupted output. See benchmarks/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# the keys of workloads.WORKLOADS; this process does not import the program
WORKLOAD_NAMES = ("train-desk-oe", "infer-desk-mc", "audit-tiny")
# set-up is measured in this many processes per run; setup_s is their median
SETUP_PROCESSES = 7
CHILD_TIMEOUT_S = 170
SINGLE_THREAD_ENV = {
    var: "1" for var in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
    )
}


class ChildFailed(Exception):
    pass


def spawn(script: str, args: list[str]) -> dict:
    """Run a benchmark script in a fresh single-threaded interpreter and
    return the JSON object on the last line of its standard output."""
    env = dict(os.environ, **SINGLE_THREAD_ENV)
    t_spawn = time.monotonic()
    with subprocess.Popen(
        [sys.executable, str(HERE / script), *args, "--t-spawn", repr(t_spawn)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
    ) as proc:
        try:
            stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except BaseException:  # timeout, SIGTERM or ^C: stop the child, then re-raise
            proc.terminate()
            proc.wait()
            raise
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{script} {' '.join(args)} exited with {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
              "--trace", str(trace)]
    setups = []
    if not trace:
        for _ in range(SETUP_PROCESSES - 1):
            setups.append(spawn("worker.py", ["--role", "setup", *common])["setup_s"])
    res = spawn("worker.py", ["--role", "measure", *common])
    setups.append(res["setup_s"])
    print(f"[{name}] seed {seed}: {len(res['round_op_ms'])} rounds, op_ms per round "
          f"{[round(x, 3) for x in res['round_op_ms']]}, set-up s "
          f"{[round(x, 3) for x in setups]}; {res['check']}", file=sys.stderr)
    if trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in res["per_layer"].items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "op_ms": {"value": res["op_ms"], "unit": "ms"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    return {"correct": res["correct"], "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def _exit_on_sigterm(signum, frame):
    sys.exit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measured seconds per run (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    if args.selftest:
        return subprocess.run(
            [sys.executable, str(HERE / "selftest.py"), "--seed", str(args.seed)],
            cwd=ROOT, env=dict(os.environ, **SINGLE_THREAD_ENV), timeout=CHILD_TIMEOUT_S,
        ).returncode
    try:
        if args.workload:
            res = run_workload(args.workload, args.seed, args.seconds, args.trace)
            print(json.dumps(res))
            return 0 if res["correct"] else 1
        results = {}
        for name in WORKLOAD_NAMES:
            results[name] = res = run_workload(name, args.seed, args.seconds, args.trace)
            print(f"{name}: correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']}")
            for metric, m in res["metrics"].items():
                print(f"  {metric:32s} {m['value']:14.6g} {m['unit']}")
        print(json.dumps(results))
        return 0 if all(r["correct"] for r in results.values()) else 1
    except (ChildFailed, subprocess.TimeoutExpired) as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
