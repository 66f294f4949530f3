"""One workload in one process; started by run.py, not by hand.

    worker.py --role setup|measure --workload NAME --seed N --seconds S
              --trace 0|1 --t-spawn T

``--t-spawn`` is the CLOCK_MONOTONIC reading taken by the parent just
before it started this process, so set-up time counts interpreter start
and imports. ``--role setup`` stops where the first timed operation would
begin and prints only its set-up time. ``--role measure`` runs rounds until
``--seconds`` have passed, then collects evidence and checks it. The last
line of standard output is one JSON object.
"""
from __future__ import annotations

import argparse
import json
import resource
import shutil
import signal
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "benchmarks" / "out"


def import_program():
    """Import livlr from this checkout's src/, and only from there."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import livlr
    except ImportError as e:
        sys.exit(f"cannot import livlr from {ROOT / 'src'}: {e}")
    if Path(livlr.__file__).resolve().parent != ROOT / "src" / "livlr":
        sys.exit(f"livlr resolved to {livlr.__file__}, outside this checkout")
    return livlr


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--role", choices=("setup", "measure"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--t-spawn", type=float, required=True)
    args = ap.parse_args(argv)
    # so that the finally below removes the work directory when run.py stops us
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    import_program()
    import checks
    import tracing
    from workloads import WORKLOADS

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    tape_size = sys.modules["livlr.tensor"].tape_size

    OUT.mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        wl = WORKLOADS[args.workload]()
        state = wl.setup(args.seed, workdir)
        setup_s = time.monotonic() - args.t_spawn
        if args.role == "setup":
            print(json.dumps({"setup_s": setup_s}))
            return 0

        win = None
        round_s, outputs = [], []
        attempted = failed = 0
        t_start = time.perf_counter()
        while True:
            if outputs:
                wl.between_rounds(state)
            before = tracer.snapshot() if tracer else None
            tape0 = tape_size()
            t0 = time.perf_counter()
            r = wl.run_round(state)
            round_s.append(time.perf_counter() - t0)
            if tracer:
                win = tracing.window(before, tracer.snapshot(), win)
            if not outputs:
                rss = peak_rss_mb()
                tape_left = tape_size() - tape0
            outputs.append(r.output)
            attempted += r.attempted
            failed += r.failed
            if time.perf_counter() - t_start >= args.seconds:
                break
        ops = r.ops * len(outputs)
        if tracer:
            whole = tracer.snapshot()
            tracer.uninstall()

        correct, why = True, ""
        if failed:
            correct, why = False, f"{failed} of {attempted} operations failed"
        else:
            try:
                wl.verify(wl.collect(state, outputs))
            except checks.CheckFailed as e:
                correct, why = False, str(e)

        result = {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "setup_s": setup_s,
            # time in rounds over operations in rounds: a median of the rounds
            # spread more between runs on a shared machine
            "op_ms": sum(round_s) * 1000.0 / ops,
            "peak_rss_mb": rss,
            "round_op_ms": [t * 1000.0 / r.ops for t in round_s],
            "check": why or "all checks passed",
        }
        if tracer:
            result["per_layer"] = tracing.per_layer_metrics(win, whole, ops, tape_left)
            result["per_layer"]["traced.op_ms"] = (result["op_ms"], "ms")
            trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            trace_file.write_text(json.dumps(
                {"workload": args.workload, "seed": args.seed, "ops": ops,
                 "rounds": len(outputs), "layers": win["stats"], "counts": win["counts"],
                 "unbound": tracer.missing}, indent=1))
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
