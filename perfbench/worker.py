"""Run one workload in this (fresh, single-threaded) process.

    python3 perfbench/worker.py --workload W --seed N --mode MODE
        [--seconds S] [--in-process] [--spans-out FILE]

MODE is `setup` (prepare the inputs and stop), `timed` (repeat passes over
the workload's operations until the next pass would end after S seconds,
always at least one) or `traced` (the same under the layer tracer).  The
last line of stdout is one JSON object; the monotonic time at which the
inputs were ready is in it, so the parent can measure set-up from spawn.
run.py starts this script; it is not meant to be run by hand.
"""

import argparse
import json
import os
import resource
import signal
import statistics
import sys
import time
import traceback
from collections import Counter

import summary

MAX_REPORTED_ERRORS = 20
# one speed sample takes 3 to 7 ms, so the timer adds about 1 % to the
# time of an operation that it interrupts
SAMPLE_EVERY_S = 0.5


def cpu_now():
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def run_passes(workload, ctx, seconds, in_process, tracer):
    """Passes over the workload's operations.  The machine's speed is
    sampled (summary.speed_scale()) just before each operation, after the
    last, and every SAMPLE_EVERY_S by a timer, so that an operation of
    seconds has samples taken while it runs; each execution's wall and CPU
    time are scaled by summary.local_scales().  An operation's wall and CPU
    time are the medians of its scaled executions."""
    samples, ticks, execs, errors, unscaled = [], [], [], [], []
    attempted = failed = 0
    sizes, sized = Counter(), set()

    def sample(into):
        scale = summary.speed_scale()
        into.append((time.perf_counter(), scale))

    previous = signal.signal(signal.SIGALRM,
                             lambda signum, frame: sample(ticks))
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
    start = time.perf_counter()
    try:
        while True:
            pass_start = time.perf_counter()
            ops = workload.ops(ctx, in_process)
            for index, op in enumerate(ops):
                if tracer is not None:
                    tracer.op_id = f"{len(unscaled)}:{index}"
                sample(samples)
                t0, c0 = time.perf_counter(), cpu_now()
                try:
                    result = op.call()
                except Exception as exc:  # a raising operation is a failed one
                    t1, c1 = time.perf_counter(), cpu_now()
                    error = f"raised {type(exc).__name__}: {exc}"
                    traceback.print_exc(file=sys.stderr)
                else:
                    t1, c1 = time.perf_counter(), cpu_now()
                    try:
                        error = op.check(result)
                    except Exception as exc:  # so is output it cannot read
                        error = f"check raised {type(exc).__name__}: {exc}"
                    if error is None and op.label not in sized:
                        sized.add(op.label)
                        sizes.update(op.size(result))
                execs.append((op.label, t0, t1, c1 - c0))
                attempted += 1
                if error is not None:
                    failed += 1
                    if len(errors) < MAX_REPORTED_ERRORS:
                        errors.append(f"{op.label}: {error}")
            unscaled.append(time.perf_counter() - pass_start)
            if time.perf_counter() - start + unscaled[-1] > seconds:
                break
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    sample(samples)

    scales = summary.local_scales(sorted(samples + ticks),
                                  [(t0, t1) for _, t0, t1, _ in execs])
    walls, cpus = {}, {}
    for (label, t0, t1, cpu), scale in zip(execs, scales):
        walls.setdefault(label, []).append(scale * (t1 - t0))
        cpus.setdefault(label, []).append(scale * cpu)
    return {"op_s": {label: statistics.median(ts)
                     for label, ts in walls.items()},
            "op_cpu_s": {label: statistics.median(ts)
                         for label, ts in cpus.items()},
            "errors": errors, "attempted": attempted, "failed": failed,
            "pass_unscaled_s": unscaled,
            # the timer's samples are spread evenly over the run; those
            # taken before each operation crowd where operations are short
            "speed_scale": statistics.median(
                scale for _, scale in ticks or samples),
            "sizes": dict(sizes)}


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "traced"),
                        required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--in-process", action="store_true")
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args(argv)
    root = os.getcwd()
    # SystemExit unwinds through subprocess.run, which kills a running
    # kgraph child, and through the finally that removes the cli files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    tracer = None
    if args.mode == "traced":
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)
    import numpy
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    ctx = workload.setup(args.seed, root)
    out = {"t_ready": time.monotonic(), "numpy": numpy.__version__}
    try:
        if args.mode != "setup":
            out.update(run_passes(workload, ctx, args.seconds,
                                  args.in_process, tracer))
    finally:
        workload.close(ctx)
    usage = resource.getrusage(resource.RUSAGE_CHILDREN
                               if args.workload == "cli"
                               and not args.in_process
                               else resource.RUSAGE_SELF)
    out["peak_rss_mib"] = usage.ru_maxrss / 1024.0
    if tracer is not None:
        out["layers"] = spans.layer_metrics(tracer)
        out["spans"] = len(tracer.spans)
        if args.spans_out:
            tracer.write_spans(args.spans_out)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
