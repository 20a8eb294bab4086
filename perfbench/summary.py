"""Turning worker results into the benchmark's metrics and output lines."""

import bisect
import json
import statistics
import time

TAIL_BEYOND = 10
# Every untraced timing is given at a reference speed.  The machine the
# benchmark was built on, a shared 2-vCPU Xeon virtual machine, changed
# speed by up to 1.6x from one process to the next and within seconds, and
# every timing moved with it.  So the worker samples speed_scale()
# (REFERENCE_S over the time of a fixed loop that calls nothing in kgraphs)
# before each operation and from a timer, and scales each execution by
# local_scales(); set-up is scaled by the run's median sample.  REFERENCE_S
# is about the loop's fastest time on that machine, so the values read as
# seconds there.
REFERENCE_S = 0.0017


def tail(latencies, beyond=TAIL_BEYOND):
    """(percentile, value) at the highest percentile that still has at
    least `beyond` samples above it; the maximum when there are too few."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= beyond:
        return 100.0, xs[-1]
    return 100.0 * (n - beyond) / n, xs[n - beyond - 1]


def reference_loop():
    """Fixed pure-Python work: dict updates and integer arithmetic."""
    counts, total = {}, 0
    for i in range(12000):
        key = i % 1021
        counts[key] = counts.get(key, 0) + i
        total += i * 7 % 13
    return total


def speed_scale():
    """REFERENCE_S over the faster of two timings of reference_loop()."""
    times = []
    for _ in range(2):
        start = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - start)
    return REFERENCE_S / min(times)


def local_scales(samples, spans):
    """The speed scale of each execution in `spans`, a list of (start, end).

    `samples` is a time-ordered list of (time, speed_scale()).  An
    execution's scale is the median of the samples taken while it ran and
    of the last one before it and the first one after it.  A loop timing
    follows the speed of the milliseconds around it, so an execution of a
    few milliseconds takes the two next to it, while one of ten seconds
    takes the speed sampled while it ran (worker.SAMPLE_EVERY_S)."""
    times = [t for t, _ in samples]
    scales = [s for _, s in samples]
    out = []
    for start, end in spans:
        lo = max(bisect.bisect_right(times, start) - 1, 0)
        hi = bisect.bisect_left(times, end) + 1
        out.append(statistics.median(scales[lo:hi]))
    return out


def end_to_end(timed, setup_samples):
    """The end-to-end metrics of one untraced run, by name, and the tail
    percentile.

    Set-up time is the median of the set-up samples.  An operation's
    latency and CPU time are the medians over its executions in the run
    (scaled timings); wall and CPU time are their sums over the workload's
    operations, which is one pass of typical executions: the fastest or
    the median of a run's two or three passes follows the machine's speed
    of the moment."""
    latencies = list(timed["op_s"].values())
    pct, tail_s = tail(latencies)
    return {
        "setup_s": statistics.median(setup_samples),
        "wall_s": sum(latencies),
        "cpu_s": sum(timed["op_cpu_s"].values()),
        "op_p50_ms": 1000.0 * statistics.median(latencies),
        "op_tail_ms": 1000.0 * tail_s,
        "peak_rss_mib": timed["peak_rss_mib"],
    }, pct


def error_rate(attempted, failed):
    return failed / attempted


def load_spec(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def result_lines(spec, trace, values, attempted, failed):
    """Human-readable metric lines, then the final one-line JSON result.

    `values` must hold every metric the spec lists for this mode."""
    section = spec["per_layer" if trace else "end_to_end"]
    metrics = {}
    lines = []
    for entry in section:
        name, unit = entry["name"], entry["unit"]
        value = values[name]
        metrics[name] = {"value": value, "unit": unit}
        lines.append(f"metric {name} = {value!r} {unit}")
    lines.append(f"{failed} of {attempted} operations failed")
    lines.append(json.dumps({"correct": failed == 0, "attempted": attempted,
                             "failed": failed, "metrics": metrics}))
    return lines
