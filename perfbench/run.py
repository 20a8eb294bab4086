"""The kgraphs benchmark.  Run from the repository root:

    python3 perfbench/run.py --workload kms-cold --seed 1 --seconds 20 --trace 0

Workloads: kms-cold, kms-states, structure, cli (see perfbench/README.md).
Each run starts the workload in fresh single-threaded Python processes
(perfbench/worker.py): a few that only set up, for the median set-up time,
and one that sets up and then measures for --seconds; the timings are
scaled to a reference speed (summary.REFERENCE_S).  With --trace 1 it
instead runs one untraced and one traced pass and reports the per-layer
metrics and the tracing overhead.  Every operation's output is checked; the
last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  Exits 2 when run outside a kgraphs checkout.
"""

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

import summary

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("kms-cold", "kms-states", "structure", "cli")
SETUP_SAMPLES = 7
FLOOR_SAMPLES = 5
SLOWEST = 5
RUN_BUDGET_S = 170.0
STOP_GRACE_S = 5.0
OUT_DIR = ".perfbench_out"


class Runner:
    def __init__(self, root, workload, seed):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + RUN_BUDGET_S
        src = os.path.join(root, "src")
        self.env = dict(os.environ, PYTHONPATH=src, OMP_NUM_THREADS="1",
                        OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")

    def _run(self, cmd):
        """Run cmd to completion.  At the run's deadline, or if this process
        is stopped, the child is terminated and waited for."""
        with subprocess.Popen(cmd, cwd=self.root, env=self.env,
                              stdout=subprocess.PIPE, text=True) as proc:
            try:
                out, _ = proc.communicate(
                    timeout=max(1.0, self.deadline - time.monotonic()))
            except BaseException:
                stop(proc)
                raise
        return subprocess.CompletedProcess(cmd, proc.returncode, out)

    def worker(self, mode, *extra):
        """Start worker.py; returns its result with setup_s, the unscaled
        time from spawn until its inputs were ready, filled in."""
        spawned = time.monotonic()
        proc = self._run([sys.executable, os.path.join(HERE, "worker.py"),
                          "--workload", self.workload, "--seed",
                          str(self.seed), "--mode", mode, *extra])
        if proc.returncode != 0:
            raise RuntimeError(f"worker ({mode}) exited {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["setup_s"] = result["t_ready"] - spawned
        for line in result.get("errors", ()):
            print(f"FAILED {line}", file=sys.stderr)
        return result

    def process_seconds(self, code):
        """Median wall time of `python3 -c code`, spawn to exit."""
        samples = []
        for _ in range(FLOOR_SAMPLES):
            start = time.monotonic()
            proc = self._run([sys.executable, "-c", code])
            if proc.returncode != 0:
                raise RuntimeError(f"python -c {code!r} failed")
            samples.append(time.monotonic() - start)
        return statistics.median(samples)

    def untraced(self, seconds):
        # set-up samples before and after the timed phase, so that their
        # median is taken over as long a stretch as the other timings.  A
        # loop timing next to one spawn does not follow that set-up's
        # speed, but the median speed of the timed phase follows the
        # machine's drift between minutes, so it scales them.
        before = (SETUP_SAMPLES - 1) // 2
        setups = [self.worker("setup")["setup_s"] for _ in range(before)]
        timed = self.worker("timed", "--seconds", str(seconds))
        setups.append(timed["setup_s"])
        setups += [self.worker("setup")["setup_s"]
                   for _ in range(SETUP_SAMPLES - 1 - before)]
        setups = [timed["speed_scale"] * t for t in setups]
        values, pct = summary.end_to_end(timed, setups)
        timed["op_tail_percentile"] = pct
        timed["setup_samples_s"] = setups
        return timed, values

    def traced(self):
        # the cli workload calls kgraphs.cli.main in-process when traced,
        # so its untraced reference pass does too
        extra = ["--in-process"] if self.workload == "cli" else []
        reference = self.worker("timed", *extra)
        os.makedirs(os.path.join(self.root, OUT_DIR), exist_ok=True)
        spans_out = os.path.join(
            OUT_DIR, f"spans-{self.workload}-seed{self.seed}.jsonl")
        traced = self.worker("traced", "--spans-out", spans_out, *extra)
        interpreter = self.process_seconds("pass")
        imported = self.process_seconds("import kgraphs.cli")
        values = dict(traced["layers"])
        values["cli.interpreter_s"] = interpreter
        values["cli.import_s"] = imported - interpreter
        values["cli.stdout_bytes"] = traced["sizes"].get("stdout_bytes", 0)
        # wall_s of each pass, scaled: one plain pass time each would
        # follow the machine's speed of the moment
        untraced_wall = sum(reference["op_s"].values())
        traced_wall = sum(traced["op_s"].values())
        values["trace.overhead_s"] = traced_wall - untraced_wall
        attempted = reference["attempted"] + traced["attempted"]
        failed = reference["failed"] + traced["failed"]
        values["error_rate"] = summary.error_rate(attempted, failed)
        traced["attempted"], traced["failed"] = attempted, failed
        traced["spans_file"] = spans_out
        traced["untraced_wall_s"] = untraced_wall
        traced["traced_wall_s"] = traced_wall
        return traced, values


def stop(proc):
    """SIGTERM (a worker then stops its own children), SIGKILL if needed."""
    proc.terminate()
    try:
        proc.communicate(timeout=STOP_GRACE_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()


def git_sha(root):
    """HEAD of the repository rooted exactly at root, else None."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                              cwd=root, capture_output=True, text=True,
                              timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or \
            os.path.realpath(lines[0]) != os.path.realpath(root):
        return None
    return lines[1]


def src_stats(root):
    """(line count, sha256) over src/**/*.py in sorted path order."""
    digest = hashlib.sha256()
    lines = 0
    src = os.path.join(root, "src")
    for base, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                with open(path, "rb") as fh:
                    data = fh.read()
                digest.update(os.path.relpath(path, src).encode() + b"\0")
                digest.update(data)
                lines += data.count(b"\n")
    return lines, digest.hexdigest()


def context(root, args, result):
    lines, sha = src_stats(root)
    out = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "git_sha": git_sha(root), "src_sha256": sha, "src_lines": lines,
        "python": platform.python_version(), "numpy": result["numpy"],
        "nproc": len(os.sched_getaffinity(0)),
        "executions": result["attempted"],
        "operations": len(result["op_s"]),
        "passes": len(result["pass_unscaled_s"]),
        "slowest_s": dict(sorted(result["op_s"].items(),
                                 key=lambda item: -item[1])[:SLOWEST]),
        "input_size": result["sizes"],
    }
    for key in ("op_tail_percentile", "setup_samples_s", "pass_unscaled_s",
                "speed_scale", "spans",
                "spans_file", "untraced_wall_s", "traced_wall_s"):
        if key in result:
            out[key] = result[key]
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not (os.path.isfile(os.path.join(root, "src", "kgraphs",
                                        "__init__.py"))
            and os.path.isfile(spec_path)):
        print("perfbench: run from the root of a kgraphs checkout "
              "(src/kgraphs and BENCHMARK.json not found)", file=sys.stderr)
        return 2
    spec = summary.load_spec(spec_path)
    # SystemExit unwinds through Runner._run, which stops the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    runner = Runner(root, args.workload, args.seed)
    try:
        if args.trace:
            result, values = runner.traced()
        else:
            result, values = runner.untraced(args.seconds)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    print(f"context {json.dumps(context(root, args, result))}")
    for line in summary.result_lines(spec, args.trace, values,
                                     result["attempted"], result["failed"]):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
