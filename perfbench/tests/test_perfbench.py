"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import hashlib
import json
import statistics
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import pins  # noqa: E402
import spans  # noqa: E402
import summary  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from seeded import seeded_graph  # noqa: E402

SPEC = summary.load_spec(ROOT / "BENCHMARK.json")
# per-layer metrics that run.py measures outside the tracer
OUTSIDE_TRACER = {"cli.interpreter_s", "cli.import_s", "cli.stdout_bytes",
                  "trace.overhead_s", "error_rate"}


def sha(graph):
    return hashlib.sha256(graph.to_json().encode()).hexdigest()


def test_seed_fixes_the_graph():
    assert sha(seeded_graph(7)) == sha(seeded_graph(7))
    other = seeded_graph(8)
    assert sha(other) != sha(seeded_graph(7))
    assert other.validate().valid


def fake_untraced_result():
    return {"op_s": {f"op {i}": 0.001 * i for i in range(1, 31)},
            "op_cpu_s": {f"op {i}": 0.0009 * i for i in range(1, 31)},
            "peak_rss_mib": 80.5}


def printed(lines, spec_section):
    result = json.loads(lines[-1])
    for entry in spec_section:
        name, unit = entry["name"], entry["unit"]
        assert any(line.startswith(f"metric {name} = ")
                   and line.endswith(f" {unit}") for line in lines), name
        assert result["metrics"][name]["unit"] == unit
    assert set(result["metrics"]) == {e["name"] for e in spec_section}
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def test_every_end_to_end_metric_is_printed_with_its_unit():
    values, _ = summary.end_to_end(fake_untraced_result(), [0.3, 0.2, 0.4])
    lines = summary.result_lines(SPEC, 0, values, 30, 0)
    result = printed(lines, SPEC["end_to_end"])
    assert result["correct"] is True
    assert result["metrics"]["setup_s"]["value"] == 0.3
    assert result["metrics"]["wall_s"]["value"] == pytest.approx(0.465)


def test_every_per_layer_metric_is_printed_with_its_unit():
    values = spans.layer_metrics(spans.Tracer())
    values.update({name: 0.0 for name in OUTSIDE_TRACER})
    assert set(values) == {e["name"] for e in SPEC["per_layer"]}
    printed(summary.result_lines(SPEC, 1, values, 4, 0), SPEC["per_layer"])


@pytest.mark.parametrize("n, percentile, index", [
    (26, 100 * 16 / 26, 15),   # kms-cold: 10 operations above the 16th
    (100, 90.0, 89),
    (11, 100 / 11, 0),
    (10, 100.0, 9),            # too few: the maximum
])
def test_tail_percentile_rule(n, percentile, index):
    latencies = [float(i) for i in range(n)][::-1]
    pct, value = summary.tail(latencies)
    assert pct == pytest.approx(percentile)
    assert value == float(index)
    assert sum(x > value for x in latencies) == min(10, n - 1 - index)


def test_wall_and_cpu_are_sums_over_operations():
    timed = {"op_s": {"a": 0.010, "b": 0.030, "c": 0.020},
             "op_cpu_s": {"a": 0.009, "b": 0.028, "c": 0.019},
             "peak_rss_mib": 1.0}
    values, _ = summary.end_to_end(timed, [1.0])
    assert values["op_p50_ms"] == pytest.approx(20.0)
    assert values["wall_s"] == pytest.approx(0.060)
    assert values["cpu_s"] == pytest.approx(0.056)


def test_a_short_execution_takes_the_speed_next_to_it():
    samples = [(float(t), 1.0 + t) for t in range(11)]
    short, long_ = summary.local_scales(samples, [(3.5, 3.6), (4.5, 6.5)])
    # the samples just before and after
    assert short == pytest.approx(4.5)
    # the samples at 5 and 6, taken while it ran, and those at 4 and 7
    assert long_ == pytest.approx(statistics.median([5, 6, 7, 8]))


def small_kms_cold():
    ops = lambda ctx, in_process: [
        op for op in workloads.kms_cold_ops(ctx, in_process)
        if op.label.startswith("kms check b2 (1,)")]
    return workloads.Workload(workloads.kms_cold_setup, ops)


def run_once(workload):
    ctx = workload.setup(1, str(ROOT))
    return worker.run_passes(workload, ctx, 0.0, True, None)


def test_correct_outputs_count_no_failures():
    out = run_once(small_kms_cold())
    rounds = workloads.COLD_ROUNDS
    assert (out["attempted"], out["failed"]) == (2 * rounds, 0)
    assert len(out["op_s"]) == 2


def test_every_timing_is_scaled_by_the_sampled_speed(monkeypatch):
    monkeypatch.setattr(summary, "speed_scale", lambda: 0.0)
    out = run_once(small_kms_cold())
    assert set(out["op_s"].values()) == set(out["op_cpu_s"].values()) == {0.0}
    assert out["pass_unscaled_s"][0] > 0.0


def test_a_wrong_pinned_value_counts_in_error_rate(monkeypatch):
    key = ("b2", (1,), False)
    support, checked, failures, passed = pins.KMS_COLD[key]
    monkeypatch.setitem(pins.KMS_COLD, key,
                        (support + 1, checked, failures, passed))
    out = run_once(small_kms_cold())
    rounds = workloads.COLD_ROUNDS
    assert (out["attempted"], out["failed"]) == (2 * rounds, rounds)
    assert summary.error_rate(out["attempted"], out["failed"]) == 0.5
    assert "pinned" in out["errors"][0]


def test_a_passing_theta_blind_check_is_a_failure(monkeypatch):
    key = ("b2", (1,), True)
    monkeypatch.setitem(pins.KMS_COLD, key, (13, 13, 0, True))
    real = workloads.cold_check
    monkeypatch.setattr(workloads, "cold_check",
                        lambda text, box, blind: real(text, box, False))
    out = run_once(small_kms_cold())
    assert out["failed"] == workloads.COLD_ROUNDS
    assert "theta-blind control passed" in out["errors"][0]
