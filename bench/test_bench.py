"""Self-test of the benchmark: ``python -m pytest bench -q``.

Not part of tier-1 (``testpaths`` stays ``tests``).  One ``--quick`` pass
over all seven workloads (about 20 s) feeds most of the checks.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
import run  # noqa: E402
from layers import LAYER_UNITS, SERVE_PARTITION, STEP_PARTITION  # noqa: E402
from reference import NOMINAL_S, MachineSpeed  # noqa: E402
from spans import SpanRecorder  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from repro.mp.shm import shm_segments  # noqa: E402

SPEC = run.load_spec()


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    segments = shm_segments()
    out = tmp_path_factory.mktemp("bench") / "quick.json"
    status = run.main(["--quick", "--reps", "1", "--out", str(out)])
    report = json.loads(out.read_text())
    report["status"] = status
    report["segments_before"] = segments
    return report


def test_names_match_benchmark_json(quick):
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(WORKLOADS) == list(quick["workloads"])
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == LAYER_UNITS
    end_to_end = [m["name"] for m in SPEC["end_to_end"]]
    for name, result in quick["workloads"].items():
        assert list(result["end_to_end"]) == end_to_end, name
        assert set(result["per_layer"]) == set(LAYER_UNITS), name
        for metric in SPEC["end_to_end"]:
            row = result["end_to_end"][metric["name"]]
            assert row["unit"] == metric["unit"] and row["median"] > 0, (name, row)


def test_outputs_pass_and_quick_is_marked(quick):
    assert quick["status"] == 0
    assert quick["comparable"] is False and quick["quick"] is True
    assert quick["host_cpus"] >= 1 and quick["seed"] == run.DEFAULT_SEED
    for name, result in quick["workloads"].items():
        # Untraced and traced run agree on the outputs, or this is non-zero:
        # the wrappers change nothing.
        assert result["ops_failed"] == 0 and not result["failures"], name
        assert result["ops_attempted"] > 0


def test_layer_self_times_partition_the_step(quick):
    for name, result in quick["workloads"].items():
        layers = result["per_layer"]
        if WORKLOADS[name].kind == "serve":
            trace = json.loads((run.RESULTS / f"trace-{name}.json").read_text())
            run_s = trace["aggregate"]["serve.run"]["total_s"] / trace["slowdown"]
            total = 1e6 * run_s / trace["ops"]
            parts = sum(layers[m] for m in SERVE_PARTITION)
        else:
            total = layers["worker.step_ms"]
            parts = sum(layers[m] for m in STEP_PARTITION)
        assert total > 0
        assert parts == pytest.approx(total, rel=0.02), name


def test_each_layer_works_in_one_workload_and_not_in_the_control(quick):
    home = {"tier.": "train_tiered", "stream.": "stream_rotation",
            "serving.": "serve_zipf", "mp.": "train_mp_async",
            "sampling.neg_refresh": "train_negcache"}
    for name, result in quick["workloads"].items():
        for metric, value in result["per_layer"].items():
            for prefix, owner in home.items():
                if metric.startswith(prefix) and name != owner:
                    assert value == 0, (name, metric)
    control = quick["workloads"]["train_dglke"]["per_layer"]
    assert all(v == 0 for m, v in control.items() if m.startswith("cache."))
    assert control["ps.pull_calls"] > 0 and control["worker.step_ms"] > 0
    for prefix, owner in home.items():
        worked = [m for m, v in quick["workloads"][owner]["per_layer"].items()
                  if m.startswith(prefix) and v]
        assert worked, (owner, prefix)


def test_nothing_outlives_a_child(quick):
    assert shm_segments() == quick["segments_before"]
    assert list((run.RESULTS / "tmp").iterdir()) == []


def test_a_child_that_raises_is_failed_ops_not_a_crash():
    record = run.run_child("no_such_workload", 11, 1.0, quick=True)
    assert record["ops_attempted"] == 1 and record["ops_failed"] == 1
    assert "child exited" in record["failures"][0]


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_contract_line(trace, section, capsys, tmp_path):
    status = run.main(["--workload", "train_dglke", "--quick", "--seed", "5",
                       "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace),
                       "--out", str(tmp_path / "one.json")])
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert status == 0
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == wanted


def test_outside_a_checkout_there_is_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "train_dglke", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_compare_verdicts(quick, tmp_path, capsys):
    row = {"median": 100.0, "min": 99.0, "max": 101.0, "n": 3}
    assert compare.verdict(row, {**row, "median": 95.0}, "higher", 0.1)[0] == "ok"
    assert compare.verdict(row, {**row, "median": 85.0}, "higher", 0.1)[0] == "worse"
    assert compare.verdict(row, {**row, "median": 115.0}, "lower", 0.1)[0] == "worse"
    noisy = {**row, "min": 80.0}
    assert compare.verdict(row, noisy, "lower", 0.1)[0] == "unresolved"
    assert compare.verdict(row, {**row, "n": 1}, "lower", 0.1)[0] == "unresolved"

    a, b = tmp_path / "a.json", tmp_path / "b.json"
    quick = {k: v for k, v in quick.items() if k not in ("status", "segments_before")}
    a.write_text(json.dumps(quick))
    b.write_text(json.dumps(quick))
    assert compare.main([str(a), str(b)]) == 0  # A/A: unresolved (n=1), never worse
    assert " worse " not in capsys.readouterr().out.split("\n", 1)[1]
    slower = json.loads(a.read_text())
    slower["workloads"]["serve_zipf"]["end_to_end"]["ops_per_s"]["median"] *= 0.5
    b.write_text(json.dumps(slower))
    assert compare.main([str(a), str(b)]) == 1
    assert "worse +50.0%" in capsys.readouterr().out
    failing = json.loads(a.read_text())
    failing["workloads"]["train_dglke"]["ops_failed"] = 1
    b.write_text(json.dumps(failing))
    assert compare.main([str(a), str(b)]) == 1


def test_span_self_time_is_span_minus_children():
    class Layer:
        def outer(self):
            self.inner()
            self.inner()
            return self.hidden()

        def inner(self):
            return sum(range(2000))

        def hidden(self):
            return self.inner()

    rec, layer = SpanRecorder(), Layer()
    rec.wrap(layer, "outer", "outer", root=True, ident=lambda s: (3, 7))
    rec.wrap(layer, "inner", "inner", work=lambda s: 5)
    rec.wrap(layer, "hidden", "hidden", leaf=True)
    rec.wrap(layer, "inner", "inner")  # wrapping twice is a no-op
    layer.outer()  # recorder off: nothing recorded
    rec.active = True
    layer.inner()  # outside any root span: not recorded
    layer.outer()
    names = [s[0] for s in rec.spans]
    assert names == ["outer", "inner", "inner", "hidden"]  # hidden's inner is muted
    assert all(s[4:] == (3, 7) for s in rec.spans)
    assert [s[3] for s in rec.spans] == [-1, 0, 0, 0]
    agg = rec.aggregate()
    children = agg["inner"]["total_s"] + agg["hidden"]["total_s"]
    assert agg["outer"]["self_s"] == pytest.approx(agg["outer"]["total_s"] - children)
    assert agg["inner"]["count"] == 2 and agg["inner"]["work"] == 10
    assert sum(row["self_s"] for row in agg.values()) == pytest.approx(
        agg["outer"]["total_s"]
    )


def test_slowdown_is_mean_kernel_time_over_the_interval():
    speed = MachineSpeed()  # never started: samples are filled in by hand
    speed.samples = [(1.0, NOMINAL_S), (2.0, 2 * NOMINAL_S), (3.0, 3 * NOMINAL_S)]
    assert speed.slowdown(0.0, 9.0) == pytest.approx(2.0)
    assert speed.slowdown(1.5, 3.5) == pytest.approx(2.5)
    assert speed.slowdown(5.0, 9.0) == 1.0  # no sample: leave the time as it is
