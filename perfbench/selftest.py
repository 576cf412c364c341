"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these tests out of the package's own test collection;
they run the benchmark in subprocesses and take about half a minute.
"""

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr[-3000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    return last


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_of_each_workload(workload):
    result = _result(_bench("--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "0",
                            "--smoke"))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = [m["name"] for m in BENCHMARK["end_to_end"]]
    assert list(result["metrics"]) == names
    for name, spec in zip(names, BENCHMARK["end_to_end"]):
        assert result["metrics"][name]["unit"] == spec["unit"]
        assert result["metrics"][name]["value"] > 0


def test_traced_run_emits_every_per_layer_metric():
    proc = _bench("--workload", "robust", "--seed", "2", "--seconds", "1", "--trace", "1", "--smoke")
    result = _result(proc)
    assert result["correct"]
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    assert declared == spans.PER_LAYER_UNITS
    report = json.loads(proc.stdout.strip().splitlines()[-2])["report"]
    assert report["absent_spans"] == []
    # The layers called from the runners, the runner self time and
    # write_outputs add up to the traced cell time.
    parts = sum(report["closure_ms_per_study"].values())
    traced_ms = 1e3 * report["traced_study_samples"][0]
    assert parts == pytest.approx(traced_ms, rel=0.02)
    assert result["metrics"]["operators.backproj.residual_threshold.calls"]["value"] > 0
    assert result["metrics"]["projections.product.calls"]["value"] > 0


def _warmup_bench(workload, mutate):
    gpgd = run.import_gpgd()
    cell = workloads.warmup_cell(workload)
    reference = checks.load_reference(workload)
    entry = dict(reference[cell.key])
    entry["table"] = mutate(entry["table"])
    out = ROOT / ".perfbench_out" / "selftest"
    out.mkdir(parents=True, exist_ok=True)
    bench = run.Bench(out, {cell.key: entry}, gpgd)
    return bench, cell


def _corrupt_last_float(table):
    header, *rows = table.splitlines()
    fields = rows[-1].split(",")
    col = max(i for i, f in enumerate(fields) if "." in f)
    fields[col] = repr(float(fields[col]) * (1 + 1e-6) + 1e-9)
    return "\n".join([header, *rows[:-1], ",".join(fields)]) + "\n"


def test_reference_match_is_not_a_failure():
    bench, cell = _warmup_bench("robust", lambda table: table)
    outcome = bench.run_cell(cell, "intact")
    assert outcome.problems == [] and outcome.identical


def test_corrupted_reference_value_fails_the_cell():
    bench, cell = _warmup_bench("robust", _corrupt_last_float)
    outcome = bench.run_cell(cell, "corrupted")
    assert outcome.problems and outcome.identical is False
    assert bench.failures and bench.failures[0]["key"] == cell.key


def test_float_tolerance_has_an_absolute_floor():
    assert checks.compare_csv("t", "a\n1e-15\n", "a\n3e-15\n") == []
    assert checks.compare_csv("t", "a\n1.0000000000001\n", "a\n1.0\n") == []
    assert checks.compare_csv("t", "a\n1.001\n", "a\n1.0\n")
    assert checks.compare_csv("t", "a\n2\n", "a\n3\n")
    assert checks.compare_csv("t", "a\nnan\n", "a\nnan\n") == []


def test_absent_entry_point_is_reported_not_fatal(monkeypatch):
    run.import_gpgd()
    missing = ("gpgd.experiments", "renamed_away", "descent.renamed")
    monkeypatch.setattr(spans, "ENTRY_POINTS", spans.ENTRY_POINTS + (missing,))
    tracer = spans.Tracer()
    assert tracer.absent == ["gpgd.experiments.renamed_away"]
    tracer.install()
    tracer.uninstall()
    metrics = spans.layer_metrics(tracer, 1, 0, {"process.cpu_util": 1.0, "trace.overhead_frac": 0.0,
                                                 "outputs.csv_identical_frac": 0.0})
    assert set(metrics) == set(spans.PER_LAYER_UNITS)


def test_without_the_package_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_passes_do_not_depend_on_run_length():
    short = workloads.study("sweep", 7, 2)
    long = workloads.study("sweep", 7, 5)
    assert [c.key for p in short for c in p] == [c.key for p in long[:2] for c in p]
    assert workloads.study("sweep", 8, 2) != short


def test_repeated_solve_counts_as_rerun():
    from types import SimpleNamespace

    tracer = spans.Tracer()
    cfg = SimpleNamespace(max_iters=600)
    same = (object(), object(), object(), object(), object())
    other = (same[0], object(), same[2], same[3], same[4])
    for args, iters in ((same, 600), (other, 40), (same, 1200)):
        trace = SimpleNamespace(iterations_run=iters, diverged=False)
        tracer._after_solve(args + (cfg,), {}, trace)
    tracer.end_cell()
    assert tracer.counts["descent.rerun_iters"] == 600
    assert tracer.counts["descent.early_stops"] == 1


def test_rescaled_time_follows_the_kernel():
    assert speed.rescale(2.0, [2 * speed.REFERENCE_S]) == pytest.approx(1.0)
    assert speed.rescale(1.0, [speed.REFERENCE_S, 9.0, speed.REFERENCE_S]) == pytest.approx(1.0)


def test_meter_reads_during_a_cell_and_leaves_no_timer():
    meter = speed.Meter()
    meter.start()
    t_end = time.perf_counter() + 3 * speed.PERIOD_S
    while time.perf_counter() < t_end:
        pass
    wall, ref = meter.stop()
    # The reading before, at least two during, and the one after.
    assert len(meter.readings) >= 4
    assert 0 < wall < 3 * speed.PERIOD_S and ref > 0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
