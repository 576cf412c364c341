#!/usr/bin/env python3
"""Recovery-study benchmark for gpgd.

One closed-loop client runs the cells of a workload's study one after
another; each cell is one call to a runner of `gpgd.experiments.RUNNERS`
with a one-cell grid, followed by `write_outputs`.  Every cell's outputs are
checked (see checks.py) after its timing stops.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 16 --trace 0

--trace 0 prints the end-to-end metrics (setup_s, study_s, cell_p50_ms,
peak_rss_mb); --trace 1 runs each pass untraced and then traced and prints
the per-layer metrics (spans.py).  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; the line
before it holds the run report (machine block, sample counts, failures).
The package is imported from `src/` next to this directory and nowhere
else; without it the benchmark exits with status 2 and prints no result.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

# Set-up is measured this many times per run (this process plus fresh
# child processes) and reported as the median.
SETUPS = 3

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# BLAS runs on one thread unless the caller set a count.  The operators are
# at most 150x450, too small for threads to pay off, and a threaded product
# waits for the slower of the two cores of a shared host.
BLAS_THREADS = "1"


def single_thread_blas():
    """Set the BLAS thread variables to BLAS_THREADS where the caller has
    not; takes effect only before numpy is first imported."""
    for name in BLAS_THREAD_VARS:
        os.environ.setdefault(name, BLAS_THREADS)


END_TO_END_UNITS = {"setup_s": "s", "study_s": "s", "cell_p50_ms": "ms", "peak_rss_mb": "MB"}

_T0 = time.perf_counter()


def process_age_s():
    """Seconds since this process started, from the kernel's start time;
    falls back to the time since this module was loaded."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        age = time.clock_gettime(time.CLOCK_BOOTTIME) - int(fields[19]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError, AttributeError):
        return time.perf_counter() - _T0
    return age if 0.0 <= age < 3600.0 else time.perf_counter() - _T0


def import_gpgd():
    """Import the package from ROOT/src only; exit 2 if it is not there."""
    src = ROOT / "src"
    if not (src / "gpgd" / "__init__.py").is_file():
        print(f"perfbench: no gpgd package under {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    import gpgd
    import gpgd.experiments  # noqa: F401 - the runners live here

    if Path(gpgd.__file__).resolve().parent != (src / "gpgd").resolve():
        print(f"perfbench: gpgd was imported from {gpgd.__file__}, not {src}", file=sys.stderr)
        raise SystemExit(2)
    return gpgd


def machine_block(seed):
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_config": blas.get("openblas configuration"),
        "blas_thread_env": {name: os.environ.get(name) for name in BLAS_THREAD_VARS},
        "workload_seed": seed,
    }


@dataclass
class Outcome:
    seconds: float
    problems: list
    identical: bool = None
    rows: int = 0
    ref_seconds: float = None


class WallClock:
    """Times a cell in wall seconds only: the clock of an unmetered Bench."""

    def start(self):
        self._t0 = time.perf_counter()

    def stop(self):
        seconds = time.perf_counter() - self._t0
        return seconds, seconds


@dataclass
class Bench:
    """Runs and checks cells of one workload, writing under out_dir.

    With a meter (speed.Meter), each untraced cell's time is also rescaled
    to reference seconds.  Traced cells are timed by the wall clock alone,
    so that no kernel reading runs inside a span; their two times are
    equal, as are those of every cell of an unmetered Bench.
    """

    out_dir: Path
    reference: dict
    gpgd: object
    failures: list = field(default_factory=list)
    meter: object = None

    def run_cell(self, cell, name, tracer=None):
        from checks import against_reference, structural

        exp = self.gpgd.experiments
        spec = exp.default_spec(cell.experiment, output_path=str(self.out_dir / name), **cell.overrides)
        runner = exp.RUNNERS[cell.experiment]
        clock = self.meter if self.meter is not None and tracer is None else WallClock()
        clock.start()
        try:
            if tracer is None:
                result = runner(spec)
                paths = exp.write_outputs(spec, result)
            else:
                result = tracer.call("experiments.runner", runner, spec)
                paths = tracer.call("experiments.write_outputs", exp.write_outputs, spec, result)
        except Exception as exc:  # noqa: BLE001 - a raising runner is a failed cell
            seconds, ref_seconds = clock.stop()
            outcome = Outcome(seconds, [f"raised {type(exc).__name__}: {exc}"], ref_seconds=ref_seconds)
        else:
            seconds, ref_seconds = clock.stop()
            table = Path(paths["table"]).read_text()
            trace = Path(paths["trace"]).read_text() if "trace" in paths else None
            status = result["status"]
            identical = None
            try:
                problems = structural(cell, spec, status, table, trace)
                entry = self.reference.get(cell.key)
                if entry is not None:
                    more, identical = against_reference(status, table, trace, entry)
                    problems += more
            except (ValueError, KeyError) as exc:
                problems = [f"malformed output: {type(exc).__name__}: {exc}"]
            outcome = Outcome(seconds, problems, identical, len(result["rows"]), ref_seconds)
        if tracer is not None:
            tracer.end_cell()
        if outcome.problems:
            self.failures.append({"cell": name, "key": cell.key, "problems": outcome.problems[:5]})
        return outcome


def set_up(args, gpgd):
    """Everything before the first timed cell: the study's specs and one
    checked warm-up cell.  Returns (bench, passes, warm-up outcome)."""
    from checks import load_reference
    from workloads import passes_for, shrink, study, warmup_cell

    if args.smoke:
        passes = [[shrink(c) for c in _one_per_kind(study(args.workload, args.seed, 1)[0])]]
        warm = shrink(warmup_cell(args.workload))
    else:
        passes = study(args.workload, args.seed, passes_for(args.workload, args.seconds))
        warm = warmup_cell(args.workload)
    out_dir = OUT_DIR / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    bench = Bench(out_dir, load_reference(args.workload), gpgd)
    exp = gpgd.experiments
    for cells in passes:
        for cell in cells:
            exp.default_spec(cell.experiment, **cell.overrides)
    tag = f"probe{os.getpid()}" if args.setup_probe else "main"
    outcome = bench.run_cell(warm, f"warmup_{tag}")
    return bench, passes, outcome


def _one_per_kind(cells):
    seen, out = set(), []
    for c in cells:
        if c.kind not in seen:
            seen.add(c.kind)
            out.append(c)
    return out


def probe_setups(args, count):
    """Set-up times of `count` fresh processes, each measured by itself."""
    results = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    for _ in range(count):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr[-2000:]}")
        results.append(json.loads(lines[-1]))
    return results


def timed_passes(bench, passes, tracer):
    """Run every pass; with a tracer, each pass again under it.

    Returns per-pass cell outcomes (untraced), traced cell outcomes and the
    process CPU seconds and wall seconds spent running untraced cells, their
    checks and kernel readings included.
    """
    untraced, traced = [], []
    cpu = wall = 0.0
    for i, cells in enumerate(passes):
        outcomes = []
        for j, cell in enumerate(cells):
            t0, r0 = time.perf_counter(), resource.getrusage(resource.RUSAGE_SELF)
            outcomes.append(bench.run_cell(cell, f"p{i}_c{j}"))
            r1 = resource.getrusage(resource.RUSAGE_SELF)
            cpu += (r1.ru_utime + r1.ru_stime) - (r0.ru_utime + r0.ru_stime)
            wall += time.perf_counter() - t0
        untraced.append(outcomes)
        if tracer is not None:
            tracer.install()
            try:
                traced.append([bench.run_cell(cell, f"p{i}_c{j}_traced", tracer)
                               for j, cell in enumerate(cells)])
            finally:
                tracer.uninstall()
    return untraced, traced, cpu, wall


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "robust", "bound", "prior"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=16)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one shrunken cell of each kind, one set-up: a quick self-test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    single_thread_blas()
    sys.path.insert(0, str(HERE))
    gpgd = import_gpgd()
    import speed

    if not args.setup_probe:
        shutil.rmtree(OUT_DIR / args.workload, ignore_errors=True)
    bench, passes, warm = set_up(args, gpgd)
    setup_s = process_age_s()
    bench.meter = speed.Meter()
    setup_main = {"raw_s": setup_s, "kernel_s": bench.meter.readings[0]}
    if args.setup_probe:
        print(json.dumps({"setup": setup_main, "problems": warm.problems, "identical": warm.identical}))
        return 0

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
    untraced, traced, cpu, wall = timed_passes(bench, passes, tracer)

    # The fresh-process set-ups run after the study, so that the study
    # starts straight after this process's own warm-up cell.
    probes = [] if (args.smoke or args.trace) else probe_setups(args, SETUPS - 1)
    setup_runs = [setup_main] + [p["setup"] for p in probes]
    setup_samples = [speed.rescale(r["raw_s"], [r["kernel_s"]]) for r in setup_runs]
    warm_checks = [(warm.problems, warm.identical)] + [(p["problems"], p["identical"]) for p in probes]

    cells = [o for outcomes in untraced for o in outcomes]
    traced_cells = [o for outcomes in traced for o in outcomes]
    failed = sum(1 for o in cells if o.problems)
    identical = [o.identical for o in cells + traced_cells if o.identical is not None]
    identical += [ident for _, ident in warm_checks if ident is not None]
    correct = (failed == 0 and not any(o.problems for o in traced_cells)
               and not any(problems for problems, _ in warm_checks))

    study_samples = [sum(o.ref_seconds for o in outcomes) for outcomes in untraced]
    cell_ms = [o.ref_seconds * 1e3 for o in cells]
    wall_study = [sum(o.seconds for o in outcomes) for outcomes in untraced]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": len(passes),
        "cell_samples": len(cell_ms),
        "cell_ms": [round(ms, 1) for ms in cell_ms],
        "study_samples": [round(s, 4) for s in study_samples],
        "setup_samples": [round(s, 4) for s in setup_samples],
        "wall_cell_ms": [round(o.seconds * 1e3, 1) for o in cells],
        "wall_study_samples": [round(s, 4) for s in wall_study],
        "wall_setup_samples": [round(r["raw_s"], 4) for r in setup_runs],
        "kernel_ms_min_median_max": [round(f(bench.meter.readings) * 1e3, 3)
                                     for f in (min, statistics.median, max)],
        "warmup_problems": [problems for problems, _ in warm_checks if problems],
        "reference_checked": len(identical),
        "reference_identical": sum(identical),
        "failures": bench.failures[:10],
        "machine": machine_block(args.seed),
    }
    if args.trace:
        from spans import closure, layer_metrics

        traced_s = [sum(o.seconds for o in outcomes) for outcomes in traced]
        accepted = sum(o.rows for outcomes, pass_cells in zip(traced, passes)
                       for o, cell in zip(outcomes, pass_cells) if cell.experiment == "theorem")
        extra = {
            "process.cpu_util": cpu / wall if wall else 0.0,
            "trace.overhead_frac": sum(traced_s) / sum(wall_study) - 1.0,
            "outputs.csv_identical_frac": sum(identical) / len(identical) if identical else 0.0,
        }
        metrics = layer_metrics(tracer, len(traced), accepted, extra)
        report["absent_spans"] = tracer.absent
        report["traced_study_samples"] = [round(s, 4) for s in traced_s]
        report["closure_ms_per_study"] = closure(tracer, len(traced))
        tracer.save(bench.out_dir / "spans.npz")
    else:
        values = {
            "setup_s": statistics.median(setup_samples),
            # The run's whole study time per pass: passes differ in their
            # cells by design, so a median would pick one pass's cells.
            "study_s": statistics.fmean(study_samples),
            "cell_p50_ms": statistics.median(cell_ms),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    with open(bench.out_dir / "report.json", "w") as fh:
        json.dump({"report": report, "metrics": metrics}, fh, indent=2)
        fh.write("\n")
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": correct, "attempted": len(cells), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
