#!/usr/bin/env python3
"""Record the reference outputs of the default seed's cells.

    python3 perfbench/record_reference.py [--workload sweep ...]

Runs every cell that a run with --seed 0 can visit at up to --seconds 60,
plus the warm-up cell, with BLAS on one thread as in run.py, and stores each cell's status and CSV text in
perfbench/reference/<workload>.json, keyed by the cell's spec.  The
benchmark compares the default seed's cells against these entries (see
checks.py).  Re-record only for a change that is meant to alter the
outputs, and say so in the change.
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import import_gpgd, single_thread_blas  # noqa: E402
from workloads import WORKLOADS, passes_for, study, warmup_cell  # noqa: E402

MAX_SECONDS = 60


def record(workload, experiments, out_dir):
    cells = [warmup_cell(workload)] + [c for p in study(workload, 0, passes_for(workload, MAX_SECONDS)) for c in p]
    entries = {}
    for i, cell in enumerate(cells):
        if cell.key in entries:
            continue
        spec = experiments.default_spec(cell.experiment, output_path=str(out_dir / f"c{i}"),
                                        **cell.overrides)
        result = experiments.RUNNERS[cell.experiment](spec)
        paths = experiments.write_outputs(spec, result)
        entries[cell.key] = {
            "status": result["status"],
            "table": Path(paths["table"]).read_text(),
            "trace": Path(paths["trace"]).read_text() if "trace" in paths else None,
        }
        print(f"{workload}: {i + 1}/{len(cells)} cells", file=sys.stderr)
    path = HERE / "reference" / f"{workload}.json"
    path.parent.mkdir(exist_ok=True)
    with open(path, "w") as fh:
        json.dump(entries, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    args = parser.parse_args()
    single_thread_blas()
    experiments = import_gpgd().experiments
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        for workload in args.workload or WORKLOADS:
            record(workload, experiments, Path(tmp))


if __name__ == "__main__":
    main()
