"""The byte oracle, run as `python tools/byte_oracle.py [--write]`.

Each run in RUNS must give the same exit code, CSV set, CSV bytes and summary
line under every setting, a command prefix on a pinned base environment, and no
process of the runs may outlive them, and each CSV must have the sha256
committed in tools/bytes.sha256 (`sha256  csv` per line, one per run and CSV).
Prints `sha256  csv  setting  seconds`, tab-separated, per CSV.  Each
disagreement goes to stderr and makes it exit 1.  A change that moves bytes on
purpose runs it with --write instead: it holds the runs to each other only,
and when they agree it rewrites tools/bytes.sha256.
"""

import hashlib
import itertools
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
M8 = {"m": 8, "n_ambient": 12, "sparsity_grid": [1], "trials": 5, "resample_budget": 400}
# name: (subcommand, config file or inline config, extra arguments, expected exit code).
# At --trials 2 each parallel runner deals at least two items; nipr at 3 pairs
# deals a pair's trainings to different shares.  At m=8 the floor rejects every
# attempt, at m=11 (budget 60) the floor and the tuner, the last block cut short.
RUNS = {
    **{path.stem: (path.stem.replace("_", "-"), path, ["--trials", "2"], 0)
       for path in sorted(REPO.glob("configs/*.json"))},
    "nipr3": ("nipr", REPO / "configs/nipr.json", ["--trials", "3"], 0),
    "theorem5": ("theorem", REPO / "configs/theorem.json", [], 0),
    "theorem_m8": ("theorem", M8, [], 3),
    "theorem_m11": ("theorem", {**M8, "m": 11, "resample_budget": 60}, [], 3),
}
BASE = {"OPENBLAS_NUM_THREADS": "1", "PYTHONHASHSEED": "0", "PYTHONPATH": str(REPO / "src")}
# On one CPU the runners solve every item in one process, on two across forked shares.
SETTINGS = ("env PYTHONHASHSEED=1", "env PYTHONHASHSEED=2", "env OPENBLAS_NUM_THREADS=2",
            "taskset -c 0", "taskset -c 0,1")
DIGESTS = REPO / "tools/bytes.sha256"


def verdict(results, expected):
    """Each disagreement in `results`, {run: {setting: (exit code, {csv: sha256}, summary
    lines)}}: an exit code other than expected[run], a CSV or summary unlike the first setting's."""
    problems = []
    for name, by_setting in results.items():
        first, (_, first_csvs, first_summary) = next(iter(by_setting.items()))
        for setting, (code, csvs, summary) in by_setting.items():
            if code != expected[name]:
                problems.append(f"{name} under {setting}: exit code {code}, not {expected[name]}")
            differ = [csv for csv in sorted(csvs.keys() | first_csvs.keys())
                      if csvs.get(csv) != first_csvs.get(csv)] + ["summary"] * (summary != first_summary)
            problems += [f"{name} under {setting}: {what} differs from {first}" for what in differ]
    return problems


def read_digests(text):
    """{csv: sha256} of a bytes.sha256 text."""
    return {csv: digest for digest, csv in (line.split("  ", 1) for line in text.splitlines())}


def unlike(results, committed):
    """Each CSV of `results` (as in verdict) whose sha256 under some setting
    is not the one `committed`, {csv: sha256}, holds, and each CSV that only
    `committed` names."""
    seen = {(csv, digest) for by_setting in results.values() for _, csvs, _ in by_setting.values()
            for csv, digest in csvs.items()}
    return sorted({csv for csv, digest in seen if committed.get(csv) != digest}
                  | (committed.keys() - {csv for csv, _ in seen}))


def main():
    write = sys.argv[1:] == ["--write"]
    if sys.argv[1:] not in ([], ["--write"]):
        sys.exit(f"usage: {sys.argv[0]} [--write]")
    results = {name: {} for name in RUNS}
    with tempfile.TemporaryDirectory(prefix="byte_oracle_") as scratch:
        for (name, (command, config, extra, _)), (i, setting) in itertools.product(
                RUNS.items(), enumerate(SETTINGS)):
            out = Path(scratch, str(i), name)
            out.mkdir(parents=True)
            if isinstance(config, dict):
                (out / "config.json").write_text(json.dumps(config))
                config = out / "config.json"
            start = time.perf_counter()
            # To a file, not to a pipe that a leftover child would hold open.
            with open(out / "stdout", "w") as log:
                code = subprocess.call([*setting.split(), sys.executable, "-m", "gpgd.cli", command,
                                        "--config", config, *extra, "--out", out / name],
                                       env={**os.environ, **BASE}, stdout=log, stderr=log)
            seconds = time.perf_counter() - start
            summary = [line for line in (out / "stdout").read_text().splitlines() if line[:1] == "{"]
            csvs = {csv.name: hashlib.sha256(csv.read_bytes()).hexdigest()
                    for csv in sorted(out.glob("*.csv"))}
            results[name][setting] = (code, csvs, summary)
            for csv, digest in csvs.items():
                print(f"{digest}\t{csv}\t{setting}\t{seconds:.2f}", flush=True)
        problems = verdict(results, {name: run[3] for name, run in RUNS.items()})
        # A run's processes carry its --out path, in the scratch directory, last.
        left = subprocess.run(["pgrep", "-af", scratch], capture_output=True, text=True).stdout
        for line in left.splitlines():
            pid, *_, out = line.split()
            os.kill(int(pid), signal.SIGKILL)
            i, name = Path(out).relative_to(scratch).parts[:2]
            problems.append(f"{name} under {SETTINGS[int(i)]}: process {pid} outlived the runs")
    if not write:
        committed = read_digests(DIGESTS.read_text())
        problems += [f"{csv} differs from {DIGESTS.name}" for csv in unlike(results, committed)]
    elif not problems:
        first = {csv: digest for by_setting in results.values()
                 for csv, digest in next(iter(by_setting.values()))[1].items()}
        DIGESTS.write_text("".join(f"{first[csv]}  {csv}\n" for csv in sorted(first)))
    sys.stderr.writelines(f"{problem}\n" for problem in problems)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
