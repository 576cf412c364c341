"""The committed BENCH_*.json reports come in parent/change pairs.

Each pair is two copies of perfbench's report.json, one from the parent
commit and one from the change, run with the same workload, seed, run
length and trace flag on the same machine, so the two can be compared.
"""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PAIRED = re.compile(r"BENCH_(?P<label>.+)_(?P<side>parent|change)(?P<traced>_traced)?\.json")
SHARED = ("workload", "seed", "seconds", "trace", "machine")


def _paired_files():
    return sorted(p for p in ROOT.glob("BENCH_*.json") if PAIRED.fullmatch(p.name))


def _partner(path):
    m = PAIRED.fullmatch(path.name)
    other = "change" if m["side"] == "parent" else "parent"
    return path.with_name(f"BENCH_{m['label']}_{other}{m['traced'] or ''}.json")


def _report(path):
    return json.loads(path.read_text())["report"]


def test_bench_files_exist():
    assert _paired_files()


@pytest.mark.parametrize("path", _paired_files(), ids=lambda p: p.name)
def test_bench_file_has_a_partner(path):
    assert _partner(path).is_file(), f"{path.name} has no {_partner(path).name}"


@pytest.mark.parametrize(
    "parent", [p for p in _paired_files() if "_parent" in p.name], ids=lambda p: p.name)
def test_bench_pair_is_comparable_and_correct(parent):
    reports = _report(parent), _report(_partner(parent))
    for key in SHARED:
        assert reports[0][key] == reports[1][key], key
    for report in reports:
        assert report["trace"] == int(parent.name.endswith("_traced.json"))
        assert report["failures"] == []
        assert report["reference_identical"] == report["reference_checked"]
        if report["trace"]:
            # A span whose entry point is gone would drop its layer's metrics.
            assert report["absent_spans"] == []
