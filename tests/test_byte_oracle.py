import importlib.util
from pathlib import Path

from gpgd.experiments import _TRACE_COLUMNS

_PATH = Path(__file__).resolve().parent.parent / "tools" / "byte_oracle.py"
_SPEC = importlib.util.spec_from_file_location("byte_oracle", _PATH)
byte_oracle = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(byte_oracle)

_CSVS = {"phase_alpha.csv": "a1", "phase_alpha_trace.csv": "b2"}
_SUMMARY = ['{"variants": {}}']


def _results(**changed):
    """Fabricated results of one run under three settings, all alike but for
    `changed`, {setting: (exit code, {csv: sha256}, summary lines)}."""
    alike = {setting: (0, dict(_CSVS), list(_SUMMARY)) for setting in ("one", "two", "three")}
    return {"phase_alpha": {**alike, **changed}}


def test_identical_runs_pass():
    assert byte_oracle.verdict(_results(), {"phase_alpha": 0}) == []


def test_each_disagreement_is_reported_with_its_run_and_setting():
    cases = {
        "phase_alpha.csv differs from one": (0, {**_CSVS, "phase_alpha.csv": "a0"}, _SUMMARY),
        "phase_alpha_trace.csv differs from one": (0, {"phase_alpha.csv": "a1"}, _SUMMARY),
        "exit code 2, not 0": (2, _CSVS, _SUMMARY),
        "summary differs from one": (0, _CSVS, ['{"variants": {"noisy": {}}}']),
    }
    for message, result in cases.items():
        problems = byte_oracle.verdict(_results(two=result), {"phase_alpha": 0})
        assert problems == [f"phase_alpha under two: {message}"]


def test_a_trace_csv_missing_under_the_first_setting_is_reported():
    results = _results(one=(0, {"phase_alpha.csv": "a1"}, _SUMMARY))
    problems = byte_oracle.verdict(results, {"phase_alpha": 0})
    assert problems == [f"phase_alpha under {setting}: phase_alpha_trace.csv differs from one"
                        for setting in ("two", "three")]


def test_every_run_is_held_to_its_expected_exit_code():
    results = _results()
    assert byte_oracle.verdict(results, {"phase_alpha": 3}) == [
        f"phase_alpha under {setting}: exit code 0, not 3" for setting in ("one", "two", "three")]


def test_each_csv_unlike_the_committed_digests_is_named_once():
    # trace differs under one setting, phase_alpha.csv is missing from the
    # committed file and theorem.csv from the results.
    committed = {"phase_alpha_trace.csv": "b2", "theorem.csv": "c3"}
    results = _results(two=(0, {**_CSVS, "phase_alpha_trace.csv": "b0"}, _SUMMARY))
    assert (byte_oracle.unlike(results, committed)
            == ["phase_alpha.csv", "phase_alpha_trace.csv", "theorem.csv"])
    assert byte_oracle.unlike(_results(), _CSVS) == []


def test_the_committed_digests_name_exactly_the_csvs_of_the_runs():
    # Run `name` writes name.csv, and name_trace.csv for an experiment with a trace.
    committed = byte_oracle.read_digests(byte_oracle.DIGESTS.read_text())
    expected = set()
    for name, (command, *_) in byte_oracle.RUNS.items():
        expected.add(f"{name}.csv")
        if command.replace("-", "_") in _TRACE_COLUMNS:
            expected.add(f"{name}_trace.csv")
    assert sorted(committed) == sorted(expected) and len(expected) == 12
    assert all(len(digest) == 64 for digest in committed.values())
