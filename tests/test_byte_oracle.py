import importlib.util
from pathlib import Path

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
