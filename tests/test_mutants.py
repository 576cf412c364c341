import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "mutants.py"
_SPEC = importlib.util.spec_from_file_location("mutants", _PATH)
mutants = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(mutants)


def test_every_snippet_occurs_once_and_every_module_has_a_row():
    # A refactor that moves a snippet fails here, before the table is run.
    sources = {path.name: path.read_text() for path in sorted((mutants.REPO / "src/gpgd").glob("*.py"))}
    assert mutants.stale(mutants.MUTANTS, sources) == []


def test_a_stale_snippet_and_an_unmutated_module_are_reported():
    sources = {"a.py": "x = 1\nx = 1\n", "b.py": "y = 2\n", "c.py": ""}
    rows = {"twice": ("a.py", "x = 1", "x = 2", []), "gone": ("b.py", "y = 3", "", [])}
    assert mutants.stale(rows, sources) == [
        "twice: its snippet occurs 2 times in a.py, not once",
        "gone: its snippet occurs 0 times in b.py, not once",
        "c.py: no row mutates it",
    ]


def test_only_failed_tests_count_as_a_kill():
    assert [mutants.verdict(code) for code in (1, 0)] == ["killed", "SURVIVED"]
    for code in (None, mutants.MASKED, 2, 3, 4, 5, -9):
        assert mutants.verdict(code) not in ("killed", "SURVIVED"), code
