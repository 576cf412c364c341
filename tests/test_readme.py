"""README.md names only what the code has, and states what the code does."""

import contextlib
import io
import json
import re
from pathlib import Path

from gpgd.experiments import _DEFAULTS, EXPERIMENTS

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()
# Outside code fences, and its backticked spans.
PROSE = re.sub(r"^```.*?^```", "", README, flags=re.S | re.M)
SPANS = re.findall(r"`([^`\n]+)`", PROSE)


def test_every_backticked_name_in_the_readme_occurs_in_the_code():
    # Each backticked span that is a Python identifier must occur as a word in
    # a .py file under src/, perfbench/, tools/ or tests/, so a renamed or
    # deleted name cannot stay in the prose.
    names = {span for span in SPANS if span.isidentifier()}
    code = "\n".join(path.read_text() for folder in ("src", "perfbench", "tools", "tests")
                     for path in sorted((ROOT / folder).rglob("*.py")))
    assert len(names) > 100
    assert sorted(name for name in names if not re.search(rf"\b{name}\b", code)) == []


def test_the_readme_is_a_short_contract_without_private_helpers_or_timings():
    # A private name begins a span or follows a space, dot, bracket or comma,
    # so `||P_N||_F` and `<out>_trace.csv` name none.  The README states
    # contracts; how a helper reaches one is its docstring's business, and
    # measurements live in CHANGES.md.
    assert len(README.splitlines()) <= 450
    private = {name for span in SPANS for name in re.findall(r"(?<![^\s.(\[,])_[A-Za-z]\w*", span)}
    assert private == {"_deterministic"}
    assert re.findall(r"µs|\bms\b|\bns\b|\d\s?s\b", PROSE) == []


def test_the_library_example_runs_and_recovers_its_signal():
    block = re.search(r"^```python\n(.*?)^```", README, flags=re.S | re.M).group(1)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(block, {})
    assert float(printed.getvalue()) < 1e-12


def _cell(text, outlier_grid):
    # A shown default as the value it stands for; `[a..b]` is range(a, b + 1).
    if text == "see below":
        text = outlier_grid
    text = text.strip("`")
    span = re.fullmatch(r"\[(\d+)\.\.(\d+)\]", text)
    return list(range(int(span[1]), int(span[2]) + 1)) if span else json.loads(text)


def test_the_configuration_table_is_the_defaults_the_code_reads():
    lines = [line.strip().strip("|").split("|") for line in README.splitlines()
             if line.startswith("| ")]
    header, *rows = [[cell.strip() for cell in line] for line in lines]
    assert header == ["key", *(name.replace("_", "-") for name in EXPERIMENTS)]
    outlier_grid = re.search(r"The default `outlier_grid` of `outliers` is\s+(`[^`]+`)", PROSE)[1]
    table = {key.strip("`"): dict(zip(EXPERIMENTS, cells, strict=True)) for key, *cells in rows}
    assert sorted(table) == sorted({key for keys in _DEFAULTS.values() for key in keys})
    for key, cells in table.items():
        for experiment, text in cells.items():
            if key not in _DEFAULTS[experiment]:
                assert text == "–", (key, experiment)
            else:
                # json.dumps tells 150 from 150.0, so each type is checked too.
                shown = json.dumps(_cell(text, outlier_grid))
                assert shown == json.dumps(_DEFAULTS[experiment][key]), (key, experiment)
