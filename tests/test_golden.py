"""Golden CSV guard: the criterion-11 CLI configs at --seed 3 must keep
reproducing the tables recorded in tests/golden/.

`tests/golden/<command>.json` holds each config and `<command>.csv` (plus
`<command>_trace.csv` where the experiment writes traces) its recorded
output.  Integers and strings must match exactly; floats within 1e-9
relative or 1e-12 absolute, so that other BLAS builds pass while any change
in the draws or the arithmetic beyond rounding does not.  To re-record after
an intended change, run each config through the CLI with `--seed 3` and
copy the CSVs here.
"""

import math
from pathlib import Path

import pytest

from gpgd.cli import main

GOLDEN = Path(__file__).parent / "golden"
REL_TOL = 1e-9
ABS_FLOOR = 1e-12


def _values_match(got, ref):
    if ref.lstrip("-").isdigit():
        return got == ref
    try:
        a, b = float(got), float(ref)
    except ValueError:
        return got == ref
    if not math.isfinite(b):
        return repr(a) == repr(b)
    return math.isfinite(a) and abs(a - b) <= max(ABS_FLOOR, REL_TOL * abs(b))


def _mismatches(got_text, ref_text):
    got = [line.split(",") for line in got_text.splitlines()]
    ref = [line.split(",") for line in ref_text.splitlines()]
    if got[:1] != ref[:1] or len(got) != len(ref):
        return [f"header or row count differs: {got[:1]} x {len(got)} vs {ref[:1]} x {len(ref)}"]
    return [
        f"row {i} {col}: {g} != {r}"
        for i, (got_row, ref_row) in enumerate(zip(got[1:], ref[1:]))
        for col, g, r in zip(ref[0], got_row, ref_row)
        if not _values_match(g, r)
    ]


@pytest.mark.parametrize("command", sorted(p.stem for p in GOLDEN.glob("*.json")))
def test_cli_output_matches_golden(tmp_path, command):
    out = tmp_path / command
    code = main([command, "--config", str(GOLDEN / f"{command}.json"), "--out", str(out),
                 "--seed", "3"])
    assert code == 0
    expected = sorted(p.name for p in GOLDEN.glob(f"{command}*.csv"))
    assert sorted(p.name for p in tmp_path.glob("*.csv")) == expected
    for name in expected:
        problems = _mismatches((tmp_path / name).read_text(), (GOLDEN / name).read_text())
        assert not problems, f"{name}: " + "; ".join(problems[:5])
