"""README.md names only what the code has."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_backticked_name_in_the_readme_occurs_in_the_code():
    # Outside code fences, each backticked span that is a Python identifier
    # must occur as a word in a .py file under src/, perfbench/, tools/ or
    # tests/, so a renamed or deleted name cannot stay in the prose.
    prose = re.sub(r"^```.*?^```", "", (ROOT / "README.md").read_text(), flags=re.S | re.M)
    names = {span for span in re.findall(r"`([^`\n]+)`", prose) if span.isidentifier()}
    code = "\n".join(path.read_text() for folder in ("src", "perfbench", "tools", "tests")
                     for path in sorted((ROOT / folder).rglob("*.py")))
    assert len(names) > 100
    assert sorted(name for name in names if not re.search(rf"\b{name}\b", code)) == []
