"""README.md's library quick tour runs as written."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quick_tour_runs():
    fences = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(fences) == 1
    # the tour asserts its own values (the graft formula, the oracle and the
    # permutation form all give 1480)
    exec(compile(fences[0], str(README), "exec"), {})
