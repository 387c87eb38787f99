"""Every top-level name of ternrep is used outside the library code.

A name earns its place in ternrep.__all__ when the CLI, the README, the
docs, a demo or the benchmark harness names it; anything else stays
importable from its own module only.
"""

import re
from pathlib import Path

import ternrep

ROOT = Path(__file__).resolve().parent.parent
USERS = [ROOT / "src" / "ternrep" / "cli.py", ROOT / "README.md",
         *sorted((ROOT / "docs").glob("*.md")),
         *sorted((ROOT / "demos").glob("*.py")),
         *sorted((ROOT / "perfbench").rglob("*.py"))]


def test_every_exported_name_is_used():
    text = "\n".join(path.read_text() for path in USERS)
    unused = [name for name in ternrep.__all__ if not re.search(rf"\b{re.escape(name)}\b", text)]
    assert not unused, f"exported but named by no CLI, doc, demo or benchmark: {unused}"
