"""The size of `src/figr` is a tracked number, pinned like the engine's
counts: a change may lower the ceiling, and raising it needs a CHANGES.md
line that says why."""

from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "figr"
CEILING = 3158      # lines, as `wc -l src/figr/*.py` counts them


def test_package_line_count_ceiling():
    lines = sum(p.read_bytes().count(b"\n") for p in PACKAGE.glob("*.py"))
    assert lines <= CEILING, f"src/figr has {lines} lines, ceiling {CEILING}"
