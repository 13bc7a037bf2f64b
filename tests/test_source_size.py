"""The size of `src/figr` is a tracked number, pinned like the engine's
counts: a change may lower the ceiling, and raising it needs a CHANGES.md
line that says why."""

from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "figr"
CEILING = 3045      # lines, as `wc -l src/figr/*.py` counts them


def test_package_line_count_ceiling():
    counts = {p.name: p.read_bytes().count(b"\n") for p in sorted(PACKAGE.glob("*.py"))}
    lines = sum(counts.values())
    per_module = ", ".join(f"{name} {n}" for name, n in counts.items())
    assert lines <= CEILING, f"src/figr has {lines} lines, ceiling {CEILING} ({per_module})"
