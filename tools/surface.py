"""Print the size of kgexplain's public surface.

Three numbers: the line count of ``src/kgexplain``, the number of names in
``kgexplain.__all__``, and the settable values. A settable value is an
init field of a dataclass in ``__all__``, a defaulted parameter of a
function in ``__all__``, or a search-space preset. Then each module's line
count, largest first.

    python3 tools/surface.py
"""
from __future__ import annotations

import dataclasses
import inspect
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

import kgexplain  # noqa: E402
from kgexplain.kg import SEARCH_SPACE_PRESETS  # noqa: E402


def settable_values() -> int:
    count = len(SEARCH_SPACE_PRESETS)
    for name in kgexplain.__all__:
        obj = getattr(kgexplain, name)
        if dataclasses.is_dataclass(obj):
            count += sum(1 for f in dataclasses.fields(obj) if f.init)
        elif inspect.isfunction(obj):
            params = inspect.signature(obj).parameters.values()
            count += sum(1 for p in params if p.default is not p.empty)
    return count


def module_lines() -> list[tuple[str, int]]:
    """Each of the package's modules with its line count, largest first."""
    counts = [
        (path.name, len(path.read_text(encoding="utf-8").splitlines()))
        for path in (SRC / "kgexplain").glob("*.py")
    ]
    return sorted(counts, key=lambda count: (-count[1], count[0]))


def src_lines() -> int:
    """The line count of the package's modules."""
    return sum(lines for _, lines in module_lines())


def main() -> None:
    print(f"src/kgexplain lines: {src_lines()}")
    print(f"__all__ names: {len(kgexplain.__all__)}")
    print(f"settable values: {settable_values()}")
    for name, lines in module_lines():
        print(f"  {name}: {lines}")


if __name__ == "__main__":
    main()
