"""Print the size of kgexplain's public surface.

Three numbers: the line count of ``src/kgexplain``, the number of names in
``kgexplain.__all__``, and the settable values. A settable value is an
init field of a dataclass in ``__all__``, a defaulted parameter of a
function in ``__all__``, or a search-space preset. Then each module's line
count, largest first, each settable value (``Owner.field``,
``function(param)``, ``search_space:preset``) and each ``__all__`` name, so
that two trees' lists can be compared.

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


def settable_names() -> list[str]:
    """Each settable value, as ``search_space:preset``, ``Owner.field`` or ``function(param)``."""
    names = [f"search_space:{preset}" for preset in SEARCH_SPACE_PRESETS]
    for name in kgexplain.__all__:
        obj = getattr(kgexplain, name)
        if dataclasses.is_dataclass(obj):
            names += [f"{name}.{f.name}" for f in dataclasses.fields(obj) if f.init]
        elif inspect.isfunction(obj):
            params = inspect.signature(obj).parameters.values()
            names += [f"{name}({p.name})" for p in params if p.default is not p.empty]
    return names


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
    settable = settable_names()
    print(f"src/kgexplain lines: {src_lines()}")
    print(f"__all__ names: {len(kgexplain.__all__)}")
    print(f"settable values: {len(settable)}")
    for name, lines in module_lines():
        print(f"  {name}: {lines}")
    print("settable values:")
    for name in settable:
        print(f"  {name}")
    print("__all__ names:")
    for name in kgexplain.__all__:
        print(f"  {name}")


if __name__ == "__main__":
    main()
