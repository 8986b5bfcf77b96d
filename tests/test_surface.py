"""The public surface stays within its ratchet, counted as ``tools/surface.py`` counts it."""
from __future__ import annotations

import importlib.util
import re
from pathlib import Path

import kgexplain

SURFACE = Path(__file__).resolve().parents[1] / "tools" / "surface.py"
PACKAGE = SURFACE.parents[1] / "src" / "kgexplain"
# A write outside the one writer: a Path write, a temporary file, or an
# ``open`` whose mode holds w, a or x. Read-mode opens are allowed.
WRITE = re.compile(r"""\.write_(text|bytes)\(|NamedTemporaryFile|open\([^)]*["'][rbt+]*[wax][rwaxbt+]*["']""")
MAX_SETTABLE_VALUES = 47
MAX_ALL_NAMES = 47
MAX_SRC_LINES = 3685


def _surface():
    spec = importlib.util.spec_from_file_location("surface", SURFACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_settable_values_do_not_exceed_the_ratchet():
    assert len(_surface().settable_names()) <= MAX_SETTABLE_VALUES


def test_all_names_do_not_exceed_the_ratchet():
    assert len(kgexplain.__all__) <= MAX_ALL_NAMES


def test_src_lines_do_not_exceed_the_ratchet():
    assert _surface().src_lines() <= MAX_SRC_LINES


def test_only_kg_opens_a_file_for_writing():
    assert WRITE.search((PACKAGE / "kg.py").read_text())
    writers = [
        f"{path.name}:{text.count(chr(10), 0, match.start()) + 1}: {match.group()}"
        for path in sorted(PACKAGE.glob("*.py")) if path.name != "kg.py"
        for text in [path.read_text()]
        for match in WRITE.finditer(text)
    ]
    assert writers == []
