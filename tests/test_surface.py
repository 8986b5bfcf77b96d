"""The public surface stays within its ratchet, counted as ``tools/surface.py`` counts it."""
from __future__ import annotations

import importlib.util
from pathlib import Path

import kgexplain

SURFACE = Path(__file__).resolve().parents[1] / "tools" / "surface.py"
MAX_SETTABLE_VALUES = 49
MAX_ALL_NAMES = 47
MAX_SRC_LINES = 3712


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
