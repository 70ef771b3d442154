"""Source-wide guards: exact integers only, and checks that survive
``python -O``."""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "wordbound").glob("*.py"))


def _offences(source):
    """Line numbers of assert statements and float or complex literals."""
    return [
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Assert)
        or (isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)))
    ]


def test_guard_flags_asserts_and_floats_but_not_path_joins():
    source = "assert ok\nx = 1.5\ny = 2j\nz = Path('a') / 'b'\nw = 7 // 2\n"
    assert _offences(source) == [1, 2, 3]


def test_library_has_no_assert_or_float_literal():
    assert SOURCES
    found = {p.name: _offences(p.read_text(encoding="utf-8")) for p in SOURCES}
    assert {name: lines for name, lines in found.items() if lines} == {}
