"""The package runs on its supported floor, Python 3.9 (``pyproject.toml``).

Tier-1 may run on a newer interpreter, where 3.10+ syntax and keywords
work; this scan fails on them before a 3.9 run does.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"


def callee(node: ast.Call) -> str:
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    return getattr(func, "id", "")


def floor_breaks(source: str, where: str):
    """Each 3.10+ construct in ``source``: ``match`` statements,
    ``dataclass(slots=...)``, ``kw_only=`` and ``zip(strict=...)``."""
    found = []
    match_node = getattr(ast, "Match", None)
    for node in ast.walk(ast.parse(source, where)):
        line = "%s:%d" % (where, getattr(node, "lineno", 0))
        if match_node is not None and isinstance(node, match_node):
            found.append("%s match statement" % line)
        if not isinstance(node, ast.Call):
            continue
        keywords = {kw.arg for kw in node.keywords}
        name = callee(node)
        if "kw_only" in keywords:
            found.append("%s %s(kw_only=...)" % (line, name))
        if name == "dataclass" and "slots" in keywords:
            found.append("%s dataclass(slots=...)" % line)
        if name == "zip" and "strict" in keywords:
            found.append("%s zip(strict=...)" % line)
    return found


def test_src_uses_nothing_above_the_floor():
    breaks = []
    for path in sorted(SRC.rglob("*.py")):
        breaks.extend(floor_breaks(path.read_text(encoding="utf-8"),
                                   str(path.relative_to(SRC.parent))))
    assert breaks == []


@pytest.mark.parametrize("snippet", [
    "@dataclass(frozen=True, slots=True)\nclass A:\n    x: int\n",
    "@dataclasses.dataclass(kw_only=True)\nclass A:\n    x: int\n",
    "y: int = field(default=0, kw_only=True)\n",
    "pairs = list(zip(a, b, strict=True))\n",
])
def test_the_scan_sees_each_construct(snippet):
    assert len(floor_breaks(snippet, "snippet")) == 1


@pytest.mark.skipif(getattr(ast, "Match", None) is None,
                    reason="match statements do not parse before 3.10")
def test_the_scan_sees_a_match_statement():
    snippet = "match x:\n    case 1:\n        pass\n"
    assert len(floor_breaks(snippet, "snippet")) == 1
