"""The simulated clock's constants have one home: ``repro/costs.py``.

(a) An AST walk over ``src/repro`` fails on any non-zero numeric literal
outside ``costs.py`` bound to a name ending ``_ms``, ``_pps`` or
``_per_ms``: a module constant, a local, a parameter default, a
dataclass field or a ``self.`` attribute. A value the experimenter
chooses per run is not a cost of the model; :data:`ALLOWED` names each
one, and an entry that excuses nothing fails too.

(b) The "Cost table" section of ``docs/internals.md`` lists every
constant with its value, and every field of every NF profile.
"""

from __future__ import annotations

import ast
import dataclasses
import operator
import pathlib
import re
from typing import Dict, List, Optional, Tuple

from repro import costs

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
SUFFIXES = ("_ms", "_pps", "_per_ms")

#: (module path under src/repro, name) -> why its literal is not a cost.
ALLOWED: Dict[Tuple[str, str], str] = {
    ("traffic/replay.py", "rate_pps"):
        "the offered load of a replay is the experiment's input",
    ("harness/scenarios.py", "rate_pps"):
        "run_move_experiment's offered load, passed on to the replayer",
    ("conformance/schedule.py", "rate_pps"):
        "a schedule's offered load, one of the axes the search draws",
    ("harness/measure.py", "bucket_ms"):
        "throughput_timeline's bucket width is how a result is read",
    ("obs/top.py", "interval_ms"):
        "the top view's frame interval is a display setting",
}

_OPS = {ast.Add: operator.add, ast.Sub: operator.sub,
        ast.Mult: operator.mul, ast.Div: operator.truediv,
        ast.USub: operator.neg, ast.UAdd: operator.pos}


def _number(node: ast.AST) -> Optional[float]:
    """The value of a constant numeric expression, else None."""
    if isinstance(node, ast.Constant):
        value = node.value
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return value
    elif isinstance(node, ast.UnaryOp) and type(node.op) in _OPS:
        value = _number(node.operand)
        return None if value is None else _OPS[type(node.op)](value)
    elif isinstance(node, ast.BinOp) and type(node.op) in _OPS:
        left, right = _number(node.left), _number(node.right)
        if left is not None and right is not None:
            return _OPS[type(node.op)](left, right)
    return None


def _bindings(tree: ast.AST):
    """Every (name, value node) an assignment or a default binds."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value:
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                name = getattr(target, "id", getattr(target, "attr", None))
                if name:
                    yield name, node.value
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            positional = args.posonlyargs + args.args
            yield from zip(
                (a.arg for a in positional[len(positional)
                                           - len(args.defaults):]),
                args.defaults,
            )
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield arg.arg, default


def cost_literals() -> List[Tuple[str, str, int]]:
    """(module path, name, line) of each cost literal outside the table."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        if module == "costs.py":
            continue
        for name, value in _bindings(ast.parse(path.read_text())):
            if name.lower().endswith(SUFFIXES) and _number(value):
                found.append((module, name, value.lineno))
    return found


def test_no_cost_literal_outside_the_table():
    stray = ["%s:%d %s" % (module, line, name)
             for module, name, line in cost_literals()
             if (module, name) not in ALLOWED]
    assert stray == [], "move these into repro/costs.py: %s" % stray


def test_allowlist_is_not_stale():
    excused = {(module, name) for module, name, _line in cost_literals()}
    assert sorted(set(ALLOWED) - excused) == []


def test_the_table_imports_nothing_from_repro():
    tree = ast.parse((SRC / "costs.py").read_text())
    imported = [getattr(node, "module", None) or alias.name
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names]
    assert [name for name in imported if name.startswith("repro")] == []


# ------------------------------------------------------------------ docs


def _doc_rows() -> List[List[str]]:
    text = (ROOT / "docs" / "internals.md").read_text()
    section = text.split("\n## Cost table\n", 1)[1].split("\n## ", 1)[0]
    return [[cell.strip() for cell in line.strip().strip("|").split("|")]
            for line in section.splitlines() if line.startswith("|")]


def _ticked(cell: str) -> Optional[str]:
    match = re.fullmatch(r"`([^`]+)`", cell)
    return match.group(1) if match else None


def test_every_constant_is_in_the_docs_cost_table():
    documented = {_ticked(row[0]): row[1] for row in _doc_rows()
                  if len(row) > 1 and _ticked(row[0])}
    constants = {name: value for name, value in vars(costs).items()
                 if name.isupper() and isinstance(value, (int, float))}
    assert sorted(set(constants) - set(documented)) == []
    wrong = {name: (documented[name], value)
             for name, value in constants.items()
             if float(documented[name]) != value}
    assert wrong == {}


def test_every_nf_profile_is_in_the_docs_cost_table():
    rows = _doc_rows()
    header = next(row for row in rows if row[0] == "field")
    columns = [_ticked(cell) for cell in header[1:]]
    profiles = {name: value for name, value in vars(costs).items()
                if isinstance(value, costs.NFCostModel)}
    profiles["NFCostModel()"] = costs.NFCostModel()
    assert sorted(columns) == sorted(profiles)
    by_field = {_ticked(row[0]): row[1:] for row in rows
                if len(row) == len(header) and _ticked(row[0])}
    wrong = [
        (field.name, column)
        for field in dataclasses.fields(costs.NFCostModel)
        for column, cell in zip(columns, by_field.get(field.name, []))
        if float(cell) != getattr(profiles[column], field.name)
    ]
    missing = [field.name for field in dataclasses.fields(costs.NFCostModel)
               if field.name not in by_field]
    assert (missing, wrong) == ([], [])
