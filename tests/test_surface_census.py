"""Every public name serves traffic: no module-level surface only tests reach.

The paper's contribution is the control plane its workloads exercise, so
a public module-level function or class of ``src/repro`` must be used by
code in ``src/``, ``benchmarks/`` or ``examples/`` — not only by its own
unit test. One that is not gets deleted, or, when it is a deliberate
reference, a line in :data:`ALLOWED` saying why it stays.

A use is any reference to the name (``name``, ``module.name``,
``obj.name``) outside the name's own definition, and any
``"repro.module:name"`` string (how the ledger names what it traces);
import lines and ``__all__`` entries are not uses. A name its own module
uses from another definition counts as reached: the auditors
``Observability`` builds, the records a module's functions return. The
walk matches by name alone, so a definition that shares its name with
an unrelated attribute passes: the census catches surface that no code
names at all, not every dead path.
"""

from __future__ import annotations

import ast
import functools
import pathlib
import re
from typing import Dict, Set, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
USE_TREES = ("src", "benchmarks", "examples")

#: ``"repro.module:name"`` (optionally ``.attr``) in a string literal.
DOTTED_TARGET = re.compile(r"^repro(?:\.\w+)+:(\w+)")

_PROTOCOL = (
    "the §7 wire vocabulary: the reference encoding that "
    "Request.size(rid) is pinned against (tests/test_southbound.py, "
    "tests/test_protocol.py) — sizing a message never encodes one"
)

#: "repro.module:name" -> why a name only tests reach stays.
ALLOWED: Dict[str, str] = {
    "repro.nf.protocol:get_request": _PROTOCOL,
    "repro.nf.protocol:put_request": _PROTOCOL,
    "repro.nf.protocol:delete_request": _PROTOCOL,
    "repro.nf.protocol:events_request": _PROTOCOL,
    "repro.nf.protocol:response": _PROTOCOL,
    "repro.nf.protocol:with_request_id": _PROTOCOL,
    "repro.nf.protocol:message_size": _PROTOCOL,
    "repro.net.topology:TwoTierTopology":
        "Fig. 4's multi-switch shape, where sw is the spine: the "
        "documented entry point for spine/leaf layouts (docs/api.md)",
    "repro.conformance.runner:spec_for_chain_cell":
        "the documented builder of the canonical chain conformance cell "
        "(docs/api.md); the chain mode matrix runs through it",
    "repro.nfs.ids.logs:write_conn_log":
        "writes §8.4's conn.log, the IDS output docs/nfs.md documents",
    "repro.traffic.generator:ftp_session":
        "the FTP flows §5.1.2's data-channel example needs; no trace "
        "mix carries FTP yet, so only the IDS FTP tests replay it",
}

Definition = Tuple[str, str]  # ("repro.module", name)


def _module_name(path: pathlib.Path) -> str:
    parts = path.relative_to(ROOT / "src").with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


class _Uses(ast.NodeVisitor):
    """Names referenced in one file, each with the top-level definition
    it sits in (``None`` at module level)."""

    def __init__(self, sink: Dict[str, Set[Tuple[str, str]]], where: str):
        self.sink = sink
        self.where = where
        self.owner = ""

    def visit_Module(self, node: ast.Module) -> None:
        for stmt in node.body:
            self.owner = getattr(stmt, "name", "") if isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ) else ""
            self.visit(stmt)

    def _use(self, name: str) -> None:
        self.sink.setdefault(name, set()).add((self.where, self.owner))

    def visit_Import(self, node) -> None:
        pass

    visit_ImportFrom = visit_Import

    def visit_Assign(self, node: ast.Assign) -> None:
        if any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        self._use(node.id)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self._use(node.attr)
        self.generic_visit(node)

    def visit_Constant(self, node: ast.Constant) -> None:
        if isinstance(node.value, str):
            match = DOTTED_TARGET.match(node.value)
            if match:
                self._use(match.group(1))


@functools.lru_cache(maxsize=None)
def _unreached() -> Set[Definition]:
    defined: Set[Definition] = set()
    uses: Dict[str, Set[Tuple[str, str]]] = {}
    for tree in USE_TREES:
        for path in sorted((ROOT / tree).rglob("*.py")):
            module = ast.parse(path.read_text(), filename=str(path))
            where = str(path.relative_to(ROOT))
            if tree == "src":
                where = _module_name(path)
                defined.update(
                    (where, node.name) for node in module.body
                    if isinstance(node, (ast.FunctionDef,
                                         ast.AsyncFunctionDef,
                                         ast.ClassDef))
                    and not node.name.startswith("_")
                )
            _Uses(uses, where).visit(module)
    return {
        (module, name) for module, name in defined
        if not uses.get(name, set()) - {(module, name)}
    }


def test_every_public_name_is_used_outside_its_tests():
    unreached = sorted(
        "%s:%s" % definition for definition in _unreached()
        if "%s:%s" % definition not in ALLOWED
    )
    assert not unreached, (
        "public names no src/, benchmarks/ or examples/ code uses (delete "
        "them, or justify each in ALLOWED):\n  " + "\n  ".join(unreached)
    )


def test_allowlist_is_not_stale():
    """An ALLOWED line must still excuse a name nothing else uses."""
    unreached = {"%s:%s" % definition for definition in _unreached()}
    stale = sorted(set(ALLOWED) - unreached)
    assert not stale, "drop from ALLOWED: %r" % (stale,)
