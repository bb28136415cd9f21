"""Every option earns its keep: no defaulted parameter nobody passes.

Each independently settable value doubles what the conformance matrix,
the goldens and the ledger have to cover, so a defaulted parameter of a
public constructor (or of a northbound controller method) must be passed
by at least one call site in ``src/``, ``tests/``, ``benchmarks/`` or
``examples/``. One that never is becomes a module constant — or, when
it is a deliberate seam, a line in :data:`ALLOWED` saying why it stays.

The walk is purely syntactic (dataclass-generated constructors are not
walked). A call passes a parameter when it names it as a keyword or
fills its position. A call is matched to a class by the callee's
terminal name (``Deployment(...)``, ``net.Link(...)``, ``cls(...)``
inside the class); ``super().__init__(...)`` / ``Base.__init__(self,
...)`` count for the base class; a subclass without its own
``__init__`` forwards to its base. A ``**kwargs`` the enclosing
function received is credited with the keywords any call passes to that
function; any other ``**mapping`` with every string key some file puts
in a dict literal, a ``dict(...)`` call, a ``.setdefault("key", ...)``
or a ``name["key"] = ...`` (how the mode bundles reach ``Deployment``).
"""

from __future__ import annotations

import ast
import functools
import pathlib
from typing import Dict, List, NamedTuple, Optional, Set, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
CALL_SITE_TREES = ("src", "tests", "benchmarks", "examples")

#: The northbound API (§5) plus the chain calls built on it.
NORTHBOUND = ("move", "copy", "share", "notify", "move_chain", "scale_chain")

#: (owner or "*", parameter) -> why a never-passed default stays.
ALLOWED: Dict[Tuple[str, str], str] = {
    ("BufferUntilRelease", "ring_capacity"):
        "reserved for the failure-model item: every packet-path buffer "
        "gets a bound and an overflow policy",
    ("*", "costs"):
        "every NF takes its calibrated cost model the same way, so an NF "
        "factory is uniformly (sim, name, costs=); AssetMonitor's is the "
        "one tests and bench_scenario_overload swap",
}

Option = Tuple[str, str]


class Signature(NamedTuple):
    owner: str
    positional: List[str]  # without ``self``
    defaulted: Set[str]


def _signature(owner: str, fn: ast.FunctionDef) -> Signature:
    positional = [a.arg for a in fn.args.posonlyargs + fn.args.args][1:]
    n_defaults = len(fn.args.defaults)
    defaulted = set(positional[len(positional) - n_defaults:]) \
        if n_defaults else set()
    defaulted.update(
        a.arg for a, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
        if default is not None
    )
    return Signature(owner, positional, defaulted)


def _terminal(node: ast.AST) -> str:
    return getattr(node, "id", getattr(node, "attr", ""))


class Census:
    """Declared options of ``src/repro`` and the options any call passes."""

    def __init__(self) -> None:
        self.constructors: Dict[str, Signature] = {}
        self.methods: Dict[str, Signature] = {}
        self.bases: Dict[str, str] = {}  # class -> first base, by name
        #: (enclosing class, enclosing function, call) for every call.
        self.calls: List[Tuple[Optional[str], Optional[ast.FunctionDef],
                               ast.Call]] = []
        self.mapping_keys: Set[str] = set()
        for tree_name in CALL_SITE_TREES:
            for path in sorted((ROOT / tree_name).rglob("*.py")):
                module = ast.parse(path.read_text(), filename=str(path))
                if tree_name == "src":
                    self._declare(module)
                self._visit(module, None, None)
        #: Keywords any call passes to a function of this terminal name:
        #: what a ``**kwargs`` that function forwards can carry.
        self.forwarded: Dict[str, Set[str]] = {}
        for _cls, _fn, call in self.calls:
            self.forwarded.setdefault(_terminal(call.func), set()).update(
                kw.arg for kw in call.keywords if kw.arg
            )

    def _declare(self, module: ast.Module) -> None:
        for node in ast.walk(module):
            if not isinstance(node, ast.ClassDef):
                continue
            self.bases[node.name] = _terminal(node.bases[0]) \
                if node.bases else ""
            if node.name.startswith("_"):
                continue
            for stmt in node.body:
                if not isinstance(stmt, ast.FunctionDef):
                    continue
                if stmt.name == "__init__":
                    self.constructors[node.name] = _signature(node.name, stmt)
                elif node.name == "OpenNFController" \
                        and stmt.name in NORTHBOUND:
                    self.methods[stmt.name] = _signature(
                        "%s.%s" % (node.name, stmt.name), stmt
                    )

    def _visit(self, node: ast.AST, cls, fn) -> None:
        if isinstance(node, ast.ClassDef):
            cls = node.name
        elif isinstance(node, ast.FunctionDef):
            fn = node
        elif isinstance(node, ast.Call):
            self.calls.append((cls, fn, node))
            name = _terminal(node.func)
            if name == "dict":
                self.mapping_keys.update(
                    kw.arg for kw in node.keywords if kw.arg
                )
            elif name == "setdefault" and node.args:
                self._add_key(node.args[0])
        elif isinstance(node, ast.Dict):
            for key in node.keys:
                self._add_key(key)
        elif isinstance(node, ast.Subscript) \
                and isinstance(node.ctx, ast.Store):
            self._add_key(node.slice)
        for child in ast.iter_child_nodes(node):
            self._visit(child, cls, fn)

    def _add_key(self, node: Optional[ast.AST]) -> None:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            self.mapping_keys.add(node.value)

    def _constructor_of(self, name: str) -> Optional[Signature]:
        """Nearest ``__init__`` up the by-name inheritance chain."""
        seen: Set[str] = set()
        while name in self.bases and name not in seen:
            seen.add(name)
            if name in self.constructors:
                return self.constructors[name]
            name = self.bases[name]
        return None

    def declared(self) -> Set[Option]:
        signatures = list(self.constructors.values()) \
            + list(self.methods.values())
        return {(sig.owner, name) for sig in signatures
                for name in sig.defaulted}

    def passed(self) -> Set[Option]:
        passed: Set[Option] = set()
        for cls, fn, call in self.calls:
            func = call.func
            name = _terminal(func)
            skip = 0  # leading positionals that are not parameters
            if name == "__init__" and isinstance(func, ast.Attribute):
                if isinstance(func.value, ast.Call) \
                        and _terminal(func.value.func) == "super":
                    target = self._constructor_of(self.bases.get(cls or "", ""))
                else:  # Base.__init__(self, ...)
                    target = self._constructor_of(_terminal(func.value))
                    skip = 1
            elif name in self.methods and isinstance(func, ast.Attribute):
                target = self.methods[name]
            else:
                target = self._constructor_of(
                    cls if name == "cls" and cls else name
                )
            if target is None:
                continue
            names = set(target.positional[:max(0, len(call.args) - skip)])
            for kw in call.keywords:
                if kw.arg:
                    names.add(kw.arg)
                elif fn is not None and fn.args.kwarg is not None \
                        and _terminal(kw.value) == fn.args.kwarg.arg:
                    names |= self.forwarded.get(fn.name, set())
                else:
                    names |= self.mapping_keys
            passed.update((target.owner, name) for name in names)
        return passed


@functools.lru_cache(maxsize=None)
def _unused_options() -> Set[Option]:
    census = Census()
    return census.declared() - census.passed()


def _allowed(option: Option) -> bool:
    return option in ALLOWED or ("*", option[1]) in ALLOWED


def test_every_defaulted_option_is_passed_somewhere():
    unused = sorted(
        option for option in _unused_options() if not _allowed(option)
    )
    assert not unused, (
        "defaulted parameters no call site passes (make each a module "
        "constant, or justify it in ALLOWED):\n  "
        + "\n  ".join("%s(%s=)" % option for option in unused)
    )


def test_allowlist_is_not_stale():
    """An ALLOWED line must still excuse at least one unpassed option."""
    unused = _unused_options()
    stale = [
        (owner, param) for owner, param in ALLOWED
        if not any(param == p and owner in ("*", o) for o, p in unused)
    ]
    assert not stale, "drop from ALLOWED: %r" % (stale,)


# ------------------------------------------------- the ledger's tracing tables


def _ledger_adapter():
    """``benchmarks/ledger/adapter.py``, executed from source: read-only
    (no import machinery, so not even a ``__pycache__`` entry appears)."""
    import types

    path = ROOT / "benchmarks" / "ledger" / "adapter.py"
    module = types.ModuleType("ledger_adapter")
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def test_every_ledger_tracing_target_resolves():
    """The ledger wraps functions of ``src/`` by dotted name and only
    *reports* a name that no longer resolves — in ``make ledger-pinned``,
    a five-workload run. A refactor that drops or renames a traced
    function fails here instead, in well under a second."""
    adapter = _ledger_adapter()
    targets = [target for target, _metric in adapter.TARGETS]
    for target, _metric in adapter.NF_CLASSES:
        targets.append(target)
        targets.extend(
            "%s.%s" % (target, handler)
            for handler in ("process_packet",) + adapter.NF_STATE_HANDLERS
        )
    targets.extend(target for target, _kw, _pos in adapter.CALLBACK_ARGS)
    targets += [adapter.SCHEDULE, adapter._PROCESS_STEP]
    missing = [t for t in targets if adapter.resolve(t) is None]
    assert not missing, (
        "benchmarks/ledger/adapter.py names functions that no longer "
        "resolve (keep them until a benchmark PR drops the rows):\n  "
        + "\n  ".join(missing)
    )


# ------------------------------------------------------ the obs-guard ratchet

#: ``obs.enabled`` mentions under ``src/repro`` (ROADMAP item 1's grep
#: gate counts them). An upper bound: lower it when a guard goes; a new
#: guard needs a histogram, a span / record, or a per-operation counter
#: behind it (``docs/observability.md``, "Who counts").
OBS_ENABLED_GUARDS = 24


def test_obs_guards_only_go_down():
    """A long-lived component counts in a plain attribute and the
    registry pulls it: the lazy re-bind machinery stays gone and the
    ``obs.enabled`` forks cannot creep back."""
    guards, rebinds = 0, []
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        text = path.read_text()
        guards += text.count("obs.enabled")
        rebinds += [
            "%s: %s" % (path.relative_to(ROOT), name)
            for name in ("_obs_cache_for", "_bind_telemetry")
            if name in text
        ]
    assert not rebinds, "re-bind machinery is back:\n  " + "\n  ".join(rebinds)
    assert guards <= OBS_ENABLED_GUARDS, (
        "%d obs.enabled guards under src/repro (bound %d): count in a "
        "plain attribute and publish it from the component's collector"
        % (guards, OBS_ENABLED_GUARDS)
    )
