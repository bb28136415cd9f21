"""Every operation kind is rows of named steps walked by one driver.

``repro.controller.operation`` holds the only constructor, ``_run`` and
abort ladder there are; a kind declares rows (``*_PLANS``) and one
``_step_*`` generator per step name. These tests keep every table
total, every step name bound, ``docs/`` in step with the rows, the
driver single (an AST guard over ``src/repro/controller/`` and the
Split/Merge baseline), and ``done`` firing on every path of every kind.
"""

import ast
import inspect
import itertools
import os
import re

import pytest

from repro import Deployment, Guarantee
from repro.baselines import splitmerge
from repro.baselines.splitmerge import SPLITMERGE_PLANS, SplitMergeMigrate
from repro.controller import chain, copy, move, share
from repro.controller.chain import CHAIN_PLANS, ChainOperation
from repro.controller.copy import COPY_PLANS, CopyOperation
from repro.controller.move import MOVE_PLANS, MoveOperation
from repro.controller.share import SHARE_PLANS, ShareOperation
from repro.flowspace import Filter, FiveTuple
from repro.harness import LOCAL_NET_FILTER, build_multi_instance_deployment
from repro.nfs.monitor import AssetMonitor
from tests.conftest import make_packet

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
DOCS = os.path.join(ROOT, "docs")

#: kind -> (its class, its module, its rows, the key space they must
#: cover, what a ``%s`` in one of its phase names stands for in docs).
KINDS = {
    "move": (MoveOperation, move, MOVE_PLANS,
             itertools.product(Guarantee, (False, True)), "<scope>"),
    "copy": (CopyOperation, copy, COPY_PLANS, ["copy"], "<scope>"),
    "share": (ShareOperation, share, SHARE_PLANS,
              itertools.product(("strong", "strict"),
                                ("set-up", "teardown")), ""),
    "chain": (ChainOperation, chain, CHAIN_PLANS, ["move", "scale"],
              "<hop>"),
    "splitmerge-migrate": (SplitMergeMigrate, splitmerge, SPLITMERGE_PLANS,
                           ["migrate"], ""),
}


#: A phase opened in code: ``self._phase("name", ...)`` (the driver's,
#: which honours the row's ``unmarked``) or ``self.trace.phase("name"``.
PHASE_RE = re.compile(r'(?:self\._phase|trace\.phase)\(\s*"([^"]+)"')


def _read(name):
    with open(os.path.join(DOCS, name)) as handle:
        return handle.read()


def _flatten(steps):
    """(step names, wrapper-phase names) of one row."""
    names, wrappers = [], []
    for step in steps:
        if isinstance(step, tuple):
            wrappers.append(step[0])
            inner_names, inner_wrappers = _flatten(step[1:])
            names += inner_names
            wrappers += inner_wrappers
        else:
            names.append(step)
    return names, wrappers


def _render(steps):
    return " ".join(
        "`%s`" % step if isinstance(step, str)
        else "`%s`[ %s ]" % (step[0], _render(step[1:]))
        for step in steps
    )


def _cells(key):
    """A row key as the leading cells of its ``docs/internals.md`` row."""
    parts = key if isinstance(key, tuple) else (key,)
    return " | ".join(
        ("on" if part else "off") if isinstance(part, bool)
        else "`%s`" % getattr(part, "value", part)
        for part in parts
    )


@pytest.mark.parametrize("kind", KINDS)
def test_table_is_total_over_its_key_space(kind):
    _cls, _module, plans, keys, _placeholder = KINDS[kind]
    assert set(plans) == set(keys)


def test_move_still_resolves_guarantee_and_offload():
    source = inspect.getsource(MoveOperation.__init__)
    assert "MOVE_PLANS[guarantee, controller.offload]" in source


@pytest.mark.parametrize("kind", KINDS)
def test_every_step_resolves_to_one_generator_method(kind):
    cls, _module, plans, _keys, _placeholder = KINDS[kind]
    assert cls.kind == kind
    used = set()
    for plan in plans.values():
        names, wrappers = _flatten(plan.steps)
        for name in names:
            method = vars(cls)["_step_" + name.replace("-", "_")]
            assert inspect.isgeneratorfunction(method), name
        assert set(plan.marks) <= set(wrappers)
        used.update(names)
    defined = {
        name[len("_step_"):].replace("_", "-")
        for name in vars(cls) if name.startswith("_step_")
    }
    assert defined == used  # no orphan step either


@pytest.mark.parametrize("kind", KINDS)
def test_every_phase_a_step_can_open_is_documented(kind):
    _cls, module, plans, _keys, placeholder = KINDS[kind]
    source = inspect.getsource(module)
    phases = set(PHASE_RE.findall(source))
    for plan in plans.values():
        phases.update(_flatten(plan.steps)[1])
        assert set(plan.unmarked) <= phases
    documented = _read("observability.md")
    for phase in phases:
        name = "%s.%s" % (kind, phase.replace("%s", placeholder))
        assert name in documented, name


def test_the_phases_the_doc_test_reads_are_really_there():
    """The regex above is the only link between code and doc: make sure
    it still sees the phases each kind is known to open."""
    def found(module):
        return set(PHASE_RE.findall(inspect.getsource(module)))

    assert {"cleanup", "state-transfer", "sw-release", "redirect"} \
        <= found(move)
    assert found(copy) == {"scope.%s"}
    assert found(share) == {"update"}  # ``sync`` is the rows' wrapper
    assert found(chain) == {"hop-%s"}
    assert found(splitmerge) == set()  # report marks only, no phase spans


@pytest.mark.parametrize("kind", KINDS)
def test_internals_doc_lists_the_rows_verbatim(kind):
    _cls, _module, plans, _keys, _placeholder = KINDS[kind]
    documented = _read("internals.md")
    for key, plan in plans.items():
        row = "| %s | %s |" % (_cells(key), _render(plan.steps))
        assert row in documented, row


# ------------------------------------------------------------ one driver

GUARDED = sorted(
    os.path.join(ROOT, "src", "repro", "controller", name)
    for name in os.listdir(os.path.join(ROOT, "src", "repro", "controller"))
    if name.endswith(".py")
) + [os.path.join(ROOT, "src", "repro", "baselines", "splitmerge.py")]

#: Handlers of the recoverable failures other than the driver's ladder:
#: each *continues* its loop or its unwind instead of ending the
#: operation, which is why it is not the ladder.
CONTINUING_HANDLERS = {
    "MoveOperation._recover":
        "best-effort recovery: the surviving side vanished too, note it "
        "and finish the abort",
    "ShareOperation._worker":
        "per-packet skip: one update is dropped, the group keeps "
        "serializing",
    "ShareOperation._step_disarm_events":
        "teardown notes an instance it could not disarm and goes on to "
        "restore the forwarding entries",
}
RECOVERABLE_NAMES = {
    "RECOVERABLE", "NFCrash", "SouthboundError", "SouthboundTimeout",
    "OperationAborted", "TableFullError",
}


def _sites():
    """(owner, node) for every call / except handler in the guarded
    files, ``owner`` being ``Class.method`` (or the bare function)."""
    for path in GUARDED:
        with open(path) as handle:
            tree = ast.parse(handle.read(), filename=path)
        for cls in [n for n in tree.body if isinstance(n, ast.ClassDef)]:
            for fn in [n for n in cls.body if isinstance(n, ast.FunctionDef)]:
                for node in ast.walk(fn):
                    yield "%s.%s" % (cls.name, fn.name), node
        for fn in [n for n in tree.body if isinstance(n, ast.FunctionDef)]:
            for node in ast.walk(fn):
                yield fn.name, node


def _calls(attr):
    return [
        (owner, node) for owner, node in _sites()
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", "")) == attr
    ]


def test_one_constructor():
    """One trace, one live report, one main process — all in
    ``Operation.__init__``."""
    traces = [owner for owner, node in _calls("operation")
              if getattr(node.func.value, "attr", "") == "obs"]
    assert traces == ["Operation.__init__"]
    reports = sorted(owner for owner, _node in _calls("OperationReport"))
    # (The second is the report of an operation that never went live:
    # aborted while still deferred.)
    assert reports == ["DeferredOperation.abort", "Operation.__init__"]
    spawns = sorted(
        (owner, ast.unparse(node.args[0])) for owner, node in _calls("spawn")
    )
    # (A share also spawns one short-lived worker per busy group.)
    assert spawns == [
        ("Operation.__init__", "self._run()"),
        ("ShareOperation._enqueue", "self._worker(key)"),
    ]


def test_one_abort_ladder():
    handlers = sorted(
        owner for owner, node in _sites()
        if isinstance(node, ast.ExceptHandler) and node.type is not None
        and RECOVERABLE_NAMES & {
            getattr(n, "id", getattr(n, "attr", ""))
            for n in ast.walk(node.type)
        }
    )
    assert handlers == sorted(["Operation._run", *CONTINUING_HANDLERS])


def test_the_driver_lives_in_operation_py_only():
    driver = ("_walk", "_phase", "_plan", "_run", "_abort_target")
    defined = {}
    for path in GUARDED:
        with open(path) as handle:
            for node in ast.walk(ast.parse(handle.read())):
                if isinstance(node, ast.FunctionDef):
                    defined.setdefault(node.name, []).append(
                        os.path.basename(path)
                    )
    assert {name: defined[name] for name in driver} == {
        name: ["operation.py"] for name in driver
    }
    # The four scope dispatchers went into ``NFClient.get/put/delete``.
    assert "_scope_calls" not in defined
    assert not {"_get", "_put"} & set(vars(ShareOperation))


# --------------------------------------------------- ``done`` always fires

def _boom(self, parent):
    raise ValueError("boom")
    yield  # pragma: no cover - makes it a generator, as every step is


def _two_monitors():
    dep, _nfs = build_multi_instance_deployment(2)
    for index in range(4):
        flow = FiveTuple("10.0.1.%d" % (5 + index), 4000 + index,
                         "203.0.113.9", 80)
        dep.inject(make_packet(flow, flags=("SYN",)))
    dep.sim.run()
    return dep


def _start_move(dep):
    return dep.controller.move("inst1", "inst2", LOCAL_NET_FILTER,
                               guarantee="op")


def _start_copy(dep):
    return dep.controller.copy("inst1", "inst2", LOCAL_NET_FILTER, "per")


def _start_share(consistency):
    def start(dep):
        return dep.controller.share(
            ["inst1", "inst2"], LOCAL_NET_FILTER, consistency=consistency
        )
    return start


def _start_splitmerge(dep):
    return SplitMergeMigrate(dep.controller, "inst1", "inst2",
                             LOCAL_NET_FILTER)


def _chain_deployment():
    dep = Deployment()
    hops = [("a", ("a1", "a2")), ("b", ("b1", "b2"))]
    for _hop, names in hops:
        for name in names:
            dep.add_nf(AssetMonitor(dep.sim, name))
    dep.the_chain = dep.chain("pair", hops, flt=LOCAL_NET_FILTER)
    return dep


def _start_chain(dep):
    return dep.controller.move_chain(
        dep.the_chain, LOCAL_NET_FILTER, {"a": "a2", "b": "b2"}
    )


#: id -> (deployment, start, class, the step that blows up). Each step
#: runs after the kind has registered interests or moved something, so
#: the ``finally`` has work to do.
INTERNAL_ERRORS = {
    "move": (_two_monitors, _start_move, MoveOperation,
             "_step_two_phase_update"),
    "copy": (_two_monitors, _start_copy, CopyOperation, "_step_copy_scopes"),
    "share-strong": (_two_monitors, _start_share("strong"), ShareOperation,
                     "_step_initial_sync"),
    "share-strict": (_two_monitors, _start_share("strict"), ShareOperation,
                     "_step_initial_sync"),
    "chain": (_chain_deployment, _start_chain, ChainOperation,
              "_step_sync_links"),
    "splitmerge": (_two_monitors, _start_splitmerge, SplitMergeMigrate,
                   "_step_flush"),
}


@pytest.mark.parametrize("case", INTERNAL_ERRORS)
def test_internal_error_fails_done_and_releases_everything(case, monkeypatch):
    build, start, cls, step = INTERNAL_ERRORS[case]
    monkeypatch.setattr(cls, step, _boom)
    dep = build()
    ctrl = dep.controller
    op = start(dep)
    # An overlapping operation: queued behind ``op`` by admission (the
    # Split/Merge baseline runs outside admission, so nothing queues).
    behind = ctrl.move(
        sorted(dep.nfs)[0], sorted(dep.nfs)[1],
        Filter({"nw_src": "10.0.1.0/24"}, symmetric=True), guarantee="ng",
    )
    assert (behind.kind == "deferred") == (case != "splitmerge")
    dep.sim.run()

    assert op.done.triggered and not op.done.ok
    assert isinstance(op.done.exception, ValueError)
    assert op.report.aborted.startswith("internal error: ValueError")
    assert op.report.finished_at >= op.report.started_at
    assert ctrl._event_interests == [] and ctrl._packet_interests == []
    assert behind.done.triggered and behind.done.value.aborted is None
    assert all(not shard._admission for shard in ctrl.replicas)
    if isinstance(op, ShareOperation):
        # Nobody is left waiting on a session that never went live.
        assert op.started.triggered and not op.started.ok
