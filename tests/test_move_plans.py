"""The move-variant table: total, resolvable, and documented.

``MOVE_PLANS`` is the only place a ``(guarantee, offload)`` pair turns
into steps; these tests keep it total, keep every step name bound to a
``MoveOperation._step_*`` generator, and keep ``docs/`` in step with it.
"""

import inspect
import itertools
import os
import re

from repro import Guarantee
from repro.controller import move as move_module
from repro.controller.move import MOVE_PLANS, MoveOperation

DOCS = os.path.join(os.path.dirname(__file__), os.pardir, "docs")


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


def test_table_is_total_over_guarantee_and_offload():
    assert set(MOVE_PLANS) == set(
        itertools.product(Guarantee, (False, True))
    )


def test_every_step_resolves_to_one_generator_method():
    used = set()
    for plan in MOVE_PLANS.values():
        names, _wrappers = _flatten(plan.steps)
        for name in names:
            method = getattr(MoveOperation, "_step_" + name.replace("-", "_"))
            assert inspect.isgeneratorfunction(method), name
        used.update(names)
    defined = {
        name[len("_step_"):].replace("_", "-")
        for name in vars(MoveOperation) if name.startswith("_step_")
    }
    assert defined == used  # no orphan step either


def test_every_phase_a_step_can_open_is_documented():
    source = inspect.getsource(move_module)
    phases = set(re.findall(r'[._]phase\(\s*"([^"]+)"', source))
    for plan in MOVE_PLANS.values():
        phases.update(_flatten(plan.steps)[1])
        assert set(plan.unmarked) <= phases
    assert {"cleanup", "state-transfer", "sw-release", "redirect"} <= phases
    documented = _read("observability.md")
    for phase in phases:
        assert "move." + phase.replace("%s", "<scope>") in documented, phase


def test_internals_doc_lists_the_rows_verbatim():
    documented = _read("internals.md")
    for (guarantee, offload), plan in MOVE_PLANS.items():
        row = "| `%s` | %s | %s |" % (
            guarantee.value, "on" if offload else "off", _render(plan.steps)
        )
        assert row in documented, row
