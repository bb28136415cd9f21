"""The metric tables of ``docs/observability.md`` are what runs publish.

A fixed sweep of observed runs — a move at every guarantee in every
single mode, one strict share, one chain move — is read back through
``obs.metrics.snapshot()`` and held against the two tables under
"Metric names": every published name has a row with exactly its label
keys, every row is published by some run (or is listed in
:data:`UNREACHED` with what it would take), and the *counted in* column
agrees with the source on who writes the count — a component's pull
collector (``publish``) or a guarded push.
"""

import os
import re

import pytest

from repro.harness import run_move_experiment
from repro.net.packet import reset_uid_counter
from tests import test_golden_operation_variants as variants

pytestmark = pytest.mark.obs

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)

MODES = {
    "classic": {},
    "faults": {"fault_plan": "seed=3,drop=0.05,dup=0.1"},
    "batching": {"batching": True},
    "offload": {"offload": True},
    "shards4": {"shards": 4},
}
GUARANTEES = ("ng", "lf", "lf+op", "op-strong")

#: Rows no run of the sweep publishes, and the situation each counts.
UNREACHED = {
    "sw.table_misses": "a packet no rule matches",
    "sw.packet_ins_dropped": "a packet-in with no controller attached",
    "sw.flowmod_batches": "a batched flow-mod (a batching share set-up)",
    "sw.flowmod_batch_size": "a batched flow-mod (a batching share set-up)",
    "sw.xfsm.dropped": "a machine with a ring capacity, overflowing",
    "sw.rpc_retries": "a fault plan that covers the switch channel",
    "chan.frame_dedup": "a duplicated batch frame (faults with batching)",
    "nf.events.abandoned": "an event lost on all eight attempts",
    "ctrl.events.gap_skipped": "such an abandoned event's successors",
    "ctrl.admission.deferred": "two operations over overlapping flow space",
    "ctrl.shard.handoff": "the same, homed on different shards",
    "ctrl.share.updates_skipped": "an instance dying during a strong share",
}


@pytest.fixture(scope="module")
def rows():
    """name -> (kind, required labels, optional labels, counted in)."""
    with open(os.path.join(ROOT, "docs", "observability.md")) as handle:
        text = handle.read()
    section = text[text.index("## Metric names"):]
    section = section[:section.index("\n## ", 1)]
    rows = {}
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) != 5 or cells[0] in ("name", "---"):
            continue
        names, kind, labels, counted_in, _meaning = cells
        optional = set(re.findall(r"\[`([a-z_]+)`\]", labels))
        required = set(re.findall(r"`([a-z_]+)`", labels)) - optional
        for name in re.findall(r"`([a-z_.]+)`", names):
            assert name not in rows, "two rows for %s" % name
            rows[name] = (kind, required, optional, counted_in)
    return rows


@pytest.fixture(scope="module")
def published():
    """name -> (kind, {label-key sets seen}) over the whole sweep."""
    deployments = []
    for kwargs in MODES.values():
        for guarantee in GUARANTEES:
            reset_uid_counter()
            deployments.append(run_move_experiment(
                guarantee=guarantee, observe=True, **kwargs
            ).deployment)
    deployments.append(variants._run_share("share/strict/host", True)[0])
    deployments.append(variants._run_chain("chain/lf", True)[0])
    seen = {}
    for dep in deployments:
        for name, inst in dep.obs.metrics.snapshot().items():
            _kind, keysets = seen.setdefault(name, (inst["kind"], set()))
            for series in inst["series"]:
                keysets.add(frozenset(
                    () if series == "_"
                    else (pair.split("=")[0] for pair in series.split(","))
                ))
    return seen


def test_every_published_series_has_its_row(rows, published):
    for name, (kind, keysets) in sorted(published.items()):
        assert name in rows, "%s is published but in no table" % name
        row_kind, required, optional, _counted_in = rows[name]
        assert kind == row_kind, name
        for keys in keysets:
            assert required <= keys <= required | optional, (
                "%s published with labels %s, documented as %s (+%s)"
                % (name, sorted(keys), sorted(required), sorted(optional))
            )


def test_every_row_is_published_or_says_why_not(rows, published):
    silent = {name for name in rows if not published.get(name, ("", ()))[1]}
    assert silent == set(UNREACHED), (
        "rows the sweep does not publish vs. UNREACHED: %s"
        % sorted(silent ^ set(UNREACHED))
    )


def test_counted_in_says_who_writes(rows):
    """A row naming an attribute is published by a collector and pushed
    nowhere; a ``pushed:`` row is the other way round."""
    source = ""
    for folder, _dirs, files in os.walk(os.path.join(ROOT, "src", "repro")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(folder, name)) as handle:
                    source += handle.read()
    for name, (kind, _req, _opt, counted_in) in sorted(rows.items()):
        quoted = re.escape('"%s"' % name)
        pulled = re.search(r"\.publish\(\s*" + quoted, source)
        pushed = re.search(
            r"\.%s\(\s*%s\s*\)\s*\.(inc|observe|bind)\(" % (kind, quoted),
            source,
        )
        if counted_in.startswith("pushed:"):
            assert pushed and not pulled, name
            assert (kind == "histogram") == (counted_in == "pushed: histogram")
        else:
            assert pulled and not pushed, name
            owner, attr = re.match(r"`(\w+)\.(\w+)`", counted_in).groups()
            assert re.search(
                r"class %s\b.*?self\.%s\b" % (owner, attr), source, re.S
            ), "%s: no %s.%s" % (name, owner, attr)
