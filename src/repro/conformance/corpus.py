"""Persisted counterexamples: a replayable conformance corpus.

A corpus entry is a pair of files under ``tests/corpus/``:

* ``<name>.schedule.json`` — the (shrunk) :class:`ScheduleSpec` plus
  metadata: what verdict the schedule is *expected* to produce
  (``clean`` or ``dirty``), which check kinds a dirty run must cite,
  and a human description of why the entry exists;
* ``<name>.trace.jsonl`` — the run's full span/record trace, replayable
  offline through :func:`repro.obs.audit_entries` (and ``repro audit``).

Replaying an entry re-executes the schedule *live* through
:func:`~repro.conformance.runner.run_schedule` and independently
re-judges the *persisted* trace, so a regression shows up whether the
behaviour changed or the judges did.

:func:`hunt_counterexample` uses ``hypothesis.find`` to search the
schedule strategy space for a minimal (shrunk) schedule demonstrating a
baseline defect — the kit's proof that Split/Merge is non-conformant is
produced this way, not hand-written.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import List, Optional

from repro.obs import load_trace_entries, write_trace
from repro.conformance.runner import (
    ConformanceResult,
    judge_trace,
    run_schedule,
)
from repro.conformance.schedule import ScheduleSpec, schedule_specs

#: Metadata schema version for ``.schedule.json`` files.
FORMAT_VERSION = 1


@dataclass
class CorpusEntry:
    """One on-disk counterexample (or clean regression pin)."""

    name: str
    spec: ScheduleSpec
    #: "dirty": the schedule must produce violations citing (at least)
    #: ``checks``. "clean": it must stay verdict-clean forever.
    expect: str = "dirty"
    checks: List[str] = field(default_factory=list)
    description: str = ""
    schedule_path: Optional[str] = None
    trace_path: Optional[str] = None

    def to_dict(self) -> dict:
        return {
            "format": FORMAT_VERSION,
            "name": self.name,
            "expect": self.expect,
            "checks": list(self.checks),
            "description": self.description,
            "schedule": self.spec.to_dict(),
        }


def save_entry(
    directory: str,
    name: str,
    spec: ScheduleSpec,
    result: ConformanceResult,
    expect: Optional[str] = None,
    description: str = "",
) -> CorpusEntry:
    """Persist a schedule + its run as ``<name>.schedule.json`` (+trace).

    ``expect`` defaults to the verdict the run actually produced, so a
    saved counterexample self-describes what a replay must reproduce.
    """
    os.makedirs(directory, exist_ok=True)
    if expect is None:
        expect = "clean" if result.clean else "dirty"
    entry = CorpusEntry(
        name=name,
        spec=spec,
        expect=expect,
        checks=result.check_kinds(),
        description=description,
        schedule_path=os.path.join(directory, name + ".schedule.json"),
        trace_path=os.path.join(directory, name + ".trace.jsonl"),
    )
    with open(entry.schedule_path, "w") as handle:
        json.dump(entry.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    write_trace(result.entries, entry.trace_path)
    return entry


def load_corpus(directory: str) -> List[CorpusEntry]:
    """Load every ``*.schedule.json`` entry in ``directory`` (sorted)."""
    entries: List[CorpusEntry] = []
    if not os.path.isdir(directory):
        return entries
    for filename in sorted(os.listdir(directory)):
        if not filename.endswith(".schedule.json"):
            continue
        path = os.path.join(directory, filename)
        with open(path) as handle:
            data = json.load(handle)
        name = data.get("name") or filename[: -len(".schedule.json")]
        trace_path = os.path.join(directory, name + ".trace.jsonl")
        entries.append(CorpusEntry(
            name=name,
            spec=ScheduleSpec.from_dict(data["schedule"]),
            expect=data.get("expect", "dirty"),
            checks=list(data.get("checks", [])),
            description=data.get("description", ""),
            schedule_path=path,
            trace_path=trace_path if os.path.exists(trace_path) else None,
        ))
    return entries


@dataclass
class ReplayOutcome:
    """What replaying one corpus entry found."""

    entry: CorpusEntry
    result: ConformanceResult
    problems: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


def replay_entry(entry: CorpusEntry) -> ReplayOutcome:
    """Re-run a corpus entry live and re-judge its persisted trace.

    Every check a trace supports — the auditors' and isolation — must
    come out the same from the persisted trace as from the live run.
    """
    result = run_schedule(entry.spec)
    problems: List[str] = []
    verdict = "clean" if result.clean else "dirty"
    if verdict != entry.expect:
        problems.append(
            "live replay is %s but the entry expects %s (checks=%s)"
            % (verdict, entry.expect, ",".join(result.check_kinds()))
        )
    if entry.expect == "dirty":
        missing = sorted(set(entry.checks) - set(result.check_kinds()))
        if missing:
            problems.append(
                "live replay no longer cites check(s): %s"
                % ",".join(missing)
            )
    if entry.trace_path is not None:
        entries, _skipped = load_trace_entries(entry.trace_path)
        replayed = sorted({v.check for v in judge_trace(entries)})
        # (Completeness is read off the live NFs; no trace shows it.)
        live = sorted({v.check for v in result.violations} - {"completeness"})
        if replayed != live:
            problems.append(
                "persisted trace audits to %s but live run audits to %s"
                % (replayed or ["clean"], live or ["clean"])
            )
    return ReplayOutcome(entry=entry, result=result, problems=problems)


# ------------------------------------------------------------------- hunting

#: Known defect targets: strategy kwargs + the checks a find must cite.
HUNT_TARGETS = {
    # The §2.2 baseline drops in-flight packets and reorders the flush
    # race; any loss-free-citing schedule demonstrates non-conformance.
    "splitmerge": dict(
        strategy=dict(kinds=("splitmerge",), guarantees=("ng",),
                      abortable=False, max_ops=1),
        checks=("loss-free",),
    ),
    # An OpenNF move with no guarantee (NG) may drop in-flight packets.
    "ng": dict(
        strategy=dict(kinds=("move",), guarantees=("ng",),
                      abortable=False, max_ops=1),
        checks=("loss-free",),
    ),
}


def hunt_counterexample(
    target: str = "splitmerge",
    nf: str = "monitor",
    max_examples: int = 120,
):
    """Search + shrink a minimal schedule demonstrating a known defect.

    Returns ``(spec, result)`` for the shrunk counterexample, or raises
    ``hypothesis.errors.NoSuchExample`` if none is found within the
    budget (which would itself be news: the defect went away).
    """
    from hypothesis import HealthCheck, find, settings

    config = HUNT_TARGETS[target]
    required = set(config["checks"])

    def demonstrates_defect(spec: ScheduleSpec) -> bool:
        result = run_schedule(spec)
        return required.issubset(result.check_kinds())

    spec = find(
        schedule_specs(nfs=(nf,), **config["strategy"]),
        demonstrates_defect,
        settings=settings(
            max_examples=max_examples,
            deadline=None,
            derandomize=True,
            database=None,
            suppress_health_check=[
                HealthCheck.too_slow,
                HealthCheck.data_too_large,
                HealthCheck.filter_too_much,
            ],
        ),
    )
    return spec, run_schedule(spec)
