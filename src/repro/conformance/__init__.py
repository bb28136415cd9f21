"""Verified-migration conformance kit.

A property-based battery over the §5.1 guarantees (loss-freedom, order
preservation, state conservation) and the stronger migration-correctness
properties of "Correctness of Flow Migration Across Network Function
Instances" (Patowary et al.): completeness, isolation of concurrent
migrations, and no phantom state. The kit does not judge; it *generates*
adversarial schedules — packets racing get/put, overlapping
move/copy/share over intersecting flow space, mid-operation aborts,
faults and batching on or off — runs them through the real
:class:`~repro.harness.Deployment` + ``Operation`` handle with the
auditors of :mod:`repro.obs.audit` listening, and sets their verdict
beside the ground-truth oracle's.

Layout:

* :mod:`repro.conformance.schedule` — the replayable ``ScheduleSpec``
  model plus hypothesis strategies for generating adversarial ones;
* :mod:`repro.conformance.runner` — executes a schedule against a real
  deployment, the NF × guarantee matrix driver, and the two checks the
  auditors cannot make (isolation off the operation registry,
  completeness off the live NFs);
* :mod:`repro.conformance.machine` — hypothesis
  ``RuleBasedStateMachine`` drivers with shrinking;
* :mod:`repro.conformance.corpus` — persists shrunk counterexamples as
  ``.schedule.json`` + ``.trace.jsonl`` corpus files and replays them.

Entry points: ``run_schedule(spec)`` for one schedule,
``run_cell(cell)`` / ``matrix_cells()`` for the full matrix, and the
``repro conform`` CLI subcommand outside pytest.
"""

from repro.conformance.corpus import (
    CorpusEntry,
    hunt_counterexample,
    load_corpus,
    replay_entry,
    save_entry,
)
from repro.conformance.machine import (
    make_conformance_machine,
)
from repro.conformance.runner import (
    GUARANTEE_LEVELS,
    NF_FACTORIES,
    Cell,
    ConformanceResult,
    check_trace_properties,
    matrix_cells,
    parse_filter_repr,
    run_cell,
    run_schedule,
    spec_for_cell,
    spec_for_chain_cell,
)
from repro.conformance.schedule import (
    BurstSpec,
    ChainOpSpec,
    OpSpec,
    ScheduleSpec,
    schedule_specs,
)

__all__ = [
    "BurstSpec",
    "Cell",
    "ChainOpSpec",
    "ConformanceResult",
    "CorpusEntry",
    "GUARANTEE_LEVELS",
    "NF_FACTORIES",
    "OpSpec",
    "ScheduleSpec",
    "check_trace_properties",
    "hunt_counterexample",
    "load_corpus",
    "make_conformance_machine",
    "matrix_cells",
    "parse_filter_repr",
    "replay_entry",
    "run_cell",
    "run_schedule",
    "save_entry",
    "schedule_specs",
    "spec_for_cell",
    "spec_for_chain_cell",
]
