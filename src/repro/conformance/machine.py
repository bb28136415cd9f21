"""Hypothesis ``RuleBasedStateMachine`` drivers for interleaving search.

Where :func:`repro.conformance.runner.run_schedule` executes a *fixed*
schedule, the machines here let hypothesis choose the interleaving one
action at a time — inject a burst now, start an overlapping move now,
abort that copy now, let 3 ms of simulated time elapse — against a live
audited deployment. Shrinking then minimizes a failing action sequence
to the shortest interleaving that still breaks, which is exactly the
counterexample a guarantee bug needs.

Every action is simultaneously recorded into a
:class:`~repro.conformance.schedule.ScheduleSpec` (bursts-only traffic,
absolute action times, aborts relative to their operation's start), so
a failure can be persisted to the corpus and replayed through the same
``run_schedule`` entry point the matrix uses.
"""

from __future__ import annotations

from typing import List, Optional

from repro.flowspace.filter import Filter
from repro.harness.deployment import Deployment
from repro.harness.properties import check_loss_free
from repro.net.packet import reset_uid_counter
from repro.conformance.runner import (
    NF_FACTORIES,
    check_isolation,
    stop_share_handle,
)
from repro.conformance.schedule import (
    BURST_CLIENTS,
    PREFIX_POOL,
    BurstSpec,
    OpSpec,
    ScheduleSpec,
)

#: Cap on concurrently *requested* operations (in-flight + deferred):
#: enough to exercise admission races without unbounded queues.
MAX_PENDING_OPS = 3


def make_conformance_machine(
    nf: str = "monitor",
    guarantee: str = "lf",
    kinds: tuple = ("move", "copy", "share"),
    corpus_dir: Optional[str] = None,
    corpus_name: Optional[str] = None,
):
    """Build a ``RuleBasedStateMachine`` class for one NF × guarantee.

    ``guarantee`` is the move guarantee every generated move/copy uses
    (shares always run strong). Pass a clean guarantee ("lf", "lf+op",
    "op-strong") — the machine's teardown asserts *no* violation and
    ground-truth loss-freedom, so hypothesis searches for any
    interleaving that breaks the promise. On failure with ``corpus_dir``
    set, the (shrunk, since hypothesis replays the minimal example last)
    schedule is persisted as a corpus entry before the assertion fires.
    """
    from hypothesis import strategies as st
    from hypothesis.stateful import RuleBasedStateMachine, rule

    from repro.traffic.generator import tcp_flow

    factory = NF_FACTORIES[nf]

    class ConformanceMachine(RuleBasedStateMachine):
        def __init__(self) -> None:
            super().__init__()
            reset_uid_counter()
            self.dep = Deployment(audit=True)
            self.instances = []
            for index in range(2):
                inst = factory(self.dep.sim, "inst%d" % (index + 1))
                self.dep.add_nf(inst)
                self.instances.append(inst)
            self.dep.set_default_route("inst1")
            #: (OpSpec, handle, started_at_ms) for every launched op.
            self.ops: List[tuple] = []
            self.spec = ScheduleSpec(
                nf=nf, seed=0, n_flows=0, data_packets=0, ops=[], bursts=[]
            )
            self._burst_port = 40000

        # ------------------------------------------------------------ helpers

        @property
        def sim(self):
            return self.dep.sim

        def _pending(self) -> List[tuple]:
            return [
                entry for entry in self.ops
                if entry[1].done is None or not entry[1].done.triggered
            ]

        def _inject_flow(self, client: str, packets: int) -> None:
            from repro.flowspace.fivetuple import FiveTuple

            self._burst_port += 1
            flow = tcp_flow(
                FiveTuple(client, self._burst_port, "203.0.113.9", 80, 6),
                data_packets=max(0, packets - 1),
                bidirectional=False,
                close=False,
            )
            for blueprint in flow.packets[: max(1, packets)]:
                self.dep.inject(blueprint.build(created_at=self.sim.now))
            self.spec.bursts.append(BurstSpec(
                at_ms=self.sim.now, client=client, port=self._burst_port,
                packets=packets,
            ))

        # -------------------------------------------------------------- rules

        @rule(client=st.sampled_from(list(BURST_CLIENTS)),
              packets=st.integers(1, 4))
        def burst(self, client: str, packets: int) -> None:
            """Inject packets right now — racing whatever is in flight."""
            self._inject_flow(client, packets)

        @rule(prefix=st.sampled_from(list(PREFIX_POOL)),
              kind=st.sampled_from(list(kinds)),
              flip=st.booleans())
        def start_op(self, prefix: str, kind: str, flip: bool) -> None:
            """Start an operation over (possibly overlapping) flow space."""
            if len(self._pending()) >= MAX_PENDING_OPS:
                return
            src, dst = ("inst2", "inst1") if flip else ("inst1", "inst2")
            flt = Filter({"nw_src": prefix}, symmetric=True)
            ctrl = self.dep.controller
            if kind == "move":
                handle = ctrl.move(src, dst, flt, scope="per",
                                   guarantee=guarantee)
                op_spec = OpSpec(kind="move", at_ms=self.sim.now, src=src,
                                 dst=dst, prefix=prefix, guarantee=guarantee,
                                 scope="per")
            elif kind == "copy":
                handle = ctrl.copy(src, dst, flt, scope="multi")
                op_spec = OpSpec(kind="copy", at_ms=self.sim.now, src=src,
                                 dst=dst, prefix=prefix, scope="multi")
            else:
                handle = ctrl.share(["inst1", "inst2"], flt, scope="multi",
                                    consistency="strong")
                op_spec = OpSpec(kind="share", at_ms=self.sim.now,
                                 prefix=prefix, guarantee="strong",
                                 scope="multi")
            self.spec.ops.append(op_spec)
            self.ops.append((op_spec, handle, self.sim.now))

        @rule(index=st.integers(0, MAX_PENDING_OPS - 1))
        def abort_one(self, index: int) -> None:
            """Abort an in-flight move/copy mid-operation."""
            abortable = [
                entry for entry in self._pending()
                if entry[0].kind in ("move", "copy")
            ]
            if not abortable:
                return
            op_spec, handle, started = abortable[index % len(abortable)]
            if op_spec.abort_at_ms is not None:
                return
            handle.abort("machine abort")
            op_spec.abort_at_ms = self.sim.now - started

        @rule(index=st.integers(0, MAX_PENDING_OPS - 1))
        def stop_share(self, index: int) -> None:
            """Tear a share session down mid-run."""
            shares = [
                entry for entry in self._pending()
                if entry[0].kind == "share"
            ]
            if not shares:
                return
            op_spec, handle, started = shares[index % len(shares)]
            if op_spec.stop_at_ms is not None:
                return
            if stop_share_handle(handle):
                op_spec.stop_at_ms = self.sim.now - started

        @rule(dt=st.floats(0.25, 8.0, allow_nan=False,
                           allow_infinity=False))
        def advance(self, dt: float) -> None:
            """Let simulated time elapse — the interleaving knob."""
            self.sim.run(until=self.sim.now + dt)

        # ---------------------------------------------------------- invariant

        def teardown(self) -> None:
            try:
                self._drain()
                failures = self._verdicts()
            finally:
                # Never leak a half-run simulator between examples.
                self.dep = None
            if failures:
                if corpus_dir is not None:
                    self._persist(failures)
                raise AssertionError(
                    "conformance machine found a broken interleaving "
                    "(%s/%s): %s" % (nf, guarantee, "; ".join(failures))
                )

        def _drain(self) -> None:
            self.sim.run()
            for _ in range(len(self.ops) + 1):
                stopped = False
                for _op_spec, handle, _started in self.ops:
                    if stop_share_handle(handle):
                        stopped = True
                self.sim.run()
                if not stopped and not self._pending():
                    break

        def _verdicts(self) -> List[str]:
            obs = self.dep.obs
            failures = [
                violation.render()
                for violation in (
                    obs.violations() + check_isolation(obs.audit.registry)
                )
            ]
            ok, detail = check_loss_free(self.dep.switch, self.instances)
            if not ok:
                failures.append("loss-free ground truth: %s" % detail)
            return failures

        def _persist(self, failures: List[str]) -> None:
            from repro.conformance.corpus import save_entry
            from repro.conformance.runner import run_schedule

            # Re-run through the canonical entry point so the persisted
            # trace is the replayable one; hypothesis replays the shrunk
            # example last, so overwriting leaves the minimal schedule.
            result = run_schedule(self.spec)
            save_entry(
                corpus_dir,
                corpus_name or ("machine-%s-%s" % (nf, guarantee)),
                self.spec,
                result,
                expect="dirty",
                description=(
                    "shrunk interleaving found by the conformance "
                    "machine: " + "; ".join(failures[:3])
                ),
            )

    ConformanceMachine.__name__ = "ConformanceMachine_%s_%s" % (
        nf, guarantee.replace("+", "_").replace("-", "_")
    )
    return ConformanceMachine

