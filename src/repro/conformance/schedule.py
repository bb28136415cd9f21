"""Replayable adversarial schedules and their hypothesis strategies.

A :class:`ScheduleSpec` is a complete, JSON-serializable description of
one conformance run: which bundled NF, how much background trace
traffic, which operations fire when (with optional mid-operation aborts
and share teardowns), which packet bursts race them, and whether faults
and batching are on. Because the simulator is deterministic, a spec
replays bit-for-bit — a shrunk counterexample saved to the corpus is a
permanent regression test, not a flaky anecdote.

Times are absolute simulated milliseconds except ``abort_at_ms`` and
``stop_at_ms``, which are relative to the *operation's own start* so a
shrinking pass can tighten an abort without re-deriving the timeline.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.controller.move import Guarantee
from repro.nfs.ids import IntrusionDetector
from repro.nfs.lb import LoadBalancer
from repro.nfs.monitor import AssetMonitor
from repro.nfs.nat import NetworkAddressTranslator
from repro.nfs.proxy import CachingProxy
from repro.nfs.redup import REDecoder, REEncoder

#: Every bundled NF a schedule may name (§7's modified NFs plus extras).
NF_FACTORIES: Dict[str, Callable[..., Any]] = {
    "monitor": AssetMonitor,
    "ids": IntrusionDetector,
    "nat": NetworkAddressTranslator,
    "proxy": CachingProxy,
    "lb": LoadBalancer,
    "re-encoder": REEncoder,
    "re-decoder": REDecoder,
}

#: Operation kinds a schedule may fire. ``splitmerge`` is the §2.2
#: baseline's migrate; the rest are the OpenNF northbound.
OP_KINDS = ("move", "copy", "share", "splitmerge")

#: Move guarantees the matrix exercises (northbound aliases).
MOVE_GUARANTEES = ("ng", "lf", "lf+op", "op-strong")

#: Flow-space prefixes drawn by the strategies: deliberately overlapping
#: (10.0.0.0/8 covers both /24s) so generated schedules hit admission.
PREFIX_POOL = ("10.0.0.0/8", "10.0.1.0/24", "10.0.2.0/24", "10.0.0.0/16")

#: Burst clients live inside the trace's local net so operation filters
#: match them; distinct last octets keep burst flows distinct.
BURST_CLIENTS = ("10.0.1.77", "10.0.1.88", "10.0.2.77")


@dataclass
class BurstSpec:
    """A packet burst injected mid-schedule (races get/put windows)."""

    at_ms: float
    client: str = "10.0.1.77"
    port: int = 40000
    packets: int = 3
    server: str = "203.0.113.9"


@dataclass
class OpSpec:
    """One scheduled northbound operation (or baseline migrate)."""

    kind: str = "move"
    #: Absolute start time; ``None`` means "half the base trace".
    at_ms: Optional[float] = None
    src: str = "inst1"
    dst: str = "inst2"
    prefix: str = "10.0.0.0/8"
    #: Move guarantee alias, or share consistency ("strong"/"strict").
    guarantee: str = "lf"
    scope: str = "per"
    #: Abort this many ms after the operation starts (None: never).
    abort_at_ms: Optional[float] = None
    #: Shares only: tear down this many ms after start (None: the
    #: runner stops the session once traffic has drained).
    stop_at_ms: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in OP_KINDS:
            raise ValueError("unknown op kind %r" % (self.kind,))
        if self.kind != "share":
            Guarantee.parse(self.guarantee)
        elif self.guarantee not in ("strong", "strict"):
            raise ValueError("unknown consistency %r" % (self.guarantee,))

    @property
    def expected_dirty(self) -> bool:
        """Does this op *lack* a loss-freedom promise by design?"""
        return self.kind == "splitmerge" or (
            self.kind == "move" and self.guarantee in ("ng", "none")
        )


@dataclass
class ChainOpSpec:
    """One scheduled chain-wide move over the bundled chain topology.

    The runner builds two instances per hop (``ids1``/``ids2``, ...),
    declares the chain over them, and the operation migrates every hop
    to its second instance tail-to-head. ``hop_guarantees`` overrides
    the guarantee for individual hops (e.g. a deliberately-dirty NG
    middle hop).
    """

    kind: str = "chain"
    #: Ordered hop NF kinds (keys of the runner's ``NF_FACTORIES``).
    hops: List[str] = field(default_factory=lambda: ["ids", "nat", "proxy"])
    #: Absolute start time; ``None`` means "half the base trace".
    at_ms: Optional[float] = None
    prefix: str = "10.0.0.0/8"
    guarantee: str = "lf"
    hop_guarantees: Dict[str, str] = field(default_factory=dict)
    #: Abort this many ms after the operation starts (None: never).
    abort_at_ms: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind != "chain":
            raise ValueError("ChainOpSpec.kind must be 'chain'")
        if not self.hops:
            raise ValueError("a chain op needs at least one hop")
        for hop in self.hops:
            _check_nf(hop)
        for level in [self.guarantee, *self.hop_guarantees.values()]:
            Guarantee.parse(level)

    @property
    def expected_dirty(self) -> bool:
        levels = [
            self.hop_guarantees.get(hop, self.guarantee)
            for hop in self.hops
        ]
        return any(level in ("ng", "none") for level in levels)


@dataclass
class ScheduleSpec:
    """One complete, deterministic conformance scenario."""

    nf: str = "monitor"
    seed: int = 7
    #: Base background trace (0 flows = bursts only, exact replay).
    n_flows: int = 8
    data_packets: int = 4
    rate_pps: float = 4000.0
    n_instances: int = 2
    #: Fault-plan spec string (``repro.faults.FaultPlan.from_spec``).
    faults: Optional[str] = None
    batching: bool = False
    #: Controller shards (serialized message loops) the schedule runs
    #: against.
    shards: int = 1
    #: Data-plane offload: LF / LF+OP moves buffer the window in
    #: switch-local XFSMs instead of eventing packets to the controller.
    offload: bool = False
    ops: List[OpSpec] = field(default_factory=list)
    bursts: List[BurstSpec] = field(default_factory=list)
    #: Chain-wide operations. When present, the runner swaps the classic
    #: ``inst1..instN`` topology for the chain's per-hop instance pairs.
    chains: List[ChainOpSpec] = field(default_factory=list)

    def __post_init__(self) -> None:
        _check_nf(self.nf)

    @property
    def expected_dirty(self) -> bool:
        return any(op.expected_dirty for op in self.ops) or any(
            chain.expected_dirty for chain in self.chains
        )

    def label(self) -> str:
        axes = [self.nf]
        axes.extend("%s:%s" % (op.kind, op.guarantee) for op in self.ops)
        axes.extend(
            "chain[%s]:%s" % ("-".join(chain.hops), chain.guarantee)
            for chain in self.chains
        )
        if self.faults:
            axes.append("faults")
        if self.batching:
            axes.append("batching")
        if self.shards > 1:
            axes.append("shards%d" % self.shards)
        if self.offload:
            axes.append("offload")
        return "/".join(axes)

    # -------------------------------------------------------------- round-trip

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ScheduleSpec":
        """Build a spec from outside input: an unknown key, NF, op kind
        or guarantee is a ``ValueError`` naming it, before anything runs."""
        data = dict(data)
        for key, child in (("ops", OpSpec), ("bursts", BurstSpec),
                           ("chains", ChainOpSpec)):
            data[key] = [_build(child, item) for item in data.get(key, [])]
        return _build(cls, data)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ScheduleSpec":
        return cls.from_dict(json.loads(text))


def _check_nf(name: str) -> None:
    if name not in NF_FACTORIES:
        raise ValueError("unknown NF %r (one of: %s)"
                         % (name, ", ".join(NF_FACTORIES)))


def _build(cls, data: dict):
    unknown = sorted(set(data) - {spec.name for spec in fields(cls)})
    if unknown:
        raise ValueError("unknown %s key(s): %s"
                         % (cls.__name__, ", ".join(unknown)))
    return cls(**data)


# ---------------------------------------------------------------- strategies
# (Each imports hypothesis itself: the spec model has no hard dep.)


def op_specs(
    kinds: Sequence[str] = ("move", "copy", "share"),
    guarantees: Sequence[str] = MOVE_GUARANTEES,
    instances: Sequence[str] = ("inst1", "inst2"),
    abortable: bool = True,
):
    """Strategy for one :class:`OpSpec` over small adversarial ranges."""
    from hypothesis import strategies as st

    @st.composite
    def build(draw) -> OpSpec:
        kind = draw(st.sampled_from(list(kinds)))
        src = draw(st.sampled_from(list(instances)))
        dst = draw(st.sampled_from([i for i in instances if i != src]))
        guarantee = draw(st.sampled_from(list(guarantees)))
        if kind == "share":
            guarantee = "strong"
        scope = "multi" if kind in ("copy", "share") else "per"
        window = st.floats(0.5, 20.0, allow_nan=False, allow_infinity=False)
        abort_at = stop_at = None
        if abortable and kind in ("move", "copy") and draw(st.booleans()):
            abort_at = draw(window)
        # (Drawn for shares only: every other kind's draws are unchanged.)
        if kind == "share" and draw(st.booleans()):
            stop_at = draw(window)
        return OpSpec(
            kind=kind,
            at_ms=draw(
                st.floats(0.5, 30.0, allow_nan=False, allow_infinity=False)
            ),
            src=src,
            dst=dst,
            prefix=draw(st.sampled_from(list(PREFIX_POOL))),
            guarantee=guarantee,
            scope=scope,
            abort_at_ms=abort_at,
            stop_at_ms=stop_at,
        )

    return build()


def burst_specs():
    """Strategy for one racing packet burst."""
    from hypothesis import strategies as st

    @st.composite
    def build(draw) -> BurstSpec:
        return BurstSpec(
            at_ms=draw(
                st.floats(0.5, 40.0, allow_nan=False, allow_infinity=False)
            ),
            client=draw(st.sampled_from(list(BURST_CLIENTS))),
            port=draw(st.integers(40000, 40007)),
            packets=draw(st.integers(1, 5)),
        )

    return build()


def schedule_specs(
    nfs: Sequence[str] = ("monitor",),
    kinds: Sequence[str] = ("move", "copy", "share"),
    guarantees: Sequence[str] = ("lf", "lf+op", "op-strong"),
    max_ops: int = 2,
    max_bursts: int = 3,
    faults: Sequence[Optional[str]] = (None,),
    abortable: bool = True,
):
    """Strategy for a full :class:`ScheduleSpec`.

    Defaults generate *clean-expected* schedules (loss-free guarantees
    only); pass ``kinds=("splitmerge",)`` or ``guarantees=("ng",)`` to
    hunt for the baselines' defects instead.
    """
    from hypothesis import strategies as st

    @st.composite
    def build(draw) -> ScheduleSpec:
        return ScheduleSpec(
            nf=draw(st.sampled_from(list(nfs))),
            seed=draw(st.integers(0, 500)),
            n_flows=draw(st.integers(4, 12)),
            data_packets=draw(st.integers(2, 5)),
            rate_pps=draw(st.sampled_from([2000.0, 4000.0, 6000.0])),
            n_instances=2,
            faults=draw(st.sampled_from(list(faults))),
            batching=draw(st.booleans()),
            ops=draw(
                st.lists(
                    op_specs(kinds=kinds, guarantees=guarantees,
                             abortable=abortable),
                    min_size=1,
                    max_size=max_ops,
                )
            ),
            bursts=draw(
                st.lists(burst_specs(), min_size=0, max_size=max_bursts)
            ),
        )

    return build()
