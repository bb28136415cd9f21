"""Deterministic, seed-driven control-plane fault plans.

The paper's control plane runs over TCP (§7), but TCP only hides loss
from the *application* while the connection lives; a congested or
partitioned control network still manifests as delayed, duplicated
(after retransmit races), or never-delivered control messages and as
NF crashes. A :class:`FaultPlan` describes such an imperfect control
network explicitly so experiments can replay it bit-for-bit:

* per-channel message **drop** probability, **duplication** probability,
  and **delay spikes** (probability + magnitude), drawn from independent
  per-channel RNG streams derived from one root seed
  (:func:`repro.sim.rng.derive_rng`), so adding a channel never perturbs
  another channel's draws;
* **partition windows** — ``[start_ms, end_ms)`` intervals during which
  every message on matching channels is dropped;
* **NF crash schedules** — crash at an absolute simulated time, or on
  the *n*-th southbound RPC delivered to the instance (extending the
  existing :class:`~repro.nf.base.NFCrash` failure path).

Channel rules match channel *names* (``ctrl->inst1``, ``inst1->ctrl``,
``ctrl->sw`` …) with ``fnmatch``-style patterns, so one rule can cover
"every NF-facing channel" while leaving the switch channel pristine.

A plan is inert until installed: :meth:`FaultPlan.injector_for` returns
``None`` for unmatched channels and
:class:`~repro.net.channel.ControlChannel` takes the no-faults fast path
whenever no injector is attached — with no plan installed there is zero
behavior change, which the determinism regression suite pins down.
"""

from __future__ import annotations

import fnmatch
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.sim.rng import derive_rng


@dataclass
class ChannelFaults:
    """Fault parameters applied to channels matching ``pattern``."""

    pattern: str = "*"
    #: Probability each message is silently dropped.
    drop_p: float = 0.0
    #: Probability each delivered message is delivered twice.
    dup_p: float = 0.0
    #: Probability a delivered message suffers an extra delay spike.
    delay_p: float = 0.0
    #: Magnitude of a delay spike (uniform in (0, delay_ms]).
    delay_ms: float = 0.0
    #: ``[start_ms, end_ms)`` windows during which everything is dropped.
    partitions: List[Tuple[float, float]] = field(default_factory=list)
    #: Patterns that carve exceptions out of ``pattern`` (e.g. keep the
    #: switch channel clean while faulting every other ctrl channel).
    exclude: Tuple[str, ...] = ()

    def matches(self, channel_name: str) -> bool:
        if any(fnmatch.fnmatchcase(channel_name, pat) for pat in self.exclude):
            return False
        return fnmatch.fnmatchcase(channel_name, self.pattern)

    def validate(self) -> None:
        for name in ("drop_p", "dup_p", "delay_p"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError("%s=%r outside [0, 1]" % (name, value))
        if self.delay_ms < 0:
            raise ValueError("delay_ms must be >= 0")
        for start, end in self.partitions:
            if end < start:
                raise ValueError(
                    "partition window (%r, %r) ends before it starts"
                    % (start, end)
                )


@dataclass
class CrashSpec:
    """Kill one NF instance at a time or on its n-th southbound RPC."""

    nf_name: str
    at_ms: Optional[float] = None
    on_nth_rpc: Optional[int] = None
    reason: str = "injected crash"

    def validate(self) -> None:
        if (self.at_ms is None) == (self.on_nth_rpc is None):
            raise ValueError(
                "CrashSpec needs exactly one of at_ms / on_nth_rpc"
            )
        if self.on_nth_rpc is not None and self.on_nth_rpc < 1:
            raise ValueError("on_nth_rpc counts from 1")


class Verdict:
    """Outcome of consulting a plan for one message."""

    __slots__ = ("deliver", "copies", "extra_delay_ms")

    def __init__(self, deliver: bool = True, copies: int = 1,
                 extra_delay_ms: float = 0.0) -> None:
        self.deliver = deliver
        self.copies = copies
        self.extra_delay_ms = extra_delay_ms


#: Shared "nothing happens" verdict for the common no-fault draw.
CLEAN = Verdict()


class ChannelInjector:
    """Per-channel fault state: matched rules + a dedicated RNG stream."""

    def __init__(self, channel_name: str, rules: List[ChannelFaults],
                 seed: int) -> None:
        self.channel_name = channel_name
        self.rules = rules
        self.rng = derive_rng(seed, "faults:%s" % channel_name)
        self.dropped = 0
        self.duplicated = 0
        self.delayed = 0

    def on_send(self, now: float) -> Verdict:
        """Judge one message; one rng draw per configured hazard."""
        for rule in self.rules:
            for start, end in rule.partitions:
                if start <= now < end:
                    self.dropped += 1
                    return Verdict(deliver=False)
        copies = 1
        extra_delay = 0.0
        for rule in self.rules:
            if rule.drop_p and self.rng.random() < rule.drop_p:
                self.dropped += 1
                return Verdict(deliver=False)
            if rule.dup_p and self.rng.random() < rule.dup_p:
                copies += 1
            if rule.delay_p and self.rng.random() < rule.delay_p:
                extra_delay += rule.delay_ms * self.rng.random()
        if copies == 1 and extra_delay == 0.0:
            return CLEAN
        if copies > 1:
            self.duplicated += copies - 1
        if extra_delay > 0.0:
            self.delayed += 1
        return Verdict(deliver=True, copies=copies,
                       extra_delay_ms=extra_delay)


class FaultPlan:
    """A complete, seeded description of control-plane misbehavior."""

    def __init__(
        self,
        seed: int = 0,
        channels: Optional[List[ChannelFaults]] = None,
        crashes: Optional[List[CrashSpec]] = None,
    ) -> None:
        self.seed = seed
        self.channels = list(channels or [])
        self.crashes = list(crashes or [])
        for rule in self.channels:
            rule.validate()
        for crash in self.crashes:
            crash.validate()
        #: Injectors handed out, for post-run accounting.
        self.injectors: Dict[str, ChannelInjector] = {}

    # ------------------------------------------------------------- installing

    def injector_for(self, channel_name: str) -> Optional[ChannelInjector]:
        """The injector for ``channel_name``, or None if no rule matches."""
        if channel_name in self.injectors:
            return self.injectors[channel_name]
        rules = [r for r in self.channels if r.matches(channel_name)]
        if not rules:
            return None
        injector = ChannelInjector(channel_name, rules, self.seed)
        self.injectors[channel_name] = injector
        return injector

    def crashes_for(self, nf_name: str) -> List[CrashSpec]:
        return [c for c in self.crashes if c.nf_name == nf_name]

    # ------------------------------------------------------------- accounting

    @property
    def messages_dropped(self) -> int:
        return sum(i.dropped for i in self.injectors.values())

    @property
    def messages_duplicated(self) -> int:
        return sum(i.duplicated for i in self.injectors.values())

    @property
    def messages_delayed(self) -> int:
        return sum(i.delayed for i in self.injectors.values())

    def summary(self) -> str:
        return (
            "faults[seed=%d]: %d dropped, %d duplicated, %d delayed "
            "across %d channels"
            % (
                self.seed,
                self.messages_dropped,
                self.messages_duplicated,
                self.messages_delayed,
                len(self.injectors),
            )
        )

    # ------------------------------------------------------------ construction

    #: Channels covered by the default spec: every NF-facing control
    #: channel (``ctrl->instN``, ``instN->ctrl``) but not the switch
    #: channel. The reliability layer covers NF RPCs, NF events and —
    #: once the switch channel is named — switch RPCs, but packet-outs
    #: are fire-and-forget: one dropped there is a lost packet.
    NF_CHANNEL_PATTERNS = ("ctrl->*", "*->ctrl")
    SWITCH_CHANNELS = ("ctrl->sw", "sw->ctrl")

    @classmethod
    def from_spec(cls, spec: str) -> "FaultPlan":
        """Parse a compact ``key=value,...`` spec (the CLI's ``--faults``).

        Recognized keys::

            seed=42            root seed (default 0)
            drop=0.05          message drop probability
            dup=0.01           duplication probability
            delay=0.02         delay-spike probability
            delay_ms=15        delay-spike magnitude
            channels=ctrl->*   ';'-separated channel patterns
                               (default: NF channels, not the switch)
            partition=10:40    drop window in ms (repeatable via ';')
            crash=inst2@55     kill inst2 at t=55 ms
            crash=inst2#7      kill inst2 on its 7th southbound RPC

        Example: ``drop=0.05,seed=3,channels=ctrl->inst*;inst*->ctrl``.
        (``ctrl->*;*->ctrl`` also faults the switch channel: operations
        still finish or abort cleanly, but a dropped packet-out is not
        resent, so loss-freedom is not covered there.)
        """
        seed = 0
        drop = dup = delay_p = 0.0
        delay_ms = 0.0
        patterns: Optional[List[str]] = None
        partitions: List[Tuple[float, float]] = []
        crashes: List[CrashSpec] = []
        for part in filter(None, (p.strip() for p in spec.split(","))):
            if "=" not in part:
                raise ValueError("fault spec entry %r is not key=value" % part)
            key, value = part.split("=", 1)
            key = key.strip()
            value = value.strip()
            if key == "seed":
                seed = int(value)
            elif key == "drop":
                drop = float(value)
            elif key == "dup":
                dup = float(value)
            elif key == "delay":
                delay_p = float(value)
            elif key == "delay_ms":
                delay_ms = float(value)
            elif key == "channels":
                patterns = [v for v in value.split(";") if v]
            elif key == "partition":
                for window in filter(None, value.split(";")):
                    start, _, end = window.partition(":")
                    partitions.append((float(start), float(end)))
            elif key == "crash":
                if "@" in value:
                    name, _, when = value.partition("@")
                    crashes.append(CrashSpec(name, at_ms=float(when)))
                elif "#" in value:
                    name, _, nth = value.partition("#")
                    crashes.append(CrashSpec(name, on_nth_rpc=int(nth)))
                else:
                    raise ValueError(
                        "crash=%r needs nf@time_ms or nf#nth_rpc" % value
                    )
            else:
                raise ValueError("unknown fault spec key %r" % key)
        if delay_p and not delay_ms:
            delay_ms = 10.0  # a spike probability with no magnitude is a no-op
        exclude: Tuple[str, ...] = ()
        if patterns is None:
            patterns = list(cls.NF_CHANNEL_PATTERNS)
            exclude = cls.SWITCH_CHANNELS
        rules = [
            ChannelFaults(
                pattern=pattern,
                drop_p=drop,
                dup_p=dup,
                delay_p=delay_p,
                delay_ms=delay_ms,
                partitions=list(partitions),
                exclude=exclude,
            )
            for pattern in patterns
        ]
        active = [r for r in rules if (r.drop_p or r.dup_p or r.delay_p
                                       or r.partitions)]
        return cls(seed=seed, channels=active, crashes=crashes)
