"""Seeded control-plane fault injection.

See :mod:`repro.faults.plan` for the model. Typical use::

    from repro.faults import FaultPlan, ChannelFaults

    plan = FaultPlan(seed=3, channels=[ChannelFaults("ctrl->*", drop_p=0.05,
                                                     exclude=("ctrl->sw",))])
    dep = Deployment(faults=plan)

or, from a compact spec string (the form the CLI's ``--faults`` flag
takes)::

    plan = FaultPlan.from_spec("drop=0.05,seed=3,crash=inst2@55")
"""

from repro.faults.plan import (
    ChannelFaults,
    ChannelInjector,
    CrashSpec,
    FaultPlan,
    Verdict,
)

__all__ = [
    "ChannelFaults",
    "ChannelInjector",
    "CrashSpec",
    "FaultPlan",
    "Verdict",
]
