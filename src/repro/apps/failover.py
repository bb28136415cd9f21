"""Fast failure recovery (Figure 9 of the paper).

Maintains a hot standby for each primary NF with an *eventually
consistent* copy of its per-flow and multi-flow state. Rather than
re-copying on every packet, the application subscribes (``notify``) to
the packets whose state updates matter for the detections — TCP SYN and
RST packets, and HTTP requests from local clients — and copies the
affected flow's state when one is processed. On failure, forwarding is
flipped to the standby.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.flowspace.filter import Filter
from repro.net.flowtable import MID_PRIORITY
from repro.nf.events import PacketEvent
from repro.sim.core import Event


#: Source prefix of the local clients whose HTTP requests trigger
#: standby updates (Figure 9's ``10.0.0.0/8``).
LOCAL_PREFIX = "10.0.0.0/8"


class FastFailureRecovery:
    """The Figure 9 control application."""

    def __init__(self, controller) -> None:
        self.controller = controller
        self.sim = controller.sim
        #: primary name -> standby name
        self.standbys: Dict[str, str] = {}
        self.updates_triggered = 0
        self.recoveries = 0
        #: primary name -> [(interest handle, filter)] for the three
        #: notify subscriptions; removed on failover so neither the
        #: interests nor the NF-side event rules leak.
        self._subscriptions: Dict[str, List[Tuple[int, Filter]]] = {}

    def init_standby(self, norm: Any, stby: Any, warm_start: bool = True) -> Event:
        """Register ``stby`` for ``norm`` and subscribe to key packets."""
        norm_name = self.controller.client(norm).name
        stby_name = self.controller.client(stby).name
        self.standbys[norm_name] = stby_name
        done = self.sim.event("standby-ready")

        def run():
            if warm_start:
                warm = self.controller.copy(
                    norm_name, stby_name, Filter.wildcard(), scope="per+multi"
                )
                yield warm.done
            # notify(): TCP SYNs, RSTs, and local-client HTTP requests.
            subscriptions = self._subscriptions.setdefault(norm_name, [])
            for flt in (
                Filter({"nw_proto": 6, "tcp_flags": "SYN"}),
                Filter({"nw_proto": 6, "tcp_flags": "RST"}),
                Filter({"nw_src": LOCAL_PREFIX, "nw_proto": 6,
                        "tp_dst": 80}),
            ):
                handle = self.controller.notify(
                    flt, norm_name, True, self._update_standby
                )
                subscriptions.append((handle, flt))
            done.trigger()

        self.sim.spawn(run(), name="init-standby")
        return done

    def _update_standby(self, event: PacketEvent) -> None:
        """Figure 9's ``updateStandby``: copy the event flow's state."""
        norm_name = event.nf_name
        stby_name = self.standbys.get(norm_name)
        if stby_name is None:
            return
        self.updates_triggered += 1
        flow_filter = Filter.for_flow(event.packet.five_tuple, symmetric=True)
        self.controller.copy(norm_name, stby_name, flow_filter, scope="per")
        # Keep the host-granularity counters fresh as well.
        host_filter = Filter(
            {"nw_src": event.packet.five_tuple.src_ip}, symmetric=True
        )
        self.controller.copy(norm_name, stby_name, host_filter, scope="multi")

    def _unsubscribe(self, norm_name: str) -> None:
        """Remove the controller interests and NF-side event rules that
        :meth:`init_standby` created for one primary."""
        subscriptions = self._subscriptions.pop(norm_name, None)
        if not subscriptions:
            return
        client = self.controller.client(norm_name)
        for handle, flt in subscriptions:
            self.controller.remove_interest(handle)
            if not client.nf.failed:
                client.disable_events(flt)

    def recover(self, norm: Any, flt: Optional[Filter] = None) -> Event:
        """Fail over: reroute ``norm``'s traffic to its standby.

        Also drops the dead primary's notify subscriptions — events can
        no longer arrive from it, and keeping the interests (and, were
        it still alive, its event rules) would leak per recovery.
        """
        norm_name = self.controller.client(norm).name
        stby_name = self.standbys[norm_name]
        self.recoveries += 1
        self._unsubscribe(norm_name)
        return self.controller.switch_client.install(
            flt or Filter.wildcard(),
            [self.controller.port_of(stby_name)],
            MID_PRIORITY,
        )
