"""Load-balanced network monitoring (Figure 8 of the paper).

Assigns local prefixes to IDS/monitor instances and, when a prefix is
reassigned to a different instance, runs ``movePrefix``:

1. ``copy(old, new, {nw_src: prefix}, MULTI)`` — scan counters are
   copied (not moved) because connections may exist between one
   external host and hosts in several local subnets;
2. ``move(old, new, {nw_src: prefix}, PER, LOSSFREE)`` — per-flow state
   moves loss-free (order-preservation is unnecessary: reordering only
   delays scan detection, which this application tolerates);
3. thereafter, multi-flow state is kept **eventually consistent** by
   re-copying in both directions on a timer (the paper uses 60 s).
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.costs import RECOPY_INTERVAL_MS
from repro.flowspace.filter import Filter
from repro.net.flowtable import LOW_PRIORITY
from repro.sim.core import Event


class LoadBalancedMonitoring:
    """The Figure 8 control application."""

    def __init__(
        self,
        controller,
        recopy_interval_ms: float = RECOPY_INTERVAL_MS,
    ) -> None:
        self.controller = controller
        self.sim = controller.sim
        self.recopy_interval_ms = recopy_interval_ms
        #: prefix -> instance name
        self.assignment: Dict[str, str] = {}
        self._recopy_pairs: List[tuple] = []
        self._recopy_running = False
        self._stopped = False
        self.moves_performed = 0

    # ------------------------------------------------------------- assignment

    def assign(self, prefix: str, inst: Any) -> Event:
        """Initial (or direct) assignment: install the forwarding rule."""
        name = self.controller.client(inst).name
        self.assignment[prefix] = name
        return self.controller.switch_client.install(
            Filter({"nw_src": prefix}, symmetric=True),
            [self.controller.port_of(name)],
            LOW_PRIORITY,
        )

    def move_prefix(self, prefix: str, old: Any, new: Any) -> Event:
        """Figure 8's ``movePrefix``: copy multi-flow, move per-flow."""
        old_name = self.controller.client(old).name
        new_name = self.controller.client(new).name
        flt = Filter({"nw_src": prefix}, symmetric=True)
        done = self.sim.event("move-prefix-done")

        def run():
            copy_op = self.controller.copy(old_name, new_name, flt, scope="multi")
            yield copy_op.done
            move_op = self.controller.move(
                old_name, new_name, flt, scope="per", guarantee="loss-free"
            )
            report = yield move_op.done
            self.assignment[prefix] = new_name
            self.moves_performed += 1
            self._recopy_pairs.append((old_name, new_name, flt))
            self._ensure_recopy_loop()
            done.trigger(report)

        self.sim.spawn(run(), name="move-prefix")
        return done

    # -------------------------------------------------- eventual consistency

    def _ensure_recopy_loop(self) -> None:
        if self._recopy_running:
            return
        self._recopy_running = True
        self.sim.spawn(self._recopy_loop(), name="recopy-loop")

    def _recopy_loop(self):
        while not self._stopped:
            yield self.recopy_interval_ms
            if self._stopped:
                return
            for old_name, new_name, flt in list(self._recopy_pairs):
                forward = self.controller.copy(old_name, new_name, flt, "multi")
                yield forward.done
                backward = self.controller.copy(new_name, old_name, flt, "multi")
                yield backward.done

    def stop(self) -> None:
        """Stop the background re-copy loop (end of experiment)."""
        self._stopped = True
