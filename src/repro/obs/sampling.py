"""Deterministic trace sampling: cheap heads, guaranteed tails.

Full tracing of a soak-length run drowns in its own telemetry; tracing
nothing flies blind exactly when an operation misbehaves. The
:class:`TraceSampler` splits the difference with the standard
head+tail policy, made deterministic for the reproduction:

* **Head sampling** keeps a seeded pseudo-random fraction of *clean*
  operations (and, for trace-id-less per-packet records, of flows).
  The decision is a pure function of ``(seed, key)`` via CRC-32 — two
  runs of the same scenario sample identically, and the decision can
  be recomputed at any time, so the flow-decision memo can be dropped
  under memory pressure without changing behavior.
* **Tail retention** always keeps the complete trace of an operation
  that turned out interesting: it **aborted**, it was **slow**
  (root-span duration at least ``slow_ms``), or an auditor **flagged**
  it (the :class:`~repro.obs.audit.AuditPipeline` violation hook calls
  :meth:`flag`). To decide at operation end, the sampler buffers each
  in-flight operation's spans/records and flushes or discards the
  whole set when the ``op.end`` record arrives — the root span is
  exported *before* ``op.end``, so the duration is known in time.

The sampler is an exporter *wrapper*: it takes the stored exporter's
place in the tracer's routes, beside the auditors and the flight
recorder, which always see the full stream (auditing and post-mortem
bundles stay exact); only what reaches the *stored* exporter is
sampled. A violation found during the
stream flags the operation while it is still buffered; for violations
that only surface at finalize (e.g. never-processed loss), a bounded
ring of recently *discarded* operations allows late resurrection —
integrating with the flight recorder's "keep the recent past" idea at
the sampling layer.

Everything here only filters an already-passive record stream; the
simulation timeline is byte-identical with sampling on or off.
"""

from __future__ import annotations

import zlib
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Tuple

#: Decision-space size for the CRC-based uniform draw.
_HASH_SPACE = float(2 ** 32)


def stable_fraction(key: Any, seed: int = 0) -> float:
    """Deterministic pseudo-uniform draw in ``[0, 1)`` for ``key``.

    CRC-32 over the key's string form mixed with the seed — stable
    across processes and Python versions (unlike ``hash()``, which is
    randomized per process for strings).
    """
    data = ("%s|%d" % (key, seed)).encode("utf-8")
    return zlib.crc32(data) / _HASH_SPACE


class SamplingPolicy:
    """Knobs for one :class:`TraceSampler`.

    ``head_rate`` is the kept fraction of clean operations;
    ``flow_rate`` the kept fraction of flows for per-packet records
    outside any operation (defaults to ``head_rate``); ``slow_ms``
    marks operations whose root span lasts at least this long as tail
    keeps (None disables the slowness rule); ``keep_discarded`` sizes
    the resurrection ring of recently discarded operations.
    """

    __slots__ = (
        "head_rate", "flow_rate", "slow_ms", "seed", "keep_discarded",
        "max_flow_memo",
    )

    def __init__(
        self,
        head_rate: float = 0.1,
        flow_rate: Optional[float] = None,
        slow_ms: Optional[float] = None,
        seed: int = 0,
        keep_discarded: int = 32,
        max_flow_memo: int = 65536,
    ) -> None:
        if not (0.0 <= head_rate <= 1.0):
            raise ValueError("head_rate must be in [0, 1]")
        if flow_rate is not None and not (0.0 <= flow_rate <= 1.0):
            raise ValueError("flow_rate must be in [0, 1]")
        self.head_rate = head_rate
        self.flow_rate = head_rate if flow_rate is None else flow_rate
        self.slow_ms = slow_ms
        self.seed = seed
        self.keep_discarded = keep_discarded
        self.max_flow_memo = max_flow_memo


class TraceSampler:
    """Exporter wrapper applying head+tail sampling to the stored trace.

    ``base`` is the real (in-memory) exporter. Spans and records
    carrying a ``trace_id`` (``nf.drop`` / ``nf.buffer`` / ``nf.chunk.*``
    included) buffer per operation until that operation's ``op.end``
    decides keep-or-discard atomically; entries without a trace id pass
    straight through, except per-packet records carrying a ``flow``
    attribute, which are head-sampled per flow.
    """

    def __init__(self, base, policy: Optional[SamplingPolicy] = None) -> None:
        self.base = base
        self.policy = policy or SamplingPolicy()
        #: trace_id -> buffered ("span"|"record", payload) in arrival order.
        self._pending: Dict[int, List[Tuple[str, Any]]] = {}
        #: trace_id -> root-span duration (known once the root exports).
        self._durations: Dict[int, float] = {}
        #: Operations flagged by the auditors (always kept).
        self._flagged: set = set()
        #: trace_id -> True (kept) / False (discarded), for late entries.
        self._decided: Dict[int, bool] = {}
        #: Recently discarded operations, kept for late-flag resurrection.
        self._discarded: "OrderedDict[int, List[Tuple[str, Any]]]" = (
            OrderedDict()
        )
        self._flow_memo: Dict[str, bool] = {}
        # Statistics (asserted by the overhead benchmark).
        self.ops_seen = 0
        self.ops_kept_head = 0
        self.ops_kept_tail = 0
        self.ops_kept_open = 0
        self.ops_discarded = 0
        self.ops_resurrected = 0
        self.records_sampled_out = 0
        self.finalized = False

    # ------------------------------------------------------------- decisions

    def keep_op_head(self, trace_id: int) -> bool:
        """Seeded head decision for one operation id."""
        return stable_fraction(("op", trace_id), self.policy.seed) \
            < self.policy.head_rate

    def keep_flow(self, flow: str) -> bool:
        """Seeded, memoized head decision for one flow key."""
        memo = self._flow_memo
        keep = memo.get(flow)
        if keep is None:
            keep = stable_fraction(("flow", flow), self.policy.seed) \
                < self.policy.flow_rate
            if len(memo) < self.policy.max_flow_memo:
                memo[flow] = keep
        return keep

    def flag(self, trace_id: Optional[int]) -> None:
        """Auditor hook: this operation's trace must be retained.

        While the operation is still buffered the flag simply wins at
        decision time; if it was already discarded, its entries are
        resurrected from the bounded ring (violations that only surface
        at finalize arrive after ``op.end``).
        """
        if trace_id is None:
            return
        self._flagged.add(trace_id)
        entries = self._discarded.pop(trace_id, None)
        if entries is not None:
            self.ops_resurrected += 1
            self.ops_kept_tail += 1
            self.ops_discarded -= 1
            self._decided[trace_id] = True
            self._flush(entries)

    # -------------------------------------------------------- exporter surface

    def export_span(self, span) -> None:
        trace_id = span.attrs.get("trace_id")
        if trace_id is None:
            self.base.export_span(span)
            return
        decided = self._decided.get(trace_id)
        if decided is not None:
            if decided:
                self.base.export_span(span)
            return
        self._pending.setdefault(trace_id, []).append(("span", span))
        if span.span_id == trace_id:
            # The operation's root: its duration feeds the slow rule at
            # the op.end decision (the root exports before op.end).
            self._durations[trace_id] = span.duration_ms

    def export_record(self, record: Dict[str, Any]) -> None:
        trace_id = record.get("trace_id")
        if trace_id is None:
            flow = record.get("flow")
            if flow is not None and not self.keep_flow(flow):
                self.records_sampled_out += 1
                return
            self.base.export_record(record)
            return
        decided = self._decided.get(trace_id)
        if decided is not None:
            if decided:
                self.base.export_record(record)
            return
        self._pending.setdefault(trace_id, []).append(("record", record))
        if record.get("name") == "op.end":
            self._decide(trace_id, aborted=record.get("aborted"))

    # ---------------------------------------------------------------- internals

    def _decide(self, trace_id: int, aborted: Optional[str]) -> None:
        entries = self._pending.pop(trace_id, [])
        duration = self._durations.pop(trace_id, None)
        self.ops_seen += 1
        slow = (
            self.policy.slow_ms is not None
            and duration is not None
            and duration >= self.policy.slow_ms
        )
        if aborted is not None or slow or trace_id in self._flagged:
            self.ops_kept_tail += 1
            keep = True
        elif self.keep_op_head(trace_id):
            self.ops_kept_head += 1
            keep = True
        else:
            keep = False
        self._decided[trace_id] = keep
        if keep:
            self._flush(entries)
            return
        self.ops_discarded += 1
        self._discarded[trace_id] = entries
        while len(self._discarded) > self.policy.keep_discarded:
            self._discarded.popitem(last=False)

    def _flush(self, entries: List[Tuple[str, Any]]) -> None:
        base = self.base
        for kind, payload in entries:
            if kind == "span":
                base.export_span(payload)
            else:
                base.export_record(payload)

    # ----------------------------------------------------------------- closing

    def finalize(self) -> Dict[str, int]:
        """Flush still-open operations (kept conservatively); idempotent.

        Call *after* the auditors finalize, so violations that only
        surface then have already flagged (and possibly resurrected)
        their operations.
        """
        for trace_id in sorted(self._pending):
            entries = self._pending.pop(trace_id)
            self._decided[trace_id] = True
            self.ops_seen += 1
            self.ops_kept_open += 1
            self._flush(entries)
        self._durations.clear()
        self.finalized = True
        return self.stats()

    @property
    def ops_kept(self) -> int:
        return self.ops_kept_head + self.ops_kept_tail + self.ops_kept_open

    def stats(self) -> Dict[str, int]:
        """Counter snapshot (shown by ``repro top`` and the benchmark)."""
        return {
            "ops_seen": self.ops_seen,
            "ops_kept": self.ops_kept,
            "ops_kept_head": self.ops_kept_head,
            "ops_kept_tail": self.ops_kept_tail,
            "ops_kept_open": self.ops_kept_open,
            "ops_discarded": self.ops_discarded,
            "ops_resurrected": self.ops_resurrected,
            "records_sampled_out": self.records_sampled_out,
        }
