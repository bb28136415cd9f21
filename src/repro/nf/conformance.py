"""Southbound-contract conformance checking for NF implementations.

OpenNF deliberately leaves state gathering and merging to each NF
(§4.2: "State merging must be implemented by individual NFs"). That
freedom comes with obligations the control plane relies on; this module
checks them mechanically so a new NF can be validated before it is
trusted inside move/copy/share:

1.  **Enumeration soundness** — every key from ``state_keys`` exports a
    chunk of the requested scope, tagged with a flowid that the original
    filter matches (wildcard excepted).
2.  **Roundtrip fidelity** — exporting a chunk and importing it into a
    fresh instance reproduces a chunk with equal data (state survives a
    move byte-for-byte).
3.  **Delete completeness** — after ``delete_by_flowid`` of every
    enumerated key, nothing remains under the wildcard filter.
4.  **Import idempotence (multi-flow)** — importing the same multi-flow
    chunk twice equals importing it once (required for the re-copying
    eventual-consistency pattern of §5.2.1 to converge).
5.  **Wildcard totality** — a wildcard filter enumerates at least as
    much as any specific filter.
6.  **At-most-once replay** — a retried ``put`` delivered through the
    reliable-RPC dedup layer (``rpc_deliver``/``rpc_complete``) must
    not re-apply state: per-flow import is merge-based (counters would
    double), so the fault-tolerant control plane depends on the NF
    honouring request-id dedup.
7.  **Undeclared scopes are inert** — checks 1-6 run over the scopes in
    the NF's ``STATE``; any other enumerates, exports and deletes nothing.

Use :func:`check_nf_conformance` in a test::

    report = check_nf_conformance(lambda sim, name: MyNF(sim, name),
                                  traffic=my_packets)
    assert report.ok, report.failures
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence

from repro.flowspace.filter import Filter, FlowId
from repro.nf.state import Scope
from repro.net.packet import Packet
from repro.sim.core import Simulator


@dataclass
class ConformanceReport:
    """Outcome of a conformance run."""

    checks_run: int = 0
    failures: List[str] = field(default_factory=list)
    #: scope -> number of chunks exercised
    chunks_seen: dict = field(default_factory=dict)
    #: scope values for which the at-most-once replay check ran.
    replay_scopes: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def _fail(self, message: str) -> None:
        self.failures.append(message)

    def _check(self, condition: bool, message: str) -> None:
        self.checks_run += 1
        if not condition:
            self._fail(message)


def _default_traffic() -> List[Packet]:
    from repro.flowspace.fivetuple import FiveTuple

    packets: List[Packet] = []
    for index in range(8):
        flow = FiveTuple(
            "10.0.1.%d" % (index + 1), 20000 + index, "203.0.113.5", 80
        )
        packets.append(Packet(flow, tcp_flags=("SYN",)))
        packets.append(Packet(flow, tcp_flags=("ACK",),
                              payload="GET /x HTTP/1.1\r\n\r\n"))
    return packets


def check_nf_conformance(
    factory: Callable[[Simulator, str], Any],
    traffic: Optional[Sequence[Packet]] = None,
) -> ConformanceReport:
    """Run the southbound conformance battery against an NF factory."""
    report = ConformanceReport()
    sim = Simulator()
    nf = factory(sim, "conformance-src")
    for packet in (traffic if traffic is not None else _default_traffic()):
        nf.receive(packet)
    sim.run()

    wildcard = Filter.wildcard()
    scopes = [scope for scope in Scope if scope in nf.STATE]
    held = [key for scope in scopes for key in nf.state_keys(scope, wildcard)
            if isinstance(key, FlowId)]
    for scope in Scope:
        if scope not in nf.STATE:
            report._check(
                nf.state_keys(scope, wildcard) == [] and not any(
                    nf.export_chunk(scope, flowid) is not None
                    or nf.delete_by_flowid(scope, flowid) for flowid in held
                ),
                "%s: an undeclared scope holds state" % scope.value,
            )

    for scope in scopes:
        keys = nf.state_keys(scope, wildcard)
        report.chunks_seen[scope.value] = len(keys)
        fresh = factory(sim, "conformance-dst")
        exported = []
        for key in keys:
            chunk = nf.export_chunk(scope, key)
            report._check(
                chunk is not None,
                "%s: state_keys returned %r but export_chunk gave None"
                % (scope.value, key),
            )
            if chunk is None:
                continue
            report._check(
                chunk.scope is scope,
                "%s: chunk for %r tagged with scope %s"
                % (scope.value, key, chunk.scope.value),
            )
            if chunk.flowid is not None:
                report._check(
                    wildcard.matches_flowid(
                        chunk.flowid, nf.relevant_fields(scope)
                    ),
                    "%s: exported flowid %r does not match the wildcard"
                    % (scope.value, chunk.flowid),
                )
            exported.append(chunk)
            fresh.import_chunk(chunk)

        # Roundtrip fidelity: re-export from the fresh instance.
        fresh_keys = fresh.state_keys(scope, wildcard)
        distinct = {_chunk_identity(c) for c in exported}
        report._check(
            len(fresh_keys) == len(distinct),
            "%s: imported %d distinct chunks but fresh instance "
            "enumerates %d" % (scope.value, len(distinct), len(fresh_keys)),
        )
        fresh_data = _held(fresh, scope)
        for chunk in exported:
            identity = _chunk_identity(chunk)
            report._check(
                identity in fresh_data,
                "%s: chunk %r lost across import/export" % (scope.value,
                                                            identity),
            )
            if identity in fresh_data:
                report._check(
                    fresh_data[identity] == chunk.data,
                    "%s: chunk %r mutated across import/export"
                    % (scope.value, identity),
                )

        # Import idempotence for multi-flow state.
        if scope is Scope.MULTIFLOW and exported:
            for chunk in exported:
                fresh.import_chunk(chunk)  # second import
            for identity, data in _held(fresh, scope).items():
                if identity in fresh_data:
                    report._check(
                        data == fresh_data[identity],
                        "multiflow: double import of %r is not idempotent"
                        % (identity,),
                    )

        # At-most-once replay: deliver the same put twice through the
        # reliable-RPC dedup layer; the retry must be absorbed, not
        # re-applied (merge-based imports would double their counters).
        if exported:
            replay_target = factory(sim, "conformance-replay")
            request_id = 9000 + len(report.replay_scopes)

            def apply_put(target=replay_target, chunks=tuple(exported),
                          rid=request_id):
                for chunk in chunks:
                    target.import_chunk(chunk)
                target.rpc_complete(rid, lambda: None)

            replay_target.rpc_deliver(request_id, apply_put)
            once = _held(replay_target, scope)
            deduped_before = replay_target.rpcs_deduplicated
            replay_target.rpc_deliver(request_id, apply_put)  # the retry
            report._check(
                replay_target.rpcs_deduplicated == deduped_before + 1,
                "%s: replayed request id was not counted as deduplicated"
                % scope.value,
            )
            report._check(
                _held(replay_target, scope) == once,
                "%s: a deduplicated put replay still mutated state"
                % scope.value,
            )
            report.replay_scopes.append(scope.value)

        # Delete completeness (per-flow and multi-flow only: all-flows
        # state "is always relevant", §4.2 — there is no delAllflows).
        if scope is not Scope.ALLFLOWS:
            for chunk in exported:
                if chunk.flowid is not None:
                    nf.delete_by_flowid(scope, chunk.flowid)
            report._check(
                nf.state_keys(scope, wildcard) == [],
                "%s: state remains after deleting every flowid" % scope.value,
            )
    return report


def _chunk_identity(chunk) -> str:
    if chunk.flowid is None:
        return "<allflows>"
    return repr(chunk.flowid)


def _held(nf, scope: Scope) -> dict:
    """``{chunk identity: data}`` for everything ``nf`` holds in ``scope``."""
    held = {}
    for key in nf.state_keys(scope, Filter.wildcard()):
        chunk = nf.export_chunk(scope, key)
        if chunk is not None:
            held[_chunk_identity(chunk)] = chunk.data
    return held
