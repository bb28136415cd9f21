"""Every bundled NF must pass the southbound conformance battery."""

import functools
import importlib.util
import pathlib

import pytest

from repro.flowspace import Filter, FiveTuple, FlowId
from repro.net.packet import Packet
from repro.nf import Scope, StateChunk
from repro.nf.conformance import _default_traffic, check_nf_conformance
from repro.sim import Simulator
from repro.nfs.dummy import DummyNF
from repro.nfs.ids import IntrusionDetector
from repro.nfs.lb import LoadBalancer
from repro.nfs.monitor import AssetMonitor
from repro.nfs.nat import NetworkAddressTranslator
from repro.nfs.proxy import CachingProxy, request_payload
from repro.nfs.redup import REDecoder, REEncoder


def http_traffic():
    from repro.traffic import http_exchange

    packets = []
    for index in range(5):
        flow = http_exchange(
            "10.0.1.%d" % (index + 1), 20000 + index, "203.0.113.5",
            reply_body="B" * 400, close=False,
        )
        packets.extend(b.build(0.0) for b in flow.packets)
    return packets


def proxy_traffic():
    packets = []
    for index in range(5):
        flow = FiveTuple("10.0.1.%d" % (index + 1), 20000 + index,
                         "203.0.113.5", 80)
        packets.append(Packet(flow, tcp_flags=("ACK", "PSH"),
                              payload=request_payload("/obj/%d" % index,
                                                      200_000)))
    return packets


def payload_traffic():
    packets = []
    for index in range(6):
        flow = FiveTuple("10.0.1.%d" % (index + 1), 20000 + index,
                         "203.0.113.5", 9000)
        packets.append(Packet(flow, payload="content-%d " % (index % 2) * 8))
    return packets


CASES = [
    ("AssetMonitor", lambda sim, name: AssetMonitor(sim, name), None),
    ("IntrusionDetector",
     lambda sim, name: IntrusionDetector(sim, name), http_traffic),
    ("NAT", lambda sim, name: NetworkAddressTranslator(sim, name), None),
    ("CachingProxy", lambda sim, name: CachingProxy(sim, name),
     proxy_traffic),
    ("LoadBalancer", lambda sim, name: LoadBalancer(sim, name), None),
    ("REEncoder", lambda sim, name: REEncoder(sim, name), payload_traffic),
    ("REDecoder", lambda sim, name: REDecoder(sim, name), payload_traffic),
    ("DummyNF", lambda sim, name: _preloaded_dummy(sim, name), None),
]


def _preloaded_dummy(sim, name, cls=DummyNF):
    dummy = cls(sim, name)
    dummy.preload(5)
    return dummy


@functools.lru_cache(maxsize=None)
def _custom_nf_example():
    path = pathlib.Path(__file__).resolve().parent.parent / "examples" / "custom_nf.py"
    spec = importlib.util.spec_from_file_location("custom_nf", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: The bundled NFs plus the tutorial's ``FlowMeter``.
ALL_NFS = CASES + [
    ("FlowMeter",
     lambda sim, name: _custom_nf_example().FlowMeter(sim, name), None),
]


@pytest.mark.parametrize(
    "label,factory,traffic", ALL_NFS, ids=[c[0] for c in ALL_NFS]
)
def test_nf_conformance(label, factory, traffic):
    report = check_nf_conformance(
        factory, traffic=None if traffic is None else traffic()
    )
    assert report.ok, "%s: %s" % (label, report.failures)
    assert report.checks_run > 0
    # Every NF must expose at least one scope with state.
    assert any(count > 0 for count in report.chunks_seen.values()), (
        "%s exported nothing under conformance traffic" % label
    )
    # The at-most-once replay check ran wherever state was exported.
    assert report.replay_scopes, (
        "%s never exercised the rpc replay path" % label
    )


@pytest.mark.parametrize(
    "label,factory,traffic", ALL_NFS, ids=[c[0] for c in ALL_NFS]
)
def test_a_scope_without_state_is_inert(label, factory, traffic):
    """Asked for any flowid it holds, a scope the NF keeps no state in
    exports nothing and deletes nothing."""
    sim = Simulator()
    nf = factory(sim, "nf")
    for packet in (traffic() if traffic is not None else _default_traffic()):
        nf.receive(packet)
    sim.run()
    wildcard = Filter.wildcard()
    held = {scope: nf.state_keys(scope, wildcard) for scope in Scope}
    probes = [key for keys in held.values() for key in keys
              if isinstance(key, FlowId)]
    for scope in Scope:
        if held[scope]:
            continue
        for flowid in probes:
            assert nf.export_chunk(scope, flowid) is None, (scope, flowid)
            assert nf.delete_by_flowid(scope, flowid) == 0, (scope, flowid)
    assert {scope: nf.state_keys(scope, wildcard) for scope in Scope} == held


def test_undeclared_scope_check_catches_a_leak():
    """An export that ignores its scope fails the battery's check 7."""

    class LeakyDummy(DummyNF):
        def export_chunk(self, scope, key):
            record = self.flows.get(key)
            return None if record is None else StateChunk(scope, key, record)

    report = check_nf_conformance(
        lambda sim, name: _preloaded_dummy(sim, name, LeakyDummy)
    )
    assert any("undeclared scope holds state" in f for f in report.failures), (
        report.failures
    )


def test_replay_check_catches_dedup_violation():
    """An NF that re-runs a replayed put must fail the battery."""

    class ReplayBrokenMonitor(AssetMonitor):
        def rpc_deliver(self, request_id, run):
            self.rpcs_delivered += 1
            run()  # ignores the request id: every retry re-applies

    report = check_nf_conformance(
        lambda sim, name: ReplayBrokenMonitor(sim, name)
    )
    assert not report.ok
    assert any("dedup" in f or "replay" in f for f in report.failures), (
        report.failures
    )
