"""Tests for the controller-side southbound RPC client."""

import collections
import json

import pytest

from repro import Deployment, DummyNF, Guarantee
from repro.conformance import NF_FACTORIES
from repro.controller.forwarding import SwitchClient
from repro.flowspace import Filter, FiveTuple, FlowId
from repro.harness import run_move_experiment
from repro.net.switch import Switch
from repro.net.xfsm import BufferUntilRelease
from repro.nf import EventAction, NFClient, Scope, StateChunk, protocol, state
from repro.nfs.monitor import AssetMonitor
from repro.sim import Event, Simulator
from tests.conftest import make_packet


@pytest.fixture
def wired(sim):
    nf = AssetMonitor(sim, "mon")
    client = NFClient(sim, nf)
    return sim, nf, client


def feed_flows(sim, nf, count=3):
    tuples = []
    for i in range(count):
        five_tuple = FiveTuple("10.0.1.%d" % (i + 1), 1000 + i, "203.0.113.5", 80)
        tuples.append(five_tuple)
        nf.receive(make_packet(five_tuple, flags=("SYN",), payload="GET /"))
    sim.run()
    return tuples


class TestGetPut:
    def test_get_perflow_returns_chunks_after_delay(self, wired):
        sim, nf, client = wired
        feed_flows(sim, nf, 2)
        done = client.get_perflow(Filter.wildcard())
        assert not done.triggered  # requires simulated time
        sim.run()
        chunks = done.value
        assert len(chunks) == 2
        assert all(c.scope is Scope.PERFLOW for c in chunks)
        assert sim.now > 0

    def test_get_with_stream_delivers_incrementally(self, wired):
        sim, nf, client = wired
        feed_flows(sim, nf, 3)
        streamed = []
        done = client.get_perflow(Filter.wildcard(), stream=streamed.append)
        sim.run()
        assert len(streamed) == 3
        assert len(done.value) == 3

    def test_get_respects_filter(self, wired):
        sim, nf, client = wired
        feed_flows(sim, nf, 3)
        done = client.get_perflow(Filter({"nw_src": "10.0.1.2"}, symmetric=True))
        sim.run()
        assert len(done.value) == 1

    def test_put_perflow_installs_state(self, sim):
        src = AssetMonitor(sim, "src")
        dst = AssetMonitor(sim, "dst")
        src_client = NFClient(sim, src)
        dst_client = NFClient(sim, dst)
        feed_flows(sim, src, 2)
        got = src_client.get_perflow(Filter.wildcard())
        sim.run()
        put = dst_client.put_perflow(got.value)
        sim.run()
        assert put.triggered
        assert dst.conn_count() == 2

    def test_del_perflow_removes(self, wired):
        sim, nf, client = wired
        feed_flows(sim, nf, 2)
        got = client.get_perflow(Filter.wildcard())
        sim.run()
        removed = client.del_perflow([c.flowid for c in got.value])
        sim.run()
        assert removed.value == 2
        assert nf.conn_count() == 0

    def test_get_multiflow_and_allflows(self, wired):
        sim, nf, client = wired
        feed_flows(sim, nf, 2)
        multi = client.get_multiflow(Filter({"nw_src": "10.0.0.0/8"}, symmetric=True))
        allf = client.get_allflows()
        sim.run()
        assert len(multi.value) == 2  # two local client assets
        assert len(allf.value) == 1
        assert allf.value[0].data["stats"]["flows"] == 2

    def test_list_flowids(self, wired):
        sim, nf, client = wired
        feed_flows(sim, nf, 3)
        done = client.list_flowids(Scope.PERFLOW, Filter.wildcard())
        sim.run()
        assert len(done.value) == 3

    def test_bigger_transfers_take_longer(self, sim):
        nf_small = AssetMonitor(sim, "s")
        nf_big = AssetMonitor(sim, "b")
        small_client = NFClient(sim, nf_small)
        big_client = NFClient(sim, nf_big)
        feed_flows(sim, nf_small, 1)
        for i in range(30):
            five_tuple = FiveTuple("10.0.2.%d" % (i + 1), 2000 + i, "203.0.113.6", 80)
            nf_big.receive(make_packet(five_tuple, flags=("SYN",)))
        sim.run()
        small_done = small_client.get_perflow(Filter.wildcard())
        big_done = big_client.get_perflow(Filter.wildcard())
        sim.run()
        small_cost = sum(
            nf_small.costs.serialize_ms(c.size_bytes) for c in small_done.value
        )
        big_cost = sum(
            nf_big.costs.serialize_ms(c.size_bytes) for c in big_done.value
        )
        assert big_cost > small_cost


class TestEventsRpc:
    def test_enable_events_round_trip(self, wired):
        sim, nf, client = wired
        done = client.enable_events(Filter.wildcard(), EventAction.DROP)
        assert nf.event_rule_count == 0  # not yet delivered
        sim.run()
        assert done.triggered
        assert nf.event_rule_count == 1

    def test_disable_events_round_trip(self, wired):
        sim, nf, client = wired
        client.enable_events(Filter.wildcard(), EventAction.BUFFER)
        sim.run()
        done = client.disable_events(Filter.wildcard())
        sim.run()
        assert done.triggered
        assert nf.event_rule_count == 0

    def test_disable_events_covered_round_trip(self, wired):
        sim, nf, client = wired
        client.enable_events(Filter({"nw_src": "10.0.1.1"}), EventAction.DROP)
        client.enable_events(Filter({"nw_src": "10.0.1.2"}), EventAction.DROP)
        sim.run()
        client.disable_events_covered(Filter({"nw_src": "10.0.0.0/8"}))
        sim.run()
        assert nf.event_rule_count == 0

    def test_silent_flag_propagates(self, wired, flow):
        sim, nf, client = wired
        client.enable_events(Filter.wildcard(), EventAction.DROP, silent=True)
        sim.run()
        nf.receive(make_packet(flow))
        sim.run()
        assert nf.packets_dropped_silent == 1


# ----------------------------------------------------------- per-RPC wire pin
#
# Every public RPC of both stubs, classic and reliable (clean channels),
# pinned on what the simulated clock can see of it. The values were
# generated at the last commit that wrote the call lifecycle out per
# method (``python tests/test_southbound.py`` prints the table); they
# move only in a PR that says why the simulated clock moves.

LOCAL = Filter({"nw_src": "10.0.0.0/8"}, symmetric=True)


def _nf_stub(sim, reliable):
    nf = AssetMonitor(sim, "mon")
    feed_flows(sim, nf, 3)
    return NFClient(sim, nf, reliable=reliable), nf


def _sw_stub(sim, reliable):
    switch = Switch(sim)
    switch.table.install(LOCAL, 100, ["mon"], 0.0)
    return SwitchClient(sim, switch, reliable=reliable), switch


def _chunks(nf, scope):
    return [nf.export_chunk(scope, key)
            for key in nf.state_keys(scope, Filter.wildcard())]


def _flowids(nf, scope):
    return [c.flowid for c in _chunks(nf, scope)]


#: name -> (stub factory, call); every public RPC of both stubs.
RPCS = {
    "get_perflow": (_nf_stub, lambda c, nf: c.get_perflow(LOCAL)),
    "get_perflow[stream]": (
        _nf_stub, lambda c, nf: c.get_perflow(LOCAL, stream=lambda chunk: None)),
    "get_multiflow": (_nf_stub, lambda c, nf: c.get_multiflow(LOCAL)),
    "get_allflows": (_nf_stub, lambda c, nf: c.get_allflows()),
    "list_flowids": (
        _nf_stub, lambda c, nf: c.list_flowids(Scope.PERFLOW, LOCAL)),
    "put_perflow": (
        _nf_stub, lambda c, nf: c.put_perflow(_chunks(nf, Scope.PERFLOW))),
    "put_multiflow": (
        _nf_stub, lambda c, nf: c.put_multiflow(_chunks(nf, Scope.MULTIFLOW))),
    "put_allflows": (
        _nf_stub, lambda c, nf: c.put_allflows(_chunks(nf, Scope.ALLFLOWS))),
    "del_perflow": (
        _nf_stub, lambda c, nf: c.del_perflow(_flowids(nf, Scope.PERFLOW))),
    "del_multiflow": (
        _nf_stub, lambda c, nf: c.del_multiflow(_flowids(nf, Scope.MULTIFLOW))),
    "enable_events": (
        _nf_stub, lambda c, nf: c.enable_events(LOCAL, EventAction.DROP)),
    "disable_events": (_nf_stub, lambda c, nf: c.disable_events(LOCAL)),
    "disable_events_covered": (
        _nf_stub, lambda c, nf: c.disable_events_covered(LOCAL)),
    "drain_barrier": (_nf_stub, lambda c, nf: c.drain_barrier()),
    "install": (_sw_stub, lambda c, sw: c.install(LOCAL, ["mon"], 200)),
    "install_batch": (_sw_stub, lambda c, sw: c.install_batch(
        [(LOCAL, ["mon"], 200), (Filter.wildcard(), ["mon"], 10)])),
    "remove": (_sw_stub, lambda c, sw: c.remove(LOCAL, 100)),
    "packet_out_barrier": (_sw_stub, lambda c, sw: c.packet_out_barrier()),
    "read_entries": (_sw_stub, lambda c, sw: c.read_entries(LOCAL)),
    "read_counters": (_sw_stub, lambda c, sw: c.read_counters(LOCAL, 100)),
    "install_state_machine": (
        _sw_stub,
        lambda c, sw: c.install_state_machine(LOCAL, BufferUntilRelease())),
    "remove_state_machine": (
        _sw_stub, lambda c, sw: c.remove_state_machine(LOCAL)),
    "release_state_machine": (
        _sw_stub, lambda c, sw: c.release_state_machine(LOCAL, "mon")),
}


def measure_rpc(name, reliable):
    """(msgs out, bytes out, msgs back, bytes back, sim events, done at)."""
    factory, call = RPCS[name]
    sim = Simulator()
    stub, peer = factory(sim, reliable)
    out, back = ((stub.to_nf, stub.from_nf) if factory is _nf_stub
                 else (stub.to_switch, stub.from_switch))
    start, events = sim.now, sim.events_processed
    fired = []
    call(stub, peer).add_callback(lambda evt: fired.append(sim.now))
    sim.run()
    assert len(fired) == 1
    return (out.messages_sent, out.bytes_sent, back.messages_sent,
            back.bytes_sent, sim.events_processed - events,
            round(fired[0] - start, 9))


#: (rpc, reliable) -> measure_rpc(rpc, reliable).
WIRE_PIN = {
    ('get_perflow', False): (1, 144, 1, 812, 7, 3.537007375),
    ('get_perflow', True): (1, 152, 1, 812, 8, 3.537071375),
    ('get_perflow[stream]', False): (1, 167, 4, 1034, 10, 3.534135375),
    ('get_perflow[stream]', True): (1, 175, 4, 1034, 11, 3.534199375),
    ('get_multiflow', False): (1, 146, 1, 719, 7, 3.534462969),
    ('get_multiflow', True): (1, 154, 1, 719, 8, 3.534526969),
    ('get_allflows', False): (1, 125, 1, 215, 5, 3.176419219),
    ('get_allflows', True): (1, 133, 1, 215, 6, 3.176483219),
    ('list_flowids', False): (1, 128, 1, 176, 2, 1.002432),
    ('list_flowids', True): (1, 138, 1, 176, 3, 1.002512),
    ('put_perflow', False): (1, 771, 1, 128, 6, 1.319871688),
    ('put_perflow', True): (1, 779, 1, 128, 7, 1.319935688),
    ('put_multiflow', False): (1, 868, 1, 128, 7, 1.423594953),
    ('put_multiflow', True): (1, 876, 1, 128, 8, 1.423658953),
    ('put_allflows', False): (1, 174, 1, 128, 4, 1.105265609),
    ('put_allflows', True): (1, 182, 1, 128, 5, 1.105329609),
    ('del_perflow', False): (1, 431, 1, 128, 7, 3.019472),
    ('del_perflow', True): (1, 439, 1, 128, 8, 3.019536),
    ('del_multiflow', False): (1, 300, 1, 128, 8, 3.023424),
    ('del_multiflow', True): (1, 308, 1, 128, 9, 3.023488),
    ('enable_events', False): (1, 162, 1, 128, 2, 1.00232),
    ('enable_events', True): (1, 170, 1, 128, 3, 1.002384),
    ('disable_events', False): (1, 147, 1, 128, 2, 1.0022),
    ('disable_events', True): (1, 155, 1, 128, 3, 1.002264),
    ('disable_events_covered', False): (1, 128, 1, 128, 2, 1.002048),
    ('disable_events_covered', True): (1, 138, 1, 128, 3, 1.002128),
    ('drain_barrier', False): (1, 128, 1, 128, 2, 1.002048),
    ('drain_barrier', True): (1, 138, 1, 128, 3, 1.002128),
    ('install', False): (1, 128, 0, 0, 2, 10.501024),
    ('install', True): (1, 128, 0, 0, 2, 10.501024),
    ('install_batch', False): (1, 176, 0, 0, 3, 10.501408),
    ('install_batch', True): (1, 176, 0, 0, 3, 10.501408),
    ('remove', False): (1, 128, 0, 0, 2, 10.501024),
    ('remove', True): (1, 128, 0, 0, 2, 10.501024),
    ('packet_out_barrier', False): (1, 128, 0, 0, 1, 0.501024),
    ('packet_out_barrier', True): (1, 128, 0, 0, 1, 0.501024),
    ('read_entries', False): (1, 128, 1, 192, 2, 1.00256),
    ('read_entries', True): (1, 128, 1, 192, 2, 1.00256),
    ('read_counters', False): (1, 128, 1, 128, 2, 1.002048),
    ('read_counters', True): (1, 128, 1, 128, 2, 1.002048),
    ('install_state_machine', False): (1, 128, 0, 0, 2, 10.501024),
    ('install_state_machine', True): (1, 138, 0, 0, 3, 10.501104),
    ('remove_state_machine', False): (1, 128, 0, 0, 2, 10.501024),
    ('remove_state_machine', True): (1, 138, 0, 0, 3, 10.501104),
    ('release_state_machine', False): (1, 128, 1, 128, 2, 1.002048),
    ('release_state_machine', True): (1, 138, 1, 128, 3, 1.002128),
}


@pytest.mark.parametrize("rpc,reliable", sorted(WIRE_PIN))
def test_rpc_wire_pin(rpc, reliable):
    assert measure_rpc(rpc, reliable) == WIRE_PIN[rpc, reliable]


def test_wire_pin_covers_every_public_rpc():
    """...and each is the stub class's own attribute (the ledger wraps
    them by name). ``packet_out`` is fire-and-forget, not an RPC, and
    the scope-keyed ``get`` / ``put`` / ``delete`` only dispatch to the
    paper-named RPCs."""
    not_rpcs = {"packet_out", "get", "put", "delete"}
    for stub, factory in ((NFClient, _nf_stub), (SwitchClient, _sw_stub)):
        public = {name for name, attr in vars(stub).items()
                  if callable(attr) and not name.startswith("_")}
        pinned = {rpc.split("[")[0] for rpc in RPCS if RPCS[rpc][0] is factory}
        assert public - not_rpcs == pinned


def test_scope_trio_dispatches_to_the_paper_named_rpcs(monkeypatch):
    """``get`` / ``put`` / ``delete`` resolve the paper-named method on
    the instance at call time — which is what lets the ledger count and
    time them by wrapping ``NFClient.__dict__`` — and all-flows state
    drops the filter and the lock arguments in exactly one place."""
    calls = []
    for verb, scopes in (("get", Scope), ("put", Scope),
                         ("del", (Scope.PERFLOW, Scope.MULTIFLOW))):
        for scope in scopes:
            name = "%s_%s" % (verb, scope.value)
            monkeypatch.setattr(
                NFClient, name,
                lambda self, *args, _name=name, **kwargs:
                    calls.append((_name, args, kwargs)),
            )
    client, _nf = _nf_stub(Simulator(), False)
    flt = Filter({"nw_src": "10.0.0.0/8"})
    for scope in Scope:
        client.get(scope, flt, compress=True, lock_per_chunk=True)
        client.put(scope, ["chunk"])
    client.delete(Scope.PERFLOW, ["id"])
    client.delete(Scope.MULTIFLOW, ["id"])
    locked = {"compress": True, "lock_per_chunk": True}
    assert calls == [
        ("get_perflow", (flt,), locked), ("put_perflow", (["chunk"],), {}),
        ("get_multiflow", (flt,), locked), ("put_multiflow", (["chunk"],), {}),
        ("get_allflows", (), {"compress": True}),
        ("put_allflows", (["chunk"],), {}),
        ("del_perflow", (["id"],), {}), ("del_multiflow", (["id"],), {}),
    ]


# ------------------------------------------------- sizes from field lengths
#
# The stubs size a request from its fields (``protocol.Request.size``)
# and never encode it. The ``*_request`` constructors stay the
# definition of the wire message: every size is pinned to the length of
# their canonical encoding here, and ``WIRE_PIN`` above pins the bytes
# each RPC actually puts on a channel.

_FLOW = FiveTuple("10.0.1.7", 43210, "203.0.113.5", 80)
SIZED_FILTERS = {
    "wildcard": Filter.wildcard(),
    "prefix16": Filter({"nw_src": "172.16.0.0/16"}, symmetric=True),
    "five-field": Filter.for_flow(_FLOW),
    "tcp-flags": Filter({"tcp_flags": frozenset({"SYN", "ACK"}),
                         "tp_dst": 80, "nw_proto": 6}),
}
SIZED_FLOWIDS = [
    FlowId.for_flow(FiveTuple("10.0.%d.%d" % (i // 200, 1 + i % 200),
                              10000 + i, "198.18.0.1", 80))
    for i in range(124)
] + [FlowId.for_host("10.0.1.7")]
RIDS = (None, 1, 9, 10, 123456)
GET_FLAGS = ("lock_per_chunk", "compress", "stream")


def _sized_requests():
    """(id, Request, the message its constructor builds), every kind."""
    for name, flt in SIZED_FILTERS.items():
        for call in ("getPerflow", "getMultiflow", "getAllflows"):
            for mask in range(1 << len(GET_FLAGS)):
                opts = {f: bool(mask >> i & 1) for i, f in enumerate(GET_FLAGS)}
                yield ("%s-%s-%d" % (call, name, mask),
                       protocol.Request(call, flt, **opts),
                       protocol.get_request(call, flt, **opts))
        for action in ("drop", "buffer", "process"):
            yield ("enableEvents-%s-%s" % (name, action),
                   protocol.Request("enableEvents", flt, action=action),
                   protocol.events_request("enableEvents", flt, action))
        yield ("disableEvents-%s" % name,
               protocol.Request("disableEvents", flt),
               protocol.events_request("disableEvents", flt))
    for count in (1, 9, 10, 16, 99, 100, 12345):
        yield ("put-%d" % count,
               protocol.Request("put", chunks=count),
               protocol.put_request("put", count))
    for count in (0, 1, 125):
        for call in ("delPerflow", "delMultiflow"):
            yield ("%s-%d" % (call, count),
                   protocol.Request(call, flowids=SIZED_FLOWIDS[:count]),
                   protocol.delete_request(call, SIZED_FLOWIDS[:count]))


@pytest.mark.parametrize(
    "request_, message",
    [pytest.param(req, msg, id=name) for name, req, msg in _sized_requests()],
)
def test_request_size_is_the_length_of_its_encoding(request_, message):
    for rid in RIDS:
        wire = dict(message)
        if rid is not None:
            protocol.with_request_id(wire, rid)
        assert request_.size(rid) == (
            len(protocol.encode(wire)) + protocol.FRAME_OVERHEAD_BYTES
        ), rid
        assert request_.size(rid) == protocol.message_size(wire)


def test_an_equal_filter_measures_the_same_as_a_measured_one():
    first = Filter({"nw_src": "172.16.0.0/16"}, symmetric=True)
    sized = protocol.Request("getPerflow", first).size()
    assert protocol.Request("getPerflow", first).size() == sized  # cached
    again = Filter({"nw_src": "172.16.0.0/16"}, symmetric=True)
    assert protocol.Request("getPerflow", again).size() == sized


@pytest.mark.parametrize("kind", sorted(NF_FACTORIES))
def test_chunk_wire_encoding_is_the_canonical_json(kind):
    """``to_json_bytes`` through the shared encoder is byte-for-byte
    what ``json.dumps(sort_keys, compact separators)`` produced."""
    sim = Simulator()
    nf = NF_FACTORIES[kind](sim, kind)
    feed_flows(sim, nf, 4)
    chunks = [c for scope in Scope for c in _chunks(nf, scope)]
    assert chunks
    for chunk in chunks:
        body = {
            "scope": chunk.scope.value,
            "flowid": None if chunk.flowid is None else chunk.flowid.to_dict(),
            "data": chunk.data,
        }
        assert chunk.to_json_bytes() == json.dumps(
            body, sort_keys=True, separators=(",", ":")
        ).encode("utf-8")


@pytest.mark.parametrize("kind", sorted(NF_FACTORIES))
def test_a_chunk_is_sized_exactly_as_it_is_encoded(kind):
    """``size_bytes`` is summed from a chunk's parts, never encoded, and
    is the length of its encoding for the content of every chunk each NF
    exports, in every scope (a chunk the NF exports with a preset size,
    a proxy's cached object, is re-wrapped without one); a compressed
    chunk's ``size_bytes`` is its raw size."""
    sim = Simulator()
    nf = NF_FACTORIES[kind](sim, kind)
    feed_flows(sim, nf, 4)
    assert any(_chunks(nf, scope) for scope in Scope)
    for scope in Scope:
        for compressed in (False, True):
            for exported in _chunks(nf, scope):
                chunk = StateChunk(scope, exported.flowid, exported.data)
                chunk.compressed = compressed
                assert chunk.size_bytes == len(chunk.to_json_bytes()), chunk


SIZED_DATA = [
    {},
    {"k": "v" * 100, "n": None, "on": True, "off": False},
    {"ratio": 0.1, "big": 10 ** 20, "neg": -3, "nan": float("nan"),
     "inf": float("-inf")},
    {"nested": {"z": [1, [2, {"b": 1, "a": 2}]], "a": []}},
    {"name": "caf\u00e9 \u2603 \U0001f600", "esc": "\"quoted\"\n\t\\"},
]


@pytest.mark.parametrize("scope", list(Scope), ids=lambda s: s.value)
@pytest.mark.parametrize("flowid", [
    None,
    FlowId.for_host("10.0.1.7"),
    FlowId.for_flow(FiveTuple("10.0.1.1", 1234, "203.0.113.5", 80)),
    FlowId({"url": "/\u00fcber", "tcp_flags": frozenset({"SYN", "ACK"})}),
], ids=["all-flows", "host", "flow", "url"])
def test_a_chunk_sized_from_its_parts_matches_its_encoding(scope, flowid):
    for data in SIZED_DATA:
        assert protocol.wire_length(data) == len(protocol.encode(data))
        for compressed in (False, True):
            chunk = StateChunk(scope, flowid, data)
            chunk.compressed = compressed
            assert chunk.size_bytes == len(chunk.to_json_bytes()), data


@pytest.fixture
def encoded(monkeypatch):
    """What was encoded or measured, by what it is the JSON of.

    ``JSONEncoder.encode`` handed a state chunk's whole envelope counts
    as ``"chunk"``, anything else as ``"message"``: nothing may encode
    either just to size it. ``wire_length`` handed a filter's / flowid's
    dict counts as ``"filter"``, anything else (a chunk's data) as
    ``"data"``; ``"measured"`` lists the filter objects whose size
    ``filter_bytes`` had not yet cached.
    """
    seen = {"chunk": 0, "filter": 0, "data": 0, "message": 0,
            "measured": []}
    real_encode = json.JSONEncoder.encode
    real_filter_bytes = protocol.filter_bytes

    def counting_encode(self, obj):
        if isinstance(obj, dict) and set(obj) == {"scope", "flowid", "data"}:
            seen["chunk"] += 1
        else:
            seen["message"] += 1
        return real_encode(self, obj)

    def counting_length(value):
        is_filter = isinstance(value, dict) and set(value) == {
            "fields", "symmetric"}
        seen["filter" if is_filter else "data"] += 1
        return len(real_encode(protocol.WIRE_JSON, value))

    def counting_filter_bytes(flt):
        if flt._wire_size is None:
            seen["measured"].append(flt)
        return real_filter_bytes(flt)

    monkeypatch.setattr(json.JSONEncoder, "encode", counting_encode)
    for module in (protocol, state):
        monkeypatch.setattr(module, "wire_length", counting_length)
        monkeypatch.setattr(module, "filter_bytes", counting_filter_bytes)
    return seen


def _dummy_move(n_flows):
    dep = Deployment()
    src, dst = DummyNF(dep.sim, "src"), DummyNF(dep.sim, "dst")
    dep.add_nf(src)
    dep.add_nf(dst)
    src.preload(n_flows)
    move = dep.controller.move(
        "src", "dst", Filter({"nw_src": "172.16.0.0/16"}, symmetric=True),
        scope="per", guarantee=Guarantee.LOSS_FREE,
    )
    dep.sim.run()
    assert move.done.value.total_chunks == n_flows
    return dep


def test_sizing_a_message_never_encodes_it(encoded):
    """A loss-free move of 50 and of 200 preset-size chunks: one put
    message per chunk, and not one of them is encoded. What is measured
    is each filter / flowid *object*, once — the 200-flow move meets
    150 more flowids in its delete request, and nothing else differs."""
    _dummy_move(50)
    small = dict(encoded, measured=len(encoded["measured"]))
    _dummy_move(200)
    large = {kind: len(count) if kind == "measured" else count
             for kind, count in encoded.items()}
    large = {kind: large[kind] - small[kind] for kind in small}
    assert small["message"] == large["message"] == 0
    assert small["chunk"] == large["chunk"] == 0
    assert small["data"] == large["data"] == 0  # (sizes are preset)
    assert small["filter"] - 50 == large["filter"] - 200
    assert small["filter"] - 50 <= 2  # the move's filter (and wildcard)
    assert small["filter"] == small["measured"]
    assert large["filter"] == large["measured"]


def test_a_chunk_is_measured_once_however_often_it_is_sized(encoded):
    """An ``AssetMonitor`` chunk has no preset size: exporting sums it
    from its parts, never encoding it, and the put, ``_note_chunk`` and
    the report read the cached size. Its data is measured once, and
    each flowid object once, however many chunks and requests carry it."""
    result = run_move_experiment(guarantee="lf", n_flows=20)
    assert result.report.total_chunks > 0
    assert encoded["chunk"] == encoded["message"] == 0
    assert encoded["data"] == result.report.total_chunks
    measured = encoded["measured"]
    assert encoded["filter"] == len(measured) == len({id(f) for f in measured})


# ------------------------------------------- one streamed chunk, counted


@pytest.fixture
def chunk_path_counts(monkeypatch):
    """Calls of what the per-chunk path must not repeat, by name."""
    counts = collections.Counter()

    def count(cls, name, key):
        real = getattr(cls, name)

        def counting(self, *args, **kwargs):
            counts[key] += 1
            return real(self, *args, **kwargs)

        monkeypatch.setattr(cls, name, counting)

    count(Filter, "__hash__", "filter_hash")
    count(Scope, "__hash__", "scope_hash")
    count(Event, "__init__", "event")
    count(protocol.Request, "__init__", "request")
    # (``value`` is the enum's own property, not reachable on the class.)
    monkeypatch.setattr(Scope, "value", property(
        lambda self: counts.update(["scope_value"]) or self._value_),
        raising=False)
    return counts


class TestChunkPathCounts:
    """Counted, not timed: what one more streamed chunk costs the host.

    A loss-free move of preloaded DummyNF state, then a copy of it on to
    a third instance, at two sizes. The difference between the sizes is
    what the extra chunks cost, so what an operation pays once drops out.
    """

    #: ``events_processed`` of each size, as counted at 75ef6ae: the
    #: trims on this path move no simulator event.
    EVENTS = {25: 408, 50: 783}

    def _move_and_copy(self, counts, n_flows):
        dep = Deployment()
        for name in ("src", "dst", "copy"):
            dep.add_nf(DummyNF(dep.sim, name))
        dep.nfs["src"].preload(n_flows)
        flt = Filter({"nw_src": "172.16.0.0/16"}, symmetric=True)
        counts.clear()
        move = dep.controller.move(
            "src", "dst", flt, scope="per", guarantee=Guarantee.LOSS_FREE)
        dep.sim.run()
        copy = dep.controller.copy("dst", "copy", flt, scope="per")
        dep.sim.run()
        chunks = move.done.value.total_chunks + copy.done.value.total_chunks
        assert chunks == 2 * n_flows
        assert dep.sim.events_processed == self.EVENTS[n_flows]
        return dict(counts), chunks

    def test_one_more_chunk_costs_a_fixed_count(self, chunk_path_counts):
        small, small_chunks = self._move_and_copy(chunk_path_counts, 25)
        large, large_chunks = self._move_and_copy(chunk_path_counts, 50)
        extra = large_chunks - small_chunks

        def per_chunk(key):
            return (large.get(key, 0) - small.get(key, 0)) / extra

        # A store read at the source, and one dict probe per write or
        # pop: the move's delete and both imports.
        assert per_chunk("filter_hash") <= 3
        # The state table and the put dispatch name a scope by its tag.
        assert per_chunk("scope_hash") == 0
        assert per_chunk("scope_value") == 0
        # The put's completion event, its process's ``done`` and at most
        # a turn on a busy NF.
        assert per_chunk("event") <= 3
        # A put header is sized once per chunk count, not once per put.
        assert per_chunk("request") <= 0


if __name__ == "__main__":
    for rpc in RPCS:
        for mode in (False, True):
            print("    (%r, %r): %r," % (rpc, mode, measure_rpc(rpc, mode)))
