"""Tests for the Squid-like proxy, the NAT, the RE pair, and the dummy NF."""

import pytest

from repro.flowspace import Filter, FiveTuple, FlowId
from repro.harness import Deployment
from repro.net.packet import HEADER_OVERHEAD_BYTES
from repro.nf import NFCrash, Scope
from repro.nfs.dummy import DUMMY_CHUNK_BYTES, DummyNF
from repro.nfs.nat import ESTABLISHED, NetworkAddressTranslator
from repro.nfs.proxy import CachingProxy, pull_payload, request_payload
from repro.nfs.redup import RE_TOKEN_HEADER, REDecoder, REEncoder, fingerprint
from tests.conftest import make_packet


def client_flow(i=0, client="10.0.1.2"):
    return FiveTuple(client, 40000 + i, "203.0.113.5", 80)


def send_request(sim, proxy, flow, url, size):
    proxy.receive(make_packet(flow, payload=request_payload(url, size)))
    sim.run()


class TestCachingProxy:
    def test_miss_then_hit(self, sim):
        proxy = CachingProxy(sim, "squid")
        send_request(sim, proxy, client_flow(0), "/a", 1000)
        send_request(sim, proxy, client_flow(1), "/a", 1000)
        assert proxy.stats["misses"] == 1
        assert proxy.stats["hits"] == 1
        assert proxy.hit_ratio() == 0.5

    def test_transaction_progresses_with_pulls(self, sim):
        proxy = CachingProxy(sim, "squid")
        flow = client_flow()
        send_request(sim, proxy, flow, "/big", 200_000)
        assert len(proxy.transactions) == 1
        proxy.receive(make_packet(flow, payload=pull_payload()))
        sim.run()
        txn = list(proxy.transactions.values())[0]
        assert txn.sent_bytes == 131072  # two chunks of 64 KiB
        for _ in range(2):
            proxy.receive(make_packet(flow, payload=pull_payload()))
        sim.run()
        assert len(proxy.transactions) == 0  # complete

    def test_missing_cache_entry_crashes_in_progress_transfer(self, sim):
        proxy = CachingProxy(sim, "squid")
        flow = client_flow()
        send_request(sim, proxy, flow, "/obj", 500_000)
        del proxy.cache["/obj"]
        proxy.receive(make_packet(flow, payload=pull_payload()))
        sim.run()
        assert proxy.failed
        assert "missing" in proxy.failure_reason

    def test_fin_clears_transaction(self, sim):
        proxy = CachingProxy(sim, "squid")
        flow = client_flow()
        send_request(sim, proxy, flow, "/obj", 500_000)
        proxy.receive(make_packet(flow, flags=("FIN", "ACK")))
        sim.run()
        assert len(proxy.transactions) == 0

    def test_multiflow_keys_by_client_reference(self, sim):
        proxy = CachingProxy(sim, "squid")
        send_request(sim, proxy, client_flow(0, "10.0.1.2"), "/a", 500_000)
        send_request(sim, proxy, client_flow(1, "10.0.9.9"), "/b", 500_000)
        keys = proxy.state_keys(Scope.MULTIFLOW, Filter({"nw_src": "10.0.1.2"}))
        assert keys == ["/a"]

    def test_multiflow_keys_wildcard_returns_all(self, sim):
        proxy = CachingProxy(sim, "squid")
        send_request(sim, proxy, client_flow(0), "/a", 1000)
        send_request(sim, proxy, client_flow(1), "/b", 1000)
        keys = proxy.state_keys(Scope.MULTIFLOW, Filter.wildcard())
        assert sorted(keys) == ["/a", "/b"]

    def test_multiflow_keys_by_url(self, sim):
        proxy = CachingProxy(sim, "squid")
        send_request(sim, proxy, client_flow(0), "/a", 1000)
        send_request(sim, proxy, client_flow(1), "/b", 1000)
        keys = proxy.state_keys(Scope.MULTIFLOW, Filter({"http_url": "/b"}))
        assert keys == ["/b"]

    def test_cache_chunk_size_reflects_object(self, sim):
        proxy = CachingProxy(sim, "squid")
        send_request(sim, proxy, client_flow(0), "/big", 4_000_000)
        chunk = proxy.export_chunk(Scope.MULTIFLOW, "/big")
        assert chunk.size_bytes > 4_000_000

    def test_cache_import_and_resume(self, sim):
        a = CachingProxy(sim, "a")
        b = CachingProxy(sim, "b")
        flow = client_flow()
        send_request(sim, a, flow, "/obj", 100_000)
        for scope in (Scope.MULTIFLOW, Scope.PERFLOW):
            for key in a.state_keys(scope, Filter.wildcard()):
                b.import_chunk(a.export_chunk(scope, key))
        b.receive(make_packet(flow, payload=pull_payload()))
        sim.run()
        assert not b.failed
        assert b.stats["bytes_served"] > 0

    def test_perflow_transaction_roundtrip(self, sim):
        a = CachingProxy(sim, "a")
        flow = client_flow()
        send_request(sim, a, flow, "/obj", 500_000)
        key = a.state_keys(Scope.PERFLOW, Filter.wildcard())[0]
        chunk = a.export_chunk(Scope.PERFLOW, key)
        assert chunk.data["url"] == "/obj"
        assert chunk.data["sent_bytes"] == 65536

    def test_allflows_stats_export(self, sim):
        proxy = CachingProxy(sim, "squid")
        send_request(sim, proxy, client_flow(), "/a", 100)
        chunk = proxy.export_chunk(Scope.ALLFLOWS, "stats")
        assert chunk.data["stats"]["requests"] == 1

    def test_delete_cache_entry_by_flowid(self, sim):
        proxy = CachingProxy(sim, "squid")
        send_request(sim, proxy, client_flow(), "/a", 100)
        fid = proxy.cache["/a"].flowid()
        assert proxy.delete_by_flowid(Scope.MULTIFLOW, fid) == 1
        assert "/a" not in proxy.cache


class TestNat:
    def test_syn_creates_entry(self, sim, flow):
        nat = NetworkAddressTranslator(sim, "nat")
        nat.receive(make_packet(flow, flags=("SYN",)))
        sim.run()
        entry = nat.entry_for(flow)
        assert entry is not None
        assert entry.external_port >= 10000

    def test_midflow_without_state_is_invalid(self, sim, flow):
        nat = NetworkAddressTranslator(sim, "nat")
        nat.receive(make_packet(flow, flags=("ACK",), payload="x"))
        sim.run()
        assert nat.invalid_packets == 1
        assert nat.entry_for(flow) is None

    def test_state_transitions_and_close(self, sim, flow):
        nat = NetworkAddressTranslator(sim, "nat")
        nat.receive(make_packet(flow, flags=("SYN",)))
        nat.receive(make_packet(flow, flags=("ACK",), payload="data"))
        sim.run()
        assert nat.entry_for(flow).state == ESTABLISHED
        nat.receive(make_packet(flow, flags=("FIN", "ACK")))
        sim.run()
        assert nat.entry_for(flow) is None

    def test_distinct_flows_get_distinct_ports(self, sim):
        nat = NetworkAddressTranslator(sim, "nat")
        flows = [client_flow(i) for i in range(3)]
        for flow in flows:
            nat.receive(make_packet(flow, flags=("SYN",)))
        sim.run()
        ports = {nat.entry_for(flow).external_port for flow in flows}
        assert len(ports) == 3

    def test_export_import_preserves_translation(self, sim, flow):
        a = NetworkAddressTranslator(sim, "a")
        b = NetworkAddressTranslator(sim, "b")
        a.receive(make_packet(flow, flags=("SYN",)))
        sim.run()
        key = a.state_keys(Scope.PERFLOW, Filter.wildcard())[0]
        chunk = a.export_chunk(Scope.PERFLOW, key)
        b.import_chunk(chunk)
        assert b.entry_for(flow).external_port == a.entry_for(flow).external_port
        # Port allocator moves past imported translations.
        other = client_flow(99)
        b.receive(make_packet(other, flags=("SYN",)))
        sim.run()
        assert b.entry_for(other).external_port > b.entry_for(flow).external_port

    def test_no_multiflow_or_allflows_state(self, sim, flow):
        nat = NetworkAddressTranslator(sim, "nat")
        nat.receive(make_packet(flow, flags=("SYN",)))
        sim.run()
        assert nat.state_keys(Scope.MULTIFLOW, Filter.wildcard()) == []
        assert nat.state_keys(Scope.ALLFLOWS, Filter.wildcard()) == []

    def test_continuity_after_move(self, sim, flow):
        a = NetworkAddressTranslator(sim, "a")
        b = NetworkAddressTranslator(sim, "b")
        a.receive(make_packet(flow, flags=("SYN",)))
        sim.run()
        key = a.state_keys(Scope.PERFLOW, Filter.wildcard())[0]
        b.import_chunk(a.export_chunk(Scope.PERFLOW, key))
        a.delete_by_flowid(Scope.PERFLOW, key)
        b.receive(make_packet(flow, flags=("ACK",), payload="more"))
        sim.run()
        assert b.invalid_packets == 0
        assert b.entry_for(flow).packets == 2


class TestRedundancyElimination:
    def test_encoder_tokenizes_repeats(self, sim, flow):
        encoder = REEncoder(sim, "enc")
        first = make_packet(flow, payload="hello world, this is a repeated payload")
        second = make_packet(flow, payload="hello world, this is a repeated payload")
        encoder.encode(first)
        encoder.encode(second)
        assert RE_TOKEN_HEADER not in first.extra_headers
        assert second.extra_headers[RE_TOKEN_HEADER] == fingerprint("hello world, this is a repeated payload")
        assert second.payload == ""
        assert encoder.bytes_saved > 0

    def test_stripped_packet_is_header_sized_on_the_wire(self, flow):
        # The encoder rewrites a payload in place after the packet was
        # built: its size, and the bytes the forwarding entry counts for
        # it downstream, must follow the rewrite.
        dep = Deployment()
        dep.add_nf(REDecoder(dep.sim, "dec"))
        dep.set_default_route("dec")
        encoder = REEncoder(dep.sim, "enc")
        body = "a payload long enough to be worth a token"
        raw = make_packet(flow, payload=body)
        repeat = make_packet(flow, payload=body, seq=len(body))
        for packet in (raw, repeat):
            encoder.encode(packet)
            dep.inject(packet)
        dep.run()
        assert repeat.payload == ""
        assert repeat.size_bytes == HEADER_OVERHEAD_BYTES
        entry = dep.switch.table.lookup(repeat)
        assert entry.actions == ("dec",)
        assert entry.packets == 2
        assert entry.bytes == 2 * HEADER_OVERHEAD_BYTES + len(body)

    def test_decoder_expands_known_token(self, sim, flow):
        decoder = REDecoder(sim, "dec")
        decoder.receive(make_packet(flow, payload="hello world, this is a repeated payload"))
        encoded = make_packet(flow)
        encoded.extra_headers[RE_TOKEN_HEADER] = fingerprint("hello world, this is a repeated payload")
        decoder.receive(encoded)
        sim.run()
        assert decoder.decoded_packets == 1
        assert decoder.desync_drops == 0

    def test_decoder_desyncs_when_token_precedes_data(self, sim, flow):
        decoder = REDecoder(sim, "dec")
        encoded = make_packet(flow)
        encoded.extra_headers[RE_TOKEN_HEADER] = fingerprint("hello world, this is a repeated payload")
        decoder.receive(encoded)  # arrives before the raw data packet
        decoder.receive(make_packet(flow, payload="hello world, this is a repeated payload"))
        sim.run()
        assert decoder.desync_drops == 1

    def test_store_moves_between_decoders(self, sim, flow):
        a = REDecoder(sim, "a")
        b = REDecoder(sim, "b")
        a.receive(make_packet(flow, payload="payload-1"))
        sim.run()
        chunk = a.export_chunk(Scope.ALLFLOWS, "store")
        b.import_chunk(chunk)
        encoded = make_packet(flow)
        encoded.extra_headers[RE_TOKEN_HEADER] = fingerprint("payload-1")
        b.receive(encoded)
        sim.run()
        assert b.decoded_packets == 1


class TestDummyNF:
    def test_preload_creates_fixed_size_chunks(self, sim):
        dummy = DummyNF(sim, "d")
        tuples = dummy.preload(10)
        assert len(tuples) == 10
        keys = dummy.state_keys(Scope.PERFLOW, Filter.wildcard())
        assert len(keys) == 10
        chunk = dummy.export_chunk(Scope.PERFLOW, keys[0])
        assert chunk.size_bytes == DUMMY_CHUNK_BYTES

    def test_processing_counts(self, sim):
        dummy = DummyNF(sim, "d")
        tuples = dummy.preload(1)
        dummy.receive(make_packet(tuples[0]))
        sim.run()
        key = dummy.state_keys(Scope.PERFLOW, Filter.wildcard())[0]
        assert dummy.flows[key]["counter"] == 1

    def test_import_and_delete(self, sim):
        a = DummyNF(sim, "a")
        b = DummyNF(sim, "b")
        a.preload(2)
        for key in a.state_keys(Scope.PERFLOW, Filter.wildcard()):
            b.import_chunk(a.export_chunk(Scope.PERFLOW, key))
            assert a.delete_by_flowid(Scope.PERFLOW, key) == 1
        assert len(b.flows) == 2
        assert len(a.flows) == 0
