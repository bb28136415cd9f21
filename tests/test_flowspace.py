"""Tests for IP helpers, five-tuples, filters, and flow ids."""

import pytest

from repro.flowspace import Filter, FiveTuple, FlowId, ip_in_prefix, ip_to_int
from repro.flowspace.fivetuple import TCP, UDP
from repro.flowspace import filter as filter_module, ip as ip_module
from repro.flowspace.ip import parse_prefix, prefix_covers, prefixes_overlap
from repro.net.packet import Packet


class TestIpHelpers:
    def test_ip_to_int(self):
        assert ip_to_int("0.0.0.0") == 0
        assert ip_to_int("0.0.0.1") == 1
        assert ip_to_int("10.0.0.0") == 10 * 2**24
        assert ip_to_int("255.255.255.255") == 2**32 - 1

    def test_ip_to_int_rejects_bad_input(self):
        with pytest.raises(ValueError):
            ip_to_int("10.0.0")
        with pytest.raises(ValueError):
            ip_to_int("10.0.0.300")

    def test_parse_prefix_bare_address_is_slash32(self):
        network, mask = parse_prefix("10.1.2.3")
        assert mask == 0xFFFFFFFF
        assert network == ip_to_int("10.1.2.3")

    def test_parse_prefix_slash8(self):
        network, mask = parse_prefix("10.0.0.0/8")
        assert mask == 0xFF000000
        assert network == ip_to_int("10.0.0.0")

    def test_parse_prefix_zero_length_matches_all(self):
        assert ip_in_prefix("192.168.1.1", "0.0.0.0/0")

    def test_parse_prefix_rejects_bad_length(self):
        with pytest.raises(ValueError):
            parse_prefix("10.0.0.0/33")

    def test_ip_in_prefix(self):
        assert ip_in_prefix("10.1.2.3", "10.0.0.0/8")
        assert not ip_in_prefix("11.1.2.3", "10.0.0.0/8")
        assert ip_in_prefix("10.0.1.7", "10.0.1.0/24")
        assert not ip_in_prefix("10.0.2.7", "10.0.1.0/24")

    def test_prefix_covers(self):
        assert prefix_covers("10.0.0.0/8", "10.1.0.0/16")
        assert not prefix_covers("10.1.0.0/16", "10.0.0.0/8")
        assert prefix_covers("10.0.0.0/8", "10.0.0.0/8")
        assert not prefix_covers("10.0.0.0/8", "11.0.0.0/16")

    def test_prefixes_overlap(self):
        assert prefixes_overlap("10.0.0.0/8", "10.5.0.0/16")
        assert prefixes_overlap("10.5.0.0/16", "10.0.0.0/8")
        assert not prefixes_overlap("10.0.0.0/8", "11.0.0.0/8")
        assert prefixes_overlap("0.0.0.0/0", "203.0.113.9")


class TestFiveTuple:
    def test_reversed_swaps_endpoints(self, flow):
        rev = flow.reversed()
        assert rev.src_ip == flow.dst_ip
        assert rev.src_port == flow.dst_port
        assert rev.dst_ip == flow.src_ip
        assert rev.proto == flow.proto

    def test_canonical_is_direction_independent(self, flow):
        assert flow.canonical() == flow.reversed().canonical()

    def test_canonical_is_idempotent(self, flow):
        assert flow.canonical().canonical() == flow.canonical()

    def test_headers_fields(self, flow):
        headers = flow.headers()
        assert headers["nw_src"] == "10.0.1.2"
        assert headers["tp_dst"] == 80
        assert headers["nw_proto"] == TCP

    def test_proto_name(self, flow):
        assert flow.proto_name == "tcp"
        udp = FiveTuple("1.2.3.4", 5, "6.7.8.9", 53, UDP)
        assert udp.proto_name == "udp"

    def test_equality_and_hash(self, flow):
        same = FiveTuple("10.0.1.2", 1234, "203.0.113.5", 80)
        assert flow == same
        assert hash(flow) == hash(same)

    def test_str_representation(self, flow):
        assert "10.0.1.2:1234" in str(flow)
        assert "tcp" in str(flow)


class TestFilterPacketMatching:
    def test_wildcard_matches_everything(self, flow):
        packet = Packet(flow)
        assert Filter.wildcard().matches_packet(packet)

    def test_exact_ip_match(self, flow):
        assert Filter({"nw_src": "10.0.1.2"}).matches_packet(Packet(flow))
        assert not Filter({"nw_src": "10.0.1.3"}).matches_packet(Packet(flow))

    def test_prefix_match(self, flow):
        assert Filter({"nw_src": "10.0.0.0/8"}).matches_packet(Packet(flow))
        assert not Filter({"nw_src": "192.168.0.0/16"}).matches_packet(Packet(flow))

    def test_port_and_proto_match(self, flow):
        assert Filter({"tp_dst": 80, "nw_proto": TCP}).matches_packet(Packet(flow))
        assert not Filter({"tp_dst": 443}).matches_packet(Packet(flow))

    def test_tcp_flags_require_all_named_flags(self, flow):
        syn_ack = Packet(flow, tcp_flags=("SYN", "ACK"))
        assert Filter({"tcp_flags": "SYN"}).matches_packet(syn_ack)
        assert Filter({"tcp_flags": ("SYN", "ACK")}).matches_packet(syn_ack)
        assert not Filter({"tcp_flags": "FIN"}).matches_packet(syn_ack)

    def test_flags_filter_misses_packet_without_flags(self, flow):
        assert not Filter({"tcp_flags": "SYN"}).matches_packet(Packet(flow))

    def test_directional_filter_misses_reverse_packet(self, flow):
        reply = Packet(flow.reversed())
        flt = Filter({"nw_src": "10.0.0.0/8"})
        assert not flt.matches_packet(reply)

    def test_symmetric_filter_matches_both_directions(self, flow):
        flt = Filter({"nw_src": "10.0.0.0/8"}, symmetric=True)
        assert flt.matches_packet(Packet(flow))
        assert flt.matches_packet(Packet(flow.reversed()))

    def test_symmetric_swaps_ports_consistently(self, flow):
        flt = Filter({"nw_src": "10.0.1.2", "tp_src": 1234}, symmetric=True)
        assert flt.matches_packet(Packet(flow))
        assert flt.matches_packet(Packet(flow.reversed()))
        # Mixed orientation must not match: src ip of one side with src
        # port of the other.
        mixed = Filter({"nw_src": "10.0.1.2", "tp_src": 80}, symmetric=True)
        assert not mixed.matches_packet(Packet(flow))
        assert not mixed.matches_packet(Packet(flow.reversed()))

    def test_for_flow_exact_filter(self, flow):
        flt = Filter.for_flow(flow)
        assert flt.matches_packet(Packet(flow))
        assert flt.matches_packet(Packet(flow.reversed()))
        other = FiveTuple("10.0.1.2", 9999, "203.0.113.5", 80)
        assert not flt.matches_packet(Packet(other))

    def test_extra_header_match(self, flow):
        packet = Packet(flow, extra_headers={"http_url": "/x"})
        assert Filter({"http_url": "/x"}).matches_packet(packet)
        assert not Filter({"http_url": "/y"}).matches_packet(packet)


class TestFilterAlgebra:
    def test_covers_broader_prefix(self):
        broad = Filter({"nw_src": "10.0.0.0/8"})
        narrow = Filter({"nw_src": "10.1.0.0/16"})
        assert broad.covers(narrow)
        assert not narrow.covers(broad)

    def test_covers_requires_field_presence(self):
        constrained = Filter({"tp_dst": 80})
        wildcard = Filter.wildcard()
        assert wildcard.covers(constrained)
        assert not constrained.covers(wildcard)

    def test_covers_exact_fields(self):
        a = Filter({"tp_dst": 80, "nw_proto": 6})
        b = Filter({"tp_dst": 80, "nw_proto": 6, "nw_src": "10.0.0.1"})
        assert a.covers(b)
        assert not b.covers(a)

    def test_symmetric_covers_through_either_orientation(self):
        """A per-flow filter is stored canonically (smaller endpoint
        first), so the end a symmetric prefix names may sit in either
        role; an oriented prefix still covers only its own role."""
        server_first = Filter.for_flow(
            FiveTuple("192.168.1.7", 40000, "10.9.9.9", 80).canonical())
        assert server_first.fields["nw_dst"] == "192.168.1.7"
        clients = {"nw_src": "192.168.1.0/24"}
        assert Filter(clients, symmetric=True).covers(server_first)
        assert not Filter(clients).covers(server_first)
        assert Filter({"nw_dst": "192.168.1.0/24"}).covers(server_first)
        both = Filter({"nw_src": "192.168.1.0/24", "tp_src": 40000},
                      symmetric=True)
        assert both.covers(server_first)
        assert not Filter(dict(both.fields, tp_src=80),
                          symmetric=True).covers(server_first)
        assert not Filter({"nw_src": "172.16.0.0/12"},
                          symmetric=True).covers(server_first)

    def test_intersects_overlapping_prefixes(self):
        a = Filter({"nw_src": "10.0.0.0/8"})
        b = Filter({"nw_src": "10.5.0.0/16"})
        assert a.intersects(b)
        assert b.intersects(a)

    def test_intersects_disjoint_fields_false(self):
        a = Filter({"tp_dst": 80})
        b = Filter({"tp_dst": 443})
        assert not a.intersects(b)

    def test_intersects_on_disjoint_dimensions(self):
        a = Filter({"tp_dst": 80})
        b = Filter({"nw_src": "10.0.0.0/8"})
        assert a.intersects(b)

    def test_equality_and_hash(self):
        a = Filter({"nw_src": "10.0.0.0/8", "tp_dst": 80})
        b = Filter({"tp_dst": 80, "nw_src": "10.0.0.0/8"})
        assert a == b
        assert hash(a) == hash(b)
        assert a != Filter({"tp_dst": 80})
        assert a != Filter({"nw_src": "10.0.0.0/8", "tp_dst": 80}, symmetric=True)

    def test_roundtrip_dict(self):
        flt = Filter({"nw_src": "10.0.0.0/8", "tcp_flags": frozenset({"SYN"})},
                     symmetric=True)
        again = Filter.from_dict(flt.to_dict())
        assert again.symmetric
        assert again.fields["nw_src"] == "10.0.0.0/8"

    @pytest.mark.parametrize("cls", [Filter, FlowId])
    def test_tcp_flags_survive_the_wire_codec(self, cls):
        """``to_dict`` ships the flag set as a sorted list; what comes
        back must be the same filter — equal, hash-equal, hashable."""
        flt = cls({"nw_src": "10.0.0.0/8",
                   "tcp_flags": frozenset({"SYN", "ACK"})}, symmetric=True)
        again = cls.from_dict(flt.to_dict())
        assert type(again) is cls
        assert again == flt and flt == again
        assert hash(again) == hash(flt)
        assert again.to_dict() == flt.to_dict()
        assert {flt: 1}[again] == 1

    def test_tcp_flags_spellings_are_one_filter(self):
        """``"SYN"`` (apps/failover), ``frozenset({"SYN"})`` (Packet) and
        the decoded list are the same predicate, hence the same filter;
        the spelling — and so the wire bytes — is kept as given."""
        spellings = ["SYN", frozenset({"SYN"}), ["SYN"], {"SYN"}, ("SYN",)]
        filters = [Filter({"tp_dst": 80, "tcp_flags": s}) for s in spellings]
        for flt in filters:
            assert flt == filters[0] and filters[0] == flt
            assert hash(flt) == hash(filters[0])
        assert len(set(filters)) == 1
        assert filters[0].to_dict()["fields"]["tcp_flags"] == "SYN"
        assert filters[1].to_dict()["fields"]["tcp_flags"] == ["SYN"]
        assert filters[0] != Filter({"tp_dst": 80, "tcp_flags": "ACK"})
        assert filters[0] != Filter({"tp_dst": 80})
        assert Filter({"tp_dst": 80}) != filters[0]

    def test_equality_needs_no_sort(self, monkeypatch):
        """Identity is decided on the field dicts; only the first hash of
        an object sorts (field names, once)."""
        calls = []
        monkeypatch.setattr(
            filter_module, "sorted",
            lambda *a, **kw: calls.append(1) or sorted(*a, **kw),
            raising=False,
        )
        a = Filter({"nw_src": "10.0.0.0/8", "tp_dst": 80})
        b = Filter({"tp_dst": 80, "nw_src": "10.0.0.0/8"})
        for _ in range(10):
            assert a == b and a != Filter({"tp_dst": 80})
        assert calls == []
        for _ in range(10):
            hash(a)
        assert calls == [1]


class TestFlowIdMatching:
    def test_flowid_for_flow_is_hashable(self, flow):
        a = FlowId.for_flow(flow.canonical())
        b = FlowId.for_flow(flow.reversed().canonical())
        assert a == b
        assert hash(a) == hash(b)

    def test_filter_matches_perflow_flowid(self, flow):
        fid = FlowId.for_flow(flow)
        assert Filter({"nw_src": "10.0.0.0/8"}).matches_flowid(fid)
        assert not Filter({"nw_src": "172.16.0.0/12"}).matches_flowid(fid)

    def test_symmetric_flowid_matches_reversed_constraint(self, flow):
        fid = FlowId.for_flow(flow)  # symmetric by default
        assert Filter({"nw_dst": "10.0.1.2"}).matches_flowid(fid)

    def test_relevant_fields_restrict_matching(self, flow):
        fid = FlowId.for_host("203.0.113.5")
        flt = Filter({"nw_src": "10.0.0.0/8", "tp_dst": 80})
        # With only IP fields relevant, the host id lacks a matching IP.
        assert not flt.matches_flowid(fid, relevant_fields=("nw_src", "nw_dst"))
        host_filter = Filter({"nw_src": "203.0.113.0/24"})
        assert host_filter.matches_flowid(fid, relevant_fields=("nw_src", "nw_dst"))

    def test_flowid_missing_field_is_coarser(self):
        host = FlowId.for_host("10.0.1.2")
        # tp_dst constraint ignored: the host id has no port granularity.
        assert Filter({"nw_src": "10.0.0.0/8", "tp_dst": 80}).matches_flowid(host)

    def test_flowid_prefix_value_must_be_covered(self):
        subnet_state = FlowId({"nw_src": "10.1.0.0/16"})
        assert Filter({"nw_src": "10.0.0.0/8"}).matches_flowid(subnet_state)
        assert not Filter({"nw_src": "10.2.0.0/16"}).matches_flowid(subnet_state)

    def test_flowid_roundtrip(self, flow):
        fid = FlowId.for_flow(flow)
        again = FlowId.from_dict(fid.to_dict())
        assert again == fid


class TestBoundedMemos:
    """The process-global memo tables share one bounded policy."""

    def test_tables_stay_under_their_cap(self):
        tables = {
            "addresses": ip_module._ADDR_CACHE,
            "prefixes": ip_module._PREFIX_CACHE,
            "host flowids": filter_module._HOST_IDS,
        }
        cap = ip_module.MEMO_CAP
        assert 200_000 > 2 * cap  # the feed below forces evictions
        probe = "10.200.0.1"
        before = FlowId.for_host(probe)
        assert FlowId.for_host(probe) is before
        for n in range(200_000):
            ip = "10.%d.%d.%d" % (n >> 16, (n >> 8) & 0xFF, n & 0xFF)
            assert ip_to_int(ip) == (10 << 24) | n
            parse_prefix(ip + "/24")
            FlowId.for_host(ip)
            if n % 4096 == 0:
                for name, table in tables.items():
                    assert len(table) <= cap, name
        for name, table in tables.items():
            assert 0 < len(table) <= cap, name
        # The probe was evicted on the way: interning is an
        # optimisation, equality falls back to comparing values.
        after = FlowId.for_host(probe)
        fresh = FlowId({"nw_src": probe}, symmetric=True)
        assert after is not before
        for host_id in (before, after):
            assert host_id == fresh and fresh == host_id
            assert hash(host_id) == hash(fresh)
        assert FlowId.for_host(probe) is after
        store = {before: "record"}
        assert store[after] == "record"

    def test_memoize_drops_a_full_table_whole(self):
        table = {str(n): n for n in range(ip_module.MEMO_CAP)}
        assert ip_module.memoize(table, "new", 1) == 1
        assert table == {"new": 1}
