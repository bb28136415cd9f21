"""Differential tests pinning the indexed fast paths to the linear oracles.

The production classes (FlowTable buckets, the NF event-rule index,
FlowKeyedStore) hold only the indexed path; the linear scans they
replaced are pure functions in ``tests/oracles.py`` over the same
objects' public iteration order. These tests drive randomized workloads
— exact, symmetric, reversed, prefix, port-only, and wildcard filters,
with interleaved removals — through both and require bit-identical
results: same winning entries, same forward logs, same event actions,
same state-key lists in the same order.
"""

import random

import pytest

from repro.flowspace import Filter, FiveTuple, FlowId
from repro.flowspace.filter import packet_match_keys
from repro.net import FlowTable, Link, Packet, Switch
from repro.net.packet import reset_uid_counter
from repro.nf.events import EventAction
from repro.nfs.dummy import DummyNF
from repro.sim import Simulator
from tests.oracles import (
    linear_find,
    linear_keys_matching,
    linear_lookup,
    linear_match_rule,
    linear_overlapping,
)

IPS = ["10.0.%d.%d" % (i // 200, 1 + i % 200) for i in range(2000)] + \
    ["203.0.113.%d" % i for i in range(1, 4)]
PORTS = [80, 443, 1234, 5555]


def random_five_tuple(rng):
    src, dst = rng.sample(IPS, 2)
    return FiveTuple(src, rng.choice(PORTS), dst, rng.choice(PORTS))


def random_filter(rng, pool=None):
    """A filter drawn from every shape the data plane sees.

    ``pool`` is a list of five-tuples the exact filters are drawn from,
    so packets sampled from the same pool actually hit them.
    """
    kind = rng.randrange(8)
    if kind == 0:
        return Filter.wildcard()
    if kind == 1:
        return Filter({"nw_src": rng.choice(["10.0.0.0/8", "203.0.113.0/24"])})
    if kind == 2:
        return Filter({"tp_dst": rng.choice(PORTS)})
    if kind == 3:
        return Filter({"nw_src": rng.choice(IPS[:20])})
    ft = rng.choice(pool) if pool else random_five_tuple(rng)
    if rng.random() < 0.3:
        ft = ft.reversed()
    return Filter(ft.headers(), symmetric=(kind >= 6))


class TestExactKey:
    def test_wildcard_and_partial_filters_have_no_key(self):
        assert Filter.wildcard().exact_key() is None
        assert Filter({"nw_src": "10.0.0.1"}).exact_key() is None
        assert Filter({"nw_src": "10.0.0.0/8"}).exact_key() is None
        ft = FiveTuple("10.0.0.1", 80, "10.0.0.2", 443)
        extra = dict(ft.headers(), http_url="/x")
        assert Filter(extra).exact_key() is None

    def test_prefix_in_full_tuple_disqualifies(self):
        ft = FiveTuple("10.0.0.1", 80, "10.0.0.2", 443)
        fields = dict(ft.headers(), nw_src="10.0.0.0/24")
        assert Filter(fields).exact_key() is None

    def test_slash_32_counts_as_exact(self):
        ft = FiveTuple("10.0.0.1", 80, "10.0.0.2", 443)
        fields = dict(ft.headers(), nw_src="10.0.0.1/32")
        assert Filter(fields).exact_key() == Filter(ft.headers()).exact_key()

    def test_oriented_keys_distinguish_direction(self):
        ft = FiveTuple("10.0.0.1", 80, "10.0.0.2", 443)
        fwd = Filter(ft.headers()).exact_key()
        rev = Filter(ft.reversed().headers()).exact_key()
        assert fwd is not None and rev is not None and fwd != rev

    def test_symmetric_keys_canonicalize_direction(self):
        ft = FiveTuple("10.0.0.1", 80, "10.0.0.2", 443)
        fwd = Filter(ft.headers(), symmetric=True).exact_key()
        rev = Filter(ft.reversed().headers(), symmetric=True).exact_key()
        assert fwd is not None and fwd == rev

    def test_packet_keys_hit_matching_filters(self):
        """A filter matches a packet iff one of the packet's two keys is
        the filter's key — the invariant the bucket probe relies on."""
        rng = random.Random(7)
        for _ in range(300):
            flt_tuple = random_five_tuple(rng)
            symmetric = rng.random() < 0.5
            flt = Filter(flt_tuple.headers(), symmetric=symmetric)
            packet = Packet(random_five_tuple(rng))
            keys = packet_match_keys(packet.headers())
            assert (flt.exact_key() in keys) == flt.matches_packet(packet)


class TestFlowTableDifferential:
    def test_randomized_lookup_equivalence(self):
        """≥1k randomized rules with churn: indexed lookup returns the
        exact same entry object as the linear oracle for every packet."""
        rng = random.Random(42)
        pool = [random_five_tuple(rng) for _ in range(2000)]
        table = FlowTable()
        installed = []
        for step in range(4000):
            if installed and rng.random() < 0.2:
                flt, priority = rng.choice(installed)
                table.remove(flt, priority)
            else:
                flt = random_filter(rng, pool)
                priority = rng.choice([10, 100, 100, 100, 1000])
                table.install(flt, priority, ["p%d" % step], float(step))
                installed.append((flt, priority))
        assert len(table) >= 1000
        for _ in range(500):
            packet = Packet(rng.choice(pool) if rng.random() < 0.7
                            else random_five_tuple(rng))
            assert table.lookup(packet) is linear_lookup(table, packet)

    def test_randomized_find_and_overlap_equivalence(self):
        rng = random.Random(43)
        pool = [random_five_tuple(rng) for _ in range(150)]
        table = FlowTable()
        filters = [random_filter(rng, pool) for _ in range(400)]
        for i, flt in enumerate(filters):
            table.install(flt, rng.choice([10, 100, 1000]), ["p%d" % i],
                          float(i))
        for _ in range(200):
            probe = rng.choice(filters) if rng.random() < 0.7 else \
                random_filter(rng, pool)
            assert table.find(probe) is linear_find(table, probe)
            assert [e.entry_id for e in table.entries_overlapping(probe)] \
                == [e.entry_id for e in linear_overlapping(table, probe)]

    def test_switch_forward_log_matches_oracle(self):
        """End to end: every packet the switch forwards took the
        actions of the entry the linear oracle picks for it."""
        reset_uid_counter()
        rng = random.Random(99)
        pool = [random_five_tuple(rng) for _ in range(200)]
        sim = Simulator()
        switch = Switch(sim)
        for port in ("a", "b", "c"):
            switch.attach(port, lambda p: None, Link(sim))
        for step in range(300):
            switch.table.install(
                random_filter(rng, pool), rng.choice([10, 100, 1000]),
                [rng.choice(["a", "b", "c"])], 0.0,
            )
        packets = [Packet(rng.choice(pool)) for _ in range(400)]
        expected = []
        for packet in packets:
            entry = linear_lookup(switch.table, packet)
            if entry is not None:
                expected.append((packet.uid, entry.actions))
            switch.inject(packet)
        sim.run()
        assert [(uid, actions) for _when, uid, actions
                in switch.forward_log] == expected


class TestEventRuleDifferential:
    def _loaded_nf(self, rng, pool):
        nf = DummyNF(Simulator(), "dut")
        actions = [EventAction.PROCESS, EventAction.BUFFER, EventAction.DROP]
        enabled = []
        for _ in range(800):
            if enabled and rng.random() < 0.15:
                nf.sb_disable_events(rng.choice(enabled))
            else:
                flt = random_filter(rng, pool)
                nf.sb_enable_events(flt, rng.choice(actions))
                enabled.append(flt)
        return nf

    def test_match_rule_equivalence(self):
        rng = random.Random(4242)
        pool = [random_five_tuple(rng) for _ in range(500)]
        nf = self._loaded_nf(rng, pool)
        assert nf.event_rule_count > 300
        for _ in range(500):
            packet = Packet(rng.choice(pool) if rng.random() < 0.7
                            else random_five_tuple(rng))
            fast = nf._match_rule(packet)
            slow = linear_match_rule(nf, packet)
            assert fast is slow
            if fast is not None:
                assert fast.effective_action(packet) is \
                    slow.effective_action(packet)

    def test_update_in_place_keeps_precedence(self):
        """Re-enabling an existing filter must not promote it over rules
        enabled later — for the index or for the oracle's view of it."""
        ft = FiveTuple("10.0.0.1", 80, "10.0.0.2", 443)
        nf = DummyNF(Simulator(), "dut")
        nf.sb_enable_events(Filter(ft.headers()), EventAction.BUFFER)
        nf.sb_enable_events(Filter.wildcard(), EventAction.DROP)
        nf.sb_enable_events(Filter(ft.headers()), EventAction.PROCESS)
        rule = nf._match_rule(Packet(ft))
        assert rule.action is EventAction.DROP
        assert linear_match_rule(nf, Packet(ft)) is rule


class TestStateStoreDifferential:
    def test_keys_matching_equivalence(self):
        rng = random.Random(77)
        store = DummyNF(Simulator(), "dut").flows
        for step in range(800):
            if rng.random() < 0.65:
                fid = FlowId.for_flow(random_five_tuple(rng).canonical())
            elif rng.random() < 0.5:
                fid = FlowId.for_host(rng.choice(IPS))
            else:
                fid = FlowId(random_five_tuple(rng).headers())
            if fid in store and rng.random() < 0.3:
                del store[fid]
            else:
                store[fid] = {"step": step}
        relevant = ("nw_src", "nw_dst", "nw_proto", "tp_src", "tp_dst")
        for _ in range(300):
            flt = random_filter(rng)
            assert store.keys_matching(flt, relevant) == \
                linear_keys_matching(store, flt, relevant)

    def test_projection_drops_fast_path_not_matches(self):
        """When relevant_fields discards some constraints, the indexed
        store must fall back to full §4.2 semantics."""
        ft = FiveTuple("10.0.0.1", 80, "10.0.0.2", 443)
        store = DummyNF(Simulator(), "dut").flows
        host = FlowId.for_host("10.0.0.1")
        store[host] = {}
        flt = Filter(ft.headers())
        # Projected onto IPs only, the full-tuple filter still selects the
        # host aggregate; index and oracle must agree.
        relevant = ("nw_src", "nw_dst")
        assert store.keys_matching(flt, relevant) == \
            linear_keys_matching(store, flt, relevant) == [host]
