"""Differential tests pinning the indexed fast paths to the linear oracles.

The production classes (FlowTable buckets, the NF event-rule index,
FlowKeyedStore) hold only the indexed path; the linear scans they
replaced are pure functions in ``tests/oracles.py`` over the same
objects' public iteration order. These tests drive randomized workloads
— exact, symmetric, reversed, prefix, port-only, and wildcard filters,
with interleaved removals — through both and require bit-identical
results: same winning entries, same forward logs, same event actions,
same state-key lists in the same order.

The flow key those fast paths probe with is extracted once per flow
direction (``Packet.match_keys``) and flows are named by one interned
``FlowId`` object; the next three classes pin that the shared key is
the freshly extracted one, that the ids really are one object from
packet to moved state, and — by count, not by clock — that the steady
state builds and sorts nothing per packet. ``TestCompiledFilters`` pins
the integer compare every match now runs (``compile_fields`` against
that shared key, or against a stored flowid's exact key) to the
dict-walking definition, and counts that a warm data path builds no
header dict and parses no prefix.
"""

import random

import pytest

from repro.flowspace import Filter, FiveTuple, FlowId
from repro.flowspace import filter as filter_module
from repro.flowspace import ip as ip_module
from repro.flowspace.filter import compile_fields, packet_match_keys
from repro.harness import Deployment
from repro.net import FlowTable, Link, Packet, Switch
from repro.net.packet import reset_uid_counter
from repro.net.xfsm import REDIRECT, BufferUntilRelease, XFSMInstance
from repro.nf.events import EventAction
from repro.nfs.dummy import DummyNF
from repro.nfs.ids import IntrusionDetector
from repro.nfs.monitor import AssetMonitor
from repro.nfs.redup import RE_TOKEN_HEADER
from repro.sim import Simulator
from repro.traffic import (
    TraceConfig,
    TraceReplayer,
    build_university_cloud_trace,
)
from tests.oracles import (
    linear_find,
    linear_keys_matching,
    linear_lookup,
    linear_match_rule,
    linear_overlapping,
    parsed_exact_key,
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
            if store.get(fid) is not None and rng.random() < 0.3:
                del store[fid]
            else:
                store[fid] = {"step": step}
        relevant = ("nw_src", "nw_dst", "nw_proto", "tp_src", "tp_dst")
        for _ in range(300):
            flt = random_filter(rng)
            assert store.keys_matching(flt, relevant) == \
                linear_keys_matching(store, flt, relevant)

    def test_write_path_keeps_insertion_order(self):
        """Every write and removal, against a plain dict doing the same:
        ``pop(fid)`` (and its ``KeyError``), ``pop(fid, default)``, an
        overwrite (the key keeps its place) and a re-insert after a pop
        (the key moves to the end). Few flows over few hosts, so exact
        buckets hold both orientations and host ids sit among them."""
        rng = random.Random(29)
        pool = small_pool(rng, size=10)
        hosts = sorted({ft.src_ip for ft in pool})
        store = DummyNF(Simulator(), "dut").flows
        mirror = {}
        done = {"pop": 0, "pop-default": 0, "pop-missing": 0,
                "overwrite": 0, "reinsert": 0}
        popped = set()

        def some_flowid():
            ft = rng.choice(pool)
            roll = rng.random()
            if roll < 0.4:
                return FlowId.for_flow(ft)
            if roll < 0.7:  # a fresh, equal object: probed by ``__eq__``
                return FlowId(ft.headers(), symmetric=rng.random() < 0.5)
            return FlowId.for_host(rng.choice(hosts))

        for step in range(1500):
            fid = some_flowid()
            roll = rng.random()
            if roll < 0.2:
                if fid in mirror:
                    assert store.pop(fid) == mirror.pop(fid)
                    popped.add(fid)
                    done["pop"] += 1
                else:
                    with pytest.raises(KeyError):
                        store.pop(fid)
                    done["pop-missing"] += 1
            elif roll < 0.35:
                assert store.pop(fid, "none") == mirror.pop(fid, "none")
                done["pop-default"] += 1
            else:
                if fid in mirror:
                    done["overwrite"] += 1
                elif fid in popped:
                    done["reinsert"] += 1
                store[fid] = mirror[fid] = {"step": step}
            if step % 10 == 0:
                assert list(store) == list(mirror)
                assert [(fid, store[fid]) for fid in store] == \
                    list(mirror.items())
                for _ in range(10):
                    flt = any_filter(rng, pool, parsable=True)
                    assert store.keys_matching(flt, FIVE_FIELDS) == \
                        linear_keys_matching(mirror, flt, FIVE_FIELDS)
        assert min(done.values()) > 50, done

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


def random_packet(rng, pool):
    """A packet over ``pool``, one in three carrying extra headers —
    a non-matching application field, or an override of a 5-tuple field
    (which moves the packet to another flow's key)."""
    ft = rng.choice(pool)
    if rng.random() < 0.3:
        ft = ft.reversed()
    extra = None
    roll = rng.random()
    if roll < 0.1:
        extra = {"http_url": "/x"}
    elif roll < 0.2:
        extra = {"tp_dst": rng.choice(PORTS)}
    elif roll < 0.3:
        extra = {"nw_src": rng.choice(pool).src_ip}
    flags = ("SYN",) if rng.random() < 0.2 else ()
    return Packet(ft, tcp_flags=flags, extra_headers=extra)


class TestSharedMatchKey:
    """One extracted key per packet, equal to a fresh extraction."""

    def test_key_agrees_with_fresh_extraction(self):
        rng = random.Random(5)
        pool = [random_five_tuple(rng) for _ in range(60)]
        for _ in range(600):
            packet = random_packet(rng, pool)
            assert packet.match_keys() == packet_match_keys(packet.headers())
            # asking again (memo hit, or slow path again) changes nothing
            assert packet.match_keys() == packet_match_keys(packet.headers())

    def test_key_is_memoized_per_flow_direction(self):
        ft = FiveTuple("10.0.0.1", 80, "10.0.0.2", 443)
        first, second = Packet(ft), Packet(ft, tcp_flags=("ACK",))
        assert first.match_keys() is second.match_keys()
        assert Packet(ft.reversed()).match_keys()[1] == first.match_keys()[1]
        assert Packet(ft.reversed()).match_keys()[0] != first.match_keys()[0]

    def test_headers_added_after_a_lookup_are_seen(self):
        """``nfs/redup`` adds its token to a packet already looked up;
        an override added the same way must move the key with it."""
        ft = FiveTuple("10.0.0.1", 80, "10.0.0.2", 443)
        other = FiveTuple("10.0.0.1", 80, "10.0.0.2", 8080)
        table = FlowTable()
        table.install(Filter.for_flow(ft), 100, ["a"], 0.0)
        table.install(Filter.for_flow(other), 100, ["b"], 0.0)
        table.install(Filter({RE_TOKEN_HEADER: "tok"}), 1000, ["tok"], 0.0)
        packet = Packet(ft)
        assert table.lookup(packet).actions == ("a",)
        packet.extra_headers[RE_TOKEN_HEADER] = "tok"
        assert packet.match_keys() == packet_match_keys(packet.headers())
        assert table.lookup(packet).actions == ("tok",)
        assert table.lookup(packet) is linear_lookup(table, packet)
        del packet.extra_headers[RE_TOKEN_HEADER]
        packet.extra_headers["tp_dst"] = 8080
        assert packet.match_keys() == Packet(other).match_keys()
        assert table.lookup(packet).actions == ("b",)
        # the flow's own memo is untouched by its odd packet
        assert Packet(ft).match_keys() == packet_match_keys(ft.headers())
        assert table.lookup(Packet(ft)).actions == ("a",)

    def test_lookups_with_extra_headers_match_the_oracles(self):
        rng = random.Random(6)
        pool = [random_five_tuple(rng) for _ in range(120)]
        table = FlowTable()
        nf = DummyNF(Simulator(), "dut")
        actions = [EventAction.PROCESS, EventAction.BUFFER, EventAction.DROP]
        for step in range(500):
            flt = random_filter(rng, pool)
            table.install(flt, rng.choice([10, 100, 1000]), ["p%d" % step],
                          float(step))
            nf.sb_enable_events(random_filter(rng, pool), rng.choice(actions))
        packets = [random_packet(rng, pool) for _ in range(600)]
        for packet in packets:
            assert table.lookup(packet) is linear_lookup(table, packet)
            assert nf._match_rule(packet) is linear_match_rule(nf, packet)
        # a token added after the first lookup, as redup does
        for packet in packets[:200]:
            packet.extra_headers[RE_TOKEN_HEADER] = "fp"
            assert packet.match_keys() == packet_match_keys(packet.headers())
            assert table.lookup(packet) is linear_lookup(table, packet)
            assert nf._match_rule(packet) is linear_match_rule(nf, packet)

    def test_xfsm_claims_what_its_filter_matches(self):
        """A machine over an exact filter claims by key, any other by
        headers: both are ``filter.matches_packet``."""
        rng = random.Random(9)
        pool = [random_five_tuple(rng) for _ in range(30)]
        switch = Switch(Simulator())
        machines = [
            XFSMInstance(switch, random_filter(rng, pool), BufferUntilRelease())
            for _ in range(60)
        ]
        assert any(m.filter.exact_key() is not None for m in machines)
        assert any(m.filter.exact_key() is None for m in machines)
        for _ in range(200):
            packet = random_packet(rng, pool)
            for machine in machines:
                assert machine.matches(packet) == \
                    machine.filter.matches_packet(packet)

    def test_symmetric_match_without_swapped_copy(self):
        """``matches_headers`` reads swapped fields instead of building
        a swapped dict; every filter shape agrees with the definition."""
        rng = random.Random(8)
        pool = [random_five_tuple(rng) for _ in range(40)]
        swap = {"nw_src": "nw_dst", "nw_dst": "nw_src",
                "tp_src": "tp_dst", "tp_dst": "tp_src"}
        for _ in range(600):
            flt = random_filter(rng, pool)
            if rng.random() < 0.3:
                flt = Filter(dict(flt.fields, tcp_flags="SYN"),
                             symmetric=rng.random() < 0.5)
            headers = random_packet(rng, pool).headers()
            oriented = Filter(flt.fields)
            swapped = {swap.get(k, k): v for k, v in headers.items()}
            expected = oriented.matches_headers(headers) or (
                flt.symmetric and oriented.matches_headers(swapped))
            assert flt.matches_headers(headers) == expected


def _steady_run(packets, rate_pps=5000.0):
    """``dp_steady`` in small: monitor + IDS behind two routes."""
    dep = Deployment(record_ground_truth=False)
    mon = AssetMonitor(dep.sim, "mon")
    ids = IntrusionDetector(dep.sim, "ids")
    dep.add_nf(mon)
    dep.add_nf(ids)
    dep.set_default_route("mon")
    dep.set_default_route(
        "ids", Filter({"nw_src": "10.0.1.0/28"}, symmetric=True))
    TraceReplayer(dep.sim, dep.inject, packets, rate_pps=rate_pps).start()
    dep.sim.run()
    assert mon.packets_processed + ids.packets_processed == len(packets)
    return mon, ids


class TestInternedFlowIds:
    def test_for_flow_is_one_object_per_flow(self):
        ft = FiveTuple("10.0.0.1", 80, "10.0.0.2", 443)
        fid = FlowId.for_flow(ft)
        assert FlowId.for_flow(ft) is fid
        fresh = FlowId(ft.headers(), symmetric=True)
        assert fid == fresh and fresh == fid and hash(fid) == hash(fresh)
        assert fid is not fresh and type(fid) is FlowId
        # both directions canonicalize to one tuple, hence one flowid
        back = ft.reversed()
        assert back.canonical() is ft.canonical()
        assert FlowId.for_flow(back.canonical()) is \
            FlowId.for_flow(ft.canonical())
        down = FiveTuple("10.0.0.2", 443, "10.0.0.1", 80)  # not canonical
        assert down.reversed().canonical() is down.canonical()
        assert down.canonical() == ft and down.canonical() is not ft
        assert FlowId.for_flow(down.canonical()) == fid
        # the oriented flowid is a different (un-memoized) thing
        oriented = FlowId.for_flow(ft, symmetric=False)
        assert oriented != fid and not oriented.symmetric
        assert FlowId.for_flow(ft) is fid

    def test_for_host_is_one_object_per_address(self):
        host = FlowId.for_host("10.0.0.7")
        assert FlowId.for_host("10.0.0.7") is host
        fresh = FlowId({"nw_src": "10.0.0.7"}, symmetric=True)
        assert host == fresh and hash(host) == hash(fresh)
        assert FlowId.for_host("10.0.0.8") is not host

    def test_store_probe_is_answered_by_identity(self, monkeypatch):
        """Packets of a flow probe the store with the stored key itself:
        CPython's dict never has to call ``Filter.__eq__``."""
        packets = build_university_cloud_trace(
            TraceConfig(seed=3, n_flows=40, data_packets=3)).packets
        _steady_run(packets)  # fill the per-flow memos
        compared = []
        original = Filter.__eq__

        def counting_eq(self, other):
            if isinstance(self, FlowId):  # not the route filters' installs
                compared.append((self, other))
            return original(self, other)

        monkeypatch.setattr(Filter, "__eq__", counting_eq)
        mon, ids = _steady_run(packets)
        assert len(mon.conns) + len(ids.conns) >= 30
        assert compared == []

    def test_moved_state_keeps_the_source_key_object(self):
        trace = build_university_cloud_trace(
            TraceConfig(seed=4, n_flows=40, data_packets=6))
        dep = Deployment()
        src = AssetMonitor(dep.sim, "inst1")
        dst = AssetMonitor(dep.sim, "inst2")
        dep.add_nf(src)
        dep.add_nf(dst)
        dep.set_default_route("inst1")
        replayer = TraceReplayer(
            dep.sim, dep.inject, trace.packets, rate_pps=2500.0).start()
        held = {}
        ops = []

        def move():
            held.update((fid, fid) for fid in src.conns)
            ops.append(dep.controller.move(
                "inst1", "inst2", Filter({"nw_src": "10.0.0.0/16"},
                                         symmetric=True),
                scope="per", guarantee="lf+op"))

        dep.sim.schedule(replayer.duration_ms * 0.5, move)
        dep.sim.run()
        assert ops[0].report.aborted is None and len(held) >= 20
        assert len(src.conns) == 0
        stored = {fid: fid for fid in dst.conns}
        assert len([fid for fid in stored if fid in held]) == len(held)
        for fid in stored:
            # the chunk carried the source's key object across
            assert held.get(fid, fid) is fid
        for packet in replayer.injected:
            # ... which is the object every packet of the flow probes with
            fid = FlowId.for_flow(packet.five_tuple.canonical())
            assert stored.get(fid, fid) is fid


class TestSteadyStateAllocations:
    """Counted, not timed: no per-packet filter building or sorting."""

    def _counted(self, monkeypatch):
        built, sorts = [], []
        init = Filter.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Filter, "__init__", counting_init)
        monkeypatch.setattr(
            filter_module, "sorted",
            lambda *a, **kw: sorts.append(1) or sorted(*a, **kw),
            raising=False)
        return built, sorts

    def test_monitor_and_ids_build_nothing_per_packet(self, monkeypatch):
        trace = build_university_cloud_trace(
            TraceConfig(seed=12, n_flows=334, data_packets=3))
        packets = trace.packets[:2000]
        flows = len({bp.five_tuple.canonical() for bp in packets})
        hosts = len({ip for bp in packets
                     for ip in (bp.five_tuple.src_ip, bp.five_tuple.dst_ip)})
        assert len(packets) == 2000 and flows >= 300
        setup = 8  # two route filters and whatever a deployment builds

        built, sorts = self._counted(monkeypatch)
        _steady_run(packets)
        # cold: one flowid per flow and per host that was not interned
        # yet, each hashed (one sort of its field names) once
        assert len(built) <= flows + hosts + setup
        assert len(sorts) <= len(built)

        del built[:], sorts[:]
        _steady_run(packets)
        # warm: every id comes from its memo
        assert len(built) <= setup
        assert len(sorts) <= setup


FIVE_FIELDS = ("nw_src", "nw_dst", "nw_proto", "tp_src", "tp_dst")


def small_pool(rng, size=24):
    """Flows over few addresses and ports (port / protocol 1 included,
    which is what a ``True`` constraint equals), so prefixes of every
    length and partial filters really hit."""
    ips = ["10.0.1.%d" % i for i in range(1, 7)] + \
        ["203.0.113.5", "192.168.1.9", "10.9.9.9"]
    ports = [1, 80, 443, 5555]
    pool = []
    for _ in range(size):
        src, dst = rng.sample(ips, 2)
        pool.append(FiveTuple(src, rng.choice(ports), dst, rng.choice(ports),
                              rng.choice([6, 6, 17, 1])))
    return pool


def any_filter(rng, pool, parsable=False):
    """Any subset of the five fields of some pool flow (either way
    round): addresses bare, ``/32`` or cut to a random prefix length;
    one in three also carries what must refuse to compile — flags, an
    application field, a ``str`` port, an unparsable prefix (left out
    when ``parsable``) — or a ``bool``, which is an ``int`` and
    compiles."""
    ft = rng.choice(pool)
    if rng.random() < 0.5:
        ft = ft.reversed()
    fields = {}
    for name, value in ft.headers().items():
        if rng.random() < 0.5:
            continue
        if name in ("nw_src", "nw_dst"):
            roll = rng.random()
            if roll < 0.2:
                value += "/32"
            elif roll < 0.7:
                value = "%s/%d" % (value, rng.randrange(33))
        fields[name] = value
    odd = rng.randrange(15)
    if odd == 0:
        fields["tcp_flags"] = "SYN"
    elif odd == 1:
        fields["http_url"] = "/x"
    elif odd == 2:
        fields["tp_dst"] = str(ft.dst_port)
    elif odd == 3:
        fields[rng.choice(["nw_proto", "tp_src", "tp_dst"])] = True
    elif odd == 4 and not parsable:
        fields["nw_src"] = rng.choice(["10.0.1/24", "10.0.1.0/33", "host-a"])
    return Filter(fields, symmetric=rng.random() < 0.5)


def any_packet(rng, pool):
    """``random_packet`` plus headers that are no integer 5-tuple."""
    packet = random_packet(rng, pool)
    roll = rng.random()
    if roll < 0.06:
        packet.extra_headers["tp_src"] = "80"
    elif roll < 0.12:
        packet.extra_headers["nw_proto"] = None
    elif roll < 0.18:
        ft = packet.five_tuple
        packet = Packet(FiveTuple(ft.src_ip, str(ft.src_port), ft.dst_ip,
                                  ft.dst_port))
    return packet


def outcome(call):
    """What ``call()`` returns or the class it raises (an unparsable
    prefix raises from whichever constraint walk reaches it)."""
    try:
        return call()
    except (AttributeError, TypeError, ValueError) as exc:
        return type(exc)


class TestCompiledFilters:
    """compiled == definition, for packets and for stored flowids."""

    def test_what_compiles(self):
        ft = FiveTuple("10.0.1.2", 1234, "203.0.113.5", 80)
        assert compile_fields({}) == (None, 0, 0, None, 0, 0, None)
        assert compile_fields({"nw_src": "10.0.1.77/24", "tp_dst": 80}) == (
            None, 0x0A000100, 0xFFFFFF00, None, 0, 0, 80)
        assert compile_fields(ft.headers()) == (
            6, 0x0A000102, 0xFFFFFFFF, 1234, 0xCB007105, 0xFFFFFFFF, 80)
        assert compile_fields({"tp_src": True})[3] is True
        for fields in ({"tcp_flags": "SYN"}, {"http_url": "/x"},
                       {"tp_dst": "80"}, {"nw_proto": None}, {"tp_src": 80.0},
                       {"nw_src": "10.0.1/24"}, {"nw_dst": "10.0.1.0/33"},
                       {"nw_src": 5}, {"nw_src": None}):
            assert compile_fields(dict(ft.headers(), **fields)) is None

    def test_matches_packet_is_matches_headers(self):
        rng = random.Random(1905)
        pool = small_pool(rng)
        compiled = hits = 0
        for _ in range(1500):
            flt = any_filter(rng, pool)
            compiled += compile_fields(flt.fields) is not None
            for _ in range(4):
                packet = any_packet(rng, pool)
                for step in (None, {RE_TOKEN_HEADER: "fp"}, {"tp_dst": 443}):
                    # as redup does: headers added after a first match
                    packet.extra_headers.update(step or {})
                    expected = outcome(
                        lambda: flt.matches_headers(packet.headers()))
                    assert outcome(
                        lambda: flt.matches_packet(packet)) == expected
                    hits += expected is True
        assert compiled > 800 and hits > 2000

    def test_exact_key_is_unchanged(self):
        rng = random.Random(1906)
        pool = small_pool(rng)
        exact = 0
        for _ in range(3000):
            flt = any_filter(rng, pool)
            if rng.random() < 0.3:  # all five fields: the exact candidates
                spare = rng.choice(pool).headers()
                flt = Filter(dict(spare, **flt.fields), flt.symmetric)
            assert flt.exact_key() == parsed_exact_key(flt)
            exact += flt.exact_key() is not None
        assert exact > 100

    def test_lookup_and_match_rule_equal_the_oracles(self):
        rng = random.Random(1907)
        pool = small_pool(rng)
        table = FlowTable()
        nf = DummyNF(Simulator(), "dut")
        actions = [EventAction.PROCESS, EventAction.BUFFER, EventAction.DROP]
        for step in range(300):
            table.install(any_filter(rng, pool, parsable=True),
                          rng.choice([10, 100, 1000]), ["p%d" % step],
                          float(step))
            nf.sb_enable_events(any_filter(rng, pool, parsable=True),
                                rng.choice(actions))
        for _ in range(600):
            packet = any_packet(rng, pool)
            assert table.lookup(packet) is linear_lookup(table, packet)
            assert nf._match_rule(packet) is linear_match_rule(nf, packet)

    def test_keys_matching_scan_equals_matches_flowid(self):
        """Same members, same order, over every kind of stored id."""
        rng = random.Random(1908)
        pool = small_pool(rng, size=60)
        store = DummyNF(Simulator(), "dut").flows
        for step, ft in enumerate(pool):
            store[FlowId.for_flow(ft.canonical())] = step
            store[FlowId.for_flow(ft, symmetric=False)] = step
            store[FlowId.for_host(ft.src_ip)] = step
            store[IntrusionDetector._pair_id(ft.src_ip, ft.dst_ip)] = step
            store[FlowId({"nw_dst": ft.dst_ip, "http_url": "/%d" % step})] = step
            store[FlowId({"nw_src": "10.0.1.0/29", "tp_dst": ft.dst_port})] = step
        assert len(store) > 200
        projections = (None, FIVE_FIELDS, ("nw_src", "nw_dst"),
                       ("nw_src", "nw_dst", "http_url"), ("http_url",))
        some = everything = 0
        for _ in range(400):
            flt = any_filter(rng, pool, parsable=True)
            for relevant in projections:
                got = store.keys_matching(flt, relevant)
                assert got == linear_keys_matching(store, flt, relevant)
                some += 0 < len(got) < len(store)
                everything += len(got) == len(store)
        assert some > 300 and everything > 300  # incl. emptied projections

    def test_warm_data_path_builds_no_headers_and_parses_no_prefix(
            self, monkeypatch):
        """Counted, not timed: one wildcard and two prefix routes, a
        prefix event rule and a wildcard machine in REDIRECT test every
        packet, yet nothing walks a header dict or probes the prefix
        memo (the parent did both at least once per packet)."""
        packets = build_university_cloud_trace(
            TraceConfig(seed=12, n_flows=334, data_packets=3)).packets[:2000]
        side_route = Filter({"nw_src": "10.0.1.0/28"}, symmetric=True)
        back_route = Filter({"nw_dst": "10.0.1.0/30"})
        event_rule = Filter({"nw_src": "10.0.1.0/29"}, symmetric=True)

        def run():
            dep = Deployment(record_ground_truth=False)
            mon = AssetMonitor(dep.sim, "mon")
            side = AssetMonitor(dep.sim, "side")
            dep.add_nf(mon)
            dep.add_nf(side)
            dep.set_default_route("mon")
            dep.set_default_route("side", side_route)
            dep.set_default_route("mon", back_route)
            mon.sb_enable_events(event_rule, EventAction.PROCESS)
            dep.switch.install_state_machine(
                Filter.wildcard(), BufferUntilRelease())
            dep.sim.run()
            dep.switch.release_state_machine(Filter.wildcard(), "mon")
            assert [m.state for m in dep.switch._xfsm_machines] == [REDIRECT]
            TraceReplayer(dep.sim, dep.inject, packets, rate_pps=5000.0).start()
            dep.sim.run()
            assert mon.packets_processed + side.packets_processed == 2000
            assert mon.packets_processed and side.packets_processed
            assert mon.events_raised

        run()  # warm: one key per flow direction, one record per filter
        calls = {"headers": 0, "parse_prefix": 0}
        headers, parse_prefix = Packet.headers, ip_module.parse_prefix

        def counted_headers(self):
            calls["headers"] += 1
            return headers(self)

        def counted_parse(prefix):
            calls["parse_prefix"] += 1
            return parse_prefix(prefix)

        monkeypatch.setattr(Packet, "headers", counted_headers)
        monkeypatch.setattr(ip_module, "parse_prefix", counted_parse)
        monkeypatch.setattr(filter_module, "parse_prefix", counted_parse)
        run()
        assert calls == {"headers": 0, "parse_prefix": 0}
