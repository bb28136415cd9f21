"""Unit tests for FlowTable semantics and the exact-match index.

Every lookup the semantics tests make is also checked against the
linear reference oracle (``tests/oracles.py``) — the two must be
bit-identical.
"""

import pytest

from repro.flowspace import Filter, FiveTuple
from repro.net import (
    HIGH_PRIORITY,
    LOW_PRIORITY,
    MID_PRIORITY,
    FlowTable,
    Link,
    Packet,
    Switch,
    TableFullError,
)
from repro.sim import Simulator
from tests.oracles import linear_find, linear_lookup, linear_overlapping


FLOW = FiveTuple("10.0.1.2", 1234, "203.0.113.5", 80)


def exact_filter(ft=FLOW, symmetric=False):
    return Filter(ft.headers(), symmetric=symmetric)


class _OracleCheckedTable(FlowTable):
    """A FlowTable whose every query is cross-checked with the oracle."""

    def lookup(self, packet):
        entry = super().lookup(packet)
        assert entry is linear_lookup(self, packet)
        return entry

    def find(self, flt, priority=None):
        entry = super().find(flt, priority)
        assert entry is linear_find(self, flt, priority)
        return entry

    def entries_overlapping(self, flt):
        entries = super().entries_overlapping(flt)
        assert entries == linear_overlapping(self, flt)
        return entries


@pytest.fixture
def table():
    return _OracleCheckedTable()


class TestLookupSemantics:
    def test_highest_priority_wins(self, table):
        table.install(Filter.wildcard(), LOW_PRIORITY, ["a"], 0.0)
        table.install(exact_filter(), MID_PRIORITY, ["b"], 0.0)
        assert table.lookup(Packet(FLOW)).actions == ("b",)

    def test_priority_tie_newest_wins(self, table):
        table.install(Filter({"nw_src": "10.0.1.2"}), MID_PRIORITY, ["old"], 0.0)
        table.install(Filter({"tp_dst": 80}), MID_PRIORITY, ["new"], 1.0)
        # Both match FLOW at the same priority; the later install wins.
        assert table.lookup(Packet(FLOW)).actions == ("new",)

    def test_exact_tie_newest_wins_across_orientations(self, table):
        table.install(exact_filter(symmetric=True), MID_PRIORITY, ["sym"], 0.0)
        table.install(exact_filter(), MID_PRIORITY, ["ori"], 1.0)
        assert table.lookup(Packet(FLOW)).actions == ("ori",)

    def test_symmetric_entry_matches_both_directions(self, table):
        table.install(exact_filter(symmetric=True), MID_PRIORITY, ["nf"], 0.0)
        assert table.lookup(Packet(FLOW)).actions == ("nf",)
        assert table.lookup(Packet(FLOW.reversed())).actions == ("nf",)

    def test_oriented_entry_matches_one_direction(self, table):
        table.install(exact_filter(), MID_PRIORITY, ["nf"], 0.0)
        assert table.lookup(Packet(FLOW)).actions == ("nf",)
        assert table.lookup(Packet(FLOW.reversed())) is None

    def test_wildcard_beats_lower_priority_exact(self, table):
        table.install(exact_filter(), LOW_PRIORITY, ["exact"], 0.0)
        table.install(Filter.wildcard(), HIGH_PRIORITY, ["wild"], 0.0)
        assert table.lookup(Packet(FLOW)).actions == ("wild",)

    def test_miss_returns_none(self, table):
        table.install(Filter({"tp_dst": 443}), MID_PRIORITY, ["a"], 0.0)
        assert table.lookup(Packet(FLOW)) is None

    def test_install_replaces_same_filter_and_priority(self, table):
        table.install(exact_filter(), MID_PRIORITY, ["a"], 0.0)
        table.install(exact_filter(), MID_PRIORITY, ["b"], 1.0)
        assert len(table) == 1
        assert table.lookup(Packet(FLOW)).actions == ("b",)


class TestRemoveAndFind:
    def test_remove_missing_is_noop(self, table):
        table.install(exact_filter(), MID_PRIORITY, ["a"], 0.0)
        assert table.remove(Filter({"tp_dst": 443})) == 0
        assert table.remove(exact_filter(), HIGH_PRIORITY) == 0
        assert len(table) == 1

    def test_remove_by_filter_and_priority(self, table):
        table.install(exact_filter(), MID_PRIORITY, ["a"], 0.0)
        table.install(exact_filter(), HIGH_PRIORITY, ["b"], 0.0)
        assert table.remove(exact_filter(), HIGH_PRIORITY) == 1
        assert table.lookup(Packet(FLOW)).actions == ("a",)

    def test_remove_all_priorities(self, table):
        table.install(exact_filter(), MID_PRIORITY, ["a"], 0.0)
        table.install(exact_filter(), HIGH_PRIORITY, ["b"], 0.0)
        assert table.remove(exact_filter()) == 2
        assert len(table) == 0
        assert table.lookup(Packet(FLOW)) is None

    def test_find_respects_symmetry_flag(self, table):
        table.install(exact_filter(symmetric=True), MID_PRIORITY, ["a"], 0.0)
        assert table.find(exact_filter()) is None
        assert table.find(exact_filter(symmetric=True)).actions == ("a",)

    def test_find_after_churn(self, table):
        for port in range(20):
            table.install(Filter({"tp_dst": port}), MID_PRIORITY, ["a"], 0.0)
        for port in range(0, 20, 2):
            table.remove(Filter({"tp_dst": port}))
        assert len(table) == 10
        assert table.find(Filter({"tp_dst": 3})) is not None
        assert table.find(Filter({"tp_dst": 4})) is None


class TestEntriesOverlapping:
    def test_exact_probe_finds_wildcards_and_both_orientations(self, table):
        table.install(Filter.wildcard(), LOW_PRIORITY, ["w"], 0.0)
        table.install(exact_filter(), MID_PRIORITY, ["o"], 0.0)
        table.install(
            Filter(FLOW.reversed().headers()), MID_PRIORITY, ["rev"], 0.0
        )
        table.install(exact_filter(symmetric=True), HIGH_PRIORITY, ["s"], 0.0)
        table.install(Filter({"tp_dst": 443}), MID_PRIORITY, ["other"], 0.0)

        # ``intersects`` compares the raw stored fields (the symmetric
        # flag is not consulted), so both probe orientations overlap the
        # wildcard, the same-orientation entry, and the symmetric entry —
        # not the reversed twin or the unrelated port rule.
        for probe in (exact_filter(symmetric=True), exact_filter()):
            actions = {e.actions[0] for e in table.entries_overlapping(probe)}
            assert actions == {"w", "o", "s"}

    def test_prefix_probe_falls_back_to_full_scan(self, table):
        table.install(exact_filter(), MID_PRIORITY, ["o"], 0.0)
        table.install(Filter({"tp_dst": 443}), MID_PRIORITY, ["other"], 0.0)
        probe = Filter({"nw_src": "10.0.0.0/8"})
        actions = {e.actions[0] for e in table.entries_overlapping(probe)}
        assert actions == {"o", "other"}

    def test_results_in_table_order(self, table):
        table.install(Filter.wildcard(), LOW_PRIORITY, ["w"], 0.0)
        table.install(exact_filter(), HIGH_PRIORITY, ["hi"], 0.0)
        table.install(exact_filter(symmetric=True), MID_PRIORITY, ["mid"], 0.0)
        result = [e.actions[0] for e in table.entries_overlapping(exact_filter())]
        assert result == ["hi", "mid", "w"]


class TestIndexedOracleAgreement:
    def test_lookups_agree_with_oracle(self):
        table = FlowTable()
        filters = [
            Filter.wildcard(),
            Filter({"nw_src": "10.0.0.0/8"}),
            exact_filter(),
            exact_filter(symmetric=True),
            Filter(FLOW.reversed().headers()),
            Filter({"tp_dst": 80}),
        ]
        for i, flt in enumerate(filters):
            table.install(flt, MID_PRIORITY + (i % 3), ["p%d" % i], float(i))
        packets = [Packet(FLOW), Packet(FLOW.reversed()),
                   Packet(FiveTuple("172.16.0.1", 5, "172.16.0.2", 6))]
        for packet in packets:
            assert table.lookup(packet) is linear_lookup(table, packet)


class TestCapacity:
    def test_capacity_rejection_with_indexed_table(self):
        sim = Simulator()
        switch = Switch(sim, table_capacity=2)
        switch.attach("a", lambda p: None, Link(sim))
        results = [
            switch.install(Filter({"tp_dst": port}), ["a"], MID_PRIORITY)
            for port in (1, 2, 3)
        ]
        sim.run()
        assert results[0].ok and results[1].ok and not results[2].ok
        assert isinstance(results[2].exception, TableFullError)
        assert len(switch.table) == 2


class TestRecordGroundTruth:
    def test_forward_log_off(self):
        sim = Simulator()
        switch = Switch(sim, record_ground_truth=False)
        seen = []
        switch.attach("a", seen.append, Link(sim))
        switch.table.install(Filter.wildcard(), LOW_PRIORITY, ["a"], 0.0)
        switch.inject(Packet(FLOW))
        sim.run()
        # Forwarding still happens; only the ground-truth log is skipped.
        assert len(seen) == 1
        assert switch.forward_log == []
        assert switch.forwarded == 1

    def test_forward_log_on_by_default(self):
        sim = Simulator()
        switch = Switch(sim)
        switch.attach("a", lambda p: None, Link(sim))
        switch.table.install(Filter.wildcard(), LOW_PRIORITY, ["a"], 0.0)
        switch.inject(Packet(FLOW))
        sim.run()
        assert len(switch.forward_log) == 1
