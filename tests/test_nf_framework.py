"""Tests for the NF framework: state chunks, merging, events, base class."""

from operator import or_

import pytest

from repro.flowspace import Filter, FlowId
from repro.nf import (
    EventAction,
    NFCostModel,
    NFCrash,
    Scope,
    StateChunk,
    normalize_scope,
)
from repro.nf import record as merge
from repro.nf.events import DO_NOT_BUFFER, DO_NOT_DROP, EventRule, PacketEvent
from repro.nf.record import Convert, Field, Tag
from repro.nf.base import NetworkFunction
from repro.nf.state import (
    EVERYTHING, MERGE_UNLESS_SNAPSHOT, MULTI, PER, PER_AND_MULTI, StateSpec,
)
from repro.nfs.monitor import AssetMonitor
from repro.sim import Simulator
from tests.conftest import make_packet


class TestStateChunk:
    def test_json_roundtrip(self, flow):
        fid = FlowId.for_flow(flow)
        chunk = StateChunk(Scope.PERFLOW, fid, {"count": 3, "name": "x"})
        again = StateChunk.from_json_bytes(chunk.to_json_bytes())
        assert again.scope is Scope.PERFLOW
        assert again.flowid == fid
        assert again.data == {"count": 3, "name": "x"}

    def test_allflows_chunk_has_no_flowid(self):
        chunk = StateChunk(Scope.ALLFLOWS, None, {"stats": {}})
        again = StateChunk.from_json_bytes(chunk.to_json_bytes())
        assert again.flowid is None

    def test_size_computed_from_encoding(self):
        chunk = StateChunk(Scope.ALLFLOWS, None, {"k": "v" * 100})
        assert chunk.size_bytes == len(chunk.to_json_bytes())

    def test_size_override(self):
        chunk = StateChunk(Scope.MULTIFLOW, None, {"url": "/x"}, size_bytes=4096)
        assert chunk.size_bytes == 4096

    def test_normalize_scope_aliases(self):
        assert normalize_scope("per") == PER
        assert normalize_scope("multi") == MULTI
        assert normalize_scope("per+multi") == PER_AND_MULTI
        assert normalize_scope("everything") == EVERYTHING
        assert normalize_scope(Scope.PERFLOW) == (Scope.PERFLOW,)
        assert normalize_scope([Scope.MULTIFLOW]) == (Scope.MULTIFLOW,)
        with pytest.raises(ValueError):
            normalize_scope("bogus")


class TestMergeHelpers:
    def test_counters_add(self):
        assert merge.add_counters(3, 4) == 7

    def test_latest_earliest(self):
        assert merge.latest(5.0, 3.0) == 5.0
        assert merge.earliest(5.0, 3.0) == 3.0

    def test_union_sorted(self):
        assert merge.union([3, 1], [2, 1]) == [1, 2, 3]


class Tally(merge.Record):
    """A declared record: a converted field, a tag, a merge table."""

    __slots__ = ("host", "_seen", "hits")
    FIELDS = (Tag("kind", "tally"), "host",
              Field("_seen", Convert(sorted, set)), "hits")
    MERGE = dict(host=merge.keep, _seen=or_, hits=max)

    def __init__(self, host, seen, hits):
        self.host, self._seen, self.hits = host, seen, hits


class TestDeclaredRecords:
    def test_codec_follows_the_field_table(self):
        tally = Tally("h", {3, 1}, 2)
        data = tally.to_dict()
        assert list(data.items()) == [
            ("kind", "tally"), ("host", "h"), ("seen", [1, 3]), ("hits", 2)
        ]
        clone = Tally.from_dict(data)
        assert (clone.kind, clone.host, clone._seen, clone.hits) == (
            "tally", "h", {1, 3}, 2
        )
        clone.merge_from(Tally("other", {2}, 1).to_dict())
        assert (clone.host, clone._seen, clone.hits) == ("h", {1, 2, 3}, 2)

    def test_every_declared_key_is_required(self):
        with pytest.raises(KeyError):
            Tally.from_dict({"kind": "tally", "host": "h", "seen": []})

    def test_a_merge_table_leaving_a_field_out_fails_at_class_creation(self):
        with pytest.raises(TypeError, match=r"differs on \['hits'\]"):
            class Partial(merge.Record):
                FIELDS = ("host", "hits")
                MERGE = dict(host=merge.keep)

    def test_a_merging_import_rule_needs_a_merge_table(self):
        class Unmerged(merge.Record):
            FIELDS = ("host", "hits")

        with pytest.raises(TypeError, match=r"Throwaway\.flows merges .* "
                                            r"Unmerged declares no MERGE"):
            class Throwaway(NetworkFunction):
                STATE = {Scope.PERFLOW: StateSpec("flows", Unmerged,
                                                  MERGE_UNLESS_SNAPSHOT)}


class TestEventRule:
    def test_effective_action_override_buffer(self, flow):
        rule = EventRule(Filter.wildcard(), EventAction.BUFFER)
        packet = make_packet(flow)
        assert rule.effective_action(packet) is EventAction.BUFFER
        packet.mark(DO_NOT_BUFFER)
        assert rule.effective_action(packet) is EventAction.PROCESS

    def test_effective_action_override_drop(self, flow):
        rule = EventRule(Filter.wildcard(), EventAction.DROP)
        packet = make_packet(flow)
        packet.mark(DO_NOT_DROP)
        assert rule.effective_action(packet) is EventAction.PROCESS

    def test_marks_do_not_cross_over(self, flow):
        drop_rule = EventRule(Filter.wildcard(), EventAction.DROP)
        packet = make_packet(flow)
        packet.mark(DO_NOT_BUFFER)
        assert drop_rule.effective_action(packet) is EventAction.DROP

    def test_event_size_includes_packet(self, flow):
        packet = make_packet(flow, payload="abc")
        event = PacketEvent("nf", packet, EventAction.DROP, 1.0)
        assert event.size_bytes > packet.size_bytes


class TestCostModel:
    def test_serialize_scales_with_size(self):
        costs = NFCostModel(serialize_base_ms=1.0, serialize_per_kb_ms=2.0)
        assert costs.serialize_ms(0) == 1.0
        assert costs.serialize_ms(2048) == 5.0

    def test_effective_proc_inflation(self):
        costs = NFCostModel(proc_ms=1.0, export_overhead_frac=0.1,
                            export_overhead_ms=0.05)
        assert costs.effective_proc_ms(False) == 1.0
        assert costs.effective_proc_ms(True) == pytest.approx(1.15)

    def test_scaled_override(self):
        costs = NFCostModel(proc_ms=1.0)
        faster = costs.scaled(proc_ms=0.5)
        assert faster.proc_ms == 0.5
        assert costs.proc_ms == 1.0


def monitor(sim, name="mon"):
    return AssetMonitor(sim, name)


class TestProcessingLoop:
    def test_packets_processed_serially(self, sim, flow):
        nf = monitor(sim)
        for _ in range(3):
            nf.receive(make_packet(flow, payload="x"))
        sim.run()
        assert nf.packets_processed == 3
        times = [t for (t, _uid) in nf.processing_log]
        # Spaced by at least proc_ms each.
        assert times[1] - times[0] >= nf.costs.proc_ms

    def test_processing_log_in_arrival_order(self, sim, flow):
        nf = monitor(sim)
        packets = [make_packet(flow) for _ in range(5)]
        for packet in packets:
            nf.receive(packet)
        sim.run()
        assert [uid for (_t, uid) in nf.processing_log] == [p.uid for p in packets]

    def test_durations_share_the_processing_log_times(self, sim, flow):
        nf = monitor(sim)
        for _ in range(2):
            nf.receive(make_packet(flow))
        sim.run()
        nf.processing_log.clear()
        assert list(nf.proc_durations) == []
        last = make_packet(flow)
        nf.receive(last)
        sim.run()
        ((done_at, uid),) = nf.processing_log
        assert uid == last.uid
        assert list(nf.proc_durations) == [(done_at, nf.costs.proc_ms)]

    def test_drop_rule_silent(self, sim, flow):
        nf = monitor(sim)
        nf.sb_enable_events(Filter.wildcard(), EventAction.DROP, silent=True)
        nf.receive(make_packet(flow))
        sim.run()
        assert nf.packets_processed == 0
        assert nf.packets_dropped_by_event == 1
        assert nf.packets_dropped_silent == 1
        assert nf.events_raised == 0

    def test_drop_rule_raises_events(self, sim, flow):
        nf = monitor(sim)
        events = []
        nf.event_sink = events.append
        nf.sb_enable_events(Filter.wildcard(), EventAction.DROP)
        nf.receive(make_packet(flow, payload="p"))
        sim.run()
        assert nf.packets_dropped_by_event == 1
        assert nf.packets_dropped_silent == 0
        assert len(events) == 1
        assert events[0].action_taken is EventAction.DROP
        assert events[0].packet.payload == "p"

    def test_process_rule_raises_event_after_processing(self, sim, flow):
        nf = monitor(sim)
        events = []
        nf.event_sink = events.append
        nf.sb_enable_events(Filter.wildcard(), EventAction.PROCESS)
        nf.receive(make_packet(flow))
        sim.run()
        assert nf.packets_processed == 1
        assert len(events) == 1
        assert events[0].action_taken is EventAction.PROCESS

    def test_buffer_rule_holds_until_disable(self, sim, flow):
        nf = monitor(sim)
        flt = Filter.wildcard()
        nf.sb_enable_events(flt, EventAction.BUFFER)
        for _ in range(3):
            nf.receive(make_packet(flow))
        sim.run()
        assert nf.packets_processed == 0
        assert nf.buffered_packet_count() == 3
        nf.sb_disable_events(flt)
        sim.run()
        assert nf.packets_processed == 3
        assert nf.buffered_packet_count() == 0

    def test_buffer_release_preserves_order(self, sim, flow):
        nf = monitor(sim)
        flt = Filter({"tp_dst": 80})
        nf.sb_enable_events(flt, EventAction.BUFFER)
        packets = [make_packet(flow) for _ in range(4)]
        for packet in packets:
            nf.receive(packet)
        sim.run()
        nf.sb_disable_events(flt)
        sim.run()
        assert [uid for (_t, uid) in nf.processing_log] == [p.uid for p in packets]

    def test_do_not_buffer_mark_processes(self, sim, flow):
        nf = monitor(sim)
        nf.sb_enable_events(Filter.wildcard(), EventAction.BUFFER)
        marked = make_packet(flow)
        marked.mark(DO_NOT_BUFFER)
        nf.receive(marked)
        nf.receive(make_packet(flow))
        sim.run()
        assert nf.packets_processed == 1
        assert nf.buffered_packet_count() == 1

    def test_newest_matching_rule_wins(self, sim, flow):
        nf = monitor(sim)
        nf.sb_enable_events(Filter.wildcard(), EventAction.BUFFER)
        nf.sb_enable_events(Filter({"tp_dst": 80}), EventAction.DROP, silent=True)
        nf.receive(make_packet(flow))  # tp_dst=80 -> newest rule: drop
        sim.run()
        assert nf.packets_dropped_silent == 1
        assert nf.buffered_packet_count() == 0

    def test_enable_same_filter_updates_action(self, sim, flow):
        nf = monitor(sim)
        flt = Filter.wildcard()
        nf.sb_enable_events(flt, EventAction.BUFFER)
        nf.sb_enable_events(flt, EventAction.DROP, silent=True)
        assert nf.event_rule_count == 1
        nf.receive(make_packet(flow))
        sim.run()
        assert nf.packets_dropped_silent == 1

    def test_disable_events_covered_removes_per_flow_rules(self, sim, flow):
        nf = monitor(sim)
        nf.sb_enable_events(Filter.for_flow(flow), EventAction.DROP)
        nf.sb_enable_events(
            Filter({"nw_src": "10.0.1.2", "tp_src": 1234,
                    "nw_dst": "203.0.113.5", "tp_dst": 80, "nw_proto": 6}),
            EventAction.DROP,
        )
        nf.sb_disable_events_covered(Filter({"nw_src": "10.0.0.0/8"}, symmetric=True))
        assert nf.event_rule_count == 0

    def test_failed_nf_discards_traffic(self, sim, flow):
        nf = monitor(sim)
        nf.failed = True
        nf.receive(make_packet(flow))
        sim.run()
        assert nf.packets_processed == 0
        assert nf.packets_lost_to_failure == 1


    @pytest.mark.parametrize("how", ["crash", "fail"])
    def test_a_dying_nf_counts_the_queue_it_loses(self, sim, flow, how):
        # Dying of an NFCrash in the packet handler (Table 1's Squid row)
        # is fail(): same count, same listeners, idle waiters released.
        nf = monitor(sim)
        if how == "crash":
            def process_packet(packet):
                raise NFCrash("required state is missing")
            nf.process_packet = process_packet
        died, idle = [], []
        nf.add_failure_listener(died.append)
        for _ in range(4):
            nf.receive(make_packet(flow))
        if how == "fail":
            nf.fail("required state is missing")
        nf.on_idle(lambda: idle.append(sim.now))
        sim.run()
        assert nf.failed and nf.failure_reason == "required state is missing"
        assert nf.packets_received == 4
        assert nf.packets_processed == 0
        assert nf.packets_lost_to_failure == 4
        assert died == [nf] and len(idle) == 1


class TestStateTransferTiming:
    def test_get_takes_serialize_time_per_chunk(self, sim, flow):
        nf = monitor(sim)
        nf.receive(make_packet(flow, flags=("SYN",)))
        sim.run()
        proc = nf.sb_get(Scope.PERFLOW, Filter.wildcard())
        start = sim.now
        sim.run()
        chunks = proc.result
        assert len(chunks) == 1
        assert sim.now - start >= nf.costs.serialize_ms(chunks[0].size_bytes)

    def test_get_streams_chunks_as_serialized(self, sim, flow):
        nf = monitor(sim)
        from repro.flowspace.fivetuple import FiveTuple

        for i in range(3):
            other = FiveTuple("10.0.1.%d" % (i + 1), 1000 + i, "203.0.113.5", 80)
            nf.receive(make_packet(other, flags=("SYN",)))
        sim.run()
        stream_times = []
        proc = nf.sb_get(
            Scope.PERFLOW, Filter.wildcard(),
            stream=lambda c: stream_times.append(sim.now),
        )
        sim.run()
        assert len(stream_times) == 3
        assert stream_times[0] < stream_times[-1]

    def test_late_locking_installs_rule_per_chunk(self, sim, flow):
        nf = monitor(sim)
        nf.receive(make_packet(flow, flags=("SYN",)))
        sim.run()
        assert nf.event_rule_count == 0
        proc = nf.sb_get(Scope.PERFLOW, Filter.wildcard(), lock_per_chunk=True)
        sim.run()
        assert nf.event_rule_count == 1

    def test_put_imports_chunks(self, sim, flow):
        src = monitor(sim, "src")
        dst = monitor(sim, "dst")
        src.receive(make_packet(flow, flags=("SYN",)))
        sim.run()
        get_proc = src.sb_get(Scope.PERFLOW, Filter.wildcard())
        sim.run()
        put_proc = dst.sb_put(get_proc.result)
        sim.run()
        assert put_proc.result == 1
        assert dst.conn_count() == 1

    def test_delete_removes_and_counts(self, sim, flow):
        nf = monitor(sim)
        nf.receive(make_packet(flow, flags=("SYN",)))
        sim.run()
        get_proc = nf.sb_get(Scope.PERFLOW, Filter.wildcard())
        sim.run()
        flowids = [c.flowid for c in get_proc.result]
        del_proc = nf.sb_delete(Scope.PERFLOW, flowids)
        sim.run()
        assert del_proc.result == 1
        assert nf.conn_count() == 0

    def test_operations_serialize_fifo(self, sim, flow):
        nf = monitor(sim)
        nf.receive(make_packet(flow, flags=("SYN",)))
        sim.run()
        order = []
        first = nf.sb_get(Scope.PERFLOW, Filter.wildcard())
        second = nf.sb_get(Scope.PERFLOW, Filter.wildcard())
        first.done.add_callback(lambda e: order.append("first"))
        second.done.add_callback(lambda e: order.append("second"))
        sim.run()
        assert order == ["first", "second"]

    def test_processing_inflated_during_export(self, sim, flow):
        costs = AssetMonitor(sim, "tmp").costs.scaled(
            proc_ms=1.0, export_overhead_frac=0.5, serialize_base_ms=50.0
        )
        nf = AssetMonitor(sim, "mon", costs=costs)
        nf.receive(make_packet(flow, flags=("SYN",)))
        sim.run()
        nf.sb_get(Scope.PERFLOW, Filter.wildcard())
        nf.receive(make_packet(flow))
        sim.run()
        assert any(duration == pytest.approx(1.5) for (_t, duration)
                   in nf.proc_durations)
