"""Property-based tests (hypothesis) for core invariants.

The heavyweight properties are the paper's §5.1 guarantees themselves:
for *any* packet rate, flow count, link latency, and move start time,
a loss-free move loses nothing and an order-preserving move also keeps
per-flow processing order equal to switch forwarding order.
"""

import json
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flowspace import Filter, FiveTuple, FlowId
from repro.flowspace.ip import ip_in_prefix, prefix_covers, prefixes_overlap
from repro.harness import run_move_experiment
from repro.nf import Scope, StateChunk
from repro.nf import record as merge
from repro.nfs.ids import ScanRecord, TcpReassembler
from repro.net.packet import Packet, reset_uid_counter


octet = st.integers(min_value=0, max_value=255)


@st.composite
def ip_addresses(draw):
    return "%d.%d.%d.%d" % tuple(draw(octet) for _ in range(4))


@st.composite
def prefixes(draw):
    return "%s/%d" % (draw(ip_addresses()), draw(st.integers(0, 32)))


@st.composite
def five_tuples(draw):
    return FiveTuple(
        draw(ip_addresses()),
        draw(st.integers(1, 65535)),
        draw(ip_addresses()),
        draw(st.integers(1, 65535)),
        draw(st.sampled_from([6, 17])),
    )


class TestIpProperties:
    @given(ip_addresses(), prefixes())
    def test_cover_implies_membership(self, ip, prefix):
        if prefix_covers(prefix, ip):
            assert ip_in_prefix(ip, prefix)

    @given(prefixes(), prefixes())
    def test_cover_implies_overlap(self, a, b):
        if prefix_covers(a, b):
            assert prefixes_overlap(a, b)

    @given(prefixes(), prefixes())
    def test_overlap_symmetric(self, a, b):
        assert prefixes_overlap(a, b) == prefixes_overlap(b, a)

    @given(ip_addresses())
    def test_every_ip_in_default_route(self, ip):
        assert ip_in_prefix(ip, "0.0.0.0/0")


class TestFiveTupleProperties:
    @given(five_tuples())
    def test_canonical_direction_independent(self, ft):
        assert ft.canonical() == ft.reversed().canonical()

    @given(five_tuples())
    def test_canonical_idempotent(self, ft):
        assert ft.canonical().canonical() == ft.canonical()

    @given(five_tuples())
    def test_double_reverse_identity(self, ft):
        assert ft.reversed().reversed() == ft


@st.composite
def filters(draw):
    fields = {}
    if draw(st.booleans()):
        fields["nw_src"] = draw(prefixes())
    if draw(st.booleans()):
        fields["nw_dst"] = draw(prefixes())
    if draw(st.booleans()):
        fields["tp_dst"] = draw(st.integers(1, 65535))
    if draw(st.booleans()):
        fields["nw_proto"] = draw(st.sampled_from([6, 17]))
    return Filter(fields, symmetric=draw(st.booleans()))


class TestFilterProperties:
    @given(filters(), five_tuples())
    def test_wildcard_covers_and_matches_everything(self, flt, ft):
        reset_uid_counter()
        packet = Packet(ft)
        wildcard = Filter.wildcard()
        assert wildcard.covers(flt)
        assert wildcard.matches_packet(packet)

    @given(filters(), filters(), five_tuples())
    @settings(max_examples=200)
    def test_covers_is_sound_for_matching(self, broad, narrow, ft):
        """If broad covers narrow, anything narrow matches, broad matches."""
        reset_uid_counter()
        if broad.symmetric != narrow.symmetric:
            return  # covers() compares like-oriented filters
        packet = Packet(ft)
        if broad.covers(narrow) and narrow.matches_packet(packet):
            assert broad.matches_packet(packet)

    @given(filters())
    def test_covers_reflexive(self, flt):
        assert flt.covers(flt)

    @given(filters(), filters())
    def test_intersects_symmetric(self, a, b):
        assert a.intersects(b) == b.intersects(a)

    @given(five_tuples())
    def test_flow_filter_matches_both_directions(self, ft):
        reset_uid_counter()
        flt = Filter.for_flow(ft)
        assert flt.matches_packet(Packet(ft))
        assert flt.matches_packet(Packet(ft.reversed()))

    @given(five_tuples())
    def test_flowid_roundtrip(self, ft):
        fid = FlowId.for_flow(ft)
        assert FlowId.from_dict(fid.to_dict()) == fid


class TestMergeProperties:
    sets = st.lists(st.integers(0, 50), max_size=20)

    @given(sets, sets)
    def test_union_commutative(self, a, b):
        assert merge.union(a, b) == merge.union(b, a)

    @given(sets)
    def test_union_idempotent(self, a):
        once = merge.union(a, a)
        assert merge.union(once, a) == once


class TestScanRecordProperties:
    targets = st.lists(
        st.tuples(ip_addresses(), st.integers(1, 65535)), max_size=15
    )

    @given(targets, targets)
    def test_merge_is_union(self, mine, theirs):
        a = ScanRecord("1.2.3.4", 0.0)
        b = ScanRecord("1.2.3.4", 1.0)
        for ip, port in mine:
            a.attempt(ip, port, 0.0)
        for ip, port in theirs:
            b.attempt(ip, port, 1.0)
        a.merge_from(b.to_dict())
        assert a.targets == set(mine) | set(theirs)

    @given(targets)
    def test_roundtrip(self, mine):
        record = ScanRecord("9.9.9.9", 0.0)
        for ip, port in mine:
            record.attempt(ip, port, 2.0)
        clone = ScanRecord.from_dict(record.to_dict())
        assert clone.targets == record.targets


class TestReassemblerProperties:
    @given(
        st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=200),
        st.randoms(use_true_random=False),
        st.integers(min_value=1, max_value=20),
    )
    @settings(max_examples=60)
    def test_any_arrival_order_reassembles_fully(self, data, rng, seg_size):
        segments = [
            (offset, data[offset : offset + seg_size])
            for offset in range(0, len(data), seg_size)
        ]
        rng.shuffle(segments)
        out = []
        reasm = TcpReassembler(out.append)
        for seq, segment in segments:
            reasm.segment(seq, segment)
        assert "".join(out) == data
        assert reasm.gaps == 0
        assert not reasm.has_hole()

    @given(
        st.text(alphabet=string.ascii_lowercase, min_size=30, max_size=200),
        st.integers(min_value=0, max_value=5),
    )
    @settings(max_examples=40)
    def test_missing_segment_leaves_hole(self, data, drop_index):
        seg_size = 10
        segments = [
            (offset, data[offset : offset + seg_size])
            for offset in range(0, len(data), seg_size)
        ]
        drop_index = drop_index % (len(segments) - 1)
        kept = [s for i, s in enumerate(segments) if i != drop_index]
        reasm = TcpReassembler()
        for seq, segment in kept:
            reasm.segment(seq, segment)
        if drop_index < len(segments) - 1:
            assert reasm.has_hole()


class TestChunkProperties:
    json_values = st.recursive(
        st.none() | st.booleans() | st.integers(-1000, 1000)
        | st.text(alphabet=string.printable, max_size=20),
        lambda children: st.lists(children, max_size=4)
        | st.dictionaries(st.text(alphabet=string.ascii_lowercase,
                                  min_size=1, max_size=8),
                          children, max_size=4),
        max_leaves=10,
    )

    @given(st.dictionaries(
        st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=8),
        json_values, max_size=5,
    ))
    def test_chunk_roundtrip(self, data):
        chunk = StateChunk(Scope.PERFLOW, FlowId({"nw_src": "10.0.0.1"}), data)
        again = StateChunk.from_json_bytes(chunk.to_json_bytes())
        assert again.data == json.loads(json.dumps(data))


# Deadline and health-check suppression come from the shared profile
# registered in conftest.py; only the example budget is local.
move_settings = settings(max_examples=12)


class TestMoveGuaranteeProperties:
    """The paper's §5.1 properties, explored over the parameter space."""

    @given(
        seed=st.integers(0, 1000),
        n_flows=st.integers(5, 60),
        rate=st.sampled_from([1000.0, 2500.0, 5000.0, 8000.0]),
        move_fraction=st.floats(0.1, 0.9),
        early_release=st.booleans(),
    )
    @move_settings
    def test_loss_free_move_is_loss_free(
        self, seed, n_flows, rate, move_fraction, early_release
    ):
        reset_uid_counter()
        result = run_move_experiment(
            "lf",
            early_release=early_release,
            n_flows=n_flows,
            rate_pps=rate,
            seed=seed,
            data_packets=8,
            move_at_ms=None,
        )
        result.deployment.sim.run()
        assert result.report.packets_dropped == 0
        assert result.loss_free, result.loss_free_detail

    @given(
        seed=st.integers(0, 1000),
        n_flows=st.integers(5, 40),
        rate=st.sampled_from([1000.0, 2500.0, 6000.0]),
    )
    @move_settings
    def test_order_preserving_move_preserves_order(self, seed, n_flows, rate):
        reset_uid_counter()
        result = run_move_experiment(
            "op", n_flows=n_flows, rate_pps=rate, seed=seed, data_packets=8
        )
        assert result.loss_free, result.loss_free_detail
        assert result.order_preserving, result.order_detail

    @given(seed=st.integers(0, 200), rate=st.sampled_from([4000.0, 8000.0]))
    @move_settings
    def test_ng_move_is_not_loss_free_under_load(self, seed, rate):
        reset_uid_counter()
        result = run_move_experiment(
            "ng", n_flows=40, rate_pps=rate, seed=seed, data_packets=10
        )
        assert result.report.packets_dropped > 0
        assert not result.loss_free
