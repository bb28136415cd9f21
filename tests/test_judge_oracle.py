"""The array judges against the per-uid judges they replaced.

``check_loss_free`` and ``check_order_preserving`` keep their per-packet
marks in arrays indexed by uid; ``tests/oracles.py`` holds the set,
dict and rank-map judges they replaced, verbatim. Both must return the
identical ``(ok, detail)`` pair, detail strings included: on forged logs
that reach every branch (missing, duplicated, inversions, detours,
ports that reach no NF, restrictions, nothing judged, uids with gaps),
on seeded random logs, and on real moves on one switch and on a
two-tier spine.
"""

from __future__ import annotations

import random

import pytest

from repro.flowspace import FiveTuple
from repro.harness import (
    build_multi_instance_deployment,
    check_chain_loss_free,
    check_loss_free,
    check_order_preserving,
    run_move_experiment,
)
from tests import oracles
from tests.conftest import make_packet
from tests.test_topology import move_across_leaves

FLOW_A = FiveTuple("10.0.0.1", 1000, "10.0.0.2", 80)
FLOW_A_REPLY = FiveTuple("10.0.0.2", 80, "10.0.0.1", 1000)
FLOW_B = FiveTuple("10.0.0.3", 1001, "10.0.0.2", 80)
FLOWS = (FLOW_A, FLOW_A_REPLY, FLOW_B)

TO_1, TO_2, CTRL, ELSEWHERE = ("inst1",), ("inst2",), ("controller",), ("x",)


def verdicts(switch, nfs, packets, uids=None):
    """Every judgement, as ``(name, new, oracle)`` triples."""
    out = [
        ("loss-free", check_loss_free(switch, nfs),
         oracles.check_loss_free(switch, nfs)),
        ("order", check_order_preserving(switch, nfs, packets),
         oracles.check_order_preserving(switch, nfs, packets)),
        ("order/whole", check_order_preserving(switch, nfs, packets, False),
         oracles.check_order_preserving(switch, nfs, packets, False)),
    ]
    if uids is not None:
        out.append(("loss-free/uids", check_loss_free(switch, nfs, uids),
                    oracles.check_loss_free(switch, nfs, uids)))
    return out


def assert_agree(switch, nfs, packets, uids=None):
    for name, new, old in verdicts(switch, nfs, packets, uids):
        assert isinstance(old, tuple) and (new[0], new[1]) == old, name
        assert new.judged >= 0, name


def forge(spec):
    """A two-instance deployment whose logs ``spec`` writes.

    ``spec`` has ``flows`` (one flow per packet, by index into
    :data:`FLOWS`), ``forward`` (``(packet, actions)`` rows, one per
    millisecond) and ``done`` (``(nf, time, packet)``); ``skip`` mints
    that many uids before each packet, so the uids have gaps.
    """
    dep, (a, b) = build_multi_instance_deployment(2)
    packets = []
    for flow in spec["flows"]:
        for _ in range(spec.get("skip", 0)):
            make_packet(FLOW_B)
        packets.append(make_packet(FLOWS[flow]))
    uid = [p.uid for p in packets]
    dep.switch.forward_log = [
        (float(t), uid[k], actions)
        for t, (k, actions) in enumerate(spec["forward"])
    ]
    a.processing_log = [(t, uid[k]) for nf, t, k in spec["done"] if nf == 0]
    b.processing_log = [(t, uid[k]) for nf, t, k in spec["done"] if nf == 1]
    return dep, [a, b], packets


#: name -> (spec, loss-free ok, order ok): the expectations prove each
#: case reaches the branch it is named for.
CASES = {
    "clean": ({
        "flows": [0, 1, 2, 0],
        "forward": [(0, TO_1), (1, TO_1), (2, TO_1), (3, TO_1)],
        "done": [(0, 1.0, 0), (0, 2.0, 1), (0, 3.0, 2), (0, 4.0, 3)],
    }, True, True),
    "missing": ({
        "flows": [0, 0, 0, 2],
        "forward": [(0, TO_1), (1, TO_1), (2, TO_1), (3, TO_1)],
        "done": [(0, 1.0, 0), (0, 3.0, 2)],
    }, False, True),
    "duplicated, cited in first-processing order": ({
        "flows": [0, 0, 2],
        "forward": [(0, TO_1), (1, TO_1), (2, TO_1)],
        "done": [(0, 1.0, 1), (0, 2.0, 0), (1, 0.5, 0), (1, 3.0, 1),
                 (1, 4.0, 2)],
    }, False, True),
    "in-flow inversion": ({
        "flows": [0, 1, 2],
        "forward": [(0, TO_1), (1, TO_1), (2, TO_1)],
        "done": [(0, 1.0, 1), (0, 2.0, 0), (0, 3.0, 2)],
    }, True, False),
    "cross-flow reorder": ({
        "flows": [0, 2, 0, 2],
        "forward": [(0, TO_1), (1, TO_1), (2, TO_1), (3, TO_1)],
        "done": [(0, 1.0, 1), (0, 2.0, 0), (0, 3.0, 3), (0, 4.0, 2)],
    }, True, True),
    "detour, then packet-out, in arrival order": ({
        "flows": [0, 0, 0],
        "forward": [(0, CTRL), (1, CTRL), (2, TO_2), (0, TO_2), (1, TO_2)],
        "done": [(1, 5.0, 0), (1, 6.0, 1), (1, 7.0, 2)],
    }, True, True),
    "detour, then packet-out, out of arrival order": ({
        "flows": [0, 0, 0],
        "forward": [(0, CTRL), (1, TO_1), (0, TO_2)],
        "done": [(0, 2.0, 1), (1, 4.0, 0)],
    }, True, False),
    "non-NF port": ({
        "flows": [0, 0, 2],
        "forward": [(0, ELSEWHERE), (1, TO_1), (2, TO_1 + CTRL)],
        "done": [(0, 2.0, 1), (0, 3.0, 2)],
    }, True, True),
    "processed after a non-NF port": ({
        "flows": [0, 0],
        "forward": [(0, ELSEWHERE), (1, TO_1)],
        "done": [(0, 1.0, 0), (0, 2.0, 1)],
    }, True, False),
    "processed, never forwarded": ({
        "flows": [0, 0, 2],
        "forward": [(0, TO_1), (2, TO_1)],
        "done": [(0, 1.0, 0), (0, 2.0, 1), (0, 3.0, 2)],
    }, True, False),
    "judged no packet": ({
        "flows": [0, 2],
        "forward": [(0, CTRL), (1, ELSEWHERE)],
        "done": [(0, 1.0, 0), (1, 2.0, 1), (1, 3.0, 1)],
    }, False, False),
    "non-contiguous uids": ({
        "skip": 6,
        "flows": [2, 0, 1, 0, 2],
        "forward": [(3, TO_1), (0, TO_1), (4, TO_2), (1, TO_1), (2, TO_1)],
        "done": [(0, 1.0, 3), (1, 1.5, 4), (0, 2.0, 0), (0, 4.0, 2),
                 (0, 3.0, 1)],
    }, True, False),
    "equal completion times break by uid": ({
        "flows": [0, 0],
        "forward": [(1, TO_1), (0, TO_2)],
        "done": [(0, 5.0, 1), (1, 5.0, 0)],
    }, True, False),
    "reprocessed later": ({
        "flows": [0, 0],
        "forward": [(0, TO_1), (1, TO_1)],
        "done": [(0, 1.0, 0), (0, 5.0, 1), (1, 9.0, 0)],
    }, False, False),
    "nothing logged": ({"flows": [0, 1], "forward": [], "done": []},
                       True, True),
}


class TestForgedLogs:
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_agrees_with_the_oracle(self, name):
        spec, lf_ok, op_ok = CASES[name]
        dep, nfs, packets = forge(spec)
        uids = {p.uid for p in packets[1:]}
        assert_agree(dep.switch, nfs, packets, uids)
        assert check_loss_free(dep.switch, nfs)[0] is lf_ok
        assert check_order_preserving(dep.switch, nfs, packets)[0] is op_ok
        for one in nfs:
            assert_agree(dep.switch, [one], packets, uids)
        # A population that leaves packets out judges fewer of them.
        assert_agree(dep.switch, nfs, packets[::2])

    def test_details_name_what_failed(self):
        dep, nfs, packets = forge(CASES["duplicated, cited in "
                                        "first-processing order"][0])
        first, second = packets[0].uid, packets[1].uid
        assert check_loss_free(dep.switch, nfs) == (
            False, "missing=[] duplicated=[%d, %d]" % (second, first))
        dep, nfs, packets = forge(CASES["judged no packet"][0])
        verdict = check_loss_free(dep.switch, nfs)
        assert verdict[1].startswith("judged no packet: none of the 2 ")
        assert verdict.judged == 0

    def test_uid_restriction_hides_what_it_leaves_out(self):
        dep, nfs, packets = forge(CASES["missing"][0])
        lost = {packets[1].uid, packets[3].uid}
        kept = {p.uid for p in packets} - lost
        verdict = check_loss_free(dep.switch, nfs, kept)
        assert verdict == (True, "") and verdict.judged == 2
        assert_agree(dep.switch, nfs, packets, kept)

    def test_chain_verdict_is_the_hops_verdicts(self):
        dep, (a, b), packets = forge(CASES["missing"][0])
        hops = [("first", [a]), ("second", [b])]
        failures = []
        for hop, nfs in hops:
            ok, detail = oracles.check_loss_free(dep.switch, nfs)
            if not ok:
                failures.append("hop %r: %s" % (hop, detail))
        verdict = check_chain_loss_free(dep.switch, hops)
        assert verdict == (False, "; ".join(failures))
        # Nothing was forwarded to the second hop: the fewest judged is 0.
        assert verdict.judged == 0
        assert check_chain_loss_free(dep.switch, hops[:1]).judged == 4

    @pytest.mark.parametrize("seed", range(150))
    def test_random_logs(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 12)
        forward = []
        for k in range(n):
            for _ in range(rng.choice((0, 1, 1, 1, 2, 3))):
                forward.append((k, rng.choice(
                    (TO_1, TO_1, TO_2, CTRL, ELSEWHERE, TO_1 + CTRL))))
        rng.shuffle(forward)
        done = [
            (rng.randint(0, 1), float(rng.randint(0, 6)), k)
            for k in range(n) for _ in range(rng.choice((0, 1, 1, 1, 2)))
        ]
        spec = {"skip": rng.randint(0, 3),
                "flows": [rng.randint(0, 2) for _ in range(n)],
                "forward": forward, "done": done}
        dep, nfs, packets = forge(spec)
        uids = {p.uid for p in packets if rng.random() < 0.6}
        population = [p for p in packets if rng.random() < 0.8]
        assert_agree(dep.switch, nfs, population, uids)


class TestRealRuns:
    @pytest.mark.parametrize("guarantee", ["ng", "lf", "lf+op"])
    def test_one_switch(self, guarantee):
        result = run_move_experiment(guarantee, n_flows=40, rate_pps=4000.0,
                                     seed=5)
        dep = result.deployment
        nfs = [dep.nfs["inst1"], dep.nfs["inst2"]]
        packets = result.replayer.injected
        uids = {p.uid for p in packets[::3]}
        assert_agree(dep.switch, nfs, packets, uids)
        verdict = check_loss_free(dep.switch, nfs)
        assert verdict.judged == len(packets)
        assert verdict[0] is (guarantee != "ng")

    @pytest.mark.parametrize("guarantee", ["ng", "lf", "lf+op"])
    def test_two_tier(self, guarantee):
        topo, src, dst, replayer, _report = move_across_leaves(
            guarantee, n_flows=30)
        packets = replayer.injected
        assert_agree(topo.switch, [src, dst], packets,
                     {p.uid for p in packets[1::2]})
        assert check_order_preserving(
            topo.switch, [src, dst], packets).judged > 0
