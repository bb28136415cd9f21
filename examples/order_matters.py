#!/usr/bin/env python3
"""When ordering matters: a redundancy-elimination decoder under moves.

§5.1.2 of the paper motivates the order-preserving move with an RE
decoder: "an encoded packet arriving before the data packet w.r.t.
which it was encoded will be silently dropped; this can cause the
decoder's data store to rapidly become out of synch with the encoders."

This example runs the same workload — repeating payloads, where each
repetition is an encoded token referencing the previous raw packet —
through a mid-stream move under three guarantee levels and counts
decoder desynchronizations. It also prints the order-preserving run's
operation records and phase spans, showing Figure 6 unfolding.

Run:  python examples/order_matters.py
"""

from repro import Deployment, Filter, FiveTuple, Packet, REDecoder, REEncoder
from repro.nf import Scope
from repro.traffic import TraceReplayer
from repro.traffic.generator import PacketBlueprint

N_ROUNDS = 240
REFERENCE_LAG = 40  # a token references the raw block from 40 rounds ago
PAYLOAD = "replicated-block-" + "x" * 400


def build_workload():
    """Flow A introduces a fresh raw block each round; flow B repeats the
    block from ``REFERENCE_LAG`` rounds earlier (the encoder tokenizes
    the repetition — RE dedupes *across* flows, which is why the
    decoder's store is all-flows state and why cross-flow ordering
    matters). The lag ensures a raw block and its token straddle the
    move window, exposing loss and reordering."""
    blueprints = []
    for round_index in range(N_ROUNDS):
        flow_a = FiveTuple("10.0.1.%d" % (round_index % 20 + 1),
                           20000 + round_index, "203.0.113.5", 9000)
        body = "%s-%d" % (PAYLOAD, round_index)  # unique per round
        blueprints.append(PacketBlueprint(flow_a, ("ACK",), 0, body))
        if round_index >= REFERENCE_LAG:
            flow_b = FiveTuple("10.0.2.%d" % (round_index % 20 + 1),
                               25000 + round_index, "203.0.113.5", 9000)
            referenced = "%s-%d" % (PAYLOAD, round_index - REFERENCE_LAG)
            blueprints.append(PacketBlueprint(flow_b, ("ACK",), 0,
                                              referenced))
    return blueprints


def run(guarantee: str, observe: bool = False):
    dep = Deployment(observe=observe)
    src = REDecoder(dep.sim, "dec1")
    dst = REDecoder(dep.sim, "dec2")
    dep.add_nf(src)
    dep.add_nf(dst)
    dep.set_default_route("dec1")

    # Encode on the fly at injection: repeat payloads become tokens.
    encoder = REEncoder(dep.sim, "enc")

    def inject(packet: Packet) -> None:
        encoder.encode(packet)
        dep.inject(packet)

    replayer = TraceReplayer(dep.sim, inject, build_workload(),
                             rate_pps=2000.0)
    replayer.start()
    flt = Filter({"nw_src": "10.0.0.0/8"}, symmetric=True)
    # The fingerprint store is all-flows state: it must travel with the
    # move, or every post-move token desyncs regardless of ordering.
    dep.sim.schedule(
        replayer.duration_ms / 2,
        lambda: dep.controller.move(
            "dec1", "dec2", flt,
            scope=(Scope.PERFLOW, Scope.ALLFLOWS),
            guarantee=guarantee,
        ),
    )
    dep.sim.run()
    desyncs = src.desync_drops + dst.desync_drops
    return desyncs, dep.obs.exporter


def main() -> None:
    print("RE-decoder desynchronizations during a mid-stream move:")
    for guarantee in ("ng", "loss-free", "op"):
        desyncs, _ = run(guarantee)
        print("  %-11s %3d desyncs" % (guarantee, desyncs))

    desyncs, exporter = run("op", observe=True)
    assert desyncs == 0
    print()
    print("Order-preserving run: zero desyncs. Operation records:")
    for record in exporter.records:
        if record["name"] in ("op.start", "op.end"):
            print("  %8.1f ms  %-8s %s"
                  % (record["time_ms"], record["name"], record["kind"]))
    print("Figure 6, phase by phase:")
    phases = [s for s in exporter.spans if s.name.startswith("move.")]
    for span in sorted(phases, key=lambda s: (s.start, s.span_id)):
        print("  %8.1f ..%8.1f ms  %s" % (span.start, span.end, span.name))


if __name__ == "__main__":
    main()
