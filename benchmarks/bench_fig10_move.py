"""Figure 10: move efficiency under guarantees (§8.1.1).

Reproduces both panels for a move of 500 flows' PRADS state at
2500 packets/second:

* (a) total move time for NG, NG+PL, LF, LF+PL, LF+PL+ER, LF+OP+PL+ER;
* (b) average and maximum added per-packet latency for packets affected
  by the operation (carried in events or buffered at the destination).

Paper anchors: NG 193 ms, NG+PL 134 ms, LF+PL ≈218 ms (+62 % over
NG+PL), LF+PL+ER average added latency ≈50 ms (−63 % vs LF+PL),
LF+OP+PL+ER costs roughly 2× LF+PL+ER. The reproduction must show the
same ordering and approximate factors.
"""

from __future__ import annotations

import pytest

from repro.harness import run_move_experiment
from repro.net.channel import BatchConfig

from common import format_table, publish, run_once

N_FLOWS = 500
RATE_PPS = 2500.0
DATA_PACKETS = 160  # ≈80k packets total, as in the paper's warmup

CONFIGS = [
    ("NG", dict(guarantee="ng", parallel=False)),
    ("NG PL", dict(guarantee="ng", parallel=True)),
    ("LF", dict(guarantee="lf", parallel=False)),
    ("LF PL", dict(guarantee="lf", parallel=True)),
    ("LF PL+ER", dict(guarantee="lf", parallel=True, early_release=True)),
    ("LF+OP PL+ER", dict(guarantee="op", parallel=True, early_release=True)),
    # Beyond the paper's figure: the technical report's strong variant.
    ("LF+OP-strong", dict(guarantee="op-strong", parallel=True)),
]


def run_figure10():
    results = {}
    for label, kwargs in CONFIGS:
        results[label] = run_move_experiment(
            n_flows=N_FLOWS,
            rate_pps=RATE_PPS,
            data_packets=DATA_PACKETS,
            seed=7,
            **kwargs,
        )
    return results


def test_fig10_move_guarantees(benchmark):
    results = run_once(benchmark, run_figure10)

    rows = []
    for label, _ in CONFIGS:
        r = results[label]
        rows.append(
            [
                label,
                "%.0f" % r.duration_ms,
                r.report.packets_dropped,
                r.report.packets_in_events,
                r.report.packets_buffered_at_dst,
                "%.1f" % r.latency.average_added_ms,
                "%.1f" % r.latency.max_added_ms,
                "yes" if r.loss_free else "NO",
                "yes" if r.order_preserving else "NO",
            ]
        )
    publish(
        "fig10_move",
        format_table(
            "Figure 10 — move of %d flows @ %d pps (simulated ms)"
            % (N_FLOWS, int(RATE_PPS)),
            ["config", "total_ms", "dropped", "evented", "buffered",
             "lat_avg_ms", "lat_max_ms", "loss-free", "order"],
            rows,
        ),
    )

    ng, ng_pl = results["NG"], results["NG PL"]
    lf, lf_pl = results["LF"], results["LF PL"]
    lf_er = results["LF PL+ER"]
    op_er = results["LF+OP PL+ER"]
    op_strong = results["LF+OP-strong"]

    # Panel (a) shape: PL speeds up each mode; guarantees cost time.
    assert ng_pl.duration_ms < ng.duration_ms
    assert lf_pl.duration_ms < lf.duration_ms
    assert lf_pl.duration_ms > ng_pl.duration_ms  # loss-freedom costs time
    assert op_er.duration_ms > lf_er.duration_ms  # ordering costs more

    # Safety: NG drops, the others do not.
    assert ng.report.packets_dropped > 0 and ng_pl.report.packets_dropped > 0
    for safe in (lf, lf_pl, lf_er, op_er):
        assert safe.report.packets_dropped == 0
        assert safe.loss_free
    assert op_er.order_preserving

    # Panel (b) shape: ER slashes added latency; OP buffers at dst.
    assert lf_er.latency.average_added_ms < 0.5 * lf_pl.latency.average_added_ms
    assert op_er.report.packets_buffered_at_dst > 0
    # The strong variant is also safe and ordered.
    assert op_strong.loss_free and op_strong.order_preserving
    assert op_strong.report.packets_dropped == 0


# ---------------------------------------------------------------- batching

BATCH_CONFIGS = [
    ("off", None),
    ("on (defaults)", BatchConfig()),
    ("on (msgs=32)", BatchConfig(batch_max_msgs=32)),
]


def run_batching_sweep():
    results = {}
    for label, config in BATCH_CONFIGS:
        results[label] = run_move_experiment(
            guarantee="lf",
            parallel=True,
            n_flows=N_FLOWS,
            rate_pps=RATE_PPS,
            data_packets=DATA_PACKETS,
            seed=7,
            batching=config,
        )
    return results


def test_fig10_batching_sweep(benchmark):
    """§8.3 batching: LF+PL move of 500 flows, transport off vs on."""
    results = run_once(benchmark, run_batching_sweep)

    rows = []
    for label, _config in BATCH_CONFIGS:
        r = results[label]
        rows.append([
            label,
            "%.0f" % r.duration_ms,
            r.deployment.control_messages_sent,
            "yes" if r.loss_free else "NO",
        ])
    publish(
        "fig10_batching",
        format_table(
            "§8.3 batching — LF PL move of %d flows @ %d pps"
            % (N_FLOWS, int(RATE_PPS)),
            ["transport", "total_ms", "ctrl_msgs", "loss-free"],
            rows,
        ),
    )

    off = results["off"]
    on = results["on (defaults)"]
    assert off.loss_free and on.loss_free
    # Acceptance: >=2x fewer control-plane messages and a faster move.
    assert on.deployment.control_messages_sent * 2 <= (
        off.deployment.control_messages_sent
    )
    assert on.duration_ms < off.duration_ms
