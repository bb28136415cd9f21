"""Metrics semantics plus the buffered-packet conservation property.

The registry half pins down counter/histogram behaviour (label
separation, monotonicity, reset, kind conflicts). The property half
asserts the invariant the loss-free guarantee rests on: every packet
the controller buffers during a successful move is later released, and
every packet the destination NF buffers is released when its buffer
opens — measured by the instrumentation itself, not by the mechanism
under test.
"""

import math
import random

import pytest

from repro.harness import run_move_experiment
from repro.obs import MetricsRegistry
from repro.obs.metrics import GAMMA, OVERFLOW_LABELS
from tests.oracles import raw_percentile

pytestmark = pytest.mark.obs


class TestCounter:
    def test_monotone_and_label_separated(self):
        registry = MetricsRegistry()
        counter = registry.counter("pkts")
        counter.inc(2, nf="a")
        counter.inc(3, nf="a")
        counter.inc(5, nf="b")
        assert counter.value(nf="a") == 5
        assert counter.value(nf="b") == 5
        assert counter.value(nf="c") == 0
        assert counter.total() == 10

    def test_label_order_insensitive(self):
        counter = MetricsRegistry().counter("pkts")
        counter.inc(1, nf="a", port="p1")
        counter.inc(1, port="p1", nf="a")
        assert counter.value(nf="a", port="p1") == 2

    def test_negative_increment_rejected(self):
        counter = MetricsRegistry().counter("pkts")
        with pytest.raises(ValueError):
            counter.inc(-1)
        assert counter.total() == 0

    def test_unlabelled_series(self):
        counter = MetricsRegistry().counter("pkts")
        counter.inc()
        counter.inc(4)
        assert counter.value() == 5
        assert counter.snapshot() == {"_": 5}


class TestHistogram:
    def test_aggregates_exact(self):
        # count/sum/min/max/mean are exact; only percentile is approximate.
        hist = MetricsRegistry().histogram("rpc_ms")
        for value in (2.0, 4.0, 9.0):
            hist.observe(value, op="get")
        assert hist.count(op="get") == 3
        assert hist.sum(op="get") == 15.0
        assert hist.min(op="get") == 2.0
        assert hist.max(op="get") == 9.0
        assert hist.mean(op="get") == 5.0

    def test_empty_series(self):
        hist = MetricsRegistry().histogram("rpc_ms")
        assert hist.count() == 0
        assert hist.min() is None and hist.max() is None
        assert hist.mean() is None

    def test_snapshot_shape(self):
        hist = MetricsRegistry().histogram("rpc_ms")
        hist.observe(1.0, op="put")
        hist.observe(3.0, op="put")
        assert hist.snapshot() == {
            "op=put": {
                "count": 2, "sum": 4.0, "min": 1.0, "max": 3.0,
                "p50": 1.0, "p90": 3.0, "p99": 3.0,
            }
        }

    def test_oracle_percentiles_nearest_rank(self):
        samples = [float(value) for value in range(1, 101)]
        assert raw_percentile(samples, 50) == 50.0
        assert raw_percentile(samples, 90) == 90.0
        assert raw_percentile(samples, 99) == 99.0
        assert raw_percentile(samples, 100) == 100.0
        assert MetricsRegistry().histogram("rpc_ms").percentile(
            50, op="missing") is None

    def test_percentile_edge_cases(self):
        hist = MetricsRegistry().histogram("rpc_ms")
        hist.observe(7.5)
        # A single sample IS every percentile.
        assert hist.percentile(0) == 7.5
        assert hist.percentile(50) == 7.5
        assert hist.percentile(100) == 7.5
        with pytest.raises(ValueError):
            hist.percentile(-1)
        with pytest.raises(ValueError):
            hist.percentile(101)

    def test_oracle_percentile_edges(self):
        assert raw_percentile([], 50) is None
        assert raw_percentile([3.0], 0) == 3.0
        assert raw_percentile([3.0], 100) == 3.0
        assert raw_percentile([5.0, 1.0, 3.0], 0) == 1.0
        assert raw_percentile([5.0, 1.0, 3.0], 100) == 5.0
        with pytest.raises(ValueError):
            raw_percentile([1.0], 120)

    def test_bounded_within_one_bucket_of_raw_oracle(self):
        """Differential test: bounded percentiles land within one
        log-bucket width of the exact nearest-rank answer."""
        rng = random.Random(20260808)
        for trial in range(20):
            samples = []
            approx_hist = MetricsRegistry().histogram("lat")
            n = rng.randrange(1, 400)
            for _ in range(n):
                # Mix of magnitudes: sub-ms to tens of seconds.
                value = rng.uniform(0.01, 10.0) * 10 ** rng.randrange(0, 4)
                samples.append(value)
                approx_hist.observe(value)
            for q in (0, 1, 25, 50, 90, 99, 100):
                exact = raw_percentile(samples, q)
                approx = approx_hist.percentile(q)
                assert exact <= approx <= exact * GAMMA * (1 + 1e-9), (
                    trial, q, exact, approx
                )

    def test_bounded_zero_and_negative_samples(self):
        hist = MetricsRegistry().histogram("delta")
        for value in (-4.0, -1.0, 0.0, 2.0):
            hist.observe(value)
        assert hist.min() == -4.0
        assert hist.max() == 2.0
        assert hist.percentile(0) == -4.0
        assert hist.percentile(100) == 2.0
        # p50 (rank 2 of 4) falls on the -1.0 sample's bucket.
        p50 = hist.percentile(50)
        assert -1.0 * GAMMA * (1 + 1e-9) <= p50 <= -1.0 / GAMMA * (1 - 1e-9)

    @pytest.mark.parametrize(
        "value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"]
    )
    def test_non_finite_sample_rejected(self, value):
        """A NaN used to count as a zero and poison sum / min / max / p50,
        and an infinity died in ``math.ceil``: both are refused, and the
        series stays what the finite samples made it."""
        hist = MetricsRegistry().histogram("lat")
        hist.observe(2.0, op="get")
        bound = hist.bind(op="get")
        with pytest.raises(ValueError, match="not finite"):
            hist.observe(value, op="get")
        with pytest.raises(ValueError, match="not finite"):
            bound.observe(value)
        assert hist.count(op="get") == 1
        assert (hist.sum(op="get"), hist.min(op="get"), hist.max(op="get"),
                hist.percentile(50, op="get")) == (2.0, 2.0, 2.0, 2.0)

    def test_non_finite_first_sample_leaves_no_series(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.histogram("lat").bind(op="get").observe(math.nan)
        assert registry.snapshot()["lat"]["series"] == {}

    def test_render_prometheus(self):
        registry = MetricsRegistry()
        registry.counter("pkts.total").inc(3, nf="a")
        hist = registry.histogram("rpc_ms")
        hist.observe(1.0, op="put")
        hist.observe(3.0, op="put")
        text = registry.render_prometheus()
        assert "# TYPE pkts_total counter" in text
        assert 'pkts_total{nf="a"} 3' in text
        assert "# TYPE rpc_ms summary" in text
        assert 'rpc_ms{op="put",quantile="0.5"} 1' in text
        assert 'rpc_ms{op="put",quantile="0.99"} 3' in text
        assert 'rpc_ms_sum{op="put"} 4' in text
        assert 'rpc_ms_count{op="put"} 2' in text


class TestCardinalityGuard:
    def test_overflow_aggregates_and_warns_once(self):
        registry = MetricsRegistry(max_label_sets=3)
        counter = registry.counter("pkts")
        for i in range(3):
            counter.inc(1, flow="f%d" % i)
        with pytest.warns(RuntimeWarning):
            counter.inc(2, flow="f3")
        # Second overflow does NOT warn again.
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            counter.inc(3, flow="f4")
        # Existing label sets still track exactly.
        assert counter.value(flow="f0") == 1
        # Overflowed increments aggregate into the 'other' bucket.
        assert counter.value(**OVERFLOW_LABELS) == 5
        assert counter.total() == 8
        assert counter.overflow_routed == 2

    def test_reset_reopens_capacity(self):
        registry = MetricsRegistry(max_label_sets=1)
        counter = registry.counter("pkts")
        counter.inc(1, flow="a")
        with pytest.warns(RuntimeWarning):
            counter.inc(1, flow="b")
        registry.reset()
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            counter.inc(4, flow="c")  # capacity is free again, no warn
        assert counter.value(flow="c") == 4

    def test_histogram_overflow(self):
        registry = MetricsRegistry(max_label_sets=1)
        hist = registry.histogram("lat")
        hist.observe(1.0, flow="a")
        with pytest.warns(RuntimeWarning):
            hist.observe(9.0, flow="b")
        assert hist.count(flow="a") == 1
        assert hist.count(**OVERFLOW_LABELS) == 1


class TestBoundHandles:
    """A push site on a hot path resolves its label set once."""

    def test_bound_counter_writes_its_series(self):
        registry = MetricsRegistry()
        rpcs = registry.counter("rpcs")
        bound = rpcs.bind(nf="a", op="get")
        assert rpcs.label_sets() == []  # the series appears on a write
        bound.inc()
        bound.inc(2)
        rpcs.inc(1, op="get", nf="a")
        assert rpcs.value(nf="a", op="get") == 4
        assert registry.snapshot()["rpcs"]["series"] == {"nf=a,op=get": 4}
        with pytest.raises(ValueError):
            bound.inc(-1)
        registry.reset()
        bound.inc()
        assert rpcs.value(nf="a", op="get") == 1

    def test_bound_handles_survive_reset(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat")
        bound_hist = hist.bind(op="get")
        bound_hist.observe(1.0)
        registry.reset()
        bound_hist.observe(4.0)
        hist.observe(2.0, op="get")
        assert hist.count(op="get") == 2
        assert hist.sum(op="get") == 6.0


class TestRegistry:
    def test_get_or_create_is_stable(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        assert registry.names() == ["x"]

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.histogram("x")

    def test_reset_clears_series_keeps_instruments(self):
        registry = MetricsRegistry()
        registry.counter("x").inc(3)
        registry.histogram("y").observe(1.0)
        registry.reset()
        assert registry.names() == ["x", "y"]
        assert registry.counter("x").total() == 0
        assert registry.histogram("y").count() == 0


class TestPullCollectors:
    """Components count in plain ints; the registry pulls them on read."""

    def test_collector_folds_latest_total_on_every_read(self):
        registry = MetricsRegistry()
        state = {"n": 0}
        registry.add_collector(
            lambda reg: reg.publish("ext.pkts", state["n"], src="a")
        )
        # A zero count publishes nothing, not even the instrument.
        assert registry.snapshot() == {}
        state["n"] = 5
        assert registry.snapshot()["ext.pkts"]["series"] == {"src=a": 5}
        # Each read rebuilds the series from the current count — it
        # does not accumulate on top of the previous read.
        state["n"] = 9
        assert 'ext_pkts{src="a"} 9' in registry.render_prometheus()
        assert registry.snapshot()["ext.pkts"]["series"] == {"src=a": 9}

    def test_collectors_sharing_a_label_set_sum(self):
        # Two components of one name (a move's peer channel is built
        # per transfer) publish one series between them.
        registry = MetricsRegistry()
        registry.add_collector(lambda reg: reg.publish("c", 1, channel="x"))
        registry.add_collector(lambda reg: reg.publish("c", 2, channel="x"))
        assert registry.snapshot()["c"]["series"] == {"channel=x": 3}
        assert registry.counter("c").value(channel="x") == 3

    def test_iteration_triggers_collection(self):
        registry = MetricsRegistry()
        registry.add_collector(lambda reg: reg.publish("c", 7))
        instruments = {inst.name: inst for inst in registry}
        assert instruments["c"].value() == 7

    def test_instrument_reads_are_current_without_a_registry_read(self):
        # value() / total() / label_sets() / snapshot() on the instrument
        # itself must not wait for a registry-wide read to run the
        # collectors first.
        result = run_move_experiment(n_flows=20, observe=True)
        metrics = result.deployment.obs.metrics
        processed = metrics.counter("nf.packets.processed")
        assert processed.value(nf="inst1") == 152
        assert metrics.counter("sw.forwarded").total() == 300
        assert {"nf": "inst2"} in processed.label_sets()
        assert processed.snapshot() == (
            metrics.snapshot()["nf.packets.processed"]["series"]
        )
        state = {"n": 1}
        registry = MetricsRegistry()
        registry.add_collector(lambda reg: reg.publish("g", state["n"]))
        counter = registry.counter("g")
        assert counter.value() == 1
        state["n"] = 4
        assert counter.value() == counter.total() == 4
        registry.reset()
        assert counter.value() == 4  # the component's count, not a copy


class TestBufferConservation:
    """captured == released, measured by the obs layer itself."""

    @pytest.mark.parametrize("guarantee", ["lf", "op", "op-strong"])
    @pytest.mark.parametrize("seed", [1, 7])
    def test_controller_buffer_conserved(self, guarantee, seed):
        result = run_move_experiment(
            guarantee=guarantee, n_flows=40, seed=seed, observe=True
        )
        assert result.report.aborted is None
        metrics = result.deployment.obs.metrics
        captured = metrics.counter(
            "ctrl.move.buffered_packets_captured").total()
        released = metrics.counter(
            "ctrl.move.buffered_packets_released").total()
        assert captured > 0
        assert captured == released

    def test_dst_nf_buffer_conserved(self):
        result = run_move_experiment(guarantee="op", n_flows=40, observe=True)
        metrics = result.deployment.obs.metrics
        buffered = metrics.counter("nf.packets.buffered").value(nf="inst2")
        released = metrics.counter("nf.packets.released").value(nf="inst2")
        assert buffered > 0
        assert buffered == released

    def test_ng_move_counts_drops(self):
        result = run_move_experiment(guarantee="ng", n_flows=40, observe=True)
        metrics = result.deployment.obs.metrics
        dropped = metrics.counter("nf.packets.dropped").value(
            nf="inst1", mode="silent"
        )
        assert dropped == result.report.packets_dropped
        assert dropped > 0

    def test_chunk_accounting_matches_report(self):
        result = run_move_experiment(guarantee="lf", n_flows=25, observe=True)
        metrics = result.deployment.obs.metrics
        transferred = metrics.counter("ctrl.chunks.transferred").total()
        wire = metrics.counter("ctrl.chunks.wire_bytes").total()
        assert transferred == result.report.total_chunks
        assert wire == result.report.total_wire_bytes
