"""Shared fixtures for the OpenNF reproduction test suite."""

from __future__ import annotations

import os

import pytest
from hypothesis import HealthCheck, settings

from repro.flowspace import Filter, FiveTuple
from repro.harness import Deployment
from repro.net.packet import Packet, reset_uid_counter
from repro.nfs.monitor import AssetMonitor
from repro.sim import Simulator

# Hypothesis profiles shared by every property test (test_properties,
# test_stateful_properties, test_strong_op, test_conform_kit). Tests
# override only what genuinely differs (example counts, step counts);
# the simulation-friendly baseline — no wall-clock deadline, no
# too-slow/data-too-large health-check noise — lives here once.
#
# * ``ci`` (default): few examples, derandomized for reproducible runs,
#   no example database — what the GitHub Actions job uses.
# * ``dev``: more examples with fresh randomness each run — what a
#   local bug hunt wants. Select with HYPOTHESIS_PROFILE=dev.
_COMMON = dict(
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.data_too_large,
        HealthCheck.filter_too_much,
    ],
)
settings.register_profile(
    "ci", max_examples=25, derandomize=True, database=None, **_COMMON
)
settings.register_profile("dev", max_examples=150, **_COMMON)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))


@pytest.fixture(autouse=True)
def _fresh_uids():
    """Keep packet uids deterministic per test."""
    reset_uid_counter()
    yield


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def flow():
    return FiveTuple("10.0.1.2", 1234, "203.0.113.5", 80)


def make_packet(flow, flags=(), seq=0, payload="", created_at=0.0):
    return Packet(flow, tcp_flags=flags, seq=seq, payload=payload,
                  created_at=created_at)


def clear_log(log):
    """Drop every row of a ground-truth log (``forward_log``,
    ``processing_log``) in place: the known-bad twin of a clean run."""
    for column in log._columns:
        del column[:]


def series(registry, name):
    """``name``'s series as the registry's snapshot shows them: label
    string (``"nf=a,op=get"``, ``"_"`` unlabelled) -> value."""
    return registry.snapshot().get(name, {"series": {}})["series"]


def counter_total(registry, name):
    """Sum of counter ``name`` across its label sets."""
    return sum(series(registry, name).values())


def _by_start(spans):
    return sorted(spans, key=lambda s: (s.start, s.span_id))


def spans_named(exporter, name):
    """Finished spans with this exact name, ordered by start time."""
    return _by_start(s for s in exporter.spans if s.name == name)


def root_spans(exporter):
    """Finished spans with no parent, ordered by start time."""
    return _by_start(s for s in exporter.spans if s.parent_id is None)


def children_of(exporter, span):
    """Direct children of ``span``, ordered by start time."""
    return _by_start(s for s in exporter.spans if s.parent_id == span.span_id)


@pytest.fixture
def two_monitor_deployment():
    """A deployment with two PRADS monitors, traffic defaulting to the first."""
    dep = Deployment()
    src = AssetMonitor(dep.sim, "prads1")
    dst = AssetMonitor(dep.sim, "prads2")
    dep.add_nf(src)
    dep.add_nf(dst)
    dep.set_default_route("prads1")
    return dep, src, dst


LOCAL_FILTER = Filter({"nw_src": "10.0.0.0/8"}, symmetric=True)
