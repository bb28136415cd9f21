"""Each NF's state table: what it exports, pinned, and the import rule
it declares per scope.

Every NF declares its state as one ``StateSpec`` per scope and the base
class derives get / put / del from that table. The chunks the derivation
exports must stay byte for byte what the NFs exported when each one
hand-wrote its handlers — the chunk data, sizes and key order drive the
simulated clock. Under each NF's conformance traffic
(``tests/test_conformance.py``), every exported chunk is pinned: its key,
a sha256 of its wire encoding and its size.

``python tests/test_nf_state_table.py`` prints the current table
(regenerate only in a change that says why chunk contents move).
"""

import hashlib
import pprint

import pytest

from repro.flowspace import Filter, FiveTuple, FlowId
from repro.net.packet import Packet, reset_uid_counter
from repro.nf import Scope
from repro.nf.conformance import _default_traffic
from repro.nfs.monitor import AssetMonitor
from repro.sim import Simulator
from tests.test_conformance import CASES


def exported(factory, traffic):
    """``{scope: [(key, sha256 prefix, size), ...]}`` for one NF."""
    reset_uid_counter()
    sim = Simulator()
    nf = factory(sim, "pin")
    for packet in (traffic() if traffic is not None else _default_traffic()):
        nf.receive(packet)
    sim.run()
    table = {}
    for scope in Scope:
        rows = []
        for key in nf.state_keys(scope, Filter.wildcard()):
            chunk = nf.export_chunk(scope, key)
            rows.append((
                # All-flows state is one chunk, keyed by the NF's own
                # name for it: only the chunk is pinned.
                "-" if scope is Scope.ALLFLOWS else repr(key),
                hashlib.sha256(chunk.to_json_bytes()).hexdigest()[:16],
                chunk.size_bytes,
            ))
        table[scope.value] = rows
    return table


PINS = {'AssetMonitor': {'allflows': [('-', '05d740d5ebbe739c', 89)],
                         'multiflow': [('FlowId~{nw_src=10.0.1.1}', '64e3736bbe577388', 197),
                                       ('FlowId~{nw_src=203.0.113.5}', '5bac44fd2b1ead9f', 204),
                                       ('FlowId~{nw_src=10.0.1.2}', '1380dd2a22588b48', 197),
                                       ('FlowId~{nw_src=10.0.1.3}', '7ba9325703f17ce8', 196),
                                       ('FlowId~{nw_src=10.0.1.4}', '2bcf1f5d0793182b', 197),
                                       ('FlowId~{nw_src=10.0.1.5}', 'df54db9044359e77', 211),
                                       ('FlowId~{nw_src=10.0.1.6}', '3e36f82f15791a16', 225),
                                       ('FlowId~{nw_src=10.0.1.7}', 'd9b9f6a53ef4c927', 225),
                                       ('FlowId~{nw_src=10.0.1.8}', '72d054cb2851bec3', 225)],
                         'perflow': [('FlowId~{nw_dst=203.0.113.5, nw_proto=6, nw_src=10.0.1.1, '
                                      'tp_dst=80, tp_src=20000}',
                                      '43732d5a7eb152a4',
                                      236),
                                     ('FlowId~{nw_dst=203.0.113.5, nw_proto=6, nw_src=10.0.1.2, '
                                      'tp_dst=80, tp_src=20001}',
                                      'a53101f0ab1e99a4',
                                      236),
                                     ('FlowId~{nw_dst=203.0.113.5, nw_proto=6, nw_src=10.0.1.3, '
                                      'tp_dst=80, tp_src=20002}',
                                      'e38a673f1b9fbc89',
                                      235),
                                     ('FlowId~{nw_dst=203.0.113.5, nw_proto=6, nw_src=10.0.1.4, '
                                      'tp_dst=80, tp_src=20003}',
                                      'ae0b380edea8cfd9',
                                      236),
                                     ('FlowId~{nw_dst=203.0.113.5, nw_proto=6, nw_src=10.0.1.5, '
                                      'tp_dst=80, tp_src=20004}',
                                      '765c845c9c9a0956',
                                      250),
                                     ('FlowId~{nw_dst=203.0.113.5, nw_proto=6, nw_src=10.0.1.6, '
                                      'tp_dst=80, tp_src=20005}',
                                      'e25784c95cdaa2b2',
                                      264),
                                     ('FlowId~{nw_dst=203.0.113.5, nw_proto=6, nw_src=10.0.1.7, '
                                      'tp_dst=80, tp_src=20006}',
                                      'cf293fd1a05441b8',
                                      264),
                                     ('FlowId~{nw_dst=203.0.113.5, nw_proto=6, nw_src=10.0.1.8, '
                                      'tp_dst=80, tp_src=20007}',
                                      '8f21ecd83b6a3528',
                                      264)]},
        'CachingProxy': {'allflows': [('-', 'bff39f24ddf836f6', 108)],
                         'multiflow': [("'/obj/0'", '3d350aaf83182285', 200220),
                                       ("'/obj/1'", '21ae14794d33e75f', 200220),
                                       ("'/obj/2'", '34aefd86e7f8bca4', 200220),
                                       ("'/obj/3'", 'c5477e88ff72b5e8', 200220),
                                       ("'/obj/4'", 'd65c60fe8e76f95d', 200220)],
                         'perflow': [('FlowId~{nw_dst=203.0.113.5, nw_proto=6, nw_src=10.0.1.1, '
                                      'tp_dst=80, tp_src=20000}',
                                      '1ccf13f0f4568926',
                                      244),
                                     ('FlowId~{nw_dst=203.0.113.5, nw_proto=6, nw_src=10.0.1.2, '
                                      'tp_dst=80, tp_src=20001}',
                                      '0b767cbe686cd8a1',
                                      244),
                                     ('FlowId~{nw_dst=203.0.113.5, nw_proto=6, nw_src=10.0.1.3, '
                                      'tp_dst=80, tp_src=20002}',
                                      '3571e601d448f7b7',
                                      259),
                                     ('FlowId~{nw_dst=203.0.113.5, nw_proto=6, nw_src=10.0.1.4, '
                                      'tp_dst=80, tp_src=20003}',
                                      'b488932cf6eed9a9',
                                      244),
                                     ('FlowId~{nw_dst=203.0.113.5, nw_proto=6, nw_src=10.0.1.5, '
                                      'tp_dst=80, tp_src=20004}',
                                      '93448f6d9edf8d3d',
                                      244)]},
        'DummyNF': {'allflows': [],
                    'multiflow': [],
                    'perflow': [('FlowId~{nw_dst=198.18.0.1, nw_proto=6, nw_src=172.16.1.1, tp_dst=80, '
                                 'tp_src=10000}',
                                 '22c9a1f8bd7e445b',
                                 202),
                                ('FlowId~{nw_dst=198.18.0.1, nw_proto=6, nw_src=172.16.1.2, tp_dst=80, '
                                 'tp_src=10001}',
                                 '8952df826e92e57a',
                                 202),
                                ('FlowId~{nw_dst=198.18.0.1, nw_proto=6, nw_src=172.16.1.3, tp_dst=80, '
                                 'tp_src=10002}',
                                 'bb1b1150079e6d35',
                                 202),
                                ('FlowId~{nw_dst=198.18.0.1, nw_proto=6, nw_src=172.16.1.4, tp_dst=80, '
                                 'tp_src=10003}',
                                 '0a3dd49b3f2d71fe',
                                 202),
                                ('FlowId~{nw_dst=198.18.0.1, nw_proto=6, nw_src=172.16.1.5, tp_dst=80, '
                                 'tp_src=10004}',
                                 '214630a3f5986ae7',
                                 202),
                                ('FlowId~{nw_dst=203.0.113.5, nw_proto=6, nw_src=10.0.1.1, tp_dst=80, '
                                 'tp_src=20000}',
                                 '2252fe1b63c17521',
                                 202),
                                ('FlowId~{nw_dst=203.0.113.5, nw_proto=6, nw_src=10.0.1.2, tp_dst=80, '
                                 'tp_src=20001}',
                                 'a0abdea0ee03fa65',
                                 202),
                                ('FlowId~{nw_dst=203.0.113.5, nw_proto=6, nw_src=10.0.1.3, tp_dst=80, '
                                 'tp_src=20002}',
                                 'a184b4b829f3cee3',
                                 202),
                                ('FlowId~{nw_dst=203.0.113.5, nw_proto=6, nw_src=10.0.1.4, tp_dst=80, '
                                 'tp_src=20003}',
                                 '6281a5fe93d9698a',
                                 202),
                                ('FlowId~{nw_dst=203.0.113.5, nw_proto=6, nw_src=10.0.1.5, tp_dst=80, '
                                 'tp_src=20004}',
                                 '32def97d08362987',
                                 202),
                                ('FlowId~{nw_dst=203.0.113.5, nw_proto=6, nw_src=10.0.1.6, tp_dst=80, '
                                 'tp_src=20005}',
                                 '2cc92f3da28876fe',
                                 202),
                                ('FlowId~{nw_dst=203.0.113.5, nw_proto=6, nw_src=10.0.1.7, tp_dst=80, '
                                 'tp_src=20006}',
                                 'dca7e1c13f485b83',
                                 202),
                                ('FlowId~{nw_dst=203.0.113.5, nw_proto=6, nw_src=10.0.1.8, tp_dst=80, '
                                 'tp_src=20007}',
                                 'd4fb7c2abedc237a',
                                 202)]},
        'IntrusionDetector': {'allflows': [('-', '922dde8066f49714', 89)],
                              'multiflow': [('FlowId~{nw_src=10.0.1.1}', 'a2c9910bfdb76949', 199),
                                            ('FlowId~{nw_src=10.0.1.2}', 'df9609be18951479', 199),
                                            ('FlowId~{nw_src=10.0.1.3}', 'acb38097b70e930d', 199),
                                            ('FlowId~{nw_src=10.0.1.4}', '0f42812972a51619', 199),
                                            ('FlowId~{nw_src=10.0.1.5}', 'e841670251079f30', 201)],
                              'perflow': [('FlowId~{nw_dst=203.0.113.5, nw_proto=6, nw_src=10.0.1.1, '
                                           'tp_dst=80, tp_src=20000}',
                                           '8d5364d8cc773b2e',
                                           838),
                                          ('FlowId~{nw_dst=203.0.113.5, nw_proto=6, nw_src=10.0.1.2, '
                                           'tp_dst=80, tp_src=20001}',
                                           '1024a75d3d2c0788',
                                           838),
                                          ('FlowId~{nw_dst=203.0.113.5, nw_proto=6, nw_src=10.0.1.3, '
                                           'tp_dst=80, tp_src=20002}',
                                           '0a31eb29c36c7f30',
                                           838),
                                          ('FlowId~{nw_dst=203.0.113.5, nw_proto=6, nw_src=10.0.1.4, '
                                           'tp_dst=80, tp_src=20003}',
                                           '480abc641b003be2',
                                           839),
                                          ('FlowId~{nw_dst=203.0.113.5, nw_proto=6, nw_src=10.0.1.5, '
                                           'tp_dst=80, tp_src=20004}',
                                           '90baa57975a88492',
                                           840)]},
        'LoadBalancer': {'allflows': [('-', 'd1769fa91d41b278', 86)],
                         'multiflow': [('FlowId~{nw_src=192.168.1.1}', '525d700aa230d47a', 187),
                                       ('FlowId~{nw_src=192.168.1.2}', '65b2065fd7463b81', 187)],
                         'perflow': [('FlowId~{nw_dst=203.0.113.5, nw_proto=6, nw_src=10.0.1.1, '
                                      'tp_dst=80, tp_src=20000}',
                                      '19633d999e1f8170',
                                      204),
                                     ('FlowId~{nw_dst=203.0.113.5, nw_proto=6, nw_src=10.0.1.2, '
                                      'tp_dst=80, tp_src=20001}',
                                      'f26662ba779e2990',
                                      204),
                                     ('FlowId~{nw_dst=203.0.113.5, nw_proto=6, nw_src=10.0.1.3, '
                                      'tp_dst=80, tp_src=20002}',
                                      'f592ded87cd1e286',
                                      204),
                                     ('FlowId~{nw_dst=203.0.113.5, nw_proto=6, nw_src=10.0.1.4, '
                                      'tp_dst=80, tp_src=20003}',
                                      'aef9ce5975460616',
                                      204),
                                     ('FlowId~{nw_dst=203.0.113.5, nw_proto=6, nw_src=10.0.1.5, '
                                      'tp_dst=80, tp_src=20004}',
                                      '6ebf97c50f4c2a72',
                                      204),
                                     ('FlowId~{nw_dst=203.0.113.5, nw_proto=6, nw_src=10.0.1.6, '
                                      'tp_dst=80, tp_src=20005}',
                                      'e59c8aa6d82b7632',
                                      219),
                                     ('FlowId~{nw_dst=203.0.113.5, nw_proto=6, nw_src=10.0.1.7, '
                                      'tp_dst=80, tp_src=20006}',
                                      'bf6ebbe887140626',
                                      218),
                                     ('FlowId~{nw_dst=203.0.113.5, nw_proto=6, nw_src=10.0.1.8, '
                                      'tp_dst=80, tp_src=20007}',
                                      '1d6ea1bf27aad54f',
                                      218)]},
        'NAT': {'allflows': [],
                'multiflow': [],
                'perflow': [('FlowId~{nw_dst=203.0.113.5, nw_proto=6, nw_src=10.0.1.1, tp_dst=80, '
                             'tp_src=20000}',
                             '4465787b5e2e799f',
                             262),
                            ('FlowId~{nw_dst=203.0.113.5, nw_proto=6, nw_src=10.0.1.2, tp_dst=80, '
                             'tp_src=20001}',
                             'c32af36cc573048d',
                             262),
                            ('FlowId~{nw_dst=203.0.113.5, nw_proto=6, nw_src=10.0.1.3, tp_dst=80, '
                             'tp_src=20002}',
                             'f6b368ccaf600fe8',
                             276),
                            ('FlowId~{nw_dst=203.0.113.5, nw_proto=6, nw_src=10.0.1.4, tp_dst=80, '
                             'tp_src=20003}',
                             '1c7f34da3ad5441d',
                             262),
                            ('FlowId~{nw_dst=203.0.113.5, nw_proto=6, nw_src=10.0.1.5, tp_dst=80, '
                             'tp_src=20004}',
                             '06ab9d0941a5677d',
                             277),
                            ('FlowId~{nw_dst=203.0.113.5, nw_proto=6, nw_src=10.0.1.6, tp_dst=80, '
                             'tp_src=20005}',
                             '1d6297feb5840837',
                             292),
                            ('FlowId~{nw_dst=203.0.113.5, nw_proto=6, nw_src=10.0.1.7, tp_dst=80, '
                             'tp_src=20006}',
                             '2eeb01d54b5f5b85',
                             292),
                            ('FlowId~{nw_dst=203.0.113.5, nw_proto=6, nw_src=10.0.1.8, tp_dst=80, '
                             'tp_src=20007}',
                             '2847fee639dc8f96',
                             261)]},
        'REDecoder': {'allflows': [('-', 'bf69152a79d6e9e7', 97)], 'multiflow': [], 'perflow': []},
        'REEncoder': {'allflows': [('-', 'bf69152a79d6e9e7', 97)], 'multiflow': [], 'perflow': []}}


@pytest.mark.parametrize(
    "label,factory,traffic", CASES, ids=[c[0] for c in CASES]
)
def test_exported_chunks_are_pinned(label, factory, traffic):
    assert exported(factory, traffic) == PINS[label]


#: (NF, scope) -> the import rule it declares: a rule of
#: ``repro.nf.state``, or the NF hook that wraps one (named after it).
RULES = {
    ("AssetMonitor", Scope.PERFLOW): "MERGE_UNLESS_SNAPSHOT",
    ("AssetMonitor", Scope.MULTIFLOW): "MERGE",
    ("AssetMonitor", Scope.ALLFLOWS): "ADD",
    ("IntrusionDetector", Scope.PERFLOW): "_import_conn",   # REPLACE + wiring
    ("IntrusionDetector", Scope.MULTIFLOW): "_merge_scan",  # MERGE, FTP next
    ("IntrusionDetector", Scope.ALLFLOWS): "ADD",
    ("NAT", Scope.PERFLOW): "_import_entry",                # REPLACE + port floor
    ("CachingProxy", Scope.PERFLOW): "REPLACE",
    ("CachingProxy", Scope.MULTIFLOW): "_merge_cached",     # MERGE by URL
    ("CachingProxy", Scope.ALLFLOWS): "ADD",
    ("LoadBalancer", Scope.PERFLOW): "REPLACE",
    ("LoadBalancer", Scope.MULTIFLOW): "MERGE",
    ("LoadBalancer", Scope.ALLFLOWS): "_import_rotor",      # ADD + rotor max
    ("REEncoder", Scope.ALLFLOWS): "MERGE",
    ("REDecoder", Scope.ALLFLOWS): "MERGE",
    ("DummyNF", Scope.PERFLOW): "REPLACE",
}


RULE_ROWS = sorted(RULES, key=lambda row: (row[0], row[1].value))


@pytest.mark.parametrize(
    "label,scope", RULE_ROWS,
    ids=["%s-%s" % (label, scope.value) for label, scope in RULE_ROWS],
)
def test_import_rule(label, scope):
    [factory] = [f for name, f, _traffic in CASES if name == label]
    nf = factory(Simulator(), "rule")
    assert nf._specs[scope][0].on_import.__name__ == RULES[(label, scope)]


def test_every_declared_scope_names_its_rule():
    declared = {
        (label, scope)
        for label, factory, _traffic in CASES
        for scope in factory(Simulator(), "rule").STATE
    }
    assert declared == set(RULES)


def test_prads_snapshot_replaces_per_flow_but_merges_multi_flow():
    """A share's snapshot replaces PRADS's additive per-flow record but
    is merged into the idempotent host record, as its STATE says."""
    flow = FiveTuple("10.0.1.2", 1234, "203.0.113.5", 80)
    sim = Simulator()
    a, b = AssetMonitor(sim, "a"), AssetMonitor(sim, "b")
    for packet in (Packet(flow, payload="GET / HTTP/1.1"),
                   Packet(flow, payload="x")):
        a.receive(packet)
    b.receive(Packet(flow, payload="SSH-2.0"))
    sim.run()
    for scope, key in ((Scope.PERFLOW, FlowId.for_flow(flow.canonical())),
                       (Scope.MULTIFLOW, FlowId.for_host("10.0.1.2"))):
        chunk = a.export_chunk(scope, key)
        chunk.snapshot = True
        b.import_chunk(chunk)
    assert b.conn_for(flow).packets == 2  # replaced: not 3
    assert b.asset_for("10.0.1.2").services == ["http-client", "ssh"]


if __name__ == "__main__":
    pprint.pprint(
        {label: exported(factory, traffic) for label, factory, traffic in CASES},
        width=100,
    )
