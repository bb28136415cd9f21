"""The call census: every function of ``src/repro`` runs under some workload,
or a line of :data:`ALLOWED` says why it stays.

    python benchmarks/reach.py    # make reach

Copies the working tree into a temporary directory (the benches rewrite
``benchmarks/results/``, so the real tree stays untouched) and runs
:data:`RUNS` there one at a time: the ledger's smoke workloads, every
example, ``repro run`` in every mode and view, ``audit``, ``validate``,
``chain``, the conformance matrix in the four ``make conform`` modes
with its corpus replay and both hunts, and every bench under pytest.
A ``sitecustomize`` on ``PYTHONPATH`` installs a profile hook in each
interpreter, the ledger's children included (they inherit
``PYTHONPATH``), and writes down every ``src/repro`` code object it saw
start. Runs are censused, not judged: a bench whose wall-clock gate
fails under the profiler still counts its calls. The benches run with
``--benchmark-disable`` because pytest-benchmark pauses profilers while
it times.

Every ``def`` under ``src/repro`` (nested ones included) is matched to
a code object by file and first line, which for a decorated def is its
first decorator's. The census fails on an unreached def no
:data:`ALLOWED` entry excuses, and on an entry that excuses no
unreached def on its own, so removing any one line fails it. An entry
is ``module:Qual.name`` or an :mod:`fnmatch` pattern over that form
(``*.__repr__``). The census sees functions, not branches: a dead
branch inside a called function passes.
"""

from __future__ import annotations

import ast
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time
from fnmatch import fnmatchcase
from typing import Dict, Iterable, List, Set, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 1800

#: The profile hook, installed as ``sitecustomize`` in every interpreter
#: whose environment names ``REACH_ROOT`` (the files to census) and
#: ``REACH_OUT`` (where each process writes ``<pid>.calls`` at exit).
HOOK = '''\
import atexit, os, sys, threading

_root, _out = os.environ.get("REACH_ROOT"), os.environ.get("REACH_OUT")
if _root and _out:
    _seen = set()

    def _hook(frame, event, arg, _add=_seen.add):
        if event == "call":
            _add(frame.f_code)

    def _dump():
        sys.setprofile(None)
        threading.setprofile(None)
        lines = sorted({
            "%s:%d" % (code.co_filename, code.co_firstlineno)
            for code in _seen if code.co_filename.startswith(_root)
        })
        path = os.path.join(_out, "%d.calls" % os.getpid())
        with open(path, "a") as handle:
            handle.writelines(line + "\\n" for line in lines)

    atexit.register(_dump)
    threading.setprofile(_hook)
    sys.setprofile(_hook)
'''

_CLI = ("-m", "repro.cli")
_RUN = _CLI + ("run", "--flows", "60")
_SHOW_ALL = "report,timeline,metrics,top,audit"

#: Each a command line after ``python``, run from the copy's root;
#: ``{tmp}`` is a scratch directory shared by the runs.
RUNS: Tuple[Tuple[str, ...], ...] = (
    ("benchmarks/ledger/run.py", "--smoke"),
    # examples/*.py are added by runs().
    _RUN,
    _RUN + ("--show", _SHOW_ALL, "--json", "{tmp}/run.trace.jsonl"),
    _RUN + ("--show", _SHOW_ALL, "--faults", "seed=3,drop=0.05"),
    _RUN + ("--show", _SHOW_ALL, "--batching"),
    _RUN + ("--show", _SHOW_ALL, "--offload"),
    _RUN + ("--show", _SHOW_ALL, "--shards", "2"),
    _RUN + ("--show", "report,audit", "--baseline", "splitmerge"),
    _RUN + ("--show", "report,audit", "--abort-at", "10",
            "--bundle", "{tmp}/bundle.json"),
    _RUN + ("--early-release",),
    _RUN + ("--scope", "multi"),
    _RUN + ("--compress",),
    _RUN + ("--peer-to-peer",),
    _CLI + ("audit", "{tmp}/run.trace.jsonl"),
    _CLI + ("audit", "{tmp}/bundle.json"),
    _CLI + ("validate",),
    _CLI + ("chain",),
    _CLI + ("chain", "--flows", "20", "--abort-at", "120"),
    _CLI + ("chain", "--hop-guarantee", "nat=ng"),
    _CLI + ("conform",),
    _CLI + ("conform", "--shards", "2"),
    _CLI + ("conform", "--offload"),
    _CLI + ("conform", "--offload", "--shards", "2"),
    _CLI + ("conform", "--replay", "tests/corpus"),
    _CLI + ("conform", "tests/corpus/abort-racing-put.schedule.json"),
    _CLI + ("conform", "--hunt", "ng", "--corpus-dir", "{tmp}/hunted"),
    _CLI + ("conform", "--hunt", "splitmerge", "--corpus-dir",
            "{tmp}/hunted"),
    _CLI + ("version",),
    ("-m", "pytest", "benchmarks/", "-q", "-p", "no:cacheprovider",
     "--benchmark-disable"),
)

_RECOVER = ("an abort's rollback for an operation kind no workload aborts; "
            "the crash-point matrix is what will run it")
_SHARE = ("strict share's redirect of the flows' rules to the controller; "
          "no matrix cell runs consistency='strict' until its cells join "
          "make conform")
_HANDOFF = ("the cross-shard handoff, which no workload takes until the "
            "cross-shard cells join make conform")
_CHAIN = ("chain conformance, which make conform runs once the chain cells "
          "join the matrix")
_FTP = ("§5.1.2's FTP data-channel analyzer: no trace mix carries FTP, "
        "tests/test_ids_ftp.py replays sessions through it, and Table 2 "
        "counts its lines")
_WINDOW = ("a read-only window on one NF's state that the tests assert "
           "against; no workload reads it")

#: "module:Qual.name" or an fnmatch pattern over it -> why it stays
#: though no run calls it. One sentence each.
ALLOWED: Dict[str, str] = {
    "*.__repr__":
        "a debugging aid: tests and tracebacks print it, no run does",
    # Error, fault and outside-input paths.
    "repro.sim.core:Event.fail":
        "southbound's timeout and error path (nf/southbound.py) fails a "
        "call's event through it, which a clean run never does",
    "repro.nf.southbound:Call.settle_fail":
        "fails a southbound call on a timeout or a peer's error, which a "
        "clean run never meets",
    "repro.controller.controller:OpenNFController._crash_nf":
        "crashes an NF at a fault plan's crash=<nf>@<ms>, which no "
        "workload's plan names",
    "repro.nf.base:NetworkFunction.crash_on_nth_rpc":
        "arms the fault plan's crash=<nf>#<n> (faults/plan.py), which no "
        "workload's plan names",
    "repro.faults.plan:CrashSpec.validate":
        "rejects a malformed crash spec in a fault plan, which no "
        "workload writes",
    "repro.nfs.ids.tcp:TcpReassembler.skip_gap":
        "gives up on a TCP hole that never fills, which only a lossy "
        "trace the tests build leaves",
    "repro.nf.conformance:ConformanceReport._fail":
        "records an NF that breaks the southbound contract; every "
        "shipped NF keeps it",
    "repro.harness.properties:_processing_order":
        "builds a failed order judge's detail, and every judged "
        "workload passes",
    "repro.harness.properties:_judged_none":
        "the detail of a judge that saw no forwarded packet, which the "
        "negative controls in tests/test_topology.py provoke",
    "repro.obs.audit:LossFreeAuditor.on_nf_buffer":
        "the loss auditor's hold on a packet an NF buffers under "
        "audit, which no audited workload's NF does",
    "repro.obs.audit:LossFreeAuditor.on_switch_drop":
        "the loss auditor's verdict on an XFSM ring overflow, which no "
        "audited workload fills",
    "repro.conformance.schedule:ScheduleSpec.from_json":
        "parses a schedule's JSON text, the inverse of to_json that the "
        "conformance tests round-trip",
    # Reference encodings that tests compare against.
    "repro.nf.protocol:*":
        "the §7 wire vocabulary: the reference encoding that "
        "Request.size(rid) is pinned against in tests/test_protocol.py",
    "repro.nf.state:StateChunk.from_json_bytes":
        "decodes a chunk from the reference encoding StateChunk.size_bytes "
        "is pinned against",
    "repro.flowspace.filter:Filter.from_dict":
        "the inverse of Filter.to_dict, the wire form of a filter, which "
        "tests/test_flowspace.py round-trips",
    "repro.controller.reports:OperationReport.to_dict":
        "a report's JSON form, which tests compare between runs",
    # Paths that wait on their matrix cells.
    "repro.controller.share:ShareOperation._step_redirect_entries": _SHARE,
    "repro.controller.share:ShareOperation._step_restore_entries": _SHARE,
    "repro.controller.share:ShareOperation._install_entries": _SHARE,
    "repro.controller.share:ShareOperation._on_packet_in": _SHARE,
    "repro.controller.share:ShareOperation._original_target": _SHARE,
    "repro.controller.forwarding:SwitchClient.install_batch*": _SHARE,
    "repro.controller.forwarding:SwitchClient.read_entries*": _SHARE,
    "repro.net.flowtable:FlowTable.entries_overlapping": _SHARE,
    "repro.controller.sharding:CrossShardOperation.*": _HANDOFF,
    "repro.controller.controller:OpenNFController._transfer_ownership":
        _HANDOFF,
    "repro.controller.sharding:ShardMap.shard_for_packet":
        "routes a packet-in to its shard, which only a strong "
        "order-preserving move under shards > 1 sends; no workload pairs "
        "the two",
    "repro.conformance.runner:spec_for_chain_cell": _CHAIN,
    "repro.conformance.runner:_launch_chain_op": _CHAIN,
    "repro.conformance.runner:_same_chain": _CHAIN,
    "repro.conformance.schedule:ChainOpSpec.*": _CHAIN,
    "repro.controller.controller:OpenNFController.scale_chain":
        "scales one hop of a chain out, which no workload does until the "
        "chain cells join make conform",
    "repro.controller.chain:Chain.hop":
        "scale_chain's lookup of a hop by name",
    "repro.net.topology:TwoTierTopology.*":
        "Fig. 4's spine/leaf shape (docs/api.md), which no workload "
        "deploys yet; tests/test_topology.py runs every mode on it",
    "repro.net.xfsm:XFSMInstance._release_flow":
        "the switch-local early release of one flow, which no workload "
        "combines with offload",
    "repro.controller.move:MoveOperation._transfer_scope_peer.deliver"
    ".notify_release":
        "early release under peer-to-peer transfer, a pair of move "
        "options no workload combines",
    "repro.nfs.lb:LoadBalancer._export_rotor":
        "moves the load balancer's round-robin rotor, an all-flows scope "
        "no workload moves",
    "repro.nfs.lb:LoadBalancer._import_rotor":
        "imports the load balancer's round-robin rotor, an all-flows "
        "scope no workload moves",
    "repro.nfs.proxy.squid:CachingProxy._delete_cached":
        "deletes a moved cache entry by URL (POP would miss it), the "
        "proxy's multi-flow scope that no workload moves",
    # Recovery paths: item 2's crash-point matrix.
    "repro.controller.operation:Operation._recover": _RECOVER,
    "repro.controller.copy:CopyOperation._recover": _RECOVER,
    "repro.controller.share:ShareOperation._recover": _RECOVER,
    "repro.controller.share:ShareOperation.abort": _RECOVER,
    "repro.controller.operation:DeferredOperation.abort": _RECOVER,
    # §5.1.2's FTP analyzer.
    "repro.nfs.ids.ftp:*": _FTP,
    "repro.nfs.ids.ids:IntrusionDetector._on_retr": _FTP,
    "repro.nfs.ids.ids:IntrusionDetector._pair_id": _FTP,
    "repro.nf.record:keep": _FTP + " (a merge rule its records declare)",
    "repro.nf.record:ordered_union":
        _FTP + " (a merge rule its records declare)",
    "repro.traffic.generator:ftp_session": _FTP,
    "repro.traffic.generator:port_scan":
        "the scanners TraceConfig(n_scanners=) adds, which the IDS "
        "scan-detection tests replay and no workload's trace carries",
    # State windows and dunders the tests read.
    "repro.nfs.ids.ids:IntrusionDetector.conn_count": _WINDOW,
    "repro.nfs.monitor.prads:AssetMonitor.asset_for": _WINDOW,
    "repro.nfs.nat.nat:NetworkAddressTranslator.entry_for": _WINDOW,
    "repro.nfs.lb:LoadBalancer.backend_of": _WINDOW,
    "repro.nf.base:NetworkFunction.event_rule_count": _WINDOW,
    "repro.nf.base:NetworkFunction.event_rules": _WINDOW,
    "repro.net.channel:AtMostOnce.__len__":
        "the dedup table's size, which tests/test_faults.py reads to "
        "check it stays bounded",
    "repro.net.flowtable:FlowTable.__iter__":
        "lists the installed rules for tests/test_table_capacity.py",
    "repro.controller.operation:DeferredOperation.guarantee":
        "the deferred handle's view of its operation, which "
        "tests/test_operation_handle.py reads before it launches",
    "repro.controller.operation:DeferredOperation.report":
        "the deferred handle's view of its operation, which "
        "tests/test_operation_handle.py reads before it launches",
    "repro.conformance.runner:check_trace_properties":
        "isolation from a bare trace without the auditors "
        "(docs/conformance.md), which tests/test_conform_kit.py pins",
    "repro.obs.audit:OpRegistry.observe_record":
        "feeds check_trace_properties' registry one record at a time",
    "repro.obs.audit:AuditPipeline.on_span":
        "the one-entry fan-in that tests/test_audit.py's synthetic "
        "streams feed; runs route each entry by name instead",
    "repro.obs.audit:AuditPipeline.on_record":
        "the one-entry fan-in that tests/test_audit.py's synthetic "
        "streams feed; runs route each entry by name instead",
    "repro.obs.span:Span.__enter__":
        "the with-block form of a span, which tests/test_obs_tracing.py "
        "uses; src ends its spans explicitly",
    "repro.obs.span:Span.child":
        "opens a child span by hand, which tests/test_obs_tracing.py "
        "does; src passes the parent to Tracer.span",
    "repro.obs.span:_NullSpan.*":
        "the disabled tracer's stand-in keeps Span's whole interface, so "
        "an unobserved call site needs no guard",
    "repro.obs.span:_SpanType.allocated":
        "the span allocation count tests/test_obs_tracing.py reads to "
        "prove an unobserved run builds no span",
    "repro.traffic.generator:PacketBlueprint.*":
        "the dunders that keep a trace blueprint immutable, which only a "
        "write or a copy attempt calls",
}


def _first_line(node: ast.AST) -> int:
    """The ``co_firstlineno`` of a def: its first decorator's line."""
    return min([node.lineno] + [d.lineno for d in node.decorator_list])


def definitions(src: pathlib.Path) -> Dict[Tuple[str, int], str]:
    """``(path under src, first line) -> "module:Qual.name"`` for every
    def in every module under ``src``, nested defs included."""
    found: Dict[Tuple[str, int], str] = {}
    for path in sorted(src.rglob("*.py")):
        relative = path.relative_to(src)
        parts = relative.with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)

        def walk(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = prefix + child.name
                    found[(relative.as_posix(), _first_line(child))] = (
                        "%s:%s" % (module, qualname))
                    walk(child, qualname + ".")
                elif isinstance(child, ast.ClassDef):
                    walk(child, prefix + child.name + ".")
                else:
                    walk(child, prefix)

        walk(ast.parse(path.read_text(), filename=str(path)), "")
    return found


def read_calls(out: pathlib.Path, src: pathlib.Path) -> Set[Tuple[str, int]]:
    """Every ``(path under src, first line)`` the hook wrote to ``out``."""
    prefix = str(src) + os.sep
    called: Set[Tuple[str, int]] = set()
    for path in out.glob("*.calls"):
        for line in path.read_text().splitlines():
            filename, _, lineno = line.rpartition(":")
            if filename.startswith(prefix):
                called.add((pathlib.Path(filename[len(prefix):]).as_posix(),
                            int(lineno)))
    return called


def hook_env(hook_dir: pathlib.Path, root: pathlib.Path,
             out: pathlib.Path, pythonpath: Iterable[str]) -> Dict[str, str]:
    """An environment whose interpreters census ``root``'s calls."""
    hook_dir.mkdir(parents=True, exist_ok=True)
    (hook_dir / "sitecustomize.py").write_text(HOOK)
    out.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, REACH_ROOT=str(root) + os.sep, REACH_OUT=str(out))
    env["PYTHONPATH"] = os.pathsep.join([str(hook_dir)] + list(pythonpath))
    return env


def runs(tree: pathlib.Path, tmp: pathlib.Path) -> List[List[str]]:
    examples = [("examples/" + path.name,)
                for path in sorted((tree / "examples").glob("*.py"))]
    return [[arg.format(tmp=tmp) for arg in run]
            for run in RUNS[:1] + tuple(examples) + RUNS[1:]]


def census(work: pathlib.Path) -> Set[Tuple[str, int]]:
    """Copy the working tree into ``work``, run :data:`RUNS` there under
    the hook, and return every def of ``src/`` that was called."""
    tree = work / "tree"
    shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks"))
    src = (tree / "src").resolve()
    tmp = work / "tmp"
    tmp.mkdir()
    env = hook_env(work / "hook", src, work / "calls", [str(src)])
    for argv in runs(tree, tmp):
        started = time.monotonic()
        try:
            status = subprocess.run(
                [sys.executable] + argv, cwd=tree, env=env,
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                timeout=RUN_TIMEOUT_S,
            ).returncode
        except subprocess.TimeoutExpired:
            status = "timeout"
        print("%6.1fs  exit %-7s %s" % (time.monotonic() - started, status,
                                         " ".join(argv)), flush=True)
    return read_calls(work / "calls", src)


def judge(defs: Dict[Tuple[str, int], str], called: Set[Tuple[str, int]],
          allowed: Dict[str, str]) -> Tuple[List[str], List[str], List[str]]:
    """``(unreached, unexcused, stale)``: the defs nothing called, those
    no entry excuses, and the entries that excuse nothing on their own
    (no def they match, or only defs another entry matches too)."""
    unreached = sorted(name for key, name in defs.items() if key not in called)
    excusers = {name: [entry for entry in allowed if fnmatchcase(name, entry)]
                for name in unreached}
    unexcused = [name for name in unreached if not excusers[name]]
    owned = {entries[0] for entries in excusers.values() if len(entries) == 1}
    stale = [entry for entry in allowed if entry not in owned]
    return unreached, unexcused, stale


def main() -> int:
    defs = definitions(ROOT / "src")
    with tempfile.TemporaryDirectory(prefix="reach-") as work:
        called = census(pathlib.Path(work).resolve())
    unreached, unexcused, stale = judge(defs, called, ALLOWED)
    print("%d of %d defs never called (%d excused by ALLOWED)"
          % (len(unreached), len(defs), len(unreached) - len(unexcused)))
    for name in unexcused:
        print("UNREACHED %s" % name)
    for entry in stale:
        print("STALE ALLOWED %s" % entry)
    return 1 if unexcused or stale else 0


if __name__ == "__main__":
    sys.exit(main())
