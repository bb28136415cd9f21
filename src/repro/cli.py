"""Command-line interface: one observed move, conformance and validation.

Usage::

    python -m repro.cli run --guarantee op --flows 200 --rate 2500
    python -m repro.cli run --faults "seed=3,drop=0.05" --guarantee op
    python -m repro.cli run --show timeline,metrics --json spans.jsonl
    python -m repro.cli run --show metrics --guarantee op --filter sb
    python -m repro.cli run --show top --flows 500 --shards 2 --interval 500
    python -m repro.cli run --show audit --baseline splitmerge --rate 6000
    python -m repro.cli run --offload --batching --flows 500
    python -m repro.cli audit run.trace.jsonl
    python -m repro.cli audit bundle.json
    python -m repro.cli validate --seeds 5
    python -m repro.cli conform
    python -m repro.cli conform --nf ids --guarantee strong-share
    python -m repro.cli conform tests/corpus/abort-racing-put.schedule.json
    python -m repro.cli conform --replay tests/corpus
    python -m repro.cli conform --hunt splitmerge --corpus-dir tests/corpus
    python -m repro.cli chain --guarantee lf --shards 2
    python -m repro.cli chain --hop-guarantee nat=ng
    python -m repro.cli version

``run`` starts one move mid-trace between two PRADS-like monitors, in
any combination of the mode flags, and prints the views ``--show``
names (default ``report``): ``report`` (phases, added latency, fault
recovery, property verdicts), ``timeline`` (the span gantt),
``metrics`` (Prometheus text), ``top`` (frames streamed during the
run) and ``audit`` (the auditors' verdict and any post-mortem bundle).
It ends on the operation's summary line. ``validate`` sweeps seeds and
asserts the §5.1 guarantees hold (and that the no-guarantee mode
demonstrably violates them).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro import __version__
from repro.faults import FaultPlan
from repro.harness import run_move_experiment


def _guarantee(value: str):
    """argparse type: any :meth:`Guarantee.parse` alias → the enum.

    Accepts every alias the northbound API does (``ng``, ``none``,
    ``lf``, ``loss-free``, ``op``, ``lf+op``, ``op-strong``, ...), so
    the CLI and the Python API speak the same vocabulary.
    """
    from repro.controller.move import Guarantee

    try:
        return Guarantee.parse(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _bounded(kind: type, low: float, strict: bool):
    """argparse type: a ``kind`` number ``> low`` (``strict``) or ``>= low``.

    A value the run cannot use (no flows, no seeds, a zero or negative
    rate) is a usage error, not a traceback or a vacuous pass.
    """
    def parse(text: str):
        value = kind(text)  # argparse reports "invalid <kind> value"
        if not (value > low if strict else value >= low):
            raise argparse.ArgumentTypeError(
                "must be %s %g, not %s" % (">" if strict else ">=", low, text))
        return value

    parse.__name__ = kind.__name__
    return parse


_POSITIVE = _bounded(float, 0, strict=True)
_COUNT = _bounded(int, 1, strict=False)
_NON_NEGATIVE = _bounded(float, 0, strict=False)


def _fault_spec(value: str) -> str:
    """argparse type: a spec ``FaultPlan.from_spec`` takes, kept as text
    (each ``Deployment`` builds its own plan from it)."""
    try:
        FaultPlan.from_spec(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    return value


class _MoveRejected(Exception):
    """The move's constructor refused a combination of ``run``'s flags."""


def _add_run_flags(parser, guarantee: str, flows: int,
                   rate: float = 2500.0, seed: int = 7) -> None:
    """The traced experiment ``run`` and ``chain`` replay."""
    parser.add_argument("--guarantee", default=guarantee, type=_guarantee,
                        metavar="LEVEL",
                        help="move safety level (ng, loss-free/lf, op, "
                             "op-strong, or any Guarantee alias)")
    parser.add_argument("--flows", type=_COUNT, default=flows)
    parser.add_argument("--rate", type=_POSITIVE, default=rate,
                        help="replay rate in packets/second")
    parser.add_argument("--seed", type=int, default=seed)


#: Control-path mode flags, named after the ``Deployment`` keyword each sets.
_MODE_FLAGS = {
    "shards": dict(type=_COUNT, default=1, metavar="N",
                   help="partition flow-space ownership across N "
                        "controller shards (serialized message loops)"),
    "faults": dict(type=_fault_spec, metavar="SPEC", default=None,
                   help="fault-plan spec, e.g. 'seed=3,drop=0.05'"),
    "batching": dict(action="store_true",
                     help="batch control-plane messages (§8.3)"),
    "offload": dict(action="store_true",
                    help="buffer the move window in switch-local state "
                         "machines (data-plane offload)"),
}


def _add_mode_flags(parser, *names: str) -> None:
    for name in names:
        parser.add_argument("--" + name, **_MODE_FLAGS[name])


def _mode_kwargs(args: argparse.Namespace) -> dict:
    """``Deployment`` keywords for the mode flags this subcommand has
    (``--faults`` passes its spec string: ``Deployment`` parses it)."""
    return {
        name: getattr(args, name) for name in _MODE_FLAGS if name in args
    }


def _views(value: str) -> List[str]:
    """argparse type: ``run``'s comma-separated views, in print order."""
    views = value.split(",")
    unknown = [view for view in views if view not in _VIEWS]
    if unknown:
        raise argparse.ArgumentTypeError("unknown view(s) %s (choose from %s)"
                                         % (unknown, ", ".join(_VIEWS)))
    return views


def _build_parser() -> argparse.ArgumentParser:
    from repro.conformance.corpus import HUNT_TARGETS

    parser = argparse.ArgumentParser(
        prog="repro",
        description="OpenNF reproduction command-line interface",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, help: str) -> argparse.ArgumentParser:
        added = sub.add_parser(name, help=help)
        added.set_defaults(func=func, parser=added)
        return added

    run = command("run", _cmd_run,
                  "run one move mid-trace and print the views --show names")
    run.add_argument("--show", type=_views, default=["report"],
                     metavar="VIEW[,VIEW...]",
                     help="what to print, in order: %s (default report)"
                          % ", ".join(_VIEWS))
    _add_run_flags(run, "loss-free", flows=200)
    _add_mode_flags(run, *_MODE_FLAGS)
    run.add_argument("--scope", default="per",
                     help="state scope(s) to move (per, multi, all, ...)")
    run.add_argument("--no-parallel", action="store_true",
                     help="disable the parallelizing optimization")
    run.add_argument("--early-release", action="store_true")
    run.add_argument("--compress", action="store_true",
                     help="zlib-compress state chunks (§8.3)")
    run.add_argument("--peer-to-peer", action="store_true",
                     help="stream chunks NF-to-NF (footnote 10)")
    run.add_argument("--baseline", choices=["splitmerge"], default=None,
                     help="run a prior-control-plane baseline instead "
                          "of an OpenNF move")
    run.add_argument("--abort-at", type=_NON_NEGATIVE, default=None,
                     metavar="MS",
                     help="abort the operation this many ms after it "
                          "starts (exercises the recorder)")
    run.add_argument("--json", metavar="PATH",
                     help="timeline view: also write a .trace.jsonl")
    run.add_argument("--filter", dest="name_filter", metavar="PREFIX",
                     help="metrics view: only names starting here")
    run.add_argument("--interval", type=_POSITIVE, default=1000.0,
                     help="top view: frame interval in simulated ms")
    run.add_argument("--jsonl", metavar="PATH",
                     help="top view: append each frame as a JSON line")
    run.add_argument("--bundle", metavar="PATH",
                     help="audit view: also write the last bundle as JSON")

    audit = command("audit", _cmd_audit,
                    "replay a recorded .trace.jsonl through the guarantee "
                    "auditors, or render a flight-recorder bundle")
    audit.add_argument("path", metavar="FILE")

    validate = command(
        "validate", _cmd_validate,
        "check the §5.1 guarantees over several seeds",
    )
    validate.add_argument("--seeds", type=_COUNT, default=3)
    validate.add_argument("--flows", type=_COUNT, default=60)
    validate.add_argument("--rate", type=_POSITIVE, default=5000.0)

    conform = command(
        "conform", _cmd_conform,
        "run the verified-migration conformance kit: the NF × "
        "guarantee matrix, one schedule file, a corpus replay, or "
        "a counterexample hunt",
    )
    conform.add_argument("schedule", nargs="?", default=None,
                         metavar="SCHEDULE",
                         help="a .schedule.json file to run once "
                              "(omit for the full matrix)")
    conform.add_argument("--nf", default=None, metavar="NAME",
                         help="matrix: only this NF (monitor, ids, nat, "
                              "proxy, lb, re-encoder, re-decoder)")
    conform.add_argument("--guarantee", default=None, metavar="LEVEL",
                         help="matrix: only this level (ng, lf, lf+op, "
                              "strong-share)")
    conform.add_argument("--replay", metavar="DIR", default=None,
                         help="replay every corpus entry in DIR instead "
                              "of running the matrix")
    conform.add_argument("--hunt", choices=sorted(HUNT_TARGETS),
                         default=None,
                         help="search + shrink a counterexample for a "
                              "known-defective path instead of the matrix")
    conform.add_argument("--corpus-dir", metavar="DIR", default=None,
                         help="with --hunt: persist the shrunk "
                              "counterexample as a corpus entry here")
    _add_mode_flags(conform, "shards", "offload")
    conform.add_argument("--verbose", action="store_true",
                         help="print every matrix cell, not just "
                              "failures and the summary")

    chain = command(
        "chain", _cmd_chain,
        "run one audited chain-wide move over a 3-hop "
        "IDS → NAT → proxy chain and print per-hop reports",
    )
    _add_run_flags(chain, "loss-free", flows=40, seed=5)
    chain.add_argument("--hop-guarantee", action="append", default=[],
                       metavar="HOP=LEVEL", dest="hop_guarantees",
                       help="override one hop's guarantee, e.g. nat=ng "
                            "(repeatable)")
    _add_mode_flags(chain, "shards", "faults", "batching")
    chain.add_argument("--abort-at", type=_NON_NEGATIVE, default=None,
                       metavar="MS",
                       help="abort the chain operation this many ms after "
                            "it starts (exercises hop rollback)")

    command("version", _cmd_version, "print the package version")
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.harness import LOCAL_NET_FILTER
    from repro.nf.state import normalize_scope
    from repro.obs import ProgressReporter, format_top

    try:
        if args.baseline is not None and args.abort_at is not None:
            raise ValueError(
                "--abort-at cannot be combined with --baseline %s (the "
                "baseline does not act on an abort)" % args.baseline
            )
        normalize_scope(args.scope)
        if args.json and "timeline" in args.show:
            open(args.json, "w").close()
    except (ValueError, OSError) as exc:
        print("repro run: error: %s" % exc, file=sys.stderr)
        return 2

    moves = []  # the move the run made, for its late-abort verdict

    def operation(dep):
        if args.baseline == "splitmerge":
            from repro.baselines import SplitMergeMigrate

            return SplitMergeMigrate(dep.controller, "inst1", "inst2",
                                     LOCAL_NET_FILTER)
        try:
            op = dep.controller.move(
                "inst1", "inst2", LOCAL_NET_FILTER, scope=args.scope,
                guarantee=args.guarantee, parallel=not args.no_parallel,
                early_release=args.early_release, compress=args.compress,
                peer_to_peer=args.peer_to_peer,
            )
        except ValueError as exc:
            raise _MoveRejected(str(exc)) from None
        if args.abort_at is not None:
            dep.sim.schedule(args.abort_at, op.abort, "aborted via CLI")
        moves.append(op)
        return op

    frames = []  # the top view's, printed as they stream

    def show_frame(snap):
        frames.append(snap)
        print(format_top(snap))

    def arm_top(dep):
        ProgressReporter(dep, args.interval, sink=show_frame).start()

    try:
        result = run_move_experiment(
            n_flows=args.flows, rate_pps=args.rate, seed=args.seed,
            operation=operation,
            on_deployment=arm_top if "top" in args.show else None,
            observe=bool({"timeline", "metrics", "top"} & set(args.show)),
            audit="audit" in args.show,
            **_mode_kwargs(args),
        )
    except _MoveRejected as exc:
        args.parser.error(str(exc))
    failed = [_VIEWS[view](result, args, frames) for view in args.show]
    report = result.report
    print(report.summary())
    late = [op.late_abort for op in moves if op.late_abort]
    for note in report.notes + late:
        print("  note: %s" % note)
    if report.aborted:
        print("ABORTED: %s" % report.aborted)
    return 1 if (report.aborted or late or any(failed)) else 0


def _show_report(result, args, frames) -> None:
    report = result.report
    for phase, offset in sorted(report.phases.items(), key=lambda kv: kv[1]):
        print("  %-22s +%.1f ms" % (phase, offset))
    print("added latency: avg %.1f ms, max %.1f ms over %d affected packets"
          % (result.latency.average_added_ms, result.latency.max_added_ms,
             result.latency.affected_count))
    plan = result.deployment.faults
    if plan is not None:
        print(plan.summary())  # what the channels dropped / duped / delayed
        print("retries: %d   timeouts: %d" % (report.retries, report.timeouts))
        counts = result.deployment.processed_uid_counts()
        missing = sum(
            1 for p in result.replayer.injected if p.uid not in counts
        )
        print("packets: %d processed exactly once, %d duplicated, %d missing"
              % (sum(1 for n in counts.values() if n == 1),
                 sum(1 for n in counts.values() if n > 1), missing))
    print("loss-free: %s   order-preserving: %s"
          % ("yes" if result.loss_free else "NO",
             "yes" if result.order_preserving else "NO"))


def _show_timeline(result, args, frames) -> None:
    from repro.obs import entries_from_obs, render_timeline, write_trace

    obs = result.deployment.obs
    print(render_timeline(obs.exporter.spans))
    if args.json:
        write_trace(entries_from_obs(obs), args.json)
        print("wrote %d spans / %d records to %s"
              % (len(obs.exporter.spans), len(obs.exporter.records),
                 args.json))


def _show_metrics(result, args, frames) -> None:
    text = result.deployment.obs.metrics.render_prometheus()
    if args.name_filter:
        from repro.obs.metrics import _NAME_SANITIZE

        # Names are spelled dotted (ctrl.inbox) but rendered sanitized
        # (ctrl_inbox): match the prefix the way the renderer wrote it.
        prefix = _NAME_SANITIZE.sub("_", args.name_filter)
        text = "".join(
            "# TYPE " + block for block in text.split("# TYPE ")
            if block and block.startswith(prefix)
        )
    sys.stdout.write(text)


def _show_top(result, args, frames) -> None:
    from repro.obs import format_top, snapshot_top

    print(format_top(snapshot_top(result.deployment)))
    if args.jsonl:
        with open(args.jsonl, "a") as handle:
            handle.writelines(
                json.dumps(dict(snap, type="frame"), sort_keys=True) + "\n"
                for snap in frames
            )
        print("wrote %d frames to %s" % (len(frames), args.jsonl))


def _show_audit(result, args, frames) -> bool:
    from repro.obs import render_bundle

    obs = result.deployment.obs
    violations = obs.violations()
    _print_violations(violations)
    for bundle in obs.recorder.bundles:
        print()
        print(render_bundle(bundle))
    if args.bundle and obs.recorder.bundles:
        with open(args.bundle, "w") as handle:
            json.dump(obs.recorder.bundles[-1], handle, indent=2,
                      sort_keys=True)
        print("wrote bundle to %s" % args.bundle)
    return bool(violations)


#: ``run``'s views: each reads the finished run (``top`` also the frames
#: it streamed) and returns True when the run should exit 1.
_VIEWS = {
    "report": _show_report,
    "timeline": _show_timeline,
    "metrics": _show_metrics,
    "top": _show_top,
    "audit": _show_audit,
}


def _print_violations(violations) -> None:
    if not violations:
        print("violations: none")
        return
    print("violations: %d" % len(violations))
    for violation in violations:
        print("  " + violation.render())


def _cmd_audit(args: argparse.Namespace) -> int:
    from repro.obs import render_bundle
    from repro.obs.audit import parse_trace

    try:
        with open(args.path) as handle:
            text = handle.read()
        if not text:
            raise OSError("%s is empty" % args.path)
    except OSError as exc:
        print("repro audit: error: %s" % exc, file=sys.stderr)
        return 2
    # A bundle is one JSON document naming its causal slice; a trace is
    # one document per line and never parsed whole.
    if '"causal_slice"' in text:
        try:
            payload = json.loads(text)
        except ValueError:
            payload = None
        if isinstance(payload, dict) and "causal_slice" in payload:
            print(render_bundle(payload))
            return 0
    from repro.conformance.runner import judge_trace

    entries, _skipped = parse_trace(text.splitlines(), args.path)
    violations = judge_trace(entries)
    _print_violations(violations)
    return 1 if violations else 0


def _cmd_conform(args: argparse.Namespace) -> int:
    from repro.conformance import (
        hunt_counterexample,
        load_corpus,
        matrix_cells,
        replay_entry,
        run_cell,
        run_schedule,
        save_entry,
    )
    from repro.conformance.schedule import ScheduleSpec

    if args.hunt is not None:
        from hypothesis.errors import NoSuchExample

        try:
            spec, result = hunt_counterexample(args.hunt)
        except NoSuchExample as exc:  # the defect went away
            print("repro conform: hunt for %r found no counterexample: %s"
                  % (args.hunt, exc), file=sys.stderr)
            return 1
        print("shrunk counterexample for %r:" % args.hunt)
        print(spec.to_json())
        print(result.summary())
        for violation in result.violations[:5]:
            print("  " + violation.render())
        if args.corpus_dir:
            entry = save_entry(
                args.corpus_dir, "%s-hunt" % args.hunt, spec, result,
                expect="dirty",
                description="shrunk via `repro conform --hunt %s`"
                            % args.hunt,
            )
            print("saved %s + %s" % (entry.schedule_path, entry.trace_path))
        return 0

    if args.replay is not None:
        try:
            entries = load_corpus(args.replay)
        except (OSError, ValueError) as exc:
            print("repro conform: error: %s" % exc, file=sys.stderr)
            return 2
        if not entries:
            print("repro conform: no corpus entries under %s" % args.replay,
                  file=sys.stderr)
            return 2
        failures = 0
        for entry in entries:
            outcome = replay_entry(entry)
            status = "ok" if outcome.ok else "FAIL"
            print("%-30s expect=%-5s -> %s" % (entry.name, entry.expect,
                                               status))
            for problem in outcome.problems:
                failures += 1
                print("    " + problem)
        if failures:
            print("%d corpus replay problem(s)" % failures)
            return 1
        print("all %d corpus entries replay as expected" % len(entries))
        return 0

    if args.schedule is not None:
        try:
            with open(args.schedule) as handle:
                data = json.load(handle)
            spec = ScheduleSpec.from_dict(data.get("schedule", data))
        except (OSError, ValueError) as exc:
            print("repro conform: error: %s" % exc, file=sys.stderr)
            return 2
        # The flags only ever add to what the schedule file asks for.
        spec.shards = max(spec.shards, args.shards)
        spec.offload = spec.offload or args.offload
        result = run_schedule(spec)
        print(result.summary())
        for violation in result.violations:
            print("  " + violation.render())
        if not result.loss_free:
            print("  [ground-truth] loss-free: %s" % result.loss_free_detail)
        return 0 if result.ok else 1

    # Default: the full NF × guarantee × faults × batching matrix.
    cells = matrix_cells()
    if args.nf is not None:
        cells = [c for c in cells if c.nf == args.nf]
    if args.guarantee is not None:
        cells = [c for c in cells if c.guarantee == args.guarantee]
    if not cells:
        print("repro conform: no matrix cells match the filters",
              file=sys.stderr)
        return 2
    failed = []
    expected_dirty = 0
    for cell in cells:
        result = run_cell(cell, **_mode_kwargs(args))
        if result.clean:
            if args.verbose:
                print("%-40s clean" % cell.label())
        elif result.expected_dirty:
            expected_dirty += 1
            print("%-40s dirty (expected: %s)"
                  % (cell.label(), ",".join(result.check_kinds()) or "-"))
        else:
            failed.append((cell, result))
            print("%-40s DIRTY checks=%s"
                  % (cell.label(), ",".join(result.check_kinds())))
            for violation in result.violations[:3]:
                print("    " + violation.render())
    print("%d cells: %d clean, %d expected-dirty, %d FAILED"
          % (len(cells), len(cells) - expected_dirty - len(failed),
             expected_dirty, len(failed)))
    return 1 if failed else 0

def _cmd_chain(args: argparse.Namespace) -> int:
    from repro.conformance.runner import NF_FACTORIES
    from repro.harness import (
        LOCAL_NET_FILTER,
        Deployment,
        check_chain_loss_free,
    )
    from repro.traffic.replay import TraceReplayer
    from repro.traffic.traces import TraceConfig, build_university_cloud_trace

    hop_guarantees = {}
    for override in args.hop_guarantees:
        if "=" not in override:
            print("repro chain: error: --hop-guarantee wants HOP=LEVEL, "
                  "got %r" % override, file=sys.stderr)
            return 2
        hop, level = override.split("=", 1)
        try:
            hop_guarantees[hop.strip()] = _guarantee(level.strip())
        except argparse.ArgumentTypeError as exc:
            print("repro chain: error: %s" % exc, file=sys.stderr)
            return 2

    hops = [("ids", ("ids1", "ids2")), ("nat", ("nat1", "nat2")),
            ("proxy", ("proxy1", "proxy2"))]
    unknown = set(hop_guarantees) - {name for name, _ in hops}
    if unknown:
        print("repro chain: error: unknown hop(s) %s (chain is ids → nat "
              "→ proxy)" % ", ".join(sorted(unknown)), file=sys.stderr)
        return 2

    dep = Deployment(audit=True, **_mode_kwargs(args))
    nfs_by_hop = []
    for hop_name, names in hops:
        members = []
        for name in names:
            nf = NF_FACTORIES[hop_name](dep.sim, name)
            dep.add_nf(nf)
            members.append(nf)
        nfs_by_hop.append((hop_name, members))
    chain = dep.chain("edge", hops, flt=LOCAL_NET_FILTER)

    trace = build_university_cloud_trace(TraceConfig(
        seed=args.seed, n_flows=args.flows, data_packets=10,
    ))
    replayer = TraceReplayer(dep.sim, dep.inject, trace.packets,
                             rate_pps=args.rate)
    replayer.start()
    holder = {}

    def kickoff():
        holder["op"] = dep.controller.move_chain(
            chain, LOCAL_NET_FILTER,
            {hop_name: names[1] for hop_name, names in hops},
            guarantee=args.guarantee,
            hop_guarantees=hop_guarantees or None,
        )
        if args.abort_at is not None:
            dep.sim.schedule(args.abort_at, holder["op"].abort,
                             "aborted via CLI")

    dep.sim.schedule(replayer.duration_ms / 2.0, kickoff)
    dep.sim.run()

    operation = holder["op"]
    report = operation.done.value
    print(report.summary())
    for hop_report in operation.hop_reports:
        print("  hop %-8s %s" % ("%s:" % hop_report.src, hop_report.summary()))
    late = [operation.late_abort] if operation.late_abort else []
    for note in report.notes + late:
        print("  note: %s" % note)
    print("actives: %s" % " → ".join(
        "%s=%s" % (hop.name, hop.active) for hop in chain.hops
    ))
    ok, detail = check_chain_loss_free(dep.switch, nfs_by_hop)
    print("chain loss-free: %s%s"
          % ("yes" if ok else "NO", "" if ok else "  (%s)" % detail))
    _print_violations(dep.obs.violations())
    if report.aborted:
        print("ABORTED: %s" % report.aborted)
        return 1
    return 1 if (dep.obs.violations() or not ok or late) else 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.controller.move import Guarantee

    failures = 0
    for seed in range(args.seeds):
        lf = run_move_experiment(Guarantee.LOSS_FREE, n_flows=args.flows,
                                 rate_pps=args.rate, seed=seed)
        op = run_move_experiment(Guarantee.ORDER_PRESERVING,
                                 n_flows=args.flows,
                                 rate_pps=args.rate, seed=seed)
        ng = run_move_experiment(Guarantee.NONE, n_flows=args.flows,
                                 rate_pps=args.rate, seed=seed)
        checks = [
            ("LF move loss-free", lf.loss_free),
            ("OP move loss-free", op.loss_free),
            ("OP move order-preserving", op.order_preserving),
            ("NG move drops packets", ng.report.packets_dropped > 0),
        ]
        for label, ok in checks:
            status = "ok" if ok else "FAIL"
            print("seed %d: %-28s %s" % (seed, label, status))
            if not ok:
                failures += 1
    if failures:
        print("%d check(s) FAILED" % failures)
        return 1
    print("all guarantees hold across %d seeds" % args.seeds)
    return 0


def _cmd_version(args: argparse.Namespace) -> int:
    print("opennf-repro %s" % __version__)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
