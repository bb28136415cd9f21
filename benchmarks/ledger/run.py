"""The layered performance ledger: one command, two clocks.

    python benchmarks/ledger/run.py [--workload W] [--seed 7]
        every workload (or W), each in its own fresh child process, one
        at a time; prints every metric by name with its unit, checks the
        outputs, writes benchmarks/ledger/out/<workload>.json and
        <workload>.spans.jsonl. Exit 1 if anything failed a check, 3 if a
        run was DISTURBED by host noise (re-run it, do not record it).

    ... --workload W --seed N --seconds S --trace 0|1
        one run under the contract of BENCHMARK.json: the last line of
        stdout is {"correct", "attempted", "failed", "metrics"} with the
        end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).

    ... --repeat-check     the full set twice; PASS/FAIL per metric
    ... --smoke            every workload at 1/20 size, one iteration

Metric names, units and bounds live in BENCHMARK.json at the repo root;
this file reads them from there.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference.json")
CHILD_TIMEOUT_S = 170
SMOKE_SCALE = 0.05


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def run_child(workload: str, seed: int, seconds: float, trace: int,
              scale: float = 1.0) -> dict:
    """One workload in a fresh interpreter; returns what it measured."""
    os.makedirs(OUT, exist_ok=True)
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + env.get("PYTHONPATH", "").split(os.pathsep)
    ).rstrip(os.pathsep)
    command = [
        sys.executable, os.path.join(HERE, "child.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
        "--scale", str(scale), "--spawned-at", repr(time.time()),
    ]
    if trace:
        command += ["--spans", os.path.join(OUT, workload + ".spans.jsonl")]
    done = subprocess.run(
        command, env=env, cwd=ROOT, stdout=subprocess.PIPE,
        timeout=CHILD_TIMEOUT_S, check=True, text=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    with open(os.path.join(OUT, workload + ".json"), "w") as handle:
        json.dump(result, handle, indent=1)
    return result


def reference_digest(result: dict):
    """The committed digest for this run's inputs, or None if there is none."""
    try:
        with open(REFERENCE) as handle:
            reference = json.load(handle)
    except FileNotFoundError:
        return None
    if (result["seed"], result["scale"]) != (reference["seed"], reference["scale"]):
        return None
    return reference["sim_digest"].get(result["workload"])


def fmt(value) -> str:
    return "%d" % value if float(value).is_integer() else "%.6g" % value


def report(result: dict, spec: dict) -> None:
    """Every metric by name with its unit, plus the checks."""
    metrics = result["metrics"]
    print("== %s  (%s; unit: %s; seed %d; scale %g)" % (
        result["workload"], result["sizes"], result["unit"], result["seed"],
        result["scale"]))
    cpu = result["iter_cpu_s"]
    print("   K=%d timed iterations, CPU s min %.3f / max %.3f, %.3f with "
          "host noise removed; failed %d of %d attempted %ss" % (
              len(cpu), min(cpu), max(cpu), result["floor_cpu_s"],
              result["failed"], result["attempted"], result["unit"]))
    for failure in result["failures"]:
        print("   FAILED: " + failure)
    pinned = reference_digest(result)
    state = ("no committed value for this seed and scale" if pinned is None
             else "PINNED" if pinned == result["sim_digest"]
             else "MOVED from committed %s" % pinned)
    print("   sim_digest %s  (%s)" % (result["sim_digest"], state))
    print("   samples: " + ", ".join(
        "%s n=%d" % item for item in sorted(result["samples"].items())))
    if result["disturbed"]:
        print("   DISTURBED: calibration drift %.1f %%, wall/CPU %.3f" % (
            metrics["host.calib_drift_pct"], metrics["host.wall_over_cpu"]))
    for group in ("end_to_end", "per_layer"):
        print("   -- %s" % group.replace("_", " "))
        for entry in spec[group]:
            if entry["name"] in metrics:
                print("   %-40s %14s %s" % (
                    entry["name"], fmt(metrics[entry["name"]]), entry["unit"]))
    traced = result["trace"]
    if traced:
        shares = ", ".join(
            "%s %.1f%%" % (name[:-len("_us")], pct)
            for name, pct in list(traced["share_pct"].items())[:6])
        print("   traced shares: %s; unattributed %.1f%%" % (
            shares, traced["unattributed_pct"]))
        for name in traced["missing"]:
            print("   missing (no longer resolves): " + name)


def contract_run(args, spec: dict) -> int:
    result = run_child(args.workload, args.seed, args.seconds, args.trace)
    report(result, spec)
    group = spec["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            entry["name"]: {
                "value": result["metrics"][entry["name"]],
                "unit": entry["unit"],
            }
            for entry in group
        },
    }))
    return 0


def suite(args, spec: dict, trace: int = 1, quiet: bool = False) -> dict:
    names = [args.workload] if args.workload else [
        w["name"] for w in spec["workloads"]]
    results = {}
    for name in names:
        results[name] = (
            run_child(name, args.seed, 0.0, trace, scale=SMOKE_SCALE)
            if args.smoke else run_child(name, args.seed, args.seconds, trace))
        if not quiet:
            report(results[name], spec)
    return results


def exit_code(results: dict, smoke: bool) -> int:
    if any(r["failed"] for r in results.values()):
        return 1
    if not smoke and any(r["disturbed"] for r in results.values()):
        return 3
    return 0


def repeat_check(args, spec: dict) -> int:
    """Two sets of runs of the same code must agree within the bounds."""
    first = suite(args, spec, trace=0, quiet=True)
    second = suite(args, spec, trace=0, quiet=True)
    bounds = {e["name"]: e for e in spec["end_to_end"]}
    ok = True
    for name in first:
        a, b = first[name], second[name]
        print("== " + name)
        for metric, entry in bounds.items():
            x, y = a["metrics"][metric], b["metrics"][metric]
            worse = (y - x) / x if entry["better"] == "lower" else (x - y) / x
            passed = worse <= entry["bound"]
            ok &= passed
            print("   %-22s %12s %12s  %+7.2f %%  bound %4.1f %%  %s" % (
                metric, fmt(x), fmt(y), 100.0 * (y - x) / x,
                100.0 * entry["bound"], "PASS" if passed else "FAIL"))
        exact = {"sim_digest": (a["sim_digest"], b["sim_digest"]),
                 "work_per_iteration": (a["work_per_iteration"],
                                        b["work_per_iteration"]),
                 "failed": (a["failed"], b["failed"])}
        for metric in a["metrics"]:
            # Every counter and simulated-clock statistic, none of the
            # host-clock ones (those carry a unit of time or a rate).
            if metric.split(".")[0] not in ("host", "slice", "mode") \
                    and metric not in bounds:
                exact[metric] = (a["metrics"][metric], b["metrics"][metric])
        moved = [m for m, (x, y) in exact.items() if x != y]
        ok &= not moved
        print("   %d simulated-clock values and counts: %s" % (
            len(exact), "all identical  PASS" if not moved
            else "MOVED %s  FAIL" % ", ".join(moved)))
    for results in (first, second):
        for name, result in results.items():
            if result["failed"] or result["disturbed"]:
                ok = False
                print("%s: %s" % (name, "failed %d checks" % result["failed"]
                                  if result["failed"] else "DISTURBED, re-run"))
    return 0 if ok else 1


def write_reference(results: dict, seed: int) -> None:
    with open(REFERENCE, "w") as handle:
        json.dump({
            "seed": seed,
            "scale": 1.0,
            "sim_digest": {n: r["sim_digest"] for n, r in results.items()},
            "end_to_end": {
                n: {m: r["metrics"][m] for m in
                    ("setup_s", "work_per_cpu_s", "peak_rss_mb")}
                for n, r in results.items()
            },
        }, handle, indent=1, sort_keys=True)
        handle.write("\n")


def main() -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--repeat-check", action="store_true")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("no src/repro beside the benchmark: nothing to measure",
              file=sys.stderr)
        return 2
    if args.trace is not None:
        if not args.workload:
            parser.error("--trace needs --workload")
        return contract_run(args, spec)
    if args.repeat_check:
        return repeat_check(args, spec)
    results = suite(args, spec)
    if args.write_reference and not args.smoke and not args.workload:
        write_reference(results, args.seed)
    return exit_code(results, args.smoke)


if __name__ == "__main__":
    sys.exit(main())
