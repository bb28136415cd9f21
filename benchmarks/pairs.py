"""The paired protocol in one command: parent vs. this tree, ten times.

    python benchmarks/pairs.py --parent <commit> [--workload W ...]
    python benchmarks/pairs.py --parent <commit> --pr N --title "..." \
        --layers <claimed workload>

Exports ``<commit>`` into a temporary directory (``git archive``: a
plain copy of the committed files, nothing registered in ``.git``),
then runs the ledger contract of ``BENCHMARK.json``
(``--workload W --seed 100.. --seconds 12 --trace 0``) as alternating
parent/change pairs, one child at a time, each side from its own
directory with its own copy of the benchmark. Prints, per workload and
end-to-end metric, both medians, the parent's quartiles and how many
pairs the change won; the last line of stdout is the
``benchmarks/results/history.jsonl`` record. With ``--pr`` the record
also carries tier-1's test count, wall seconds and five slowest test
files (summed ``call`` time of ``pytest --durations=0``), is appended to that
file, and the previous record's ``commit`` is filled in: the first-parent
child of *that* record's parent on the way to this one's.

``--layers W`` names the layer the time was bought in: after the pairs,
one traced run (``--trace 1 --seed 7``, the ledger's reference seed) of
workload ``W`` per side, and every ``*_us`` / ``probe.*_ns`` metric whose
parent -> change ratio leaves [0.9, 1.1] is printed and carried as
``"layers"`` in the record, together with ``sim.events`` of both sides
(a speed-only change leaves it equal) and the median ratio over all the
timings: a change moves a few layers, a host that sped up or slowed
down between the two runs moves them all, so read each row against that
median. One run per side: indicative, not a claim.

A gain is *resolved* only under the rule of the choosing-metrics guide:
the change wins at least nine pairs in ten (ties count for neither) and
the medians differ by more than the parent's own inter-quartile spread.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HISTORY = os.path.join(ROOT, "benchmarks", "results", "history.jsonl")
FIRST_SEED = 100
LAYER_SEED = 7
LAYER_BAND = (0.9, 1.1)


def git(*args: str) -> bytes:
    return subprocess.run(
        ("git",) + args, cwd=ROOT, stdout=subprocess.PIPE, check=True
    ).stdout


def export_commit(commit: str) -> str:
    """The committed files of ``commit`` in a fresh temporary directory."""
    target = tempfile.mkdtemp(prefix="pairs-parent-")
    with tarfile.open(fileobj=io.BytesIO(git("archive", commit))) as tar:
        tar.extractall(target)
    return target


def contract_run(spec: dict, tree: str, workload: str, seed: int,
                 seconds: float, trace: int = 0) -> dict:
    """One run under the BENCHMARK.json contract, from inside ``tree``."""
    done = subprocess.run(
        [sys.executable] + spec["command"][1:] + [
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
        ],
        cwd=tree, stdout=subprocess.PIPE, check=True, text=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(entry: dict, parent, change) -> dict:
    """Medians, parent quartiles, wins and the verdict for one metric."""
    higher = entry["better"] == "higher"
    wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, _median, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    gain = (c_med - p_med) if higher else (p_med - c_med)
    if wins >= 0.9 * len(parent) and gain > q3 - q1:
        verdict = "gain"
    elif -gain > entry["bound"] * p_med:
        verdict = "REGRESSION"
    else:
        verdict = "within bound"
    return {
        "parent": round(p_med, 3), "change": round(c_med, 3),
        "parent_iqr": [round(q1, 3), round(q3, 3)],
        "wins": wins, "verdict": verdict,
    }


def layer_table(spec: dict, trees: dict, workload: str,
                seconds: float) -> dict:
    """One traced run per side: the per-layer timings that moved."""
    traced = {
        side: contract_run(
            spec, tree, workload, LAYER_SEED, seconds, trace=1)["metrics"]
        for side, tree in trees.items()
    }
    moved, ratios = {}, []
    print("%s --trace 1 --seed %d, one run per side:" % (workload, LAYER_SEED))
    for name, cell in traced["parent"].items():
        timing = name.endswith("_us") or (
            name.startswith("probe.") and name.endswith("_ns"))
        parent, change = cell["value"], traced["change"][name]["value"]
        if name == "sim.events":
            pass  # always shown: equal on both sides or the clock moved
        elif not timing or not (parent or change):
            continue
        elif parent:
            ratios.append(change / parent)
            if LAYER_BAND[0] <= ratios[-1] <= LAYER_BAND[1]:
                continue
        moved[name] = [round(parent, 3), round(change, 3)]
        print("  %-38s %12.6g -> %12.6g %-5s %s" % (
            name, parent, change, cell["unit"],
            "%.2fx" % (change / parent) if parent else ""))
    drift = round(statistics.median(ratios), 3)
    print("  median ratio of all %d timings: %.2fx (host drift between the "
          "two runs; read each row against it)" % (len(ratios), drift))
    return {"workload": workload, "seed": LAYER_SEED, "median_ratio": drift,
            "metrics": moved}


def slowest_files(report: str, top: int = 5) -> dict:
    """Test files by summed ``call`` seconds, from ``--durations`` lines."""
    seconds: dict = {}
    for spent, path in re.findall(r"^([\d.]+)s call +([^:\s]+)::", report, re.M):
        seconds[path] = seconds.get(path, 0.0) + float(spent)
    ranked = sorted(seconds.items(), key=lambda item: -item[1])[:top]
    return {path: round(spent, 2) for path, spent in ranked}


def tier1() -> dict:
    """Tier-1 (ROADMAP.md) on this tree: count, wall seconds, slowest files."""
    path = [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    t0 = time.time()
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-x",
         "--durations=0", "--durations-min=0"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
    )
    wall_s = round(time.time() - t0, 1)
    passed = re.search(r"(\d+) passed", done.stdout)
    if done.returncode or not passed:
        sys.exit("tier-1 is not green; nothing recorded\n" + done.stdout[-2000:])
    return {"tests": int(passed.group(1)), "wall_s": wall_s,
            "slowest_files": slowest_files(done.stdout)}


def child_on_path(ancestor: str, descendant: str):
    """The first-parent child of ``ancestor`` on the way to
    ``descendant``, abbreviated, or None when there is no such path."""
    path = git("rev-list", "--first-parent", "--ancestry-path", "--reverse",
               "--abbrev-commit", "%s..%s" % (ancestor, descendant)).split()
    return path[0].decode() if path else None


def append_history(record: dict) -> None:
    with open(HISTORY) as handle:
        lines = [json.loads(line) for line in handle if line.strip()]
    last = lines[-1] if lines else None
    if last and last["commit"] is None and last["pr"] != record["pr"]:
        # The previous record was taken against its own parent: its
        # commit is that parent's child, not necessarily this record's
        # parent (a PR that wrote no record may sit in between).
        last["commit"] = child_on_path(last["parent"], record["parent"])
    lines.append(record)
    with open(HISTORY, "w") as handle:
        for line in lines:
            handle.write(json.dumps(line) + "\n")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="commit to compare against")
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--layers", choices=names, metavar="WORKLOAD",
                        help="also trace this workload once per side")
    parser.add_argument("--pr", type=int, help="append the record as this PR's")
    parser.add_argument("--title", default="")
    args = parser.parse_args()

    parent_hash = git("rev-parse", "--short", args.parent).decode().strip()
    trees = {"parent": export_commit(args.parent), "change": ROOT}
    runs = {name: {"parent": [], "change": []} for name in args.workload or names}
    failed_ops = 0
    layers = None
    try:
        for name, sides in runs.items():
            for pair in range(args.pairs):
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for side in order:
                    result = contract_run(
                        spec, trees[side], name, FIRST_SEED + pair, args.seconds)
                    failed_ops += result["failed"]
                    sides[side].append(
                        {m: v["value"] for m, v in result["metrics"].items()})
                print("%s pair %d/%d: work_per_cpu_s %.6g -> %.6g" % (
                    name, pair + 1, args.pairs,
                    sides["parent"][-1]["work_per_cpu_s"],
                    sides["change"][-1]["work_per_cpu_s"]), file=sys.stderr)
        if args.layers:
            layers = layer_table(spec, trees, args.layers, args.seconds)
    finally:
        shutil.rmtree(trees["parent"], ignore_errors=True)

    medians = {}
    print("%-15s %-15s %12s %25s %12s %7s  %5s  %s" % (
        "workload", "metric", "parent", "parent IQR", "change", "ratio",
        "wins", "verdict"))
    for name, sides in runs.items():
        medians[name] = {}
        for entry in spec["end_to_end"]:
            metric = entry["name"]
            row = summarize(entry, [r[metric] for r in sides["parent"]],
                            [r[metric] for r in sides["change"]])
            medians[name][metric] = row
            print("%-15s %-15s %12.6g %25s %12.6g %6.3fx  %2d/%-2d  %s" % (
                name, metric, row["parent"],
                "[%.6g, %.6g]" % tuple(row["parent_iqr"]), row["change"],
                row["change"] / row["parent"], row["wins"], args.pairs,
                row["verdict"]))
    print("failed operations: %d" % failed_ops)
    record = {
        "pr": args.pr, "commit": None, "parent": parent_hash,
        "title": args.title,
        "pairs": {
            "n": args.pairs,
            "seeds": "%d-%d" % (FIRST_SEED, FIRST_SEED + args.pairs - 1),
            "seconds": args.seconds, "trace": 0, "failed_ops": failed_ops,
        },
        "medians": medians,
    }
    if layers is not None:
        record["layers"] = layers
    if args.pr is not None:
        record["tier1"] = tier1()
        append_history(record)
    print(json.dumps(record))
    return 1 if failed_ops else 0


if __name__ == "__main__":
    sys.exit(main())
