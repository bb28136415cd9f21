"""The paired protocol in one command: parent vs. this tree, ten times.

    python benchmarks/pairs.py --parent <commit> [--workload W ...]
    python benchmarks/pairs.py --parent <commit> --pr N --title "..."

Exports ``<commit>`` into a temporary directory (``git archive``: a
plain copy of the committed files, nothing registered in ``.git``),
then runs the ledger contract of ``BENCHMARK.json``
(``--workload W --seed 100.. --seconds 12 --trace 0``) as alternating
parent/change pairs, one child at a time, each side from its own
directory with its own copy of the benchmark. Prints, per workload and
end-to-end metric, both medians, the parent's quartiles and how many
pairs the change won; the last line of stdout is the
``benchmarks/results/history.jsonl`` record. With ``--pr`` the record
also carries tier-1's test count and wall seconds, is appended to that
file, and the previous record's ``commit`` is filled in with the parent.

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
                 seconds: float) -> dict:
    """One run under the BENCHMARK.json contract, from inside ``tree``."""
    done = subprocess.run(
        [sys.executable] + spec["command"][1:] + [
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0",
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


def tier1() -> dict:
    """Tier-1 (ROADMAP.md) on this tree: test count and wall seconds."""
    path = [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    t0 = time.time()
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-x"], cwd=ROOT, env=env,
        stdout=subprocess.PIPE, text=True,
    )
    passed = re.search(r"(\d+) passed", done.stdout)
    if done.returncode or not passed:
        sys.exit("tier-1 is not green; nothing recorded\n" + done.stdout[-2000:])
    return {"tests": int(passed.group(1)), "wall_s": round(time.time() - t0, 1)}


def append_history(record: dict) -> None:
    with open(HISTORY) as handle:
        lines = [json.loads(line) for line in handle if line.strip()]
    if lines and lines[-1]["commit"] is None and lines[-1]["pr"] != record["pr"]:
        lines[-1]["commit"] = record["parent"]
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
    parser.add_argument("--pr", type=int, help="append the record as this PR's")
    parser.add_argument("--title", default="")
    args = parser.parse_args()

    parent_hash = git("rev-parse", "--short", args.parent).decode().strip()
    trees = {"parent": export_commit(args.parent), "change": ROOT}
    runs = {name: {"parent": [], "change": []} for name in args.workload or names}
    failed_ops = 0
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
    if args.pr is not None:
        record["tier1"] = tier1()
        append_history(record)
    print(json.dumps(record))
    return 1 if failed_ops else 0


if __name__ == "__main__":
    sys.exit(main())
