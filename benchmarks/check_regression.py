"""Compare fresh BENCH_*.json results against committed baselines.

Usage::

    python benchmarks/check_regression.py BASELINE_DIR FRESH_DIR

Walks every ``BENCH_*.json`` present in both directories and compares
leaf values by their JSON path:

* wall-clock keys (ending ``_ms`` or ``_us_per_op``) may regress by at
  most ``--tolerance`` (default 25%);
* control-message-count keys (containing ``messages``) must not
  increase at all — the batching/consolidation wins are structural, so
  any growth is a real regression, not noise;
* telemetry-overhead keys (ending ``overhead_pct``) must stay at or
  under 5.0 absolute — the "leave it on" budget is a hard ceiling, not
  relative to baseline;
* everything else (pps, sizes, booleans) is informational.

Exit status is non-zero when any check fails, so CI can gate on it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Iterator, List, Tuple

TIME_SUFFIXES = ("_ms", "_us_per_op")
MESSAGE_MARKER = "messages"
OVERHEAD_SUFFIX = "overhead_pct"
MAX_OVERHEAD_PCT = 5.0


def leaves(value: Any, path: str = "") -> Iterator[Tuple[str, Any]]:
    """Depth-first (path, scalar) pairs of a parsed JSON document."""
    if isinstance(value, dict):
        for key in sorted(value):
            yield from leaves(value[key], "%s.%s" % (path, key) if path
                              else str(key))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from leaves(item, "%s[%d]" % (path, index))
    else:
        yield path, value


def last_key(path: str) -> str:
    return path.rsplit(".", 1)[-1].split("[", 1)[0]


def compare_file(
    name: str, baseline: Any, fresh: Any, tolerance: float
) -> List[str]:
    failures: List[str] = []
    fresh_leaves = dict(leaves(fresh))
    for path, base_value in leaves(baseline):
        key = last_key(path)
        if not isinstance(base_value, (int, float)) or isinstance(
            base_value, bool
        ):
            continue
        current = fresh_leaves.get(path)
        if not isinstance(current, (int, float)) or isinstance(
            current, bool
        ):
            failures.append(
                "%s: %s missing from fresh results" % (name, path)
            )
            continue
        if key.endswith(OVERHEAD_SUFFIX):
            # Absolute ceiling, independent of the baseline value: the
            # telemetry budget never loosens even if a past run was low.
            if current > MAX_OVERHEAD_PCT:
                failures.append(
                    "%s: %s telemetry overhead %.2f%% exceeds the %.1f%% "
                    "budget" % (name, path, current, MAX_OVERHEAD_PCT)
                )
        elif key.endswith(TIME_SUFFIXES):
            limit = base_value * (1.0 + tolerance)
            if current > limit:
                failures.append(
                    "%s: %s regressed %.3f -> %.3f (>%.0f%% over baseline)"
                    % (name, path, base_value, current, tolerance * 100)
                )
        elif MESSAGE_MARKER in key:
            if current > base_value:
                failures.append(
                    "%s: %s message count grew %d -> %d"
                    % (name, path, base_value, current)
                )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="fail CI on benchmark regressions"
    )
    parser.add_argument("baseline_dir")
    parser.add_argument("fresh_dir")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed fractional wall-clock regression "
                             "(default 0.25 = 25%%)")
    args = parser.parse_args(argv)

    names = sorted(
        entry for entry in os.listdir(args.baseline_dir)
        if entry.startswith("BENCH_") and entry.endswith(".json")
    )
    if not names:
        print("check_regression: no BENCH_*.json baselines in %s"
              % args.baseline_dir, file=sys.stderr)
        return 2

    failures: List[str] = []
    compared = 0
    for name in names:
        fresh_path = os.path.join(args.fresh_dir, name)
        if not os.path.exists(fresh_path):
            failures.append("%s: missing from %s" % (name, args.fresh_dir))
            continue
        with open(os.path.join(args.baseline_dir, name)) as handle:
            baseline = json.load(handle)
        with open(fresh_path) as handle:
            fresh = json.load(handle)
        failures.extend(compare_file(name, baseline, fresh, args.tolerance))
        compared += 1

    print("check_regression: compared %d file(s) against %s"
          % (compared, args.baseline_dir))
    if failures:
        for failure in failures:
            print("REGRESSION: %s" % failure)
        return 1
    print("check_regression: no regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
