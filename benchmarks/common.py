"""Shared helpers for the benchmark harnesses.

Every benchmark regenerates one table or figure from the paper's
evaluation (§8). The *measured values are simulated milliseconds* — the
substrate is a calibrated simulator, not the authors' testbed — so each
harness prints its table (and writes it under ``benchmarks/results/``)
for comparison against the paper, while ``pytest-benchmark`` records the
real wall-clock runtime of the harness itself.
"""

from __future__ import annotations

import os
from typing import Iterable, List, Sequence

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def format_table(
    title: str, headers: Sequence[str], rows: Iterable[Sequence[object]]
) -> str:
    """Render an aligned plain-text table."""
    rendered_rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))

    parts = [title, line(headers), line(["-" * w for w in widths])]
    parts.extend(line(row) for row in rendered_rows)
    return "\n".join(parts)


def publish(name: str, text: str) -> None:
    """Print a result table and persist it under benchmarks/results/."""
    print()
    print(text)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, name + ".txt"), "w") as handle:
        handle.write(text + "\n")


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark and return its result.

    The experiments are deterministic simulations; repeating them only
    re-measures the harness, so one round suffices.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1)
