"""The benchmark tooling that gates in CI, checked in tier-1.

``benchmarks/results/table2_loc.txt`` is a static analysis of this
repository that goes stale with every NF edit; ``make conform`` is the
conformance job's only matrix entry point; ``benchmarks/pairs.py``
stamps each ``history.jsonl`` record's commit.
"""

from __future__ import annotations

import importlib
import json
import pathlib
import re
import subprocess
import types

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS = ROOT / "benchmarks" / "results"


@pytest.fixture
def bench(monkeypatch):
    """Import a ``benchmarks/`` module the way its scripts run."""
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))
    return importlib.import_module


# ---------------------------------------------------------- history.jsonl


def test_history_stamps_the_previous_record_with_its_own_child(
    bench, monkeypatch, tmp_path
):
    # main <- a <- b <- c: a record was taken for b against a, none for
    # c, and the next is taken against c. b's row gets b, not c.
    pairs = bench("pairs")

    def git(*args):
        return subprocess.run(
            ("git", "-c", "user.name=t", "-c", "user.email=t@t") + args,
            cwd=tmp_path, stdout=subprocess.PIPE, check=True,
        ).stdout.decode().strip()

    git("init", "-q")
    commits = []
    for name in ("main", "a", "b", "c"):
        git("commit", "-q", "--allow-empty", "-m", name)
        commits.append(git("rev-parse", "--short", "HEAD"))
    _, a, b, c = commits
    history = tmp_path / "history.jsonl"
    history.write_text(json.dumps({"pr": 1, "commit": None, "parent": a}) + "\n")
    monkeypatch.setattr(pairs, "ROOT", str(tmp_path))
    monkeypatch.setattr(pairs, "HISTORY", str(history))

    pairs.append_history({"pr": 3, "commit": None, "parent": c})
    rows = [json.loads(line) for line in history.read_text().splitlines()]
    assert [(row["pr"], row["commit"]) for row in rows] == [(1, b), (3, None)]
    # A re-run of the same PR replaces nothing and stamps nothing.
    pairs.append_history({"pr": 3, "commit": None, "parent": c})
    assert json.loads(history.read_text().splitlines()[1])["commit"] is None


def test_every_committed_record_but_the_last_names_its_commit():
    rows = [
        json.loads(line)
        for line in (RESULTS / "history.jsonl").read_text().splitlines()
    ]
    assert [row["pr"] for row in rows[:-1] if row["commit"] is None] == []


# -------------------------------------------------------------------- Table 2


def test_committed_table2_is_current(bench):
    table2 = bench("bench_table2_loc")
    assert (RESULTS / "table2_loc.txt").read_text() == (
        table2.render_table2(table2.run_table2()) + "\n"
    )


def test_table2_counts_the_state_table_and_the_hooks_it_names(
    bench, tmp_path
):
    (tmp_path / "__init__.py").write_text("")
    (tmp_path / "toy.py").write_text(
        "_PORTS = Convert(sorted, set)\n"
        "\n"
        "\n"
        "class Record:\n"
        "    __slots__ = ('host', 'ports')\n"
        "    FIELDS = ('host', Field('ports', _PORTS))\n"
        "    MERGE = dict(host=keep, ports=union)\n"
        "\n"
        "    def _rebuild(self):\n"
        "        self.sink = None\n"
        "\n"
        "    def to_dict(self):\n"
        "        return {}\n"
        "\n"
        "\n"
        "class Toy:\n"
        "    def process_packet(self, packet):\n"
        "        pass\n"
        "\n"
        "    def _import_record(self, spec, chunk):\n"
        "        return None\n"
        "\n"
        "    STATE = {\n"
        "        'perflow': ('records', _import_record),\n"
        "    }\n"
    )
    package = types.SimpleNamespace(__file__=str(tmp_path / "__init__.py"))
    # _PORTS (1, named by FIELDS) + FIELDS (1) + MERGE (1) + _rebuild (2)
    # + to_dict (2) + STATE (3) + _import_record (2); not __slots__, the
    # class lines or process_packet.
    assert bench("bench_table2_loc").count_loc(package) == (12, 17)


# -------------------------------------------------------------- make conform

CONFORM_MATRIX = [
    "conform",
    "conform --shards 2",
    "conform --offload",
    "conform --offload --shards 2",
    "conform --replay tests/corpus",
]


def test_make_conform_is_the_ci_matrix():
    recipe = re.search(
        r"^conform:\n((?:\t.*\n)+)", (ROOT / "Makefile").read_text(), re.M
    ).group(1)
    assert [
        line.strip().replace("$(PYTHON) -m repro.cli ", "")
        for line in recipe.splitlines()
    ] == CONFORM_MATRIX
    ci = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    assert "make conform" in ci
    # The one CLI conform run CI makes itself is the counterexample hunt.
    assert re.findall(r"repro\.cli conform\s+(--\w+)", ci) == ["--hunt"]
