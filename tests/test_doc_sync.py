"""Every command and repo path the docs name exists.

README.md, DESIGN.md, EXPERIMENTS.md, ``docs/*.md``, the verify skill
and the usage lines of ``src/repro/cli.py``'s docstring name ``make``
targets, ``repro`` / ``python -m repro.cli`` subcommands with their
flags, and repo paths (``src/…``, ``tests/…``,
``benchmarks/…``, ``examples/…``, ``docs/…``, and module paths such as
``repro/obs/audit.py`` or ``controller/move.py``). Commands are read
from code spans and fenced blocks, paths from those and link targets;
a rename or a deletion that leaves a doc behind fails here.
"""

from __future__ import annotations

import argparse
import pathlib
import re
from typing import Dict, Iterator, List, Tuple

import pytest

import repro.cli
from repro.cli import _build_parser

ROOT = pathlib.Path(__file__).resolve().parent.parent
DOCS = [
    path for path in (
        [ROOT / "README.md", ROOT / "DESIGN.md", ROOT / "EXPERIMENTS.md"]
        + sorted((ROOT / "docs").glob("*.md"))
        + [ROOT / ".claude" / "skills" / "verify" / "SKILL.md"]
    )
    if path.exists()
]

FENCED = re.compile(r"^[ \t]*```.*?^[ \t]*```", re.M | re.S)
INLINE = re.compile(r"`([^`]+)`")
LINK = re.compile(r"\]\(([^)#\s]+)")
MAKE = re.compile(r"(?:^|[\s;(])make\s+([a-z][\w-]*)")
CLI = re.compile(
    r"(?:python -m repro\.cli|(?<!from )(?<![\w./-])repro)\s+"
    r"([a-z][\w-]*)([^\n`|;#]*)"
)
FLAG = re.compile(r"(?<![\w-])(--[a-z][\w-]*)")
PACKAGES = sorted(
    p.name for p in (ROOT / "src" / "repro").iterdir()
    if (p / "__init__.py").exists()
)
PATH = re.compile(
    r"(?<![\w./-])((?:src|tests|benchmarks|examples|docs|repro|%s)/"
    r"[\w./*-]*[\w*])" % "|".join(PACKAGES)
)


def _code(text: str) -> List[str]:
    """Each fenced-block line and each inline code span."""
    spans = [
        line for block in FENCED.findall(text)
        for line in block.splitlines()[1:-1]
    ]
    return spans + INLINE.findall(FENCED.sub("", text))


def _usage_lines() -> List[str]:
    """The indented block after ``Usage::`` in the CLI's docstring."""
    block = repro.cli.__doc__.split("Usage::", 1)[1].split("\n\n")[1]
    return [line.strip() for line in block.splitlines()]


def _mentions() -> Iterator[Tuple[str, List[str], List[str]]]:
    for doc in DOCS:
        text = doc.read_text()
        yield (str(doc.relative_to(ROOT)), _code(text), LINK.findall(text))
    yield ("src/repro/cli.py", _usage_lines(), [])


def _resolve(path: str) -> bool:
    head = path.split("/", 1)[0]
    base = ROOT
    if head == "repro":
        base = ROOT / "src"
    elif head in PACKAGES:
        base = ROOT / "src" / "repro"
    if "*" in path:
        # A glob may name generated files: its directory must exist.
        return (base / path.split("*", 1)[0]).parent.is_dir()
    return (base / path).exists()


def _subcommands() -> Dict[str, argparse.ArgumentParser]:
    parser = _build_parser()
    return next(
        action.choices for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    )


def test_docs_are_scanned():
    names = [doc.name for doc in DOCS]
    assert {"README.md", "DESIGN.md", "EXPERIMENTS.md", "api.md"} <= set(names)
    usage = _usage_lines()
    assert usage[0].startswith("python -m repro.cli run")
    assert all(line.startswith("python -m repro.cli ") for line in usage)


def test_every_make_target_named_exists():
    targets = set(re.findall(
        r"^([\w-]+):", (ROOT / "Makefile").read_text(), re.M
    ))
    stale = [
        "%s: make %s" % (doc, target)
        for doc, spans, _links in _mentions()
        for span in spans for target in MAKE.findall(span)
        if target not in targets
    ]
    assert not stale, "\n".join(stale)


def test_every_cli_subcommand_and_flag_named_exists():
    subcommands = _subcommands()
    stale = []
    for doc, spans, _links in _mentions():
        for span in spans:
            for name, rest in CLI.findall(span):
                if name not in subcommands:
                    stale.append("%s: repro %s" % (doc, name))
                    continue
                options = subcommands[name]._option_string_actions
                stale.extend(
                    "%s: repro %s %s" % (doc, name, flag)
                    for flag in FLAG.findall(rest) if flag not in options
                )
    assert not stale, "\n".join(stale)


def test_every_repo_path_named_exists():
    stale = sorted({
        "%s: %s" % (doc, path)
        for doc, spans, links in _mentions()
        for text in spans + links
        for path in PATH.findall(text)
        if not _resolve(path)
    })
    assert not stale, "\n".join(stale)


def test_experiments_quotes_every_table2_row():
    """EXPERIMENTS.md's Table 2 section quotes each NF's ``added/total``
    and increase from ``benchmarks/results/table2_loc.txt``, and the
    southbound total."""
    text = (ROOT / "EXPERIMENTS.md").read_text()
    section = text.split("## Table 2", 1)[1].split("\n## ", 1)[0]
    section = " ".join(section.split())  # a quote may wrap
    table = (ROOT / "benchmarks" / "results" / "table2_loc.txt").read_text()
    rows = [re.split(r"\s{2,}", line.strip())
            for line in table.split("-\n", 1)[1].splitlines() if line.strip()]
    assert len(rows) == 4
    missing = [
        quote for name, added, total, increase in rows
        for quote in ("%s/%s" % (added, total), increase.replace("%", " %"))
        if quote not in section
    ]
    total = "%d in total" % sum(int(row[1]) for row in rows)
    missing += [total] if total not in section else []
    assert not missing, missing


@pytest.mark.parametrize("text,found", [
    ("python -m repro.cli run --faults S", [("run", " --faults S")]),
    ("repro conform --shards 2", [("conform", " --shards 2")]),
    ("from repro import Deployment", []),
    ("src/repro/cli.py", []),
])
def test_cli_pattern(text, found):
    assert CLI.findall(text) == found
