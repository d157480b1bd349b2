"""The docs name only what exists.

Checks over README.md, DESIGN.md, EXPERIMENTS.md, docs/ARCHITECTURE.md
and the verify skill — ROADMAP's "docs that are executed":

* every dotted ``repro.<module>[.<name>]`` path imports,
* every ``--flag`` in a backticked span or on a ``python -m repro <cmd>``
  command line parses: on a line that names a subcommand it must be
  that subcommand's, a bare one must be some subcommand's (spans naming
  another script, ``*.py`` or ``pytest``, are not ours to check),
* every backticked ``snake_case`` / ``CamelCase`` identifier is a word
  somewhere in the code (src, benchmarks, examples, the other tests) —
  which is what turns a deleted class or method still described in the
  prose red,
* every ``selfcheck <row>`` in a backticked span or on a command line
  names a row of the smoke table (:mod:`repro.selfcheck`), and every
  ``-m repro`` argv in that table parses,
* every README sentence claiming "bit-identical" / "verified by" names
  the row or the ``tests/...::test_...`` that checks it.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import re
from pathlib import Path

import pytest

from repro.cli import build_parser
from repro.selfcheck import TABLE

ROOT = Path(__file__).resolve().parent.parent
DOCS = (
    "README.md", "DESIGN.md", "EXPERIMENTS.md", "docs/ARCHITECTURE.md",
    ".claude/skills/verify/SKILL.md",
)
ROWS = {row.name for row in TABLE}


@functools.cache
def _flags():
    """``{subcommand: its option strings}`` of ``python -m repro``."""
    subcommands = next(
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ).choices
    return {
        name: {flag for action in parser._actions for flag in action.option_strings}
        for name, parser in subcommands.items()
    }


@functools.cache
def _code_words():
    """Every identifier-shaped word in the code, this file excepted."""
    words = set()
    for tree in ("src/repro", "benchmarks", "examples", "tests"):
        for path in (ROOT / tree).rglob("*.py"):
            if path != Path(__file__).resolve():
                words.update(re.findall(r"[A-Za-z_]\w*", path.read_text()))
    return words


def _resolves(dotted):
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            found = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for name in parts[cut:]:
                found = getattr(found, name)
        except AttributeError:
            return False
        return True
    return False


def _flag_problems(line):
    flags = re.findall(r"(?<![\w-])--[a-z][\w-]*", line)
    command = re.search(r"\brepro\s+([a-z][\w-]*)", line)
    if command and command.group(1) in _flags():
        allowed, owner = _flags()[command.group(1)], f"repro {command.group(1)}"
    elif ".py" in line or "pytest" in line:
        return []
    else:
        allowed, owner = set().union(*_flags().values()), "any repro subcommand"
    return [f"{flag} is not a flag of {owner}" for flag in flags if flag not in allowed]


def _rows_named(text):
    """The words after ``selfcheck`` in *text* (``[row ...]`` and
    ``<row>`` are placeholders, not words)."""
    named = re.search(r"\bselfcheck((?:\s+[a-z][\w-]*)+)", text)
    return named.group(1).split() if named else []


def _row_problems(line):
    return [
        f"{name} is not a selfcheck row"
        for name in _rows_named(line) if name not in ROWS
    ]


def _checked_by(sentence):
    """Does *sentence* name a selfcheck row or a test that exists?"""
    for path, test in re.findall(
        r"\b(tests/\w+\.py)(?:::\w+)*::(test_\w+)", sentence
    ):
        source = ROOT / path
        if source.exists() and re.search(rf"def {test}\b", source.read_text()):
            return True
    rows = _rows_named(sentence)
    return bool(rows) and set(rows) <= ROWS


def unchecked_claims(text):
    """Sentences that claim a check ("bit-identical", "verified by")
    and name neither a row nor a test."""
    sentences = re.split(r"(?<=[.:])\s+(?=[A-Z])|\n\s*\n", text)
    return [
        " ".join(sentence.split())
        for sentence in sentences
        if re.search(r"bit-identical|verified by", sentence)
        and not _checked_by(sentence)
    ]


def problems(text):
    """Everything *text* names that does not exist, as readable strings."""
    found = [
        f"{dotted} does not import"
        for dotted in sorted(set(re.findall(r"\brepro(?:\.[A-Za-z_]\w*)+", text)))
        if not _resolves(dotted)
    ]
    spans = re.findall(r"`([^`\n]+)`", text)
    # Code-block command lines, with their backslash continuations joined.
    commands = re.findall(
        r"^\s+(?:\w+=\S+\s+)*python -m repro\b.*$",
        text.replace("\\\n", " "),
        re.MULTILINE,
    )
    for line in spans + commands:
        found += _flag_problems(line) + _row_problems(line)
    for span in spans:
        if not re.fullmatch(r"[\w.]+(\(.*\))?", span):
            continue
        for word in re.findall(r"[A-Za-z_]\w*", span):
            named = "_" in word.strip("_") or re.search(r"[a-z][A-Z]", word)
            if named and word not in _code_words():
                found.append(f"`{word}` is nowhere in the code")
    return sorted(set(found))


@pytest.mark.parametrize("doc", DOCS)
def test_doc_names_only_what_exists(doc):
    assert problems((ROOT / doc).read_text()) == []


def test_readme_claims_name_their_check():
    assert unchecked_claims((ROOT / "README.md").read_text()) == []


@pytest.mark.parametrize(
    "row", [row for row in TABLE if row.argv[:2] == ("-m", "repro")],
    ids=lambda row: row.name,
)
def test_table_argv_parses(row):
    build_parser().parse_args(row.argv[2:])


def test_the_check_goes_red():
    # The two names PR 23's doc scrub had to remove from ARCHITECTURE.md,
    # spelled in pieces so this file is not where they are found.
    gone_class, gone_method = "Specialization" + "Key", "bucket_" + "summary"
    text = (
        f"filed under its `{gone_class}` (`{gone_method}`); see "
        "`repro.driver.cache.BUCKET` and `repro serve --codegen`, or "
        "`--no-such-flag`; `benchmarks/x.py --whatever` is not ours; run "
        "`python -m repro selfcheck rewrite serve-thred`, not `selfcheck <row>`"
    )
    assert problems(text) == sorted([
        f"`{gone_class}` is nowhere in the code",
        f"`{gone_method}` is nowhere in the code",
        "repro.driver.cache.BUCKET does not import",
        "--codegen is not a flag of repro serve",
        "--no-such-flag is not a flag of any repro subcommand",
        "serve-thred is not a selfcheck row",
    ])
    claim = "Both pools are bit-identical to a serial run (`repro selfcheck {}`)."
    assert unchecked_claims(claim.format("serve-thread serve-process")) == []
    assert unchecked_claims(claim.format("serve-thred")) == [
        claim.format("serve-thred")
    ]
    assert unchecked_claims(
        "Fused runs stay bit-identical (tests/test_docs.py::test_no_such_test)."
    ) != []
