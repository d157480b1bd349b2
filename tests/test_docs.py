"""The docs name only what exists.

Three checks over README.md, DESIGN.md, EXPERIMENTS.md and
docs/ARCHITECTURE.md — the first slice of ROADMAP's "docs that are
executed":

* every dotted ``repro.<module>[.<name>]`` path imports,
* every ``--flag`` in a backticked span or on a ``python -m repro <cmd>``
  command line parses: on a line that names a subcommand it must be
  that subcommand's, a bare one must be some subcommand's (spans naming
  another script, ``*.py`` or ``pytest``, are not ours to check),
* every backticked ``snake_case`` / ``CamelCase`` identifier is a word
  somewhere in the code (src, benchmarks, examples, the other tests) —
  which is what turns a deleted class or method still described in the
  prose red.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import re
from pathlib import Path

import pytest

from repro.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md", "docs/ARCHITECTURE.md")


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
        found += _flag_problems(line)
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


def test_the_check_goes_red():
    # The two names PR 23's doc scrub had to remove from ARCHITECTURE.md,
    # spelled in pieces so this file is not where they are found.
    gone_class, gone_method = "Specialization" + "Key", "bucket_" + "summary"
    text = (
        f"filed under its `{gone_class}` (`{gone_method}`); see "
        "`repro.driver.cache.BUCKET` and `repro serve --codegen`, or "
        "`--no-such-flag`; `benchmarks/x.py --whatever` is not ours"
    )
    assert problems(text) == sorted([
        f"`{gone_class}` is nowhere in the code",
        f"`{gone_method}` is nowhere in the code",
        "repro.driver.cache.BUCKET does not import",
        "--codegen is not a flag of repro serve",
        "--no-such-flag is not a flag of any repro subcommand",
    ])
