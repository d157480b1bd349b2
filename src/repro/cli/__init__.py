"""Command-line interface for the PolyMath reproduction.

Usage (``python -m repro <command>``)::

    python -m repro workloads                 # list Table III/IV workloads
    python -m repro check MobileRobot        # functional validation
    python -m repro compile prog.pm --domain RBT   # show accelerator IR
    python -m repro stats prog.pm            # stage timings + cache report
    python -m repro show prog.pm [--dot]     # srDFG (text or GraphViz)
    python -m repro tables                   # Tables I-VI
    python -m repro figures [fig7 ...] [--json PATH]  # figures (+ claims payload)
    python -m repro report                   # everything
    python -m repro rewrite --explain         # which rewrite rules fired where
    python -m repro chaos BrainStimul --inject crash@DA   # fault-tolerant runtime
    python -m repro serve --requests 32 --workers 4       # concurrent service
    python -m repro fuzz --programs 50 --seed 7           # differential fuzzing
    python -m repro codegen --compare --json -             # kernel codegen tier
    python -m repro selfcheck [row ...]       # the smoke table CI runs

Each command family is one module that declares its subparsers beside
their handlers (:mod:`.tools`, :mod:`.evaluation`, :mod:`.serving`,
:mod:`.verify`); this module holds what they share.
"""

from __future__ import annotations

import argparse
import sys


def _session():
    """A CompilerSession over the Table V default accelerators."""
    from ..driver import CompilerSession
    from ..targets import default_accelerators

    return CompilerSession(default_accelerators())


def _load_source(path):
    if path == "-":
        return sys.stdin.read()
    with open(path) as handle:
        return handle.read()


def _compile_source(args):
    """The Application ``args.source`` compiles to under ``args.domain``."""
    return _session().compile(_load_source(args.source), domain=args.domain)


def _emit_json(payload, destination):
    """Write *payload* as JSON to ``-`` (stdout) or a path, creating a
    missing parent directory."""
    import json
    import os

    text = json.dumps(payload, indent=2, sort_keys=True)
    if destination == "-":
        print(text)
    else:
        os.makedirs(os.path.dirname(destination) or ".", exist_ok=True)
        with open(destination, "w") as handle:
            handle.write(text + "\n")
        print(f"wrote JSON report to {destination}")


def _mismatches(reference, result):
    """``"output <name>"`` / ``"state <name>"`` for every entry of two
    ExecutionResults that is not bit-identical: missing on one side, or a
    different :func:`~repro.serve.request.result_signature` (dtype, shape
    and exact bytes, so -0.0 differs from 0.0 and a NaN equals itself)."""
    from ..serve.request import result_signature

    found = []
    for kind, ref, got in (
        ("output", reference.outputs, result.outputs),
        ("state", reference.state, result.state),
    ):
        for name in sorted(set(ref) | set(got)):
            if (
                name not in ref or name not in got
                or result_signature({name: ref[name]})
                != result_signature({name: got[name]})
            ):
                found.append(f"{kind} {name}")
    return found


def _add_source(parser, help="PMLang file path (- for stdin)", **source):
    """The ``source`` positional (``-`` reads stdin) and its ``--domain``."""
    parser.add_argument("source", help=help, **source)
    parser.add_argument("--domain", default=None, help="top-level domain tag")


def _add_precision(parser, help="execution-plan float precision (default f64)"):
    parser.add_argument(
        "--precision", default="f64", choices=("f64", "f32"), help=help
    )


def _add_json(parser, help, default=None):
    parser.add_argument("--json", default=default, metavar="PATH", help=help)


def build_parser():
    from . import evaluation, serving, tools, verify

    parser = argparse.ArgumentParser(
        prog="repro",
        description="PolyMath reproduction: cross-domain acceleration stack",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # In the order ``repro --help`` lists them.
    for add in (
        evaluation.add_workloads, evaluation.add_check, tools.add_compile,
        tools.add_stats, serving.add_serve, verify.add_selfcheck,
        tools.add_rewrite, tools.add_profile, evaluation.add_dse,
        tools.add_save_ir, tools.add_show, evaluation.add_tables,
        evaluation.add_figures, evaluation.add_report, verify.add_chaos,
        verify.add_fuzz, verify.add_codegen,
    ):
        add(sub)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)
