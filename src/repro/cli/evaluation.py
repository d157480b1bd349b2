"""Evaluation: ``workloads``, ``check``, ``dse``, ``tables``, ``figures``
and ``report``."""

from __future__ import annotations

import sys

from . import _add_json, _emit_json


def _cmd_workloads(args):
    from ..workloads import END_TO_END, SINGLE_DOMAIN, get_workload

    print(f"{'name':15s} {'domain':7s} {'loc':>4s}  algorithm")
    for name in SINGLE_DOMAIN + END_TO_END:
        workload = get_workload(name)
        print(
            f"{workload.name:15s} {workload.domain:7s} "
            f"{workload.pmlang_loc:4d}  {workload.algorithm}"
        )
    return 0


def add_workloads(sub):
    sub.add_parser("workloads", help="list benchmark workloads").set_defaults(
        func=_cmd_workloads
    )


def _cmd_check(args):
    from ..workloads import END_TO_END, SINGLE_DOMAIN, get_workload

    names = args.names or list(SINGLE_DOMAIN + END_TO_END)
    failures = 0
    for name in names:
        workload = get_workload(name)
        check = workload.check_functional()
        status = "ok" if check.ok else "FAIL"
        print(f"{name:15s} {status:4s} max-rel-err={check.error:.2e} {check.detail}")
        failures += 0 if check.ok else 1
    return 1 if failures else 0


def add_check(sub):
    check = sub.add_parser("check", help="functionally validate workloads")
    check.add_argument("names", nargs="*", help="workload names (default: all)")
    check.set_defaults(func=_cmd_check)


def _cmd_dse(args):
    from ..eval.dse import explore, pareto, render
    from ..targets import ACCELERATORS

    cls = ACCELERATORS.get(args.accelerator)
    if cls is None:
        print(f"unknown accelerator {args.accelerator!r}; choose from "
              f"{sorted(ACCELERATORS)}", file=sys.stderr)
        return 2
    grid = {
        "throughput_scale": [float(v) for v in args.scales.split(",")],
        "frequency_hz": [float(v) * 1e6 for v in args.freqs_mhz.split(",")],
    }
    points = explore(args.workload, cls, grid)
    print(render(points, title=f"{args.accelerator} design space for {args.workload}"))
    frontier = pareto(points)
    print(f"\nPareto frontier: {len(frontier)} of {len(points)} points")
    return 0


def add_dse(sub):
    dse = sub.add_parser("dse", help="design-space exploration sweep")
    dse.add_argument("workload", help="workload name (e.g. ResNet-18)")
    dse.add_argument("accelerator", help="accelerator name (e.g. vta)")
    dse.add_argument("--scales", default="0.5,1,2", help="throughput scales")
    dse.add_argument("--freqs-mhz", default="100,150,300", help="frequencies")
    dse.set_defaults(func=_cmd_dse)


def _cmd_tables(args):
    from ..eval import all_tables

    for table in all_tables().values():
        print(table.render())
        print()
    return 0


def add_tables(sub):
    sub.add_parser("tables", help="regenerate Tables I-VI").set_defaults(
        func=_cmd_tables
    )


_FIGURES = ("fig7", "fig8", "fig9", "fig10a", "fig10b", "fig11a", "fig11b",
            "fig12", "fig13")


def _cmd_figures(args):
    from ..eval import Harness, all_figures
    from ..eval.claims import figures_payload

    harness = Harness()
    # The payload counts its own compiles' rule trips: build it first.
    payload = figures_payload(harness) if args.json else None
    figures = all_figures(harness)
    for identifier in args.ids or _FIGURES:
        figure = figures.get(identifier)
        if figure is None:
            print(f"unknown figure {identifier!r}; choose from {_FIGURES}",
                  file=sys.stderr)
            return 2
        print(figure.render())
        print()
    if payload is not None:
        _emit_json(payload, args.json)
    return 0


def add_figures(sub):
    figures = sub.add_parser("figures", help="regenerate evaluation figures")
    figures.add_argument("ids", nargs="*", help=f"subset of {_FIGURES}")
    _add_json(
        figures,
        "also write the payload the paper claims read, as JSON (- for stdout)",
    )
    figures.set_defaults(func=_cmd_figures)


def _cmd_report(args):
    from ..eval import full_report

    print(full_report(validate=args.validate))
    return 0


def add_report(sub):
    report = sub.add_parser("report", help="regenerate all tables and figures")
    report.add_argument(
        "--validate", action="store_true", help="also run functional checks"
    )
    report.set_defaults(func=_cmd_report)
