"""Regeneration of every evaluation figure (Figs 7-13 of the paper).

Each ``figure*`` function returns structured rows plus a ``render``
helper that prints the same series the paper plots. The paper's claims
about them are the rows of :data:`repro.eval.claims.CLAIMS`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..workloads import END_TO_END, SINGLE_DOMAIN
from ..util import geomean
from .harness import Harness


@dataclass
class FigureData:
    """One reproduced figure: labelled rows of named series."""

    figure: str
    caption: str
    columns: Tuple[str, ...]
    rows: List[tuple] = field(default_factory=list)
    summary: Dict[str, float] = field(default_factory=dict)

    def render(self):
        widths = [
            max(len(str(column)), *(len(_fmt(row[i])) for row in self.rows))
            if self.rows
            else len(str(column))
            for i, column in enumerate(self.columns)
        ]
        lines = [f"{self.figure}: {self.caption}"]
        header = "  ".join(str(c).ljust(w) for c, w in zip(self.columns, widths))
        lines.append(header)
        lines.append("-" * len(header))
        for row in self.rows:
            lines.append(
                "  ".join(_fmt(value).ljust(w) for value, w in zip(row, widths))
            )
        if self.summary:
            summary = ", ".join(f"{k}={_fmt(v)}" for k, v in self.summary.items())
            lines.append(f"summary: {summary}")
        return "\n".join(lines)

    def render_bars(self, column=None, width=40, log=False):
        """ASCII bar chart over one numeric column (default: the first)."""
        if column is None:
            column = next(
                index
                for index, _ in enumerate(self.columns)
                if self.rows and isinstance(self.rows[0][index], float)
            )
        return _bars(self, column, width=width, log=log)


def _fmt(value):
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def _bars(data, column, width=40, log=False):
    """ASCII bar chart of one numeric column (a terminal 'figure')."""
    import math

    values = [row[column] for row in data.rows]
    if not values:
        return ""

    def magnitude(value):
        if not log:
            return max(0.0, float(value))
        return math.log10(max(float(value), 1e-3)) - math.log10(1e-3)

    peak = max(magnitude(v) for v in values) or 1.0
    label_width = max(len(str(row[0])) for row in data.rows)
    lines = [f"{data.figure} — {data.columns[column]}" + (" (log scale)" if log else "")]
    for row, value in zip(data.rows, values):
        bar = "#" * max(1, int(round(width * magnitude(value) / peak)))
        lines.append(f"{str(row[0]).ljust(label_width)} |{bar} {_fmt(value)}")
    return "\n".join(lines)


def figure7(harness=None):
    """Fig 7: runtime and energy improvement of PolyMath over the CPU."""
    harness = harness or Harness()
    runs = harness.run_all(SINGLE_DOMAIN)
    data = FigureData(
        figure="Figure 7",
        caption="Runtime and Energy improvement of PolyMath over CPU",
        columns=("benchmark", "domain", "runtime_x", "energy_x"),
    )
    for run in runs:
        data.rows.append(
            (run.name, run.domain, run.runtime_vs_cpu, run.energy_vs_cpu)
        )
    data.summary = {
        "geomean_runtime_x": geomean([run.runtime_vs_cpu for run in runs]),
        "geomean_energy_x": geomean([run.energy_vs_cpu for run in runs]),
    }
    return data


def figure8(harness=None):
    """Fig 8: runtime and perf-per-watt improvement over Titan Xp/Jetson."""
    harness = harness or Harness()
    runs = harness.run_all(SINGLE_DOMAIN)
    data = FigureData(
        figure="Figure 8",
        caption="Runtime and Performance-per-Watt improvement over GPUs",
        columns=(
            "benchmark",
            "runtime_x_titan",
            "ppw_x_titan",
            "runtime_x_jetson",
            "ppw_x_jetson",
        ),
    )
    for run in runs:
        data.rows.append(
            (
                run.name,
                run.runtime_vs(run.titan),
                run.ppw_vs(run.titan),
                run.runtime_vs(run.jetson),
                run.ppw_vs(run.jetson),
            )
        )
    data.summary = {
        "geomean_runtime_x_titan": geomean([r.runtime_vs(r.titan) for r in runs]),
        "geomean_ppw_x_titan": geomean([r.ppw_vs(r.titan) for r in runs]),
        "geomean_runtime_x_jetson": geomean([r.runtime_vs(r.jetson) for r in runs]),
        "geomean_ppw_x_jetson": geomean([r.ppw_vs(r.jetson) for r in runs]),
    }
    return data


def figure9(harness=None):
    """Fig 9: percent of hand-optimised (native-stack) performance."""
    harness = harness or Harness()
    runs = harness.run_all(SINGLE_DOMAIN)
    data = FigureData(
        figure="Figure 9",
        caption="Percent of optimal runtime vs hand-tuned implementations",
        columns=("benchmark", "domain", "percent_optimal"),
    )
    for run in runs:
        data.rows.append((run.name, run.domain, run.percent_optimal))
    data.summary = {
        "average_percent": sum(run.percent_optimal for run in runs) / len(runs)
    }
    return data


def _end_to_end_figure(name, baseline_key, harness, figure, caption, gpu=False):
    harness = harness or Harness()
    combos, baselines = harness.end_to_end(name)
    columns = ["combo", "runtime_x", "energy_x"]
    if gpu:
        columns = [
            "combo",
            "runtime_x_titan",
            "ppw_x_titan",
            "runtime_x_jetson",
            "ppw_x_jetson",
        ]
    data = FigureData(
        figure=figure, caption=caption, columns=tuple(columns)
    )
    ordered = sorted(combos.items(), key=lambda item: (len(item[0]), item[0]))
    for label, report in ordered:
        tag = "+".join(label)
        if gpu:
            data.rows.append(
                (
                    tag,
                    baselines["titan"].seconds / report.total.seconds,
                    baselines["titan"].energy_j / report.total.energy_j,
                    baselines["jetson"].seconds / report.total.seconds,
                    baselines["jetson"].energy_j / report.total.energy_j,
                )
            )
        else:
            data.rows.append(
                (
                    tag,
                    baselines["cpu"].seconds / report.total.seconds,
                    baselines["cpu"].energy_j / report.total.energy_j,
                )
            )
    full = ordered[-1][1]
    best_single = max(
        (report for label, report in ordered if len(label) == 1),
        key=lambda report: 1.0 / report.total.seconds,
    )
    data.summary = {
        "full_vs_best_single_x": best_single.total.seconds / full.total.seconds,
        "comm_runtime_frac": full.communication_fraction,
        "comm_energy_frac": (
            full.communication.energy_j / full.total.energy_j
            if full.total.energy_j > 0
            else 0.0
        ),
    }
    return data


def figure10(harness=None):
    """Fig 10: end-to-end improvement over CPU per acceleration combo."""
    harness = harness or Harness()
    return (
        _end_to_end_figure(
            "BrainStimul",
            "cpu",
            harness,
            "Figure 10a",
            "BrainStimul: runtime/energy over CPU per accelerated combo",
        ),
        _end_to_end_figure(
            "OptionPricing",
            "cpu",
            harness,
            "Figure 10b",
            "OptionPricing: runtime/energy over CPU per accelerated combo",
        ),
    )


def figure11(harness=None):
    """Fig 11: end-to-end improvement over both GPUs per combo."""
    harness = harness or Harness()
    return (
        _end_to_end_figure(
            "BrainStimul",
            "gpu",
            harness,
            "Figure 11a",
            "BrainStimul: runtime/PPW over GPUs per accelerated combo",
            gpu=True,
        ),
        _end_to_end_figure(
            "OptionPricing",
            "gpu",
            harness,
            "Figure 11b",
            "OptionPricing: runtime/PPW over GPUs per accelerated combo",
            gpu=True,
        ),
    )


def figure12(harness=None):
    """Fig 12: end-to-end percent of optimal (hand-tuned pipelines)."""
    harness = harness or Harness()
    data = FigureData(
        figure="Figure 12",
        caption="Percent of optimal performance for end-to-end applications",
        columns=("application", "combo", "percent_optimal"),
    )
    percents = []
    for name in END_TO_END:
        combos, baselines = harness.end_to_end(name)
        full = combos[max(combos, key=len)]
        percent = 100.0 * min(
            1.0, baselines["expert"].seconds / full.total.seconds
        )
        percents.append(percent)
        data.rows.append((name, "all kernels", percent))
    data.summary = {"average_percent": sum(percents) / len(percents)}
    return data


def figure13():
    """Fig 13: user-study LOC and coding-time reduction (see repro.study)."""
    from ..study.userstudy import run_user_study

    study = run_user_study()
    data = FigureData(
        figure="Figure 13",
        caption="PMLang vs Python: LOC and coding-time reduction (user study model)",
        columns=("algorithm", "loc_reduction_x", "time_reduction_x"),
    )
    for row in study.rows:
        data.rows.append((row.algorithm, row.loc_reduction, row.time_reduction))
    data.summary = {
        "average_loc_x": study.average_loc_reduction,
        "average_time_x": study.average_time_reduction,
    }
    return data


def all_figures(harness=None, include_validation=False):
    """Regenerate every figure; returns {figure id: FigureData}."""
    harness = harness or Harness(validate=include_validation)
    fig10a, fig10b = figure10(harness)
    fig11a, fig11b = figure11(harness)
    return {
        "fig7": figure7(harness),
        "fig8": figure8(harness),
        "fig9": figure9(harness),
        "fig10a": fig10a,
        "fig10b": fig10b,
        "fig11a": fig11a,
        "fig11b": fig11b,
        "fig12": figure12(harness),
        "fig13": figure13(),
    }
