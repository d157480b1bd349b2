"""The paper's figure claims, written once and executed.

§V argues from Figures 7-13: who wins, by roughly what factor, where the
crossovers fall. Each statement is one row of :data:`CLAIMS`: the figure,
the quantity as EXPERIMENTS.md labels it, the paper's value, the numbers
EXPERIMENTS.md prints for it, and the predicate those numbers are held to
(``None``: reported, not asserted). Every row reads one JSON payload,
:func:`figures_payload` (``python -m repro figures --json PATH``), whose
committed copy is :data:`BASELINE`; :func:`failures` is every claim that
does not hold plus every deterministic leaf that drifted from it.
Updating the baseline is deliberate: commit the new payload in the
change that moved the numbers, with every moved leaf explained.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Optional

from ..driver import CompilerSession
from ..rewrite import REWRITE_STATS
from ..workloads import END_TO_END, SINGLE_DOMAIN
from .dse import explore_rules
from .figures import all_figures
from .harness import Harness

BASELINE = Path(__file__).resolve().parents[3] / "results/baselines/BENCH_figures.json"
#: OptionPricing and BrainStimul have crossings for fusion to erase;
#: MobileRobot anchors the single-domain case (no transfers at all).
FUSION_WORKLOADS = ("MobileRobot", "OptionPricing", "BrainStimul")
#: The one wall-clock leaf name; every other leaf is deterministic
#: cost-model output, which the drift check holds.
WALL_CLOCK = "compile_seconds"
#: Relative drift allowed on a numeric leaf.
TOLERANCE = 1e-9


def figures_payload(harness=None):
    """Every figure's rows and summary, per-workload modelled runtimes,
    per-rule rewrite trip counts, the MobileRobot rule-pipeline search and
    fusion's DMA-transfer deltas, as one JSON-ready dict.

    ``rule_trips`` are the nonzero changes of
    :data:`~repro.rewrite.REWRITE_STATS` over this call's compiles, so
    pass a *harness* that has compiled nothing yet.
    """
    harness = harness or Harness()
    before = REWRITE_STATS.to_dict()
    figures = {identifier: asdict(data) for identifier, data in all_figures(harness).items()}
    workloads = {
        run.name: {
            "domain": run.domain,
            "accel_seconds": run.accel.seconds,
            "cpu_seconds": run.cpu.seconds,
            "runtime_x": run.runtime_vs_cpu,
            "energy_x": run.energy_vs_cpu,
        }
        for run in harness.run_all(tuple(SINGLE_DOMAIN) + tuple(END_TO_END))
    }
    fused = Harness(session=CompilerSession(fusion=True))
    fusion = {
        name: fused.compiled(name)[1].fusion_report.to_dict() for name in FUSION_WORKLOADS
    }
    after = REWRITE_STATS.to_dict()
    return {
        "workloads": workloads,
        "figures": figures,
        "rule_trips": {
            f"rewrite.{key}": value - before.get(key, 0)
            for key, value in after.items()
            if value != before.get(key, 0)
        },
        "rule_search": {"MobileRobot": [p.to_dict() for p in explore_rules("MobileRobot")]},
        "fusion": fusion,
    }


# -- predicates over the measured numbers; each docstring states it ----------------


def _rule(doc, test):
    test.__doc__ = doc
    return test


def band(low, high, closed=False):
    return _rule(
        f"{low:g} < each {'<=' if closed else '<'} {high:g}",
        lambda vs: all(low < v and (v <= high if closed else v < high) for v in vs),
    )


def above(*floors):
    """Each value above its own floor, or all above the one given."""
    return _rule(
        f"each > {' / '.join(f'{floor:g}' for floor in floors)}",
        lambda vs: all(v > f for v, f in zip(vs, floors * len(vs) if len(floors) == 1 else floors)),
    )


def below(ceiling):
    return _rule(f"each < {ceiling:g}", lambda vs: all(v < ceiling for v in vs))


def equals(*counts):
    return _rule(f"== {' / '.join(map(str, counts))}", lambda vs: tuple(vs) == counts)


PAIRWISE = _rule(
    "first > second in each pair", lambda vs: all(a > b for a, b in zip(vs[::2], vs[1::2]))
)
#: Adding an accelerated kernel never costs more than 1%.
RISING = _rule(
    "each >= 0.99 x the one before", lambda vs: all(b >= 0.99 * a for a, b in zip(vs, vs[1:]))
)
UNDER_LAST = _rule("each < the last", lambda vs: all(v < vs[-1] for v in vs[:-1]))


# -- measurements: payload -> the numbers EXPERIMENTS.md prints, in order ----------


DL = ("ResNet-18", "MobileNet")
NOT_DL = tuple(name for name in SINGLE_DOMAIN if name not in DL)
FULL_BRAIN, FULL_OPTION = "FFT+LR+MPC", "LR+BLKS"


def _column(payload, figure, column):
    """``{row label: value}`` of one column of one figure."""
    data = payload["figures"][figure]
    index = data["columns"].index(column)
    return {row[0]: row[index] for row in data["rows"]}


def _summary(figure, key, scale=1.0):
    return lambda payload: (payload["figures"][figure]["summary"][key] * scale,)


def _cells(figure, column, *names):
    return lambda payload: tuple(_column(payload, figure, column)[n] for n in names)


def _span(figure, column, *names):
    """``(min, max)`` over *names*, or over every row when none are given."""

    def measure(payload):
        cells = _column(payload, figure, column)
        values = [cells[name] for name in names or cells]
        return min(values), max(values)

    return measure


def _least_ratio(top, bottom, *figures):
    """The smallest *top* / *bottom* over every row of *figures*."""

    def measure(payload):
        pairs = [(_column(payload, f, top), _column(payload, f, bottom)) for f in figures]
        return (min(tops[name] / bottoms[name] for tops, bottoms in pairs for name in tops),)

    return measure


def _full_beats_rest(figure, column):
    """``(best value of any other combo, the full combo's value)``."""

    def measure(payload):
        cells = _column(payload, figure, column)
        return max(v for combo, v in cells.items() if combo != FULL_BRAIN), cells[FULL_BRAIN]

    return measure


def _counts(*figures):
    return lambda payload: tuple(len(payload["figures"][f]["rows"]) for f in figures)


@dataclass(frozen=True)
class Claim:
    """One quantity of one figure, as EXPERIMENTS.md's table prints it."""

    figure: str
    quantity: str
    paper: str
    measured: Callable
    holds: Optional[Callable] = None

    def failure(self, payload):
        """Why this claim does not hold on *payload*, or None."""
        try:
            values = self.measured(payload)
        except (LookupError, ValueError) as exc:
            return f"{self.figure}: {self.quantity}: cannot be measured ({exc!r})"
        if self.holds is None or self.holds(values):
            return None
        shown = ", ".join(f"{value:.4g}" for value in values)
        return f"{self.figure}: {self.quantity}: {self.holds.__doc__} does not hold for ({shown})"


CLAIMS = (
    Claim("fig7", "geomean runtime improvement", "3.3-3.8x",
          _summary("fig7", "geomean_runtime_x"), band(1.5, 7.0)),
    Claim("fig7", "geomean energy improvement", "18.1-23.8x",
          _summary("fig7", "geomean_energy_x"), band(9.0, 50.0)),
    Claim("fig7", "DL runtime (VTA is low-power)", "~0.2x",
          _cells("fig7", "runtime_x", *DL), below(1.0)),
    Claim("fig7", "DL energy", "8.2-9.9x", _cells("fig7", "energy_x", *DL), above(1.0)),
    Claim("fig7", "every non-DL benchmark beats the CPU", "yes",
          _span("fig7", "runtime_x", *NOT_DL), above(1.0)),
    Claim("fig7", "energy gain exceeds runtime gain", "yes",
          _least_ratio("energy_x", "runtime_x", "fig7"), above(1.0)),
    Claim("fig7", "Hexacopter > MobileRobot", "9.9x vs 1.4x",
          _cells("fig7", "runtime_x", "Hexacopter", "MobileRobot"), PAIRWISE),
    Claim("fig7", "FFT leads DSP group", "20.7x vs DCT 2.0x",
          _cells("fig7", "runtime_x", "FFT-8192", "DCT-1024"), PAIRWISE),
    Claim("fig7", "BFS/SSSP band", "3.1-4.7x",
          _span("fig7", "runtime_x", "Twitter-BFS", "Wiki-BFS", "LiveJourn-SSP")),
    Claim("fig7", "LRMF band", "14.7-17.9x",
          _span("fig7", "runtime_x", "MovieL-20M", "MovieL-100K")),
    Claim("fig7", "K-means band", "2.1-3.1x",
          _span("fig7", "runtime_x", "DigitCluster", "ElecUse")),
    Claim("fig7", "benchmarks", "15", _counts("fig7"), equals(15)),
    Claim("fig8", "geomean PPW vs Titan Xp", "7.2x",
          _summary("fig8", "geomean_ppw_x_titan"), band(3.0, 25.0)),
    Claim("fig8", "geomean PPW vs Jetson", "1.7x",
          _summary("fig8", "geomean_ppw_x_jetson"), band(0.8, 8.0)),
    Claim("fig8", "geomean runtime vs Jetson", "1.2x",
          _summary("fig8", "geomean_runtime_x_jetson"), band(0.5, 3.0)),
    Claim("fig8", "Titan wins raw runtime on DCT/DL", "~0.0-0.1x",
          _span("fig8", "runtime_x_titan", "DCT-1024", "DCT-2048", *DL), below(0.5)),
    Claim("fig8", "small kernels can't utilise Titan", "RBT 2.4-3.2x",
          _cells("fig8", "runtime_x_titan", "MobileRobot", "Hexacopter"), above(1.0)),
    Claim("fig8", "accelerators win PPW vs Titan except DL", "yes",
          _span("fig8", "ppw_x_titan", *NOT_DL), above(1.0)),
    Claim("fig8", "benchmarks", "15", _counts("fig8"), equals(15)),
    Claim("fig9", "average", "83.9%",
          _summary("fig9", "average_percent"), band(70.0, 100.0, closed=True)),
    Claim("fig9", 'deep learning ~ optimal ("direct srDFG -> TVM node conversion")', "~100%",
          _cells("fig9", "percent_optimal", *DL), above(90.0, 85.0)),
    Claim("fig9", "robotics lowest band (type modifiers miss task-penalty semantics)", "low",
          _cells("fig9", "percent_optimal", "MobileRobot", "Hexacopter", "MobileNet"), UNDER_LAST),
    Claim("fig9", "DECO's balanced-DFG requirement costs %", "low",
          _cells("fig9", "percent_optimal", "DCT-1024")),
    Claim("fig9", "every benchmark above 40%", "—",
          _span("fig9", "percent_optimal"), band(40.0, 100.0, closed=True)),
    Claim("fig9", "benchmarks", "15", _counts("fig9"), equals(15)),
    # Not reproduced, so reported only: this row, the two BrainStimul Amdahl
    # rows below and Fig 11's BrainStimul PPW vs Jetson. RBT's MPC matrices
    # overflow RoboX's task memory and spill every invocation, so MPC on
    # RoboX loses to the Xeon (EXPERIMENTS.md, the Figure 10 note).
    Claim("fig10", "BrainStimul full vs best single kernel", "1.85x",
          _summary("fig10a", "full_vs_best_single_x")),
    Claim("fig10", "OptionPricing full vs best single", "2.06x",
          _summary("fig10b", "full_vs_best_single_x")),
    Claim("fig10", "BrainStimul comm runtime overhead", "23.4%",
          _summary("fig10a", "comm_runtime_frac", 100.0), band(0.0, 50.0)),
    Claim("fig10", "OptionPricing comm runtime overhead", "17.0%",
          _summary("fig10b", "comm_runtime_frac", 100.0), band(0.0, 50.0)),
    Claim("fig10", "BrainStimul comm energy overhead", "21.8%",
          _summary("fig10a", "comm_energy_frac", 100.0)),
    Claim("fig10", "OptionPricing comm energy overhead", "12.4%",
          _summary("fig10b", "comm_energy_frac", 100.0)),
    Claim("fig10", "every added kernel helps (Amdahl)", "yes",
          _cells("fig10a", "runtime_x", "FFT", "FFT+MPC", FULL_BRAIN)),
    Claim("fig10", "accelerating everything is fastest", "yes",
          _full_beats_rest("fig10a", "runtime_x")),
    Claim("fig10", "HyperStreams (BLKS) beats the CPU", "yes",
          _cells("fig10b", "runtime_x", "BLKS", FULL_OPTION), above(1.0)),
    Claim("fig10", "fusion removes DMA transfers", "—", lambda payload: tuple(
        payload["fusion"][name][f"dma_transfers_{when}"]
        for name in ("BrainStimul", "OptionPricing") for when in ("before", "after")
    ), PAIRWISE),
    Claim("fig10", "acceleration combos", "7 / 3", _counts("fig10a", "fig10b"), equals(7, 3)),
    Claim("fig11", "BrainStimul full runtime vs Titan", "1.2x",
          _cells("fig11a", "runtime_x_titan", FULL_BRAIN)),
    Claim("fig11", "BrainStimul full PPW vs Titan", "8.3x",
          _cells("fig11a", "ppw_x_titan", FULL_BRAIN), above(2.0)),
    Claim("fig11", "BrainStimul full PPW vs Jetson", "2.8x",
          _cells("fig11a", "ppw_x_jetson", FULL_BRAIN)),
    Claim("fig11", "OptionPricing full PPW vs Titan", "9.2x",
          _cells("fig11b", "ppw_x_titan", FULL_OPTION), above(2.0)),
    Claim("fig11", "OptionPricing full PPW vs Jetson", "1.9x",
          _cells("fig11b", "ppw_x_jetson", FULL_OPTION), above(0.8)),
    Claim("fig11", "accelerating everything has the best PPW vs Titan", "yes",
          _full_beats_rest("fig11a", "ppw_x_titan"), RISING),
    Claim("fig11", "PPW gain exceeds runtime gain vs Titan", "yes",
          _least_ratio("ppw_x_titan", "runtime_x_titan", "fig11a", "fig11b"), above(1.0)),
    Claim("fig11", "acceleration combos", "7 / 3", _counts("fig11a", "fig11b"), equals(7, 3)),
    Claim("fig12", "BrainStimul", "76.7%",
          _cells("fig12", "percent_optimal", "BrainStimul"), band(60.0, 100.0, closed=True)),
    Claim("fig12", "OptionPricing", "76.9%",
          _cells("fig12", "percent_optimal", "OptionPricing"), band(60.0, 100.0, closed=True)),
    Claim("fig12", 'average ("automation overhead is a fair bargain")', "~77%",
          _summary("fig12", "average_percent"), band(65.0, 100.0, closed=True)),
    Claim("fig12", "applications", "2", _counts("fig12"), equals(2)),
    Claim("fig13", "K-means LOC reduction", "3.3x", _cells("fig13", "loc_reduction_x", "Kmeans")),
    Claim("fig13", "DCT LOC reduction", "1.8x", _cells("fig13", "loc_reduction_x", "DCT")),
    Claim("fig13", "average LOC reduction", "2.5x",
          _summary("fig13", "average_loc_x"), band(1.5, 4.0)),
    Claim("fig13", "average time reduction", "1.9x",
          _summary("fig13", "average_time_x"), band(1.0, 3.0)),
    Claim("fig13", "time reduction trails LOC reduction", "yes",
          _least_ratio("loc_reduction_x", "time_reduction_x", "fig13"), above(1.0)),
    Claim("fig13", "algorithms", "2", _counts("fig13"), equals(2)),
)


# -- drift against the committed baseline --------------------------------------------


def leaves(value, path=""):
    """Yield ``(path, leaf)`` for every scalar leaf of a JSON tree."""
    if isinstance(value, dict):
        for key in sorted(value):
            yield from leaves(value[key], f"{path}/{key}")
    elif isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            yield from leaves(item, f"{path}[{index}]")
    else:
        yield path, value


def drift(payload, baseline):
    """Every deterministic leaf of *baseline* that *payload* lost or moved:
    a number by more than :data:`TOLERANCE` relative, anything else at all."""
    current, found = dict(leaves(payload)), []
    for path, expected in leaves(baseline):
        if WALL_CLOCK in path:
            continue
        if path not in current:
            found.append(f"{path} is missing")
            continue
        got = current[path]
        if {type(expected), type(got)} <= {int, float}:
            moved = abs(got - expected) > TOLERANCE * max(abs(expected), abs(got))
        else:
            moved = got != expected
        if moved:
            found.append(f"{path} drifted: baseline {expected!r}, now {got!r}")
    return found


def failures(payload, baseline):
    """Every claim that does not hold on *payload*, then every leaf that
    drifted from *baseline*; empty when the figures reproduce."""
    broken = [claim.failure(payload) for claim in CLAIMS]
    return [failure for failure in broken if failure] + drift(payload, baseline)
