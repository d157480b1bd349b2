"""The differential fuzzing campaign driver.

``run_fuzz`` generates N seeded programs, pushes each through the five
oracles (see :mod:`repro.fuzz.oracles`), minimizes any divergence down
to a small reproducer, and folds everything into a :class:`FuzzReport` —
the machine-readable validation matrix (program seed x oracle x
precision x fault campaign -> pass/fail, availability, recovery
overhead) that ``repro fuzz`` writes to ``results/BENCH_resilience.json``
and CI uploads as an artifact.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..srdfg.plan import POINTS_STATS
from .generator import GenConfig, generate_program
from .minimize import minimize_program, reproducer_size
from .oracles import ORACLES, OracleContext, run_program

__all__ = ["Divergence", "FuzzReport", "run_fuzz"]


@dataclass
class Divergence:
    """One confirmed disagreement, with its minimized reproducer."""

    seed: int
    oracle: str
    precision: str
    campaign: str = ""
    detail: str = ""
    source: str = ""
    minimized_source: Optional[str] = None
    minimized_statements: Optional[int] = None
    minimized_nodes: Optional[int] = None

    def to_dict(self):
        payload = {
            "seed": self.seed,
            "oracle": self.oracle,
            "precision": self.precision,
            "campaign": self.campaign,
            "detail": self.detail,
            "source": self.source,
        }
        if self.minimized_source is not None:
            payload["minimized_source"] = self.minimized_source
            payload["minimized_statements"] = self.minimized_statements
            payload["minimized_nodes"] = self.minimized_nodes
        return payload


@dataclass
class FuzzReport:
    """Aggregate result of one fuzz run."""

    programs: int
    seed: int
    campaigns: str
    precisions: Tuple[str, ...]
    oracles: Tuple[str, ...]
    #: Size bindings run per seed (1 = just the drawn sizes; more add
    #: forced-size variants, each binding its own graph and plan).
    dim_variants: int = 1
    checks: int = 0
    failures: int = 0
    #: Point forms the run derived (``repro.srdfg.plan.POINTS_STATS``):
    #: reductions that ran on their predicate's points, not the lattice.
    compressed: int = 0
    wall_seconds: float = 0.0
    #: Per-program rows: seed, size, and every oracle verdict.
    matrix: List[dict] = field(default_factory=list)
    divergences: List[Divergence] = field(default_factory=list)

    @property
    def ok(self):
        return self.failures == 0

    def availability_floor(self):
        values = [
            check.get("availability")
            for row in self.matrix
            for check in row["checks"]
            if check.get("availability") is not None
        ]
        return min(values) if values else None

    def overhead_ceiling(self):
        values = [
            check.get("overhead")
            for row in self.matrix
            for check in row["checks"]
            if check.get("overhead") is not None
        ]
        return max(values) if values else None

    def to_dict(self):
        return {
            "config": {
                "programs": self.programs,
                "seed": self.seed,
                "campaigns": self.campaigns,
                "precisions": list(self.precisions),
                "oracles": list(self.oracles),
                "dim_variants": self.dim_variants,
            },
            "summary": {
                "checks": self.checks,
                "failures": self.failures,
                "ok": self.ok,
                "compressed": self.compressed,
                "wall_seconds": self.wall_seconds,
                "availability_floor": self.availability_floor(),
                "overhead_ceiling": self.overhead_ceiling(),
            },
            "matrix": self.matrix,
            "divergences": [d.to_dict() for d in self.divergences],
        }

    def render(self):
        variants = (
            f" x {self.dim_variants} dim variant(s)"
            if self.dim_variants > 1
            else ""
        )
        lines = [
            f"fuzz: {self.programs} program(s) from seed {self.seed}"
            f"{variants}, "
            f"{self.checks} check(s) across {len(self.oracles)} oracle(s) "
            f"x {'/'.join(self.precisions)} "
            f"({self.campaigns} fault campaigns) "
            f"in {self.wall_seconds:.1f} s"
        ]
        lines.append(
            f"  compressed: {self.compressed} reduction(s) ran on their "
            "predicate's points"
        )
        floor = self.availability_floor()
        ceiling = self.overhead_ceiling()
        if floor is not None:
            lines.append(
                f"  fault campaigns: availability floor {floor:.1%}, "
                f"recovery overhead ceiling {ceiling:.2f}x"
            )
        if self.ok:
            lines.append("  zero divergences: all oracles agree "
                         "with the reference interpreter")
        else:
            lines.append(f"  {self.failures} DIVERGENCE(S):")
            for div in self.divergences:
                label = f"{div.oracle}/{div.precision}"
                if div.campaign:
                    label += f"/{div.campaign}"
                lines.append(f"    seed {div.seed} [{label}]: {div.detail}")
                if div.minimized_source is not None:
                    lines.append(
                        f"      minimized to {div.minimized_statements} "
                        f"statement(s) / {div.minimized_nodes} node(s):"
                    )
                    for line in div.minimized_source.splitlines():
                        lines.append(f"        {line}")
        return "\n".join(lines)


def _still_fails_factory(failing, context, campaigns):
    """Predicate re-running exactly the failing oracle on a candidate."""
    oracle = failing.oracle
    precision = failing.precision
    campaign = failing.campaign

    def still_fails(candidate):
        results = run_program(
            candidate,
            context=context,
            precisions=(precision,),
            campaigns=campaigns if oracle == "faults" else "none",
            oracles=(oracle,) if oracle in ORACLES else ORACLES,
        )
        for result in results:
            if result.ok:
                continue
            if result.oracle != oracle:
                continue
            if campaign and result.campaign != campaign:
                continue
            return True
        return False

    return still_fails


def _dim_variants(program_seed, config, count):
    """The *count* programs run for one seed: drawn sizes first, then
    forced-size variants offset from them (distinctness preserved), so
    the plan oracle sees several bindings of the same seed's template."""
    base = generate_program(program_seed, config)
    variants = [base]
    for v in range(1, count):
        sizes = {
            "n": base.sizes["n"] + 2 * v,
            "m": base.sizes["m"] + 2 * v,
        }
        variants.append(generate_program(program_seed, config, sizes=sizes))
    return variants


def run_fuzz(
    programs=25,
    seed=0,
    campaigns="all",
    precisions=("f64", "f32"),
    oracles=ORACLES,
    minimize=True,
    context=None,
    gen_config=None,
    progress=None,
    dim_variants=1,
):
    """Run the differential campaign; returns a :class:`FuzzReport`.

    Program seeds are ``seed, seed+1, ... seed+programs-1`` so a run is
    reproducible from its report alone. *context* (an
    :class:`~repro.fuzz.oracles.OracleContext`) is shared across
    programs, which is exactly what lets tests inject a sabotaged
    pipeline and watch the harness catch it. *progress*, when given, is
    called with a one-line status string per program. *dim_variants* > 1
    re-runs each seed at forced tensor sizes, so the oracles cover
    several bindings of one generated template (each variant is its own
    matrix row, tagged with its sizes).
    """
    context = context or OracleContext()
    config = gen_config or GenConfig()
    dim_variants = max(1, int(dim_variants))
    report = FuzzReport(
        programs=programs,
        seed=seed,
        campaigns=campaigns,
        precisions=tuple(precisions),
        oracles=tuple(oracles),
        dim_variants=dim_variants,
    )
    started = time.perf_counter()
    built = POINTS_STATS.snapshot().built
    for offset in range(programs):
        program_seed = seed + offset
        for variant, program in enumerate(
            _dim_variants(program_seed, config, dim_variants)
        ):
            results = run_program(
                program,
                context=context,
                precisions=precisions,
                campaigns=campaigns,
                oracles=oracles,
            )
            failures = [r for r in results if not r.ok]
            report.checks += len(results)
            report.failures += len(failures)
            report.matrix.append({
                "seed": program_seed,
                "variant": variant,
                "sizes": dict(program.sizes),
                "statements": len(program.statements),
                "steps": program.steps,
                "checks": [r.to_dict() for r in results],
            })
            if progress is not None:
                status = "ok" if not failures else f"{len(failures)} FAIL"
                sizes = program.sizes
                progress(
                    f"[{offset + 1}/{programs}] seed {program_seed} "
                    f"(n={sizes['n']} m={sizes['m']}): "
                    f"{len(results)} check(s) {status}"
                )
            for failing in failures:
                divergence = Divergence(
                    seed=program_seed,
                    oracle=failing.oracle,
                    precision=failing.precision,
                    campaign=failing.campaign,
                    detail=failing.detail,
                    source=program.render(),
                )
                if minimize and failing.oracle in ORACLES:
                    still_fails = _still_fails_factory(
                        failing, context, campaigns
                    )
                    minimized = minimize_program(program, still_fails)
                    divergence.minimized_source = minimized.render()
                    divergence.minimized_statements = len(minimized.statements)
                    try:
                        divergence.minimized_nodes = reproducer_size(minimized)
                    except Exception:  # noqa: BLE001 — size is best-effort
                        divergence.minimized_nodes = None
                report.divergences.append(divergence)
    report.compressed = POINTS_STATS.snapshot().built - built
    report.wall_seconds = time.perf_counter() - started
    return report
