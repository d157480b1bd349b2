"""The benchmark's fixed definitions, read from ``BENCHMARK.json``.

``BENCHMARK.json`` at the repository root is the single place that names
the workloads, the end-to-end metrics with their regression bounds, and
the per-layer metrics; ``run.py`` and ``compare.py`` both read it here,
so a metric cannot be reported under a name the contract does not list.
"""

from __future__ import annotations

import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
#: name -> {"name", "unit", "better", "bound"}
END_TO_END = {metric["name"]: metric for metric in SPEC["end_to_end"]}
#: name -> unit
PER_LAYER = {metric["name"]: metric["unit"] for metric in SPEC["per_layer"]}

#: Environment pinned before numpy is imported (run.py re-executes itself
#: when any differs). Single-thread BLAS because an unpinned OpenBLAS
#: oversubscribes the two cores and hides process-pool scaling; a fixed
#: hash seed so set and dict orders repeat; no huge-page advice because
#: with it every array of 4 MB and more can stall in the kernel's page
#: compaction (a 32 MB allocation read 4 ms at the median and 500 ms at
#: worst on the build host, 16 ms and 21 ms without).
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    "NUMPY_MADVISE_HUGEPAGE": "0",
}

#: Per-layer metrics that are counts or model outputs of a deterministic
#: compiler: two runs of one commit must report them bit-equal. (Counts
#: that grow with the number of batches a run fits in are not listed.)
EXACT = frozenset({
    "pmlang.parser.source_bytes",
    "srdfg.builder.nodes",
    "passes.pipeline.nodes_removed",
    "passes.pipeline.rewrites",
    "passes.lowering.nodes",
    "targets.compiler.fragments",
    "srdfg.plan.statements",
    "codegen.kernels_built",
    "codegen.source_bytes",
    "driver.session.modeled_accel_us_geomean",
    "codegen.fallbacks",
    "serve.server.distinct_configs",
    "serve.procpool.worker_crashes",
    "serve.server.rejected",
})
