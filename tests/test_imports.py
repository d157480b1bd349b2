"""What importing and compiling loads: ``scipy`` only on first use.

``sigmoid`` and ``phi`` are PMLang's only builtins backed by
``scipy.special``, and importing scipy pulls in ``numpy.f2py`` and more
(a third of a second and ~20 MB per process). A process that compiles,
plans and builds kernels never runs them, so it never loads scipy; a
``Server`` loads it once in ``start()``, before any worker exists. These
checks run in fresh interpreters: this one already holds scipy.
"""

from __future__ import annotations

import ast
import json
import pathlib
import subprocess
import sys

import pytest

from .test_codegen import OUTPUT_DIGESTS, pinned_env

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"

#: Builds every paper program's kernel, reports which heavy modules that
#: loaded, then steps the two programs that call sigmoid/phi on their
#: kernels. argv names the directories to import from.
_COMPILE_SCRIPT = """
import json, sys
sys.path[:0] = sys.argv[1:]
import repro
import test_codegen as t
declined = [n for n in sorted(t.OUTPUT_DIGESTS) if t._ledger_plan(n)[1].kernel is None]
loaded = sorted(m for m in ("scipy", "numpy.f2py") if m in sys.modules)
digests = {n: t._trajectory_digest(n) for n in ("BrainStimul", "OptionPricing")}
print(json.dumps({"declined": declined, "loaded": loaded, "digests": digests,
                  "stepped": "scipy.special" in sys.modules}))
"""

#: Starts a Server with the pool named in argv[2] and reports whether
#: scipy.special was loaded before and after ``start()``.
_SERVER_SCRIPT = """
import json, sys
sys.path[:0] = sys.argv[1:2]
from repro.serve import Server
server = Server(workers=1, pool=sys.argv[2])
before = "scipy.special" in sys.modules
server.start()
after = "scipy.special" in sys.modules
server.close()
print(json.dumps({"before": before, "after": after}))
"""


def _run(script, *argv):
    completed = subprocess.run(
        [sys.executable, "-c", script, *argv],
        env=pinned_env(), capture_output=True, text=True, check=True, timeout=600,
    )
    return json.loads(completed.stdout.splitlines()[-1])


def test_compiling_every_paper_program_never_loads_scipy():
    report = _run(_COMPILE_SCRIPT, str(ROOT / "src"), str(ROOT / "tests"))
    assert report["declined"] == []
    assert report["loaded"] == []
    # Stepping the kernels is the first use: they load scipy and still
    # compute the pinned bytes.
    assert report["stepped"]
    for name, digest in report["digests"].items():
        assert digest == OUTPUT_DIGESTS[name], name


@pytest.mark.parametrize("pool", ["thread", "process"])
def test_server_start_loads_scipy_before_its_workers(pool):
    report = _run(_SERVER_SCRIPT, str(ROOT / "src"), pool)
    assert report == {"before": False, "after": True}


def _module_level_imports(node):
    """Import statements run when the module under *node* is imported:
    everything outside function bodies (class bodies run at import)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield child
        yield from _module_level_imports(child)


def test_no_module_imports_scipy_at_module_level():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for stmt in _module_level_imports(tree):
            if isinstance(stmt, ast.Import):
                names = [alias.name for alias in stmt.names]
            else:
                names = [stmt.module or ""] if stmt.level == 0 else []
            if any(name == "scipy" or name.startswith("scipy.") for name in names):
                offenders.append(f"{path.relative_to(ROOT)}:{stmt.lineno}")
    assert offenders == []
