"""Start-up stays NumPy-only: SciPy, networkx and HiGHS load on demand.

A cold ``import repro`` and the short CLI commands that never solve a
MIP must not pay for SciPy (about a second of imports) or networkx.
Each check runs in a fresh interpreter and reads ``sys.modules``, so
it does not depend on timing.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
HEAVY = ("scipy", "networkx", "highspy")

#: Runs ``python -m repro <args>`` in-process, then writes the loaded
#: module names (and, with tracing, the spans and the span open when
#: each watched module was first imported) to ``argv[1]``.
CLI_PROGRAM = """
import json, runpy, sys
from repro import obs

out, args = sys.argv[1], sys.argv[2:]
first_import = {}


class Watch:
    def find_spec(self, name, path=None, target=None):
        if name in ("scipy.optimize", "scipy.sparse"):
            first_import.setdefault(name, obs.current_span_id())
        return None


sys.meta_path.insert(0, Watch())
sys.argv = ["repro", *args]
with obs.use(obs.MemorySink()) as sink:
    try:
        runpy.run_module("repro", run_name="__main__", alter_sys=True)
    except SystemExit as stop:
        code = stop.code
with open(out, "w") as handle:
    json.dump({
        "code": code,
        "modules": sorted(sys.modules),
        "first_import": first_import,
        "spans": sink.spans(),
    }, handle)
"""


def _env(tmp_path: Path) -> dict[str, str]:
    env = {
        key: value for key, value in os.environ.items()
        if not key.startswith("REPRO_")
    }
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
    return env


def _run_cli(tmp_path: Path, *args: str) -> dict:
    out = tmp_path / "run.json"
    subprocess.run(
        [sys.executable, "-c", CLI_PROGRAM, str(out), *args],
        env=_env(tmp_path), cwd=tmp_path, check=True,
        stdout=subprocess.DEVNULL, timeout=300,
    )
    result = json.loads(out.read_text())
    assert result["code"] in (0, None)
    return result


def _loaded(modules: list[str], *names: str) -> set[str]:
    return {
        name for name in names
        if any(m == name or m.startswith(name + ".") for m in modules)
    }


def test_import_repro_loads_no_heavy_modules(tmp_path):
    program = "import json, sys, repro; print(json.dumps(sorted(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", program], env=_env(tmp_path),
        capture_output=True, text=True, check=True, timeout=120,
    )
    assert _loaded(json.loads(out.stdout), *HEAVY) == set()


@pytest.mark.parametrize("command", [
    ("simulate", "--days", "2", "--kind", "wind"),
    ("synthesize", "--days", "2", "--sites", "UK-wind", "NO-solar",
     "--out", "traces"),
])
def test_short_commands_stay_off_scipy(tmp_path, command):
    modules = _run_cli(tmp_path, *command)["modules"]
    assert _loaded(
        modules, "scipy.signal", "scipy.special", "scipy.optimize",
        "networkx",
    ) == set()


#: Synthesizes a year of wind and a year-long AR(1) path, then prints
#: the loaded module names.
YEAR_TRACES_PROGRAM = """
import json, sys
import numpy as np
from repro.experiments.defaults import YEAR_START
from repro.traces import synthesize_wind
from repro.traces.weather import intraday_ar1
from repro.units import grid_days

grid = grid_days(YEAR_START, 365)
assert len(synthesize_wind(grid, seed=1)) == grid.n
assert len(intraday_ar1(grid.n, 0.28, 0.45, np.random.default_rng(4))) == grid.n
print(json.dumps(sorted(sys.modules)))
"""


def test_year_long_traces_load_no_scipy(tmp_path):
    """Year-long first-order paths (35,040 steps, past the loop cut)
    run on NumPy alone."""
    out = subprocess.run(
        [sys.executable, "-c", YEAR_TRACES_PROGRAM], env=_env(tmp_path),
        capture_output=True, text=True, check=True, timeout=300,
    )
    assert _loaded(json.loads(out.stdout), "scipy") == set()


def test_year_long_synthesize_command_loads_no_scipy(tmp_path):
    modules = _run_cli(
        tmp_path, "synthesize", "--sites", "UK-wind", "--days", "365",
        "--out", str(tmp_path / "traces"),
    )["modules"]
    assert _loaded(modules, "scipy") == set()
    assert (tmp_path / "traces" / "UK-wind.csv").exists()


def test_schedule_loads_the_solver_only_in_its_import_span(tmp_path):
    """``schedule`` needs ``scipy.optimize`` but not ``scipy.signal`` or
    networkx, and loads it inside the ``import`` span that
    ``MIPScheduler.schedule`` opens before any ``mip.assemble`` or
    ``mip.solve`` span, so the MIP timings hold no import time."""
    run = _run_cli(
        tmp_path, "schedule", "--days", "2", "--apps", "40"
    )
    assert _loaded(run["modules"], "scipy.signal", "networkx") == set()
    assert "scipy.optimize" in run["modules"]

    spans = {span["span_id"]: span for span in run["spans"]}
    imports = [s for s in spans.values() if s["name"] == "import"]
    assert imports
    assert all(
        s["attrs"] == {"module": "scipy.optimize"} for s in imports
    )
    assert "scipy.optimize" in run["first_import"]
    for span_id in run["first_import"].values():
        assert spans[span_id]["name"] == "import"

    def ancestors(span):
        while span["parent_id"] is not None:
            span = spans[span["parent_id"]]
            yield span["name"]

    first_import = min(s["start_s"] for s in imports)
    timed = [
        s for s in spans.values()
        if s["name"] in ("mip.assemble", "mip.solve")
    ]
    assert timed
    for span in timed:
        assert span["start_s"] > first_import
        assert "import" not in ancestors(span)


def _module_level_imports(tree: ast.Module):
    """Imports executed when the module loads: everything outside
    function bodies and outside ``if TYPE_CHECKING:`` blocks."""
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, ast.If):
            test = node.test
            guarded = (
                isinstance(test, ast.Name) and test.id == "TYPE_CHECKING"
            ) or (
                isinstance(test, ast.Attribute)
                and test.attr == "TYPE_CHECKING"
            )
            if not guarded:
                pending.extend(node.body)
            pending.extend(node.orelse)
        elif isinstance(node, (ast.Try, ast.With, ast.ClassDef)):
            for field in ("body", "orelse", "finalbody"):
                pending.extend(getattr(node, field, []))
            for handler in getattr(node, "handlers", []):
                pending.extend(handler.body)


def test_no_module_level_heavy_imports():
    offenders = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in _module_level_imports(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                names = [node.module or ""] if node.level == 0 else []
            for name in names:
                if name.split(".")[0] in HEAVY:
                    offenders.append(
                        f"{path.relative_to(SRC)}:{node.lineno} {name}"
                    )
    assert offenders == []
