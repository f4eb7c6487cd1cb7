"""Per-layer tracing for the benchmark's traced runs.

The program is not edited: each layer's public functions are wrapped,
from here, at the attribute its caller looks up (a module global or a
class attribute), and every wrapped call opens a ``repro.obs`` span.
After the traced pass the spans are folded into one row per wrapper:
call count, total time, and self time (total minus the time of the
wrapped calls nested inside it).  Hooks read counts off arguments and
results at the same boundaries.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import sys
import time
from collections import defaultdict


def _mip_timings(args, result, acc):
    timings = args[0].last_timings
    if timings is not None:
        acc["sched.mip_assemble_s"] += timings.assembly_s
        acc["sched.mip_solve_s"] += timings.solve_s
        acc["sched.mip_rows"] += timings.n_rows
        acc["sched.mip_nnz"] += timings.nnz


def _count_vms(args, result, acc):
    acc["workload.vms"] += len(result)


def _count_closed(args, result, acc):
    if args[0].mode == "closed":
        acc["supply.closed_sites"] += 1


def _count_checkpoint(args, result, acc):
    acc["serve.checkpoint_bytes"] += len(result)


def _count_results(args, result, acc):
    results = result.values() if isinstance(result, dict) else [result]
    for sim in results:
        add_simulation(sim, acc)


def add_simulation(sim, acc) -> None:
    """Add one site result's step, eviction and grid-import counts."""
    acc["sim.site_steps"] += len(sim.columns.n_evicted)
    acc["sim.evictions"] += int(sim.columns.n_evicted.sum())
    if sim.supply is not None:
        acc["supply.grid_import_mwh"] += sim.supply.grid_import_total_mwh


#: (span name, module, attribute path, hook).  The attribute is the one
#: the caller resolves at call time, so exactly those calls are timed.
TARGETS = (
    ("traces.synthesize", "repro.traces", "synthesize_catalog_traces", None),
    ("traces.synthesize", "repro.traces", "synthesize_wind", None),
    ("workload.vm_requests", "repro.experiments.runner",
     "generate_vm_requests", _count_vms),
    ("workload.applications", "repro.experiments.runner",
     "generate_applications", None),
    ("forecast", "repro.forecast.models",
     "NoisyOracleForecaster.forecast", None),
    ("forecast", "repro.forecast.models",
     "PersistenceForecaster.forecast", None),
    ("forecast", "repro.forecast.models",
     "ClimatologyForecaster.forecast", None),
    ("sched.greedy", "repro.sched.greedy", "GreedyScheduler.schedule", None),
    ("sched.mip", "repro.sched.mip", "MIPScheduler.schedule", _mip_timings),
    ("sim.prepare", "repro.cluster.datacenter",
     "Datacenter.prepare_run", None),
    ("sim.datacenter_run", "repro.cluster.datacenter", "Datacenter.run",
     _count_results),
    ("sim.fleet", "repro.sim.fleet", "FleetEngine.run", _count_results),
    ("supply.build", "repro.supply.spec", "SupplySpec.build", _count_closed),
    ("serve.fleet_sites", "repro.serve.registry",
     "fleet_sites_for_scenario", None),
    ("serve.session_init", "repro.serve.session", "SimSession.__init__",
     None),
    ("serve.advance", "repro.serve.session", "SimSession.advance", None),
    ("serve.status", "repro.serve.session", "SimSession.status", None),
    ("serve.checkpoint", "repro.serve.session", "SimSession.checkpoint",
     _count_checkpoint),
    ("serve.restore", "repro.serve.session", "SimSession.restore", None),
    ("serve.asgi", "repro.serve.testing", "ASGIClient.request", None),
)


class Tracer:
    """Installs the wrappers and folds their spans into layer rows."""

    def __init__(self):
        self._obs = importlib.import_module("repro.obs")
        self.sink = self._obs.MemorySink()
        self.counts: dict[str, float] = defaultdict(float)
        self._names: set[str] = set()
        self._scope = None

    def install(self) -> "Tracer":
        for name, module, path, hook in TARGETS:
            owner = importlib.import_module(module)
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            raw = owner.__dict__[attr] if isinstance(owner, type) else (
                getattr(owner, attr)
            )
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(name, raw.__func__, hook))
            else:
                wrapped = self._wrap(name, raw, hook)
            setattr(owner, attr, wrapped)
            self._names.add(name)
        self._scope = self._obs.use(self.sink)
        self._scope.__enter__()
        return self

    def close(self) -> None:
        if self._scope is not None:
            self._scope.__exit__(None, None, None)
            self._scope = None

    def _wrap(self, name, fn, hook):
        counts = self.counts
        span = self._obs.span

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with span(name):
                result = fn(*args, **kwargs)
            if hook is not None:
                hook(args, result, counts)
            return result

        return wrapper

    def calls(self) -> list[dict]:
        """One dict per wrapped call, in completion order, with its
        ``self_s`` (wall minus the wrapped calls nested inside it)."""
        spans = self.sink.spans()
        by_id = {span["span_id"]: span for span in spans}
        rows = {
            span["span_id"]: dict(span, self_s=span["wall_s"])
            for span in spans
            if span["name"] in self._names
        }
        for span_id, row in rows.items():
            parent = by_id.get(row["parent_id"])
            while parent is not None and parent["span_id"] not in rows:
                parent = by_id.get(parent["parent_id"])
            if parent is not None:
                rows[parent["span_id"]]["self_s"] -= row["wall_s"]
        return list(rows.values())

    def table(self) -> dict[str, dict]:
        """Per wrapper: call count, total and self seconds."""
        table: dict[str, dict] = {}
        for row in self.calls():
            entry = table.setdefault(
                row["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            )
            entry["calls"] += 1
            entry["total_s"] += row["wall_s"]
            entry["self_s"] += row["self_s"]
        return table


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics every traced process contributes."""
    table = tracer.table()

    def self_s(name):
        return table.get(name, {}).get("self_s", 0.0)

    metrics = dict(tracer.counts)
    metrics.update({
        "traces.synthesize_s": self_s("traces.synthesize"),
        "traces.calls": table.get("traces.synthesize", {}).get("calls", 0),
        "workload.vm_requests_s": self_s("workload.vm_requests"),
        "workload.applications_s": self_s("workload.applications"),
        "forecast.s": self_s("forecast"),
        "sched.greedy_s": self_s("sched.greedy"),
        "sched.mip_s": self_s("sched.mip"),
        "sim.prepare_s": self_s("sim.prepare"),
        "sim.datacenter_run_s": self_s("sim.datacenter_run"),
        "supply.build_s": self_s("supply.build"),
        "serve.fleet_sites_s": self_s("serve.fleet_sites"),
        "serve.session_init_s": self_s("serve.session_init"),
        "serve.advance_s": self_s("serve.advance"),
        "serve.status_s": self_s("serve.status"),
        "serve.checkpoint_s": self_s("serve.checkpoint"),
        "serve.restore_s": self_s("serve.restore"),
        "serve.asgi_s": self_s("serve.asgi"),
    })
    return metrics


def digest(payload) -> str:
    """SHA-256 of the canonical JSON form of ``payload``."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def timed_import() -> dict[str, float]:
    """Import ``repro`` and report its time and the modules it loaded.

    Call it before anything else imports ``repro`` (this module does
    not).
    """
    before = len(sys.modules)
    start = time.perf_counter()
    importlib.import_module("repro")
    return {
        "import.repro_s": time.perf_counter() - start,
        "import.modules_loaded": len(sys.modules) - before,
    }
