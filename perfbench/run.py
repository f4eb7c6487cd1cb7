#!/usr/bin/env python3
"""The repository's benchmark: three user paths, end to end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload cli_cold --seed 1 --seconds 30 \\
        --trace 0

Workloads (``perfbench/README.md`` says why each exists):

- ``cli_cold``: fresh interpreters run ``python -m repro simulate`` and
  ``python -m repro schedule``, for several CLI seeds drawn from the
  run's seed;
- ``fleet_year``: one ``repro.sim.FleetEngine`` run over a 64-site year
  of seeded VM requests;
- ``serve_twin``: one closed-loop client drives a ``repro.serve``
  session through create, ticks, status, checkpoint, restore, results.

Every pass runs in its own process, one at a time, on one CPU shared
with nothing else the benchmark starts, with a fresh cache directory,
the ``REPRO_*`` switches unset and BLAS/OpenMP threads capped at the
CPUs it may use.  With ``--trace 0`` passes repeat for ``--seconds``
and the last line reports the medians of the end-to-end metrics, in
seconds at a fixed host speed (``perfbench/pace.py``); with
``--trace 1`` alternating untraced and traced passes give the
per-layer metrics.  Outputs are checked against ``goldens.json``
(or, for an input without a golden, against each other); any mismatch
makes the result incorrect.  ``--record-goldens`` stores the digests of
the given seed's inputs instead of checking them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402  (imports no part of repro by itself)
import pace  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
GOLDENS = HERE / "goldens.json"
SPEC = ROOT / "BENCHMARK.json"

WORKLOADS = ("cli_cold", "fleet_year", "serve_twin")
CLI_COMMANDS = {
    "simulate": ["simulate", "--days", "7", "--kind", "wind"],
    "schedule": ["schedule", "--days", "2", "--apps", "40"],
}
#: CLI seeds per cli_cold run: run seed ``s`` gives the commands
#: ``--seed s * CLI_SEEDS + j``.  The plans and the power-matched
#: workload size vary from seed to seed; a run averages over several
#: seeds so that variation stays out of the run-to-run spread.
CLI_SEEDS = 6
#: Untraced/traced pass pairs at least in a traced run.
TRACE_PAIRS = 3
CHILD_TIMEOUT_S = 150.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
)
UNSET_VARS = (
    "REPRO_TRACE",
    "REPRO_JOBS",
    "REPRO_CHECK",
    "REPRO_CACHE_DIR",
    "PYTHONPATH",
    "PYTHONDONTWRITEBYTECODE",
    "PYTHONPYCACHEPREFIX",
)
#: The workload-specific end-to-end numbers, printed by every run and
#: reported per layer by the traced run (zero where they do not apply).
DETAIL = (
    "cold_simulate_s",
    "cold_schedule_s",
    "mip_migration_gb",
    "site_years_per_s",
    "session_create_s",
    "tick_p50_ms",
    "tick_p90_ms",
    "status_p50_ms",
    "checkpoint_s",
    "restore_s",
    "checkpoint_mb",
)


class Run:
    """One benchmark invocation: its environment, scratch space and
    tallies of attempted and failed operations."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.work = WORK / f"{workload}-{seed}-{os.getpid()}"
        self.env = child_env(self.work)
        (self.work / "tmp").mkdir(parents=True)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digests: dict[int, str] = {}
        self._dirs = 0
        self.pace: float | None = None

    def latest_pace(self) -> float:
        """The latest pace reading, taken now if there is none yet.
        Every timed stretch is divided by the host's slowdown from the
        readings just before and just after it; consecutive stretches
        share the reading between them."""
        if self.pace is None:
            self.pace = pace.reading()
        return self.pace

    def fresh_dir(self) -> Path:
        self._dirs += 1
        path = self.work / f"p{self._dirs:03d}"
        path.mkdir(parents=True)
        return path

    def tally(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.errors.append(what)

    def check(self, ok: bool, what: str) -> bool:
        self.tally(1, int(not ok), what)
        return ok

    def child(self, argv: list[str], out_dir: Path) -> dict:
        """Run one child to completion: its exit code, wall time, max
        RSS and output."""
        stdout = out_dir / "stdout.txt"
        stderr = out_dir / "stderr.txt"
        with open(stdout, "wb") as out, open(stderr, "wb") as err:
            start = time.monotonic()
            proc = subprocess.Popen(
                argv, cwd=ROOT, env=self.env,
                stdin=subprocess.DEVNULL, stdout=out, stderr=err,
            )
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.monotonic() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {
            "code": proc.returncode,
            "wall_s": wall,
            "rss_mb": usage.ru_maxrss / 1024,
            "stdout": stdout.read_text(),
            "stderr": stderr.read_text(),
        }

    def expect_golden(self, seed: int, digest: str, goldens: dict) -> None:
        """Compare the output digest of input ``seed`` with its golden,
        or with the run's first output of that seed when it has none."""
        golden = goldens.get(self.workload, {}).get(str(seed))
        if golden is not None:
            self.check(
                digest == golden,
                f"seed {seed}: output digest {digest[:12]} != golden",
            )
        elif seed in self.digests:
            self.check(
                digest == self.digests[seed],
                f"seed {seed}: output digest {digest[:12]} differs"
                " between passes",
            )
        self.digests.setdefault(seed, digest)


def child_env(work: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in UNSET_VARS}
    threads = str(nproc())
    env.update({var: threads for var in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_CACHE_DIR"] = str(work / "cache")
    env["TMPDIR"] = str(work / "tmp")
    return env


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin() -> dict:
    """Run the benchmark and every child on the last CPU it may use, so
    the pace readings and the timed work share a CPU; the others take
    the rest of the machine's work."""
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})
    return {"nproc": len(cpus), "cpu": cpus[-1]}


def machine() -> dict:
    """Metadata recorded with every result."""
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = None
    sha = None
    if (ROOT / ".git").exists():
        probe = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, check=False,
        )
        sha = probe.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        source.update(str(path.relative_to(SRC)).encode())
        source.update(path.read_bytes())
    return {
        "loadavg": os.getloadavg(),
        "python": platform.python_version(),
        **versions,
        "git_sha": sha,
        "src_sha256": source.hexdigest(),
    }


def warm_up(run: Run) -> None:
    """Untimed: compile ``.pyc`` files as an installed package has them,
    and load the interpreter and libraries into the page cache."""
    for argv in (
        [sys.executable, "-m", "compileall", "-q", str(SRC)],
        [sys.executable, "-c", "import repro"],
    ):
        child = run.child(argv, run.fresh_dir())
        if child["code"] != 0:
            raise RuntimeError(f"warm-up failed: {child['stderr'][-2000:]}")


# -- cli_cold -------------------------------------------------------------


def input_seeds(workload: str, seed: int) -> list[int]:
    """The input seeds a run's passes cycle through."""
    if workload == "cli_cold":
        return [seed * CLI_SEEDS + j for j in range(CLI_SEEDS)]
    return [seed]


def cold_import(run: Run) -> float | None:
    """The wall time of one cold ``import repro`` process, what every
    CLI command pays before its own work, at the fixed host speed: the
    cli_cold set-up."""
    before = run.latest_pace()
    child = run.child([sys.executable, "-c", "import repro"], run.fresh_dir())
    run.pace = pace.reading()
    if run.check(child["code"] == 0, "cold import failed"):
        return child["wall_s"] / pace.slowdown([before, run.pace])
    return None


def cli_table(stdout: str) -> str:
    """The command's printed table without its run-specific paths."""
    return "\n".join(
        line for line in stdout.splitlines()
        if not line.startswith(("manifest:", "cache:"))
    ).strip()


def cli_pass(run: Run, goldens: dict, seed: int, traced: bool = False,
             split: bool = False) -> dict:
    """A cold ``simulate`` and a cold ``schedule`` process run with
    ``--seed seed``; ``wall_s`` is their walls added, at the fixed host
    speed.  (``split`` only matters to ``worker_pass``.)"""
    tables: dict[str, str] = {}
    stages: dict[str, float] = {}
    out = {"wall_s": 0.0, "rss_mb": 0.0, "cache_hits": 0, "layers": {}}
    before = run.latest_pace()
    for name, args in CLI_COMMANDS.items():
        path = run.fresh_dir()
        cli_args = [
            *args, "--seed", str(seed),
            "--cache-dir", str(path / "cache"),
            "--manifest-dir", str(path / "manifests"),
        ]
        if traced:
            argv = [
                sys.executable, str(HERE / "cli_child.py"),
                "--layers-out", str(path / "layers.json"), "--", *cli_args,
            ]
        else:
            argv = [sys.executable, "-m", "repro", *cli_args]
        child = run.child(argv, path)
        failure = f"repro {name} exited {child['code']}: {child['stderr']}"
        if not run.check(child["code"] == 0, failure[-2000:]):
            continue
        tables[name] = cli_table(child["stdout"])
        out[f"cold_{name}_s"] = child["wall_s"]
        out["wall_s"] += child["wall_s"]
        out["rss_mb"] = max(out["rss_mb"], child["rss_mb"])
        hits = 0
        for manifest in (path / "manifests").glob("*.json"):
            for stage in json.loads(manifest.read_text())["stages"]:
                kind = stage["name"].split(":")[0]
                stages[kind] = stages.get(kind, 0.0) + stage["seconds"]
                hits += bool(stage["cache_hit"])
        run.check(hits == 0, f"repro {name} reused {hits} cached stages")
        out["cache_hits"] += hits
        if traced:
            traced_out = json.loads((path / "layers.json").read_text())
            for key, value in traced_out["layers"].items():
                out["layers"][key] = out["layers"].get(key, 0) + value
            print_wrappers(f"repro {name}", traced_out["wrappers"])
    run.pace = pace.reading()
    out["slowdown"] = pace.slowdown([before, run.pace])
    out["timed_wall_s"] = out["wall_s"]
    out["wall_s"] /= out["slowdown"]
    if len(tables) == len(CLI_COMMANDS):
        run.expect_golden(seed, layers.digest(tables), goldens)
        for line in tables["schedule"].splitlines():
            if line.startswith("MIP "):
                total = line.split()[1].replace(",", "")
                out["mip_migration_gb"] = float(total)
    for kind, seconds in stages.items():
        out["layers"][f"experiments.stage.{kind}_s"] = seconds
    out["layers"]["experiments.cache_hits"] = out["cache_hits"]
    return out


# -- fleet_year and serve_twin ---------------------------------------------


def worker_pass(run: Run, goldens: dict, seed: int, traced: bool = False,
                split: bool = False) -> dict:
    """One worker process: set-up, then one timed pass, both at the
    fixed host speed.  ``split`` runs fleet_year's open and closed
    sites as two ``FleetEngine`` calls, as the traced pass does."""
    before = run.latest_pace()
    path = run.fresh_dir()
    result = path / "pass.json"
    argv = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", run.workload, "--seed", str(seed),
        "--t0", repr(time.monotonic()), "--out", str(result),
    ]
    argv += ["--trace"] if traced else []
    argv += ["--split"] if split else []
    child = run.child(argv, path)
    failure = f"worker exited {child['code']}: {child['stderr']}"
    if not run.check(child["code"] == 0 and result.exists(), failure[-2000:]):
        return {}
    out = json.loads(result.read_text())
    # The worker reads the pace after its set-up and samples it during
    # its pass; the next pass reads afresh before it starts.
    paces = out.pop("paces")
    run.pace = None
    out["slowdown"] = pace.slowdown([paces["pass"]])
    out["timed_setup_s"] = out["setup_s"]
    out["timed_wall_s"] = out["wall_s"]
    out["setup_s"] /= pace.slowdown([before, paces["after_setup"]])
    out["wall_s"] /= out["slowdown"]
    run.tally(out["attempted"], out["failed"], "worker operations failed")
    run.expect_golden(seed, out["digest"], goldens)
    out["rss_mb"] = child["rss_mb"]
    out.update(out.pop("detail"))
    if traced:
        print_wrappers(run.workload, out["wrappers"])
    return out


PASSES = {
    "cli_cold": cli_pass,
    "fleet_year": worker_pass,
    "serve_twin": worker_pass,
}


# -- reporting ----------------------------------------------------------------


def print_wrappers(label: str, table: dict) -> None:
    print(f"wrappers ({label}): calls, total s, self s")
    for name, row in sorted(table.items()):
        print(
            f"  {name:24s} {row['calls']:6d}"
            f" {row['total_s']:10.4f} {row['self_s']:10.4f}"
        )


def typical(passes: dict[int, list[dict]], key: str) -> float:
    """The median over input seeds of each seed's median pass value."""
    medians = [
        statistics.median(values)
        for values in (
            [p[key] for p in seed_passes if key in p]
            for seed_passes in passes.values()
        )
        if values
    ]
    return statistics.median(medians) if medians else 0.0


def measure(run: Run, goldens: dict, seconds: float) -> tuple[dict, dict]:
    """Cycle passes over the run's input seeds for ``seconds`` (at
    least one pass per seed): the end-to-end metrics and the workload's
    own numbers."""
    one_pass = PASSES[run.workload]
    seeds = input_seeds(run.workload, run.seed)
    passes: dict[int, list[dict]] = {seed: [] for seed in seeds}
    setups = []
    slowdowns = []
    start = time.monotonic()
    count = 0
    while count < len(seeds) or time.monotonic() - start < seconds:
        seed = seeds[count % len(seeds)]
        if run.workload == "cli_cold":
            setup = cold_import(run)
            setups += [setup] if setup is not None else []
        result = one_pass(run, goldens, seed)
        if not result:
            break
        count += 1
        passes[seed].append(result)
        setups += [result["setup_s"]] if "setup_s" in result else []
        slowdowns.append(result["slowdown"])
        print(
            f"pass {count} (seed {seed}): rss {result['rss_mb']:.1f} MB"
            + "".join(
                f", {k} {result[k]:.4f}"
                for k in ("slowdown", "timed_wall_s", "wall_s", *DETAIL)
                if k in result
            )
        )
    e2e = {
        "setup_s": statistics.median(setups) if setups else 0.0,
        "wall_s": typical(passes, "wall_s"),
        "peak_rss_mb": typical(passes, "rss_mb"),
    }
    print(
        f"over {count} passes of {len(seeds)} input seeds"
        f" and {len(setups)} set-ups; median host slowdown"
        f" {statistics.median(slowdowns):.4f}"
    )
    detail = {k: typical(passes, k) for k in DETAIL}
    return e2e, detail


def trace(run: Run, goldens: dict, seconds: float) -> dict:
    """Alternate untraced and traced passes of the run's first input
    seed for ``seconds`` (at least ``TRACE_PAIRS`` pairs): the medians of
    the per-layer metrics and of the workload's own numbers, the
    median tracing overhead of a pair and the host's slowdown."""
    one_pass = PASSES[run.workload]
    seed = input_seeds(run.workload, run.seed)[0]
    plain: list[dict] = []
    traced: list[dict] = []
    overheads = []
    start = time.monotonic()
    while len(plain) < TRACE_PAIRS or time.monotonic() - start < seconds:
        # The untraced pass groups the fleet as the traced one does, so
        # the pair's ratio is the cost of tracing alone.
        plain_pass = one_pass(run, goldens, seed, split=True)
        traced_pass = one_pass(run, goldens, seed, traced=True)
        if not (plain_pass and traced_pass):
            break
        plain.append(plain_pass)
        traced.append(traced_pass)
        overheads.append(traced_pass["wall_s"] / plain_pass["wall_s"])
    metrics = {k: typical({seed: plain}, k) for k in DETAIL}
    for key in {key for t in traced for key in t["layers"]}:
        metrics[key] = statistics.median(
            t["layers"].get(key, 0) for t in traced
        )
    if overheads:
        metrics["trace.overhead"] = statistics.median(overheads)
        metrics["host.slowdown"] = statistics.median(
            p["slowdown"] for p in plain + traced
        )
    print(f"{len(overheads)} untraced/traced pairs")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=__doc__.split("\n", 2)[2],
    )
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-goldens", action="store_true")
    args = parser.parse_args(argv)
    # A terminated run still kills its child and removes its scratch.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    cpus = pin()

    if not (SRC / "repro" / "__init__.py").is_file() or not SPEC.is_file():
        print(
            f"perfbench: no repro sources under {SRC} (or no {SPEC.name});"
            " run from the root of a repository checkout",
            file=sys.stderr,
        )
        return 2
    spec = json.loads(SPEC.read_text())
    goldens = json.loads(GOLDENS.read_text()) if GOLDENS.is_file() else {}
    print(
        f"perfbench {args.workload} seed={args.seed}"
        f" seconds={args.seconds:g} trace={args.trace}"
    )
    print("machine: " + json.dumps({**cpus, **machine()}))
    run = Run(args.workload, args.seed)
    try:
        warm_up(run)
        if args.record_goldens:
            seeds = input_seeds(run.workload, run.seed)
            for seed in seeds:
                PASSES[run.workload](run, {}, seed)
            if run.failed or len(run.digests) != len(seeds):
                print("\n".join(run.errors), file=sys.stderr)
                return 1
            recorded = goldens.setdefault(run.workload, {})
            for seed, digest in run.digests.items():
                recorded[str(seed)] = digest
                print(f"recorded golden of seed {seed}: {digest}")
            GOLDENS.write_text(
                json.dumps(goldens, indent=1, sort_keys=True) + "\n"
            )
            return 0
        if args.trace:
            values = trace(run, goldens, args.seconds)
            wanted = spec["per_layer"]
        else:
            e2e, detail = measure(run, goldens, args.seconds)
            values = e2e
            wanted = spec["end_to_end"]
            units = {
                m["name"]: m["unit"]
                for m in spec["end_to_end"] + spec["per_layer"]
            }
            for name, value in {**e2e, **detail}.items():
                shown = f"{value:.4f} {units[name]}" if value else "n/a"
                print(f"  {name:18s} {shown}")
        unknown = set(values) - {m["name"] for m in wanted}
        if unknown:
            raise RuntimeError(
                f"metrics missing from {SPEC.name}: {sorted(unknown)}"
            )
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    error_frac = run.failed / max(run.attempted, 1)
    print(
        f"  error_frac         {error_frac:.4f}"
        f" ({run.failed}/{run.attempted})"
    )
    for error in run.errors:
        print(f"error: {error}")
    metrics = {
        m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
        for m in wanted
    }
    if args.trace:
        metrics["error_frac"]["value"] = error_frac
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
