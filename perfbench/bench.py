"""Closed-loop runner: batches of ops, end-to-end and per-layer metrics, run record.

One process, one thread, one client: the next op starts only after the
previous one has finished and been checked.  Only the op itself is timed;
input generation, output checks and digests run between ops.  Batches run
until starting another would overrun ``seconds`` (at least one batch, and in
a traced run at least one untraced/traced pair).
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.metadata
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

from beliefgames import cli, engine, equilibrium, oracles

import checks
import spans
from workloads import WORKLOADS

SETUP_PROBES = 15
COMMANDS = ("gen-traces", "simulate", "compare-dt", "equilibrium", "verify")
MAX_LISTED_FAILURES = 50

# -- tracing targets ---------------------------------------------------------


def _counted(owner, attr: str, layer: str, key: str, fn, also: tuple[str, ...] = ()) -> spans.Target:
    """A target whose work count ``key`` grows by ``fn(arguments, result)`` per call;
    ``also`` declares counts that the runner adds to."""
    return spans.Target(owner, attr, layer, lambda tracer, a, r: tracer.count(key, fn(a, r)), (key, *also))


def _csv(tracer, a, result):
    tracer.count("engine.csv.rows", a["self"].t.size)
    tracer.count("engine.csv.bytes", os.path.getsize(a["path"]))


def _grid_cells(a, result):
    grid = a["grid"]
    if grid is None:  # a wide pass plus a zoomed pass
        return 2 * len(a["observations"]) * a["n_mu"] * a["n_lam"]
    return len(a["observations"]) * grid.n_mu * grid.n_lam


def _crosscheck(tracer, a, report):
    tracer.count("oracles.crosscheck.checks", len(report.checks))
    tracer.count("oracles.crosscheck.failed", sum(not c.passed for c in report.checks))


def _points(a, result):
    return result.t.size


def _values(a, result):
    return len(result)


def _file_size(a, result):
    return os.path.getsize(a["path"])


def tracing_targets() -> list[spans.Target]:
    """The names each calling module looks up, mapped to the layer they enter."""
    T, C = spans.Target, _counted
    targets = [
        C(engine, "simulate", "engine.simulate", "engine.grid_points", _points),
        C(cli, "simulate", "engine.simulate", "engine.grid_points", _points),
        T(engine, "control_kernel", "equilibrium.kernel"),
        T(engine, "step_discrete", "normal_gamma.step"),
        T(engine, "step_discrete_kalman", "kalman.step"),
        C(engine, "sample_ecological_trace", "signals.sample", "signals.sample.values", _values),
        C(engine, "sample_cost_trace", "signals.sample", "signals.sample.values", _values),
        T(engine, "window_diagnostics", "engine.diagnostics"),
        T(engine.Trajectory, "to_csv", "engine.csv", _csv, ("engine.csv.rows", "engine.csv.bytes")),
        # one per compare-dt op that fails C7
        T(cli, "compare_schemes", "engine.compare", None, ("engine.compare.failed",)),
        C(cli, "save_trace", "signals.save", "signals.save.bytes", _file_size),
        C(cli, "load_trace", "signals.load", "signals.load.bytes", _file_size),
        T(cli, "parse_config", "config.parse"),
        T(cli, "default_config", "config.parse"),
        T(cli, "equilibrium_report", "equilibrium.report"),
        T(
            cli,
            "closed_form_cross_check",
            "oracles.crosscheck",
            _crosscheck,
            ("oracles.crosscheck.checks", "oracles.crosscheck.failed"),
        ),
        T(equilibrium, "solve_equilibrium", "equilibrium.solve"),
        T(oracles, "solve_equilibrium", "equilibrium.solve"),
        C(oracles, "belief_path", "normal_gamma.path", "normal_gamma.path.steps", lambda a, r: r.t.size - 1),
        C(
            oracles,
            "integrate_kalman",
            "kalman.integrate",
            "kalman.integrate.steps",
            lambda a, r: round(a["duration"] / a["h"]),
        ),
        C(
            oracles,
            "grid_bayes_posterior",
            "oracles.grid",
            "oracles.grid.cell_updates",
            _grid_cells,
            also=("oracles.grid.failed",),  # one per grid op that fails its check
        ),
        C(
            oracles,
            "best_response_value",
            "oracles.best_response",
            "oracles.best_response.cell_steps",
            lambda a, r: len(a["deviations"]) * math.ceil(a["t_trunc"] / a["h"] - 1e-9),
        ),
    ]
    targets += [T(cli.main.commands.get(c), "callback", f"cli.{c}") for c in COMMANDS]
    return targets


# -- run record --------------------------------------------------------------

_PROBE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, "src")
import beliefgames, beliefgames.cli
t1 = time.perf_counter()
beliefgames.config.default_config()
print((t1 - t0) * 1e3, flush=True)
"""


def probe_setup(root: Path, count: int) -> tuple[list[float], list[float]]:
    """Time fresh processes from start until imports and the default config are done."""
    walls, imports = [], []
    for _ in range(count):
        t0 = perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", _PROBE], cwd=root, stdout=subprocess.PIPE, text=True
        ) as proc:
            line = proc.stdout.readline()
            walls.append(perf_counter() - t0)
            proc.stdout.read()
            if proc.wait(timeout=60) != 0:
                raise RuntimeError("set-up probe failed")
        imports.append(float(line))
    return walls, imports


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError:
        return ""


def machine() -> dict:
    model = next(
        (ln.split(":", 1)[1].strip() for ln in _read("/proc/cpuinfo").splitlines() if ln.startswith("model name")),
        platform.processor() or "unknown",
    )
    mem_kb = next(
        (int(ln.split()[1]) for ln in _read("/proc/meminfo").splitlines() if ln.startswith("MemTotal:")),
        0,
    )
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model, "mem_total_mb": round(mem_kb / 1024)}


def versions() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "click": importlib.metadata.version("click"),
    }


def source(root: Path) -> dict:
    """Git SHA and dirtiness when the checkout is a repository; always a source digest."""
    h = hashlib.sha256()
    for path in sorted((root / "src" / "beliefgames").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".ini"):
            h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    out = {"src_sha256": h.hexdigest(), "git_sha": None, "git_dirty": None}
    if (root / ".git").exists() and shutil.which("git"):
        def git(*args):
            return subprocess.run(["git", *args], cwd=root, capture_output=True, text=True, timeout=30)

        head = git("rev-parse", "HEAD")
        if head.returncode == 0:
            out["git_sha"] = head.stdout.strip()
            out["git_dirty"] = bool(git("status", "--porcelain", "--untracked-files=no").stdout.strip())
    return out


# -- the loop ----------------------------------------------------------------


class Run:
    """Accumulates op outcomes over the batches of one run."""

    def __init__(self):
        self.latencies: list[float] = []
        self.batch_walls: list[tuple[bool, float]] = []
        self.attempted = 0
        self.raised = 0
        self.failures: list[dict] = []
        self.kinds: Counter = Counter()
        self.batch_digests: list[str] = []
        self.mismatches: list[str] = []
        self.artifacts: dict[str, str] | None = None

    def batch(self, ops, batch: int, tracer: spans.Tracer | None, op_name: str) -> str:
        """Run, check and digest one batch of ops; returns the batch digest."""
        wall = 0.0
        digests = []
        for op in ops:
            op_id = self.attempted
            self.attempted += 1
            self.kinds[op.kind] += 1
            error = None
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink):
                root = tracer.begin_op(op_id, op_name) if tracer else None
                t0 = perf_counter()
                try:
                    result = op.run()
                except Exception as exc:  # an op that raises is a failed op, not a crash
                    error = f"raised: {type(exc).__name__}: {exc}"
                dt = perf_counter() - t0
                if tracer:
                    tracer.end_op(root)
            wall += dt
            self.latencies.append(dt)
            if error is None:
                try:
                    reasons = op.check(result)
                    digests.append(op.digest(result))
                except Exception as exc:  # a missing or malformed artifact fails the op
                    reasons = [f"check-raised: {type(exc).__name__}: {exc}"]
                    digests.append({f"{op.kind}/error": reasons[0]})
            else:
                self.raised += 1
                reasons = [error]
                digests.append({f"{op.kind}/error": error})
            if reasons:
                self.failures.append({"op": op_id, "batch": batch, "kind": op.kind, "reasons": reasons})
                if tracer and op.fail_counter:
                    tracer.count(op.fail_counter, 1)
        self.batch_walls.append((tracer is not None, wall))
        if self.artifacts is None:
            self.artifacts = {k: v for d in digests for k, v in d.items()}
        return hashlib.sha256(json.dumps(digests).encode()).hexdigest()

    def failed_ops(self) -> list[dict]:
        """Ops that failed other than by a known defect in its measured form and rate."""
        known = checks.tolerated(self.failures, self.kinds)
        return [f for f in self.failures if checks.unexpected(f["reasons"], known)]

    @property
    def failed(self) -> int:
        return len(self.failed_ops())

    def unexpected(self) -> list[str]:
        return (
            self.mismatches
            + [r for f in self.failures for r in checks.unexpected(f["reasons"])]
            + checks.level_noise_excess(self.failures, self.kinds)
        )


def run_workload(name: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    """Run one workload; returns the result line and the run record."""
    workload = WORKLOADS[name]
    probe_walls, probe_imports = probe_setup(root, SETUP_PROBES)
    work_root = root / ".perfbench_work"
    work = work_root / f"{name}-seed{seed}-trace{int(trace)}-pid{os.getpid()}"
    tracer = spans.Tracer(tracing_targets()) if trace else None
    run = Run()
    # A traced run plays each batch's inputs twice, untraced then traced, so
    # the pair gives the tracing overhead and must agree byte for byte.
    modes = (False, True) if trace else (False,)
    t_start = perf_counter()
    try:
        batch = 0
        while True:
            for traced in modes:
                batch_dir = work / f"batch{batch}-{'traced' if traced else 'plain'}"
                batch_dir.mkdir(parents=True)
                ops = workload.plan(np.random.default_rng([seed, batch]), batch_dir)
                if traced:
                    tracer.install()
                try:
                    digest = run.batch(ops, batch, tracer if traced else None, f"op.{name}")
                finally:
                    if traced:
                        tracer.uninstall()
                        tracer.end_batch()
                shutil.rmtree(batch_dir)
                if not traced:
                    run.batch_digests.append(digest)
                elif digest != run.batch_digests[-1]:
                    run.mismatches.append(f"determinism: batch {batch} traced digest differs from untraced")
            batch += 1
            elapsed = perf_counter() - t_start
            if elapsed * (batch + 1) / batch > seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lat = np.array(run.latencies)
    pct = workload.tail_percentile
    beyond = int(np.sum(lat > np.percentile(lat, pct)))
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "machine": machine(),
        "versions": versions(),
        "source": source(root),
        "threads": {v: os.environ.get(v) for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "ops": {
            "attempted": run.attempted,
            "raised": run.raised,
            "failed": run.failed,
            "known_defect_ops": len(run.failures) - run.failed,
            "batches": len(run.batch_walls),
            "ops_per_batch": run.attempted // max(len(run.batch_walls), 1),
        },
        "failed_frac": run.failed / run.attempted,
        "known_defect_frac": (len(run.failures) - run.failed) / run.attempted,
        "failure_counts": dict(Counter(r.split(":", 1)[0] for f in run.failures for r in f["reasons"])),
        "failures": run.failures[:MAX_LISTED_FAILURES],
        "mismatches": run.mismatches,
        "tail": {"metric": "op_tail_ms", "percentile": pct, "samples": int(lat.size), "beyond": beyond},
        "setup_samples_s": probe_walls,
        "digest": run.batch_digests[0],
        "batch_digests": run.batch_digests,
        "artifacts_batch0": run.artifacts,
    }
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    if trace:
        work_root.mkdir(exist_ok=True)
        spans_path = work_root / f"spans-{name}-seed{seed}.npz"
        tracer.write_spans(spans_path)
        record["spans_file"] = str(spans_path.relative_to(root))
        record["unpatched"] = tracer.unpatched
        record["counter_errors"] = tracer.counter_errors[:MAX_LISTED_FAILURES]
        spec = spec["per_layer"]
        values = layer_metrics([m["name"] for m in spec], tracer, run, statistics.median(probe_imports))
    else:
        ok = run.attempted - run.raised
        values = {
            "setup_s": statistics.median(probe_walls),
            # The mean, not the median: the host's speed drifts in phases of
            # seconds, and a mean moves smoothly with the time spent in each.
            "wall_s": statistics.fmean(w for _, w in run.batch_walls),
            "ops_per_s": ok / float(lat.sum()),
            "op_p50_ms": float(np.median(lat)) * 1e3,
            "op_tail_ms": float(np.percentile(lat, pct)) * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        spec = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}
    result = {
        "correct": not run.unexpected(),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    return {"result": result, "record": record}


def layer_metrics(names: list[str], tracer: spans.Tracer, run: Run, import_ms: float) -> dict[str, float]:
    """The per-layer metrics ``names``, each per traced batch: ``<layer>.calls``,
    ``<layer>.self_ms``, a work count, or one of the derived ratios below."""
    nb = max(tracer.batches, 1)
    points = tracer.counts["engine.grid_points"]
    traced = sum(w for t, w in run.batch_walls if t)
    untraced = sum(w for t, w in run.batch_walls if not t)
    out = {
        "engine.us_per_point": tracer.incl_s["engine.simulate"] * 1e6 / points if points else 0.0,
        "equilibrium.kernel.calls_per_point": tracer.calls["equilibrium.kernel"] / points if points else 0.0,
        "import.beliefgames_ms": import_ms,
        "trace.overhead_frac": traced / untraced - 1.0,
    }
    for name in names:
        layer, _, stat = name.rpartition(".")
        if name in out:
            continue
        if name in tracer.counts:
            out[name] = tracer.counts[name] / nb
        elif stat == "calls":
            out[name] = tracer.calls[layer] / nb
        elif stat == "self_ms":
            out[name] = tracer.self_s[layer] * 1e3 / nb
        else:
            raise KeyError(f"no layer or work count gives the metric {name!r}")
    return out
