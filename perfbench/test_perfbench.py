"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q perfbench

Each workload is run at smoke size (one batch, or one untraced/traced pair).
"""

from __future__ import annotations

import dataclasses
import functools
import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RUN = ROOT / "perfbench" / "run.py"
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402
import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from beliefgames import cli, engine, oracles  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _cli(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "5", "--seconds", "0", "--trace", str(trace)],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


def _record(stdout: str) -> dict:
    return json.loads(next(ln for ln in stdout.splitlines() if ln.startswith("record "))[7:])


@functools.cache
def _smoke(trace: int) -> dict:
    out = {}
    for workload in WORKLOADS:
        proc = _cli(ROOT, workload, trace)
        assert proc.returncode == 0, proc.stderr
        out[workload] = (proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


@pytest.fixture(params=[0, 1], ids=["timed", "traced"])
def smoke(request):
    return request.param, _smoke(request.param)


def test_smoke_prints_every_metric(smoke):
    trace, out = smoke
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    for workload, (stdout, result) in out.items():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["attempted"] >= 1
        assert {m: v["unit"] for m, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
        for m in expected:
            assert m["name"] in stdout, (workload, m["name"])
        record = _record(stdout)
        assert record["machine"]["nproc"] >= 1 and record["versions"]["numpy"]
        assert len(record["digest"]) == 64 and record["source"]["src_sha256"]
        assert record["threads"]["OPENBLAS_NUM_THREADS"] == "1"


def _known_only(record: dict) -> bool:
    return not checks.unexpected([r for f in record["failures"] for r in f["reasons"]])


def test_clean_runs_have_no_failures(smoke):
    trace, out = smoke
    assert _record(out["sweep"][0])["failures"] == []
    # pipeline and oracle may show the known defects in their measured forms
    # (a compare-dt level that grows once; the grid-Bayes coarse pass), which
    # are counted apart from failed ops.
    for workload, (stdout, result) in out.items():
        assert result["correct"] and result["failed"] == 0, workload
        assert _known_only(_record(stdout)), workload


def test_traced_run_counts_layers():
    out = _smoke(1)
    sweep = out["sweep"][1]["metrics"]
    assert sweep["engine.simulate.calls"]["value"] > 0
    assert sweep["equilibrium.kernel.calls_per_point"]["value"] > 4.0
    oracle = out["oracle"][1]["metrics"]
    assert oracle["engine.simulate.calls"]["value"] == 0
    assert oracle["oracles.grid.calls"]["value"] > 0
    pipeline = out["pipeline"][1]["metrics"]
    for command in bench.COMMANDS[:4]:
        assert pipeline[f"cli.{command}.calls"]["value"] > 0, command


def _run_in_process(workload: str, seed: int = 9) -> dict:
    return bench.run_workload(workload, seed, 0.0, False, ROOT)


def test_shifted_control_is_caught(monkeypatch):
    original = engine.control_kernel

    def shifted(*args):
        u = original(*args)
        u[0] += 1e-6
        return u

    monkeypatch.setattr(engine, "control_kernel", shifted)
    out = _run_in_process("sweep")
    assert out["result"]["failed"] > 0 and not out["result"]["correct"]
    assert out["record"]["failed_frac"] > 0
    assert "u-vs-solve_equilibrium" in out["record"]["failure_counts"]


def test_perturbed_trace_is_caught(monkeypatch):
    original = cli.load_trace

    def perturbed(path):
        trace = original(path)
        values = trace.values.copy()
        values[len(values) // 2] += 1e-6
        return type(trace)(t0=trace.t0, dt=trace.dt, values=values, label=trace.label)

    monkeypatch.setattr(cli, "load_trace", perturbed)
    out = _run_in_process("pipeline")
    assert out["record"]["failed_frac"] > 0 and not out["result"]["correct"]


def test_shifted_grid_means_are_not_taken_for_the_known_defect(monkeypatch):
    original = oracles.grid_bayes_posterior

    def shifted(*args, **kwargs):
        post = original(*args, **kwargs)
        return type(post)(mean=post.mean * (1.0 + 2e-3), variance=post.variance)

    monkeypatch.setattr(oracles, "grid_bayes_posterior", shifted)
    out = _run_in_process("oracle")
    grid_reasons = [r for f in out["record"]["failures"] if f["kind"].startswith("grid-bayes") for r in f["reasons"]]
    # A shift can bring a coarse-pass miss back within C3; none is tolerated.
    assert len(grid_reasons) >= len(workloads.GRID_TRACES) - 1
    assert all(r.startswith("grid-bayes-mean:") for r in grid_reasons)
    assert out["result"]["failed"] == len(grid_reasons) and not out["result"]["correct"]


def test_missing_artifact_fails_the_op_not_the_run(monkeypatch):
    monkeypatch.setattr(engine.Trajectory, "to_csv", lambda self, path: None)
    out = _run_in_process("pipeline")
    reasons = [r for f in out["record"]["failures"] for r in f["reasons"]]
    assert reasons and all(r.startswith("check-raised: FileNotFoundError") for r in reasons)
    assert out["result"]["failed"] == 2 * len(workloads.PIPELINE_PLAYERS)
    assert not out["result"]["correct"]


def test_stock_gap_that_stops_shrinking_everywhere_is_caught(monkeypatch):
    original = cli.compare_schemes

    def flat_stock(*args, **kwargs):
        rows = original(*args, **kwargs)
        return [dataclasses.replace(r, stock=rows[0].stock) for r in rows]

    monkeypatch.setattr(cli, "compare_schemes", flat_stock)
    out = _run_in_process("pipeline")
    assert out["record"]["failure_counts"] == {"dt-gaps-level-noise": len(workloads.PIPELINE_PLAYERS)}
    # Past the measured rate the level noise is no longer tolerated.
    assert out["result"]["failed"] == len(workloads.PIPELINE_PLAYERS)
    assert not out["result"]["correct"]


def _gaps_csv(tmp_path: Path, column: int, gaps: list[float]) -> Path:
    path = tmp_path / "dt_gaps.csv"
    rows = ["dt_signal,gap_x_bar,gap_tau_bar,gap_u,gap_S"]
    for level, dt in enumerate((0.08, 0.04, 0.02)):
        cells = [dt, dt, dt, dt]
        cells[column] = gaps[level]
        rows.append(",".join(str(v) for v in [dt, *cells]))
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return path


@pytest.mark.parametrize(
    "column, gaps, fails",
    [
        (3, [0.4, 0.2, 0.1], False),
        (3, [0.4, 0.5, 0.2], True),
        (3, [0.4, 0.4, 0.4], True),
        (0, [0.4, 0.2, 0.25], True),
    ],
)
def test_dt_gaps_must_shrink_at_every_halving(tmp_path, column, gaps, fails):
    reasons = checks.gaps_shrink(_gaps_csv(tmp_path, column, gaps))
    assert [r.split(":", 1)[0] for r in reasons] == (["dt-gaps-level-noise"] if fails else [])


@pytest.mark.parametrize("noisy, ops, excess", [(2, 9, False), (3, 9, True), (12, 108, False), (13, 108, True)])
def test_level_noise_rate(noisy, ops, excess):
    failures = [{"reasons": ["dt-gaps-level-noise: gap_S"]}] * noisy + [{"reasons": ["grid-bayes-mean: x"]}] * 5
    assert bool(checks.level_noise_excess(failures, Counter({"compare-dt": ops, "simulate": 500}))) == excess


def test_known_defects_are_counted_apart_from_failed_ops():
    run = bench.Run()
    run.kinds = Counter({"compare-dt": 9, "grid-bayes-2000": 3})
    run.failures = [
        {"reasons": ["dt-gaps-level-noise: gap_S"]},
        {"reasons": ["grid-bayes-coarse-collapse: x"]},
        {"reasons": ["grid-bayes-mean: y"]},
    ]
    assert run.failed == 1
    run.failures += [{"reasons": ["dt-gaps-level-noise: gap_u"]}] * 2  # 3 of 9, over 2 + 10%
    assert run.failed == 4


def test_unused_and_missing_targets_record_zero():
    holder = type("Holder", (), {"present": staticmethod(lambda: 1)})
    tracer = spans.Tracer([spans.Target(holder, "present", "a"), spans.Target(holder, "absent", "b")])
    tracer.install()
    tracer.uninstall()
    tracer.end_batch()
    assert tracer.calls["a"] == 0 and tracer.calls["b"] == 0
    assert tracer.unpatched == ["b (absent)"]


@pytest.mark.parametrize("name", ["engine.simulat.calls", "engine.simulate.steps", "engine.nope"])
def test_unknown_layer_metric_is_refused(name):
    run = bench.Run()
    run.batch_walls = [(False, 1.0), (True, 1.1)]
    tracer = spans.Tracer(bench.tracing_targets())
    assert bench.layer_metrics(["engine.simulate.calls"], tracer, run, 0.0)["engine.simulate.calls"] == 0
    with pytest.raises(KeyError):
        bench.layer_metrics([name], tracer, run, 0.0)


def test_refuses_to_run_without_the_package(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _cli(tmp_path, "sweep", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
