"""The three workloads, each a closed loop of ops with one client.

A batch is a fixed set of op shapes (player counts, horizons, trace lengths)
whose values are drawn from ``numpy.random.default_rng([seed, batch])``, so
every batch does the same amount of work on fresh inputs and the same seed
always yields the same inputs.  Ops call the package through module
attributes looked up at call time, so the tracer's wrappers see them.

* sweep: one C6 seed per op, no file I/O, no oracle.  Exercises the engine's
  continuous loop and the control kernel.
* pipeline: one CLI command per op on generated scenario files, n = 2..10,
  both schemes, dt subsampling, trace and CSV I/O.
* oracle: one verification call per op (verify, grid-Bayes on a full trace,
  best-response search); never runs the engine.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from beliefgames import cli, engine, equilibrium, normal_gamma, oracles, signals

import checks


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    digest: Callable[[object], dict[str, str]]
    fail_counter: str | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    tail_percentile: float
    plan: Callable[[np.random.Generator, Path], list[Op]]


def _sha(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _file_digests(root: Path, paths) -> dict[str, str]:
    return {str(p.relative_to(root)): _sha(p.read_bytes()) for p in sorted(paths)}


# -- sweep -------------------------------------------------------------------

SWEEP_SEEDS_PER_BATCH = 8
C6_SCENARIO = engine.Scenario(
    params=equilibrium.GameParams(a=(3.0, 3.0), tau=(1.0, 1.2), delta=0.8, rho=0.1, s0=0.1),
    mu_true=0.5,
    sigma=0.2,
    tau0=(0.6, 0.6),
    p0=(1.0, 1.0),
    r=(0.25, 0.25),
)
C6_CONFIG = engine.SimConfig(dt_signal=0.05, h_ode=0.05, horizon=200.0)


def _sweep_op(seed: int) -> Op:
    scn, cfg = C6_SCENARIO, C6_CONFIG

    def run():
        traj = engine.simulate(scn, cfg, seed=seed)
        tail = engine.window_diagnostics(traj, scn, 190.0, 200.0)
        mid = engine.window_diagnostics(traj, scn, 10.0, 20.0)
        return traj, tail, mid

    def check(out):
        traj, tail, mid = out
        traces = engine.default_traces(scn, cfg, seed)
        reasons = checks.continuous_beliefs(
            traj.t,
            traj.x_bar,
            traj.tau_bar,
            traj.P,
            traces.ecological.values,
            [c.values for c in traces.cost],
            cfg.dt_signal,
            scn,
        )
        reasons += checks.controls_and_stock(scn.params, traj.x_bar, traj.tau_bar, traj.u, traj.S)
        if not all(np.isfinite(list(w.as_dict().values())).all() for w in (tail, mid)):
            reasons.append("diagnostics-finite: non-finite window diagnostics")
        return reasons

    def digest(out):
        traj, tail, mid = out
        arrays = (traj.t, traj.S, traj.x_real, traj.x_bar, traj.var_mu, traj.tau_bar, traj.P, traj.u)
        return {
            f"seed{seed}/trajectory": _sha(*(np.ascontiguousarray(a).tobytes() for a in arrays)),
            f"seed{seed}/windows": _sha(json.dumps([tail.as_dict(), mid.as_dict()]).encode()),
        }

    return Op("simulate+diagnostics", run, check, digest)


def plan_sweep(rng: np.random.Generator, work: Path) -> list[Op]:
    return [_sweep_op(int(s)) for s in rng.integers(0, 2**32, SWEEP_SEEDS_PER_BATCH)]


# -- generated scenarios -----------------------------------------------------


def _draw(rng: np.random.Generator, n: int, rho: tuple[float, float] = (0.05, 0.2)) -> dict:
    """Scenario values far from the singular surfaces 1 - mu*delta -/+ rho = 0.

    p0/r ranges up to 9, around the default config's 4.
    """
    u = rng.uniform
    return {
        "a": u(2.5, 3.5, n),
        "tau": u(0.8, 1.4, n),
        "delta": u(0.6, 0.9),
        "rho": u(*rho),
        "s0": u(0.05, 0.3),
        "mu": u(0.3, 0.6),
        "sigma": u(0.1, 0.3),
        "r": u(0.25, 0.35, n),
        "mu0": u(0.0, 0.4),
        "kappa0": u(0.5, 2.0),
        "alpha0": u(1.5, 3.0),
        "beta0": u(0.5, 1.5),
        "tau0": u(0.4, 1.0, n),
        "p0": u(0.5, 2.25, n),
        "seed": int(rng.integers(0, 2**32)),
    }


def _ini(v: dict, horizon: float, dt: float) -> str:
    def cell(x):
        return ", ".join(repr(float(e)) for e in np.atleast_1d(x))

    return "\n".join(
        [
            "[scenario]",
            *(f"{k} = {cell(v[k])}" for k in ("a", "tau", "delta", "rho", "s0", "mu", "sigma", "r")),
            "[priors]",
            *(f"{k} = {cell(v[k])}" for k in ("mu0", "kappa0", "alpha0", "beta0", "tau0", "p0")),
            "[sim]",
            "scheme = continuous",
            f"dt_signal = {dt!r}",
            f"h_ode = {dt!r}",
            f"horizon = {horizon!r}",
            "dynamics_mode = realized",
            "clamp_controls = false",
            f"seed = {v['seed']}",
            "[output]",
            "directory = out",
            "",
        ]
    )


def _scenario(v: dict) -> engine.Scenario:
    return engine.Scenario(
        params=equilibrium.GameParams(
            a=tuple(v["a"]), tau=tuple(v["tau"]), delta=v["delta"], rho=v["rho"], s0=v["s0"]
        ),
        mu_true=v["mu"],
        sigma=v["sigma"],
        mu0=v["mu0"],
        kappa0=v["kappa0"],
        alpha0=v["alpha0"],
        beta0=v["beta0"],
        tau0=tuple(v["tau0"]),
        p0=tuple(v["p0"]),
        r=tuple(v["r"]),
    )


def _cli(args: list[str]) -> Callable[[], object]:
    return lambda: cli.main.main(args=args, prog_name="beliefgames", standalone_mode=False)


# -- pipeline ----------------------------------------------------------------

PIPELINE_PLAYERS = range(2, 11)
PIPELINE_HORIZON = 10.0
PIPELINE_DT = 0.02


def _pipeline_ops(rng: np.random.Generator, n: int, d: Path) -> list[Op]:
    v = _draw(rng, n)
    scn = _scenario(v)
    dt, horizon = PIPELINE_DT, PIPELINE_HORIZON
    n_obs = int(round(horizon / dt))
    d.mkdir(parents=True)
    ini = d / "scenario.ini"
    ini.write_text(_ini(v, horizon, dt), encoding="utf-8")
    trace_files = [d / "trace_ecological.csv"] + [d / f"trace_cost_{j + 1}.csv" for j in range(n)]

    def base(out: Path) -> list[str]:
        return ["--config", str(ini), "--out", str(out)]

    def traces() -> tuple[list[np.ndarray], list[str]]:
        values, reasons = [], []
        for path in trace_files:
            vals, bad = checks.read_trace_values(path, dt, n_obs)
            values.append(vals)
            reasons += bad
        return values, reasons

    def files(*paths):
        return lambda _out: _file_digests(d.parent, paths)

    def check_traces(_out):
        return traces()[1]

    def check_continuous(_out):
        values, reasons = traces()
        tr = checks.read_trajectory(d / "cont" / "trajectory.csv", n)
        reasons += checks.continuous_beliefs(
            tr["t"], tr["x_bar"], tr["tau_bar"], tr["P"], values[0], values[1:], dt, scn
        )
        return reasons + checks.controls_and_stock(scn.params, tr["x_bar"], tr["tau_bar"], tr["u"], tr["S"])

    def check_discrete(_out):
        values, reasons = traces()
        tr = checks.read_trajectory(d / "disc" / "trajectory.csv", n)
        reasons += checks.discrete_mean(tr["t"], tr["x_bar"], values[0], dt, scn)
        return reasons + checks.controls_and_stock(scn.params, tr["x_bar"], tr["tau_bar"], tr["u"], tr["S"])

    return [
        Op("gen-traces", _cli(base(d) + ["gen-traces"]), check_traces, files(*trace_files)),
        Op(
            "simulate",
            _cli(base(d / "cont") + ["simulate", "--traces", str(d)]),
            check_continuous,
            files(d / "cont" / "trajectory.csv"),
        ),
        Op(
            "simulate-discrete",
            _cli(base(d / "disc") + ["simulate", "--traces", str(d), "--scheme", "discrete"]),
            check_discrete,
            files(d / "disc" / "trajectory.csv"),
        ),
        Op(
            "compare-dt",
            _cli(base(d / "cmp") + ["compare-dt"]),  # the default dt list, 0.08,0.04,0.02
            lambda _out: checks.gaps_shrink(d / "cmp" / "dt_gaps.csv"),
            files(d / "cmp" / "dt_gaps.csv"),
            fail_counter="engine.compare.failed",
        ),
        Op(
            "equilibrium",
            _cli(base(d / "eq") + ["equilibrium"]),
            lambda _out: checks.equilibrium_json(d / "eq" / "equilibrium.json"),
            files(d / "eq" / "equilibrium.json"),
        ),
    ]


def plan_pipeline(rng: np.random.Generator, work: Path) -> list[Op]:
    ops = []
    for i, n in enumerate(rng.permutation(list(PIPELINE_PLAYERS))):
        ops += _pipeline_ops(rng, int(n), work / f"scenario{i}")
    return ops


# -- oracle ------------------------------------------------------------------

VERIFY_HORIZONS = (2.0, 10.0, 20.0)  # at dt 0.02: 100, 500 and 1000 observations
GRID_TRACES = ((50, 0.02), (500, 0.02), (1000, 0.05), (2000, 0.05))  # (observations, dt)
# Ten searches make the median op a best-response search whatever the batch
# count.  Their horizons, and so their latencies, are spread evenly over a 2x
# range: on a host whose speed switches between two levels, the median of ops
# of one size jumps between the levels, while that of a spread of sizes moves
# with the share of time spent at each.
BR_HORIZONS = np.linspace(60.0, 120.0, 10)
BR_DEVIATIONS = np.linspace(-0.5, 0.5, 201)
BR_STEP = 0.01


def _verify_op(rng: np.random.Generator, horizon: float, d: Path) -> Op:
    v = _draw(rng, int(rng.integers(1, 6)))
    d.mkdir(parents=True)
    ini = d / "scenario.ini"
    ini.write_text(_ini(v, horizon, 0.02), encoding="utf-8")
    report = d / "verification.json"
    return Op(
        "verify",
        _cli(["--config", str(ini), "--out", str(d), "verify"]),
        lambda _out: checks.verification_json(report),
        lambda _out: _file_digests(d.parent, [report]),
    )


def _grid_op(rng: np.random.Generator, n_obs: int, dt: float) -> Op:
    v = _draw(rng, 1)
    xs = v["mu"] + v["sigma"] * rng.standard_normal(n_obs)
    trace = signals.SignalTrace(t0=0.0, dt=dt, values=xs, label="ecological")
    prior = normal_gamma.NormalGammaBelief(v["mu0"], v["kappa0"], v["alpha0"], v["beta0"])

    def run():
        try:
            return oracles.grid_bayes_posterior(trace, prior)
        except ValueError as exc:
            # Coarse moments collapsed to a zero-width zoomed grid; any other
            # error propagates and fails the run as unexpected.
            if "grid bounds out of order" not in str(exc):
                raise
            return exc

    def digest(post):
        data = str(post).encode() if isinstance(post, ValueError) else np.array([post.mean, post.variance]).tobytes()
        return {f"grid{n_obs}": _sha(data)}

    return Op(
        f"grid-bayes-{n_obs}",
        run,
        lambda post: checks.grid_posterior(post, xs, prior),
        digest,
        fail_counter="oracles.grid.failed",
    )


def _best_response_op(rng: np.random.Generator, horizon: float) -> Op:
    n = int(rng.integers(1, 6))
    # rho >= 0.2 keeps the truncated payoff tail (exp(-60 rho)) below C4's tolerance.
    v = _draw(rng, n, rho=(0.2, 0.35))
    params = _scenario(v).params
    beliefs = equilibrium.BeliefProfile(x_bar=rng.uniform(0.3, 0.7), tau_bar=tuple(rng.uniform(0.6, 1.4, n)))
    player = int(rng.integers(0, n))

    def run():
        sol = equilibrium.solve_equilibrium(params, beliefs)
        believed = [sol.f1[j] + sol.f2 * beliefs.tau_bar[j] for j in range(n)]
        own = sol.controls[player]
        best = oracles.best_response_value(
            params, beliefs, believed, player, own + BR_DEVIATIONS, horizon, h=BR_STEP
        )
        base = oracles.best_response_value(params, beliefs, believed, player, [own], horizon, h=BR_STEP)
        return best, base

    step = float(BR_DEVIATIONS[1] - BR_DEVIATIONS[0])
    return Op(
        "best-response",
        run,
        lambda out: checks.best_response(out[0].best_value, out[1].best_value, step, params.rho),
        lambda out: {"best-response": _sha(out[0].values.tobytes(), out[1].values.tobytes())},
    )


def plan_oracle(rng: np.random.Generator, work: Path) -> list[Op]:
    ops = [_verify_op(rng, h, work / f"verify{i}") for i, h in enumerate(VERIFY_HORIZONS)]
    ops += [_grid_op(rng, n_obs, dt) for n_obs, dt in GRID_TRACES]
    ops += [_best_response_op(rng, float(h)) for h in BR_HORIZONS]
    return [ops[i] for i in rng.permutation(len(ops))]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep", 90.0, plan_sweep),
        Workload("pipeline", 95.0, plan_pipeline),
        # 17 ops a batch, three of them grid-Bayes on 500+ observations: p85
        # leaves about 2.5 ops a batch beyond it, inside the 500-observation
        # grid op's latencies rather than on the edge between two op shapes.
        Workload("oracle", 85.0, plan_oracle),
    )
}
