"""Command-line entry points: gen-traces, simulate, compare-dt, equilibrium, verify."""

from __future__ import annotations

import json
from dataclasses import astuple
from pathlib import Path

import click

from .config import ScenarioConfig, default_config, parse_config
from .engine import SCHEMES, TraceSet, compare_schemes, default_traces, simulate
from .equilibrium import BeliefProfile, equilibrium_report
from .errors import BeliefGameError
from .oracles import closed_form_cross_check
from .signals import _write_csv, load_trace, save_trace

_NOTE = "scenario constants are repository defaults, not published values"


class _Group(click.Group):
    """Reports the package's typed errors and invalid values as one-line CLI
    errors (exit 1, no traceback), whichever command raises them."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (BeliefGameError, ValueError) as exc:
            raise click.ClickException(str(exc)) from exc


@click.group(cls=_Group)
@click.option("--config", "config_path", default=None, help="Scenario INI file.")
@click.option("--seed", type=int, default=None, help="Override the configured seed.")
@click.option("--out", default=None, help="Override the output directory.")
@click.pass_context
def main(ctx, config_path, seed, out):
    """Differential-game simulation with online Bayesian belief updating."""

    def load(**flags) -> ScenarioConfig:  # a command's flags override the file
        flags.update(seed=seed, directory=out)
        if config_path:
            return parse_config(config_path, **flags)
        return default_config(**flags)

    ctx.obj = load


def _out_dir(cfg: ScenarioConfig) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    path.write_text(text + "\n", encoding="utf-8")


def _trace_paths(out: Path, n: int) -> list[Path]:
    return [out / "trace_ecological.csv"] + [
        out / f"trace_cost_{j + 1}.csv" for j in range(n)
    ]


@main.command("gen-traces")
@click.pass_obj
def cmd_gen_traces(load):
    """Persist the seeded signal traces for later replay."""
    cfg = load()
    out = _out_dir(cfg)
    traces = default_traces(cfg.scenario, cfg.sim, cfg.seed)
    paths = _trace_paths(out, cfg.scenario.params.n)
    for path, trace in zip(paths, (traces.ecological, *traces.cost)):
        save_trace(trace, path)
        click.echo(f"wrote {path}")


@main.command("simulate")
@click.option("--dt", type=float, default=None, help="Override the signal interval.")
@click.option("--horizon", type=float, default=None, help="Override the horizon.")
@click.option(
    "--scheme",
    type=click.Choice(SCHEMES),
    default=None,
    help="Override the updating scheme.",
)
@click.option(
    "--traces",
    "traces_dir",
    default=None,
    help="Replay traces from a directory written by gen-traces.",
)
@click.pass_obj
def cmd_simulate(load, dt, horizon, scheme, traces_dir):
    """Run one trajectory and write trajectory.csv."""
    cfg = load(dt_signal=dt, horizon=horizon, scheme=scheme)
    out = _out_dir(cfg)
    if traces_dir is not None:
        paths = _trace_paths(Path(traces_dir), cfg.scenario.params.n)
        loaded = [load_trace(p) for p in paths]
        tset = TraceSet(ecological=loaded[0], cost=tuple(loaded[1:]))
        traj = simulate(cfg.scenario, cfg.sim, traces=tset)
    else:
        traj = simulate(cfg.scenario, cfg.sim, seed=cfg.seed)
    path = out / "trajectory.csv"
    traj.to_csv(path)
    click.echo(f"wrote {path} ({traj.t.size} grid points)")


@main.command("compare-dt")
@click.option(
    "--dt-list",
    default="0.08,0.04,0.02",
    show_default=True,
    help="Comma-separated signal intervals to sweep.",
)
@click.pass_obj
def cmd_compare_dt(load, dt_list):
    """Sweep signal intervals and write the discrete-vs-continuous gap table."""
    cfg = load()
    dts = [float(v) for v in dt_list.split(",") if v.strip()]
    rows = compare_schemes(cfg.scenario, cfg.sim, dts, cfg.seed)
    path = _out_dir(cfg) / "dt_gaps.csv"
    head = ["dt,gap_x_bar,gap_tau_bar,gap_u,gap_S"]
    _write_csv(path, head, [astuple(r) for r in rows])
    click.echo(f"wrote {path}")


@main.command("equilibrium")
@click.pass_obj
def cmd_equilibrium(load):
    """Solve the equilibrium at converged beliefs and write equilibrium.json."""
    cfg = load()
    scn = cfg.scenario
    beliefs = BeliefProfile(x_bar=scn.mu_true, tau_bar=scn.params.tau)
    report = equilibrium_report(scn.params, beliefs, mu_true=scn.mu_true)
    path = _out_dir(cfg) / "equilibrium.json"
    _write_json(path, {**report, "note": _NOTE})
    click.echo(f"wrote {path}")


@main.command("verify")
@click.pass_obj
def cmd_verify(load):
    """Run the closed-form oracle suite; exit nonzero on any failed check."""
    cfg = load()
    report = closed_form_cross_check(cfg.scenario, cfg.sim, cfg.seed)
    path = _out_dir(cfg) / "verification.json"
    _write_json(path, {**report.as_dict(), "note": _NOTE})
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        click.echo(f"{status} {check.name}: observed={check.observed:.3g}")
    click.echo(f"wrote {path}")
    if not report.all_passed:
        raise click.ClickException("verification failed")


if __name__ == "__main__":
    main()
