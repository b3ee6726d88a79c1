"""Feedback Nash equilibrium of the linear-state pollution game.

Each player's value function is affine in the stock, V_i(S) = A_i S + B_i,
and the stationarity system for the controls is linear, so the equilibrium
is computed exactly: A_i comes from matching the S-coefficients of the
dynamic-programming equation (done numerically by a two-point linear fit in
S rather than by trusting any printed formula), and the control intercepts
f1 solve an n-by-n linear system.  Published closed-form expressions for the
controls are evaluated alongside for comparison, and the deltas are part of
the report; they are not used as ground truth because they are not mutually
consistent with the coefficient-matched system.  Where their denominator
1 - x_bar*delta - rho is numerically zero they evaluate to NaN: they report,
they never abort a solve.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import SingularSystemError

EPS_SINGULAR = 1e-9


def violations(rules, values: dict):
    """Yield ``(key, message)`` for each non-finite float or float tuple in
    ``values``, then for each rule ``(keys, holds, message)`` whose keys all
    have values and where ``holds`` is false of them, which NaN always is;
    ``message`` is formatted with those values and reported under keys[0]."""
    for key, value in values.items():
        cells = value if isinstance(value, tuple) else (value,)
        floats = all(isinstance(c, (float, np.floating)) for c in cells)
        if floats and not all(map(math.isfinite, cells)):
            yield key, ("entries " if cells is value else "") + "must be finite"
    for keys, holds, message in rules:
        args = [values[key] for key in keys if key in values]
        if len(args) == len(keys) and not holds(*args):
            yield keys[0], message.format(*args)


@dataclass(frozen=True)
class GameParams:
    """Scenario constants: emission intercepts a_i, cost types tau_i, retention
    fraction delta, discount rate rho, and initial stock s0."""

    a: tuple[float, ...]
    tau: tuple[float, ...]
    delta: float
    rho: float
    s0: float = 0.0

    RULES = (
        (("delta",), lambda x: 0.0 < x <= 1.0, "must lie in (0, 1], got {}"),
        (("rho",), lambda x: x > 0.0, "must be positive, got {}"),
        (("s0",), lambda x: x >= 0.0, "must be non-negative, got {}"),
        (("tau",), lambda v: min(v) >= 0.0, "entries must be non-negative"),
    )

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(float(v) for v in self.a))
        object.__setattr__(self, "tau", tuple(float(v) for v in self.tau))
        if len(self.a) < 1:
            raise ValueError("need at least one player")
        if len(self.tau) != len(self.a):
            raise ValueError("a and tau must have one entry per player")
        for key, message in violations(self.RULES, vars(self)):
            raise ValueError(f"{key}: {message}")

    @property
    def n(self) -> int:
        return len(self.a)


@dataclass(frozen=True)
class BeliefProfile:
    """Public beliefs entering the equilibrium: the expected ecological factor
    x_bar and the estimated cost types tau_bar."""

    x_bar: float
    tau_bar: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "tau_bar", tuple(float(v) for v in self.tau_bar))
        if not math.isfinite(self.x_bar):
            raise ValueError("x_bar must be finite")
        if any(not math.isfinite(v) for v in self.tau_bar):
            raise ValueError("tau_bar entries must be finite")


@dataclass(frozen=True)
class EquilibriumSolution:
    f1: tuple[float, ...]
    f2: float
    value_slopes: tuple[float, ...]
    controls: tuple[float, ...]
    foc_residual: float


def _published_denominator(x_bar: float, delta: float, rho: float) -> float:
    # 1 - x_bar*delta - rho, shared by the published coefficient and slope;
    # NaN on its singular surface, so every published form reports NaN there.
    den = 1.0 - x_bar * delta - rho
    return math.nan if abs(den) <= EPS_SINGULAR else den


def _max_gap(a, b) -> float:
    # Largest elementwise |a_i - b_i|: how far a published form is off.
    return max(abs(x - y) for x, y in zip(a, b))


def c_bar(x_bar: float, delta: float, rho: float) -> float:
    """The published discounting coefficient -x_bar / (1 - x_bar*delta - rho);
    NaN where the denominator is within EPS_SINGULAR of zero."""
    return -x_bar / _published_denominator(x_bar, delta, rho)


def _maximized_rhs(s: float, slope: float, tau_i: float, x_bar: float, delta: float) -> float:
    # Right side of the stationarity equation at stock level s, with the
    # candidate value slope inserted and the player's control maximized out;
    # a_i = 1 and the other players' controls at zero.
    u = 0.5 * (1.0 + slope * x_bar)
    payoff = u * (1.0 - u) - tau_i * s
    drift = x_bar * u - (1.0 - x_bar * delta) * s
    return payoff + slope * drift


def value_slope(tau_i: float, x_bar: float, delta: float, rho: float) -> float:
    """Value-function slope A_i from numerical coefficient matching.

    The S-coefficient of the maximized right side is extracted by a two-point
    linear fit in S; it is itself affine in the candidate slope, so the
    matching equation rho*A = coeff(A) is solved exactly.  Other players'
    controls do not enter the S-coefficient and are fixed at zero here.
    """

    def s_coeff(slope: float) -> float:
        hi = _maximized_rhs(1.0, slope, tau_i, x_bar, delta)
        lo = _maximized_rhs(0.0, slope, tau_i, x_bar, delta)
        return hi - lo

    c0 = s_coeff(0.0)
    c1 = s_coeff(1.0) - c0
    den = rho - c1
    if abs(den) <= EPS_SINGULAR:
        raise SingularSystemError(f"slope matching is singular: rho - {c1!r} ~ 0")
    return c0 / den


def closed_form_value_slope(
    tau_i: float, x_bar: float, delta: float, rho: float
) -> float:
    """Published slope -tau_i / (1 - x_bar*delta - rho), kept for comparison."""
    return -tau_i / _published_denominator(x_bar, delta, rho)


def control_kernel(
    a: tuple[float, ...],
    tau: tuple[float, ...],
    tau_bar: tuple[float, ...] | np.ndarray,
    x_bar: float | np.ndarray,
    delta: float,
    rho: float,
) -> np.ndarray:
    """Fast path for the equilibrium controls, broadcasting over time.

    Uses the aggregation identity of the intercept system instead of a matrix
    solve; must stay numerically equal to solve_equilibrium (pinned by tests).
    ``x_bar`` of shape (T,) with ``tau_bar`` of shape (T, n) gives a (T, n)
    array.  Players are summed in order, so each row equals the scalar call
    bit for bit.  The caller keeps 1 + rho - x_bar*delta off zero: the engine
    solves only the points before the first singular one.
    """
    x_bar = np.asarray(x_bar, dtype=float)
    tau_bar = np.asarray(tau_bar, dtype=float)
    f2 = -0.5 * x_bar / (1.0 + rho - x_bar * delta)
    n = len(a)
    total_tb = 0.0
    for i in range(n):
        total_tb = total_tb + tau_bar[..., i]
    rhs = [a[i] - f2 * (total_tb - tau_bar[..., i]) for i in range(n)]
    sum_rhs = 0.0
    for v in rhs:
        sum_rhs = sum_rhs + v
    sum_f1 = sum_rhs / (n + 1.0)
    u = np.stack([rhs[i] - sum_f1 + f2 * tau[i] for i in range(n)], axis=-1)
    return u


def foc_residual(
    p: GameParams,
    b: BeliefProfile,
    f1: tuple[float, ...],
    f2: float,
    value_slopes: tuple[float, ...],
) -> float:
    """Max deviation from first-order stationarity for a candidate solution."""
    n = p.n
    u = [f1[i] + f2 * p.tau[i] for i in range(n)]
    u_believed = [f1[j] + f2 * b.tau_bar[j] for j in range(n)]
    total_believed = sum(u_believed)
    worst = 0.0
    for i in range(n):
        others = total_believed - u_believed[i]
        res = p.a[i] - 2.0 * u[i] - others + value_slopes[i] * b.x_bar
        worst = max(worst, abs(res))
    return worst


@functools.cache
def _intercept_system(n: int) -> np.ndarray:
    # I + 11^T, eigenvalues 1 and n+1; built once per n and shared read-only.
    system = np.eye(n) + np.ones((n, n))
    system.flags.writeable = False
    return system


def solve_equilibrium(p: GameParams, b: BeliefProfile) -> EquilibriumSolution:
    """Equilibrium controls from coefficient matching plus the intercept system.

    The shared slope coefficient is f2 = x_bar * A(1) / 2 with A from
    value_slope; the intercepts satisfy f1_i = a_i - sum_j f1_j -
    f2 * sum_{j != i} tau_bar_j, assembled and solved as an n-by-n system.
    """
    if len(b.tau_bar) != p.n:
        raise ValueError("belief profile size does not match player count")
    slope_unit = value_slope(1.0, b.x_bar, p.delta, p.rho)
    slopes = tuple(slope_unit * t for t in p.tau)
    f2 = 0.5 * b.x_bar * slope_unit
    n = p.n
    total_tb = sum(b.tau_bar)
    rhs = [p.a[i] - f2 * (total_tb - b.tau_bar[i]) for i in range(n)]
    # np.linalg.solve's own LAPACK gufunc, without the wrapper's per-call type
    # dispatch and singular-matrix error state: the system is float64 and
    # never singular, so the bits are np.linalg.solve's.
    f1_t = tuple(_umath_linalg.solve1(_intercept_system(n), rhs, signature="dd->d").tolist())
    controls = tuple(f1_t[i] + f2 * p.tau[i] for i in range(n))
    return EquilibriumSolution(
        f1=f1_t,
        f2=f2,
        value_slopes=slopes,
        controls=controls,
        foc_residual=foc_residual(p, b, f1_t, f2, slopes),
    )


def _published_controls(p: GameParams, c: float, tau_total: float, own):
    # The form both published control formulas share:
    # a_i - sum(a)/(n+1) - (n^2-n+2)/(4(n+1)) * c * tau_total + own_i.
    n = p.n
    a_total = sum(p.a)
    coef = (n * n - n + 2.0) / (4.0 * (n + 1.0))
    return tuple(
        p.a[i] - a_total / (n + 1.0) - coef * c * tau_total + own[i] for i in range(n)
    )


def closed_form_controls(p: GameParams, b: BeliefProfile) -> tuple[float, ...]:
    """Published closed-form controls, evaluated verbatim for comparison."""
    cb = c_bar(b.x_bar, p.delta, p.rho)
    own = [0.5 * cb * (0.5 * p.n * tb + t) for tb, t in zip(b.tau_bar, p.tau)]
    return _published_controls(p, cb, sum(b.tau_bar), own)


def known_state_controls(p: GameParams, mu_true: float) -> tuple[float, ...]:
    """Published full-information controls, evaluated verbatim for comparison."""
    c = c_bar(mu_true, p.delta, p.rho)
    own = [0.25 * (p.n + 2.0) * c * t for t in p.tau]
    return _published_controls(p, c, sum(p.tau), own)


def known_state_equilibrium(p: GameParams, mu_true: float) -> EquilibriumSolution:
    """Solver output at converged beliefs (x_bar = mu, tau_bar = tau)."""
    return solve_equilibrium(p, BeliefProfile(x_bar=mu_true, tau_bar=p.tau))


def value_intercepts(
    p: GameParams, b: BeliefProfile, sol: EquilibriumSolution
) -> tuple[float, ...]:
    """Value-function intercepts B_i by matching constant terms.

    Controls never depend on these; they complete V_i(S) = A_i S + B_i in the
    equilibrium report.
    """
    u_believed = [sol.f1[j] + sol.f2 * b.tau_bar[j] for j in range(p.n)]
    total_believed = sum(u_believed)
    out = []
    for i in range(p.n):
        others = total_believed - u_believed[i]
        u = sol.controls[i]
        const = u * (p.a[i] - u - others) + sol.value_slopes[i] * b.x_bar * (u + others)
        out.append(const / p.rho)
    return tuple(out)


@dataclass(frozen=True)
class NonnegativityReport:
    """Pass/fail of the three sufficient conditions for non-negative controls.

    The type condition bounds the cost types by the min and max of the
    configured tau vector."""

    intercept_ok: bool
    intercept_value: float
    type_ok: bool
    type_value: float
    discount_ok: bool
    discount_value: float
    tau_lower: float
    tau_upper: float
    min_controls: tuple[float, ...] | None = None
    min_stock: float | None = None

    @property
    def all_ok(self) -> bool:
        return self.intercept_ok and self.type_ok and self.discount_ok

    def as_dict(self) -> dict:
        return {**asdict(self), "all_ok": self.all_ok}


def check_nonnegativity(p: GameParams, trajectory=None) -> NonnegativityReport:
    """Evaluate the three sufficient non-negativity conditions.

    (1) min a_i - (n/(n+1)) max a_i > 0;
    (2) -((n^2-n+2)/(4(n+1))) * n * tau_lower + (n/2 + 1) * tau_upper < 0;
    (3) 1 - rho >= delta > 0.
    When a trajectory is supplied, the realized per-player control minima and
    the stock minimum are attached to the report.
    """
    n = p.n
    q, big_q = min(p.tau), max(p.tau)
    intercept_value = min(p.a) - (n / (n + 1.0)) * max(p.a)
    coef = (n * n - n + 2.0) / (4.0 * (n + 1.0))
    type_value = -coef * n * q + (0.5 * n + 1.0) * big_q
    discount_value = (1.0 - p.rho) - p.delta
    min_controls = min_stock = None
    if trajectory is not None:
        min_controls = tuple(float(v) for v in np.min(trajectory.u, axis=0))
        min_stock = float(np.min(trajectory.S))
    return NonnegativityReport(
        intercept_ok=intercept_value > 0.0,
        intercept_value=intercept_value,
        type_ok=type_value < 0.0,
        type_value=type_value,
        discount_ok=(1.0 - p.rho >= p.delta > 0.0),
        discount_value=discount_value,
        tau_lower=q,
        tau_upper=big_q,
        min_controls=min_controls,
        min_stock=min_stock,
    )


def equilibrium_report(p: GameParams, mu_true: float) -> dict:
    """JSON-ready equilibrium report at the known state (x_bar = ``mu_true``,
    tau_bar = tau): solver output, value intercepts, closed-form comparison
    deltas, the non-negativity condition booleans, and the published
    known-state controls against the same solve."""
    b = BeliefProfile(x_bar=mu_true, tau_bar=p.tau)
    sol = solve_equilibrium(p, b)
    cf = closed_form_controls(p, b)
    cf_slopes = tuple(
        closed_form_value_slope(t, b.x_bar, p.delta, p.rho) for t in p.tau
    )
    known_cf = known_state_controls(p, mu_true)
    return {
        "inputs": {
            "a": list(p.a),
            "tau": list(p.tau),
            "delta": p.delta,
            "rho": p.rho,
            "s0": p.s0,
            "x_bar": b.x_bar,
            "tau_bar": list(b.tau_bar),
        },
        "f1": list(sol.f1),
        "f2": sol.f2,
        "value_slopes": list(sol.value_slopes),
        "controls": list(sol.controls),
        "foc_residual": sol.foc_residual,
        "closed_form": {
            "c_bar": c_bar(b.x_bar, p.delta, p.rho),
            "controls": list(cf),
            "control_delta_max": _max_gap(cf, sol.controls),
            "value_slopes": list(cf_slopes),
            "value_slope_delta_max": _max_gap(cf_slopes, sol.value_slopes),
        },
        "nonnegativity": check_nonnegativity(p).as_dict(),
        "value_intercepts": list(value_intercepts(p, b, sol)),
        "known_state": {
            "solver_controls": list(sol.controls),
            "closed_form_controls": list(known_cf),
            "control_delta_max": _max_gap(known_cf, sol.controls),
        },
    }
