"""Stochastic signal traces with zero-order-hold semantics.

A trace is an immutable sequence of values sampled on a regular grid; the
signal is the step function that holds ``values[k]`` on
``[t0 + k*dt, t0 + (k+1)*dt)``.  Traces are generated from seeded RNG
streams and can be persisted to CSV so that a run can be replayed exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import NonFiniteStateError, TraceCoverageError, TraceFormatError

# Fraction of one hold interval used to absorb float roundoff when a query
# time sits on (or within a hair of) an interval boundary.
_BOUNDARY_EPS = 1e-9


@dataclass(frozen=True)
class TraceSeed:
    """Root seed plus a per-source stream id.

    Identical (seed, stream) pairs reproduce identical traces within this
    implementation.  Cross-implementation reproducibility is provided by
    persisted trace files, not by the generator.
    """

    seed: int
    stream: int = 0

    def rng(self) -> np.random.Generator:
        ss = np.random.SeedSequence(self.seed, spawn_key=(self.stream,))
        return np.random.default_rng(ss)


def _as_seed(seed: TraceSeed | int) -> TraceSeed:
    if isinstance(seed, TraceSeed):
        return seed
    return TraceSeed(int(seed))


@dataclass(frozen=True, eq=False)
class SignalTrace:
    """Zero-order-hold signal: ``values[k]`` holds on ``[t0+k*dt, t0+(k+1)*dt)``."""

    t0: float
    dt: float
    values: np.ndarray
    label: str = ""

    def __post_init__(self):
        if not (self.dt > 0.0) or not math.isfinite(self.dt):
            raise ValueError(f"hold interval dt must be positive, got {self.dt}")
        if not math.isfinite(self.t0):
            raise ValueError(f"start time t0 must be finite, got {self.t0}")
        vals = np.array(self.values, dtype=float)
        if vals.ndim != 1 or vals.size == 0:
            raise ValueError("trace needs a non-empty 1-d value sequence")
        if not np.all(np.isfinite(vals)):
            raise ValueError("trace values must be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @cached_property
    def _cum(self) -> np.ndarray:
        """Prefix sums of the exact step-function integral, one entry per node."""
        cum = np.concatenate(([0.0], np.cumsum(self.values * self.dt)))
        cum.setflags(write=False)
        return cum

    def __len__(self) -> int:
        return self.values.size

    @property
    def end(self) -> float:
        """Right edge of the covered interval [t0, end)."""
        return self.t0 + len(self) * self.dt

    def covers(self, t_lo: float, t_hi: float) -> bool:
        tol = _BOUNDARY_EPS * self.dt
        return self.t0 - tol <= t_lo and t_hi <= self.end + tol

    def held_steps(self, t_start: float, duration: float, h, what: str):
        """The grid from ``t_start`` over ``duration`` in steps ``h`` (see
        :func:`step_grid`) and the value held over each step; the smallest step
        must divide the hold interval and the offset ``t_start - t0``, and no
        step may straddle a hold-interval boundary."""
        u, k = _step_units(duration, h, what)
        per_value = _step_count(self.dt, u, f"{what} hold interval")
        if not self.covers(t_start, t_start + duration):
            raise TraceCoverageError(
                f"trace [{self.t0!r}, {self.end!r}) does not cover the update "
                f"window [{t_start!r}, {t_start + duration!r}]"
            )
        offset = t_start - self.t0
        if abs(offset) <= _BOUNDARY_EPS * self.dt:  # covers()'s tolerance
            offset = 0.0
        k0 = _step_count(offset, u, f"{what} start offset from t0")
        held = (k0 + k[:-1]) // per_value
        if np.any((k0 + k[1:] - 1) // per_value != held):
            raise ValueError(f"{what}: a step straddles a hold-interval boundary")
        return t_start + u * k, self.values[held]

    def integral(self, t_lo: float, t_hi):
        """Exact integral of the step function over [t_lo, t_hi], for one or an
        array of upper limits ``t_hi``."""
        hi = np.asarray(t_hi, dtype=float)
        if np.any(hi < t_lo):
            raise ValueError("integration bounds out of order")
        hi_max = float(np.max(hi))
        if not self.covers(t_lo, hi_max):
            raise TraceCoverageError(
                f"integral bounds [{t_lo!r}, {hi_max!r}] exceed coverage "
                f"[{self.t0!r}, {self.end!r}]"
            )
        return self._position(hi) - self._position(t_lo)

    def _position(self, s):
        # Antiderivative of the step function, valid on the closed interval [t0, end].
        s = np.asarray(s, dtype=float)
        k = np.floor((s - self.t0) / self.dt + _BOUNDARY_EPS)
        kc = np.clip(k, 0, len(self) - 1).astype(int)
        frac = np.maximum(s - (self.t0 + kc * self.dt), 0.0)
        # Before t0, frac clamps to 0 and so does the position.
        pos = self._cum[kc] + self.values[kc] * frac
        pos = np.where(k >= len(self), self._cum[-1], pos)
        return float(pos) if pos.ndim == 0 else pos

    def subsample(self, stride: int) -> "SignalTrace":
        """Keep every ``stride``-th sample; the hold interval grows accordingly."""
        if stride < 1 or int(stride) != stride:
            raise ValueError("stride must be a positive integer")
        stride = int(stride)  # an integral float such as 2.0 slices as 2
        return SignalTrace(
            t0=self.t0,
            dt=self.dt * stride,
            values=self.values[::stride],
            label=self.label,
        )


def step_grid(t_start: float, duration: float, h, what: str) -> np.ndarray:
    """The grid from ``t_start`` over ``duration`` in steps ``h``: one step size
    that divides the duration, or an array of step sizes, each a whole multiple
    of the smallest, that together span it."""
    u, k = _step_units(duration, h, what)
    return t_start + u * k


def _step_units(duration: float, h, what: str) -> tuple[float, np.ndarray]:
    """``(u, k)``: the grid points of :func:`step_grid` sit at offsets ``u * k``
    from its start, with ``u`` the smallest step and ``k`` whole numbers."""
    if duration < 0.0:
        raise ValueError("duration must be non-negative")
    if np.ndim(h) == 0:
        return h, np.arange(_step_count(duration, h, f"{what} duration") + 1)
    h = np.asarray(h, dtype=float)
    if h.ndim != 1 or h.size == 0 or not np.all((h > 0.0) & np.isfinite(h)):
        msg = "step sizes must be a non-empty 1-d array of positive floats"
        raise ValueError(f"{what}: {msg}")
    u = float(h.min())
    m = h / u
    whole = np.rint(m)
    if np.any(np.abs(m - whole) > 1e-9 * whole):
        raise ValueError(f"{what}: every step size must be a whole multiple of {u}")
    k = np.concatenate(([0], np.cumsum(whole.astype(np.int64))))
    if k[-1] != _step_count(duration, u, f"{what} duration"):
        span = float(u * k[-1])
        raise ValueError(f"{what}: the steps span {span!r}, not {duration!r}")
    return u, k


def require_finite(t: np.ndarray, what: str, *columns: np.ndarray) -> None:
    """Raise :class:`NonFiniteStateError` naming the first grid time ``t`` at
    which any of the ``columns`` is not finite."""
    bad = np.flatnonzero(~np.logical_and.reduce([np.isfinite(c) for c in columns]))
    if bad.size:
        raise NonFiniteStateError(f"non-finite {what} at t={float(t[bad[0]])!r}")


def _increment_walk(s0: float, h, p, q) -> np.ndarray:
    """``[s0, s1, ...]``: the RK4 steps of an ODE that is affine in its state,
    whose four stage slopes in step i are p[k][i] + q[k][i] * s_i; ``h`` is the
    step size, or an array of one per step.

    The slopes sum to d_i s_i + b_i with d = h (q1 + 2 (q2 + q3) + q4) / 6 and
    b the same sum of the p's, taken in place in ``q[1]`` and ``p[1]``.  Each
    step is then s + (d_i s + b_i): the gain form (1 + d_i) s_i + b_i would
    round d_i against 1 on every step.
    """
    for k1, k2, k3, k4 in (p, q):
        k2 += k3
        k2 *= 2.0
        k2 += k1
        k2 += k4
        k2 *= h
        k2 /= 6.0

    def walk(s):
        yield s
        for d_i, b_i in zip(memoryview(q[1]), memoryview(p[1])):
            s = s + (d_i * s + b_i)
            yield s

    return np.fromiter(walk(s0), float, q[1].size + 1)


def _step_count(total: float, step: float, what: str) -> int:
    """Number of steps of size ``step`` in ``total``.  Raises ValueError unless
    ``step`` is positive and divides ``total``; only a zero total gives 0."""
    if not step > 0.0:
        raise ValueError(f"{what}: step size must be positive, got {step}")
    q = total / step
    r = round(q)
    if (r < 1 and total != 0.0) or abs(q - r) > 1e-9 * max(1.0, abs(q)):
        raise ValueError(f"{what}: {step} does not divide {total}")
    return int(r)


def _sample_count(horizon: float, dt: float) -> int:
    q = horizon / dt
    r = round(q)
    if abs(q - r) <= 1e-9 * max(1.0, abs(q)):
        return int(r)
    return int(math.ceil(q))


def _draws(dt: float, horizon: float, seed: TraceSeed | int, **scale) -> np.ndarray:
    """Standard normal draws, one per hold interval over the horizon, once the
    named scale argument, dt and horizon are found positive and finite."""
    for name, value in {**scale, "dt": dt, "horizon": horizon}.items():
        if not (value > 0.0 and math.isfinite(value)):
            raise ValueError(f"{name} must be positive and finite, got {value}")
    return _as_seed(seed).rng().standard_normal(_sample_count(horizon, dt))


def sample_ecological_trace(
    mu: float,
    sigma: float,
    dt: float,
    horizon: float,
    seed: TraceSeed | int,
    label: str = "ecological",
) -> SignalTrace:
    """i.i.d. normal draws N(mu, sigma^2), one per hold interval over the horizon."""
    values = mu + sigma * _draws(dt, horizon, seed, sigma=sigma)
    return SignalTrace(t0=0.0, dt=dt, values=values, label=label)


def sample_cost_trace(
    tau: float,
    noise_var: float,
    dt: float,
    horizon: float,
    seed: TraceSeed | int,
    label: str = "cost",
) -> SignalTrace:
    """Noisy observations tau + N(0, noise_var) of a constant cost type."""
    draws = _draws(dt, horizon, seed, noise_var=noise_var)
    values = tau + math.sqrt(noise_var) * draws
    return SignalTrace(t0=0.0, dt=dt, values=values, label=label)


def _write_csv(path: str | Path, head: list[str], table) -> None:
    """Write the ``head`` lines, then one ``%.17g`` line per row of the float
    ``table``: the one CSV encoder of every artifact."""
    table = np.asarray(table, dtype=float)
    rows, cols = table.shape
    template = "\n".join([",".join(["%.17g"] * cols)] * rows)
    lines = head + [template % tuple(table.ravel().tolist())] if rows else head
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def save_trace(trace: SignalTrace, path: str | Path) -> None:
    """Write a trace as CSV: a `# label,dt,t0` comment row, then t,value rows."""
    t = trace.t0 + np.arange(len(trace)) * trace.dt
    meta = f"# {trace.label},{trace.dt:.17g},{trace.t0:.17g}"
    _write_csv(path, [meta, "t,value"], np.column_stack((t, trace.values)))


def load_trace(path: str | Path) -> SignalTrace:
    """Read a trace written by :func:`save_trace`; round-trips bit-exactly.

    Each row's t must lie within 1e-9*dt of t0 + k*dt for data row k.
    """
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) < 3:
        raise TraceFormatError(f"{path}: empty or truncated trace file")
    meta, header, *rows = lines
    if not meta.startswith("# "):
        raise TraceFormatError(f"{path}: missing `# label,dt,t0` metadata row")
    parts = meta[2:].rsplit(",", 2)
    if len(parts) != 3:
        raise TraceFormatError(f"{path}: malformed metadata row {meta!r}")
    label = parts[0]
    try:
        dt = float(parts[1])
        t0 = float(parts[2])
    except ValueError as exc:
        raise TraceFormatError(f"{path}: non-numeric metadata: {exc}") from exc
    if header != "t,value":
        raise TraceFormatError(f"{path}: expected header 't,value', got {header!r}")
    try:
        table = np.loadtxt(rows, delimiter=",", ndmin=2, comments=None)
    except ValueError as exc:
        raise TraceFormatError(f"{path}: malformed data rows: {exc}") from exc
    if table.shape[1] != 2:
        raise TraceFormatError(f"{path}: rows need 2 cells, got {table.shape[1]}")
    t, values = table.T
    expected = t0 + np.arange(len(rows)) * dt
    off = np.flatnonzero(~(np.abs(t - expected) <= 1e-9 * dt))  # NaN is off-grid
    if off.size:
        k = int(off[0])
        raise TraceFormatError(
            f"{path}: data row {k + 1} {rows[k]!r} has t={float(t[k])!r}, "
            f"expected {float(expected[k])!r} from t0 and dt"
        )
    return SignalTrace(t0=t0, dt=dt, values=values, label=label)
