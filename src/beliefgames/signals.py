"""Stochastic signal traces with zero-order-hold semantics.

A trace is an immutable sequence of values sampled on a regular grid; the
signal is the step function that holds ``values[k]`` on
``[t0 + k*dt, t0 + (k+1)*dt)``.  Traces are generated from seeded RNG
streams and can be persisted to CSV so that a run can be replayed exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import TraceCoverageError, TraceFormatError

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


def _as_seed(seed: TraceSeed | int, stream: int = 0) -> TraceSeed:
    if isinstance(seed, TraceSeed):
        return seed
    return TraceSeed(int(seed), stream)


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
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size == 0:
            raise ValueError("trace needs a non-empty 1-d value sequence")
        if not np.all(np.isfinite(vals)):
            raise ValueError("trace values must be finite")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        # Prefix sums of the exact step-function integral, one entry per node.
        cum = np.concatenate(([0.0], np.cumsum(vals * self.dt)))
        cum.setflags(write=False)
        object.__setattr__(self, "_cum", cum)

    def __len__(self) -> int:
        return self.values.size

    @property
    def end(self) -> float:
        """Right edge of the covered interval [t0, end)."""
        return self.t0 + len(self) * self.dt

    def covers(self, t_lo: float, t_hi: float) -> bool:
        tol = _BOUNDARY_EPS * self.dt
        return self.t0 - tol <= t_lo and t_hi <= self.end + tol

    def index_at(self, s: float) -> int:
        """Hold-interval index for time ``s``; raises outside [t0, end)."""
        u = (s - self.t0) / self.dt
        if u < -_BOUNDARY_EPS or s >= self.end:
            raise TraceCoverageError(
                f"time {s!r} outside trace coverage [{self.t0!r}, {self.end!r})"
            )
        return min(int(math.floor(u + _BOUNDARY_EPS)), len(self) - 1)

    def value_at(self, s: float) -> float:
        """Zero-order-hold lookup (right-continuous piecewise constant)."""
        return float(self.values[self.index_at(s)])

    def integral(self, t_lo: float, t_hi: float) -> float:
        """Exact integral of the step function over [t_lo, t_hi]."""
        if t_hi < t_lo:
            raise ValueError("integration bounds out of order")
        if not self.covers(t_lo, t_hi):
            raise TraceCoverageError(
                f"integral bounds [{t_lo!r}, {t_hi!r}] exceed coverage "
                f"[{self.t0!r}, {self.end!r}]"
            )
        return self._position(t_hi) - self._position(t_lo)

    def _position(self, s: float) -> float:
        # Antiderivative of the step function, valid on the closed interval
        # [t0, end]; the right endpoint is reachable here (unlike value_at).
        u = (s - self.t0) / self.dt
        k = int(math.floor(u + _BOUNDARY_EPS))
        if k >= len(self):
            return float(self._cum[-1])
        if k < 0:
            return 0.0
        frac = s - (self.t0 + k * self.dt)
        return float(self._cum[k] + self.values[k] * max(frac, 0.0))

    def subsample(self, stride: int) -> "SignalTrace":
        """Keep every ``stride``-th sample; the hold interval grows accordingly."""
        if stride < 1 or int(stride) != stride:
            raise ValueError("stride must be a positive integer")
        return SignalTrace(
            t0=self.t0,
            dt=self.dt * stride,
            values=self.values[::stride],
            label=self.label,
        )


def hold_value(trace: SignalTrace, s: float) -> float:
    """Module-level alias for :meth:`SignalTrace.value_at`."""
    return trace.value_at(s)


def _sample_count(horizon: float, dt: float) -> int:
    q = horizon / dt
    r = round(q)
    if abs(q - r) <= 1e-9 * max(1.0, abs(q)):
        return int(r)
    return int(math.ceil(q))


def sample_ecological_trace(
    mu: float,
    sigma: float,
    dt: float,
    horizon: float,
    seed: TraceSeed | int,
    label: str = "ecological",
) -> SignalTrace:
    """i.i.d. normal draws N(mu, sigma^2), one per hold interval over the horizon."""
    if sigma <= 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if dt <= 0.0 or horizon <= 0.0:
        raise ValueError("dt and horizon must be positive")
    n = _sample_count(horizon, dt)
    rng = _as_seed(seed).rng()
    values = mu + sigma * rng.standard_normal(n)
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
    if noise_var <= 0.0:
        raise ValueError(f"noise variance must be positive, got {noise_var}")
    if dt <= 0.0 or horizon <= 0.0:
        raise ValueError("dt and horizon must be positive")
    n = _sample_count(horizon, dt)
    rng = _as_seed(seed).rng()
    values = tau + math.sqrt(noise_var) * rng.standard_normal(n)
    return SignalTrace(t0=0.0, dt=dt, values=values, label=label)


def save_trace(trace: SignalTrace, path: str | Path) -> None:
    """Write a trace as CSV: a `# label,dt,t0` comment row, then t,value rows."""
    path = Path(path)
    lines = [f"# {trace.label},{trace.dt:.17g},{trace.t0:.17g}", "t,value"]
    for k, v in enumerate(trace.values):
        t = trace.t0 + k * trace.dt
        lines.append(f"{t:.17g},{v:.17g}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


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
    values = []
    for k, row in enumerate(rows):
        cells = row.split(",")
        if len(cells) != 2:
            raise TraceFormatError(f"{path}: malformed row {row!r}")
        try:
            t = float(cells[0])
            values.append(float(cells[1]))
        except ValueError as exc:
            raise TraceFormatError(f"{path}: non-numeric value in {row!r}") from exc
        if abs(t - (t0 + k * dt)) > 1e-9 * dt:
            raise TraceFormatError(
                f"{path}: data row {k + 1} {row!r} has t={t!r}, "
                f"expected {t0 + k * dt!r} from t0 and dt"
            )
    return SignalTrace(t0=t0, dt=dt, values=np.array(values), label=label)
