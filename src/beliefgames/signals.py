"""Stochastic signal traces with zero-order-hold semantics.

A trace holds ``values[k]`` on ``[k*dt, (k+1)*dt)`` from t = 0.  Traces are
drawn from stream ``stream`` of an integer ``seed`` and can be persisted to
CSV so that a run can be replayed exactly.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cache
from pathlib import Path

import numpy as np

from .errors import NonFiniteStateError, TraceCoverageError, TraceFormatError


@dataclass(frozen=True, eq=False)
class SignalTrace:
    """Zero-order-hold signal: ``values[k]`` holds on ``[k*dt, (k+1)*dt)``.
    Every trace starts at t = 0; ``t0`` is kept as a field, and in the trace
    file's metadata row, and must be 0."""

    dt: float
    values: np.ndarray
    label: str = ""
    t0: float = 0.0

    def __post_init__(self):
        if not (self.dt > 0.0) or not math.isfinite(self.dt):
            raise ValueError(f"hold interval dt must be positive, got {self.dt}")
        if self.t0 != 0.0:  # NaN too
            raise ValueError(f"a trace starts at t0 = 0, got {self.t0}")
        vals = np.array(self.values, dtype=float)
        if vals.ndim != 1 or vals.size == 0:
            raise ValueError("trace needs a non-empty 1-d value sequence")
        if not np.all(np.isfinite(vals)):
            raise ValueError("trace values must be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return self.values.size

    def held_values(self, u: float, k: np.ndarray, what: str) -> np.ndarray:
        """The value held over each step of the grid ``t = u * k``, where
        ``k`` holds increasing whole numbers from 0.  ``u`` must divide the
        hold interval, no step may straddle a hold-interval boundary, and the
        trace must cover ``u * k[-1]``."""
        per_value = _step_count(self.dt, u, f"{what} hold interval")
        if k[-1] > per_value * len(self):
            raise TraceCoverageError(
                f"trace [0.0, {len(self) * self.dt!r}) does not "
                f"cover the update window [0.0, {u * k[-1]!r}]"
            )
        held = k[:-1] // per_value
        if np.any((k[1:] - 1) // per_value != held):
            raise ValueError(f"{what}: a step straddles a hold-interval boundary")
        return self.values[held]

    def subsample(self, stride: int) -> "SignalTrace":
        """Keep every ``stride``-th sample; the hold interval grows accordingly."""
        if operator.index(stride) < 1:
            raise ValueError(f"stride must be a positive integer, got {stride}")
        return SignalTrace(dt=self.dt * stride, values=self.values[::stride], label=self.label)


def require_finite(t: np.ndarray, what: str, *columns: np.ndarray) -> None:
    """Raise :class:`NonFiniteStateError` naming the first grid time ``t`` at
    which any of the ``columns`` is not finite."""
    bad = np.flatnonzero(~np.logical_and.reduce([np.isfinite(c) for c in columns]))
    if bad.size:
        raise NonFiniteStateError(f"non-finite {what} at t={float(t[bad[0]])!r}")


def _affine_rk4(s0: float, h, c, l) -> np.ndarray:
    """``[s0, s1, ...]``: classical RK4 for s' = c(t) - l(t) s.  ``c`` and
    ``l`` each hold three rows, their values at the steps' starts, middles and
    ends; ``h`` is the step size, or an array of one per step.

    Each stage slope is affine in the step's start value, p_k + q_k s, so the
    slopes sum to d s + b with d = h (q1 + 2 (q2 + q3) + q4) / 6 and b the same
    sum of the p's, and only the walk over the steps is a loop.  Each step is
    s + (d s + b): the gain form (1 + d) s + b would round d against 1 on
    every step.
    """
    (c1, c2, c4), (l1, l2, l4) = c, l
    half = 0.5 * h
    p1, q1 = c1, -l1
    p2, q2 = c2 - l2 * half * p1, -l2 * (1.0 + half * q1)
    p3, q3 = c2 - l2 * half * p2, -l2 * (1.0 + half * q2)
    p4, q4 = c4 - l4 * h * p3, -l4 * (1.0 + h * q3)
    d = h * (q1 + 2.0 * (q2 + q3) + q4) / 6.0
    b = h * (p1 + 2.0 * (p2 + p3) + p4) / 6.0

    def walk(s):
        yield s
        for d_i, b_i in zip(memoryview(d), memoryview(b)):
            s = s + (d_i * s + b_i)
            yield s

    return np.fromiter(walk(s0), float, d.size + 1)


def _step_count(total: float, step: float, what: str) -> int:
    """Number of steps of size ``step`` in ``total``.  Raises ValueError unless
    ``step`` is positive and divides ``total`` a finite number of times; only
    a zero total gives 0."""
    if not step > 0.0:
        raise ValueError(f"{what}: step size must be positive, got {step}")
    q = total / step
    if not math.isfinite(q):
        raise ValueError(f"{what}: {total} is not a finite number of steps of {step}")
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


def _draws(dt: float, horizon: float, seed: int, stream: int, **scale) -> np.ndarray:
    """Standard normal draws from stream ``stream`` of ``seed``, one per hold
    interval over the horizon, once the named scale argument, dt and horizon
    are found positive and finite."""
    for name, value in {**scale, "dt": dt, "horizon": horizon}.items():
        if not (value > 0.0 and math.isfinite(value)):
            raise ValueError(f"{name} must be positive and finite, got {value}")
    ss = np.random.SeedSequence(operator.index(seed), spawn_key=(stream,))
    return np.random.default_rng(ss).standard_normal(_sample_count(horizon, dt))


def sample_ecological_trace(
    mu: float,
    sigma: float,
    dt: float,
    horizon: float,
    seed: int,
    stream: int = 0,
    label: str = "ecological",
) -> SignalTrace:
    """i.i.d. normal draws N(mu, sigma^2), one per hold interval over the horizon."""
    values = mu + sigma * _draws(dt, horizon, seed, stream, sigma=sigma)
    return SignalTrace(dt=dt, values=values, label=label)


def sample_cost_trace(
    tau: float,
    noise_var: float,
    dt: float,
    horizon: float,
    seed: int,
    stream: int = 0,
    label: str = "cost",
) -> SignalTrace:
    """Noisy observations tau + N(0, noise_var) of a constant cost type."""
    draws = _draws(dt, horizon, seed, stream, noise_var=noise_var)
    values = tau + math.sqrt(noise_var) * draws
    return SignalTrace(dt=dt, values=values, label=label)


# _write_csv encodes its cells in blocks of about this many.
_CSV_BLOCK = 4096
# 10^k for k = 0..20, each exact in binary64.
_POW10 = np.array([float(10**k) for k in range(21)])
# Word w's offset into the flat ``last`` table of _csv_tables.
_QUAD_ROWS = 10000 * np.arange(4)[:, None]


def _dekker_split(a):
    """``(hi, lo)`` with hi + lo = a exactly, each on at most 26 bits."""
    c = 134217729.0 * a  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _dekker_split(_POW10)


def _scaled(a: np.ndarray, e: np.ndarray):
    """``(h, err)``: h = fl(a 10^(16-e)) and h + err = a 10^(16-e) exactly
    (Dekker's product)."""
    k = 16 - e
    p, p_hi, p_lo = _POW10[k], _POW10_HI[k], _POW10_LO[k]
    h = a * p
    a_hi, a_lo = _dekker_split(a)
    return h, ((a_hi * p_hi - h) + a_hi * p_lo + a_lo * p_hi) + a_lo * p_lo


@cache
def _csv_tables():
    """The encoder's lookup tables, as little-endian 8-byte words: ``quad``,
    the four digits of 0..9999 at bytes 0, 2, 4, 6; ``last``, for word w
    (its digits 4w+1..4w+4), the index of a quad's last nonzero digit, 0 if
    none; ``keep[w, top]``, word w's digit bytes for digits k <= top; and
    ``lead[s, e + 4]``, the bytes before the first digit: "-" when s, then
    "0." and -1 - e zeros when e < 0."""
    q = np.arange(10000)
    digits = q // np.array([[1000], [100], [10], [1]]) % 10
    quad = np.zeros((10000, 8), np.uint8)
    quad[:, 0::2] = 48 + digits.T
    at = np.max(np.where(digits != 0, np.arange(1, 5)[:, None], 0), axis=0)
    last = np.where(at > 0, at + 4 * np.arange(4)[:, None], 0)
    keep = np.zeros((4, 17, 8), np.uint8)
    k = 4 * np.arange(4)[:, None, None] + np.arange(1, 5)
    keep[:, :, 0::2] = np.where(k <= np.arange(17)[:, None], 0xFF, 0)
    e = np.arange(-4, 17)
    lead = np.zeros((2, 21, 8), np.uint8)
    lead[1, :, 0] = ord("-")
    lead[:, e < 0, 1:3] = (ord("0"), ord("."))
    lead[:, :, 3:6] = np.where(np.arange(3) < -1 - e[:, None], ord("0"), 0)
    tables = tuple(t.view("<u8")[..., 0] for t in (quad, keep, lead)) + (last,)
    for t in tables:
        t.setflags(write=False)
    return tables


def _encode_cells(x: np.ndarray, seps: np.ndarray) -> bytes:
    """``"%.17g" % v`` then its separator byte, for each cell v of the 1-d
    float array ``x`` and the matching uint8 of ``seps``.

    ``%.17g`` writes |v| in [1e-4, 1e17) and zero in fixed notation.  For
    those cells the 17 significant digits are D = |v| 10^(16-e), e the
    decimal exponent, rounded half to even on the exact product h + err; a
    D of 10^17 carries into e + 1.  Each cell is a 40-byte record: sign,
    "0." and up to three zeros, then for k = 0..16 digit k and a slot byte
    that holds the point after digit e, or in slot 16 the separator.  Bytes
    left out (trailing zeros, empty slots) are NUL and one ``translate``
    drops them.  Every other cell (exponent form, nan, +-inf) is formatted
    by ``%`` and copied into its record.
    """
    quad, keep, lead, last_at = _csv_tables()
    n = x.size
    a = np.abs(x)
    zero = a == 0.0
    fixed = (a >= 1e-4) & (a < 1e17)
    a[~fixed] = 1.0  # a stand-in; these cells are redone below
    e = np.clip(np.floor(np.log10(a)), -4, 16).astype(np.intp)
    h, err = _scaled(a, e)
    # log10 can miss by one next to a power of ten: move e by one where the
    # exact h + err leaves [1e16, 1e17).
    low = (h < 1e16) | ((h == 1e16) & (err < 0.0))
    high = (h > 1e17) | ((h == 1e17) & (err >= 0.0))
    fix = np.flatnonzero(low | high)
    if fix.size:
        e[fix] += high[fix].astype(np.intp) - low[fix]
        h[fix], err[fix] = _scaled(a[fix], e[fix])
    # h is a whole number and |err| <= 8, so D = h + floor(err) rounded on
    # the fraction left in err.
    f = np.floor(err)
    frac = err - f
    d = h.astype(np.int64) + f.astype(np.int64)
    d += (frac > 0.5) | ((frac == 0.5) & (d & 1 == 1))
    carry = d == 10**17
    d[carry] = 10**16
    e += carry
    d[zero] = 0
    e[zero] = 0
    # Digit 0, then four words of four digits.
    hi = d // 10**8
    d0 = hi // 10**8
    halves = np.stack((hi - d0 * 10**8, d - hi * 10**8)).astype(np.int32)
    words = np.empty((4, n), np.intp)
    words[0::2] = halves // 10**4
    words[1::2] = halves - words[0::2] * 10**4
    last = np.take(last_at, words + _QUAD_ROWS).max(axis=0)
    rec = np.empty((n, 5), "<u8")
    rec[:, 0] = np.take(lead, np.signbit(x) * 21 + e + 4)
    top = np.maximum(e, last)
    rec[:, 1:] = (np.take(quad, words) & np.take(keep, top, axis=1)).T
    out = rec.view(np.uint8)
    out[:, 6] = 48 + d0
    out[:, 39] = seps
    point = np.flatnonzero((last > e) & (e >= 0))
    out[point, 7 + 2 * e[point]] = ord(".")
    slow = np.flatnonzero(~(fixed | zero))
    if slow.size:
        text = ["%.17g" % v for v in x[slow].tolist()]
        out[slow, :39] = np.array(text, dtype="S39").view(np.uint8).reshape(-1, 39)
    return out.tobytes().translate(None, b"\0")


def _write_csv(path: str | Path, head: list[str], table) -> None:
    """Write the ``head`` lines, then one line per row of the float
    ``table``, each cell the bytes of ``"%.17g" % v``: the one CSV encoder
    of every artifact.  Rows are encoded in blocks of about ``_CSV_BLOCK``
    cells."""
    table = np.asarray(table, dtype=float)
    rows, cols = table.shape
    step = max(1, _CSV_BLOCK // cols)
    seps = np.full(cols, ord(","), np.uint8)
    seps[-1] = ord("\n")
    seps = np.tile(seps, step)
    with open(path, "wb") as f:
        f.write("".join(line + "\n" for line in head).encode("utf-8"))
        for r in range(0, rows, step):
            cells = table[r : r + step].ravel()
            f.write(_encode_cells(cells, seps[: cells.size]))


def save_trace(trace: SignalTrace, path: str | Path) -> None:
    """Write a trace as CSV: a `# label,dt,t0` comment row, t0 always 0, then
    t,value rows.  A label must hold no line break, as ``str.splitlines`` (and
    so :func:`load_trace`) counts them."""
    if trace.label.splitlines() not in ([], [trace.label]):
        raise ValueError(f"trace label {trace.label!r} holds a line break")
    t = np.arange(len(trace)) * trace.dt
    meta = f"# {trace.label},{trace.dt:.17g},0"
    _write_csv(path, [meta, "t,value"], np.column_stack((t, trace.values)))


def load_trace(path: str | Path) -> SignalTrace:
    """Read a trace written by :func:`save_trace`; round-trips bit-exactly.

    The metadata t0 must be 0, and each row's t must lie within 1e-9*dt of
    k*dt for data row k.
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
    if t0 != 0.0:
        raise TraceFormatError(f"{path}: a trace starts at t0 = 0, got {t0}")
    if header != "t,value":
        raise TraceFormatError(f"{path}: expected header 't,value', got {header!r}")
    try:
        table = np.loadtxt(rows, delimiter=",", ndmin=2, comments=None)
    except ValueError as exc:
        raise TraceFormatError(f"{path}: malformed data rows: {exc}") from exc
    if table.shape[1] != 2:
        raise TraceFormatError(f"{path}: rows need 2 cells, got {table.shape[1]}")
    t, values = table.T
    expected = np.arange(len(rows)) * dt
    off = np.flatnonzero(~(np.abs(t - expected) <= 1e-9 * dt))  # NaN is off-grid
    if off.size:
        k = int(off[0])
        raise TraceFormatError(
            f"{path}: data row {k + 1} {rows[k]!r} has t={float(t[k])!r}, "
            f"expected {float(expected[k])!r} from t0 and dt"
        )
    return SignalTrace(dt=dt, values=values, label=label)
