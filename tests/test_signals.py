import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefgames import (
    KalmanBelief,
    NormalGammaBelief,
    SignalTrace,
    TraceCoverageError,
    TraceFormatError,
    TraceSeed,
    belief_path,
    kalman_path,
    load_trace,
    sample_cost_trace,
    sample_ecological_trace,
    save_trace,
)
from beliefgames.signals import _write_csv

finite_values = st.lists(
    st.floats(min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=40,
)


def test_sample_count_matches_protocol():
    trace = sample_ecological_trace(0.5, 0.2, dt=0.02, horizon=10.0, seed=1)
    assert len(trace) == 500


def test_same_seed_reproduces_trace():
    a = sample_ecological_trace(0.5, 0.2, 0.02, 10.0, TraceSeed(99, 3))
    b = sample_ecological_trace(0.5, 0.2, 0.02, 10.0, TraceSeed(99, 3))
    assert np.array_equal(a.values, b.values)


def test_different_stream_differs():
    a = sample_ecological_trace(0.5, 0.2, 0.02, 10.0, TraceSeed(99, 0))
    b = sample_ecological_trace(0.5, 0.2, 0.02, 10.0, TraceSeed(99, 1))
    assert not np.array_equal(a.values, b.values)


def test_degenerate_sigma_collapses_to_mu():
    # Noise far below one ulp of mu rounds away entirely.
    trace = sample_ecological_trace(0.5, 1e-18, 0.02, 1.0, seed=5)
    assert np.all(trace.values == 0.5)


def test_invalid_scale_parameters_rejected():
    with pytest.raises(ValueError):
        sample_ecological_trace(0.5, 0.0, 0.02, 1.0, seed=1)
    with pytest.raises(ValueError):
        sample_ecological_trace(0.5, -1.0, 0.02, 1.0, seed=1)
    with pytest.raises(ValueError):
        sample_cost_trace(1.0, 0.0, 0.02, 1.0, seed=1)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("name", ["scale", "dt", "horizon"])
@pytest.mark.parametrize(
    "sampler, scale_name",
    [(sample_ecological_trace, "sigma"), (sample_cost_trace, "noise_var")],
)
def test_samplers_reject_bad_arguments_by_name(sampler, scale_name, name, bad):
    args = {"scale": 0.2, "dt": 0.02, "horizon": 1.0, name: bad}
    shown = scale_name if name == "scale" else name
    with pytest.raises(ValueError, match=rf"^{shown} must be positive and finite"):
        sampler(0.5, args["scale"], args["dt"], args["horizon"], seed=1)


def test_cost_trace_mean_obeys_law_of_large_numbers():
    r = 0.25
    n = 100_000
    trace = sample_cost_trace(1.0, r, dt=1.0, horizon=float(n), seed=123)
    assert len(trace) == n
    assert abs(float(trace.values.mean()) - 1.0) < 4.0 * math.sqrt(r / n)


def test_hold_value_examples():
    trace = SignalTrace(t0=0.0, dt=0.02, values=np.arange(5.0), label="x")
    _, held = trace.held_steps(0.0, 0.1, 0.01, "x")
    assert held.tolist() == [0.0, 0.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 4.0, 4.0]
    assert trace.held_steps(0.02, 0.01, 0.01, "x")[1].tolist() == [1.0]
    assert trace.held_steps(0.09, 0.01, 0.01, "x")[1].tolist() == [4.0]
    for t_start, duration in ((0.0, 0.11), (-0.01, 0.01), (float("nan"), 0.01)):
        with pytest.raises(TraceCoverageError):
            trace.held_steps(t_start, duration, 0.01, "x")


def test_hold_value_is_right_continuous_with_boundary_jumps():
    trace = SignalTrace(t0=1.0, dt=0.5, values=np.array([2.0, -3.0, 7.0]))
    for k, expect in enumerate(trace.values):
        edge = 1.0 + 0.5 * k
        assert trace.held_steps(edge, 0.5, 0.25, "test")[1].tolist() == [expect] * 2
    t, held = trace.held_steps(1.0, 1.5, 0.25, "test")
    assert t.tolist() == [1.0 + 0.25 * i for i in range(7)]
    assert held.tolist() == [2.0, 2.0, -3.0, -3.0, 7.0, 7.0]
    # From a start inside a hold interval, the values follow the steps.
    assert trace.held_steps(1.25, 0.5, 0.25, "test")[1].tolist() == [2.0, -3.0]
    # A start within rounding of t0 is t0.
    shifted = SignalTrace(t0=0.1 + 0.2, dt=0.5, values=trace.values)
    assert shifted.held_steps(0.3, 1.5, 0.25, "test")[1].tolist() == held.tolist()


def test_held_steps_reject_a_start_off_the_step_grid():
    # A step from 0.025 would straddle the jump at 0.1.
    trace = SignalTrace(0.0, 0.1, [0.0, 1.0, 0.0, 0.0])
    message = r"^x start offset from t0: 0\.05 does not divide 0\.025$"
    with pytest.raises(ValueError, match=message):
        trace.held_steps(0.025, 0.1, 0.05, "x")
    b = NormalGammaBelief(0.0, 1.0, 2.0, 1.0, t=0.025)
    with pytest.raises(ValueError, match="belief_path start offset from t0"):
        belief_path(b, trace, 0.1, 0.05)
    kb = KalmanBelief(0.0, 1.0, 1.0, t=0.025)
    with pytest.raises(ValueError, match="kalman_path start offset from t0"):
        kalman_path(kb, trace, 0.1, 0.05)


def test_held_steps_take_an_array_of_step_sizes():
    trace = SignalTrace(t0=1.0, dt=0.5, values=np.array([2.0, -3.0, 7.0]))
    t, held = trace.held_steps(1.0, 1.5, [0.125, 0.125, 0.25, 0.5, 0.5], "test")
    assert t.tolist() == [1.0, 1.125, 1.25, 1.5, 2.0, 2.5]
    assert held.tolist() == [2.0, 2.0, 2.0, -3.0, 7.0]
    for steps, message in (
        ([0.25, 0.375, 0.375, 0.5], "every step size must be a whole multiple of 0.25"),
        ([0.25, 0.25, 0.5], r"the steps span 1\.0, not 1\.5"),
        ([0.25, 0.5, 0.25, 0.5], "a step straddles a hold-interval boundary"),
        ([0.5, -0.5, 1.5], "step sizes must be a non-empty 1-d array of positive floats"),
    ):
        with pytest.raises(ValueError, match=f"^test: {message}$"):
            trace.held_steps(1.0, 1.5, steps, "test")


def test_integral_matches_manual_sum():
    trace = SignalTrace(t0=0.0, dt=0.5, values=np.array([1.0, 2.0, 4.0]))
    assert trace.integral(0.0, 1.5) == pytest.approx(0.5 * (1 + 2 + 4), rel=1e-15)
    assert trace.integral(0.25, 0.75) == pytest.approx(0.25 * 1 + 0.25 * 2, rel=1e-15)
    with pytest.raises(TraceCoverageError):
        trace.integral(0.0, 2.0)


def test_integral_over_an_array_of_upper_limits_matches_scalar_calls():
    trace = sample_ecological_trace(0.5, 0.2, dt=0.02, horizon=3.0, seed=4)
    # Hold-interval edges (k*dt, up to trace.end) plus off-edge points.
    edges = trace.dt * np.arange(len(trace) + 1)
    ts = np.concatenate((edges, np.linspace(0.0, trace.end, 777), [trace.end]))
    scalar = np.array([trace.integral(0.0, float(s)) for s in ts])
    assert np.array_equal(trace.integral(0.0, ts), scalar)
    with pytest.raises(TraceCoverageError):
        trace.integral(0.0, np.append(ts, trace.end + trace.dt))
    with pytest.raises(ValueError):
        trace.integral(0.0, np.append(ts, -0.5))


@settings(max_examples=60, derandomize=True)
@given(values=finite_values, cut=st.floats(min_value=0.0, max_value=1.0))
def test_integral_is_additive(values, cut):
    trace = SignalTrace(t0=0.0, dt=0.25, values=np.array(values))
    mid = cut * trace.end
    whole = trace.integral(0.0, trace.end)
    split = trace.integral(0.0, mid) + trace.integral(mid, trace.end)
    assert split == pytest.approx(whole, rel=1e-12, abs=1e-12)


def test_subsample_keeps_every_stride_value():
    trace = SignalTrace(t0=0.0, dt=0.02, values=np.arange(10.0))
    coarse = trace.subsample(4)
    assert coarse.dt == pytest.approx(0.08)
    assert np.array_equal(coarse.values, np.array([0.0, 4.0, 8.0]))


def test_subsample_takes_an_integral_float_and_rejects_a_fraction():
    trace = SignalTrace(t0=0.0, dt=0.02, values=np.arange(10.0))
    coarse = trace.subsample(2.0)
    assert coarse.dt == trace.subsample(2).dt
    assert np.array_equal(coarse.values, np.arange(0.0, 10.0, 2.0))
    with pytest.raises(ValueError, match="positive integer"):
        trace.subsample(2.5)


@settings(max_examples=60, derandomize=True)
@given(values=finite_values)
def test_save_load_round_trip_is_bitwise(tmp_path_factory, values):
    path = tmp_path_factory.mktemp("traces") / "trace.csv"
    trace = SignalTrace(t0=0.25, dt=0.125, values=np.array(values), label="lab,el")
    save_trace(trace, path)
    back = load_trace(path)
    assert np.array_equal(back.values, trace.values)
    assert back.t0 == trace.t0
    assert back.dt == trace.dt
    assert back.label == trace.label


def test_load_rejects_malformed_files(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(TraceFormatError):
        load_trace(empty)

    bad_header = tmp_path / "bad_header.csv"
    bad_header.write_text("# lab,0.5,0.0\ntime,val\n0,1\n")
    with pytest.raises(TraceFormatError):
        load_trace(bad_header)

    no_meta = tmp_path / "no_meta.csv"
    no_meta.write_text("t,value\n0,1\n0.5,2\n")
    with pytest.raises(TraceFormatError):
        load_trace(no_meta)

    bad_cell = tmp_path / "bad_cell.csv"
    bad_cell.write_text("# lab,0.5,0.0\nt,value\n0,one\n")
    with pytest.raises(TraceFormatError):
        load_trace(bad_cell)

    ragged = tmp_path / "ragged.csv"
    ragged.write_text("# lab,0.5,0.0\nt,value\n0,1\n0.5,2,3\n1,4\n")
    with pytest.raises(TraceFormatError):
        load_trace(ragged)

    one_cell = tmp_path / "one_cell.csv"
    one_cell.write_text("# lab,0.5,0.0\nt,value\n0\n0.5\n")
    with pytest.raises(TraceFormatError):
        load_trace(one_cell)

    inline_hash = tmp_path / "inline_hash.csv"
    inline_hash.write_text("# lab,0.5,0.0\nt,value\n0,1#x\n")
    with pytest.raises(TraceFormatError):
        load_trace(inline_hash)


def test_load_rejects_tampered_time_column(tmp_path):
    path = tmp_path / "trace.csv"
    save_trace(SignalTrace(t0=0.5, dt=0.25, values=np.arange(6.0), label="eco"), path)
    lines = path.read_text().splitlines()
    assert lines[5] == "1.25,3"
    lines[5] = "1.2500001,3"  # data row 4, off by 4e-7*dt
    path.write_text("\n".join(lines) + "\n")
    msg = r"data row 4 '1\.2500001,3' has t=1\.2500001, expected 1\.25 from t0 and dt"
    with pytest.raises(TraceFormatError, match=msg):
        load_trace(path)
    path.write_text("# eco,0.5,0\nt,value\nnan,1\n0.5,2\n")
    msg = r"data row 1 'nan,1' has t=nan, expected 0\.0 from t0 and dt"
    with pytest.raises(TraceFormatError, match=msg):
        load_trace(path)


def test_load_skips_blank_lines_and_counts_rows_without_them(tmp_path):
    path = tmp_path / "trace.csv"
    clean = "# eco,0.5,0\nt,value\n0,1\n0.5,2\n"
    path.write_text(clean)
    expect = load_trace(path).values
    for text in (
        "# eco,0.5,0\nt,value\n0,1\n\n0.5,2\n",  # blank line in the middle
        "# eco,0.5,0\nt,value\n0,1\n0.5,2\n\n \n",  # blank lines at the end
    ):
        path.write_text(text)
        assert np.array_equal(load_trace(path).values, expect)
    path.write_text("# eco,0.5,0\nt,value\n0,1\n  \n0.5,x\n")
    with pytest.raises(TraceFormatError, match=r": malformed data rows: .*'x'"):
        load_trace(path)
    path.write_text("# eco,0.5,0\nt,value\n0,1\n\n0.75,2\n")
    msg = r": data row 2 '0\.75,2' has t=0\.75, expected 0\.5 from t0 and dt$"
    with pytest.raises(TraceFormatError, match=msg):
        load_trace(path)


def test_csv_writer_matches_per_row_format(tmp_path):
    special = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e300, 1e-300]
    rng = np.random.default_rng(5)
    table = rng.standard_normal((7, 4)) * 10.0 ** rng.integers(-300, 300, (7, 4))
    table.flat[: len(special)] = special
    path = tmp_path / "table.csv"
    _write_csv(path, ["# meta", "a,b,c,d"], table)
    rows = [",".join("%.17g" % v for v in row) for row in table.tolist()]
    expect = "\n".join(["# meta", "a,b,c,d"] + rows) + "\n"
    assert path.read_bytes() == expect.encode("utf-8")
    _write_csv(path, ["a,b,c"], np.empty((0, 3)))
    assert path.read_bytes() == b"a,b,c\n"


def test_trace_rejects_non_finite_values():
    with pytest.raises(ValueError):
        SignalTrace(t0=0.0, dt=0.1, values=np.array([1.0, np.nan]))
    with pytest.raises(ValueError):
        SignalTrace(t0=0.0, dt=0.0, values=np.array([1.0]))


@pytest.mark.parametrize("t0", [math.nan, math.inf, -math.inf])
def test_trace_rejects_non_finite_start_time(t0):
    # A NaN t0 would pass the engine's start check (abs(nan) > 1e-12 is
    # False) and be saved as rows that load_trace rejects.
    with pytest.raises(ValueError, match=r"t0 must be finite"):
        SignalTrace(t0=t0, dt=0.1, values=np.array([1.0, 2.0]))
