import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefgames import (
    SignalTrace,
    TraceCoverageError,
    TraceFormatError,
    TraceSeed,
    hold_value,
    load_trace,
    sample_cost_trace,
    sample_ecological_trace,
    save_trace,
)

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


def test_cost_trace_mean_obeys_law_of_large_numbers():
    r = 0.25
    n = 100_000
    trace = sample_cost_trace(1.0, r, dt=1.0, horizon=float(n), seed=123)
    assert len(trace) == n
    assert abs(float(trace.values.mean()) - 1.0) < 4.0 * math.sqrt(r / n)


def test_hold_value_examples():
    trace = SignalTrace(t0=0.0, dt=0.02, values=np.arange(5.0), label="x")
    assert hold_value(trace, 0.019) == 0.0
    assert hold_value(trace, 0.02) == 1.0
    assert hold_value(trace, trace.end - 1e-6) == 4.0
    with pytest.raises(TraceCoverageError):
        hold_value(trace, trace.end)
    with pytest.raises(TraceCoverageError):
        hold_value(trace, -0.01)


def test_hold_value_is_right_continuous_with_boundary_jumps():
    trace = SignalTrace(t0=1.0, dt=0.5, values=np.array([2.0, -3.0, 7.0]))
    for k, expect in enumerate(trace.values):
        edge = 1.0 + 0.5 * k
        assert hold_value(trace, edge) == expect
        assert hold_value(trace, edge + 0.25) == expect


def test_integral_matches_manual_sum():
    trace = SignalTrace(t0=0.0, dt=0.5, values=np.array([1.0, 2.0, 4.0]))
    assert trace.integral(0.0, 1.5) == pytest.approx(0.5 * (1 + 2 + 4), rel=1e-15)
    assert trace.integral(0.25, 0.75) == pytest.approx(0.25 * 1 + 0.25 * 2, rel=1e-15)
    with pytest.raises(TraceCoverageError):
        trace.integral(0.0, 2.0)


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


def test_load_rejects_tampered_time_column(tmp_path):
    path = tmp_path / "trace.csv"
    save_trace(SignalTrace(t0=0.5, dt=0.25, values=np.arange(6.0), label="eco"), path)
    lines = path.read_text().splitlines()
    assert lines[5] == "1.25,3"
    lines[5] = "1.2500001,3"  # data row 4, off by 4e-7*dt
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TraceFormatError, match=r"data row 4 '1\.2500001,3'"):
        load_trace(path)


def test_trace_rejects_non_finite_values():
    with pytest.raises(ValueError):
        SignalTrace(t0=0.0, dt=0.1, values=np.array([1.0, np.nan]))
    with pytest.raises(ValueError):
        SignalTrace(t0=0.0, dt=0.0, values=np.array([1.0]))
