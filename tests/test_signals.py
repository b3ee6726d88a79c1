import math
import re

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
    a = sample_ecological_trace(0.5, 0.2, 0.02, 10.0, 99, 3)
    b = sample_ecological_trace(0.5, 0.2, 0.02, 10.0, 99, 3)
    assert np.array_equal(a.values, b.values)


def test_different_stream_differs():
    a = sample_ecological_trace(0.5, 0.2, 0.02, 10.0, 99, 0)
    b = sample_ecological_trace(0.5, 0.2, 0.02, 10.0, 99, 1)
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
    held = trace.held_values(0.01, np.arange(11), "x")
    assert held.tolist() == [0.0, 0.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 4.0, 4.0]
    assert trace.held_values(0.01, np.arange(2), "x").tolist() == [0.0]
    assert trace.held_values(0.02, np.arange(6), "x").tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]
    with pytest.raises(TraceCoverageError, match=r"^trace \[0\.0, 0\.1\) does not cover"):
        trace.held_values(0.01, np.arange(12), "x")


def test_hold_value_is_right_continuous_with_boundary_jumps():
    trace = SignalTrace(t0=0.0, dt=0.5, values=np.array([2.0, -3.0, 7.0]))
    held = trace.held_values(0.25, np.arange(7), "test")
    assert held.tolist() == [2.0, 2.0, -3.0, -3.0, 7.0, 7.0]
    # The step from each jump holds the value that starts there.
    assert trace.held_values(0.5, np.arange(4), "test").tolist() == trace.values.tolist()


def test_held_values_follow_a_graded_step_grid():
    trace = SignalTrace(t0=0.0, dt=0.5, values=np.array([2.0, -3.0, 7.0]))
    held = trace.held_values(0.125, np.array([0, 1, 2, 4, 8, 12]), "test")
    assert held.tolist() == [2.0, 2.0, 2.0, -3.0, 7.0]
    # The step from 0.25 to 0.75 would straddle the jump at 0.5.
    with pytest.raises(ValueError, match="^test: a step straddles a hold-interval boundary$"):
        trace.held_values(0.25, np.array([0, 1, 3, 4, 6]), "test")


def test_subsample_keeps_every_stride_value():
    trace = SignalTrace(t0=0.0, dt=0.02, values=np.arange(10.0))
    coarse = trace.subsample(4)
    assert coarse.dt == pytest.approx(0.08)
    assert np.array_equal(coarse.values, np.array([0.0, 4.0, 8.0]))


def test_subsample_takes_a_positive_int_only():
    trace = SignalTrace(dt=0.02, values=np.arange(10.0))
    for stride in (2.0, 2.5, math.inf, np.float64(math.inf), math.nan):
        with pytest.raises(TypeError):
            trace.subsample(stride)
    for stride in (0, -1):
        with pytest.raises(ValueError, match="positive integer"):
            trace.subsample(stride)


@pytest.mark.parametrize("u", [math.inf, math.nan])
def test_non_finite_steps_raise_value_error(u):
    trace = SignalTrace(t0=0.0, dt=0.5, values=np.arange(4.0))
    b, kb = NormalGammaBelief(0.0, 1.0, 2.0, 1.0), KalmanBelief(0.0, 1.0, 1.0)
    for what, run in (
        ("belief_path", lambda: belief_path(b, trace, u, np.arange(3))),
        ("kalman_path", lambda: kalman_path(kb, trace, u, np.arange(3))),
    ):
        with pytest.raises(ValueError, match=f"^{what} hold interval: "):
            run()


@settings(max_examples=60, derandomize=True)
@given(values=finite_values)
def test_save_load_round_trip_is_bitwise(tmp_path_factory, values):
    path = tmp_path_factory.mktemp("traces") / "trace.csv"
    trace = SignalTrace(dt=0.125, values=np.array(values), label="lab,el")
    save_trace(trace, path)
    back = load_trace(path)
    assert np.array_equal(back.values, trace.values)
    assert back.t0 == 0.0
    assert back.dt == trace.dt
    assert back.label == trace.label


# Every line boundary of str.splitlines, which load_trace splits with.
LINE_BREAKS = ["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
               "\u2029"]


@pytest.mark.parametrize("label", [f"a{b}b" for b in LINE_BREAKS] + [f"ab{b}" for b in LINE_BREAKS])
def test_save_refuses_a_label_with_a_line_break(tmp_path, label):
    path = tmp_path / "trace.csv"
    with pytest.raises(ValueError, match=f"trace label {re.escape(repr(label))} holds a line break"):
        save_trace(SignalTrace(t0=0.0, dt=0.5, values=[1.0], label=label), path)
    assert not path.exists()


@pytest.mark.parametrize("label", ["", " ", "a\tb", "a\x1fb", "a\u2027b"])
def test_labels_without_a_line_break_round_trip(tmp_path, label):
    path = tmp_path / "trace.csv"
    save_trace(SignalTrace(t0=0.0, dt=0.5, values=[1.0], label=label), path)
    assert load_trace(path).label == label


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

    late = tmp_path / "late.csv"
    late.write_text("# lab,0.5,0.25\nt,value\n0.25,1\n0.75,2\n")
    with pytest.raises(TraceFormatError, match=rf"^{re.escape(str(late))}: a trace starts at t0 = 0, got 0\.25$"):
        load_trace(late)


def test_load_rejects_tampered_time_column(tmp_path):
    path = tmp_path / "trace.csv"
    save_trace(SignalTrace(dt=0.25, values=np.arange(6.0), label="eco"), path)
    lines = path.read_text().splitlines()
    assert lines[0] == "# eco,0.25,0"
    assert lines[5] == "0.75,3"
    lines[5] = "0.7500001,3"  # data row 4, off by 4e-7*dt
    path.write_text("\n".join(lines) + "\n")
    msg = r"data row 4 '0\.7500001,3' has t=0\.7500001, expected 0\.75 from t0 and dt"
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


def percent_17g(head, table) -> list[bytes]:
    """The lines ``_write_csv`` must write: ``"%.17g" % v`` for every cell."""
    rows, cols = np.shape(table)
    row = ",".join(["%.17g"] * cols)
    body = "\n".join([row] * rows) % tuple(np.ravel(table).tolist())
    return [line.encode() for line in head + body.split("\n")[:rows]] + [b""]


def assert_csv_is_percent_17g(path, head, table):
    got = path.read_bytes().split(b"\n")
    want = percent_17g(head, table)
    if got != want:  # name the first bad line, not a diff of the whole file
        bad = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w), None)
        assert bad is None, f"line {bad}: {got[bad]!r}, expected {want[bad]!r}"
        assert len(got) == len(want)


def csv_cell_classes(rng, n):
    """About 5n cells of every class the encoder treats apart, shuffled."""
    sign = rng.choice([-1.0, 1.0], n)
    bits = rng.integers(0, 2**64, n // 4, dtype=np.uint64).view(np.float64)  # every exponent
    log_uniform = sign * np.exp(rng.uniform(np.log(1e-6), np.log(1e18), n))
    # Ties at the 17th digit: odd k over 2^m with 18 significant digits.
    m = rng.integers(2, 23, n)
    lo, hi = (np.minimum(10.0 ** (d - m) * 2.0**m, 2.0**53) for d in (17, 18))
    k = np.floor(lo + (hi - lo) * rng.random(n))
    ties = sign * np.ldexp(k + (k % 2 == 0), -m)
    tens = 10.0 ** rng.integers(-6, 19, n)
    ulp_off = np.where(rng.random(n) < 0.5, np.nextafter(tens, np.inf), np.nextafter(tens, 0.0))
    small = sign * rng.integers(0, 10**6, n) / 10.0 ** rng.integers(0, 6, n)  # short, with zeros
    special = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e-310, 1e300, 1e-4,
               1e17, 99999999999999984.0, 0.1, 0.5, 1.5, 2.5, 9.9999999999999995e-5]
    cells = np.concatenate((bits, log_uniform, ties, sign * tens, sign * ulp_off, small, special))
    return rng.permutation(cells)


def test_csv_encoder_matches_percent_17g_on_every_cell_class(tmp_path):
    # 1,000,036 cells in 250,009 rows: many encoder blocks.
    table = csv_cell_classes(np.random.default_rng(23), 190_480).reshape(-1, 4)
    path = tmp_path / "cells.csv"
    _write_csv(path, ["# meta", "a,b,c,d"], table)
    assert_csv_is_percent_17g(path, ["# meta", "a,b,c,d"], table)


@pytest.mark.parametrize("shape", [(501, 35), (1, 35), (0, 35), (4097, 1), (3, 5)])
def test_csv_encoder_matches_percent_17g_on_every_table_shape(tmp_path, shape):
    rng = np.random.default_rng(shape[0])
    table = rng.standard_normal(shape) * 10.0 ** rng.integers(-5, 18, shape)
    path = tmp_path / "table.csv"
    _write_csv(path, ["h"], table)
    assert_csv_is_percent_17g(path, ["h"], table)


@settings(max_examples=200, derandomize=True)
@given(values=st.lists(st.floats(), min_size=1, max_size=60), cols=st.integers(1, 3))
def test_csv_encoder_matches_percent_17g_on_any_float(tmp_path_factory, values, cols):
    table = np.resize(np.array(values), (len(values), cols))
    path = tmp_path_factory.mktemp("csv") / "floats.csv"
    _write_csv(path, [], table)
    assert_csv_is_percent_17g(path, [], table)


def test_trace_rejects_non_finite_values():
    with pytest.raises(ValueError):
        SignalTrace(t0=0.0, dt=0.1, values=np.array([1.0, np.nan]))
    with pytest.raises(ValueError):
        SignalTrace(t0=0.0, dt=0.0, values=np.array([1.0]))


@pytest.mark.parametrize("t0", [math.nan, math.inf, -math.inf, 1e-13, -0.02, 0.25])
def test_trace_rejects_a_start_other_than_zero(t0):
    with pytest.raises(ValueError, match=r"^a trace starts at t0 = 0, got "):
        SignalTrace(dt=0.1, values=np.array([1.0, 2.0]), t0=t0)
