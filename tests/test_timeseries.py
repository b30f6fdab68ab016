import re
import string
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newsvar import intensity
from newsvar import timeseries as ts
from newsvar.errors import AlignmentError, DomainError, FrequencyError, SeriesError


def series(values, freq=ts.Frequency.ANNUAL, cal=ts.CalendarKind.IRANIAN, year=1370, sub=None):
    if freq is not ts.Frequency.ANNUAL and sub is None:
        sub = 1
    return ts.CalendarSeries(freq, cal, ts.PeriodLabel(year, sub), np.asarray(values, dtype=float))


# ---------------------------------------------------------------------------
# period labels
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "text,freq",
    [
        ("1989", ts.Frequency.ANNUAL),
        ("1989Q1", ts.Frequency.QUARTERLY),
        ("2020Q4", ts.Frequency.QUARTERLY),
        ("1989-01", ts.Frequency.MONTHLY),
        ("2020-12", ts.Frequency.MONTHLY),
    ],
)
def test_period_labels_round_trip(text, freq):
    label, found = ts.PeriodLabel.parse(text)
    assert found is freq
    assert label.format(freq) == text


def test_period_label_rejects_bad_subperiods():
    with pytest.raises(SeriesError):
        ts.PeriodLabel.parse("1989-13")
    with pytest.raises(SeriesError):
        ts.PeriodLabel.parse("1989Q5")
    with pytest.raises(SeriesError):
        ts.PeriodLabel(1989, 5).validate(ts.Frequency.QUARTERLY)


def test_period_shift_crosses_year_boundaries():
    label = ts.PeriodLabel(1999, 11)
    assert label.shift(3, ts.Frequency.MONTHLY) == ts.PeriodLabel(2000, 2)
    assert ts.PeriodLabel(2000, 1).shift(-1, ts.Frequency.QUARTERLY) == ts.PeriodLabel(1999, 4)


# ---------------------------------------------------------------------------
# construction invariants
# ---------------------------------------------------------------------------


def test_interior_nan_rejected_edges_allowed():
    with pytest.raises(SeriesError):
        series([1.0, np.nan, 3.0])
    s = series([np.nan, 1.0, 2.0, np.nan])
    assert len(s.trimmed()) == 2
    assert s.trimmed().start.year == 1371


def test_values_are_immutable():
    s = series([1.0, 2.0])
    with pytest.raises(ValueError):
        s.values[0] = 9.0


# ---------------------------------------------------------------------------
# calendar conversions
# ---------------------------------------------------------------------------


def test_annual_conversion_constant_is_identity():
    out = ts.convert_iranian_annual(series([365.0] * 4))
    assert out.calendar is ts.CalendarKind.GREGORIAN
    assert out.start.year == 1371
    assert np.array_equal(out.values, [365.0, 365.0, 365.0])


def test_annual_conversion_direct_arithmetic():
    out = ts.convert_iranian_annual(series([0.0, 365.0]))
    assert out.values[0] == 285.0


def test_annual_conversion_impulse_weights():
    out = ts.convert_iranian_annual(series([0.0, 365.0, 0.0, 0.0]))
    assert np.array_equal(out.values, [285.0, 80.0, 0.0])


def test_annual_conversion_ramp_exact():
    years = np.arange(5.0)
    out = ts.convert_iranian_annual(series(365.0 * years))
    expected = 365.0 * years[1:] - 80.0
    assert np.array_equal(out.values, expected)


def test_quarterly_conversion_examples():
    const = ts.convert_iranian_quarterly(
        series([9.0, 9.0, 9.0], freq=ts.Frequency.QUARTERLY)
    )
    assert np.array_equal(const.values, [9.0, 9.0])
    direct = ts.convert_iranian_quarterly(series([9.0, 0.0], freq=ts.Frequency.QUARTERLY))
    assert direct.values[0] == 8.0
    impulse = ts.convert_iranian_quarterly(
        series([0.0, 9.0, 0.0], freq=ts.Frequency.QUARTERLY)
    )
    assert np.array_equal(impulse.values, [1.0, 8.0])


def test_monthly_conversion_examples():
    const = ts.convert_iranian_monthly(series([3.0, 3.0], freq=ts.Frequency.MONTHLY))
    assert np.array_equal(const.values, [3.0])
    direct = ts.convert_iranian_monthly(series([3.0, 0.0], freq=ts.Frequency.MONTHLY))
    assert direct.values[0] == 1.0
    impulse = ts.convert_iranian_monthly(series([0.0, 3.0, 0.0], freq=ts.Frequency.MONTHLY))
    assert np.array_equal(impulse.values, [2.0, 1.0])


def test_conversion_weights_sum_to_one():
    rng = np.random.default_rng(0)
    for freq, convert in [
        (ts.Frequency.ANNUAL, ts.convert_iranian_annual),
        (ts.Frequency.QUARTERLY, ts.convert_iranian_quarterly),
        (ts.Frequency.MONTHLY, ts.convert_iranian_monthly),
    ]:
        c = rng.uniform(1, 100)
        out = convert(series([c] * 6, freq=freq))
        assert np.allclose(out.values, c, rtol=0, atol=1e-12)


_CONVERTERS = [
    (ts.Frequency.ANNUAL, ts.convert_iranian_annual),
    (ts.Frequency.QUARTERLY, ts.convert_iranian_quarterly),
    (ts.Frequency.MONTHLY, ts.convert_iranian_monthly),
]
_finite = st.floats(-1e3, 1e3, allow_subnormal=False)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(
    converter=st.sampled_from(_CONVERTERS),
    xy=st.integers(2, 12).flatmap(lambda n: st.tuples(*[st.lists(_finite, min_size=n, max_size=n)] * 2)),
    a=st.floats(-10, 10, allow_subnormal=False),
    b=st.floats(-10, 10, allow_subnormal=False),
    c=st.floats(-1e6, 1e6, allow_subnormal=False),
)
def test_conversion_is_affine(converter, xy, a, b, c):
    freq, convert = converter
    x, y = (np.array(v) for v in xy)

    def conv(values):
        return convert(series(values, freq=freq)).values

    # a few roundings of terms no larger than the combination's scale
    scale = abs(a) * np.abs(x).max() + abs(b) * np.abs(y).max()
    assert np.allclose(conv(a * x + b * y), a * conv(x) + b * conv(y), rtol=0, atol=1e-14 * scale + 1e-300)
    assert np.allclose(conv(np.full(len(x), c)), c, rtol=1e-15, atol=0)


def test_conversion_errors():
    with pytest.raises(SeriesError):
        ts.convert_iranian_annual(series([1.0]))
    with pytest.raises(FrequencyError):
        ts.convert_iranian_annual(series([1.0, 2.0], freq=ts.Frequency.QUARTERLY))
    with pytest.raises(DomainError):
        ts.convert_iranian_annual(series([1.0, 2.0], cal=ts.CalendarKind.GREGORIAN))


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


def test_aggregate_monthly_mean_to_quarterly():
    s = series([1, 2, 3, 4, 5, 6], freq=ts.Frequency.MONTHLY, cal=ts.CalendarKind.GREGORIAN, year=2000)
    out = ts.aggregate(s, ts.Frequency.QUARTERLY)
    assert np.array_equal(out.values, [2.0, 5.0])
    assert out.start == ts.PeriodLabel(2000, 1)


def test_aggregate_drops_partial_head():
    s = series(np.arange(1.0, 15.0), freq=ts.Frequency.MONTHLY, cal=ts.CalendarKind.GREGORIAN, year=2000, sub=2)
    out = ts.aggregate(s, ts.Frequency.QUARTERLY)
    assert len(out) == 4
    assert out.start == ts.PeriodLabel(2000, 2)
    assert np.array_equal(out.values, [4.0, 7.0, 10.0, 13.0])


def test_aggregate_constant_mean():
    s = series([5.0] * 12, freq=ts.Frequency.MONTHLY, cal=ts.CalendarKind.GREGORIAN, year=2001)
    assert np.array_equal(ts.aggregate(s, ts.Frequency.ANNUAL).values, [5.0])


def test_aggregate_finer_target_rejected():
    s = series([1.0, 2.0], freq=ts.Frequency.QUARTERLY, cal=ts.CalendarKind.GREGORIAN)
    with pytest.raises(FrequencyError):
        ts.aggregate(s, ts.Frequency.MONTHLY)
    with pytest.raises(FrequencyError):
        ts.aggregate(s, ts.Frequency.QUARTERLY)


# ---------------------------------------------------------------------------
# log differences
# ---------------------------------------------------------------------------


def test_log_diff_examples():
    e = np.exp(1.0)
    s = series([1.0, e, e**2], cal=ts.CalendarKind.GREGORIAN)
    out = ts.log_diff(s)
    assert np.allclose(out.values, [1.0, 1.0], atol=1e-15)
    assert out.start.year == 1371
    const = ts.log_diff(series([7.0] * 5, cal=ts.CalendarKind.GREGORIAN))
    assert np.array_equal(const.values, np.zeros(4))
    pct = ts.log_diff(series([100.0, 105.0], cal=ts.CalendarKind.GREGORIAN))
    assert pct.values[0] == pytest.approx(np.log(1.05), abs=1e-12)


def test_log_diff_reports_offending_period():
    s = series([1.0, -2.0, 3.0], cal=ts.CalendarKind.GREGORIAN, year=1989)
    with pytest.raises(DomainError, match="1990"):
        ts.log_diff(s)


def test_log_diff_inverts_cumsum():
    rng = np.random.default_rng(3)
    d = rng.normal(0, 0.05, 40)
    levels = np.exp(np.concatenate([[0.0], np.cumsum(d)]))
    out = ts.log_diff(series(levels, cal=ts.CalendarKind.GREGORIAN))
    assert np.allclose(out.values, d, atol=1e-12)


# ---------------------------------------------------------------------------
# alignment helpers
# ---------------------------------------------------------------------------


def test_align_intersects_spans():
    a = series([1, 2, 3, 4], freq=ts.Frequency.QUARTERLY, cal=ts.CalendarKind.GREGORIAN, year=2000)
    b = series([10, 20, 30], freq=ts.Frequency.QUARTERLY, cal=ts.CalendarKind.GREGORIAN, year=2000, sub=2)
    (xa, xb), start = ts.align(a, b)
    assert start == ts.PeriodLabel(2000, 2)
    assert np.array_equal(xa, [2, 3, 4])
    assert np.array_equal(xb, [10, 20, 30])


def test_align_errors():
    a = series([1, 2], freq=ts.Frequency.QUARTERLY, cal=ts.CalendarKind.GREGORIAN, year=2000)
    b = series([1, 2], freq=ts.Frequency.MONTHLY, cal=ts.CalendarKind.GREGORIAN, year=2000)
    with pytest.raises(AlignmentError):
        ts.align(a, b)
    c = series([1, 2], freq=ts.Frequency.QUARTERLY, cal=ts.CalendarKind.GREGORIAN, year=2010)
    with pytest.raises(AlignmentError):
        ts.align(a, c)


def test_lag_relabels_periods():
    s = series([1.0, 2.0], freq=ts.Frequency.QUARTERLY, cal=ts.CalendarKind.GREGORIAN, year=2000)
    lagged = ts.lag(s, 1)
    assert lagged.start == ts.PeriodLabel(2000, 2)
    # aligning x with lag(x) pairs x_t with x_{t-1}
    (x, xl), _ = ts.align(s, lagged)
    assert np.array_equal(x, [2.0])
    assert np.array_equal(xl, [1.0])


# ---------------------------------------------------------------------------
# CSV round trips
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "freq,year,sub",
    [
        (ts.Frequency.ANNUAL, 1989, None),
        (ts.Frequency.QUARTERLY, 1989, 1),
        (ts.Frequency.MONTHLY, 1989, 7),
    ],
)
def test_csv_round_trip(tmp_path, freq, year, sub):
    s = ts.CalendarSeries(
        freq,
        ts.CalendarKind.GREGORIAN,
        ts.PeriodLabel(year, sub),
        np.array([1.5, 2.25, -0.125]),
    )
    path = tmp_path / "series.csv"
    ts.write_series_csv(s, path)
    back = ts.read_series_csv(path)
    assert back.frequency is freq
    assert back.start == s.start
    assert np.array_equal(back.values, s.values)


def test_csv_requires_header_and_contiguity(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("1989,1.0\n1990,2.0\n", encoding="utf-8")
    with pytest.raises(SeriesError, match="header"):
        ts.read_series_csv(p)
    p.write_text("period,value\n1989,1.0\n1991,2.0\n", encoding="utf-8")
    with pytest.raises(SeriesError, match="1990"):
        ts.read_series_csv(p)
    p.write_text("period,value\n1989,1.0\n1990Q1,2.0\n", encoding="utf-8")
    with pytest.raises(SeriesError, match="expected annual"):
        ts.read_series_csv(p)


def test_csv_reports_bad_value_line(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("period,value\n1989,1.0\n1990,oops\n", encoding="utf-8")
    with pytest.raises(SeriesError, match=":3"):
        ts.read_series_csv(p)


def test_csv_names_a_repeated_period_and_its_line(tmp_path):
    p = tmp_path / "repeat.csv"
    p.write_text("period,value\n2000Q1,1\n2000Q1,2\n2000Q2,3\n", encoding="utf-8")
    with pytest.raises(SeriesError) as info:
        ts.read_series_csv(p)
    assert str(info.value) == f"{p}:3: duplicate period 2000Q1 (first on line 2)"


@pytest.mark.parametrize("cell", ["inf", "-inf", "1e999"])
def test_csv_names_the_line_of_an_infinite_value(tmp_path, cell):
    p = tmp_path / "inf.csv"
    p.write_text(f"period,value\n1989,1.0\n\n1990,{cell}\n1991,2.0\n", encoding="utf-8")
    with pytest.raises(SeriesError, match=f"^{re.escape(str(p))}:4: value '{cell}' is infinite$"):
        ts.read_series_csv(p)


@pytest.mark.parametrize(
    "body, message",
    [
        ("1989,1.0\n1990,nan\n1991,2.0\n", "missing markers are permitted only at the edges"),
        ("1989,1.0\n1990," + "9" * 140_000 + "\n", "field larger than field limit"),
    ],
)
def test_csv_errors_after_the_rows_name_the_file(tmp_path, body, message):
    p = tmp_path / "bad.csv"
    p.write_text("period,value\n" + body, encoding="utf-8")
    with pytest.raises(SeriesError, match=f"^{re.escape(str(p))}: {message}"):
        ts.read_series_csv(p)


@pytest.mark.parametrize(
    "reader, body, message",
    [
        # the same rules in every format
        (intensity.read_flows_csv, "period,additions,removals\n2006Q1,inf,0\n", ":2: value 'inf' is infinite"),
        (intensity.read_flows_csv, "period,additions,removals\n2006Q1,1,\n2006Q2,1,0\n",
         ": entity flow counts must be finite"),
        (intensity.read_flows_csv, "period,additions,removals\n2006Q1,1,0\n2006Q1,2,0\n2006Q2,1,0\n",
         ":3: duplicate period 2006Q1 (first on line 2)"),
        (intensity.read_flows_csv, "period,additions,removals\n2006Q1,x,0\n", ":2: bad value 'x'"),
        (ts.read_series_csv, "period,value\n1989,1\n1990,2,3\n", ":3: 3 cells, expected 2"),
        (intensity.read_flows_csv, "period,additions,removals\n2006Q1,1,0,7\n", ":2: 4 cells, expected 3"),
        (intensity.read_flows_csv, "period,additions,removals\n2006Q1,1,0\n2006Q2,1\n", ":3: 2 cells, expected 3"),
        (ts.read_series_csv, "period,value,x\n1989,1,2\n", ": expected header 'period,value'"),
    ],
    ids=[
        "flows-inf", "flows-blank", "flows-repeat", "flows-bad-number", "series-long-row", "flows-long-row",
        "flows-short-row", "series-extra-column",
    ],
)
def test_period_tables_share_one_set_of_rules(tmp_path, reader, body, message):
    p = tmp_path / "table.csv"
    p.write_text(body, encoding="utf-8")
    with pytest.raises(SeriesError) as info:
        reader(p)
    assert str(info.value) == f"{p}{message}"


def test_blank_edge_cells_are_missing_values(tmp_path):
    p = tmp_path / "edges.csv"
    p.write_text("period,value\n1989,\n1990,1.5\n1991, \n", encoding="utf-8")
    s = ts.read_series_csv(p)
    assert s.start == ts.PeriodLabel(1989) and np.array_equal(s.values, [np.nan, 1.5, np.nan], equal_nan=True)
    p.write_text("PERIOD , Value\n1990,1.5\n", encoding="utf-8")
    assert ts.read_series_csv(p).values.tolist() == [1.5]


def test_read_period_table_orders_rows(tmp_path):
    p = tmp_path / "table.csv"
    p.write_text(" Period ,US, uk\n2000-02,2,\n\n2000-01,1,nan\n2000-03,3,6\n", encoding="utf-8")
    freq, start, table = ts.read_period_table(p, ("us", "uk"))
    assert (freq, start) == (ts.Frequency.MONTHLY, ts.PeriodLabel(2000, 1))
    assert np.array_equal(table, [[1, np.nan], [2, np.nan], [3, 6]], equal_nan=True)


_LABELS = {
    "annual": ["1990", "1991", "1992", "1993", "1994", "1995"],
    "quarterly": ["1990Q3", "1990Q4", "1991Q1", "1991Q2", "1991Q3", "1991Q4"],
    "monthly": ["1990-11", "1990-12", "1991-01", "1991-02", "1991-03", "1991-04"],
}
_BAD_LABELS = ["", "19x0", "1990Q5", "1990-13", "1990-1", "Q1", "1234567"]
_VALUES = ["1.5", "-2", " 3 ", "0", "1e-3", "nan", "NaN", ""]
_BAD_VALUES = ["inf", "-inf", "1e999", "abc", "1,5", "0x10"]
_READERS = [
    (ts.read_series_csv, ("value",), ts.CalendarSeries),
    (intensity.read_flows_csv, ("additions", "removals"), intensity.EntityFlowSeries),
]


@st.composite
def period_files(draw, columns):
    """``period,<columns>`` CSV text: mostly good rows of one frequency, so
    that gaps, repeats and NaN runs occur, among bad and mixed-frequency
    labels, bad values, blank, short and long rows, bad headers, quoting and
    noise."""
    good = ",".join(["period", *columns])
    header = draw(st.sampled_from([good] * 12 + [
        "Period, " + ", ".join(c.title() for c in columns),
        good + ",x",
        ",".join(reversed(["period", *columns])),
        ",".join(["period", *[columns[0]] * len(columns)]),
        "period",
        "",
    ]))
    freq = draw(st.sampled_from(sorted(_LABELS)))
    good_label = st.sampled_from(_LABELS[freq])
    any_label = st.sampled_from([l for labels in _LABELS.values() for l in labels] + _BAD_LABELS)
    lines = [header]
    for _ in range(draw(st.integers(0, 6))):
        shape = draw(st.sampled_from(["row"] * 20 + ["blank", "short", "long", "noise"]))
        if shape == "blank":
            lines.append(draw(st.sampled_from(["", ",", " , ", '"",'])))
            continue
        if shape == "noise":
            lines.append(draw(st.text(string.printable, max_size=12)))
            continue
        cells = [draw(st.sampled_from([good_label] * 12 + [any_label]).flatmap(lambda s: s))]
        cells += [draw(st.sampled_from(_VALUES * 6 + _BAD_VALUES)) for _ in columns]
        if shape == "short":
            cells = cells[:-1]
        elif shape == "long":
            cells.append(draw(st.sampled_from(["", "x", "1"])))
        lines.append(",".join(f'"{c}"' if draw(st.booleans()) else c for c in cells))
    return "\n".join(lines) + draw(st.sampled_from(["\n", "", "\r\n"]))


@settings(derandomize=True, database=None, max_examples=600, deadline=None)
@given(data=st.data())
def test_period_csv_readers_return_their_type_or_name_the_file(data):
    reader, columns, kind = data.draw(st.sampled_from(_READERS), label="reader")
    text = data.draw(period_files(columns), label="text")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        path.write_text(text, encoding="utf-8", newline="")
        try:
            result = reader(path)
        except SeriesError as exc:
            assert str(exc).startswith(f"{path}:"), str(exc)
            return
    assert isinstance(result, kind)
    if kind is intensity.EntityFlowSeries:
        assert np.isfinite(result.additions).all() and np.isfinite(result.removals).all()
    if kind is ts.CalendarSeries:
        assert np.isfinite(result.values).any()


@pytest.mark.parametrize(
    "reader, header",
    [
        (ts.read_series_csv, b"period,value"),
        (intensity.read_counts_csv, b"date,outlet,count"),
        (intensity.read_flows_csv, b"period,additions,removals"),
    ],
)
def test_csv_readers_refuse_undecodable_bytes(tmp_path, reader, header):
    path = tmp_path / "latin1.csv"
    path.write_bytes(header + b"\n1990,caf\xe9,1\n")
    with pytest.raises(SeriesError, match="latin1.csv: not UTF-8 text"):
        reader(path)
