import re
import string
import tempfile
import tracemalloc
from datetime import date
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import panel_from_mapping, panel_to_mapping, read_counts_reference
from newsvar import intensity as ix
from newsvar import timeseries as ts
from newsvar.errors import (
    AlignmentError,
    DegenerateDataError,
    GapError,
    NormalizationError,
    SampleError,
    SeriesError,
)


def quarterly(values, year=1990, sub=1):
    return ts.CalendarSeries(
        ts.Frequency.QUARTERLY,
        ts.CalendarKind.GREGORIAN,
        ts.PeriodLabel(year, sub),
        np.asarray(values, dtype=float),
    )


def as_index(values, kind=ix.IndexKind.ON, year=1990):
    return ix.IntensityIndex(
        series=quarterly(values, year=year), kind=kind, normalization_max=1.0
    )


def month_panel(month_counts, outlets=("a", "b")):
    """Build a panel from per-outlet daily counts keyed by (year, month)."""
    counts = {o: {} for o in outlets}
    for (year, month), per_outlet in month_counts.items():
        for o, daily in per_outlet.items():
            for d, c in enumerate(daily, start=1):
                counts[o][date(year, month, d)] = c
    return panel_from_mapping(tuple(outlets), counts)


# ---------------------------------------------------------------------------
# monthly means
# ---------------------------------------------------------------------------


def test_monthly_mean_two_outlets_two_days():
    panel = month_panel({(2000, 1): {"a": [1, 3], "b": [2, 2]}})
    out = ix.monthly_mean_count(panel)
    assert out.values[0] == 2.0
    assert out.start == ts.PeriodLabel(2000, 1)


def test_monthly_mean_constant_single_outlet():
    months = {(2000, m): {"a": [4] * 20} for m in (1, 2, 3)}
    out = ix.monthly_mean_count(month_panel(months, outlets=("a",)))
    assert np.array_equal(out.values, [4.0, 4.0, 4.0])


def test_monthly_mean_single_spike():
    # six outlets, 26 days, all ones except one count of 157
    outlets = tuple("abcdef")
    daily = {o: [1] * 26 for o in outlets}
    daily["a"] = [157] + [1] * 25
    panel = month_panel({(2000, 5): daily}, outlets=outlets)
    out = ix.monthly_mean_count(panel)
    assert out.values[0] == pytest.approx(2.0)


def test_monthly_mean_counts_missing_outlet_days_as_zero():
    # outlet b publishes on one of the two covered days only
    counts = {
        "a": {date(2000, 1, 1): 2, date(2000, 1, 2): 2},
        "b": {date(2000, 1, 1): 4},
    }
    panel = panel_from_mapping(("a", "b"), counts)
    out = ix.monthly_mean_count(panel)
    assert out.values[0] == pytest.approx(8 / 4)


# ---------------------------------------------------------------------------
# panel invariants
# ---------------------------------------------------------------------------


def test_panel_derives_months_and_freezes_columns():
    panel = panel_from_mapping(
        ("a", "b"), {"a": {date(1999, 12, 31): 1}, "b": {date(2000, 1, 1): 2}}
    )
    assert panel.month.tolist() == [1999 * 12 + 11, 2000 * 12]
    with pytest.raises(ValueError):
        panel.count[0] = 5


def test_panel_rejects_duplicate_outlet_names():
    with pytest.raises(SeriesError, match="duplicate outlet"):
        panel_from_mapping(("a", "a"), {"a": {date(2000, 1, 1): 1}})


def test_panel_rejects_duplicate_outlet_day():
    day = date(2000, 1, 1).toordinal()
    with pytest.raises(SeriesError, match="duplicate count for b on 2000-01-01"):
        ix.ArticleCountPanel(outlets=("a", "b"), day=[day, day, day], outlet=[0, 1, 1], count=[1, 2, 3])


def test_panel_rejects_negative_count():
    with pytest.raises(SeriesError, match="negative count for a on 2000-01-02"):
        panel_from_mapping(("a",), {"a": {date(2000, 1, 1): 1, date(2000, 1, 2): -1}})


def test_panel_rejects_empty_panel():
    with pytest.raises(SeriesError, match="no daily observations"):
        panel_from_mapping(("a",), {})
    with pytest.raises(SeriesError, match="at least one outlet"):
        panel_from_mapping((), {})


@pytest.mark.parametrize(
    "columns, message",
    [
        ({"day": [730120, 730121], "outlet": [0], "count": [1, 1]}, "equal length"),
        ({"day": [730120], "outlet": [1], "count": [1]}, "outlet codes"),
        ({"day": [0], "outlet": [0], "count": [1]}, "ordinals"),
    ],
)
def test_panel_rejects_malformed_columns(columns, message):
    with pytest.raises(SeriesError, match=message):
        ix.ArticleCountPanel(outlets=("a",), **columns)


def test_monthly_mean_empty_month_warns_then_gaps():
    months = {(2000, 1): {"a": [1]}, (2000, 3): {"a": [1]}}
    panel = month_panel(months, outlets=("a",))
    # the GapError alone names the month; no warning repeats it
    with pytest.raises(GapError, match="2000-02"):
        ix.monthly_mean_count(panel)


# ---------------------------------------------------------------------------
# standardized variant
# ---------------------------------------------------------------------------


def test_standardized_single_outlet_is_scaled_means():
    months = {(2000, 1): {"a": [2] * 10}, (2000, 2): {"a": [4] * 10}, (2000, 3): {"a": [6] * 10}}
    panel = month_panel(months, outlets=("a",))
    plain = ix.monthly_mean_count(panel)
    standardized = ix.standardized_monthly_count(panel)
    sigma = np.std(plain.values, ddof=1)
    assert np.allclose(standardized.values, plain.values / sigma)


def test_standardized_scalar_multiple_outlets_average_to_one_series():
    base = {1: [1, 2, 3], 2: [2, 4, 4], 3: [5, 1, 0]}
    months = {(2001, m): {"a": v, "b": [10 * c for c in v]} for m, v in base.items()}
    panel = month_panel(months)
    standardized = ix.standardized_monthly_count(panel)
    solo = ix.standardized_monthly_count(
        month_panel({(2001, m): {"a": v} for m, v in base.items()}, outlets=("a",))
    )
    assert np.allclose(standardized.values, solo.values)


def test_standardized_tracks_simple_index_up_to_affine_rescale():
    rng = np.random.default_rng(8)
    months = {}
    shape = rng.uniform(1, 5, size=24)
    for t in range(24):
        y, m = 2000 + t // 12, 1 + t % 12
        daily_a = rng.poisson(shape[t], size=26)
        months[(y, m)] = {"a": daily_a.tolist(), "b": (10 * daily_a).tolist()}
    panel = month_panel(months)
    simple = ix.monthly_mean_count(panel)
    standardized = ix.standardized_monthly_count(panel)
    corr = np.corrcoef(simple.values, standardized.values)[0, 1]
    assert corr == pytest.approx(1.0, abs=1e-12)


def test_standardized_rejects_flat_outlet():
    months = {(2000, m): {"a": [m], "b": [3]} for m in (1, 2, 3)}
    with pytest.raises(DegenerateDataError, match="'b'"):
        ix.standardized_monthly_count(month_panel(months))


def test_scaling_one_outlet_leaves_standardized_index_unchanged():
    rng = np.random.default_rng(21)
    months = {}
    for t in range(12):
        months[(2002, 1 + t)] = {
            "a": rng.poisson(3, size=20).tolist(),
            "b": rng.poisson(2, size=20).tolist(),
        }
    panel = month_panel(months)
    scaled = {
        k: {"a": v["a"], "b": [7 * c for c in v["b"]]} for k, v in months.items()
    }
    panel_scaled = month_panel(scaled)
    out = ix.standardized_monthly_count(panel)
    out_scaled = ix.standardized_monthly_count(panel_scaled)
    assert np.allclose(out.values, out_scaled.values, atol=1e-12)


# ---------------------------------------------------------------------------
# normalization and netting
# ---------------------------------------------------------------------------


def test_normalize_unit_max_examples():
    idx = ix.normalize_unit_max(quarterly([2.0, 4.0, 1.0]))
    assert np.allclose(idx.series.values, [0.5, 1.0, 0.25])
    assert idx.normalization_max == 4.0
    flat = ix.normalize_unit_max(quarterly([3.0, 3.0, 3.0]))
    assert np.array_equal(flat.series.values, [1.0, 1.0, 1.0])


def test_normalize_window_allows_values_above_one_outside():
    idx = ix.normalize_unit_max(
        quarterly([1.0, 2.0, 8.0]),
        window=(ts.PeriodLabel(1990, 1), ts.PeriodLabel(1990, 2)),
    )
    assert np.allclose(idx.series.values, [0.5, 1.0, 4.0])


def test_normalize_rejects_nonpositive_max():
    with pytest.raises(NormalizationError):
        ix.normalize_unit_max(quarterly([0.0, 0.0]))


def test_unit_max_absorbs_common_scaling():
    values = np.array([1.0, 5.0, 2.0, 4.0])
    a = ix.normalize_unit_max(quarterly(values))
    b = ix.normalize_unit_max(quarterly(1000.0 * values))
    assert np.allclose(a.series.values, b.series.values, atol=1e-15)


def test_net_index_examples():
    on = as_index([0.5, 1.0, 0.0])
    off = as_index([0.25, 0.0, 1.0], kind=ix.IndexKind.OFF)
    net = ix.net_index(on, off, 0.4)
    assert net.kind is ix.IndexKind.NET
    assert net.net_weight == 0.4
    assert np.allclose(net.series.values, [0.4, 1.0, -0.4])
    # off identically zero: net equals on
    zero_off = as_index([0.0, 0.0, 0.0], kind=ix.IndexKind.OFF)
    assert np.array_equal(ix.net_index(on, zero_off, 0.4).series.values, on.series.values)
    # weight zero reduces net to on exactly
    assert np.array_equal(ix.net_index(on, off, 0.0).series.values, on.series.values)


def test_net_index_requires_alignment():
    on = as_index([0.5, 1.0])
    off = as_index([0.5, 1.0], kind=ix.IndexKind.OFF, year=1991)
    with pytest.raises(AlignmentError):
        ix.net_index(on, off, 0.4)


# ---------------------------------------------------------------------------
# grid search
# ---------------------------------------------------------------------------


def make_grid_fixture(rng, T=5000, w_true=0.4, beta2=-0.8, sigma=0.02):
    on = np.abs(np.cumsum(rng.normal(0, 0.1, T))) + rng.uniform(0.05, 0.15, T)
    off = np.abs(np.cumsum(rng.normal(0, 0.1, T))) + rng.uniform(0.05, 0.15, T)
    on /= on.max()
    off /= off.max()
    s = on - w_true * off
    dy = np.zeros(T)
    for t in range(1, T):
        dy[t] = 0.005 + 0.2 * dy[t - 1] + beta2 * s[t - 1] + rng.normal(0, sigma)
    return as_index(on), as_index(off, kind=ix.IndexKind.OFF), quarterly(dy)


def test_grid_search_recovers_true_weight():
    on, off, dy = make_grid_fixture(np.random.default_rng(12))
    result = ix.grid_search_weight(on, off, dy)
    assert result.w_hat == 0.4
    assert [p.weight for p in result.points] == pytest.approx(np.arange(0.1, 1.0, 0.1))
    # likelihood ranking mirrors SSR ranking
    best = max(result.points, key=lambda p: p.loglik)
    assert best.weight == result.w_hat


def test_grid_search_flat_when_index_is_irrelevant():
    on, off, dy = make_grid_fixture(np.random.default_rng(4), beta2=0.0)
    result = ix.grid_search_weight(on, off, dy)
    assert result.relative_ssr_spread < 1e-2


def test_grid_search_invariant_to_constant_shift_of_growth():
    on, off, dy = make_grid_fixture(np.random.default_rng(2), T=400)
    shifted = dy.replace_values(dy.values + 5.0)
    a = ix.grid_search_weight(on, off, dy)
    b = ix.grid_search_weight(on, off, shifted)
    assert a.w_hat == b.w_hat
    for pa, pb in zip(a.points, b.points):
        assert pa.ssr == pytest.approx(pb.ssr, rel=1e-9)


def test_grid_search_needs_overlap():
    on, off, _ = make_grid_fixture(np.random.default_rng(1), T=50)
    short = quarterly(np.zeros(5))
    with pytest.raises(SampleError):
        ix.grid_search_weight(on, off, short)


# ---------------------------------------------------------------------------
# entity-flow variant
# ---------------------------------------------------------------------------


def flows(additions, removals, year=2006):
    return ix.EntityFlowSeries(
        frequency=ts.Frequency.QUARTERLY,
        start=ts.PeriodLabel(year, 1),
        additions=np.asarray(additions, dtype=float),
        removals=np.asarray(removals, dtype=float),
    )


def test_sdn_index_example():
    idx = ix.sdn_index(flows([10, 5, 0], [0, 0, 5]), w=0.4)
    assert idx.kind is ix.IndexKind.SDN_NET
    assert np.allclose(idx.series.values, [1.0, 0.5, -0.2])
    assert idx.normalization_max == 10.0


def test_sdn_index_no_removals_is_unit_max():
    idx = ix.sdn_index(flows([2, 8, 4], [0, 0, 0]), w=0.4)
    assert np.allclose(idx.series.values, [0.25, 1.0, 0.5])


def test_sdn_index_rejects_nonpositive_max():
    with pytest.raises(NormalizationError):
        ix.sdn_index(flows([0, 0], [3, 3]), w=0.4)


def test_sdn_correlation_with_newspaper_index_is_a_scalar():
    rng = np.random.default_rng(9)
    latent = np.abs(np.cumsum(rng.normal(0, 1, 40))) + 0.5
    adds = np.round(latent * 3 + rng.uniform(0, 2, 40))
    rems = np.round(rng.uniform(0, 2, 40))
    sdn = ix.sdn_index(flows(adds, rems, year=1990), w=0.4)
    news = as_index(latent / latent.max())
    rho = np.corrcoef(*ts.align(sdn.series, news.series)[0])[0, 1]
    assert -1.0 <= rho <= 1.0
    assert rho > 0.5  # both track the same latent intensity


# ---------------------------------------------------------------------------
# CSV interfaces
# ---------------------------------------------------------------------------


def test_read_counts_csv(tmp_path):
    p = tmp_path / "counts.csv"
    p.write_text(
        "date,outlet,count\n2000-01-01,a,3\n2000-01-02,a,0\n2000-01-01,b,1\n",
        encoding="utf-8",
    )
    panel = ix.read_counts_csv(p)
    assert panel.outlets == ("a", "b")
    assert panel_to_mapping(panel)["a"][date(2000, 1, 1)] == 3


def test_read_counts_csv_errors_carry_line_numbers(tmp_path):
    p = tmp_path / "counts.csv"
    p.write_text("date,outlet,count\n2000-01-01,a,3\nnot-a-date,a,1\n", encoding="utf-8")
    with pytest.raises(SeriesError, match=":3"):
        ix.read_counts_csv(p)
    p.write_text("date,outlet,count\n2000-01-01,a,3\n2000-01-01,a,4\n", encoding="utf-8")
    with pytest.raises(SeriesError, match="duplicate"):
        ix.read_counts_csv(p)
    for outlet in (" ", ""):
        p.write_text(f"date,outlet,count\n2000-01-02,{outlet},4\n", encoding="utf-8")
        with pytest.raises(SeriesError, match=":2: empty outlet"):
            ix.read_counts_csv(p)
    p.write_text("date,outlet,count\n2000-01-01,a,3\n2000-01-021,a,4\n", encoding="utf-8")
    with pytest.raises(SeriesError, match=":3: bad date '2000-01-021'"):
        ix.read_counts_csv(p)


def test_read_counts_csv_rejects_count_beyond_int64(tmp_path):
    p = tmp_path / "counts.csv"
    top = 2**63 - 1
    p.write_text(f"date,outlet,count\n2000-01-01,a,{top}\n2000-01-02,a,{top + 1}\n", encoding="utf-8")
    with pytest.raises(SeriesError, match=r":3: count '9223372036854775808' does not fit in 64 bits"):
        ix.read_counts_csv(p)
    p.write_text(f"date,outlet,count\n2000-01-01,a,{top}\n", encoding="utf-8")
    assert ix.read_counts_csv(p).count.tolist() == [top]


# Cells for generated count files.  Good dates span two months in four ISO
# spellings (padded, basic, week date); good outlets and counts include
# non-ASCII text and counts of 19 or more digits, which ``int`` reads; bad
# cells cover impossible and non-ISO dates, blank outlets and non-integer
# or negative counts.
BAD_DATES = ["2000-13-01", "2001-02-29", "01/02/2000", "", "  "]
GOOD_OUTLETS = ["a", "b", " a ", "c,d", 'q"x', "café"]
BAD_OUTLETS = ["", " "]
GOOD_COUNTS = ["0", "3", " 7 ", "+2", "1_000", "-0", "\u0663", str(2**62), "0" * 19 + "5"]
BAD_COUNTS = ["-1", "1.5", "x", "", "1__0"]
# cells of plain rows, which are read on bytes
PLAIN_OUTLETS = ["a", "b", " a "]
PLAIN_COUNTS = ["0", "3", "42"]


@st.composite
def date_cells(draw, plain=False):
    day = date.fromordinal(date(2000, 1, 1).toordinal() + draw(st.integers(0, 59)))
    year, week, weekday = day.isocalendar()
    if plain:
        return day.isoformat()
    return draw(st.sampled_from(
        [day.isoformat(), f" {day.isoformat()} ", day.strftime("%Y%m%d"), f"{year}-W{week:02d}-{weekday}"]
    ))


def csv_cell(text: str, quoted: bool) -> str:
    if quoted or any(ch in text for ch in ',"'):
        return '"' + text.replace('"', '""') + '"'
    return text


@st.composite
def counts_files(draw):
    """CSV text in which about half the files are valid.

    In half the files most cells are plain and only the cells that need it
    are quoted, so the first blocks are read on bytes.  A line ends in LF
    or CRLF, the last line may have no end, and some files start with a
    byte-order mark.
    """
    noisy = draw(st.booleans())
    plain = draw(st.booleans())
    shapes = ["row"] * (24 if plain else 6) + ["blank", "long"] + (["short"] if noisy else [])

    def cell(good, bad, plain_good):
        if noisy and draw(st.integers(0, 9)) == 0:
            return draw(st.sampled_from(bad))
        if plain and draw(st.integers(0, 19)):
            return draw(plain_good)
        return draw(good)

    lines = ["date,outlet,count"]
    for _ in range(draw(st.integers(0, 12))):
        shape = draw(st.sampled_from(shapes))
        if shape == "blank":
            lines.append(draw(st.sampled_from(["", ",,", " , ,", '"",', "  "])))
            continue
        cells = [
            cell(date_cells(), BAD_DATES, date_cells(plain=True)),
            cell(st.sampled_from(GOOD_OUTLETS), BAD_OUTLETS, st.sampled_from(PLAIN_OUTLETS)),
            cell(st.sampled_from(GOOD_COUNTS), BAD_COUNTS, st.sampled_from(PLAIN_COUNTS)),
        ]
        if shape == "short":
            cells = cells[: draw(st.integers(1, 2))]
        elif shape == "long":
            cells += draw(st.lists(st.text(string.ascii_letters + " ", max_size=3), min_size=1, max_size=2))
        lines.append(",".join(csv_cell(text, not plain and draw(st.booleans())) for text in cells))
    ends = [draw(st.sampled_from(["\n"] * (9 if plain else 1) + ["\r\n"])) for _ in lines[1:]]
    ends.append(draw(st.sampled_from(["\n", "\r\n", ""])))
    bom = "\ufeff" if draw(st.integers(0, 9)) == 0 else ""
    return bom + "".join(map(str.__add__, lines, ends))


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(
    text=counts_files(),
    block_bytes=st.sampled_from([16, 24, 40, 64, 1 << 17, 1 << 19]),
)
def test_read_counts_csv_matches_row_reference(text, block_bytes):
    # small blocks put failing rows and repeated outlet-days in different
    # blocks, and hand the file from the byte path to csv mid-file
    assert_reads_as_reference(text, block_bytes)


# Outlets of one to three 8-byte pieces, the long ones alike in their first
# piece, and 10-byte date cells that are plain but not ``YYYY-MM-DD`` dates:
# other ISO forms, which ``date.fromisoformat`` reads, and bad dates.
ORDERED_OUTLETS = [*"abcdefg", "outlet01", "outlet02", "outlet_long_a", "outlet_long_b", "outlet_longest_name"]
ODD_DATE_CELLS = ["2000-W01-1", " 20000103 ", "20000104  ", "2000-02-30", "0000-01-01", "2000-13-01"]


@st.composite
def ordered_counts_files(draw):
    """Plain CSV text of every outlet on every day, in one of three orders.

    Date-major files repeat each date over consecutive rows, so a block
    reads its dates at few run heads, and name every outlet in their first
    block; outlet-major files name a new outlet after each outlet's days, so
    later blocks still learn outlets; shuffled files do neither.  A few rows
    are then dropped, moved (splitting a run in two), repeated, given a
    blank outlet or given an odd date cell; a row and its next are swapped
    (a descent) or the row is repeated next to itself, either of which may
    straddle a block boundary; two rows, the second in the file's later
    half, get a blank outlet; or one outlet's rows in the later half get an
    outlet no earlier row has, after earlier blocks have learned the others.
    """
    first = date(2000, 1, 1).toordinal() + draw(st.integers(0, 400))
    days = [date.fromordinal(first + d).isoformat() for d in range(draw(st.integers(1, 12)))]
    outlets = draw(st.lists(st.sampled_from(ORDERED_OUTLETS), min_size=1, max_size=12, unique=True))
    order = draw(st.sampled_from(["date-major", "outlet-major", "shuffled"]))
    if order == "outlet-major":
        cells = [[day, outlet] for outlet in outlets for day in days]
    else:
        cells = [[day, outlet] for day in days for outlet in outlets]
    if order == "shuffled":
        cells = draw(st.permutations(cells))
    rows = [[*cell, str(draw(st.integers(0, 99)))] for cell in cells]
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(rows) - 1))
        change = draw(st.sampled_from(
            ["drop", "move", "repeat", "blank outlet", "odd date", "swap next", "repeat next", "blank twice", "new outlet"]
        ))
        if change == "drop" and len(rows) > 1:
            del rows[at]
        elif change == "move":
            rows.insert(draw(st.integers(0, len(rows) - 1)), rows.pop(at))
        elif change == "repeat":
            rows.insert(draw(st.integers(0, len(rows))), list(rows[at]))
        elif change == "blank outlet":
            rows[at][1] = " "
        elif change == "odd date":
            rows[at][0] = draw(st.sampled_from(ODD_DATE_CELLS))
        elif change == "swap next" and at + 1 < len(rows):
            rows[at], rows[at + 1] = rows[at + 1], rows[at]
        elif change == "repeat next":
            rows.insert(at + 1, list(rows[at]))
        elif change == "blank twice":
            later = draw(st.integers(len(rows) // 2, len(rows) - 1))
            rows[min(at, later)][1] = rows[later][1] = " "
        elif change == "new outlet" and len(outlets) < len(ORDERED_OUTLETS):
            later = draw(st.integers(len(rows) // 2, len(rows) - 1))
            new, old = draw(st.sampled_from([name for name in ORDERED_OUTLETS if name not in outlets])), rows[later][1]
            for row in rows[later:]:
                row[1] = new if row[1] == old else row[1]
    return "date,outlet,count\n" + "".join(",".join(row) + "\n" for row in rows)


# 720 examples over nine changes draw each change about as often as 400
# examples drew each of the first five when they were all the changes
@settings(derandomize=True, database=None, max_examples=720, deadline=None)
@given(
    text=ordered_counts_files(),
    block_bytes=st.sampled_from([16, 40, 100, 300, 1_000, 1 << 17, 1 << 19]),
)
def test_read_counts_csv_matches_row_reference_in_any_row_order(text, block_bytes):
    # small blocks cut runs of one date or outlet at block boundaries
    assert_reads_as_reference(text, block_bytes)


def assert_reads_as_reference(text: str, block_bytes: int) -> None:
    """The file reads as :func:`read_counts_reference` reads it, with
    ``_BLOCK_BYTES`` at ``block_bytes``: the same panel or the same error."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "counts.csv"
        path.write_bytes(text.encode("utf-8"))
        try:
            expected = read_counts_reference(path)
        except SeriesError as exc:
            expected = str(exc)
        try:
            with mock.patch.object(ix, "_BLOCK_BYTES", block_bytes):
                panel = ix.read_counts_csv(path)
        except SeriesError as exc:
            assert str(exc) == expected
            return
    assert not isinstance(expected, str), expected
    outlets, counts = expected
    assert panel.outlets == outlets
    assert panel_to_mapping(panel) == counts
    assert_as_public(panel)


def words_of(data: bytes) -> np.ndarray:
    """The 8-byte word at every offset of ``data``, as ``_plain_block``
    builds them, with zeros past its end."""
    padded = np.frombuffer(data + bytes(8), dtype=np.uint8)
    return np.ndarray((padded.size - 7,), dtype="<u8", buffer=padded, strides=(1,))


def cell_pieces(cells: list[bytes]) -> list[np.ndarray]:
    """The pieces of ``cells`` as ``_plain_block`` takes them: one cell a
    line, and zeros past the cells to cover the widest's last word."""
    width = np.array([len(cell) for cell in cells])
    start = np.concatenate(([0], np.cumsum(width + 1)[:-1]))
    return ix._pieces(words_of(b"\n".join(cells) + bytes(int(width.max()))), start, width)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(
    runs=st.lists(
        st.tuples(st.sampled_from([b"a", b"b", b"2000-01-01", b"outlet_long_a", b"outlet_long_b"]), st.integers(1, 12)),
        min_size=1,
        max_size=12,
    )
)
def test_distinct_fields_reads_runs_or_sorts(runs):
    # dates are read at the heads of their runs, whatever the runs' length;
    # outlets at the first row of each distinct cell, found by sorting
    cells = [cell for cell, length in runs for _ in range(length)]
    pieces = cell_pieces(cells)
    heads = ix._run_heads(*pieces)
    assert heads.tolist() == [i for i in range(len(cells)) if i == 0 or cells[i] != cells[i - 1]]
    at, ids = ix._distinct_fields(pieces)
    assert at.tolist() == sorted(cells.index(cell) for cell in set(cells))
    # every row's cell is the cell of the row that stands for it
    for stands_for in (np.repeat(heads, np.diff(heads, append=len(cells))), at[ids]):
        assert [cells[i] for i in stands_for] == cells


# cells of one to three pieces, some the first piece of another or alike in it
TABLE_CELLS = [b"a", b"outlet01", b"outlet_l", b"outlet_long_a", b"outlet_long_b", b"outlet_longest_name", b" "]


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(
    learned=st.lists(st.lists(st.sampled_from(TABLE_CELLS), min_size=1, max_size=4), max_size=3),
    looked_up=st.lists(st.sampled_from(TABLE_CELLS), min_size=1, max_size=6),
)
def test_cell_table_finds_only_the_cells_it_holds(learned, looked_up):
    # cells join in batches, as blocks learn them; a lookup gives every
    # cell's code only when the table holds each one's exact bytes
    table, codes = ix._CellTable(), {}
    for batch in learned:
        for cell in batch:
            codes.setdefault(cell, len(codes) - 1)  # the first, like a blank cell, gets -1
        table.add(cell_pieces(batch), np.array([codes[cell] for cell in batch], dtype=np.int64))
    found = table.codes_of(cell_pieces(looked_up))
    if all(cell in codes for cell in looked_up):
        assert found.tolist() == [codes[cell] for cell in looked_up]
    else:
        assert found is None


def iso_reference(cell: str) -> int:
    """The ordinal ``_iso_days`` gives a 10-byte cell: ``date.fromisoformat``'s
    for a ``YYYY-MM-DD`` cell it reads, else 0."""
    if not re.fullmatch(r"\d{4}-\d{2}-\d{2}", cell):
        return 0
    try:
        return date.fromisoformat(cell.strip()).toordinal()
    except ValueError:
        return 0


def test_iso_days_matches_fromisoformat_on_every_date():
    day = np.arange(1 - ix._EPOCH_ORDINAL, date.max.toordinal() + 1 - ix._EPOCH_ORDINAL).astype("datetime64[D]")
    month = day.astype("datetime64[M]")
    year = month.astype("datetime64[Y]").astype(np.int64) + 1970
    month_of_year = month.astype(np.int64) % 12 + 1
    day_of_month = (day - month).astype(np.int64) + 1
    dash = np.full(day.size, ord("-") - ord("0"))
    cells = np.stack(
        [year // 1000, year // 100 % 10, year // 10 % 10, year % 10, dash,
         month_of_year // 10, month_of_year % 10, dash, day_of_month // 10, day_of_month % 10],
        axis=1,
    ).astype(np.uint8) + ord("0")
    data = cells.tobytes()
    text = data.decode("ascii")
    assert text[:10] == "0001-01-01" and text[-10:] == "9999-12-31"
    expected = [date.fromisoformat(text[i : i + 10].strip()).toordinal() for i in range(0, len(text), 10)]
    assert ix._iso_days(words_of(data), np.arange(0, len(data), 10)).tolist() == expected


@pytest.mark.parametrize(
    "cell",
    [
        "0000-01-01", "1900-02-29", "2000-02-29", "2100-02-29", "2400-02-29", "2021-02-29",
        "2021-00-01", "2021-13-01", "2021-01-00", "2021-01-32", "2021-04-31", "2021-12-31",
        "2021-W01-1", "2021-W53-7", "20210101  ", "  20210101", " 20210101 ",
        "2021/01/01", "2021+01-01", "2021-01 01", "2021-1-01 ", "2021-01-1:", "2021-0:-01", "202:-01-01",
        "2021-01-0/", "+021-01-01",
    ],
)
def test_iso_days_reads_only_real_dates_in_their_iso_form(tmp_path, cell):
    assert ix._iso_days(words_of(cell.encode()), np.array([0])).tolist() == [iso_reference(cell)]
    # a cell it leaves makes its block go to csv, which reads it with
    # date.fromisoformat, so the file reads as the reference reads it
    assert_reads_as_reference(f"date,outlet,count\n{cell},a,1\n2000-01-01,a,2\n", 1 << 17)


def test_read_counts_csv_reports_first_failure_across_blocks(tmp_path):
    p = tmp_path / "counts.csv"
    # a repeat on line 4 comes before a bad date on line 6; lines 2 and 3 are
    # read on bytes, and the rest through csv from the blank line's block
    p.write_text(
        "date,outlet,count\n2000-01-01,a,1\n2000-01-02,a,1\n2000-01-01, a,2\n\nnope,a,1\n",
        encoding="utf-8",
    )
    with mock.patch.object(ix, "_BLOCK_BYTES", 32):
        with pytest.raises(SeriesError, match=r":4: duplicate row for a 2000-01-01"):
            ix.read_counts_csv(p)


def first_repeat_per_row(outlet, day):
    """``_first_repeat`` as it was: a stable sort of every row's key."""
    if outlet.size < 2:
        return None
    key = (day - day.min()) * (int(outlet.max()) + 1) + outlet
    order = np.argsort(key, kind="stable")
    ranked = key[order]
    repeats = order[1:][ranked[1:] == ranked[:-1]]
    return int(repeats.min()) if repeats.size else None


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(
    outlets=st.integers(1, 4),
    days=st.lists(st.integers(1, date.max.toordinal()), min_size=1, max_size=30),
    order=st.sampled_from(["date-major", "shuffled"]),
    repeats=st.lists(st.integers(0, 200), max_size=2),
    seed=st.integers(0, 2**32 - 1),
)
def test_run_forms_equal_the_per_row_forms(outlets, days, order, repeats, seed):
    # every outlet on every drawn day, date-major (sorted) or shuffled, with
    # some rows repeated; the run forms of _first_repeat, _ordinal_months and
    # publishing_days give what converting or sorting every row gave
    day = np.repeat(np.array(sorted(days), dtype=np.int64), outlets)
    outlet = np.tile(np.arange(outlets, dtype=np.int64), len(days))
    for r in repeats:
        day, outlet = np.insert(day, r % day.size, day[r % day.size]), np.insert(outlet, r % day.size, outlet[r % day.size])
    if order == "shuffled":
        perm = np.random.default_rng(seed).permutation(day.size)
        day, outlet = day[perm], outlet[perm]
    assert ix._first_repeat(outlet, day) == first_repeat_per_row(outlet, day)
    months = (day - ix._EPOCH_ORDINAL).astype("datetime64[D]").astype("datetime64[M]").astype(np.int64) + 1970 * 12
    assert np.array_equal(ix._ordinal_months(day), months)
    panel = ix.ArticleCountPanel._checked(("o",) * outlets, day, outlet, np.zeros_like(day), months)
    _, first_seen = np.unique(day, return_index=True)
    per_row = months[first_seen]
    first, counted = panel.publishing_days()
    assert first == per_row[0] and np.array_equal(counted, np.bincount(per_row - per_row[0]))


def test_read_counts_csv_names_the_line_of_a_repeat_in_a_shuffled_file(tmp_path):
    lines = plain_counts_text(outlets=3, days=50).splitlines()
    body = lines[1:]
    np.random.default_rng(3).shuffle(body)
    body.insert(120, body[40])  # the repeat is line 122, its first row line 42
    p = tmp_path / "counts.csv"
    p.write_text("\n".join([lines[0], *body]) + "\n", encoding="utf-8")
    day, outlet, _ = body[40].split(",")
    for block_bytes in (200, 1 << 17):
        with mock.patch.object(ix, "_BLOCK_BYTES", block_bytes):
            with pytest.raises(SeriesError, match=rf":122: duplicate row for {outlet} {day}$"):
                ix.read_counts_csv(p)


def plain_counts_text(outlets: int = 3, days: int = 400) -> str:
    """A counts file shaped like the benchmark's: every outlet on every day."""
    first = date(2000, 1, 1).toordinal()
    rows = [
        f"{date.fromordinal(first + d).isoformat()},outlet{o:02d},{(7 * d + 3 * o) % 23}"
        for d in range(days)
        for o in range(1, outlets + 1)
    ]
    return "date,outlet,count\n" + "\n".join(rows) + "\n"


def read_through_csv(path: Path) -> ix.ArticleCountPanel:
    with mock.patch.object(ix, "_plain_block", return_value=None):
        return ix.read_counts_csv(path)


def assert_as_public(panel: ix.ArticleCountPanel) -> None:
    """The panel equals the one the public constructor, with every check,
    builds from its columns: the same int64 columns and months, all read-only."""
    public = ix.ArticleCountPanel(panel.outlets, panel.day, panel.outlet, panel.count)
    assert panel.outlets == public.outlets
    for column in ("day", "outlet", "count", "month"):
        ours, theirs = getattr(panel, column), getattr(public, column)
        assert ours.dtype == theirs.dtype == np.int64
        assert np.array_equal(ours, theirs), column
        assert not ours.flags.writeable, column


@pytest.mark.parametrize("path", ["bytes", "csv"])
def test_checked_panels_equal_the_public_constructors(tmp_path, path):
    p = tmp_path / "counts.csv"
    p.write_text(plain_counts_text(days=800), encoding="utf-8")
    panel = ix.read_counts_csv(p) if path == "bytes" else read_through_csv(p)
    assert_as_public(panel)
    first = 2000 * 12 + 3  # April 2000
    window = panel.months(first, first + 5)
    assert_as_public(window)
    assert sorted(set(window.month.tolist())) == list(range(first, first + 6))
    assert window.day.size == 3 * (date(2000, 10, 1) - date(2000, 4, 1)).days
    assert panel.months(1999 * 12, 1999 * 12 + 11) is None


def assert_same_panel(panel: ix.ArticleCountPanel, expected: ix.ArticleCountPanel) -> None:
    assert panel.outlets == expected.outlets
    for column in ("day", "outlet", "count"):
        assert np.array_equal(getattr(panel, column), getattr(expected, column))


@pytest.mark.parametrize(
    "block_bytes, order",
    [
        pytest.param(size, order, id=str(size) if order == "by day" else f"{size}-by-outlet")
        for order in ("by day", "by outlet")
        for size in (1_000, 1 << 17, ix._BLOCK_BYTES)
    ],
)
def test_read_counts_csv_reads_a_plain_file_on_bytes(tmp_path, block_bytes, order):
    header, *rows = plain_counts_text().splitlines()
    if order == "by outlet":
        rows.sort(key=lambda row: row.split(",")[1])  # a stable sort keeps each outlet's days in order
    p = tmp_path / "counts.csv"
    p.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    with mock.patch.object(ix, "_BLOCK_BYTES", block_bytes), mock.patch.object(
        ix, "_parse_row", wraps=ix._parse_row
    ) as parse:
        panel = ix.read_counts_csv(p)
    parse.assert_not_called()
    assert_same_panel(panel, read_through_csv(p))


@pytest.mark.parametrize("blocks", ["one block", "separate blocks"])
def test_read_counts_csv_reads_outlets_that_share_a_key(tmp_path, blocks):
    # with a key base of 0 a cell's key is its first piece, which the two
    # names share.  A block that holds both is not plain and goes to csv; a
    # block that holds the name the table lacks sorts its outlets again
    rows = [f"2000-01-{d:02d},{name},{d % 10}" for name in ("outlet_long_a", "outlet_long_b") for d in range(1, 11)]
    if blocks == "one block":
        rows.sort()
    p = tmp_path / "counts.csv"
    p.write_text("date,outlet,count\n" + "".join(row + "\n" for row in rows), encoding="utf-8")
    with mock.patch.object(ix, "_KEY_BASE", 0), mock.patch.object(ix, "_parse_row", wraps=ix._parse_row) as parse:
        assert np.array_equal(*(ix._cell_keys(cell_pieces([name])) for name in (b"outlet_long_a", b"outlet_long_b")))
        # two 27-byte rows a block, so in the second file no block holds both names
        with mock.patch.object(ix, "_BLOCK_BYTES", 1 << 17 if blocks == "one block" else 54):
            panel = ix.read_counts_csv(p)
    assert parse.called == (blocks == "one block")
    assert_same_panel(panel, read_through_csv(p))


def test_read_counts_csv_sorts_outlets_only_in_the_first_block(tmp_path):
    # a date-major file names all its outlets in its first block; later
    # blocks look their outlets up, and its (day, outlet code) pairs ascend,
    # so the repeat search ends without its stable sort
    p = tmp_path / "counts.csv"
    p.write_text(plain_counts_text(), encoding="utf-8")
    plain_block, unique, argsort = ix._plain_block, np.unique, np.argsort
    blocks, sorted_in, stable_sorts = [], [], []

    def spy_block(*args):
        blocks.append(args[1])
        return plain_block(*args)

    def spy_unique(*args, **kwargs):
        sorted_in.append(len(blocks))
        return unique(*args, **kwargs)

    def spy_argsort(*args, **kwargs):
        stable_sorts.append(kwargs.get("kind") == "stable")
        return argsort(*args, **kwargs)

    with mock.patch.object(ix, "_BLOCK_BYTES", 1_000), mock.patch.object(ix, "_plain_block", spy_block), \
            mock.patch.object(np, "unique", spy_unique), mock.patch.object(np, "argsort", spy_argsort):
        panel = ix.read_counts_csv(p)
    assert len(blocks) > 20 and sorted_in and set(sorted_in) == {1}
    assert not any(stable_sorts)
    assert_same_panel(panel, read_through_csv(p))


@pytest.mark.parametrize(
    "rows, error",
    [
        # lines 3 and 4, one outlet-day, end one block and start the next
        (["2000-01-01,a,1", "2000-01-02,a,1", "2000-01-02,a,2", "2000-01-03,a,1"], ":4: duplicate row for a 2000-01-02"),
        # line 4 descends from line 3, which line 5 repeats; each block ascends alone
        (["2000-01-01,a,1", "2000-01-02,a,1", "2000-01-01,b,2", "2000-01-02,a,3"], ":5: duplicate row for a 2000-01-02"),
        (["2000-01-01,a,1", "2000-01-02,a,1", "2000-01-01,b,2", "2000-01-02,b,3"], None),
    ],
    ids=["repeat", "descent-then-repeat", "descent"],
)
def test_read_counts_csv_checks_order_across_blocks(tmp_path, rows, error):
    p = tmp_path / "counts.csv"
    p.write_text("date,outlet,count\n" + "".join(row + "\n" for row in rows), encoding="utf-8")
    with mock.patch.object(ix, "_BLOCK_BYTES", 30):  # two 15-byte lines a block
        if error:
            with pytest.raises(SeriesError, match=rf"{error}$"):
                ix.read_counts_csv(p)
        else:
            assert_same_panel(ix.read_counts_csv(p), read_through_csv(p))


def test_read_counts_csv_traced_peak_holds_the_panel_and_a_few_blocks(tmp_path):
    # the benchmark's counts shape, grouped by day; numpy reports its arrays
    # to tracemalloc.  A block takes about 7 times its size while it is read
    # (see _BLOCK_BYTES), but the first blocks are read while few columns
    # are held, and the last ones are small: the peak is the panel's four
    # columns plus 2.4 _BLOCK_BYTES.  Holding the blocks' columns and their
    # joined copies at once (7.1), or a line column (7.8), crosses the bound
    p = tmp_path / "counts.csv"
    p.write_text(plain_counts_text(outlets=20, days=11_596), encoding="utf-8")
    tracemalloc.start()
    try:
        panel = ix.read_counts_csv(p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    columns = sum(getattr(panel, name).nbytes for name in ("day", "outlet", "count", "month"))
    assert peak <= columns + 4 * ix._BLOCK_BYTES


def test_read_counts_csv_hands_only_the_quoted_block_to_csv(tmp_path):
    p = tmp_path / "counts.csv"
    p.write_text(plain_counts_text() + '2002-01-01,"outlet01",5\n', encoding="utf-8")
    plain_block, seen = ix._plain_block, []

    def spy(data, *rest):
        block = plain_block(data, *rest)
        seen.append((b'"' in data, block is None))
        return block

    with mock.patch.object(ix, "_BLOCK_BYTES", 1_000), mock.patch.object(ix, "_plain_block", spy):
        panel = ix.read_counts_csv(p)
    assert len(seen) > 20
    assert seen == [(False, False)] * (len(seen) - 1) + [(True, True)]
    assert_same_panel(panel, read_through_csv(p))


@pytest.mark.parametrize(
    "rows",
    [
        "2000-01-01,a,1\n2000-01-01,a\0,2\n",  # NUL: "a\0" is not "a"
        "2000-01-01,a,1\n2000-01-02,a\rb,2\n",  # a bare CR ends a csv row
    ],
)
def test_read_counts_csv_leaves_nul_and_cr_to_csv(tmp_path, rows):
    p = tmp_path / "counts.csv"
    p.write_bytes(("date,outlet,count\n" + rows).encode("utf-8"))

    def outcome(read):
        try:
            panel = read(p)
        except SeriesError as exc:
            return str(exc)
        return panel.outlets, panel.day.tolist(), panel.outlet.tolist(), panel.count.tolist()

    assert outcome(ix.read_counts_csv) == outcome(read_through_csv)


def test_read_counts_csv_reports_a_repeat_on_bytes_before_a_later_csv_failure(tmp_path):
    p = tmp_path / "counts.csv"
    # lines 2-5 are plain and read on bytes, two to a block; line 6 is not
    p.write_text(
        "date,outlet,count\n2000-01-01,a,1\n2000-01-02,a,1\n2000-01-01,a,2\n2000-01-03,a,1\nnope,a,1\n",
        encoding="utf-8",
    )
    with mock.patch.object(ix, "_BLOCK_BYTES", 32), mock.patch.object(
        ix, "_parse_row", wraps=ix._parse_row
    ) as parse:
        with pytest.raises(SeriesError, match=r":4: duplicate row for a 2000-01-01"):
            ix.read_counts_csv(p)
    # csv reads line 6 alone
    assert [call.args[0] for call in parse.call_args_list] == [["nope", "a", "1"]]


def test_read_counts_csv_refuses_a_latin1_byte_past_the_first_block(tmp_path):
    p = tmp_path / "counts.csv"
    p.write_bytes(plain_counts_text().encode("utf-8") + "2002-01-01,café,1\n".encode("latin-1"))
    with pytest.raises(SeriesError) as through_csv:
        read_through_csv(p)
    with mock.patch.object(ix, "_BLOCK_BYTES", 1_000):
        with pytest.raises(SeriesError, match=rf"^{re.escape(str(p))}: not UTF-8 text") as raised:
            ix.read_counts_csv(p)
    assert str(raised.value) == str(through_csv.value)


def test_read_flows_csv(tmp_path):
    p = tmp_path / "flows.csv"
    p.write_text(
        "period,additions,removals\n2006Q1,10,0\n2006Q2,5,1\n", encoding="utf-8"
    )
    f = ix.read_flows_csv(p)
    assert f.frequency is ts.Frequency.QUARTERLY
    assert np.array_equal(f.additions, [10.0, 5.0])


def test_write_index_csv(tmp_path):
    idx = as_index([0.5, 1.0])
    path = tmp_path / "index.csv"
    ix.write_index_csv(idx, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "period,value,kind"
    assert lines[1] == "1990Q1,0.5,on"
