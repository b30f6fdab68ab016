import re
import string
import tempfile
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
    block_bytes=st.sampled_from([16, 24, 40, 64, 1 << 17]),
)
def test_read_counts_csv_matches_row_reference(text, block_bytes):
    # small blocks put failing rows and repeated outlet-days in different
    # blocks, and hand the file from the byte path to csv mid-file
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


@pytest.mark.parametrize("block_bytes", [1_000, ix._BLOCK_BYTES])
def test_read_counts_csv_reads_a_plain_file_on_bytes(tmp_path, block_bytes):
    p = tmp_path / "counts.csv"
    p.write_text(plain_counts_text(), encoding="utf-8")
    with mock.patch.object(ix, "_BLOCK_BYTES", block_bytes), mock.patch.object(
        ix, "_parse_row", wraps=ix._parse_row
    ) as parse:
        panel = ix.read_counts_csv(p)
    parse.assert_not_called()
    assert_same_panel(panel, read_through_csv(p))


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
