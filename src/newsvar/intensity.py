"""Intervention-intensity indices built from daily article counts.

The pipeline: per-outlet daily counts -> monthly grand means (simple or
per-outlet standardized) -> optional aggregation -> unit-max normalization
into an "on" or "off" index -> netting ``on - w * off`` with ``w`` either
fixed or picked by a grid-searched dynamic regression.  A separate variant
nets entity-list additions against removals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from datetime import date
from enum import Enum
from itertools import repeat
from pathlib import Path

import numpy as np

from .errors import (
    AlignmentError,
    DegenerateDataError,
    GapError,
    NormalizationError,
    SampleError,
    SeriesError,
)
from .regression import ols
from .timeseries import (
    align,
    CalendarKind,
    CalendarSeries,
    csv_rows,
    Frequency,
    lag,
    PeriodLabel,
    read_period_table,
    write_csv,
)

__all__ = [
    "IndexKind",
    "ArticleCountPanel",
    "IntensityIndex",
    "EntityFlowSeries",
    "monthly_mean_count",
    "standardized_monthly_count",
    "normalize_unit_max",
    "net_index",
    "grid_search_weight",
    "GridSearchResult",
    "GridPoint",
    "sdn_index",
    "read_counts_csv",
    "read_flows_csv",
    "write_index_csv",
]


class IndexKind(str, Enum):
    ON = "on"
    OFF = "off"
    NET = "net"
    SDN_NET = "sdn_net"


_EPOCH_ORDINAL = date(1970, 1, 1).toordinal()
_MAX_ORDINAL = date.max.toordinal()


def _run_heads(values: np.ndarray) -> np.ndarray:
    """Positions where a run of equal neighbouring values of a non-empty array starts."""
    return np.flatnonzero(np.concatenate(([True], values[1:] != values[:-1])))


def _ordinal_months(day: np.ndarray) -> np.ndarray:
    """Absolute month index ``year * 12 + month - 1`` of proleptic Gregorian
    ordinals, converted once per run of equal days."""
    heads = _run_heads(day)
    months = (day[heads] - _EPOCH_ORDINAL).astype("datetime64[D]").astype("datetime64[M]")
    return np.repeat(months.astype(np.int64) + 1970 * 12, np.diff(heads, append=day.size))


def _first_repeat(outlet: np.ndarray, day: np.ndarray) -> int | None:
    """Position of the first entry whose (outlet, day) pair occurs earlier, if any."""
    if outlet.size < 2:
        return None
    key = (day - day.min()) * (int(outlet.max()) + 1) + outlet
    if (key[1:] > key[:-1]).all():  # strictly ascending, as in a date-major file
        return None
    # a stable sort keeps equal pairs in array order, so every entry of a run
    # of equal keys but the first repeats an earlier one
    order = np.argsort(key, kind="stable")
    ranked = key[order]
    repeats = order[1:][ranked[1:] == ranked[:-1]]
    return int(repeats.min()) if repeats.size else None


@dataclass(frozen=True)
class ArticleCountPanel:
    """Daily article counts per outlet, one entry per observed outlet-day.

    ``day`` (proleptic Gregorian ordinals, as ``date.toordinal``), ``outlet``
    (positions in ``outlets``) and ``count`` (non-negative) are equal-length
    integer arrays; ``month`` (absolute month index ``year * 12 + month - 1``)
    is derived from ``day``.  A day present for any outlet counts toward that
    month's publishing days; outlets without an entry on such a day
    contribute zero articles.
    """

    outlets: tuple[str, ...]
    day: np.ndarray
    outlet: np.ndarray
    count: np.ndarray
    month: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        if not self.outlets:
            raise SeriesError("panel needs at least one outlet")
        if len(set(self.outlets)) != len(self.outlets):
            raise SeriesError("duplicate outlet identifiers")
        day, outlet, count = (np.array(getattr(self, name), dtype=np.int64) for name in ("day", "outlet", "count"))
        if day.ndim != 1 or day.shape != outlet.shape or day.shape != count.shape:
            raise SeriesError("panel columns must be 1-D and equal length")
        if day.size == 0:
            raise SeriesError("panel holds no daily observations")
        if outlet.min() < 0 or outlet.max() >= len(self.outlets):
            raise SeriesError("panel outlet codes must index the outlets")
        if day.min() < 1 or day.max() > _MAX_ORDINAL:
            raise SeriesError("panel days must be ordinals of dates")
        negative = np.flatnonzero(count < 0)
        if negative.size:
            i = negative[0]
            raise SeriesError(
                f"negative count for {self.outlets[outlet[i]]} on {date.fromordinal(int(day[i]))}"
            )
        repeat = _first_repeat(outlet, day)
        if repeat is not None:
            raise SeriesError(
                f"duplicate count for {self.outlets[outlet[repeat]]} "
                f"on {date.fromordinal(int(day[repeat]))}"
            )
        self._own(day, outlet, count, _ordinal_months(day))

    @classmethod
    def _checked(cls, outlets: tuple[str, ...], *columns: np.ndarray) -> ArticleCountPanel:
        """A panel of int64 columns ``day``, ``outlet``, ``count`` and ``month``
        that pass every check of the public constructor, taken without a copy."""
        panel = object.__new__(cls)
        object.__setattr__(panel, "outlets", outlets)
        panel._own(*columns)
        return panel

    def _own(self, *columns: np.ndarray) -> None:
        for name, column in zip(("day", "outlet", "count", "month"), columns):
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    def months(self, first: int, last: int) -> ArticleCountPanel | None:
        """The entries of months ``first`` to ``last`` (absolute month
        indices, as ``month``), or ``None`` when none falls in them."""
        keep = (self.month >= first) & (self.month <= last)
        if not keep.any():
            return None
        columns = (self.day, self.outlet, self.count, self.month)
        return ArticleCountPanel._checked(self.outlets, *(column[keep] for column in columns))

    def publishing_days(self) -> tuple[int, np.ndarray]:
        """First covered month and the count of distinct publishing days in
        each month from it to the last covered month (0 for uncovered ones)."""
        heads = _run_heads(self.day)
        _, first_seen = np.unique(self.day[heads], return_index=True)
        months = self.month[heads[first_seen]]  # ascending, as the days are
        return int(months[0]), np.bincount(months - months[0])


@dataclass(frozen=True)
class IntensityIndex:
    """A scaled intervention series with its normalization provenance."""

    series: CalendarSeries
    kind: IndexKind
    normalization_max: float
    net_weight: float | None = None

    def __post_init__(self) -> None:
        if self.kind in (IndexKind.NET, IndexKind.SDN_NET):
            if self.net_weight is None:
                raise ValueError(f"{self.kind.value} index requires net_weight")
        elif self.net_weight is not None:
            raise ValueError(f"{self.kind.value} index must not carry net_weight")


@dataclass(frozen=True)
class EntityFlowSeries:
    """Per-period additions and removals of sanctioned entities."""

    frequency: Frequency
    start: PeriodLabel
    additions: np.ndarray
    removals: np.ndarray

    def __post_init__(self) -> None:
        additions = np.asarray(self.additions, dtype=float)
        removals = np.asarray(self.removals, dtype=float)
        if additions.shape != removals.shape or additions.ndim != 1:
            raise SeriesError("additions and removals must be 1-D and equal length")
        if additions.size == 0:
            raise SeriesError("entity flow series is empty")
        if not (np.isfinite(additions).all() and np.isfinite(removals).all()):
            raise SeriesError("entity flow counts must be finite")
        if (additions < 0).any() or (removals < 0).any():
            raise SeriesError("entity flow counts must be non-negative")
        for arr, name in ((additions, "additions"), (removals, "removals")):
            arr = arr.copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        self.start.validate(self.frequency)


def monthly_mean_count(panel: ArticleCountPanel) -> CalendarSeries:
    """Grand mean of counts over outlets and publishing days, per month.

    Months inside the panel span with no publishing days would leave a hole
    in the month run, so they are refused with a :class:`GapError` that
    names them.
    """
    first, days = panel.publishing_days()
    empty = np.flatnonzero(days == 0)
    if empty.size:
        labels = ", ".join(
            PeriodLabel.from_index(first + int(m), Frequency.MONTHLY).format(Frequency.MONTHLY)
            for m in empty
        )
        raise GapError(f"excluded months leave an interior gap: {labels}")
    # float sums of integer counts are exact while a month's total stays below 2**53
    totals = np.bincount(panel.month - first, weights=panel.count, minlength=days.size)
    return CalendarSeries(
        frequency=Frequency.MONTHLY,
        calendar=CalendarKind.GREGORIAN,
        start=PeriodLabel.from_index(first, Frequency.MONTHLY),
        values=totals / (len(panel.outlets) * days),
    )


def standardized_monthly_count(panel: ArticleCountPanel) -> CalendarSeries:
    """Average of per-outlet monthly means, each scaled by its own dispersion.

    Every outlet's monthly mean series is divided by its full-sample standard
    deviation (denominator T-1) before averaging, so outlets with fat count
    levels do not dominate the cross-outlet mean.
    """
    first, days = panel.publishing_days()
    if np.count_nonzero(days) < 2:
        raise SampleError("standardization needs at least 2 covered months")
    if not days.all():
        raise GapError("panel months are not contiguous")
    n_outlets, n_months = len(panel.outlets), days.size
    totals = np.bincount(
        panel.outlet * n_months + (panel.month - first),
        weights=panel.count,
        minlength=n_outlets * n_months,
    )
    per_outlet_means = totals.reshape(n_outlets, n_months) / days
    sigma = per_outlet_means.std(axis=1, ddof=1)
    flat = np.nonzero(sigma == 0)[0]
    if flat.size:
        raise DegenerateDataError(
            f"outlet {panel.outlets[flat[0]]!r} has constant monthly means"
        )
    standardized = (per_outlet_means / sigma[:, None]).mean(axis=0)
    return CalendarSeries(
        frequency=Frequency.MONTHLY,
        calendar=CalendarKind.GREGORIAN,
        start=PeriodLabel.from_index(first, Frequency.MONTHLY),
        values=standardized,
    )


def normalize_unit_max(
    series: CalendarSeries,
    window: tuple[PeriodLabel | None, PeriodLabel | None] | None = None,
    kind: IndexKind = IndexKind.ON,
) -> IntensityIndex:
    """Divide by the maximum over ``window`` so the in-window peak is exactly 1.

    Values outside the window may exceed 1; that is part of the definition,
    not an error.
    """
    if kind not in (IndexKind.ON, IndexKind.OFF):
        raise ValueError("unit-max normalization builds on/off indices only")
    series = series.trimmed()
    windowed = series if window is None else series.window(*window)
    peak = float(np.max(windowed.values))
    if peak <= 0:
        raise NormalizationError("window maximum must be positive")
    return IntensityIndex(
        series=series.replace_values(series.values / peak),
        kind=kind,
        normalization_max=peak,
    )


def net_index(on: IntensityIndex, off: IntensityIndex, w: float) -> IntensityIndex:
    """Net intervention index ``on - w * off`` over identically aligned series."""
    if not 0.0 <= w <= 1.0:
        raise ValueError(f"net weight must lie in [0, 1], got {w}")
    a, b = on.series, off.series
    if (
        a.frequency is not b.frequency
        or a.start != b.start
        or len(a) != len(b)
    ):
        raise AlignmentError("on and off indices must cover identical periods")
    return IntensityIndex(
        series=a.replace_values(a.values - w * b.values),
        kind=IndexKind.NET,
        normalization_max=on.normalization_max,
        net_weight=w,
    )


@dataclass(frozen=True)
class GridPoint:
    weight: float
    ssr: float
    loglik: float


@dataclass(frozen=True)
class GridSearchResult:
    """Chosen netting weight plus the full profile for flatness reporting."""

    w_hat: float
    points: tuple[GridPoint, ...]
    nobs: int

    @property
    def relative_ssr_spread(self) -> float:
        """(max - min) / min of SSR across the grid; small means a flat profile."""
        ssr = [p.ssr for p in self.points]
        return (max(ssr) - min(ssr)) / min(ssr)


def grid_search_weight(
    on: IntensityIndex,
    off: IntensityIndex,
    dy: CalendarSeries,
    grid_step: float = 0.1,
) -> GridSearchResult:
    """Pick the netting weight by likelihood over a grid of candidate weights.

    For each ``w`` on the open-interval grid the regression of growth on its
    own lag and the lagged net index is fit by least squares; the weight with
    the highest Gaussian likelihood (lowest SSR) wins, ties going to the
    smaller ``w``.
    """
    if not 0 < grid_step < 0.5:
        raise ValueError("grid step must lie in (0, 0.5)")
    if dy.frequency is not Frequency.QUARTERLY:
        raise AlignmentError("grid search expects quarterly growth data")
    n_points = int(round(1.0 / grid_step)) - 1
    grid = np.round(np.arange(1, n_points + 1) * grid_step, 10)
    (y, y_lag, on_lag, off_lag), _ = align(
        dy, lag(dy, 1), lag(on.series, 1), lag(off.series, 1)
    )
    nobs = len(y)
    if nobs < 10:
        raise SampleError(f"grid search needs >= 10 quarters of overlap, got {nobs}")
    points = []
    for w in grid:
        s_lag = on_lag - w * off_lag
        fit = ols(y, np.column_stack([y_lag, s_lag]), names=("dy.L1", "s.L1"))
        ssr = float(fit.residuals @ fit.residuals)
        loglik = -0.5 * nobs * (math.log(2 * math.pi) + math.log(ssr / nobs) + 1.0)
        points.append(GridPoint(weight=float(w), ssr=ssr, loglik=loglik))
    best = min(range(len(points)), key=lambda i: points[i].ssr)
    return GridSearchResult(w_hat=points[best].weight, points=tuple(points), nobs=nobs)


def sdn_index(flows: EntityFlowSeries, w: float = 0.4) -> IntensityIndex:
    """Net entity additions against removals, scaled by the sample maximum.

    Negative values are legitimate: periods dominated by removals fall below
    zero after netting.
    """
    if not 0.0 <= w <= 1.0:
        raise ValueError(f"net weight must lie in [0, 1], got {w}")
    net = flows.additions - w * flows.removals
    peak = float(np.max(net))
    if peak <= 0:
        raise NormalizationError("netted flow maximum must be positive")
    series = CalendarSeries(
        frequency=flows.frequency,
        calendar=CalendarKind.GREGORIAN,
        start=flows.start,
        values=net / peak,
    )
    return IntensityIndex(
        series=series,
        kind=IndexKind.SDN_NET,
        normalization_max=peak,
        net_weight=w,
    )


# ---------------------------------------------------------------------------
# CSV interfaces
# ---------------------------------------------------------------------------


# bytes read at a time on the byte path, cut back to the last line end.  A
# block takes about 7 times its size while it is read: its bytes as read and
# as cut, and its index arrays (tracemalloc, 22-byte rows).  Reading 232k
# rows peaks at the panel's columns plus 3.0, 2.4 and 4.1 block sizes with
# blocks of 128 KiB, 512 KiB and 1 MiB, and a build-index on two such files
# at 46-48 MB in a fresh interpreter with each (VmHWM)
_BLOCK_BYTES = 1 << 19
# the low k bytes of a little-endian 8-byte word, for k = 0..8
_LOW_BYTES = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)
# a block reads its outlets from their runs of equal neighbouring cells when
# they average this many rows or more, as in a file grouped by outlet.
# Reading a run's cell costs about as much as sorting 16 rows of outlets
# (decoding and looking it up, 245 ns; the sort, 15 ns a row), so runs of 8
# cost at most 1.6x the sort (one CPU).  Dates are read from their runs at
# any length: a run's date, got from its digits, costs less than sorting one
# row's two 8-byte pieces (runs vs sort per 128 KiB block: 649 vs 1038 us
# with a new date every row, 240 vs 631 us every 6 rows)
_ROWS_PER_RUN = 8
# a date cell's two words, "YYYY-MM-" and "DD" with the bytes after it, lie
# bytewise between the first and the second pair of bounds; an ASCII byte b
# reaches a lower bound lo where b + 0x80 - lo carries into its top bit, and
# passes an upper bound hi where b + 0x7f - hi does
_ISO_LOW, _ISO_HIGH = (
    np.array([int.from_bytes(bytes(top - b for b in word), "little") for word in bounds], dtype=np.uint64)
    for top, bounds in (
        (0x80, (b"0000-00-", b"00" + b"\x00" * 6)),
        (0x7F, (b"9999-99-", b"99" + b"\x7f" * 6)),
    )
)
_TOP_BITS = np.uint64(0x8080808080808080)
# the year, month and day from the 16 low halves of a date cell's two words
_ISO_PLACES = np.zeros((16, 3))
_ISO_PLACES[[0, 1, 2, 3, 5, 6, 8, 9], [0, 0, 0, 0, 1, 1, 2, 2]] = [1000, 100, 10, 1, 10, 1, 10, 1]
# a cell's key is the sum of its k-th pieces times this to the k, modulo
# 2**64; any base serves, as a lookup checks every piece
_KEY_BASE = 0x9E3779B97F4A7C15


def read_counts_csv(path: str | Path) -> ArticleCountPanel:
    """Read daily counts from a ``date,outlet,count`` CSV (ISO dates).

    Rows with no non-blank cell are skipped.  A malformed row raises
    :class:`SeriesError` naming the first failing line: a short row, a bad
    date, an empty outlet, a bad, negative or over-64-bit count, or a second
    row for one outlet-day, checked in that order within a row.

    The file is parsed on its bytes, block by block, while every line is a
    plain row (see :func:`_plain_block`).  From the first block that is
    not, the rest of the file goes through ``csv`` row by row (see
    :func:`_parse_row`), which reads every row that the byte path does not
    and reports every error.
    """
    path = Path(path)
    days: dict[str, int] = {}  # date cell -> day ordinal, 0 when unparseable
    cells_to_code: dict[str, int] = {}  # outlet cell -> outlet code, -1 when blank
    codes: dict[str, int] = {}  # outlet name -> code, in order of appearance
    # each block's first line (its line per row, on the csv path), day, outlet code and count
    blocks: list[tuple] = []
    start, first_line = _read_plain_blocks(path, blocks, days, cells_to_code, codes)
    failure = None
    if start is not None:
        from array import array  # loaded only where a file reaches the csv path
        columns = tuple(array("q") for _ in range(4))  # line, day, outlet code, count
        blocks.append(columns)
        add_line, add_day, add_code, add_count = (column.append for column in columns)
        with csv_rows(path, start) as reader:
            if first_line == 1:
                _check_header(path, next(reader, None))
                first_line = 2
            parsed_rows = map(_parse_row, reader, repeat(days), repeat(cells_to_code), repeat(codes))
            for lineno, parsed in enumerate(parsed_rows, first_line):
                if isinstance(parsed, str):
                    failure = f"{path}:{lineno}: {parsed}"
                    break
                if parsed is not None:
                    day, code, count = parsed
                    add_line(lineno), add_day(day), add_code(code), add_count(count)
        del columns, add_line, add_day, add_code, add_count  # blocks holds the only reference
    if not any(len(block[1]) for block in blocks):
        raise SeriesError(failure or f"{path}: no data rows")
    lines, *parts = zip(*blocks)
    sizes = [len(part) for part in parts[0]]
    del blocks
    # joined a column at a time, each freeing its blocks' parts, so that no
    # more columns are held than the panel's four
    day, code, count = (np.concatenate(parts.pop(0)) for _ in range(3))
    # every row read lies before a failing line, so a repeat among them fails first
    # outlet codes follow their first rows, so a file grouped by day that
    # lists its outlets in one order skips the search's sort
    repeat_at = _first_repeat(code, day)
    if repeat_at is not None:
        line = np.concatenate(
            [np.arange(first, first + size) if isinstance(first, int) else first for first, size in zip(lines, sizes)]
        )
        outlet = next(name for name, c in codes.items() if c == code[repeat_at])
        raise SeriesError(
            f"{path}:{line[repeat_at]}: duplicate row for {outlet} {date.fromordinal(int(day[repeat_at]))}"
        )
    if failure:
        raise SeriesError(failure)
    outlets = tuple(sorted(codes))
    rank = np.empty(len(outlets), dtype=np.int64)
    rank[[codes[name] for name in outlets]] = np.arange(len(outlets))
    code = rank[code]  # before the months, so the old codes are freed first
    return ArticleCountPanel._checked(outlets, day, code, count, _ordinal_months(day))


def _check_header(path: Path, header: list[str] | None) -> None:
    if header is None or [h.strip().lower() for h in header[:3]] != [
        "date",
        "outlet",
        "count",
    ]:
        raise SeriesError(f"{path}: expected header 'date,outlet,count'")


def _read_plain_blocks(
    path: Path,
    blocks: list[tuple],
    days: dict[str, int],
    cells_to_code: dict[str, int],
    codes: dict[str, int],
) -> tuple[int | None, int]:
    """Append the columns of the file's leading plain blocks to ``blocks``.

    Returns the byte offset and line number of the first line left for
    ``csv`` (offset 0 and line 1 when the header is not a plain line), or
    ``None`` and the line after the last when every line was read.
    """
    table = _CellTable()
    with path.open("rb") as raw:
        header = raw.readline()
        if not (header.endswith(b"\n") and _plain_bytes(header)):
            return 0, 1
        _check_header(path, header[:-1].decode("ascii").split(","))
        start, first_line = len(header), 2
        data = raw.read(_BLOCK_BYTES)
        while data:
            end = data.rfind(b"\n") + 1
            block = _plain_block(data[:end], first_line, days, cells_to_code, codes, table) if end else None
            if block is None:
                return start, first_line
            blocks.append(block)
            start, first_line = start + end, first_line + block[1].size
            data = data[end:] + raw.read(_BLOCK_BYTES)
    return None, first_line


def _plain_block(
    data: bytes,
    first_line: int,
    days: dict[str, int],
    cells_to_code: dict[str, int],
    codes: dict[str, int],
    table: _CellTable,
) -> tuple | None:
    """Columns (first line, day, outlet code, count) of whole lines of
    bytes, or ``None`` unless every line is a plain, valid row.

    A plain row is ASCII with no NUL, quote or CR, and has exactly two
    commas, a 10-byte date, a non-empty outlet and a count of 1-18 digits;
    ``csv`` would split it at its commas.  Dates are read at the first row
    of each run of equal neighbouring cells (:func:`_runs`), a date in
    ``YYYY-MM-DD`` form from its digits (:func:`_iso_days`); outlets too
    when their runs are long, else from ``table`` when it holds every
    outlet cell of the block, else at one row of each distinct cell
    (:func:`_distinct_fields`), which then join ``table``.  A cell read at
    a row is looked up as in :func:`_parse_row`, so it may be read more than
    once.  A bad date or blank outlet makes the block not valid.
    """
    if not _plain_bytes(data):
        return None
    buf = np.frombuffer(data, dtype=np.uint8)
    end = np.flatnonzero(buf == ord("\n"))
    comma = np.flatnonzero(buf == ord(","))
    if comma.size != 2 * end.size:
        return None
    start = np.concatenate(([0], end[:-1] + 1))
    first, second = comma[0::2], comma[1::2]
    outlet_width, count_width = second - first - 1, end - second - 1
    # with two commas a line in all, each line's first comma ends its date
    # and its second comes before its count, so both lie inside the line
    if not (
        (first == start + 10).all()
        and (outlet_width >= 1).all()
        and ((count_width >= 1) & (count_width <= 18)).all()
    ):
        return None
    count = np.zeros(end.size, dtype=np.int64)  # 18 digits fit in 63 bits
    for k in range(int(count_width.max())):
        digit = buf[end - 1 - k].astype(np.int64) - ord("0")
        digit[count_width <= k] = 0
        if not ((0 <= digit) & (digit <= 9)).all():
            return None
        count += digit * 10**k
    # the 8-byte little-endian word at every offset; the zeros past the block
    # cover the longest outlet's last word
    padded = np.concatenate((buf, np.zeros(int(outlet_width.max()) + 8, dtype=np.uint8)))
    words = np.ndarray((padded.size - 7,), dtype="<u8", buffer=padded, strides=(1,))
    date_at, date_id = _runs(_pieces(words, start, 10), 1)
    date_day = _iso_days(words, start[date_at])
    other = np.flatnonzero(date_day == 0)  # another ISO form, or no date
    date_cells = [data[i : i + 10].decode("ascii") for i in start[date_at[other]].tolist()]
    _learn_cells(date_cells, (), days, cells_to_code, codes)
    date_day[other] = [days[cell] for cell in date_cells]
    day = date_day[date_id]
    outlet = _pieces(words, first + 1, outlet_width)
    runs = _runs(outlet, _ROWS_PER_RUN)
    code = None if runs else table.codes_of(outlet)
    if code is None:
        outlet_at, outlet_id = runs or _distinct_fields(outlet)
        outlet_bounds = zip((first[outlet_at] + 1).tolist(), second[outlet_at].tolist())
        outlet_cells = [data[i:j].decode("ascii") for i, j in outlet_bounds]
        _learn_cells((), outlet_cells, days, cells_to_code, codes)
        cell_codes = np.array([cells_to_code[cell] for cell in outlet_cells], dtype=np.int64)
        if not runs:
            table.add([piece[outlet_at] for piece in outlet], cell_codes)
        code = cell_codes[outlet_id]
    if not day.all() or (code < 0).any():
        return None
    return first_line, day, code, count


def _plain_bytes(data: bytes) -> bool:
    """ASCII with no NUL, quote or CR: ``csv`` splits each line at its commas."""
    return data.isascii() and not any(byte in data for byte in (b"\0", b'"', b"\r"))


def _pieces(words: np.ndarray, start: np.ndarray, width: np.ndarray | int) -> list[np.ndarray]:
    """The cells of a byte field as the integers of their zero-padded 8-byte
    pieces, one array per piece.

    ``words`` holds the 8-byte word at every offset of NUL-free bytes, so
    two cells are equal where all their pieces are.
    """
    return [words[start + offset] & _LOW_BYTES[np.clip(width - offset, 0, 8)] for offset in range(0, int(np.max(width)), 8)]


def _runs(pieces: list[np.ndarray], rows_per_run: int) -> tuple[np.ndarray, np.ndarray] | None:
    """First rows of a field's runs of equal neighbouring cells and each
    row's run, or ``None`` when the runs average fewer than
    ``rows_per_run`` rows.  A cell recurs once for each of its runs."""
    rows = pieces[0].size
    head = np.zeros(rows, dtype=bool)
    head[0] = True
    for key in pieces:
        head[1:] |= key[1:] != key[:-1]
        if np.count_nonzero(head) * rows_per_run > rows:
            return None
    at = np.flatnonzero(head)
    return at, np.repeat(np.arange(at.size), np.diff(at, append=rows))


def _distinct_fields(pieces: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """First rows of a field's distinct cells, ascending, and each row's
    position among them, found by sorting."""
    rows = pieces[0].size
    _, at, ids = np.unique(pieces[0], return_index=True, return_inverse=True)
    for key in pieces[1:]:
        # pairs of (earlier pieces' position, this piece's position)
        pairs = ids * rows + np.unique(key, return_inverse=True)[1]
        _, at, ids = np.unique(pairs, return_index=True, return_inverse=True)
    order = np.argsort(at)
    position = np.empty_like(order)
    position[order] = np.arange(order.size)
    return at[order], position[ids]


def _cell_keys(pieces: list[np.ndarray]) -> np.ndarray:
    """Each cell's key (see ``_KEY_BASE``), unchanged by trailing zero pieces."""
    key = pieces[0]
    for k, piece in enumerate(pieces[1:], 1):
        key = key + piece * np.uint64(pow(_KEY_BASE, k, 1 << 64))
    return key


class _CellTable:
    """The outlet cells one file's byte path has learned, with their codes,
    sorted by key (:func:`_cell_keys`) and held as their pieces.

    A lookup checks every piece, so a cell is found only where the table
    holds the same bytes; of two cells with one key, only the first joins.
    """

    def __init__(self) -> None:
        self.keys = np.empty(0, dtype=np.uint64)
        self.pieces = np.empty((0, 0), dtype=np.uint64)  # one row per piece
        self.codes = np.empty(0, dtype=np.int64)

    def codes_of(self, pieces: list[np.ndarray]) -> np.ndarray | None:
        """Each cell's code, or ``None`` when the table lacks a cell."""
        if len(pieces) > len(self.pieces):  # a cell longer than every known one
            return None
        at = np.minimum(np.searchsorted(self.keys, _cell_keys(pieces)), self.keys.size - 1)
        for k, known in enumerate(self.pieces):
            if not (known[at] == (pieces[k] if k < len(pieces) else 0)).all():
                return None
        return self.codes[at]

    def add(self, pieces: list[np.ndarray], codes: np.ndarray) -> None:
        """Add the cells with these pieces and codes."""
        size = self.keys.size
        grown = np.zeros((max(len(pieces), len(self.pieces)), size + codes.size), dtype=np.uint64)
        grown[: len(self.pieces), :size] = self.pieces
        grown[: len(pieces), size:] = pieces
        keys = np.concatenate((self.keys, _cell_keys(pieces)))
        _, first = np.unique(keys, return_index=True)
        self.keys, self.pieces, self.codes = keys[first], grown[:, first], np.concatenate((self.codes, codes))[first]


def _iso_days(words: np.ndarray, at: np.ndarray) -> np.ndarray:
    """Day ordinals of the 10-byte ASCII cells at offsets ``at`` that are
    dates in ``YYYY-MM-DD`` form, and 0 for every other cell.

    ``words`` is as for :func:`_pieces`.  An ordinal is the cell's
    ``date.fromisoformat(...).toordinal()``, got from its digits.
    """
    cells = np.stack((words[at], words[at + 8]), axis=1)  # "YYYY-MM-", "DD..."
    form = ((cells + _ISO_LOW) & ~(cells + _ISO_HIGH) & _TOP_BITS) == _TOP_BITS  # within the bounds
    year, month, day = ((cells.view(np.uint8) & 0xF) @ _ISO_PLACES).astype(np.int64).T
    real = form[:, 0] & form[:, 1] & (year >= 1) & (month >= 1) & (month <= 12)
    # the first days of the month and of the next, since 1970-01-01
    months = np.where(real, (year - 1970) * 12 + month - 1, 0)
    first, after = (
        (months + k).astype("datetime64[M]").astype("datetime64[D]").astype(np.int64) for k in (0, 1)
    )
    real &= (day >= 1) & (day <= after - first)
    return np.where(real, first + day - 1 + _EPOCH_ORDINAL, 0)


def _parse_row(
    row: list[str], days: dict[str, int], cells_to_code: dict[str, int], codes: dict[str, int]
) -> tuple[int, int, int] | str | None:
    """(day, outlet code, count) of a ``csv`` row, ``None`` for a blank row,
    or why the row is malformed.

    The lookup dicts carry across rows, so each distinct date and outlet
    cell is parsed once per file.
    """
    # a blank row fails the width or the date check; it is skipped
    if len(row) < 3:
        return "expected 'date,outlet,count'" if "".join(row).strip() else None
    date_cell, outlet_cell, count_cell = row[0], row[1], row[2]
    if date_cell not in days or outlet_cell not in cells_to_code:
        _learn_cells((date_cell,), (outlet_cell,), days, cells_to_code, codes)
    day, code = days[date_cell], cells_to_code[outlet_cell]
    if not day:
        return f"bad date {date_cell!r}" if "".join(row).strip() else None
    if code < 0:
        return "empty outlet"
    try:
        count = int(count_cell)
    except ValueError:
        return f"bad count {count_cell!r}"
    if count < 0:
        return "negative count"
    if count >= 2**63:
        return f"count {count_cell!r} does not fit in 64 bits"
    return day, code, count


def _learn_cells(
    date_cells: list[str],
    outlet_cells: list[str],
    days: dict[str, int],
    cells_to_code: dict[str, int],
    codes: dict[str, int],
) -> None:
    """Add the date and outlet cells not yet looked up to the lookup dicts."""
    for cell in set(date_cells).difference(days):
        try:
            days[cell] = date.fromisoformat(cell.strip()).toordinal()
        except ValueError:
            days[cell] = 0
    for cell in outlet_cells:  # in order, so codes follow the outlets' first rows
        if cell not in cells_to_code:
            name = cell.strip()
            cells_to_code[cell] = codes.setdefault(name, len(codes)) if name else -1


def read_flows_csv(path: str | Path) -> EntityFlowSeries:
    """Read entity flows from a ``period,additions,removals`` CSV
    (see :func:`~newsvar.timeseries.read_period_table`)."""
    path = Path(path)
    freq, start, table = read_period_table(path, ("additions", "removals"))
    try:
        return EntityFlowSeries(freq, start, table[:, 0], table[:, 1])
    except SeriesError as exc:
        raise SeriesError(f"{path}: {exc}") from exc


def write_index_csv(index: IntensityIndex, path: str | Path) -> None:
    """Export as ``period,value,kind`` rows."""
    series, kind = index.series, index.kind.value
    rows = ((label, repr(float(value)), kind) for label, value in zip(series.labels(), series.values))
    write_csv(path, ("period", "value", "kind"), rows)
