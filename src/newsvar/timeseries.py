"""Calendar-aware series containers and transforms.

A :class:`CalendarSeries` is a contiguous run of values stamped with a
frequency (monthly/quarterly/annual) and a calendar (Gregorian/Iranian).
Module functions cover Iranian-to-Gregorian conversion, frequency
aggregation, log differencing, lagging, alignment, and period-keyed CSV I/O.
Every output file of the package is written by :func:`write_csv` or
:func:`write_json`, so each format has one form.

Period label grammar: annual ``YYYY``, quarterly ``YYYYQn``, monthly
``YYYY-MM``.
"""

from __future__ import annotations

import csv
import json
import math
import re
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    AlignmentError,
    DomainError,
    FrequencyError,
    SeriesError,
)

__all__ = [
    "Frequency",
    "CalendarKind",
    "PeriodLabel",
    "CalendarSeries",
    "convert_iranian_annual",
    "convert_iranian_quarterly",
    "convert_iranian_monthly",
    "aggregate",
    "log_diff",
    "lag",
    "align",
    "read_period_table",
    "read_series_csv",
    "write_series_csv",
    "write_csv",
    "write_json",
]


class Frequency(str, Enum):
    MONTHLY = "monthly"
    QUARTERLY = "quarterly"
    ANNUAL = "annual"

    @property
    def periods_per_year(self) -> int:
        return _PERIODS_PER_YEAR[self]


_PERIODS_PER_YEAR = {Frequency.MONTHLY: 12, Frequency.QUARTERLY: 4, Frequency.ANNUAL: 1}


class CalendarKind(str, Enum):
    GREGORIAN = "gregorian"
    IRANIAN = "iranian"


_QUARTER_RE = re.compile(r"^(-?\d{1,6})Q([1-4])$")
_MONTH_RE = re.compile(r"^(-?\d{1,6})-(\d{2})$")
_YEAR_RE = re.compile(r"^(-?\d{1,6})$")


@dataclass(frozen=True, order=True)
class PeriodLabel:
    """A calendar period: year plus month/quarter subperiod (None for annual)."""

    year: int
    subperiod: int | None = None

    def validate(self, frequency: Frequency) -> None:
        ppy = frequency.periods_per_year
        if frequency is Frequency.ANNUAL:
            if self.subperiod is not None:
                raise SeriesError(f"annual label must not carry a subperiod: {self!r}")
        else:
            if self.subperiod is None or not 1 <= self.subperiod <= ppy:
                raise SeriesError(
                    f"subperiod out of range for {frequency.value}: {self!r}"
                )

    def to_index(self, frequency: Frequency) -> int:
        """Absolute period count since year 0, used for shift arithmetic."""
        self.validate(frequency)
        ppy = frequency.periods_per_year
        sub = 0 if self.subperiod is None else self.subperiod - 1
        return self.year * ppy + sub

    @staticmethod
    def from_index(index: int, frequency: Frequency) -> "PeriodLabel":
        ppy = frequency.periods_per_year
        year, sub = divmod(index, ppy)
        if frequency is Frequency.ANNUAL:
            return PeriodLabel(year)
        return PeriodLabel(year, sub + 1)

    def shift(self, steps: int, frequency: Frequency) -> "PeriodLabel":
        return PeriodLabel.from_index(self.to_index(frequency) + steps, frequency)

    def format(self, frequency: Frequency) -> str:
        self.validate(frequency)
        if frequency is Frequency.ANNUAL:
            return f"{self.year:04d}"
        if frequency is Frequency.QUARTERLY:
            return f"{self.year:04d}Q{self.subperiod}"
        return f"{self.year:04d}-{self.subperiod:02d}"

    @staticmethod
    def parse(text: str, frequency: Frequency | None = None) -> tuple["PeriodLabel", Frequency]:
        """Parse a period label, inferring the frequency from its shape.

        When ``frequency`` is given the parsed shape must match it.
        """
        text = text.strip()
        m = _QUARTER_RE.match(text)
        if m:
            parsed = PeriodLabel(int(m.group(1)), int(m.group(2)))
            found = Frequency.QUARTERLY
        else:
            m = _MONTH_RE.match(text)
            if m:
                month = int(m.group(2))
                if not 1 <= month <= 12:
                    raise SeriesError(f"month out of range in period label {text!r}")
                parsed = PeriodLabel(int(m.group(1)), month)
                found = Frequency.MONTHLY
            elif _YEAR_RE.match(text):
                parsed = PeriodLabel(int(text))
                found = Frequency.ANNUAL
            else:
                raise SeriesError(f"unparseable period label {text!r}")
        if frequency is not None and found is not frequency:
            raise SeriesError(
                f"period label {text!r} is {found.value}, expected {frequency.value}"
            )
        return parsed, found


@dataclass(frozen=True)
class CalendarSeries:
    """Contiguous values at a fixed frequency with a start period.

    Values are float64 and immutable.  NaN markers are accepted only at the
    edges; interior gaps are rejected at construction.
    """

    frequency: Frequency
    calendar: CalendarKind
    start: PeriodLabel
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1:
            raise SeriesError("series values must be one-dimensional")
        if values.size == 0:
            raise SeriesError("series must hold at least one value")
        finite = np.isfinite(values)
        if not finite.all():
            if np.isinf(values).any():
                raise SeriesError("series values must be finite or NaN")
            first, last = np.argmax(finite), len(finite) - 1 - np.argmax(finite[::-1])
            if not finite.any() or not finite[first : last + 1].all():
                raise SeriesError("missing markers are permitted only at the edges")
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        self.start.validate(self.frequency)

    def __len__(self) -> int:
        return len(self.values)

    @property
    def end(self) -> PeriodLabel:
        return self.start.shift(len(self.values) - 1, self.frequency)

    def periods(self) -> list[PeriodLabel]:
        return [self.start.shift(i, self.frequency) for i in range(len(self.values))]

    def labels(self) -> list[str]:
        return [p.format(self.frequency) for p in self.periods()]

    def index_of(self, label: PeriodLabel) -> int:
        offset = label.to_index(self.frequency) - self.start.to_index(self.frequency)
        if not 0 <= offset < len(self.values):
            raise AlignmentError(
                f"period {label.format(self.frequency)} outside series span"
            )
        return offset

    def window(self, start: PeriodLabel | None, end: PeriodLabel | None) -> "CalendarSeries":
        """Slice inclusive of both endpoints (None keeps that edge)."""
        i = 0 if start is None else self.index_of(start)
        j = len(self.values) - 1 if end is None else self.index_of(end)
        if j < i:
            raise AlignmentError("window end precedes window start")
        return self.replace_values(self.values[i : j + 1], start=self.start.shift(i, self.frequency))

    def replace_values(
        self,
        values: np.ndarray | Sequence[float],
        start: PeriodLabel | None = None,
        frequency: Frequency | None = None,
        calendar: CalendarKind | None = None,
    ) -> "CalendarSeries":
        return CalendarSeries(
            frequency=frequency or self.frequency,
            calendar=calendar or self.calendar,
            start=start or self.start,
            values=np.asarray(values, dtype=float),
        )

    def trimmed(self) -> "CalendarSeries":
        """Drop edge NaN markers; error if nothing finite remains."""
        finite = np.isfinite(self.values)
        if finite.all():
            return self
        first = int(np.argmax(finite))
        last = len(finite) - 1 - int(np.argmax(finite[::-1]))
        return self.replace_values(
            self.values[first : last + 1], start=self.start.shift(first, self.frequency)
        )


# ---------------------------------------------------------------------------
# Iranian -> Gregorian conversions
#
# Each output period mixes the previous and current input periods with fixed
# weights, so the converted series is one observation shorter at the start
# and the calendar flag flips.  Numerators and the common denominator are
# kept separate so that rational fixtures come out exact.
# ---------------------------------------------------------------------------

_CONVERSION_WEIGHTS = {
    Frequency.ANNUAL: (80.0, 285.0, 365.0),
    Frequency.QUARTERLY: (8.0, 1.0, 9.0),
    Frequency.MONTHLY: (1.0, 2.0, 3.0),
}


def _convert_iranian(series: CalendarSeries, frequency: Frequency) -> CalendarSeries:
    if series.frequency is not frequency:
        raise FrequencyError(
            f"expected a {frequency.value} series, got {series.frequency.value}"
        )
    if series.calendar is not CalendarKind.IRANIAN:
        raise DomainError("conversion input must be on the Iranian calendar")
    series = series.trimmed()
    if len(series) < 2:
        raise SeriesError("calendar conversion needs at least 2 observations")
    prev_w, curr_w, denom = _CONVERSION_WEIGHTS[frequency]
    x = series.values
    converted = (prev_w * x[:-1] + curr_w * x[1:]) / denom
    return series.replace_values(
        converted,
        start=series.start.shift(1, frequency),
        calendar=CalendarKind.GREGORIAN,
    )


def convert_iranian_annual(series: CalendarSeries) -> CalendarSeries:
    """Convert an annual Iranian-calendar series to Gregorian years.

    Each Gregorian year takes 80/365 of the previous Iranian year and
    285/365 of the current one.
    """
    return _convert_iranian(series, Frequency.ANNUAL)


def convert_iranian_quarterly(series: CalendarSeries) -> CalendarSeries:
    """Quarterly conversion with weights 8/9 (previous) and 1/9 (current)."""
    return _convert_iranian(series, Frequency.QUARTERLY)


def convert_iranian_monthly(series: CalendarSeries) -> CalendarSeries:
    """Monthly conversion with weights 1/3 (previous) and 2/3 (current)."""
    return _convert_iranian(series, Frequency.MONTHLY)


# ---------------------------------------------------------------------------
# Aggregation and transforms
# ---------------------------------------------------------------------------


def aggregate(series: CalendarSeries, target: Frequency) -> CalendarSeries:
    """Mean over each period of a coarser frequency; partial head/tail
    windows are dropped."""
    if target.periods_per_year >= series.frequency.periods_per_year:
        raise FrequencyError(
            f"target frequency {target.value} is not coarser than {series.frequency.value}"
        )
    series = series.trimmed()
    step = series.frequency.periods_per_year // target.periods_per_year
    start_idx = series.start.to_index(series.frequency)
    # advance to the first source period opening a whole target period
    head = (-start_idx) % step
    usable = len(series) - head
    blocks = usable // step
    if blocks < 1:
        raise SeriesError("series does not cover a single whole target period")
    out = series.values[head : head + blocks * step].reshape(blocks, step).mean(axis=1)
    new_start = PeriodLabel.from_index((start_idx + head) // step, target)
    return series.replace_values(out, start=new_start, frequency=target)


def log_diff(series: CalendarSeries) -> CalendarSeries:
    """First difference of the natural log; one observation shorter."""
    series = series.trimmed()
    if len(series) < 2:
        raise SeriesError("log difference needs at least 2 observations")
    bad = np.nonzero(series.values <= 0)[0]
    if bad.size:
        where = series.start.shift(int(bad[0]), series.frequency)
        raise DomainError(
            f"non-positive value at {where.format(series.frequency)}; cannot take logs"
        )
    logs = np.log(series.values)
    return series.replace_values(
        logs[1:] - logs[:-1], start=series.start.shift(1, series.frequency)
    )


def lag(series: CalendarSeries, steps: int = 1) -> CalendarSeries:
    """Relabel the series ``steps`` periods later, so labels align x_{t-steps} with t."""
    return series.replace_values(
        series.values, start=series.start.shift(steps, series.frequency)
    )


def align(*series: CalendarSeries) -> tuple[list[np.ndarray], PeriodLabel]:
    """Intersect the spans of the given series; returns arrays plus the common start.

    All series must share frequency and calendar.  Raises
    :class:`AlignmentError` when the overlap is empty.
    """
    if not series:
        raise ValueError("align needs at least one series")
    freq = series[0].frequency
    cal = series[0].calendar
    trimmed = []
    for s in series:
        if s.frequency is not freq:
            raise AlignmentError(
                f"frequency mismatch: {s.frequency.value} vs {freq.value}"
            )
        if s.calendar is not cal:
            raise AlignmentError(f"calendar mismatch: {s.calendar.value} vs {cal.value}")
        trimmed.append(s.trimmed())
    lo = max(s.start.to_index(freq) for s in trimmed)
    hi = min(s.end.to_index(freq) for s in trimmed)
    if hi < lo:
        raise AlignmentError("series have no overlapping periods")
    arrays = []
    for s in trimmed:
        offset = lo - s.start.to_index(freq)
        arrays.append(np.asarray(s.values[offset : offset + hi - lo + 1]))
    return arrays, PeriodLabel.from_index(lo, freq)


# ---------------------------------------------------------------------------
# CSV ingestion / export: `period,column1,...` tables, header required, UTF-8.
# ---------------------------------------------------------------------------


@contextmanager
def csv_rows(path: Path) -> Iterator[Iterator[list[str]]]:
    """A ``csv.reader`` over a UTF-8 file, less a leading byte order mark;
    bytes that do not decode, and what ``csv`` cannot split, raise
    :class:`SeriesError` naming the file."""
    with path.open(encoding="utf-8-sig", newline="") as handle:
        try:
            yield csv.reader(handle)
        except UnicodeDecodeError as exc:
            raise SeriesError(f"{path}: not UTF-8 text ({exc.reason})") from exc
        except csv.Error as exc:
            raise SeriesError(f"{path}: {exc}") from exc


def read_period_table(
    path: str | Path, columns: tuple[str, ...]
) -> tuple[Frequency, PeriodLabel, np.ndarray]:
    """Read a ``period,column1,...`` CSV: one frequency, each period once, no gaps.

    ``columns``, in lower case, fixes the header after ``period`` (in any
    case). Blank rows are skipped and every other row has the header's
    width. A cell is a number, or ``nan`` or blank for a missing value;
    ``inf`` is refused. Returns the frequency, the first period and a
    ``(periods, columns)`` float array in period order. Every
    :class:`SeriesError` names the file, and the line where one is at fault.
    """
    path = Path(path)
    rows: dict[int, tuple[int, int]] = {}  # period index -> (row, line)
    cells: list[float] = []  # row by row, in file order
    freq: Frequency | None = None
    with csv_rows(path) as reader:
        header = [cell.strip().lower() for cell in next(reader, [])]
        if header != ["period", *columns]:
            raise SeriesError(f"{path}: expected header 'period,{','.join(columns)}'")
        for lineno, row in enumerate(reader, start=2):
            if not any(cell.strip() for cell in row):
                continue
            if len(row) != len(header):
                raise SeriesError(f"{path}:{lineno}: {len(row)} cells, expected {len(header)}")
            try:
                label, found = PeriodLabel.parse(row[0], freq)
            except SeriesError as exc:
                raise SeriesError(f"{path}:{lineno}: {exc}") from exc
            freq = freq or found
            for cell in row[1:]:
                try:
                    value = float(cell) if cell.strip() else math.nan
                except ValueError as exc:
                    raise SeriesError(f"{path}:{lineno}: bad value {cell!r}") from exc
                if math.isinf(value):
                    raise SeriesError(f"{path}:{lineno}: value {cell!r} is infinite")
                cells.append(value)
            index = label.to_index(freq)
            if index in rows:
                raise SeriesError(
                    f"{path}:{lineno}: duplicate period {label.format(freq)}"
                    f" (first on line {rows[index][1]})"
                )
            rows[index] = (len(rows), lineno)
    if not rows or freq is None:
        raise SeriesError(f"{path}: no data rows")
    first, last = min(rows), max(rows)
    if last - first + 1 != len(rows):
        gap = next(i for i in range(first, last) if i not in rows)
        shown = PeriodLabel.from_index(gap, freq).format(freq)
        raise SeriesError(f"{path}: periods not contiguous (first gap at {shown})")
    order = [rows[i][0] for i in range(first, last + 1)]
    table = np.array(cells).reshape(len(rows), len(columns))[order]
    return freq, PeriodLabel.from_index(first, freq), table


def read_series_csv(
    path: str | Path,
    calendar: CalendarKind = CalendarKind.GREGORIAN,
) -> CalendarSeries:
    """Read a ``period,value`` CSV into a series (see :func:`read_period_table`);
    missing values may stand only at the series' edges."""
    path = Path(path)
    freq, start, table = read_period_table(path, ("value",))
    try:
        return CalendarSeries(freq, calendar, start, table[:, 0])
    except SeriesError as exc:
        raise SeriesError(f"{path}: {exc}") from exc


def write_series_csv(series: CalendarSeries, path: str | Path) -> None:
    rows = ((label, repr(float(value))) for label, value in zip(series.labels(), series.values))
    write_csv(path, ("period", "value"), rows)


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence[object]]) -> None:
    """A header and rows as UTF-8 CSV: commas, minimal quoting, ``\\n`` line ends."""
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_json(payload: object, path: str | Path) -> None:
    """``payload`` as JSON: indent 2, sorted keys, ASCII escapes, a trailing newline."""
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
