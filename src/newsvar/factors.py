"""Weighted cross-section averages used as common-factor proxies.

Country weights come from summed GDP-PPP (or population) over a reference
window; averages over member series stand in for unobserved global factors
and regional comparators.  Members missing at a period have their weight
redistributed over the present ones; nothing is imputed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from .errors import AlignmentError, CoverageError, GapError, SeriesError
from .timeseries import align, CalendarKind, CalendarSeries, Frequency, PeriodLabel, read_period_table, write_csv

__all__ = [
    "WeightScheme",
    "gdp_ppp_weights",
    "weighted_average",
    "augment_regressors",
    "read_wide_panel_csv",
    "write_weights_csv",
]


@dataclass(frozen=True)
class WeightScheme:
    """Non-negative member weights summing to one, with their provenance."""

    members: tuple[str, ...]
    weights: np.ndarray
    window: str = ""

    def __post_init__(self) -> None:
        weights = np.asarray(self.weights, dtype=float)
        if weights.ndim != 1 or weights.size != len(self.members):
            raise ValueError("one weight per member required")
        if len(set(self.members)) != len(self.members):
            raise ValueError("duplicate member identifiers")
        if (weights < 0).any():
            raise ValueError("weights must be non-negative")
        if abs(weights.sum() - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {weights.sum()!r}, not 1")
        weights = weights.copy()
        weights.flags.writeable = False
        object.__setattr__(self, "weights", weights)

    def weight_of(self, member: str) -> float:
        try:
            return float(self.weights[self.members.index(member)])
        except ValueError:
            raise KeyError(f"no member named {member!r}") from None


def gdp_ppp_weights(
    panel: Mapping[str, CalendarSeries],
    window: tuple[int, int],
) -> WeightScheme:
    """Weights proportional to each member's summed annual values in ``window``.

    Every member needs at least one observation inside the window; scaling
    the whole panel by a common factor leaves the weights unchanged.
    """
    first, last = window
    if last < first:
        raise ValueError("window end precedes window start")
    members = tuple(sorted(panel))
    if not members:
        raise CoverageError("weight panel is empty")
    sums = np.zeros(len(members))
    for i, name in enumerate(members):
        series = panel[name].trimmed()
        if series.frequency is not Frequency.ANNUAL:
            raise AlignmentError(f"weight series for {name!r} must be annual")
        covered = 0
        for label, value in zip(series.periods(), series.values):
            if first <= label.year <= last:
                sums[i] += value
                covered += 1
        if covered == 0:
            raise CoverageError(f"member {name!r} has no observations in {first}-{last}")
    total = sums.sum()
    if total <= 0:
        raise CoverageError("window sums must be positive")
    return WeightScheme(members=members, weights=sums / total, window=f"{first}-{last}")


def weighted_average(
    panel: Mapping[str, CalendarSeries],
    scheme: WeightScheme,
) -> CalendarSeries:
    """Pointwise weighted mean of member series over the union of their spans.

    At periods where some members are missing, the remaining weights are
    rescaled to sum to one.  A period where every member is missing raises
    :class:`GapError`.
    """
    missing = [m for m in scheme.members if m not in panel]
    if missing:
        raise CoverageError(f"panel lacks member series: {', '.join(missing)}")
    series = [panel[m].trimmed() for m in scheme.members]
    freq = series[0].frequency
    cal = series[0].calendar
    for s in series[1:]:
        if s.frequency is not freq or s.calendar is not cal:
            raise AlignmentError("member series must share frequency and calendar")
    lo = min(s.start.to_index(freq) for s in series)
    hi = max(s.end.to_index(freq) for s in series)
    width = hi - lo + 1
    table = np.full((len(series), width), np.nan)
    for i, s in enumerate(series):
        offset = s.start.to_index(freq) - lo
        table[i, offset : offset + len(s)] = s.values
    present = ~np.isnan(table)
    gap = ~present.any(axis=0)
    if gap.any():
        where = PeriodLabel.from_index(lo + int(np.argmax(gap)), freq)
        raise GapError(f"all members missing at {where.format(freq)}")
    w = scheme.weights[:, None] * present
    w = w / w.sum(axis=0, keepdims=True)
    values = np.nansum(w * np.nan_to_num(table), axis=0)
    return CalendarSeries(
        frequency=freq,
        calendar=cal,
        start=PeriodLabel.from_index(lo, freq),
        values=values,
    )


def augment_regressors(
    y: CalendarSeries,
    base: Mapping[str, CalendarSeries],
    proxies: Mapping[str, CalendarSeries],
) -> tuple[np.ndarray, np.ndarray, tuple[str, ...]]:
    """Align a regression design and append factor-proxy columns.

    Returns (y_vector, X, names) over the common overlap of the dependent
    series, the base regressors, and the proxies.  With no proxies the design
    is exactly the base one.
    """
    names = tuple(base) + tuple(proxies)
    clash = set(base) & set(proxies)
    if clash:
        raise ValueError(f"proxy names clash with base regressors: {sorted(clash)}")
    arrays, _ = align(y, *(base[n] for n in base), *(proxies[n] for n in proxies))
    return arrays[0], np.column_stack(arrays[1:]) if names else np.empty((len(arrays[0]), 0)), names


def read_wide_panel_csv(
    path: str | Path,
    calendar: CalendarKind = CalendarKind.GREGORIAN,
) -> dict[str, CalendarSeries]:
    """Read a wide CSV ``period,member1,member2,...`` into per-member series
    (see :func:`~newsvar.timeseries.read_period_table`).

    Missing values may stand only at a member's span edges, which they trim.
    """
    path = Path(path)
    freq, start, members, table = read_period_table(path)
    panel = {}
    for name, column in zip(members, table.T):
        if np.isnan(column).all():
            raise SeriesError(f"{path}: member {name!r} has no data")
        try:
            panel[name] = CalendarSeries(freq, calendar, start, column).trimmed()
        except SeriesError as exc:
            raise SeriesError(f"{path}: member {name!r}: {exc}") from exc
    return panel


def write_weights_csv(scheme: WeightScheme, path: str | Path) -> None:
    rows = ((member, repr(float(weight))) for member, weight in zip(scheme.members, scheme.weights))
    write_csv(path, ("member", "weight"), rows)
