"""Span recording around the package's public functions, for traced runs.

Modules of the package bind each other's functions with ``from .x import f``,
so one function is reachable under several module attributes
(``newsvar.svar.ols``, ``newsvar.intensity.ols``, ``newsvar.regression.ols``).
:meth:`Recorder.install` replaces every such binding with one wrapper, so the
span is recorded whichever name the caller looks up.  Spans stay in memory as
``[name, start, end, parent]`` rows until the run writes them out.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

# (layer, function): the public functions each layer exposes to the others
TRACED = (
    ("timeseries", "read_series_csv"),
    ("timeseries", "aggregate"),
    ("intensity", "read_counts_csv"),
    ("intensity", "monthly_mean_count"),
    ("intensity", "standardized_monthly_count"),
    ("intensity", "normalize_unit_max"),
    ("intensity", "net_index"),
    ("intensity", "grid_search_weight"),
    ("intensity", "write_index_csv"),
    ("regression", "ols"),
    ("regression", "ar_fit"),
    ("svar", "estimate_svar"),
    ("svar", "estimate_svar_arrays"),
    ("dynamics", "irf_all"),
    ("dynamics", "fevd"),
    ("dynamics", "max_method_deviation"),
    ("dynamics", "write_irf_csv"),
    ("dynamics", "write_fevd_csv"),
    ("dynamics", "plot_data_json"),
    ("bootstrap", "bootstrap_irf"),
    ("bootstrap", "write_bands_metadata"),
    ("cli", "main"),
)

PACKAGE = "newsvar"


class Recorder:
    """Collects one span per call of each wrapped function."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = [-1]

    def wrap(self, name: str, fn):
        spans, open_ = self.spans, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, open_[-1]])
            open_.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                open_.pop()
                spans[idx][2] = clock()

        return traced

    def install(self) -> None:
        """Rebind every package-module attribute that names a traced function."""
        modules = [
            mod for name, mod in list(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        ]
        for layer, func in TRACED:
            original = getattr(importlib.import_module(f"{PACKAGE}.{layer}"), func)
            wrapper = self.wrap(f"{layer}.{func}", original)
            for mod in modules:
                for attr in [a for a, v in vars(mod).items() if v is original]:
                    setattr(mod, attr, wrapper)


def summarize(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: call count, summed duration and summed self time.

    Self time is a span's duration minus the durations of its direct
    children; calls are sequential, so children never overlap.
    """
    child_time = defaultdict(float)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for idx, (name, start, end, _) in enumerate(spans):
        entry = out[name]
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += end - start - child_time[idx]
    return dict(out)


def children_by_layer(spans: list[list], parent_name: str) -> dict[str, float]:
    """Summed duration of the direct children of ``parent_name`` spans, per layer."""
    parents = {i for i, span in enumerate(spans) if span[0] == parent_name}
    out: dict[str, float] = defaultdict(float)
    for name, start, end, parent in spans:
        if parent in parents:
            out[name.split(".")[0]] += end - start
    return dict(out)
