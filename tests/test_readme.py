"""The README's examples hold against the package: the library example runs
as written, and the model spec file parses to the layout it documents."""

import json
import re
from pathlib import Path

import numpy as np

from helpers import random_stable_system, simulate_panel
from newsvar import svar as sv
from newsvar import timeseries as ts

README = Path(__file__).resolve().parents[1] / "README.md"


def first_block(heading: str, language: str) -> str:
    section = README.read_text(encoding="utf-8").split(heading, 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.DOTALL).group(1)


def test_readme_spec_file_example_parses_to_its_layout():
    # the documented spec file: one base lag, a second own lag of dp only,
    # both intervention terms and the control in every equation
    spec = sv.SvarSpec.from_json(json.loads(first_block("### Model spec file", "json")))
    lag1 = [("de", 1), ("dm", 1), ("dp", 1), ("dy", 1)]
    common = [("s", 0), ("s", 1), ("dyw", 0)]
    assert spec._terms == (
        tuple(lag1 + common),
        tuple([("de", 0)] + lag1 + common),
        tuple([("de", 0), ("dm", 0)] + lag1 + [("dp", 2)] + common),
        tuple([("de", 0), ("dm", 0), ("dp", 0)] + lag1 + common),
    )


def test_readme_library_example_runs(tmp_path, monkeypatch):
    # the series the example reads, simulated from a stable system with its
    # three endogenous variables, the intervention and one control
    rng = np.random.default_rng(7)
    truth = random_stable_system(rng, m=3, k=1, radius=0.5)
    Z = simulate_panel(truth, 127, rng)
    for j, name in enumerate(("de", "dp", "dy", "s", "dyw")):
        series = ts.CalendarSeries(
            ts.Frequency.QUARTERLY, ts.CalendarKind.GREGORIAN, ts.PeriodLabel(1989, 1), Z[:, j]
        )
        ts.write_series_csv(series, tmp_path / f"{name}.csv")
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(first_block("## Library example", "python"), str(README), "exec"), namespace)
    bands = namespace["bands"]
    assert bands.replications + bands.dropped == bands.requested == 1000
    assert namespace["check"] < 1e-10
