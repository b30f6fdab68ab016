"""The README's library example runs as written against the package."""

import re
from pathlib import Path

import numpy as np

from helpers import random_stable_system, simulate_panel
from newsvar import timeseries as ts

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


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
    exec(compile(library_example(), str(README), "exec"), namespace)
    bands = namespace["bands"]
    assert bands.replications + bands.dropped == bands.requested == 1000
    assert namespace["check"] < 1e-10
