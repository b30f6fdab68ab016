"""Seeded input generator for the benchmark workloads.

Every workload is written as the files the command line reads: series and
count CSVs, a model spec and a JSON config.  The same seed gives the same
bytes.  The generator uses numpy only and no code of the package under test,
so it keeps working while the package's internals change.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from datetime import date, timedelta
from pathlib import Path

import numpy as np

PLANTED_WEIGHT = 0.4
REPLICATIONS = 1000


@dataclass(frozen=True)
class Inputs:
    """What one generated workload hands to the runner and the checker."""

    argv_head: list[str]  # command and --config; the runner adds --out
    expect: dict[str, object] = field(default_factory=dict)
    count_rows: int = 0  # data rows in the daily-count CSVs the command reads


def _write_json(path: Path, payload: object) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _quarter_labels(start_year: int, n: int) -> list[str]:
    return [f"{start_year + i // 4:04d}Q{i % 4 + 1}" for i in range(n)]


def _write_series(path: Path, labels: list[str], values: np.ndarray) -> None:
    lines = ["period,value"] + [f"{lab},{float(v)!r}" for lab, v in zip(labels, values)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Bands workloads: a random stable recursive system, simulated
# ---------------------------------------------------------------------------


def _spectral_radius(blocks: list[np.ndarray]) -> float:
    m = blocks[0].shape[0]
    p = len(blocks)
    companion = np.zeros((m * p, m * p))
    companion[:m, :] = np.hstack(blocks)
    companion[m:, : m * (p - 1)] = np.eye(m * (p - 1))
    return float(np.max(np.abs(np.linalg.eigvals(companion))))


def _simulate_system(
    rng: np.random.Generator, m: int, k: int, lags: int, var1: bool, steps: int, burn: int = 200
) -> np.ndarray:
    """Sample path (steps, m + 1 + k) of a stationary recursive system.

    Columns are the domestic block, the intervention index and the controls.
    The domestic lag polynomial is rescaled to a modest spectral radius and
    the exogenous processes are kept well inside the unit circle, so the
    estimated system is stationary and the bootstrap drops nothing.
    """
    A0 = np.eye(m)
    A0[np.tril_indices(m, -1)] = rng.normal(0.0, 0.3, size=m * (m - 1) // 2)
    Phi = [rng.normal(0.0, 0.5 / np.sqrt(m), size=(m, m)) for _ in range(lags)]
    scale = rng.uniform(0.3, 0.6) / _spectral_radius(Phi)
    Phi = [P * scale ** (i + 1) for i, P in enumerate(Phi)]
    gamma0 = rng.normal(0.0, 0.3, size=m)
    gamma1 = rng.normal(0.0, 0.3, size=m)
    Dw = rng.normal(0.0, 0.3, size=(m, k))
    a_q = rng.normal(0.0, 0.05, size=m)
    sd_q = np.sqrt(rng.uniform(0.5, 1.5, size=m))
    rho_s, a_s, sd_s = rng.uniform(0.3, 0.7), rng.normal(0.0, 0.05), rng.uniform(0.5, 1.5)
    if var1:
        R = rng.normal(0.0, 0.3, size=(k, k))
        R *= rng.uniform(0.2, 0.5) / _spectral_radius([R])
    else:
        R = np.diag(rng.uniform(-0.5, 0.5, size=k))
    c_z = rng.normal(0.0, 0.05, size=k)
    sd_z = rng.uniform(0.5, 1.5, size=k)

    A0inv = np.linalg.inv(A0)
    total = steps + burn
    q = np.zeros((total + lags, m))
    s = np.zeros(total + 1)
    z = np.zeros((total + 1, k))
    for t in range(total):
        s[t + 1] = a_s + rho_s * s[t] + sd_s * rng.normal()
        z[t + 1] = c_z + R @ z[t] + sd_z * rng.normal(size=k)
        shock = a_q + gamma0 * s[t + 1] + gamma1 * s[t] + Dw @ z[t + 1] + sd_q * rng.normal(size=m)
        q[t + lags] = A0inv @ shock + sum(P @ q[t + lags - 1 - i] for i, P in enumerate(Phi))
    panel = np.column_stack([q[lags:], s[1:], z[1:]])
    return panel[burn:]


def _bands(
    out: Path,
    seed: int,
    *,
    spec: dict[str, object],
    quarters: int,
    start_year: int,
    horizon: int,
    method: str,
    controls_var1: bool,
    joint: bool,
) -> Inputs:
    rng = np.random.default_rng(seed)
    ordering = spec["ordering"]
    controls = spec["controls"]
    panel = _simulate_system(rng, len(ordering), len(controls), spec["lags"], controls_var1, quarters)
    labels = _quarter_labels(start_year, quarters)
    names = list(ordering) + [spec["intervention_name"]] + list(controls)
    for j, name in enumerate(names):
        _write_series(out / f"{name}.csv", labels, panel[:, j])
    _write_json(out / "spec.json", spec)
    config = {
        "out_dir": "out",
        "seed": seed,
        "model": {
            "spec": "spec.json",
            "data": {name: f"{name}.csv" for name in names},
            "controls_var1": controls_var1,
            "horizon": horizon,
            "method": method,
            "bootstrap": {
                "replications": REPLICATIONS,
                "quantiles": [0.05, 0.95],
                "seed": seed,
                "joint": joint,
            },
        },
    }
    _write_json(out / "config.json", config)
    return Inputs(
        argv_head=["dynamics", "--config", str(out / "config.json")],
        expect={"method_check": method == "both"},
    )


def paper_bands(out: Path, seed: int) -> Inputs:
    """m=4, k=1, 127 quarters, H=24, per-equation resampling, direct route."""
    spec = {
        "ordering": ["de", "dm", "dp", "dy"],
        "lags": 1,
        "per_equation_extras": {"dp": [["dp", 2]]},
        "intervention": [True, True],
        "intervention_name": "s",
        "controls": ["dyw"],
    }
    return _bands(
        out, seed, spec=spec, quarters=127, start_year=1989, horizon=24,
        method="direct", controls_var1=False, joint=False,
    )


def stress_bands(out: Path, seed: int) -> Inputs:
    """m=6, k=2, 400 quarters, lags 2, H=40, VAR(1) controls, joint rows, both routes."""
    spec = {
        "ordering": [f"q{i}" for i in range(1, 7)],
        "lags": 2,
        "intervention": [True, True],
        "intervention_name": "s",
        "controls": ["g1", "g2"],
    }
    return _bands(
        out, seed, spec=spec, quarters=400, start_year=1920, horizon=40,
        method="both", controls_var1=True, joint=True,
    )


# ---------------------------------------------------------------------------
# Index workload: daily Poisson counts and a growth series with a planted weight
# ---------------------------------------------------------------------------

FIRST_DAY = date(1989, 1, 1)
LAST_DAY = date(2020, 9, 30)
NORMALIZATION_WINDOW = ["1989Q1", "2020Q3"]
OFF_WINDOWS = [["1995Q1", "1999Q4"], ["2012Q1", "2017Q2"]]
OUTLETS = 20


def _persistent_intensity(rng: np.random.Generator, days: int) -> np.ndarray:
    """exp of a daily AR(1) with half-life of about two months."""
    x = np.empty(days)
    shocks = rng.normal(0.0, 0.05, size=days)
    x[0] = shocks[0] / np.sqrt(1.0 - 0.99**2)  # stationary start
    for t in range(1, days):
        x[t] = 0.99 * x[t - 1] + shocks[t]
    return np.exp(x)


def _write_counts(path: Path, day_labels: list[str], counts: np.ndarray) -> None:
    outlets = [f"outlet{o:02d}" for o in range(1, counts.shape[1] + 1)]
    lines = ["date,outlet,count"]
    for label, row in zip(day_labels, counts.tolist()):
        lines.extend(f"{label},{name},{c}" for name, c in zip(outlets, row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _quarter_index(label: str) -> int:
    return int(label[:4]) * 4 + int(label[5]) - 1


def _standardized_quarterly(counts: np.ndarray, month_of_day: np.ndarray, months: np.ndarray) -> np.ndarray:
    """Per-outlet monthly means scaled by their std (ddof 1), averaged, then quarterly means."""
    days_in = np.array([np.count_nonzero(month_of_day == mo) for mo in months])
    means = np.stack([counts[month_of_day == mo].sum(axis=0) for mo in months]) / days_in[:, None]
    monthly = (means / means.std(axis=0, ddof=1)).mean(axis=1)
    return monthly.reshape(-1, 3).mean(axis=1)


def index_build(out: Path, seed: int) -> Inputs:
    """20 outlets x 11.6k days of on and off counts; growth driven by on - 0.4 off."""
    rng = np.random.default_rng(seed)
    n_days = (LAST_DAY - FIRST_DAY).days + 1
    days = [FIRST_DAY + timedelta(d) for d in range(n_days)]
    month_of_day = np.array([(d.year - FIRST_DAY.year) * 12 + d.month - 1 for d in days])
    quarter_of_day = month_of_day // 3
    levels = rng.uniform(2.0, 12.0, size=(2, OUTLETS))
    on = rng.poisson(np.outer(_persistent_intensity(rng, n_days), levels[0]))
    off = rng.poisson(np.outer(_persistent_intensity(rng, n_days), levels[1]))
    labels = [d.isoformat() for d in days]
    _write_counts(out / "on.csv", labels, on)
    _write_counts(out / "off.csv", labels, off)

    # Rebuild the index the way build-index defines it (README), so the
    # growth series can be driven by the exact lagged net index.
    n_quarters = int(quarter_of_day[-1]) + 1
    q_labels = _quarter_labels(FIRST_DAY.year, n_quarters)
    on_q = _standardized_quarterly(on, month_of_day, np.arange(3 * n_quarters))
    off_q = np.zeros(n_quarters)
    base = _quarter_index(q_labels[0])
    for lo, hi in OFF_WINDOWS:
        q_lo, q_hi = _quarter_index(lo) - base, _quarter_index(hi) - base
        months = np.arange(3 * q_lo, 3 * q_hi + 3)
        off_q[q_lo : q_hi + 1] = _standardized_quarterly(off, month_of_day, months)
    net = on_q / on_q.max() - PLANTED_WEIGHT * off_q / off_q.max()

    dy = np.empty(n_quarters)
    dy[0] = 0.0
    noise = rng.normal(0.0, 0.02, size=n_quarters)
    for t in range(1, n_quarters):
        dy[t] = 0.01 + 0.3 * dy[t - 1] - 0.5 * net[t - 1] + noise[t]
    _write_series(out / "dy.csv", q_labels, dy)

    config = {
        "out_dir": "out",
        "index": {
            "on_counts": "on.csv",
            "off_counts": "off.csv",
            "variant": "standardized",
            "target_frequency": "quarterly",
            "normalization_window": NORMALIZATION_WINDOW,
            "off_windows": OFF_WINDOWS,
            "output_growth": "dy.csv",
        },
    }
    _write_json(out / "config.json", config)
    return Inputs(
        argv_head=["build-index", "--config", str(out / "config.json")],
        expect={"weight": PLANTED_WEIGHT, "normalization_window": NORMALIZATION_WINDOW},
        count_rows=int(on.size + off.size),
    )


GENERATORS = {
    "paper_bands": paper_bands,
    "stress_bands": stress_bands,
    "index_build": index_build,
}


def generate(workload: str, seed: int, out: Path) -> Inputs:
    out.mkdir(parents=True, exist_ok=True)
    return GENERATORS[workload](out, seed)
