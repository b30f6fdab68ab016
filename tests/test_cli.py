import contextlib
import copy
import csv
import importlib.util
import io
import json
import os
import platform
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_stable_system, simulate_panel
from newsvar import bootstrap as boot
from newsvar import cli
from newsvar import intensity as ix
from newsvar import svar as sv
from newsvar import timeseries as ts


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=2), encoding="utf-8")
    return path


def write_series(path, labels, values):
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["period", "value"])
        for label, value in zip(labels, values):
            writer.writerow([label, repr(float(value))])


def quarter_labels(start_year, n, start_q=1):
    labels = []
    for i in range(n):
        q = (start_q - 1 + i) % 4 + 1
        y = start_year + (start_q - 1 + i) // 4
        labels.append(f"{y:04d}Q{q}")
    return labels


def write_counts(path, per_outlet_monthly, year=1989, months=24, days_per_month=10):
    """Synthesize daily counts whose monthly means follow the given profiles."""
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["date", "outlet", "count"])
        for outlet, profile in per_outlet_monthly.items():
            for t in range(months):
                y, m = year + t // 12, 1 + t % 12
                level = profile[t % len(profile)]
                for d in range(1, days_per_month + 1):
                    writer.writerow([date(y, m, d).isoformat(), outlet, level])


def write_index_inputs(tmp_path):
    on_profile = {"alpha": [1, 2, 5, 3, 2, 7, 1], "beta": [0, 1, 4, 2, 2, 3, 5]}
    off_profile = {"alpha": [1, 0, 0, 2, 1, 0, 3], "beta": [0, 1, 1, 0, 2, 1, 0]}
    write_counts(tmp_path / "on.csv", on_profile, months=48)
    write_counts(tmp_path / "off.csv", off_profile, months=48)
    labels = quarter_labels(1989, 16)
    rng = np.random.default_rng(0)
    write_series(tmp_path / "dy.csv", labels, rng.normal(0, 0.02, len(labels)))
    return tmp_path


@pytest.fixture()
def index_workspace(tmp_path):
    return write_index_inputs(tmp_path)


def model_workspace(tmp_path, T=240, seed=3):
    rng = np.random.default_rng(seed)
    truth = random_stable_system(rng, m=3, k=1, radius=0.5)
    Z = simulate_panel(truth, T, rng)
    names = list(truth.variables) + ["s"] + list(truth.controls)
    labels = quarter_labels(1989, T)
    data_map = {}
    for j, name in enumerate(names):
        write_series(tmp_path / f"{name}.csv", labels, Z[:, j])
        data_map[name] = f"{name}.csv"
    spec_payload = {
        "ordering": list(truth.variables),
        "lags": 2,
        "intervention": [True, True],
        "controls": list(truth.controls),
    }
    (tmp_path / "spec.json").write_text(json.dumps(spec_payload), encoding="utf-8")
    return truth, data_map


# ---------------------------------------------------------------------------
# build-index
# ---------------------------------------------------------------------------


def test_build_index_with_fixed_weight(index_workspace):
    config = write_config(
        index_workspace,
        {
            "out_dir": "out",
            "index": {
                "on_counts": "on.csv",
                "off_counts": "off.csv",
                "weight": 0.4,
            },
        },
    )
    assert cli.main(["build-index", "--config", str(config)]) == 0
    out = index_workspace / "out"
    diag = json.loads((out / "index_diagnostics.json").read_text(encoding="utf-8"))
    assert diag["weight"] == {"value": 0.4, "source": "fixed"}
    net_rows = (out / "index_net.csv").read_text(encoding="utf-8").splitlines()
    assert net_rows[0] == "period,value,kind"
    assert all(row.endswith(",net") for row in net_rows[1:])
    on_rows = (out / "index_on.csv").read_text(encoding="utf-8").splitlines()[1:]
    on_values = np.array([float(r.split(",")[1]) for r in on_rows])
    assert on_values.max() == pytest.approx(1.0)
    # net = on - w * off, checked by hand on the exported files
    off_values = np.array(
        [
            float(r.split(",")[1])
            for r in (out / "index_off.csv").read_text(encoding="utf-8").splitlines()[1:]
        ]
    )
    net_values = np.array([float(r.split(",")[1]) for r in net_rows[1:]])
    assert np.allclose(net_values, on_values - 0.4 * off_values, atol=1e-12)


def test_build_index_grid_search_diagnostics(index_workspace):
    config = write_config(
        index_workspace,
        {
            "out_dir": "out",
            "index": {
                "on_counts": "on.csv",
                "off_counts": "off.csv",
                "output_growth": "dy.csv",
            },
        },
    )
    assert cli.main(["build-index", "--config", str(config)]) == 0
    diag = json.loads(
        (index_workspace / "out" / "index_diagnostics.json").read_text(encoding="utf-8")
    )
    assert diag["weight"]["source"] == "grid_search"
    assert len(diag["weight"]["profile"]) == 9
    assert diag["weight"]["value"] in [round(0.1 * k, 1) for k in range(1, 10)]


def test_build_index_with_disjoint_off_windows(index_workspace, tmp_path):
    # lifting coverage searched over two separate windows only; months in
    # between carry no rows at all and must come out as zeros
    off_path = index_workspace / "off_windows.csv"
    with off_path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["date", "outlet", "count"])
        for t in list(range(0, 12)) + list(range(30, 42)):
            y, m = 1989 + t // 12, 1 + t % 12
            for d in (1, 2, 3):
                writer.writerow([date(y, m, d).isoformat(), "alpha", (t % 3) + 1])
    config = write_config(
        index_workspace,
        {
            "out_dir": "out_win",
            "index": {
                "on_counts": "on.csv",
                "off_counts": "off_windows.csv",
                "off_windows": [["1989Q1", "1989Q4"], ["1991Q3", "1992Q2"]],
                "weight": 0.4,
            },
        },
        name="config_win.json",
    )
    assert cli.main(["build-index", "--config", str(config)]) == 0
    rows = (
        (index_workspace / "out_win" / "index_off.csv")
        .read_text(encoding="utf-8")
        .splitlines()[1:]
    )
    values = {r.split(",")[0]: float(r.split(",")[1]) for r in rows}
    assert len(values) == 16  # full on-index span
    assert max(values.values()) == pytest.approx(1.0)
    assert values["1990Q2"] == 0.0  # between the windows
    assert values["1992Q4"] == 0.0  # after the second window
    assert values["1989Q2"] > 0.0


def test_build_index_missing_input_is_usage_error(index_workspace, capsys):
    config = write_config(
        index_workspace,
        {"index": {"on_counts": "nope.csv"}},
    )
    assert cli.main(["build-index", "--config", str(config)]) == 1
    assert "on_counts" in capsys.readouterr().err


def test_build_index_bad_frequency_is_usage_error(index_workspace, capsys):
    config = write_config(
        index_workspace,
        {"index": {"on_counts": "on.csv", "target_frequency": "weekly"}},
        name="bad_freq.json",
    )
    assert cli.main(["build-index", "--config", str(config)]) == 1
    assert "target_frequency" in capsys.readouterr().err


def assert_one_line_error(capsys, *fragments):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    for fragment in fragments:
        assert fragment in err


@pytest.mark.parametrize(
    "settings, key",
    [
        ({"weight": 1.5}, "weight"),
        ({"weight": -0.1}, "weight"),
        ({"grid_step": 0.6}, "grid_step"),
        ({"grid_step": 0.0}, "grid_step"),
    ],
)
def test_build_index_out_of_range_setting_is_usage_error(index_workspace, capsys, settings, key):
    section = {"on_counts": "on.csv", "off_counts": "off.csv", "output_growth": "dy.csv"}
    config = write_config(index_workspace, {"index": {**section, **settings}}, name="range.json")
    assert cli.main(["build-index", "--config", str(config)]) == 1
    assert_one_line_error(capsys, key)
    assert not (index_workspace / "out").exists()


@pytest.mark.parametrize(
    "settings, key",
    [
        ({"variant": "bogus"}, "variant"),
        ({"target_frequency": "weekly"}, "target_frequency"),
        ({"normalization_window": ["1989Q1", "later"]}, "normalization_window"),
        ({"off_windows": []}, "off_windows"),
        ({"off_windows": [["1989Q1"]]}, "off window must be a [start, end] pair"),
        ({"off_windows": [[None, "1989Q4"]]}, "off windows must be [start, end] pairs"),
        # window labels must have the target frequency: "1990-03" is not 1990Q3
        ({"off_windows": [["1990-03", "1990-03"]]}, "expected quarterly"),
        ({"off_windows": [["1989Q1", "1989Q4"], ["1991Q3", "1992"]]}, "expected quarterly"),
        ({"normalization_window": ["1989-01", "1990Q4"]}, "expected quarterly"),
        ({"target_frequency": "monthly", "off_windows": [["1990Q1", "1990Q2"]]}, "expected monthly"),
        ({"target_frequency": "annual", "normalization_window": [None, "1990Q4"]}, "expected annual"),
        # numbers are JSON numbers: a boolean or a numeric string is refused
        ({"weight": True}, "'weight' must be a number, got True"),
        ({"weight": "0.4"}, "'weight' must be a number, got '0.4'"),
        ({"grid_step": "0.2"}, "'grid_step' must be a number"),
        ({"grid_step": False}, "'grid_step' must be a number"),
    ],
)
def test_bad_index_setting_exits_1_before_any_output(index_workspace, capsys, settings, key):
    section = {"on_counts": "on.csv", "off_counts": "off.csv", "output_growth": "dy.csv"}
    config = write_config(index_workspace, {"index": {**section, **settings}}, name="bad.json")
    for command in ("build-index", "validate"):
        assert cli.main([command, "--config", str(config)]) == 1, command
        assert_one_line_error(capsys, key)
    assert not (index_workspace / "out").exists()


def test_masked_window_keeps_zero_count_days_and_both_edge_months():
    days = [(1994, 12, 31), (1995, 1, 1), (1995, 1, 2), (1995, 3, 31), (1995, 4, 1)]
    panel = ix.ArticleCountPanel(
        outlets=("a",),
        day=[date(*d).toordinal() for d in days],
        outlet=[0] * 5,
        count=[9, 4, 0, 6, 9],
    )
    masked = cli._mask_panel_months(panel, ts.PeriodLabel(1995, 1), ts.PeriodLabel(1995, 1), ts.Frequency.QUARTERLY)
    assert masked.month.tolist() == [1995 * 12, 1995 * 12, 1995 * 12 + 2]
    assert masked.count.tolist() == [4, 0, 6]
    # 1995-01-02 holds only a zero count but is still a publishing day
    first, days = masked.publishing_days()
    assert (first, days.tolist()) == (1995 * 12, [2, 0, 1])
    single = cli._mask_panel_months(panel, ts.PeriodLabel(1995, 1), ts.PeriodLabel(1995, 1), ts.Frequency.MONTHLY)
    assert ix.monthly_mean_count(single).values.tolist() == [2.0]


def test_build_index_malformed_row_is_data_error(index_workspace, capsys):
    bad = index_workspace / "bad.csv"
    bad.write_text("date,outlet,count\n2000-01-01,a,3\n2000-01-02,a,-1\n", encoding="utf-8")
    config = write_config(index_workspace, {"index": {"on_counts": "bad.csv"}})
    assert cli.main(["build-index", "--config", str(config)]) == 2
    assert ":3" in capsys.readouterr().err


def test_build_index_undecodable_counts_file_is_data_error(index_workspace, capsys):
    (index_workspace / "bad.csv").write_bytes(b"date,outlet,count\n2000-01-01,caf\xff,3\n")
    config = write_config(index_workspace, {"index": {"on_counts": "bad.csv"}})
    assert cli.main(["build-index", "--config", str(config)]) == 2
    assert_one_line_error(capsys, "bad.csv", "not UTF-8")


def test_build_index_month_without_coverage_is_one_line(index_workspace):
    # in a fresh interpreter, where a warning would reach stderr: the GapError
    # is the one line, with no warning naming the same month before it
    counts = index_workspace / "on.csv"
    rows = counts.read_text(encoding="utf-8").splitlines(keepends=True)
    counts.write_text("".join(row for row in rows if not row.startswith("1989-03-")), encoding="utf-8")
    config = write_config(index_workspace, {"out_dir": "out", "index": {"on_counts": "on.csv"}})
    run = run_python(
        "import sys; from newsvar import cli; sys.exit(cli.main(sys.argv[1:]))",
        "build-index", "--config", config, check=False,
    )
    assert run.returncode == 2
    assert run.stderr == "error: excluded months leave an interior gap: 1989-03\n"
    assert not (index_workspace / "out").exists()


def explosive_workspace(tmp_path, T):
    """A model section with one domestic variable and an explosive
    intervention process over ``T`` quarters."""
    labels = quarter_labels(1989, T)
    rng = np.random.default_rng(5)
    dy = rng.normal(0, 0.02, T)
    s = np.zeros(T)
    for t in range(1, T):
        s[t] = 1.03 * s[t - 1] + rng.normal(0, 0.1)
    write_series(tmp_path / "dy.csv", labels, dy)
    write_series(tmp_path / "s.csv", labels, s)
    (tmp_path / "spec.json").write_text(
        json.dumps({"ordering": ["dy"], "lags": 1, "intervention": [True, True]}),
        encoding="utf-8",
    )
    return {"spec": "spec.json", "data": {"dy": "dy.csv", "s": "s.csv"}}


@pytest.mark.parametrize(
    "command, settings, code, fragment",
    [
        ("build-index", {"off_windows": [["1995Q1", "1995Q4"]], "weight": 0.4}, 1, "off window ['1995Q1', '1995Q4'] contains no count data"),
        ("build-index", {"off_windows": [["1993Q1", "1993Q4"]], "weight": 0.4}, 1, "off window ['1993Q1', '1993Q4'] falls outside the index span"),
        ("build-index", {"off_windows": [["1989Q1", "1989Q4"], ["1989Q3", "1990Q2"]], "weight": 0.4}, 1, "off windows overlap"),
        ("build-index", {"weight": 0.4}, 1, "off_long.csv falls outside the index span"),
        ("build-index", {"off_counts": "off.csv", "output_growth": "dy_short.csv"}, 2, "needs >= 10 quarters"),
        # nine quarters estimate the equation; its lag-4 serial-correlation test needs one more
        ("estimate", {}, 2, "equation 'dy': serial-correlation test with 4 lags needs at least 9 observations, got 8"),
        ("dynamics", {"horizon": 4, "method": "both"}, 2, "variance decomposition refused"),
        # eight quarters give seven rows on three regressors, one short of the test's eight
        ("reduced-form", {}, 2, "error: serial-correlation test with 4 lags needs at least 8 observations, got 7"),
    ],
    ids=[
        "window_without_counts", "window_outside_span", "overlapping_windows", "panel_outside_span",
        "short_grid_search", "estimate_short_for_bg", "dynamics_nonstationary", "reduced_form_short_for_bg",
    ],
)
def test_build_index_late_failure_writes_nothing(tmp_path, capsys, command, settings, code, fragment):
    # a command writes nothing until all of its work is done
    if command == "build-index":
        write_index_inputs(tmp_path)
        # the off counts run a year past the on index's 1989-1992 span
        write_counts(tmp_path / "off_long.csv", {"alpha": [1, 0, 2], "beta": [0, 1, 1]}, months=60)
        write_series(tmp_path / "dy_short.csv", quarter_labels(1990, 8), np.linspace(-0.01, 0.01, 8))
        payload = {"index": {"on_counts": "on.csv", "off_counts": "off_long.csv", **settings}}
    elif command == "reduced-form":
        payload = reduced_form_workspace(tmp_path, T=8)
    else:
        payload = {"model": {**explosive_workspace(tmp_path, 9 if command == "estimate" else 200), **settings}}
    config = write_config(tmp_path, {"out_dir": "out", **payload})
    assert cli.main([command, "--config", str(config)]) == code
    assert_one_line_error(capsys, fragment)
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# convert-calendar
# ---------------------------------------------------------------------------


def test_convert_calendar_roundtrip(tmp_path):
    write_series(tmp_path / "iranian.csv", ["1368", "1369", "1370"], [365.0, 730.0, 365.0])
    config = write_config(tmp_path, {"calendar": {"input": "iranian.csv"}})
    assert cli.main(["convert-calendar", "--config", str(config)]) == 0
    out = ts.read_series_csv(tmp_path / "out" / "converted.csv")
    assert out.start == ts.PeriodLabel(1369)
    assert np.allclose(out.values, [(80 * 365 + 285 * 730) / 365, (80 * 730 + 285 * 365) / 365])


# ---------------------------------------------------------------------------
# estimate / dynamics
# ---------------------------------------------------------------------------


def test_estimate_writes_tables_and_json(tmp_path):
    truth, data_map = model_workspace(tmp_path)
    config = write_config(
        tmp_path,
        {"out_dir": "out", "model": {"spec": "spec.json", "data": data_map}},
    )
    assert cli.main(["estimate", "--config", str(config)]) == 0
    payload = json.loads((tmp_path / "out" / "estimate.json").read_text(encoding="utf-8"))
    assert payload["variables"] == list(truth.variables)
    for name in truth.variables:
        table = (tmp_path / "out" / f"eq_{name}.csv").read_text(encoding="utf-8")
        assert table.startswith("name,coefficient,se,stars")
        assert "bg_lm_stat_lag4" in table
        assert "adjusted_r2" in table
        # table coefficients match the JSON matrices
        rows = {r.split(",")[0]: r.split(",")[1] for r in table.splitlines()[1:]}
        i = truth.variables.index(name)
        assert float(rows["const"]) == pytest.approx(payload["intercepts"][i], abs=1e-6)


def test_estimate_unknown_control_is_data_error(tmp_path, capsys):
    _, data_map = model_workspace(tmp_path)
    spec = json.loads((tmp_path / "spec.json").read_text(encoding="utf-8"))
    spec["controls"] = ["mystery"]
    (tmp_path / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    config = write_config(
        tmp_path, {"model": {"spec": "spec.json", "data": data_map}}
    )
    assert cli.main(["estimate", "--config", str(config)]) == 2
    assert "mystery" in capsys.readouterr().err


def test_estimate_rank_deficient_equation_is_data_error(tmp_path, capsys):
    # v1 is v0 lagged by one, so v0's design holds v0.L2 and v1.L1, the same column
    _, data_map = model_workspace(tmp_path)
    v0 = ts.read_series_csv(tmp_path / data_map["v0"]).values
    write_series(tmp_path / data_map["v1"], quarter_labels(1989, v0.size), np.r_[0.0, v0[:-1]])
    config = write_config(tmp_path, {"out_dir": "out", "model": {"spec": "spec.json", "data": data_map}})
    assert cli.main(["estimate", "--config", str(config)]) == 2
    assert capsys.readouterr().err == "error: design matrix is rank deficient; dependent columns: v1.L1\n"
    assert not (tmp_path / "out").exists()


def test_estimate_undecodable_series_file_is_data_error(tmp_path, capsys):
    truth, data_map = model_workspace(tmp_path)
    path = tmp_path / data_map[truth.variables[0]]
    path.write_bytes(path.read_bytes().replace(b"\n1989Q2,", b"\n1989Q2\xff,", 1))
    config = write_config(tmp_path, {"out_dir": "out", "model": {"spec": "spec.json", "data": data_map}})
    assert cli.main(["estimate", "--config", str(config)]) == 2
    assert_one_line_error(capsys, path.name, "not UTF-8")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("target", ["config", "spec"])
def test_undecodable_json_file_is_usage_error(tmp_path, capsys, target):
    _, data_map = model_workspace(tmp_path)
    config = write_config(tmp_path, {"out_dir": "out", "model": {"spec": "spec.json", "data": data_map}})
    path = config if target == "config" else tmp_path / "spec.json"
    path.write_bytes(b"\xff" + path.read_bytes())
    assert cli.main(["estimate", "--config", str(config)]) == 1
    assert_one_line_error(capsys, path.name, "invalid JSON")
    assert not (tmp_path / "out").exists()


def test_estimate_is_byte_stable(tmp_path):
    _, data_map = model_workspace(tmp_path)
    config = write_config(
        tmp_path, {"out_dir": "out", "model": {"spec": "spec.json", "data": data_map}}
    )
    assert cli.main(["estimate", "--config", str(config)]) == 0
    first = {
        p.name: p.read_bytes() for p in (tmp_path / "out").iterdir() if p.is_file()
    }
    assert cli.main(["estimate", "--config", str(config)]) == 0
    second = {
        p.name: p.read_bytes() for p in (tmp_path / "out").iterdir() if p.is_file()
    }
    assert first == second


def test_dynamics_outputs_and_method_check(tmp_path):
    _, data_map = model_workspace(tmp_path)
    config = write_config(
        tmp_path,
        {
            "out_dir": "out",
            "model": {
                "spec": "spec.json",
                "data": data_map,
                "horizon": 8,
                "method": "both",
            },
        },
    )
    assert cli.main(["dynamics", "--config", str(config)]) == 0
    out = tmp_path / "out"
    check = json.loads((out / "method_check.json").read_text(encoding="utf-8"))
    assert check["max_abs_deviation"] < 1e-10
    fevd_rows = (out / "fevd.csv").read_text(encoding="utf-8").splitlines()[1:]
    by_cell = {}
    for row in fevd_rows:
        var, shock, h, value = row.split(",")
        by_cell.setdefault((var, h), 0.0)
        by_cell[(var, h)] += float(value)
    assert all(abs(total - 1.0) < 1e-10 for total in by_cell.values())
    assert json.loads((out / "plot_irf.json").read_text(encoding="utf-8"))["horizons"][:3] == [0, 1, 2]


def test_dynamics_bootstrap_bands_deterministic(tmp_path):
    _, data_map = model_workspace(tmp_path, T=160)
    payload = {
        "out_dir": "out",
        "model": {
            "spec": "spec.json",
            "data": data_map,
            "horizon": 4,
            "bootstrap": {"replications": 25, "seed": 7},
        },
    }
    config = write_config(tmp_path, payload)
    assert cli.main(["dynamics", "--config", str(config)]) == 0
    irf_a = (tmp_path / "out" / "irf.csv").read_bytes()
    meta = json.loads((tmp_path / "out" / "bootstrap_meta.json").read_text(encoding="utf-8"))
    assert meta["replications"] == 25 and meta["seed"] == 7
    assert cli.main(["dynamics", "--config", str(config)]) == 0
    assert (tmp_path / "out" / "irf.csv").read_bytes() == irf_a
    header = irf_a.decode("utf-8").splitlines()[0]
    assert header == "variable,shock,horizon,value,lower,upper"


@pytest.mark.parametrize("method", ["direct", "stacked", "both"])
def test_dynamics_nonstationary_fevd_is_data_error(tmp_path, capsys, method):
    # an explosive intervention process makes variance shares meaningless;
    # every route refuses with the eigenvalue report, before the cross-check
    model = explosive_workspace(tmp_path, 200)
    config = write_config(tmp_path, {"model": {**model, "horizon": 4, "method": method}})
    code = cli.main(["dynamics", "--config", str(config)])
    err = capsys.readouterr().err
    assert code == 2
    assert "eigenvalue" in err
    assert not (tmp_path / "out" / "method_check.json").exists()


def bootstrap_config(tmp_path, **bootstrap):
    _, data_map = model_workspace(tmp_path, T=120)
    payload = {
        "out_dir": "out",
        "model": {
            "spec": "spec.json",
            "data": data_map,
            "horizon": 4,
            "bootstrap": {"replications": 20, "seed": 1, **bootstrap},
        },
    }
    return write_config(tmp_path, payload)


@pytest.mark.parametrize(
    "settings, key",
    [
        ({"quantiles": [0.9, 0.1]}, "quantiles"),
        ({"quantiles": [0.05]}, "quantiles"),
        ({"quantiles": [-0.1, 0.5]}, "quantiles"),
        ({"replications": 0}, "replications"),
        ({"quantiles": [True, 0.9]}, "'quantiles' must be a number, got True"),
        ({"quantiles": [0.05, "0.95"]}, "'quantiles' must be a number, got '0.95'"),
    ],
)
def test_dynamics_bad_bootstrap_setting_is_usage_error(tmp_path, capsys, settings, key):
    config = bootstrap_config(tmp_path, **settings)
    assert cli.main(["dynamics", "--config", str(config)]) == 1
    assert_one_line_error(capsys, key)


def test_dynamics_negative_horizon_is_usage_error(tmp_path, capsys):
    config = bootstrap_config(tmp_path)
    payload = json.loads(config.read_text(encoding="utf-8"))
    payload["model"]["horizon"] = -1
    config.write_text(json.dumps(payload), encoding="utf-8")
    assert cli.main(["dynamics", "--config", str(config)]) == 1
    assert_one_line_error(capsys, "horizon")


def test_dynamics_bootstrap_abort_is_data_error(tmp_path, capsys, monkeypatch):
    def failing(spec, sims, controls_var1=False):
        stack = sv.estimate_svar_stack(spec, sims, controls_var1=controls_var1)
        return replace(stack, ok=np.zeros_like(stack.ok))

    monkeypatch.setattr(boot, "estimate_svar_stack", failing)
    config = bootstrap_config(tmp_path)
    assert cli.main(["dynamics", "--config", str(config)]) == 2
    assert_one_line_error(capsys, "bootstrap aborted: 2 of 20")


@pytest.mark.parametrize(
    "top, model, key",
    [
        ({}, {"bootstrap": {"seed": -1}}, "'bootstrap.seed'"),
        # the bootstrap section's seed falls back to the top-level one
        ({"seed": -2}, {"bootstrap": {"replications": 20}}, "'seed'"),
        ({"seed": 2.5}, {}, "'seed'"),
        ({}, {"bootstrap": {"replications": 20, "joint": "no"}}, "joint"),
        ({}, {"bootstrap": {"replications": 2.5}}, "replications"),
        ({}, {"controls_var1": "false"}, "controls_var1"),
        ({}, {"bootstrap": [1]}, "bootstrap"),
        ({}, {"horizon": 2.7}, "horizon"),
        ({}, {"horizon": "abc"}, "horizon"),
        ({}, {"method": "bogus"}, "method"),
    ],
)
def test_bad_dynamics_setting_exits_1_before_any_output(tmp_path, capsys, top, model, key):
    _, data_map = model_workspace(tmp_path, T=120)
    section = {"spec": "spec.json", "data": data_map, "horizon": 4, **model}
    config = write_config(tmp_path, {"out_dir": "out", **top, "model": section})
    for command in ("dynamics", "validate"):
        assert cli.main([command, "--config", str(config)]) == 1, command
        assert_one_line_error(capsys, key)
    assert not (tmp_path / "out").exists()


def test_negative_seed_flag_is_named_in_the_error(tmp_path, capsys):
    _, data_map = model_workspace(tmp_path, T=120)
    section = {"spec": "spec.json", "data": data_map, "horizon": 4, "bootstrap": {"replications": 20}}
    config = write_config(tmp_path, {"out_dir": "out", "model": section})
    for command in ("dynamics", "validate"):
        assert cli.main([command, "--config", str(config), "--seed", "-1"]) == 1, command
        err = capsys.readouterr().err
        assert err == "error: --seed must be non-negative, got -1\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "field, value",
    [
        ("lags", "x"),
        ("intervention", [True]),
        ("per_equation_extras", {"v0": [["v0", "x"]]}),
        # a string is not a list of names; it must not become controls g, 0
        ("controls", "g0"),
    ],
)
def test_malformed_spec_field_is_model_error(tmp_path, capsys, field, value):
    _, data_map = model_workspace(tmp_path, T=60)
    spec = json.loads((tmp_path / "spec.json").read_text(encoding="utf-8"))
    spec[field] = value
    (tmp_path / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    config = write_config(tmp_path, {"out_dir": "out", "model": {"spec": "spec.json", "data": data_map}})
    for command in ("estimate", "validate"):
        assert cli.main([command, "--config", str(config)]) == 2, command
        assert_one_line_error(capsys, f"spec field '{field}")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "field, value, fragment",
    [
        # equation names in another case used to drop the intervention from
        # every equation without a word, so every s-shock response read 0
        (
            "intervention",
            {"V0": [True, True], "V1": [True, True], "V2": [True, True]},
            "spec field 'intervention' names equations not in the ordering: ['V0', 'V1', 'V2']",
        ),
        ("lags", {"v0": 2, "v1": 2, "v2": 2, "v3": 1}, "spec field 'lags' names equations not in the ordering: ['v3']"),
        # these used to become the intervention names "None" and "5"
        ("intervention_name", None, "spec field 'intervention_name' must be a non-empty string, got None"),
        ("intervention_name", 5, "spec field 'intervention_name' must be a non-empty string, got 5"),
        ("intervention_name", "", "spec field 'intervention_name' must be a non-empty string, got ''"),
    ],
    ids=["upper-cased-intervention", "unknown-lags-key", "null-name", "number-name", "empty-name"],
)
def test_spec_field_naming_nothing_in_the_system_is_model_error(tmp_path, capsys, field, value, fragment):
    _, data_map = model_workspace(tmp_path, T=60)
    spec = json.loads((tmp_path / "spec.json").read_text(encoding="utf-8"))
    spec[field] = value
    (tmp_path / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    section = {"spec": "spec.json", "data": data_map, "horizon": 4}
    config = write_config(tmp_path, {"out_dir": "out", "model": section})
    for command in ("validate", "estimate", "dynamics"):
        assert cli.main([command, "--config", str(config)]) == 2, command
        assert_one_line_error(capsys, fragment)
    assert not (tmp_path / "out").exists()


_LOAD_PROBE = """
import json, sys
root = sys.argv[1]
loaded = lambda: sorted(m for m in sys.modules if m == root or m.startswith(root + "."))
from newsvar import cli
report = {"import": loaded()}
for command, config in zip(sys.argv[2::2], sys.argv[3::2]):
    report[command] = [cli.main([command, "--config", config]), loaded()]
print(json.dumps(report))
"""


def run_python(code, *argv, check=True):
    """``python -c code argv...`` in a fresh interpreter that imports this package."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, "-c", code, *map(str, argv)],
        env=env, capture_output=True, text=True, timeout=120, check=check,
    )


def modules_loaded(root, commands):
    """The modules under ``root`` loaded after import and after each (command, config), in one interpreter."""
    run = run_python(_LOAD_PROBE, root, *[a for pair in commands for a in pair])
    return json.loads(run.stdout), run.stderr


@pytest.fixture(scope="module")
def bands_config(tmp_path_factory):
    model_dir = tmp_path_factory.mktemp("model")
    _, data_map = model_workspace(model_dir, T=120)
    return write_config(
        model_dir,
        {
            "model": {
                "spec": "spec.json",
                "data": data_map,
                "horizon": 4,
                "method": "both",
                "bootstrap": {"replications": 10, "seed": 1},
            }
        },
    )


def test_dynamics_and_build_index_never_load_scipy(index_workspace, bands_config):
    # structural guard on start-up cost: scipy belongs to estimate,
    # reduced-form and the collinearity report only
    index_config = write_config(
        index_workspace,
        {"index": {"on_counts": "on.csv", "off_counts": "off.csv", "output_growth": "dy.csv"}},
    )
    report, stderr = modules_loaded("scipy", [("build-index", index_config), ("dynamics", bands_config)])
    assert report == {"import": [], "build-index": [0, []], "dynamics": [0, []]}, stderr


def test_dynamics_never_loads_numpy_ma(bands_config):
    # the band quantiles must not go through np.quantile, whose np.unique
    # imports numpy.ma on every bootstrap run
    report, stderr = modules_loaded("numpy.ma", [("dynamics", bands_config)])
    assert report == {"import": [], "dynamics": [0, []]}, stderr


def test_import_and_commands_never_load_factors(index_workspace, bands_config):
    # the package imports a submodule on first use, and no command reads
    # factor proxies
    index_config = write_config(
        index_workspace,
        {"index": {"on_counts": "on.csv", "off_counts": "off.csv", "output_growth": "dy.csv"}},
    )
    report, stderr = modules_loaded(
        "newsvar.factors", [("build-index", index_config), ("dynamics", bands_config)]
    )
    assert report == {"import": [], "build-index": [0, []], "dynamics": [0, []]}, stderr


_MEMORY_PROBE = """
import os, resource, sys
os.environ["OPENBLAS_NUM_THREADS"] = "1"
from newsvar import cli
with open("/proc/self/statm") as f:
    mapped = int(f.read().split()[0]) * os.sysconf("SC_PAGE_SIZE")
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
resource.setrlimit(resource.RLIMIT_AS, (mapped + (64 << 20), hard))
print(cli.main(sys.argv[1:]))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/statm")
def test_memory_error_exits_1_with_one_line(tmp_path):
    # a horizon under the physical-memory check whose (H+1, n, n) responses,
    # 512 MiB, do not fit in the 64 MiB of address space the probe leaves itself
    _, data_map = model_workspace(tmp_path, T=60)
    n = len(data_map)
    config = write_config(
        tmp_path,
        {"model": {"spec": "spec.json", "data": data_map, "horizon": (512 << 20) // (8 * n * n), "method": "stacked"}},
    )
    run = run_python(_MEMORY_PROBE, "dynamics", "--config", config)
    assert run.stdout.strip() == "1"
    lines = run.stderr.splitlines()
    assert len(lines) == 1, run.stderr
    assert lines[0].startswith("error: ") and "Traceback" not in run.stderr
    assert "'horizon'" in lines[0] and "'replications'" in lines[0]
    assert not (tmp_path / "out").exists()


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/statm")
def test_bootstrap_responses_fit_where_one_block_of_them_would_not(tmp_path):
    # one replication's (H+1, n, n) moving-average array fills a block's byte
    # budget, so one block of all 80 replications would hold 80 MiB of them,
    # more than the 64 MiB of address space the probe leaves itself; the
    # block's responses are computed in sub-slices under the budget instead
    rng = np.random.default_rng(5)
    T = 60
    names = ["y", "s"] + [f"g{j}" for j in range(6)]
    for name in names:
        write_series(tmp_path / f"{name}.csv", quarter_labels(1989, T), rng.normal(size=T))
    spec = {"ordering": ["y"], "lags": 1, "intervention": [True, True], "controls": names[2:]}
    (tmp_path / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    n = len(names)
    config = write_config(tmp_path, {"model": {
        "spec": "spec.json",
        "data": {name: f"{name}.csv" for name in names},
        "horizon": boot.BLOCK_PANEL_BYTES // (8 * n * n) - 1,
        "method": "stacked",
        "bootstrap": {"replications": 80, "seed": 1},
    }})
    run = run_python(_MEMORY_PROBE, "dynamics", "--config", config)
    assert run.stdout.strip() == "0", run.stderr
    meta = json.loads((tmp_path / "out" / "bootstrap_meta.json").read_text(encoding="utf-8"))
    assert meta["replications"] + meta["dropped"] == 80


_FAULT_PROBE = """
import resource, sys
from newsvar import cli
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
rc = cli.main(sys.argv[1:])
print(rc, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="counts glibc malloc's page faults")
@pytest.mark.parametrize("workload", ["paper_bands", "stress_bands"])
def test_bands_dynamics_keeps_the_estimator_workspace_mapped(tmp_path, monkeypatch, workload):
    # glibc returns freed blocks above its mmap threshold to the system; if the
    # bootstrap's per-block workspace is among them it is faulted back in every
    # block, 13k minor faults per paper_bands run and 18k per stress_bands run
    # instead of about 2k
    spec = importlib.util.spec_from_file_location(
        "bench_gen", Path(__file__).resolve().parents[1] / "bench" / "gen.py"
    )
    gen = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, gen)  # its dataclasses look themselves up there
    spec.loader.exec_module(gen)
    inputs = gen.generate(workload, 11, tmp_path / "inputs")
    run = run_python(_FAULT_PROBE, *inputs.argv_head, "--out", tmp_path / "out")
    rc, faults = map(int, run.stdout.split())
    assert rc == 0, run.stderr
    assert faults < 5000


# ---------------------------------------------------------------------------
# reduced-form
# ---------------------------------------------------------------------------


def reduced_form_workspace(tmp_path, beta=-0.037, lam=-0.186, T=400, seed=11):
    rng = np.random.default_rng(seed)
    labels = quarter_labels(1989, T)
    s = np.zeros(T)
    dy = np.zeros(T)
    for t in range(1, T):
        s[t] = 0.05 + 0.7 * s[t - 1] + rng.normal(0, 0.08)
        dy[t] = 0.01 + lam * dy[t - 1] + beta * s[t - 1] + rng.normal(0, 0.0001)
    write_series(tmp_path / "dy.csv", labels, dy)
    write_series(tmp_path / "s.csv", labels, s)
    return {
        "reduced_form": {
            "growth": "dy.csv",
            "intervention": "s.csv",
            "intervention_lags": [1],
        }
    }


def test_reduced_form_reports_long_run_effect(tmp_path):
    payload = reduced_form_workspace(tmp_path)
    config = write_config(tmp_path, payload)
    assert cli.main(["reduced-form", "--config", str(config)]) == 0
    result = json.loads(
        (tmp_path / "out" / "reduced_form.json").read_text(encoding="utf-8")
    )
    # near-noiseless fixture pins the ratio at the planted value
    assert result["long_run_effect"]["theta"] == pytest.approx(-0.037 / 1.186, abs=1e-3)
    table = (tmp_path / "out" / "reduced_form.csv").read_text(encoding="utf-8")
    assert "long_run_effect," in table
    assert f"{result['long_run_effect']['theta']:.3f}".startswith("-0.031")


def test_reduced_form_fractional_lag_is_usage_error(tmp_path, capsys):
    payload = reduced_form_workspace(tmp_path, T=60)
    payload["reduced_form"]["intervention_lags"] = [1.5]
    config = write_config(tmp_path, payload)
    for command in ("reduced-form", "validate"):
        assert cli.main([command, "--config", str(config)]) == 1, command
        assert_one_line_error(capsys, "intervention_lags")
    assert not (tmp_path / "out").exists()


def test_reduced_form_nonstationary_exit(tmp_path, capsys):
    # clearly explosive so the estimated persistence lands above one
    payload = reduced_form_workspace(tmp_path, lam=1.05, beta=0.0, T=300)
    config = write_config(tmp_path, payload)
    assert cli.main(["reduced-form", "--config", str(config)]) == 2
    assert "persistence" in capsys.readouterr().err


def test_reduced_form_relative_mode(tmp_path):
    rng = np.random.default_rng(12)
    T = 200
    labels = quarter_labels(1989, T)
    s = np.abs(rng.normal(0.2, 0.1, T))
    domestic = 100.0 * np.cumprod(1.0 + rng.normal(0.005, 0.01, T))
    region = 100.0 * np.cumprod(1.0 + rng.normal(0.004, 0.01, T))
    write_series(tmp_path / "y.csv", labels, domestic)
    write_series(tmp_path / "region.csv", labels, region)
    write_series(tmp_path / "s.csv", labels, s)
    config = write_config(
        tmp_path,
        {
            "reduced_form": {
                "domestic_levels": "y.csv",
                "region_levels": "region.csv",
                "intervention": "s.csv",
            }
        },
    )
    assert cli.main(["reduced-form", "--config", str(config)]) == 0
    result = json.loads(
        (tmp_path / "out" / "reduced_form.json").read_text(encoding="utf-8")
    )
    assert result["relative_to_region"] is True


# ---------------------------------------------------------------------------
# validate and usage errors
# ---------------------------------------------------------------------------


def test_validate_ok_and_unknown_section(tmp_path, capsys):
    write_series(tmp_path / "x.csv", ["2000", "2001"], [1.0, 2.0])
    good = write_config(tmp_path, {"calendar": {"input": "x.csv"}})
    assert cli.main(["validate", "--config", str(good)]) == 0
    assert "config ok" in capsys.readouterr().out
    bad = write_config(tmp_path, {"calendars": {}}, name="bad.json")
    assert cli.main(["validate", "--config", str(bad)]) == 1


@pytest.mark.parametrize(
    "section, settings, key",
    [
        ("model", {"bootstrap": {"quantiles": [0.9, 0.1]}}, "quantiles"),
        ("model", {"bootstrap": {"replications": 0}}, "replications"),
        ("index", {"weight": 1.5}, "weight"),
        # sizes whose largest array, (H+1, n, n) with n = 5 or the (R, 5, H+1, 3)
        # draws, exceeds any machine's memory are refused before anything runs
        ("model", {"horizon": 10**12}, f"'horizon' needs a {8 * (10**12 + 1) * 5 * 5}-byte array"),
        ("model", {"bootstrap": {"replications": 10**15}}, f"'replications' needs a {8 * 10**15 * 5 * 25 * 3}-byte array"),
    ],
)
def test_validate_checks_setting_ranges(tmp_path, capsys, section, settings, key):
    _, data_map = model_workspace(tmp_path, T=60)
    write_counts(tmp_path / "on.csv", {"alpha": [1, 2]}, months=3)
    sections = {
        "model": {"spec": "spec.json", "data": data_map},
        "index": {"on_counts": "on.csv"},
    }
    sections[section].update(settings)
    config = write_config(tmp_path, sections)
    assert cli.main(["validate", "--config", str(config)]) == 1
    assert_one_line_error(capsys, key)


def test_missing_config_flag_is_usage_error(capsys):
    assert cli.main(["estimate"]) == 1
    assert "--config" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["a" * 300, "."])
def test_unusable_config_path_is_usage_error(tmp_path, capsys, name):
    # a name longer than the file system allows, and a directory
    assert cli.main(["validate", "--config", str(tmp_path / name)]) == 1
    assert_one_line_error(capsys, "--config: no such file")


def test_unknown_command_is_usage_error(tmp_path):
    config = write_config(tmp_path, {})
    assert cli.main(["frobnicate", "--config", str(config)]) == 1


def test_out_override(tmp_path):
    write_series(tmp_path / "x.csv", ["1368", "1369"], [1.0, 2.0])
    config = write_config(tmp_path, {"calendar": {"input": "x.csv"}})
    assert (
        cli.main(
            ["convert-calendar", "--config", str(config), "--out", str(tmp_path / "elsewhere")]
        )
        == 0
    )
    assert (tmp_path / "elsewhere" / "converted.csv").is_file()


def test_empty_out_override_is_refused(tmp_path, capsys):
    # such as --out "$OUT" with OUT unset: it used to fall back to the config's out_dir
    _, data_map = model_workspace(tmp_path, T=60)
    config = write_config(tmp_path, {"out_dir": "out", "model": {"spec": "spec.json", "data": data_map}})
    for command in ("estimate", "validate"):
        assert cli.main([command, "--config", str(config), "--out", ""]) == 1, command
        assert_one_line_error(capsys, "--out: empty output directory")
    assert not (tmp_path / "out").exists()


def section_workspace(tmp_path, section):
    """Inputs and a valid single-section config for ``section``, with the
    command that reads that section."""
    if section == "index":
        write_index_inputs(tmp_path)
        body = {"on_counts": "on.csv", "off_counts": "off.csv", "output_growth": "dy.csv"}
        return "build-index", {section: body}
    if section == "calendar":
        write_series(tmp_path / "x.csv", ["1368", "1369"], [1.0, 2.0])
        return "convert-calendar", {section: {"input": "x.csv"}}
    if section == "model":
        _, data_map = model_workspace(tmp_path, T=60)
        body = {"spec": "spec.json", "data": data_map, "horizon": 2, "bootstrap": {"replications": 2}}
        return "dynamics", {section: body}
    payload = reduced_form_workspace(tmp_path, T=60)
    write_series(tmp_path / "dyw.csv", quarter_labels(1989, 60), np.linspace(0.0, 1.0, 60) ** 2)
    payload[section]["controls"] = {"dyw": "dyw.csv"}
    return "reduced-form", payload


def run_quietly(argv):
    """``cli.main``'s exit code and what it wrote to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


@pytest.mark.parametrize(
    "section, edits, top, code, fragment",
    [
        ("reduced_form", {"controls": ["dyw.csv"]}, {}, 1, "'controls' must map"),
        ("index", {"output_growth": None}, {}, 1, "'output_growth' is required for grid search"),
        ("model", {"shocked_control": "mystery"}, {}, 2, "control 'mystery' not in the specification"),
        # a fixed weight never reads output_growth, but a dangling path is refused
        ("index", {"weight": 0.4, "output_growth": "gone.csv"}, {}, 1, "'output_growth': no such file"),
        ("reduced_form", {"intervention_lags": [1, 1]}, {}, 1, "distinct non-negative lags, got [1, 1]"),
        ("reduced_form", {"intervention_lags": [-1]}, {}, 1, "distinct non-negative lags, got [-1]"),
        ("calendar", {}, {"out_dir": None}, 1, "'out_dir' must be a string, got None"),
        ("calendar", {}, {"out_dir": 5}, 1, "'out_dir' must be a string, got 5"),
        ("calendar", {}, {"calendar": ["x.csv"]}, 1, "config section 'calendar' must be an object"),
        # a control must not replace a regressor the command builds
        ("reduced_form", {"controls": {"s.L1": "dyw.csv"}}, {}, 1, "regressors the command builds: ['s.L1']"),
        ("reduced_form", {"controls": {"dy.L1": "dyw.csv"}}, {}, 1, "regressors the command builds: ['dy.L1']"),
        (
            "reduced_form",
            {"intervention_lags": [0, 2], "controls": {"s": "dyw.csv", "s.L1": "dyw.csv", "s.L2": "dyw.csv"}},
            {},
            1,
            "regressors the command builds: ['s', 's.L2']",
        ),
        # the intercept too: reduced_form.json kept the control's coefficient under "const"
        ("reduced_form", {"controls": {"const": "dyw.csv"}}, {}, 1, "regressors the command builds: ['const']"),
        # one growth source, every path of it a file: region_levels used to win over a dangling growth
        (
            "reduced_form",
            {"growth": "gone.csv", "domestic_levels": "dy.csv", "region_levels": "dy.csv"},
            {},
            1,
            "needs 'growth' or both 'domestic_levels' and 'region_levels', got ['growth', 'domestic_levels', 'region_levels']",
        ),
        ("reduced_form", {"domestic_levels": "gone.csv"}, {}, 1, "got ['growth', 'domestic_levels']"),
        ("reduced_form", {"growth": None, "region_levels": "dy.csv"}, {}, 1, "got ['region_levels']"),
        ("reduced_form", {"growth": None}, {}, 1, "got []"),
        # a misspelt key used to be ignored: this one ran a grid search instead of the fixed weight
        ("index", {"wieght": 0.4}, {}, 1, "config section 'index' has unknown keys: ['wieght']"),
        ("calendar", {"inputs": "x.csv"}, {}, 1, "config section 'calendar' has unknown keys: ['inputs']"),
        ("model", {"bootstrap": {"replications": 2, "sed": 1}}, {}, 1, "config key 'bootstrap' has unknown keys: ['sed']"),
        ("reduced_form", {"lags": [1], "controlz": {}}, {}, 1, "has unknown keys: ['controlz', 'lags']"),
        # a non-string control is a config error, not a control named "5"
        ("model", {"shocked_control": 5}, {}, 1, "'shocked_control' must be a string, got 5"),
        ("model", {"shocked_control": ["dyw"]}, {}, 1, "'shocked_control' must be a string, got ['dyw']"),
        # the grid search regresses quarterly growth: a monthly index used to pass validate, then exit 2
        ("index", {"target_frequency": "monthly"}, {}, 1, "grid search needs target_frequency 'quarterly', got 'monthly'"),
        ("index", {"target_frequency": "annual"}, {}, 1, "grid search needs target_frequency 'quarterly', got 'annual'"),
        # an empty out_dir was the config's own directory: the outputs landed among the inputs
        ("calendar", {}, {"out_dir": ""}, 1, "config key 'out_dir': empty output directory"),
    ],
)
def test_validate_refuses_what_the_command_refuses(tmp_path, section, edits, top, code, fragment):
    command, payload = section_workspace(tmp_path, section)
    payload[section].update(edits)
    payload.update(top)
    config = write_config(tmp_path, payload)
    before = sorted(tmp_path.iterdir())
    refused = run_quietly([command, "--config", str(config)])
    assert refused == run_quietly(["validate", "--config", str(config)])
    assert refused[0] == code
    assert refused[1].startswith("error: ") and refused[1].count("\n") == 1, refused[1]
    assert fragment in refused[1]
    # no out_dir ("out", "None" or "5") is left behind
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("section", ["index", "calendar", "model", "reduced_form"])
def test_valid_section_passes_validate_and_its_command(tmp_path, section):
    command, payload = section_workspace(tmp_path, section)
    config = write_config(tmp_path, payload)
    assert run_quietly(["validate", "--config", str(config)]) == (0, "")
    assert run_quietly([command, "--config", str(config)])[0] == 0
    assert (tmp_path / "out").is_dir()


# every key of each section's schema, as a path into the config
_SCHEMA_KEYS = {
    "index": [("index", key) for key in (
        "on_counts", "off_counts", "variant", "target_frequency", "normalization_window",
        "off_windows", "weight", "grid_step", "output_growth",
    )],
    "calendar": [("calendar", "input")],
    "model": [("model", key) for key in (
        "spec", "data", "controls_var1", "horizon", "shocked_control", "method", "bootstrap",
    )] + [("model", "bootstrap", key) for key in ("replications", "quantiles", "seed", "joint")],
    "reduced_form": [("reduced_form", key) for key in (
        "growth", "domestic_levels", "region_levels", "intervention", "intervention_lags", "controls",
    )],
}

# JSON values of the wrong type or out of range; integers stay small so runs stay short
_scalars = (
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.floats(-1.5, 1.5)
    | st.text(max_size=6)
    | st.sampled_from(["", "1989Q1", "1990-03", "quarterly", "both", "g0", "dy.csv"])
)
_json_values = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=2),
    max_leaves=4,
)


# keys the schema lacks, in each section and in the bootstrap object
_UNKNOWN_KEYS = {section: [(section, "wieght")] for section in _SCHEMA_KEYS}
_UNKNOWN_KEYS["model"].append(("model", "bootstrap", "sed"))


@pytest.fixture(scope="module")
def fuzz_workspaces(tmp_path_factory):
    return {
        section: (root, *section_workspace(root, section))
        for section in _SCHEMA_KEYS
        for root in [tmp_path_factory.mktemp(section)]
    }


@pytest.mark.parametrize("section", sorted(_SCHEMA_KEYS))
def test_fuzzed_section_fails_cleanly_and_validate_agrees(fuzz_workspaces, section):
    root, command, payload = fuzz_workspaces[section]
    config = root / "fuzzed.json"

    # out_dir draws no strings, so that no output can land outside the workspace
    edit = st.tuples(st.sampled_from(_SCHEMA_KEYS[section] + _UNKNOWN_KEYS[section] + [("seed",)]), _json_values) | st.tuples(
        st.just(("out_dir",)), _json_values.filter(lambda value: not isinstance(value, str))
    )

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(edits=st.lists(edit, min_size=1, max_size=2))
    def check(edits):
        fuzzed = copy.deepcopy(payload)
        for key, value in edits:
            target = fuzzed
            for part in key[:-1]:
                if not isinstance(target.get(part), dict):
                    target[part] = {}
                target = target[part]
            target[key[-1]] = value
        config.write_text(json.dumps(fuzzed), encoding="utf-8")
        shutil.rmtree(root / "out", ignore_errors=True)
        before = sorted(root.iterdir())

        code, err = run_quietly([command, "--config", str(config)])
        assert code in (0, 1, 2)
        if code:
            assert err.startswith("error: ") and err.count("\n") == 1, err
        untouched = sorted(root.iterdir()) == before
        checked = run_quietly(["validate", "--config", str(config)])
        if code == 1 and untouched:
            assert checked == (code, err)
        if checked[0]:
            assert checked == (code, err) and untouched

    check()


# the first and the last output each command writes
_OUTPUTS = {
    "build-index": ("index", "index_on.csv", "index_diagnostics.json"),
    "convert-calendar": ("calendar", "converted.csv", "converted.csv"),
    "estimate": ("model", "estimate.json", "eq_v2.csv"),
    "dynamics": ("model", "bootstrap_meta.json", "plot_irf.json"),
    "reduced-form": ("reduced_form", "reduced_form.csv", "reduced_form.json"),
}


@pytest.mark.parametrize(
    "shape", ["file", "under_file", "dangling_symlink", "output_is_directory", "last_output_is_directory"]
)
@pytest.mark.parametrize("command", sorted(_OUTPUTS))
def test_unwritable_output_fails_in_one_line(tmp_path, command, shape):
    # permission shapes are left out: for root every path is writable
    section, first_output, last_output = _OUTPUTS[command]
    payload = section_workspace(tmp_path, section)[1]
    config = write_config(tmp_path, payload)
    blocker, out = tmp_path / "blocker", tmp_path / "out"
    taken = {"output_is_directory": first_output, "last_output_is_directory": last_output}.get(shape)
    if shape == "dangling_symlink":
        blocker.symlink_to(tmp_path / "gone")
    elif taken is None:
        blocker.write_text("not a directory\n", encoding="utf-8")
    if taken is not None:
        (out / taken).mkdir(parents=True)
    else:
        out = blocker / "sub" if shape == "under_file" else blocker
    argv = ["--config", str(config), "--out", str(out)]
    code, err = run_quietly([command, *argv])
    assert code in (1, 2)
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err
    if taken is not None:
        # every output name is checked before the first write, so none is written
        assert code == 1 and f"{out / taken} exists and is not a regular file" in err, err
        assert [p.name for p in out.iterdir()] == [taken] and (out / taken).is_dir()
    else:
        # validate refuses the same out_dir with the same line
        assert run_quietly(["validate", *argv]) == (code, err)
        assert not (tmp_path / "gone").exists()
        assert shape == "dangling_symlink" or blocker.read_text(encoding="utf-8") == "not a directory\n"


@pytest.mark.parametrize("target", ["config", "spec"])
def test_repeated_json_key_is_refused(tmp_path, capsys, target):
    _, data_map = model_workspace(tmp_path, T=60)
    config = write_config(tmp_path, {"out_dir": "out", "model": {"spec": "spec.json", "data": data_map}})
    path = config if target == "config" else tmp_path / "spec.json"
    # the last key used to win without a word
    text = path.read_text(encoding="utf-8")
    path.write_text(text.replace("{", '{"out_dir": "elsewhere", ' if target == "config" else '{"lags": 1, ', 1), encoding="utf-8")
    repeated = "out_dir" if target == "config" else "lags"
    for command in ("estimate", "validate"):
        assert cli.main([command, "--config", str(config)]) == 1, command
        assert_one_line_error(capsys, path.name, "invalid JSON", f"repeated key '{repeated}'")
    assert not (tmp_path / "out").exists() and not (tmp_path / "elsewhere").exists()


def test_build_index_checks_each_counts_file_once(index_workspace, monkeypatch):
    # one repeat search per counts file, and no panel built through the
    # public constructor: the reader's panel and each window's slice of it
    # are already checked
    config = write_config(
        index_workspace,
        {"index": {"on_counts": "on.csv", "off_counts": "off.csv", "weight": 0.4,
                   "off_windows": [["1989Q1", "1989Q4"], ["1991Q3", "1992Q2"]]}},
    )
    calls = {"_first_repeat": 0, "__post_init__": 0}
    for owner, name in ((ix, "_first_repeat"), (ix.ArticleCountPanel, "__post_init__")):
        real = getattr(owner, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    assert cli.main(["build-index", "--config", str(config)]) == 0
    assert calls == {"_first_repeat": 2, "__post_init__": 0}
