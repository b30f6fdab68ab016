"""The exact bytes of every output writer, on tiny hand-built inputs.

The other tests check that a run repeats its own bytes; these pin the
bytes themselves: the CSV dialect (comma, minimal quoting, ``\\n`` line
ends), the float forms (``repr`` for series and responses, six decimals
for fit tables) and the JSON form (indent 2, sorted keys, ASCII escapes,
a trailing newline).  One more test keeps it so: only the format module
calls the CSV writer or the JSON encoder, and only ``cli.main`` makes a
directory.
"""

import ast
from pathlib import Path

import numpy as np

from newsvar import bootstrap as boot
from newsvar import dynamics as dyn
from newsvar import intensity as ix
from newsvar import regression as reg
from newsvar import timeseries as ts


def quarterly(values, year=1990, quarter=2):
    return ts.CalendarSeries(ts.Frequency.QUARTERLY, ts.CalendarKind.GREGORIAN, ts.PeriodLabel(year, quarter), values)


def test_series_csv_bytes(tmp_path):
    path = tmp_path / "s.csv"
    ts.write_series_csv(quarterly([1.0, 0.1, -2.5e-17]), path)
    assert path.read_bytes() == b"period,value\n1990Q2,1.0\n1990Q3,0.1\n1990Q4,-2.5e-17\n"


def test_series_csv_bytes_monthly_and_annual(tmp_path):
    path = tmp_path / "s.csv"
    monthly = ts.CalendarSeries(ts.Frequency.MONTHLY, ts.CalendarKind.GREGORIAN, ts.PeriodLabel(1999, 12), [3.0, 1 / 3])
    ts.write_series_csv(monthly, path)
    assert path.read_bytes() == b"period,value\n1999-12,3.0\n2000-01,0.3333333333333333\n"
    annual = ts.CalendarSeries(ts.Frequency.ANNUAL, ts.CalendarKind.GREGORIAN, ts.PeriodLabel(2001), [7.0])
    ts.write_series_csv(annual, path)
    assert path.read_bytes() == b"period,value\n2001,7.0\n"


def test_index_csv_bytes(tmp_path):
    path = tmp_path / "index.csv"
    index = ix.IntensityIndex(quarterly([0.25, 1.0]), ix.IndexKind.NET, normalization_max=4.0, net_weight=0.4)
    ix.write_index_csv(index, path)
    assert path.read_bytes() == b"period,value,kind\n1990Q2,0.25,net\n1990Q3,1.0,net\n"


def test_fit_csv_bytes_with_extra_rows(tmp_path):
    # t = 10 on 20 degrees of freedom is significant at 1%, t = 0.1 nowhere
    fit = reg.RegressionFit(
        names=("const", "x,1"),
        coefficients=np.array([1.5, -0.0001234]),
        standard_errors=np.array([0.15, 0.001234]),
        covariance=np.eye(2),
        residuals=np.zeros(22),
        sigma_hat=1.0,
        r2=0.5,
        adjusted_r2=0.4756789,
        nobs=22,
        nregressors=2,
        design=np.zeros((22, 2)),
    )
    path = tmp_path / "fit.csv"
    reg.write_fit_csv(fit, path, extra_rows=(("bg_p_value", "0.123456"), ("note", "a,b"), ("quote", 'q"x')))
    assert path.read_bytes() == (
        b"name,coefficient,se,stars\n"
        b"const,1.500000,0.150000,***\n"
        b'"x,1",-0.000123,0.001234,\n'
        b"adjusted_r2,0.475679,,\n"
        b"nobs,22,,\n"
        b"bg_p_value,0.123456,,\n"
        b'note,"a,b",,\n'
        b'quote,"q""x",,\n'
    )
    reg.write_fit_csv(fit, path)
    assert path.read_bytes().endswith(b"nobs,22,,\n")


def irf_result():
    responses = {"e1": np.array([[1.0, 0.5], [0.25, -0.125]]), "s": np.array([[0.0, 2.0], [0.1, 1e-20]])}
    return dyn.IrfResult(
        horizon=1, variables=("a", "b"), shocks=("e1", "s"), responses=responses,
        scales={"e1": 1.0, "s": 0.5}, method="direct",
    )


def irf_bands():
    lower = {"e1": np.array([[0.5, 0.0], [0.0, -1.0]]), "s": np.array([[-0.5, 1.0], [0.0, 0.0]])}
    upper = {"e1": np.array([[1.5, 1.0], [0.5, 0.0]]), "s": np.array([[0.5, 3.0], [0.2, 0.3]])}
    return boot.BootstrapBands(
        replications=9, requested=10, dropped=1, quantiles=(0.05, 0.95), seed=7, horizon=1,
        variables=("a", "b"), shocks=("e1", "s"), lower=lower, upper=upper,
        joint_resampling=False,
    )


def test_irf_csv_bytes_without_bands(tmp_path):
    path = tmp_path / "irf.csv"
    dyn.write_irf_csv(irf_result(), path)
    assert path.read_bytes() == (
        b"variable,shock,horizon,value\n"
        b"a,e1,0,1.0\n"
        b"b,e1,0,0.5\n"
        b"a,e1,1,0.25\n"
        b"b,e1,1,-0.125\n"
        b"a,s,0,0.0\n"
        b"b,s,0,2.0\n"
        b"a,s,1,0.1\n"
        b"b,s,1,1e-20\n"
    )


def test_irf_csv_bytes_with_bands(tmp_path):
    path = tmp_path / "irf.csv"
    dyn.write_irf_csv(irf_result(), path, bands=irf_bands())
    assert path.read_bytes() == (
        b"variable,shock,horizon,value,lower,upper\n"
        b"a,e1,0,1.0,0.5,1.5\n"
        b"b,e1,0,0.5,0.0,1.0\n"
        b"a,e1,1,0.25,0.0,0.5\n"
        b"b,e1,1,-0.125,-1.0,0.0\n"
        b"a,s,0,0.0,-0.5,0.5\n"
        b"b,s,0,2.0,1.0,3.0\n"
        b"a,s,1,0.1,0.0,0.2\n"
        b"b,s,1,1e-20,0.0,0.3\n"
    )


def test_fevd_csv_bytes(tmp_path):
    shares = {"a": np.array([[1.0, 0.0], [0.75, 0.25]]), "b": np.array([[0.5, 0.5], [0.1, 0.9]])}
    result = dyn.FevdResult(horizon=1, variables=("a", "b"), shocks=("e1", "s"), shares=shares, method="direct")
    path = tmp_path / "fevd.csv"
    dyn.write_fevd_csv(result, path)
    assert path.read_bytes() == (
        b"variable,shock,horizon,value\n"
        b"a,e1,0,1.0\n"
        b"a,s,0,0.0\n"
        b"a,e1,1,0.75\n"
        b"a,s,1,0.25\n"
        b"b,e1,0,0.5\n"
        b"b,s,0,0.5\n"
        b"b,e1,1,0.1\n"
        b"b,s,1,0.9\n"
    )


def test_json_bytes(tmp_path):
    bands = irf_bands()
    bands = boot.BootstrapBands(**{**vars(bands), "variables": ("a", "bé")})
    path = tmp_path / "meta.json"
    boot.write_bands_metadata(bands, path)
    assert path.read_bytes() == (
        b'{\n'
        b'  "dropped": 1,\n'
        b'  "horizon": 1,\n'
        b'  "joint_resampling": false,\n'
        b'  "note": "band coverage level is configuration; quantiles above are the defaults",\n'
        b'  "quantiles": [\n'
        b'    0.05,\n'
        b'    0.95\n'
        b'  ],\n'
        b'  "replications": 9,\n'
        b'  "requested": 10,\n'
        b'  "seed": 7,\n'
        b'  "shocks": [\n'
        b'    "e1",\n'
        b'    "s"\n'
        b'  ],\n'
        b'  "variables": [\n'
        b'    "a",\n'
        b'    "b\\u00e9"\n'
        b'  ]\n'
        b'}\n'
    )


PACKAGE = Path(__file__).resolve().parents[1] / "src" / "newsvar"


def attribute_calls(path):
    """(``owner.attr``, the top-level definition it stands in) of each
    attribute call in a module; the owner is ``?`` unless it is a name."""
    for top in ast.parse(path.read_text(encoding="utf-8")).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                owner = node.func.value.id if isinstance(node.func.value, ast.Name) else "?"
                yield f"{owner}.{node.func.attr}", getattr(top, "name", None)


def test_only_the_format_module_formats_and_only_main_makes_directories():
    formats, mkdirs = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        for call, where in attribute_calls(path):
            if call in ("csv.writer", "json.dumps") and path.name != "timeseries.py":
                formats.append((path.name, where, call))
            if call.endswith(".mkdir"):
                mkdirs.append((path.name, where))
    assert formats == []
    assert mkdirs == [("cli.py", "main")]
