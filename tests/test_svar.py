import importlib
import json
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import equation_designs, lstsq_reference, random_stable_system, simulate_panel
from newsvar import dynamics as dyn
from newsvar import regression as reg
from newsvar import svar as sv
from newsvar import timeseries as ts
from newsvar.errors import (
    CollinearityError,
    DegenerateDataError,
    DomainError,
    ModelSpecError,
    NewsvarError,
    SampleError,
)


def to_panel(Z, names, year=1989):
    start = ts.PeriodLabel(year, 1)
    return {
        name: ts.CalendarSeries(
            ts.Frequency.QUARTERLY, ts.CalendarKind.GREGORIAN, start, Z[:, j]
        )
        for j, name in enumerate(names)
    }


def structural_truth_and_z(est_true, est):
    """Pairs of (true value, estimated fit z-score) across all equations."""
    pairs = []
    for i, fit in enumerate(est.fits):
        terms = est.spec.equation_regressors(est.spec.ordering[i])
        true_vals = [est_true.a_q[i]]
        for name, lag_ in terms:
            if name == est.spec.intervention_name:
                true_vals.append(est_true.gamma0s[i] if lag_ == 0 else est_true.gamma1s[i])
            elif name in est_true.controls:
                true_vals.append(est_true.Dw[i, est_true.controls.index(name)])
            elif lag_ == 0:
                true_vals.append(-est_true.A0[i, est_true.variables.index(name)])
            elif lag_ == 1:
                true_vals.append(est_true.A1[i, est_true.variables.index(name)])
            else:
                true_vals.append(est_true.A2[i, est_true.variables.index(name)])
        z = (fit.coefficients - np.array(true_vals)) / fit.standard_errors
        pairs.extend(zip(true_vals, z))
    return pairs


# ---------------------------------------------------------------------------
# specification
# ---------------------------------------------------------------------------


def test_spec_validation():
    with pytest.raises(ModelSpecError):
        sv.SvarSpec(ordering=("a", "a"))
    with pytest.raises(ModelSpecError):
        sv.SvarSpec(ordering=("a",), lags=3)
    with pytest.raises(ModelSpecError):
        sv.SvarSpec(ordering=("a",), controls=("a",))
    with pytest.raises(ModelSpecError):
        sv.SvarSpec(ordering=("a", "b"), extra_lags={"a": (("c", 2),)})
    with pytest.raises(ModelSpecError):
        sv.SvarSpec(ordering=("a", "b"), lags=2, extra_lags={"a": (("b", 2),)})
    with pytest.raises(ModelSpecError, match="twice"):
        sv.SvarSpec(ordering=("a", "b"), lags=1, extra_lags={"a": (("b", 2), ("b", 2))})
    # keyword construction takes the spec file's checks: a field of the wrong
    # type is not a stray TypeError, nor a truthy value read as a flag
    with pytest.raises(ModelSpecError, match="'lags' must be an integer"):
        sv.SvarSpec(ordering=("a",), lags="2")
    with pytest.raises(ModelSpecError, match="'intervention' must be a .current, lagged. pair"):
        sv.SvarSpec(ordering=("a",), intervention=("yes", 0))
    with pytest.raises(ModelSpecError, match="'intervention_name' must be a non-empty string"):
        sv.SvarSpec(ordering=("a",), intervention_name=None)
    with pytest.raises(ModelSpecError, match=r"'lags' names equations not in the ordering: \['c'\]"):
        sv.SvarSpec(ordering=("a", "b"), lags={"a": 1, "b": 1, "c": 2})
    with pytest.raises(ModelSpecError, match=r"'intervention' names equations not in the ordering: \['A'\]"):
        sv.SvarSpec(ordering=("a", "b"), intervention={"A": (True, True)})
    # a refusal of the keyword field names it beside the spec file's key
    with pytest.raises(ModelSpecError) as refused:
        sv.SvarSpec(ordering=("a",), extra_lags={"a": "b"})
    assert str(refused.value) == (
        "spec field 'per_equation_extras.a' (keyword extra_lags['a']) "
        "must be a list of [name, lag] pairs, got 'b'"
    )
    with pytest.raises(ModelSpecError) as refused:
        sv.SvarSpec(ordering=("a",), extra_lags=[1])
    assert str(refused.value) == "spec field 'per_equation_extras' (keyword extra_lags) must map equations to terms"
    with pytest.raises(ModelSpecError, match=re.escape("extra_lags['a']) must be a list of [name, lag] pairs")):
        sv.SvarSpec(ordering=("a", "b"), extra_lags={"a": [("b", True)]})


def test_spec_reproduces_published_inflation_equation_layout():
    # four-variable ordering with one base lag, a second own lag of the
    # price equation only, both intervention terms, one global control
    spec = sv.SvarSpec(
        ordering=("de", "dm", "dp", "dy"),
        lags=1,
        extra_lags={"dp": (("dp", 2),)},
        intervention=(True, True),
        controls=("dyw",),
    )
    terms = spec.equation_regressors("dp")
    expected = [
        ("de", 0),
        ("dm", 0),
        ("de", 1),
        ("dm", 1),
        ("dp", 1),
        ("dy", 1),
        ("dp", 2),
        ("s", 0),
        ("s", 1),
        ("dyw", 0),
    ]
    assert sorted(terms) == sorted(expected)
    assert spec.max_lag == 2
    # output-growth equation has all three earlier variables but no extras
    assert ("dp", 2) not in spec.equation_regressors("dy")
    assert ("de", 0) in spec.equation_regressors("dy")


def test_spec_json_round_trip():
    spec = sv.SvarSpec(
        ordering=("de", "dp", "dy"),
        lags={"de": 1, "dp": 2, "dy": 1},
        extra_lags={"de": (("dy", 2),)},
        intervention={"de": (True, True), "dp": (True, False), "dy": (False, True)},
        controls=("dyw",),
    )
    payload = {
        "ordering": ["de", "dp", "dy"],
        "lags": {"de": 1, "dp": 2, "dy": 1},
        "per_equation_extras": {"de": [["dy", 2]]},
        "intervention": {"de": [True, True], "dp": [True, False], "dy": [False, True]},
        "intervention_name": "s",
        "controls": ["dyw"],
    }
    other = sv.SvarSpec.from_json(json.loads(json.dumps(payload)))
    assert other == spec
    with pytest.raises(ModelSpecError):
        sv.SvarSpec.from_json({"ordering": ["a"], "bogus": 1})


def test_spec_holds_lags_and_intervention_per_equation():
    spec = sv.SvarSpec(ordering=("a", "b"), lags=1, intervention={"b": (True, False)})
    assert spec.lags == {"a": 1, "b": 1}
    assert spec.intervention == {"a": (False, False), "b": (True, False)}
    assert spec == sv.SvarSpec(ordering=("a", "b"), lags={"b": 1, "a": 1}, intervention=spec.intervention)


NAMES = ("a", "b", "c", "s", "g")
JSON_LIKE = st.recursive(
    st.none() | st.booleans() | st.integers(-1, 3) | st.floats() | st.sampled_from(NAMES + ("",)),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.sampled_from(NAMES), children, max_size=4),
    max_leaves=10,
)
FLAGS = st.tuples(st.booleans(), st.booleans())


@st.composite
def spec_objects(draw):
    """Spec-file objects whose fields are each left out, near a valid value
    (lag orders 0-3, an equation map that may miss an equation or name one
    off the ordering, names that may clash) or any JSON value."""
    names = st.sampled_from(NAMES)
    lags = st.sampled_from([1, 2, 1, 2, 0, 3])
    ordering = draw(st.lists(names, min_size=1, max_size=3, unique=True), label="ordering")

    def per_equation(values):
        mapping = draw(st.fixed_dictionaries({eq: values for eq in ordering}, optional={"A": values}))
        mapping.pop(draw(st.sampled_from([None] * 4 + ordering)), None)
        return mapping

    near = {
        "ordering": ordering,
        "lags": draw(lags) if draw(st.booleans()) else per_equation(lags),
        "per_equation_extras": per_equation(st.lists(st.tuples(names, lags), max_size=1)),
        "intervention": draw(FLAGS) if draw(st.booleans()) else per_equation(FLAGS),
        "intervention_name": draw(st.sampled_from(["s"] * 6 + ["a", "g", ""])),
        "controls": draw(st.lists(st.sampled_from(["g", "h", "g", "a"]), max_size=2)),
    }
    payload = {}
    for key, value in near.items():
        how = draw(st.sampled_from(["near"] * 8 + ["omit", "any"]), label=key)
        if how != "omit":
            payload[key] = value if how == "near" else draw(JSON_LIKE)
    if draw(st.sampled_from([False] * 9 + [True]), label="unknown field"):
        payload["bogus"] = draw(JSON_LIKE)
    return payload


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(spec_objects())
def test_spec_file_is_a_spec_or_a_model_error(payload):
    payload = json.loads(json.dumps(payload))
    try:
        spec = sv.SvarSpec.from_json(payload)
    except ModelSpecError:
        return
    assert tuple(spec.lags) == tuple(spec.intervention) == spec.ordering
    assert all(lag_ in (1, 2) for lag_ in spec.lags.values())
    for terms in spec._terms:
        assert all(name in spec.columns and lag_ in (0, 1, 2) for name, lag_ in terms)
    # the normalized fields are a spec of their own, the same one
    assert sv.SvarSpec(**{f.name: getattr(spec, f.name) for f in fields(spec)}) == spec


# ---------------------------------------------------------------------------
# estimation
# ---------------------------------------------------------------------------


def test_estimation_recovers_known_system():
    rng = np.random.default_rng(7)
    truth = random_stable_system(rng, m=4, k=1)
    Z = simulate_panel(truth, 20_000, rng)
    est = sv.estimate_svar_arrays(truth.spec, Z)
    pairs = structural_truth_and_z(truth, est)
    assert max(abs(z) for _, z in pairs) < 3.0
    assert np.allclose(est.sigma, truth.sigma, rtol=0.1)
    assert abs(est.s_rho - truth.s_rho) < 0.05


def test_estimation_diagonal_truth_keeps_couplings_near_zero():
    rng = np.random.default_rng(15)
    m = 3
    names = tuple(f"v{i}" for i in range(m))
    spec = sv.SvarSpec(ordering=names, lags=1, intervention=(True, False), controls=())
    truth = sv.SvarEstimate(
        spec=spec,
        A0=np.eye(m),
        A1=0.4 * np.eye(m),
        A2=np.zeros((m, m)),
        gamma0s=np.full(m, 0.5),
        gamma1s=np.zeros(m),
        Dw=np.zeros((m, 0)),
        a_q=np.zeros(m),
        sigma=np.ones(m),
        s_rho=0.6,
        s_intercept=0.1,
        s_omega=1.0,
        c_transition=np.zeros((0, 0)),
        c_intercept=np.zeros(0),
        c_sd=np.zeros(0),
    )
    Z = simulate_panel(truth, 20_000, rng)
    est = sv.estimate_svar_arrays(spec, Z)
    for i, fit in enumerate(est.fits):
        for name, lag_ in spec.equation_regressors(names[i]):
            if name in names and ((lag_ == 0) or (lag_ == 1 and name != names[i])):
                label = name if lag_ == 0 else f"{name}.L1"
                assert abs(fit.coefficient(label)) < 3 * fit.se(label)


def test_equationwise_ols_matches_reduced_form_via_triangular_map():
    rng = np.random.default_rng(3)
    truth = random_stable_system(rng, m=3, k=1)
    Z = simulate_panel(truth, 2_000, rng)
    est = sv.estimate_svar_arrays(truth.spec, Z)
    # reconstruct reduced-form coefficients from the structural ones
    stacked = np.column_stack(
        [est.A1, est.A2, est.gamma0s, est.gamma1s, est.Dw, est.a_q]
    )
    implied = np.linalg.solve(est.A0, stacked)
    # directly estimated reduced form: no contemporaneous regressors
    m = est.m
    N = Z.shape[0]
    q, s, zc = Z[:, :m], Z[:, m], Z[:, m + 1 :]
    X = np.column_stack(
        [q[1:-1], q[:-2], s[2:], s[1:-1], zc[2:], np.ones(N - 2)]
    )
    direct = np.linalg.lstsq(X, q[2:], rcond=None)[0].T
    assert np.max(np.abs(direct - implied)) < 1e-8


def test_sigma_equals_stored_fit_variances():
    rng = np.random.default_rng(5)
    truth = random_stable_system(rng, m=3, k=1)
    est = sv.estimate_svar_arrays(truth.spec, simulate_panel(truth, 800, rng))
    # sigma comes from the chain kernel's SSR (squares of R's entries),
    # sigma_hat from the same QR's residuals summed: the two agree to rounding
    for i, fit in enumerate(est.fits):
        assert est.sigma[i] == pytest.approx(fit.sigma_hat**2, rel=1e-14, abs=0.0)


def test_reordering_diagonal_truth_permutes_lag_estimates():
    rng = np.random.default_rng(16)
    m = 3
    names = tuple(f"v{i}" for i in range(m))
    spec = sv.SvarSpec(ordering=names, lags=1, intervention=(True, False), controls=())
    A1 = np.diag([0.5, 0.3, -0.2])
    truth = sv.SvarEstimate(
        spec=spec,
        A0=np.eye(m),
        A1=A1,
        A2=np.zeros((m, m)),
        gamma0s=np.full(m, 0.4),
        gamma1s=np.zeros(m),
        Dw=np.zeros((m, 0)),
        a_q=np.zeros(m),
        sigma=np.ones(m),
        s_rho=0.5,
        s_intercept=0.1,
        s_omega=1.0,
        c_transition=np.zeros((0, 0)),
        c_intercept=np.zeros(0),
        c_sd=np.zeros(0),
    )
    Z = simulate_panel(truth, 30_000, rng)
    est = sv.estimate_svar_arrays(spec, Z)
    perm = (2, 0, 1)
    spec_p = sv.SvarSpec(
        ordering=tuple(names[i] for i in perm), lags=1, intervention=(True, False)
    )
    cols = list(perm) + [m]
    est_p = sv.estimate_svar_arrays(spec_p, Z[:, cols])
    # identical in population; in finite samples the orderings differ only
    # through the irrelevant contemporaneous regressors, so the estimates
    # must agree within sampling noise and both recover the diagonal truth
    se = max(max(fit.standard_errors.max() for fit in est.fits),
             max(fit.standard_errors.max() for fit in est_p.fits))
    for row, i in enumerate(perm):
        for col, j in enumerate(perm):
            assert abs(est_p.A1[row, col] - est.A1[i, j]) < 4 * se
            assert abs(est_p.A1[row, col] - A1[i, j]) < 4 * se


def test_degenerate_single_equation_spec():
    rng = np.random.default_rng(17)
    spec = sv.SvarSpec(ordering=("dy",), lags=1, intervention=(True, True), controls=())
    s = np.empty(500)
    dy = np.empty(500)
    s[0] = dy[0] = 0.0
    for t in range(1, 500):
        s[t] = 0.05 + 0.7 * s[t - 1] + rng.normal(0, 0.1)
        dy[t] = 0.01 - 0.2 * dy[t - 1] + 0.02 * s[t] - 0.05 * s[t - 1] + rng.normal(0, 0.02)
    est = sv.estimate_svar_arrays(spec, np.column_stack([dy, s]))
    assert est.m == 1
    assert est.A0.shape == (1, 1)
    assert est.fits[0].names == ("const", "dy.L1", "s", "s.L1")


def test_estimate_svar_from_calendar_series():
    rng = np.random.default_rng(18)
    truth = random_stable_system(rng, m=2, k=1)
    Z = simulate_panel(truth, 300, rng)
    names = truth.variables + ("s",) + truth.controls
    panel = to_panel(Z, names)
    est = sv.estimate_svar(truth.spec, panel)
    assert est.nobs == 298
    assert est.sample_start == ts.PeriodLabel(1989, 3)
    # identical numbers to the array path
    est_arrays = sv.estimate_svar_arrays(truth.spec, Z)
    assert np.array_equal(est.A1, est_arrays.A1)


def test_estimate_svar_reports_missing_series():
    rng = np.random.default_rng(19)
    truth = random_stable_system(rng, m=2, k=1)
    Z = simulate_panel(truth, 100, rng)
    panel = to_panel(Z, truth.variables + ("s",) + truth.controls)
    del panel["g0"]
    with pytest.raises(ModelSpecError, match="g0"):
        sv.estimate_svar(truth.spec, panel)


def test_estimate_svar_insufficient_sample():
    rng = np.random.default_rng(20)
    truth = random_stable_system(rng, m=4, k=1)
    Z = simulate_panel(truth, 12, rng)
    with pytest.raises(SampleError):
        sv.estimate_svar_arrays(truth.spec, Z)


def test_shortest_accepted_panel_fits_the_exogenous_processes():
    # with base lags of at least 1 every equation holds m + k terms or more,
    # so the sample the equations need also covers the control VAR(1): the
    # shortest panel the equations accept (one more row than regressors
    # after the lag) fits without a separate exogenous sample check
    spec = sv.SvarSpec(ordering=("a",), lags=1, intervention=(False, False), controls=("g0", "g1", "g2"))
    assert spec.equation_regressors("a") == [("a", 1), ("g0", 0), ("g1", 0), ("g2", 0)]
    Z = np.random.default_rng(3).normal(size=(7, 5))
    with pytest.raises(SampleError):
        sv.estimate_svar_arrays(spec, Z[:-1], controls_var1=True)
    stack = sv.estimate_svar_stack(spec, Z[None], controls_var1=True)
    assert stack.ok.tolist() == [True]
    est = sv.estimate_svar_arrays(spec, Z, controls_var1=True)
    assert est.c_transition.shape == (3, 3)


def test_rank_deficient_equation_names_its_dependent_columns():
    # b is a lagged by one, so c's design holds b and a.L1, the same column;
    # a and b fit, and the error names c's dependent column by its label
    spec = sv.SvarSpec(ordering=("a", "b", "c"), lags=1, intervention=(True, False))
    Z = np.random.default_rng(0).normal(size=(60, 4))
    Z[1:, 1] = Z[:-1, 0]
    with pytest.raises(CollinearityError) as excinfo:
        sv.estimate_svar_arrays(spec, Z)
    assert str(excinfo.value) == "design matrix is rank deficient; dependent columns: a.L1"


def test_controls_var1_mode():
    rng = np.random.default_rng(21)
    truth = random_stable_system(rng, m=2, k=2)
    Z = simulate_panel(truth, 5_000, rng)
    est = sv.estimate_svar_arrays(truth.spec, Z, controls_var1=True)
    assert est.controls_var1
    assert est.c_transition.shape == (2, 2)
    # true control block is diagonal AR(1); off-diagonals should be near zero
    assert np.allclose(est.c_transition, truth.c_transition, atol=0.1)
    assert est.c_omega.shape == (2, 2)


def _constant(Z, j):
    Z[:, j] = 0.25


def _constant_but_last(Z, j):
    Z[:-1, j] = 0.25


def _nan_last(Z, j):
    Z[-1, j] = np.nan


def _copy_but_last(Z, j):
    Z[:-1, j] = Z[:-1, j - 1]


@pytest.mark.parametrize(
    "intervention, edit, column, controls_var1, error",
    [
        # the intervention enters no equation, so only its AR(1) sees it
        ((False, False), _constant, 2, False, DegenerateDataError),
        ((False, False), _constant, 2, True, DegenerateDataError),
        ((False, True), _nan_last, 2, False, DomainError),
        # the equations see a last value that differs; the AR(1) design does not
        ((True, True), _constant_but_last, 3, False, CollinearityError),
        ((True, True), _copy_but_last, 4, True, CollinearityError),
    ],
)
def test_failed_exogenous_fit_raises_the_error_of_its_cause(intervention, edit, column, controls_var1, error):
    spec = sv.SvarSpec(ordering=("a", "b"), lags=1, intervention=intervention, controls=("g0", "g1"))
    Z = np.random.default_rng(0).normal(size=(60, 5))
    sv.estimate_svar_arrays(spec, Z, controls_var1=controls_var1)
    edit(Z, column)
    with pytest.raises(error):
        sv.estimate_svar_arrays(spec, Z, controls_var1=controls_var1)
    assert not sv.estimate_svar_stack(spec, Z[None], controls_var1=controls_var1).ok[0]


_TWO = sv.SvarSpec(ordering=("a", "b"), lags=2, controls=("g0",))


def _estimate_with_A0(A0):
    """A two-equation estimate, zero but for ``A0``."""
    zeros = np.zeros((2, 2))
    return sv.SvarEstimate(
        spec=_TWO, A0=A0, A1=zeros, A2=zeros, gamma0s=np.zeros(2), gamma1s=np.zeros(2),
        Dw=np.zeros((2, 1)), a_q=np.zeros(2), sigma=np.ones(2), s_rho=0.5, s_intercept=0.0,
        s_omega=1.0, c_transition=np.zeros((1, 1)), c_intercept=np.zeros(1), c_sd=np.ones(1),
    )


_PANEL = np.random.default_rng(0).normal(size=(60, 4))


@pytest.mark.parametrize(
    "refused, error, message",
    [
        (lambda: sv.SvarSpec(ordering=("a", "b", "a")), ModelSpecError, "ordering has duplicate variable names"),
        (
            lambda: sv.SvarSpec(ordering=("a", "b"), lags=1, extra_lags={"a": (("b", 3),)}),
            ModelSpecError,
            "extra lags support orders 1 and 2 only",
        ),
        (lambda: sv.SvarSpec.from_json(["a", "b"]), ModelSpecError, "spec file must hold a JSON object"),
        # a panel of as many periods as the lag order leaves none to estimate on
        (lambda: sv.estimate_svar_arrays(_TWO, _PANEL[:2, :]), SampleError, "aligned sample shorter than the lag order"),
        (lambda: sv.estimate_svar_stack(_TWO, _PANEL[None, :2]), SampleError, "aligned sample shorter than the lag order"),
        (lambda: sv.estimate_svar_arrays(_TWO, _PANEL[:, :3]), ModelSpecError, "data matrix must have 4 columns"),
        (lambda: sv.estimate_svar_arrays(_TWO, _PANEL[None]), ModelSpecError, "data matrix must have 4 columns"),
        (lambda: sv.estimate_svar_stack(_TWO, _PANEL[None, :, :3]), ModelSpecError, "data stack must be (panels, periods, 4)"),
        (lambda: sv.estimate_svar_stack(_TWO, _PANEL), ModelSpecError, "data stack must be (panels, periods, 4)"),
        (lambda: _estimate_with_A0(np.eye(2)[:, :1]), ModelSpecError, "A0 must be m x m"),
        (lambda: _estimate_with_A0(2.0 * np.eye(2)), ModelSpecError, "A0 diagonal must be exactly 1"),
        (lambda: _estimate_with_A0(np.diag([1.000005, 1.0])), ModelSpecError, "A0 diagonal must be exactly 1"),
        (lambda: _estimate_with_A0(np.array([[1.0, 0.5], [0.0, 1.0]])), ModelSpecError, "A0 must be lower triangular"),
    ],
    ids=[
        "duplicate-ordering", "extra-lag-3", "spec-not-object", "arrays-short", "stack-short",
        "arrays-columns", "arrays-3d", "stack-columns", "stack-2d", "A0-not-square", "A0-diagonal",
        "A0-diagonal-near-1", "A0-upper",
    ],
)
def test_model_refusals_raise_their_error(refused, error, message):
    with pytest.raises(NewsvarError) as info:
        refused()
    assert (type(info.value), str(info.value)) == (error, message)


# ---------------------------------------------------------------------------
# reduced form
# ---------------------------------------------------------------------------


def test_reduced_form_trivial_cases():
    spec = sv.SvarSpec(ordering=("a", "b"), lags=1, intervention=(True, False))
    base = dict(
        spec=spec,
        A0=np.eye(2),
        gamma0s=np.zeros(2),
        gamma1s=np.zeros(2),
        Dw=np.zeros((2, 0)),
        a_q=np.zeros(2),
        sigma=np.ones(2),
        s_rho=0.5,
        s_intercept=0.0,
        s_omega=1.0,
        c_transition=np.zeros((0, 0)),
        c_intercept=np.zeros(0),
        c_sd=np.zeros(0),
    )
    zero = sv.SvarEstimate(A1=np.zeros((2, 2)), A2=np.zeros((2, 2)), **base)
    rf = sv.reduced_form(zero)
    assert np.allclose(rf.Phi1, 0.0) and np.allclose(rf.Phi2, 0.0)
    assert np.allclose(rf.eigenvalues, 0.0)
    half = sv.SvarEstimate(A1=0.5 * np.eye(2), A2=np.zeros((2, 2)), **base)
    rf = sv.reduced_form(half)
    assert np.allclose(rf.Phi1, 0.5 * np.eye(2))
    assert np.allclose(sorted(np.abs(rf.eigenvalues))[-2:], 0.5)
    assert rf.stationary


def test_reduced_form_matches_independent_eigenvalues():
    rng = np.random.default_rng(22)
    truth = random_stable_system(rng, m=4, k=1)
    rf = sv.reduced_form(truth)
    m = truth.m
    companion = np.zeros((2 * m, 2 * m))
    companion[:m, :m] = rf.Phi1
    companion[:m, m:] = rf.Phi2
    companion[m:, :m] = np.eye(m)
    poly_roots = np.linalg.eigvals(companion)
    assert np.allclose(sorted(np.abs(rf.eigenvalues)), sorted(np.abs(poly_roots)))
    assert rf.stationary
    assert np.max(np.abs(rf.eigenvalues)) < 1.0


def test_estimate_json_export():
    rng = np.random.default_rng(23)
    truth = random_stable_system(rng, m=2, k=1)
    est = sv.estimate_svar_arrays(truth.spec, simulate_panel(truth, 400, rng))
    payload = sv.estimate_to_json(est)
    assert payload["variables"] == list(truth.variables)
    assert np.array_equal(np.array(payload["A0"]), est.A0)
    assert payload["controls_process"]["kind"] == "ar1"
    json.dumps(payload)  # serializable


# ---------------------------------------------------------------------------
# stacked estimation: nested designs share one QR
# ---------------------------------------------------------------------------

CHAIN_PROPERTY = settings(max_examples=80, deadline=None, derandomize=True, database=None)


@st.composite
def chain_problems(draw):
    """A spec whose designs may or may not nest, a flag and a (5, 40, columns)
    stack: a clean panel, then one with a constant series, a duplicated
    column, a NaN cell and a column equal to another up to 1e-6 relative noise."""
    m = draw(st.integers(1, 5), label="m")
    k = draw(st.integers(0, 2), label="k")
    ordering = tuple(f"v{i}" for i in range(m))
    lag_order = st.sampled_from([1, 2])
    if draw(st.booleans(), label="shared lags"):
        lags = draw(lag_order)
        base = dict.fromkeys(ordering, lags)
    else:
        lags = base = {eq: draw(lag_order) for eq in ordering}
    # a second lag in one equation and not in a later one breaks the nesting
    extra_lags = {}
    for eq in ordering:
        if base[eq] == 1:
            names = draw(st.lists(st.sampled_from(ordering), unique=True, max_size=2))
            if names:
                extra_lags[eq] = tuple((name, 2) for name in names)
    flags = st.tuples(st.booleans(), st.booleans())
    if draw(st.booleans(), label="shared intervention flags"):
        intervention = draw(flags)
    else:
        intervention = {eq: draw(flags) for eq in ordering}
    spec = sv.SvarSpec(
        ordering=ordering,
        lags=lags,
        extra_lags=extra_lags,
        intervention=intervention,
        controls=tuple(f"g{j}" for j in range(k)),
    )
    width = m + 1 + k
    column = st.integers(0, width - 1)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    Z = rng.normal(size=(5, 40, width))
    Z[1, :, draw(column, label="constant")] = 0.25
    source = draw(column, label="source")
    target = draw(column.filter(lambda j: j != source), label="target")
    Z[2, :, target] = Z[2, :, source]
    Z[3, draw(st.integers(0, 39), label="NaN row"), draw(column, label="NaN column")] = np.nan
    Z[4, :, target] = Z[4, :, source] * (1 + 1e-6 * rng.normal(size=40))
    return spec, draw(st.booleans(), label="controls_var1"), Z


@CHAIN_PROPERTY
@given(chain_problems())
def test_stacked_estimate_matches_equation_by_equation(problem):
    # the stack and the point estimate (the stack of one plus its residuals)
    # against the equation-by-equation lstsq reference
    spec, controls_var1, Z = problem
    stack = sv.estimate_svar_stack(spec, Z, controls_var1=controls_var1)
    for c in range(Z.shape[0]):
        ref = lstsq_reference(spec, Z[c], controls_var1)
        try:
            est = sv.estimate_svar_arrays(spec, Z[c], controls_var1=controls_var1)
        except NewsvarError:
            est = None
        assert stack.ok[c] == (ref is not None) == (est is not None), c
        if ref is None:
            continue
        # backward-stable solvers agree to O(cond^2 eps): 1e-10 on the well
        # conditioned panels, looser only where a column is nearly collinear
        cond = max(np.linalg.cond(X) for X in equation_designs(spec, Z[c]))
        tol = max(1e-10, cond**2 * np.finfo(float).eps)
        one = stack.select(c)
        compared = [(one, f.name) for f in fields(sv.SvarStack) if f.name not in ("spec", "ok")]
        compared += [(est, name) for _, name in compared] + [(est, "residuals")]
        if ref.controls_var1:
            compared.append((est, "c_omega"))
        for got, name in compared:
            want = getattr(ref, name)
            scale = max(1.0, float(np.abs(want).max(initial=0.0)))
            assert np.max(np.abs(getattr(got, name) - want), initial=0.0) <= tol * scale, (c, name)
        # each equation's table, read off its chain, against ols on its own design
        for i, (X, fit) in enumerate(zip(equation_designs(spec, Z[c]), est.fits)):
            terms = spec.equation_regressors(spec.ordering[i])
            labels = [name if lag_ == 0 else f"{name}.L{lag_}" for name, lag_ in terms]
            want = reg.ols(Z[c, spec.max_lag :, i], X[:, 1:], names=labels)
            assert fit.names == want.names, (c, i)
            for name in ("coefficients", "standard_errors", "covariance", "residuals", "sigma_hat"):
                value = np.asarray(getattr(want, name))
                scale = max(1.0, float(np.abs(value).max()))
                assert np.max(np.abs(getattr(fit, name) - value)) <= tol * scale, (c, i, name)


@CHAIN_PROPERTY
@given(chain_problems())
def test_chain_designs_built_by_slabs_equal_their_stacked_columns(problem):
    # each chain design is filled one slab per run of adjacent panel columns
    # at one lag; it equals the constant and the chain's columns stacked one
    # by one, and no two neighbouring slabs could have been one.  Each panel's
    # design is column-major, the layout the QR copies into LAPACK's buffer
    spec, controls_var1, Z = problem
    _, factored = sv._estimate_stack(spec, Z, controls_var1)
    col = {name: j for j, name in enumerate(spec.columns)}
    M, N = spec.max_lag, Z.shape[1]
    for chain in spec._chains:
        A = factored[chain.equations[0]][0]
        columns = [Z[:, M - lag : N - lag, col[name]] for name, lag in chain.columns]
        want = np.stack([np.ones((len(Z), N - M))] + columns, axis=-1)
        assert all(design.flags.f_contiguous for design in A)
        assert np.array_equal(A, want, equal_nan=True)
        assert chain.slabs[0][0] == 1
        assert sum(width for *_, width in chain.slabs) == len(chain.columns)
        for (j, lag, c, width), (j2, lag2, c2, _) in zip(chain.slabs, chain.slabs[1:]):
            assert j2 == j + width
            assert (lag2, c2) != (lag, c + width)


@pytest.mark.parametrize(
    "spec_json, controls_var1, chains, exogenous, planted",
    [
        # the stress_bands shape: one chain of six equations; s AR(1), control
        # VAR(1).  Planted q6 = q5 gives the chain equal lag columns and leaves
        # the exogenous fits alone
        (
            {"ordering": [f"q{i}" for i in range(1, 7)], "lags": 2, "controls": ["g1", "g2"]},
            True,
            1,
            2,
            (5, 4, 0),
        ),
        # the paper_bands shape: chains [de, dm, dp] and [dy]; one stacked AR(1)
        # fit.  Planted dyw_t = dp_{t-2} copies dp.L2, which only dp's design holds
        (
            {
                "ordering": ["de", "dm", "dp", "dy"],
                "lags": 1,
                "per_equation_extras": {"dp": [["dp", 2]]},
                "controls": ["dyw"],
            },
            False,
            2,
            1,
            (5, 2, 2),
        ),
    ],
)
def test_stacked_estimate_factorizes_once_per_chain(
    monkeypatch, spec_json, controls_var1, chains, exogenous, planted
):
    # the stack, and the point estimate on a stack of one, run one QR per chain
    # and per exogenous fit and, where every design is certified full rank from
    # its R, no SVD; the point estimate reads its equation tables off those QRs
    # and calls no ols
    spec = sv.SvarSpec.from_json(spec_json)
    Z = np.random.default_rng(0).normal(size=(3, 60, spec.m + 1 + len(spec.controls)))
    calls = {"qr": 0, "svd": 0, "ols": 0}
    svd_inputs = []
    real_svd = np.linalg.svd
    for owner, name in ((np.linalg, "qr"), (np.linalg, "svd"), (reg, "ols"), (sv, "ols")):
        real = getattr(owner, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            if _name == "svd":
                svd_inputs.append(np.array(args[0]))
            return _real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    stack = sv.estimate_svar_stack(spec, Z, controls_var1=controls_var1)
    assert stack.ok.all()
    assert calls == {"qr": chains + exogenous, "svd": 0, "ols": 0}
    calls.update(qr=0)
    sv.estimate_svar_arrays(spec, Z[0], controls_var1=controls_var1)
    assert calls == {"qr": chains + exogenous, "svd": 0, "ols": 0}

    # slice 1 of 3 planted rank-deficient in one chain: the SVD runs once, on
    # that slice's R of that chain alone
    target, source, shift = planted
    Z[1, shift:, target] = Z[1, : Z.shape[1] - shift, source]
    calls.update(qr=0)
    stack = sv.estimate_svar_stack(spec, Z, controls_var1=controls_var1)
    assert stack.ok.tolist() == [True, False, True]
    assert calls == {"qr": chains + exogenous, "svd": 1, "ols": 0}
    (R,) = svd_inputs
    assert R.shape[0] == 1
    S = real_svd(R[0], compute_uv=False)
    assert S[-1] < 1e-10 * S[0]


@pytest.mark.parametrize("controls_var1", [False, True])
def test_stack_slices_move_no_bit(monkeypatch, controls_var1):
    # the chains are fit slice by slice under the design budget: the default
    # one slice of 11, slices of one panel, and slices of 4, 4, 3 give the
    # same flags and the same bits
    rng = np.random.default_rng(41)
    truth = random_stable_system(rng, m=2, k=2, radius=0.5)
    spec = truth.spec
    Z = np.stack([simulate_panel(truth, 90, rng) for _ in range(11)])
    Z[3, :, spec.m] = 0.25  # a flat intervention
    Z[7, 0, spec.m] = np.nan  # a row only the intervention's AR(1) reads
    nobs = Z.shape[1] - spec.max_lag
    widest = 1 + max(len(spec.equation_regressors(eq)) for eq in spec.ordering)
    assert sv.stack_slice(spec, nobs) >= 11
    stacks = [sv.estimate_svar_stack(spec, Z, controls_var1=controls_var1)]
    for panels in (1, 4):
        monkeypatch.setattr(sv, "SLICE_DESIGN_BYTES", panels * 8 * nobs * widest)
        assert sv.stack_slice(spec, nobs) == panels
        stacks.append(sv.estimate_svar_stack(spec, Z, controls_var1=controls_var1))
    ok = np.array([c not in (3, 7) for c in range(11)])
    for stack in stacks:
        assert np.array_equal(stack.ok, ok)
        for f in fields(sv.SvarStack):
            if f.name not in ("spec", "ok"):
                got, want = getattr(stack, f.name)[ok], getattr(stacks[0], f.name)[ok]
                assert np.array_equal(got, want), f.name


def _numbers(payload):
    """The numbers of a JSON payload, in a fixed order."""
    if isinstance(payload, dict):
        return [x for key in sorted(payload) for x in _numbers(payload[key])]
    if isinstance(payload, list):
        return [x for value in payload for x in _numbers(value)]
    return [float(payload)] if isinstance(payload, (int, float)) else []


@pytest.mark.parametrize("workload, seed", [("paper_bands", 11), ("stress_bands", 13)])
def test_point_outputs_on_benchmark_inputs_match_the_reference_within_1e_14(
    tmp_path, monkeypatch, workload, seed
):
    # the bound README states for estimate.json, irf.csv, fevd.csv and
    # plot_irf.json: the stacked point estimate's outputs lie within 1e-14
    # of those of the equation-by-equation lstsq reference
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    gen = importlib.import_module("gen")
    gen.generate(workload, seed, tmp_path)
    model = json.loads((tmp_path / "config.json").read_text(encoding="utf-8"))["model"]
    spec = sv.SvarSpec.from_json(json.loads((tmp_path / "spec.json").read_text(encoding="utf-8")))
    data = {name: ts.read_series_csv(tmp_path / rel) for name, rel in model["data"].items()}
    est = sv.estimate_svar(spec, data, controls_var1=model["controls_var1"])
    ref = lstsq_reference(spec, sv.aligned_matrix(spec, data)[0], model["controls_var1"])
    horizon = model["horizon"]
    pairs = [(_numbers(sv.estimate_to_json(est)), _numbers(sv.estimate_to_json(ref)))]
    for method in ("direct", "stacked"):
        got, want = (dyn.irf_all(e, horizon, method=method) for e in (est, ref))
        pairs += [(got.responses[shock], want.responses[shock]) for shock in got.shocks]
        got, want = (dyn.fevd(e, horizon, method=method) for e in (est, ref))
        pairs += [(got.shares[v], want.shares[v]) for v in got.variables]
    assert max(float(np.max(np.abs(np.subtract(a, b)))) for a, b in pairs) <= 1e-14
