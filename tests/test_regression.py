from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from newsvar import regression as reg
from newsvar import timeseries as ts
from newsvar.errors import (
    CollinearityError,
    DegenerateDataError,
    DomainError,
    NonstationaryError,
    SampleError,
)


def quarterly(values, year=1990):
    return ts.CalendarSeries(
        ts.Frequency.QUARTERLY,
        ts.CalendarKind.GREGORIAN,
        ts.PeriodLabel(year, 1),
        np.asarray(values, dtype=float),
    )


# ---------------------------------------------------------------------------
# OLS
# ---------------------------------------------------------------------------


def test_ols_exact_fit():
    x = np.arange(1.0, 11.0)
    fit = reg.ols(2.0 * x, x, names=("x",))
    assert fit.coefficient("x") == pytest.approx(2.0, abs=1e-12)
    assert fit.coefficient("const") == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(fit.residuals, 0.0, atol=1e-12)
    assert fit.adjusted_r2 == pytest.approx(1.0)


def test_ols_orthogonal_regressor_stays_near_zero():
    rng = np.random.default_rng(0)
    n = 10_000
    X = rng.normal(size=(n, 2))
    y = rng.normal(size=n)
    fit = reg.ols(y, X)
    for name in ("x1", "x2"):
        assert abs(fit.coefficient(name)) < 3 * fit.se(name)


def test_ols_recovers_known_coefficients():
    rng = np.random.default_rng(1)
    n = 20_000
    beta = np.array([0.5, -1.25, 2.0])
    X = rng.normal(size=(n, 3))
    y = 0.7 + X @ beta + rng.normal(size=n)
    fit = reg.ols(y, X, names=("a", "b", "c"))
    for name, true in zip(("a", "b", "c"), beta):
        assert abs(fit.coefficient(name) - true) < 3 * fit.se(name)
    assert abs(fit.coefficient("const") - 0.7) < 3 * fit.se("const")


def test_ols_residuals_orthogonal_to_design():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(200, 4))
    y = X @ rng.normal(size=4) + rng.normal(size=200)
    fit = reg.ols(y, X)
    gram = fit.design.T @ fit.residuals
    scale = np.abs(fit.design).sum(axis=0)
    assert np.max(np.abs(gram) / scale) < 1e-8


def test_ols_intercept_absorbs_level_shift():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(150, 2))
    y = X @ np.array([1.0, -2.0]) + rng.normal(size=150)
    a = reg.ols(y, X)
    b = reg.ols(y + 10.0, X)
    assert b.coefficient("const") - a.coefficient("const") == pytest.approx(10.0, abs=1e-9)
    assert np.allclose(a.coefficients[1:], b.coefficients[1:], atol=1e-9)


def test_ols_names_dependent_columns():
    rng = np.random.default_rng(4)
    x = rng.normal(size=100)
    X = np.column_stack([x, 2.0 * x, rng.normal(size=100)])
    # either member of the dependent pair may be reported
    with pytest.raises(CollinearityError, match="x|double"):
        reg.ols(np.ones(100), X, names=("x", "double", "z"))


def test_ols_sample_size_guard():
    with pytest.raises(SampleError):
        reg.ols(np.ones(3), np.eye(3))


# ---------------------------------------------------------------------------
# stacked least-squares kernel
# ---------------------------------------------------------------------------

KERNEL_PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def stacked_problems(draw, min_k=1):
    """(X, Y) stacks of Gaussian designs: (C, n, k) and (C, n, q)."""
    k = draw(st.integers(min_k, 6))
    n = draw(st.integers(k + 1, 40))
    C = draw(st.integers(1, 4))
    q = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.normal(size=(C, n, k)), rng.normal(size=(C, n, q))


def stack_as_chain(X, Y):
    """q regressions on one design X as the chain [X, Y] with fits (k, k + j)."""
    k, q = X.shape[2], Y.shape[2]
    return np.concatenate([X, Y], axis=2), [(k, k + j) for j in range(q)]


@KERNEL_PROPERTY
@given(stacked_problems())
def test_lstsq_chain_matches_numpy_lstsq_slice_by_slice_on_a_stack(problem):
    X, Y = problem
    fit = reg.lstsq_chain(*stack_as_chain(X, Y))
    assert fit.full_rank.all()
    for c in range(X.shape[0]):
        want, _, _, _ = np.linalg.lstsq(X[c], Y[c], rcond=None)
        # both solvers are backward stable; their answers differ by O(cond^2 eps)
        tol = 1e-13 * np.linalg.cond(X[c]) ** 2 * max(1.0, float(np.abs(want).max()))
        assert np.max(np.abs(fit.coefficients[c] - want)) <= tol
        resid = Y[c] - X[c] @ want
        assert np.allclose(fit.ssr[c], np.sum(resid**2, axis=0), rtol=1e-9, atol=1e-12)
        # the kernel keeps no residuals; ols computes them from its fit, on
        # a constant and X, which takes one more observation
        if X.shape[1] > X.shape[2] + 1:
            design = np.column_stack([np.ones(X.shape[1]), X[c]])
            with_const, _, _, _ = np.linalg.lstsq(design, Y[c], rcond=None)
            ols_resid = [reg.ols(y, X[c]).residuals for y in Y[c].T]
            assert np.allclose(np.column_stack(ols_resid), Y[c] - design @ with_const, rtol=0, atol=1e-9)


@KERNEL_PROPERTY
@given(stacked_problems(), st.data())
def test_lstsq_chain_rank_mask_matches_matrix_rank(problem, data):
    X, Y = problem
    C, n, k = X.shape
    for c in range(C):
        if not data.draw(st.booleans(), label=f"plant in slice {c}"):
            continue
        target = data.draw(st.integers(0, k - 1), label="dependent column")
        if k == 1:
            X[c, :, target] = 0.0
        else:
            source = data.draw(
                st.integers(0, k - 1).filter(lambda j: j != target), label="source column"
            )
            factor = data.draw(st.sampled_from([2.0, -0.5, 8.0]), label="factor")
            X[c, :, target] = factor * X[c, :, source]
    fit = reg.lstsq_chain(*stack_as_chain(X, Y))
    ranks = [int(np.linalg.matrix_rank(X[c])) for c in range(C)]
    assert fit.rank.tolist() == ranks
    assert fit.full_rank.tolist() == [r == k for r in ranks]
    assert np.isnan(fit.coefficients[~fit.full_rank]).all()
    assert np.isfinite(fit.coefficients[fit.full_rank]).all()


@st.composite
def mixed_stacks(draw):
    """(X, Y, kinds): a (C, n, k) stack whose slices are clean, near-collinear
    (``factor * source + delta * noise``, delta 1e-6 to 1e-16 of the column
    scale), with an all-zero column, or holding a NaN or inf."""
    k = draw(st.integers(2, 6))
    n = draw(st.integers(k + 1, 40))
    kinds = draw(st.lists(st.sampled_from(["clean", "near", "zero", "nonfinite"]), min_size=2, max_size=5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X, Y = rng.normal(size=(len(kinds), n, k)), rng.normal(size=(len(kinds), n, 2))
    for c, kind in enumerate(kinds):
        target, source = rng.permutation(k)[:2]
        if kind == "near":
            column = draw(st.sampled_from([2.0, -0.5, 8.0]), label="factor") * X[c, :, source]
            delta = 10.0 ** -rng.uniform(6, 16)
            X[c, :, target] = column + delta * np.abs(column).max() * rng.normal(size=n)
        elif kind == "zero":
            X[c, :, target] = 0.0
        elif kind == "nonfinite":
            panel = draw(st.sampled_from([X, Y]), label="X or Y")
            panel[c, rng.integers(n), 0] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return X, Y, kinds


@KERNEL_PROPERTY
@given(mixed_stacks())
def test_lstsq_chain_certified_verdicts_match_the_svd_rule_and_the_batch_moves_no_bit(problem):
    # slices near the rank threshold must fail the SVD-free certificate and
    # take matrix_rank's rule; the rule is applied to the kernel's R with
    # max(n, k) * eps, as for the design itself
    X, Y, kinds = problem
    C, n, k = X.shape
    A, fits = stack_as_chain(X, Y)
    fit = reg.lstsq_chain(A, fits)
    for c, kind in enumerate(kinds):
        if kind == "nonfinite":
            assert fit.rank[c] == 0
        else:
            assert fit.rank[c] == np.linalg.matrix_rank(fit.R[c], rtol=max(n, k) * np.finfo(float).eps)
        alone = reg.lstsq_chain(A[c : c + 1], fits)
        assert alone.rank[0] == fit.rank[c]
        assert np.array_equal(alone.coefficients[0], fit.coefficients[c], equal_nan=True)
        assert np.array_equal(alone.ssr[0], fit.ssr[c], equal_nan=True)


@st.composite
def chain_problems(draw):
    """(A, fits): a (C, n, K) stack with nested fits (p_j, c_j), P = max p_j
    <= n but K often above n, and several dependent columns per width."""
    P = draw(st.integers(1, 6))
    n = draw(st.integers(P, P + 8))
    K = P + draw(st.integers(1, 8))
    C = draw(st.integers(1, 3))
    widths = sorted(set(draw(st.lists(st.integers(1, P), max_size=4))) | {P})
    fits = [
        (p, column)
        for p in widths
        for column in draw(st.lists(st.integers(p, K - 1), min_size=1, max_size=3, unique=True))
    ]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.normal(size=(C, n, K)), fits


@KERNEL_PROPERTY
@given(chain_problems())
def test_lstsq_chain_matches_numpy_lstsq_fit_by_fit(problem):
    A, fits = problem
    fit = reg.lstsq_chain(A, fits)
    assert fit.full_rank.all()
    for c in range(A.shape[0]):
        for j, (p, column) in enumerate(fits):
            X, y = A[c, :, :p], A[c, :, column]
            want, _, _, _ = np.linalg.lstsq(X, y, rcond=None)
            tol = 1e-13 * np.linalg.cond(X) ** 2 * max(1.0, float(np.abs(want).max()))
            assert np.max(np.abs(fit.coefficients[c, :p, j] - want)) <= tol
            assert (fit.coefficients[c, p:, j] == 0.0).all()
            resid = y - X @ want
            assert np.isclose(fit.ssr[c, j], resid @ resid, rtol=1e-9, atol=1e-12)


@KERNEL_PROPERTY
@given(chain_problems(), st.data())
def test_lstsq_chain_reads_a_column_major_stack_bit_for_bit(problem, data):
    # the QR copies each design into LAPACK's column-major buffer from either
    # layout, so a column-major stack gives the row-major call's numbers exactly
    A, fits = problem
    C, n, K = A.shape
    for c in data.draw(st.lists(st.integers(0, C - 1), unique=True), label="non-finite panels"):
        cell = data.draw(st.tuples(st.integers(0, n - 1), st.integers(0, K - 1)), label="cell")
        A[(c, *cell)] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]), label="value")
    F = np.empty((C, K, n)).transpose(0, 2, 1)
    F[...] = A
    assert all(panel.flags.f_contiguous for panel in F)
    want, got = reg.lstsq_chain(A, fits), reg.lstsq_chain(F, fits)
    for name in ("coefficients", "ssr", "rank", "R"):
        assert np.array_equal(getattr(got, name), getattr(want, name), equal_nan=True), name


@pytest.mark.parametrize(
    "fits",
    [[], [(0, 1)], [(2, 1)], [(1, 4)], [(3, 3)], [(1, 1), (2, 4)], [(2, 3), (3, 3)]],
)
def test_lstsq_chain_refuses_fits_outside_the_chain(fits):
    # a (2, 4) chain: widths 1..2, each dependent column from its width to 3
    with pytest.raises(ValueError) as info:
        reg.lstsq_chain(np.ones((1, 2, 4)), fits)
    assert str(info.value) == f"fits {fits} do not fit a (2, 4) chain"


@KERNEL_PROPERTY
@given(stacked_problems(min_k=2), st.data())
def test_ols_names_a_planted_dependent_column(problem, data):
    X, Y = problem
    X, y = X[0], Y[0, :, 0]
    n, k = X.shape
    if n <= k + 1:  # the intercept takes one more observation
        X, y = np.vstack([X, X]), np.concatenate([y, y])
    target = data.draw(st.integers(0, k - 1), label="dependent column")
    source = data.draw(st.integers(0, k - 1).filter(lambda j: j != target), label="source column")
    X[:, target] = 2.0 * X[:, source]
    names = tuple(f"r{j}" for j in range(k))
    with pytest.raises(CollinearityError) as info:
        reg.ols(y, X, names=names)
    reported = str(info.value).split("dependent columns: ")[1].split(", ")
    assert reported and set(reported) <= {names[target], names[source]}


def test_ols_rejects_non_finite_inputs():
    x = np.arange(10.0)
    x[3] = np.nan
    with pytest.raises(DomainError):
        reg.ols(np.arange(10.0), x)


# ---------------------------------------------------------------------------
# serial-correlation test
# ---------------------------------------------------------------------------


def independent_bg_oracle(fit, lags):
    """n * R^2 of the auxiliary regression, coded from scratch."""
    e = fit.residuals
    n = e.size
    lagged = np.zeros((n, lags))
    for j in range(1, lags + 1):
        lagged[j:, j - 1] = e[:-j]
    aux = np.column_stack([fit.design, lagged])
    # normal equations, not lstsq, to stay independent of the implementation
    beta = np.linalg.solve(aux.T @ aux, aux.T @ e)
    resid = e - aux @ beta
    tss = np.sum((e - e.mean()) ** 2)
    return n * (1.0 - resid @ resid / tss)


def test_bg_zero_residuals():
    x = np.arange(1.0, 40.0)
    fit = reg.ols(3.0 * x, x)
    result = reg.breusch_godfrey(fit, lags=4)
    assert result.lm_stat == pytest.approx(0.0, abs=1e-16)
    assert result.p_value == 1.0


def test_bg_matches_independent_oracle():
    rng = np.random.default_rng(6)
    for _ in range(10):
        X = rng.normal(size=(120, 3))
        y = X @ rng.normal(size=3) + rng.normal(size=120)
        fit = reg.ols(y, X)
        result = reg.breusch_godfrey(fit, lags=4)
        assert result.lm_stat == pytest.approx(independent_bg_oracle(fit, 4), abs=1e-10)


def test_bg_size_close_to_nominal():
    rng = np.random.default_rng(7)
    reps, n = 800, 150
    rejections = 0
    for _ in range(reps):
        X = rng.normal(size=(n, 2))
        y = 0.5 + X @ np.array([1.0, -1.0]) + rng.normal(size=n)
        rejections += reg.breusch_godfrey(reg.ols(y, X), lags=4).p_value < 0.05
    assert 0.03 <= rejections / reps <= 0.07


def test_bg_detects_ar1_errors():
    rng = np.random.default_rng(8)
    hits = 0
    reps = 50
    for _ in range(reps):
        n = 125
        X = rng.normal(size=(n, 2))
        e = np.zeros(n)
        for t in range(1, n):
            e[t] = 0.5 * e[t - 1] + rng.normal()
        y = X @ np.array([1.0, 1.0]) + e
        hits += reg.breusch_godfrey(reg.ols(y, X), lags=4).p_value < 0.01
    assert hits >= int(0.99 * reps)


def test_bg_sample_guard():
    fit = reg.ols(np.arange(8.0), np.arange(8.0) ** 2)
    with pytest.raises(SampleError):
        reg.breusch_godfrey(fit, lags=6)


# The p-values call scipy.special directly, so that loading the package does
# not import scipy.stats; they must stay bit-identical to the distributions'.


@KERNEL_PROPERTY
@given(
    t=st.lists(st.floats(-60.0, 60.0), min_size=1, max_size=8),
    dof=st.integers(1, 5000),
    scale=st.floats(1e-3, 1e3),
)
def test_pvalues_equal_scipy_t_sf_exactly(t, dof, scale):
    x = np.arange(1.0, 12.0)
    fit = reg.ols(2.0 * x + np.sin(x), x)
    t = np.asarray(t)
    k = t.size
    fit = replace(
        fit,
        coefficients=t * scale,
        standard_errors=np.full(k, scale),
        nobs=dof + k,
        nregressors=k,
    )
    want = 2.0 * stats.t.sf(np.abs(fit.coefficients / fit.standard_errors), dof)
    assert np.array_equal(fit.pvalues(), want)


@KERNEL_PROPERTY
@given(
    n=st.integers(30, 200),
    lags=st.integers(1, 8),
    rho=st.floats(-0.9, 0.9),
    seed=st.integers(0, 2**32 - 1),
)
def test_bg_p_value_equals_scipy_chi2_sf_exactly(n, lags, rho, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 2))
    e = rng.normal(size=n)
    for i in range(1, n):
        e[i] += rho * e[i - 1]
    result = reg.breusch_godfrey(reg.ols(X @ np.ones(2) + e, X), lags=lags)
    assert result.p_value == float(stats.chi2.sf(result.lm_stat, lags))


# ---------------------------------------------------------------------------
# autoregression fits
# ---------------------------------------------------------------------------


def simulate_ar1(rng, n, intercept, rho, omega):
    x = np.zeros(n)
    for t in range(1, n):
        x[t] = intercept + rho * x[t - 1] + rng.normal(0, omega)
    return x


def test_ar1_recovers_published_scale_parameters():
    # persistence 0.743, intercept 0.063, innovation sd 0.125
    rng = np.random.default_rng(9)
    x = simulate_ar1(rng, 10_000, 0.063, 0.743, 0.125)
    fit = reg.ar_fit(quarterly(x), p=1)
    assert abs(fit.coefficients[0] - 0.743) < 3 * fit.fit.se("lag1")
    assert abs(fit.intercept - 0.063) < 3 * fit.fit.se("const")
    assert fit.omega == pytest.approx(0.125, rel=0.05)


def test_ar1_white_noise_has_no_persistence():
    rng = np.random.default_rng(10)
    fit = reg.ar_fit(rng.normal(size=5000), p=1)
    assert abs(fit.coefficients[0]) < 3 * fit.fit.se("lag1")


def test_ar2_recovery():
    rng = np.random.default_rng(14)
    n = 20_000
    x = np.zeros(n)
    for t in range(2, n):
        x[t] = 0.1 + 0.5 * x[t - 1] + 0.3 * x[t - 2] + rng.normal()
    fit = reg.ar_fit(x, p=2)
    assert abs(fit.coefficients[0] - 0.5) < 3 * fit.fit.se("lag1")
    assert abs(fit.coefficients[1] - 0.3) < 3 * fit.fit.se("lag2")


def test_ar_fit_rejects_constant_series():
    with pytest.raises(DegenerateDataError):
        reg.ar_fit(np.full(50, 2.5), p=1)


# ---------------------------------------------------------------------------
# long-run effects
# ---------------------------------------------------------------------------


def planted_fit(names, coefficients, covariance):
    coefficients = np.asarray(coefficients, dtype=float)
    covariance = np.asarray(covariance, dtype=float)
    k = coefficients.size
    return reg.RegressionFit(
        names=tuple(names),
        coefficients=coefficients,
        standard_errors=np.sqrt(np.diag(covariance)),
        covariance=covariance,
        residuals=np.zeros(k + 1),
        sigma_hat=1.0,
        r2=0.0,
        adjusted_r2=0.0,
        nobs=k + 1,
        nregressors=k,
        design=np.zeros((k + 1, k)),
    )


def test_long_run_effect_published_ratio():
    fit = planted_fit(
        ("const", "s.L1", "dy.L1"),
        [0.0, -0.037, -0.186],
        np.diag([1e-6, 0.016**2, 0.089**2]),
    )
    effect = reg.long_run_effect(fit, "s.L1", "dy.L1")
    assert effect.theta == pytest.approx(-0.0312, abs=5e-4)
    assert round(effect.theta, 3) == -0.031


def test_long_run_effect_static_identity():
    # zero persistence with no covariance mass on it is the static effect:
    # the coefficient and its own standard error
    fit = planted_fit(("const", "s", "dy.L1"), [0.0, -0.04, 0.0], np.diag([1e-6, 0.02**2, 0.0]))
    effect = reg.long_run_effect(fit, "s", "dy.L1")
    assert effect.theta == pytest.approx(-0.04)
    assert effect.se == pytest.approx(0.02)


def test_long_run_effect_two_effect_coefficients():
    fit = planted_fit(
        ("const", "s", "s.L1", "dy.L1"),
        [0.0, 0.021, -0.058, -0.191],
        np.diag([1e-6, 0.022**2, 0.023**2, 0.089**2]),
    )
    effect = reg.long_run_effect(fit, ("s", "s.L1"), "dy.L1")
    assert effect.theta == pytest.approx((0.021 - 0.058) / (1 + 0.191), abs=1e-12)
    assert effect.theta == pytest.approx(-0.0311, abs=5e-4)


def test_long_run_effect_delta_method_matches_monte_carlo():
    rng = np.random.default_rng(12)
    n = 400
    thetas = []
    ses = []
    for _ in range(300):
        s = simulate_ar1(rng, n, 0.05, 0.6, 0.1)
        dy = np.zeros(n)
        for t in range(1, n):
            dy[t] = 0.01 + 0.3 * dy[t - 1] - 0.5 * s[t - 1] + rng.normal(0, 0.05)
        X = np.column_stack([dy[:-1], s[:-1]])
        fit = reg.ols(dy[1:], X, names=("dy.L1", "s.L1"))
        effect = reg.long_run_effect(fit, "s.L1", "dy.L1")
        thetas.append(effect.theta)
        ses.append(effect.se)
    # delta-method SE should track the sampling spread of theta
    assert np.mean(ses) == pytest.approx(np.std(thetas), rel=0.2)
    assert np.mean(thetas) == pytest.approx(-0.5 / 0.7, rel=0.05)


def test_long_run_effect_nonstationary_guard():
    fit = planted_fit(("const", "s", "dy.L1"), [0.0, -0.04, 1.0], np.eye(3))
    with pytest.raises(NonstationaryError):
        reg.long_run_effect(fit, "s", "dy.L1")


# ---------------------------------------------------------------------------
# relative series
# ---------------------------------------------------------------------------


def test_relative_series_identical_inputs_are_zero():
    levels = quarterly([100.0, 105.0, 103.0, 110.0])
    out = reg.relative_series(levels, levels)
    assert np.allclose(out.values, 0.0, atol=1e-15)


def test_relative_series_constant_region_is_domestic_growth():
    domestic = quarterly([100.0, 105.0, 110.0])
    region = quarterly([50.0, 50.0, 50.0])
    out = reg.relative_series(domestic, region)
    assert np.allclose(out.values, ts.log_diff(domestic).values)


def test_relative_series_growth_gap():
    n = 8
    domestic = quarterly(100.0 * 1.02 ** np.arange(n))
    region = quarterly(100.0 * 1.01 ** np.arange(n))
    out = reg.relative_series(domestic, region)
    assert np.allclose(out.values, np.log(1.02) - np.log(1.01))
    assert out.values[0] == pytest.approx(0.01, abs=5e-4)


# ---------------------------------------------------------------------------
# summaries
# ---------------------------------------------------------------------------


def test_significance_stars_thresholds():
    assert reg.significance_stars(0.005) == "***"
    assert reg.significance_stars(0.03) == "**"
    assert reg.significance_stars(0.07) == "*"
    assert reg.significance_stars(0.2) == ""


def test_summary_export(tmp_path):
    rng = np.random.default_rng(13)
    X = rng.normal(size=(100, 2))
    y = X @ np.array([2.0, 0.0]) + rng.normal(size=100)
    fit = reg.ols(y, X, names=("strong", "weak"))
    rows = reg.summary_rows(fit)
    strong = next(r for r in rows if r["name"] == "strong")
    assert strong["stars"] == "***"
    path = tmp_path / "fit.csv"
    reg.write_fit_csv(fit, path, extra_rows=(("note", "ok"),))
    text = path.read_text(encoding="utf-8")
    assert text.startswith("name,coefficient,se,stars\n")
    assert "note,ok" in text
    payload = reg.fit_to_json(fit)
    assert payload["coefficients"]["strong"] == pytest.approx(fit.coefficient("strong"))
