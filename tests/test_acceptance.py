"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The heavy criteria
(estimation consistency, bootstrap coverage) are deterministic given the
seeds pinned here.
"""

import time

import numpy as np
import pytest

from helpers import oracle_irf, random_stable_system, simulate_panel
from newsvar import dynamics as dyn
from newsvar import intensity as ix
from newsvar import regression as reg
from newsvar import svar as sv
from newsvar import timeseries as ts
from newsvar.bootstrap import bootstrap_irf
from newsvar.errors import NewsvarError


def report(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:2d}] {status} {name}: {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


@pytest.fixture(scope="module")
def random_systems():
    rng = np.random.default_rng(2024)
    return [random_stable_system(rng, m=4, k=1) for _ in range(100)]


def test_criterion_01_fevd_normalization(random_systems):
    start = time.time()
    worst = 0.0
    for est in random_systems:
        result = dyn.fevd(est, 24)
        for var in result.variables:
            worst = max(worst, float(np.max(np.abs(result.shares[var].sum(axis=1) - 1.0))))
    elapsed = time.time() - start
    ok = worst < 1e-10 and elapsed < 10.0
    report(
        1,
        "FEVD rows sum to one",
        ok,
        f"max |row sum - 1| = {worst:.3e} over 100 systems, h<=24, {elapsed:.1f}s",
    )


def test_criterion_02_irf_simulation_oracle(random_systems):
    start = time.time()
    worst = 0.0
    for est in random_systems:
        irf = dyn.irf_all(est, 24, method="direct")
        for shock in irf.shocks:
            dev = float(np.max(np.abs(irf.responses[shock] - oracle_irf(est, shock, 24))))
            worst = max(worst, dev)
    elapsed = time.time() - start
    ok = worst < 1e-8 and elapsed < 30.0
    report(
        2,
        "analytic IRFs equal shocked-minus-baseline simulation",
        ok,
        f"max deviation = {worst:.3e} over all shocks, h<=24, {elapsed:.1f}s",
    )


def test_criterion_03_direct_vs_stacked(random_systems):
    worst = 0.0
    for est in random_systems:
        worst = max(worst, dyn.max_method_deviation(est, 24))
    ok = worst < 1e-10
    report(3, "direct and stacked routes agree", ok, f"max deviation = {worst:.3e}")


def test_criterion_04_estimation_consistency():
    start = time.time()
    seed = 7
    truth = random_stable_system(np.random.default_rng(seed), m=4, k=1)
    reps = 100
    within = None
    joint = 0
    for r in range(reps):
        Z = simulate_panel(truth, 20_000, np.random.default_rng(seed * 1000 + r))
        est = sv.estimate_svar_arrays(truth.spec, Z)
        z_scores = []
        for i, fit in enumerate(est.fits):
            terms = est.spec.equation_regressors(est.spec.ordering[i])
            true_vals = [truth.a_q[i]]
            for name, lag_ in terms:
                if name == "s":
                    true_vals.append(truth.gamma0s[i] if lag_ == 0 else truth.gamma1s[i])
                elif name in truth.controls:
                    true_vals.append(truth.Dw[i, truth.controls.index(name)])
                elif lag_ == 0:
                    true_vals.append(-truth.A0[i, truth.variables.index(name)])
                elif lag_ == 1:
                    true_vals.append(truth.A1[i, truth.variables.index(name)])
                else:
                    true_vals.append(truth.A2[i, truth.variables.index(name)])
            z_scores.append(np.abs(fit.coefficients - np.array(true_vals)) / fit.standard_errors)
        z = np.concatenate(z_scores)
        if within is None:
            within = np.zeros(z.size)
        within += z <= 3.0
        joint += bool(np.all(z <= 3.0))
    elapsed = time.time() - start
    # with ~54 coefficients per system the event "all 54 inside 3 SEs at
    # once" holds in only ~88 of 100 replications by the usual union bound,
    # so the recovery requirement is applied coefficient by coefficient
    ok = bool(within.min() >= 95) and elapsed < 120.0
    report(
        4,
        "known-system recovery within 3 reported SEs",
        ok,
        f"each of {within.size} structural coefficients within 3 SEs in >= "
        f"{within.min():.0f}/100 replications (all-at-once in {joint}/100), {elapsed:.0f}s",
    )


def grid_fixture(rng, T=5000, w_true=0.4, beta2=-0.8, sigma=0.02):
    on = np.abs(np.cumsum(rng.normal(0, 0.1, T))) + rng.uniform(0.05, 0.15, T)
    off = np.abs(np.cumsum(rng.normal(0, 0.1, T))) + rng.uniform(0.05, 0.15, T)
    on /= on.max()
    off /= off.max()
    s = on - w_true * off
    dy = np.zeros(T)
    for t in range(1, T):
        dy[t] = 0.005 + 0.2 * dy[t - 1] + beta2 * s[t - 1] + rng.normal(0, sigma)
    start = ts.PeriodLabel(1990, 1)
    mk = lambda v, kind: ix.IntensityIndex(
        series=ts.CalendarSeries(ts.Frequency.QUARTERLY, ts.CalendarKind.GREGORIAN, start, v),
        kind=kind,
        normalization_max=1.0,
    )
    dy_series = ts.CalendarSeries(ts.Frequency.QUARTERLY, ts.CalendarKind.GREGORIAN, start, dy)
    return mk(on, ix.IndexKind.ON), mk(off, ix.IndexKind.OFF), dy_series


def test_criterion_05_grid_search_weight_recovery():
    hits = 0
    for r in range(100):
        on, off, dy = grid_fixture(np.random.default_rng(3000 + r))
        result = ix.grid_search_weight(on, off, dy)
        hits += result.w_hat == 0.4
    ok = hits >= 99
    report(5, "netting weight recovered on the 0.1 grid", ok, f"w_hat = 0.4 in {hits}/100")


def test_criterion_06_printed_value_arithmetic():
    checks = []
    # long-run effect from the printed reduced-form coefficients
    fit = reg.RegressionFit(
        names=("const", "s.L1", "dy.L1"),
        coefficients=np.array([0.0, -0.037, -0.186]),
        standard_errors=np.array([1.0, 0.016, 0.089]),
        covariance=np.diag([1.0, 0.016**2, 0.089**2]),
        residuals=np.zeros(4),
        sigma_hat=1.0,
        r2=0.0,
        adjusted_r2=0.0,
        nobs=4,
        nregressors=3,
        design=np.zeros((4, 3)),
        has_intercept=True,
    )
    theta, _ = reg.long_run_effect(fit, "s.L1", "dy.L1")
    checks.append(("long-run effect", theta, abs(theta - (-0.0312)) <= 1e-3 and abs(theta - (-0.031)) <= 1e-3))
    # contemporaneous exchange-rate responses built from the printed
    # impact coefficient 0.303, innovation scale 0.125, median level 0.16
    m = 4
    spec = sv.SvarSpec(
        ordering=("de", "dm", "dp", "dy"), lags=1, intervention=(True, True), controls=()
    )
    planted = sv.SvarEstimate(
        spec=spec,
        A0=np.eye(m),
        A1=np.zeros((m, m)),
        A2=np.zeros((m, m)),
        gamma0s=np.array([0.303, -0.001, -0.033, 0.021]),
        gamma1s=np.array([-0.245, 0.011, 0.037, -0.058]),
        Dw=np.zeros((m, 0)),
        a_q=np.zeros(m),
        sigma=np.ones(m),
        s_rho=0.743,
        s_intercept=0.063,
        s_omega=0.125,
        c_transition=np.zeros((0, 0)),
        c_intercept=np.zeros(0),
        c_sd=np.zeros(0),
    )
    median_intensity = 0.16
    median_impact = median_intensity * float(np.linalg.solve(planted.A0, planted.gamma0s)[0])
    checks.append(("median-intensity impact", median_impact, 0.047 <= median_impact <= 0.050))
    one_se_impact = float(dyn.irf_all(planted, 0).responses["s"][0, 0])
    checks.append(("one-s.e. impact", one_se_impact, 0.03 <= one_se_impact <= 0.04))
    reversal = median_intensity * 0.245
    checks.append(("next-quarter reversal", reversal, abs(reversal - 0.038) <= 2e-3))
    ok = all(c[2] for c in checks)
    detail = "; ".join(f"{name} = {value:.4f}" for name, value, _ in checks)
    report(6, "printed-value arithmetic", ok, detail)


def test_criterion_07_breusch_godfrey_oracle_and_size():
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(20):
        X = rng.normal(size=(150, 3))
        y = X @ rng.normal(size=3) + rng.normal(size=150)
        fit = reg.ols(y, X)
        result = reg.breusch_godfrey(fit, lags=4)
        e = fit.residuals
        n = e.size
        lagged = np.zeros((n, 4))
        for j in range(1, 5):
            lagged[j:, j - 1] = e[:-j]
        aux = np.column_stack([fit.design, lagged])
        beta = np.linalg.solve(aux.T @ aux, aux.T @ e)
        resid = e - aux @ beta
        lm_oracle = n * (1.0 - (resid @ resid) / np.sum((e - e.mean()) ** 2))
        worst = max(worst, abs(result.lm_stat - lm_oracle))
    size_rng = np.random.default_rng(18)
    reps, n = 5000, 200
    rejections = 0
    for _ in range(reps):
        X = size_rng.normal(size=(n, 2))
        y = 0.5 + X @ np.array([1.0, -1.0]) + size_rng.normal(size=n)
        rejections += reg.breusch_godfrey(reg.ols(y, X), lags=4).p_value < 0.05
    rate = rejections / reps
    ok = worst < 1e-10 and 0.04 <= rate <= 0.06
    report(
        7,
        "serial-correlation test oracle equality and size",
        ok,
        f"max |LM - n R2_aux| = {worst:.2e}; rejection rate {rate:.4f} at 5%",
    )


def test_criterion_08_calendar_conversion_fixtures():
    def iranian(values, freq):
        sub = None if freq is ts.Frequency.ANNUAL else 1
        return ts.CalendarSeries(
            freq, ts.CalendarKind.IRANIAN, ts.PeriodLabel(1370, sub), np.asarray(values, float)
        )

    failures = []
    cases = [
        (ts.Frequency.ANNUAL, ts.convert_iranian_annual, 365.0, 285.0, 80.0),
        (ts.Frequency.QUARTERLY, ts.convert_iranian_quarterly, 9.0, 1.0, 8.0),
        (ts.Frequency.MONTHLY, ts.convert_iranian_monthly, 3.0, 2.0, 1.0),
    ]
    for freq, convert, denom, w_curr_num, w_prev_num in cases:
        # constant series scaled to the denominator: bit-exact identity
        const = convert(iranian([denom] * 5, freq)).values
        if not np.array_equal(const, [denom] * 4):
            failures.append(f"{freq.value} constant")
        # unit impulse scaled by the denominator: exact numerator split
        impulse = convert(iranian([0.0, denom, 0.0, 0.0], freq)).values
        if not np.array_equal(impulse, [w_curr_num, w_prev_num, 0.0]):
            failures.append(f"{freq.value} impulse")
        # ramp in denominator multiples: exact affine image
        ramp_in = denom * np.arange(1.0, 6.0)
        expected = denom * np.arange(2.0, 6.0) - w_prev_num
        if not np.array_equal(convert(iranian(ramp_in, freq)).values, expected):
            failures.append(f"{freq.value} ramp")
        # generic reals at 1e-12
        rng = np.random.default_rng(5)
        x = rng.uniform(1, 2, 6)
        got = convert(iranian(x, freq)).values
        want = (w_prev_num * x[:-1] + w_curr_num * x[1:]) / denom
        if np.max(np.abs(got - want)) > 1e-12:
            failures.append(f"{freq.value} generic")
    ok = not failures
    report(8, "calendar conversion fixtures", ok, "all exact" if ok else "; ".join(failures))


def test_criterion_09_bootstrap_determinism_and_coverage():
    start = time.time()
    truth = random_stable_system(np.random.default_rng(99), m=2, k=1, radius=0.5)
    horizon = 4
    true_irf = dyn.irf_all(truth, horizon, method="stacked")

    # determinism: identically seeded runs are bit-identical
    Z0 = simulate_panel(truth, 200, np.random.default_rng(4242))
    est0 = sv.estimate_svar_arrays(truth.spec, Z0)
    kwargs = dict(
        horizon=horizon,
        replications=50,
        quantiles=(0.05, 0.95),
        seed=1,
        joint_resampling=False,
        shocked_control=None,
    )
    a = bootstrap_irf(est0, **kwargs)
    b = bootstrap_irf(est0, **kwargs)
    deterministic = all(
        np.array_equal(a.lower[s], b.lower[s]) and np.array_equal(a.upper[s], b.upper[s])
        for s in a.shocks
    )

    trials, inner, T = 500, 200, 200
    hits = {s: np.zeros((horizon + 1, truth.m)) for s in true_irf.shocks}
    used = 0
    for trial in range(trials):
        Z = simulate_panel(truth, T, np.random.default_rng(5000 + trial))
        try:
            est = sv.estimate_svar_arrays(truth.spec, Z)
            bands = bootstrap_irf(
                est,
                horizon=horizon,
                replications=inner,
                quantiles=(0.05, 0.95),
                seed=trial * 10_000,
                joint_resampling=False,
                shocked_control=None,
            )
        except (NewsvarError, RuntimeError):
            continue
        used += 1
        for s in true_irf.shocks:
            inside = (bands.lower[s] <= true_irf.responses[s]) & (
                true_irf.responses[s] <= bands.upper[s]
            )
            hits[s] += inside
    lo_cov, hi_cov = 1.0, 0.0
    for s in true_irf.shocks:
        coverage = hits[s] / used
        for h in (0, 1, 4):
            for i in range(truth.m):
                # recursive zeros (exact upper-triangular impacts) have
                # zero-width bands that cover trivially; skip them
                if abs(true_irf.responses[s][h, i]) < 1e-12:
                    continue
                lo_cov = min(lo_cov, coverage[h, i])
                hi_cov = max(hi_cov, coverage[h, i])
    elapsed = time.time() - start
    ok = deterministic and used >= 495 and 0.80 <= lo_cov and hi_cov <= 0.97 and elapsed < 600
    report(
        9,
        "bootstrap determinism and band coverage",
        ok,
        f"bit-identical = {deterministic}; coverage in [{lo_cov:.3f}, {hi_cov:.3f}] "
        f"over {used} trials (nominal 0.90), {elapsed:.0f}s",
    )


def factor_world(rng, n_countries, T=800, psi0=0.3, psi1=-0.6, lam=0.2):
    # a persistent common factor that the intervention tracks, so omitting
    # it biases both the current and the lagged intervention coefficients
    f = np.zeros(T)
    for t in range(1, T):
        f[t] = 0.9 * f[t - 1] + rng.normal(0, 1.0)
    s = 0.5 * f + rng.normal(0, 0.5, T)
    dy_others = np.empty((n_countries, T))
    x_others = np.empty((n_countries, T))
    for i in range(n_countries):
        gamma_y = rng.uniform(0.5, 1.5)
        gamma_x = rng.uniform(0.5, 1.5)
        beta_x = rng.uniform(-0.5, 0.5)
        x_others[i] = rng.normal(0, 0.2) + gamma_x * f + rng.normal(0, 1.0, T)
        dy_others[i] = rng.normal(0, 0.2) + beta_x * x_others[i] + gamma_y * f + rng.normal(0, 1.0, T)
    dy = np.zeros(T)
    for t in range(1, T):
        dy[t] = 0.1 + lam * dy[t - 1] + psi0 * s[t] + psi1 * s[t - 1] + f[t] + rng.normal(0, 0.25)
    return dy, s, dy_others.mean(axis=0), x_others.mean(axis=0)


def test_criterion_10_factor_proxy_identification():
    psi0, psi1 = 0.3, -0.6
    sizes = (5, 10, 25, 50)
    reps = 200
    med0, med1 = [], []
    for n in sizes:
        errs0, errs1 = [], []
        for r in range(reps):
            rng = np.random.default_rng(100_000 + r)
            dy, s, ybar, xbar = factor_world(rng, n)
            X = np.column_stack([dy[:-1], s[1:], s[:-1], ybar[1:], xbar[1:]])
            fit = reg.ols(dy[1:], X, names=("dy.L1", "s", "s.L1", "ybar", "xbar"))
            errs0.append(abs(fit.coefficient("s") - psi0))
            errs1.append(abs(fit.coefficient("s.L1") - psi1))
        med0.append(float(np.median(errs0)))
        med1.append(float(np.median(errs1)))
    mono0 = all(a > b for a, b in zip(med0, med0[1:]))
    mono1 = all(a > b for a, b in zip(med1, med1[1:]))
    ok = mono0 and mono1
    report(
        10,
        "cross-section proxies: bias shrinks in the country count",
        ok,
        f"median |bias| psi0 {['%.4f' % v for v in med0]}, psi1 {['%.4f' % v for v in med1]} "
        f"for n = {sizes}",
    )
