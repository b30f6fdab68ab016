import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    direct_responses_reference,
    oracle_irf,
    random_stable_system,
    stacked_responses_reference,
    stacked_true_matrices,
)
from newsvar import dynamics as dyn
from newsvar import svar as sv
from newsvar.errors import ModelSpecError, NonstationaryError


def diagonal_system(m=3, rho=0.0, gamma0=None, gamma1=None, dw=None, sigma=None, k=1):
    names = tuple(f"v{i}" for i in range(m))
    controls = tuple(f"g{j}" for j in range(k))
    spec = sv.SvarSpec(
        ordering=names, lags=2, intervention=(True, True), controls=controls
    )
    return sv.SvarEstimate(
        spec=spec,
        A0=np.eye(m),
        A1=rho * np.eye(m),
        A2=np.zeros((m, m)),
        gamma0s=np.zeros(m) if gamma0 is None else np.asarray(gamma0, dtype=float),
        gamma1s=np.zeros(m) if gamma1 is None else np.asarray(gamma1, dtype=float),
        Dw=np.zeros((m, k)) if dw is None else np.asarray(dw, dtype=float),
        a_q=np.zeros(m),
        sigma=np.ones(m) if sigma is None else np.asarray(sigma, dtype=float),
        s_rho=0.5,
        s_intercept=0.0,
        s_omega=1.0,
        c_transition=0.4 * np.eye(k),
        c_intercept=np.zeros(k),
        c_sd=np.ones(k),
    )


# ---------------------------------------------------------------------------
# moving-average recursion
# ---------------------------------------------------------------------------


def test_g_recursion_geometric():
    G = dyn.g_recursion(0.5 * np.eye(2), np.zeros((2, 2)), 5)
    for h in range(6):
        assert np.allclose(G[h], 0.5**h * np.eye(2))


def test_g_recursion_degenerate():
    G = dyn.g_recursion(np.zeros((3, 3)), np.zeros((3, 3)), 4)
    assert np.array_equal(G[0], np.eye(3))
    assert np.all(G[1:] == 0.0)


def test_g_recursion_matches_difference_equation_simulation():
    rng = np.random.default_rng(0)
    est = random_stable_system(rng, m=3, k=0)
    rf = sv.reduced_form(est)
    H = 12
    G = dyn.g_recursion(rf.Phi1, rf.Phi2, H)
    # simulate the homogeneous equation from each unit initial condition
    for j in range(3):
        x_prev2 = np.zeros(3)
        x_prev1 = np.zeros(3)
        x0 = np.eye(3)[:, j]
        path = [x0]
        x_prev1, x_prev2 = x0, np.zeros(3)
        for _ in range(H):
            x = rf.Phi1 @ x_prev1 + rf.Phi2 @ x_prev2
            path.append(x)
            x_prev2, x_prev1 = x_prev1, x
        for h in range(H + 1):
            assert np.allclose(G[h][:, j], path[h], atol=1e-12)


def test_g_recursion_rejects_bad_shapes():
    with pytest.raises(ValueError):
        dyn.g_recursion(np.eye(2), np.eye(3), 2)
    with pytest.raises(ValueError):
        dyn.g_recursion(np.eye(2), np.eye(2), -1)


# ---------------------------------------------------------------------------
# domestic shocks
# ---------------------------------------------------------------------------


def test_domestic_impact_of_first_variable_is_its_scale():
    rng = np.random.default_rng(1)
    est = random_stable_system(rng, m=4, k=1)
    out = dyn.irf_all(est, 8).responses["v0"]
    assert out[0, 0] == pytest.approx(np.sqrt(est.sigma[0]), abs=1e-12)
    # nothing precedes the first variable, so only lags carry it onwards
    assert out.shape == (9, 4)


def test_domestic_identity_system_single_spike():
    est = diagonal_system(sigma=[4.0, 1.0, 1.0])
    out = dyn.irf_all(est, 6).responses["v0"]
    assert out[0, 0] == 2.0
    assert np.allclose(out[1:], 0.0)
    assert np.allclose(out[0, 1:], 0.0)


def test_domestic_matches_simulation_oracle():
    rng = np.random.default_rng(2)
    for _ in range(5):
        est = random_stable_system(rng, m=4, k=1)
        irf = dyn.irf_all(est, 24)
        for shock in est.variables:
            analytic = irf.responses[shock]
            assert np.allclose(analytic, oracle_irf(est, shock, 24), atol=1e-8)


def test_unknown_shock_name():
    est = diagonal_system()
    with pytest.raises(ModelSpecError):
        dyn.fevd(est, 4, "nope")
    with pytest.raises(ModelSpecError):
        dyn.max_method_deviation(est, 4, "nope")


# ---------------------------------------------------------------------------
# intervention shock
# ---------------------------------------------------------------------------


def test_sanction_impact_formula():
    rng = np.random.default_rng(3)
    est = random_stable_system(rng, m=4, k=1)
    out = dyn.irf_all(est, 6).responses["s"]
    impact = est.s_omega * np.linalg.solve(est.A0, est.gamma0s)
    assert np.allclose(out[0], impact, atol=1e-12)
    # first element: omega_s * gamma0s[0] because A0 is unit lower triangular
    assert out[0, 0] == pytest.approx(est.s_omega * est.gamma0s[0], abs=1e-12)


def test_sanction_zero_loadings_zero_path():
    est = diagonal_system(rho=0.5, gamma0=[0, 0, 0], gamma1=[0, 0, 0])
    assert np.all(dyn.irf_all(est, 10).responses["s"] == 0.0)


def test_sanction_matches_simulation_oracle():
    rng = np.random.default_rng(4)
    for _ in range(5):
        est = random_stable_system(rng, m=3, k=1)
        analytic = dyn.irf_all(est, 24).responses["s"]
        assert np.allclose(analytic, oracle_irf(est, "s", 24), atol=1e-8)


def exogenous_deviation(est, horizon):
    """Largest deviation of the direct route's exogenous responses from the
    convolution reference, in units of eps times the response's largest
    magnitude."""
    irf = dyn.irf_all(est, horizon, est.controls[-1])
    ref = direct_responses_reference(est, horizon, est.controls[-1])
    worst = 0.0
    for shock, unscaled in zip(irf.shocks[est.m :], ref[est.m :]):
        want = irf.scales[shock] * unscaled
        deviation = np.max(np.abs(irf.responses[shock] - want))
        worst = max(worst, deviation / (np.finfo(float).eps * np.max(np.abs(want))) if deviation else 0.0)
    return worst


def test_exogenous_responses_equal_term_by_term_convolution():
    # the one-step recursions sum the convolution's terms in another order,
    # so they agree to rounding: over these 200 systems at most 6.7e-16
    # absolute, 2.0 eps of the response's largest magnitude; the bound is 8 eps
    rng = np.random.default_rng(15)
    for _ in range(200):
        m, k, horizon = int(rng.integers(1, 7)), int(rng.integers(1, 3)), int(rng.integers(0, 41))
        est = random_stable_system(rng, m=m, k=k, controls_var1=bool(rng.integers(0, 2)))
        assert exogenous_deviation(est, horizon) <= 8.0


def test_direct_route_agrees_at_a_long_horizon():
    # at H=2000 the recursions still agree with the stacked route and with
    # the quadratic convolution
    est = random_stable_system(np.random.default_rng(16), m=4, k=2, controls_var1=True)
    assert dyn.max_method_deviation(est, 2000, est.controls[-1]) < 1e-10
    assert exogenous_deviation(est, 2000) <= 8.0


def test_sanction_requires_stationary_process():
    # an explosive intervention process is judged by the stacked companion
    # alone: both routes warn and agree, and the variance shares refuse
    est = diagonal_system()
    bad = replace(est, gamma0s=np.ones(3), gamma1s=np.full(3, 0.5), s_rho=1.01)
    routes = []
    for method in ("direct", "stacked"):
        with pytest.warns(RuntimeWarning, match=r"nonstationary \(max eigenvalue modulus 1.010000\)"):
            routes.append(dyn.irf_all(bad, 8, method=method).responses["s"])
    assert np.abs(routes[0] - routes[1]).max() < 1e-12
    assert routes[0][8, 0] == pytest.approx(1.01**8 + 0.5 * 1.01**7)
    with pytest.raises(NonstationaryError, match="eigenvalue moduli reach 1.010000"):
        dyn.fevd(bad, 8)


# ---------------------------------------------------------------------------
# global shock
# ---------------------------------------------------------------------------


def test_global_zero_loading_zero_path():
    est = diagonal_system(dw=np.zeros((3, 1)))
    assert np.all(dyn.irf_all(est, 8).responses["g0"] == 0.0)


def test_global_one_period_passthrough_when_control_is_white_noise():
    m, k = 3, 1
    names = tuple(f"v{i}" for i in range(m))
    spec = sv.SvarSpec(ordering=names, lags=2, intervention=(True, True), controls=("g0",))
    delta = np.array([[0.5], [0.2], [-0.3]])
    est = sv.SvarEstimate(
        spec=spec,
        A0=np.eye(m),
        A1=np.zeros((m, m)),
        A2=np.zeros((m, m)),
        gamma0s=np.zeros(m),
        gamma1s=np.zeros(m),
        Dw=delta,
        a_q=np.zeros(m),
        sigma=np.ones(m),
        s_rho=0.5,
        s_intercept=0.0,
        s_omega=1.0,
        c_transition=np.zeros((1, 1)),
        c_intercept=np.zeros(1),
        c_sd=np.array([2.0]),
    )
    out = dyn.irf_all(est, 5).responses["g0"]
    assert np.allclose(out[0], 2.0 * delta[:, 0])
    assert np.allclose(out[1:], 0.0)


def test_global_matches_simulation_oracle():
    rng = np.random.default_rng(5)
    for _ in range(5):
        est = random_stable_system(rng, m=3, k=2)
        for control in est.controls:
            analytic = dyn.irf_all(est, 24, control).responses[control]
            assert np.allclose(analytic, oracle_irf(est, control, 24), atol=1e-8)


def test_global_unknown_control():
    est = diagonal_system()
    with pytest.raises(ModelSpecError):
        dyn.irf_all(est, 4, "nope")


# ---------------------------------------------------------------------------
# variance decompositions
# ---------------------------------------------------------------------------


def test_fevd_own_shocks_only():
    est = diagonal_system(rho=0.4, gamma0=[0, 0, 0], gamma1=[0, 0, 0], dw=np.zeros((3, 1)))
    result = dyn.fevd(est, 8)
    for i, var in enumerate(result.variables):
        shares = result.shares[var]
        assert np.allclose(shares[:, i], 1.0)
        others = np.delete(shares, i, axis=1)
        assert np.allclose(others, 0.0)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(1, 5),
    k=st.integers(0, 2),
    horizon=st.integers(0, 30),
    method=st.sampled_from(["direct", "stacked"]),
)
def test_fevd_rows_sum_to_one(seed, m, k, horizon, method):
    est = random_stable_system(np.random.default_rng(seed), m=m, k=k)
    result = dyn.fevd(est, horizon, method=method)
    assert result.shocks == est.variables + ("s",) + est.controls[:1]
    for var in result.variables:
        assert result.shares[var].shape == (horizon + 1, len(result.shocks))
        assert np.allclose(result.shares[var].sum(axis=1), 1.0, rtol=0.0, atol=1e-12)


def test_fevd_matches_monte_carlo_variance_shares():
    rng = np.random.default_rng(7)
    est = random_stable_system(rng, m=3, k=1, radius=0.6)
    horizon = 4
    result = dyn.fevd(est, horizon)
    # simulate forecast errors from each shock family separately
    paths = 100_000
    P0inv, B1, B2, _ = stacked_true_matrices(est)
    n = 3 + 1 + 1
    scales = np.concatenate([np.sqrt(est.sigma), [est.s_omega], est.c_sd])
    rng_mc = np.random.default_rng(8)
    # z_h simulated from a zero state with only one shock family active IS the
    # h-step forecast error due to that family, so its variance over paths is
    # the matching term of the decomposition
    contributions = np.zeros((n, horizon + 1, 3))
    for shock in range(n):
        u = np.zeros((paths, horizon + 1, n))
        u[:, :, shock] = rng_mc.normal(size=(paths, horizon + 1)) * scales[shock]
        z1 = np.zeros((paths, n))
        z2 = np.zeros((paths, n))
        for h in range(horizon + 1):
            z = u[:, h, :] @ P0inv.T + z1 @ B1.T + z2 @ B2.T
            contributions[shock, h] = z[:, :3].var(axis=0)
            z2, z1 = z1, z
    total = contributions.sum(axis=0)
    for h in (0, horizon):
        for i, var in enumerate(est.variables):
            mc_shares = contributions[:, h, i] / total[h, i]
            assert np.allclose(result.shares[var][h], mc_shares, atol=0.02)


def test_fevd_refuses_nonstationary_system():
    est = diagonal_system(rho=1.0)
    with pytest.raises(NonstationaryError, match="eigenvalue"):
        dyn.fevd(est, 4)
    with pytest.warns(RuntimeWarning, match="nonstationary"):
        dyn.irf_all(est, 4)


def test_estimate_json_and_fevd_share_one_stationarity_rule():
    # a root within 1e-8 of the unit circle: estimate.json used to call it
    # stationary while the variance shares refused it
    est = diagonal_system(m=1, rho=1.0 - 1e-9)
    assert sv.estimate_to_json(est)["stationary"] is False
    with pytest.raises(NonstationaryError, match="reach 1.000000"):
        dyn.fevd(est, 4)
    assert sv.estimate_to_json(diagonal_system(m=1, rho=0.9))["stationary"] is True


# ---------------------------------------------------------------------------
# stacked route
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(1, 5),
    k=st.integers(0, 2),
    controls_var1=st.booleans(),
    horizon=st.integers(0, 30),
    data=st.data(),
)
def test_stacked_equals_direct_everywhere(seed, m, k, controls_var1, horizon, data):
    # AR(1) controls have a diagonal transition, VAR(1) controls a full one
    est = random_stable_system(np.random.default_rng(seed), m=m, k=k, controls_var1=controls_var1)
    shocked = data.draw(st.sampled_from(est.controls), label="shocked control") if k else None
    assert dyn.max_method_deviation(est, horizon, shocked) < 1e-10


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 24),
    batch=st.sampled_from([(), (1,), (3,), (2, 4)]),
    horizon=st.integers(0, 8),
    data=st.data(),
)
def test_stacked_responses_equal_the_full_moving_average_product(seed, n, batch, horizon, data):
    # only the reported block of G_h Psi0^-1 is formed: the first m rows and
    # the shock columns, in any order
    m = data.draw(st.integers(1, n - 1), label="m")
    cols = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=n, unique=True), label="cols")
    rng = np.random.default_rng(seed)
    Psi0 = np.eye(n) + np.tril(rng.normal(0.0, 0.4, batch + (n, n)), -1)
    system = dyn.StackedSystem(
        Phi1=rng.normal(0.0, 0.5 / np.sqrt(n), batch + (n, n)),
        Phi2=rng.normal(0.0, 0.3 / np.sqrt(n), batch + (n, n)),
        impact=np.linalg.inv(Psi0),
        c=np.zeros(batch + (n,)),
        scales=rng.uniform(0.5, 2.0, batch + (n,)),
    )
    got = dyn.stacked_responses(system, horizon, cols, m)
    want = stacked_responses_reference(system, horizon, cols, m)
    assert got.shape == batch + (len(cols), horizon + 1, m)
    if n <= 15:
        # the kernel sums each product in the order the full product does
        assert np.array_equal(got, want)
    else:
        # a wider system's block can take another kernel tile than the full
        # product: each differs from the exact dot product by at most
        # n eps |G_h| |Psi0^-1| (times the scale), so from each other by twice that
        G = dyn.g_recursion(system.Phi1, system.Phi2, horizon)
        size = np.abs(G) @ np.abs(system.impact)[..., None, :, :]
        size = np.moveaxis(size[..., :m, cols] * system.scales[..., None, None, cols], -1, -3)
        assert np.all(np.abs(got - want) <= 2 * n * np.finfo(float).eps * size)


def test_stacked_sanction_column_equals_direct_sanction():
    rng = np.random.default_rng(10)
    est = random_stable_system(rng, m=3, k=1)
    stacked_irf = dyn.irf_all(est, 16, method="stacked")
    direct = dyn.irf_all(est, 16).responses["s"]
    assert np.allclose(stacked_irf.responses["s"], direct, atol=1e-12)


def test_stacked_fevd_rows_sum_to_one():
    rng = np.random.default_rng(11)
    est = random_stable_system(rng, m=3, k=1)
    result = dyn.fevd(est, 12, method="stacked")
    assert result.method == "stacked"
    for var in result.variables:
        assert np.allclose(result.shares[var].sum(axis=1), 1.0, atol=1e-12)


def test_scale_equivariance():
    rng = np.random.default_rng(12)
    est = random_stable_system(rng, m=3, k=1)
    doubled = replace(est, sigma=est.sigma * np.array([2.0, 1.0, 1.0]))
    base = dyn.irf_all(est, 8)
    new = dyn.irf_all(doubled, 8)
    assert np.allclose(new.responses["v0"], np.sqrt(2.0) * base.responses["v0"])
    for other in ("v1", "v2", "s", "g0"):
        assert np.allclose(new.responses[other], base.responses[other])
    # variance shares shift toward the louder shock but still normalize
    fv = dyn.fevd(doubled, 8)
    for var in fv.variables:
        assert np.allclose(fv.shares[var].sum(axis=1), 1.0, atol=1e-12)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(1, 4),
    k=st.integers(0, 2),
    controls_var1=st.booleans(),
    horizon=st.integers(0, 20),
    c=st.floats(0.1, 10.0),
    method=st.sampled_from(["direct", "stacked"]),
    data=st.data(),
)
def test_responses_scale_with_the_shock_size(seed, m, k, controls_var1, horizon, c, method, data):
    est = random_stable_system(np.random.default_rng(seed), m=m, k=k, controls_var1=controls_var1)
    shocked = data.draw(st.sampled_from(est.controls), label="shocked control") if k else None
    base = dyn.irf_all(est, horizon, shocked, method=method)
    shock = data.draw(st.sampled_from(base.shocks), label="shock")
    # the innovation variance times c**2: sigma holds variances, s_omega and c_sd deviations
    if shock == "s":
        louder = replace(est, s_omega=est.s_omega * c)
    elif shock in est.controls:
        louder = replace(est, c_sd=np.where(np.array(est.controls) == shock, c, 1.0) * est.c_sd)
    else:
        louder = replace(est, sigma=np.where(np.array(est.variables) == shock, c**2, 1.0) * est.sigma)
    new = dyn.irf_all(louder, horizon, shocked, method=method)
    for name in base.shocks:
        expected = c * base.responses[name] if name == shock else base.responses[name]
        assert np.allclose(new.responses[name], expected, rtol=1e-13, atol=1e-15), name


@pytest.mark.parametrize(
    "call, g_recursions, eigvals",
    [
        (lambda est: dyn.irf_all(est, 24), 1, 1),
        (lambda est: dyn.fevd(est, 24), 1, 1),
        (lambda est: dyn.irf_all(est, 24, method="stacked"), 1, 1),
        (lambda est: dyn.fevd(est, 24, method="stacked"), 1, 1),
        (lambda est: dyn.max_method_deviation(est, 24), 2, 1),
    ],
    ids=["irf_all", "fevd", "irf_all-stacked", "fevd-stacked", "max_method_deviation"],
)
def test_one_response_array_per_route(monkeypatch, call, g_recursions, eigvals):
    # one moving-average recursion per route, one set of companion moduli per
    # call, and one derivation of the one-step form: one inverse and two
    # solves, for both routes
    est = random_stable_system(np.random.default_rng(14), m=4, k=2)
    calls = {"g_recursion": 0, "eigvals": 0, "inv": 0, "solve": 0}
    linalg = ((np.linalg, name) for name in ("eigvals", "inv", "solve"))
    for owner, name in ((dyn, "g_recursion"), *linalg):
        real = getattr(owner, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    call(est)
    assert calls == {"g_recursion": g_recursions, "eigvals": eigvals, "inv": 1, "solve": 2}


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


def test_irf_csv_and_plot_json(tmp_path):
    rng = np.random.default_rng(13)
    est = random_stable_system(rng, m=2, k=1)
    irf = dyn.irf_all(est, 4)
    path = tmp_path / "irf.csv"
    dyn.write_irf_csv(irf, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "variable,shock,horizon,value"
    assert len(lines) == 1 + len(irf.shocks) * 5 * 2
    payload = dyn.plot_data_json(irf)
    assert payload["horizons"] == [0, 1, 2, 3, 4]
    assert set(payload["shocks"]) == set(irf.shocks)
    json.dumps(payload)
    fv = dyn.fevd(est, 4)
    fevd_path = tmp_path / "fevd.csv"
    dyn.write_fevd_csv(fv, fevd_path)
    assert fevd_path.read_text(encoding="utf-8").startswith("variable,shock,horizon,value")
