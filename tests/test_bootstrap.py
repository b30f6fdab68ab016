from dataclasses import replace

import numpy as np
import pytest

from helpers import (
    bootstrap_reference,
    lstsq_reference,
    random_stable_system,
    simulate_panel,
    stacked_true_matrices,
)
from newsvar import bootstrap as bs
from newsvar import dynamics as dyn
from newsvar import svar as sv
from newsvar import timeseries as ts
from newsvar.errors import BootstrapError, ModelSpecError, NewsvarError


def fitted_system(seed=0, m=2, k=1, T=300):
    rng = np.random.default_rng(seed)
    truth = random_stable_system(rng, m=m, k=k, radius=0.5)
    Z = simulate_panel(truth, T, rng)
    est = sv.estimate_svar_arrays(truth.spec, Z)
    return truth, est, Z


def test_same_seed_is_bit_identical():
    _, est, _ = fitted_system(seed=1)
    a = bs.bootstrap_irf(est, horizon=6, replications=30, seed=11)
    b = bs.bootstrap_irf(est, horizon=6, replications=30, seed=11)
    for shock in a.shocks:
        assert np.array_equal(a.lower[shock], b.lower[shock])
        assert np.array_equal(a.upper[shock], b.upper[shock])
    c = bs.bootstrap_irf(est, horizon=6, replications=30, seed=12)
    assert any(
        not np.array_equal(a.lower[shock], c.lower[shock]) for shock in a.shocks
    )


def test_bands_are_ordered_and_contain_median():
    _, est, _ = fitted_system(seed=2)
    bands = bs.bootstrap_irf(est, horizon=8, replications=60, seed=3)
    assert bands.replications == 60
    assert bands.dropped == 0
    for shock in bands.shocks:
        assert np.all(bands.lower[shock] <= bands.upper[shock])
        assert np.all(bands.lower[shock] <= bands.median[shock])
        assert np.all(bands.median[shock] <= bands.upper[shock])


def test_vanishing_residual_variance_collapses_bands_to_point():
    # an exactly deterministic stable path converges and leaves nothing to
    # regress on, so the zero-variance contract is checked in the limit:
    # innovations scaled down until the bands pinch onto the point responses
    rng = np.random.default_rng(4)
    truth = random_stable_system(rng, m=2, k=1, radius=0.5)
    P0inv, B1, B2, c = stacked_true_matrices(truth)
    n = B1.shape[0]
    scales = 1e-9 * np.ones(n)
    u = rng.normal(size=(250, n)) * scales
    Z = np.zeros((252, n))
    for t in range(250):
        Z[t + 2] = c + B1 @ Z[t + 1] + B2 @ Z[t] + P0inv @ u[t]
    Z = Z[2:]
    est = sv.estimate_svar_arrays(truth.spec, Z)
    point = dyn.irf_all(est, 6, method="stacked")
    bands = bs.bootstrap_irf(
        est,
        horizon=6,
        replications=25,
        quantiles=(0.05, 0.95),
        seed=5,
        joint_resampling=False,
        shocked_control=None,
    )
    for shock in bands.shocks:
        width = np.abs(bands.upper[shock] - bands.lower[shock])
        assert np.all(width < 1e-6)
        assert np.allclose(bands.lower[shock], point.responses[shock], atol=1e-6)


def capture_panels(monkeypatch):
    """The simulated panels the bootstrap re-estimates, in order, as it makes them."""
    captured = []
    original = bs.estimate_svar_stack

    def spy(spec, sims, controls_var1=False):
        captured.extend(sim.copy() for sim in sims)
        return original(spec, sims, controls_var1=controls_var1)

    monkeypatch.setattr(bs, "estimate_svar_stack", spy)
    return captured


def test_replications_reuse_sample_span_and_anchors(monkeypatch):
    truth, est, Z = fitted_system(seed=6, T=120)
    captured = capture_panels(monkeypatch)
    bs.bootstrap_irf(est, horizon=4, replications=3, seed=7)
    assert len(captured) == 3
    for sim in captured:
        assert sim.shape == Z.shape
        assert np.array_equal(sim[:2], Z[:2])
        assert not np.array_equal(sim[2:], Z[2:])


def test_estimate_carries_the_initial_rows_of_its_aligned_sample(monkeypatch):
    # staggered spans: the intervention starts three quarters before the
    # sample and a control ends two after it, so the first rows of each
    # series are not the first rows of the sample
    rng = np.random.default_rng(16)
    truth = random_stable_system(rng, m=2, k=1, radius=0.5)
    Z = simulate_panel(truth, 130, rng)
    names = truth.variables + ("s",) + truth.controls
    spans = {"s": (0, 125), "g0": (3, 130)}  # the others cover rows 3..124
    quarterly = ts.Frequency.QUARTERLY
    data = {}
    for j, name in enumerate(names):
        first, end = spans.get(name, (3, 125))
        start = ts.PeriodLabel(1989, 1).shift(first, quarterly)
        data[name] = ts.CalendarSeries(quarterly, ts.CalendarKind.GREGORIAN, start, Z[first:end, j])
    est = sv.estimate_svar(truth.spec, data)
    aligned, _, _ = sv.aligned_matrix(truth.spec, data)
    M = truth.spec.max_lag
    assert aligned.shape == (122, len(names))
    assert np.array_equal(est.initial, aligned[:M])
    assert not np.array_equal(est.initial, Z[:M])
    captured = capture_panels(monkeypatch)
    bs.bootstrap_irf(est, horizon=4, replications=3, seed=7)
    assert len(captured) == 3
    for sim in captured:
        assert sim.shape == aligned.shape
        assert np.array_equal(sim[:M], aligned[:M])


@pytest.mark.parametrize("n_obs, n_state", [(1, 1), (7, 3), (125, 6), (398, 9)])
def test_one_draw_call_matches_one_call_per_equation(n_obs, n_state):
    # the bootstrap draws each replication's indices in one call; on the
    # numpy this package runs on, that is the stream of n_state calls in turn
    for seed in (0, 1, 12345):
        one = np.random.default_rng(seed).integers(0, n_obs, (n_state, n_obs)).T
        rng = np.random.default_rng(seed)
        each = np.column_stack([rng.integers(0, n_obs, n_obs) for _ in range(n_state)])
        assert np.array_equal(one, each)


def test_joint_resampling_preserves_cross_equation_dependence():
    # two independent runs of the same scheme differ; what matters is that
    # joint resampling keeps residual rows together while separate resampling
    # scrambles them, which shows up in the simulated cross correlations
    truth, est, Z = fitted_system(seed=8, T=400)
    U = est.residuals
    rng = np.random.default_rng(9)
    rows = rng.integers(0, U.shape[0], U.shape[0])
    joint = U[rows]
    separate = np.column_stack(
        [U[rng.integers(0, U.shape[0], U.shape[0]), e] for e in range(U.shape[1])]
    )
    # make the first two equations' residuals strongly dependent
    U_dep = U.copy()
    U_dep[:, 1] = U_dep[:, 0]
    rows = rng.integers(0, U.shape[0], U.shape[0])
    joint_dep = U_dep[rows]
    separate_dep = np.column_stack(
        [U_dep[rng.integers(0, U.shape[0], U.shape[0]), e] for e in range(U.shape[1])]
    )
    assert abs(np.corrcoef(joint_dep[:, 0], joint_dep[:, 1])[0, 1]) > 0.99
    assert abs(np.corrcoef(separate_dep[:, 0], separate_dep[:, 1])[0, 1]) < 0.3
    # with (near) independent residuals the two modes agree in distribution
    assert abs(np.corrcoef(joint[:, 0], joint[:, 1])[0, 1]) < 0.3
    assert abs(np.corrcoef(separate[:, 0], separate[:, 1])[0, 1]) < 0.3


def test_bootstrap_requires_residuals():
    rng = np.random.default_rng(10)
    synthetic = random_stable_system(rng, m=2, k=1)
    with pytest.raises(ModelSpecError, match="residuals"):
        bs.bootstrap_irf(synthetic, horizon=4, replications=5, seed=0)
    # an estimate fit from data, stripped of the rows the replications start from
    _, est, _ = fitted_system(seed=10, T=80)
    with pytest.raises(ModelSpecError, match="residuals"):
        bs.bootstrap_irf(replace(est, initial=None), horizon=4, replications=5, seed=0)


def failing_estimator(fails):
    """The stacked estimator with replication n (counted from 1) failed where ``fails(n)``."""
    calls = {"n": 0}
    original = sv.estimate_svar_stack

    def flaky(spec, sims, controls_var1=False):
        stack = original(spec, sims, controls_var1=controls_var1)
        ok = stack.ok.copy()
        for i in range(ok.size):
            calls["n"] += 1
            if fails(calls["n"]):
                ok[i] = False
        return replace(stack, ok=ok)

    return flaky


def test_bootstrap_aborts_when_too_many_replications_fail(monkeypatch):
    truth, est, Z = fitted_system(seed=12, T=120)
    monkeypatch.setattr(bs, "estimate_svar_stack", failing_estimator(lambda n: n % 2 == 0))
    with pytest.raises(RuntimeError, match="failed to re-estimate") as info:
        bs.bootstrap_irf(est, horizon=4, replications=40, seed=1)
    # a data/model error too, so the command line exits 2; the count is the
    # one at which the 5% rule tripped
    assert isinstance(info.value, BootstrapError)
    assert "aborted: 3 of 40" in str(info.value)


def test_bootstrap_counts_isolated_drops(monkeypatch):
    truth, est, Z = fitted_system(seed=13, T=120)
    monkeypatch.setattr(bs, "estimate_svar_stack", failing_estimator(lambda n: n == 1))
    bands = bs.bootstrap_irf(est, horizon=4, replications=40, seed=1)
    assert bands.dropped == 1
    assert bands.replications == 39
    assert bands.requested == 40


def test_bootstrap_metadata_export(tmp_path):
    _, est, _ = fitted_system(seed=11, T=150)
    bands = bs.bootstrap_irf(est, horizon=4, replications=10, seed=13)
    path = tmp_path / "meta.json"
    bs.write_bands_metadata(bands, path)
    text = path.read_text(encoding="utf-8")
    assert '"replications": 10' in text
    assert '"seed": 13' in text
    out = tmp_path / "irf.csv"
    point = dyn.irf_all(est, 4, method="stacked")
    dyn.write_irf_csv(point, out, bands=bands)
    header = out.read_text(encoding="utf-8").splitlines()[0]
    assert header == "variable,shock,horizon,value,lower,upper"


EQUIVALENCE_CASES = {
    # name: (spec overrides, controls, controls_var1, joint, shocked_control)
    "per_equation_lags2_ar1": (dict(), 1, False, False, None),
    "joint_lags2_ar1": (dict(), 1, False, True, None),
    "lags1_extras_ar1": (dict(lags=1, extra_lags={"v1": (("v1", 2),)}), 1, False, False, None),
    "lags1_extras_var1_joint": (
        dict(lags=1, extra_lags={"v0": (("v1", 2),)}),
        2,
        True,
        True,
        None,
    ),
    "lags2_var1_second_control": (dict(), 2, True, False, "g1"),
    "lags2_ar1_second_control": (dict(), 2, False, True, "g1"),
}


@pytest.mark.parametrize("case", sorted(EQUIVALENCE_CASES))
def test_chunked_bootstrap_matches_one_at_a_time_reference(case):
    overrides, k, controls_var1, joint, shocked = EQUIVALENCE_CASES[case]
    rng = np.random.default_rng(20 + k)
    truth = random_stable_system(rng, m=2, k=k, radius=0.5)
    Z = simulate_panel(truth, 140, rng)
    spec = replace(truth.spec, **overrides)
    est = sv.estimate_svar_arrays(spec, Z, controls_var1=controls_var1)
    kwargs = dict(
        horizon=6,
        replications=45,
        quantiles=(0.1, 0.9),
        seed=3,
        joint_resampling=joint,
        shocked_control=shocked,
    )
    batched = bs.bootstrap_irf(est, **kwargs)
    reference = bootstrap_reference(est, Z, **kwargs)
    assert batched.shocks == reference.shocks
    assert (batched.replications, batched.dropped) == (reference.replications, reference.dropped)
    for shock in batched.shocks:
        for name in ("lower", "upper", "median"):
            got = getattr(batched, name)[shock]
            want = getattr(reference, name)[shock]
            assert np.max(np.abs(got - want)) <= 1e-12, (shock, name)


def test_chained_bootstrap_bands_match_reference_to_rounding():
    # the paper's layout: a second own lag of v2 only splits the designs into
    # chains [v0, v1, v2] and [v3], fit from one QR each instead of four
    rng = np.random.default_rng(31)
    truth = random_stable_system(rng, m=4, k=1, radius=0.5)
    Z = simulate_panel(truth, 127, rng)
    spec = replace(truth.spec, lags=1, extra_lags={"v2": (("v2", 2),)})
    est = sv.estimate_svar_arrays(spec, Z)
    kwargs = dict(
        horizon=8,
        replications=40,
        quantiles=(0.05, 0.95),
        seed=5,
        joint_resampling=False,
        shocked_control=None,
    )
    chained = bs.bootstrap_irf(est, **kwargs)
    reference = bootstrap_reference(est, Z, **kwargs)
    assert chained.replications == reference.replications == 40
    for shock in chained.shocks:
        for name in ("lower", "upper", "median"):
            got = getattr(chained, name)[shock]
            want = getattr(reference, name)[shock]
            assert np.max(np.abs(got - want)) < 1e-14, (shock, name)


def test_chunked_bootstrap_matches_reference_across_chunks(monkeypatch):
    # several chunks, the last one partial, give the same bands as one chunk
    _, est, Z = fitted_system(seed=14, T=100)
    kwargs = dict(
        horizon=5,
        replications=23,
        quantiles=(0.05, 0.95),
        seed=9,
        joint_resampling=False,
        shocked_control=None,
    )
    reference = bootstrap_reference(est, Z, **kwargs)
    monkeypatch.setattr(bs, "CHUNK_DESIGN_BYTES", 1)  # one replication per chunk
    single = bs.bootstrap_irf(est, **kwargs)
    widest = 8 * (Z.shape[0] - 2) * 9
    monkeypatch.setattr(bs, "CHUNK_DESIGN_BYTES", 5 * widest)  # chunks of 5, then 3
    chunked = bs.bootstrap_irf(est, **kwargs)
    for bands in (single, chunked):
        assert bands.replications == reference.replications == 23
        for shock in bands.shocks:
            assert np.max(np.abs(bands.lower[shock] - reference.lower[shock])) <= 1e-12
            assert np.max(np.abs(bands.upper[shock] - reference.upper[shock])) <= 1e-12


def test_stacked_estimator_flags_the_failures_the_loop_drops():
    # a panel whose intervention is constant cannot be re-estimated: the
    # equation-by-equation reference and the point estimator refuse it, the
    # stacked estimator clears that panel's flag
    _, est, Z = fitted_system(seed=15, T=80)
    flat = Z.copy()
    flat[:, est.m] = 0.25
    assert lstsq_reference(est.spec, flat) is None
    with pytest.raises(NewsvarError):
        sv.estimate_svar_arrays(est.spec, flat)
    broken = Z.copy()
    broken[5, 0] = np.nan
    assert lstsq_reference(est.spec, broken) is None
    stack = sv.estimate_svar_stack(est.spec, np.stack([Z, flat, broken, Z]))
    assert stack.ok.tolist() == [True, False, False, True]
    reference = lstsq_reference(est.spec, Z)
    assert np.allclose(stack.A1[0], reference.A1, rtol=0, atol=1e-13)
    assert np.allclose(stack.sigma[3], reference.sigma, rtol=1e-13, atol=0)
