import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    # the same draws with the median as the upper quantile
    median = bs.bootstrap_irf(est, horizon=8, replications=60, seed=3, quantiles=(0.05, 0.5)).upper
    for shock in bands.shocks:
        assert np.all(bands.lower[shock] <= bands.upper[shock])
        assert np.all(bands.lower[shock] <= median[shock])
        assert np.all(median[shock] <= bands.upper[shock])


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
    aligned, _ = sv.aligned_matrix(truth.spec, data)
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
        # and so is one call of a flat size, in equation-major order
        flat = np.random.default_rng(seed).integers(0, n_obs, n_state * n_obs)
        assert np.array_equal(flat.reshape(n_state, n_obs).T, each)
        # a joint draw of whole rows is one row of indices, the stream of one equation
        row = np.random.default_rng(seed).integers(0, n_obs, (1, n_obs)).ravel()
        assert np.array_equal(row, np.random.default_rng(seed).integers(0, n_obs, n_obs))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**160) | st.sampled_from([2**32 - 1, 2**32, 2**64]),
    back=st.integers(0, 3),
    count=st.integers(1, 4),
    n_obs=st.integers(1, 40),
    n_state=st.integers(1, 3),
    joint=st.booleans(),
)
def test_seed_states_and_draws_equal_numpy_seeding(seed, back, count, n_obs, n_state, joint):
    # this guards the coupling to numpy's SeedSequence and PCG64 seeding:
    # the states computed for a run of seeds, here one that may cross 2**32 or
    # 2**64, are numpy's, and a generator reseeded from them draws
    # default_rng's stream, odd and even sizes alike, whatever it drew before
    first = max(0, seed - back)
    states = list(bs._pcg64_states(first, count))
    assert states == [
        (s["state"], s["inc"]) for s in (np.random.PCG64(first + i).state["state"] for i in range(count))
    ]
    # a residual that is its own row index shows the indices drawn
    U = np.repeat(np.arange(n_obs, dtype=float)[:, None], n_state, axis=1)
    out = np.empty((n_obs, count, n_state))
    rng = np.random.default_rng(0)
    rng.integers(0, 7, 3)  # leaves half a 64-bit draw buffered
    bs._resample(U, first, out, joint, rng)
    for i in range(count):
        want = np.random.default_rng(first + i).integers(0, n_obs, n_obs if joint else (n_state, n_obs))
        got = out[:, i, 0] if joint else out[:, i].T
        assert np.array_equal(got, want), i
        if joint:
            assert np.array_equal(out[:, i], U[want])


def resample_reference(U, first_seed, out, joint, rng):
    """The draws as one ``default_rng(seed + r)`` per replication made them,
    one call per equation in turn."""
    n_obs, n_state = U.shape
    for i in range(out.shape[1]):
        own = np.random.default_rng(first_seed + i)
        if joint:
            out[:, i] = U[own.integers(0, n_obs, n_obs)]
        else:
            for e in range(n_state):
                out[:, i, e] = U[own.integers(0, n_obs, n_obs), e]


@pytest.mark.parametrize(
    "joint, replications, seed, group_bytes",
    [
        pytest.param(False, 23, 9, None, id="per-equation"),
        pytest.param(False, 23, 9, 3 * 8 * 4 * 98, id="per-equation-ends-mid-group"),
        pytest.param(True, 23, 9, None, id="joint"),
        pytest.param(False, 1, 9, None, id="one-replication"),
        pytest.param(True, 1, 9, None, id="joint-one-replication"),
        pytest.param(False, 23, 2**32 - 11, None, id="seeds-straddle-2**32"),
        pytest.param(False, 23, 2**64 - 5, 1, id="groups-of-one-straddle-2**64"),
        pytest.param(False, 23, 2**128 - 2, 3 * 8 * 4 * 98, id="groups-of-three-straddle-2**128"),
    ],
)
def test_bands_equal_one_generator_per_replication_bit_for_bit(monkeypatch, joint, replications, seed, group_bytes):
    # time loops of 10, 10 and 3 replications (blocks of 5); groups of 3 end
    # each loop of 10 with a group of one
    _, est, Z = fitted_system(seed=14, T=100)
    assert est.residuals.shape == (98, 4)
    monkeypatch.setattr(sv, "SLICE_DESIGN_BYTES", 5 * 8 * (Z.shape[0] - 2) * 9)
    monkeypatch.setattr(bs, "BLOCK_PANEL_BYTES", 1)
    if group_bytes is not None:
        monkeypatch.setattr(bs, "_DRAW_GROUP_BYTES", group_bytes)
    kwargs = dict(horizon=5, replications=replications, seed=seed, joint_resampling=joint)
    bands = bs.bootstrap_irf(est, **kwargs)
    monkeypatch.setattr(bs, "_resample", resample_reference)
    reference = bs.bootstrap_irf(est, **kwargs)
    assert bands.replications == reference.replications == replications
    for shock in bands.shocks:
        for name in ("lower", "upper"):
            assert np.array_equal(getattr(bands, name)[shock], getattr(reference, name)[shock]), (shock, name)


def test_no_generator_is_built_per_replication(monkeypatch):
    _, est, Z = fitted_system(seed=14, T=100)
    monkeypatch.setattr(bs, "BLOCK_PANEL_BYTES", 4 * 8 * Z.size)  # time loops of 8
    built = {"default_rng": 0, "Generator": 0, "PCG64": 0, "SeedSequence": 0}
    for name in built:
        original = getattr(np.random, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            built[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.random, name, counted)
    for joint in (False, True):
        bs.bootstrap_irf(est, horizon=4, replications=30, seed=3, joint_resampling=joint)
    assert built == {"default_rng": 2, "Generator": 0, "PCG64": 0, "SeedSequence": 0}


def test_time_loop_keeps_the_bits_of_one_matmul_per_lag(monkeypatch):
    # the panels the bootstrap re-estimates equal a time loop that forms
    # z_{t-1} Phi1' and then z_{t-2} Phi2' in their own matmuls and adds each
    # in place, in that order, on a buffer of the same shape and time rows
    _, est, Z = fitted_system(seed=14, T=100)
    replications, seed = 23, 9  # one time loop of all 23
    captured = capture_panels(monkeypatch)
    bs.bootstrap_irf(est, horizon=4, replications=replications, seed=seed)
    system = dyn.build_stacked(est)
    M, (n_obs, n_state) = est.spec.max_lag, est.residuals.shape
    assert M == 2
    N = n_obs + M
    sim = np.empty((N, replications, n_state))
    sim[:M] = est.initial[:, None, :]
    resample_reference(est.residuals, seed, sim[M:], False, None)
    chunk = max(1, N * sv.stack_slice(est.spec, n_obs) // replications)
    product = np.empty(sim.shape[1:])
    for first_row in range(M, N, chunk):
        u = sim[first_row : first_row + chunk]
        np.matmul(u, system.impact.T, out=u)
        u += system.c
        for t in range(first_row, first_row + len(u)):
            np.matmul(sim[t - 1], system.Phi1.T, out=product)
            sim[t] += product
            np.matmul(sim[t - 2], system.Phi2.T, out=product)
            sim[t] += product
    assert np.array_equal(np.stack(captured), sim.transpose(1, 0, 2))


@pytest.mark.parametrize("rows", [2, 3, 141, 282])
@pytest.mark.parametrize("n_state", [1, 4, 9])
def test_one_lag_matmul_matches_one_per_lag(rows, n_state):
    # the time loop forms both lag products of a step in one matmul over a
    # stack of the two lag matrices; on the numpy this package runs on, each
    # is the bits of its own matmul, on the panel buffer's strided rows too
    rng = np.random.default_rng(rows * n_state)
    buffer = rng.normal(size=(5, rows + 3, n_state))
    panels = buffer[:, :rows]
    B1T, B2T = rng.normal(size=(2, n_state, n_state))
    both = np.empty((2, rows + 3, n_state))[:, :rows]
    np.matmul(panels[1:3], np.stack([B2T, B1T]), out=both)
    one = np.empty((rows, n_state))
    np.matmul(panels[2], B1T, out=one)
    assert np.array_equal(both[1], one)
    np.matmul(panels[1], B2T, out=one)
    assert np.array_equal(both[0], one)


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


def test_bootstrap_aborts_at_the_same_count_inside_a_block(monkeypatch):
    # blocks of 12, estimated in slices of 4: the rule trips at the third
    # drop of the first block, after the whole block was estimated
    truth, est, Z = fitted_system(seed=12, T=120)
    widest = 8 * (Z.shape[0] - 2) * 9
    monkeypatch.setattr(sv, "SLICE_DESIGN_BYTES", 4 * widest)
    monkeypatch.setattr(bs, "BLOCK_PANEL_BYTES", 12 * 8 * Z.size)
    monkeypatch.setattr(bs, "estimate_svar_stack", failing_estimator(lambda n: n % 2 == 0))
    with pytest.raises(BootstrapError, match="aborted: 3 of 40"):
        bs.bootstrap_irf(est, horizon=4, replications=40, seed=1)


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
        for name in ("lower", "upper"):
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
        for name in ("lower", "upper"):
            got = getattr(chained, name)[shock]
            want = getattr(reference, name)[shock]
            assert np.max(np.abs(got - want)) < 1e-14, (shock, name)


def test_chunked_bootstrap_matches_reference_across_chunks(monkeypatch):
    # several estimator slices, the last one partial, give the same bands as one
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
    monkeypatch.setattr(sv, "SLICE_DESIGN_BYTES", 1)  # one replication per slice
    single = bs.bootstrap_irf(est, **kwargs)
    widest = 8 * (Z.shape[0] - 2) * 9
    monkeypatch.setattr(sv, "SLICE_DESIGN_BYTES", 5 * widest)  # slices of 5, then 3
    chunked = bs.bootstrap_irf(est, **kwargs)
    for bands in (single, chunked):
        assert bands.replications == reference.replications == 23
        for shock in bands.shocks:
            assert np.max(np.abs(bands.lower[shock] - reference.lower[shock])) <= 1e-12
            assert np.max(np.abs(bands.upper[shock] - reference.upper[shock])) <= 1e-12


@pytest.mark.parametrize(
    "block_bytes, slice_panels",
    [
        # a block of one slice: blocks of 5, 5, 5, 5, 3 in time loops of 10, 10, 3
        pytest.param(1, 5, id="1"),
        # blocks of two slices: 10, 10, 3 in time loops of 20 and 3, the last slice of 3
        pytest.param(10 * 8 * 100 * 4, 5, id="32000"),
        pytest.param(1 << 30, 5, id="1073741824"),  # one block of all 23
        # blocks of one slice of 11: a time loop of 11 + 11, then one of a
        # block of one replication
        pytest.param(1, 11, id="last-block-of-one"),
        # time loops of two blocks of 4: 4 + 4, 4 + 4, 4 + 3
        pytest.param(1, 4, id="loop-of-two-blocks"),
        # blocks of two slices of 11: one time loop of 23, blocks of 22 and 1
        pytest.param(22 * 8 * 100 * 4, 11, id="block-of-one-inside-a-loop"),
        # blocks of one replication in time loops of two, the last loop of one
        pytest.param(1, 1, id="last-loop-of-one"),
    ],
)
def test_block_boundaries_do_not_move_a_bit(monkeypatch, block_bytes, slice_panels):
    # the panels are simulated two blocks per time loop into one reused
    # buffer, and each block is estimated in slices; where the blocks and the
    # loops end moves nothing
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
    widest = 8 * (Z.shape[0] - 2) * 9
    monkeypatch.setattr(sv, "SLICE_DESIGN_BYTES", slice_panels * widest)
    unblocked = bs.bootstrap_irf(est, **kwargs)  # the default budget holds all 23
    monkeypatch.setattr(bs, "BLOCK_PANEL_BYTES", block_bytes)
    captured = capture_panels(monkeypatch)
    blocked = bs.bootstrap_irf(est, **kwargs)
    assert (blocked.replications, blocked.dropped) == (unblocked.replications, unblocked.dropped)
    assert blocked.replications == reference.replications == 23
    for shock in blocked.shocks:
        for name in ("lower", "upper"):
            got = getattr(blocked, name)[shock]
            assert np.array_equal(got, getattr(unblocked, name)[shock]), (shock, name)
            assert np.max(np.abs(got - getattr(reference, name)[shock])) <= 1e-12, (shock, name)
    # a reused buffer never leaks the previous block's rows into a panel
    assert len(captured) == 23
    for sim in captured:
        assert np.array_equal(sim[: est.spec.max_lag], est.initial)


def test_blocks_reuse_one_set_of_buffers(monkeypatch):
    _, est, Z = fitted_system(seed=14, T=100)
    widest = 8 * (Z.shape[0] - 2) * 9
    monkeypatch.setattr(sv, "SLICE_DESIGN_BYTES", 2 * widest)  # slices of 2
    monkeypatch.setattr(bs, "BLOCK_PANEL_BYTES", 4 * 8 * Z.size)  # blocks of 4
    handed = []
    original = bs.estimate_svar_stack

    def spy(spec, sims, controls_var1=False):
        handed.append(sims)
        return original(spec, sims, controls_var1=controls_var1)

    monkeypatch.setattr(bs, "estimate_svar_stack", spy)
    bs.bootstrap_irf(est, horizon=4, replications=14, seed=2)
    # one estimate per block, however many slices it fits the block in
    assert [len(sims) for sims in handed] == [4, 4, 4, 2]
    # every block is a view into the one panel buffer, two blocks per time loop
    buffer = handed[0].base
    assert buffer is not None
    for sims in handed:
        assert sims.base is buffer and np.shares_memory(sims, buffer)


def test_responses_sub_sliced_under_the_block_budget_do_not_move_a_bit(monkeypatch):
    # a block's responses are computed in sub-slices whose (rows, H+1, n, n)
    # moving-average array stays under the block's byte budget; blocks of 10
    # (one slice each) throughout, responses in sub-slices of 10, 3 and 1
    _, est, Z = fitted_system(seed=14, T=100)
    kwargs = dict(horizon=5, replications=23, seed=9)
    n = len(est.spec.columns)
    g_row = 8 * (kwargs["horizon"] + 1) * n * n
    monkeypatch.setattr(sv, "SLICE_DESIGN_BYTES", 10 * 8 * (Z.shape[0] - 2) * 9)
    runs = {}
    blocks = [10, 10, 3]
    for rows, budget in ((10, 10 * g_row), (3, 3 * g_row), (1, 1)):
        monkeypatch.setattr(bs, "BLOCK_PANEL_BYTES", budget)
        sizes = []
        original = bs.stacked_responses

        def spy(system, *args):
            sizes.append(len(system.Phi1))
            return original(system, *args)

        monkeypatch.setattr(bs, "stacked_responses", spy)
        runs[rows] = bs.bootstrap_irf(est, **kwargs)
        monkeypatch.setattr(bs, "stacked_responses", original)
        assert sizes == [min(rows, b - a) for b in blocks for a in range(0, b, rows)]
    one_call = runs[10]
    for bands in runs.values():
        assert bands.replications == 23
        for shock in bands.shocks:
            for name in ("lower", "upper"):
                assert np.array_equal(getattr(bands, name)[shock], getattr(one_call, name)[shock]), (shock, name)


def test_bootstrap_traced_peak_holds_one_panel_buffer():
    # the stress_bands shape; numpy reports its arrays to tracemalloc.  The
    # peak is the draws plus 3.63 BLOCK_PANEL_BYTES: the panel buffer of two
    # blocks and one block's estimator workspace, after the untouched buffer
    # that sets malloc's thresholds.  One more block's worth of panels crosses 4
    rng = np.random.default_rng(23)
    truth = random_stable_system(rng, m=6, k=2, radius=0.5, controls_var1=True)
    est = sv.estimate_svar_arrays(truth.spec, simulate_panel(truth, 400, rng), controls_var1=True)
    replications, horizon = 141, 40  # two time loops of two blocks, then one of one
    tracemalloc.start()
    try:
        bands = bs.bootstrap_irf(est, horizon=horizon, replications=replications, seed=5, joint_resampling=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    draws = 8 * replications * len(bands.shocks) * (horizon + 1) * est.m
    assert peak <= draws + 4 * bs.BLOCK_PANEL_BYTES


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    shape=st.tuples(st.integers(1, 40), st.integers(1, 3)),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([1e-3, 1.0, 1e6]),
    specials=st.lists(
        st.tuples(st.integers(0, 119), st.sampled_from([0.0, -0.0, 1.5, np.nan, np.inf])),
        max_size=4,
    ),
    qs=st.lists(st.sampled_from([0.0, 1.0, 0.5]) | st.floats(0, 1), min_size=1, max_size=3),
)
def test_band_quantiles_equal_numpy_quantile_exactly(shape, seed, scale, specials, qs):
    x = np.random.default_rng(seed).normal(size=shape) * scale
    for position, value in specials:
        x.flat[position % x.size] = value
    with np.errstate(invalid="ignore"):  # inf - inf, in both
        want = np.quantile(x.copy(), qs, axis=0)
        got = bs._quantiles(x, qs)
    assert np.array_equal(got, want, equal_nan=True)


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
