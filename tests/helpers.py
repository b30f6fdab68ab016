"""Shared test oracles: random stable systems and brute-force simulators.

Everything here works directly from the structural equations, independently
of the production moving-average and stacked-recursion code paths, so tests
can cross-check those paths against plain simulation.  The exceptions are
:func:`lstsq_reference`, the equation-by-equation ``np.linalg.lstsq``
estimator kept as the reference for the stacked production estimator;
:func:`bootstrap_reference`, the one-replication-at-a-time bootstrap loop
kept as the reference for the chunked production bootstrap; and
:func:`read_counts_reference`, the row-at-a-time counts reader kept as the
reference for the block-wise columnar one.
"""

from __future__ import annotations

import csv
import warnings
from datetime import date
from pathlib import Path
from typing import Mapping

import numpy as np

from newsvar.bootstrap import BootstrapBands
from newsvar.dynamics import build_stacked, irf_all
from newsvar.errors import NewsvarError, SeriesError
from newsvar.intensity import ArticleCountPanel
from newsvar.svar import SvarEstimate, SvarSpec


def random_stable_system(
    rng: np.random.Generator,
    m: int = 4,
    k: int = 1,
    radius: float | None = None,
    controls_var1: bool = False,
) -> SvarEstimate:
    """Draw a random recursive system with intervention and global blocks.

    The domestic companion spectral radius is rescaled to ``radius`` (drawn
    from U(0.2, 0.85) when omitted); exogenous AR coefficients stay inside
    the unit circle, so the full stacked system is stationary.  With
    ``controls_var1`` the controls follow a full VAR(1) whose transition has
    spectral radius U(0.2, 0.8).
    """
    names = tuple(f"v{i}" for i in range(m))
    controls = tuple(f"g{j}" for j in range(k))
    spec = SvarSpec(ordering=names, lags=2, intervention=(True, True), controls=controls)

    A0 = np.eye(m)
    A0[np.tril_indices(m, -1)] = rng.normal(0.0, 0.4, size=m * (m - 1) // 2)
    Phi1 = rng.normal(0.0, 0.5 / np.sqrt(m), size=(m, m))
    Phi2 = rng.normal(0.0, 0.5 / np.sqrt(m), size=(m, m))
    companion = np.zeros((2 * m, 2 * m))
    companion[:m, :m] = Phi1
    companion[:m, m:] = Phi2
    companion[m:, :m] = np.eye(m)
    spectral = np.max(np.abs(np.linalg.eigvals(companion)))
    target = radius if radius is not None else rng.uniform(0.2, 0.85)
    scale = target / spectral if spectral > 0 else 1.0
    Phi1 *= scale
    Phi2 *= scale**2

    rho_s = rng.uniform(0.2, 0.9)
    s_intercept = rng.normal(0.0, 0.05)
    s_omega = rng.uniform(0.5, 1.5)
    draws = [(rng.normal(0.0, 0.05), rng.uniform(-0.8, 0.8), rng.uniform(0.5, 1.5)) for _ in range(k)]
    c_intercept, rhos, c_sd = (np.array([d[i] for d in draws]) for i in range(3))
    c_transition = np.diag(rhos)
    if controls_var1 and k:
        c_transition = rng.normal(0.0, 0.5, size=(k, k))
        top = np.max(np.abs(np.linalg.eigvals(c_transition)))
        c_transition *= rng.uniform(0.2, 0.8) / top if top > 0 else 1.0
    return SvarEstimate(
        spec=spec,
        A0=A0,
        A1=A0 @ Phi1,
        A2=A0 @ Phi2,
        gamma0s=rng.normal(0.0, 0.4, size=m),
        gamma1s=rng.normal(0.0, 0.4, size=m),
        Dw=rng.normal(0.0, 0.4, size=(m, k)),
        a_q=rng.normal(0.0, 0.1, size=m),
        sigma=rng.uniform(0.5, 1.5, size=m),
        s_rho=rho_s,
        s_intercept=s_intercept,
        s_omega=s_omega,
        c_transition=c_transition,
        c_intercept=c_intercept,
        c_sd=c_sd,
        controls_var1=controls_var1 and k > 0,
    )


def simulate_structural(
    est: SvarEstimate,
    steps: int,
    eps: np.ndarray,
    eta: np.ndarray,
    v: np.ndarray,
    q_init: np.ndarray | None = None,
    s_init: float = 0.0,
    z_init: np.ndarray | None = None,
) -> np.ndarray:
    """Brute-force recursion over the structural equations, one at a time.

    ``eps`` (steps, m), ``eta`` (steps,), ``v`` (steps, k) are structural
    innovations.  Returns the domestic paths (steps, m).  Works equation by
    equation in the causal order, never inverting the impact matrix, so it is
    an independent oracle for the analytic responses.
    """
    m, k = est.m, est.k
    rho_s, a_s = float(est.s_rho), float(est.s_intercept)
    R, c_a = est.c_transition, est.c_intercept
    q = np.zeros((steps + 2, m))
    if q_init is not None:
        q[0] = q_init[0]
        q[1] = q_init[1]
    s_prev = s_init
    z_prev = np.zeros(k) if z_init is None else np.asarray(z_init, dtype=float)
    out = np.empty((steps, m))
    for t in range(steps):
        s_t = a_s + rho_s * s_prev + eta[t]
        z_t = c_a + R @ z_prev + v[t]
        row = np.empty(m)
        for i in range(m):
            acc = est.a_q[i]
            for j in range(i):
                acc -= est.A0[i, j] * row[j]
            acc += est.A1[i] @ q[t + 1] + est.A2[i] @ q[t]
            acc += est.gamma0s[i] * s_t + est.gamma1s[i] * s_prev
            acc += est.Dw[i] @ z_t
            acc += eps[t, i]
            row[i] = acc
        q[t + 2] = row
        out[t] = row
        s_prev = s_t
        z_prev = z_t
    return out


def oracle_irf(est: SvarEstimate, shock: str, horizon: int) -> np.ndarray:
    """Shocked-minus-baseline simulation for any shock name.

    The shock sizes match the analytic convention: one standard error of the
    corresponding structural innovation at t = 0, nothing after.
    """
    m, k = est.m, est.k
    steps = horizon + 1
    eps = np.zeros((steps, m))
    eta = np.zeros(steps)
    v = np.zeros((steps, k))
    if shock in est.variables:
        eps[0, est.variables.index(shock)] = np.sqrt(est.sigma[est.variables.index(shock)])
    elif shock == est.spec.intervention_name:
        eta[0] = est.s_omega
    elif shock in est.controls:
        v[0, est.controls.index(shock)] = est.c_sd[est.controls.index(shock)]
    else:
        raise ValueError(f"unknown shock {shock!r}")
    baseline = simulate_structural(
        est, steps, np.zeros((steps, m)), np.zeros(steps), np.zeros((steps, k))
    )
    shocked = simulate_structural(est, steps, eps, eta, v)
    return shocked - baseline


def stacked_true_matrices(est: SvarEstimate) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(P0inv, B1, B2, intercept) of the one-step form, assembled locally."""
    m, k = est.m, est.k
    n = m + 1 + k
    P0 = np.eye(n)
    P0[:m, :m] = est.A0
    P0[:m, m] = -est.gamma0s
    P0[:m, m + 1 :] = -est.Dw
    P1 = np.zeros((n, n))
    P1[:m, :m] = est.A1
    P1[:m, m] = est.gamma1s
    P1[m, m] = est.s_rho
    P1[m + 1 :, m + 1 :] = est.c_transition
    P2 = np.zeros((n, n))
    P2[:m, :m] = est.A2
    a = np.concatenate([est.a_q, [est.s_intercept], est.c_intercept])
    P0inv = np.linalg.inv(P0)
    return P0inv, P0inv @ P1, P0inv @ P2, P0inv @ a


def simulate_panel(
    est: SvarEstimate, steps: int, rng: np.random.Generator, burn: int = 100
) -> np.ndarray:
    """Gaussian-innovation sample path of (q, s, controls), after burn-in."""
    n = est.m + 1 + est.k
    P0inv, B1, B2, c = stacked_true_matrices(est)
    scales = np.concatenate([np.sqrt(est.sigma), [est.s_omega], est.c_sd])
    total = steps + burn
    u = rng.normal(size=(total, n)) * scales
    shifted = u @ P0inv.T + c
    Z = np.zeros((total + 2, n))
    for t in range(total):
        Z[t + 2] = shifted[t] + B1 @ Z[t + 1] + B2 @ Z[t]
    return Z[2 + burn :]


def equation_designs(spec: SvarSpec, Z: np.ndarray) -> list[np.ndarray]:
    """Each equation's design, intercept first, built from the spec's terms."""
    names = spec.ordering + (spec.intervention_name,) + spec.controls
    M, N = spec.max_lag, Z.shape[0]
    return [
        np.column_stack(
            [np.ones(N - M)]
            + [Z[M - lag_ : N - lag_, names.index(name)] for name, lag_ in spec.equation_regressors(eq)]
        )
        for eq in spec.ordering
    ]


def exogenous_designs(
    spec: SvarSpec, Z: np.ndarray, controls_var1: bool = False
) -> list[tuple[np.ndarray, np.ndarray]]:
    """(design, dependent columns) of each exogenous fit over t = 1..N-1: the
    intervention's AR(1), then each control's AR(1) or the controls' VAR(1)."""
    x = Z[:, spec.m :]
    const = np.ones((Z.shape[0] - 1, 1))
    own = 1 if controls_var1 else x.shape[1]
    fits = [(np.hstack([const, x[:-1, j : j + 1]]), x[1:, j : j + 1]) for j in range(own)]
    if controls_var1 and x.shape[1] > 1:
        fits.append((np.hstack([const, x[:-1, 1:]]), x[1:, 1:]))
    return fits


def lstsq_reference(spec: SvarSpec, Z: np.ndarray, controls_var1: bool = False) -> SvarEstimate | None:
    """The estimate fit equation by equation with ``np.linalg.lstsq``.

    The reference for the stacked production estimator: each design comes
    from the spec's terms (:func:`equation_designs`, :func:`exogenous_designs`)
    and each coefficient is placed by its term's name.  Returns None where a
    design or its dependent variable holds a non-finite value or a design
    is rank deficient (a constant series under an AR(1) among them).
    """
    m, k = spec.m, len(spec.controls)
    var1 = controls_var1 and k > 0
    nobs = Z.shape[0] - spec.max_lag
    problems = [(X, Z[spec.max_lag :, i : i + 1]) for i, X in enumerate(equation_designs(spec, Z))]
    solved = []
    for X, Y in problems + exogenous_designs(spec, Z, var1):
        if not (np.isfinite(X).all() and np.isfinite(Y).all()) or np.linalg.matrix_rank(X) < X.shape[1]:
            return None
        B = np.linalg.lstsq(X, Y, rcond=None)[0]
        E = Y - X @ B
        solved.append((B, E, E.T @ E / (X.shape[0] - X.shape[1])))

    A0, A1, A2 = np.eye(m), np.zeros((m, m)), np.zeros((m, m))
    gamma = {0: np.zeros(m), 1: np.zeros(m)}
    Dw = np.zeros((m, k))
    for i, eq in enumerate(spec.ordering):
        for (name, lag_), b in zip(spec.equation_regressors(eq), solved[i][0][1:, 0]):
            if name == spec.intervention_name:
                gamma[lag_][i] = b
            elif name in spec.controls:
                Dw[i, spec.controls.index(name)] = b
            elif lag_ == 0:
                A0[i, spec.ordering.index(name)] = -b
            else:
                (A1 if lag_ == 1 else A2)[i, spec.ordering.index(name)] = b
    (Bs, _, Vs), *controls = solved[m:]
    if var1:
        (Bc, _, Vc), = controls
        c_transition, c_intercept, c_omega = Bc[1:].T, Bc[0], Vc
        c_sd = np.sqrt(np.diag(Vc))
    else:
        c_transition = np.diag([B[1, 0] for B, _, _ in controls])
        c_intercept = np.array([B[0, 0] for B, _, _ in controls])
        c_sd = np.array([np.sqrt(V[0, 0]) for _, _, V in controls])
        c_omega = None
    return SvarEstimate(
        spec=spec,
        A0=A0,
        A1=A1,
        A2=A2,
        gamma0s=gamma[0],
        gamma1s=gamma[1],
        Dw=Dw,
        a_q=np.array([B[0, 0] for B, _, _ in solved[:m]]),
        sigma=np.array([V[0, 0] for _, _, V in solved[:m]]),
        s_rho=Bs[1, 0],
        s_intercept=Bs[0, 0],
        s_omega=np.sqrt(Vs[0, 0]),
        c_transition=c_transition,
        c_intercept=c_intercept,
        c_sd=c_sd,
        controls_var1=var1,
        c_omega=c_omega,
        residuals=np.column_stack([E[-nobs:] for _, E, _ in solved]),
        nobs=nobs,
    )


def bootstrap_reference(
    est: SvarEstimate,
    Z: np.ndarray,
    horizon: int,
    replications: int,
    quantiles: tuple[float, float],
    seed: int,
    joint_resampling: bool,
    shocked_control: str | None,
) -> BootstrapBands:
    """The bootstrap one replication at a time, as a reference for the chunked one.

    Same draws as ``newsvar.bootstrap.bootstrap_irf``, made by one
    generator call per equation, with the initial rows taken from the
    aligned panel ``Z`` rather than from the estimate: each replication
    simulates its panel step by step, re-estimates it with
    :func:`lstsq_reference` and recomputes the stacked responses with
    ``irf_all``; a replication the reference cannot estimate is dropped.
    """
    spec = est.spec
    system = build_stacked(est)
    n_state = system.Psi0.shape[0]
    M = spec.max_lag
    U = est.residuals
    n_obs = U.shape[0]
    P0inv = np.linalg.inv(system.Psi0)
    B1 = P0inv @ system.Psi1
    B2 = P0inv @ system.Psi2
    c = P0inv @ system.intercept
    point = irf_all(est, horizon, shocked_control, method="stacked")
    shocks = point.shocks
    m = est.m

    draws = np.empty((replications, len(shocks), horizon + 1, m))
    dropped = 0
    kept = 0
    sim = np.empty_like(Z)
    sim[:M] = Z[:M]
    for r in range(replications):
        rng = np.random.default_rng(seed + r)
        if joint_resampling:
            rows = rng.integers(0, n_obs, n_obs)
            u = U[rows]
        else:
            u = np.empty_like(U)
            for e in range(n_state):
                u[:, e] = U[rng.integers(0, n_obs, n_obs), e]
        shifted = u @ P0inv.T + c
        if M >= 2:
            for t in range(M, Z.shape[0]):
                sim[t] = shifted[t - M] + B1 @ sim[t - 1] + B2 @ sim[t - 2]
        else:
            for t in range(M, Z.shape[0]):
                sim[t] = shifted[t - M] + B1 @ sim[t - 1]
        re_est = lstsq_reference(spec, sim, est.controls_var1)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                rep = None if re_est is None else irf_all(re_est, horizon, shocked_control, method="stacked")
        except (NewsvarError, np.linalg.LinAlgError):
            rep = None
        if rep is None:
            dropped += 1
            if dropped > 0.05 * replications:
                raise RuntimeError(
                    f"bootstrap aborted: {dropped} of {replications} replications "
                    "failed to re-estimate"
                ) from None
            continue
        for s_idx, shock in enumerate(shocks):
            draws[kept, s_idx] = rep.responses[shock]
        kept += 1

    draws = draws[:kept]
    lo, hi = quantiles
    lower = np.quantile(draws, lo, axis=0)
    upper = np.quantile(draws, hi, axis=0)
    median = np.quantile(draws, 0.5, axis=0)
    return BootstrapBands(
        replications=kept,
        requested=replications,
        dropped=dropped,
        quantiles=quantiles,
        seed=seed,
        horizon=horizon,
        variables=est.variables,
        shocks=shocks,
        lower={s: lower[i] for i, s in enumerate(shocks)},
        upper={s: upper[i] for i, s in enumerate(shocks)},
        median={s: median[i] for i, s in enumerate(shocks)},
        joint_resampling=joint_resampling,
    )


def panel_from_mapping(
    outlets: tuple[str, ...], counts: Mapping[str, Mapping[date, int]]
) -> ArticleCountPanel:
    """A columnar panel from outlet -> day -> count."""
    entries = [
        (day.toordinal(), outlets.index(outlet), count)
        for outlet, per_outlet in counts.items()
        for day, count in per_outlet.items()
    ]
    day, outlet, count = zip(*entries) if entries else ((), (), ())
    return ArticleCountPanel(outlets=outlets, day=day, outlet=outlet, count=count)


def panel_to_mapping(panel: ArticleCountPanel) -> dict[str, dict[date, int]]:
    """outlet -> day -> count of a panel; every outlet gets an entry."""
    counts: dict[str, dict[date, int]] = {outlet: {} for outlet in panel.outlets}
    for day, outlet, count in zip(panel.day.tolist(), panel.outlet.tolist(), panel.count.tolist()):
        counts[panel.outlets[outlet]][date.fromordinal(day)] = count
    return counts


def read_counts_reference(path: str | Path) -> tuple[tuple[str, ...], dict[str, dict[date, int]]]:
    """The row-at-a-time counts reader: sorted outlets and outlet -> day -> count.

    Kept as the reference for :func:`newsvar.intensity.read_counts_csv`,
    which must raise the same first error or read the same counts.
    """
    path = Path(path)
    counts: dict[str, dict[date, int]] = {}
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or [h.strip().lower() for h in header[:3]] != [
            "date",
            "outlet",
            "count",
        ]:
            raise SeriesError(f"{path}: expected header 'date,outlet,count'")
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) < 3:
                raise SeriesError(f"{path}:{lineno}: expected 'date,outlet,count'")
            try:
                day = date.fromisoformat(row[0].strip())
            except ValueError as exc:
                raise SeriesError(f"{path}:{lineno}: bad date {row[0]!r}") from exc
            outlet = row[1].strip()
            if not outlet:
                raise SeriesError(f"{path}:{lineno}: empty outlet")
            try:
                count = int(row[2])
            except ValueError as exc:
                raise SeriesError(f"{path}:{lineno}: bad count {row[2]!r}") from exc
            if count < 0:
                raise SeriesError(f"{path}:{lineno}: negative count")
            per_outlet = counts.setdefault(outlet, {})
            if day in per_outlet:
                raise SeriesError(f"{path}:{lineno}: duplicate row for {outlet} {day}")
            per_outlet[day] = count
    if not counts:
        raise SeriesError(f"{path}: no data rows")
    return tuple(sorted(counts)), counts
