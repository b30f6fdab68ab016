"""Shared test oracles: random stable systems and brute-force simulators.

Everything here works directly from the structural equations, independently
of the production moving-average and stacked-recursion code paths, so tests
can cross-check those paths against plain simulation.  The exceptions are
:func:`bootstrap_reference`, the one-replication-at-a-time bootstrap loop
kept as the reference for the chunked production bootstrap, and
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

from newsvar.bootstrap import _structural_residuals, BootstrapBands
from newsvar.dynamics import build_stacked, irf_all
from newsvar.errors import NewsvarError, SeriesError
from newsvar.intensity import ArticleCountPanel
from newsvar.regression import ArFit
from newsvar.svar import ControlsVar1, estimate_svar_arrays, SvarEstimate, SvarSpec


def random_stable_system(
    rng: np.random.Generator,
    m: int = 4,
    k: int = 1,
    radius: float | None = None,
) -> SvarEstimate:
    """Draw a random recursive system with intervention and global blocks.

    The domestic companion spectral radius is rescaled to ``radius`` (drawn
    from U(0.2, 0.85) when omitted); exogenous AR coefficients stay inside
    the unit circle, so the full stacked system is stationary.
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
    s_process = ArFit(
        order=1,
        intercept=rng.normal(0.0, 0.05),
        coefficients=np.array([rho_s]),
        omega=rng.uniform(0.5, 1.5),
    )
    controls_process = tuple(
        ArFit(
            order=1,
            intercept=rng.normal(0.0, 0.05),
            coefficients=np.array([rng.uniform(-0.8, 0.8)]),
            omega=rng.uniform(0.5, 1.5),
        )
        for _ in range(k)
    )
    return SvarEstimate(
        spec=spec,
        variables=names,
        controls=controls,
        A0=A0,
        A1=A0 @ Phi1,
        A2=A0 @ Phi2,
        gamma0s=rng.normal(0.0, 0.4, size=m),
        gamma1s=rng.normal(0.0, 0.4, size=m),
        Dw=rng.normal(0.0, 0.4, size=(m, k)),
        a_q=rng.normal(0.0, 0.1, size=m),
        sigma=rng.uniform(0.5, 1.5, size=m),
        s_process=s_process,
        controls_process=controls_process,
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
    rho_s = float(est.s_process.coefficients[0])
    a_s = est.s_process.intercept
    if k:
        R, c_a, _ = est.controls_transition()
    q = np.zeros((steps + 2, m))
    if q_init is not None:
        q[0] = q_init[0]
        q[1] = q_init[1]
    s_prev = s_init
    z_prev = np.zeros(k) if z_init is None else np.asarray(z_init, dtype=float)
    out = np.empty((steps, m))
    for t in range(steps):
        s_t = a_s + rho_s * s_prev + eta[t]
        z_t = (c_a + R @ z_prev + v[t]) if k else np.zeros(0)
        row = np.empty(m)
        for i in range(m):
            acc = est.a_q[i]
            for j in range(i):
                acc -= est.A0[i, j] * row[j]
            acc += est.A1[i] @ q[t + 1] + est.A2[i] @ q[t]
            acc += est.gamma0s[i] * s_t + est.gamma1s[i] * s_prev
            if k:
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
        eta[0] = est.s_process.omega
    elif shock in est.controls:
        _, _, omegas = est.controls_transition()
        v[0, est.controls.index(shock)] = omegas[est.controls.index(shock)]
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
    R, c_a, _ = est.controls_transition()
    P0 = np.eye(n)
    P0[:m, :m] = est.A0
    P0[:m, m] = -est.gamma0s
    if k:
        P0[:m, m + 1 :] = -est.Dw
    P1 = np.zeros((n, n))
    P1[:m, :m] = est.A1
    P1[:m, m] = est.gamma1s
    P1[m, m] = float(est.s_process.coefficients[0])
    if k:
        P1[m + 1 :, m + 1 :] = R
    P2 = np.zeros((n, n))
    P2[:m, :m] = est.A2
    a = np.concatenate([est.a_q, [est.s_process.intercept], c_a])
    P0inv = np.linalg.inv(P0)
    return P0inv, P0inv @ P1, P0inv @ P2, P0inv @ a


def simulate_panel(
    est: SvarEstimate, steps: int, rng: np.random.Generator, burn: int = 100
) -> np.ndarray:
    """Gaussian-innovation sample path of (q, s, controls), after burn-in."""
    m, k = est.m, est.k
    n = m + 1 + k
    P0inv, B1, B2, c = stacked_true_matrices(est)
    scales = np.concatenate(
        [
            np.sqrt(est.sigma),
            [est.s_process.omega],
            est.controls_transition()[2] if k else np.zeros(0),
        ]
    )
    total = steps + burn
    u = rng.normal(size=(total, n)) * scales
    shifted = u @ P0inv.T + c
    Z = np.zeros((total + 2, n))
    for t in range(total):
        Z[t + 2] = shifted[t] + B1 @ Z[t + 1] + B2 @ Z[t]
    return Z[2 + burn :]


def bootstrap_reference(
    est: SvarEstimate,
    Z: np.ndarray,
    spec: SvarSpec,
    horizon: int,
    replications: int,
    quantiles: tuple[float, float],
    seed: int,
    joint_resampling: bool,
    shocked_control: str | None,
) -> BootstrapBands:
    """The bootstrap one replication at a time, as a reference for the chunked one.

    Same arguments and draws as ``newsvar.bootstrap._bootstrap_from_matrix``:
    each replication simulates its panel step by step, re-estimates it with
    ``estimate_svar_arrays`` and recomputes the stacked responses with
    ``irf_all``; a replication whose re-estimate raises is dropped.
    """
    system = build_stacked(est)
    n_state = system.Psi0.shape[0]
    M = spec.max_lag
    n_obs = Z.shape[0] - M
    U = _structural_residuals(est, n_obs)
    controls_var1 = isinstance(est.controls_process, ControlsVar1)
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
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                re_est = estimate_svar_arrays(spec, sim, controls_var1=controls_var1)
                rep = irf_all(re_est, horizon, shocked_control, method="stacked")
        except (NewsvarError, np.linalg.LinAlgError):
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
