"""Residual-resampling bootstrap bands for impulse responses.

Each replication resamples the estimated structural residuals equation by
equation (independently by default, jointly by row behind a flag), holds the
first observations fixed, simulates the stacked system forward over the
original sample span, re-estimates the model on the simulated panel, and
recomputes the impulse responses.  Replications run in chunks: one chunk's
panels are simulated in one time loop, re-estimated together
(:func:`~newsvar.svar.estimate_svar_stack`) and their responses computed in
one batched recursion.  Bands are pointwise empirical quantiles across
replications.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from .dynamics import _shock_columns, build_stacked, stacked_responses
from .errors import BootstrapError, ModelSpecError, SampleError
from .svar import aligned_matrix, estimate_svar_stack, SvarEstimate
from .timeseries import CalendarSeries

__all__ = ["BootstrapBands", "bootstrap_irf", "write_bands_metadata"]

# Bytes one chunk's widest equation design may take.  The chunk's panels,
# QR factors and response arrays grow with it, so this bounds the memory a
# chunk adds (about 1 MB at 4 equations and 125 periods, where it allows 47
# replications); chunks of more than a few replications amortize the
# per-step cost of the simulation loop.
CHUNK_DESIGN_BYTES = 1 << 19


@dataclass(frozen=True)
class BootstrapBands:
    """Pointwise quantile bands per shock, variable, and horizon.

    Same-seed runs are bit-identical; replication r draws from a generator
    seeded ``seed + r``, so results do not depend on evaluation order.
    """

    replications: int
    requested: int
    dropped: int
    quantiles: tuple[float, float]
    seed: int
    horizon: int
    variables: tuple[str, ...]
    shocks: tuple[str, ...]
    lower: Mapping[str, np.ndarray]
    upper: Mapping[str, np.ndarray]
    median: Mapping[str, np.ndarray]
    joint_resampling: bool


def bootstrap_irf(
    est: SvarEstimate,
    data: Mapping[str, CalendarSeries],
    horizon: int = 24,
    replications: int = 1000,
    quantiles: tuple[float, float] = (0.05, 0.95),
    seed: int = 0,
    joint_resampling: bool = False,
    shocked_control: str | None = None,
) -> BootstrapBands:
    """Bootstrap confidence bands for all shock responses.

    Args:
        est: point estimate whose residuals and matrices seed the scheme;
            replications are re-estimated with its spec.
        data: the panel the estimate was fit on (anchors initial conditions).
        horizon: IRF horizon for the bands.
        replications: number of bootstrap samples.
        quantiles: (lower, upper) band quantiles; the point IRF need not lie
            inside the band, but the replication median does by construction.
        seed: base RNG seed; replication r uses ``seed + r``.
        joint_resampling: resample whole residual rows instead of each
            equation independently, preserving any cross-equation
            correlation of the estimated residuals.
        shocked_control: which control carries the global shock.

    Raises:
        BootstrapError: more than 5 per cent of replications failed to
            re-estimate (also a RuntimeError).
    """
    if not 0 <= quantiles[0] < quantiles[1] <= 1:
        raise ValueError("quantiles must satisfy 0 <= lo < hi <= 1")
    if replications < 1:
        raise ValueError("replications must be positive")
    Z, _, _ = aligned_matrix(est.spec, data)
    return _bootstrap_from_matrix(
        est,
        Z,
        horizon=horizon,
        replications=replications,
        quantiles=quantiles,
        seed=seed,
        joint_resampling=joint_resampling,
        shocked_control=shocked_control,
    )


def _bootstrap_from_matrix(
    est: SvarEstimate,
    Z: np.ndarray,
    horizon: int,
    replications: int,
    quantiles: tuple[float, float],
    seed: int,
    joint_resampling: bool,
    shocked_control: str | None,
) -> BootstrapBands:
    spec = est.spec
    system = build_stacked(est)
    n_state = system.Psi0.shape[0]
    N = Z.shape[0]
    M = spec.max_lag
    n_obs = N - M
    U = est.residuals
    if U is None:
        raise ModelSpecError("estimate carries no residuals; re-estimate from data")
    if U.shape[0] != n_obs:
        raise SampleError("residual blocks do not align with the estimation sample")
    P0inv = np.linalg.inv(system.Psi0)
    # one-step form: z_t = c + B1 z_{t-1} + B2 z_{t-2} + P0inv u_t
    B1T = (P0inv @ system.Psi1).T
    B2T = (P0inv @ system.Psi2).T
    c = P0inv @ system.intercept
    shocks, shock_cols = _shock_columns(est, shocked_control)
    m = est.m
    widest = max(1 + len(spec.equation_regressors(eq)) for eq in spec.ordering)
    chunk = max(1, CHUNK_DESIGN_BYTES // (8 * n_obs * widest))

    draws = np.empty((replications, len(shocks), horizon + 1, m))
    dropped = 0
    kept = 0
    for first in range(0, replications, chunk):
        C = min(chunk, replications - first)
        # resample indices (period, replication, equation), each replication
        # drawing from its own generator in the order of the one-at-a-time loop
        rows = np.empty((n_obs, C, n_state), dtype=np.intp)
        for i in range(C):
            rng = np.random.default_rng(seed + first + i)
            if joint_resampling:
                rows[:, i, :] = rng.integers(0, n_obs, n_obs)[:, None]
            else:
                for e in range(n_state):
                    rows[:, i, e] = rng.integers(0, n_obs, n_obs)
        u = U[rows, np.arange(n_state)]
        shifted = (u.reshape(-1, n_state) @ P0inv.T + c).reshape(u.shape)
        # time-major panels, so each step updates one contiguous (C, n_state) block
        sim = np.empty((N, C, n_state))
        sim[:M] = Z[:M, None, :]
        for t in range(M, N):
            np.matmul(sim[t - 1], B1T, out=sim[t])
            sim[t] += shifted[t - M]
            if M >= 2:
                sim[t] += sim[t - 2] @ B2T
        del rows, u, shifted  # free before the estimator's workspace is allocated
        stack = estimate_svar_stack(spec, sim.transpose(1, 0, 2), controls_var1=est.controls_var1)
        for _ in range(int(np.count_nonzero(~stack.ok))):
            dropped += 1
            if dropped > 0.05 * replications:
                raise BootstrapError(
                    f"bootstrap aborted: {dropped} of {replications} replications "
                    "failed to re-estimate"
                )
        good = stack.select(stack.ok)
        draws[kept : kept + good.ok.size] = stacked_responses(
            build_stacked(good), horizon, shock_cols, m
        )
        kept += good.ok.size

    # one partition of the draws serves all three quantiles; partitioned in
    # place, since the draws are not read again
    lower, upper, median = np.quantile(
        draws[:kept], [*quantiles, 0.5], axis=0, overwrite_input=True
    )
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


def write_bands_metadata(bands: BootstrapBands, path: str | Path) -> None:
    path = Path(path)
    payload = {
        "replications": bands.replications,
        "requested": bands.requested,
        "dropped": bands.dropped,
        "quantiles": list(bands.quantiles),
        "seed": bands.seed,
        "horizon": bands.horizon,
        "joint_resampling": bands.joint_resampling,
        "shocks": list(bands.shocks),
        "variables": list(bands.variables),
        "note": "band coverage level is configuration; quantiles above are the defaults",
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
