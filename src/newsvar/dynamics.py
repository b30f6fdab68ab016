"""Impulse responses and forecast-error variance decompositions.

Both computation routes read one one-step form, :func:`build_stacked`, and
produce the same numbers: the direct route works on the domestic-block
moving average, with one-step recursions carrying the exogenous intervention
and global processes into it; the stacked route embeds those processes as
extra equations in one big recursion.  Either route yields one array of
unit-innovation responses, from which the impulse responses, the variance
shares and the cross-check between the routes all follow; the stationarity
verdict comes from the stacked companion's eigenvalue moduli, taken once per
call.  Agreement between the routes is a standing invariant checked by the
test suite.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping, NamedTuple

import numpy as np

from .errors import NonstationaryError
from .svar import companion, SvarEstimate, SvarStack
from .timeseries import write_csv

__all__ = [
    "IrfResult",
    "FevdResult",
    "StackedSystem",
    "g_recursion",
    "build_stacked",
    "stacked_responses",
    "irf_all",
    "fevd",
    "max_method_deviation",
    "write_irf_csv",
    "write_fevd_csv",
    "plot_data_json",
]


@dataclass(frozen=True)
class IrfResult:
    """Responses of the domestic variables to one-standard-error shocks.

    ``responses[shock]`` has shape (H+1, m): horizons down the rows, domestic
    variables across the columns, already scaled by the shock size recorded
    in ``scales``.
    """

    horizon: int
    variables: tuple[str, ...]
    shocks: tuple[str, ...]
    responses: Mapping[str, np.ndarray]
    scales: Mapping[str, float]
    method: str


@dataclass(frozen=True)
class FevdResult:
    """Forecast-error variance shares per domestic variable.

    ``shares[variable]`` has shape (H+1, n_shocks) with rows summing to one;
    shock columns follow ``shocks`` (domestic shocks, then the intervention,
    then the shocked global control when present).
    """

    horizon: int
    variables: tuple[str, ...]
    shocks: tuple[str, ...]
    shares: Mapping[str, np.ndarray]
    method: str


@dataclass(frozen=True)
class StackedSystem:
    """The one-step form of the full system over (endogenous, intervention,
    controls): ``z_t = c + Phi1 z_{t-1} + Phi2 z_{t-2} + impact u_t``, solved
    from the structural form ``Psi0 z_t = a + Psi1 z_{t-1} + Psi2 z_{t-2} + u_t``
    (``impact`` = Psi0^{-1}).

    Built from a :class:`SvarStack`, every array gains the stack's leading
    axis.  ``scales`` are the innovation standard errors.
    """

    Phi1: np.ndarray
    Phi2: np.ndarray
    impact: np.ndarray
    c: np.ndarray
    scales: np.ndarray


def g_recursion(Phi1: np.ndarray, Phi2: np.ndarray, horizon: int) -> np.ndarray:
    """Moving-average coefficient matrices of the two-lag recursion.

    Returns an array of shape (horizon+1, n, n) with G_0 = I.  Leading axes
    of ``Phi1`` and ``Phi2`` (..., n, n) are batch axes and come first in
    the result: (..., horizon+1, n, n).
    """
    Phi1 = np.asarray(Phi1, dtype=float)
    Phi2 = np.asarray(Phi2, dtype=float)
    n = Phi1.shape[-1]
    if Phi1.ndim < 2 or Phi1.shape[-2] != n or Phi2.shape != Phi1.shape:
        raise ValueError("lag matrices must be square and same size")
    if horizon < 0:
        raise ValueError("horizon must be non-negative")
    G = np.empty(Phi1.shape[:-2] + (horizon + 1, n, n))
    G[..., 0, :, :] = np.eye(n)
    if horizon >= 1:
        G[..., 1, :, :] = Phi1
    for h in range(2, horizon + 1):
        G[..., h, :, :] = Phi1 @ G[..., h - 1, :, :] + Phi2 @ G[..., h - 2, :, :]
    return G


def build_stacked(est: SvarEstimate | SvarStack) -> StackedSystem:
    """Solve the structural form once for the one-step form, from one
    estimate or a stack of them; every response, stationarity verdict and
    simulation reads the result."""
    spec = est.spec
    m, n = spec.m, len(spec.columns)
    batch = est.A0.shape[:-2]

    Psi0 = np.broadcast_to(np.eye(n), batch + (n, n)).copy()
    Psi0[..., :m, :m] = est.A0
    Psi0[..., :m, m] = -est.gamma0s
    Psi0[..., :m, m + 1 :] = -est.Dw
    Psi1 = np.zeros(batch + (n, n))
    Psi1[..., :m, :m] = est.A1
    Psi1[..., :m, m] = est.gamma1s
    Psi1[..., m, m] = est.s_rho
    Psi1[..., m + 1 :, m + 1 :] = est.c_transition
    Psi2 = np.zeros(batch + (n, n))
    Psi2[..., :m, :m] = est.A2

    intercept = np.concatenate([est.a_q, est.s_intercept[..., None], est.c_intercept], axis=-1)
    impact = np.linalg.inv(Psi0)
    return StackedSystem(
        Phi1=np.linalg.solve(Psi0, Psi1),
        Phi2=np.linalg.solve(Psi0, Psi2),
        impact=impact,
        c=(impact @ intercept[..., None])[..., 0],
        scales=np.concatenate([np.sqrt(est.sigma), est.s_omega[..., None], est.c_sd], axis=-1),
    )


def stacked_responses(
    system: StackedSystem, horizon: int, shock_cols: list[int], m: int
) -> np.ndarray:
    """Scaled responses of the first ``m`` variables to the ``shock_cols`` shocks.

    Returns (..., shocks, horizon+1, m), with the system's leading axes
    first; one-standard-error shocks, from the stacked recursion.  Only the
    reported block of G_h Psi0^{-1} is formed: the first ``m`` rows of G_h
    times the shock columns of the impact matrix.  With two or more shock
    columns, as every spec's shock list has, its numbers are those of the
    full product bit for bit.
    """
    G = g_recursion(system.Phi1, system.Phi2, horizon)
    cols = np.asarray(shock_cols)
    # contiguous, so matmul takes its BLAS path, which the strided view does not;
    # at least two rows, since one row takes another path whose sums differ
    impact = np.ascontiguousarray(system.impact[..., :, cols])
    out = (G[..., : max(m, 2), :] @ impact[..., None, :, :])[..., :m, :]  # (..., H+1, m, shocks)
    out *= system.scales[..., None, None, cols]
    return np.moveaxis(out, -1, -3)


def _check_stationary(system: StackedSystem, refuse: bool) -> None:
    """The stationarity verdict: responses warn, variance shares refuse."""
    rf = companion(system.Phi1, system.Phi2)
    if rf.stationary:
        return
    moduli = np.abs(rf.eigenvalues)
    top = float(np.max(moduli))
    if refuse:
        ranked = ", ".join(f"{v:.6f}" for v in sorted(moduli, reverse=True)[:4])
        raise NonstationaryError(
            "variance decomposition refused: companion eigenvalue moduli "
            f"reach {top:.6f} (largest: {ranked})"
        )
    warnings.warn(
        f"system is nonstationary (max eigenvalue modulus {top:.6f}); "
        "impulse responses may diverge",
        RuntimeWarning,
        stacklevel=3,
    )


def _direct_ma(est: SvarEstimate, system: StackedSystem, horizon: int, control: str | None) -> np.ndarray:
    """Unit-innovation responses (shocks, H+1, m) from the domestic moving average.

    GA_h = G_h A0^{-1} comes from the domestic (top-left m x m) block of the
    one-step form.  The exogenous shocks reach the domestic block through
    one-step recursions on GA, linear in the horizon: the intervention's
    response is ``x_h(gamma0s) + x_{h-1}(gamma1s)`` with
    ``x_h(v) = GA_h v + rho x_{h-1}(v)``, the control's is ``Y_h r`` with
    ``Y_h = GA_h Dw + Y_{h-1} R`` for the control's transition R and unit
    vector r.
    """
    rho = float(est.s_rho)
    if abs(rho) >= 1.0:
        raise NonstationaryError(f"intervention process is nonstationary (rho = {rho:.4f})")
    m = est.m
    GA = g_recursion(system.Phi1[:m, :m], system.Phi2[:m, :m], horizon) @ system.impact[:m, :m]
    out = np.empty((m + 1 + (control is not None), horizon + 1, m))
    out[:m] = GA.transpose(2, 0, 1)
    X = GA @ np.column_stack([est.gamma0s, est.gamma1s])  # x_h(gamma0s), x_h(gamma1s)
    for h in range(1, horizon + 1):
        X[h] += rho * X[h - 1]
    out[m] = X[..., 0]
    out[m, 1:] += X[:-1, :, 1]
    if control is not None:
        Y = GA @ est.Dw
        for h in range(1, horizon + 1):
            Y[h] += Y[h - 1] @ est.c_transition
        out[m + 1] = Y[..., est.controls.index(control)]
    return out


class _Responses(NamedTuple):
    """One route's responses: ``scales[i] * unscaled[i]`` is the response
    (H+1, m) to a one-standard-error shock i."""

    shocks: tuple[str, ...]
    scales: np.ndarray
    unscaled: np.ndarray  # (shocks, H+1, m)


def _responses(
    est: SvarEstimate,
    system: StackedSystem,
    horizon: int,
    shocked_control: str | None,
    method: str,
) -> _Responses:
    shocks, cols = est.spec.shocks(shocked_control)
    control = shocks[-1] if est.controls else None
    if method == "direct":
        unscaled = _direct_ma(est, system, horizon, control)
    elif method == "stacked":
        # unit shocks; the scales are applied by the caller
        unit = replace(system, scales=np.ones_like(system.scales))
        unscaled = stacked_responses(unit, horizon, cols, est.m)
    else:
        raise ValueError(f"unknown method {method!r}")
    return _Responses(shocks, system.scales[cols], unscaled)


def _shares(r: _Responses) -> np.ndarray:
    """Variance shares (H+1, m, shocks): each shock's cumulated squared
    responses over their sum across shocks."""
    contrib = np.stack(
        [s**2 * np.cumsum(u**2, axis=0) for s, u in zip(r.scales, r.unscaled)], axis=-1
    )
    return contrib / contrib.sum(axis=-1, keepdims=True)


def irf_all(
    est: SvarEstimate,
    horizon: int,
    shocked_control: str | None = None,
    method: str = "direct",
) -> IrfResult:
    """All shock responses in one result; ``method`` picks the computation route."""
    system = build_stacked(est)
    r = _responses(est, system, horizon, shocked_control, method)
    _check_stationary(system, refuse=False)
    return IrfResult(
        horizon=horizon,
        variables=est.variables,
        shocks=r.shocks,
        responses={name: r.scales[i] * r.unscaled[i] for i, name in enumerate(r.shocks)},
        scales={name: float(r.scales[i]) for i, name in enumerate(r.shocks)},
        method=method,
    )


def fevd(
    est: SvarEstimate,
    horizon: int,
    shocked_control: str | None = None,
    method: str = "direct",
) -> FevdResult:
    """Variance shares per variable and shock, all rows summing to one.

    When several controls are present only the designated one carries a
    shock; the rest are treated as deterministic paths and get no column.
    """
    system = build_stacked(est)
    _check_stationary(system, refuse=True)
    r = _responses(est, system, horizon, shocked_control, method)
    shares = _shares(r)
    return FevdResult(
        horizon=horizon,
        variables=est.variables,
        shocks=r.shocks,
        shares={v: shares[:, i, :] for i, v in enumerate(est.variables)},
        method=method,
    )


def max_method_deviation(
    est: SvarEstimate, horizon: int, shocked_control: str | None = None
) -> float:
    """Largest absolute difference between the direct and stacked routes,
    over the responses and the variance shares."""
    system = build_stacked(est)
    _check_stationary(system, refuse=True)
    routes = [
        _responses(est, system, horizon, shocked_control, route) for route in ("direct", "stacked")
    ]
    irfs = [r.scales[:, None, None] * r.unscaled for r in routes]
    shares = [_shares(r) for r in routes]
    return float(max(np.max(np.abs(irfs[0] - irfs[1])), np.max(np.abs(shares[0] - shares[1]))))


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------


def write_irf_csv(irf: IrfResult, path: str | Path, bands=None) -> None:
    """Long-format CSV ``variable,shock,horizon,value[,lower,upper]``."""
    # per shock, (H+1, m) blocks of the responses, then of the bands' lower and upper
    tables = [irf.responses] if bands is None else [irf.responses, bands.lower, bands.upper]
    header = ("variable", "shock", "horizon", "value", "lower", "upper")[: 3 + len(tables)]
    rows = (
        [var, shock, str(h), *(repr(float(table[shock][h, i])) for table in tables)]
        for shock in irf.shocks
        for h in range(irf.horizon + 1)
        for i, var in enumerate(irf.variables)
    )
    write_csv(path, header, rows)


def write_fevd_csv(result: FevdResult, path: str | Path) -> None:
    rows = (
        [var, shock, str(h), repr(float(result.shares[var][h, j]))]
        for var in result.variables
        for h in range(result.horizon + 1)
        for j, shock in enumerate(result.shocks)
    )
    write_csv(path, ("variable", "shock", "horizon", "value"), rows)


def plot_data_json(irf: IrfResult, bands=None) -> dict[str, object]:
    """Figure-ready series of (horizon, value, band) tuples per shock/variable."""
    payload: dict[str, object] = {
        "horizons": list(range(irf.horizon + 1)),
        "method": irf.method,
        "shocks": {},
    }
    for shock in irf.shocks:
        block = irf.responses[shock]
        per_var = {}
        for i, var in enumerate(irf.variables):
            entry: dict[str, object] = {"value": [float(v) for v in block[:, i]]}
            if bands is not None:
                entry["lower"] = [float(v) for v in bands.lower[shock][:, i]]
                entry["upper"] = [float(v) for v in bands.upper[shock][:, i]]
            per_var[var] = entry
        payload["shocks"][shock] = {
            "scale": float(irf.scales[shock]),
            "responses": per_var,
        }
    return payload
