"""Impulse responses and forecast-error variance decompositions.

Two computation routes produce identical numbers: the direct route works on
the domestic-block moving average with convolution terms for the exogenous
intervention and global processes; the stacked route embeds those processes
as extra equations in one big recursion.  Agreement between the two is a
standing invariant checked by the test suite.
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from .errors import ModelSpecError, NonstationaryError
from .svar import SvarEstimate, SvarStack

__all__ = [
    "IrfResult",
    "FevdResult",
    "StackedSystem",
    "g_recursion",
    "build_stacked",
    "stacked_responses",
    "irf_domestic",
    "irf_sanction",
    "irf_global",
    "irf_all",
    "fevd",
    "stacked_dynamics",
    "max_method_deviation",
    "write_irf_csv",
    "write_fevd_csv",
    "plot_data_json",
]

_STATIONARITY_TOL = 1e-8


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
    """The full system over (endogenous, intervention, controls).

    Built from a :class:`SvarStack`, every array gains the stack's leading
    axis.
    """

    labels: tuple[str, ...]
    Psi0: np.ndarray
    Psi1: np.ndarray
    Psi2: np.ndarray
    intercept: np.ndarray
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
    """Assemble the stacked one-step form from one estimate or a stack of them."""
    if isinstance(est, SvarEstimate):
        if est.s_process.order != 1:
            raise ModelSpecError("stacked dynamics require a first-order intervention process")
        system = build_stacked(SvarStack.of(est))
        return StackedSystem(
            labels=est.variables + (est.spec.intervention_name,) + est.controls,
            Psi0=system.Psi0[0],
            Psi1=system.Psi1[0],
            Psi2=system.Psi2[0],
            intercept=system.intercept[0],
            scales=system.scales[0],
        )
    spec = est.spec
    m, k = spec.m, len(spec.controls)
    n = m + 1 + k
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
    scales = np.concatenate([np.sqrt(est.sigma), est.s_omega[..., None], est.c_sd], axis=-1)
    return StackedSystem(
        labels=spec.ordering + (spec.intervention_name,) + spec.controls,
        Psi0=Psi0,
        Psi1=Psi1,
        Psi2=Psi2,
        intercept=intercept,
        scales=scales,
    )


def stacked_responses(
    system: StackedSystem, horizon: int, shock_cols: list[int], m: int
) -> np.ndarray:
    """Scaled responses of the first ``m`` variables to the ``shock_cols`` shocks.

    Returns (..., shocks, horizon+1, m), with the system's leading axes
    first; one-standard-error shocks, from the stacked recursion.
    """
    Phi1 = np.linalg.solve(system.Psi0, system.Psi1)
    Phi2 = np.linalg.solve(system.Psi0, system.Psi2)
    F = g_recursion(Phi1, Phi2, horizon)
    MA = F @ np.linalg.inv(system.Psi0)[..., None, :, :]  # (..., H+1, n, n)
    cols = np.asarray(shock_cols)
    out = MA[..., :m, cols] * system.scales[..., None, None, cols]  # (..., H+1, m, shocks)
    return np.moveaxis(out, -1, -3)


def _stacked_moduli(system: StackedSystem) -> np.ndarray:
    n = system.Psi0.shape[0]
    Phi1 = np.linalg.solve(system.Psi0, system.Psi1)
    Phi2 = np.linalg.solve(system.Psi0, system.Psi2)
    companion = np.zeros((2 * n, 2 * n))
    companion[:n, :n] = Phi1
    companion[:n, n:] = Phi2
    companion[n:, :n] = np.eye(n)
    return np.abs(np.linalg.eigvals(companion))


def _warn_if_nonstationary(est: SvarEstimate) -> None:
    moduli = _stacked_moduli(build_stacked(est))
    top = float(np.max(moduli))
    if top >= 1.0 - _STATIONARITY_TOL:
        warnings.warn(
            f"system is nonstationary (max eigenvalue modulus {top:.6f}); "
            "impulse responses may diverge",
            RuntimeWarning,
            stacklevel=3,
        )


def _domestic_ma(est: SvarEstimate, horizon: int) -> np.ndarray:
    """G_h A0^{-1} for the domestic block, shape (H+1, m, m)."""
    Phi1 = np.linalg.solve(est.A0, est.A1)
    Phi2 = np.linalg.solve(est.A0, est.A2)
    G = g_recursion(Phi1, Phi2, horizon)
    return G @ np.linalg.inv(est.A0)


def _sanction_ma(est: SvarEstimate, horizon: int) -> np.ndarray:
    """Convolution coefficients b_h of a unit intervention innovation."""
    if est.s_process.order != 1:
        raise ModelSpecError("intervention process must be first order")
    rho = float(est.s_process.coefficients[0])
    if abs(rho) >= 1.0:
        raise NonstationaryError(
            f"intervention process is nonstationary (rho = {rho:.4f})"
        )
    GA = _domestic_ma(est, horizon)
    # d_l: loading of the innovation on the intervention terms at lag l;
    # GA already carries the A0 inverse.
    d = np.empty((horizon + 1, est.m))
    d[0] = est.gamma0s
    for ell in range(1, horizon + 1):
        d[ell] = rho**ell * est.gamma0s + rho ** (ell - 1) * est.gamma1s
    b = np.empty((horizon + 1, est.m))
    for h in range(horizon + 1):
        b[h] = sum(GA[h - ell] @ d[ell] for ell in range(h + 1))
    return b


def _global_ma(est: SvarEstimate, horizon: int, control: str) -> np.ndarray:
    """Convolution coefficients kappa_h of a unit shock to one control."""
    if control not in est.controls:
        raise ModelSpecError(f"control {control!r} not in the specification")
    R, _, _ = est.controls_transition()
    if R.size and np.max(np.abs(np.linalg.eigvals(R))) >= 1.0:
        raise NonstationaryError("control process is nonstationary")
    c_idx = est.controls.index(control)
    GA = _domestic_ma(est, horizon)
    e_c = np.zeros(est.k)
    e_c[c_idx] = 1.0
    kappa = np.empty((horizon + 1, est.m))
    r_l = e_c
    feed = []  # Dw R^l e_c at each lag; GA already carries the A0 inverse
    for _ in range(horizon + 1):
        feed.append(est.Dw @ r_l)
        r_l = R @ r_l
    for h in range(horizon + 1):
        kappa[h] = sum(GA[h - ell] @ feed[ell] for ell in range(h + 1))
    return kappa


def _resolve_control(est: SvarEstimate, shocked_control: str | None) -> str | None:
    if shocked_control is not None:
        if shocked_control not in est.controls:
            raise ModelSpecError(f"control {shocked_control!r} not in the specification")
        return shocked_control
    return est.controls[0] if est.controls else None


def irf_domestic(est: SvarEstimate, shock: str, horizon: int) -> np.ndarray:
    """Responses to a one-standard-error shock in one domestic equation."""
    if shock not in est.variables:
        raise ModelSpecError(f"unknown domestic shock {shock!r}")
    _warn_if_nonstationary(est)
    j = est.variables.index(shock)
    GA = _domestic_ma(est, horizon)
    return float(np.sqrt(est.sigma[j])) * GA[:, :, j]


def irf_sanction(est: SvarEstimate, horizon: int) -> np.ndarray:
    """Responses to a one-standard-error intervention innovation."""
    out = est.s_process.omega * _sanction_ma(est, horizon)
    _warn_if_nonstationary(est)
    return out


def irf_global(est: SvarEstimate, horizon: int, control: str | None = None) -> np.ndarray:
    """Responses to a one-standard-error innovation in one global control."""
    name = _resolve_control(est, control)
    if name is None:
        raise ModelSpecError("specification has no controls to shock")
    _, _, omegas = est.controls_transition()
    omega = float(omegas[est.controls.index(name)])
    out = omega * _global_ma(est, horizon, name)
    _warn_if_nonstationary(est)
    return out


def _shock_names(est: SvarEstimate, control: str | None) -> tuple[str, ...]:
    shocks = est.variables + (est.spec.intervention_name,)
    if control is not None:
        shocks = shocks + (control,)
    return shocks


def irf_all(
    est: SvarEstimate,
    horizon: int,
    shocked_control: str | None = None,
    method: str = "direct",
) -> IrfResult:
    """All shock responses in one result; ``method`` picks the computation route."""
    if method == "stacked":
        irf, _ = stacked_dynamics(est, horizon, shocked_control, want_fevd=False)
        return irf
    if method != "direct":
        raise ValueError(f"unknown method {method!r}")
    control = _resolve_control(est, shocked_control)
    _, _, omegas = est.controls_transition()
    responses: dict[str, np.ndarray] = {}
    scales: dict[str, float] = {}
    GA = _domestic_ma(est, horizon)
    for j, name in enumerate(est.variables):
        scales[name] = float(np.sqrt(est.sigma[j]))
        responses[name] = scales[name] * GA[:, :, j]
    s_name = est.spec.intervention_name
    scales[s_name] = float(est.s_process.omega)
    responses[s_name] = scales[s_name] * _sanction_ma(est, horizon)
    if control is not None:
        omega = float(omegas[est.controls.index(control)])
        scales[control] = omega
        responses[control] = omega * _global_ma(est, horizon, control)
    _warn_if_nonstationary(est)
    return IrfResult(
        horizon=horizon,
        variables=est.variables,
        shocks=_shock_names(est, control),
        responses=responses,
        scales=scales,
        method="direct",
    )


def _require_stationary(est: SvarEstimate) -> None:
    moduli = _stacked_moduli(build_stacked(est))
    top = float(np.max(moduli))
    if top >= 1.0 - _STATIONARITY_TOL:
        ranked = ", ".join(f"{v:.6f}" for v in sorted(moduli, reverse=True)[:4])
        raise NonstationaryError(
            "variance decomposition refused: companion eigenvalue moduli "
            f"reach {top:.6f} (largest: {ranked})"
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
    if method == "stacked":
        _, result = stacked_dynamics(est, horizon, shocked_control, want_irf=False)
        return result
    if method != "direct":
        raise ValueError(f"unknown method {method!r}")
    _require_stationary(est)
    control = _resolve_control(est, shocked_control)
    GA = _domestic_ma(est, horizon)
    numerators = []
    for j in range(est.m):
        numerators.append(est.sigma[j] * np.cumsum(GA[:, :, j] ** 2, axis=0))
    b = _sanction_ma(est, horizon)
    numerators.append(est.s_process.omega**2 * np.cumsum(b**2, axis=0))
    if control is not None:
        _, _, omegas = est.controls_transition()
        omega = float(omegas[est.controls.index(control)])
        kappa = _global_ma(est, horizon, control)
        numerators.append(omega**2 * np.cumsum(kappa**2, axis=0))
    stackednum = np.stack(numerators, axis=-1)  # (H+1, m, n_shocks)
    denom = stackednum.sum(axis=-1, keepdims=True)
    shares = stackednum / denom
    shocks = _shock_names(est, control)
    return FevdResult(
        horizon=horizon,
        variables=est.variables,
        shocks=shocks,
        shares={v: shares[:, i, :] for i, v in enumerate(est.variables)},
        method="direct",
    )


def stacked_dynamics(
    est: SvarEstimate,
    horizon: int,
    shocked_control: str | None = None,
    want_irf: bool = True,
    want_fevd: bool = True,
) -> tuple[IrfResult | None, FevdResult | None]:
    """IRFs and FEVDs from the stacked recursion over all equations at once."""
    system = build_stacked(est)
    control = _resolve_control(est, shocked_control)
    m = est.m
    shock_cols = list(range(m)) + [m]
    if control is not None:
        shock_cols.append(m + 1 + est.controls.index(control))
    shocks = _shock_names(est, control)
    blocks = stacked_responses(system, horizon, shock_cols, m)  # (shocks, H+1, m)

    irf_result = None
    if want_irf:
        _warn_if_nonstationary(est)
        irf_result = IrfResult(
            horizon=horizon,
            variables=est.variables,
            shocks=shocks,
            responses={name: blocks[i] for i, name in enumerate(shocks)},
            scales={name: float(system.scales[col]) for name, col in zip(shocks, shock_cols)},
            method="stacked",
        )

    fevd_result = None
    if want_fevd:
        _require_stationary(est)
        contrib = np.moveaxis(np.cumsum(blocks**2, axis=1), 0, -1)  # (H+1, m, n_shocks)
        denom = contrib.sum(axis=-1, keepdims=True)
        shares = contrib / denom
        fevd_result = FevdResult(
            horizon=horizon,
            variables=est.variables,
            shocks=shocks,
            shares={v: shares[:, i, :] for i, v in enumerate(est.variables)},
            method="stacked",
        )
    return irf_result, fevd_result


def max_method_deviation(
    est: SvarEstimate, horizon: int, shocked_control: str | None = None
) -> float:
    """Largest absolute difference between the direct and stacked routes."""
    direct_irf = irf_all(est, horizon, shocked_control, method="direct")
    stacked_irf, stacked_fv = stacked_dynamics(est, horizon, shocked_control)
    worst = 0.0
    for shock in direct_irf.shocks:
        worst = max(
            worst,
            float(np.max(np.abs(direct_irf.responses[shock] - stacked_irf.responses[shock]))),
        )
    try:
        direct_fv = fevd(est, horizon, shocked_control, method="direct")
    except NonstationaryError:
        return worst
    for var in direct_fv.variables:
        worst = max(
            worst, float(np.max(np.abs(direct_fv.shares[var] - stacked_fv.shares[var])))
        )
    return worst


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------


def write_irf_csv(irf: IrfResult, path: str | Path, bands=None) -> None:
    """Long-format CSV ``variable,shock,horizon,value[,lower,upper]``."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        header = ["variable", "shock", "horizon", "value"]
        if bands is not None:
            header += ["lower", "upper"]
        writer.writerow(header)
        for shock in irf.shocks:
            block = irf.responses[shock]
            for h in range(irf.horizon + 1):
                for i, var in enumerate(irf.variables):
                    row = [var, shock, str(h), repr(float(block[h, i]))]
                    if bands is not None:
                        row.append(repr(float(bands.lower[shock][h, i])))
                        row.append(repr(float(bands.upper[shock][h, i])))
                    writer.writerow(row)


def write_fevd_csv(result: FevdResult, path: str | Path) -> None:
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["variable", "shock", "horizon", "value"])
        for var in result.variables:
            block = result.shares[var]
            for h in range(result.horizon + 1):
                for j, shock in enumerate(result.shocks):
                    writer.writerow([var, shock, str(h), repr(float(block[h, j]))])


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
