"""Recursive structural VAR with exogenous intervention and global blocks.

The endogenous block is identified by a causal ordering: each equation is
regressed by least squares on the contemporaneous variables earlier in the
ordering, its own and the others' lags, the intervention series (current
and/or lagged), and contemporaneous global controls.  The intervention and
control processes are fit separately as autoregressions; they never appear
as dependent variables in the endogenous block.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from typing import Mapping, NamedTuple

import numpy as np

from .errors import (
    CollinearityError,
    DegenerateDataError,
    DomainError,
    ModelSpecError,
    NewsvarError,
    SampleError,
)
from .regression import lstsq_chain, ols, RegressionFit
from .timeseries import align, CalendarSeries, PeriodLabel

__all__ = [
    "SvarSpec",
    "SvarEstimate",
    "SvarStack",
    "estimate_svar",
    "estimate_svar_arrays",
    "estimate_svar_stack",
    "aligned_matrix",
    "ReducedForm",
    "reduced_form",
    "estimate_to_json",
]


def _lag_name(name: str, lag: int) -> str:
    return name if lag == 0 else f"{name}.L{lag}"


@dataclass(frozen=True)
class SvarSpec:
    """Specification of the recursive system.

    Args:
        ordering: endogenous variable names, causal order first to last.
        lags: base lag order applied to every endogenous variable, either a
            single int (all equations) or a per-equation mapping.  Lags 1 and
            2 are supported.
        extra_lags: per-equation additional (variable, lag) terms beyond the
            base lags, e.g. a second own lag in one equation only.
        intervention: (current, lagged) inclusion flags for the intervention
            series, either shared or per equation.
        intervention_name: name of the intervention series in the data panel.
        controls: names of contemporaneous global controls (every equation
            includes all of them).
    """

    ordering: tuple[str, ...]
    lags: int | Mapping[str, int] = 2
    extra_lags: Mapping[str, tuple[tuple[str, int], ...]] = field(default_factory=dict)
    intervention: tuple[bool, bool] | Mapping[str, tuple[bool, bool]] = (True, True)
    intervention_name: str = "s"
    controls: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "ordering", tuple(self.ordering))
        object.__setattr__(self, "controls", tuple(self.controls))
        if not self.ordering:
            raise ModelSpecError("ordering must name at least one variable")
        if len(set(self.ordering)) != len(self.ordering):
            raise ModelSpecError("ordering has duplicate variable names")
        reserved = set(self.ordering) | {self.intervention_name}
        if len(set(self.controls)) != len(self.controls):
            raise ModelSpecError("duplicate control names")
        if reserved & set(self.controls):
            raise ModelSpecError("controls overlap endogenous or intervention names")
        if self.intervention_name in self.ordering:
            raise ModelSpecError("intervention name clashes with an endogenous variable")
        for eq in self.ordering:
            if not 1 <= self.base_lags(eq) <= 2:
                raise ModelSpecError(f"base lag order for {eq!r} must be 1 or 2")
        extras = {str(k): tuple(tuple(t) for t in v) for k, v in dict(self.extra_lags).items()}
        for eq, terms in extras.items():
            if eq not in self.ordering:
                raise ModelSpecError(f"extra lags reference unknown equation {eq!r}")
            base = self.base_lags(eq)
            if len(set(terms)) != len(terms):
                raise ModelSpecError(f"extra lags of {eq!r} list a term twice")
            for name, lag_ in terms:
                if name not in self.ordering:
                    raise ModelSpecError(f"extra lag references unknown variable {name!r}")
                if not 1 <= int(lag_) <= 2:
                    raise ModelSpecError("extra lags support orders 1 and 2 only")
                if int(lag_) <= base:
                    raise ModelSpecError(
                        f"extra term {name}.L{lag_} already covered by base lags of {eq!r}"
                    )
        object.__setattr__(
            self,
            "extra_lags",
            {eq: tuple((str(n), int(l)) for n, l in terms) for eq, terms in extras.items()},
        )

    @property
    def m(self) -> int:
        return len(self.ordering)

    def base_lags(self, equation: str) -> int:
        if isinstance(self.lags, int):
            return self.lags
        try:
            return int(self.lags[equation])
        except KeyError:
            raise ModelSpecError(f"no lag order given for equation {equation!r}") from None

    def intervention_flags(self, equation: str) -> tuple[bool, bool]:
        if isinstance(self.intervention, Mapping):
            flags = self.intervention.get(equation, (False, False))
        else:
            flags = self.intervention
        return bool(flags[0]), bool(flags[1])

    @property
    def max_lag(self) -> int:
        top = 1
        for eq in self.ordering:
            top = max(top, self.base_lags(eq))
            for _, lag_ in self.extra_lags.get(eq, ()):
                top = max(top, lag_)
        return top

    def equation_regressors(self, equation: str) -> list[tuple[str, int]]:
        """Ordered (name, lag) pairs entering this equation, intercept excluded."""
        i = self.ordering.index(equation)
        terms: list[tuple[str, int]] = [(v, 0) for v in self.ordering[:i]]
        for lag_ in range(1, self.base_lags(equation) + 1):
            terms.extend((v, lag_) for v in self.ordering)
        terms.extend(self.extra_lags.get(equation, ()))
        current, lagged = self.intervention_flags(equation)
        if current:
            terms.append((self.intervention_name, 0))
        if lagged:
            terms.append((self.intervention_name, 1))
        terms.extend((c, 0) for c in self.controls)
        return terms

    @cached_property
    def _terms(self) -> tuple[tuple[tuple[str, int], ...], ...]:
        """:meth:`equation_regressors` of every equation, in the ordering."""
        return tuple(tuple(self.equation_regressors(eq)) for eq in self.ordering)

    @cached_property
    def _chains(self) -> tuple["_Chain", ...]:
        """The equations grouped by nested designs; see :func:`_equation_chains`."""
        return _equation_chains(self)

    def to_json(self) -> dict[str, object]:
        return {
            "ordering": list(self.ordering),
            "lags": self.lags if isinstance(self.lags, int) else dict(self.lags),
            "per_equation_extras": {
                eq: [list(t) for t in v] for eq, v in self.extra_lags.items()
            },
            "intervention": (
                list(self.intervention)
                if not isinstance(self.intervention, Mapping)
                else {k: list(v) for k, v in self.intervention.items()}
            ),
            "intervention_name": self.intervention_name,
            "controls": list(self.controls),
        }

    @staticmethod
    def from_json(payload: Mapping[str, object]) -> "SvarSpec":
        if not isinstance(payload, Mapping):
            raise ModelSpecError("spec file must hold a JSON object")
        known = {
            "ordering",
            "lags",
            "per_equation_extras",
            "intervention",
            "intervention_name",
            "controls",
        }
        unknown = set(payload) - known
        if unknown:
            raise ModelSpecError(f"unknown spec fields: {sorted(unknown)}")
        if "ordering" not in payload:
            raise ModelSpecError("spec file must name the variable ordering")
        lags = payload.get("lags", 2)
        if isinstance(lags, Mapping):
            lags = {str(k): _spec_int(v, f"lags.{k}") for k, v in lags.items()}
        else:
            lags = _spec_int(lags, "lags")
        intervention = payload.get("intervention", (True, True))
        if isinstance(intervention, Mapping):
            intervention = {
                str(k): _spec_flags(v, f"intervention.{k}") for k, v in intervention.items()
            }
        else:
            intervention = _spec_flags(intervention, "intervention")
        extra = payload.get("per_equation_extras", {})
        if not isinstance(extra, Mapping):
            raise ModelSpecError("spec field 'per_equation_extras' must map equations to terms")
        extra = {str(k): _spec_terms(v, f"per_equation_extras.{k}") for k, v in extra.items()}
        return SvarSpec(
            ordering=_spec_names(payload["ordering"], "ordering"),
            lags=lags,
            extra_lags=extra,
            intervention=intervention,
            intervention_name=str(payload.get("intervention_name", "s")),
            controls=_spec_names(payload.get("controls", ()), "controls"),
        )


# Checked readers for the JSON spec fields: a field of the wrong shape is a
# ModelSpecError, never a stray TypeError, or a string split into characters.


def _spec_int(value: object, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ModelSpecError(f"spec field {what!r} must be an integer, got {value!r}")
    return value


def _spec_names(value: object, what: str) -> tuple[str, ...]:
    if not isinstance(value, (list, tuple)) or not all(isinstance(v, str) for v in value):
        raise ModelSpecError(f"spec field {what!r} must be a list of names, got {value!r}")
    return tuple(value)


def _spec_flags(value: object, what: str) -> tuple[bool, bool]:
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(isinstance(v, bool) for v in value)
    ):
        raise ModelSpecError(
            f"spec field {what!r} must be a [current, lagged] pair of booleans, got {value!r}"
        )
    return value[0], value[1]


def _spec_terms(value: object, what: str) -> tuple[tuple[str, int], ...]:
    if not isinstance(value, (list, tuple)) or not all(
        isinstance(t, (list, tuple)) and len(t) == 2 and isinstance(t[0], str) for t in value
    ):
        raise ModelSpecError(f"spec field {what!r} must be a list of [name, lag] pairs, got {value!r}")
    return tuple((name, _spec_int(lag_, what)) for name, lag_ in value)


@dataclass(frozen=True)
class _System:
    """The numbers of the recursive system, shared by one estimate and a stack.

    ``A0`` is unit lower triangular with the negated contemporaneous
    coefficients below the diagonal; ``sigma`` holds the diagonal of the
    structural innovation covariance.  The intervention follows an AR(1)
    with coefficient ``s_rho``, intercept ``s_intercept`` and innovation
    standard error ``s_omega``; the controls follow
    ``z_t = c_intercept + c_transition z_{t-1} + v_t`` with innovation
    standard errors ``c_sd`` (a diagonal ``c_transition`` when each control
    is its own AR(1)).
    """

    spec: SvarSpec
    A0: np.ndarray
    A1: np.ndarray
    A2: np.ndarray
    gamma0s: np.ndarray
    gamma1s: np.ndarray
    Dw: np.ndarray
    a_q: np.ndarray
    sigma: np.ndarray
    s_rho: np.ndarray
    s_intercept: np.ndarray
    s_omega: np.ndarray
    c_transition: np.ndarray
    c_intercept: np.ndarray
    c_sd: np.ndarray


@dataclass(frozen=True)
class SvarEstimate(_System):
    """One estimate of the system; see :class:`_System` for the matrices.

    The exogenous numbers are 0-d arrays.  Estimates fit from data also
    carry the equation ``fits``, the ``residuals`` (estimation sample x
    (m+1+k): equations, intervention, controls) that the bootstrap
    resamples, the ``initial`` rows (the first ``spec.max_lag`` rows of the
    aligned panel, same columns) that it holds fixed, the control VAR(1)
    innovation covariance ``c_omega`` when ``controls_var1`` is set,
    ``nobs`` and ``sample_start``.
    """

    controls_var1: bool = False
    c_omega: np.ndarray | None = None
    fits: tuple[RegressionFit, ...] | None = None
    residuals: np.ndarray | None = None
    initial: np.ndarray | None = None
    nobs: int = 0
    sample_start: PeriodLabel | None = None

    def __post_init__(self) -> None:
        for f in fields(_System):
            if f.name != "spec":
                object.__setattr__(self, f.name, np.asarray(getattr(self, f.name), dtype=float))
        m = self.m
        if self.A0.shape != (m, m):
            raise ModelSpecError("A0 must be m x m")
        if not np.allclose(np.diag(self.A0), 1.0):
            raise ModelSpecError("A0 diagonal must be exactly 1")
        if np.any(np.triu(self.A0, 1) != 0.0):
            raise ModelSpecError("A0 must be lower triangular")

    @property
    def variables(self) -> tuple[str, ...]:
        return self.spec.ordering

    @property
    def controls(self) -> tuple[str, ...]:
        return self.spec.controls

    @property
    def m(self) -> int:
        return self.spec.m

    @property
    def k(self) -> int:
        return len(self.spec.controls)


@dataclass(frozen=True)
class SvarStack(_System):
    """C estimates of the system at once; axis 0 of every array indexes them.

    ``ok`` is False where the estimate failed: a rank-deficient design, a
    constant series under an autoregression or a non-finite panel, the
    cases in which :func:`estimate_svar_arrays` raises.  The other fields
    hold no meaningful numbers there.
    """

    ok: np.ndarray

    def select(self, index: np.ndarray) -> "SvarStack":
        """The estimates at ``index`` (integer or boolean), in that order."""
        return replace(
            self,
            **{f.name: getattr(self, f.name)[index] for f in fields(self) if f.name != "spec"},
        )


def aligned_matrix(
    spec: SvarSpec, data: Mapping[str, CalendarSeries]
) -> tuple[np.ndarray, tuple[str, ...], PeriodLabel]:
    """Stack the spec's series into an (N, m+1+k) matrix over their overlap.

    Column order: endogenous variables, intervention, controls.
    """
    names = spec.ordering + (spec.intervention_name,) + spec.controls
    missing = [name for name in names if name not in data]
    if missing:
        raise ModelSpecError(f"data panel lacks series for: {', '.join(missing)}")
    arrays, start = align(*(data[name] for name in names))
    return np.column_stack(arrays), names, start


def estimate_svar(
    spec: SvarSpec,
    data: Mapping[str, CalendarSeries],
    controls_var1: bool = False,
) -> SvarEstimate:
    """Estimate the recursive system equation by equation over aligned data.

    Exogenous processes (the intervention AR(1) and per-control AR(1)s, or a
    control VAR(1) when ``controls_var1`` is set) are fit separately; they
    feed the impulse-response and variance-decomposition machinery only and
    do not alter the structural equations.
    """
    Z, _, start = aligned_matrix(spec, data)
    est = estimate_svar_arrays(spec, Z, controls_var1=controls_var1)
    frequency = data[spec.ordering[0]].frequency
    return replace(est, sample_start=start.shift(spec.max_lag, frequency))


class _Chain(NamedTuple):
    """Equations whose designs nest, D_1 within D_2 within ... D_r, in causal order.

    ``columns`` lists the chain's terms after the constant:
    D_1, D_2 minus D_1, ..., D_r minus D_{r-1}, then equation r's own current
    value.  ``fits`` holds each equation's (design width with the constant,
    column of its dependent variable), as :func:`lstsq_chain` takes them;
    every dependent variable but the last is a current-value regressor of a
    later equation.  ``positions[j]`` gives the chain column of each of
    equation j's coefficients in :meth:`SvarSpec.equation_regressors` order,
    the constant (column 0) first.
    """

    equations: tuple[int, ...]
    columns: tuple[tuple[str, int], ...]
    fits: tuple[tuple[int, int], ...]
    positions: tuple[np.ndarray, ...]


def _equation_chains(spec: SvarSpec) -> tuple[_Chain, ...]:
    """Group the equations into chains of nested designs.

    Equations are taken from the narrowest design up; each joins the first
    chain whose last design is a subset of its own, or starts a chain.  In a
    recursive system equation i's design holds every earlier equation's
    current value, so the designs of a plain lag structure form one chain.
    """
    terms = spec._terms
    groups: list[list[int]] = []
    for i in sorted(range(spec.m), key=lambda i: len(terms[i])):
        for group in groups:
            if set(terms[group[-1]]) <= set(terms[i]):
                group.append(i)
                break
        else:
            groups.append([i])
    chains = []
    for group in groups:
        columns: list[tuple[str, int]] = []
        for i in group:
            columns += [t for t in terms[i] if t not in columns]
        columns.append((spec.ordering[group[-1]], 0))
        at = {t: j for j, t in enumerate(columns, start=1)}
        chains.append(
            _Chain(
                equations=tuple(group),
                columns=tuple(columns),
                fits=tuple((1 + len(terms[i]), at[(spec.ordering[i], 0)]) for i in group),
                positions=tuple(np.array([0] + [at[t] for t in terms[i]]) for i in group),
            )
        )
    return tuple(chains)


def _design_pool(spec: SvarSpec, Z: np.ndarray) -> tuple[dict[tuple[str, int], np.ndarray], int]:
    """Columns for every (name, lag) the spec can reference, over t = M..N-1.

    ``Z`` is (..., N, columns); leading axes carry through to the columns.
    Raises :class:`SampleError` when some equation has no more observations
    than regressors.
    """
    names = spec.ordering + (spec.intervention_name,) + spec.controls
    col = {name: i for i, name in enumerate(names)}
    M = spec.max_lag
    N = Z.shape[-2]
    if N <= M:
        raise SampleError("aligned sample shorter than the lag order")
    nobs = N - M
    for eq, terms in zip(spec.ordering, spec._terms):
        if nobs <= len(terms) + 1:
            raise SampleError(
                f"equation {eq!r} has {len(terms) + 1} regressors but only {nobs} observations"
            )
    wanted = {t for chain in spec._chains for t in chain.columns}
    pool = {(name, lag_): Z[..., M - lag_ : N - lag_, col[name]] for name, lag_ in wanted}
    return pool, M


def _structural_blocks(
    spec: SvarSpec, coefficients: list[np.ndarray]
) -> tuple[np.ndarray, ...]:
    """Place each equation's least-squares coefficients in the structural matrices.

    ``coefficients[i]`` is (..., 1 + regressors) for equation i: the
    intercept, then the terms of :meth:`SvarSpec.equation_regressors` in
    order.  Returns (A0, A1, A2, gamma0s, gamma1s, Dw, a_q), each with the
    coefficients' leading axes.
    """
    m, k = spec.m, len(spec.controls)
    batch = coefficients[0].shape[:-1]
    A0 = np.broadcast_to(np.eye(m), batch + (m, m)).copy()
    A1 = np.zeros(batch + (m, m))
    A2 = np.zeros(batch + (m, m))
    gamma0s = np.zeros(batch + (m,))
    gamma1s = np.zeros(batch + (m,))
    Dw = np.zeros(batch + (m, k))
    a_q = np.zeros(batch + (m,))
    for i, (terms, coef) in enumerate(zip(spec._terms, coefficients)):
        a_q[..., i] = coef[..., 0]
        for j, (name, lag_) in enumerate(terms, start=1):
            if name == spec.intervention_name:
                (gamma0s if lag_ == 0 else gamma1s)[..., i] = coef[..., j]
            elif name in spec.controls:
                Dw[..., i, spec.controls.index(name)] = coef[..., j]
            elif lag_ == 0:
                A0[..., i, spec.ordering.index(name)] = -coef[..., j]
            else:
                (A1 if lag_ == 1 else A2)[..., i, spec.ordering.index(name)] = coef[..., j]
    return A0, A1, A2, gamma0s, gamma1s, Dw, a_q


def estimate_svar_arrays(
    spec: SvarSpec, Z: np.ndarray, controls_var1: bool = False
) -> SvarEstimate:
    """Estimate from an aligned (N, m+1+k) matrix; see :func:`estimate_svar`.

    Every structural and exogenous number is :func:`estimate_svar_stack`'s
    on a stack of one.  Each equation is also fit by :func:`ols`, for its
    coefficient table, its residuals and, on a rank-deficient design, the
    error that names the dependent columns.
    """
    m = spec.m
    names = spec.ordering + (spec.intervention_name,) + spec.controls
    if Z.ndim != 2 or Z.shape[1] != len(names):
        raise ModelSpecError(f"data matrix must have {len(names)} columns")
    pool, M = _design_pool(spec, Z)
    fits = tuple(
        ols(
            pool[(eq, 0)],
            np.column_stack([pool[t] for t in terms]) if terms else None,
            names=tuple(_lag_name(*t) for t in terms),
        )
        for eq, terms in zip(spec.ordering, spec._terms)
    )
    one = estimate_svar_stack(spec, Z[None], controls_var1=controls_var1)
    x = Z[:, m:]
    if not one.ok[0]:
        raise _exogenous_error(x, controls_var1)
    point = one.select(0)
    # the exogenous innovations over t = 1..N-1, from the stack's coefficients
    exogenous = np.column_stack(
        [
            x[1:, 0] - point.s_intercept - point.s_rho * x[:-1, 0],
            x[1:, 1:] - point.c_intercept - x[:-1, 1:] @ point.c_transition.T,
        ]
    )
    nobs = Z.shape[0] - M
    var1 = controls_var1 and len(spec.controls) > 0
    v = exogenous[:, 1:]
    return SvarEstimate(
        **{f.name: getattr(point, f.name) for f in fields(_System)},
        controls_var1=var1,
        c_omega=v.T @ v / (len(v) - v.shape[1] - 1) if var1 else None,
        fits=fits,
        residuals=np.column_stack([*(fit.residuals for fit in fits), exogenous[-nobs:]]),
        initial=Z[:M].copy(),
        nobs=nobs,
    )


def _exogenous_error(x: np.ndarray, controls_var1: bool) -> NewsvarError:
    """The error for exogenous series ``x`` (N, 1+k) whose fit failed: a
    non-finite value, a constant series under an AR(1) or a rank-deficient
    design, checked series by series."""
    for j in range(x.shape[1]):
        if not np.isfinite(x[:, j]).all():
            return DomainError("regression inputs must be finite")
        if (j == 0 or not controls_var1) and np.ptp(x[:, j]) == 0.0:
            return DegenerateDataError("cannot fit an autoregression to a constant series")
    return CollinearityError("exogenous process design is rank deficient")


def _ar1_stack(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """AR(1) fits of the rows of ``x`` (B, N) as :func:`~newsvar.regression.ar_fit` makes them.

    Returns (rho, intercept, omega, ok); ``ok`` is False where the series
    is constant or the fit is rank deficient.
    """
    A = np.stack([np.ones_like(x[:, 1:]), x[:, :-1], x[:, 1:]], axis=-1)
    fit = lstsq_chain(A, [(2, 2)])
    omega = np.sqrt(fit.ssr[:, 0] / (x.shape[1] - 3))
    ok = fit.full_rank & (np.ptp(x, axis=1) != 0.0)
    return fit.coefficients[:, 1, 0], fit.coefficients[:, 0, 0], omega, ok


def estimate_svar_stack(
    spec: SvarSpec, Z: np.ndarray, controls_var1: bool = False
) -> SvarStack:
    """Estimate the system on each of a stack of panels ``Z`` (C, N, m+1+k).

    Each chain of equations with nested designs is fit for the whole stack
    by one :func:`lstsq_chain` call (one QR), and so are the intervention
    AR(1) and the control AR(1)s or VAR(1), one call each.  A
    panel whose fit fails does not raise: its ``ok`` flag is cleared.
    """
    m, k = spec.m, len(spec.controls)
    names = spec.ordering + (spec.intervention_name,) + spec.controls
    if Z.ndim != 3 or Z.shape[2] != len(names):
        raise ModelSpecError(f"data stack must be (panels, periods, {len(names)})")
    C, N = Z.shape[:2]
    pool, M = _design_pool(spec, Z)
    nobs = N - M
    width = max(2, k + 1) if controls_var1 else 2
    if N - 1 <= width:
        raise SampleError(f"exogenous processes need more than {width + 1} observations, got {N}")

    ok = np.ones(C, dtype=bool)
    sigma = np.empty((C, m))
    coefficients: dict[int, np.ndarray] = {}
    for chain in spec._chains:
        A = np.stack([np.ones((C, nobs))] + [pool[t] for t in chain.columns], axis=-1)
        fit = lstsq_chain(A, chain.fits)
        ok &= fit.full_rank
        for j, (i, (width, _), at) in enumerate(zip(chain.equations, chain.fits, chain.positions)):
            coefficients[i] = fit.coefficients[:, at, j]
            sigma[:, i] = fit.ssr[:, j] / (nobs - width)
    A0, A1, A2, gamma0s, gamma1s, Dw, a_q = _structural_blocks(
        spec, [coefficients[i] for i in range(m)]
    )

    if controls_var1 and k:
        s_rho, s_intercept, s_omega, s_ok = _ar1_stack(Z[:, :, m])
        zc = Z[:, :, m + 1 :]
        A = np.concatenate([np.ones((C, N - 1, 1)), zc[:, :-1], zc[:, 1:]], axis=2)
        fit = lstsq_chain(A, [(k + 1, k + 1 + j) for j in range(k)])
        ok &= s_ok & fit.full_rank
        c_intercept = fit.coefficients[:, 0, :]
        c_transition = np.swapaxes(fit.coefficients[:, 1:, :], 1, 2)
        c_sd = np.sqrt(fit.ssr / (N - 1 - (k + 1)))
    else:
        # the intervention and each control follow their own AR(1): fit all at once
        series = np.swapaxes(Z[:, :, m:], 1, 2).reshape(C * (1 + k), N)
        rho, intercept, omega, ar_ok = (a.reshape(C, 1 + k) for a in _ar1_stack(series))
        ok &= ar_ok.all(axis=1)
        s_rho, s_intercept, s_omega = rho[:, 0], intercept[:, 0], omega[:, 0]
        c_transition = rho[:, 1:, None] * np.eye(k)
        c_intercept = intercept[:, 1:]
        c_sd = omega[:, 1:]

    return SvarStack(
        spec=spec,
        A0=A0,
        A1=A1,
        A2=A2,
        gamma0s=gamma0s,
        gamma1s=gamma1s,
        Dw=Dw,
        a_q=a_q,
        sigma=sigma,
        s_rho=s_rho,
        s_intercept=s_intercept,
        s_omega=s_omega,
        c_transition=c_transition,
        c_intercept=c_intercept,
        c_sd=c_sd,
        ok=ok,
    )


class ReducedForm(NamedTuple):
    Phi1: np.ndarray
    Phi2: np.ndarray
    eigenvalues: np.ndarray
    stationary: bool


def reduced_form(est: SvarEstimate) -> ReducedForm:
    """Reduced-form lag matrices and companion eigenvalues of the domestic block."""
    Phi1 = np.linalg.solve(est.A0, est.A1)
    Phi2 = np.linalg.solve(est.A0, est.A2)
    m = est.m
    companion = np.zeros((2 * m, 2 * m))
    companion[:m, :m] = Phi1
    companion[:m, m:] = Phi2
    companion[m:, :m] = np.eye(m)
    eigenvalues = np.linalg.eigvals(companion)
    return ReducedForm(
        Phi1=Phi1,
        Phi2=Phi2,
        eigenvalues=eigenvalues,
        stationary=bool(np.max(np.abs(eigenvalues)) < 1.0),
    )


def estimate_to_json(est: SvarEstimate) -> dict[str, object]:
    """Serializable snapshot of every structural matrix and process fit."""
    rf = reduced_form(est)
    payload: dict[str, object] = {
        "variables": list(est.variables),
        "controls": list(est.controls),
        "A0": est.A0.tolist(),
        "A1": est.A1.tolist(),
        "A2": est.A2.tolist(),
        "gamma0s": est.gamma0s.tolist(),
        "gamma1s": est.gamma1s.tolist(),
        "Dw": est.Dw.tolist(),
        "intercepts": est.a_q.tolist(),
        "sigma": est.sigma.tolist(),
        "nobs": est.nobs,
        "stationary": rf.stationary,
        "companion_eigenvalue_moduli": sorted(np.abs(rf.eigenvalues).tolist(), reverse=True),
        "intervention_process": {
            "order": 1,
            "intercept": float(est.s_intercept),
            "coefficients": [float(est.s_rho)],
            "omega": float(est.s_omega),
        },
    }
    if est.controls_var1:
        payload["controls_process"] = {
            "kind": "var1",
            "intercept": est.c_intercept.tolist(),
            "transition": est.c_transition.tolist(),
            "omega": est.c_omega.tolist(),
        }
    elif est.k:
        payload["controls_process"] = {
            "kind": "ar1",
            "per_control": {
                name: {
                    "intercept": float(est.c_intercept[j]),
                    "rho": float(est.c_transition[j, j]),
                    "omega": float(est.c_sd[j]),
                }
                for j, name in enumerate(est.controls)
            },
        }
    else:
        payload["controls_process"] = {"kind": "none"}
    return payload
