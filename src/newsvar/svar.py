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
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import (
    CollinearityError,
    DegenerateDataError,
    DomainError,
    ModelSpecError,
    NewsvarError,
    SampleError,
)
from .regression import chain_fit, lstsq_chain, ols, RegressionFit
from .timeseries import align, CalendarSeries, PeriodLabel

__all__ = [
    "SvarSpec",
    "SvarEstimate",
    "SvarStack",
    "estimate_svar",
    "estimate_svar_arrays",
    "estimate_svar_stack",
    "stack_slice",
    "aligned_matrix",
    "ReducedForm",
    "reduced_form",
    "companion",
    "estimate_to_json",
]


def _labels(terms: Sequence[tuple[str, int]]) -> tuple[str, ...]:
    return tuple(name if lag == 0 else f"{name}.L{lag}" for name, lag in terms)


@dataclass(frozen=True)
class SvarSpec:
    """Specification of the recursive system.

    Every field is checked and normalized here, whether the spec is built by
    keyword or read by :meth:`from_json`; a field of the wrong shape or
    meaning is a :class:`ModelSpecError`.

    Args:
        ordering: endogenous variable names, causal order first to last.
        lags: base lag order (1 or 2) of every equation, either a single int
            or a per-equation mapping that names every equation.
        extra_lags: per-equation additional (variable, lag) terms beyond the
            base lags, e.g. a second own lag in one equation only.
        intervention: (current, lagged) inclusion flags for the intervention
            series, either shared or per equation; an equation the mapping
            leaves out takes neither.
        intervention_name: name of the intervention series in the data panel,
            a non-empty string.
        controls: names of contemporaneous global controls (every equation
            includes all of them).

    ``lags`` and ``intervention`` are held as mappings from every equation,
    in causal order, to its lag order and its flags.
    """

    ordering: tuple[str, ...]
    lags: int | Mapping[str, int] = 2
    extra_lags: Mapping[str, tuple[tuple[str, int], ...]] = field(default_factory=dict)
    intervention: tuple[bool, bool] | Mapping[str, tuple[bool, bool]] = (True, True)
    intervention_name: str = "s"
    controls: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        # every field's shape first, then what the fields mean together
        lags = _spec_per_equation(self.lags, "lags", _spec_int)
        flags = _spec_per_equation(self.intervention, "intervention", _spec_flags)
        if not isinstance(self.extra_lags, Mapping):
            raise ModelSpecError(
                "spec field 'per_equation_extras' (keyword extra_lags) must map equations to terms"
            )
        extras = {eq: _spec_terms(v, eq) for eq, v in self.extra_lags.items()}
        ordering = _spec_names(self.ordering, "ordering")
        controls = _spec_names(self.controls, "controls")
        name = self.intervention_name
        if not isinstance(name, str) or not name:
            raise ModelSpecError(f"spec field 'intervention_name' must be a non-empty string, got {name!r}")
        if not ordering:
            raise ModelSpecError("ordering must name at least one variable")
        if len(set(ordering)) != len(ordering):
            raise ModelSpecError("ordering has duplicate variable names")
        if len(set(controls)) != len(controls):
            raise ModelSpecError("duplicate control names")
        if (set(ordering) | {name}) & set(controls):
            raise ModelSpecError("controls overlap endogenous or intervention names")
        if name in ordering:
            raise ModelSpecError("intervention name clashes with an endogenous variable")
        if isinstance(lags, int):
            lags = dict.fromkeys(ordering, lags)
        for eq in ordering:
            if eq not in lags:
                raise ModelSpecError(f"no lag order given for equation {eq!r}")
            if not 1 <= lags[eq] <= 2:
                raise ModelSpecError(f"base lag order for {eq!r} must be 1 or 2")
        if not isinstance(flags, Mapping):
            flags = dict.fromkeys(ordering, flags)
        named = {"'lags'": lags, "'intervention'": flags, "'per_equation_extras' (keyword extra_lags)": extras}
        for what, given in named.items():
            unknown = sorted((eq for eq in given if eq not in ordering), key=str)
            if unknown:
                raise ModelSpecError(f"spec field {what} names equations not in the ordering: {unknown}")
        for eq, terms in extras.items():
            if len(set(terms)) != len(terms):
                raise ModelSpecError(f"extra lags of {eq!r} list a term twice")
            for term, lag_ in terms:
                if term not in ordering:
                    raise ModelSpecError(f"extra lag references unknown variable {term!r}")
                if not 1 <= lag_ <= 2:
                    raise ModelSpecError("extra lags support orders 1 and 2 only")
                if lag_ <= lags[eq]:
                    raise ModelSpecError(
                        f"extra term {term}.L{lag_} already covered by base lags of {eq!r}"
                    )
        object.__setattr__(self, "ordering", ordering)
        object.__setattr__(self, "controls", controls)
        object.__setattr__(self, "lags", {eq: lags[eq] for eq in ordering})
        object.__setattr__(self, "intervention", {eq: flags.get(eq, (False, False)) for eq in ordering})
        object.__setattr__(self, "extra_lags", extras)

    @property
    def m(self) -> int:
        return len(self.ordering)

    @cached_property
    def columns(self) -> tuple[str, ...]:
        """The data panel's column names: the endogenous variables in causal
        order, the intervention, then the controls."""
        return self.ordering + (self.intervention_name,) + self.controls

    def shocks(self, shocked_control: str | None = None) -> tuple[tuple[str, ...], list[int]]:
        """Shock names and their :attr:`columns`: the domestic shocks, the
        intervention, then the shocked control (by default the first
        control, if any)."""
        if shocked_control is not None and shocked_control not in self.controls:
            raise ModelSpecError(f"control {shocked_control!r} not in the specification")
        names = self.ordering + (self.intervention_name,)
        if self.controls:
            names += (shocked_control or self.controls[0],)
        return names, [self.columns.index(name) for name in names]

    @cached_property
    def max_lag(self) -> int:
        return max(lag_ for terms in self._terms for _, lag_ in terms)

    def equation_regressors(self, equation: str) -> list[tuple[str, int]]:
        """Ordered (name, lag) pairs entering this equation, intercept excluded."""
        i = self.ordering.index(equation)
        terms: list[tuple[str, int]] = [(v, 0) for v in self.ordering[:i]]
        for lag_ in range(1, self.lags[equation] + 1):
            terms.extend((v, lag_) for v in self.ordering)
        terms.extend(self.extra_lags.get(equation, ()))
        current, lagged = self.intervention[equation]
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

    @staticmethod
    def from_json(payload: Mapping[str, object]) -> "SvarSpec":
        """The spec a spec file's JSON object describes; the file's
        ``per_equation_extras`` is the ``extra_lags`` field."""
        if not isinstance(payload, Mapping):
            raise ModelSpecError("spec file must hold a JSON object")
        known = ("ordering", "lags", "per_equation_extras", "intervention", "intervention_name", "controls")
        unknown = set(payload) - set(known)
        if unknown:
            raise ModelSpecError(f"unknown spec fields: {sorted(unknown)}")
        if "ordering" not in payload:
            raise ModelSpecError("spec file must name the variable ordering")
        renamed = {"per_equation_extras": "extra_lags"}
        return SvarSpec(**{renamed.get(key, key): value for key, value in payload.items()})


# Checked readers for the spec fields: a field of the wrong shape is a
# ModelSpecError, never a stray TypeError, or a string split into characters.


def _spec_per_equation(value: object, what: str, read: Callable[[object, str], object]) -> object:
    """``read`` of a field given once for every equation, or of each value of
    its per-equation mapping."""
    if isinstance(value, Mapping):
        return {eq: read(v, f"{what}.{eq}") for eq, v in value.items()}
    return read(value, what)


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


def _spec_terms(value: object, equation: str) -> tuple[tuple[str, int], ...]:
    """One equation's extra terms, named by the spec file's key and the keyword."""
    if not isinstance(value, (list, tuple)) or not all(
        isinstance(t, (list, tuple))
        and len(t) == 2
        and isinstance(t[0], str)
        and isinstance(t[1], int)
        and not isinstance(t[1], bool)
        for t in value
    ):
        raise ModelSpecError(
            f"spec field 'per_equation_extras.{equation}' (keyword extra_lags[{equation!r}]) "
            f"must be a list of [name, lag] pairs, got {value!r}"
        )
    return tuple((name, lag_) for name, lag_ in value)


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
        if not (np.diag(self.A0) == 1.0).all():
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
) -> tuple[np.ndarray, PeriodLabel]:
    """Stack the spec's series into an (N, m+1+k) matrix over their overlap,
    its columns in :attr:`SvarSpec.columns` order."""
    missing = [name for name in spec.columns if name not in data]
    if missing:
        raise ModelSpecError(f"data panel lacks series for: {', '.join(missing)}")
    arrays, start = align(*(data[name] for name in spec.columns))
    return np.column_stack(arrays), start


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
    Z, start = aligned_matrix(spec, data)
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
    the constant (column 0) first.  ``slabs`` covers ``columns`` with runs
    of adjacent panel columns at one lag, each (first design column, lag,
    first panel column, width), so a design is filled one slab per run.
    """

    equations: tuple[int, ...]
    columns: tuple[tuple[str, int], ...]
    fits: tuple[tuple[int, int], ...]
    positions: tuple[np.ndarray, ...]
    slabs: tuple[tuple[int, int, int, int], ...]


def _equation_chains(spec: SvarSpec) -> tuple[_Chain, ...]:
    """Group the equations into chains of nested designs.

    Equations are taken from the narrowest design up; each joins the first
    chain whose last design is a subset of its own, or starts a chain.  In a
    recursive system equation i's design holds every earlier equation's
    current value, so the designs of a plain lag structure form one chain.
    """
    terms = spec._terms
    col = {name: i for i, name in enumerate(spec.columns)}
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
        slabs: list[list[int]] = []
        for j, (name, lag) in enumerate(columns, start=1):
            last = slabs[-1] if slabs else None
            if last and last[1] == lag and last[2] + last[3] == col[name]:
                last[3] += 1
            else:
                slabs.append([j, lag, col[name], 1])
        chains.append(
            _Chain(
                equations=tuple(group),
                columns=tuple(columns),
                fits=tuple((1 + len(terms[i]), at[(spec.ordering[i], 0)]) for i in group),
                positions=tuple(np.array([0] + [at[t] for t in terms[i]]) for i in group),
                slabs=tuple(map(tuple, slabs)),
            )
        )
    return tuple(chains)


def _estimation_periods(spec: SvarSpec, N: int) -> int:
    """The periods t = M..N-1 a panel of ``N`` periods leaves to estimate on.

    Raises :class:`SampleError` when some equation has no more observations
    than regressors.
    """
    M = spec.max_lag
    if N <= M:
        raise SampleError("aligned sample shorter than the lag order")
    nobs = N - M
    for eq, terms in zip(spec.ordering, spec._terms):
        if nobs <= len(terms) + 1:
            raise SampleError(
                f"equation {eq!r} has {len(terms) + 1} regressors but only {nobs} observations"
            )
    return nobs


def _structural_blocks(spec: SvarSpec, coefficients: list[np.ndarray]) -> dict[str, np.ndarray]:
    """Place each equation's least-squares coefficients in the structural matrices.

    ``coefficients[i]`` is (..., 1 + regressors) for equation i: the
    intercept, then the terms of :meth:`SvarSpec.equation_regressors` in
    order.  Returns the :class:`_System` fields A0, A1, A2, gamma0s,
    gamma1s, Dw and a_q by name, each with the coefficients' leading axes.
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
    return {"A0": A0, "A1": A1, "A2": A2, "gamma0s": gamma0s, "gamma1s": gamma1s, "Dw": Dw, "a_q": a_q}


def estimate_svar_arrays(
    spec: SvarSpec, Z: np.ndarray, controls_var1: bool = False
) -> SvarEstimate:
    """Estimate from an aligned (N, m+1+k) matrix; see :func:`estimate_svar`.

    Every number is :func:`estimate_svar_stack`'s on a stack of one, and each
    equation's coefficient table and residuals are read off its chain's QR
    by :func:`~newsvar.regression.chain_fit`.
    """
    n = len(spec.columns)
    if Z.ndim != 2 or Z.shape[1] != n:
        raise ModelSpecError(f"data matrix must have {n} columns")
    one, factored = _estimate_stack(spec, Z[None], controls_var1)
    if not one.ok[0]:
        raise _estimate_error(spec, Z, controls_var1)
    point = one.select(0)
    # a row-major copy of each design: chain_fit's residual matmul takes
    # another BLAS path on the column-major one and rounds differently
    fits = tuple(
        chain_fit(np.ascontiguousarray(factored[i][0]), *factored[i][1:], ("const",) + _labels(terms))
        for i, terms in enumerate(spec._terms)
    )
    # the exogenous innovations over t = 1..N-1, from the stack's coefficients
    x = Z[:, spec.m :]
    exogenous = np.column_stack(
        [
            x[1:, 0] - point.s_intercept - point.s_rho * x[:-1, 0],
            x[1:, 1:] - point.c_intercept - x[:-1, 1:] @ point.c_transition.T,
        ]
    )
    nobs = Z.shape[0] - spec.max_lag
    var1 = controls_var1 and len(spec.controls) > 0
    v = exogenous[:, 1:]
    return SvarEstimate(
        **{f.name: getattr(point, f.name) for f in fields(_System)},
        controls_var1=var1,
        c_omega=v.T @ v / (len(v) - v.shape[1] - 1) if var1 else None,
        fits=fits,
        residuals=np.column_stack([*(fit.residuals for fit in fits), exogenous[-nobs:]]),
        initial=Z[: spec.max_lag].copy(),
        nobs=nobs,
    )


def _estimate_error(spec: SvarSpec, Z: np.ndarray, controls_var1: bool) -> NewsvarError:
    """The error of a failed estimate of ``Z``.  Each equation is refit by
    :func:`ols` in causal order, so the first that fails raises, naming its
    dependent columns; then each exogenous series is checked for a non-finite
    value, a constant series under an AR(1) or a rank-deficient design."""
    M, N = spec.max_lag, len(Z)
    column = dict(zip(spec.columns, Z.T))
    for eq, terms in zip(spec.ordering, spec._terms):
        X = np.column_stack([column[name][M - lag : N - lag] for name, lag in terms])
        ols(column[eq][M:], X, names=_labels(terms))
    x = Z[:, spec.m :]
    for j in range(x.shape[1]):
        if not np.isfinite(x[:, j]).all():
            return DomainError("regression inputs must be finite")
        if (j == 0 or not controls_var1) and np.ptp(x[:, j]) == 0.0:
            return DegenerateDataError("cannot fit an autoregression to a constant series")
    return CollinearityError("exogenous process design is rank deficient")


def _var1_stack(z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """VAR(1) fits ``z_t = intercept + transition z_{t-1} + v_t`` of the panels
    ``z`` (B, N, q), q regressions on one design in one :func:`lstsq_chain`
    call; with q = 1 it is one series' AR(1) with an intercept.
    Returns the intercepts (B, q), transitions (B, q, q), innovation
    standard errors (B, q) and full-rank flags (B,)."""
    B, N, q = z.shape
    A = np.empty((B, 2 * q + 1, N - 1)).transpose(0, 2, 1)  # column-major, as LAPACK reads it
    A[..., 0] = 1.0
    A[..., 1 : q + 1] = z[:, :-1]
    A[..., q + 1 :] = z[:, 1:]
    fit = lstsq_chain(A, [(q + 1, q + 1 + j) for j in range(q)])
    transition = np.swapaxes(fit.coefficients[:, 1:, :], 1, 2)
    return fit.coefficients[:, 0, :], transition, np.sqrt(fit.ssr / (N - 2 - q)), fit.full_rank


def estimate_svar_stack(
    spec: SvarSpec, Z: np.ndarray, controls_var1: bool = False
) -> SvarStack:
    """Estimate the system on each of a stack of panels ``Z`` (C, N, m+1+k).

    Each chain of equations with nested designs is fit by one
    :func:`lstsq_chain` call (one QR) per slice of :func:`stack_slice`
    panels, and the intervention AR(1) and the control AR(1)s or VAR(1) by
    one call each for the whole stack.  Every panel's numbers are those of
    a stack of that panel alone.  A panel whose fit fails does not raise:
    its ``ok`` flag is cleared.
    """
    return _estimate_stack(spec, Z, controls_var1)[0]


# Bytes one slice's widest equation design may take: the slice's design and
# QR copies grow with it, so this bounds the memory of the chain fits (about
# 1 MB at 4 equations and 125 periods, where it allows 47 panels).  Each
# panel's design is column-major, so the QR's copy of it into LAPACK's buffer
# reads it in order.
SLICE_DESIGN_BYTES = 1 << 19


def stack_slice(spec: SvarSpec, nobs: int) -> int:
    """Panels of ``nobs`` estimation periods per chain-fit slice of
    :func:`estimate_svar_stack`: as many as :data:`SLICE_DESIGN_BYTES` of the
    widest equation design hold, and at least one."""
    widest = 1 + max(len(terms) for terms in spec._terms)
    return max(1, SLICE_DESIGN_BYTES // (8 * nobs * widest))


def _estimate_stack(spec: SvarSpec, Z: np.ndarray, controls_var1: bool) -> tuple[SvarStack, dict]:
    """:func:`estimate_svar_stack`, with equation i's chain in ``factored[i]``:
    the :func:`~newsvar.regression.chain_fit` arguments (A, fit, j, column,
    order) of the stack's last slice, the whole stack when it is one panel.
    Each panel of A is column-major."""
    m, k = spec.m, len(spec.controls)
    n = len(spec.columns)
    if Z.ndim != 3 or Z.shape[2] != n:
        raise ModelSpecError(f"data stack must be (panels, periods, {n})")
    C, N = Z.shape[:2]
    nobs = _estimation_periods(spec, N)
    M = spec.max_lag

    # the exogenous fits, for the whole stack, come first: their designs are
    # freed before the chains' are made.  An autoregression of a constant
    # series fails; the VAR(1) relies on its rank check
    x = Z[:, :, m:]
    varying = np.ptp(x, axis=1) != 0.0
    if controls_var1 and k:
        intercept, rho, omega, s_ok = _var1_stack(x[:, :, :1])
        c_intercept, c_transition, c_sd, c_ok = _var1_stack(x[:, :, 1:])
        ok = s_ok & varying[:, 0] & c_ok
        s_rho, s_intercept, s_omega = rho[:, 0, 0], intercept[:, 0], omega[:, 0]
    else:
        # the intervention and each control follow their own AR(1): fit all at once
        fits = _var1_stack(np.swapaxes(x, 1, 2).reshape(C * (1 + k), N, 1))
        intercept, rho, omega, ar_ok = (a.reshape(C, 1 + k) for a in fits)
        ok = (ar_ok & varying).all(axis=1)
        s_rho, s_intercept, s_omega = rho[:, 0], intercept[:, 0], omega[:, 0]
        c_transition = rho[:, 1:, None] * np.eye(k)
        c_intercept = intercept[:, 1:]
        c_sd = omega[:, 1:]

    sigma = np.empty((C, m))
    coefficients = [np.empty((C, 1 + len(terms))) for terms in spec._terms]
    factored = {}
    step = stack_slice(spec, nobs)
    for first in range(0, C, step):
        rows = slice(first, min(first + step, C))
        for chain in spec._chains:
            # each panel's design column-major, so the QR's copy of it into
            # LAPACK's buffer reads it in order; R is the same either way
            A = np.empty((rows.stop - first, 1 + len(chain.columns), nobs)).transpose(0, 2, 1)
            A[..., 0] = 1.0
            for j, lag, c, width in chain.slabs:
                A[..., j : j + width] = Z[rows, M - lag : N - lag, c : c + width]
            fit = lstsq_chain(A, chain.fits)
            ok[rows] &= fit.full_rank
            for j, (i, (width, column), at) in enumerate(zip(chain.equations, chain.fits, chain.positions)):
                factored[i] = (A, fit, j, column, at)
                coefficients[i][rows] = fit.coefficients[:, at, j]
                sigma[rows, i] = fit.ssr[:, j] / (nobs - width)
    blocks = _structural_blocks(spec, coefficients)
    return SvarStack(
        spec=spec,
        **blocks,
        sigma=sigma,
        s_rho=s_rho,
        s_intercept=s_intercept,
        s_omega=s_omega,
        c_transition=c_transition,
        c_intercept=c_intercept,
        c_sd=c_sd,
        ok=ok,
    ), factored


class ReducedForm(NamedTuple):
    Phi1: np.ndarray
    Phi2: np.ndarray
    eigenvalues: np.ndarray
    stationary: bool


def reduced_form(est: SvarEstimate) -> ReducedForm:
    """Reduced-form lag matrices and companion eigenvalues of the domestic block."""
    return companion(np.linalg.solve(est.A0, est.A1), np.linalg.solve(est.A0, est.A2))


def companion(Phi1: np.ndarray, Phi2: np.ndarray) -> ReducedForm:
    """The reduced form ``y_t = Phi1 y_{t-1} + Phi2 y_{t-2} + ...``: its lag
    matrices, the eigenvalues of its (2n, 2n) companion matrix, and whether
    it is stationary; a modulus within 1e-8 of one counts as a unit root."""
    n = Phi1.shape[0]
    F = np.zeros((2 * n, 2 * n))
    F[:n, :n] = Phi1
    F[:n, n:] = Phi2
    F[n:, :n] = np.eye(n)
    eigenvalues = np.linalg.eigvals(F)
    return ReducedForm(Phi1, Phi2, eigenvalues, bool(np.max(np.abs(eigenvalues)) < 1.0 - 1e-8))


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
