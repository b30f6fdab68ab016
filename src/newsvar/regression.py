"""Least-squares engine with the diagnostics the rest of the toolkit leans on.

Standard errors are classical (homoskedastic), to match hand calculations.

Every model fit in the package runs through one kernel,
:func:`lstsq_chain`: the equation chains, :func:`ols` (a chain of one fit)
and the exogenous AR(1)/VAR(1) fits (q regressions on one design), and
:func:`chain_fit` reads the coefficient tables off a chain's QR.  The one
other solve, :func:`breusch_godfrey`'s auxiliary regression, runs
:func:`numpy.linalg.lstsq`.  The exogenous fits take their SSR from the
kernel's R factor, which moves their residual standard errors, and through
them the point IRFs and FEVDs, by rounding only: at most 3.3e-16 absolute
on the benchmark's inputs, seeds 11 and 13, against a sum of squared
residuals.  The kernel's rank verdict is :func:`numpy.linalg.matrix_rank`'s,
certified from R and R^-1 where the design is well conditioned; only the
uncertified slices take an SVD.

scipy is imported inside the few functions that need it (p-values and the
collinearity report), so loading the package costs numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    AlignmentError,
    CollinearityError,
    DegenerateDataError,
    DomainError,
    NonstationaryError,
    SampleError,
)
from .timeseries import align, CalendarSeries, log_diff, write_csv

__all__ = [
    "RegressionFit",
    "ChainLstsq",
    "lstsq_chain",
    "ols",
    "chain_fit",
    "BreuschGodfreyResult",
    "breusch_godfrey",
    "ArFit",
    "ar_fit",
    "LongRunEffect",
    "long_run_effect",
    "relative_series",
    "significance_stars",
    "summary_rows",
    "write_fit_csv",
    "fit_to_json",
]


@dataclass(frozen=True)
class RegressionFit:
    """OLS output: coefficients, classical inference, and the design it used."""

    names: tuple[str, ...]
    coefficients: np.ndarray
    standard_errors: np.ndarray
    covariance: np.ndarray
    residuals: np.ndarray
    sigma_hat: float
    r2: float
    adjusted_r2: float
    nobs: int
    nregressors: int
    design: np.ndarray

    def index_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"no regressor named {name!r}") from None

    def coefficient(self, name: str) -> float:
        return float(self.coefficients[self.index_of(name)])

    def se(self, name: str) -> float:
        return float(self.standard_errors[self.index_of(name)])

    def pvalues(self) -> np.ndarray:
        from scipy import special  # scipy.stats.t.sf(|t|, dof) is this call

        dof = self.nobs - self.nregressors
        t = self.coefficients / self.standard_errors
        return 2.0 * special.stdtr(dof, -np.abs(t))


class ChainLstsq(NamedTuple):
    """Least-squares fits of a chain of nested designs; see :func:`lstsq_chain`.

    ``coefficients`` is (C, P, J) with P the widest design's width: fit j's
    coefficients fill rows ``:p_j`` of column j and the rows below are 0.
    ``ssr`` is (C, J), ``rank`` (C,) the rank of the widest design and ``R``
    (C, P, P) its triangular QR factor.  Where that design is not of full
    rank (or A holds a non-finite value) the coefficients and SSR are NaN.
    """

    coefficients: np.ndarray
    ssr: np.ndarray
    rank: np.ndarray
    R: np.ndarray

    @property
    def full_rank(self) -> np.ndarray:
        return self.rank == self.R.shape[-1]


def lstsq_chain(A: np.ndarray, fits: Sequence[tuple[int, int]]) -> ChainLstsq:
    """Regressions of column ``c_j`` of ``A[c]`` on its first ``p_j`` columns,
    for every fit ``(p_j, c_j)`` in ``fits`` and every c, from one QR.

    ``A`` is (C, n, K) with ``p_j <= c_j < K`` and ``P = max p_j <= n``: each
    design is a prefix of the columns and each dependent column lies beyond
    it.  q regressions on one design X are the chain ``[X, Y]`` with fits
    ``(k, k + j)``.  With ``A = QR``, fit j's coefficients solve
    ``R[:p_j, :p_j] b = R[:p_j, c_j]`` and its SSR is the sum of
    ``R[i, c_j]**2`` over ``p_j <= i <= c_j``.  The rank is
    :func:`numpy.linalg.matrix_rank`'s default rule applied to the widest
    design's R, which has that design's singular values S: the count of S
    above ``S.max() * max(n, P) * eps``.  Singular values interlace under
    column deletion, so a full-rank verdict there holds for every prefix.
    A panel with a non-finite value counts as rank 0.

    Most slices are certified full rank without an SVD: ``S.max <= |R|_F``
    and ``S.min >= 1 / |R^-1|_F``, so where R's diagonal has no zero and
    ``|R|_F |R^-1|_F max(n, P) eps <= 1e-3`` every S clears the rule's
    threshold with a 1e3 margin for rounding.  Only the other slices take
    the SVD, so the verdict is the rule's on every slice.
    """
    A = np.asarray(A, dtype=float)
    C, n, K = A.shape
    P = max((width for width, _ in fits), default=0)
    if not (0 < P <= n and all(0 < width <= column < K for width, column in fits)):
        raise ValueError(f"fits {list(fits)} do not fit a ({n}, {K}) chain")
    p = np.array([width for width, _ in fits])
    c = np.array([column for _, column in fits])
    finite = np.isfinite(A).all(axis=(1, 2))
    if not finite.all():
        A = np.where(finite[:, None, None], A, 0.0)  # rank 0 below
    # Householder reflections give R without ever forming Q
    R = np.linalg.qr(A, mode="r")
    RP = R[:, :P, :P]
    eps = np.finfo(float).eps
    # a zero on R's diagonal (a zeroed non-finite panel among them) has no
    # inverse; those slices invert I in its place and go to the SVD below
    invertible = np.diagonal(RP, axis1=1, axis2=2).all(axis=1)
    Rinv = np.linalg.inv(RP if invertible.all() else np.where(invertible[:, None, None], RP, np.eye(P)))
    # |R|_F^2 |R^-1|_F^2; inf or NaN fails the certificate
    norms = np.einsum("cij,cij->c", RP, RP) * np.einsum("cij,cij->c", Rinv, Rinv)
    uncertified = ~(invertible & (norms <= (1e-3 / (max(n, P) * eps)) ** 2))
    rank = np.full(C, P)
    if uncertified.any():
        S = np.linalg.svd(RP[uncertified], compute_uv=False)
        tol = S.max(axis=-1, keepdims=True) * max(n, P) * eps
        rank[uncertified] = np.count_nonzero(S > tol, axis=-1)
    full = rank == P
    all_full = full.all()
    # R is upper triangular, so the LU solve below is plain back substitution
    solvable = RP if all_full else np.where(full[:, None, None], RP, np.eye(P))
    rows = np.arange(R.shape[1])[:, None]
    # one back substitution serves every fit: zeros below row p_j of the
    # right-hand side give exact zeros there, and the leading-block solve above
    coefficients = np.linalg.solve(solvable, np.where(rows[:P] < p, R[:, :P, c], 0.0))
    ssr = np.where(rows >= p, R[:, :, c] ** 2, 0.0).sum(axis=1)
    if not all_full:
        coefficients[~full] = np.nan
        ssr[~full] = np.nan
    return ChainLstsq(coefficients, ssr, rank, RP)


def _dependent_columns(design: np.ndarray, names: Sequence[str], rank: int) -> list[str]:
    # QR with column pivoting: columns pivoted past the numerical rank are the
    # ones expressible from the others.
    from scipy import linalg as sla

    _, _, pivots = sla.qr(design, mode="economic", pivoting=True)
    return [names[i] for i in sorted(pivots[rank:])]


def ols(
    y: np.ndarray | Sequence[float],
    X: np.ndarray | Sequence[Sequence[float]] | None,
    names: Sequence[str] | None = None,
) -> RegressionFit:
    """Ordinary least squares on a constant, named ``const``, and ``X``,
    with classical standard errors.

    The fit is :func:`lstsq_chain` on ``[X, y]`` with the one fit
    ``(k, k)``, read off by :func:`chain_fit` with the columns in order.

    Args:
        y: dependent variable, length n.
        X: regressor matrix (n, k) without the constant column; may be None
            for a constant-only fit.
        names: regressor names matching X's columns; generated when omitted.

    Raises:
        CollinearityError: rank-deficient design, message names the dependent
            columns.
        SampleError: fewer observations than regressors.
        DomainError: a non-finite value in y or X.
    """
    y = np.asarray(y, dtype=float).ravel()
    if X is None:
        X = np.empty((y.size, 0))
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if X.shape[0] != y.size:
        raise AlignmentError(f"y has {y.size} rows but X has {X.shape[0]}")
    if names is None:
        names = tuple(f"x{i}" for i in range(1, X.shape[1] + 1))
    else:
        names = tuple(names)
    if len(names) != X.shape[1]:
        raise ValueError("names must match the number of regressor columns")
    design = np.column_stack([np.ones(y.size), X])
    names = ("const",) + names
    n, k = design.shape
    if n <= k:
        raise SampleError(f"need more than {k} observations, got {n}")
    A = np.column_stack([design, y])[None]
    fit = lstsq_chain(A, [(k, k)])
    rank = int(fit.rank[0])
    if rank < k:
        if not (np.isfinite(design).all() and np.isfinite(y).all()):
            raise DomainError("regression inputs must be finite")
        dependent = _dependent_columns(design, names, rank)
        raise CollinearityError(
            "design matrix is rank deficient; dependent columns: "
            + ", ".join(dependent)
        )
    return chain_fit(A, fit, 0, k, np.arange(k), names)


def chain_fit(
    A: np.ndarray, chain: ChainLstsq, j: int, column: int, order: np.ndarray,
    names: tuple[str, ...],
) -> RegressionFit:
    """The :class:`RegressionFit` of fit j, of column ``column`` on the first
    ``p_j = len(order)`` columns, from ``chain = lstsq_chain(A, ...)`` on one
    panel ``A`` (1, n, K).  Coefficient i, named ``names[i]``, is that of
    chain column ``order[i]``; ``(X'X)^{-1} = L L'`` in that order, with
    ``L = inv(R[:p_j, :p_j])[order]``.  The design holds a constant, so R^2
    is taken about the dependent column's mean."""
    n, k = A.shape[1], len(order)
    design = A[0][:, order]
    # the SSR is summed from these stacked (1, n, 1) residuals of the chain's
    # column prefix: the kernel's SSR from R, a flat residuals @ residuals or a
    # report-order design copy rounds differently, moving sigma_hat's last bit
    stacked = A[:, :, column : column + 1] - A[:, :, :k] @ chain.coefficients[:, :k, j : j + 1]
    ssr = float(np.einsum("cnq,cnq->cq", stacked, stacked)[0, 0])
    residuals = stacked[0, :, 0]
    sigma2 = ssr / (n - k)
    L = np.linalg.inv(chain.R[0, :k, :k])[order]  # R is triangular: LU needs no pivoting here
    covariance = sigma2 * (L @ L.T)
    y = A[0, :, column]
    tss = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ssr / tss if tss > 0 else 0.0
    adjusted = 1.0 - (1.0 - r2) * (n - 1) / (n - k)
    return RegressionFit(
        names=names,
        coefficients=chain.coefficients[0, order, j],
        standard_errors=np.sqrt(np.diag(covariance)),
        covariance=covariance,
        residuals=residuals,
        sigma_hat=math.sqrt(sigma2),
        r2=r2,
        adjusted_r2=adjusted,
        nobs=n,
        nregressors=k,
        design=design,
    )


class BreuschGodfreyResult(NamedTuple):
    lm_stat: float
    p_value: float
    lags: int
    nobs: int


def breusch_godfrey(fit: RegressionFit, lags: int = 4) -> BreuschGodfreyResult:
    """LM test of serially uncorrelated errors.

    Residuals are regressed on the original design plus ``lags`` of
    themselves (initial lags zero-filled); the statistic is n times the
    auxiliary R-squared, referred to chi-square with ``lags`` degrees of
    freedom.
    """
    if lags < 1:
        raise ValueError("lag order must be positive")
    e = fit.residuals
    n = fit.nobs
    if n < lags + fit.nregressors + 1:
        raise SampleError(
            f"serial-correlation test with {lags} lags needs at least "
            f"{lags + fit.nregressors + 1} observations, got {n}"
        )
    fitted = fit.design @ fit.coefficients
    scale = max(float(np.sqrt(fitted @ fitted / n)), 1.0)
    if float(np.sqrt(e @ e / n)) <= 1e-12 * scale:
        # exact fit: no residual variation to test
        return BreuschGodfreyResult(0.0, 1.0, lags, n)
    lagged = np.zeros((n, lags))
    for j in range(1, lags + 1):
        lagged[j:, j - 1] = e[:-j]
    aux = np.column_stack([fit.design, lagged])
    coef, _, _, _ = np.linalg.lstsq(aux, e, rcond=None)
    aux_resid = e - aux @ coef
    tss = float(np.sum((e - e.mean()) ** 2))
    if tss == 0.0:
        return BreuschGodfreyResult(0.0, 1.0, lags, n)
    r2 = 1.0 - float(aux_resid @ aux_resid) / tss
    lm = n * max(r2, 0.0)
    from scipy import special  # scipy.stats.chi2.sf(lm, lags) is this call

    return BreuschGodfreyResult(lm, float(special.chdtrc(lags, lm)), lags, n)


@dataclass(frozen=True)
class ArFit:
    """Autoregression of order p fit by least squares on an intercept and lags."""

    order: int
    intercept: float
    coefficients: np.ndarray
    omega: float
    fit: RegressionFit | None = None


def ar_fit(series: CalendarSeries | np.ndarray, p: int = 1) -> ArFit:
    """Fit an AR(p) by OLS; ``omega`` is the residual standard error."""
    if p < 1:
        raise ValueError("autoregressive order must be positive")
    x = np.asarray(series.values if isinstance(series, CalendarSeries) else series, dtype=float)
    if x.ndim != 1:
        raise ValueError("ar_fit expects a single series")
    if x.size <= p + 1:
        raise SampleError(f"need more than {p + 1} observations, got {x.size}")
    if np.ptp(x) == 0.0:
        raise DegenerateDataError("cannot fit an autoregression to a constant series")
    rows = x.size - p
    design = np.column_stack([x[p - j - 1 : p - j - 1 + rows] for j in range(p)])
    names = tuple(f"lag{j + 1}" for j in range(p))
    fit = ols(x[p:], design, names=names)
    return ArFit(
        order=p,
        intercept=fit.coefficient("const"),
        coefficients=fit.coefficients[1:].copy(),
        omega=fit.sigma_hat,
        fit=fit,
    )


class LongRunEffect(NamedTuple):
    theta: float
    se: float


def long_run_effect(
    fit: RegressionFit,
    effect: str | Sequence[str],
    persistence: str,
) -> LongRunEffect:
    """Cumulative effect of a permanent unit change in the named regressor(s).

    theta = (sum of effect coefficients) / (1 - persistence coefficient), with
    a delta-method standard error from the fit's coefficient covariance.
    """
    effect_names = [effect] if isinstance(effect, str) else list(effect)
    idx = [fit.index_of(name) for name in effect_names]
    beta_sum = float(fit.coefficients[idx].sum())
    lam_idx = fit.index_of(persistence)
    lam = float(fit.coefficients[lam_idx])
    if abs(lam) >= 1.0:
        raise NonstationaryError(
            f"persistence coefficient {persistence!r} is {lam:.4f}; "
            "long-run effect undefined"
        )
    theta = beta_sum / (1.0 - lam)
    grad = np.zeros(fit.nregressors)
    grad[idx] = 1.0 / (1.0 - lam)
    grad[lam_idx] = beta_sum / (1.0 - lam) ** 2
    var = float(grad @ fit.covariance @ grad)
    return LongRunEffect(theta, math.sqrt(max(var, 0.0)))


def relative_series(domestic: CalendarSeries, region: CalendarSeries) -> CalendarSeries:
    """Growth of a domestic level series relative to a regional comparator.

    Both inputs are levels; the result is the pointwise difference of their
    log differences over the overlapping span.
    """
    (dom, reg), start = align(domestic.trimmed(), region.trimmed())
    overlap = domestic.replace_values(dom, start=start)
    regional = region.replace_values(reg, start=start)
    d = log_diff(overlap)
    r = log_diff(regional)
    return d.replace_values(d.values - r.values)


# ---------------------------------------------------------------------------
# Summary export
# ---------------------------------------------------------------------------


def significance_stars(p_value: float) -> str:
    if p_value < 0.01:
        return "***"
    if p_value < 0.05:
        return "**"
    if p_value < 0.1:
        return "*"
    return ""


def summary_rows(fit: RegressionFit) -> list[dict[str, object]]:
    pvals = fit.pvalues()
    return [
        {
            "name": name,
            "coefficient": float(fit.coefficients[i]),
            "se": float(fit.standard_errors[i]),
            "p_value": float(pvals[i]),
            "stars": significance_stars(float(pvals[i])),
        }
        for i, name in enumerate(fit.names)
    ]


def write_fit_csv(fit: RegressionFit, path: str | Path, extra_rows: Sequence[tuple[str, str]] = ()) -> None:
    """Coefficient table as CSV with significance stars and summary lines."""
    table = [(r["name"], f"{r['coefficient']:.6f}", f"{r['se']:.6f}", r["stars"]) for r in summary_rows(fit)]
    summary = (("adjusted_r2", f"{fit.adjusted_r2:.6f}"), ("nobs", str(fit.nobs)), *extra_rows)
    table += [(name, value, "", "") for name, value in summary]
    write_csv(path, ("name", "coefficient", "se", "stars"), table)


def fit_to_json(fit: RegressionFit) -> dict[str, object]:
    return {
        "coefficients": {n: float(c) for n, c in zip(fit.names, fit.coefficients)},
        "standard_errors": {n: float(s) for n, s in zip(fit.names, fit.standard_errors)},
        "sigma_hat": fit.sigma_hat,
        "r2": fit.r2,
        "adjusted_r2": fit.adjusted_r2,
        "nobs": fit.nobs,
    }
