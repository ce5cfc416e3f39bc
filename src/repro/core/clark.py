"""Clark's approximation for the maximum of Gaussian random variables.

This is the mathematical core of the paper's pipeline delay model
(section 2.2, eqs. 4-6), following C. E. Clark, "The Greatest of a Finite
Set of Random Variables", Operations Research 9(2), 1961.

Given two jointly Gaussian variables ``X1 ~ N(mu1, s1)`` and
``X2 ~ N(mu2, s2)`` with correlation ``rho``, define

    a^2   = s1^2 + s2^2 - 2 s1 s2 rho
    alpha = (mu1 - mu2) / a

Then the first two moments of ``max(X1, X2)`` are

    m1 = mu1 Phi(alpha) + mu2 Phi(-alpha) + a phi(alpha)
    m2 = (mu1^2 + s1^2) Phi(alpha) + (mu2^2 + s2^2) Phi(-alpha)
         + (mu1 + mu2) a phi(alpha)

and the max is *approximated* as a Gaussian with mean ``m1`` and variance
``m2 - m1^2``.  The correlation of the approximated max with any third
jointly Gaussian variable ``Y`` follows from

    Cov(Y, max(X1, X2)) = Cov(Y, X1) Phi(alpha) + Cov(Y, X2) Phi(-alpha)

(eq. 6 in the paper).  The N-variable max is computed by repeated pairwise
application; the paper (citing Ross 2003) orders the variables by
increasing mean to minimise the approximation error, and so does
:func:`max_of_gaussians` by default.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

# Two variables are treated as perfectly dependent (their difference is
# deterministic) when the variance of that difference is this small relative
# to the variables' own variances.  The threshold is relative so the test is
# unit-independent (delays here are of order 1e-10 s, variances 1e-21 s^2).
_DEGENERATE_RATIO = 1e-12

# Normaliser of the standard-normal density; the same value as scipy's
# ``_norm_pdf_C``.
_SQRT_2PI = np.sqrt(2.0 * np.pi)


def standard_normal(x):
    """Standard-normal CDF and density ``(Phi(x), phi(x))``.

    These are the expressions ``scipy.stats.norm.cdf`` / ``.pdf`` evaluate
    (``ndtr`` and ``exp(-x**2 / 2) / sqrt(2 pi)``), so results are
    bit-identical, without the ~40 us of ``rv_continuous`` argument checks
    and support masks per call that would dominate every Clark max.

    A scalar ``x`` returns two floats, an array two arrays of its shape.
    phi is always evaluated on an array of at least one dimension, as scipy
    does: NumPy's vectorised ``exp`` loop and its scalar path differ in the
    last bit for a few inputs.
    """
    values = np.asarray(x, dtype=float)
    if values.ndim == 0:
        cdf, pdf = standard_normal(values.reshape(1))
        return float(cdf[0]), float(pdf[0])
    return ndtr(values), np.exp(-values**2 / 2.0) / _SQRT_2PI


def _is_degenerate_spread(spread_sq: float, var1: float, var2: float) -> bool:
    """Whether max(X1, X2) degenerates to the larger-mean variable."""
    scale = var1 + var2
    if scale <= 0.0:
        return True
    return spread_sq <= _DEGENERATE_RATIO * scale


@dataclass(frozen=True)
class MaxResult:
    """Moments of the (approximately Gaussian) maximum of Gaussian variables."""

    mean: float
    std: float

    @property
    def variance(self) -> float:
        """Variance of the approximated maximum."""
        return self.std**2


def max_of_two_gaussians(
    mean1: float,
    std1: float,
    mean2: float,
    std2: float,
    correlation: float = 0.0,
) -> MaxResult:
    """Clark's approximation to ``max(X1, X2)`` for two Gaussian variables.

    Parameters
    ----------
    mean1, std1:
        Mean and standard deviation of the first variable.
    mean2, std2:
        Mean and standard deviation of the second variable.
    correlation:
        Correlation coefficient between the two variables, in [-1, 1].

    Returns
    -------
    MaxResult
        Mean and standard deviation of the approximated maximum.
    """
    if std1 < 0.0 or std2 < 0.0:
        raise ValueError("standard deviations must be non-negative")
    if not -1.0 <= correlation <= 1.0:
        raise ValueError(f"correlation must be in [-1, 1], got {correlation}")

    spread_sq = std1**2 + std2**2 - 2.0 * std1 * std2 * correlation
    if _is_degenerate_spread(spread_sq, std1**2, std2**2):
        # X1 - X2 is (numerically) deterministic: the max is simply whichever
        # variable has the larger mean.
        if mean1 >= mean2:
            return MaxResult(mean1, std1)
        return MaxResult(mean2, std2)

    spread = spread_sq**0.5
    alpha = (mean1 - mean2) / spread
    prob1, density = standard_normal(alpha)
    prob2 = 1.0 - prob1

    # The moments are taken about the midpoint of the two means.  The max's
    # variance is shift-invariant, and about the origin ``m2 - m1^2`` cancels
    # to a few ulps of ``mean**2``: when one variable dominates by several
    # sigmas that rounding noise exceeds the true sigma, and differs between
    # max(X1, X2) and max(X2, X1).  About the midpoint it is an ulp of
    # ``((mean1 - mean2) / 2)**2`` instead.
    centre = 0.5 * (mean1 + mean2)
    half_gap = 0.5 * (mean1 - mean2)
    offset = half_gap * (prob1 - prob2) + spread * density
    second_moment = (
        (half_gap**2 + std1**2) * prob1 + (half_gap**2 + std2**2) * prob2
    )
    variance = max(second_moment - offset**2, 0.0)
    return MaxResult(centre + offset, variance**0.5)


def correlation_with_max(
    mean1: float,
    std1: float,
    mean2: float,
    std2: float,
    correlation12: float,
    std_other: float,
    correlation_other_1: float,
    correlation_other_2: float,
    max_std: float | None = None,
) -> float:
    """Correlation between a third Gaussian ``Y`` and ``max(X1, X2)``.

    Implements eq. 6 of the paper (Clark's covariance identity).

    Parameters
    ----------
    mean1, std1, mean2, std2, correlation12:
        Moments of the two variables inside the max.
    std_other:
        Standard deviation of ``Y``.
    correlation_other_1, correlation_other_2:
        Correlations of ``Y`` with ``X1`` and ``X2``.
    max_std:
        Standard deviation of the approximated max; recomputed if omitted.

    Returns
    -------
    float
        Correlation coefficient between ``Y`` and the approximated max,
        clipped to [-1, 1].
    """
    if max_std is None:
        max_std = max_of_two_gaussians(mean1, std1, mean2, std2, correlation12).std
    if max_std <= 0.0 or std_other <= 0.0:
        return 0.0

    spread_sq = std1**2 + std2**2 - 2.0 * std1 * std2 * correlation12
    if _is_degenerate_spread(spread_sq, std1**2, std2**2):
        # The max degenerates to the larger-mean variable.
        if mean1 >= mean2:
            return float(np.clip(correlation_other_1 * std1 / max_std, -1.0, 1.0))
        return float(np.clip(correlation_other_2 * std2 / max_std, -1.0, 1.0))

    alpha = (mean1 - mean2) / spread_sq**0.5
    prob1 = standard_normal(alpha)[0]
    prob2 = 1.0 - prob1
    # Cov(Y, max) = sigma_Y * (s1 rho1 Phi + s2 rho2 Phi-); the sigma_Y factor
    # cancels against the denominator, so divide it out analytically rather
    # than numerically (products of very small sigmas would underflow).
    rho = (
        std1 * correlation_other_1 * prob1 + std2 * correlation_other_2 * prob2
    ) / max_std
    return float(np.clip(rho, -1.0, 1.0))


def _validated_inputs(
    means: np.ndarray, stds: np.ndarray, correlations: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    means = np.asarray(means, dtype=float)
    stds = np.asarray(stds, dtype=float)
    if means.ndim != 1 or stds.ndim != 1:
        raise ValueError("means and stds must be 1-D arrays")
    if means.shape != stds.shape:
        raise ValueError(
            f"means and stds must have the same length, got {means.shape} and {stds.shape}"
        )
    if means.size == 0:
        raise ValueError("need at least one variable to take a maximum")
    if np.any(stds < 0.0):
        raise ValueError("standard deviations must be non-negative")
    n = means.size
    if correlations is None:
        correlations = np.eye(n)
    else:
        correlations = np.asarray(correlations, dtype=float)
        if correlations.shape != (n, n):
            raise ValueError(
                f"correlation matrix must be {n}x{n}, got {correlations.shape}"
            )
        if not np.allclose(correlations, correlations.T, atol=1e-9):
            raise ValueError("correlation matrix must be symmetric")
        if np.any(np.abs(correlations) > 1.0 + 1e-9):
            raise ValueError("correlation entries must lie in [-1, 1]")
        if not np.allclose(np.diag(correlations), 1.0, atol=1e-9):
            raise ValueError("correlation matrix must have unit diagonal")
    return means, stds, correlations


def max_of_gaussians(
    means: np.ndarray,
    stds: np.ndarray,
    correlations: np.ndarray | None = None,
    ordering: str = "increasing",
) -> MaxResult:
    """Clark's approximation to the maximum of N jointly Gaussian variables.

    The variables are combined two at a time: each pairwise max is replaced
    by a Gaussian with Clark's moments, and its correlation with every
    remaining variable is propagated with eq. 6 so the next pairwise max
    sees the right joint statistics (paper eqs. 4-6).

    Parameters
    ----------
    means, stds:
        Per-variable means and standard deviations, shape ``(n,)``.
    correlations:
        Optional ``(n, n)`` correlation matrix; identity (independent
        variables) if omitted.
    ordering:
        Order in which variables enter the pairwise reduction:

        * ``"increasing"`` (default): increasing mean -- the ordering the
          paper uses because it minimises the approximation error,
        * ``"decreasing"``: decreasing mean,
        * ``"given"``: the order the caller supplied (used by the ordering
          ablation benchmark).

    Returns
    -------
    MaxResult
        Mean and standard deviation of the approximated maximum.
    """
    means, stds, correlations = _validated_inputs(means, stds, correlations)
    if ordering == "increasing":
        order = np.argsort(means, kind="stable")
    elif ordering == "decreasing":
        order = np.argsort(-means, kind="stable")
    elif ordering == "given":
        order = np.arange(means.size)
    else:
        raise ValueError(
            f"ordering must be 'increasing', 'decreasing' or 'given', got {ordering!r}"
        )

    means = means[order]
    stds = stds[order]
    correlations = correlations[np.ix_(order, order)]

    if means.size == 1:
        return MaxResult(float(means[0]), float(stds[0]))

    # Running accumulator: the Gaussian approximation of the max so far and
    # its correlation with each not-yet-processed variable.
    acc_mean = float(means[0])
    acc_std = float(stds[0])
    acc_corr = correlations[0, :].copy()

    for index in range(1, means.size):
        current = max_of_two_gaussians(
            acc_mean, acc_std, float(means[index]), float(stds[index]), float(acc_corr[index])
        )
        if index < means.size - 1:
            new_corr = np.zeros_like(acc_corr)
            for remaining in range(index + 1, means.size):
                new_corr[remaining] = correlation_with_max(
                    acc_mean,
                    acc_std,
                    float(means[index]),
                    float(stds[index]),
                    float(acc_corr[index]),
                    float(stds[remaining]),
                    float(acc_corr[remaining]),
                    float(correlations[index, remaining]),
                    max_std=current.std,
                )
            acc_corr = new_corr
        acc_mean = current.mean
        acc_std = current.std

    return MaxResult(acc_mean, acc_std)
