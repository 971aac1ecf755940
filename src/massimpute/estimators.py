"""Point estimators: Horvitz-Thompson, mass imputation, naive mean, and IPW.

The IPW comparator fits a logistic participation model whose score equations
balance the sample-B covariate totals against their weighted sample-A
counterparts, then inverse-weights the B responses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data_model import (
    DesignMatrix,
    SurveySample,
    estimate_population_size,
)
from .errors import ColumnMismatch, DimensionMismatch, NumericalError, ZeroPropensity
from .mean_model import (
    FittedModel,
    ModelFamily,
    damped_newton,
    mean_values,
    predict_all,
)


def per_population(value, population_size: float, power: int = 1) -> float:
    """``value / population_size**power`` in Python floats, the same IEEE
    operations as numpy's, so that a quotient that is not finite, as over a
    population size near zero, raises :class:`NumericalError` and no numpy
    warning."""
    try:
        divisor = float(population_size) ** power
    except OverflowError:  # where numpy's power gives inf
        divisor = math.inf
    if divisor:
        quotient = float(value) / divisor
        if math.isfinite(quotient):
            return quotient
    raise NumericalError(
        f"a sum over N**{power} is not finite for the population size "
        f"N = {population_size!r}"
    )


def ht_mean(values: np.ndarray, weights: np.ndarray, population_size: float) -> float:
    """Design-weighted mean: the weighted total scaled by the population size.
    A total or a mean that is not finite raises :class:`NumericalError`."""
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if values.shape != weights.shape:
        raise DimensionMismatch("values and weights differ in length")
    if population_size <= 0:
        raise DimensionMismatch("population size must be positive")
    # a total too large for a float is refused, not returned as inf
    with np.errstate(over="ignore", invalid="ignore"):
        total = np.sum(weights * values)
    if not np.isfinite(total):
        raise NumericalError("the weighted total is not finite: it overflows")
    return per_population(total, population_size)


def mass_imputation_estimate(
    model: FittedModel,
    sample_a: SurveySample,
    design_matrix_a: DesignMatrix,
    population_size: float | None = None,
) -> float:
    """Weighted mean of the model predictions over sample A; N defaults to
    the design-weight total."""
    n_used = (
        population_size
        if population_size is not None
        else estimate_population_size(sample_a)
    )
    yhat = predict_all(model, design_matrix_a)
    return ht_mean(yhat, sample_a.weights, n_used)


def naive_mean(sample_b: SurveySample) -> float:
    return float(np.mean(sample_b.responses))


@dataclass(frozen=True)
class PropensityModel:
    phi_hat: np.ndarray
    score_norm: float
    iterations: int
    covariate_names: tuple[str, ...]


def fit_propensity(
    sample_a: SurveySample,
    sample_b: SurveySample,
    design_a: DesignMatrix,
    design_b: DesignMatrix,
) -> PropensityModel:
    """Solve the participation score equations by Newton iteration.

    The score balances covariate totals over B against the weighted logistic
    totals over A; ``score`` returns it with its Jacobian, the negative
    weighted information matrix.
    """
    if design_a.column_names != design_b.column_names:
        raise ColumnMismatch(design_a.column_names, design_b.column_names)
    xa = design_a.values
    wa = sample_a.weights
    xb_total = design_b.values.sum(axis=0)

    def score(phi):
        pi = mean_values(ModelFamily.LOGISTIC, xa, phi)
        wpi = wa * pi
        return (xb_total - np.einsum("in,n->i", xa.T, wpi),
                -np.einsum("in,jn->ij", xa.T * (wpi * (1.0 - pi)), xa.T))

    phi, iterations, norm = damped_newton(score, np.zeros(xa.shape[1]), 1e-8)
    return PropensityModel(phi, norm, iterations, design_a.column_names)


def propensity_values(model: PropensityModel, design: DesignMatrix) -> np.ndarray:
    if design.column_names != model.covariate_names:
        raise ColumnMismatch(model.covariate_names, design.column_names)
    return mean_values(ModelFamily.LOGISTIC, design.values, model.phi_hat)


def ipw_estimate(
    propensity: PropensityModel,
    sample_b: SurveySample,
    design_b: DesignMatrix,
    population_size: float,
) -> float:
    """Inverse-propensity-weighted mean of the sample-B responses.

    The logistic mean is clipped, so a fitted propensity is never zero, but
    one near 1e-304 still overflows y / pi: a non-finite mean raises
    :class:`ZeroPropensity`.
    """
    pi = propensity_values(propensity, design_b)
    with np.errstate(over="ignore"):
        theta = float(np.sum(sample_b.responses / pi) / population_size)
    if not np.isfinite(theta):
        raise ZeroPropensity()
    return theta
