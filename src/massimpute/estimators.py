"""Point estimators: Horvitz-Thompson, mass imputation, naive mean, and IPW.

The IPW comparator fits a logistic participation model whose score equations
balance the sample-B covariate totals against their weighted sample-A
counterparts, then inverse-weights the B responses.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .data_model import (
    DesignMatrix,
    SurveySample,
    estimate_population_size,
)
from .errors import ColumnMismatch, DimensionMismatch, ZeroPropensity
from .mean_model import (
    FittedModel,
    ModelFamily,
    damped_newton,
    mean_values,
    predict_all,
)


class EstimatorKind(enum.Enum):
    MASS_IMPUTATION = "mass_imputation"
    NAIVE_B = "naive_b"
    IPW = "ipw"


@dataclass(frozen=True)
class EstimateReport:
    theta_hat: float
    estimator_kind: EstimatorKind
    n_a: int
    n_b: int
    population_size_used: float
    variance: dict | None = field(default=None)

    def to_dict(self) -> dict:
        doc = {
            "estimator": self.estimator_kind.value,
            "theta_hat": self.theta_hat,
            "n_a": self.n_a,
            "n_b": self.n_b,
            "population_size_used": self.population_size_used,
        }
        if self.variance is not None:
            doc["variance"] = self.variance
        return doc


def ht_mean(values: np.ndarray, weights: np.ndarray, population_size: float) -> float:
    """Design-weighted mean: the weighted total scaled by the population size."""
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if values.shape != weights.shape:
        raise DimensionMismatch("values and weights differ in length")
    if population_size <= 0:
        raise DimensionMismatch("population size must be positive")
    return float(np.sum(weights * values) / population_size)


def mass_imputation_estimate(
    model: FittedModel,
    sample_a: SurveySample,
    design_matrix_a: DesignMatrix,
    n_b: int,
    population_size: float | None = None,
) -> EstimateReport:
    """Weighted mean of the model predictions over sample A."""
    n_used = (
        population_size
        if population_size is not None
        else estimate_population_size(sample_a)
    )
    yhat = predict_all(model, design_matrix_a)
    theta = ht_mean(yhat, sample_a.weights, n_used)
    return EstimateReport(
        theta_hat=theta,
        estimator_kind=EstimatorKind.MASS_IMPUTATION,
        n_a=sample_a.n,
        n_b=n_b,
        population_size_used=float(n_used),
    )


def naive_mean(sample_b: SurveySample) -> EstimateReport:
    y = sample_b.responses
    return EstimateReport(
        theta_hat=float(np.mean(y)),
        estimator_kind=EstimatorKind.NAIVE_B,
        n_a=0,
        n_b=sample_b.n,
        population_size_used=float(sample_b.n),
    )


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
    totals over A; the Jacobian is the negative weighted information matrix.
    """
    if design_a.column_names != design_b.column_names:
        raise ColumnMismatch(design_a.column_names, design_b.column_names)
    xa = design_a.values
    wa = sample_a.weights
    xb_total = design_b.values.sum(axis=0)

    pi = None

    def score(phi):
        nonlocal pi
        pi = mean_values(ModelFamily.LOGISTIC, xa, phi)
        return xb_total - xa.T @ (wa * pi)

    def jacobian(phi):
        # pi was computed at phi by the score call just before this one
        return -(xa.T * (wa * pi * (1.0 - pi))) @ xa

    phi, iterations, norm = damped_newton(score, jacobian, np.zeros(design_a.p), 1e-8)
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
) -> EstimateReport:
    """Inverse-propensity-weighted mean of the sample-B responses."""
    pi = propensity_values(propensity, design_b)
    if np.any(pi <= 0.0):
        raise ZeroPropensity()
    theta = float(np.sum(sample_b.responses / pi) / population_size)
    return EstimateReport(
        theta_hat=theta,
        estimator_kind=EstimatorKind.IPW,
        n_a=0,
        n_b=sample_b.n,
        population_size_used=float(population_size),
    )
