"""Linearization variance estimation for the mass imputation estimator.

The total variance splits into a design-based component for sample A (exact
double-sum form when joint inclusion probabilities are available, otherwise a
with-replacement approximation) and a model-based component for sample B built
from the quasi-score residuals.  :func:`compute_c_hat` and
:func:`variance_component_b` sum over units by :mod:`.mean_model`'s block
rule, so neither holds a temporary of n_B units.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .data_model import (
    DesignKind,
    DesignMatrix,
    DesignSpec,
    SurveySample,
)
from .errors import MissingJointProbabilities, SingularSystem
from .mean_model import FittedModel, mean_gradients, mean_values, unit_sum


class VarianceStrategyA(enum.Enum):
    EXACT_JOINT = "exact_joint"
    PPSWR_APPROX = "ppswr_approx"


def interval_summary(v_total: float) -> dict:
    """Variance with its standard error and 95% normal-interval half-width."""
    se = float(np.sqrt(max(v_total, 0.0)))
    return {
        "v_total": v_total,
        "standard_error": se,
        "ci_level": 0.95,
        "ci_half_width": 1.96 * se,
    }


@dataclass(frozen=True)
class LinearizationComponents:
    v_a: float
    v_b: float
    strategy_a: VarianceStrategyA

    @property
    def v_total(self) -> float:
        return self.v_a + self.v_b

    def to_dict(self) -> dict:
        return {
            "v_a": self.v_a,
            "v_b": self.v_b,
            "strategy_a": self.strategy_a.value,
            **interval_summary(self.v_total),
        }


def compute_c_hat(
    model: FittedModel,
    sample_a: SurveySample,
    design_a: DesignMatrix,
    design_b: DesignMatrix,
) -> np.ndarray:
    """Solve the linearization system for the instrument projection vector.

    Left side: sample-B cross-products of the mean gradient with the
    instrument h(x) = x.  Right side: the weighted sample-A gradient total,
    standing in for the unobservable population gradient total.  For the
    linear family this reduces to the usual (sum xx')^{-1} * (weighted x
    total) form.
    """
    family, beta = model.family, model.beta_hat
    X_b, X_a, w = design_b.values, design_a.values, sample_a.weights
    lhs = unit_sum(len(X_b), lambda block: np.einsum(
        "in,jn->ij", mean_gradients(family, X_b[block], beta).T, X_b[block].T))
    rhs = unit_sum(len(X_a), lambda block: np.einsum(
        "in,n->i", mean_gradients(family, X_a[block], beta).T, w[block]))
    try:
        return np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError:
        raise SingularSystem("linearization system is singular") from None


def variance_component_b(
    model: FittedModel,
    sample_b: SurveySample,
    design_b: DesignMatrix,
    c_hat: np.ndarray,
    population_size: float,
) -> float:
    """Model component: squared residuals scaled by the projected instrument."""
    X, y = design_b.values, sample_b.responses

    def squares(block: slice) -> float:
        resid = y[block] - mean_values(model.family, X[block], model.beta_hat)
        g = np.einsum("np,p->n", X[block], c_hat)
        return np.sum(resid**2 * g**2)

    return float(unit_sum(len(X), squares) / population_size**2)


def _exact_joint_srs(z: np.ndarray, pi: float, pij: float, N: float) -> float:
    # Double sum collapses under SRS: diagonal terms carry (1 - pi), off-
    # diagonal terms carry a common coefficient.
    s1 = float(np.sum(z))
    s2 = float(np.sum(z**2))
    off = 1.0 - pi * pi / pij if pij > 0 else 0.0
    return ((1.0 - pi) * s2 + off * (s1 * s1 - s2)) / N**2


def strategy_a(design_spec: DesignSpec) -> VarianceStrategyA:
    """Sample A's variance form: exact wherever the design supplies joint
    inclusion probabilities (SRS and a joint table), the with-replacement
    form otherwise."""
    if design_spec.design in (DesignKind.SRS_WOR, DesignKind.JOINT_PROBABILITIES):
        return VarianceStrategyA.EXACT_JOINT
    return VarianceStrategyA.PPSWR_APPROX


def variance_component_a(
    model: FittedModel,
    sample_a: SurveySample,
    design_a: DesignMatrix,
    design_spec: DesignSpec,
    population_size: float,
) -> float:
    """Design component: variance of the weighted prediction total, in the
    form :func:`strategy_a` chooses.

    EXACT_JOINT evaluates the double-sum estimator with joint inclusion
    probabilities (closed form under SRS); PPSWR_APPROX uses the
    with-replacement formula that needs only the weights.
    """
    m_hat = mean_values(model.family, design_a.values, model.beta_hat)
    w = sample_a.weights
    z = w * m_hat
    n = len(z)
    N = population_size

    if strategy_a(design_spec) is VarianceStrategyA.PPSWR_APPROX:
        zbar = np.mean(z)
        return float(n / (n - 1) * np.sum((z - zbar) ** 2) / N**2)
    if design_spec.design is DesignKind.SRS_WOR:
        pi, pij = design_spec.srs_probabilities(n)
        return _exact_joint_srs(z, pi, pij, N)
    pij = design_spec.joint_probabilities
    if pij.shape[0] != n:
        raise MissingJointProbabilities(
            f"joint table is {pij.shape[0]}x{pij.shape[0]} but sample has {n} rows"
        )
    pi = np.diag(pij)
    delta = (pij - np.outer(pi, pi)) / pij
    return float(np.einsum("i,ij,j->", z, delta, z) / N**2)


def linearized_variance(
    model: FittedModel,
    sample_a: SurveySample,
    sample_b: SurveySample,
    design_a: DesignMatrix,
    design_b: DesignMatrix,
    design_spec: DesignSpec,
    population_size: float,
) -> LinearizationComponents:
    """Both components; sample A's is exact wherever the design supplies
    joint inclusion probabilities and the with-replacement form otherwise
    (:func:`strategy_a`)."""
    c_hat = compute_c_hat(model, sample_a, design_a, design_b)
    v_b = variance_component_b(model, sample_b, design_b, c_hat, population_size)
    v_a = variance_component_a(model, sample_a, design_a, design_spec, population_size)
    return LinearizationComponents(v_a=v_a, v_b=v_b, strategy_a=strategy_a(design_spec))
