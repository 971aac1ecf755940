"""Semiparametric mean models and the quasi-score fit on sample B.

Three families are supported: linear, logistic, and log-linear.  Coefficients
solve the quasi-score equations with the canonical instrument h(x) = x, so the
fit coincides with the usual GLM score equations.  The linear family is solved
in one step via the normal equations; the others use Newton iteration with an
analytic Jacobian and step-halving on the score norm.
"""

from __future__ import annotations

import enum
import json
import warnings
from dataclasses import dataclass

import numpy as np

from .data_model import DesignMatrix, SurveySample
from .errors import (
    ColumnMismatch,
    DimensionMismatch,
    NoConvergence,
    OverflowGuardWarning,
    RankDeficient,
    Separation,
    ValidationError,
)

# exp(x) overflows float64 just above x = 709
_EXP_CLIP = 700.0

# Limits of the damped Newton solver, shared by every iterative fit
MAX_ITERATIONS = 100
MAX_HALVINGS = 20
DIVERGENCE_BOUND = 1e4


class ModelFamily(enum.Enum):
    LINEAR = "linear"
    LOGISTIC = "logistic"
    LOGLINEAR = "loglinear"


def _clipped_exp(eta: np.ndarray) -> np.ndarray:
    if np.abs(eta).max(initial=0.0) > _EXP_CLIP:
        warnings.warn(
            "exp argument saturated to avoid overflow", OverflowGuardWarning,
            stacklevel=3,
        )
        eta = np.clip(eta, -_EXP_CLIP, _EXP_CLIP)
    return np.exp(eta)


def mean_values(family: ModelFamily, X: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Vectorized m(x; beta) over the rows of X."""
    beta = np.asarray(beta, dtype=float)
    X = np.asarray(X, dtype=float)
    if X.shape[-1] != beta.shape[0]:
        raise DimensionMismatch(
            f"design has {X.shape[-1]} columns but beta has {beta.shape[0]}"
        )
    eta = X @ beta
    if family is ModelFamily.LINEAR:
        return eta
    if family is ModelFamily.LOGISTIC:
        return 1.0 / (1.0 + _clipped_exp(-eta))
    return _clipped_exp(eta)


def mean_value(family: ModelFamily, x, beta) -> float:
    return float(mean_values(family, np.atleast_2d(np.asarray(x, float)), beta)[0])


def mean_gradients(family: ModelFamily, X: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Row-wise gradient of m with respect to beta (n x p)."""
    X = np.asarray(X, dtype=float)
    if family is ModelFamily.LINEAR:
        if X.shape[-1] != np.asarray(beta).shape[0]:
            raise DimensionMismatch()
        return X.copy()
    m = mean_values(family, X, beta)
    if family is ModelFamily.LOGISTIC:
        return (m * (1.0 - m))[:, None] * X
    return m[:, None] * X


def mean_gradient(family: ModelFamily, x, beta) -> np.ndarray:
    return mean_gradients(family, np.atleast_2d(np.asarray(x, float)), beta)[0]


def quasi_score(
    family: ModelFamily,
    sample_b: SurveySample,
    design_matrix: DesignMatrix,
    beta: np.ndarray,
) -> np.ndarray:
    """Mean estimating function over sample B with instrument h(x) = x."""
    y = sample_b.responses
    X = design_matrix.values
    if len(y) != X.shape[0]:
        raise DimensionMismatch("design rows do not align with responses")
    resid = y - mean_values(family, X, beta)
    return (X.T @ resid) / len(y)


@dataclass(frozen=True)
class FittedModel:
    family: ModelFamily
    beta_hat: np.ndarray
    covariate_names: tuple[str, ...]
    intercept_included: bool
    iterations: int
    final_score_norm: float

    def to_json(self) -> str:
        doc = {
            "family": self.family.value,
            "beta_hat": [float(b) for b in self.beta_hat],
            "covariate_names": list(self.covariate_names),
            "intercept_included": self.intercept_included,
            "iterations": self.iterations,
            "final_score_norm": self.final_score_norm,
        }
        return json.dumps(doc, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "FittedModel":
        """Parse a model document; keys it does not use, such as the
        ``h_choice`` that older files carry, are ignored.  A missing or
        malformed field raises :class:`ValidationError`."""
        doc = json.loads(text)
        try:
            return cls(
                family=ModelFamily(doc["family"]),
                beta_hat=np.array(doc["beta_hat"], dtype=float),
                covariate_names=tuple(doc["covariate_names"]),
                intercept_included=doc["intercept_included"],
                iterations=doc["iterations"],
                final_score_norm=doc["final_score_norm"],
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed model document: {exc!r}") from None


def _solve_linear(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    gram = X.T @ X
    try:
        beta = np.linalg.solve(gram, X.T @ y)
    except np.linalg.LinAlgError:
        raise RankDeficient() from None
    # solve() does not flag near-singular systems; a rank check does
    if np.linalg.matrix_rank(X) < X.shape[1]:
        raise RankDeficient()
    return beta


def damped_newton(score, jacobian, x0: np.ndarray, tolerance: float):
    """Newton root-finding with step-halving on the max-norm of ``score``.

    ``score(x)`` is the vector to drive to zero and ``jacobian(x)`` its
    derivative matrix; ``jacobian`` is only asked for the point most recently
    passed to ``score``.  Each full Newton step is halved until the score norm
    decreases, up to ``MAX_HALVINGS`` times; the last candidate is taken
    either way.  Returns (x, iterations, norm) once the norm is at most
    ``tolerance``.  Raises :class:`NoConvergence`, carrying the last iterate,
    when ``x`` leaves the ``DIVERGENCE_BOUND`` ball or ``MAX_ITERATIONS`` is
    reached.
    """
    x = x0
    s = score(x)
    norm = float(np.max(np.abs(s)))
    for iteration in range(1, MAX_ITERATIONS + 1):
        if norm <= tolerance:
            return x, iteration - 1, norm
        try:
            step = np.linalg.solve(jacobian(x), -s)
        except np.linalg.LinAlgError:
            raise RankDeficient("singular Jacobian in Newton solve") from None
        scale = 1.0
        for _ in range(MAX_HALVINGS + 1):
            candidate = x + scale * step
            cand_score = score(candidate)
            cand_norm = float(np.max(np.abs(cand_score)))
            if cand_norm < norm:
                break
            scale *= 0.5
        x, s, norm = candidate, cand_score, cand_norm
        if np.linalg.norm(x) > DIVERGENCE_BOUND:
            raise NoConvergence(iteration, norm, x)
    if norm <= tolerance:
        return x, MAX_ITERATIONS, norm
    raise NoConvergence(MAX_ITERATIONS, norm, x)


def _check_separation(family: ModelFamily, X: np.ndarray, beta: np.ndarray) -> None:
    # Under perfect separation the score converges numerically once the
    # fitted probabilities saturate, so pinned probabilities are the
    # reliable signal; the coefficient norm alone never trips first.
    if family is ModelFamily.LOGISTIC:
        m = mean_values(family, X, beta)
        if np.all(np.minimum(m, 1.0 - m) < 1e-8):
            raise Separation()


def solve_quasi_score(
    family: ModelFamily, X: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, int, float]:
    """Root-find the quasi-score on raw arrays; returns (beta, iters, norm).

    Split out from :func:`fit_model` so the bootstrap's per-replicate
    logistic and log-linear refits can skip sample-container overhead and
    the rank check; linear refits are batched in :mod:`massimpute.bootstrap`
    and do not call it.
    """
    n, p = X.shape
    if family is ModelFamily.LINEAR:
        beta = _solve_linear(X, y)
        norm = float(np.max(np.abs((X.T @ (y - X @ beta)) / n)))
        return beta, 1, norm

    def score(beta):
        return (X.T @ (y - mean_values(family, X, beta))) / n

    def jacobian(beta):
        m = mean_values(family, X, beta)
        w = m * (1.0 - m) if family is ModelFamily.LOGISTIC else m
        return -(X.T * w) @ X / n

    try:
        beta, iterations, norm = damped_newton(score, jacobian, np.zeros(p), 1e-10)
    except NoConvergence as exc:
        _check_separation(family, X, exc.last)
        raise
    _check_separation(family, X, beta)
    return beta, iterations, norm


def fit_model(
    family: ModelFamily,
    sample_b: SurveySample,
    design_matrix: DesignMatrix,
) -> FittedModel:
    y = sample_b.responses
    X = design_matrix.values
    if len(y) != X.shape[0]:
        raise DimensionMismatch("design rows do not align with responses")
    if X.shape[0] < X.shape[1]:
        raise RankDeficient("need at least as many observations as parameters")
    # the linear solve checks rank itself
    if family is not ModelFamily.LINEAR and np.linalg.matrix_rank(X) < X.shape[1]:
        raise RankDeficient()
    beta, iterations, norm = solve_quasi_score(family, X, y)
    return FittedModel(
        family=family,
        beta_hat=beta,
        covariate_names=design_matrix.column_names,
        intercept_included=design_matrix.intercept_included,
        iterations=iterations,
        final_score_norm=norm,
    )


def predict_all(model: FittedModel, design_matrix_a: DesignMatrix) -> np.ndarray:
    """Imputed values m(x_i; beta_hat) for every row of sample A's design."""
    if design_matrix_a.column_names != model.covariate_names:
        raise ColumnMismatch(model.covariate_names, design_matrix_a.column_names)
    return mean_values(model.family, design_matrix_a.values, model.beta_hat)
