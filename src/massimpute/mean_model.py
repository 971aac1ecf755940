"""Semiparametric mean models and the quasi-score fit on sample B.

Three families are supported: linear, logistic, and log-linear.  Coefficients
solve the quasi-score equations with the canonical instrument h(x) = x, so the
fit coincides with the usual GLM score equations.  The linear family is solved
in one step by :func:`least_squares`, which the bootstrap's refits share; the
others use Newton iteration with an analytic Jacobian and step-halving on the
score norm.  Sums over units are ``np.einsum`` calls without ``optimize`` on
the design's p x n transpose, never BLAS, so no fit depends on its threads.
"""

from __future__ import annotations

import enum
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

# a Gram matrix whose eigenvalue ratio clears this is full rank by a wide
# margin; the others are left to an exact rank test
_RANK_SCREEN = 1e-8
# with an intercept, a column whose root mean square about its mean is at most
# this many ulps of the mean has fewer than 33 of its 53 bits left to vary:
# constant, and the design rank deficient.  A constant stored to rounding
# spreads by about one ulp; x ~ N(1e6, 0.05) by 2e8 ulps, and fits.
_NEAR_CONSTANT_ULPS = 2.0**20


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


def mean_gradients(family: ModelFamily, X: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Row-wise gradient of m with respect to beta (n x p), in the layout of
    X; for the linear family X itself, not a copy."""
    X = np.asarray(X, dtype=float)
    if family is ModelFamily.LINEAR:
        return X
    m = mean_values(family, X, beta)
    if family is ModelFamily.LOGISTIC:
        m = m * (1.0 - m)
    return (X.T * m).T


@dataclass(frozen=True)
class FittedModel:
    family: ModelFamily
    beta_hat: np.ndarray
    covariate_names: tuple[str, ...]
    intercept_included: bool
    iterations: int
    final_score_norm: float

    def to_dict(self) -> dict:
        """The fields as JSON values; :meth:`from_dict` reads them back."""
        return {**vars(self), "family": self.family.value,
                "beta_hat": [float(b) for b in self.beta_hat],
                "covariate_names": list(self.covariate_names)}

    @property
    def raw_names(self) -> tuple[str, ...]:
        """The data columns behind the coefficients: the covariate names
        without the intercept."""
        return tuple(n for n in self.covariate_names if n != "(intercept)")

    @classmethod
    def from_dict(cls, doc) -> "FittedModel":
        """Read a parsed model document; keys it does not use, such as the
        ``h_choice`` that older files carry, are ignored.  A document that is
        not an object, or a missing or malformed field, raises
        :class:`ValidationError`."""
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


def _check_separation(family: ModelFamily, m: np.ndarray) -> None:
    # Under perfect separation the score converges numerically once the
    # fitted probabilities saturate, so pinned probabilities are the
    # reliable signal; the coefficient norm alone never trips first.
    if family is ModelFamily.LOGISTIC and np.all(np.minimum(m, 1.0 - m) < 1e-8):
        raise Separation()


def solve_quasi_score(
    family: ModelFamily, X: np.ndarray, y: np.ndarray, weights: np.ndarray | None = None
) -> tuple[np.ndarray, int, float]:
    """Root-find the quasi-score on raw arrays for the logistic and
    log-linear families; returns (beta, iters, norm).

    ``weights`` counts each row: the score is ``X' (c * (y - m)) / sum(c)``,
    so a row of weight c stands for c copies of it.  The bootstrap passes each
    resample's distinct rows with their draw counts.  The default, one per
    row, gives the plain fit bit for bit, since multiplying by 1.0 is exact.
    """
    n, p = X.shape
    c = np.ones(n) if weights is None else weights
    total = c.sum()
    m = None

    def score(beta):
        nonlocal m
        m = mean_values(family, X, beta)
        return np.einsum("in,n->i", X.T, c * (y - m)) / total

    def jacobian(beta):
        # m was computed at beta by the score call just before this one
        w = m * (1.0 - m) if family is ModelFamily.LOGISTIC else m
        return -np.einsum("in,jn->ij", X.T * (c * w), X.T) / total

    try:
        beta, iterations, norm = damped_newton(score, jacobian, np.zeros(p), 1e-10)
    except NoConvergence:
        # damped_newton raises at the point it scored last
        _check_separation(family, m)
        raise
    _check_separation(family, m)
    return beta, iterations, norm


def least_squares(design: DesignMatrix, y: np.ndarray):
    """Count-weighted least squares of ``y`` on ``design``: ``solve(counts)``
    fits each row of a k x n count matrix (a resample's draw counts, or ones)
    and returns the k x p coefficients and a mask of the rows that fitted:
    those whose Gram matrix clears an eigenvalue screen or, failing it, whose
    count-weighted design passes the exact ``matrix_rank`` test, and solves.
    As a Gram matrix squares the condition number, the columns are centred on
    their means if the design has an intercept (without one, centring would
    change the model) and scaled by their root mean square; coefficients are
    mapped back.  A column within ``_NEAR_CONSTANT_ULPS`` of constant, or
    all zero, fails every row.
    """
    X = design.values
    n, p = X.shape
    # the scaled design Z in the first p rows, then y
    V = np.empty((p + 1, n))
    V[p] = y
    Z = V[:p]
    shift = np.zeros(p)
    if design.intercept_included:
        shift[1:] = X.T[1:].sum(axis=1) / n
    np.subtract(X.T, shift[:, None], out=Z)
    scale = np.sqrt(np.einsum("in,in->i", Z, Z) / n)
    constant = scale <= _NEAR_CONSTANT_ULPS * np.finfo(float).eps * np.abs(shift)
    scale[constant] = 1.0
    Z /= scale[:, None]
    back = np.diag(1.0 / scale)
    back[:, 0] -= shift / scale
    row = np.empty(n)

    def solve(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if constant.any():
            return np.zeros((len(counts), p)), np.zeros(len(counts), dtype=bool)
        # count-weighted sums of each product row V[r] * V[c], formed one at
        # a time: the Gram matrix, then Z'y in column p
        sums = np.empty((len(counts), p + 1, p + 1))
        for r in range(p):
            for c in range(r, p + 1):
                np.multiply(V[r], V[c], out=row)
                sums[:, r, c] = sums[:, c, r] = np.einsum("kn,n->k", counts, row)
        gram, rhs = sums[:, :p, :p], sums[:, :p, p:]
        eig = np.linalg.eigvalsh(gram)
        ok = eig[:, 0] > _RANK_SCREEN * eig[:, -1]
        if not ok.all():
            for j in np.flatnonzero(~ok):
                ok[j] = np.linalg.matrix_rank(X * np.sqrt(counts[j])[:, None]) == p
            # a row that failed solves to zero coefficients
            gram[~ok], rhs[~ok] = np.eye(p), 0.0
        try:
            gammas = np.linalg.solve(gram, rhs)[..., 0]
        except np.linalg.LinAlgError:
            # an exactly singular Gram matrix fails its own row only
            gammas = np.zeros((len(counts), p))
            for j in np.flatnonzero(ok):
                try:
                    gammas[j] = np.linalg.solve(gram[j], rhs[j])[:, 0]
                except np.linalg.LinAlgError:
                    ok[j] = False
        return gammas @ back, ok

    return solve


def fit_model(
    family: ModelFamily,
    sample_b: SurveySample,
    design_matrix: DesignMatrix,
) -> FittedModel:
    y = sample_b.responses
    X = design_matrix.values
    n, p = X.shape
    if len(y) != n:
        raise DimensionMismatch("design rows do not align with responses")
    if family is ModelFamily.LINEAR:
        # the bootstrap refits' rank rule: the screen, else the exact test
        betas, ok = least_squares(design_matrix, y)(np.ones((1, n)))
        if not ok[0]:
            raise RankDeficient()
        beta, iterations = betas[0], 1
        norm = float(np.max(np.abs(np.einsum("in,n->i", X.T, y - X @ beta) / n)))
    else:
        # solve() flags neither near-singular designs nor short ones; this does
        if np.linalg.matrix_rank(X) < p:
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
