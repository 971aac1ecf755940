"""Semiparametric mean models and the quasi-score fit on sample B.

Three families are supported: linear, logistic, and log-linear.  Coefficients
solve the quasi-score equations with the canonical instrument h(x) = x, so the
fit coincides with the usual GLM score equations.  The linear family is solved
in one step by :func:`least_squares`, which the bootstrap's refits share; the
others use Newton iteration with an analytic Jacobian and step-halving on the
score norm.  Sums over units are ``np.einsum`` calls without ``optimize`` on
the design's p x n transpose, never BLAS, so no fit depends on its threads.

Every sum over units, here and in :mod:`.variance`, and every per-unit
product that feeds it, runs over consecutive blocks of at most
``UNIT_BLOCK`` units, added in block order (:func:`unit_sum`).  So no pass
holds an n-unit temporary, a design of one block is summed as the whole
array bit for bit, and as the block is einsum's buffer, einsum sums a lone
row as it sums a row of many, which it does not over more units.

Every product of a design with coefficients, one vector or a p x k matrix
such as the bootstrap's refits, is ``np.einsum`` without ``optimize``
(:func:`mean_values`), never BLAS: BLAS gives a column other bits when fewer
columns share the call (a lone column goes to another kernel), while
einsum's per-column products do not depend on the column count, and a
vector's equal the column of a matrix that holds it.  So a replicate's
predictions are the same in any block of replicates, and a replicate whose
coefficients equal the full-sample fit's predicts exactly what the fit does.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .data_model import ColumnSchema, DesignMatrix, SurveySample
from .errors import (
    ColumnMismatch,
    DimensionMismatch,
    NoConvergence,
    OverflowGuardWarning,
    RankDeficient,
    Separation,
    ValidationError,
)

# the unit block: einsum's buffer size, in elements
UNIT_BLOCK = 8192

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
# this fraction of the mean, 2^20 ulps, has fewer than 33 of its 53 bits left
# to vary: constant, and the design rank deficient.  A constant stored to
# rounding spreads by about one ulp; x ~ N(1e6, 0.05) by 2e8 ulps, and fits.
_NEAR_CONSTANT = 2.0**20 * np.finfo(float).eps


class ModelFamily(enum.Enum):
    LINEAR = "linear"
    LOGISTIC = "logistic"
    LOGLINEAR = "loglinear"


def unit_blocks(n: int) -> list[slice]:
    """Consecutive slices of at most ``UNIT_BLOCK`` units covering n units;
    one empty slice when n is 0."""
    return [slice(start, start + UNIT_BLOCK)
            for start in range(0, max(n, 1), UNIT_BLOCK)]


def unit_sum(n: int, term):
    """``term(block)`` summed over :func:`unit_blocks` of n units in block
    order; with one block, ``term``'s own result."""
    first, *rest = unit_blocks(n)
    total = term(first)
    for block in rest:
        total = total + term(block)
    return total


def _clipped_exp(eta: np.ndarray) -> np.ndarray:
    """exp(eta), computed in place of ``eta``."""
    if eta.max(initial=0.0) > _EXP_CLIP or eta.min(initial=0.0) < -_EXP_CLIP:
        warnings.warn(
            "exp argument saturated to avoid overflow", OverflowGuardWarning,
            stacklevel=4,
        )
        np.clip(eta, -_EXP_CLIP, _EXP_CLIP, out=eta)
    return np.exp(eta, out=eta)


def mean_values(family: ModelFamily, X: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Vectorized m(x; beta) over the rows of X; for a p x k ``beta``, one
    column per coefficient vector, by the product rule of the module
    docstring.  ``beta``'s columns are made contiguous: against a row-major
    X, einsum adds a row's products in another order when they are not."""
    beta = np.asarray(beta, dtype=float, order="F")
    X = np.asarray(X, dtype=float)
    if X.shape[-1] != beta.shape[0]:
        raise DimensionMismatch(
            f"design has {X.shape[-1]} columns but beta has {beta.shape[0]}"
        )
    return _inverse_link(family, np.einsum("np,p...->n...", X, beta))


def _inverse_link(family: ModelFamily, eta: np.ndarray) -> np.ndarray:
    """m from the linear predictor, computed in place of ``eta``, so no
    n x L prediction holds a temporary of its size."""
    if family is ModelFamily.LINEAR:
        return eta
    if family is ModelFamily.LOGISTIC:
        exp = _clipped_exp(np.negative(eta, out=eta))
        return np.divide(1.0, np.add(1.0, exp, out=exp), out=exp)
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
        not an object, a missing or malformed field, a non-finite number, or
        coefficients that are not one per covariate name raise
        :class:`ValidationError`."""
        try:
            model = cls(
                family=ModelFamily(doc["family"]),
                beta_hat=np.array(doc["beta_hat"], dtype=float),
                covariate_names=tuple(doc["covariate_names"]),
                intercept_included=doc["intercept_included"],
                iterations=doc["iterations"],
                final_score_norm=doc["final_score_norm"],
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed model document: {exc!r}") from None
        for problem, ok in (
            ("'beta_hat' must hold one number per name of 'covariate_names'",
             model.beta_hat.shape == (len(model.covariate_names),)),
            ("'beta_hat' must be finite", np.isfinite(model.beta_hat).all()),
            ("'intercept_included' must be true or false",
             type(model.intercept_included) is bool),
            ("'iterations' must be an integer", type(model.iterations) is int),
            # the imputed-file manifest copies the document, and no output
            # holds a non-finite number
            ("'final_score_norm' must be a finite number",
             isinstance(model.final_score_norm, (int, float))
             and math.isfinite(model.final_score_norm)),
        ):
            if not ok:
                raise ValidationError(f"malformed model document: {problem}")
        return model


def model_document(model: FittedModel, schema: ColumnSchema) -> dict:
    """The model document of ``model`` fitted on sample B read under
    ``schema``: :meth:`FittedModel.to_dict` with the schema, which
    :func:`read_model_document` reads back."""
    return {**model.to_dict(), "schema": {
        "response": schema.response,
        "covariates": list(schema.covariates),
        "categoricals": schema.categoricals,
    }}


def read_model_document(doc) -> tuple[FittedModel, ColumnSchema]:
    """The model (:meth:`FittedModel.from_dict`) and sample B's schema of a
    parsed model document; a malformed ``schema`` also raises
    :class:`ValidationError`."""
    model = FittedModel.from_dict(doc)
    schema = doc.get("schema", {})
    if isinstance(schema, dict):
        covariates = schema.get("covariates", [])
        response = schema.get("response")
        categoricals = schema.get("categoricals", {})
        if (isinstance(covariates, list) and isinstance(categoricals, dict)
                and all(isinstance(s, str) for s in [*covariates, *categoricals.values()])
                and isinstance(response, str)):
            return model, ColumnSchema(tuple(covariates), response,
                                       categoricals=categoricals)
    raise ValidationError(
        "model 'schema' must be an object with a 'covariates' list of names, "
        "a 'response' name and 'categoricals' mapping names to reference levels"
    )


def damped_newton(score, x0: np.ndarray, tolerance: float):
    """Newton root-finding with step-halving on the max-norm of the score.

    ``score(x)`` returns the vector to drive to zero and its Jacobian at
    ``x``.  Each full Newton step is halved until the score norm decreases,
    up to ``MAX_HALVINGS`` times; the last candidate is taken either way.
    Returns (x, iterations, norm) once the norm is at most ``tolerance``.
    Raises :class:`NoConvergence`, carrying the last iterate, when ``x``
    leaves the ``DIVERGENCE_BOUND`` ball or ``MAX_ITERATIONS`` is reached.
    """
    x = x0
    s, jac = score(x)
    norm = float(np.abs(s).max())
    for iteration in range(1, MAX_ITERATIONS + 1):
        if norm <= tolerance:
            return x, iteration - 1, norm
        try:
            step = np.linalg.solve(jac, -s)
        except np.linalg.LinAlgError:
            raise RankDeficient("singular Jacobian in Newton solve") from None
        scale = 1.0
        for _ in range(MAX_HALVINGS + 1):
            candidate = x + scale * step
            cand_score, cand_jac = score(candidate)
            cand_norm = float(np.abs(cand_score).max())
            if cand_norm < norm:
                break
            scale *= 0.5
        x, s, jac, norm = candidate, cand_score, cand_jac, cand_norm
        if math.sqrt(x.dot(x)) > DIVERGENCE_BOUND:  # np.linalg.norm's arithmetic
            raise NoConvergence(iteration, norm, x)
    if norm <= tolerance:
        return x, MAX_ITERATIONS, norm
    raise NoConvergence(MAX_ITERATIONS, norm, x)


def _block_means(family: ModelFamily, XT: np.ndarray, beta: np.ndarray):
    """Yield each unit block of the p x n design ``XT`` with m(x; beta) on
    it."""
    for block in unit_blocks(XT.shape[1]):
        yield block, mean_values(family, XT[:, block].T, beta)


def _check_separation(family: ModelFamily, XT: np.ndarray, y: np.ndarray,
                      beta: np.ndarray) -> None:
    """Raise :class:`Separation` for a logistic fit at ``beta`` whose every
    fitted probability is pinned within 1e-8 of 0 or 1, or, for a 0/1
    response, whose linear predictor classifies every unit correctly: the
    data are then completely separated and no finite maximum exists (Albert
    & Anderson, 1984), though the score converges numerically once the
    probabilities saturate.  Quasi-complete separation, with units on the
    boundary, is out of scope.  One pass over the unit blocks makes both
    tests and stops at the first block that fails both."""
    if family is not ModelFamily.LOGISTIC:
        return
    pinned = classified = True
    for block, m in _block_means(family, XT, beta):
        pinned = pinned and bool(np.all(np.minimum(m, 1.0 - m) < 1e-8))
        classified = classified and bool(np.all(
            np.where(y[block] == 1.0, m > 0.5, (y[block] == 0.0) & (m < 0.5))))
        if not (pinned or classified):
            return
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
    One pass over the unit blocks forms the score and its Jacobian for
    :func:`damped_newton`, so no per-unit array outlives its block.
    """
    n, p = X.shape
    XT = X.T
    total = n if weights is None else weights.sum()

    def score(beta):
        s, J = np.zeros(p), np.zeros((p, p))
        for block, m in _block_means(family, XT, beta):
            resid = y[block] - m
            w = m * (1.0 - m) if family is ModelFamily.LOGISTIC else m
            if weights is not None:
                resid, w = weights[block] * resid, weights[block] * w
            s += np.einsum("in,n->i", XT[:, block], resid)
            J += np.einsum("in,jn->ij", XT[:, block] * w, XT[:, block])
        return s / total, -J / total

    try:
        beta, iterations, norm = damped_newton(score, np.zeros(p), 1e-10)
    except NoConvergence as exc:
        _check_separation(family, XT, y, exc.last)
        raise
    _check_separation(family, XT, y, beta)
    return beta, iterations, norm


def least_squares(design: DesignMatrix, y: np.ndarray):
    """Count-weighted least squares of ``y`` on ``design``, in two steps.
    ``normal_sums(counts)`` returns the k x (p+1) x (p+1) normal-equation
    sums of each row of a k x n count matrix (a resample's draw counts), or
    with no counts those of the plain fit as one row.
    ``finish(sums, counts_of)`` solves any number of such rows at once
    and returns the k x p coefficients and a mask of the rows that fitted:
    those whose Gram matrix clears an eigenvalue screen or, failing it, whose
    count-weighted design passes the exact ``matrix_rank`` test, and solves;
    ``counts_of(j)`` gives row j's counts for that test, and without it the
    rows are unweighted.  As a Gram matrix squares the condition number, the
    columns are centred on their means if the design has an intercept
    (without one, centring would change the model) and scaled by their root
    mean square; coefficients are mapped back.  A column within
    ``_NEAR_CONSTANT`` of constant, or all zero, fails every row.  Each
    pass forms the scaled design a unit block at a time.
    """
    XT = design.values.T
    p, n = XT.shape
    # a block of the centred design in the first p rows, then y
    V = np.empty((p + 1, min(n, UNIT_BLOCK)))
    row, ones = np.empty(V.shape[1]), np.ones((1, V.shape[1]))

    def centred(block: slice) -> np.ndarray:
        Vb = V[:, : len(y[block])]
        np.subtract(XT[:, block], shift[:, None], out=Vb[:p])
        return Vb

    def squares(block: slice) -> np.ndarray:
        Z = centred(block)[:p]
        return np.einsum("in,in->i", Z, Z)

    shift = np.zeros(p)
    if design.intercept_included:
        shift[1:] = unit_sum(n, lambda block: XT[1:, block].sum(axis=1)) / n
    scale = np.sqrt(unit_sum(n, squares) / n)
    constant = scale <= _NEAR_CONSTANT * np.abs(shift)
    scale[constant] = 1.0
    back = np.diag(1.0 / scale)
    back[:, 0] -= shift / scale

    def normal_sums(counts: np.ndarray | None = None) -> np.ndarray:
        # count-weighted sums of each product row V[r] * V[c], formed one at
        # a time in each block and added to the blocks before: the Gram
        # matrix, then Z'y in column p
        out = np.empty((1 if counts is None else len(counts), p + 1, p + 1))
        for block in unit_blocks(n):
            Vb = centred(block)
            Vb[:p] /= scale[:, None]
            Vb[p] = y[block]
            width = Vb.shape[1]
            weights = ones[:, :width] if counts is None else counts[:, block]
            for r in range(p):
                for c in range(r, p + 1):
                    np.multiply(Vb[r], Vb[c], out=row[:width])
                    part = np.einsum("kn,n->k", weights, row[:width])
                    if block.start:
                        part += out[:, r, c]
                    out[:, r, c] = out[:, c, r] = part
        return out

    def finish(sums: np.ndarray, counts_of=None) -> tuple[np.ndarray, np.ndarray]:
        k = len(sums)
        if constant.any():
            return np.zeros((k, p)), np.zeros(k, dtype=bool)
        gram, rhs = sums[:, :p, :p], sums[:, :p, p:]
        eig = np.linalg.eigvalsh(gram)
        ok = eig[:, 0] > _RANK_SCREEN * eig[:, -1]
        if not ok.all():
            X = design.values
            for j in np.flatnonzero(~ok):
                weighted = X if counts_of is None else X * np.sqrt(counts_of(j))[:, None]
                ok[j] = np.linalg.matrix_rank(weighted) == p
            # a row that failed solves to zero coefficients
            gram[~ok], rhs[~ok] = np.eye(p), 0.0
        try:
            gammas = np.linalg.solve(gram, rhs)[..., 0]
        except np.linalg.LinAlgError:
            # an exactly singular Gram matrix fails its own row only
            gammas = np.zeros((k, p))
            for j in np.flatnonzero(ok):
                try:
                    gammas[j] = np.linalg.solve(gram[j], rhs[j])[:, 0]
                except np.linalg.LinAlgError:
                    ok[j] = False
        return np.einsum("kp,pq->kq", gammas, back), ok

    return normal_sums, finish


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
    # every family takes the bootstrap refits' rank rule: the Gram screen,
    # else the exact test (Newton flags neither near-singular designs nor
    # short ones)
    normal_sums, finish = least_squares(design_matrix, y)
    betas, ok = finish(normal_sums())
    del normal_sums, finish  # and their unit-block buffers, before the score
    if not ok[0]:
        raise RankDeficient()
    if family is ModelFamily.LINEAR:
        beta, iterations = betas[0], 1
        score = unit_sum(n, lambda block: np.einsum(
            "in,n->i", X.T[:, block], y[block] - mean_values(family, X[block], beta)))
        norm = float(np.abs(score / n).max())
    else:
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
