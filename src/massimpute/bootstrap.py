"""Replicate-weight bootstrap for the mass imputation estimator.

Four steps per replicate: (1) rescaled (Rao-Wu) replication weights for
sample A, (2) a with-replacement refit of the mean model on sample B,
(3) replicate imputations for sample A from the refitted coefficients,
(4) repeat independently L times.  The augmented release file pairs each
replicate-weight column with its replicate-imputation column so variance can
be estimated without any access to sample B.

Per-replicate seeds are derived from the master seed by counter, so output is
identical whether replicates are computed serially or in parallel, and the
first columns do not change when L grows.

Replicate weights are every replicate's resample counts times the rescaled
base weights, scaled in one array operation.  Linear refits are batched in
blocks of about 2^20 resample counts (a block x n_B count matrix C): one
``np.einsum`` forms every replicate's count-weighted normal equations and
one batched ``np.linalg.solve`` solves them.  ``einsum`` without
``optimize`` sums each replicate over the units in the same order whatever
the block's shape, where BLAS ``C @ ...`` rounds by its blocking and would
move earlier columns when L grows; batched LAPACK calls work one matrix at a
time.  A Gram matrix whose eigenvalue ratio clears 1e-8 is full rank by a
wide margin.  The rest are redrawn from their own stream for the exact
``matrix_rank`` test of the per-replicate fit: the Gram matrix squares the
condition number, so an eigenvalue rule cannot resolve singular-value ratios
below about sqrt(eps) and would reject samples the fit accepts, such as a
covariate far from the origin.

Logistic and log-linear refits run one replicate at a time, each on the
distinct rows of its resample (about 63% of n_B, gathered in row order)
weighted by their draw counts: the same score and Jacobian as the gathered
fit, summed in another order.  Newton starts at zero as the full-sample fit
does.  A warm start at the full-sample coefficients saves iterations but
changes which near-separated resamples fail and must be redrawn, and so the
replicate set itself.  The release manifest records the number of redraws.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .data_model import DesignKind, DesignMatrix, DesignSpec, SampleKind, SurveySample
from .errors import (
    IOFailure,
    NonPositiveWeight,
    NumericalError,
    UnsupportedDesign,
    ValidationError,
)
from .estimators import ht_mean
from .mean_model import (
    FittedModel,
    ModelFamily,
    mean_values,
    predict_all,
    solve_quasi_score,
)
from .table import read_columns, read_json, write_table

_REFIT_RETRY_CAP = 10
# replicates are refitted in blocks of about this many resample counts, so a
# block's count matrix stays near 8 MiB whatever the size of sample B
_BLOCK_CELLS = 2**20
# a Gram matrix whose eigenvalue ratio clears this is full rank by a wide
# margin; the others get the exact rank test of the per-replicate fit
_RANK_SCREEN = 1e-8


@dataclass(frozen=True)
class ReplicateSet:
    L: int
    replicate_weights: np.ndarray      # n_A x L
    replicate_imputations: np.ndarray  # n_A x L
    base_imputations: np.ndarray       # n_A
    master_seed: int
    refit_retries: int = 0


def _stream(seed: int, k: int, tag: int, attempt: int = 0) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, k, tag, attempt]))


def replicate_weights(
    sample_a: SurveySample,
    design_spec: DesignSpec,
    L: int,
    seed: int,
) -> np.ndarray:
    """Rescaling-bootstrap replication weights, one column per replicate."""
    if L < 1:
        raise ValidationError("number of replicates must be at least 1")
    if design_spec.design not in (DesignKind.SRS_WOR, DesignKind.PPS_WR):
        raise UnsupportedDesign(
            f"no replication-weight method for design {design_spec.design.value}"
        )
    w = sample_a.weights
    n = len(w)
    if n < 2:
        raise UnsupportedDesign("rescaling bootstrap needs at least 2 units")
    out = np.empty((n, L))
    for k in range(L):
        draws = _stream(seed, k, 0).integers(0, n, size=n - 1)
        out[:, k] = np.bincount(draws, minlength=n)
    # the same two roundings per cell as w * (n / (n - 1)) * count
    out *= (w * (n / (n - 1)))[:, None]
    return out


def _resample(n: int, seed: int, k: int, attempt: int) -> np.ndarray:
    """Row indices of replicate k's with-replacement resample of sample B."""
    return _stream(seed, k, 1, attempt).integers(0, n, size=n)


def _linear_refits(X: np.ndarray, y: np.ndarray, seed: int):
    """Batched least-squares refits: ``fit(ks, attempt)`` returns the
    coefficients of replicates ``ks`` and a mask of those that fitted."""
    n, p = X.shape
    rows, cols = np.triu_indices(p)
    # one row per distinct Gram entry, then one per entry of X'y; count-
    # weighted sums of these rows are a resample's normal equations
    terms = np.vstack([X.T[rows] * X.T[cols], X.T * y])
    entry = np.empty((p, p), dtype=np.intp)
    entry[rows, cols] = entry[cols, rows] = np.arange(len(rows))

    def fit(ks: np.ndarray, attempt: int) -> tuple[np.ndarray, np.ndarray]:
        counts = np.empty((len(ks), n))
        for j, k in enumerate(ks):
            counts[j] = np.bincount(_resample(n, seed, k, attempt), minlength=n)
        sums = np.einsum("kn,qn->kq", counts, terms)
        gram = sums[:, entry]
        rhs = sums[:, len(rows):, None]
        eig = np.linalg.eigvalsh(gram)
        ok = eig[:, 0] > _RANK_SCREEN * eig[:, -1]
        for j in np.flatnonzero(~ok):
            idx = _resample(n, seed, ks[j], attempt)
            ok[j] = np.linalg.matrix_rank(X[idx]) == p
        betas = np.zeros((len(ks), p))
        try:
            betas[ok] = np.linalg.solve(gram[ok], rhs[ok])[..., 0]
        except np.linalg.LinAlgError:
            # an exactly singular Gram matrix fails its own replicate only
            for j in np.flatnonzero(ok):
                try:
                    betas[j] = np.linalg.solve(gram[j], rhs[j])[:, 0]
                except np.linalg.LinAlgError:
                    ok[j] = False
        return betas, ok

    return fit


def _quasi_score_refits(family: ModelFamily, X: np.ndarray, y: np.ndarray, seed: int):
    """Per-replicate Newton refits on each resample's distinct rows, weighted
    by their counts, with the same ``fit(ks, attempt)`` shape as
    :func:`_linear_refits`."""
    n, p = X.shape

    def fit(ks: np.ndarray, attempt: int) -> tuple[np.ndarray, np.ndarray]:
        betas = np.zeros((len(ks), p))
        ok = np.ones(len(ks), dtype=bool)
        for j, k in enumerate(ks):
            counts = np.bincount(_resample(n, seed, k, attempt), minlength=n)
            rows = np.flatnonzero(counts)
            try:
                betas[j], _, _ = solve_quasi_score(
                    family, X[rows], y[rows], counts[rows]
                )
            except NumericalError:
                ok[j] = False
        return betas, ok

    return fit


def bootstrap_refit(
    sample_b: SurveySample,
    family: ModelFamily,
    design_b: DesignMatrix,
    L: int,
    seed: int,
) -> tuple[np.ndarray, int]:
    """Refit the mean model on L with-replacement resamples of sample B.

    Returns the L x p coefficient matrix and the number of redrawn
    replicates.  A replicate whose fit fails is redrawn with a fresh
    substream up to a retry cap, then the run aborts naming the lowest
    replicate that failed.
    """
    if L < 1:
        raise ValidationError("number of replicates must be at least 1")
    X = design_b.values
    y = sample_b.responses
    n = len(y)
    if family is ModelFamily.LINEAR:
        fit = _linear_refits(X, y, seed)
    else:
        fit = _quasi_score_refits(family, X, y, seed)
    betas = np.empty((L, X.shape[1]))
    retries = 0
    block = max(1, _BLOCK_CELLS // n)
    for start in range(0, L, block):
        pending = np.arange(start, min(start + block, L))
        for attempt in range(_REFIT_RETRY_CAP + 1):
            fitted, ok = fit(pending, attempt)
            betas[pending[ok]] = fitted[ok]
            pending = pending[~ok]
            if not pending.size:
                break
            retries += pending.size
        else:
            raise NumericalError(
                f"replicate {pending[0]} failed to fit after {_REFIT_RETRY_CAP} redraws"
            )
    return betas, retries


def build_replicates(
    model: FittedModel,
    sample_a: SurveySample,
    sample_b: SurveySample,
    design_a: DesignMatrix,
    design_b: DesignMatrix,
    design_spec: DesignSpec,
    L: int,
    seed: int,
) -> ReplicateSet:
    """Compose the four bootstrap steps into a paired replicate set."""
    base = predict_all(model, design_a)
    rep_w = replicate_weights(sample_a, design_spec, L, seed)
    betas, retries = bootstrap_refit(sample_b, model.family, design_b, L, seed)
    # column k of imputations comes from replicate k's coefficients only
    rep_yhat = mean_values(model.family, design_a.values, betas.T)
    return ReplicateSet(
        L=L,
        replicate_weights=rep_w,
        replicate_imputations=rep_yhat,
        base_imputations=base,
        master_seed=seed,
        refit_retries=retries,
    )


def replicate_estimates(replicate_set, population_size: float) -> np.ndarray:
    """Replicate point estimates: weighted imputation totals over N, for a
    :class:`ReplicateSet` or an :class:`AugmentedDataset`."""
    products = replicate_set.replicate_weights * replicate_set.replicate_imputations
    return np.sum(products, axis=0) / population_size


def bootstrap_variance(theta_hat: float, replicate_values: np.ndarray) -> float:
    """Mean squared deviation of the replicates about the point estimate."""
    replicate_values = np.asarray(replicate_values, dtype=float)
    if replicate_values.size < 1:
        raise ValidationError("need at least one replicate estimate")
    return float(np.mean((replicate_values - theta_hat) ** 2))


# -- release file ------------------------------------------------------------

# an imputed file reads as a release file without replicate columns
IMPUTED_FORMAT = "massimpute-imputed-v1"


def manifest_path(csv_path) -> str:
    return str(csv_path) + ".manifest.json"


def write_augmented_dataset(
    sample_a: SurveySample,
    replicate_set: ReplicateSet,
    model: FittedModel,
    path,
    population_size: float | None = None,
) -> None:
    """Write the release CSV plus a sidecar manifest.

    Columns: original sample-A columns, ``yhat``, then ``w_rep_k`` /
    ``yhat_rep_k`` pairs for k = 1..L.  Floats are written with shortest
    round-trip representation so recomputation from the file is exact.
    """
    names = list(sample_a.covariate_names)
    if sample_a.weight_name:
        names.append(sample_a.weight_name)
    header = names + ["yhat"]
    for k in range(replicate_set.L):
        header += [f"w_rep_{k + 1}", f"yhat_rep_{k + 1}"]

    cols = [sample_a.columns[name] for name in names]
    cols.append(replicate_set.base_imputations)
    for k in range(replicate_set.L):
        cols.append(replicate_set.replicate_weights[:, k])
        cols.append(replicate_set.replicate_imputations[:, k])

    try:
        write_table(path, header, cols)
        manifest = {
            "format": "massimpute-augmented-v1",
            "L": replicate_set.L,
            "seed": replicate_set.master_seed,
            "family": model.family.value,
            "covariate_names": list(model.covariate_names),
            "intercept_included": model.intercept_included,
            "weight_name": sample_a.weight_name,
            "n_a": sample_a.n,
            "population_size": population_size,
            "redraws": replicate_set.refit_retries,
        }
        with open(manifest_path(path), "w") as fh:
            json.dump(manifest, fh, indent=2)
            fh.write("\n")
    except OSError as exc:
        raise IOFailure(f"cannot write augmented dataset: {exc}") from exc


@dataclass(frozen=True)
class AugmentedDataset:
    """In-memory view of a release file, or of an imputed file with L = 0;
    enough to estimate without sample B."""

    weights: np.ndarray
    yhat: np.ndarray
    replicate_weights: np.ndarray
    replicate_imputations: np.ndarray
    manifest: dict
    # an imputed file's model, and sample A under it (its covariate columns
    # and weights), when read with ``with_sample``
    model: FittedModel | None = None
    sample_a: SurveySample | None = None

    @property
    def L(self) -> int:
        return self.replicate_weights.shape[1]

    def population_size_used(self, population_size: float | None = None) -> float:
        """N: the given size, else the manifest's, else the weight total."""
        if population_size is not None:
            return population_size
        if self.manifest.get("population_size") is not None:
            return float(self.manifest["population_size"])
        return float(np.sum(self.weights))


def read_augmented_dataset(path, with_sample: bool = False) -> AugmentedDataset:
    """Read a release file, or an imputed file as one with L = 0.

    With ``with_sample`` the file must be an imputed file: the model in its
    manifest is parsed, and the model's covariate columns are read in the
    same pass as the weights to give sample A, for the linearized variance.
    A malformed manifest, a missing column, a bad cell (see
    :func:`~massimpute.table.read_columns`) or a non-positive weight raises
    :class:`ValidationError`.
    """
    mpath = manifest_path(path)
    manifest = read_json(mpath)
    if not isinstance(manifest, dict) or not isinstance(manifest.get("weight_name"), str):
        raise ValidationError(f"{mpath}: no 'weight_name' column name")
    L = 0 if manifest.get("format") == IMPUTED_FORMAT else manifest.get("L")
    if type(L) is not int or L < 0:
        raise ValidationError(f"{mpath}: 'L' must be an integer >= 0, got {L!r}")
    N = manifest.get("population_size")
    if N is not None and not (type(N) in (int, float) and 0 < N < math.inf):
        raise ValidationError(f"{mpath}: 'population_size' must be positive or null")

    model, covariates = None, ()
    if with_sample:
        if not isinstance(manifest.get("model"), dict):
            raise ValidationError(f"{path} has no model: not an imputed file")
        model = FittedModel.from_json(json.dumps(manifest["model"]))
        covariates = model.raw_names

    reps = [f"{kind}_rep_{k + 1}" for kind in ("w", "yhat") for k in range(L)]
    names = [manifest["weight_name"], "yhat", *reps]
    columns = read_columns(path, [*names, *covariates])
    # a row-major block, the layout of an in-memory replicate set, so sums
    # over units add in the same order
    data = np.column_stack([columns[name] for name in names])
    bad = np.flatnonzero(data[:, 0] <= 0)
    if bad.size:
        raise NonPositiveWeight(int(bad[0]) + 1, float(data[bad[0], 0]))
    sample_a = None
    if with_sample:
        sample_a = SurveySample(
            columns={name: columns[name] for name in (*covariates, names[0])},
            covariate_names=covariates,
            kind=SampleKind.PROBABILITY_A,
            weight_name=names[0],
        )
    return AugmentedDataset(
        weights=data[:, 0],
        yhat=data[:, 1],
        replicate_weights=data[:, 2 : 2 + L],
        replicate_imputations=data[:, 2 + L :],
        manifest=manifest,
        model=model,
        sample_a=sample_a,
    )


def estimate_from_augmented(dataset: AugmentedDataset) -> tuple[float, float]:
    """Point estimate and bootstrap variance recomputed from the file alone,
    over :meth:`AugmentedDataset.population_size_used`."""
    N = dataset.population_size_used()
    theta = ht_mean(dataset.yhat, dataset.weights, N)
    return theta, bootstrap_variance(theta, replicate_estimates(dataset, N))
