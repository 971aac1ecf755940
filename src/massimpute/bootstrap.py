"""Replicate-weight bootstrap for the mass imputation estimator.

Four steps per replicate: (1) rescaled (Rao-Wu) replication weights for
sample A, (2) a with-replacement refit of the mean model on sample B,
(3) replicate imputations for sample A from the refitted coefficients,
(4) repeat independently L times.  The augmented release file pairs each
replicate-weight column with its replicate-imputation column so variance can
be estimated without any access to sample B.

Per-replicate seeds are derived from the master seed by counter, so output is
identical whether replicates are computed serially or in parallel.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .data_model import DesignKind, DesignMatrix, DesignSpec, SurveySample
from .errors import (
    ColumnMismatch,
    IOFailure,
    NumericalError,
    UnsupportedDesign,
    ValidationError,
)
from .mean_model import (
    FittedModel,
    ModelFamily,
    SolverConfig,
    mean_values,
    solve_quasi_score,
)
from .table import read_table, write_table

_REFIT_RETRY_CAP = 10


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


def _rao_wu_column(weights: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    n = len(weights)
    counts = np.bincount(rng.integers(0, n, size=n - 1), minlength=n)
    return weights * (n / (n - 1)) * counts


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
    if len(w) < 2:
        raise UnsupportedDesign("rescaling bootstrap needs at least 2 units")
    out = np.empty((len(w), L))
    for k in range(L):
        out[:, k] = _rao_wu_column(w, _stream(seed, k, 0))
    return out


def bootstrap_refit(
    sample_b: SurveySample,
    family: ModelFamily,
    design_b: DesignMatrix,
    L: int,
    seed: int,
    config: SolverConfig = SolverConfig(),
) -> tuple[np.ndarray, int]:
    """Refit the mean model on L with-replacement resamples of sample B.

    Returns the L x p coefficient matrix and the number of redrawn
    replicates.  A replicate whose fit fails is redrawn with a fresh
    substream up to a retry cap, then the run aborts.
    """
    if L < 1:
        raise ValidationError("number of replicates must be at least 1")
    X = design_b.values
    y = sample_b.responses
    n = len(y)
    betas = np.empty((L, X.shape[1]))
    retries = 0
    for k in range(L):
        for attempt in range(_REFIT_RETRY_CAP + 1):
            rng = _stream(seed, k, 1, attempt)
            idx = rng.integers(0, n, size=n)
            try:
                beta, _, _ = solve_quasi_score(
                    family, X[idx], y[idx], config, check_rank=False
                )
            except NumericalError:
                retries += 1
                continue
            betas[k] = beta
            break
        else:
            raise NumericalError(
                f"replicate {k} failed to fit after {_REFIT_RETRY_CAP} redraws"
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
    config: SolverConfig = SolverConfig(),
) -> ReplicateSet:
    """Compose the four bootstrap steps into a paired replicate set."""
    if design_a.column_names != model.covariate_names:
        raise ColumnMismatch(model.covariate_names, design_a.column_names)
    rep_w = replicate_weights(sample_a, design_spec, L, seed)
    betas, retries = bootstrap_refit(sample_b, model.family, design_b, L, seed, config)
    # column k of imputations comes from replicate k's coefficients only
    rep_yhat = mean_values(model.family, design_a.values, betas.T)
    base = mean_values(model.family, design_a.values, model.beta_hat)
    return ReplicateSet(
        L=L,
        replicate_weights=rep_w,
        replicate_imputations=rep_yhat,
        base_imputations=base,
        master_seed=seed,
        refit_retries=retries,
    )


def replicate_estimates(
    replicate_set: ReplicateSet, population_size: float
) -> np.ndarray:
    """Replicate point estimates: weighted imputation totals over N."""
    return (
        np.sum(replicate_set.replicate_weights * replicate_set.replicate_imputations, axis=0)
        / population_size
    )


def bootstrap_variance(theta_hat: float, replicate_values: np.ndarray) -> float:
    """Mean squared deviation of the replicates about the point estimate."""
    replicate_values = np.asarray(replicate_values, dtype=float)
    if replicate_values.size < 1:
        raise ValidationError("need at least one replicate estimate")
    return float(np.mean((replicate_values - theta_hat) ** 2))


# -- release file ------------------------------------------------------------

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
        }
        with open(manifest_path(path), "w") as fh:
            json.dump(manifest, fh, indent=2)
            fh.write("\n")
    except OSError as exc:
        raise IOFailure(f"cannot write augmented dataset: {exc}") from exc


@dataclass(frozen=True)
class AugmentedDataset:
    """In-memory view of a release file; enough to estimate without sample B."""

    weights: np.ndarray
    yhat: np.ndarray
    replicate_weights: np.ndarray
    replicate_imputations: np.ndarray
    manifest: dict

    @property
    def L(self) -> int:
        return self.manifest["L"]

    def population_size_used(self) -> float:
        if self.manifest.get("population_size") is not None:
            return float(self.manifest["population_size"])
        return float(np.sum(self.weights))


def read_augmented_dataset(path) -> AugmentedDataset:
    mpath = manifest_path(path)
    if not os.path.exists(mpath):
        raise IOFailure(f"manifest not found: {mpath}")
    with open(mpath) as fh:
        manifest = json.load(fh)
    header, rows = read_table(path)
    L = manifest["L"]
    names = [manifest["weight_name"], "yhat"]
    names += [f"w_rep_{k + 1}" for k in range(L)]
    names += [f"yhat_rep_{k + 1}" for k in range(L)]
    try:
        columns = [header.index(name) for name in names]
    except ValueError:
        raise IOFailure("augmented file missing required columns") from None
    try:
        # take() yields a row-major block, the layout of an in-memory
        # replicate set, so sums over units add in the same order.
        data = np.array(rows, dtype=float).take(columns, axis=1)
    except ValueError as exc:
        raise IOFailure(f"non-numeric cell in augmented file: {exc}") from None
    return AugmentedDataset(
        weights=data[:, 0],
        yhat=data[:, 1],
        replicate_weights=data[:, 2 : 2 + L],
        replicate_imputations=data[:, 2 + L :],
        manifest=manifest,
    )


def estimate_from_augmented(
    dataset: AugmentedDataset, population_size: float | None = None
) -> tuple[float, float]:
    """Point estimate and bootstrap variance recomputed from the file alone,
    over ``population_size`` or else the file's own population size."""
    N = population_size if population_size is not None else dataset.population_size_used()
    theta = float(np.sum(dataset.weights * dataset.yhat) / N)
    thetas = (
        np.sum(dataset.replicate_weights * dataset.replicate_imputations, axis=0) / N
    )
    return theta, bootstrap_variance(theta, thetas)
