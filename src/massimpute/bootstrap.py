"""Replicate-weight bootstrap for the mass imputation estimator.

Four steps per replicate: (1) rescaled (Rao-Wu) replication weights for
sample A, (2) a with-replacement refit of the mean model on sample B,
(3) replicate imputations for sample A from the refitted coefficients,
(4) repeat independently L times.  The augmented release file pairs each
replicate-weight column with its replicate-imputation column so variance can
be estimated without any access to sample B.

Replicate k draws from its own stream, the v1 layout
``default_rng(SeedSequence([seed, k, tag, attempt]))`` with tag 0 for the
weights, tag 1 for the resample of B and attempt counting redraws, so output
is identical whether replicates are computed serially or in parallel, and
the first columns do not change when L grows.  Building a ``SeedSequence``
and a generator per stream cost more than the draws, so :mod:`.seeding`
computes every replicate's PCG64 start state in one vectorised pass of the
same hash and one generator is re-seeded from each.  NumPy's stream-
compatibility policy fixes that hash and PCG64's seeding, so the streams,
and every output, are those of the per-stream construction bit for bit.

Replicate weights are every replicate's resample counts times the rescaled
base weights, scaled in one array operation.  Linear refits go in blocks of
about 2^20 resample counts to :func:`~massimpute.mean_model.least_squares`,
the full-sample fit's normal equations, whose sums do not depend on the
block's shape, so earlier columns do not move when L grows.

Logistic and log-linear refits run one replicate at a time, each on the
distinct rows of its resample (about 63% of n_B, gathered in row order from
the design's p x n transpose) weighted by their draw counts: the same score
and Jacobian as the gathered fit, summed in another order.  Newton starts at
zero as the full-sample fit does.  A warm start at the full-sample
coefficients saves iterations but changes which near-separated resamples fail
and must be redrawn, and so the replicate set itself.  The release manifest
records the number of redraws.
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
    least_squares,
    mean_values,
    predict_all,
    solve_quasi_score,
)
from .seeding import pcg64_states
from .table import read_columns, read_json, write_table

_REFIT_RETRY_CAP = 10
# replicates are refitted in blocks of about this many resample counts, so a
# block's count matrix stays near 8 MiB whatever the size of sample B
_BLOCK_CELLS = 2**20


@dataclass(frozen=True)
class ReplicateSet:
    L: int
    replicate_weights: np.ndarray      # n_A x L
    replicate_imputations: np.ndarray  # n_A x L
    base_imputations: np.ndarray       # n_A
    master_seed: int
    refit_retries: int = 0


def _streams(seed: int, ks, tag: int, attempt: int = 0):
    """Yield, for each k in ``ks``, a generator at the start of the stream
    ``default_rng(SeedSequence([seed, k, tag, attempt]))``.

    It is one generator re-seeded for every k, so take k's draws before
    asking for the next.  Each call makes its own generator, so concurrent
    callers share no state.
    """
    bit_generator = np.random.PCG64(0)
    gen = np.random.Generator(bit_generator)
    for state, inc in pcg64_states(seed, ks, tag, attempt):
        bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        yield gen


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
    for k, gen in enumerate(_streams(seed, np.arange(L), 0)):
        out[:, k] = np.bincount(gen.integers(0, n, size=n - 1), minlength=n)
    # the same two roundings per cell as w * (n / (n - 1)) * count
    out *= (w * (n / (n - 1)))[:, None]
    return out


def _quasi_score_fits(family: ModelFamily, X: np.ndarray, y: np.ndarray):
    """Newton refits in the ``solve(counts)`` shape of :func:`least_squares`,
    each row of counts fitted on its distinct units weighted by their counts."""
    XT = X.T

    def solve(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        betas = np.zeros((len(counts), X.shape[1]))
        ok = np.ones(len(counts), dtype=bool)
        for j, c in enumerate(counts):
            rows = np.flatnonzero(c)
            try:
                # take() gives a contiguous p x rows copy; XT[:, rows] would not
                betas[j], _, _ = solve_quasi_score(
                    family, XT.take(rows, axis=1).T, y[rows], c[rows]
                )
            except NumericalError:
                ok[j] = False
        return betas, ok

    return solve


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
    n, p = X.shape
    solve = (least_squares(design_b, y) if family is ModelFamily.LINEAR
             else _quasi_score_fits(family, X, y))
    betas = np.empty((L, p))
    retries = 0
    block = max(1, _BLOCK_CELLS // n)
    buffer = np.empty((min(block, L), n))  # reused by every block and redraw
    for start in range(0, L, block):
        pending = np.arange(start, min(start + block, L))
        for attempt in range(_REFIT_RETRY_CAP + 1):
            counts = buffer[: len(pending)]
            for j, gen in enumerate(_streams(seed, pending, 1, attempt)):
                counts[j] = np.bincount(gen.integers(0, n, size=n), minlength=n)
            fitted, ok = solve(counts)
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
        model = FittedModel.from_dict(manifest["model"])
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
