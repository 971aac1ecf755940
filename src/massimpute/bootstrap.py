"""Replicate-weight bootstrap for the mass imputation estimator.

Four steps per replicate: (1) rescaled (Rao-Wu) replication weights for
sample A, (2) a with-replacement refit of the mean model on sample B,
(3) replicate imputations for sample A from the refitted coefficients,
(4) repeat independently L times.  The augmented release file pairs each
replicate-weight column with its replicate-imputation column so variance can
be estimated without any access to sample B.  :func:`build_replicates` runs
step (2) for every replicate first (:func:`bootstrap_refit`), then steps (1)
and (3) on sample A alone (:func:`sample_a_replicates`), so a caller that
runs the two itself, as the ``bootstrap`` command does, can release sample B
before sample A's n_A x L replicate columns exist.  Each replicate depends
on its seed, index and step alone, so the order changes no bit.

Replicate k draws from its own stream, the v1 layout
``default_rng(SeedSequence([seed, k, tag, attempt]))`` with tag 0 for the
weights, tag 1 for the resample of B and attempt counting redraws, so output
is identical whether replicates are computed serially or in parallel
(contiguous ranges of them in forked worker processes, :mod:`.workers`), and
the first columns do not change when L grows.  Building a ``SeedSequence``
and a generator per stream cost more than the draws, so :mod:`.seeding`
computes every replicate's PCG64 start state in one vectorised pass of the
same hash.  A resample's counts are ``bincount(integers(0, n, size))`` on its
stream.  When a group of at least two resamples fits in about 2^15 draws
(n up to 2^14), each replicate sets one PCG64 to its state and takes its raw
64-bit words, and the group applies ``integers``' own bounded-integer rule
(Lemire's) to all of them at once, with one flat ``bincount``.  A value the
rule rejects moves every later value of its row, so the rare row that holds
one (under 0.1% of rows at n = 2,000, a few percent near 2^14) is replayed
on its own from its raw words, each rejected value replaced by the next.
Larger resamples, whose per-call cost is under 1% of the draw, call
``integers`` one replicate at a time; at n = 200,000 nearly every row holds
a rejected value, so the group rule would draw most rows twice.  NumPy's
stream-compatibility policy fixes the hash, PCG64's seeding and output and
the bounded-integer rule, so the streams, and every output, are those of the
per-stream construction bit for bit.

Replicate weights are every replicate's resample counts times the rescaled
base weights, scaled in one array operation.  Linear refits go in blocks of
about 2^20 resample counts to :func:`~massimpute.mean_model.least_squares`,
the full-sample fit's normal equations.  Like every sum over units, their
sums run over unit blocks of at most 8,192 units (the block rule of
:mod:`.mean_model`), so einsum sums each row of a count matrix alike however
many rows share it, and a lone row's coefficients are mapped back as a
row of several: earlier columns do not move when L grows, and no worker
count changes a bit.

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
from .workers import fork_map

_REFIT_RETRY_CAP = 10
# replicates are refitted in blocks of about this many resample counts, so a
# block's count matrix stays near 8 MiB whatever the size of sample B
_BLOCK_CELLS = 2**20
# replicates are drawn in groups of about this many draws (a few 256 KiB
# temporaries); a resample too large for a group of two is drawn on its own
_DRAW_CELLS = 2**15
_MASK32 = 0xFFFFFFFF


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
    callers share no state.  :func:`_draw_counts` takes raw words from its
    bit generator in small groups, and calls its ``integers`` for large
    resamples.
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


# integers(0, n) takes 32-bit values u, the low and then the high half of
# each 64-bit PCG64 word, and rejects m = u * n when m mod 2^32 is below
# (2^32 - n) mod n, taking the next value instead, else yields m >> 32
# (Lemire's rule).  m is exact in int64 for n < 2^31.  The rule keeps to
# int64 arithmetic: a uint32 or uint64 loop, or an int64 comparison, pages in
# 64-128 KiB of numpy code that nothing else in a run touches, so x < t is
# written (x - t) >> 63, which is -1 where it holds and 0 elsewhere
def _products(words: np.ndarray, n: int, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` (... x 2w) with m = u * n for the 32-bit values u of the
    raw words (... x w, viewed as int64), in the order integers takes them."""
    np.bitwise_and(words, _MASK32, out=out[..., 0::2])
    np.right_shift(words, 32, out=out[..., 1::2])
    out[..., 1::2] &= _MASK32  # the int64 shift copies the sign bit
    out *= n
    return out


def _replay(bit_generator, n: int, size: int) -> np.ndarray:
    """``integers(0, n, size)`` from a PCG64 at the start of its stream, from
    its raw words: each rejected value is replaced by the next one."""
    threshold = (2**32 - n) % n
    kept, need = [], size
    while need > 0:
        words = bit_generator.random_raw(-(-need // 2)).view(np.int64)
        m = _products(words, n, np.empty(2 * len(words), np.int64))
        rejected = ((m & _MASK32) - threshold) >> 63
        kept.append(m[np.flatnonzero(rejected + 1)] >> 32)
        need -= len(kept[-1])
    return np.concatenate(kept)[:size]


def _draw_counts(seed: int, ks, tag: int, attempt: int, n: int, size: int,
                 out: np.ndarray) -> None:
    """Set row j of ``out`` to ``bincount(integers(0, n, size), minlength=n)``
    on the stream of ``ks[j]`` (see :func:`_streams`), bit for bit."""
    group = min(_DRAW_CELLS // size, len(ks))
    streams = _streams(seed, ks, tag, attempt)
    if group < 2:
        for row, gen in zip(out, streams):
            row[:] = np.bincount(gen.integers(0, n, size=size), minlength=n)
        return
    threshold = (2**32 - n) % n
    words = -(-size // 2)
    raw = np.empty((group, words), np.uint64)
    m = np.empty((group, 2 * words), np.int64)
    draws = np.empty((group, size), np.int64)
    offsets = np.arange(0, group * n, n)[:, None]
    for start in range(0, len(ks), group):
        rows = min(group, len(ks) - start)
        for j, gen in zip(range(rows), streams):
            raw[j] = gen.bit_generator.random_raw(words)
        mr, d = _products(raw[:rows].view(np.int64), n, m[:rows]), draws[:rows]
        short = ()
        if threshold:
            np.bitwise_and(mr[:, :size], _MASK32, out=d)
            short = np.flatnonzero((d.min(axis=1) - threshold) >> 63)
        np.right_shift(mr[:, :size], 32, out=d)
        # a rejected value shifts the rest of its row, so the rare row that
        # holds one is replayed on its own
        for j in short:
            gen = next(_streams(seed, ks[start + j : start + j + 1], tag, attempt))
            d[j] = _replay(gen.bit_generator, n, size)
        d += offsets[:rows]
        out[start : start + rows] = np.bincount(
            d.ravel(), minlength=rows * n).reshape(rows, n)


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
    _draw_counts(seed, np.arange(L), 0, 0, n, n - 1, out.T)
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
    workers: int = 1,
) -> tuple[np.ndarray, int]:
    """Refit the mean model on L with-replacement resamples of sample B.

    Returns the L x p coefficient matrix and the number of redrawn
    replicates.  A replicate whose fit fails is redrawn with a fresh
    substream up to a retry cap, then the run aborts naming the lowest
    replicate that failed.  Contiguous ranges of replicates run in up to
    ``workers`` processes (:func:`~massimpute.workers.fork_map`); each
    replicate depends on its index alone, so the result does not depend on
    ``workers``.
    """
    if L < 1:
        raise ValidationError("number of replicates must be at least 1")
    X = design_b.values
    y = sample_b.responses
    n, p = X.shape
    solve = (least_squares(design_b, y) if family is ModelFamily.LINEAR
             else _quasi_score_fits(family, X, y))
    block = max(1, _BLOCK_CELLS // n)

    def refit(reps: range) -> tuple[np.ndarray, int, int | None]:
        """The coefficients of ``reps``, their redraws and the lowest
        replicate that failed every redraw, or None."""
        betas = np.empty((len(reps), p))
        retries = 0
        # reused by every block and redraw
        buffer = np.empty((min(block, len(reps)), n))
        for start in range(reps.start, reps.stop, block):
            pending = np.arange(start, min(start + block, reps.stop))
            for attempt in range(_REFIT_RETRY_CAP + 1):
                counts = buffer[: len(pending)]
                _draw_counts(seed, pending, 1, attempt, n, n, counts)
                fitted, ok = solve(counts)
                betas[pending[ok] - reps.start] = fitted[ok]
                pending = pending[~ok]
                if not pending.size:
                    break
                retries += pending.size
            else:
                return betas, retries, int(pending[0])
        return betas, retries, None

    parts = fork_map(refit, L, workers)
    for _, _, failed in parts:
        if failed is not None:
            raise NumericalError(
                f"replicate {failed} failed to fit after {_REFIT_RETRY_CAP} redraws"
            )
    return (np.concatenate([betas for betas, _, _ in parts]),
            sum(retries for _, retries, _ in parts))


def build_replicates(
    model: FittedModel,
    sample_a: SurveySample,
    sample_b: SurveySample,
    design_a: DesignMatrix,
    design_b: DesignMatrix,
    design_spec: DesignSpec,
    L: int,
    seed: int,
    workers: int = 1,
) -> ReplicateSet:
    """Compose the four bootstrap steps into a paired replicate set: the
    refits of sample B, in up to ``workers`` processes, then
    :func:`sample_a_replicates`."""
    betas, retries = bootstrap_refit(
        sample_b, model.family, design_b, L, seed, workers
    )
    return sample_a_replicates(model, sample_a, design_a, design_spec, betas, seed,
                               retries)


def sample_a_replicates(
    model: FittedModel,
    sample_a: SurveySample,
    design_a: DesignMatrix,
    design_spec: DesignSpec,
    betas: np.ndarray,
    seed: int,
    refit_retries: int = 0,
) -> ReplicateSet:
    """The replicate set of the L x p refitted coefficients ``betas``
    (:func:`bootstrap_refit`): sample A's replicate weights, paired with its
    imputations under each replicate's coefficients.  It needs nothing of
    sample B, so a caller may release B before it runs."""
    base = predict_all(model, design_a)
    rep_w = replicate_weights(sample_a, design_spec, len(betas), seed)
    # column k of imputations comes from replicate k's coefficients only
    rep_yhat = mean_values(model.family, design_a.values, betas.T)
    return ReplicateSet(
        L=len(betas),
        replicate_weights=rep_w,
        replicate_imputations=rep_yhat,
        base_imputations=base,
        master_seed=seed,
        refit_retries=refit_retries,
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

