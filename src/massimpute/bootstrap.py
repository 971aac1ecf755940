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
per stream cost more than the draws, so :mod:`.seeding` computes every
replicate's seed words in one vectorised pass of the same hash, and numpy
seeds each replicate's own PCG64 from its words.  A resample's counts are
``bincount(integers(0, n, size))`` on its stream.  When a group of at least
two resamples fits in about 2^14 draws (n up to 2^13), each replicate's
PCG64 gives its raw 64-bit words, and the group applies ``integers``' own
bounded-integer rule (Lemire's) to all of them at once, in place in one
array of the group's values, with one flat ``bincount``.  A value the rule
rejects moves every later value of its row, so the rare row that holds one
(under 0.1% of rows at n = 2,000, up to 1.5% near 2^13) is replayed on its
own from its raw words, each rejected value replaced by the next.  Larger
resamples call ``integers`` one replicate at a time, whose fixed
cost of about 5 us a call makes a resample just above 2^13 take about a
fifth longer than in a group, a share that falls as n grows; at n = 200,000
nearly every row holds a rejected value, so the group rule would draw most
rows twice.  NumPy's stream-compatibility policy fixes the hash, PCG64's
output and the bounded-integer rule, so the streams, and every output, are
those of the per-stream construction bit for bit.

Sample A's replicate columns are built a block of replicates at a time
(:func:`replicate_blocks`).  A block is one draw group, ``_DRAW_CELLS //
(n_A - 1)`` columns and at least one.  Its weights are its resample counts
times the rescaled base weights, and its imputations are its refitted
coefficients' predictions, multiplied by einsum, so a column's bits do not
depend on the block's width.  Two consumers take the same blocks: the Monte
Carlo reduces each block straight to its replicate estimates
(:func:`sample_a_estimates`), so no n_A x L array exists in a rep, and the
``bootstrap`` command copies each block into its columns of the n_A x L
release columns (:func:`sample_a_replicates`).  A block's sum over units
adds each column's rows in order, as numpy sums the columns of a C-order
n_A x L product, and a lone column is summed beside a copy of itself, since
numpy sums one column pairwise.  So the estimates are those of the whole
product bit for bit, and replicate k's estimate does not depend on L, L = 1
included.

A range of refits draws its resamples in one pass of their streams, as
does each redraw attempt, and uses each draw group (32 resamples at
n_B = 500) as soon as it is drawn: no L x n_B count matrix exists.
Linear refits take :func:`~massimpute.mean_model.least_squares`, the
full-sample fit's normal equations, in its two steps: each group's
count-weighted sums are written into the range's L x (p+1) x (p+1) rows,
and one finish per range and attempt screens, solves and maps back all of
them, so its fixed cost is paid once, not once a group.  A row that fails
the eigenvalue screen takes the exact rank test on its counts, drawn again
on its own stream, the same row bit for bit.  Resamples too large to group
are summed in blocks of about 2^20 counts.  Like every sum over units, the
sums run over unit blocks of at most 8,192 units (the block rule of
:mod:`.mean_model`), so einsum sums each row of a count matrix alike however
many rows share it, and a lone row's coefficients are mapped back as a row
of several: earlier columns do not move when L grows, and no group, block
or worker count changes a bit.

Logistic and log-linear refits run one replicate at a time, each on the
distinct rows of its resample (about 63% of n_B, gathered in row order from
the design's p x n transpose) weighted by their draw counts: the same score
and Jacobian as the gathered fit, summed in another order.  The rows, their
responses and their counts as float weights are gathered into one buffer
that the range reuses, so no block of float counts exists, and neither is
a fresh buffer faulted in for every resample.  Newton starts at zero as the
full-sample fit does.  A warm start at the full-sample coefficients saves
iterations but changes which near-separated resamples fail and must be
redrawn, and so the replicate set itself.  The release manifest
records the number of redraws.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass

import numpy as np

from .data_model import (
    ColumnSchema,
    DesignKind,
    DesignMatrix,
    DesignSpec,
    SampleKind,
    SurveySample,
)
from .errors import (
    IOFailure,
    NonPositiveWeight,
    NumericalError,
    UnsupportedDesign,
    ValidationError,
)
from .estimators import per_population
from .mean_model import (
    FittedModel,
    ModelFamily,
    least_squares,
    mean_values,
    predict_all,
    read_model_document,
    solve_quasi_score,
)
from .seeding import seed_words
from .table import read_columns, read_json, write_json, write_table
from .workers import fork_map

_REFIT_RETRY_CAP = 10
# resamples too large to draw in groups are refitted in blocks of about this
# many counts, so a block's count matrix stays near 8 MiB whatever n_B is
_BLOCK_CELLS = 2**20
# replicates are drawn in groups of about this many draws (a few 128 KiB
# temporaries); a resample too large for a group of two is drawn on its own
_DRAW_CELLS = 2**14
_MASK32 = 0xFFFFFFFF


@dataclass(frozen=True)
class ReplicateSet:
    L: int
    replicate_weights: np.ndarray      # n_A x L
    replicate_imputations: np.ndarray  # n_A x L
    base_imputations: np.ndarray       # n_A
    master_seed: int
    refit_retries: int = 0


@functools.cache
def _seed_words_class():
    """The ``ISeedSequence`` whose state is a row of :func:`seed_words`, so
    that numpy seeds a PCG64 from the row.  It is made at the first draw:
    importing numpy.random imports hashlib, which
    :func:`~massimpute.workers.use_builtin_hashes` must precede."""
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return SeedWords


def _streams(seed: int, ks, tag: int, attempt: int = 0):
    """Yield, for each k in ``ks``, a PCG64 at the start of the stream
    ``default_rng(SeedSequence([seed, k, tag, attempt]))``.
    :func:`_count_groups` takes raw words from it in small groups, and
    draws ``integers`` from it for large resamples."""
    words = seed_words(seed, ks, tag, attempt)
    SeedWords = _seed_words_class()
    for row in words:
        yield np.random.PCG64(SeedWords(row))


# integers(0, n) takes 32-bit values u, the low and then the high half of
# each 64-bit PCG64 word, and rejects m = u * n when m mod 2^32 is below
# (2^32 - n) mod n, taking the next value instead, else yields m >> 32
# (Lemire's rule).  m is exact in int64 for n < 2^31.  A little-endian uint32
# view of the words holds the u in that order; it is taken after the words
# are written, since on a big-endian host astype("<u8") copies them.  The
# multiply casts the u to int64 as it goes, and the rest of the rule keeps to
# int64 arithmetic: a uint32 or uint64 loop, or an int64 comparison, pages in
# 64-128 KiB of numpy code that nothing else in a run touches, so x < t is
# written (x - t) >> 63, which is -1 where it holds and 0 elsewhere
def _replay(bit_generator, n: int, size: int) -> np.ndarray:
    """``integers(0, n, size)`` from a PCG64 at the start of its stream, from
    its raw words: each rejected value is replaced by the next one."""
    threshold = (2**32 - n) % n
    kept, need = [], size
    while need > 0:
        words = bit_generator.random_raw(-(-need // 2))
        m = np.multiply(words.astype("<u8", copy=False).view("<u4"), n,
                        dtype=np.int64)
        rejected = ((m & _MASK32) - threshold) >> 63
        kept.append(m[np.flatnonzero(rejected + 1)] >> 32)
        need -= len(kept[-1])
    return np.concatenate(kept)[:size]


def _count_groups(seed: int, ks, tag: int, attempt: int, n: int, size: int):
    """Yield (rows, counts) for consecutive groups of ``ks``: row j of the
    group's counts is ``bincount(integers(0, n, size), minlength=n)`` on the
    stream of ``ks[rows][j]`` (see :func:`_streams`), bit for bit.  A group
    holds ``_DRAW_CELLS // size`` replicates, or one when that is below two."""
    group = min(_DRAW_CELLS // size, len(ks))
    streams = _streams(seed, ks, tag, attempt)
    if group < 2:
        for j, bit_generator in enumerate(streams):
            draws = np.random.Generator(bit_generator).integers(0, n, size=size)
            yield slice(j, j + 1), np.bincount(draws, minlength=n)[None]
        return
    threshold = (2**32 - n) % n
    raw = np.empty((group, -(-size // 2)), np.uint64)
    values = np.empty((group, size), np.int64)
    offsets = np.arange(0, group * n, n)[:, None]
    for start in range(0, len(ks), group):
        rows = min(group, len(ks) - start)
        for j, bit_generator in zip(range(rows), streams):
            raw[j] = bit_generator.random_raw(raw.shape[1])
        u = raw[:rows].astype("<u8", copy=False).view("<u4")
        d = np.multiply(u[:, :size], n, out=values[:rows], dtype=np.int64)
        short = ()
        if threshold:
            short = np.flatnonzero(((d & _MASK32).min(axis=1) - threshold) >> 63)
        d >>= 32
        # a rejected value shifts the rest of its row, so the rare row that
        # holds one is replayed on its own
        for j in short:
            bit_generator, = _streams(seed, ks[start + j : start + j + 1], tag, attempt)
            d[j] = _replay(bit_generator, n, size)
        d += offsets[:rows]
        yield slice(start, start + rows), np.bincount(
            d.ravel(), minlength=rows * n).reshape(rows, n)


def _weight_blocks(sample_a: SurveySample, design_spec: DesignSpec, L: int,
                   seed: int):
    """Check the design, then return an iterator of (columns, weights): the
    rescaling-bootstrap weights of each draw group of the L replicates
    (:func:`_count_groups`), an n x b block that the next block overwrites."""
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
    scale = (w * (n / (n - 1)))[:, None]

    def blocks():
        buffer = None
        for cols, counts in _count_groups(seed, np.arange(L), 0, 0, n, n - 1):
            if buffer is None:  # the first group is the widest
                buffer = np.empty((n, len(counts)))
            weights = buffer[:, : len(counts)]
            # the same two roundings per cell as w * (n / (n - 1)) * count
            np.multiply(counts.T, scale, out=weights)
            del counts  # before the caller's work on the block
            yield cols, weights

    return blocks()


def replicate_weights(
    sample_a: SurveySample,
    design_spec: DesignSpec,
    L: int,
    seed: int,
) -> np.ndarray:
    """Rescaling-bootstrap replication weights, one column per replicate."""
    blocks = _weight_blocks(sample_a, design_spec, L, seed)
    out = np.empty((sample_a.n, L))
    for cols, weights in blocks:
        out[:, cols] = weights
    return out


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
    # a group of draws is used as soon as it is drawn; resamples too large
    # to group are drawn one at a time and summed in blocks
    block = _DRAW_CELLS // n
    if block < 2:
        block = max(1, _BLOCK_CELLS // n)

    def linear_fits(ks: np.ndarray, attempt: int) -> tuple[np.ndarray, np.ndarray]:
        """The coefficients of the replicates ``ks`` on their draws of
        ``attempt`` and the mask of those that fitted: each block's sums,
        then one finish for them all."""
        sums = np.empty((len(ks), p + 1, p + 1))
        buffer = np.empty((min(block, len(ks)), n))  # float counts, reused
        filled = 0
        for rows, counts in _count_groups(seed, ks, 1, attempt, n, n):
            buffer[filled : filled + len(counts)] = counts
            filled += len(counts)
            del counts  # before the block is summed
            if filled < len(buffer) and rows.stop < len(ks):
                continue
            normal_sums(buffer[:filled], sums[rows.stop - filled : rows.stop])
            filled = 0
        del buffer  # before the finish's rank tests

        def counts_of(j: int) -> np.ndarray:
            # replicate ks[j]'s counts, drawn again on its own stream: the
            # same row as in its group, bit for bit
            (_, counts), = _count_groups(seed, ks[j : j + 1], 1, attempt, n, n)
            return counts[0]

        return finish(sums, counts_of)

    def quasi_score_fits(ks: np.ndarray, attempt: int) -> tuple[np.ndarray, np.ndarray]:
        """As ``linear_fits``, each replicate fitted on its distinct units
        weighted by their draw counts."""
        betas, ok = np.zeros((len(ks), p)), np.ones(len(ks), dtype=bool)
        # a resample's p x m design rows, m responses and m float weights, in
        # contiguous slices of one buffer that every resample reuses, laid
        # out as take()'s own results; mode="clip" takes straight into them
        # (the default mode copies through a temporary), and every unit is in
        # range
        gathered = np.empty((p + 2) * n)
        for rows, counts in _count_groups(seed, ks, 1, attempt, n, n):
            for j, c in zip(range(rows.start, rows.stop), counts):
                units = np.flatnonzero(c)
                m = len(units)
                X_units = np.take(XT, units, axis=1, mode="clip",
                                  out=gathered[: p * m].reshape(p, m))
                y_units = np.take(y, units, mode="clip",
                                  out=gathered[p * m : (p + 1) * m])
                weights = gathered[(p + 1) * m : (p + 2) * m]
                weights[:] = c[units]
                try:
                    betas[j], _, _ = solve_quasi_score(family, X_units.T, y_units,
                                                       weights)
                except NumericalError:
                    ok[j] = False
            del counts, c, units  # before the next group is drawn
        return betas, ok

    if family is ModelFamily.LINEAR:
        normal_sums, finish = least_squares(design_b, y)
        fits = linear_fits
    else:
        XT = X.T
        fits = quasi_score_fits

    def refit(reps: range) -> tuple[np.ndarray, int, int | None]:
        """The coefficients of ``reps``, their redraws and the lowest
        replicate that failed every redraw, or None."""
        betas = np.empty((len(reps), p))
        retries = 0
        pending = np.arange(reps.start, reps.stop)
        for attempt in range(_REFIT_RETRY_CAP + 1):
            fitted, ok = fits(pending, attempt)
            betas[pending[ok] - reps.start] = fitted[ok]
            pending = pending[~ok]
            if not pending.size:
                return betas, retries, None
            retries += pending.size
        return betas, retries, int(pending[0])

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
    imputations under each replicate's coefficients, each block of
    :func:`replicate_blocks` copied into its columns of the two n_A x L
    outputs.  It needs nothing of sample B, so a caller may release B before
    it runs."""
    base = predict_all(model, design_a)
    shape = (sample_a.n, len(betas))
    rep_w, rep_yhat = np.empty(shape), np.empty(shape)
    for cols, weights, imputations in replicate_blocks(
            model, sample_a, design_a, design_spec, betas, seed):
        rep_w[:, cols], rep_yhat[:, cols] = weights, imputations
    return ReplicateSet(
        L=len(betas),
        replicate_weights=rep_w,
        replicate_imputations=rep_yhat,
        base_imputations=base,
        master_seed=seed,
        refit_retries=refit_retries,
    )


def replicate_blocks(
    model: FittedModel,
    sample_a: SurveySample,
    design_a: DesignMatrix,
    design_spec: DesignSpec,
    betas: np.ndarray,
    seed: int,
):
    """Sample A's replicate columns for the L x p refitted coefficients
    ``betas``, one draw group at a time: an iterator of (columns, weights,
    imputations), each an n_A x b block of the columns' slice; the next
    block overwrites the weights, and the imputations are fresh.  Column k
    of the imputations comes from replicate k's coefficients only, and its
    bits do not depend on the block
    (:func:`~massimpute.mean_model.mean_values`)."""
    return (
        (cols, weights, mean_values(model.family, design_a.values, betas[cols].T))
        for cols, weights in _weight_blocks(sample_a, design_spec, len(betas), seed)
    )


def _column_totals(weights: np.ndarray, imputations: np.ndarray) -> np.ndarray:
    """The weighted imputation totals of an n x b block of replicate
    columns, each column's rows added in order as numpy adds them in a
    C-order n x b product of two columns or more.  numpy sums a lone column
    pairwise, so a lone column is summed beside a copy of itself."""
    products = np.multiply(weights, imputations, order="C")
    if products.shape[1] == 1:
        products = np.repeat(products, 2, axis=1)
    return np.sum(products, axis=0)[: weights.shape[1]]


def sample_a_estimates(
    model: FittedModel,
    sample_a: SurveySample,
    design_a: DesignMatrix,
    design_spec: DesignSpec,
    betas: np.ndarray,
    seed: int,
    population_size: float,
) -> np.ndarray:
    """``replicate_estimates(sample_a_replicates(...), population_size)``
    bit for bit, each block of :func:`replicate_blocks` reduced to its
    estimates as it is built, so no n_A x L array exists.  The Monte Carlo's
    N is at least 1, so this skips that function's finiteness check."""
    totals = np.empty(len(betas))
    for cols, weights, imputations in replicate_blocks(
            model, sample_a, design_a, design_spec, betas, seed):
        totals[cols] = _column_totals(weights, imputations)
    return totals / population_size


def replicate_estimates(replicate_set, population_size: float) -> np.ndarray:
    """Replicate point estimates: weighted imputation totals over N, for a
    :class:`ReplicateSet` or an :class:`AugmentedDataset`, summed a block of
    columns at a time.  An estimate that is not finite, as over an N near
    zero, raises :class:`NumericalError`."""
    w, y = replicate_set.replicate_weights, replicate_set.replicate_imputations
    n, L = w.shape
    totals = np.empty(L)
    width = max(1, _DRAW_CELLS // max(n - 1, 1))  # a draw group's columns
    for start in range(0, L, width):
        cols = slice(start, start + width)
        totals[cols] = _column_totals(w[:, cols], y[:, cols])
    # every quotient is finite when the largest is
    per_population(np.abs(totals).max(initial=0.0), population_size)
    return totals / population_size


def bootstrap_variance(theta_hat: float, replicate_values: np.ndarray) -> float:
    """Mean squared deviation of the replicates about the point estimate; one
    that is not finite raises :class:`NumericalError`."""
    replicate_values = np.asarray(replicate_values, dtype=float)
    if replicate_values.size < 1:
        raise ValidationError("need at least one replicate estimate")
    with np.errstate(over="ignore", invalid="ignore"):
        variance = float(np.mean((replicate_values - theta_hat) ** 2))
    if not math.isfinite(variance):
        raise NumericalError("the bootstrap variance is not finite: it overflows")
    return variance


# -- release file ------------------------------------------------------------

# an imputed file reads as a release file without replicate columns
IMPUTED_FORMAT = "massimpute-imputed-v1"


def manifest_path(csv_path) -> str:
    return str(csv_path) + ".manifest.json"


def write_with_manifest(path, header, columns, manifest: dict) -> None:
    """Write the CSV ``path`` (:func:`~massimpute.table.write_table`) and its
    ``manifest`` (:func:`~massimpute.table.write_json`), or neither when
    either refuses what it is given."""
    write_json(manifest_path(path), manifest)
    try:
        write_table(path, header, columns)
    except (ValidationError, NumericalError, OSError):
        os.remove(manifest_path(path))  # no manifest of a file not written
        raise


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
    cols = [sample_a.columns[name] for name in names] + [replicate_set.base_imputations]
    for k in range(replicate_set.L):
        header += [f"w_rep_{k + 1}", f"yhat_rep_{k + 1}"]
        cols += [replicate_set.replicate_weights[:, k],
                 replicate_set.replicate_imputations[:, k]]
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
    try:
        write_with_manifest(path, header, cols, manifest)
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
    # an imputed file's model, sample B's schema from the same document, and
    # sample A under the model (its covariate columns and weights), when read
    # with ``with_sample``
    model: FittedModel | None = None
    schema: ColumnSchema | None = None
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

    With ``with_sample`` the file must be an imputed file: the model document
    in its manifest is read
    (:func:`~massimpute.mean_model.read_model_document`), and the model's
    covariate columns are read in the same pass as the weights to give
    sample A, for the linearized variance.
    A malformed manifest, a missing column, a bad cell (see
    :func:`~massimpute.table.read_columns`), a non-positive weight, a
    release file with a replicate pair beyond its manifest's L or with other
    than the manifest's ``n_a`` rows raises :class:`ValidationError`.
    """
    mpath = manifest_path(path)
    manifest = read_json(mpath)
    if not isinstance(manifest, dict) or not isinstance(manifest.get("weight_name"), str):
        raise ValidationError(f"{mpath}: no 'weight_name' column name")
    imputed = manifest.get("format") == IMPUTED_FORMAT
    L = 0 if imputed else manifest.get("L")
    if type(L) is not int or L < 0:
        raise ValidationError(f"{mpath}: 'L' must be an integer >= 0, got {L!r}")
    N = manifest.get("population_size")
    if N is not None and not (type(N) in (int, float) and 0 < N < math.inf):
        raise ValidationError(f"{mpath}: 'population_size' must be positive or null")

    model, schema, covariates = None, None, ()
    if with_sample:
        if not isinstance(manifest.get("model"), dict):
            raise ValidationError(f"{path} has no model: not an imputed file")
        model, schema = read_model_document(manifest["model"])
        covariates = model.raw_names

    reps = [f"{kind}_rep_{k + 1}" for kind in ("w", "yhat") for k in range(L)]
    names = [manifest["weight_name"], "yhat", *reps]
    # exactly the manifest's L pairs: a further pair is refused, not ignored
    columns = read_columns(path, [*names, *covariates],
                           absent=(f"w_rep_{L + 1}", f"yhat_rep_{L + 1}"))
    rows, n_a = len(columns[names[0]]), manifest.get("n_a")
    if not imputed and (type(n_a) is not int or n_a != rows):
        raise ValidationError(f"{mpath}: 'n_a' is {n_a!r}, but {path} has {rows} rows")
    # the columns as one 2-D block, sliced below into the dataset's arrays
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
        schema=schema,
        sample_a=sample_a,
    )

