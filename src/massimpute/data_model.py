"""Sample containers, CSV ingestion, and design-matrix construction.

The two-sample setup: a probability sample A carrying design weights, and a
non-probability sample B carrying responses.  Membership in B is what plays
the role of the selection indicator; it is never stored as a column.

A sample's covariates are held once.  :func:`load_sample` takes the columns
:mod:`.table` parses a chunk of rows at a time (numeric ones as float
arrays, categorical ones as integer codes into their levels) and writes the
covariates, each level other than the reference as a 0/1 indicator, into the
rows of one C-contiguous (intercept + covariates) x n array; the sample's
covariate columns are row views of it.  The numeric rows are written first,
and each parsed column is released as soon as its row is written, so at most
one is resident beside the design; the indicator rows follow.
:func:`build_design_matrix` returns that array's transpose, with no copy,
when asked for the sample's own covariates, and builds a new p x n array for
any other selection.  Samples and designs check finiteness by reductions,
with no temporary of their size.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    MissingColumn,
    MissingJointProbabilities,
    NonPositiveWeight,
    SampleTooLarge,
    UnknownCovariate,
    ValidationError,
)
from .table import read_columns


class SampleKind(enum.Enum):
    PROBABILITY_A = "probability_a"
    NON_PROBABILITY_B = "non_probability_b"


class DesignKind(enum.Enum):
    SRS_WOR = "srs_without_replacement"
    PPS_WR = "pps_with_replacement"
    JOINT_PROBABILITIES = "joint_probabilities"


@dataclass(frozen=True)
class ColumnSchema:
    """Declared roles for the columns of a CSV file.

    ``categoricals`` maps a column name to its reference level; such columns
    are expanded to 0/1 indicators with the reference level dropped.
    """

    covariates: tuple[str, ...]
    response: str | None = None
    weight: str | None = None
    categoricals: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class SurveySample:
    """Immutable validated sample: columns are parallel float arrays."""

    columns: dict[str, np.ndarray]
    covariate_names: tuple[str, ...]
    kind: SampleKind
    response_name: str | None = None
    weight_name: str | None = None
    # the (intercept + covariates) x n array whose later rows are the
    # covariate columns, when load_sample wrote them into one
    design_rows: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        n = self.n
        if self.kind is SampleKind.PROBABILITY_A:
            if self.weight_name is None:
                raise MissingColumn("<weight>")
            w = self.columns[self.weight_name]
            if w.size and not w.min() > 0:
                bad = np.flatnonzero(w <= 0)
                if bad.size:
                    raise NonPositiveWeight(int(bad[0]) + 1, float(w[bad[0]]))
        else:
            if self.response_name is None:
                raise MissingColumn("<response>")
        if n < len(self.covariate_names) + 1:
            raise ValidationError(
                f"sample has {n} rows but needs at least "
                f"{len(self.covariate_names) + 1}"
            )
        for name in self._declared():
            col = self.columns[name]
            if len(col) != n:
                raise DimensionMismatch(f"column {name!r} length differs")
            if not _finite(col):
                raise ValidationError(f"non-finite value in column {name!r}")

    def _declared(self):
        names = list(self.covariate_names)
        if self.response_name:
            names.append(self.response_name)
        if self.weight_name:
            names.append(self.weight_name)
        return names

    @property
    def n(self) -> int:
        return len(next(iter(self.columns.values())))

    @property
    def weights(self) -> np.ndarray:
        if self.weight_name is None:
            raise MissingColumn("<weight>")
        return self.columns[self.weight_name]

    @property
    def responses(self) -> np.ndarray:
        if self.response_name is None:
            raise MissingColumn("<response>")
        return self.columns[self.response_name]


@dataclass(frozen=True)
class DesignSpec:
    """Sampling-design metadata for the probability sample A."""

    design: DesignKind
    population_size: float | None = None
    joint_probabilities: np.ndarray | None = None

    def __post_init__(self):
        if self.design is DesignKind.SRS_WOR:
            if self.population_size is None:
                raise ValidationError("SRS design requires a population size")
        if self.design is DesignKind.JOINT_PROBABILITIES:
            pij = self.joint_probabilities
            if pij is None:
                raise MissingJointProbabilities("joint probability table required")
            if pij.ndim != 2 or pij.shape[0] != pij.shape[1]:
                raise ValidationError("joint probability table must be square")
            if not np.allclose(pij, pij.T):
                raise ValidationError("joint probability table must be symmetric")
            if np.any(pij <= 0) or np.any(pij > 1):
                raise ValidationError("joint probabilities must lie in (0, 1]")

    def srs_probabilities(self, n: int) -> tuple[float, float]:
        """First- and second-order inclusion probabilities under SRS."""
        N = float(self.population_size)
        if n > N:
            raise SampleTooLarge(n, int(N))
        pi = n / N
        pij = n * (n - 1) / (N * (N - 1)) if n > 1 else 0.0
        return pi, pij


def srs_design(population_size: float) -> DesignSpec:
    return DesignSpec(DesignKind.SRS_WOR, population_size=population_size)


def ppswr_design(population_size: float | None = None) -> DesignSpec:
    return DesignSpec(DesignKind.PPS_WR, population_size=population_size)


@dataclass(frozen=True)
class DesignMatrix:
    """Dense n x p matrix, built as the transpose of a C-contiguous p x n
    array; full rank is only checked at decomposition time."""

    values: np.ndarray
    column_names: tuple[str, ...]
    intercept_included: bool

    def __post_init__(self):
        if self.values.ndim != 2:
            raise ValidationError("design matrix must be two-dimensional")
        if self.values.shape[1] < 1:
            raise UnknownCovariate("<empty design>")
        if not _finite(self.values):
            raise ValidationError("non-finite entry in design matrix")


def _finite(a: np.ndarray) -> bool:
    """Whether every entry of ``a`` is finite, without an array of its size:
    a NaN propagates through ``min`` and ``max``, and ``initial`` covers an
    empty ``a``."""
    return math.isfinite(a.min(initial=0.0)) and math.isfinite(a.max(initial=0.0))


def load_sample(path, schema: ColumnSchema, kind: SampleKind) -> SurveySample:
    """Read a CSV file into a validated :class:`SurveySample`.

    Categorical covariates are expanded to indicator columns named
    ``{col}={level}`` with the declared reference level dropped.  Cells are
    parsed and checked by :func:`~massimpute.table.read_columns`.  The
    covariate columns are the rows after the first of the sample's
    ``design_rows``, whose first row is the intercept's ones.  The numeric
    rows are written first, each parsed column released as its row is
    written unless it is also the response or the weight, and then the
    indicator rows from the codes: a page of the design is resident only once
    written, so at most one parsed covariate is resident beside the design.
    """
    text = {name for name in schema.covariates if name in schema.categoricals}
    clash = text & {schema.response, schema.weight}
    if clash:
        raise ValidationError(f"column {clash.pop()!r} cannot be both a "
                              "categorical covariate and the response or weight")
    declared = [*schema.covariates, schema.response, schema.weight]
    raw = read_columns(path, [name for name in declared if name is not None], text)
    n = len(next(iter(raw.values())))

    # the design rows to write, as (row, name) and (row, codes, level's code)
    names, numeric, indicators = [], [], []
    for name in schema.covariates:
        if name in schema.categoricals:
            column = raw[name]
            levels = sorted(set(column.levels) - {schema.categoricals[name]})
            indicators += [(1 + len(names) + i, column.codes, column.levels.index(level))
                           for i, level in enumerate(levels)]
            names += [f"{name}={level}" for level in levels]
        else:
            numeric.append((1 + len(names), name))
            names.append(name)
    rows = np.empty((1 + len(names), n))
    rows[0] = 1.0
    for i, name in numeric:
        rows[i] = raw[name]
        if name not in (schema.response, schema.weight):
            raw[name] = rows[i]  # the parsed column goes; a repeat copies the row
    for i, codes, code in indicators:
        np.equal(codes, code, out=rows[i])

    columns = dict(zip(names, rows[1:]))
    for name in (schema.response, schema.weight):
        if name is not None:
            columns[name] = raw[name]

    return SurveySample(
        columns=columns,
        covariate_names=tuple(names),
        kind=kind,
        response_name=schema.response,
        weight_name=schema.weight,
        design_rows=rows,
    )


def build_design_matrix(
    sample: SurveySample,
    covariates: tuple[str, ...] | list[str],
    intercept: bool = True,
) -> DesignMatrix:
    """Assemble the model matrix in declaration order, intercept first: a
    view of the sample's ``design_rows`` when it has them and ``covariates``
    are its own, else a new array."""
    covariates = tuple(covariates)
    for name in covariates:
        if name not in sample.columns:
            raise UnknownCovariate(name)
    first = 1 if intercept else 0
    names = ("(intercept)",) * first + covariates
    # a C-contiguous p x n array, so every sum over units runs along its rows
    if sample.design_rows is not None and covariates == sample.covariate_names:
        rows = sample.design_rows[1 - first :]
    else:
        rows = np.empty((len(names), sample.n))
        rows[:first] = 1.0
        for row, name in zip(rows[first:], covariates):
            row[:] = sample.columns[name]
    return DesignMatrix(
        values=rows.T,
        column_names=names,
        intercept_included=intercept,
    )


def estimate_population_size(sample_a: SurveySample) -> float:
    """Design-weight total: the standard estimate of N when N is unknown."""
    if sample_a.kind is not SampleKind.PROBABILITY_A:
        raise ValidationError("population size is estimated from sample A")
    return float(np.sum(sample_a.weights))
