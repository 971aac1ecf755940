"""Sample containers, CSV ingestion, and design-matrix construction.

The two-sample setup: a probability sample A carrying design weights, and a
non-probability sample B carrying responses.  Membership in B is what plays
the role of the selection indicator; it is never stored as a column.
"""

from __future__ import annotations

import enum
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

    def __post_init__(self):
        n = self.n
        if self.kind is SampleKind.PROBABILITY_A:
            if self.weight_name is None:
                raise MissingColumn("<weight>")
            w = self.columns[self.weight_name]
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
            if not np.all(np.isfinite(col)):
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
    """Dense n x p matrix; full rank is only checked at decomposition time."""

    values: np.ndarray
    column_names: tuple[str, ...]
    intercept_included: bool

    def __post_init__(self):
        if self.values.ndim != 2:
            raise ValidationError("design matrix must be two-dimensional")
        if self.values.shape[1] < 1:
            raise UnknownCovariate("<empty design>")
        if not np.all(np.isfinite(self.values)):
            raise ValidationError("non-finite entry in design matrix")

    @property
    def p(self) -> int:
        return self.values.shape[1]


def load_sample(path, schema: ColumnSchema, kind: SampleKind) -> SurveySample:
    """Read a CSV file into a validated :class:`SurveySample`.

    Categorical covariates are expanded to indicator columns named
    ``{col}={level}`` with the declared reference level dropped.  Cells are
    parsed and checked by :func:`~massimpute.table.read_columns`.
    """
    text = {name for name in schema.covariates if name in schema.categoricals}
    clash = text & {schema.response, schema.weight}
    if clash:
        raise ValidationError(f"column {clash.pop()!r} cannot be both a "
                              "categorical covariate and the response or weight")
    declared = [*schema.covariates, schema.response, schema.weight]
    raw = read_columns(path, [name for name in declared if name is not None], text)

    columns: dict[str, np.ndarray] = {}
    covariate_names: list[str] = []
    for name in schema.covariates:
        if name in schema.categoricals:
            values = raw[name]
            for level in sorted(set(values) - {schema.categoricals[name]}):
                col_name = f"{name}={level}"
                columns[col_name] = (values == level).astype(float)
                covariate_names.append(col_name)
        else:
            columns[name] = raw[name]
            covariate_names.append(name)
    for name in (schema.response, schema.weight):
        if name is not None:
            columns[name] = raw[name]

    return SurveySample(
        columns=columns,
        covariate_names=tuple(covariate_names),
        kind=kind,
        response_name=schema.response,
        weight_name=schema.weight,
    )


def build_design_matrix(
    sample: SurveySample,
    covariates: tuple[str, ...] | list[str],
    intercept: bool = True,
) -> DesignMatrix:
    """Assemble the model matrix in declaration order, intercept first."""
    covariates = tuple(covariates)
    if not covariates and not intercept:
        raise UnknownCovariate("<empty design>")
    for name in covariates:
        if name not in sample.columns:
            raise UnknownCovariate(name)
    blocks = []
    names: list[str] = []
    if intercept:
        blocks.append(np.ones((sample.n, 1)))
        names.append("(intercept)")
    for name in covariates:
        blocks.append(sample.columns[name][:, None])
        names.append(name)
    return DesignMatrix(
        values=np.hstack(blocks),
        column_names=tuple(names),
        intercept_included=intercept,
    )


def estimate_population_size(sample_a: SurveySample) -> float:
    """Design-weight total: the standard estimate of N when N is unknown."""
    if sample_a.kind is not SampleKind.PROBABILITY_A:
        raise ValidationError("population size is estimated from sample A")
    return float(np.sum(sample_a.weights))
