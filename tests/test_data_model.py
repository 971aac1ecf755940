"""Ingestion, validation, design matrices, and population-size estimation."""

import itertools
import tracemalloc

import numpy as np
import pytest

from massimpute import (
    ColumnSchema,
    ModelFamily,
    SampleKind,
    build_design_matrix,
    estimate_population_size,
    fit_model,
    load_sample,
)
from massimpute.errors import (
    EmptyFile,
    MissingColumn,
    NonFiniteValue,
    NonNumericValue,
    NonPositiveWeight,
    RankDeficient,
    UnknownCovariate,
    ValidationError,
)
from massimpute.table import write_table

from conftest import make_sample_a, write_csv


A_SCHEMA = ColumnSchema(covariates=("x",), weight="w")


class TestLoadSample:
    def test_direct_parse(self, tmp_path):
        path = write_csv(tmp_path / "a.csv", ["x", "w"], [[1.0, 2.0], [3.0, 2.0]])
        sample = load_sample(path, A_SCHEMA, SampleKind.PROBABILITY_A)
        assert sample.n == 2
        np.testing.assert_array_equal(sample.weights, [2.0, 2.0])
        np.testing.assert_array_equal(sample.columns["x"], [1.0, 3.0])

    def test_missing_weight_column(self, tmp_path):
        path = write_csv(tmp_path / "a.csv", ["x", "y"], [[1, 2], [3, 4]])
        with pytest.raises(MissingColumn) as exc:
            load_sample(path, A_SCHEMA, SampleKind.PROBABILITY_A)
        assert exc.value.column == "w"

    def test_negative_weight_names_row(self, tmp_path):
        path = write_csv(
            tmp_path / "a.csv", ["x", "w"], [[1, 2], [2, 2], [3, -1], [4, 2]]
        )
        with pytest.raises(NonPositiveWeight) as exc:
            load_sample(path, A_SCHEMA, SampleKind.PROBABILITY_A)
        assert exc.value.row == 3

    def test_non_numeric_value(self, tmp_path):
        path = write_csv(tmp_path / "a.csv", ["x", "w"], [[1, 2], ["oops", 2]])
        with pytest.raises(NonNumericValue) as exc:
            load_sample(path, A_SCHEMA, SampleKind.PROBABILITY_A)
        assert exc.value.column == "x"
        assert exc.value.row == 2

    def test_non_finite_value_names_row(self, tmp_path):
        path = write_csv(tmp_path / "a.csv", ["x", "w"], [[1, 2], [2, 2], ["nan", 2]])
        with pytest.raises(NonFiniteValue) as exc:
            load_sample(path, A_SCHEMA, SampleKind.PROBABILITY_A)
        assert (exc.value.column, exc.value.row) == ("x", 3)

    def test_empty_file(self, tmp_path):
        path = write_csv(tmp_path / "a.csv", ["x", "w"], [])
        with pytest.raises(EmptyFile):
            load_sample(path, A_SCHEMA, SampleKind.PROBABILITY_A)

    def test_round_trip_full_precision(self, tmp_path, rng):
        x = rng.normal(size=8)
        w = rng.uniform(0.5, 3.0, size=8)
        path = write_csv(
            tmp_path / "a.csv",
            ["x", "w"],
            [[repr(float(a)), repr(float(b))] for a, b in zip(x, w)],
        )
        sample = load_sample(path, A_SCHEMA, SampleKind.PROBABILITY_A)
        out = tmp_path / "b.csv"
        write_table(out, ["x", "w"], [sample.columns["x"], sample.weights])
        again = load_sample(out, A_SCHEMA, SampleKind.PROBABILITY_A)
        np.testing.assert_array_equal(sample.columns["x"], again.columns["x"])
        np.testing.assert_array_equal(sample.weights, again.weights)


class TestCategoricalExpansion:
    def test_categorical_response_rejected(self, tmp_path):
        path = write_csv(tmp_path / "b.csv", ["x", "y"], [[1, 2], [2, 3], [3, 2]])
        schema = ColumnSchema(
            covariates=("x", "y"), response="y", categoricals={"y": "2"}
        )
        with pytest.raises(ValidationError, match="'y' cannot be both"):
            load_sample(path, schema, SampleKind.NON_PROBABILITY_B)

    def test_reference_level_dropped(self, tmp_path):
        rows = [["a", 1, 2], ["b", 2, 2], ["c", 3, 2], ["a", 4, 2], ["b", 5, 2]]
        path = write_csv(tmp_path / "a.csv", ["g", "x", "w"], rows)
        schema = ColumnSchema(
            covariates=("g", "x"), weight="w", categoricals={"g": "a"}
        )
        sample = load_sample(path, schema, SampleKind.PROBABILITY_A)
        # 3 levels -> 2 indicator columns
        assert sample.covariate_names == ("g=b", "g=c", "x")
        indicators = np.column_stack(
            [sample.columns["g=b"], sample.columns["g=c"]]
        )
        assert np.all(indicators.sum(axis=1) <= 1)
        np.testing.assert_array_equal(sample.columns["g=b"], [0, 1, 0, 0, 1])


class TestDesignMatrix:
    def test_intercept_first(self):
        sample = make_sample_a([2.0, 3.0], [1.0, 1.0])
        dm = build_design_matrix(sample, ("x",), intercept=True)
        np.testing.assert_array_equal(dm.values, [[1, 2], [1, 3]])
        assert dm.column_names == ("(intercept)", "x")

    def test_empty_design_rejected(self):
        sample = make_sample_a([2.0, 3.0], [1.0, 1.0])
        with pytest.raises(UnknownCovariate):
            build_design_matrix(sample, (), intercept=False)

    def test_unknown_covariate(self):
        sample = make_sample_a([2.0, 3.0], [1.0, 1.0])
        with pytest.raises(UnknownCovariate):
            build_design_matrix(sample, ("z",))

    def test_duplicate_column_rank_deficient_at_fit(self, rng):
        from conftest import make_sample_b

        x = rng.normal(size=10)
        sample = make_sample_b(x, rng.normal(size=10))
        dm = build_design_matrix(sample, ("x", "x"), intercept=True)
        with pytest.raises(RankDeficient):
            fit_model(ModelFamily.LINEAR, sample, dm)


class TestOneCopyOfTheCovariates:
    """Sample B's covariates are parsed into the rows of its design, and the
    design returned for its own covariates is that array, not a copy."""

    def test_design_is_the_sample_columns(self, tmp_path, rng):
        n = 100_000
        x, y = rng.normal(size=n), rng.normal(size=n)
        # levels of several characters: Python keeps one string per cell read
        g = np.array(["ref", "alpha", "beta"])[rng.integers(0, 3, n)]
        path = tmp_path / "b.csv"
        with open(path, "w") as fh:
            fh.write("x,g,y\n")
            fh.writelines(f"{a!r},{b},{c!r}\n" for a, b, c in zip(x.tolist(), g, y.tolist()))
        schema = ColumnSchema(("x", "g"), "y", categoricals={"g": "ref"})
        tracemalloc.start()
        try:
            sample = load_sample(path, schema, SampleKind.NON_PROBABILITY_B)
            design = build_design_matrix(sample, sample.covariate_names)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert design.column_names == ("(intercept)", "x", "g=alpha", "g=beta")
        assert np.shares_memory(sample.columns["x"], design.values)
        np.testing.assert_array_equal(design.values[:, 2], g == "alpha")
        assert sample.columns["x"].tobytes() == x.tobytes()
        # the intercept, x and two level indicators, and y: five float rows
        assert held <= 5 * 8 * n + 2**16
        # beyond them, about one chunk: x as parsed and g's codes
        assert peak - held <= 1.5 * 2**20

    def test_other_covariates_are_copied(self, tmp_path):
        path = write_csv(tmp_path / "b.csv", ["x", "v", "y"],
                         [[1.0, 2.0, 3.0], [2.0, 5.0, 1.0], [4.0, 1.0, 0.0]])
        sample = load_sample(path, ColumnSchema(("x", "v"), "y"),
                             SampleKind.NON_PROBABILITY_B)
        own = build_design_matrix(sample, ("x", "v"), intercept=False)
        assert np.shares_memory(own.values, sample.columns["v"])
        assert own.values.T.flags.c_contiguous
        other = build_design_matrix(sample, ("v",), intercept=True)
        assert not np.shares_memory(other.values, sample.columns["v"])
        np.testing.assert_array_equal(other.values, [[1.0, 2.0], [1.0, 5.0], [1.0, 1.0]])


class TestEstimatePopulationSize:
    def test_sum_of_weights(self):
        sample = make_sample_a([1.0, 2.0, 3.0], [2.0, 2.0, 2.0])
        assert estimate_population_size(sample) == 6.0

    def test_srs_identity(self):
        N, n = 30, 5
        sample = make_sample_a(np.arange(n, dtype=float), np.full(n, N / n))
        assert estimate_population_size(sample) == N

    def test_ppswr_unbiased_by_enumeration(self):
        # 6-unit population, 2 with-replacement PPS draws; averaging the
        # estimated size over all ordered draws weighted by their
        # probabilities must return the exact population size.
        p = np.array([0.05, 0.1, 0.15, 0.2, 0.2, 0.3])
        n_draws = 2
        expected = 0.0
        for draw in itertools.product(range(6), repeat=n_draws):
            prob = np.prod([p[i] for i in draw])
            w = np.array([1.0 / (n_draws * p[i]) for i in draw])
            sample = make_sample_a(np.zeros(n_draws), w)
            expected += prob * estimate_population_size(sample)
        assert expected == pytest.approx(6.0, abs=1e-12)


class TestSampleInvariants:
    def test_b_sample_requires_response(self):
        with pytest.raises(MissingColumn):
            from massimpute import SurveySample

            SurveySample(
                columns={"x": np.zeros(3)},
                covariate_names=("x",),
                kind=SampleKind.NON_PROBABILITY_B,
            )

    def test_too_few_rows(self):
        with pytest.raises(ValidationError):
            make_sample_a([1.0], [1.0])
