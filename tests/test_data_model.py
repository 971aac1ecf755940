"""Ingestion, validation, design matrices, and population-size estimation."""

import itertools
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import massimpute
from massimpute import (
    ColumnSchema,
    DesignMatrix,
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

from conftest import make_sample_a, make_sample_b, write_csv


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


class TestColumnInTwoRoles:
    """A numeric covariate may also be the weight or the response: its parsed
    column is kept for that role after its design row is written."""

    def test_covariate_that_is_also_the_weight(self, tmp_path):
        rows = [[1.0, 2.0], [3.0, 4.0], [5.0, 0.5], [7.0, 8.0]]
        path = write_csv(tmp_path / "a.csv", ["x", "w"], rows)
        sample = load_sample(path, ColumnSchema(("x", "w"), weight="w"),
                             SampleKind.PROBABILITY_A)
        np.testing.assert_array_equal(sample.weights, [2.0, 4.0, 0.5, 8.0])
        design = build_design_matrix(sample, sample.covariate_names)
        assert design.column_names == ("(intercept)", "x", "w")
        np.testing.assert_array_equal(design.values[:, 1], [1.0, 3.0, 5.0, 7.0])
        np.testing.assert_array_equal(design.values[:, 2], sample.weights)

    def test_covariate_that_is_also_the_response(self, tmp_path):
        rows = [["a", 1.0, 2.0], ["b", 3.0, 4.0], ["a", 5.0, 0.5], ["b", 7.0, -8.0]]
        path = write_csv(tmp_path / "b.csv", ["g", "x", "y"], rows)
        schema = ColumnSchema(("y", "g", "x"), "y", categoricals={"g": "a"})
        sample = load_sample(path, schema, SampleKind.NON_PROBABILITY_B)
        np.testing.assert_array_equal(sample.responses, [2.0, 4.0, 0.5, -8.0])
        design = build_design_matrix(sample, sample.covariate_names)
        assert design.column_names == ("(intercept)", "y", "g=b", "x")
        np.testing.assert_array_equal(design.values[:, 1], sample.responses)
        np.testing.assert_array_equal(design.values[:, 2], [0.0, 1.0, 0.0, 1.0])
        np.testing.assert_array_equal(design.values[:, 3], [1.0, 3.0, 5.0, 7.0])


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


class TestFiniteness:
    """Samples and designs reject a non-finite cell wherever it lies, and
    check without an array of their size."""

    CELLS = [0, 5, 9]  # the first, a middle and the last of 10 units

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("cell", CELLS)
    @pytest.mark.parametrize("column", [0, 2])
    def test_design_matrix_rejects(self, bad, cell, column):
        rows = np.ones((3, 10))
        rows[column, cell] = bad
        with pytest.raises(ValidationError, match="non-finite entry"):
            DesignMatrix(rows.T, ("a", "b", "c"), False)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("cell", CELLS)
    @pytest.mark.parametrize("column", ["x", "y"])
    def test_sample_b_rejects(self, bad, cell, column):
        values = {"x": np.arange(10.0), "y": np.ones(10)}
        values[column][cell] = bad
        with pytest.raises(ValidationError, match=f"non-finite value in column '{column}'"):
            make_sample_b(values["x"], values["y"])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("cell", CELLS)
    def test_sample_a_rejects(self, bad, cell):
        x, w = np.arange(10.0), np.ones(10)
        x[cell] = bad
        with pytest.raises(ValidationError, match="non-finite value in column 'x'"):
            make_sample_a(x, w)
        x[cell], w[cell] = 1.0, bad
        with pytest.raises(ValidationError):  # -inf is a non-positive weight
            make_sample_a(x, w)

    def test_largest_finite_values_accepted(self):
        big = np.finfo(float).max
        assert big == 1.7976931348623157e308
        x = np.array([-big, 0.0, big, 1.0])
        DesignMatrix(np.array([x, x[::-1]]).T, ("a", "b"), False)
        make_sample_b(x, x[::-1])
        make_sample_a(x, [big, 1.0, big, 2.0])

    def test_empty_design_accepted(self):
        DesignMatrix(np.empty((0, 2)), ("a", "b"), False)

    def test_checks_allocate_no_array_of_their_size(self, rng):
        rows = rng.normal(size=(4, 50_000))
        w = np.full(rows.shape[1], 2.0)
        tracemalloc.start()
        try:
            DesignMatrix(rows.T, ("a", "b", "c", "d"), False)
            _, design_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            make_sample_a(rows[1], w)
            _, sample_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # np.isfinite of the values alone would take one byte a cell
        assert design_peak < rows.size
        assert sample_peak < w.size


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

    @pytest.mark.parametrize("end", ["\n", "\r\n"], ids=["LF", "CRLF"])
    def test_load_holds_each_column_once_in_a_fresh_process(self, tmp_path, rng, end):
        # VmHWM counts every page a process has touched, not just what tracemalloc
        # sees: the parsed numeric columns must be released as their design
        # rows are written, not held beside the whole design; a CRLF file
        # takes numpy's reader as an LF file does, not the csv.reader walk
        # that holds every row as Python strings (58.9 MiB more)
        n = 100_000
        block = "".join(
            f"{a!r},{b!r},{c!r},{d!r},{'rab'[i % 3]},{e!r}{end}"
            for i, (a, b, c, d, e) in enumerate(rng.normal(size=(1000, 5)).tolist()))
        header = f"x1,x2,x3,x4,g,y{end}"
        small = header + block[: block.index(end, 5000) + len(end)]
        (tmp_path / "small.csv").write_bytes(small.encode())
        (tmp_path / "b.csv").write_bytes((header + block * (n // 1000)).encode())
        env = {**os.environ,
               "PYTHONPATH": os.path.dirname(os.path.dirname(massimpute.__file__))}
        done = subprocess.run([sys.executable, "-c", _LOAD_SCRIPT], cwd=tmp_path, env=env,
                              timeout=60, capture_output=True, text=True, check=True)
        result = json.loads(done.stdout)
        if result is None:
            pytest.skip("no VmHWM in /proc/self/status")
        rise, design, response = result
        assert design == 7 * 8 * n  # the intercept, x1 to x4, g=a and g=b
        # the design, y and g's int32 codes; the parent held x1 to x4 as
        # parsed beside them, 3.05 MiB more
        assert rise <= design + response + 4 * n + 1.5 * 2**20, rise


# Loads small.csv, so that the code the load runs is resident, then b.csv,
# and prints the rise of VmHWM over VmRSS before it, with the bytes of the
# design and of the response.  Prints null without /proc/self/status.
_LOAD_SCRIPT = """
import json, os
from massimpute import ColumnSchema, SampleKind, load_sample
def status(key):
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) * 1024 for line in fh if line.startswith(key))
if not os.path.exists("/proc/self/status"):
    print("null")
    raise SystemExit
schema = ColumnSchema(("x1", "x2", "x3", "x4", "g"), "y", categoricals={"g": "r"})
load_sample("small.csv", schema, SampleKind.NON_PROBABILITY_B)
before = status("VmRSS:")
sample = load_sample("b.csv", schema, SampleKind.NON_PROBABILITY_B)
print(json.dumps([status("VmHWM:") - before, sample.design_rows.nbytes,
                  sample.responses.nbytes]))
"""


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
