"""Linearization variance: projection vector, components, assembly."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from massimpute import (
    DesignMatrix,
    ModelFamily,
    SampleKind,
    SurveySample,
    build_design_matrix,
    compute_c_hat,
    fit_model,
    linearized_variance,
    ppswr_design,
    srs_design,
    variance_component_a,
    variance_component_b,
)
from massimpute.errors import MissingJointProbabilities
from massimpute.mean_model import FittedModel
from massimpute.variance import VarianceStrategyA

from conftest import make_sample_a, make_sample_b


def linear_model(beta, names=("(intercept)", "x")):
    return FittedModel(
        family=ModelFamily.LINEAR,
        beta_hat=np.asarray(beta, float),
        covariate_names=tuple(names),
        intercept_included=True,
        iterations=1,
        final_score_norm=0.0,
    )


def plain_design(values, names):
    return DesignMatrix(
        values=np.asarray(values, float),
        column_names=tuple(names),
        intercept_included=False,
    )


class TestComputeCHat:
    def test_identity_gram_matrix(self):
        # B design orthonormal: c reduces to the weighted A totals
        model = linear_model([0.0, 0.0], names=("u", "v"))
        design_b = plain_design([[1.0, 0.0], [0.0, 1.0]], ("u", "v"))
        design_a = plain_design([[1.0, 0.0], [0.0, 1.0]], ("u", "v"))
        sample_a = SurveySample(
            columns={"w": np.array([2.0, 2.0])},
            covariate_names=(),
            kind=SampleKind.PROBABILITY_A,
            weight_name="w",
        )
        c = compute_c_hat(model, sample_a, design_a, design_b)
        np.testing.assert_allclose(c, [2.0, 2.0], atol=1e-12)

    def test_back_substitution_residual(self, rng):
        # general (logistic) family: the solved system must be satisfied
        x_b = rng.normal(2, 1, size=150)
        y_b = (rng.uniform(size=150) < 0.5).astype(float)
        sample_b = make_sample_b(x_b, y_b)
        design_b = build_design_matrix(sample_b, ("x",), intercept=True)
        model = fit_model(ModelFamily.LOGISTIC, sample_b, design_b)

        x_a = rng.normal(2, 1, size=80)
        sample_a = make_sample_a(x_a, rng.uniform(1, 5, size=80))
        design_a = build_design_matrix(sample_a, ("x",), intercept=True)

        c = compute_c_hat(model, sample_a, design_a, design_b)
        from massimpute.mean_model import mean_gradients

        grad_b = mean_gradients(model.family, design_b.values, model.beta_hat)
        lhs = grad_b.T @ design_b.values
        grad_a = mean_gradients(model.family, design_a.values, model.beta_hat)
        rhs = grad_a.T @ sample_a.weights
        assert np.max(np.abs(lhs @ c - rhs)) <= 1e-10 * max(1.0, np.max(np.abs(rhs)))


class TestVarianceComponentB:
    def test_perfect_fit_gives_zero(self):
        x = np.array([0.0, 1.0, 2.0])
        sample_b = make_sample_b(x, 1.0 + 2.0 * x)
        design_b = build_design_matrix(sample_b, ("x",), intercept=True)
        model = linear_model([1.0, 2.0])
        v = variance_component_b(model, sample_b, design_b, np.array([1.0, 1.0]), 10.0)
        assert v == 0.0

    def test_hand_computation(self):
        # one B row: residual 2, projected instrument 3, N = 10
        sample_b = SurveySample(
            columns={"z": np.array([3.0]), "y": np.array([2.0])},
            covariate_names=(),
            kind=SampleKind.NON_PROBABILITY_B,
            response_name="y",
        )
        design_b = plain_design([[3.0]], ("z",))
        model = linear_model([0.0], names=("z",))
        v = variance_component_b(model, sample_b, design_b, np.array([1.0]), 10.0)
        assert v == pytest.approx(36.0 / 100.0)


class TestVarianceComponentA:
    def _setup(self, m_values, w, N):
        # model that reproduces m_values through an identity design
        design_a = plain_design(np.asarray(m_values, float)[:, None], ("m",))
        sample_a = SurveySample(
            columns={"m": design_a.values[:, 0], "w": np.asarray(w, float)},
            covariate_names=("m",),
            kind=SampleKind.PROBABILITY_A,
            weight_name="w",
        )
        model = linear_model([1.0], names=("m",))
        return model, sample_a, design_a

    def test_constant_predictions_zero_under_srs(self):
        N, n = 20, 4
        model, sample_a, design_a = self._setup(
            np.full(n, 2.5), np.full(n, N / n), N
        )
        v = variance_component_a(
            model, sample_a, design_a, srs_design(N), N,
        )
        assert abs(v) <= 1e-12

    def test_srs_matches_textbook_formula(self, rng):
        for _ in range(100):
            n = int(rng.integers(3, 30))
            N = n + int(rng.integers(1, 100))
            m = rng.normal(size=n) * rng.uniform(0.1, 10)
            model, sample_a, design_a = self._setup(m, np.full(n, N / n), N)
            v = variance_component_a(
                model, sample_a, design_a, srs_design(N), N,
            )
            textbook = (1 - n / N) * np.var(m, ddof=1) / n
            assert v == pytest.approx(textbook, abs=1e-10 * max(1.0, abs(textbook)))

    def test_exhaustive_enumeration_unbiased(self):
        # 6-unit population, SRS n=2: averaging the estimator over all 15
        # samples equals the true design variance of the HT mean
        m_pop = np.array([1.0, 2.5, 3.0, 4.5, 5.0, 7.0])
        N, n = 6, 2
        truth = (1 - n / N) * np.var(m_pop, ddof=1) / n
        values = []
        for pair in itertools.combinations(range(N), 2):
            model, sample_a, design_a = self._setup(
                m_pop[list(pair)], np.full(2, N / n), N
            )
            values.append(
                variance_component_a(
                    model, sample_a, design_a, srs_design(N), N,
                )
            )
        assert np.mean(values) == pytest.approx(truth, abs=1e-10)

    def test_joint_probability_table_matches_srs_closed_form(self, rng):
        from massimpute import DesignKind, DesignSpec

        n, N = 5, 40
        m = rng.normal(size=n)
        pi = n / N
        pij_off = n * (n - 1) / (N * (N - 1))
        table = np.full((n, n), pij_off)
        np.fill_diagonal(table, pi)
        spec = DesignSpec(
            DesignKind.JOINT_PROBABILITIES,
            population_size=N,
            joint_probabilities=table,
        )
        model, sample_a, design_a = self._setup(m, np.full(n, N / n), N)
        v_table = variance_component_a(
            model, sample_a, design_a, spec, N
        )
        v_srs = variance_component_a(
            model, sample_a, design_a, srs_design(N), N,
        )
        assert v_table == pytest.approx(v_srs, abs=1e-12)

    def test_ppswr_always_nonnegative(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 20))
            m = rng.normal(size=n)
            w = rng.uniform(1, 10, size=n)
            model, sample_a, design_a = self._setup(m, w, 100.0)
            v = variance_component_a(
                model, sample_a, design_a, ppswr_design(), 100.0,
            )
            assert v >= 0.0

    def test_joint_table_of_another_size_errors(self, rng):
        from massimpute import DesignKind, DesignSpec

        model, sample_a, design_a = self._setup(
            rng.normal(size=4), np.full(4, 5.0), 20.0
        )
        spec = DesignSpec(DesignKind.JOINT_PROBABILITIES, population_size=20.0,
                          joint_probabilities=np.full((3, 3), 0.04))
        with pytest.raises(MissingJointProbabilities, match="3x3"):
            variance_component_a(model, sample_a, design_a, spec, 20.0)

    @pytest.mark.parametrize("spec, strategy", [
        (srs_design(20.0), VarianceStrategyA.EXACT_JOINT),
        (ppswr_design(20.0), VarianceStrategyA.PPSWR_APPROX)])
    def test_form_is_the_one_the_report_names(self, rng, spec, strategy):
        model, sample_a, design_a = self._setup(
            rng.normal(size=4), np.full(4, 5.0), 20.0
        )
        sample_b = make_sample_b(rng.normal(size=6), rng.normal(size=6))
        design_b = plain_design(rng.normal(size=(6, 1)), ("m",))
        lin = linearized_variance(model, sample_a, sample_b, design_a, design_b,
                                  spec, 20.0)
        assert lin.strategy_a is strategy
        assert lin.v_a == variance_component_a(model, sample_a, design_a, spec, 20.0)


class TestLinearizedVariance:
    def test_perfect_fit_constant_predictions(self):
        # intercept-only model on constant y: both components vanish
        N = 100.0
        y_b = np.full(10, 3.0)
        sample_b = make_sample_b(np.zeros(10), y_b)
        design_b = build_design_matrix(sample_b, (), intercept=True)
        model = fit_model(ModelFamily.LINEAR, sample_b, design_b)
        sample_a = make_sample_a(np.zeros(8), np.full(8, N / 8))
        design_a = build_design_matrix(sample_a, (), intercept=True)
        lin = linearized_variance(
            model, sample_a, sample_b, design_a, design_b, srs_design(N), N
        )
        assert lin.v_total == pytest.approx(0.0, abs=1e-12)
        assert lin.strategy_a is VarianceStrategyA.EXACT_JOINT

    def test_v_b_nonnegative_property(self, rng):
        x_b = rng.normal(2, 1, size=60)
        y_b = 1 + x_b + rng.normal(size=60)
        sample_b = make_sample_b(x_b, y_b)
        design_b = build_design_matrix(sample_b, ("x",), intercept=True)
        model = fit_model(ModelFamily.LINEAR, sample_b, design_b)
        sample_a = make_sample_a(rng.normal(2, 1, 30), np.full(30, 10.0))
        design_a = build_design_matrix(sample_a, ("x",), intercept=True)
        lin = linearized_variance(
            model, sample_a, sample_b, design_a, design_b, srs_design(300.0), 300.0
        )
        assert lin.v_b >= 0.0
        assert lin.v_total == lin.v_a + lin.v_b


@settings(deadline=None, max_examples=50)
@given(
    data=st.lists(
        st.floats(min_value=-100, max_value=100), min_size=3, max_size=25
    ),
    extra=st.integers(min_value=1, max_value=500),
)
def test_srs_identity_property(data, extra):
    """ExactJoint under SRS equals (1 - f) s^2 / n for arbitrary inputs."""
    m = np.asarray(data, float)
    n = len(m)
    N = n + extra
    design_a = DesignMatrix(m[:, None], ("m",), intercept_included=False)
    sample_a = SurveySample(
        columns={"m": m, "w": np.full(n, N / n)},
        covariate_names=("m",),
        kind=SampleKind.PROBABILITY_A,
        weight_name="w",
    )
    model = linear_model([1.0], names=("m",))
    v = variance_component_a(
        model, sample_a, design_a, srs_design(N), N
    )
    textbook = (1 - n / N) * np.var(m, ddof=1) / n
    assert v == pytest.approx(textbook, abs=1e-10 * max(1.0, abs(textbook)))
