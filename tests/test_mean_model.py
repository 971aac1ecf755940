"""Mean families, gradients, quasi-score fitting, and prediction."""

import json

import numpy as np
import pytest

from massimpute import (
    DesignMatrix,
    ModelFamily,
    build_design_matrix,
    fit_model,
    predict_all,
)
from massimpute.errors import (
    DimensionMismatch,
    OverflowGuardWarning,
    RankDeficient,
    Separation,
)
from massimpute.bootstrap import _DRAW_CELLS
from massimpute.mean_model import FittedModel, mean_gradients, mean_values

from conftest import make_sample_b

FAMILIES = list(ModelFamily)


class TestMeanValue:
    def test_logistic_at_zero(self):
        assert mean_values(ModelFamily.LOGISTIC, [[1.0, 2.0]], [0.0, 0.0])[0] == 0.5

    def test_linear_dot_product(self):
        assert mean_values(ModelFamily.LINEAR, [[1.0, 2.0]], [1.0, 2.0])[0] == 5.0

    def test_loglinear_at_zero(self):
        assert mean_values(ModelFamily.LOGLINEAR, [[3.0]], [0.0])[0] == 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            mean_values(ModelFamily.LINEAR, [[1.0, 2.0]], [1.0])

    def test_overflow_guard_warns_and_saturates(self):
        with pytest.warns(OverflowGuardWarning):
            value = mean_values(ModelFamily.LOGLINEAR, [[1000.0]], [1.0])[0]
        assert np.isfinite(value)
        with pytest.warns(OverflowGuardWarning):
            value = mean_values(ModelFamily.LOGISTIC, [[-1000.0]], [1.0])[0]
        assert 0.0 <= value <= 1.0


    @pytest.mark.parametrize("p", [2, 4])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_coefficient_columns_do_not_depend_on_width(self, p, order):
        # the bootstrap predicts sample A a block of b replicates at a time
        rng = np.random.default_rng(p)
        n, L = 2000, 200
        b = _DRAW_CELLS // (n - 1)
        X = np.asarray(rng.normal(2, 1, size=(n, p)), order=order)
        X[:, 0] = 1.0
        betas = rng.normal(size=(L, p))
        whole = mean_values(ModelFamily.LINEAR, X, betas.T)
        for w in (1, 2, 3, b - 1, b, b + 1, 64, 65):
            for s in (0, 7, L - w):
                part = mean_values(ModelFamily.LINEAR, X, betas[s : s + w].T)
                assert np.array_equal(part, whole[:, s : s + w]), (w, s)

    @pytest.mark.parametrize("family", [ModelFamily.LINEAR, ModelFamily.LOGISTIC])
    @pytest.mark.parametrize("p", [2, 4, 5])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_base_predictions_are_a_replicate_column(self, family, p, order):
        # sample A's imputations and a replicate's whose coefficients equal
        # beta_hat take one product rule, whatever the layout or width
        rng = np.random.default_rng(10 + p)
        n = 2000
        X = np.asarray(rng.normal(2, 1, size=(n, p)), order=order)
        X[:, 0] = 1.0
        names = tuple(f"x{j}" for j in range(p))
        beta = rng.normal(0, 0.3, size=p)
        model = FittedModel(family, beta, names, True, 1, 0.0)
        base = predict_all(model, DesignMatrix(X, names, True))
        for k in (1, 2, 7, 64):
            # the refits' p x k layout, columns contiguous, and rows contiguous
            for B in (rng.normal(0, 0.3, size=(k, p)).T,
                      rng.normal(0, 0.3, size=(p, k))):
                for j in {0, k // 2, k - 1}:
                    B[:, j] = beta
                    found = mean_values(family, X, B)[:, j]
                    assert np.array_equal(found, base), (k, j, B.flags.c_contiguous)


class TestMeanGradient:
    def test_linear_is_the_design_itself(self, rng):
        X = rng.normal(size=(50, 3))
        assert mean_gradients(ModelFamily.LINEAR, X, np.ones(3)) is X

    def test_linear_is_identity(self):
        np.testing.assert_array_equal(
            mean_gradients(ModelFamily.LINEAR, [[1.0, 3.0]], [0.5, 0.5])[0],
            [1.0, 3.0],
        )

    def test_logistic_at_zero(self):
        np.testing.assert_allclose(
            mean_gradients(ModelFamily.LOGISTIC, [[1.0, 0.0]], [0.0, 0.0])[0],
            [0.25, 0.0],
        )

    @pytest.mark.parametrize("family", FAMILIES)
    def test_matches_finite_differences(self, family, rng):
        # central differences at 100 random (x, beta) draws
        eps = 1e-6
        for _ in range(100):
            p = rng.integers(1, 4)
            x = rng.normal(size=(1, p))
            beta = rng.normal(scale=0.5, size=p)
            grad = mean_gradients(family, x, beta)[0]
            for j in range(p):
                step = np.zeros(p)
                step[j] = eps
                fd = (
                    mean_values(family, x, beta + step)[0]
                    - mean_values(family, x, beta - step)[0]
                ) / (2 * eps)
                scale = max(1.0, abs(fd))
                assert abs(grad[j] - fd) / scale <= 1e-6


def _quasi_score(family, sample, dm, beta):
    """Mean estimating function over sample B, X'(y - m) / n."""
    y = sample.responses
    return dm.values.T @ (y - mean_values(family, dm.values, beta)) / len(y)


class TestQuasiScore:
    def test_zero_residuals(self):
        sample = make_sample_b([1.0, 2.0, 3.0], [2.0, 3.0, 4.0])
        dm = build_design_matrix(sample, ("x",), intercept=True)
        score = _quasi_score(ModelFamily.LINEAR, sample, dm, np.array([1.0, 1.0]))
        np.testing.assert_allclose(score, [0.0, 0.0], atol=1e-14)

    def test_hand_computation_single_row(self):
        import massimpute.data_model as dmod
        from massimpute import SampleKind, SurveySample

        sample = SurveySample(
            columns={"x1": np.array([1.0]), "x2": np.array([2.0]),
                     "y": np.array([3.0])},
            covariate_names=(),
            kind=SampleKind.NON_PROBABILITY_B,
            response_name="y",
        )
        dm = dmod.DesignMatrix(
            values=np.array([[1.0, 2.0]]),
            column_names=("x1", "x2"),
            intercept_included=False,
        )
        score = _quasi_score(ModelFamily.LINEAR, sample, dm, np.zeros(2))
        np.testing.assert_allclose(score, [3.0, 6.0])

    def test_score_small_at_solution(self, rng):
        x = rng.normal(2, 1, size=300)
        eta = -1.0 + 0.8 * x
        y = (rng.uniform(size=300) < 1 / (1 + np.exp(-eta))).astype(float)
        sample = make_sample_b(x, y)
        dm = build_design_matrix(sample, ("x",), intercept=True)
        model = fit_model(ModelFamily.LOGISTIC, sample, dm)
        score = _quasi_score(ModelFamily.LOGISTIC, sample, dm, model.beta_hat)
        assert np.max(np.abs(score)) <= 1e-10


class TestFitModel:
    def test_linear_noiseless(self):
        x = np.array([0.0, 1.0, 2.0, 3.0])
        sample = make_sample_b(x, 1.0 + 2.0 * x)
        dm = build_design_matrix(sample, ("x",), intercept=True)
        model = fit_model(ModelFamily.LINEAR, sample, dm)
        np.testing.assert_allclose(model.beta_hat, [1.0, 2.0], atol=1e-10)

    def test_linear_matches_normal_equations(self, rng):
        x = rng.normal(2, 1, size=400)
        y = 1.0 + 2.0 * x + rng.normal(size=400)
        sample = make_sample_b(x, y)
        dm = build_design_matrix(sample, ("x",), intercept=True)
        model = fit_model(ModelFamily.LINEAR, sample, dm)
        X = dm.values
        oracle = np.linalg.lstsq(X, y, rcond=None)[0]
        np.testing.assert_allclose(model.beta_hat, oracle, atol=1e-8)

    def test_column_constant_to_rounding_is_rank_deficient(self, rng):
        # a spread of about 1,500 ulps of the mean: the column's variation is
        # rounding, and a fit would give y a slope of order 1e10
        x = 3.0 + rng.normal(0.0, 1e-12, size=500)
        sample = make_sample_b(x, rng.normal(size=500))
        dm = build_design_matrix(sample, ("x",), intercept=True)
        with pytest.raises(RankDeficient):
            fit_model(ModelFamily.LINEAR, sample, dm)

    def test_column_far_from_origin_fits(self, rng):
        # a spread of about 2e8 ulps of the mean: a valid regressor
        x = rng.normal(1e6, 0.05, size=500)
        y = 1.0 + 2.0 * (x - 1e6) + rng.normal(size=500)
        sample = make_sample_b(x, y)
        dm = build_design_matrix(sample, ("x",), intercept=True)
        beta = fit_model(ModelFamily.LINEAR, sample, dm).beta_hat
        centred = np.column_stack([np.ones(500), x - x.mean()])
        slope = np.linalg.lstsq(centred, y, rcond=None)[0][1]
        assert beta[1] == pytest.approx(slope, rel=1e-6)

    def test_logistic_separation(self):
        x = np.array([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0])
        y = (x > 0).astype(float)
        sample = make_sample_b(x, y)
        dm = build_design_matrix(sample, ("x",), intercept=True)
        with pytest.raises(Separation):
            fit_model(ModelFamily.LOGISTIC, sample, dm)

    def test_deterministic(self, rng):
        x = rng.normal(2, 1, size=200)
        y = (rng.uniform(size=200) < 0.4).astype(float)
        sample = make_sample_b(x, y)
        dm = build_design_matrix(sample, ("x",), intercept=True)
        b1 = fit_model(ModelFamily.LOGISTIC, sample, dm).beta_hat
        b2 = fit_model(ModelFamily.LOGISTIC, sample, dm).beta_hat
        assert np.array_equal(b1, b2)

    def test_residuals_orthogonal_to_design(self, rng):
        x = rng.normal(size=100)
        y = 2.0 - x + rng.normal(size=100)
        sample = make_sample_b(x, y)
        dm = build_design_matrix(sample, ("x",), intercept=True)
        model = fit_model(ModelFamily.LINEAR, sample, dm)
        resid = y - dm.values @ model.beta_hat
        # estimating equation itself: sum e_i x_i = 0, and sum e_i = 0 with
        # an intercept present
        assert abs(np.sum(resid)) < 1e-8
        assert abs(np.sum(resid * x)) < 1e-8


class TestPredictAll:
    def test_identity_model(self):
        model = FittedModel(
            family=ModelFamily.LINEAR,
            beta_hat=np.array([0.0, 1.0]),
            covariate_names=("(intercept)", "x"),
            intercept_included=True,
            iterations=1,
            final_score_norm=0.0,
        )
        sample_a = make_sample_b([1.0, 3.0], [0.0, 0.0])
        dm = build_design_matrix(sample_a, ("x",), intercept=True)
        np.testing.assert_allclose(predict_all(model, dm), [1.0, 3.0])

    def test_intercept_only_logistic_is_sample_mean(self, rng):
        y = (rng.uniform(size=50) < 0.3).astype(float)
        sample = make_sample_b(np.zeros(50), y)
        dm = build_design_matrix(sample, (), intercept=True)
        model = fit_model(ModelFamily.LOGISTIC, sample, dm)
        preds = predict_all(model, dm)
        np.testing.assert_allclose(preds, np.mean(y), atol=1e-10)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_invariant_under_linear_recoding(self, family, rng):
        x = rng.normal(2, 1, size=300)
        if family is ModelFamily.LOGISTIC:
            y = (rng.uniform(size=300) < 0.5).astype(float)
        else:
            y = np.abs(1.0 + 0.3 * x + rng.normal(size=300)) + 0.1
        sample = make_sample_b(x, y)
        dm = build_design_matrix(sample, ("x",), intercept=True)
        model = fit_model(family, sample, dm)
        base = predict_all(model, dm)

        # invertible recoding x -> 3x - 1
        sample2 = make_sample_b(3.0 * x - 1.0, y)
        dm2 = build_design_matrix(sample2, ("x",), intercept=True)
        model2 = fit_model(family, sample2, dm2)
        recoded = predict_all(model2, dm2)
        np.testing.assert_allclose(recoded, base, atol=1e-8)


def test_serialization_round_trip(rng):
    x = rng.normal(size=50)
    sample = make_sample_b(x, 0.5 * x + rng.normal(size=50))
    dm = build_design_matrix(sample, ("x",), intercept=True)
    model = fit_model(ModelFamily.LINEAR, sample, dm)
    again = FittedModel.from_dict(json.loads(json.dumps(model.to_dict())))
    assert again.family == model.family
    np.testing.assert_array_equal(again.beta_hat, model.beta_hat)
    assert again.covariate_names == model.covariate_names
    # model files written before h_choice was dropped still load
    legacy = FittedModel.from_dict(dict(model.to_dict(), h_choice="canonical"))
    np.testing.assert_array_equal(legacy.beta_hat, model.beta_hat)
