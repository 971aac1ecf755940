"""Point estimators and the propensity comparator."""

import itertools

import numpy as np
import pytest

from massimpute import (
    ModelFamily,
    build_design_matrix,
    fit_model,
    fit_propensity,
    ht_mean,
    ipw_estimate,
    mass_imputation_estimate,
    naive_mean,
)
from massimpute.errors import DimensionMismatch, NoConvergence, OverflowGuardWarning
from massimpute.estimators import PropensityModel, propensity_values
from massimpute.mean_model import MAX_ITERATIONS

from conftest import make_sample_a, make_sample_b


class TestHtMean:
    def test_hand_computation(self):
        assert ht_mean(np.array([1.0, 3.0]), np.array([2.0, 2.0]), 4.0) == 2.0

    def test_equal_weights_reduce_to_sample_mean(self, rng):
        y = rng.normal(size=10)
        N, n = 50, 10
        assert ht_mean(y, np.full(n, N / n), N) == pytest.approx(np.mean(y))

    def test_srs_enumeration_unbiased(self):
        # all 15 samples of size 2 from a 6-unit population
        y = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        N, n = 6, 2
        estimates = [
            ht_mean(y[list(pair)], np.full(2, N / n), N)
            for pair in itertools.combinations(range(6), 2)
        ]
        assert np.mean(estimates) == pytest.approx(np.mean(y), abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            ht_mean(np.zeros(3), np.ones(2), 5.0)


class TestMassImputation:
    def _fitted(self, x, y, family=ModelFamily.LINEAR):
        sample_b = make_sample_b(x, y)
        design_b = build_design_matrix(sample_b, ("x",), intercept=True)
        return fit_model(family, sample_b, design_b), sample_b

    def test_census_with_exact_fit_recovers_population_mean(self):
        x = np.array([0.0, 1.0, 2.0, 3.0])
        y = 1.0 + 2.0 * x
        model, sample_b = self._fitted(x, y)
        sample_a = make_sample_a(x, np.ones(4))
        design_a = build_design_matrix(sample_a, ("x",), intercept=True)
        report = mass_imputation_estimate(
            model, sample_a, design_a, sample_b.n, population_size=4.0
        )
        assert report.theta_hat == pytest.approx(np.mean(y), abs=1e-12)

    def test_hand_computation(self):
        x_b = np.array([0.0, 1.0, 2.0])
        model, sample_b = self._fitted(x_b, x_b)  # fits y = x exactly
        sample_a = make_sample_a([1.0, 3.0], [2.0, 2.0])
        design_a = build_design_matrix(sample_a, ("x",), intercept=True)
        report = mass_imputation_estimate(
            model, sample_a, design_a, sample_b.n, population_size=4.0
        )
        assert report.theta_hat == pytest.approx(2.0, abs=1e-10)

    def test_estimated_population_size_used_when_absent(self):
        x_b = np.array([0.0, 1.0, 2.0])
        model, sample_b = self._fitted(x_b, 2.0 * x_b)
        sample_a = make_sample_a([1.0, 3.0], [3.0, 1.0])
        design_a = build_design_matrix(sample_a, ("x",), intercept=True)
        report = mass_imputation_estimate(model, sample_a, design_a, sample_b.n)
        assert report.population_size_used == 4.0
        assert report.theta_hat == pytest.approx((3 * 2 + 1 * 6) / 4)

    def test_logistic_estimate_in_unit_interval(self, rng):
        x = rng.normal(2, 1, size=200)
        y = (rng.uniform(size=200) < 0.5).astype(float)
        model, sample_b = self._fitted(x, y, ModelFamily.LOGISTIC)
        sample_a = make_sample_a(rng.normal(2, 1, size=100), np.full(100, 10.0))
        design_a = build_design_matrix(sample_a, ("x",), intercept=True)
        report = mass_imputation_estimate(model, sample_a, design_a, sample_b.n)
        assert 0.0 <= report.theta_hat <= 1.0

    def test_invariant_under_covariate_recoding(self, rng):
        x_b = rng.normal(2, 1, size=200)
        y_b = 1.0 + 0.5 * x_b + rng.normal(size=200)
        x_a = rng.normal(2, 1, size=100)
        w = np.full(100, 5.0)

        def theta(recode):
            sb = make_sample_b(recode(x_b), y_b)
            db = build_design_matrix(sb, ("x",), intercept=True)
            model = fit_model(ModelFamily.LINEAR, sb, db)
            sa = make_sample_a(recode(x_a), w)
            da = build_design_matrix(sa, ("x",), intercept=True)
            return mass_imputation_estimate(model, sa, da, sb.n).theta_hat

        assert theta(lambda v: v) == pytest.approx(
            theta(lambda v: -2.0 * v + 7.0), abs=1e-8
        )


def test_naive_mean():
    sample = make_sample_b([0.0, 0.0, 0.0], [1.0, 2.0, 3.0])
    assert naive_mean(sample).theta_hat == 2.0


class TestPropensity:
    def test_intercept_only_closed_form(self, rng):
        x_a = rng.normal(size=40)
        w = rng.uniform(1.0, 5.0, size=40)
        sample_a = make_sample_a(x_a, w)
        sample_b = make_sample_b(rng.normal(size=25), np.zeros(25))
        design_a = build_design_matrix(sample_a, (), intercept=True)
        design_b = build_design_matrix(sample_b, (), intercept=True)
        model = fit_propensity(sample_a, sample_b, design_a, design_b)
        pi = propensity_values(model, design_a)
        n_hat = np.sum(w)
        np.testing.assert_allclose(pi, 25 / n_hat, atol=1e-12)

    def test_score_norm_small_on_simulated_data(self, rng):
        x_a = rng.normal(2, 1, size=300)
        sample_a = make_sample_a(x_a, np.full(300, 20.0))
        x_b = rng.normal(1.6, 1, size=200)
        sample_b = make_sample_b(x_b, np.zeros(200))
        design_a = build_design_matrix(sample_a, ("x",), intercept=True)
        design_b = build_design_matrix(sample_b, ("x",), intercept=True)
        model = fit_propensity(sample_a, sample_b, design_a, design_b)
        assert model.score_norm <= 1e-8

    def test_newton_matches_grid_search(self, rng):
        # small 1-covariate instance: compare against a coarse-to-fine grid
        # minimizer of the score norm
        x_a = rng.normal(2, 1, size=60)
        sample_a = make_sample_a(x_a, np.full(60, 5.0))
        x_b = rng.normal(1.5, 1, size=40)
        sample_b = make_sample_b(x_b, np.zeros(40))
        design_a = build_design_matrix(sample_a, ("x",), intercept=True)
        design_b = build_design_matrix(sample_b, ("x",), intercept=True)
        model = fit_propensity(sample_a, sample_b, design_a, design_b)

        xa = design_a.values
        w = sample_a.weights
        target = design_b.values.sum(axis=0)

        def score_norm(phi):
            pi = 1.0 / (1.0 + np.exp(-(xa @ phi)))
            return np.max(np.abs(target - xa.T @ (w * pi)))

        spacing = 0.01
        g0 = np.arange(-1.0, 0.0001, spacing)
        g1 = np.arange(-1.5, -0.4999, spacing)
        best = min(
            (score_norm(np.array([a, b])), a, b) for a in g0 for b in g1
        )
        assert score_norm(model.phi_hat) <= best[0]
        np.testing.assert_allclose(
            model.phi_hat, [best[1], best[2]], atol=spacing
        )

    def test_unattainable_totals_stop_at_divergence_bound(self, rng):
        # B has more units than A's weights total, so no probability in
        # (0, 1) balances the score and the intercept runs off to infinity
        sample_a = make_sample_a(rng.normal(size=10), np.full(10, 2.0))
        sample_b = make_sample_b(rng.normal(size=30), np.zeros(30))
        design_a = build_design_matrix(sample_a, (), intercept=True)
        design_b = build_design_matrix(sample_b, (), intercept=True)
        with pytest.warns(OverflowGuardWarning), pytest.raises(NoConvergence) as exc:
            fit_propensity(sample_a, sample_b, design_a, design_b)
        assert exc.value.iterations < MAX_ITERATIONS

    def test_extreme_design_warns_and_saturates(self):
        sample_a = make_sample_a([0.0, 1.0, 2.0], [1.0, 1.0, 1.0])
        design = build_design_matrix(sample_a, (), intercept=True)
        model = PropensityModel(np.array([-800.0]), 0.0, 0, ("(intercept)",))
        with pytest.warns(OverflowGuardWarning):
            pi = propensity_values(model, design)
        np.testing.assert_array_equal(pi, 1.0 / (1.0 + np.exp(700.0)))

    def test_ipw_intercept_only_identity(self, rng):
        y_b = rng.normal(size=30)
        sample_b = make_sample_b(np.zeros(30), y_b)
        x_a = rng.normal(size=50)
        w = rng.uniform(1.0, 4.0, size=50)
        sample_a = make_sample_a(x_a, w)
        design_a = build_design_matrix(sample_a, (), intercept=True)
        design_b = build_design_matrix(sample_b, (), intercept=True)
        model = fit_propensity(sample_a, sample_b, design_a, design_b)
        N = 120.0
        report = ipw_estimate(model, sample_b, design_b, N)
        n_hat = np.sum(w)
        expected = np.sum(y_b) * n_hat / (30 * N)
        assert report.theta_hat == pytest.approx(expected, rel=1e-10)
