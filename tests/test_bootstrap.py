"""Replicate weights, refits, pairing, variance, and the release file."""

import json

import numpy as np
import pytest

from massimpute import (
    ModelFamily,
    bootstrap_refit,
    bootstrap_variance,
    build_design_matrix,
    build_replicates,
    fit_model,
    read_augmented_dataset,
    replicate_estimates,
    replicate_weights,
    srs_design,
    write_augmented_dataset,
)
from massimpute.bootstrap import _REFIT_RETRY_CAP, _stream, estimate_from_augmented
from massimpute.errors import (
    ColumnMismatch,
    NumericalError,
    UnsupportedDesign,
    ValidationError,
)
from massimpute.mean_model import damped_newton, mean_values

from conftest import make_sample_a, make_sample_b


class TestReplicateWeights:
    def test_single_unit_rejected(self):
        from massimpute import SampleKind, SurveySample

        sample = SurveySample(
            columns={"w": np.array([2.0])},
            covariate_names=(),
            kind=SampleKind.PROBABILITY_A,
            weight_name="w",
        )
        with pytest.raises(UnsupportedDesign):
            replicate_weights(sample, srs_design(10.0), 5, seed=1)

    def test_mean_recovers_base_weights(self, rng):
        n = 12
        w = rng.uniform(1.0, 5.0, size=n)
        sample = make_sample_a(rng.normal(size=n), w)
        L = 5000
        cols = replicate_weights(sample, srs_design(100.0), L, seed=7)
        # E[w_k] = w; MC standard error of the mean over k
        mc_mean = cols.mean(axis=1)
        mc_se = cols.std(axis=1, ddof=1) / np.sqrt(L)
        assert np.all(np.abs(mc_mean - w) <= 3 * mc_se)

    def test_bootstrap_variance_of_mean_matches_classical(self, rng):
        # equal-weight SRS with negligible sampling fraction: replicate HT
        # means of a fixed y bootstrap the classical s^2 / n
        n, N = 80, 100_000
        y = rng.normal(size=n)
        sample = make_sample_a(y, np.full(n, N / n))
        L = 5000
        cols = replicate_weights(sample, srs_design(float(N)), L, seed=3)
        thetas = (cols * y[:, None]).sum(axis=0) / N
        theta = np.mean(y)
        v_boot = bootstrap_variance(theta, thetas)
        classical = np.var(y, ddof=1) / n
        assert v_boot == pytest.approx(classical, rel=0.10)

    def test_deterministic_and_order_independent(self, rng):
        sample = make_sample_a(rng.normal(size=10), rng.uniform(1, 3, 10))
        a = replicate_weights(sample, srs_design(50.0), 8, seed=5)
        b = replicate_weights(sample, srs_design(50.0), 8, seed=5)
        assert np.array_equal(a, b)
        # growing L leaves earlier columns unchanged (per-replicate streams)
        c = replicate_weights(sample, srs_design(50.0), 12, seed=5)
        assert np.array_equal(c[:, :8], a)

    def test_equals_per_column_formula(self, rng):
        n, L, seed = 30, 50, 4
        w = rng.uniform(1.0, 5.0, size=n)
        cols = replicate_weights(make_sample_a(rng.normal(size=n), w),
                                 srs_design(500.0), L, seed)
        for k in range(L):
            draws = _stream(seed, k, 0).integers(0, n, size=n - 1)
            expected = w * (n / (n - 1)) * np.bincount(draws, minlength=n)
            assert np.array_equal(cols[:, k], expected)


def _linear_b(x, y):
    sample = make_sample_b(x, y)
    return sample, build_design_matrix(sample, ("x",), intercept=True)


def _refit_loop(X, y, L, seed):
    """Reference: one least-squares fit per replicate on the gathered rows,
    rank-checked with an SVD, redrawn on the next substream when it fails."""
    n, p = X.shape
    betas = np.empty((L, p))
    retries = 0
    for k in range(L):
        for attempt in range(_REFIT_RETRY_CAP + 1):
            idx = _stream(seed, k, 1, attempt).integers(0, n, size=n)
            Xk = X[idx]
            if np.linalg.matrix_rank(Xk) == p:
                try:
                    betas[k] = np.linalg.solve(Xk.T @ Xk, Xk.T @ y[idx])
                    break
                except np.linalg.LinAlgError:
                    pass
            retries += 1
        else:
            raise NumericalError(f"replicate {k} failed")
    return betas, retries


class TestLinearRefitOracle:
    """The batched linear refit against the per-replicate loop."""

    def test_continuous_covariate(self, rng):
        x = rng.normal(2, 1, size=500)
        sample, dm = _linear_b(x, 1 + 2 * x + rng.normal(size=500))
        betas, retries = bootstrap_refit(sample, ModelFamily.LINEAR, dm, L=300, seed=3)
        expected, expected_retries = _refit_loop(dm.values, sample.responses, 300, 3)
        assert retries == expected_retries == 0
        np.testing.assert_allclose(betas, expected, rtol=1e-12)

    @pytest.mark.parametrize(
        "x, redraws",
        [([1.0, 0.0, 0.0, 0.0], 141), ([0.0, 0.0, 0.0, 1.0, 1.0], 36)],
    )
    def test_two_valued_covariate_redraws(self, x, redraws):
        # a resample that misses one of the two values is rank deficient
        x = np.array(x)
        sample, dm = _linear_b(x, np.arange(len(x)) ** 2.0)
        betas, retries = bootstrap_refit(sample, ModelFamily.LINEAR, dm, L=300, seed=11)
        expected, expected_retries = _refit_loop(dm.values, sample.responses, 300, 11)
        assert retries == expected_retries == redraws
        np.testing.assert_allclose(betas, expected, rtol=1e-12, atol=1e-12)

    def test_covariate_far_from_origin(self, rng):
        # the Gram eigenvalue ratio is about 1e-14, yet every resample has
        # full rank: the screen must defer to the exact rank test
        x = rng.normal(1e6, 1e5, size=200)
        sample, dm = _linear_b(x, 1 + 2 * x + rng.normal(size=200))
        betas, retries = bootstrap_refit(sample, ModelFamily.LINEAR, dm, L=300, seed=5)
        expected, expected_retries = _refit_loop(dm.values, sample.responses, 300, 5)
        assert retries == expected_retries == 0
        np.testing.assert_allclose(betas[:, 1], expected[:, 1], rtol=1e-9)
        # the intercept is determined only to about 1e-7 here by any
        # normal-equation solve; the fitted means it yields agree closely
        np.testing.assert_allclose(dm.values @ betas.T, dm.values @ expected.T,
                                   rtol=1e-9)

    # 3.0 gives an exactly singular Gram matrix; with 0.1 it solves, and
    # only the rank test rejects it
    @pytest.mark.parametrize("value", [3.0, 0.1])
    def test_constant_covariate_aborts_at_first_replicate(self, value):
        sample, dm = _linear_b(np.full(10, value), np.arange(10.0))
        with pytest.raises(NumericalError, match="replicate 0 "):
            bootstrap_refit(sample, ModelFamily.LINEAR, dm, L=5, seed=1)

    def test_singular_batch_falls_back_per_replicate(self, rng, monkeypatch):
        x = rng.normal(2, 1, size=50)
        sample, dm = _linear_b(x, 1 + 2 * x + rng.normal(size=50))
        expected = bootstrap_refit(sample, ModelFamily.LINEAR, dm, L=20, seed=8)
        solve = np.linalg.solve

        def batch_fails(a, b):
            if np.ndim(a) == 3:
                raise np.linalg.LinAlgError("Singular matrix")
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", batch_fails)
        betas, retries = bootstrap_refit(sample, ModelFamily.LINEAR, dm, L=20, seed=8)
        assert retries == expected[1]
        assert np.array_equal(betas, expected[0])


def _quasi_score_loop(family, X, y, L, seed):
    """Reference: one Newton fit from zeros per replicate on all n gathered
    rows, unweighted, with the separation check; a replicate that fails is
    redrawn on the next substream."""
    n, p = X.shape
    betas = np.empty((L, p))
    retries = 0
    for k in range(L):
        for attempt in range(_REFIT_RETRY_CAP + 1):
            idx = _stream(seed, k, 1, attempt).integers(0, n, size=n)
            Xk, yk = X[idx], y[idx]

            def score(beta):
                return Xk.T @ (yk - mean_values(family, Xk, beta)) / n

            def jacobian(beta):
                m = mean_values(family, Xk, beta)
                w = m * (1.0 - m) if family is ModelFamily.LOGISTIC else m
                return -(Xk.T * w) @ Xk / n

            try:
                beta, _, _ = damped_newton(score, jacobian, np.zeros(p), 1e-10)
            except NumericalError:
                retries += 1
                continue
            m = mean_values(family, Xk, beta)
            if family is ModelFamily.LOGISTIC and np.all(np.minimum(m, 1 - m) < 1e-8):
                retries += 1
                continue
            betas[k] = beta
            break
        else:
            raise NumericalError(f"replicate {k} failed")
    return betas, retries


def _near_separated(n):
    # y = 1{x > 0} with the two middle labels swapped: a resample that
    # misses either of those two rows is separated
    x = np.linspace(-1.0, 1.0, n)
    y = (x > 0).astype(float)
    y[n // 2 - 1], y[n // 2] = y[n // 2], y[n // 2 - 1]
    sample = make_sample_b(x, y)
    return sample, build_design_matrix(sample, ("x",), intercept=True)


class TestQuasiScoreRefitOracle:
    """Count-weighted refits on distinct rows against the gathered loop."""

    @pytest.mark.parametrize("family", [ModelFamily.LOGISTIC, ModelFamily.LOGLINEAR])
    def test_continuous_covariate(self, family, rng):
        x = rng.normal(0.5, 1.0, size=300)
        if family is ModelFamily.LOGISTIC:
            y = (rng.random(300) < 1 / (1 + np.exp(0.5 - 1.2 * x))).astype(float)
        else:
            y = rng.poisson(np.exp(0.3 + 0.6 * x)).astype(float)
        sample = make_sample_b(x, y)
        dm = build_design_matrix(sample, ("x",), intercept=True)
        betas, retries = bootstrap_refit(sample, family, dm, L=100, seed=3)
        expected, expected_retries = _quasi_score_loop(family, dm.values, y, 100, 3)
        assert retries == expected_retries == 0
        np.testing.assert_allclose(betas, expected, rtol=1e-9)

    @pytest.mark.filterwarnings("ignore::massimpute.errors.OverflowGuardWarning")
    @pytest.mark.parametrize("n, redraws", [(20, 253), (40, 69)])
    def test_near_separated_redraws(self, n, redraws):
        sample, dm = _near_separated(n)
        betas, retries = bootstrap_refit(sample, ModelFamily.LOGISTIC, dm, L=300,
                                         seed=11)
        expected, expected_retries = _quasi_score_loop(
            ModelFamily.LOGISTIC, dm.values, sample.responses, 300, 11)
        assert retries == expected_retries == redraws
        np.testing.assert_allclose(betas, expected, rtol=1e-9)

    @pytest.mark.filterwarnings("ignore::massimpute.errors.OverflowGuardWarning")
    def test_near_separated_aborts(self):
        sample, dm = _near_separated(12)
        with pytest.raises(NumericalError, match="replicate 133 "):
            bootstrap_refit(sample, ModelFamily.LOGISTIC, dm, L=300, seed=11)
        with pytest.raises(NumericalError, match="replicate 133 "):
            _quasi_score_loop(ModelFamily.LOGISTIC, dm.values, sample.responses,
                              300, 11)

    def test_prefix_stability(self, rng):
        x = rng.normal(size=400)
        y = (rng.random(400) < 1 / (1 + np.exp(-x))).astype(float)
        sample = make_sample_b(x, y)
        dm = build_design_matrix(sample, ("x",), intercept=True)
        betas_8, _ = bootstrap_refit(sample, ModelFamily.LOGISTIC, dm, L=8, seed=5)
        betas_40, _ = bootstrap_refit(sample, ModelFamily.LOGISTIC, dm, L=40, seed=5)
        assert np.array_equal(betas_40[:8], betas_8)


class TestPrefixStability:
    """Earlier replicate columns do not change when L grows."""

    def test_refit_and_replicate_columns(self, rng):
        x_b = rng.normal(2, 1, size=5000)
        sample_b, design_b = _linear_b(x_b, 1 + 2 * x_b + rng.normal(size=5000))
        model = fit_model(ModelFamily.LINEAR, sample_b, design_b)
        x_a = rng.normal(2, 1, size=2000)
        sample_a = make_sample_a(x_a, np.full(2000, 25.0))
        design_a = build_design_matrix(sample_a, ("x",), intercept=True)
        short, long = (
            build_replicates(model, sample_a, sample_b, design_a, design_b,
                             srs_design(50_000.0), L=L, seed=7)
            for L in (8, 100)
        )
        assert np.array_equal(long.replicate_imputations[:, :8],
                              short.replicate_imputations)
        assert np.array_equal(long.replicate_weights[:, :8], short.replicate_weights)
        betas_8, _ = bootstrap_refit(sample_b, ModelFamily.LINEAR, design_b, L=8, seed=7)
        betas_100, _ = bootstrap_refit(sample_b, ModelFamily.LINEAR, design_b, L=100,
                                       seed=7)
        assert np.array_equal(betas_100[:8], betas_8)

    def test_with_redraws(self):
        x = np.array([1.0, 0.0, 0.0, 0.0])
        sample, dm = _linear_b(x, np.array([3.0, 1.0, 4.0, 1.5]))
        betas_8, retries_8 = bootstrap_refit(sample, ModelFamily.LINEAR, dm, L=8, seed=7)
        betas_100, retries_100 = bootstrap_refit(sample, ModelFamily.LINEAR, dm, L=100,
                                                 seed=7)
        assert 0 < retries_8 < retries_100
        assert np.array_equal(betas_100[:8], betas_8)


class TestBootstrapRefit:
    def test_degenerate_sample_gives_constant_coefficients(self):
        sample = make_sample_b(np.zeros(6), np.full(6, 4.0))
        dm = build_design_matrix(sample, (), intercept=True)
        betas, retries = bootstrap_refit(
            sample, ModelFamily.LINEAR, dm, L=20, seed=1
        )
        assert retries == 0
        np.testing.assert_allclose(betas, 4.0, atol=1e-12)

    def test_bit_exact_determinism(self, rng):
        x = rng.normal(2, 1, size=100)
        sample = make_sample_b(x, 1 + 2 * x + rng.normal(size=100))
        dm = build_design_matrix(sample, ("x",), intercept=True)
        a, _ = bootstrap_refit(sample, ModelFamily.LINEAR, dm, L=10, seed=42)
        b, _ = bootstrap_refit(sample, ModelFamily.LINEAR, dm, L=10, seed=42)
        assert np.array_equal(a, b)

    def test_covariance_matches_sandwich(self, rng):
        # empirical covariance of replicate coefficients against the
        # plug-in J^{-1} Omega J^{-1}' for the linear family
        n = 500
        x = rng.normal(2, 1, size=n)
        y = 1 + 2 * x + rng.normal(size=n)
        sample = make_sample_b(x, y)
        dm = build_design_matrix(sample, ("x",), intercept=True)
        model = fit_model(ModelFamily.LINEAR, sample, dm)
        X = dm.values
        resid = y - X @ model.beta_hat
        J = X.T @ X / n
        omega = (X.T * resid**2) @ X / n**2
        sandwich = np.linalg.solve(J, np.linalg.solve(J, omega).T)

        betas, _ = bootstrap_refit(sample, ModelFamily.LINEAR, dm, L=5000, seed=9)
        emp = np.cov(betas.T)
        rel = np.linalg.norm(emp - sandwich) / np.linalg.norm(sandwich)
        assert rel <= 0.15


class TestBootstrapVariance:
    def test_no_variability(self):
        assert bootstrap_variance(2.0, np.full(5, 2.0)) == 0.0

    def test_hand_computation(self):
        # deviations about the point estimate, not the replicate mean
        assert bootstrap_variance(2.0, np.array([1.0, 2.0, 3.0])) == pytest.approx(
            2.0 / 3.0
        )

    def test_nonnegative(self, rng):
        for _ in range(20):
            theta = rng.normal()
            reps = rng.normal(size=rng.integers(1, 30))
            assert bootstrap_variance(theta, reps) >= 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            bootstrap_variance(1.0, np.array([]))


def _small_setup(rng, n_a=15, n_b=40):
    x_b = rng.normal(2, 1, size=n_b)
    sample_b = make_sample_b(x_b, 1 + 2 * x_b + rng.normal(size=n_b))
    design_b = build_design_matrix(sample_b, ("x",), intercept=True)
    model = fit_model(ModelFamily.LINEAR, sample_b, design_b)
    x_a = rng.normal(2, 1, size=n_a)
    sample_a = make_sample_a(x_a, np.full(n_a, 10.0))
    design_a = build_design_matrix(sample_a, ("x",), intercept=True)
    return model, sample_a, sample_b, design_a, design_b


class TestBuildReplicates:
    def test_zero_replicates_rejected(self, rng):
        model, sample_a, sample_b, design_a, design_b = _small_setup(rng)
        with pytest.raises(ValidationError):
            build_replicates(
                model, sample_a, sample_b, design_a, design_b,
                srs_design(150.0), L=0, seed=1,
            )

    def test_design_columns_must_match_model(self, rng):
        model, sample_a, sample_b, _, design_b = _small_setup(rng)
        design_a = build_design_matrix(sample_a, ("w",), intercept=True)
        with pytest.raises(ColumnMismatch):
            build_replicates(
                model, sample_a, sample_b, design_a, design_b,
                srs_design(150.0), L=2, seed=1,
            )

    def test_degenerate_b_collapses_to_weight_variability(self, rng):
        # identical B rows: every refit returns the same coefficients, so
        # only the replicate weights move the replicate estimates
        sample_b = make_sample_b(np.zeros(10), np.full(10, 3.0))
        design_b = build_design_matrix(sample_b, (), intercept=True)
        model = fit_model(ModelFamily.LINEAR, sample_b, design_b)
        x_a = rng.normal(size=8)
        sample_a = make_sample_a(x_a, np.full(8, 5.0))
        design_a = build_design_matrix(sample_a, (), intercept=True)
        reps = build_replicates(
            model, sample_a, sample_b, design_a, design_b,
            srs_design(40.0), L=30, seed=2,
        )
        assert np.all(reps.replicate_imputations == 3.0)
        thetas = replicate_estimates(reps, 40.0)
        expected = reps.replicate_weights.sum(axis=0) * 3.0 / 40.0
        np.testing.assert_allclose(thetas, expected, atol=1e-12)

    def test_pairing_of_columns(self, rng):
        model, sample_a, sample_b, design_a, design_b = _small_setup(rng)
        reps = build_replicates(
            model, sample_a, sample_b, design_a, design_b,
            srs_design(150.0), L=6, seed=11,
        )
        betas, _ = bootstrap_refit(
            sample_b, ModelFamily.LINEAR, design_b, L=6, seed=11
        )
        for k in range(6):
            expected = design_a.values @ betas[k]
            np.testing.assert_allclose(
                reps.replicate_imputations[:, k], expected, atol=1e-12
            )


class TestAugmentedFile:
    def test_shape(self, tmp_path, rng):
        model, sample_a, sample_b, design_a, design_b = _small_setup(rng, n_a=3)
        reps = build_replicates(
            model, sample_a, sample_b, design_a, design_b,
            srs_design(30.0), L=2, seed=4,
        )
        path = tmp_path / "aug.csv"
        write_augmented_dataset(sample_a, reps, model, path, population_size=30.0)
        with open(path) as fh:
            header = fh.readline().strip().split(",")
            rows = fh.readlines()
        # original x, w plus yhat plus 2 pairs
        assert header == [
            "x", "w", "yhat", "w_rep_1", "yhat_rep_1", "w_rep_2", "yhat_rep_2"
        ]
        assert len(rows) == 3

    def test_round_trip_estimates(self, tmp_path, rng):
        model, sample_a, sample_b, design_a, design_b = _small_setup(rng)
        N = 150.0
        reps = build_replicates(
            model, sample_a, sample_b, design_a, design_b,
            srs_design(N), L=25, seed=6,
        )
        theta = float(
            np.sum(sample_a.weights * reps.base_imputations) / N
        )
        v_mem = bootstrap_variance(theta, replicate_estimates(reps, N))

        path = tmp_path / "aug.csv"
        write_augmented_dataset(sample_a, reps, model, path, population_size=N)
        dataset = read_augmented_dataset(path)
        theta_file, v_file = estimate_from_augmented(dataset)
        assert theta_file == pytest.approx(theta, abs=1e-12)
        assert v_file == pytest.approx(v_mem, abs=1e-12)

    def test_byte_identical_regeneration(self, tmp_path, rng):
        model, sample_a, sample_b, design_a, design_b = _small_setup(rng)
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        for path in (first, second):
            reps = build_replicates(
                model, sample_a, sample_b, design_a, design_b,
                srs_design(150.0), L=10, seed=99,
            )
            write_augmented_dataset(
                sample_a, reps, model, path, population_size=150.0
            )
        assert first.read_bytes() == second.read_bytes()
        with open(str(first) + ".manifest.json") as fh:
            manifest = json.load(fh)
        assert manifest["seed"] == 99
        assert manifest["L"] == 10
