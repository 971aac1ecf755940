"""End-to-end acceptance checks.

Criteria 1-4 run the full Monte Carlo study (1000 reps per configuration,
fixed seed) and pin the point estimators and both variance estimators to
frozen reference ranges.  Criteria 5-9 are exact or structural:
exhaustive design-based oracles, analytic identities, a sandwich check on the
bootstrap coefficient distribution, the release-file contract, and determinism
under threading.  Each criterion is one test, so `pytest -v` prints one
pass/fail line per criterion.
"""

import itertools

import numpy as np
import pytest

from massimpute import (
    DesignMatrix,
    ModelFamily,
    SampleKind,
    SimConfig,
    SurveySample,
    bootstrap_refit,
    build_design_matrix,
    build_replicates,
    fit_model,
    ht_mean,
    read_augmented_dataset,
    replicate_estimates,
    run_monte_carlo,
    srs_design,
    variance_component_a,
    write_augmented_dataset,
)
from massimpute.bootstrap import bootstrap_variance
from massimpute.mean_model import FittedModel, mean_gradients, mean_values

from conftest import make_sample_a, make_sample_b

SEED = 1
REPS = 1000
BOOT_L = 500

_cache: dict = {}


def mc(model_id: str, n_b: int):
    """Monte Carlo report for one configuration, computed once per session."""
    key = (model_id, n_b)
    if key not in _cache:
        _cache[key] = run_monte_carlo(
            SimConfig(
                model_id=model_id,
                population_size=100_000,
                n_a=500,
                n_b=n_b,
                reps=REPS,
                bootstrap_L=BOOT_L,
                master_seed=SEED,
            )
        )
    return _cache[key]


def _report(label: str):
    print(f"acceptance criterion {label}: PASS")


def test_criterion_1_strong_linear_model_reproduced():
    report = mc("I", 500)
    est = report.estimators
    assert report.failed_reps == 0
    assert abs(est["theta_i"]["bias"]) <= 0.010
    assert 0.008 <= est["theta_i"]["mc_variance"] <= 0.012
    assert 90 <= est["theta_i"]["remse"] <= 125
    assert -0.66 <= est["theta_b"]["bias"] <= -0.62
    assert est["theta_ipw"]["mc_variance"] > est["theta_i"]["mc_variance"]
    assert report.wall_clock_seconds <= 300
    _report("1 (strong linear model, n_b=500)")


def test_criterion_2_weak_linear_model_reproduced():
    est_500 = mc("II", 500).estimators
    assert -0.34 <= est_500["theta_b"]["bias"] <= -0.30
    est_1000 = mc("II", 1000).estimators
    # a large training sample beats the gold-standard survey mean
    assert est_1000["theta_i"]["remse"] < 100
    assert 50 <= est_1000["theta_i"]["remse"] <= 85
    _report("2 (weak linear model)")


def test_criterion_3_misspecified_model_reproduced():
    est = mc("III", 500).estimators
    assert -0.08 <= est["theta_i"]["bias"] <= -0.04
    assert est["theta_i"]["mse"] < est["theta_ipw"]["mse"]
    _report("3 (quadratic model under a linear fit)")


def test_criterion_4_variance_estimators_track_mc_variance():
    lin_500 = mc("I", 500).variance_methods["linearization"]
    assert 0.0092 <= lin_500["mean"] <= 0.0112
    for model_id in ("I", "II"):
        for n_b in (500, 1000):
            methods = mc(model_id, n_b).variance_methods
            assert abs(methods["linearization"]["relative_bias"]) <= 0.10
            assert abs(methods["bootstrap"]["relative_bias"]) <= 0.10
    for n_b in (500, 1000):
        methods = mc("III", n_b).variance_methods
        for method in ("linearization", "bootstrap"):
            assert -0.12 <= methods[method]["relative_bias"] <= 0.08
    _report("4 (variance estimators, all configurations)")


def test_criterion_5_exhaustive_design_oracles():
    # 6-unit population, every SRS of size 2: the weighted mean averages to
    # the population mean and the variance estimator averages to the true
    # design variance
    y_pop = np.array([1.0, 2.5, 3.0, 4.5, 5.0, 7.0])
    N, n = 6, 2
    truth_mean = float(np.mean(y_pop))
    truth_var = (1 - n / N) * np.var(y_pop, ddof=1) / n

    means, variances = [], []
    model = FittedModel(
        family=ModelFamily.LINEAR,
        beta_hat=np.array([1.0]),
        covariate_names=("m",),
        intercept_included=False,
        iterations=1,
        final_score_norm=0.0,
    )
    for pair in itertools.combinations(range(N), n):
        y = y_pop[list(pair)]
        w = np.full(n, N / n)
        means.append(ht_mean(y, w, N))
        design = DesignMatrix(y[:, None], ("m",), intercept_included=False)
        sample = SurveySample(
            columns={"m": y, "w": w},
            covariate_names=("m",),
            kind=SampleKind.PROBABILITY_A,
            weight_name="w",
        )
        variances.append(
            variance_component_a(
                model, sample, design, srs_design(N), N,
            )
        )
    assert np.mean(means) == pytest.approx(truth_mean, abs=1e-12)
    assert np.mean(variances) == pytest.approx(truth_var, abs=1e-10)
    _report("5 (exhaustive enumeration oracles)")


def test_criterion_6_analytic_identities(rng):
    # (a) joint-probability variance form collapses to (1 - f) s^2 / n
    model = FittedModel(
        family=ModelFamily.LINEAR,
        beta_hat=np.array([1.0]),
        covariate_names=("m",),
        intercept_included=False,
        iterations=1,
        final_score_norm=0.0,
    )
    for _ in range(100):
        n = int(rng.integers(3, 40))
        N = n + int(rng.integers(1, 200))
        m = rng.normal(size=n) * rng.uniform(0.1, 5)
        design = DesignMatrix(m[:, None], ("m",), intercept_included=False)
        sample = SurveySample(
            columns={"m": m, "w": np.full(n, N / n)},
            covariate_names=("m",),
            kind=SampleKind.PROBABILITY_A,
            weight_name="w",
        )
        v = variance_component_a(
            model, sample, design, srs_design(N), N,
        )
        textbook = (1 - n / N) * np.var(m, ddof=1) / n
        assert v == pytest.approx(textbook, abs=1e-10 * max(1.0, textbook))

    # (b) analytic mean gradients match central finite differences
    for family in ModelFamily:
        X = rng.normal(size=(20, 3))
        beta = rng.normal(scale=0.5, size=3)
        grad = mean_gradients(family, X, beta)
        h = 1e-6
        for j in range(3):
            step = np.zeros(3)
            step[j] = h
            fd = (
                mean_values(family, X, beta + step)
                - mean_values(family, X, beta - step)
            ) / (2 * h)
            scale = np.maximum(np.abs(grad[:, j]), 1.0)
            assert np.max(np.abs(grad[:, j] - fd) / scale) <= 1e-6

    # (c) the linear fit agrees with a least-squares oracle
    x = rng.normal(2, 1, size=200)
    y = 1 + 2 * x + rng.normal(size=200)
    sample_b = make_sample_b(x, y)
    design_b = build_design_matrix(sample_b, ("x",), intercept=True)
    fitted = fit_model(ModelFamily.LINEAR, sample_b, design_b)
    oracle, *_ = np.linalg.lstsq(design_b.values, y, rcond=None)
    np.testing.assert_allclose(fitted.beta_hat, oracle, atol=1e-8)
    _report("6 (analytic identities)")


def test_criterion_7_bootstrap_coefficients_match_sandwich(rng):
    n = 500
    x = rng.normal(2, 1, size=n)
    y = 1 + 2 * x + rng.normal(size=n)
    sample_b = make_sample_b(x, y)
    design_b = build_design_matrix(sample_b, ("x",), intercept=True)
    model = fit_model(ModelFamily.LINEAR, sample_b, design_b)

    X = design_b.values
    resid = y - X @ model.beta_hat
    J = X.T @ X / n
    omega = (X.T * resid**2) @ X / n**2
    sandwich = np.linalg.solve(J, np.linalg.solve(J, omega).T)

    betas, _ = bootstrap_refit(sample_b, ModelFamily.LINEAR, design_b, L=5000, seed=2)
    emp = np.cov(betas.T)
    rel = np.linalg.norm(emp - sandwich) / np.linalg.norm(sandwich)
    assert rel <= 0.15
    _report("7 (bootstrap sandwich check)")


def test_criterion_8_release_file_contract(tmp_path, rng):
    x_b = rng.normal(2, 1, size=120)
    sample_b = make_sample_b(x_b, 1 + 2 * x_b + rng.normal(size=120))
    design_b = build_design_matrix(sample_b, ("x",), intercept=True)
    model = fit_model(ModelFamily.LINEAR, sample_b, design_b)
    x_a = rng.normal(2, 1, size=60)
    sample_a = make_sample_a(x_a, np.full(60, 100.0))
    design_a = build_design_matrix(sample_a, ("x",), intercept=True)
    N = 6000.0
    reps = build_replicates(
        model, sample_a, sample_b, design_a, design_b,
        srs_design(N), L=40, seed=13,
    )
    theta_mem = float(np.sum(sample_a.weights * reps.base_imputations) / N)
    v_mem = bootstrap_variance(theta_mem, replicate_estimates(reps, N))

    path = tmp_path / "aug.csv"
    write_augmented_dataset(sample_a, reps, model, path, population_size=N)
    dataset = read_augmented_dataset(path)
    N_file = dataset.population_size_used()
    theta_file = ht_mean(dataset.yhat, dataset.weights, N_file)
    v_file = bootstrap_variance(theta_file, replicate_estimates(dataset, N_file))
    assert theta_file == pytest.approx(theta_mem, abs=1e-12)
    assert v_file == pytest.approx(v_mem, abs=1e-12)

    # regeneration from the manifest seed is byte-identical
    import json

    with open(str(path) + ".manifest.json") as fh:
        manifest = json.load(fh)
    again = tmp_path / "again.csv"
    reps2 = build_replicates(
        model, sample_a, sample_b, design_a, design_b,
        srs_design(N), L=manifest["L"], seed=manifest["seed"],
    )
    write_augmented_dataset(sample_a, reps2, model, again, population_size=N)
    assert path.read_bytes() == again.read_bytes()
    _report("8 (release-file contract)")


def test_criterion_9_threading_determinism():
    def run(threads):
        return run_monte_carlo(
            SimConfig(
                model_id="I",
                population_size=20_000,
                n_a=200,
                n_b=200,
                reps=40,
                bootstrap_L=50,
                master_seed=SEED,
                threads=threads,
            )
        )

    one, eight = run(1), run(8)
    assert one.to_dict() == eight.to_dict()
    assert one.per_rep.keys() == eight.per_rep.keys()
    for name, values in one.per_rep.items():
        assert np.array_equal(values, eight.per_rep[name]), name
    _report("9 (threading determinism)")
