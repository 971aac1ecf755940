"""Population generation, sampling draws, and the Monte Carlo driver."""

import tracemalloc

import numpy as np
import pytest

from massimpute import (
    Population,
    PopulationSpec,
    SimConfig,
    bootstrap_variance,
    build_replicates,
    draw_srs,
    draw_stratified_b,
    generate_population,
    replicate_estimates,
    run_monte_carlo,
)
from massimpute import simulation
from massimpute.errors import (
    NumericalError,
    SampleTooLarge,
    StratumExhausted,
    ValidationError,
)


class TestGeneratePopulation:
    def test_moments_model_i(self):
        pop = generate_population(PopulationSpec("I", 200_000, seed=3))
        # x ~ N(2,1); y = 1 + 2x + e so E[y] = 5, Var[y] = 5
        assert np.mean(pop.x) == pytest.approx(2.0, abs=0.02)
        assert np.var(pop.x) == pytest.approx(1.0, abs=0.02)
        assert pop.mean == pytest.approx(5.0, abs=0.03)
        assert np.var(pop.y) == pytest.approx(5.0, abs=0.1)

    def test_moments_model_ii(self):
        pop = generate_population(PopulationSpec("II", 200_000, seed=3))
        # y = 3 + x + 2e so E[y] = 5, Var[y] = 5
        assert pop.mean == pytest.approx(5.0, abs=0.03)
        assert np.var(pop.y) == pytest.approx(5.0, abs=0.1)

    def test_moments_model_iii(self):
        pop = generate_population(PopulationSpec("III", 200_000, seed=3))
        # y = 2.5 + 0.5 x^2 + e; E[x^2] = 5 so E[y] = 5
        assert pop.mean == pytest.approx(5.0, abs=0.05)

    def test_deterministic(self):
        a = generate_population(PopulationSpec("I", 1000, seed=7))
        b = generate_population(PopulationSpec("I", 1000, seed=7))
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.y, b.y)
        c = generate_population(PopulationSpec("I", 1000, seed=8))
        assert not np.array_equal(a.x, c.x)

    def test_unknown_model_rejected(self):
        with pytest.raises(ValidationError):
            PopulationSpec("IV", 100)


class TestDrawSrs:
    def test_census_has_unit_weights(self):
        pop = generate_population(PopulationSpec("I", 50, seed=1))
        sample = draw_srs(pop, 50, seed=2)
        np.testing.assert_allclose(sample.weights, 1.0)
        assert sorted(sample.columns["x"]) == pytest.approx(sorted(pop.x))

    def test_oversized_draw_rejected(self):
        pop = generate_population(PopulationSpec("I", 10, seed=1))
        with pytest.raises(SampleTooLarge):
            draw_srs(pop, 11, seed=2)

    def test_inclusion_frequencies_uniform(self):
        # 6-unit population, n = 2: every unit should appear with
        # frequency n/N = 1/3 across repeated draws
        pop = Population(x=np.arange(6, dtype=float), y=np.zeros(6))
        reps = 20_000
        counts = np.zeros(6)
        for r in range(reps):
            sample = draw_srs(pop, 2, seed=r)
            for v in sample.columns["x"]:
                counts[int(v)] += 1
        freq = counts / reps
        p = 2 / 6
        se = np.sqrt(p * (1 - p) / reps)
        assert np.all(np.abs(freq - p) <= 3 * se)


class TestDrawStratifiedB:
    def test_stratum_counts(self):
        pop = generate_population(PopulationSpec("I", 10_000, seed=4))
        for n_b, expected in ((500, (350, 150)), ((1000), (700, 300))):
            sample = draw_stratified_b(pop, n_b, seed=5)
            x = sample.columns["x"]
            assert int(np.sum(x <= 2.0)) == expected[0]
            assert int(np.sum(x > 2.0)) == expected[1]
            assert sample.n == n_b

    def test_naive_mean_biased_low(self):
        # oversampling x <= 2 drags the mean of y = 1 + 2x + e down
        pop = generate_population(PopulationSpec("I", 50_000, seed=6))
        sample = draw_stratified_b(pop, 500, seed=7)
        assert np.mean(sample.responses) < pop.mean - 0.3

    def test_stratum_exhausted(self):
        pop = Population(x=np.full(100, 5.0), y=np.zeros(100))
        with pytest.raises(StratumExhausted):
            draw_stratified_b(pop, 50, seed=1)


class TestRunMonteCarlo:
    def _config(self, threads=1):
        return SimConfig(
            model_id="I",
            population_size=5_000,
            n_a=100,
            n_b=100,
            reps=8,
            bootstrap_L=20,
            master_seed=11,
            threads=threads,
        )

    def test_report_structure_and_sanity(self):
        report = run_monte_carlo(self._config())
        doc = report.to_dict()
        assert doc["failed_reps"] == 0
        assert set(doc["estimators"]) == {
            "theta_a", "theta_b", "theta_i", "theta_ipw"
        }
        assert set(doc["variance_methods"]) == {"linearization", "bootstrap"}
        assert doc["estimators"]["theta_a"]["remse"] == pytest.approx(100.0)
        # naive B mean is badly biased; the corrected estimators are not
        assert doc["estimators"]["theta_b"]["bias"] < -0.3
        assert abs(doc["estimators"]["theta_i"]["bias"]) < 0.2
        assert "wall_clock_seconds" not in doc

    def test_threads_give_identical_reports(self):
        serial = run_monte_carlo(self._config(threads=1))
        parallel = run_monte_carlo(self._config(threads=2))
        assert serial.to_dict() == parallel.to_dict()
        assert serial.per_rep.keys() == parallel.per_rep.keys()
        for name, values in serial.per_rep.items():
            assert np.array_equal(values, parallel.per_rep[name]), name

    def test_seed_changes_results(self):
        base = run_monte_carlo(self._config())
        other = run_monte_carlo(
            SimConfig(
                model_id="I", population_size=5_000, n_a=100, n_b=100,
                reps=8, bootstrap_L=20, master_seed=12,
            )
        )
        assert base.to_dict() != other.to_dict()
        assert base.per_rep.keys() == other.per_rep.keys()
        for name, values in base.per_rep.items():
            assert not np.array_equal(values, other.per_rep[name]), name

    def test_invalid_config_rejected(self):
        with pytest.raises(ValidationError):
            SimConfig(model_id="I", population_size=100, n_a=80, n_b=80)

    @pytest.mark.parametrize("field, value", [
        ("bootstrap_L", -4), ("master_seed", -1), ("reps", 1), ("threads", 0),
        ("population_size", 0), ("n_a", 1), ("n_a", -5), ("n_b", 0),
    ])
    def test_negative_l_or_seed_rejected(self, field, value):
        sizes = {"population_size": 1000, "n_a": 80, "n_b": 80}
        with pytest.raises(ValidationError, match=field):
            SimConfig(model_id="I", **{**sizes, field: value})

    def test_one_surviving_rep_raises(self, monkeypatch):
        # one rep gives no Monte Carlo variance, so no report is made
        from massimpute import simulation

        run_one_rep = simulation._run_one_rep

        def first_rep_only(population, config, rep):
            if rep > 0:
                raise NumericalError("rep failed")
            return run_one_rep(population, config, rep)

        monkeypatch.setattr(simulation, "_run_one_rep", first_rep_only)
        with pytest.raises(NumericalError, match="1 of 8"):
            run_monte_carlo(self._config())


class TestPaperRep:
    """One rep of the paper's configuration: model I, n_A = n_B = 500."""

    @pytest.fixture(scope="class")
    def population(self):
        return generate_population(PopulationSpec("I", 100_000, 3))

    @pytest.mark.parametrize("L", [1, 2, 33, 66, 500])
    def test_bootstrap_variance_of_the_whole_replicate_set(
            self, population, monkeypatch, L):
        # the rep reduces sample A's replicate columns a draw group (32
        # columns at n_A = 500) at a time; its variance is that of the
        # whole n_A x L replicate set, bit for bit
        calls = {}

        def recording(name):
            def call(*args, _fn=getattr(simulation, name)):
                calls[name] = args
                return _fn(*args)
            monkeypatch.setattr(simulation, name, call)

        recording("bootstrap_refit")
        recording("sample_a_estimates")
        config = SimConfig(model_id="I", bootstrap_L=L, master_seed=3, reps=2)
        out = simulation._run_one_rep(population, config, 4)
        sample_b, _, design_b, _, seed = calls["bootstrap_refit"]
        model, sample_a, design_a, spec, _, _, N = calls["sample_a_estimates"]
        whole = build_replicates(model, sample_a, sample_b, design_a, design_b, spec,
                                 L, seed)
        assert out["v_boot"] == bootstrap_variance(out["theta_i"],
                                                   replicate_estimates(whole, N))

    def test_peak_memory(self, population):
        # no n_A x L or L x n_B array: the refits sum each group of 32
        # resamples as it is drawn and solve all 500 at the end, and the peak,
        # about 0.82 MiB, is one draw group of sample A's weights, imputations
        # and their product (1.4 MiB with groups of 65, 2.9 MiB with the
        # refits' 500 x 500 count block, 5.8 MiB with the weights, the
        # imputations and their product whole)
        config = SimConfig(model_id="I", master_seed=3, reps=2)
        simulation._run_one_rep(population, config, 0)
        tracemalloc.start()
        try:
            simulation._run_one_rep(population, config, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.0 * 2**20
