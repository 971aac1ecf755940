"""Replicate weights, refits, pairing, variance, and the release file."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from massimpute import (
    ModelFamily,
    bootstrap_refit,
    bootstrap_variance,
    build_design_matrix,
    build_replicates,
    fit_model,
    ht_mean,
    read_augmented_dataset,
    replicate_estimates,
    replicate_weights,
    srs_design,
    write_augmented_dataset,
)
from massimpute import bootstrap, workers
from massimpute.bootstrap import (
    _DRAW_CELLS,
    _REFIT_RETRY_CAP,
    _count_groups,
    _replay,
    _streams,
    replicate_blocks,
    sample_a_estimates,
    sample_a_replicates,
)
from massimpute.errors import (
    ColumnMismatch,
    NumericalError,
    UnsupportedDesign,
    ValidationError,
)
from massimpute.mean_model import damped_newton, mean_values

from conftest import make_sample_a, make_sample_b


def _v1_stream(seed, k, tag, attempt=0):
    """Reference: replicate k's stream, built the way the v1 layout defines it."""
    return np.random.default_rng(np.random.SeedSequence([seed, int(k), tag, attempt]))


class TestStreams:
    """The PCG64 of each stream against one generator built per stream."""

    @staticmethod
    def _assert_v1(seed, ks, tag, attempt):
        for k, bit_generator in zip(ks, _streams(seed, ks, tag, attempt)):
            ref = _v1_stream(seed, k, tag, attempt)
            assert bit_generator.state == ref.bit_generator.state
            gen = np.random.Generator(bit_generator)
            # 32-bit buffered draws, then full 64-bit ones
            assert np.array_equal(gen.integers(0, 1000, size=7),
                                  ref.integers(0, 1000, size=7))
            assert np.array_equal(gen.integers(0, 2**40, size=3),
                                  ref.integers(0, 2**40, size=3))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**70 - 1), tag=st.sampled_from([0, 1]),
           attempt=st.integers(0, 10), start=st.integers(0, 2**32 - 5))
    def test_equals_seed_sequence_property(self, seed, tag, attempt, start):
        self._assert_v1(seed, np.array([0, 1, start, start + 4]), tag, attempt)

    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 - 1])
    def test_equals_seed_sequence_at_word_boundaries(self, seed):
        self._assert_v1(seed, np.array([*range(20), 2**32 - 1]), 1, 3)

    def test_streams_drawn_interleaved_are_independent(self):
        # both streams are taken before either is drawn from
        first, second = _streams(7, np.array([3, 4]), 1, 2)
        interleaved = [first.random_raw(5), second.random_raw(5),
                       first.random_raw(5), second.random_raw(5)]
        for k, words in ((3, interleaved[0::2]), (4, interleaved[1::2])):
            expected = _v1_stream(7, k, 1, 2).bit_generator.random_raw(10)
            assert np.array_equal(np.concatenate(words), expected)

    def test_index_of_two_words_rejected(self):
        with pytest.raises(ValidationError, match="2\\^32"):
            next(_streams(1, np.array([2**32]), 0))

    def test_negative_seed_rejected(self):
        with pytest.raises(ValidationError, match="non-negative"):
            next(_streams(-1, np.arange(3), 0))


class TestDrawCounts:
    """Resample counts drawn a group at a time against numpy's own
    ``integers`` and ``bincount`` on each stream."""

    @staticmethod
    def _assert_v1(seed, ks, tag, attempt, n, size):
        out = np.concatenate([counts for _, counts in
                              _count_groups(seed, ks, tag, attempt, n, size)])
        assert len(out) == len(ks)
        for k, row in zip(ks, out):
            draws = _v1_stream(seed, k, tag, attempt).integers(0, n, size=size)
            assert np.array_equal(row, np.bincount(draws, minlength=n))

    # groups of _DRAW_CELLS // size replicates: thousands at n = 2, two at
    # n = 2^13, and at n = 2^13 + 1 (size n), 2^14 or 200,000 one at a time
    @pytest.mark.parametrize("n", [2, 7, 499, 500, 2000, 2**13, 2**13 + 1, 2**14,
                                   2**14 + 1, 200_000])
    @pytest.mark.parametrize("less", [0, 1])
    @pytest.mark.parametrize("attempt", [0, 3])
    def test_equals_numpy_integers(self, n, less, attempt):
        # up to three whole groups and a part group
        L = min(150, 3 * (_DRAW_CELLS // n) + 1)
        self._assert_v1(17, np.arange(40, 40 + max(L, 3)), 1, attempt, n, n - less)

    def test_rejected_values_replayed(self, monkeypatch):
        # at n = 8,114 about 1.5% of rows hold a value Lemire's rule rejects;
        # each such row is replayed on its own stream
        n, ks = 8_114, np.arange(300)
        streams, redraws = _streams, []

        def counted(seed, ks, tag, attempt):
            redraws.append(len(ks))
            return streams(seed, ks, tag, attempt)

        monkeypatch.setattr(bootstrap, "_streams", counted)
        self._assert_v1(1, ks, 0, 0, n, n - 1)
        assert redraws[0] == len(ks)
        assert len(redraws) > 1 and redraws[1:] == [1] * (len(redraws) - 1)

    @pytest.mark.parametrize("n", [12_289, 2**30 + 1])
    def test_replay_takes_the_next_values(self, n):
        # at n = 2^30 + 1 about a quarter of the values are rejected, so the
        # replay draws several further runs of words
        bit_generator = next(_streams(5, np.arange(1), 1, 0))
        expected = _v1_stream(5, 0, 1, 0).integers(0, n, size=999)
        assert np.array_equal(_replay(bit_generator, n, 999), expected)


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
            draws = _v1_stream(seed, k, 0).integers(0, n, size=n - 1)
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
            idx = _v1_stream(seed, k, 1, attempt).integers(0, n, size=n)
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
        [([1.0, 0.0, 0.0, 0.0], 141), ([0.0, 0.0, 0.0, 1.0, 1.0], 36),
         ([1.0] + [0.0] * 499, 198)],
    )
    def test_two_valued_covariate_redraws(self, x, redraws):
        # a resample that misses one of the two values is rank deficient; at
        # n = 500 the draws and redraws come in groups of 65
        x = np.array(x)
        sample, dm = _linear_b(x, np.arange(len(x)) ** 2.0)
        betas, retries = bootstrap_refit(sample, ModelFamily.LINEAR, dm, L=300, seed=11)
        expected, expected_retries = _refit_loop(dm.values, sample.responses, 300, 11)
        assert retries == expected_retries == redraws
        np.testing.assert_allclose(betas, expected, rtol=1e-12, atol=1e-12)

    def test_covariate_far_from_origin(self, rng):
        # the raw Gram eigenvalue ratio is about 1e-14, yet every resample
        # has full rank, and no resample may be redrawn
        x = rng.normal(1e6, 1e5, size=200)
        sample, dm = _linear_b(x, 1 + 2 * x + rng.normal(size=200))
        betas, retries = bootstrap_refit(sample, ModelFamily.LINEAR, dm, L=300, seed=5)
        expected, expected_retries = _refit_loop(dm.values, sample.responses, 300, 5)
        assert retries == expected_retries == 0
        np.testing.assert_allclose(betas[:, 1], expected[:, 1], rtol=1e-9)
        # the reference loop's uncentred normal equations give the intercept
        # only to about 1e-7; the fitted means it yields agree closely
        np.testing.assert_allclose(dm.values @ betas.T, dm.values @ expected.T,
                                   rtol=1e-9)
        # an SVD solve of each gathered resample pins the intercept too
        lstsq = np.array([
            np.linalg.lstsq(dm.values[idx], sample.responses[idx], rcond=None)[0]
            for idx in (_v1_stream(5, k, 1).integers(0, 200, size=200)
                        for k in range(300))
        ])
        np.testing.assert_allclose(betas, lstsq, rtol=1e-9, atol=1e-7)

    # both centre to a zero column, left unscaled, so every resample fails
    # the eigenvalue screen and then the exact rank test
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
    rows, unweighted, with the separation checks (every probability pinned,
    or every 0/1 response classified); a replicate that fails is redrawn on
    the next substream."""
    n, p = X.shape
    betas = np.empty((L, p))
    retries = 0
    for k in range(L):
        for attempt in range(_REFIT_RETRY_CAP + 1):
            idx = _v1_stream(seed, k, 1, attempt).integers(0, n, size=n)
            Xk, yk = X[idx], y[idx]

            def score(beta):
                m = mean_values(family, Xk, beta)
                w = m * (1.0 - m) if family is ModelFamily.LOGISTIC else m
                return Xk.T @ (yk - m) / n, -(Xk.T * w) @ Xk / n

            try:
                beta, _, _ = damped_newton(score, np.zeros(p), 1e-10)
            except NumericalError:
                retries += 1
                continue
            m = mean_values(family, Xk, beta)
            if family is ModelFamily.LOGISTIC and (
                    np.all(np.minimum(m, 1 - m) < 1e-8)
                    or np.all(np.where(yk == 1, m > 0.5, (yk == 0) & (m < 0.5)))):
                retries += 1
                continue
            betas[k] = beta
            break
        else:
            raise NumericalError(f"replicate {k} failed")
    return betas, retries


def _near_separated(n, overlap=2):
    # y = 1{x > 0} with the labels of the middle 2 * overlap rows reversed: a
    # resample that misses every row of either middle half is separated, a
    # minority of resamples at overlap 2 and most at overlap 1
    x = np.linspace(-1.0, 1.0, n)
    y = (x > 0).astype(float)
    middle = slice(n // 2 - overlap, n // 2 + overlap)
    y[middle] = y[middle][::-1].copy()
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
    @pytest.mark.parametrize("n, redraws", [(20, 81), (40, 95)])
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
        # replicate 133 is the first whose every redraw is separated
        sample, dm = _near_separated(12, overlap=1)
        with pytest.raises(NumericalError, match="replicate 133 "):
            bootstrap_refit(sample, ModelFamily.LOGISTIC, dm, L=300, seed=11)
        with pytest.raises(NumericalError, match="replicate 133 "):
            _quasi_score_loop(ModelFamily.LOGISTIC, dm.values, sample.responses,
                              300, 11)

    @pytest.mark.filterwarnings("ignore::massimpute.errors.OverflowGuardWarning")
    def test_separated_sample_aborts(self, rng):
        # y = 1{x > 0}: every resample is separated, so every redraw fails
        x = rng.normal(size=200)
        sample = make_sample_b(x, (x > 0).astype(float))
        dm = build_design_matrix(sample, ("x",), intercept=True)
        with pytest.raises(NumericalError, match="replicate 0 "):
            bootstrap_refit(sample, ModelFamily.LOGISTIC, dm, L=4, seed=1)

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

    @pytest.fixture
    def linear_ab(self, rng):
        x_b = rng.normal(2, 1, size=5000)
        sample_b, design_b = _linear_b(x_b, 1 + 2 * x_b + rng.normal(size=5000))
        model = fit_model(ModelFamily.LINEAR, sample_b, design_b)
        x_a = rng.normal(2, 1, size=2000)
        sample_a = make_sample_a(x_a, np.full(2000, 25.0))
        design_a = build_design_matrix(sample_a, ("x",), intercept=True)
        return model, sample_a, sample_b, design_a, design_b

    def test_refit_and_replicate_columns(self, linear_ab):
        model, sample_a, sample_b, design_a, design_b = linear_ab
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

    def test_one_replicate(self, linear_ab):
        # the p x n design's transpose, the layout the CLI passes; a lone
        # column must be predicted as a column of several
        model, sample_a, sample_b, design_a, design_b = linear_ab
        assert design_a.values.flags.f_contiguous
        one, two, hundred = (
            build_replicates(model, sample_a, sample_b, design_a, design_b,
                             srs_design(50_000.0), L=L, seed=7)
            for L in (1, 2, 100)
        )
        for longer in (two, hundred):
            assert np.array_equal(longer.replicate_imputations[:, :1],
                                  one.replicate_imputations)
            assert np.array_equal(longer.replicate_weights[:, :1],
                                  one.replicate_weights)

    def test_one_replicate_estimate(self, linear_ab):
        # numpy sums a lone column pairwise and the columns of a wider block
        # row by row; replicate 1's estimate must not tell L = 1 from L = 2
        model, sample_a, _, design_a, design_b = linear_ab
        spec, N = srs_design(50_000.0), 50_000.0
        betas = model.beta_hat + np.array([[0.01, -0.02], [0.03, 0.01]])
        for seed in (7, 8, 9):
            for estimates in (
                lambda L: replicate_estimates(sample_a_replicates(
                    model, sample_a, design_a, spec, betas[:L], seed), N),
                lambda L: sample_a_estimates(
                    model, sample_a, design_a, spec, betas[:L], seed, N),
            ):
                assert estimates(1)[0] == estimates(2)[0], seed

    def test_with_redraws(self):
        x = np.array([1.0, 0.0, 0.0, 0.0])
        sample, dm = _linear_b(x, np.array([3.0, 1.0, 4.0, 1.5]))
        betas_8, retries_8 = bootstrap_refit(sample, ModelFamily.LINEAR, dm, L=8, seed=7)
        betas_100, retries_100 = bootstrap_refit(sample, ModelFamily.LINEAR, dm, L=100,
                                                 seed=7)
        assert 0 < retries_8 < retries_100
        assert np.array_equal(betas_100[:8], betas_8)


class TestLoneReplicate:
    """A block or worker range of one replicate is fitted as one of several:
    sums over units run in unit blocks of at most 8,192, einsum's buffer, in
    which einsum sums a lone row as it sums a row of many."""

    n = 9_000

    @pytest.fixture
    def b(self, rng):
        x = rng.normal(2, 1, size=self.n)
        return _linear_b(x, 1 + 2 * x + rng.normal(size=self.n))

    @pytest.mark.parametrize("L", [3, bootstrap._BLOCK_CELLS // n + 1])
    def test_any_worker_count(self, b, L, monkeypatch):
        # two forked workers on any host: one range, or the last block of
        # the serial run, holds a single replicate
        monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
        sample, design = b
        one, _ = bootstrap_refit(sample, ModelFamily.LINEAR, design, L, 5, workers=1)
        two, _ = bootstrap_refit(sample, ModelFamily.LINEAR, design, L, 5, workers=2)
        assert np.array_equal(one, two)

    def test_prefix(self, b):
        sample, design = b
        one, _ = bootstrap_refit(sample, ModelFamily.LINEAR, design, L=1, seed=5)
        twelve, _ = bootstrap_refit(sample, ModelFamily.LINEAR, design, L=12, seed=5)
        assert np.array_equal(twelve[:1], one)

    def test_blocks_of_single_draws(self, rng, monkeypatch):
        # above 2^14 units no draw group holds two resamples: each is drawn
        # on its own and solved in blocks of _BLOCK_CELLS // n, 52 here, so
        # the serial run's last block holds one, and each worker's range 26
        # or 27
        n = 20_000
        L = bootstrap._BLOCK_CELLS // n + 1
        x = rng.normal(2, 1, size=n)
        sample, design = _linear_b(x, 1 + 2 * x + rng.normal(size=n))
        monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
        one, _ = bootstrap_refit(sample, ModelFamily.LINEAR, design, L, 5, workers=1)
        two, _ = bootstrap_refit(sample, ModelFamily.LINEAR, design, L, 5, workers=2)
        first, _ = bootstrap_refit(sample, ModelFamily.LINEAR, design, 1, 5)
        assert np.array_equal(one, two)
        assert np.array_equal(one[:1], first)


class TestRangeInsideAGroup:
    """At n_B = 500 a draw group holds 32 resamples, and the two-worker split
    of L = 101 starts at replicate 50, inside the second group; each range
    and each redraw attempt is drawn from one pass of its streams."""

    n, L = 500, 101

    @pytest.fixture(params=["continuous", "two-valued"])
    def b(self, request, rng):
        x = rng.normal(2, 1, size=self.n)
        if request.param == "two-valued":
            # a resample that misses unit 0 is rank deficient and redrawn
            x = (np.arange(self.n) == 0).astype(float)
        return _linear_b(x, 1 + 2 * x + rng.normal(size=self.n))

    def test_any_worker_count_and_prefix(self, b, monkeypatch):
        assert _DRAW_CELLS // self.n == 32
        assert workers.split(self.L, 2)[1].start == 50
        monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
        sample, design = b
        one = bootstrap_refit(sample, ModelFamily.LINEAR, design, self.L, 5, workers=1)
        two = bootstrap_refit(sample, ModelFamily.LINEAR, design, self.L, 5, workers=2)
        first, _ = bootstrap_refit(sample, ModelFamily.LINEAR, design, 1, 5)
        assert np.array_equal(one[0], two[0]) and one[1] == two[1]
        assert np.array_equal(one[0][:1], first)
        assert one[1] == _refit_loop(design.values, sample.responses, self.L, 5)[1]


class TestBootstrapRefit:
    def test_one_finish_per_range(self, rng, monkeypatch):
        # the L = 500 refits of a paper rep add each draw group's sums to
        # their rows and screen and solve all 500 rows in one call each
        x = rng.normal(2, 1, size=500)
        sample, dm = _linear_b(x, 1 + 2 * x + rng.normal(size=500))
        calls = {"eigvalsh": 0, "solve": 0}

        def counted(name):
            def call(*args, _fn=getattr(np.linalg, name)):
                calls[name] += 1
                return _fn(*args)
            monkeypatch.setattr(np.linalg, name, call)

        counted("eigvalsh")
        counted("solve")
        betas, retries = bootstrap_refit(sample, ModelFamily.LINEAR, dm, L=500, seed=3,
                                         workers=1)
        assert retries == 0 and betas.shape == (500, 2)
        assert calls == {"eigvalsh": 1, "solve": 1}

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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("theta, replicates", [
        (0.0, [1e160, -1e160]),  # squared deviations that overflow
        (0.0, [np.inf, 1.0]),
        (np.inf, [np.inf]),
        (0.0, [np.nan]),
    ], ids=["overflow", "inf", "inf-inf", "nan"])
    def test_non_finite_variance_raises_without_warning(self, theta, replicates):
        with pytest.raises(NumericalError, match="not finite"):
            bootstrap_variance(theta, np.array(replicates))


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

    def test_negative_seed_rejected(self, rng):
        model, sample_a, sample_b, design_a, design_b = _small_setup(rng)
        with pytest.raises(ValidationError, match="non-negative"):
            build_replicates(
                model, sample_a, sample_b, design_a, design_b,
                srs_design(150.0), L=2, seed=-1,
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


class TestSampleAEstimates:
    """The Monte Carlo's replicate estimates, reduced a draw group of
    columns at a time, are those of the whole n_A x L replicate set."""

    n_a = 500
    b = _DRAW_CELLS // (n_a - 1)  # columns per block

    @pytest.fixture(params=[ModelFamily.LINEAR, ModelFamily.LOGISTIC])
    def fitted(self, request, rng):
        family = request.param
        x_b = rng.normal(2, 1, size=500)
        if family is ModelFamily.LINEAR:
            y_b = 1 + 2 * x_b + rng.normal(size=500)
        else:
            y_b = (rng.random(500) < 1 / (1 + np.exp(2 - x_b))).astype(float)
        sample_b, design_b = _linear_b(x_b, y_b)
        model = fit_model(family, sample_b, design_b)
        betas, _ = bootstrap_refit(sample_b, family, design_b, L=500, seed=3)
        x_a = rng.normal(2, 1, size=self.n_a)
        sample_a = make_sample_a(x_a, np.full(self.n_a, 40.0))
        design_a = build_design_matrix(sample_a, ("x",), intercept=True)
        return model, sample_a, design_a, betas

    def test_equal_estimates_of_the_whole_set(self, fitted):
        model, sample_a, design_a, betas = fitted
        N, spec = 20_000.0, srs_design(20_000.0)
        for L in (1, 2, self.b - 1, self.b, self.b + 1, 500):
            whole = sample_a_replicates(model, sample_a, design_a, spec, betas[:L], 9)
            expected = replicate_estimates(whole, N)
            products = whole.replicate_weights * whole.replicate_imputations
            # each column's rows added in order, a lone column's too
            assert np.array_equal(expected, np.cumsum(products, axis=0)[-1] / N)
            found = sample_a_estimates(model, sample_a, design_a, spec, betas[:L], 9, N)
            assert np.array_equal(found, expected), L

    def test_peak_does_not_grow_with_L(self, rng):
        x_a = rng.normal(2, 1, size=self.n_a)
        sample_a = make_sample_a(x_a, np.full(self.n_a, 40.0))
        design_a = build_design_matrix(sample_a, ("x",), intercept=True)
        model = fit_model(ModelFamily.LINEAR, *_linear_b(x_a, 1 + 2 * x_a))
        spec = srs_design(20_000.0)
        peaks = {}
        for L in (500, 4000):
            betas = model.beta_hat + rng.normal(0, 0.1, size=(L, 2))
            sample_a_estimates(model, sample_a, design_a, spec, betas, 9, 20_000.0)
            tracemalloc.start()
            try:
                sample_a_estimates(model, sample_a, design_a, spec, betas, 9, 20_000.0)
                peaks[L] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # only length-L arrays grow: the totals, the estimates and the hash of
        # the replicates' stream seeds (about 150 bytes a replicate); one
        # n_A x L array would add 14 MB
        assert peaks[4000] - peaks[500] < 256 * 3500


class TestSampleAReplicates:
    """The ``bootstrap`` command's n_A x L replicate columns, each draw group
    copied into its own columns, are those of :func:`replicate_blocks`."""

    n_a = 2_000  # draw groups of 8 columns

    @pytest.fixture(params=[ModelFamily.LINEAR, ModelFamily.LOGISTIC])
    def fitted(self, request, rng):
        x = rng.normal(2, 1, size=self.n_a)
        sample_a = make_sample_a(x, np.full(self.n_a, 40.0))
        design_a = build_design_matrix(sample_a, ("x",), intercept=True)
        y = 1 + 2 * x + rng.normal(size=self.n_a)
        if request.param is ModelFamily.LOGISTIC:
            y = (y > 5).astype(float)
        model = fit_model(request.param, *_linear_b(x, y))
        betas = model.beta_hat + rng.normal(0, 0.1, size=(100, 2))
        return model, sample_a, design_a, betas

    @pytest.mark.parametrize("L", [1, 2, 17, 100])
    def test_columns_of_the_blocks_bit_for_bit(self, fitted, L):
        model, sample_a, design_a, betas = fitted
        spec = srs_design(80_000.0)
        found = sample_a_replicates(model, sample_a, design_a, spec, betas[:L], 9)
        weights, imputations = np.empty((2, self.n_a, L))
        for cols, w, y in replicate_blocks(model, sample_a, design_a, spec,
                                           betas[:L], 9):
            weights[:, cols], imputations[:, cols] = w, y
        assert np.array_equal(found.replicate_weights.view(np.int64),
                              weights.view(np.int64))
        assert np.array_equal(found.replicate_imputations.view(np.int64),
                              imputations.view(np.int64))

    def test_peak_is_the_outputs_and_one_draw_group(self, fitted):
        model, sample_a, design_a, betas = fitted
        spec = srs_design(80_000.0)
        sample_a_replicates(model, sample_a, design_a, spec, betas, 9)
        tracemalloc.start()
        try:
            sample_a_replicates(model, sample_a, design_a, spec, betas, 9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the two n_A x L matrices and the base imputations (3.07 MiB); a
        # draw group's raw words, products, draws and counts take about
        # 0.5 MiB (0.9 MiB in groups of 16 columns), and a copy of a group's
        # weights or imputations beside them 0.12 MiB more
        outputs = (2 * len(betas) + 1) * self.n_a * 8
        assert peak < outputs + 1.25 * 2**20


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
        N_file = dataset.population_size_used()
        theta_file = ht_mean(dataset.yhat, dataset.weights, N_file)
        v_file = bootstrap_variance(theta_file, replicate_estimates(dataset, N_file))
        assert theta_file == pytest.approx(theta, abs=1e-12)
        assert v_file == pytest.approx(v_mem, abs=1e-12)

    @pytest.mark.parametrize("L", [1, 2, _DRAW_CELLS // 499 + 1, 66])
    def test_estimates_from_strided_columns(self, tmp_path, rng, L):
        # the file's replicate columns are strided views of one row-major
        # block; with n_A = 500 and L = b + 1 the last block is a lone column,
        # and with L = 66 one of two
        model, sample_a, sample_b, design_a, design_b = _small_setup(rng, n_a=500)
        reps = build_replicates(model, sample_a, sample_b, design_a, design_b,
                                srs_design(50_000.0), L=L, seed=6)
        path = tmp_path / "aug.csv"
        write_augmented_dataset(sample_a, reps, model, path, population_size=50_000.0)
        dataset = read_augmented_dataset(path)
        w, y = dataset.replicate_weights, dataset.replicate_imputations
        assert not w.flags.c_contiguous and not y.flags.c_contiguous
        assert np.array_equal(replicate_estimates(dataset, 50_000.0),
                              np.cumsum(w * y, axis=0)[-1] / 50_000.0)

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
