"""The unit-block rule: every sum over units runs over blocks of at most
``UNIT_BLOCK`` units, added in block order.

Within one block the fits and the linearization variance equal the
whole-array formulas bit for bit; across blocks they match them to rounding;
and no fit, refit or variance pass over a large sample B holds a temporary
of its size.
"""

import tracemalloc

import numpy as np
import pytest

from massimpute import (
    ModelFamily,
    bootstrap_refit,
    build_design_matrix,
    fit_model,
    ppswr_design,
)
from massimpute.bootstrap import _BLOCK_CELLS
from massimpute.data_model import SampleKind, SurveySample
from massimpute.mean_model import (
    UNIT_BLOCK,
    damped_newton,
    least_squares,
    mean_gradients,
    mean_values,
    solve_quasi_score,
    unit_blocks,
)
from massimpute.variance import linearized_variance

NAMES = ("x", "g=a", "g=b")
# three blocks, the last of 17 units
SPLIT = 2 * UNIT_BLOCK + 17


def _columns(rng, n):
    x = rng.normal(2.0, 1.0, n)
    g = rng.choice(3, n, p=[0.5, 0.3, 0.2])
    return x, g, {"x": x, "g=a": (g == 1) * 1.0, "g=b": (g == 2) * 1.0}


def _sample_b(rng, n):
    """Sample B with a linear response y and a 0/1 response z, its design,
    and a sample A of 300 units with its design."""
    x, g, columns = _columns(rng, n)
    y = 1.0 + 2.0 * x + 0.5 * g + rng.normal(size=n)
    z = (rng.random(n) < 1.0 / (1.0 + np.exp(1.0 - 0.8 * x - 0.3 * g))) * 1.0
    b = {resp: SurveySample({**columns, resp: v}, NAMES, SampleKind.NON_PROBABILITY_B,
                            response_name=resp)
         for resp, v in (("y", y), ("z", z))}
    _, _, columns_a = _columns(rng, 300)
    a = SurveySample({**columns_a, "w": np.full(300, 50.0)}, NAMES,
                     SampleKind.PROBABILITY_A, weight_name="w")
    return b, build_design_matrix(b["y"], NAMES), a, build_design_matrix(a, NAMES)


def _least_squares(design, y, counts=None):
    """least_squares' two steps on the rows of ``counts``, or on the plain
    fit as one row."""
    normal_sums, finish = least_squares(design, y)
    return finish(normal_sums(counts), None if counts is None else counts.__getitem__)


# -- the whole-array formulas ------------------------------------------------

def _whole_least_squares(X, y, counts):
    """The count-weighted normal equations on whole arrays, centred and
    scaled as least_squares does; ``counts`` k x n."""
    n, p = X.shape
    shift = np.zeros(p)
    shift[1:] = X.T[1:].sum(axis=1) / n
    Z = X.T - shift[:, None]
    scale = np.sqrt(np.einsum("in,in->i", Z, Z) / n)
    Z /= scale[:, None]
    V = np.vstack([Z, y])
    sums = np.empty((len(counts), p + 1, p + 1))
    for r in range(p):
        for c in range(r, p + 1):
            sums[:, r, c] = sums[:, c, r] = np.einsum("kn,n->k", counts, V[r] * V[c])
    gammas = np.linalg.solve(sums[:, :p, :p], sums[:, :p, p:])[..., 0]
    back = np.diag(1.0 / scale)
    back[:, 0] -= shift / scale
    return np.einsum("kp,pq->kq", gammas, back)


def _whole_quasi_score(X, y, c):
    """The logistic quasi-score root on whole arrays, weights c."""
    total = c.sum()

    def means(beta):
        return 1.0 / (1.0 + np.exp(-np.einsum("in,i->n", X.T, beta)))

    def score(beta):
        m = means(beta)
        return (np.einsum("in,n->i", X.T, c * (y - m)) / total,
                -np.einsum("in,jn->ij", X.T * (c * (m * (1.0 - m))), X.T) / total)

    return damped_newton(score, np.zeros(X.shape[1]), 1e-10)


def _whole_variance_b(model, sample_b, design_a, design_b, weights_a, N):
    """c_hat and the model component v_b on whole arrays."""
    family, beta = model.family, model.beta_hat
    grad_b = mean_gradients(family, design_b.values, beta)
    lhs = np.einsum("in,jn->ij", grad_b.T, design_b.values.T)
    grad_a = mean_gradients(family, design_a.values, beta)
    c_hat = np.linalg.solve(lhs, np.einsum("in,n->i", grad_a.T, weights_a))
    resid = sample_b.responses - mean_values(family, design_b.values, beta)
    g = np.einsum("np,p->n", design_b.values, c_hat)
    return float(np.sum(resid**2 * g**2) / N**2)


# -- tests -------------------------------------------------------------------

def test_blocks_cover_the_units_in_order():
    blocks = unit_blocks(SPLIT)
    assert [len(range(SPLIT)[b]) for b in blocks] == [UNIT_BLOCK, UNIT_BLOCK, 17]
    assert [b.start for b in blocks] == [0, UNIT_BLOCK, 2 * UNIT_BLOCK]
    assert [len(range(0)[b]) for b in unit_blocks(0)] == [0]


def test_einsum_sums_a_lone_row_of_one_block_as_a_row_of_many(rng):
    # the premise of the block size: einsum buffers UNIT_BLOCK elements, so
    # a one-row count matrix is summed in the order of a row of several
    counts = rng.integers(0, 4, size=(3, 3 * UNIT_BLOCK)).astype(float)
    row = rng.normal(size=UNIT_BLOCK)
    for start in (0, UNIT_BLOCK, 2 * UNIT_BLOCK):
        block = counts[:, start : start + UNIT_BLOCK]
        many = np.einsum("kn,n->k", block, row)
        for k in range(3):
            assert np.einsum("kn,n->k", block[k : k + 1], row)[0] == many[k]


@pytest.mark.parametrize("n, exact", [(500, True), (UNIT_BLOCK, True), (SPLIT, False)])
class TestAgainstWholeArrays:
    """Bit for bit within one block, to rounding across blocks."""

    @staticmethod
    def check(blocked, whole, exact):
        if exact:
            assert np.array_equal(blocked, whole)
        else:
            np.testing.assert_allclose(blocked, whole, rtol=1e-12, atol=0)

    def test_least_squares(self, rng, n, exact):
        b, design, _, _ = _sample_b(rng, n)
        X, y = design.values, b["y"].responses
        counts = rng.integers(0, 3, size=(3, n)).astype(float)
        betas, ok = _least_squares(design, y, counts)
        assert ok.all()
        self.check(betas, _whole_least_squares(X, y, counts), exact)
        one, ok = _least_squares(design, y)
        assert ok.all()
        self.check(one, _whole_least_squares(X, y, np.ones((1, n))), exact)
        model = fit_model(ModelFamily.LINEAR, b["y"], design)
        self.check(model.beta_hat, one[0], True)

    def test_solve_quasi_score(self, rng, n, exact):
        b, design, _, _ = _sample_b(rng, n)
        X, z = design.values, b["z"].responses
        c = rng.integers(1, 4, size=n).astype(float)
        beta, iterations, _ = solve_quasi_score(ModelFamily.LOGISTIC, X, z, c)
        whole, whole_iterations, _ = _whole_quasi_score(X, z, c)
        assert iterations == whole_iterations
        self.check(beta, whole, exact)

    @pytest.mark.parametrize("family, response", [
        (ModelFamily.LINEAR, "y"), (ModelFamily.LOGISTIC, "z")])
    def test_linearized_variance(self, rng, n, exact, family, response):
        b, design_b, a, design_a = _sample_b(rng, n)
        model = fit_model(family, b[response], design_b)
        lin = linearized_variance(model, a, b[response], design_a, design_b,
                                  ppswr_design(1e6), 1e6)
        whole = _whole_variance_b(model, b[response], design_a, design_b,
                                  a.weights, 1e6)
        self.check(lin.v_b, whole, exact)


class TestMemory:
    """At n_B = 200,000 each pass allocates under 1 MiB: its outputs and a
    few block-sized temporaries, where whole arrays took 6 to 12 MiB."""

    n = 200_000

    @pytest.fixture(scope="class")
    def data(self):
        return _sample_b(np.random.default_rng(7), self.n)

    @staticmethod
    def traced_peak(fn) -> float:
        """Bytes allocated at the peak of ``fn()``, above its inputs."""
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("family, response", [
        (ModelFamily.LINEAR, "y"), (ModelFamily.LOGISTIC, "z")])
    def test_fit_model(self, data, family, response):
        b, design, _, _ = data
        assert self.traced_peak(lambda: fit_model(family, b[response], design)) < 2**20

    @pytest.mark.parametrize("family, response", [
        (ModelFamily.LINEAR, "y"), (ModelFamily.LOGISTIC, "z")])
    def test_linearized_variance(self, data, family, response):
        b, design_b, a, design_a = data
        model = fit_model(family, b[response], design_b)
        peak = self.traced_peak(lambda: linearized_variance(
            model, a, b[response], design_a, design_b, ppswr_design(1e6), 1e6))
        assert peak < 2**20

    def test_linear_refit_of_one_block(self, data):
        # the counts of one bootstrap_refit block are its input
        b, design, _, _ = data
        counts = np.random.default_rng(8).integers(
            0, 3, size=(_BLOCK_CELLS // self.n, self.n)).astype(float)
        peak = self.traced_peak(lambda: _least_squares(design, b["y"].responses, counts))
        assert peak < 2**20


@pytest.mark.parametrize("n", [3_000, SPLIT])
def test_lone_linear_replicate_is_fitted_as_one_of_several(rng, n):
    # L = 1 fits a lone row of counts, whose sums and map-back must be
    # those of a row of several
    b, design, _, _ = _sample_b(rng, n)
    one, _ = bootstrap_refit(b["y"], ModelFamily.LINEAR, design, L=1, seed=5)
    twelve, _ = bootstrap_refit(b["y"], ModelFamily.LINEAR, design, L=12, seed=5)
    assert np.array_equal(twelve[:1], one)
