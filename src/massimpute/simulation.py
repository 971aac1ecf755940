"""Finite-population generation, sampling designs, and the Monte Carlo driver.

Three superpopulation models generate (x, y): a strong linear relation, a weak
linear relation, and a quadratic relation that breaks the linear imputation
model.  Sample A is drawn by simple random sampling; sample B by hidden
stratification on x, which makes its naive mean biased.  The driver compares
the gold-standard A mean, the naive B mean, the mass imputation estimator, and
the IPW estimator over repeated draws from one fixed population, and tracks
both variance estimators of the mass imputation estimator.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from time import perf_counter

import numpy as np

from . import __version__
from .bootstrap import bootstrap_refit, bootstrap_variance, sample_a_estimates
from .data_model import (
    SampleKind,
    SurveySample,
    build_design_matrix,
    srs_design,
)
from .errors import (
    NumericalError,
    SampleTooLarge,
    StratumExhausted,
    ValidationError,
)
from .estimators import (
    fit_propensity,
    ipw_estimate,
    mass_imputation_estimate,
    naive_mean,
)
from .mean_model import ModelFamily, fit_model
from .table import write_table
from .variance import linearized_variance
from .workers import fork_map, usable_cpus

MODEL_IDS = ("I", "II", "III")


@dataclass(frozen=True)
class PopulationSpec:
    model_id: str
    population_size: int = 100_000
    seed: int = 0

    def __post_init__(self):
        if self.model_id not in MODEL_IDS:
            raise ValidationError(f"unknown population model {self.model_id!r}")


@dataclass(frozen=True)
class Population:
    x: np.ndarray
    y: np.ndarray

    @property
    def size(self) -> int:
        return len(self.x)

    @property
    def mean(self) -> float:
        return float(np.mean(self.y))

    @cached_property
    def strata(self) -> tuple[np.ndarray, np.ndarray]:
        """The indices of the units with x <= 2 and of those with x > 2, the
        hidden strata of sample B; split once, not once per draw."""
        return np.flatnonzero(self.x <= 2.0), np.flatnonzero(self.x > 2.0)


def generate_population(spec: PopulationSpec) -> Population:
    """x ~ N(2,1) and noise ~ N(0,1); y follows the chosen model."""
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed]))
    x = rng.normal(2.0, 1.0, spec.population_size)
    e = rng.normal(0.0, 1.0, spec.population_size)
    if spec.model_id == "I":
        y = 1.0 + 2.0 * x + e
    elif spec.model_id == "II":
        y = 3.0 + x + 2.0 * e
    else:
        y = 2.5 + 0.5 * x**2 + e
    return Population(x=x, y=y)


def _sample_from_indices(
    population: Population, idx: np.ndarray, kind: SampleKind, weight: float | None
) -> SurveySample:
    columns = {"x": population.x[idx], "y": population.y[idx]}
    if kind is SampleKind.PROBABILITY_A:
        columns["w"] = np.full(len(idx), weight)
        # y is retained for the simulation's gold-standard estimator only;
        # it is not declared as a response of the probability sample.
        return SurveySample(
            columns=columns,
            covariate_names=("x",),
            kind=kind,
            weight_name="w",
        )
    return SurveySample(
        columns=columns,
        covariate_names=("x",),
        kind=kind,
        response_name="y",
    )


def draw_srs(population: Population, n: int, seed) -> SurveySample:
    """Without-replacement uniform draw with weights N/n."""
    N = population.size
    if n > N:
        raise SampleTooLarge(n, N)
    rng = np.random.default_rng(seed)
    idx = rng.choice(N, size=n, replace=False)
    return _sample_from_indices(
        population, idx, SampleKind.PROBABILITY_A, weight=N / n
    )


def draw_stratified_b(population: Population, n_b: int, seed) -> SurveySample:
    """Hidden two-stratum draw: 70% from x <= 2, 30% from x > 2."""
    rng = np.random.default_rng(seed)
    n1 = round(0.7 * n_b)
    n2 = n_b - n1
    low, high = population.strata
    if len(low) < n1:
        raise StratumExhausted("x <= 2", n1, len(low))
    if len(high) < n2:
        raise StratumExhausted("x > 2", n2, len(high))
    idx1 = rng.choice(low, size=n1, replace=False)
    idx2 = rng.choice(high, size=n2, replace=False)
    idx = np.concatenate([idx1, idx2])
    return _sample_from_indices(population, idx, SampleKind.NON_PROBABILITY_B, None)


@dataclass(frozen=True)
class SimConfig:
    model_id: str
    population_size: int = 100_000
    n_a: int = 500
    n_b: int = 500
    reps: int = 1000
    bootstrap_L: int = 500
    master_seed: int = 0
    # reps run in up to this many forked processes, by default (and always
    # from the CLI) one per usable CPU; the report is the same for any value
    threads: int = field(default_factory=usable_cpus)

    def __post_init__(self):
        if self.model_id not in MODEL_IDS:
            raise ValidationError(f"unknown population model {self.model_id!r}")
        if self.reps < 2:
            raise ValidationError("reps must be at least 2")
        if self.bootstrap_L < 0:
            raise ValidationError("bootstrap_L must be at least 0")
        if self.master_seed < 0:
            raise ValidationError("master_seed must be a non-negative integer")
        if self.threads < 1:
            raise ValidationError("threads must be at least 1")
        if self.population_size < 1:
            raise ValidationError("population_size must be at least 1")
        if self.n_a < 2:
            raise ValidationError("n_a must be at least 2")
        if self.n_b < 2:
            raise ValidationError("n_b must be at least 2")
        if self.n_a + self.n_b > self.population_size:
            raise ValidationError("n_a + n_b exceeds the population size")


_ESTIMATOR_NAMES = ("theta_a", "theta_b", "theta_i", "theta_ipw")


def _rep_seed(master: int, rep: int, tag: int):
    return np.random.SeedSequence([master, rep, tag])


def _run_one_rep(population: Population, config: SimConfig, rep: int) -> dict:
    N = float(config.population_size)
    design_spec = srs_design(N)

    sample_a = draw_srs(
        population, config.n_a, _rep_seed(config.master_seed, rep, 0)
    )
    sample_b = draw_stratified_b(
        population, config.n_b, _rep_seed(config.master_seed, rep, 1)
    )
    design_a = build_design_matrix(sample_a, ("x",), intercept=True)
    design_b = build_design_matrix(sample_b, ("x",), intercept=True)

    out: dict = {
        "theta_a": float(np.mean(sample_a.columns["y"])),
        "theta_b": naive_mean(sample_b),
    }

    model = fit_model(ModelFamily.LINEAR, sample_b, design_b)
    out["theta_i"] = mass_imputation_estimate(
        model, sample_a, design_a, population_size=N
    )

    propensity = fit_propensity(sample_a, sample_b, design_a, design_b)
    out["theta_ipw"] = ipw_estimate(propensity, sample_b, design_b, N)

    lin = linearized_variance(
        model, sample_a, sample_b, design_a, design_b, design_spec, N
    )
    out["v_lin"] = lin.v_total

    L = config.bootstrap_L
    if L > 0:
        seed = int(_rep_seed(config.master_seed, rep, 2).generate_state(1)[0])
        betas, _ = bootstrap_refit(sample_b, model.family, design_b, L, seed)
        thetas = sample_a_estimates(model, sample_a, design_a, design_spec, betas,
                                    seed, N)
        out["v_boot"] = bootstrap_variance(out["theta_i"], thetas)
    return out


@dataclass
class SimReport:
    config: SimConfig
    theta_n: float
    estimators: dict
    variance_methods: dict
    failed_reps: int
    wall_clock_seconds: float
    per_rep: dict = field(default_factory=dict, repr=False)

    def to_dict(self) -> dict:
        # Wall-clock time is deliberately excluded so identical invocations
        # produce byte-identical reports.
        return {
            "version": __version__,
            "config": {
                "model": self.config.model_id,
                "population_size": self.config.population_size,
                "n_a": self.config.n_a,
                "n_b": self.config.n_b,
                "reps": self.config.reps,
                "bootstrap_L": self.config.bootstrap_L,
                "seed": self.config.master_seed,
            },
            "theta_n": self.theta_n,
            "estimators": self.estimators,
            "variance_methods": self.variance_methods,
            "failed_reps": self.failed_reps,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def run_monte_carlo(config: SimConfig) -> SimReport:
    """One fixed population, ``reps`` independent (A, B) draws, aggregated;
    contiguous ranges of reps run in up to ``config.threads`` processes."""
    start = perf_counter()
    population = generate_population(
        PopulationSpec(config.model_id, config.population_size, config.master_seed)
    )
    theta_n = population.mean

    def run_reps(reps: range) -> list:
        out = []
        for rep in reps:
            try:
                out.append(_run_one_rep(population, config, rep))
            except NumericalError:
                out.append(None)
        return out

    # a rep's refits run in its own process: bootstrap_refit's workers=1
    kept = [r for part in fork_map(run_reps, config.reps, config.threads)
            for r in part if r is not None]
    failed = config.reps - len(kept)
    # the Monte Carlo variance (ddof = 1) needs two reps
    if len(kept) < 2:
        raise NumericalError(
            f"{len(kept)} of {config.reps} simulation reps succeeded; at least 2 must"
        )

    per_rep = {name: np.array([r[name] for r in kept]) for name in kept[0]}
    mse = {
        name: float(np.mean((per_rep[name] - theta_n) ** 2))
        for name in _ESTIMATOR_NAMES
    }
    estimators = {
        name: {
            "bias": float(np.mean(per_rep[name]) - theta_n),
            "mc_variance": float(np.var(per_rep[name], ddof=1)),
            "mse": mse[name],
            "remse": 100.0 * mse[name] / mse["theta_a"],
        }
        for name in _ESTIMATOR_NAMES
    }

    mc_var_i = estimators["theta_i"]["mc_variance"]
    variance_methods = {
        method: {
            "mean": float(np.mean(per_rep[name])),
            "relative_bias": float(np.mean(per_rep[name]) / mc_var_i - 1.0),
        }
        for method, name in (("linearization", "v_lin"), ("bootstrap", "v_boot"))
        if name in per_rep
    }

    return SimReport(
        config=config,
        theta_n=theta_n,
        estimators=estimators,
        variance_methods=variance_methods,
        failed_reps=failed,
        wall_clock_seconds=perf_counter() - start,
        per_rep=per_rep,
    )


def write_per_rep_csv(report: SimReport, path) -> None:
    write_table(path, list(report.per_rep), list(report.per_rep.values()))
