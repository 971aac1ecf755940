"""The benchmark workloads: inputs, one unit of work, output checks.

Each workload makes its inputs from the seed in ``setup``, runs one fixed
unit of work in ``op`` and checks that unit's outputs in ``check``.  The
harness in ``run.py`` times ``setup`` and ``op``; ``check`` is never timed.
``check`` returns (operations attempted, operations failed, problems).

The simulate workloads call the library in this process.  The release
workload runs each ``massimpute`` subcommand as its own process, the way a
data producer runs it.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np

from massimpute import bootstrap, data_model, mean_model, simulation
from spans import peak_rss_mib

HERE = Path(__file__).resolve().parent
SPANS_SCRIPT = HERE / "spans.py"
REFERENCE_FILE = HERE / "reference.json"

# Wide enough for solver- or summation-order differences (~1e-14), far
# narrower than any statistical change (a changed resample moves a variance
# summary by about 1e-2 relative).
REL_TOL = 1e-9
ABS_TOL = 1e-12

CHILD_TIMEOUT_S = 150

# The paper's Monte Carlo configuration; one op runs `reps` reps of it.
SIM_CONFIGS = {
    "simulate-paper": {"reps": 8, "bootstrap_L": 500},
    "simulate-noboot": {"reps": 400, "bootstrap_L": 0},
}

LEVELS = np.array(["r", "a", "b"])
LEVEL_EFFECT = np.array([0.0, 0.5, -0.5])


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(simulation.__file__).resolve().parent.parent)
    for var in ("MASSIMPUTE_SEED", "MASSIMPUTE_THREADS"):
        env.pop(var, None)
    return env


def run_child(args, cwd: Path, report: Path | None = None,
              trace: bool = False) -> tuple[int, dict]:
    """Run one ``massimpute`` invocation as a process: (exit code, report).

    With ``report`` the process runs under spans.py, which writes its peak
    memory, and with ``trace`` its spans, to that file.
    """
    if report is None:
        cmd = [sys.executable, "-m", "massimpute.cli", *args]
    else:
        flags = ["--trace"] if trace else []
        cmd = [sys.executable, str(SPANS_SCRIPT), str(report), *flags, "--", *args]
    with open(cwd / "stderr.log", "ab") as err:
        proc = subprocess.Popen(
            cmd, cwd=cwd, env=child_env(), stdout=subprocess.DEVNULL, stderr=err
        )
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        proc.wait()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        watchdog.cancel()
    if report is None:
        return proc.returncode, {}
    try:
        with open(report) as fh:
            return proc.returncode, json.load(fh)
    except (OSError, ValueError):
        return proc.returncode, {}


def write_csv(path: Path, header, columns) -> None:
    # str() of a Python float is its shortest round-trip representation
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.write("".join(",".join(map(str, row)) + "\n" for row in zip(*columns)))


def write_inputs(directory: Path, seed: int, n_b: int, n_a: int, pop_size: float):
    """Sample B (x, g, y, z) and sample A (x, g, w) as CSV files.

    x is numeric and g categorical with reference level "r".  y is linear in
    (x, g); z is a 0/1 outcome on the logistic scale of a similar predictor,
    for the logistic family.  A carries SRS weights pop_size / n_a.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, n_b, n_a]))
    x = rng.normal(2.0, 1.0, n_b)
    g = rng.choice(3, n_b, p=[0.5, 0.3, 0.2])
    y = 1.0 + 2.0 * x + LEVEL_EFFECT[g] + rng.normal(0.0, 1.0, n_b)
    p = 1.0 / (1.0 + np.exp(1.0 - 0.8 * x - LEVEL_EFFECT[g]))
    z = (rng.random(n_b) < p).astype(float)
    write_csv(
        directory / "b.csv",
        ("x", "g", "y", "z"),
        (x.tolist(), LEVELS[g].tolist(), y.tolist(), z.tolist()),
    )
    xa = rng.normal(2.0, 1.0, n_a)
    ga = rng.choice(3, n_a, p=[0.4, 0.3, 0.3])
    w = np.full(n_a, pop_size / n_a)
    write_csv(
        directory / "a.csv",
        ("x", "g", "w"),
        (xa.tolist(), LEVELS[ga].tolist(), w.tolist()),
    )


def read_release(path: Path) -> dict:
    """The release file, parsed with ``np.loadtxt`` independently of the
    library's reader, with theta_hat and the bootstrap variance recomputed."""
    with open(str(path) + ".manifest.json") as fh:
        manifest = json.load(fh)
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    col = {name: i for i, name in enumerate(header)}
    L = manifest["L"]
    w = data[:, col[manifest["weight_name"]]]
    N = manifest["population_size"] or float(np.sum(w))
    theta = float(np.sum(w * data[:, col["yhat"]]) / N)
    rep_w = data[:, [col[f"w_rep_{k}"] for k in range(1, L + 1)]]
    rep_y = data[:, [col[f"yhat_rep_{k}"] for k in range(1, L + 1)]]
    thetas = np.sum(rep_w * rep_y, axis=0) / N
    return {"theta": theta, "v_boot": float(np.mean((thetas - theta) ** 2)),
            "L": L, "rep_w": rep_w, "rep_y": rep_y}


def read_report(path: Path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return {}


def check_bootstrap_report(report: dict, release: dict, label: str) -> list[str]:
    """Compare an ``estimate --variance bootstrap`` report with the file."""
    theta, v_boot, L = release["theta"], release["v_boot"], release["L"]
    var = report.get("variance") or {}
    problems = []
    if not close(report.get("theta_hat", math.nan), theta):
        problems.append(f"{label}: theta_hat {report.get('theta_hat')} != {theta}")
    if not close(var.get("v_total", math.nan), v_boot):
        problems.append(f"{label}: v_total {var.get('v_total')} != {v_boot}")
    if var.get("L") != L:
        problems.append(f"{label}: L {var.get('L')} != {L}")
    return problems


class Simulate:
    """``run_monte_carlo`` on model I, n_A = n_B = 500, threads = 1."""

    in_process = True

    def __init__(self, name: str, seed: int):
        with open(REFERENCE_FILE) as fh:
            recorded = json.load(fh)[name]
        if recorded["config"] != SIM_CONFIGS[name]:
            raise RuntimeError(f"{REFERENCE_FILE.name} was recorded for another "
                               f"{name} config; rerun record_reference.py")
        # The references cover a fixed set of master seeds; every benchmark
        # seed maps onto one of them.
        keys = sorted(recorded["seeds"], key=int)
        master = int(keys[seed % len(keys)])
        self.reference = recorded["seeds"][str(master)]
        self.config = simulation.SimConfig(
            model_id="I", master_seed=master, threads=1, **SIM_CONFIGS[name]
        )

    def setup(self) -> None:
        spec = simulation.PopulationSpec(
            "I", self.config.population_size, self.config.master_seed
        )
        simulation.generate_population(spec)
        simulation.run_monte_carlo(replace(self.config, reps=2))

    def op(self, threads: int = 1):
        return simulation.run_monte_carlo(replace(self.config, threads=threads))

    def check(self, report) -> tuple[int, int, list[str]]:
        reps = self.config.reps
        problems = compare(summary(report), self.reference, "report")
        # a study whose summary is wrong has no correct rep in it
        return reps, reps if problems else 0, problems

    def same_report(self, first, second) -> list[str]:
        """The threads = 2 report must equal the threads = 1 report exactly."""
        problems = []
        if first.to_dict() != second.to_dict():
            problems.append("threads=2 report differs from threads=1 report")
        for name, values in first.per_rep.items():
            if not np.array_equal(values, second.per_rep.get(name)):
                problems.append(f"threads=2 per-rep {name} differs")
        return problems

    def peak_rss_mib(self) -> float:
        return peak_rss_mib()

    def rates(self, wall_s: float) -> dict:
        out = {"reps_per_s": (self.config.reps / wall_s, "1/s")}
        if self.config.bootstrap_L:
            refits = self.config.reps * self.config.bootstrap_L
            out["refits_per_s"] = (refits / wall_s, "1/s")
        return out


def summary(report) -> dict:
    doc = report.to_dict()
    return {key: doc[key] for key in
            ("theta_n", "estimators", "variance_methods", "failed_reps")}


def compare(found, expected, where: str) -> list[str]:
    """Recursive comparison: numbers within the tolerance, the rest exactly."""
    if isinstance(expected, dict):
        if not isinstance(found, dict) or set(found) != set(expected):
            return [f"{where}: keys differ"]
        return [p for key in expected
                for p in compare(found[key], expected[key], f"{where}.{key}")]
    if isinstance(expected, float):
        if isinstance(found, (int, float)) and close(found, expected):
            return []
    elif found == expected:
        return []
    return [f"{where}: {found!r} != reference {expected!r}"]


class ReleaseBuild:
    """fit -> impute -> estimate (linearized) -> bootstrap -> estimate
    (bootstrap) at n_B = 200k, n_A = 2k, L = 100, for two families."""

    in_process = False
    n_b, n_a, L, pop_size = 200_000, 2_000, 100, 1_000_000
    families = (("linear", "y"), ("logistic", "z"))
    covariates = ["--covariates", "x,g", "--categorical", "g=r"]

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.dir = workdir
        self.peak_mib = 0.0
        self.linear_replicates = None

    def child(self, args, span_dir: Path | None, name: str) -> int:
        """One subcommand; with ``span_dir`` traced, its report written there."""
        report = (span_dir or self.dir) / f"{name}.report.json"
        code, doc = run_child(args, self.dir, report, trace=span_dir is not None)
        self.peak_mib = max(self.peak_mib, doc.get("peak_rss_mib", 0.0))
        return code

    def peak_rss_mib(self) -> float:
        return self.peak_mib

    def setup(self) -> None:
        write_inputs(self.dir, self.seed, self.n_b, self.n_a, self.pop_size)
        run_child(["--version"], self.dir)

    def library_replicates(self) -> tuple[np.ndarray, np.ndarray]:
        """The linear family's replicate columns built in this process.

        The CLI's own reports cannot reveal a wrong replicate column in the
        release file, since the estimate reads back what the bootstrap wrote.
        Built once per run, on the first check, outside any timing.
        """
        if self.linear_replicates is None:
            schema = dict(covariates=("x", "g"), categoricals={"g": "r"})
            b = data_model.load_sample(
                self.dir / "b.csv", data_model.ColumnSchema(response="y", **schema),
                data_model.SampleKind.NON_PROBABILITY_B)
            a = data_model.load_sample(
                self.dir / "a.csv", data_model.ColumnSchema(weight="w", **schema),
                data_model.SampleKind.PROBABILITY_A)
            design_b = data_model.build_design_matrix(b, b.covariate_names)
            design_a = data_model.build_design_matrix(a, a.covariate_names)
            model = mean_model.fit_model(mean_model.ModelFamily.LINEAR, b, design_b)
            replicates = bootstrap.build_replicates(
                model, a, b, design_a, design_b,
                data_model.ppswr_design(self.pop_size), self.L, self.seed)
            self.linear_replicates = (
                replicates.replicate_weights, replicates.replicate_imputations)
        return self.linear_replicates

    def steps(self, family: str, response: str):
        model, imputed = f"model_{family}.json", f"imputed_{family}.csv"
        release = f"release_{family}.csv"
        pop = ["--pop-size", str(self.pop_size)]
        yield "fit", ["fit", "--train", "b.csv", "--response", response,
                      *self.covariates, "--family", family, "--out", model]
        yield "impute", ["impute", "--model", model, "--sample-a", "a.csv",
                         "--weight", "w", "--out", imputed]
        yield "estimate-linearized", [
            "estimate", "--imputed", imputed, "--variance", "linearized",
            "--train", "b.csv", "--design", "ppswr", *pop,
            "--report", f"report_linearized_{family}.json"]
        yield "bootstrap", [
            "bootstrap", "--train", "b.csv", "--response", response,
            *self.covariates, "--family", family, "--sample-a", "a.csv",
            "--weight", "w", *pop, "--L", str(self.L), "--seed", str(self.seed),
            "--out", release]
        yield "estimate-bootstrap", [
            "estimate", "--imputed", release, "--variance", "bootstrap",
            "--report", f"report_bootstrap_{family}.json"]

    def op(self, span_dir: Path | None = None) -> dict:
        # no output of an earlier operation may pass this one's check
        for family, _ in self.families:
            for name in (f"model_{family}.json", f"imputed_{family}.csv",
                         f"release_{family}.csv", f"report_linearized_{family}.json",
                         f"report_bootstrap_{family}.json"):
                (self.dir / name).unlink(missing_ok=True)
        return {
            (family, step): self.child(args, span_dir, f"{family}-{step}")
            for family, response in self.families
            for step, args in self.steps(family, response)
        }

    def check(self, codes: dict) -> tuple[int, int, list[str]]:
        problems = [f"{family} {step}: exit {code}"
                    for (family, step), code in codes.items() if code]
        failed = {key for key, code in codes.items() if code}
        for family, _ in self.families:
            lin = read_report(self.dir / f"report_linearized_{family}.json")
            boot = read_report(self.dir / f"report_bootstrap_{family}.json")
            found = []
            if not close(lin.get("theta_hat", math.nan),
                         boot.get("theta_hat", math.nan)):
                found.append(f"{family}: linearized theta_hat "
                             f"{lin.get('theta_hat')} != bootstrap theta_hat "
                             f"{boot.get('theta_hat')}")
            try:
                release = read_release(self.dir / f"release_{family}.csv")
            except (OSError, ValueError, KeyError) as exc:
                found.append(f"{family}: release file unreadable: {exc}")
            else:
                if release["L"] != self.L:
                    found.append(f"{family}: release file has L = {release['L']}")
                found += check_bootstrap_report(boot, release, family)
                if family == "linear" and release["L"] == self.L:
                    rep_w, rep_y = self.library_replicates()
                    for name, found_cols, expected_cols in (
                            ("w_rep", release["rep_w"], rep_w),
                            ("yhat_rep", release["rep_y"], rep_y)):
                        if not np.allclose(found_cols, expected_cols,
                                           rtol=REL_TOL, atol=ABS_TOL):
                            found.append(f"linear: release {name} columns differ "
                                         "from build_replicates in process")
            if found:
                problems += found
                failed.add((family, "estimate-bootstrap"))
        return len(codes), len(failed), problems

    def rates(self, wall_s: float) -> dict:
        refits = self.L * len(self.families)
        return {"refits_per_s": (refits / wall_s, "1/s")}


WORKLOADS = {
    "simulate-paper": lambda seed, _: Simulate("simulate-paper", seed),
    "simulate-noboot": lambda seed, _: Simulate("simulate-noboot", seed),
    "release-build": ReleaseBuild,
}
