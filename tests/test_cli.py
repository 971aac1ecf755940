"""Command-line interface: pipelines, reports, determinism, exit codes."""

import contextlib
import csv
import dataclasses
import io
import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import massimpute
from massimpute import (
    ColumnSchema,
    ModelFamily,
    SampleKind,
    bootstrap_refit,
    build_design_matrix,
    build_replicates,
    fit_model,
    load_sample,
    ppswr_design,
    write_augmented_dataset,
)
from massimpute.bootstrap import manifest_path
from massimpute.cli import run_cli
from massimpute.errors import NumericalError
from massimpute.table import write_json

from conftest import make_sample_b, write_csv


def _write_b(path, x, y):
    return write_csv(
        path, ["x", "y"], [[repr(float(a)), repr(float(b))] for a, b in zip(x, y)]
    )


def _write_a(path, x, w):
    return write_csv(
        path, ["x", "w"], [[repr(float(a)), repr(float(b))] for a, b in zip(x, w)]
    )


@pytest.fixture
def pipeline_files(tmp_path, rng):
    x_b = rng.normal(2, 1, size=60)
    y_b = 1 + 2 * x_b + rng.normal(size=60)
    x_a = rng.normal(2, 1, size=40)
    w = np.full(40, 25.0)
    return {
        "train": str(_write_b(tmp_path / "b.csv", x_b, y_b)),
        "sample_a": str(_write_a(tmp_path / "a.csv", x_a, w)),
        "dir": tmp_path,
        "x_a": x_a,
        "w": w,
    }


class TestFit:
    def test_noiseless_two_point_line(self, tmp_path):
        train = _write_b(tmp_path / "b.csv", [0.0, 1.0], [1.0, 3.0])
        out = tmp_path / "model.json"
        code = run_cli([
            "fit", "--train", str(train), "--response", "y",
            "--covariates", "x", "--out", str(out),
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        np.testing.assert_allclose(doc["beta_hat"], [1.0, 2.0], atol=1e-10)
        assert doc["family"] == "linear"
        assert doc["covariate_names"] == ["(intercept)", "x"]
        assert str(train) in doc["input_digests"]

    def test_duplicate_covariate_exits_4(self, tmp_path, capsys):
        # x2 repeats x under another name; a name typed twice exits 2
        train = write_csv(tmp_path / "b.csv", ["x", "x2", "y"],
                          [[0.0, 0.0, 1.0], [1.0, 1.0, 3.0], [2.0, 2.0, 5.0]])
        code = run_cli([
            "fit", "--train", str(train), "--response", "y",
            "--covariates", "x,x2", "--out", str(tmp_path / "m.json"),
        ])
        assert code == 4
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "RankDeficient"

    def test_covariate_constant_to_rounding_exits_4(self, tmp_path, capsys, rng):
        x = 3.0 + rng.normal(0.0, 1e-12, size=500)
        train = _write_b(tmp_path / "b.csv", x, rng.normal(size=500))
        code = run_cli([
            "fit", "--train", str(train), "--response", "y",
            "--covariates", "x", "--out", str(tmp_path / "m.json"),
        ])
        assert code == 4
        assert json.loads(capsys.readouterr().err)["error"] == "RankDeficient"

    @pytest.mark.filterwarnings("ignore::massimpute.errors.OverflowGuardWarning")
    def test_separated_logistic_fit_exits_4(self, tmp_path, capsys, rng):
        # y = 1{x > 0}: the fitted predictor classifies every unit, so no
        # finite fit exists, whether or not every probability is pinned
        x = rng.normal(size=200)
        train = _write_b(tmp_path / "b.csv", x, (x > 0).astype(float))
        code = run_cli([
            "fit", "--train", str(train), "--response", "y", "--covariates", "x",
            "--family", "logistic", "--out", str(tmp_path / "m.json"),
        ])
        assert code == 4
        assert json.loads(capsys.readouterr().err)["error"] == "Separation"
        assert not (tmp_path / "m.json").exists()

    def test_separated_fit_prints_one_json_object(self, tmp_path):
        # the fit's iterates saturate the exponent, and the library warns of
        # it: under Python's default warning filters, in a process of its
        # own, stderr still holds the JSON error and nothing else
        x = np.random.default_rng(1).normal(0, 1, 200)
        _write_b(tmp_path / "b.csv", x, (x > 0).astype(float))
        env = {name: value for name, value in os.environ.items()
               if name not in ("PYTHONWARNINGS", "PYTHONDEVMODE")}
        env["PYTHONPATH"] = str(pathlib.Path(massimpute.__file__).parent.parent)
        done = subprocess.run(
            [sys.executable, "-m", "massimpute.cli", "fit", "--train", "b.csv",
             "--response", "y", "--covariates", "x", "--family", "logistic",
             "--out", "m.json"],
            cwd=tmp_path, env=env, capture_output=True, text=True,
        )
        assert done.returncode == 4
        assert json.loads(done.stderr)["error"] == "Separation"
        assert done.stdout == "" and not (tmp_path / "m.json").exists()

    def test_missing_column_exits_3(self, tmp_path, capsys):
        train = _write_b(tmp_path / "b.csv", [0.0, 1.0], [1.0, 3.0])
        code = run_cli([
            "fit", "--train", str(train), "--response", "z",
            "--covariates", "x", "--out", str(tmp_path / "m.json"),
        ])
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "MissingColumn"

    def test_usage_error_exits_2(self, capsys):
        assert run_cli(["fit", "--train", "b.csv"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "UsageError"
        assert "--response" in err["message"]


class TestPipeline:
    def _fit_impute(self, files):
        model = files["dir"] / "model.json"
        imputed = files["dir"] / "imputed.csv"
        assert run_cli([
            "fit", "--train", files["train"], "--response", "y",
            "--covariates", "x", "--out", str(model),
        ]) == 0
        assert run_cli([
            "impute", "--model", str(model), "--sample-a", files["sample_a"],
            "--weight", "w", "--out", str(imputed),
        ]) == 0
        return model, imputed

    def test_impute_predictions_match_model(self, pipeline_files):
        model, imputed = self._fit_impute(pipeline_files)
        doc = json.loads(model.read_text())
        beta = np.array(doc["beta_hat"])
        data = np.genfromtxt(imputed, delimiter=",", names=True, deletechars="")
        expected = beta[0] + beta[1] * pipeline_files["x_a"]
        np.testing.assert_allclose(data["yhat"], expected, atol=1e-12)

    def test_estimate_point_and_linearized(self, pipeline_files):
        model, imputed = self._fit_impute(pipeline_files)
        report = pipeline_files["dir"] / "report.json"
        assert run_cli([
            "estimate", "--imputed", str(imputed), "--variance", "linearized",
            "--train", pipeline_files["train"], "--design", "srs",
            "--pop-size", "1000", "--report", str(report),
        ]) == 0
        doc = json.loads(report.read_text())
        data = np.genfromtxt(imputed, delimiter=",", names=True, deletechars="")
        expected_theta = float(np.sum(data["w"] * data["yhat"]) / 1000.0)
        assert doc["theta_hat"] == pytest.approx(expected_theta, abs=1e-12)
        assert doc["variance"]["method"] == "linearized"
        assert doc["variance"]["v_total"] > 0.0
        assert doc["population_size_used"] == 1000.0

    def test_linearized_reads_imputed_file_once(self, pipeline_files, monkeypatch):
        from massimpute import bootstrap, data_model

        _, imputed = self._fit_impute(pipeline_files)
        reads = []
        for module in (bootstrap, data_model):
            def counted(path, *args, _read=module.read_columns, **kwargs):
                reads.append(str(path))
                return _read(path, *args, **kwargs)
            monkeypatch.setattr(module, "read_columns", counted)
        assert run_cli([
            "estimate", "--imputed", str(imputed), "--variance", "linearized",
            "--train", pipeline_files["train"],
            "--report", str(pipeline_files["dir"] / "report.json"),
        ]) == 0
        assert sorted(reads) == sorted([str(imputed), pipeline_files["train"]])


class TestBootstrapCommand:
    def test_release_file_supports_estimation_without_b(self, pipeline_files):
        out = pipeline_files["dir"] / "aug.csv"
        assert run_cli([
            "bootstrap", "--train", pipeline_files["train"],
            "--response", "y", "--covariates", "x",
            "--sample-a", pipeline_files["sample_a"], "--weight", "w",
            "--pop-size", "1000", "--L", "30", "--seed", "5",
            "--out", str(out),
        ]) == 0

        from massimpute import (
            bootstrap_variance,
            ht_mean,
            read_augmented_dataset,
            replicate_estimates,
        )

        dataset = read_augmented_dataset(out)
        N = dataset.population_size_used()
        theta_mem = ht_mean(dataset.yhat, dataset.weights, N)
        v_mem = bootstrap_variance(theta_mem, replicate_estimates(dataset, N))

        report = pipeline_files["dir"] / "report.json"
        assert run_cli([
            "estimate", "--imputed", str(out), "--variance", "bootstrap",
            "--report", str(report),
        ]) == 0
        doc = json.loads(report.read_text())
        assert doc["theta_hat"] == pytest.approx(theta_mem, abs=1e-12)
        assert doc["variance"]["v_total"] == pytest.approx(v_mem, abs=1e-12)
        assert doc["variance"]["L"] == 30
        assert doc["n_b"] == 0

        point = pipeline_files["dir"] / "point.json"
        assert run_cli([
            "estimate", "--imputed", str(out), "--report", str(point),
        ]) == 0
        assert json.loads(point.read_text())["theta_hat"] == doc["theta_hat"]

    def test_point_estimate_uses_release_population_size(self, pipeline_files):
        # the weights total 1000, so a point estimate over the weight total
        # would differ from the bootstrap branch's
        out = pipeline_files["dir"] / "aug.csv"
        assert run_cli([
            "bootstrap", "--train", pipeline_files["train"],
            "--response", "y", "--covariates", "x",
            "--sample-a", pipeline_files["sample_a"], "--weight", "w",
            "--pop-size", "1500", "--L", "10", "--seed", "5", "--out", str(out),
        ]) == 0
        docs = []
        for variance in ("none", "bootstrap"):
            report = pipeline_files["dir"] / f"{variance}.json"
            assert run_cli([
                "estimate", "--imputed", str(out), "--variance", variance,
                "--report", str(report),
            ]) == 0
            docs.append(json.loads(report.read_text()))
        assert docs[0]["population_size_used"] == 1500.0
        assert docs[1]["population_size_used"] == 1500.0
        assert docs[0]["theta_hat"] == docs[1]["theta_hat"]

    @pytest.mark.filterwarnings("ignore::massimpute.errors.OverflowGuardWarning")
    def test_manifest_records_redraws(self, pipeline_files):
        # y = 1{x > 0} with the two middle labels swapped: a resample that
        # misses either of them is separated and is redrawn
        x = np.linspace(-1.0, 1.0, 20)
        y = (x > 0).astype(float)
        y[9], y[10] = y[10], y[9]
        train = _write_b(pipeline_files["dir"] / "sep.csv", x, y)
        out = pipeline_files["dir"] / "aug.csv"
        assert run_cli([
            "bootstrap", "--train", str(train), "--response", "y",
            "--covariates", "x", "--family", "logistic",
            "--sample-a", pipeline_files["sample_a"], "--weight", "w",
            "--L", "20", "--seed", "11", "--out", str(out),
        ]) == 0
        sample = make_sample_b(x, y)
        design = build_design_matrix(sample, ("x",), intercept=True)
        _, redraws = bootstrap_refit(sample, ModelFamily.LOGISTIC, design, 20, 11)
        assert redraws > 0
        manifest = json.loads(pathlib.Path(manifest_path(out)).read_text())
        assert manifest["redraws"] == redraws


    def test_first_replicate_columns_do_not_depend_on_L(self, tmp_path, rng):
        x_b = rng.normal(2, 1, size=500)
        train = _write_b(tmp_path / "b.csv", x_b, 1 + 2 * x_b + rng.normal(size=500))
        sample_a = _write_a(tmp_path / "a.csv", rng.normal(2, 1, size=2000),
                            np.full(2000, 500.0))
        first = {}
        for L in ("1", "2"):
            out = tmp_path / f"release_{L}.csv"
            assert run_cli([
                "bootstrap", "--train", str(train), "--response", "y",
                "--covariates", "x", "--sample-a", str(sample_a), "--weight", "w",
                "--L", L, "--seed", "851", "--out", str(out),
            ]) == 0
            with open(out, newline="") as fh:
                rows = list(csv.DictReader(fh))
            first[L] = [(row["w_rep_1"], row["yhat_rep_1"]) for row in rows]
        assert first["1"] == first["2"]

    @pytest.mark.parametrize("family, response", [("linear", "y"), ("logistic", "z")])
    def test_sample_b_released_before_sample_a_replicates(
            self, pipeline_files, monkeypatch, rng, family, response):
        from massimpute import bootstrap, cli

        x = rng.normal(2, 1, size=300)
        y = 1 + 2 * x + rng.normal(size=300)
        z = (rng.random(300) < 1 / (1 + np.exp(2 - x))).astype(float)
        train = write_csv(pipeline_files["dir"] / "b3.csv", ["x", "y", "z"],
                          [[repr(a), repr(b), repr(c)] for a, b, c in zip(x.tolist(), y.tolist(), z.tolist())])
        held, alive = [], []

        def refit(sample_b, family, design_b, *args, _refit=cli.bootstrap_refit):
            held.extend(weakref.ref(v) for v in (sample_b, design_b, sample_b.design_rows))
            return _refit(sample_b, family, design_b, *args)

        # sample A's replicate weights and imputations come from replicate_blocks
        def blocks(*args, _blocks=bootstrap.replicate_blocks):
            alive.append([ref() is not None for ref in held])
            return _blocks(*args)

        monkeypatch.setattr(cli, "bootstrap_refit", refit)
        monkeypatch.setattr(bootstrap, "replicate_blocks", blocks)
        out = pipeline_files["dir"] / "aug.csv"
        assert run_cli([
            "bootstrap", "--train", str(train), "--response", response,
            "--covariates", "x", "--family", family,
            "--sample-a", pipeline_files["sample_a"], "--weight", "w",
            "--pop-size", "1000", "--L", "12", "--seed", "5", "--out", str(out),
        ]) == 0
        assert len(held) == 3 and alive == [[False] * 3]

        # the same release file from build_replicates, which holds B throughout
        monkeypatch.undo()
        schema = ColumnSchema(("x",), response)
        sample_b = load_sample(train, schema, SampleKind.NON_PROBABILITY_B)
        design_b = build_design_matrix(sample_b, ("x",))
        model = fit_model(ModelFamily(family), sample_b, design_b)
        sample_a = load_sample(pipeline_files["sample_a"], ColumnSchema(("x",), weight="w"),
                               SampleKind.PROBABILITY_A)
        replicates = build_replicates(
            model, sample_a, sample_b, build_design_matrix(sample_a, ("x",)), design_b,
            ppswr_design(1000.0), 12, 5)
        expected = pipeline_files["dir"] / "expected.csv"
        write_augmented_dataset(sample_a, replicates, model, expected, population_size=1000.0)
        assert out.read_bytes() == expected.read_bytes()
        assert (pathlib.Path(manifest_path(out)).read_bytes()
                == pathlib.Path(manifest_path(expected)).read_bytes())


class TestSimulateCommand:
    _ARGS = ["simulate", "--model", "I", "--pop-size", "4000", "--n-a", "80",
             "--n-b", "80", "--reps", "6", "--boot-l", "10", "--seed", "3"]

    def test_report_written(self, tmp_path):
        report = tmp_path / "sim.json"
        per_rep = tmp_path / "per_rep.csv"
        assert run_cli([*self._ARGS, "--report", str(report),
                        "--per-rep", str(per_rep)]) == 0
        doc = json.loads(report.read_text())
        assert doc["config"]["seed"] == 3
        assert doc["failed_reps"] == 0
        rows = per_rep.read_text().strip().splitlines()
        assert rows[0].split(",") == [
            "theta_a", "theta_b", "theta_i", "theta_ipw", "v_lin", "v_boot"
        ]
        assert len(rows) == 7

    def test_threads_byte_identical(self, tmp_path):
        # simulate runs a worker per usable CPU: pinned to one CPU it runs
        # serially, so its report and per-rep CSV are those of one process
        env = {**os.environ,
               "PYTHONPATH": str(pathlib.Path(massimpute.__file__).parent.parent)}
        cpu = min(os.sched_getaffinity(0))
        files = {}
        for name, pin in (("serial", True), ("parallel", False)):
            subprocess.run(
                [sys.executable, "-m", "massimpute.cli", *self._ARGS,
                 "--report", f"{name}.json", "--per-rep", f"{name}.csv"],
                cwd=tmp_path, env=env, check=True,
                preexec_fn=(lambda: os.sched_setaffinity(0, {cpu})) if pin else None,
            )
            files[name] = [(tmp_path / f"{name}.{ext}").read_bytes()
                           for ext in ("json", "csv")]
        assert files["serial"] == files["parallel"]


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["--version"])
    assert exc.value.code == 0
    from massimpute import __version__

    assert capsys.readouterr().out.strip() == __version__


def test_config_file_supplies_defaults(tmp_path):
    train = _write_b(tmp_path / "b.csv", [0.0, 1.0, 2.0], [1.0, 3.0, 5.0])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"response": "y", "covariates": "x"}))
    out = tmp_path / "model.json"
    code = run_cli([
        "--config", str(cfg), "fit", "--train", str(train), "--out", str(out),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    np.testing.assert_allclose(doc["beta_hat"], [1.0, 2.0], atol=1e-10)


@pytest.mark.parametrize("command, config", [
    ("fit", {"family": "probit"}),
    ("bootstrap", {"L": 5.5}),
    ("fit", {"covariates": ["x"]}),
    ("simulate", {"reps": 3.7}),
    ("bootstrap", {"sed": 5}),
    ("estimate", {"variance": "bogus"}),
    ("estimate", {"variance": "linearized", "design": "cluster"}),
    ("bootstrap", {"seed": 2.5}),
    ("fit", {"covariates": ["x", "y"]}),
    ("fit", {"family": {"name": "linear"}}),
    ("fit", {"model": "I"}),
], ids=lambda v: v if isinstance(v, str) else json.dumps(v))
def test_bad_config_value_exits_2(command, config, pipeline_files, capsys):
    files, d = pipeline_files, pipeline_files["dir"]
    fit = ["--train", files["train"], "--response", "y"]
    if "covariates" not in config:
        fit += ["--covariates", "x"]
    model, imputed, out = d / "model.json", d / "imputed.csv", d / "out"
    if command == "estimate":
        assert run_cli(["fit", *fit, "--out", str(model)]) == 0
        assert run_cli(["impute", "--model", str(model), "--sample-a",
                        files["sample_a"], "--weight", "w",
                        "--out", str(imputed)]) == 0
    argv = {
        "fit": ["fit", *fit, "--out", str(out)],
        "bootstrap": ["bootstrap", *fit, "--sample-a", files["sample_a"],
                      "--weight", "w", "--out", str(out)],
        "estimate": ["estimate", "--imputed", str(imputed), "--train",
                     files["train"], "--report", str(out)],
        "simulate": ["simulate", "--model", "I", "--pop-size", "2000",
                     "--n-a", "50", "--n-b", "50", "--boot-l", "0",
                     "--report", str(out)],
    }[command]
    cfg = d / "cfg.json"
    cfg.write_text(json.dumps(config))
    before = sorted(d.iterdir())
    capsys.readouterr()
    assert run_cli(["--config", str(cfg), *argv]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "UsageError"
    assert sorted(d.iterdir()) == before


@pytest.mark.parametrize("argv, message", [
    pytest.param(["fit", "--train", "b.csv", "--response", "y", "--out", "m.json"],
                 "required: --covariates", id="missing flag"),
    pytest.param(["fit", "--train", "b.csv", "--response", "y", "--covariates", "x",
                  "--family", "probit", "--out", "m.json"],
                 "invalid choice: 'probit'", id="bad family"),
    pytest.param(["simulate", "--model", "I", "--pop-size", "2000", "--n-a", "50",
                  "--n-b", "50", "--boot-l", "0", "--reps", "2.5",
                  "--report", "s.json"],
                 "invalid integer value: '2.5'", id="reps 2.5"),
    pytest.param(["fit", "--train", "b.csv", "--response", "y", "--covariates", "x",
                  "--bogus", "--out", "m.json"],
                 "unrecognized arguments: --bogus", id="unknown flag"),
    pytest.param(["estimate", "--imp", "i.csv", "--report", "r.json"],
                 "required: --imputed", id="abbreviated flag"),
    pytest.param(["bogus", "--out", "m.json"], "invalid choice: 'bogus'",
                 id="unknown subcommand"),
    pytest.param(["--config"], "--config: expected one argument",
                 id="config without value"),
    # the model's schema fixes every categorical column and its level
    pytest.param(["impute", "--model", "m.json", "--sample-a", "b.csv", "--weight", "w",
                  "--categorical", "g=r", "--out", "i.csv"],
                 "unrecognized arguments: --categorical", id="impute categorical"),
    # the pre-parser for --config must not leave cfg.json to be read as the
    # subcommand
    pytest.param(["--conf", "cfg.json", "fit", "--train", "b.csv", "--response", "y",
                  "--covariates", "x", "--out", "m.json"],
                 "unrecognized arguments: --conf", id="abbreviated config"),
])
def test_parser_errors_exit_2_with_json(argv, message, tmp_path, monkeypatch,
                                        capsys):
    # every argparse rejection is a usage error, not argparse's usage text
    write_csv(tmp_path / "b.csv", ["x", "y"], [[0.0, 1.0], [1.0, 3.0], [2.0, 4.0]])
    monkeypatch.chdir(tmp_path)
    before = sorted(tmp_path.iterdir())
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)
    assert error["error"] == "UsageError"
    assert message in error["message"]
    assert sorted(tmp_path.iterdir()) == before


def _config_case(case, train, sample_a, out):
    """The config, the argv that goes with it, and the same run typed out."""
    fit = ["--train", train, "--response", "y", "--covariates", "x"]
    boot = ["bootstrap", *fit, "--sample-a", sample_a, "--weight", "w",
            "--L", "5", "--seed", "7"]
    if case == "required flags":
        config = {"train": train, "response": "y", "covariates": "x",
                  "out": str(out)}
        return config, ["fit"], ["fit", *fit]
    if case == "no_intercept":
        return {"no_intercept": True}, ["fit", *fit], ["fit", *fit, "--no-intercept"]
    if case == "categorical list":
        fit[-1] = "x,g"
        return ({"categorical": ["g=r"]}, ["fit", *fit],
                ["fit", *fit, "--categorical", "g=r"])
    if case == "typed seed wins":
        return {"seed": 5}, boot, boot
    if case == "empty list":
        return {"categorical": []}, ["fit", *fit], ["fit", *fit]
    raise AssertionError(case)


@pytest.mark.parametrize("case", [
    "required flags", "no_intercept", "categorical list", "typed seed wins",
    "empty list",
])
def test_config_keys_parse_as_flags(case, tmp_path, rng):
    train, sample_a = _level_files(tmp_path, rng, ["r", "a", "b"], ["r", "a", "b"])
    via_config, typed = tmp_path / "config.out", tmp_path / "typed.out"
    config, argv, typed_argv = _config_case(case, train, sample_a, via_config)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    if "out" not in config:
        argv = [*argv, "--out", str(via_config)]
    assert run_cli(["--config", str(cfg), *argv]) == 0
    assert run_cli([*typed_argv, "--out", str(typed)]) == 0
    assert via_config.read_bytes() == typed.read_bytes()
    if case == "typed seed wins":
        manifests = [pathlib.Path(manifest_path(p)) for p in (via_config, typed)]
        assert manifests[0].read_bytes() == manifests[1].read_bytes()
        assert json.loads(manifests[0].read_text())["seed"] == 7


def _levels_file(path, header, rows):
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([header, *rows])
    return str(path)


def _level_files(tmp_path, rng, levels_b, levels_a, x_name="x"):
    """Sample B (x, g, y) and sample A (x, g, w) with categorical g."""
    effect = dict(zip(levels_b, [0.0, 0.5, -0.5]))
    g_b = [levels_b[i % 3] for i in range(60)]
    x_b = rng.normal(2, 1, size=60)
    y_b = 1 + 2 * x_b + np.array([effect[g] for g in g_b]) + rng.normal(size=60)
    g_a = [levels_a[i % len(levels_a)] for i in range(30)]
    x_a = rng.normal(2, 1, size=30)
    train = _levels_file(
        tmp_path / "b.csv", [x_name, "g", "y"],
        [[repr(x), g, repr(y)] for x, g, y in zip(x_b.tolist(), g_b, y_b.tolist())],
    )
    sample_a = _levels_file(
        tmp_path / "a.csv", [x_name, "g", "w"],
        [[repr(x), g, "30.0"] for x, g in zip(x_a.tolist(), g_a)],
    )
    return train, sample_a


def test_bootstrap_rejects_level_missing_from_b(tmp_path, rng, capsys):
    train, sample_a = _level_files(tmp_path, rng, ["r", "a", "b"], ["r", "a", "c"])
    code = run_cli([
        "bootstrap", "--train", train, "--response", "y",
        "--covariates", "x,g", "--categorical", "g=r",
        "--sample-a", sample_a, "--weight", "w", "--L", "5",
        "--out", str(tmp_path / "aug.csv"),
    ])
    assert code == 3
    assert "g=b" in json.loads(capsys.readouterr().err)["message"]


def test_level_missing_from_b_exits_3(tmp_path, rng, capsys):
    train, sample_a = _level_files(
        tmp_path, rng, ["r", "a", "b"], ["r", "a", "b", "c"]
    )
    fit_args = [
        "--train", train, "--response", "y",
        "--covariates", "x,g", "--categorical", "g=r",
    ]
    model = str(tmp_path / "model.json")
    assert run_cli(["fit", *fit_args, "--out", model]) == 0
    capsys.readouterr()
    for argv in (
        ["impute", "--model", model, "--sample-a", sample_a, "--weight", "w",
         "--out", str(tmp_path / "imputed.csv")],
        ["bootstrap", *fit_args, "--sample-a", sample_a, "--weight", "w",
         "--L", "5", "--out", str(tmp_path / "aug.csv")],
    ):
        assert run_cli(argv) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValidationError"
        assert "g=c" in err["message"]
    assert not (tmp_path / "imputed.csv").exists()
    assert not (tmp_path / "aug.csv").exists()


def test_train_level_missing_from_model_exits_3(tmp_path, rng, capsys):
    # a level of --train that the fit's sample B never saw has no
    # coefficient: the linearized variance refuses it, and does not read
    # those rows as the reference level
    train, sample_a = _level_files(tmp_path, rng, ["r", "a", "b"], ["r", "a", "b"])
    model, imputed = str(tmp_path / "model.json"), str(tmp_path / "imputed.csv")
    assert run_cli(["fit", "--train", train, "--response", "y", "--covariates", "x,g",
                    "--categorical", "g=r", "--out", model]) == 0
    assert run_cli(["impute", "--model", model, "--sample-a", sample_a,
                    "--weight", "w", "--out", imputed]) == 0
    with open(train, newline="") as fh:
        rows = list(csv.reader(fh))
    for row in rows[1::5]:
        row[1] = "c"
    unseen = _levels_file(tmp_path / "unseen.csv", rows[0], rows[1:])
    estimate = ["estimate", "--imputed", imputed, "--variance", "linearized",
                "--report", str(tmp_path / "r.json"), "--train"]
    capsys.readouterr()
    assert run_cli([*estimate, unseen]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValidationError" and "g=c" in err["message"]
    assert not (tmp_path / "r.json").exists()
    assert run_cli([*estimate, train]) == 0


def test_repeated_column_name_exits_3(tmp_path, rng, capsys, monkeypatch):
    # a covariate named yhat would head the imputed and release files twice,
    # and a reader would take the covariate for the imputations
    monkeypatch.chdir(tmp_path)
    x_b, x_a, w = rng.normal(2, 1, size=60), rng.normal(2, 1, size=30), np.full(30, 25.0)
    write_csv("b.csv", ["yhat", "y"], zip(x_b, 1 + 2 * x_b))
    write_csv("a.csv", ["yhat", "w"], zip(x_a, w))
    write_csv("bx.csv", ["x", "y"], zip(x_b, 1 + 2 * x_b))
    write_csv("ax.csv", ["x", "w"], zip(x_a, w))
    write_csv("axx.csv", ["x", "x", "w"], zip(x_a, x_a, w))
    write_csv("bxx.csv", ["x", "y", "x"], zip(x_b, 1 + 2 * x_b, x_b))
    fit = ["--train", "b.csv", "--response", "y", "--covariates", "yhat"]
    fit_x = ["--train", "bx.csv", "--response", "y", "--covariates", "x"]
    assert run_cli(["fit", *fit, "--out", "model.json"]) == 0
    files = sorted(os.listdir())
    for argv, message in [
        (["impute", "--model", "model.json", "--sample-a", "a.csv", "--weight", "w",
          "--out", "imputed.csv"], "repeats the names ['yhat']"),
        (["bootstrap", *fit, "--sample-a", "a.csv", "--weight", "w",
          "--L", "3", "--out", "aug.csv"], "repeats the names ['yhat']"),
        (["bootstrap", *fit_x, "--sample-a", "axx.csv", "--weight", "w",
          "--L", "3", "--out", "aug.csv"], "column 'x' appears 2 times"),
        (["fit", "--train", "bxx.csv", "--response", "y", "--covariates", "x",
          "--out", "m.json"], "column 'x' appears 2 times"),
    ]:
        capsys.readouterr()
        assert run_cli(argv) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValidationError" and message in err["message"]
    assert sorted(os.listdir()) == files  # no output, no manifest

    # a release file whose sample A column x is renamed yhat
    assert run_cli(["bootstrap", *fit_x, "--sample-a", "ax.csv", "--weight", "w",
                    "--L", "3", "--out", "aug.csv"]) == 0
    text = pathlib.Path("aug.csv").read_text()
    pathlib.Path("aug.csv").write_text("yhat" + text.removeprefix("x"))
    capsys.readouterr()
    assert run_cli(["estimate", "--imputed", "aug.csv", "--variance", "bootstrap",
                    "--report", "r.json"]) == 3
    err = json.loads(capsys.readouterr().err)
    assert "column 'yhat' appears 2 times" in err["message"]
    assert not os.path.exists("r.json")


def test_names_that_need_quoting_round_trip(tmp_path, rng):
    x_name = 'x"1'
    train, sample_a = _level_files(
        tmp_path, rng, ["r", "a,b", 'c"d'], ["r", "a,b", 'c"d'], x_name
    )
    model, imputed = tmp_path / "model.json", tmp_path / "imputed.csv"
    fit_args = [
        "--train", train, "--response", "y",
        "--covariates", f"{x_name},g", "--categorical", "g=r",
    ]
    assert run_cli(["fit", *fit_args, "--out", str(model)]) == 0
    assert run_cli([
        "impute", "--model", str(model), "--sample-a", sample_a,
        "--weight", "w", "--out", str(imputed),
    ]) == 0
    linearized = tmp_path / "linearized.json"
    assert run_cli([
        "estimate", "--imputed", str(imputed), "--variance", "linearized",
        "--train", train, "--report", str(linearized),
    ]) == 0

    release = tmp_path / "release.csv"
    assert run_cli([
        "bootstrap", *fit_args, "--sample-a", sample_a, "--weight", "w",
        "--L", "5", "--seed", "2", "--out", str(release),
    ]) == 0
    with open(release, newline="") as fh:
        header = next(csv.reader(fh))
    assert header[:4] == [x_name, "g=a,b", 'g=c"d', "w"]
    boot = tmp_path / "boot.json"
    assert run_cli([
        "estimate", "--imputed", str(release), "--variance", "bootstrap",
        "--report", str(boot),
    ]) == 0
    theta = json.loads(linearized.read_text())["theta_hat"]
    assert json.loads(boot.read_text())["theta_hat"] == pytest.approx(theta, rel=1e-12)

    # imputed files written with CRLF line endings still read the same
    imputed.write_bytes(imputed.read_bytes().replace(b"\n", b"\r\n"))
    again = tmp_path / "again.json"
    assert run_cli([
        "estimate", "--imputed", str(imputed), "--variance", "linearized",
        "--train", train, "--report", str(again),
    ]) == 0
    assert json.loads(again.read_text())["variance"] == json.loads(
        linearized.read_text()
    )["variance"]


def _pipeline_outputs(directory: pathlib.Path, blas_threads: int) -> dict:
    """Bytes of every file that fit, impute, a linearized estimate and a
    bootstrap write for the linear and the logistic family, each command a
    process with ``blas_threads`` BLAS threads; inputs are in the parent
    directory, so the digests' paths are the same for every run."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(blas_threads),
           "OMP_NUM_THREADS": str(blas_threads),
           "PYTHONPATH": str(pathlib.Path(massimpute.__file__).parent.parent)}
    directory.mkdir()
    for family, response in (("linear", "y"), ("logistic", "z")):
        fit = ["--train", "../b.csv", "--response", response,
               "--covariates", "x,x2", "--family", family]
        model, imputed = f"model_{family}.json", f"imputed_{family}.csv"
        for argv in (
            ["fit", *fit, "--out", model],
            ["impute", "--model", model, "--sample-a", "../a.csv", "--weight", "w",
             "--out", imputed],
            ["estimate", "--imputed", imputed, "--variance", "linearized",
             "--train", "../b.csv", "--report", f"report_{family}.json"],
            ["bootstrap", *fit, "--sample-a", "../a.csv", "--weight", "w",
             "--L", "10", "--seed", "3", "--out", f"release_{family}.csv"],
        ):
            subprocess.run([sys.executable, "-m", "massimpute.cli", *argv],
                           cwd=directory, env=env, check=True)
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


def test_outputs_do_not_depend_on_blas_threads(tmp_path, rng):
    # OpenBLAS splits a product over units between threads only for large
    # operands (above about 155k rows x 3 on a 2-vCPU host), so B is large
    n_b, n_a = 200_000, 2_000
    x, x2 = rng.normal(2, 1, n_b), rng.normal(0, 1, n_b)
    y = 1 + 2 * x - x2 + rng.normal(size=n_b)
    z = (rng.random(n_b) < 1 / (1 + np.exp(1 - 0.8 * x - 0.3 * x2))).astype(float)
    write_csv(tmp_path / "b.csv", ["x", "x2", "y", "z"], zip(x, x2, y, z))
    write_csv(tmp_path / "a.csv", ["x", "x2", "w"],
              zip(rng.normal(2, 1, n_a), rng.normal(0, 1, n_a), np.full(n_a, 500.0)))
    one = _pipeline_outputs(tmp_path / "threads1", 1)
    two = _pipeline_outputs(tmp_path / "threads2", 2)
    assert len(one) == 12 and one.keys() == two.keys()
    assert [name for name in one if one[name] != two[name]] == []


def _release_files(directory: pathlib.Path, argv, one_cpu: bool, blas_threads: int):
    """Bytes of the release file and manifest of ``bootstrap argv``, run as a
    process with ``blas_threads`` BLAS threads and, if ``one_cpu``, pinned to
    one CPU, so that its refits run in one process."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(blas_threads),
           "OMP_NUM_THREADS": str(blas_threads),
           "PYTHONPATH": str(pathlib.Path(massimpute.__file__).parent.parent)}
    cpu = min(os.sched_getaffinity(0))
    directory.mkdir()
    subprocess.run([sys.executable, "-m", "massimpute.cli", "bootstrap", *argv,
                    "--out", "release.csv"], cwd=directory, env=env, check=True,
                   preexec_fn=(lambda: os.sched_setaffinity(0, {cpu})) if one_cpu else None)
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs 2 usable CPUs")
def test_bootstrap_workers_write_identical_files(tmp_path, rng):
    n_b, n_a = 5_000, 300
    x, x2 = rng.normal(2, 1, n_b), rng.normal(0, 1, n_b)
    y = 1 + 2 * x - x2 + rng.normal(size=n_b)
    z = (rng.random(n_b) < 1 / (1 + np.exp(1 - 0.8 * x - 0.3 * x2))).astype(float)
    write_csv(tmp_path / "b.csv", ["x", "x2", "y", "z"], zip(x, x2, y, z))
    write_csv(tmp_path / "a.csv", ["x", "x2", "w"],
              zip(rng.normal(2, 1, n_a), rng.normal(0, 1, n_a), np.full(n_a, 50.0)))
    # y = 1{x > 0} with the labels of the middle four rows reversed: a
    # resample that misses both rows of either middle pair is separated and
    # is redrawn
    x_sep = np.linspace(-1.0, 1.0, 20)
    y_sep = (x_sep > 0).astype(float)
    y_sep[8:12] = y_sep[8:12][::-1].copy()
    _write_b(tmp_path / "sep.csv", x_sep, y_sep)
    # above 8,192 units of B, with L = 3 one worker's range holds a single
    # replicate, which einsum would sum in another order than a row of two
    x9 = rng.normal(2, 1, 9_000)
    _write_b(tmp_path / "b9.csv", x9, 1 + 2 * x9 + rng.normal(size=9_000))
    common = ["--sample-a", "../a.csv", "--weight", "w", "--seed", "11"]
    for name, fit in (
        ("linear", ["--train", "../b.csv", "--response", "y", "--covariates", "x,x2",
                    "--L", "40"]),
        ("logistic", ["--train", "../b.csv", "--response", "z", "--covariates", "x,x2",
                      "--family", "logistic", "--L", "40"]),
        ("separated", ["--train", "../sep.csv", "--response", "y", "--covariates", "x",
                       "--family", "logistic", "--L", "40"]),
        ("lone", ["--train", "../b9.csv", "--response", "y", "--covariates", "x",
                  "--L", "3"]),
    ):
        one = _release_files(tmp_path / f"{name}1", [*fit, *common], True, 1)
        # a worker per CPU, forked after OpenBLAS has started its threads
        two = _release_files(tmp_path / f"{name}2", [*fit, *common], False, 4)
        assert len(one) == 2 and one == two, name
        if name == "separated":
            assert json.loads(one["release.csv.manifest.json"])["redraws"] > 0


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs 2 usable CPUs")
def test_killed_worker_exits_3_with_json_error(tmp_path, capsys, monkeypatch):
    def killed(population, config, rep):
        os._exit(9)

    # the forked workers inherit the patched rep
    monkeypatch.setattr(massimpute.simulation, "_run_one_rep", killed)
    code = run_cli(["simulate", "--model", "I", "--pop-size", "4000", "--n-a", "80",
                    "--n-b", "80", "--reps", "4", "--boot-l", "0",
                    "--report", str(tmp_path / "sim.json")])
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "IOFailure",
                   "message": "worker process exited with code 9 before sending its result"}


_REPORT_KEYS = {"estimator", "theta_hat", "n_a", "n_b", "population_size_used",
                "version", "input_digests"}


@pytest.mark.parametrize("variance", ["none", "linearized", "bootstrap"])
def test_estimate_report_document(variance, pipeline_files):
    files, d = pipeline_files, pipeline_files["dir"]
    fit = ["--train", files["train"], "--response", "y", "--covariates", "x"]
    if variance == "bootstrap":
        data = d / "release.csv"
        assert run_cli(["bootstrap", *fit, "--sample-a", files["sample_a"],
                        "--weight", "w", "--L", "5", "--seed", "1",
                        "--out", str(data)]) == 0
    else:
        model, data = d / "model.json", d / "imputed.csv"
        assert run_cli(["fit", *fit, "--out", str(model)]) == 0
        assert run_cli(["impute", "--model", str(model), "--sample-a",
                        files["sample_a"], "--weight", "w",
                        "--out", str(data)]) == 0
    report = d / "report.json"
    # --train is read only by the linearized variance
    assert run_cli(["estimate", "--imputed", str(data), "--variance", variance,
                    "--train", files["train"], "--report", str(report)]) == 0
    doc = json.loads(report.read_text())
    assert set(doc) == _REPORT_KEYS | (set() if variance == "none" else {"variance"})
    assert doc["estimator"] == "mass_imputation"
    assert doc["n_a"] == 40
    assert doc["population_size_used"] == 1000.0
    if variance == "linearized":
        assert doc["n_b"] == 60
        assert set(doc["input_digests"]) == {str(data), files["train"]}
    else:
        assert doc["n_b"] == 0
        assert set(doc["input_digests"]) == {str(data)}
    if variance != "none":
        assert doc["variance"]["method"] == variance


def _edit_manifest(csv_path, edit):
    path = pathlib.Path(manifest_path(csv_path))
    path.write_text(edit(path.read_text()))


def _fit_model_file(files) -> pathlib.Path:
    model = files["dir"] / "model.json"
    assert run_cli(["fit", "--train", files["train"], "--response", "y",
                    "--covariates", "x", "--out", str(model)]) == 0
    return model


def _edit_model_file(model, field, value):
    doc = json.loads(model.read_text())
    doc[field] = value
    model.write_text(json.dumps(doc))


@pytest.mark.parametrize("where", ["model file", "imputed manifest"])
@pytest.mark.parametrize("field, value, message", [
    ("beta_hat", [float("nan"), 2.0], "'beta_hat' must be finite"),
    ("beta_hat", [float("inf"), 2.0], "'beta_hat' must be finite"),
    ("beta_hat", [1.0], "one number per name of 'covariate_names'"),
    ("beta_hat", [1.0, 2.0, 3.0], "one number per name of 'covariate_names'"),
    ("intercept_included", "yes", "'intercept_included' must be true or false"),
    ("iterations", 1.5, "'iterations' must be an integer"),
    ("final_score_norm", float("nan"), "'final_score_norm' must be a finite number"),
], ids=["beta nan", "beta inf", "beta short", "beta long", "intercept string",
        "iterations float", "score norm nan"])
def test_malformed_model_document_exits_3(where, field, value, message,
                                          pipeline_files, capsys):
    files, d = pipeline_files, pipeline_files["dir"]
    model, imputed = _fit_model_file(files), d / "imputed.csv"
    impute = ["impute", "--model", str(model), "--sample-a", files["sample_a"],
              "--weight", "w", "--out", str(imputed)]
    if where == "model file":
        _edit_model_file(model, field, value)
        argv = impute
    else:
        assert run_cli(impute) == 0
        def edit(text):
            doc = json.loads(text)
            doc["model"][field] = value
            return json.dumps(doc)
        _edit_manifest(imputed, edit)
        argv = ["estimate", "--imputed", str(imputed), "--variance", "linearized",
                "--train", files["train"], "--report", str(d / "r.json")]
    capsys.readouterr()
    assert run_cli(argv) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValidationError"
    assert message in err["message"]
    assert not (d / "r.json").exists()
    if where == "model file":
        assert not imputed.exists()


def test_overflowing_estimate_exits_4(pipeline_files, capsys):
    # an intercept of 1e308 predicts a finite 1e308 for every unit, but the
    # weighted total overflows: no report may hold Infinity
    files, d = pipeline_files, pipeline_files["dir"]
    model, imputed, report = _fit_model_file(files), d / "imputed.csv", d / "r.json"
    beta = json.loads(model.read_text())["beta_hat"]
    _edit_model_file(model, "beta_hat", [1e308, beta[1]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy overflow warning either
        assert run_cli(["impute", "--model", str(model), "--sample-a",
                        files["sample_a"], "--weight", "w", "--out", str(imputed)]) == 0
        with open(imputed) as fh:
            yhat = [float(row["yhat"]) for row in csv.DictReader(fh)]
        assert np.isfinite(yhat).all() and min(yhat) >= 1e308
        capsys.readouterr()
        assert run_cli(["estimate", "--imputed", str(imputed),
                        "--report", str(report)]) == 4
    captured = capsys.readouterr()
    assert json.loads(captured.err)["error"] == "NumericalError"
    assert "not finite" in json.loads(captured.err)["message"]
    assert not report.exists()


def _estimate_argv(files, variance, pop_size, design="ppswr"):
    """``estimate --variance variance`` on an imputed file, or on a release
    file for the bootstrap, of ``files`` at ``--pop-size pop_size``."""
    d = files["dir"]
    if variance == "bootstrap":
        data = d / "aug.csv"
        assert run_cli(["bootstrap", "--train", files["train"], "--response", "y",
                        "--covariates", "x", "--sample-a", files["sample_a"],
                        "--weight", "w", "--L", "3", "--out", str(data)]) == 0
    else:
        data = d / "imputed.csv"
        assert run_cli(["impute", "--model", str(_fit_model_file(files)),
                        "--sample-a", files["sample_a"], "--weight", "w",
                        "--out", str(data)]) == 0
    return ["estimate", "--imputed", str(data), "--variance", variance,
            "--train", files["train"], "--design", design, "--pop-size", pop_size,
            "--report", str(d / "r.json")]


@pytest.mark.parametrize("variance, pop_size", [
    ("none", "5e-324"),
    ("none", "1e-310"),
    ("bootstrap", "5e-324"),
    ("bootstrap", "1e-310"),
    # theta and the replicates are finite, their squared deviations are not
    ("bootstrap", "1e-160"),
    ("linearized", "1e-300"),
    ("linearized", "5e-324"),
])
def test_tiny_pop_size_exits_4(variance, pop_size, pipeline_files, capsys):
    # a mean of about 5 over N = 1e-300 is finite, its variance over N**2 is not
    argv = _estimate_argv(pipeline_files, variance, pop_size)
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy overflow or divide warning
        assert run_cli(argv) == 4
    err = json.loads(capsys.readouterr().err)  # one JSON object and nothing else
    assert err["error"] == "NumericalError" and "not finite" in err["message"]
    assert not (pipeline_files["dir"] / "r.json").exists()


@pytest.mark.parametrize("design", ["ppswr", "srs"])
def test_huge_pop_size_gives_a_finite_linearized_variance(design, pipeline_files):
    # N**2 overflows a float; the variance of the mean then rounds to 0
    argv = _estimate_argv(pipeline_files, "linearized", "1e200", design)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(argv) == 0
    report = json.loads((pipeline_files["dir"] / "r.json").read_text())
    assert report["variance"]["v_total"] == 0.0
    assert 0 < report["theta_hat"] < 1e-195  # a mean of about 5 over 1e200


def test_report_with_a_non_finite_number_is_not_written(pipeline_files, capsys,
                                                         monkeypatch):
    # every document goes through table.write_json, which refuses NaN and
    # infinity before it opens the file; each command then exits 4 with one
    # JSON error and writes nothing, neither the document nor its CSV
    from massimpute import cli

    files, d, nan = pipeline_files, pipeline_files["dir"], float("nan")
    for value in (nan, float("inf"), -float("inf")):
        with pytest.raises(NumericalError, match="not finite"):
            write_json(d / "r.json", {"variance": {"v_total": value}})
    assert not (d / "r.json").exists()

    model, imputed = _fit_model_file(files), d / "imputed.csv"
    assert run_cli(["impute", "--model", str(model), "--sample-a", files["sample_a"],
                    "--weight", "w", "--out", str(imputed)]) == 0
    # the model reader ignores keys it does not use; the manifest copies them
    nan_model = d / "nan_model.json"
    nan_model.write_text(json.dumps({**json.loads(model.read_text()), "h_choice": nan}))
    model_document, write_release = cli.model_document, cli.write_augmented_dataset
    run_monte_carlo = cli.run_monte_carlo

    def nan_model_document(model, schema):
        return {**model_document(model, schema), "final_score_norm": nan}

    def nan_release(*args, **kwargs):
        return write_release(*args, **{**kwargs, "population_size": nan})

    def nan_study(config):
        return dataclasses.replace(run_monte_carlo(config), theta_n=nan)

    fit = ["--train", files["train"], "--response", "y", "--covariates", "x"]
    sample_a = ["--sample-a", files["sample_a"], "--weight", "w"]
    for kind, patch, argv in [
        ("model", ("model_document", nan_model_document),
         ["fit", *fit, "--out", str(d / "m.json")]),
        ("imputed manifest", None,
         ["impute", "--model", str(nan_model), *sample_a, "--out", str(d / "i.csv")]),
        ("estimate report", ("ht_mean", lambda *args: nan),
         ["estimate", "--imputed", str(imputed), "--report", str(d / "r.json")]),
        ("release manifest", ("write_augmented_dataset", nan_release),
         ["bootstrap", *fit, *sample_a, "--L", "3", "--out", str(d / "aug.csv")]),
        ("simulate report", ("run_monte_carlo", nan_study),
         ["simulate", "--model", "I", "--reps", "2", "--boot-l", "0", "--pop-size",
          "2000", "--n-a", "50", "--n-b", "50", "--report", str(d / "sim.json"),
          "--per-rep", str(d / "per_rep.csv")]),
    ]:
        before = sorted(os.listdir(d))
        with monkeypatch.context() as m:
            if patch:
                m.setattr(cli, *patch)
            capsys.readouterr()
            assert run_cli(argv) == 4, kind
        err = capsys.readouterr().err
        assert err.count("\n") == 1, kind  # one JSON object and nothing else
        assert json.loads(err)["error"] == "NumericalError", kind
        assert "not finite" in json.loads(err)["message"], kind
        assert sorted(os.listdir(d)) == before, kind


def test_release_with_a_non_finite_population_size_is_not_written(pipeline_files):
    files, d = pipeline_files, pipeline_files["dir"]
    sample_b = load_sample(files["train"], ColumnSchema(("x",), "y"),
                           SampleKind.NON_PROBABILITY_B)
    sample_a = load_sample(files["sample_a"], ColumnSchema(("x",), weight="w"),
                           SampleKind.PROBABILITY_A)
    design_b = build_design_matrix(sample_b, ("x",))
    model = fit_model(ModelFamily.LINEAR, sample_b, design_b)
    replicates = build_replicates(model, sample_a, sample_b,
                                  build_design_matrix(sample_a, ("x",)), design_b,
                                  ppswr_design(1000.0), 3, 5)
    before = sorted(os.listdir(d))
    with pytest.raises(NumericalError, match="not finite"):
        write_augmented_dataset(sample_a, replicates, model, d / "aug.csv",
                                population_size=float("nan"))
    assert sorted(os.listdir(d)) == before  # neither the file nor its manifest


def _bad_input_case(case, files):
    """Arguments for one malformed-input case."""
    d = files["dir"]
    boot = [
        "bootstrap", "--train", files["train"], "--response", "y",
        "--covariates", "x", "--sample-a", files["sample_a"], "--weight", "w",
        "--L", "3", "--out", str(d / "aug.csv"),
    ]
    release, imputed = d / "aug.csv", d / "imputed.csv"
    estimate = ["estimate", "--imputed", str(release), "--variance", "bootstrap",
                "--report", str(d / "r.json")]
    if case in ("truncated manifest", "manifest without L", "non-integer L",
                "linearized on release file", "non-positive release weight",
                "non-numeric replicate cell", "release without w_rep column",
                "release with a pair beyond L", "release n_a not its rows"):
        assert run_cli(boot) == 0
    if case == "release with a pair beyond L":
        # three pairs under a manifest that says two
        _edit_manifest(release, lambda text: json.dumps({**json.loads(text), "L": 2}))
        return estimate
    if case == "release n_a not its rows":
        _edit_manifest(release, lambda text: json.dumps({**json.loads(text), "n_a": 7}))
        return estimate
    if case == "truncated manifest":
        _edit_manifest(release, lambda text: text[:20])
        return estimate
    if case == "manifest without L":
        _edit_manifest(release, lambda text: json.dumps(
            {k: v for k, v in json.loads(text).items() if k != "L"}))
        return estimate
    if case == "non-integer L":
        _edit_manifest(release, lambda text: json.dumps(
            {**json.loads(text), "L": 2.5}))
        return estimate
    if case == "linearized on release file":
        return ["estimate", "--imputed", str(release), "--variance",
                "linearized", "--train", files["train"],
                "--report", str(d / "r.json")]
    if case == "non-positive release weight":
        lines = release.read_text().splitlines(keepends=True)
        cells = lines[1].split(",")
        cells[1] = "-25.0"
        lines[1] = ",".join(cells)
        release.write_text("".join(lines))
        return estimate
    if case == "non-numeric replicate cell":
        lines = release.read_text().splitlines(keepends=True)
        cells = lines[4].split(",")
        cells[lines[0].split(",").index("yhat_rep_2")] = "abc"
        lines[4] = ",".join(cells)
        release.write_text("".join(lines))
        return estimate
    if case == "release without w_rep column":
        text = release.read_text()
        release.write_text(text.replace("w_rep_3", "w_rep_x", 1))
        return estimate
    if case.startswith("model schema"):
        model = d / "model.json"
        assert run_cli(["fit", "--train", files["train"], "--response", "y",
                        "--covariates", "x", "--out", str(model)]) == 0
        doc = json.loads(model.read_text())
        if case == "model schema not an object":
            doc["schema"] = []
        elif case == "model schema categoricals a list":
            doc["schema"]["categoricals"] = ["g"]
        else:
            doc["schema"]["covariates"] = "x,g"
        model.write_text(json.dumps(doc))
        return ["impute", "--model", str(model), "--sample-a",
                files["sample_a"], "--weight", "w", "--out", str(imputed)]
    if case in ("bootstrap on imputed file", "model without beta_hat"):
        model = str(d / "model.json")
        assert run_cli(["fit", "--train", files["train"], "--response", "y",
                        "--covariates", "x", "--out", model]) == 0
        assert run_cli(["impute", "--model", model, "--sample-a",
                        files["sample_a"], "--weight", "w",
                        "--out", str(imputed)]) == 0
    if case == "bootstrap on imputed file":
        return ["estimate", "--imputed", str(imputed), "--variance",
                "bootstrap", "--report", str(d / "r.json")]
    if case == "model without beta_hat":
        def drop_beta(text):
            doc = json.loads(text)
            del doc["model"]["beta_hat"]
            return json.dumps(doc)
        _edit_manifest(imputed, drop_beta)
        return ["estimate", "--imputed", str(imputed), "--variance",
                "linearized", "--train", files["train"],
                "--report", str(d / "r.json")]
    if case == "missing input file":
        return ["fit", "--train", str(d / "absent.csv"), "--response", "y",
                "--covariates", "x", "--out", str(d / "m.json")]
    if case == "missing manifest":
        return ["estimate", "--imputed", files["sample_a"], "--report",
                str(d / "r.json")]
    if case == "missing release manifest":
        return ["estimate", "--imputed", files["sample_a"], "--variance",
                "bootstrap", "--report", str(d / "r.json")]
    if case == "missing config file":
        return ["--config", str(d / "absent.json"), *boot]
    if case == "ragged row":
        with open(files["train"], "a") as fh:
            fh.write("1.0,2.0,3.0\n")
        return boot
    if case == "non-integer seed":
        return [*boot, "--seed", "seven"]
    # argparse checks each flag as it reads it, so the base holds valid ones
    simulate = ["simulate", "--model", "I", "--reps", "2",
                "--report", str(d / "s.json")]
    if case == "negative seed":
        return [*boot, "--seed", "-1"]
    if case == "negative simulate seed":
        return [*simulate, "--seed", "-1"]
    if case == "negative boot-l":
        return [*simulate, "--boot-l", "-4"]
    if case == "threads 0":
        # simulate has no --threads flag: it runs a worker per usable CPU
        return [*simulate, "--threads", "0"]
    if case == "stratum exhausted in a worker":
        # raised in a worker process; its error must reach the parent whole
        return [*simulate, "--reps", "4", "--pop-size", "1000", "--n-a", "50",
                "--n-b", "900", "--boot-l", "0"]
    if case == "reps 1":
        return [*simulate, "--reps", "1"]
    if case.startswith(("n-a", "n-b", "pop-size")):
        flag, value = case.split()
        return [*simulate, f"--{flag}", value]
    if case == "samples larger than the population":
        # exit 2, not SimConfig's ValidationError (exit 3)
        return [*simulate, "--n-a", "3", "--n-b", "3", "--pop-size", "5"]
    if case == "L 0":
        # sample B is unreadable: --L must be rejected before any file is read
        (d / "b.csv").write_text("")
        return [*boot, "--L", "0"]
    if case == "malformed config":
        (d / "cfg.json").write_text('{"response": ')
        return ["--config", str(d / "cfg.json"), *boot]
    if case == "non-numeric pop size":
        return [*boot, "--pop-size", "many"]
    # flag errors found before any file is read: every input file is absent
    absent = str(d / "absent.csv")
    if case == "categorical without =":
        return ["fit", "--train", absent, "--response", "y", "--covariates",
                "x", "--categorical", "g", "--out", str(d / "m.json")]
    fit = ["fit", "--train", absent, "--response", "y", "--out", str(d / "m.json")]
    if case == "covariates naming x twice":
        return [*fit, "--covariates", "x,x"]
    if case == "covariates with an empty name":
        return [*fit, "--covariates", "x,"]
    if case == "covariates holding the response":
        return [*fit, "--covariates", "x,y"]
    if case == "categorical column not a covariate":
        return ["bootstrap", "--train", absent, "--response", "y", "--covariates",
                "x", "--categorical", "q=r", "--sample-a", absent, "--weight", "w",
                "--out", str(d / "aug.csv")]
    linearized = ["estimate", "--imputed", absent, "--variance", "linearized",
                  "--report", str(d / "r.json")]
    if case == "linearized without train":
        return linearized
    if case == "srs without numeric pop size":
        return [*linearized, "--train", absent, "--design", "srs"]
    raise AssertionError(case)


@pytest.mark.parametrize("case, code, error", [
    ("missing input file", 3, "IOFailure"),
    ("missing manifest", 3, "IOFailure"),
    ("missing release manifest", 3, "IOFailure"),
    ("missing config file", 3, "IOFailure"),
    ("ragged row", 3, "RaggedRow"),
    ("non-integer seed", 2, "UsageError"),
    ("negative seed", 2, "UsageError"),
    ("negative simulate seed", 2, "UsageError"),
    ("negative boot-l", 2, "UsageError"),
    ("threads 0", 2, "UsageError"),
    ("reps 1", 2, "UsageError"),
    ("n-a 0", 2, "UsageError"),
    ("n-a -5", 2, "UsageError"),
    ("n-b 0", 2, "UsageError"),
    ("pop-size 0", 2, "UsageError"),
    ("samples larger than the population", 2, "UsageError"),
    ("L 0", 2, "UsageError"),
    ("malformed config", 2, "UsageError"),
    ("non-numeric pop size", 2, "UsageError"),
    ("categorical without =", 2, "UsageError"),
    ("covariates naming x twice", 2, "UsageError"),
    ("covariates with an empty name", 2, "UsageError"),
    ("covariates holding the response", 2, "UsageError"),
    ("categorical column not a covariate", 2, "UsageError"),
    ("linearized without train", 2, "UsageError"),
    ("srs without numeric pop size", 2, "UsageError"),
    ("stratum exhausted in a worker", 3, "StratumExhausted"),
    ("truncated manifest", 3, "ValidationError"),
    ("manifest without L", 3, "ValidationError"),
    ("non-integer L", 3, "ValidationError"),
    ("linearized on release file", 3, "ValidationError"),
    ("bootstrap on imputed file", 3, "ValidationError"),
    ("non-positive release weight", 3, "NonPositiveWeight"),
    ("model without beta_hat", 3, "ValidationError"),
    ("non-numeric replicate cell", 3, "NonNumericValue"),
    ("release without w_rep column", 3, "MissingColumn"),
    ("release with a pair beyond L", 3, "ValidationError"),
    ("release n_a not its rows", 3, "ValidationError"),
    ("model schema not an object", 3, "ValidationError"),
    ("model schema categoricals a list", 3, "ValidationError"),
    ("model schema covariates a string", 3, "ValidationError"),
])
def test_bad_input_exits_with_json_error(
    case, code, error, pipeline_files, capsys
):
    argv = _bad_input_case(case, pipeline_files)
    assert run_cli(argv) == code
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == error
    if case == "ragged row":
        assert "row 61" in err["message"]
    if case == "non-positive release weight":
        assert "row 1" in err["message"]
    if case == "non-numeric replicate cell":
        assert "column 'yhat_rep_2', row 4" in err["message"]
    if case == "release without w_rep column":
        assert "'w_rep_3'" in err["message"]
    if case == "release with a pair beyond L":
        assert "unexpected column 'w_rep_3'" in err["message"]
    if case == "release n_a not its rows":
        assert "'n_a' is 7, but" in err["message"] and "40 rows" in err["message"]
    if case.startswith("model schema"):
        assert "schema" in err["message"]
    if case.startswith("negative"):
        assert ("--boot-l" if case.endswith("boot-l") else "seed") in err["message"]
    if case.startswith(("threads", "reps", "L ", "n-a", "n-b", "pop-size",
                        "categorical", "covariates")):
        assert "--" + case.split()[0] in err["message"]
    if case == "stratum exhausted in a worker":
        assert err["message"] == "stratum x <= 2: requested 630 units, only 534 available"
    if case == "linearized without train":
        assert "--train" in err["message"]
    if case == "srs without numeric pop size":
        assert "--pop-size" in err["message"]
    if case == "samples larger than the population":
        assert "exceeds the population size" in err["message"]
    assert not (pipeline_files["dir"] / "s.json").exists()


_B_ROWS = [["x", "g", "y"]] + [
    [repr(0.25 * i), "rab"[i % 3], repr(1.0 + 0.5 * i + (-1.0) ** i)] for i in range(24)
]
_A_ROWS = [["x", "g", "w"]] + [
    [repr(0.3 * i), "rab"[i % 3], "20.0"] for i in range(15)
]
_EDIT = st.tuples(
    st.sampled_from(["a", "b"]),
    st.integers(min_value=0, max_value=24),
    st.integers(min_value=0, max_value=3),
    st.sampled_from(["drop", "extend", "nan", "inf", "-inf", "", ","]),
)


def _mutated(rows, edits):
    """CSV text of ``rows`` after each (row, column, op) edit; a cell set to
    "," splits in two when the row is joined."""
    rows = [list(row) for row in rows]
    for row, col, op in edits:
        cells = rows[row % len(rows)]
        if op == "extend":
            cells.append("1.5")
        elif not cells:
            continue
        elif op == "drop":
            del cells[col % len(cells)]
        else:
            cells[col % len(cells)] = op
    return "".join(",".join(cells) + "\n" for cells in rows)


@settings(max_examples=40, deadline=None)
@given(edits=st.lists(_EDIT, min_size=1, max_size=4))
def test_mutated_inputs_exit_with_documented_code(edits):
    with tempfile.TemporaryDirectory() as tmp:
        d = pathlib.Path(tmp)
        for name, rows in (("a", _A_ROWS), ("b", _B_ROWS)):
            mine = [(row, col, op) for f, row, col, op in edits if f == name]
            (d / f"{name}.csv").write_text(_mutated(rows, mine))
        fit = ["--train", str(d / "b.csv"), "--response", "y",
               "--covariates", "x,g", "--categorical", "g=r"]
        steps = [
            ["fit", *fit, "--out", str(d / "m.json")],
            ["impute", "--model", str(d / "m.json"), "--sample-a",
             str(d / "a.csv"), "--weight", "w", "--out", str(d / "i.csv")],
            ["estimate", "--imputed", str(d / "i.csv"), "--variance",
             "linearized", "--train", str(d / "b.csv"), "--report",
             str(d / "r.json")],
            ["bootstrap", *fit, "--sample-a", str(d / "a.csv"), "--weight",
             "w", "--L", "4", "--seed", "1", "--out", str(d / "rel.csv")],
            ["estimate", "--imputed", str(d / "rel.csv"), "--variance",
             "bootstrap", "--report", str(d / "rb.json")],
        ]
        for argv in steps:
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = run_cli(argv)
            assert code in (0, 2, 3, 4)
            if code:
                assert "error" in json.loads(err.getvalue())
                break


@pytest.fixture(scope="module")
def pipeline_documents(tmp_path_factory):
    """A directory holding ``fit``, ``impute`` and ``bootstrap`` outputs of
    _B_ROWS and _A_ROWS, with the three JSON documents between the steps."""
    d = tmp_path_factory.mktemp("documents")
    for name, rows in (("a", _A_ROWS), ("b", _B_ROWS)):
        (d / f"{name}.csv").write_text(_mutated(rows, []))
    fit = ["--train", str(d / "b.csv"), "--response", "y",
           "--covariates", "x,g", "--categorical", "g=r"]
    for argv in (
        ["fit", *fit, "--out", str(d / "m.json")],
        ["impute", "--model", str(d / "m.json"), "--sample-a", str(d / "a.csv"),
         "--weight", "w", "--out", str(d / "i.csv")],
        ["bootstrap", *fit, "--sample-a", str(d / "a.csv"), "--weight", "w",
         "--pop-size", "400", "--L", "4", "--seed", "1", "--out", str(d / "rel.csv")],
    ):
        assert run_cli(argv) == 0
    return d


_DOCUMENTS = ("m.json", "i.csv.manifest.json", "rel.csv.manifest.json")
# a value of another JSON type, for a value of each type
_SWAPPED = {dict: [], list: {}, str: 1.5, bool: 1, int: "1", float: "1.5",
            type(None): 0}
_DELETE = object()


def _document_paths(doc, path=()):
    """The path of keys and indices to every value of a parsed JSON document,
    the whole document's first."""
    yield path
    items = doc.items() if isinstance(doc, dict) else (
        enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield from _document_paths(value, (*path, key))


def _document_edits(doc, path):
    """The new values for the value at ``path``, or ``_DELETE``."""
    for key in path:
        doc = doc[key]
    edits = [_SWAPPED[type(doc)]]
    if path:
        edits.append(_DELETE)
    if type(doc) in (int, float):
        edits += [float("nan"), float("inf"), 1e308, 5e-324]
    if path == ("L",):
        edits += [doc + 1, doc - 1]
    return edits


def _edited(doc, path, edit):
    """``doc`` with the value at ``path`` replaced by ``edit`` or deleted."""
    if not path:
        return edit
    target = doc
    for key in path[:-1]:
        target = target[key]
    if edit is _DELETE:
        del target[path[-1]]
    else:
        target[path[-1]] = edit
    return doc


def _assert_finite_output(path):
    """Every number that a step wrote is finite."""
    def refuse(constant):
        raise AssertionError(f"{path} holds {constant}")
    if path.suffix == ".json":
        json.loads(path.read_text(), parse_constant=refuse)
        return
    with open(path) as fh:
        for row in list(csv.reader(fh))[1:]:
            for cell in row:
                with contextlib.suppress(ValueError):
                    assert np.isfinite(float(cell)), (path, cell)


def _step(argv, outputs=()) -> int:
    """Run one command: exit 0 with only finite numbers in ``outputs``, or
    exit 3 or 4 with one JSON object and nothing else on stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_cli(argv)
    assert code in (0, 3, 4)
    if code:
        assert "error" in json.loads(err.getvalue())
    for path in outputs if code == 0 else ():
        _assert_finite_output(path)
    return code


def _check_edited_document(base, name, path, edit):
    """Apply ``edit`` at ``path`` of the document ``name`` in a copy of
    ``base``, then run the steps that read it and check :func:`_step`; a
    file that ``impute`` writes with exit 0 is not refused (exit 3) by the
    estimates that read it."""
    with tempfile.TemporaryDirectory() as tmp:
        d = pathlib.Path(tmp) / "docs"
        shutil.copytree(base, d)
        doc = json.loads((d / name).read_text())
        (d / name).write_text(json.dumps(_edited(doc, path, edit)))

        def estimate(data, variance):
            report = d / f"r_{variance}.json"
            return _step(["estimate", "--imputed", str(d / data), "--variance",
                          variance, "--train", str(d / "b.csv"),
                          "--report", str(report)], [report])

        if name == "m.json":
            imputed = d / "i2.csv"
            if _step(["impute", "--model", str(d / name), "--sample-a",
                      str(d / "a.csv"), "--weight", "w", "--out", str(imputed)],
                     [imputed, pathlib.Path(manifest_path(imputed))]) == 0:
                assert estimate("i2.csv", "none") in (0, 4)
                assert estimate("i2.csv", "linearized") in (0, 4)
        elif name == "i.csv.manifest.json":
            estimate("i.csv", "none")
            estimate("i.csv", "linearized")
        else:
            estimate("rel.csv", "none")
            estimate("rel.csv", "bootstrap")


@st.composite
def _document_edit(draw, base):
    name = draw(st.sampled_from(_DOCUMENTS))
    doc = json.loads((base / name).read_text())
    path = draw(st.sampled_from(list(_document_paths(doc))))
    return name, path, draw(st.sampled_from(_document_edits(doc, path)))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_edited_documents_exit_with_documented_code(data, pipeline_documents):
    # the invariant of test_mutated_inputs_exit_with_documented_code, over
    # the JSON documents between the steps
    _check_edited_document(pipeline_documents,
                           *data.draw(_document_edit(pipeline_documents)))


@pytest.mark.parametrize("name, path, edit", [
    # impute took a model without a response, which estimate then refused
    ("m.json", ("schema", "response"), _DELETE),
    # linearized estimates printed numpy overflow warnings
    ("i.csv.manifest.json", ("model", "beta_hat", 1), 1e308),
    # a model without a schema raised StopIteration
    ("i.csv.manifest.json", ("model", "schema"), _DELETE),
    # estimates over a release manifest's N of 5e-324 printed overflow warnings
    ("rel.csv.manifest.json", ("population_size",), 5e-324),
], ids=["model without response", "beta 1e308", "model without schema",
        "release N 5e-324"])
def test_edited_document_found_by_hand(name, path, edit, pipeline_documents):
    _check_edited_document(pipeline_documents, name, path, edit)
