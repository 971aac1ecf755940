"""Command-line front end: fit, impute, estimate, bootstrap, simulate.

All reports are JSON, all data tables CSV.  The model, the imputed-file
manifest and the estimate report carry the tool version and SHA-256 digests
of their inputs; the release manifest and the simulate report carry the seed.
Identical invocations reproduce byte-identical outputs.  Exit codes: 2
usage, 3 data validation, 4 numerical failure; an error is emitted as one
JSON object on stderr, which holds no warning text.  argparse checks each
flag on its own (its types hold the bounds) and reports what it rejects as
a usage error; the code checks only flags against each other.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from dataclasses import replace

import numpy as np

from . import __version__
from .bootstrap import (
    IMPUTED_FORMAT,
    bootstrap_refit,
    bootstrap_variance,
    read_augmented_dataset,
    replicate_estimates,
    sample_a_replicates,
    write_augmented_dataset,
    write_with_manifest,
)
from .data_model import (
    ColumnSchema,
    SampleKind,
    build_design_matrix,
    load_sample,
    ppswr_design,
    srs_design,
)
from .errors import IOFailure, NumericalError, UsageError, ValidationError
from .estimators import ht_mean
from .mean_model import (
    ModelFamily,
    fit_model,
    model_document,
    predict_all,
    read_model_document,
)
from .simulation import SimConfig, run_monte_carlo, write_per_rep_csv
from .table import read_json, write_json
from .variance import interval_summary, linearized_variance
from .workers import usable_cpus, use_builtin_hashes


def _sha256(path) -> str:
    import hashlib  # after use_builtin_hashes, so that it maps no OpenSSL

    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


class _Parser(argparse.ArgumentParser):
    """An argument parser that takes no abbreviated flag, and whose rejections
    are usage errors: exit 2 with the JSON error on stderr, not usage text."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _at_least(least: int):
    """An argparse type: an integer no smaller than ``least``."""
    def integer(text):
        value = int(text)  # argparse reports a ValueError as "invalid integer value"
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        return value
    return integer


def _pop_size(text) -> float | None:
    """An argparse type: a positive number, or None for 'estimate'."""
    if text == "estimate":
        return None
    try:
        N = float(text)
    except ValueError:
        N = float("nan")
    if 0.0 < N < float("inf"):
        return N
    raise argparse.ArgumentTypeError(
        f"expects a positive number or 'estimate', got {text!r}"
    )


def _names(text) -> tuple[str, ...]:
    """An argparse type: distinct non-empty comma-separated names."""
    names = tuple(text.split(","))
    if "" in names or len(set(names)) < len(names):
        raise argparse.ArgumentTypeError(f"expects distinct names, got {text!r}")
    return names


def _categorical(text) -> tuple[str, str]:
    """An argparse type: a ``col=reference_level`` pair."""
    col, eq, ref = text.partition("=")
    if not eq:
        raise argparse.ArgumentTypeError(f"expects col=reference_level, got {text!r}")
    return col, ref


def _splice_config(argv) -> tuple[list, dict]:
    """``argv`` with each key of the --config file inserted right after the
    subcommand as ``--key`` (``_`` read as ``-``), so typed flags win, and the
    file's document.  ``true`` is a bare flag, ``false`` and ``null`` nothing,
    a list one flag per item, any other value ``--key=value``."""
    pre = _Parser(prog="massimpute", add_help=False)
    _add_top_level_flags(pre)
    pre.add_argument("rest", nargs=argparse.REMAINDER)
    known, unknown = pre.parse_known_args(argv)
    # the main parser would read the value of an unknown flag before the
    # subcommand (--conf cfg.json) as the subcommand; its -h is argparse's own
    unknown = [arg for arg in unknown if arg not in ("-h", "--help")]
    if unknown:
        pre.error(f"unrecognized arguments: {' '.join(unknown)}")
    if not known.config:
        return argv, {}
    doc = read_json(known.config, UsageError)
    if not isinstance(doc, dict):
        raise UsageError(f"--config {known.config}: expected a JSON object")
    flags = []
    for key, value in doc.items():
        flag = "--" + key.replace("_", "-")
        for item in value if isinstance(value, list) else [value]:
            if isinstance(item, (dict, list)):
                raise UsageError(f"--config key {key!r} holds an object or a nested list")
            if item is True:
                flags.append(flag)
            elif item is not False and item is not None:
                flags.append(f"{flag}={item}")
    at = len(argv) - len(known.rest) + 1  # rest is argv from the subcommand on
    return [*argv[:at], *flags, *argv[at:]], doc


def _check_config_lists(doc: dict, args) -> None:
    """Reject a list for a flag that would keep only its last item.  argparse
    has checked every key that became a flag; a ``false``, ``null`` or ``[]``
    key becomes none, so it sets nothing even when it names no flag."""
    for key, value in doc.items():
        dest = key.replace("-", "_")
        if value and isinstance(value, list) and not isinstance(getattr(args, dest), list):
            raise UsageError(f"--config key {key!r} takes one value, not a list")


def _add_top_level_flags(parser) -> None:
    """The flags taken before the subcommand, besides -h: the main parser's,
    and those the --config pre-parser lets pass."""
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--config", help="JSON file of flag values; typed flags win")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="massimpute",
        description="Survey data integration by mass imputation.",
    )
    _add_top_level_flags(parser)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_fit_flags(p):
        # the mean-model fit of `fit` and `bootstrap`
        p.add_argument("--train", required=True)
        p.add_argument("--response", required=True)
        p.add_argument("--covariates", type=_names, required=True,
                       help="comma-separated names")
        p.add_argument("--categorical", type=_categorical, action="append",
                       metavar="COL=REF")
        p.add_argument(
            "--family", choices=[f.value for f in ModelFamily], default="linear"
        )
        p.add_argument("--no-intercept", action="store_true")

    p = sub.add_parser("fit", help="fit the mean model on the training sample B")
    add_fit_flags(p)
    p.add_argument("--out", required=True)

    p = sub.add_parser("impute", help="predict responses for sample A")
    p.add_argument("--model", required=True)
    p.add_argument("--sample-a", required=True)
    p.add_argument("--weight", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("estimate", help="point estimate with optional variance")
    p.add_argument("--imputed", required=True)
    p.add_argument("--pop-size", type=_pop_size, help="a number or 'estimate'")
    p.add_argument(
        "--variance", choices=["linearized", "bootstrap", "none"], default="none"
    )
    p.add_argument("--train", help="sample B CSV (required for linearized)")
    p.add_argument("--design", choices=["srs", "ppswr"], default="ppswr")
    p.add_argument("--report", required=True)

    p = sub.add_parser("bootstrap", help="build the replicate-augmented release file")
    add_fit_flags(p)
    p.add_argument("--sample-a", required=True)
    p.add_argument("--weight", required=True)
    p.add_argument("--pop-size", type=_pop_size, help="a number or 'estimate'")
    p.add_argument("--L", type=_at_least(1), default=500)
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("simulate", help="run the Monte Carlo study")
    p.add_argument("--model", choices=["I", "II", "III"], required=True)
    p.add_argument("--pop-size", type=_at_least(1), default=100_000)
    p.add_argument("--n-a", type=_at_least(2), default=500)
    p.add_argument("--n-b", type=_at_least(2), default=500)
    # the Monte Carlo variance needs two reps
    p.add_argument("--reps", type=_at_least(2), default=1000)
    p.add_argument("--boot-l", type=_at_least(0), default=500)
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.add_argument("--report", required=True)
    p.add_argument("--per-rep", help="optional CSV of per-rep estimates")

    return parser


def _fit_from_args(args):
    """Check the flags, load sample B, fit; (model, sample_b, design_b, schema)."""
    categoricals = dict(args.categorical or ())
    if args.response in args.covariates:
        raise UsageError(f"--covariates holds the --response column {args.response!r}")
    stray = set(categoricals) - set(args.covariates)
    if stray:
        raise UsageError(f"--categorical column {stray.pop()!r} is not in --covariates")
    schema = ColumnSchema(args.covariates, args.response, categoricals=categoricals)
    sample_b = load_sample(args.train, schema, SampleKind.NON_PROBABILITY_B)
    design_b = build_design_matrix(
        sample_b, sample_b.covariate_names, intercept=not args.no_intercept
    )
    model = fit_model(ModelFamily(args.family), sample_b, design_b)
    return model, sample_b, design_b, schema


def cmd_fit(args) -> int:
    model, _, _, schema = _fit_from_args(args)
    doc = model_document(model, schema)
    doc["version"] = __version__
    doc["input_digests"] = {args.train: _sha256(args.train)}
    write_json(args.out, doc)
    return 0


def _load_under_model(path, model, schema, weight=None):
    """Sample B at ``path``, or sample A with its ``weight`` column, read
    under the fit's ``schema``, with its design built from the model's
    column names.

    A column that the model lacks, such as a categorical level that the
    fit's sample B never saw, has no coefficient and is rejected.
    """
    kind = SampleKind.NON_PROBABILITY_B
    if weight is not None:
        schema = replace(schema, response=None, weight=weight)
        kind = SampleKind.PROBABILITY_A
    sample = load_sample(path, schema, kind)
    design = build_design_matrix(sample, model.raw_names,
                                 intercept=model.intercept_included)
    unknown = [n for n in sample.covariate_names if n not in model.covariate_names]
    if unknown:
        raise ValidationError(f"{path}: columns {unknown} are not in the model: "
                              "a level that the fit's sample B lacks has no coefficient")
    return sample, design


def cmd_impute(args) -> int:
    model_doc = read_json(args.model)
    model, schema = read_model_document(model_doc)
    sample_a, design_a = _load_under_model(args.sample_a, model, schema, args.weight)
    yhat = predict_all(model, design_a)

    names = list(sample_a.covariate_names) + [args.weight]
    manifest = {
        "format": IMPUTED_FORMAT,
        "model": model_doc,
        "weight_name": args.weight,
        "version": __version__,
        "input_digests": {
            args.model: _sha256(args.model),
            args.sample_a: _sha256(args.sample_a),
        },
    }
    write_with_manifest(args.out, names + ["yhat"],
                        [sample_a.columns[n] for n in names] + [yhat], manifest)
    return 0


def cmd_estimate(args) -> int:
    linearized = args.variance == "linearized"
    if linearized and not args.train:
        raise UsageError("linearized variance requires --train")
    if linearized and args.design == "srs" and args.pop_size is None:
        raise UsageError("SRS design needs a numeric --pop-size")
    dataset = read_augmented_dataset(args.imputed, with_sample=linearized)
    N = dataset.population_size_used(args.pop_size)
    theta = ht_mean(dataset.yhat, dataset.weights, N)
    doc = {
        "estimator": "mass_imputation",
        "theta_hat": theta,
        "n_a": len(dataset.weights),
        "n_b": 0,
        "population_size_used": N,
        "version": __version__,
        "input_digests": {args.imputed: _sha256(args.imputed)},
    }

    if args.variance == "bootstrap":
        # an imputed file (L = 0) has no replicates: bootstrap_variance rejects it
        v_boot = bootstrap_variance(theta, replicate_estimates(dataset, N))
        doc["variance"] = {
            "method": "bootstrap", "L": dataset.L, **interval_summary(v_boot)
        }
    elif linearized:
        model, sample_a = dataset.model, dataset.sample_a
        sample_b, design_b = _load_under_model(args.train, model, dataset.schema)
        design_a = build_design_matrix(sample_a, model.raw_names,
                                       intercept=model.intercept_included)
        design_spec = srs_design(N) if args.design == "srs" else ppswr_design()
        # an overflow leaves a component infinite or NaN, which is refused
        with np.errstate(over="ignore", invalid="ignore"):
            lin = linearized_variance(
                model, sample_a, sample_b, design_a, design_b, design_spec, N
            )
        doc["variance"] = {"method": "linearized", **lin.to_dict()}
        doc["n_b"] = sample_b.n
        doc["input_digests"][args.train] = _sha256(args.train)
    write_json(args.report, doc)
    return 0


def cmd_bootstrap(args) -> int:
    model, sample_b, design_b, schema = _fit_from_args(args)
    sample_a, design_a = _load_under_model(args.sample_a, model, schema, args.weight)
    betas, retries = bootstrap_refit(
        sample_b, model.family, design_b, args.L, args.seed, usable_cpus()
    )
    # only the refits need sample B: release it before sample A's n_A x L
    # replicate columns are built and written
    del sample_b, design_b
    replicate_set = sample_a_replicates(
        model, sample_a, design_a, ppswr_design(args.pop_size), betas, args.seed,
        retries,
    )
    write_augmented_dataset(
        sample_a, replicate_set, model, args.out, population_size=args.pop_size
    )
    return 0


def cmd_simulate(args) -> int:
    try:
        # the reps run in one worker per usable CPU
        config = SimConfig(
            model_id=args.model, population_size=args.pop_size, n_a=args.n_a,
            n_b=args.n_b, reps=args.reps, bootstrap_L=args.boot_l, master_seed=args.seed,
        )
    except ValidationError as exc:  # flags that conflict, such as n_a + n_b > N
        raise UsageError(f"simulate: {exc}") from None
    report = run_monte_carlo(config)
    write_json(args.report, report.to_dict())
    if args.per_rep:
        write_per_rep_csv(report, args.per_rep)
    print(
        f"simulate: model {args.model}, {args.reps} reps, "
        f"{report.wall_clock_seconds:.1f}s",
        file=sys.stderr,
    )
    return 0


_COMMANDS = {
    "fit": cmd_fit,
    "impute": cmd_impute,
    "estimate": cmd_estimate,
    "bootstrap": cmd_bootstrap,
    "simulate": cmd_simulate,
}


def _fail(exc: Exception, code: int) -> int:
    json.dump({"error": type(exc).__name__, "message": str(exc)}, sys.stderr)
    sys.stderr.write("\n")
    return code


def run_cli(argv=None) -> int:
    """Run one command on ``argv`` (``sys.argv[1:]`` when None) and return
    its exit code.  It first calls
    :func:`~massimpute.workers.use_builtin_hashes`, which lasts for the
    calling process: unless ``hashlib`` was imported before the first call,
    every later ``import hashlib`` in the process is built without OpenSSL,
    so it lacks ``hashlib.scrypt`` (and ``pbkdf2_hmac`` on Python 3.12+).
    A caller that needs those imports ``hashlib`` first."""
    use_builtin_hashes()
    if argv is None:
        argv = sys.argv[1:]
    # stderr holds the JSON error alone: a warning, such as the overflow
    # guard's, is dropped unless a filter of the caller's (-W, -X dev) takes it
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", append=True)
        try:
            argv, config = _splice_config(argv)
            args = build_parser().parse_args(argv)
            _check_config_lists(config, args)
            return _COMMANDS[args.command](args)
        except UsageError as exc:
            return _fail(exc, 2)
        except ValidationError as exc:
            return _fail(exc, 3)
        except OSError as exc:
            return _fail(IOFailure(str(exc)), 3)
        except NumericalError as exc:
            return _fail(exc, 4)


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
