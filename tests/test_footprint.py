"""What a massimpute process loads: no command maps OpenSSL, and the forked
workers need no ``multiprocessing``.  Both cost resident memory in every
command (about 3.5 and 0.9 MiB).  Where a hash module that ``hashlib`` falls
back to is missing, OpenSSL is mapped after all, and nothing is logged."""

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import massimpute

from conftest import write_csv

# Runs the commands given as JSON in one fresh process, after numpy, and
# prints, after each, which of the watched modules are loaded (a module set to
# None is not), and how many workers were forked.  Prints null if numpy's
# import already loads OpenSSL.
_SCRIPT = """
import json, os, sys
import numpy
if "_hashlib" in sys.modules:
    print("null")
    sys.exit()
from massimpute import cli, workers
forks, fork = [], os.fork
def counted_fork():
    pid = fork()
    if pid:
        forks.append(pid)
    return pid
os.fork = counted_fork
workers.usable_cpus = cli.usable_cpus = lambda: 2  # two refit workers
loaded = {}
for name, argv in json.loads(sys.argv[1]):
    assert cli.run_cli(argv) == 0, name
    loaded[name] = [m for m in ("_hashlib", "multiprocessing")
                    if sys.modules.get(m) is not None]
print(json.dumps({"loaded": loaded, "forks": len(forks)}))
"""


def test_commands_load_no_openssl_and_no_multiprocessing(tmp_path, rng):
    x = rng.normal(2, 1, 300)
    write_csv(tmp_path / "b.csv", ["x", "y"], zip(x, 1 + 2 * x + rng.normal(size=300)))
    write_csv(tmp_path / "a.csv", ["x", "w"],
              zip(rng.normal(2, 1, 40), np.full(40, 25.0)))
    fit = ["--train", "b.csv", "--response", "y", "--covariates", "x"]
    commands = [
        ("fit", ["fit", *fit, "--out", "model.json"]),
        ("impute", ["impute", "--model", "model.json", "--sample-a", "a.csv",
                    "--weight", "w", "--out", "imputed.csv"]),
        ("estimate", ["estimate", "--imputed", "imputed.csv", "--variance",
                      "linearized", "--train", "b.csv", "--report", "report.json"]),
        # numpy.random imports secrets, and so hashlib, in the draws
        ("bootstrap", ["bootstrap", *fit, "--sample-a", "a.csv", "--weight", "w",
                       "--L", "4", "--seed", "3", "--out", "release.csv"]),
    ]
    env = {**os.environ,
           "PYTHONPATH": os.path.dirname(os.path.dirname(massimpute.__file__))}
    done = subprocess.run([sys.executable, "-c", _SCRIPT, json.dumps(commands)],
                          cwd=tmp_path, env=env, timeout=120, capture_output=True,
                          text=True, check=True)
    result = json.loads(done.stdout)
    if result is None:
        pytest.skip("importing numpy loads OpenSSL (numpy 1.x imports numpy.random)")
    assert result["loaded"]["fit"] == []
    assert result["loaded"]["impute"] == []
    assert result["loaded"]["estimate"] == []
    assert result["loaded"]["bootstrap"] == []
    assert result["forks"] == 2


_WORKER_SCRIPT = """
import json, sys
import numpy
if "_hashlib" in sys.modules:
    print("null")
    sys.exit()
from massimpute import workers
workers.usable_cpus = lambda: 2

def draw(r):
    import numpy.random  # imports secrets, and so hashlib
    return [sys.modules["_hashlib"] is not None for _ in r]

print(json.dumps({"workers": workers.fork_map(draw, 2, 2),
                  "caller": "_hashlib" in sys.modules}))
"""


def test_workers_map_no_openssl_and_leave_the_caller_as_it_was():
    env = {**os.environ,
           "PYTHONPATH": os.path.dirname(os.path.dirname(massimpute.__file__))}
    done = subprocess.run([sys.executable, "-c", _WORKER_SCRIPT], env=env,
                          timeout=120, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout)
    if result is None:
        pytest.skip("importing numpy loads OpenSSL (numpy 1.x imports numpy.random)")
    assert result == {"workers": [[False], [False]], "caller": False}


# Sets the modules named in argv[1] to None before anything is imported, then
# runs a two-worker fork_map whose workers import numpy.random, and after it
# fit, whose model it prints.
_MISSING_SCRIPT = """
import json, sys
for name in sys.argv[1].split(","):
    sys.modules[name] = None
import numpy
from massimpute import cli, workers
workers.usable_cpus = lambda: 2

def draw(r):
    import numpy.random  # imports secrets, and so hashlib
    return list(r)

assert workers.fork_map(draw, 2, 2) == [[0], [1]]
assert cli.run_cli(["fit", "--train", "b.csv", "--response", "y",
                    "--covariates", "x", "--out", "model.json"]) == 0
print(open("model.json").read())
"""


@pytest.mark.parametrize("missing", ["_md5", "_sha2,_sha256,_sha512"])
def test_a_missing_builtin_hash_logs_nothing(missing, tmp_path, rng):
    # hashlib logs a traceback for each hash it finds no module for, so where
    # one is missing hashlib is built on OpenSSL, in the commands and workers
    x = rng.normal(2, 1, 300)
    write_csv(tmp_path / "b.csv", ["x", "y"], zip(x, 1 + 2 * x + rng.normal(size=300)))
    env = {**os.environ,
           "PYTHONPATH": os.path.dirname(os.path.dirname(massimpute.__file__))}
    done = subprocess.run([sys.executable, "-c", _MISSING_SCRIPT, missing],
                          cwd=tmp_path, env=env, timeout=120, capture_output=True,
                          text=True)
    assert (done.returncode, done.stderr) == (0, "")
    digest = hashlib.sha256((tmp_path / "b.csv").read_bytes()).hexdigest()
    assert json.loads(done.stdout)["input_digests"] == {"b.csv": digest}
