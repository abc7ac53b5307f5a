"""Import contract: `import chronobell` is lazy, and a subcommand loads only what it runs."""

import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import chronobell as cb

SRC = Path(__file__).resolve().parents[1] / "src"
SUBMODULES = ("chronology", "errors", "flash", "lambdafile", "localpolytope", "quantum", "simplex")

# the package's public names, as the eager namespace listed them
ALL = [
    "BehaviorVector", "BlochSetting", "CapacityError", "ChronobellError", "Chronology",
    "ConstraintReport", "ConstraintViolation", "CorrelationTable", "CovarianceReport",
    "DEFAULT_BLOCK", "EmptyFileError", "FacetCheck", "FlashEnsemble", "FlashHistory",
    "FlashRecord", "GridWavefunction", "HitKernel", "ImpossibleFlashError",
    "ImpossibleOutcomeError", "InvalidStateError", "JointDistribution", "LOCAL_BOUND",
    "LambdaFile", "LambdaFormatError", "LambdaStream", "LocalModel", "MembershipResult",
    "NotReducibleError", "OUTCOMES", "OracleDisagreementError", "OrderingReport", "Party",
    "SearchResult", "SearchSpaceError", "StrategyQuadruple", "StreamExhaustedError",
    "TSIRELSON_BOUND", "TrialResult", "TwoQubitState", "apply_hit", "behavior_of",
    "born_marginal", "check_covariance_constraints", "chronology", "chsh_facet_check",
    "chsh_value", "collapse", "distribution_covariance_check", "errors", "estimate_table",
    "exact_table",
    "exhaustive_nogo_search", "flash", "flash_distribution", "generate_lambda_file",
    "joint_distribution", "lambdafile", "local_membership_lp", "localpolytope",
    "make_entangled_pair", "make_hit_kernel", "make_product_state",
    "make_singlet", "ordering_invariance_exact", "quantum", "quantum_behavior",
    "realization_divergence", "reduce_to_local",
    "run_flash_process", "run_flash_processes", "run_trial", "sample_first",
    "sample_flash_pair", "sample_hit_center", "sample_second", "simplex",
]

# runs `python -m chronobell <argv>` and reports on stderr what the process imported:
# its chronobell modules, and whether it loaded hashlib, numpy, numpy.random, dataclasses
# and inspect.
# `cli.run` ends the process with os._exit, here made a SystemExit so that the report runs
RUN_MAIN = """
import json, os, runpy, sys
def _exit(code):
    raise SystemExit(code)
os._exit = _exit
try:
    runpy.run_module("chronobell", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
loaded = sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("chronobell."))
stdlib = [m in sys.modules for m in ("hashlib", "numpy", "numpy.random", "dataclasses", "inspect")]
sys.stderr.write(json.dumps([code, loaded, *stdlib]))
"""

EXACT = ["errors", "localpolytope", "quantum", "reporting", "simplex", "values"]

# per case: the argv, the chronobell modules it loads besides `cli`, and whether it loads
# hashlib, numpy and numpy.random. Only the lambda-driven subcommands load `cli_lambda`,
# and none loads `strategies`. numpy.random, which itself imports hashlib, makes the dense
# seeded words of gen-lambda; covariance and flash read a few words of each block, which
# `pcg64` makes from a --seed without it. flash hashes its history, and loads no
# `quantum`. `chsh` and `nogo` are plain float arithmetic, whatever their state, alphabet
# size or --out. No subcommand loads dataclasses; numpy loads inspect
COVARIANCE = ["chronology", "cli_lambda", "errors", "lambdafile", "quantum", "reporting", "values"]
FLASH = ["cli_lambda", "errors", "flash", "lambdafile", "reporting", "values"]
LOADED = {
    "gen-lambda": (("gen-lambda", "--seed", "1", "--count", "8", "--out", "out.bin"),
                   ["cli_lambda", "errors", "lambdafile", "reporting", "values"], True, True, True),
    "chsh": (("chsh",), EXACT, False, False, False),
    "chsh-out": (("chsh", "--out", "report.json"), EXACT, False, False, False),
    "chsh-complex-state": (("chsh", "--state", "0.5,0.5j,-0.5,0.5j", "--angles",
                            "0,0.3:0.4:0.866,45,135"), EXACT, False, False, False),
    "nogo": (("nogo", "--alphabet-size", "1"), EXACT, False, False, False),
    "nogo-alphabet-8": (("nogo", "--alphabet-size", "8"), EXACT, False, False, False),
    "covariance": (("covariance", "--trials", "10", "--lambda-file", "lambda.bin"),
                   COVARIANCE, False, True, False),
    "covariance-seed": (("covariance", "--trials", "10", "--seed", "1"),
                        sorted([*COVARIANCE, "pcg64"]), False, True, False),
    "flash": (("flash", "--runs", "2", "--seed", "1"), sorted([*FLASH, "pcg64"]),
              True, True, False),
    "flash-lambda-file": (("flash", "--runs", "2", "--lambda-file", "lambda.bin"), FLASH,
                          True, True, False),
}


def _python(cwd, *args) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )


def test_import_loads_no_submodule_and_no_numpy(tmp_path):
    proc = _python(tmp_path, "-c", (
        "import json, sys, chronobell; "
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith(('chronobell', 'numpy')))))"
    ))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == ["chronobell"]


@pytest.mark.parametrize("case", list(LOADED))
def test_each_subcommand_loads_only_what_it_runs(tmp_path, case):
    cb.generate_lambda_file(seed=1, count=10 * 64).save(tmp_path / "lambda.bin")
    argv, modules, uses_hashlib, uses_numpy, uses_numpy_random = LOADED[case]
    proc = _python(tmp_path, "-c", RUN_MAIN, *argv)
    code, loaded, hashlib_loaded, numpy_loaded, numpy_random_loaded, dataclasses_loaded, \
        inspect_loaded = json.loads(proc.stderr.splitlines()[-1])
    assert code == 0
    assert [m for m in loaded if m not in ("__main__", "cli")] == modules
    assert hashlib_loaded is uses_hashlib
    assert numpy_loaded is uses_numpy
    assert numpy_random_loaded is uses_numpy_random
    assert dataclasses_loaded is False
    assert inspect_loaded is uses_numpy  # numpy imports inspect


@pytest.mark.parametrize(
    "argv,expected_code",
    [(("--help",), 0), (("flash", "--help"), 0), (("chsh", "--tol"), 2), (("nope",), 2),
     (("flash", "--rate", "0", "--seed", "1"), 2),
     (("covariance", "--trials", "0", "--seed", "1"), 2), (("chsh", "--tol", "2"), 2),
     (("flash", "--seed", "-1", "--runs", "2"), 2), (("flash", "--sites", "33", "--seed", "1"), 2)],
    ids=["help", "subcommand-help", "missing-value", "unknown-subcommand", "flash-rate-0",
         "covariance-trials-0", "chsh-tol-2", "flash-seed-negative", "flash-sites-33"],
)
def test_help_and_usage_errors_load_no_numpy(tmp_path, argv, expected_code):
    proc = _python(tmp_path, "-c", RUN_MAIN, *argv)
    code, loaded, _, numpy_loaded, _, dataclasses_loaded, inspect_loaded = json.loads(
        proc.stderr.splitlines()[-1]
    )
    assert code == expected_code
    # the parser's maxima live in `values`, which imports nothing
    assert [m for m in loaded if m not in ("__main__", "cli")] == ["errors", "reporting", "values"]
    assert numpy_loaded is dataclasses_loaded is inspect_loaded is False


@pytest.mark.parametrize("argv", [
    ("gen-lambda", "--seed", "1", "--count", "8", "--out", "out.bin"),
    ("covariance", "--trials", "10", "--seed", "1"),
], ids=["gen-lambda", "covariance-seed"])
def test_cli_run_as_a_module_compiles_cli_once(tmp_path, argv):
    # `cli_lambda` imports `chronobell.cli`, which must be the module `-m` runs
    as_cli = _python(tmp_path, "-X", "importtime", "-m", "chronobell.cli", *argv)
    as_package = _python(tmp_path, "-m", "chronobell", *argv)
    assert as_cli.returncode == as_package.returncode == 0
    assert as_cli.stdout == as_package.stdout
    imported = [line.rsplit("|", 1)[1].strip() for line in as_cli.stderr.splitlines()
                if line.startswith("import time:")]
    assert "chronobell.cli_lambda" in imported
    assert "chronobell.cli" not in imported


def test_all_is_unchanged_and_listed_by_dir():
    assert cb.__all__ == ALL
    assert set(ALL) <= set(dir(cb))


def test_every_exported_name_has_a_caller_outside_the_tests():
    # a name only tests call belongs in tests/support.py, not in the package's namespace
    package, root = SRC / "chronobell", SRC.parent
    users = [*sorted(set(package.glob("*.py")) - {package / "__init__.py"}),
             *sorted((root / "demos").glob("*.py")),
             root / "benchmark" / "run.py", root / "benchmark" / "workloads.py"]
    lines = [line for path in users for line in path.read_text().splitlines()]

    def called(name):
        definition = re.compile(rf"\s*(def|class)\s+{name}\b")
        return any(re.search(rf"\b{name}\b", line) and not definition.match(line)
                   for line in lines)

    assert [name for name in cb.__all__ if name not in cb._EXPORTS and not called(name)] == []


def test_every_name_is_its_defining_modules_object():
    modules = {name: importlib.import_module(f"chronobell.{name}") for name in SUBMODULES}
    for name in ALL:
        obj = getattr(cb, name)
        home = getattr(obj, "__module__", None)
        if name in modules:
            assert obj is modules[name]
        elif home in sys.modules and home.startswith("chronobell."):  # classes and functions
            assert getattr(sys.modules[home], name) is obj, name
        else:  # constants
            assert any(vars(module).get(name) is obj for module in modules.values()), name


def test_star_import_binds_every_name():
    namespace = {}
    exec("from chronobell import *", namespace)
    assert sorted(k for k in namespace if not k.startswith("__")) == ALL


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="'nope'"):
        getattr(cb, "nope")
    assert not hasattr(cb, "nope")
