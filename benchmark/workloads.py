"""The benchmark's workloads: CLI op lists built from a seed, and their output checks.

Each workload is a list of `chronobell` command lines (ops) plus an optional
set-up command. Inputs depend only on the workload seed. Every op has a check
on its exit code and report; a failed check counts the op as failed.

Probe ops reproduce known defects (listed in ROADMAP.md, "Baseline"). They
fail today and are kept in their workloads on purpose, so that the failure
share is nonzero and steady, and a fix shows as fewer failed ops.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

WORKLOADS = ("covariance-replay", "flash-ensemble", "locality-certify")

# Sizes tuned so that one pass of each op list takes a few seconds on a
# 2-core machine; SMALL_SIZES keeps the self-tests fast.
SIZES = {
    "trials": 20_000,
    "flash_runs": 5_000,
    "flash32_runs": 1_000,
    "alphabet": 5,
    "chsh_random": 8,
}
SMALL_SIZES = {
    "trials": 50,
    "flash_runs": 20,
    "flash32_runs": 5,
    "alphabet": 2,
    "chsh_random": 2,
}

LAMBDA_FILE = "lambda.bin"
HISTORY_FILE = "history.txt"
COV_ANGLES = "0,90/45,135"
CHSH_ANGLES = "0,90,45,135"
CHSH_TOL = 1e-9  # agreement of the reported CHSH value with Born's rule

# ROADMAP.md, Baseline: oracle disagreement at CHSH magnitude 2 + 5e-10
# (default --tol 1e-9) and 2 + 5e-7 (--tol 1e-6).
BOUNDARY_STATE_1E9 = "0,0.9772869898252907,-0.2119201253260814,0"
BOUNDARY_STATE_1E6 = "0,0.9772869487069313,-0.21192031494666996,0"


@dataclass(frozen=True)
class Op:
    """One CLI invocation and the check of its result.

    `check(report, workdir)` returns a list of problems; it is called only
    when the exit code is 0. `probe` marks a known-defect reproduction.
    """

    name: str
    argv: tuple[str, ...]
    check: Callable[[dict, Path], list[str]]
    probe: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[Op, ...]
    # set-up command (run before timing) or None for a cold `import chronobell`
    setup: tuple[str, ...] | None = None
    # pairs of op names whose `results` must be byte-identical
    same_results: tuple[tuple[str, str], ...] = ()


def results_digest(report: dict) -> str:
    """sha256 of the report's `results` object in a fixed serialization."""
    blob = json.dumps(report.get("results"), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def parse_report(stdout: str) -> dict:
    """The op's JSON report; raises ValueError when stdout is not one."""
    report = json.loads(stdout)
    if not isinstance(report, dict) or not isinstance(report.get("results"), dict):
        raise ValueError("report has no results object")
    return report


def evaluate(op: Op, exit_code: int, stdout: str, workdir: Path) -> tuple[list[str], str | None]:
    """(problems, results digest) for one finished op."""
    if exit_code != 0:
        return [f"exit code {exit_code}, expected 0"], None
    try:
        report = parse_report(stdout)
    except ValueError as exc:
        return [f"unreadable report: {exc}"], None
    try:
        problems = op.check(report, workdir)
    except (KeyError, TypeError, ValueError, OSError) as exc:
        problems = [f"report check raised {type(exc).__name__}: {exc}"]
    return problems, results_digest(report)


# ----------------------------------------------------------------- checks


def _check_covariance(report: dict, workdir: Path) -> list[str]:
    dist = report["results"]["covariance"]["distribution"]
    return [] if dist["pass"] is True else [f"distribution check failed: {dist}"]


def _check_flash(report: dict, workdir: Path) -> list[str]:
    results = report["results"]
    problems = []
    if results["ordering_invariance"]["pass"] is not True:
        problems.append(f"ordering invariance failed: {results['ordering_invariance']}")
    if "history_file" in results:
        history = (workdir / HISTORY_FILE).read_bytes()
        lines = history.count(b"\n")
        if results["hits"]["total"] != lines:
            problems.append(f"hits.total {results['hits']['total']} != {lines} history lines")
        if hashlib.sha256(history).hexdigest() != results["history_sha256"]:
            problems.append("history file does not match history_sha256")
    return problems


def _check_nogo(expect_found: bool | None) -> Callable[[dict, Path], list[str]]:
    def check(report: dict, workdir: Path) -> list[str]:
        search = report["results"]["search"]
        problems = []
        if expect_found is not None and search["found"] is not expect_found:
            problems.append(f"found={search['found']}, expected {expect_found}")
        if search["max_chsh"] != 2:
            problems.append(f"max_chsh={search['max_chsh']!r}, expected 2")
        return problems

    return check


def _pauli_along(theta_deg: float) -> np.ndarray:
    t = math.radians(theta_deg)
    return np.array([[math.cos(t), math.sin(t)], [math.sin(t), -math.cos(t)]])


def expected_chsh(amplitudes: np.ndarray, angles: list[float]) -> float:
    """E(a,b) + E(a,b2) + E(a2,b) - E(a2,b2), from Born's rule directly."""
    a, a2, b, b2 = (_pauli_along(x) for x in angles)
    psi = amplitudes / np.linalg.norm(amplitudes)

    def corr(x, y):
        return float(np.real(np.vdot(psi, np.kron(x, y) @ psi)))

    return corr(a, b) + corr(a, b2) + corr(a2, b) - corr(a2, b2)


def _check_chsh(expected: float | None) -> Callable[[dict, Path], list[str]]:
    def check(report: dict, workdir: Path) -> list[str]:
        results = report["results"]
        problems = []
        if results["lp_local"] != results["facet_local"]:
            problems.append(f"lp_local={results['lp_local']} != facet_local={results['facet_local']}")
        if expected is not None and abs(results["chsh_value"] - expected) > CHSH_TOL:
            problems.append(f"chsh_value {results['chsh_value']!r} != expected {expected!r}")
        return problems

    return check


# --------------------------------------------------------------- workloads


def _random_chsh_inputs(seed: int, count: int) -> list[tuple[str, str, float]]:
    """(state, angles, expected CHSH value) for `count` seeded random cases."""
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(count):
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        amps /= np.linalg.norm(amps)
        angles = [float(x) for x in rng.uniform(0.0, 180.0, size=4)]
        state = ",".join(repr(complex(x)) for x in amps)
        cases.append((state, ",".join(repr(x) for x in angles), expected_chsh(amps, angles)))
    return cases


def build(name: str, seed: int, sizes: dict | None = None) -> Workload:
    """The workload `name` with inputs made from `seed`."""
    sizes = SIZES if sizes is None else sizes
    s = str(seed)
    if name == "covariance-replay":
        trials = sizes["trials"]
        base = ("covariance", "--state", "singlet", "--angles", COV_ANGLES, "--trials", str(trials))
        return Workload(
            name,
            (
                Op("cov-file-ab", base + ("--lambda-file", LAMBDA_FILE, "--chronology", "ab"), _check_covariance),
                Op("cov-file-ba", base + ("--lambda-file", LAMBDA_FILE, "--chronology", "ba"), _check_covariance),
                Op("cov-seed-ab", base + ("--seed", s, "--chronology", "ab"), _check_covariance),
            ),
            setup=("gen-lambda", "--seed", s, "--count", str(4 * trials * 64), "--out", LAMBDA_FILE),
            same_results=(("cov-file-ab", "cov-seed-ab"),),
        )
    if name == "flash-ensemble":
        return Workload(
            name,
            (
                Op("flash-grid16", ("flash", "--seed", s, "--runs", str(sizes["flash_runs"]), "--out", HISTORY_FILE), _check_flash),
                Op("flash-grid32", ("flash", "--seed", s, "--sites", "32", "--rate", "2", "--runs", str(sizes["flash32_runs"])), _check_flash),
                Op("probe-flash-rate100", ("flash", "--seed", s, "--runs", "1", "--rate", "100"), _check_flash, probe=True),
            ),
        )
    if name == "locality-certify":
        alphabet = str(sizes["alphabet"])
        ops = [
            Op("nogo-singlet", ("nogo", "--alphabet-size", alphabet, "--state", "singlet", "--angles", CHSH_ANGLES), _check_nogo(False)),
            Op("nogo-product00", ("nogo", "--alphabet-size", alphabet, "--state", "product00", "--angles", CHSH_ANGLES), _check_nogo(None)),
        ]
        for k, (state, angles, value) in enumerate(_random_chsh_inputs(seed, sizes["chsh_random"])):
            ops.append(Op(f"chsh-random-{k}", ("chsh", "--state", state, "--angles", angles), _check_chsh(value)))
        ops.append(Op("probe-chsh-boundary-tol1e-9", ("chsh", "--state", BOUNDARY_STATE_1E9), _check_chsh(None), probe=True))
        ops.append(Op("probe-chsh-boundary-tol1e-6", ("chsh", "--state", BOUNDARY_STATE_1E6, "--tol", "1e-6"), _check_chsh(None), probe=True))
        return Workload(name, tuple(ops))
    raise ValueError(f"unknown workload {name!r}")
