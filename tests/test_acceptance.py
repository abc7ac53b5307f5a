"""Acceptance suite: the package's exit criteria, one test per criterion.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see them
all). Tolerances are pinned here, not configurable. Monte Carlo checks state
their exact oracle next to the assertion; every frozen constant was computed
with a standalone enumerator before the test existed.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

import chronobell as cb
from chronobell import cli

SQRT2 = math.sqrt(2.0)


def _report(number: int, description: str, passed: bool, detail: str = "") -> bool:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number}: {status} - {description}{suffix}")
    return passed


def A(deg):
    return cb.BlochSetting.from_angle(deg, "A")


def B(deg):
    return cb.BlochSetting.from_angle(deg, "B")


def singlet_target():
    return cb.quantum_behavior(cb.make_singlet(), A(0), A(90), B(45), B(-45))


def run_cli_json(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out), out


def test_01_tsirelson_reproduction(capsys):
    """CLI chsh at angles 0/90/45/135 reports |CHSH| = 2*sqrt(2) within 1e-9."""
    start = time.perf_counter()
    code, report, _ = run_cli_json(
        capsys, "chsh", "--state", "singlet", "--angles", "0,90,45,135"
    )
    elapsed = time.perf_counter() - start
    magnitude = report["results"]["chsh_magnitude"]
    ok = (
        code == 0
        and abs(magnitude - 2 * SQRT2) <= 1e-9
        and elapsed < 1.0
    )
    assert _report(
        1,
        "CLI chsh on the singlet reports |CHSH| = 2*sqrt(2) within 1e-9 in under 1 s",
        ok,
        f"magnitude={magnitude!r}, {elapsed:.3f}s",
    )


def test_02_local_bound(capsys):
    """max |CHSH| is exactly 2 over the 16 vertices and every search run."""
    vertex_max = max(
        cb.chsh_facet_check(v).max_facet_value
        for v in cb.enumerate_deterministic_strategies()
    )
    target = singlet_target()
    search_maxima = {}
    elapsed_l4 = None
    for size in (1, 2, 3, 4):
        start = time.perf_counter()
        search_maxima[size] = cb.exhaustive_nogo_search(size, target, tol=1e-6).max_chsh
        if size == 4:
            elapsed_l4 = time.perf_counter() - start
    ok = (
        vertex_max == 2.0
        and all(value == 2.0 for value in search_maxima.values())
        and elapsed_l4 < 30.0
    )
    assert _report(
        2,
        "local bound: vertex max |CHSH| == 2 exactly; search max-chsh == 2 at L=1..4",
        ok,
        f"vertex={vertex_max!r}, search={search_maxima}, L=4 in {elapsed_l4:.2f}s",
    )


def test_03_nogo_illustration():
    """No consistent quadruple approximates the singlet behavior; reduction exact."""
    target = singlet_target()
    not_found = all(
        not cb.exhaustive_nogo_search(size, target, tol=1e-6).found
        for size in (1, 2, 3, 4)
    )

    def quadruples(size, sample=None):
        tables = [
            np.array(bits, dtype=np.int8).reshape(2, size)
            for bits in itertools.product((1, -1), repeat=2 * size)
        ]
        pairs = list(itertools.product(tables, tables))
        if sample is not None:
            rng = np.random.default_rng(202508)
            pairs = [pairs[i] for i in rng.choice(len(pairs), size=sample, replace=False)]
        for f, g in pairs:
            yield cb.StrategyQuadruple.from_local(cb.LocalModel.uniform(f, g))

    exact = True
    checked = 0
    for size, sample in ((1, None), (2, None), (3, None), (4, 500)):
        for quadruple in quadruples(size, sample):
            p_ab = cb.behavior_of(quadruple, "AB").probs
            p_ba = cb.behavior_of(quadruple, "BA").probs
            p_local = cb.behavior_of(cb.reduce_to_local(quadruple)).probs
            if not (np.array_equal(p_ab, p_ba) and np.array_equal(p_ab, p_local)):
                exact = False
            checked += 1
    ok = not_found and exact
    assert _report(
        3,
        "no-go: search finds nothing within 1e-6 of the singlet behavior at L<=4; "
        "reduction reproduces both chronologies exactly",
        ok,
        f"{checked} quadruples checked bitwise",
    )


def test_04_distribution_covariance(rng):
    """Exact AB/BA agreement on random draws; flash hit-order invariance."""
    start = time.perf_counter()
    worst_quantum = 0.0
    for _ in range(100):
        state = cb.random_pure_state(rng)
        report = cb.distribution_covariance_check(
            state, [cb.random_setting(rng, "A")], [cb.random_setting(rng, "B")]
        )
        worst_quantum = max(worst_quantum, report.max_distribution_diff)

    kernel = cb.make_hit_kernel(12, width=1.5)
    worst_flash = 0.0
    for _ in range(50):
        amps = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        psi = cb.GridWavefunction(amps / np.linalg.norm(amps))
        worst_flash = max(worst_flash, cb.ordering_invariance_exact(psi, kernel).max_diff)
    elapsed = time.perf_counter() - start

    ok = worst_quantum <= 1e-12 and worst_flash <= 1e-12 and elapsed < 10.0
    assert _report(
        4,
        "distribution covariance: 100 measurement draws and 50 flash states agree "
        "across orders within 1e-12",
        ok,
        f"quantum<={worst_quantum:.2e}, flash<={worst_flash:.2e}, {elapsed:.2f}s",
    )


def test_05_realization_non_covariance():
    """Shared lambdas, singlet at a=b=z: divergence matches the enumerated value.

    Exact value over the (lam1, lam2) unit square (rectangle enumeration,
    computed before this test): 1.0 - the chronologies disagree on every
    trial, so 3 sigma collapses to exact equality.
    """
    exact = 1.0
    trials = 10_000
    start = time.perf_counter()
    stream = cb.generate_lambda_file(seed=505, count=trials * 64).stream()
    report = cb.realization_divergence(
        cb.make_singlet(), [A(0)], [B(0)], trials, stream
    )
    elapsed = time.perf_counter() - start
    observed = float(report.divergence_fraction[0, 0])
    sigma = math.sqrt(exact * (1 - exact) / trials)  # 0 here
    ok = abs(observed - exact) <= 3 * sigma and elapsed < 5.0
    assert _report(
        5,
        "realization non-covariance: singlet z/z divergence equals the enumerated "
        "exact value 1.0 at 1e4 trials",
        ok,
        f"observed={observed}, {elapsed:.2f}s",
    )


def test_06_oracle_agreement(rng):
    """LP membership and CHSH facets agree on 1000 no-signaling behaviors."""
    vertex_flats = np.column_stack(
        [v.flat for v in cb.enumerate_deterministic_strategies()]
    )
    optimal = singlet_target()
    disagreements = 0
    locals_seen = 0
    for k in range(1000):
        kind = k % 4
        if kind == 0:
            weights = rng.dirichlet(np.full(16, 0.4))
            behavior = cb.BehaviorVector.from_flat(vertex_flats @ weights)
        elif kind == 1:
            behavior = cb.quantum_behavior(
                cb.random_pure_state(rng),
                cb.random_setting(rng, "A"),
                cb.random_setting(rng, "A"),
                cb.random_setting(rng, "B"),
                cb.random_setting(rng, "B"),
            )
        elif kind == 2:
            quantum = cb.quantum_behavior(
                cb.random_pure_state(rng),
                cb.random_setting(rng, "A"),
                cb.random_setting(rng, "A"),
                cb.random_setting(rng, "B"),
                cb.random_setting(rng, "B"),
            )
            visibility = rng.random()
            behavior = cb.BehaviorVector.from_flat(
                visibility * quantum.flat + (1 - visibility) * 0.25
            )
        else:
            # isotropic noise on the maximally violating behavior, with the
            # visibility drawn around the locality threshold 1/sqrt(2) so the
            # two verdicts are probed right at the polytope boundary
            visibility = 1 / SQRT2 + rng.uniform(-0.1, 0.1)
            behavior = cb.BehaviorVector.from_flat(
                visibility * optimal.flat + (1 - visibility) * 0.25
            )
        lp_local = cb.local_membership_lp(behavior, tol=1e-9).local
        facet_local = cb.chsh_facet_check(behavior, tol=1e-9).local
        disagreements += lp_local != facet_local
        locals_seen += lp_local
    ok = disagreements == 0
    assert _report(
        6,
        "oracle agreement: LP and facet verdicts identical on 1000 behaviors",
        ok,
        f"{locals_seen} local / {1000 - locals_seen} nonlocal, {disagreements} disagreements",
    )


def test_07_simulation_faithfulness(rng):
    """Empirical tables converge to exact ones under both chronologies."""
    trials = 10_000
    bound = 4.0 / math.sqrt(trials)
    settings_a = [A(0), A(90)]
    settings_b = [B(45), B(135)]
    states = [cb.make_singlet(), cb.random_pure_state(rng), cb.random_pure_state(rng)]
    lf = cb.generate_lambda_file(seed=707, count=4 * trials * 64)

    worst = 0.0
    for state in states:
        exact = cb.exact_table(state, settings_a, settings_b)
        for chronology in ("AB", "BA"):
            empirical = cb.estimate_table(
                state, settings_a, settings_b, chronology, trials, lf.stream()
            )
            worst = max(worst, float(empirical.total_variation(exact).max()))
    ok = worst < bound
    assert _report(
        7,
        f"faithfulness: total variation < {bound} at 1e4 trials for 3 states x "
        "2 chronologies",
        ok,
        f"worst={worst:.4f}",
    )


def test_08_flash_statistics(rng):
    """First-flash histogram matches the exact law; hit counts are Poisson."""
    n_sites = 16
    kernel = cb.make_hit_kernel(n_sites, width=2.0)
    amps = rng.standard_normal(n_sites) + 1j * rng.standard_normal(n_sites)
    psi = cb.GridWavefunction(amps / np.linalg.norm(amps))
    exact = cb.flash_distribution(psi, kernel)

    runs = 100_000
    rate, duration = 1.0, 4.0
    expected_hits = rate * duration * psi.n_particles
    root = cb.generate_lambda_file(seed=808, count=runs * 64).stream()
    # run r equals run_flash_process(..., root.split(r)), pinned in test_flash.py
    ensemble = cb.run_flash_processes(psi, kernel, rate, duration, root, runs, block=64)
    counts = np.bincount(ensemble.first_sites(), minlength=n_sites)
    hit_counts = ensemble.hit_counts

    tv = 0.5 * float(np.abs(counts / counts.sum() - exact).sum())
    mean = float(hit_counts.mean())
    sigma = math.sqrt(expected_hits / runs)
    ok = tv < 0.02 and abs(mean - expected_hits) <= 3 * sigma
    assert _report(
        8,
        "flash statistics: first-flash histogram TV < 0.02 at 1e5 runs; Poisson "
        "mean within 3 sigma",
        ok,
        f"tv={tv:.4f}, mean={mean:.3f} vs {expected_hits}",
    )


def test_09_replay_determinism(capsys, tmp_path):
    """Every CLI report and history file is byte-identical across reruns.

    There is no worker-count knob to vary: all Monte Carlo paths address
    their lambda words by trial index, and the module tests assert that
    shuffled execution order reproduces identical tables.
    """
    lam_path = tmp_path / "replay.bin"
    cb.generate_lambda_file(seed=99, count=64 * 2000).save(lam_path)

    stable = True
    detail = []
    commands = {
        "chsh": ("chsh", "--angles", "0,90,45,135"),
        "covariance": (
            "covariance", "--trials", "2000", "--lambda-file", str(lam_path),
            "--out", str(tmp_path / "cov.json"),
        ),
        "nogo": ("nogo", "--alphabet-size", "2"),
        "flash": (
            "flash", "--runs", "100", "--seed", "99", "--out", str(tmp_path / "hist.txt"),
        ),
        "gen-lambda": (
            "gen-lambda", "--seed", "5", "--count", "100", "--out", str(tmp_path / "g.bin"),
        ),
    }
    for name, argv in commands.items():
        outputs = []
        artifacts = []
        for _ in range(2):
            code = cli.main(list(argv))
            outputs.append(capsys.readouterr().out)
            if code != 0:
                stable = False
                detail.append(f"{name}: exit {code}")
            snapshot = {}
            for path in sorted(tmp_path.iterdir()):
                if path != lam_path:
                    snapshot[path.name] = path.read_bytes()
            artifacts.append(snapshot)
        if outputs[0] != outputs[1]:
            stable = False
            detail.append(f"{name}: stdout drift")
        if artifacts[0] != artifacts[1]:
            stable = False
            detail.append(f"{name}: file drift")
    assert _report(
        9,
        "replay determinism: all CLI reports and output files byte-identical "
        "across reruns",
        stable,
        "; ".join(detail) if detail else "5 commands x 2 runs",
    )
