"""What the tests build their cases from, and nothing the package's claims need.

Random states, settings and strategy quadruples from a numpy Generator, fixture
grid wavefunctions, lambda files pinned to chosen reals, and comparison helpers
for the package's value types. `enumerate_deterministic_strategies` builds the
16 local vertices from their definition, not from `localpolytope`'s vertex
table, so that tests can check the table against it.
"""

import itertools
import math

import numpy as np

from chronobell.flash import GridWavefunction
from chronobell.lambdafile import LambdaFile
from chronobell.localpolytope import N_SETTINGS, BehaviorVector
from chronobell.quantum import OUTCOMES, BlochSetting, Party, TwoQubitState
from chronobell.strategies import StrategyQuadruple


def random_pure_state(rng) -> TwoQubitState:
    """Haar-ish random pure state (Gaussian amplitudes, normalized) from a numpy Generator."""
    amps = rng.standard_normal(4) + 1.0j * rng.standard_normal(4)
    return TwoQubitState(amps / np.linalg.norm(amps))


def random_setting(rng, party: Party | str) -> BlochSetting:
    """Uniformly random measurement direction on the sphere, from a numpy Generator."""
    while True:
        v = rng.standard_normal(3)
        norm = np.linalg.norm(v)
        if norm > 1e-8:
            return BlochSetting(v / norm, Party(party))


def random_quadruple(rng, alphabet_size: int) -> StrategyQuadruple:
    """A uniform-weight quadruple of independent random +/-1 response tables."""
    pair = (N_SETTINGS, alphabet_size)
    trio = (N_SETTINGS, N_SETTINGS, alphabet_size)
    return StrategyQuadruple(
        rng.choice([1, -1], size=pair),
        rng.choice([1, -1], size=trio),
        rng.choice([1, -1], size=pair),
        rng.choice([1, -1], size=trio),
        [1.0 / alphabet_size] * alphabet_size,
    )


def marginal(distribution, party: Party | str):
    """(P(+), P(-)) of a JointDistribution for one party, the other summed out, as an array."""
    axis = 1 if Party(party) is Party.A else 0
    return distribution.probs.sum(axis=axis)


def table_max_abs_diff(table, other) -> float:
    """Largest cell difference of two CorrelationTables over the same setting grid."""
    if table.shape != other.shape:
        raise ValueError("tables cover different setting grids")
    return float(abs(table.cells - other.cells).max())


def behavior_from_flat(flat) -> BehaviorVector:
    """The behavior of 16 entries in index order a, b, alpha_idx, beta_idx."""
    return BehaviorVector(np.asarray(flat, dtype=float).reshape(2, 2, 2, 2))


def behavior_max_abs_diff(behavior, other) -> float:
    return float(abs(behavior.probs - other.probs).max())


def enumerate_deterministic_strategies() -> list[BehaviorVector]:
    """The 16 deterministic behaviors P(alpha, beta | a, b) = [f(a) = alpha] * [g(b) = beta],
    one per (f(a0), f(a1), g(b0), g(b1)) in `itertools.product(OUTCOMES, repeat=4)` order."""
    behaviors = []
    for f0, f1, g0, g1 in itertools.product(OUTCOMES, repeat=4):
        f, g = (f0, f1), (g0, g1)
        behaviors.append(BehaviorVector([
            [[[float(f[a] == alpha and g[b] == beta) for beta in OUTCOMES] for alpha in OUTCOMES]
             for b in range(2)]
            for a in range(2)
        ]))
    return behaviors


def make_localized(n_sites: int, site: int) -> GridWavefunction:
    amps = np.zeros(n_sites, dtype=complex)
    amps[site] = 1.0
    return GridWavefunction(amps)


def make_uniform(n_sites: int) -> GridWavefunction:
    return GridWavefunction(np.full(n_sites, 1.0 / math.sqrt(n_sites), dtype=complex))


def lambda_file_from_reals(values) -> LambdaFile:
    """A file whose derived reals approximate `values` to ~2**-53, to pin lambda draws."""
    values = np.asarray(values, dtype=float)
    if np.any(values < 0.0) or np.any(values >= 1.0):
        raise ValueError("values must lie in [0, 1)")
    words = np.floor(values * 2.0**64).astype(np.uint64)
    return LambdaFile(words)
