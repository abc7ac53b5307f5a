"""Strategy-quadruple, local-polytope, and no-go search tests.

Independent oracles: explicit brute-force loops for the consistency
equations and for behaviors, Monte Carlo sampling for mixture behaviors, and
the CHSH facet values recomputed from raw correlator arithmetic. The frozen
best-distance values for the uniform-alphabet search were computed with a
standalone enumerator before this module was written (alphabet sizes 1..5)
and with the whole-array multiset search (6..8). The branch-and-bound search
is pinned to that whole-array search, kept here as `oracle_multiset_search`.
"""

import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import chronobell as cb
from chronobell import localpolytope, strategies
from chronobell.localpolytope import BOUNDARY_ROUNDING, chsh_sign_patterns
from support import (
    behavior_from_flat, behavior_max_abs_diff, enumerate_deterministic_strategies,
    random_pure_state, random_quadruple, random_setting,
)

SQRT2 = math.sqrt(2.0)

# distance of the closest uniform-weight consistent quadruple to the singlet
# CHSH-optimal behavior, per alphabet size (standalone enumeration)
FROZEN_BEST_DISTANCE = {
    1: 0.9267766952966369,
    2: 0.4267766952966369,
    3: 0.2601100286299702,
    4: 0.1767766952966369,
    5: 0.22677669529663663,
    6: 0.09344336196330356,
    7: 0.14106240958235106,
    8: 0.051776695296636935,
}


def A(deg):
    return cb.BlochSetting.from_angle(deg, "A")


def B(deg):
    return cb.BlochSetting.from_angle(deg, "B")


def singlet_target():
    return cb.quantum_behavior(cb.make_singlet(), A(0), A(90), B(45), B(-45))


def pr_box_mixture(seed, excess):
    """A PR box mixed with a random local point so that |S| - 2 = `excess`."""
    rng = np.random.default_rng(seed)
    pr_box = np.zeros((2, 2, 2, 2))  # E = +1 except E[a2, b2] = -1: S = 4
    for a, b in itertools.product(range(2), repeat=2):
        agree = 1 - a * b
        pr_box[a, b, 0, 1 - agree] = pr_box[a, b, 1, agree] = 0.5
    vertices = np.column_stack([v.flat for v in enumerate_deterministic_strategies()])
    local = vertices @ rng.dirichlet(np.full(16, 0.5))
    signs = np.array([[1, 1], [1, -1]])
    s_local = float(np.sum(signs * behavior_from_flat(local).correlators()))
    # S of the mix is linear in v; the other seven facets stay below 2
    v = (2.0 + excess - s_local) / (4.0 - s_local)
    return behavior_from_flat(v * pr_box.reshape(16) + (1 - v) * local)


def oracle_behavior_of_quadruple(q, chronology):
    """Brute-force loop over (a, b, lambda), no shared code with the library."""
    probs = np.zeros((2, 2, 2, 2))
    for a, b in itertools.product(range(2), range(2)):
        for lam in range(q.alphabet_size):
            if chronology == "AB":
                alpha = int(q.first_ab[a, lam])
                beta = int(q.second_ab[a, b, lam])
            else:
                beta = int(q.first_ba[b, lam])
                alpha = int(q.second_ba[b, a, lam])
            probs[a, b, (1 - alpha) // 2, (1 - beta) // 2] += q.weights[lam]
    return probs


def oracle_table_pair_search(alphabet_size, target):
    """The no-go search over every (4**L)^2 pair of uniform-weight response tables.

    Returns (best_distance, max_chsh) with the same float operations as the
    vertex-multiset search: integer counts and correlators divided by L once.
    """
    n = 4**alphabet_size
    bits = (np.arange(n)[:, None] >> np.arange(2 * alphabet_size)) & 1
    tables = (1 - 2 * bits).reshape(n, 2, alphabet_size)  # [candidate, setting, lam]
    indicators = np.stack([tables == 1, tables == -1], axis=-2).astype(np.int64)
    best_distance = np.inf
    max_corr_int = 0
    chunk = max(1, 2**16 // n)
    for lo in range(0, n, chunk):
        counts = np.einsum("nail,mbjl->nmabij", indicators[lo:lo + chunk], indicators)
        distances = np.max(np.abs(counts / alphabet_size - target.probs), axis=(2, 3, 4, 5))
        best_distance = min(best_distance, float(distances.min()))
        corr_int = np.einsum("nal,mbl->nmab", tables[lo:lo + chunk], tables)
        for signs in chsh_sign_patterns():
            value = int(np.abs(np.einsum("ab,nmab->nm", signs, corr_int)).max())
            max_corr_int = max(max_corr_int, value)
    return best_distance, max_corr_int / alphabet_size


def oracle_multiset_search(alphabet_size, target, tol):
    """The vertex-multiset search with every multiset in one array.

    `np.argmin` takes the first minimum in lexicographic multiset order, the
    tie-break the branch-and-bound search must keep; the CHSH patterns are read
    from the module at call time, so a test that patches them patches both searches.
    """
    vertex_matrix = np.asarray(localpolytope._vertex_matrix())
    vertex_counts = vertex_matrix.T.reshape(16, 2, 2, 2, 2).astype(np.int64)
    picks = np.array(list(itertools.combinations_with_replacement(range(16), alphabet_size)))
    counts = vertex_counts[picks].sum(axis=1)  # [pick, a, b, alpha_idx, beta_idx]
    distances = np.max(np.abs(counts / alphabet_size - target.probs), axis=(1, 2, 3, 4))
    best = int(np.argmin(distances))

    corr_int = counts[..., 0, 0] - counts[..., 0, 1] - counts[..., 1, 0] + counts[..., 1, 1]
    patterns = localpolytope._CHSH_PATTERNS
    max_corr_int = int(np.abs(np.einsum("sab,nab->ns", patterns, corr_int)).max())

    return cb.SearchResult(
        vertices=tuple(int(v) for v in picks[best]),
        best_distance=float(distances[best]),
        max_chsh=max_corr_int / alphabet_size,
        alphabet_size=alphabet_size,
        tolerance=tol,
    )


class TestLocalModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            cb.LocalModel(np.zeros((2, 2)), np.ones((2, 2)), np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            cb.LocalModel.uniform([[1, 2]], [[1, 1]])

    def test_weights_must_be_distribution(self):
        ones = np.ones((2, 2), dtype=np.int8)
        with pytest.raises(ValueError):
            cb.LocalModel(ones, ones, np.array([0.7, 0.7]))
        with pytest.raises(ValueError):
            cb.LocalModel(ones, ones, np.array([-0.5, 1.5]))

    @pytest.mark.parametrize("weights", [
        [math.nan], [math.inf], [-math.inf], [math.nan, 1.0], [0.5, math.nan], [math.inf, -math.inf],
    ], ids=["nan", "inf", "-inf", "nan-first", "nan-last", "inf-minus-inf"])
    def test_non_finite_weights_rejected_at_construction(self, weights):
        size = len(weights)
        pair, trio = [[1] * size, [-1] * size], [[[1] * size] * 2] * 2
        with pytest.raises(ValueError, match="weights"):
            cb.LocalModel(pair, pair, weights)
        with pytest.raises(ValueError, match="weights"):
            cb.StrategyQuadruple(pair, trio, pair, trio, weights)
        if size == 1:  # the example that used to construct
            with pytest.raises(ValueError, match="weights must be nonnegative"):
                cb.LocalModel([[1], [1]], [[1], [-1]], [math.nan])


class TestCovarianceConstraints:
    def test_local_construction_holds(self, rng):
        for size in (1, 2, 4):
            q = cb.StrategyQuadruple.from_local(cb.LocalModel.random(rng, size))
            assert cb.check_covariance_constraints(q).holds

    def test_remote_setting_dependence_is_witnessed(self, rng):
        base = cb.StrategyQuadruple.from_local(cb.LocalModel.random(rng, 2))
        second_ab = np.array(base.second_ab, dtype=np.int8)
        second_ab[0, 0, 0] = -second_ab[1, 0, 0]  # B's answer now depends on a
        tampered = cb.StrategyQuadruple(
            base.first_ab, second_ab, base.first_ba, base.second_ba, base.weights
        )
        report = cb.check_covariance_constraints(tampered)
        assert not report.holds
        assert any(v.equation == "beta_consistency" for v in report.violations)

    def test_matches_bruteforce_on_random_quadruples(self, rng):
        for _ in range(25):
            q = random_quadruple(rng, 2)
            expected = []
            for a, b, lam in itertools.product(range(2), range(2), range(2)):
                if q.first_ab[a, lam] != q.second_ba[b, a, lam]:
                    expected.append(("alpha_consistency", a, b, lam))
                if q.second_ab[a, b, lam] != q.first_ba[b, lam]:
                    expected.append(("beta_consistency", a, b, lam))
            report = cb.check_covariance_constraints(q)
            got = [(v.equation, v.a, v.b, v.lam) for v in report.violations]
            assert got == expected
            assert report.holds == (not expected)


class TestReduction:
    def test_behavior_equal_under_both_chronologies(self, rng):
        for size in (1, 2, 3, 4):
            q = cb.StrategyQuadruple.from_local(cb.LocalModel.random(rng, size))
            local = cb.reduce_to_local(q)
            p_ab = cb.behavior_of(q, "AB").probs
            p_ba = cb.behavior_of(q, "BA").probs
            p_local = cb.behavior_of(local).probs
            assert np.array_equal(p_ab, p_ba)
            assert np.array_equal(p_ab, p_local)

    def test_matches_bruteforce_enumeration(self, rng):
        q = cb.StrategyQuadruple.from_local(cb.LocalModel.random(rng, 4))
        for chronology in ("AB", "BA"):
            expected = oracle_behavior_of_quadruple(q, chronology)
            assert_allclose(cb.behavior_of(q, chronology).probs, expected, atol=1e-15)

    def test_unconstrained_rejected(self, rng):
        while True:
            q = random_quadruple(rng, 2)
            if not cb.check_covariance_constraints(q).holds:
                break
        with pytest.raises(cb.NotReducibleError):
            cb.reduce_to_local(q)


class TestBehaviorOf:
    def test_constant_responders(self):
        model = cb.LocalModel.uniform([[1], [1]], [[-1], [-1]])
        behavior = cb.behavior_of(model)
        for a, b in itertools.product(range(2), range(2)):
            assert behavior.probs[a, b, 0, 1] == 1.0

    def test_flipped_twin_mixture_has_uniform_marginals(self, rng):
        f = rng.choice([1, -1], size=(2, 1))
        g = rng.choice([1, -1], size=(2, 1))
        model = cb.LocalModel.uniform(np.hstack([f, -f]), np.hstack([g, -g]))
        behavior = cb.behavior_of(model)
        marg_a = behavior.probs.sum(axis=3)
        marg_b = behavior.probs.sum(axis=2)
        assert_allclose(marg_a, 0.5, atol=1e-15)
        assert_allclose(marg_b, 0.5, atol=1e-15)

    def test_matches_monte_carlo(self, rng):
        model = cb.LocalModel(
            rng.choice([1, -1], size=(2, 3)),
            rng.choice([1, -1], size=(2, 3)),
            np.array([0.5, 0.3, 0.2]),
        )
        behavior = cb.behavior_of(model)
        samples = 100_000
        lam = rng.choice(3, size=samples, p=model.weights)
        for a, b in itertools.product(range(2), range(2)):
            alpha = model.responses_a[a, lam]
            beta = model.responses_b[b, lam]
            for i, ao in enumerate((1, -1)):
                for j, bo in enumerate((1, -1)):
                    freq = np.mean((alpha == ao) & (beta == bo))
                    assert abs(freq - behavior.probs[a, b, i, j]) < 0.01

    def test_quadruple_requires_chronology(self, rng):
        q = random_quadruple(rng, 2)
        with pytest.raises(ValueError):
            cb.behavior_of(q)

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            cb.behavior_of("not a model")


class TestBehaviorVector:
    def test_validation_shape(self):
        with pytest.raises(ValueError):
            cb.BehaviorVector(np.zeros((2, 2, 2)))

    def test_validation_normalization(self):
        with pytest.raises(ValueError):
            cb.BehaviorVector(np.full((2, 2, 2, 2), 0.3))

    def test_validation_negative(self):
        probs = np.full((2, 2, 2, 2), 0.25)
        probs[0, 0] = [[0.5, -0.1], [0.3, 0.3]]
        with pytest.raises(ValueError):
            cb.BehaviorVector(probs)

    def test_validation_signaling(self):
        # A's marginal depends on b: blocked
        probs = np.full((2, 2, 2, 2), 0.25)
        probs[0, 0] = [[0.5, 0.5], [0.0, 0.0]]  # P(alpha=+|a0,b0) = 1
        with pytest.raises(ValueError):
            cb.BehaviorVector(probs)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("entry", range(16))
    def test_validation_non_finite(self, entry, bad):
        flat = np.full(16, 0.25)
        flat[entry] = bad
        with pytest.raises(ValueError):
            cb.BehaviorVector(flat.reshape(2, 2, 2, 2))
        with pytest.raises(ValueError):
            behavior_from_flat(flat)

    def test_flat_roundtrip(self):
        behavior = singlet_target()
        again = behavior_from_flat(behavior.flat)
        assert np.array_equal(again.probs, behavior.probs)


class TestQuantumBehavior:
    def test_singlet_reaches_tsirelson(self):
        facet = cb.chsh_facet_check(singlet_target())
        assert facet.max_facet_value == pytest.approx(2 * SQRT2, abs=1e-12)

    def test_product_state_equals_vertex(self):
        behavior = cb.quantum_behavior(
            cb.make_product_state(), A(0), A(0), B(0), B(0)
        )
        vertex = cb.behavior_of(cb.LocalModel.uniform([[1], [1]], [[1], [1]]))
        assert behavior_max_abs_diff(behavior, vertex) <= 1e-12

    def test_anticorrelated_block(self):
        behavior = cb.quantum_behavior(cb.make_singlet(), A(0), A(90), B(0), B(90))
        assert_allclose(behavior.probs[0, 0], [[0, 0.5], [0.5, 0]], atol=1e-12)

    def test_no_signaling_tight(self):
        assert singlet_target().no_signaling_defect() <= 1e-12


class TestDeterministicStrategies:
    def test_sixteen_vertices(self):
        assert len(enumerate_deterministic_strategies()) == 16

    def test_zero_one_valued_and_no_signaling(self):
        for vertex in enumerate_deterministic_strategies():
            assert np.all((vertex.probs == 0.0) | (vertex.probs == 1.0))
            assert vertex.no_signaling_defect() == 0.0

    def test_distinct(self):
        seen = {tuple(v.flat) for v in enumerate_deterministic_strategies()}
        assert len(seen) == 16

    def test_vertex_table_columns_are_the_behaviors_by_definition(self):
        # the oracle builds [f(a) = alpha] * [g(b) = beta] without the package's table
        columns = list(zip(*localpolytope._vertex_matrix()))
        assert columns == [tuple(v.flat) for v in enumerate_deterministic_strategies()]

    def test_vertex_table_matches_the_quadruple_behaviors(self):
        # the table rows against behavior_of's matmul over a one-letter quadruple
        for v, vertex in enumerate(enumerate_deterministic_strategies()):
            via_quadruple = cb.behavior_of(strategies._quadruple([v]), "AB")
            assert vertex.values == via_quadruple.values

    def test_local_bound_saturated(self):
        """Every vertex respects |CHSH| <= 2 and at least 8 achieve equality."""
        values = [
            cb.chsh_facet_check(v).max_facet_value
            for v in enumerate_deterministic_strategies()
        ]
        assert max(values) == 2.0
        assert sum(1 for v in values if v == 2.0) >= 8


class TestFacetCheck:
    def test_vertices_exactly_two(self):
        for vertex in enumerate_deterministic_strategies():
            assert cb.chsh_facet_check(vertex).max_facet_value == 2.0

    def test_singlet_two_sqrt_two(self):
        facet = cb.chsh_facet_check(singlet_target())
        assert not facet.local
        assert facet.max_facet_value == pytest.approx(2 * SQRT2, abs=1e-12)

    def test_uniform_behavior_zero(self):
        uniform = cb.BehaviorVector(np.full((2, 2, 2, 2), 0.25))
        facet = cb.chsh_facet_check(uniform)
        assert facet.local
        assert facet.max_facet_value == 0.0

    def test_eight_patterns(self):
        patterns = chsh_sign_patterns()
        assert len(patterns) == 8
        for signs in patterns:
            assert int(np.prod(signs)) == -1


class TestMembershipLp:
    def test_local_models_feasible_with_reconstruction(self, rng):
        for _ in range(20):
            model = cb.LocalModel(
                rng.choice([1, -1], size=(2, 3)),
                rng.choice([1, -1], size=(2, 3)),
                rng.dirichlet(np.ones(3)),
            )
            behavior = cb.behavior_of(model)
            result = cb.local_membership_lp(behavior)
            assert result.local
            assert result.reconstruction_error <= 1e-9
            vertex_flats = np.column_stack(
                [v.flat for v in enumerate_deterministic_strategies()]
            )
            assert_allclose(vertex_flats @ result.weights, behavior.flat, atol=1e-9)

    def test_singlet_infeasible_without_the_facet_check(self, monkeypatch):
        def facet_check(*args, **kwargs):
            raise AssertionError("the LP consulted the other oracle")

        monkeypatch.setattr(localpolytope, "chsh_facet_check", facet_check)
        result = cb.local_membership_lp(singlet_target())
        assert not result.local
        assert result.weights is None and result.reconstruction_error is None

    def test_uniform_behavior_feasible(self):
        result = cb.local_membership_lp(cb.BehaviorVector(np.full((2, 2, 2, 2), 0.25)))
        assert result.local

    def test_boundary_vertex_feasible(self):
        for vertex in enumerate_deterministic_strategies():
            assert cb.local_membership_lp(vertex).local

    @pytest.mark.parametrize("tol", [1.0, 2.0, 4.99, 5.0, 100.0, math.inf, math.nan])
    def test_tolerance_of_1_or_more_rejected(self, tol):
        # tol also bounds the pivots, and no tableau entry exceeds 1
        with pytest.raises(ValueError, match="tolerance must be below 1"):
            cb.local_membership_lp(singlet_target(), tol)


class TestOracleAgreement:
    def test_lp_and_facets_agree_on_random_behaviors(self, rng):
        """Quick version of the acceptance criterion (200 draws here)."""
        singlet = cb.make_singlet()
        vertices = enumerate_deterministic_strategies()
        disagreements = 0
        for k in range(200):
            if k % 2 == 0:
                weights = rng.dirichlet(np.full(16, 0.3))
                flat = np.column_stack([v.flat for v in vertices]) @ weights
                behavior = behavior_from_flat(flat)
            else:
                quantum = cb.quantum_behavior(
                    random_pure_state(rng),
                    random_setting(rng, "A"),
                    random_setting(rng, "A"),
                    random_setting(rng, "B"),
                    random_setting(rng, "B"),
                )
                visibility = rng.random()
                flat = visibility * quantum.flat + (1 - visibility) * 0.25
                behavior = behavior_from_flat(flat)
            lp_verdict = cb.local_membership_lp(behavior).local
            facet_verdict = cb.chsh_facet_check(behavior).local
            disagreements += lp_verdict != facet_verdict
        assert disagreements == 0

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        log_tol=st.floats(-10.0, -4.0),
        excess=st.sampled_from([1 - 1e-3, 1 + 1e-3]),
    )
    def test_lp_and_facets_agree_next_to_a_facet(self, seed, log_tol, excess):
        """A PR box mixed with a random local point at |S| - 2 = tol * (1 -+ 1e-3)."""
        tol = 10.0**log_tol
        behavior = pr_box_mixture(seed, excess * tol)
        facet = cb.chsh_facet_check(behavior, tol)
        assert facet.local == (excess < 1)
        assert cb.local_membership_lp(behavior, tol).local == facet.local

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        tol=st.sampled_from([0.0, 1e-12]),
        offset=st.sampled_from([2e-12, 3e-12]),
    )
    def test_lp_and_facets_agree_just_outside_the_rounding_window(self, seed, tol, offset):
        """|S| - 2 = tol + 2e-12 or tol + 3e-12, past BOUNDARY_ROUNDING: both say nonlocal.

        A simplex whose ratio ties had a fixed 1e-12 width picked a row with a
        larger ratio, read these tiny residuals low and called them local.
        """
        behavior = pr_box_mixture(seed, tol + offset)
        facet = cb.chsh_facet_check(behavior, tol)
        assert not facet.local
        assert cb.local_membership_lp(behavior, tol).local == facet.local

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        tol=st.sampled_from([0.0, 1e-15, 1e-13]),
        quantum=st.booleans(),
    )
    def test_lp_and_facets_agree_below_the_rounding_floor(self, seed, tol, quantum):
        """Below BOUNDARY_ROUNDING the LP's tolerances are floored there, so rounding
        alone no longer reads as infeasible: the oracles agree outside the window.

        Mixes a few 1e-12 past a facet are drawn in
        `test_lp_and_facets_agree_just_outside_the_rounding_window`.
        """
        rng = np.random.default_rng(seed)
        if quantum:
            behavior = cb.quantum_behavior(
                random_pure_state(rng), *(random_setting(rng, party) for party in "AABB")
            )
        else:
            vertices = np.column_stack([v.flat for v in enumerate_deterministic_strategies()])
            behavior = behavior_from_flat(vertices @ rng.dirichlet(np.full(16, 0.3)))
        verdict = localpolytope.certify_locality(behavior, tol)  # raises on a disagreement
        if "boundary" not in verdict:
            assert verdict["lp_local"] == verdict["facet_local"]
        else:
            assert abs(verdict["chsh_magnitude"] - 2.0 - tol) <= BOUNDARY_ROUNDING


class TestExhaustiveSearch:
    def test_vertex_target_found_exactly(self):
        vertex = enumerate_deterministic_strategies()[5]
        result = cb.exhaustive_nogo_search(1, vertex, tol=0.0)
        assert result.found
        assert result.best_distance == 0.0
        assert behavior_max_abs_diff(cb.behavior_of(result.best, "AB"), vertex) == 0.0

    def test_singlet_not_reachable(self):
        result = cb.exhaustive_nogo_search(2, singlet_target(), tol=1e-6)
        assert not result.found
        assert result.max_chsh == 2.0
        assert result.n_candidates == 16 * 16

    def test_frozen_best_distances(self):
        target = singlet_target()
        for size, expected in FROZEN_BEST_DISTANCE.items():
            result = cb.exhaustive_nogo_search(size, target, tol=1e-6)
            assert result.best_distance == pytest.approx(expected, abs=1e-12)
            assert result.max_chsh == 2.0

    @settings(max_examples=100, deadline=None)
    @given(
        alphabet_size=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
        vertex=st.integers(0, 15),
        mix=st.floats(0.0, 1.0),
        tol=st.sampled_from([0.0, 1e-6, 0.1, 0.3]),
    )
    def test_matches_table_pair_oracle(self, alphabet_size, seed, vertex, mix, tol):
        rng = np.random.default_rng(seed)
        quantum = cb.quantum_behavior(
            random_pure_state(rng),
            random_setting(rng, "A"),
            random_setting(rng, "A"),
            random_setting(rng, "B"),
            random_setting(rng, "B"),
        )
        corner = enumerate_deterministic_strategies()[vertex]
        target = behavior_from_flat(mix * quantum.flat + (1 - mix) * corner.flat)

        result = cb.exhaustive_nogo_search(alphabet_size, target, tol)
        best_distance, max_chsh = oracle_table_pair_search(alphabet_size, target)
        assert result.best_distance == best_distance
        assert result.max_chsh == max_chsh
        assert result.found == (best_distance <= tol)
        assert result.n_candidates == 16**alphabet_size
        assert cb.check_covariance_constraints(result.best).holds
        reached = behavior_max_abs_diff(cb.behavior_of(result.best, "AB"), target)
        assert abs(reached - result.best_distance) <= 1e-15

    def test_best_distance_monotone_in_alphabet(self):
        target = singlet_target()
        distances = [
            cb.exhaustive_nogo_search(size, target, tol=1e-6).best_distance
            for size in (1, 2, 3, 4)
        ]
        assert all(d1 >= d2 for d1, d2 in zip(distances, distances[1:]))

    def test_best_candidate_is_consistent_quadruple(self):
        result = cb.exhaustive_nogo_search(2, singlet_target(), tol=1e-6)
        assert cb.check_covariance_constraints(result.best).holds

    def test_oversized_alphabet_rejected(self):
        with pytest.raises(cb.SearchSpaceError):
            cb.exhaustive_nogo_search(9, singlet_target(), tol=1e-6)
        with pytest.raises(cb.SearchSpaceError):
            cb.exhaustive_nogo_search(0, singlet_target(), tol=1e-6)


def assert_same_search(alphabet_size, target, tol):
    """Bit-identical to the whole-array search: distance, chosen multiset and the rest."""
    expected = oracle_multiset_search(alphabet_size, target, tol)
    result = cb.exhaustive_nogo_search(alphabet_size, target, tol)
    assert result.best_distance.hex() == expected.best_distance.hex()
    assert result.vertices == expected.vertices
    assert result.max_chsh == expected.max_chsh
    assert result.found == expected.found
    assert result.n_candidates == expected.n_candidates
    assert result.to_dict() == expected.to_dict()


class TestBranchAndBoundSearch:
    # every pure-vertex multiset reaches |S| = 2 on every CHSH facet, so a maximum
    # read from any one vertex or pattern would still read 2. Under these non-facet
    # patterns, a0 b0 + a1 b1 and (a0 - a1)(b0 + b1), the vertices read at most 2
    # on the first and 0 or 4 on the second.
    SKEWED_PATTERNS = (np.array([[1, 0], [0, 1]]), np.array([[1, 1], [-1, -1]]))

    @settings(max_examples=60, deadline=None)
    @given(
        alphabet_size=st.integers(1, 6),
        kind=st.sampled_from(["vertex", "vertex_pair", "quantum"]),
        u=st.integers(0, 15),
        v=st.integers(0, 15),
        seed=st.integers(0, 2**32 - 1),
        tol=st.sampled_from([0.0, 1e-6, 0.3]),
        skewed=st.booleans(),
    )
    def test_matches_whole_array_search(self, alphabet_size, kind, u, v, seed, tol, skewed):
        """Bit-identical to the whole-array search, ties included.

        A single vertex and an even mix of two are matched exactly or tie by
        construction: k copies of u and L - k of v sit as far from the mix as
        L - k copies of u and k of v.
        """
        vertices = enumerate_deterministic_strategies()
        if kind == "quantum":
            rng = np.random.default_rng(seed)
            target = cb.quantum_behavior(
                random_pure_state(rng),
                *(random_setting(rng, party) for party in "AABB"),
            )
        else:
            other = vertices[v if kind == "vertex_pair" else u]
            target = behavior_from_flat(0.5 * vertices[u].flat + 0.5 * other.flat)
            tol = 0.0
        patterns = self.SKEWED_PATTERNS if skewed else localpolytope._CHSH_PATTERNS
        with mock.patch.object(localpolytope, "_CHSH_PATTERNS", patterns):
            assert_same_search(alphabet_size, target, tol)

    @pytest.mark.parametrize("alphabet_size,seed", [(7, 11), (8, 12)])
    def test_matches_whole_array_search_at_large_alphabets(self, alphabet_size, seed):
        rng = np.random.default_rng(seed)
        target = cb.quantum_behavior(
            random_pure_state(rng), *(random_setting(rng, party) for party in "AABB")
        )
        assert_same_search(alphabet_size, target, 1e-6)

    def test_best_is_the_chosen_multiset(self):
        """Lambda value i of `best` answers as vertex `vertices[i]`, in both time orders."""
        result = cb.exhaustive_nogo_search(3, singlet_target(), tol=1e-6)
        q = result.best
        assert q.alphabet_size == 3
        assert np.array_equal(q.second_ab, [q.first_ba] * 2)
        assert np.array_equal(q.second_ba, [q.first_ab] * 2)
        columns = [tuple(int(x) for x in c) for c in zip(*q.first_ab, *q.first_ba)]
        assert [localpolytope._VERTICES.index(c) for c in columns] == list(result.vertices)
