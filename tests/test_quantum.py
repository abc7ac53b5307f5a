"""Two-qubit state, measurement, and CHSH tests.

The oracle used throughout is independent of the library's sequential
machinery: joint probabilities are computed as <psi| Pa (x) Pb |psi> with
explicitly constructed projector matrices (the operators act on distinct
factors, so no ordering enters the oracle at all).
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import chronobell as cb
from chronobell import flash, localpolytope, quantum
from chronobell.values import ATOL
from support import marginal, random_pure_state, random_setting, table_max_abs_diff

SQRT2 = math.sqrt(2.0)

_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def oracle_projector(direction, outcome):
    nx, ny, nz = direction
    return 0.5 * (np.eye(2) + outcome * (nx * _SX + ny * _SY + nz * _SZ))


def oracle_joint(amps, dir_a, dir_b):
    """P(alpha, beta) from commuting projector products, index 0 <-> +1."""
    probs = np.zeros((2, 2))
    for i, a_out in enumerate((1, -1)):
        for j, b_out in enumerate((1, -1)):
            op = np.kron(oracle_projector(dir_a, a_out), oracle_projector(dir_b, b_out))
            probs[i, j] = np.real(np.conj(amps) @ (op @ amps))
    return probs


def A(deg):
    return cb.BlochSetting.from_angle(deg, "A")


def B(deg):
    return cb.BlochSetting.from_angle(deg, "B")


class TestStates:
    def test_singlet_amplitudes(self):
        expected = np.array([0.0, 1.0 / SQRT2, -1.0 / SQRT2, 0.0])
        assert_allclose(cb.make_singlet().amplitudes, expected, atol=1e-15)

    def test_singlet_norm(self):
        assert abs(cb.make_singlet().norm() - 1.0) <= 1e-12

    def test_unnormalized_rejected(self):
        with pytest.raises(cb.InvalidStateError):
            cb.TwoQubitState(np.array([1.0, 1.0, 0.0, 0.0]))

    def test_wrong_length_rejected(self):
        with pytest.raises(cb.InvalidStateError):
            cb.TwoQubitState(np.array([1.0, 0.0]))

    def test_product_state(self):
        state = cb.make_product_state((1, 0), (0, 1))
        assert_allclose(state.amplitudes, [0, 1, 0, 0])

    def test_amplitudes_immutable(self):
        state = cb.make_singlet()
        with pytest.raises(ValueError):
            state.amplitudes[0] = 1.0


class TestSettings:
    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            cb.BlochSetting(np.zeros(3), "A")

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError):
            cb.BlochSetting(np.array([0.0, 0.0, 1.0 + 1e-6]), "A")

    @pytest.mark.parametrize(
        "deg,expected",
        [(0.0, [0, 0, 1]), (90.0, [1, 0, 0]), (45.0, [1 / SQRT2, 0, 1 / SQRT2])],
    )
    def test_from_angle(self, deg, expected):
        assert_allclose(A(deg).vector, expected, atol=1e-15)

    def test_party_coercion(self):
        assert cb.BlochSetting.from_angle(0, "B").party is cb.Party.B


FLOATS = st.floats(-1.0, 1.0)


@st.composite
def measurements(draw):
    """A random complex two-qubit state and a direction with a y component, either party."""
    parts = np.array(draw(st.lists(FLOATS, min_size=8, max_size=8)))
    amps = parts[:4] + 1j * parts[4:]
    v = np.array(draw(st.lists(FLOATS, min_size=3, max_size=3)))
    assume(np.linalg.norm(amps) > 0.1 and np.linalg.norm(v) > 0.1 and abs(v[1]) > 1e-3)
    party = draw(st.sampled_from(["A", "B"]))
    return (
        cb.TwoQubitState(amps / np.linalg.norm(amps)),
        cb.BlochSetting(v / np.linalg.norm(v), party),
    )


def eigenprojector(setting, outcome):
    """4x4 projector onto the `outcome` eigenvector of this test's own n.sigma, on one party."""
    eigvals, eigvecs = np.linalg.eigh(np.tensordot(setting.vector, [_SX, _SY, _SZ], axes=1))
    column = eigvecs[:, np.argmin(np.abs(eigvals - outcome))]
    p = np.outer(column, column.conj())
    return np.kron(p, np.eye(2)) if setting.party is cb.Party.A else np.kron(np.eye(2), p)


class TestProjectorConvention:
    """born_marginal and collapse against eigenprojectors of n.sigma, over random cases."""

    @settings(max_examples=100, deadline=None)
    @given(case=measurements())
    def test_against_eigendecomposition(self, case):
        state, setting = case
        for outcome in (1, -1):
            op = eigenprojector(setting, outcome)
            expected = np.vdot(state.amplitudes, op @ state.amplitudes).real
            assert cb.born_marginal(state, setting, outcome) == pytest.approx(expected, abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(case=measurements())
    def test_completeness(self, case):
        state, setting = case
        total = cb.born_marginal(state, setting, 1) + cb.born_marginal(state, setting, -1)
        assert abs(total - 1.0) <= 1e-12

    @settings(max_examples=100, deadline=None)
    @given(case=measurements())
    def test_collapse_against_eigendecomposition(self, case):
        """The normalized projection, its first amplitude above 1e-12 rotated real positive."""
        state, setting = case
        for outcome in (1, -1):
            projected = eigenprojector(setting, outcome) @ state.amplitudes
            sizes = np.abs(projected)
            lead = projected[np.argmax(sizes > 1e-12)]
            # the phase is ill defined next to the cutoff and loses digits with a small lead
            if min(np.linalg.norm(projected), abs(lead)) < 1e-3 or np.any(
                (sizes > 1e-14) & (sizes < 1e-10)
            ):
                continue
            expected = projected / np.linalg.norm(projected) * (abs(lead) / lead)
            post = cb.collapse(state, setting, outcome)
            assert_allclose(post.amplitudes, expected, atol=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(case=measurements(), outcome=st.integers().filter(lambda k: k not in (1, -1)))
    def test_outcome_other_than_plus_minus_one_rejected(self, case, outcome):
        state, setting = case
        with pytest.raises(ValueError, match="outcome must be"):
            cb.born_marginal(state, setting, outcome)
        with pytest.raises(ValueError, match="outcome must be"):
            cb.collapse(state, setting, outcome)

    def test_party_placement(self):
        """A's projector acts on the first factor and B's on the second."""
        for k, up in enumerate([(1, 1), (1, 0), (0, 1), (0, 0)]):
            basis = cb.TwoQubitState(np.eye(4)[k])
            assert (cb.born_marginal(basis, A(0), 1), cb.born_marginal(basis, B(0), 1)) == up


class TestBornMarginal:
    @pytest.mark.parametrize("deg", [0.0, 37.0, 90.0, 123.4])
    def test_singlet_marginals_half(self, singlet, deg):
        assert abs(cb.born_marginal(singlet, A(deg), 1) - 0.5) <= 1e-12

    def test_product_eigenstate(self):
        state = cb.make_product_state()
        assert cb.born_marginal(state, A(0), 1) == pytest.approx(1.0, abs=1e-12)

    def test_product_transverse(self):
        state = cb.make_product_state()
        assert cb.born_marginal(state, A(90), 1) == pytest.approx(0.5, abs=1e-12)

    def test_total_probability(self, rng):
        for _ in range(50):
            state = random_pure_state(rng)
            setting = random_setting(rng, "B")
            total = cb.born_marginal(state, setting, 1) + cb.born_marginal(state, setting, -1)
            assert abs(total - 1.0) <= 1e-12


class TestCollapse:
    def test_singlet_golden(self, singlet):
        post = cb.collapse(singlet, A(0), 1)
        assert_allclose(post.amplitudes, [0, 1, 0, 0], atol=1e-12)

    def test_fixed_point(self):
        state = cb.make_product_state()
        post = cb.collapse(state, A(0), 1)
        assert_allclose(post.amplitudes, state.amplitudes, atol=1e-15)

    def test_perfect_anticorrelation(self, singlet):
        post = cb.collapse(singlet, A(0), 1)
        assert cb.born_marginal(post, B(0), 1) == pytest.approx(0.0, abs=1e-12)

    def test_zero_branch_rejected(self):
        state = cb.make_product_state()
        with pytest.raises(cb.ImpossibleOutcomeError):
            cb.collapse(state, A(0), -1)

    def test_norm_preserved(self, rng):
        for _ in range(50):
            state = random_pure_state(rng)
            setting = random_setting(rng, "A")
            outcome = 1 if rng.random() < 0.5 else -1
            if cb.born_marginal(state, setting, outcome) < 1e-6:
                continue
            post = cb.collapse(state, setting, outcome)
            assert abs(post.norm() - 1.0) <= 1e-12

    def test_phase_convention(self, rng):
        for _ in range(20):
            state = random_pure_state(rng)
            setting = random_setting(rng, "B")
            post = cb.collapse(state, setting, 1)
            lead = post.amplitudes[np.argmax(np.abs(post.amplitudes) > 1e-12)]
            assert lead.imag == pytest.approx(0.0, abs=1e-12)
            assert lead.real > 0


class TestJointDistribution:
    def test_singlet_zz_golden(self, singlet):
        jd = cb.joint_distribution(singlet, A(0), B(0))
        assert_allclose(jd.probs, [[0.0, 0.5], [0.5, 0.0]], atol=1e-12)

    def test_matches_commuting_oracle(self, rng):
        for _ in range(30):
            state = random_pure_state(rng)
            a = random_setting(rng, "A")
            b = random_setting(rng, "B")
            expected = oracle_joint(state.amplitudes, a.vector, b.vector)
            for ordering in ("AB", "BA"):
                jd = cb.joint_distribution(state, a, b, ordering)
                assert_allclose(jd.probs, expected, atol=1e-12)

    def test_ordering_invariance_100_draws(self, rng):
        worst = 0.0
        for _ in range(100):
            state = random_pure_state(rng)
            a = random_setting(rng, "A")
            b = random_setting(rng, "B")
            ab = cb.joint_distribution(state, a, b, "AB").probs
            ba = cb.joint_distribution(state, a, b, "BA").probs
            worst = max(worst, float(np.max(np.abs(ab - ba))))
        assert worst <= 1e-12

    def test_product_deterministic(self):
        jd = cb.joint_distribution(cb.make_product_state(), A(0), B(0))
        assert jd.prob(1, 1) == pytest.approx(1.0, abs=1e-12)

    def test_party_tags_enforced(self, singlet):
        with pytest.raises(ValueError):
            cb.joint_distribution(singlet, B(0), B(0))

    def test_numerically_impossible_branch_skipped(self):
        """Amplitude dirt of ~1e-13 must not crash the sequential enumeration."""
        amps = np.array([1.0, 1e-13, 0.0, 0.0], dtype=complex)
        state = cb.TwoQubitState(amps / np.linalg.norm(amps))
        for ordering in ("AB", "BA"):
            jd = cb.joint_distribution(state, A(0), B(0), ordering)
            assert jd.prob(1, 1) == pytest.approx(1.0, abs=1e-12)

    def test_bad_ordering_rejected(self, singlet):
        with pytest.raises(ValueError):
            cb.joint_distribution(singlet, A(0), B(0), "XY")

    def test_no_signaling_exact_tables(self, rng):
        for _ in range(10):
            state = random_pure_state(rng)
            settings_a = [random_setting(rng, "A") for _ in range(2)]
            settings_b = [random_setting(rng, "B") for _ in range(2)]
            table = cb.exact_table(state, settings_a, settings_b)
            assert table.no_signaling_defect() <= 1e-12

    def test_marginals(self, singlet):
        jd = cb.joint_distribution(singlet, A(0), B(45))
        assert_allclose(marginal(jd, "A"), [0.5, 0.5], atol=1e-12)
        assert_allclose(marginal(jd, "B"), [0.5, 0.5], atol=1e-12)


class TestChsh:
    def test_singlet_golden(self, singlet, chsh_settings):
        # frozen from the commuting-projector oracle: the fixed-form value is
        # negative at these settings, magnitude 2*sqrt(2)
        value = cb.chsh_value(singlet, *chsh_settings)
        assert value == pytest.approx(-2.0 * SQRT2, abs=1e-12)

    def test_matches_oracle_correlators(self, singlet, chsh_settings):
        a, a2, b, b2 = chsh_settings

        def e(x, y):
            p = oracle_joint(singlet.amplitudes, x.vector, y.vector)
            return p[0, 0] - p[0, 1] - p[1, 0] + p[1, 1]

        expected = e(a, b) + e(a, b2) + e(a2, b) - e(a2, b2)
        assert cb.chsh_value(singlet, *chsh_settings) == pytest.approx(expected, abs=1e-12)

    def test_tsirelson_bound_random(self, singlet, rng):
        for _ in range(1000):
            a, a2 = (random_setting(rng, "A") for _ in range(2))
            b, b2 = (random_setting(rng, "B") for _ in range(2))
            assert abs(cb.chsh_value(singlet, a, a2, b, b2)) <= 2.0 * SQRT2 + 1e-9

    def test_product_state_local(self, rng):
        state = cb.make_product_state()
        for _ in range(50):
            a, a2 = (random_setting(rng, "A") for _ in range(2))
            b, b2 = (random_setting(rng, "B") for _ in range(2))
            assert abs(cb.chsh_value(state, a, a2, b, b2)) <= 2.0 + 1e-9

    def test_repeated_settings_identity(self, singlet):
        a, b = A(17.0), B(62.0)
        value = cb.chsh_value(singlet, a, a, b, b)
        expected = 2.0 * cb.joint_distribution(singlet, a, b).correlator()
        assert value == pytest.approx(expected, abs=1e-12)
        assert abs(value) <= 2.0 + 1e-12

    def test_party_tags_enforced(self, singlet):
        with pytest.raises(ValueError):
            cb.chsh_value(singlet, A(0), B(90), B(45), B(135))


class TestCorrelationTable:
    def test_exact_table_matches_oracle(self, singlet):
        settings_a = [A(0), A(90)]
        settings_b = [B(45), B(135)]
        table = cb.exact_table(singlet, settings_a, settings_b)
        for i, j in itertools.product(range(2), range(2)):
            expected = oracle_joint(
                singlet.amplitudes, settings_a[i].vector, settings_b[j].vector
            )
            assert_allclose(table.cells[i, j], expected, atol=1e-12)

    def test_diff_metrics(self, singlet):
        table = cb.exact_table(singlet, [A(0)], [B(0)])
        assert table_max_abs_diff(table, table) == 0.0
        assert table.total_variation(table)[0, 0] == 0.0

    def test_shape_mismatch_rejected(self, singlet):
        one = cb.exact_table(singlet, [A(0)], [B(0)])
        two = cb.exact_table(singlet, [A(0), A(90)], [B(0)])
        with pytest.raises(ValueError):
            table_max_abs_diff(one, two)


# entries at the edges of [0, 1] and just past them, and the non-finite ones
EDGE_ENTRIES = st.sampled_from([
    math.nan, math.inf, -math.inf, -0.0, 0.0, 1.0, -0.5, 2.0,
    -1e-13, -ATOL, -2e-12, -1e-9, 1.0 + 1e-13, 1.0 + 2e-12, 1.0 + 1e-9, 1.0 + 2e-9,
])
# off 1 by 0, or by 1e-13 to 1e-8 of either sign
SUM_OFFSETS = st.one_of(
    st.just(0.0),
    st.builds(lambda sign, exp: sign * 10.0**exp, st.sampled_from([1, -1]), st.floats(-13, -8)),
)


@st.composite
def edge_tables(draw):
    """(2, 2) tables of entries in [0, 1/4], up to two of them swapped for edge entries, most
    with one entry then completing the sum to 1 up to a SUM_OFFSETS offset."""
    x = draw(st.lists(st.floats(0.0, 0.25), min_size=4, max_size=4))
    for i in draw(st.lists(st.integers(0, 3), max_size=2)):
        x[i] = draw(EDGE_ENTRIES)
    if (k := draw(st.integers(0, 4))) < 4:
        x[k] = 1.0 - sum(v for i, v in enumerate(x) if i != k) + draw(SUM_OFFSETS)
    return (x[0], x[1]), (x[2], x[3])


def flat_and_sum(t):
    """The table's four entries and numpy's sum of them (0.0 plus each, row by row)."""
    x = [v for row in t for v in row]
    return x, 0.0 + x[0] + x[1] + x[2] + x[3]


# each outcome-table type: its constructor on one table, its tolerance, and the rule it
# refused tables by before all three shared one check
OUTCOME_TYPES = {
    "JointDistribution": (
        cb.JointDistribution, ATOL,
        lambda x, s: any(v < -ATOL or v > 1.0 + ATOL for v in x) or abs(s - 1.0) > ATOL,
    ),
    "CorrelationTable": (
        lambda t: cb.CorrelationTable([A(0)], [B(0)], [[t]]), 1e-9,
        lambda x, s: abs(s - 1.0) > 1e-9,
    ),
    "BehaviorVector": (
        lambda t: cb.BehaviorVector([[t, t], [t, t]]), 1e-9,
        lambda x, s: any(not v >= -1e-12 for v in x) or not abs(s - 1.0) <= 1e-9,
    ),
}


class TestOutcomeTableRule:
    """JointDistribution, CorrelationTable and BehaviorVector accept a (2, 2) outcome table
    exactly when every entry lies in [-ATOL, 1 + tol] and the entries sum to 1 within tol,
    at the type's own tol, and accept nothing their earlier hand-written checks refused."""

    @pytest.mark.parametrize("kind", OUTCOME_TYPES)
    @settings(max_examples=150, deadline=None)
    @given(table=edge_tables())
    # JointDistribution and CorrelationTable once accepted the first, CorrelationTable the second
    @example(table=((math.nan, 0.5), (0.25, 0.25)))
    @example(table=((-0.5, 1.0), (0.25, 0.25)))
    @example(table=((0.25, 0.25), (0.25, 0.25)))
    @example(table=((1.0 + 1.5e-12, -5e-13), (-5e-13, -5e-13)))  # at ATOL only the ceiling refuses
    def test_accepts_exactly_the_one_rule(self, kind, table):
        make, tol, refused_before = OUTCOME_TYPES[kind]
        x, s = flat_and_sum(table)
        try:
            make(table)
            accepted = True
        except ValueError:
            accepted = False
        assert accepted == (all(-ATOL <= v <= 1.0 + tol for v in x) and abs(s - 1.0) <= tol)
        assert not (accepted and refused_before(x, s))


# finite floats of every scale, exact zeros of both signs among them
ANY_FLOAT = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    st.floats(-1.0, 1.0),
    st.floats(allow_nan=False, allow_infinity=False),
)


def bits(x) -> str:
    return float(x).hex()


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")  # both versions overflow alike
class TestFloatKernel:
    """The sums the plain-float kernel writes out are numpy's .sum() of the same values, bit
    for bit (signed zeros included), and its normalization is the grid kernel's on 4 entries."""

    @settings(max_examples=200, deadline=None)
    @given(parts=st.lists(ANY_FLOAT, min_size=8, max_size=8))
    def test_squared_norm(self, parts):
        re, im = np.array(parts[:4]), np.array(parts[4:])
        assert bits(quantum._squared_norm(parts[:4], parts[4:])) == bits((re**2 + im**2).sum())

    @settings(max_examples=200, deadline=None)
    @given(entries=st.lists(ANY_FLOAT, min_size=4, max_size=4))
    @example(entries=[-0.0] * 4)  # numpy's sum starts from +0.0
    def test_cell_sum(self, entries):
        table = (tuple(entries[:2]), tuple(entries[2:]))
        assert bits(quantum._cell_sum(table)) == bits(np.array(table).sum())

    @settings(max_examples=200, deadline=None)
    @given(
        signs=st.sampled_from(localpolytope.chsh_sign_patterns()),
        entries=st.lists(ANY_FLOAT, min_size=4, max_size=4),
    )
    def test_facet_sum(self, signs, entries):
        corr = (tuple(entries[:2]), tuple(entries[2:]))
        expected = np.sum(np.array(signs) * np.array(corr))
        assert bits(localpolytope._facet_sum(signs, corr)) == bits(expected)

    @settings(max_examples=200, deadline=None)
    @given(parts=st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8))
    def test_normalize(self, parts):
        re, im = parts[:4], parts[4:]
        weight = quantum._squared_norm(re, im)
        assume(weight > 1e-24)
        ours = quantum._normalize(re, im, weight)
        grid = flash._normalize(np.array(re), np.array(im), weight)
        assert [(bits(z.real), bits(z.imag)) for z in ours] == [
            (bits(z.real), bits(z.imag)) for z in grid.tolist()
        ]
