"""Feasibility-simplex tests, cross-checked against scipy's linprog and the numpy tableau."""

import math

import numpy as np
import pytest
import scipy.optimize
from hypothesis import example, given, settings
from hypothesis import strategies as st

import chronobell as cb
from chronobell import cli, localpolytope
from chronobell.simplex import _column_sums, _pairwise_sum, solve_feasibility
from support import behavior_from_flat, random_pure_state, random_setting


def scipy_feasible(A, b):
    result = scipy.optimize.linprog(
        c=np.zeros(A.shape[1]), A_eq=A, b_eq=b, bounds=[(0, None)] * A.shape[1],
        method="highs",
    )
    return result.status == 0


class TestBasics:
    def test_identity_system(self):
        A = np.eye(3)
        b = np.array([1.0, 2.0, 0.5])
        x = solve_feasibility(A, b)
        np.testing.assert_allclose(x, b, atol=1e-9)

    def test_negative_rhs_handled(self):
        A = np.array([[-1.0, 0.0], [0.0, 1.0]])
        b = np.array([-2.0, 3.0])
        x = solve_feasibility(A, b)
        np.testing.assert_allclose(A @ x, b, atol=1e-9)
        assert np.all(np.asarray(x) >= -1e-12)

    def test_inconsistent_system(self):
        A = np.array([[1.0, 1.0], [1.0, 1.0]])
        b = np.array([1.0, 2.0])
        assert solve_feasibility(A, b) is None

    def test_requires_nonnegativity(self):
        # x1 + x2 = -1 has solutions, none of them nonnegative
        A = np.array([[1.0, 1.0]])
        b = np.array([-1.0])
        assert solve_feasibility(A, b) is None

    def test_degenerate_zero_rows(self):
        A = np.array([[1.0, 0.0], [0.0, 0.0]])
        b = np.array([1.0, 0.0])
        x = solve_feasibility(A, b)
        np.testing.assert_allclose(A @ x, b, atol=1e-9)

    def test_zero_rhs(self):
        A = np.array([[1.0, -1.0], [2.0, 1.0]])
        x = solve_feasibility(A, np.zeros(2))
        np.testing.assert_allclose(x, 0.0, atol=1e-9)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            solve_feasibility(np.eye(2), np.zeros(3))


class TestConvexGeometry:
    def test_point_inside_square_hull(self):
        vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]).T
        A = np.vstack([vertices, np.ones(4)])
        b = np.array([0.25, 0.75, 1.0])
        weights = solve_feasibility(A, b)
        assert weights is not None
        np.testing.assert_allclose(vertices @ weights, [0.25, 0.75], atol=1e-9)
        assert abs(np.asarray(weights).sum() - 1.0) <= 1e-9

    def test_point_outside_square_hull(self):
        vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]).T
        A = np.vstack([vertices, np.ones(4)])
        b = np.array([1.5, 0.5, 1.0])
        assert solve_feasibility(A, b) is None


class TestAgainstScipy:
    def test_random_feasible_systems(self, rng):
        for _ in range(50):
            m, n = rng.integers(2, 8), rng.integers(2, 10)
            A = rng.standard_normal((m, n))
            x0 = rng.random(n)  # nonnegative by construction
            b = A @ x0
            x = solve_feasibility(A, b)
            assert x is not None
            np.testing.assert_allclose(A @ x, b, atol=1e-8)
            assert np.all(np.asarray(x) >= -1e-9)

    def test_random_systems_agree_with_scipy(self, rng):
        agree = 0
        for _ in range(60):
            m, n = int(rng.integers(2, 7)), int(rng.integers(2, 7))
            A = rng.standard_normal((m, n)).round(2)
            b = rng.standard_normal(m).round(2)
            ours = solve_feasibility(A, b) is not None
            theirs = scipy_feasible(A, b)
            assert ours == theirs
            agree += 1
        assert agree == 60


@np.errstate(all="ignore")  # tiny pivots may overflow, in both versions alike
def numpy_tableau(A, b, tol):
    """The numpy tableau loop `solve_feasibility` ran before it moved to plain floats.

    Kept as the reference oracle, verbatim but for its return value: (x, residual),
    with x before the residual test.
    """
    A = np.array(A, dtype=float)
    b = np.array(b, dtype=float)
    m, n = A.shape
    negative = b < 0.0
    A[negative] *= -1.0
    b[negative] *= -1.0
    tableau = np.zeros((m + 1, n + m + 1))
    tableau[:m, :n] = A
    tableau[:m, n:n + m] = np.eye(m)
    tableau[:m, -1] = b
    tableau[m, :n] = -A.sum(axis=0)
    tableau[m, -1] = -b.sum()
    basis = list(range(n, n + m))
    while True:
        entering = next((j for j in range(n + m) if tableau[m, j] < -tol), -1)
        if entering < 0:
            break
        leaving, best_ratio = -1, np.inf
        for i in range(m):
            coef = tableau[i, entering]
            if coef > tol:
                ratio = tableau[i, -1] / coef
                if ratio < best_ratio or (ratio == best_ratio and basis[i] < basis[leaving]):
                    best_ratio, leaving = ratio, i
        if leaving < 0:
            raise ArithmeticError("phase-1 simplex reported an unbounded direction")
        tableau[leaving] /= tableau[leaving, entering]
        for i in range(m + 1):
            if i != leaving and tableau[i, entering] != 0.0:
                tableau[i] -= tableau[i, entering] * tableau[leaving]
        basis[leaving] = entering
    x = np.zeros(n)
    for i, var in enumerate(basis):
        if var < n:
            x[var] = max(tableau[i, -1], 0.0)
    return x, float(-tableau[m, -1])


def assert_same_solve(A, b, tol, residual_tol):
    """Same verdict, weights and residual bits as the numpy tableau.

    Where rounding at tol = 0 leaves the tableau no leaving row, the oracle raises
    and `solve_feasibility` still gives a verdict; a NaN residual is refused.
    """
    try:
        x, residual = numpy_tableau(A, b, tol)
    except ArithmeticError:
        ours = solve_feasibility(A, b, tol, residual_tol=residual_tol)
        assert ours is None or len(ours) == len(A[0])
        return
    ours = solve_feasibility(A, b, tol, residual_tol=residual_tol)
    if math.isnan(residual):  # pivots overflowed: no threshold accepts a NaN residual
        assert ours is None
        assert solve_feasibility(A, b, tol, residual_tol=math.inf) is None
        return
    assert (ours is None) == (residual > residual_tol)
    if ours is not None:
        assert [w.hex() for w in ours] == [w.hex() for w in x.tolist()]
    # the residual itself: feasible at exactly its value, infeasible one ulp below it
    assert solve_feasibility(A, b, tol, residual_tol=residual) is not None
    assert solve_feasibility(A, b, tol, residual_tol=math.nextafter(residual, -math.inf)) is None


# entries with ties, exact zeros of both signs and rounding in the pivots
ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]),
    st.floats(-10.0, 10.0).map(lambda v: round(v, 2)),
    st.floats(-10.0, 10.0),
)


@st.composite
def systems(draw):
    m, n = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    A = draw(st.lists(st.lists(ENTRIES, min_size=n, max_size=n), min_size=m, max_size=m))
    return A, draw(st.lists(ENTRIES, min_size=m, max_size=m))


@st.composite
def membership_lps(draw):
    """The membership LP of a random quantum behavior, mixed toward uniform, or a boundary one."""
    kind = draw(st.sampled_from(["random", "boundary-1e-9", "boundary-1e-6"]))
    if kind == "random":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        quantum = cb.quantum_behavior(
            random_pure_state(rng), *(random_setting(rng, party) for party in "AABB")
        )
        visibility = draw(st.floats(0.0, 1.0))
        behavior = behavior_from_flat(visibility * quantum.flat + (1 - visibility) * 0.25)
        tol = draw(st.sampled_from([0.0, 1e-9, 1e-6]))
    else:
        tol = 1e-9 if kind == "boundary-1e-9" else 1e-6
        amps = BOUNDARY_STATES[tol]
        settings = [cb.BlochSetting.from_angle(deg, party) for deg, party in zip(
            (0, 90, 45, 135), "AABB")]
        behavior = cb.quantum_behavior(cb.TwoQubitState(amps), *settings)
    A = [*localpolytope._vertex_matrix(), [1.0] * 16]
    return A, [*behavior.flat.tolist(), 1.0], max(tol, localpolytope.BOUNDARY_ROUNDING)


# states whose CHSH magnitude lies 5e-10 and 5e-7 above 2, normalized as `chsh --state` does
BOUNDARY_STATES = {
    1e-9: cli.parse_state("0,0.9772869898252907,-0.2119201253260814,0").amplitudes,
    1e-6: cli.parse_state("0,0.9772869487069313,-0.21192031494666996,0").amplitudes,
}


class TestAgainstTheNumpyTableau:
    """Bit for bit: the boundary verdicts rest on the last bits of the phase-1 residual."""

    @settings(max_examples=150, deadline=None)
    @given(system=systems(), tol=st.sampled_from([0.0, 1e-9, 1e-3]))
    def test_random_systems(self, system, tol):
        A, b = system
        assert_same_solve(A, b, tol, tol)

    @settings(max_examples=60, deadline=None)
    @given(lp=membership_lps())
    def test_membership_lps(self, lp):
        A, b, floor = lp
        assert_same_solve(A, b, floor, localpolytope.RESIDUAL_PER_VIOLATION * floor)

    def test_nan_residual_is_refused(self):
        # a subnormal pivot overflows the row to inf, and inf - inf leaves a NaN residual
        A = [[0.0] * 8 for _ in range(9)]
        A[7][7], A[8][6], A[8][7] = -2.0, -1.0, 1.1125369292536007e-308
        b = [0.0] * 9
        b[7] = -1.0
        assert math.isnan(numpy_tableau(A, b, 0.0)[1])
        assert_same_solve(A, b, 0.0, 0.0)

    def test_no_leaving_row_gives_a_verdict(self):
        # rounding leaves a negative reduced cost whose column has no positive entry
        A = [[0] * 6 + [-6.776154661675834e-300, 1.0], [0] * 5 + [-1.0, 1.0, 0.0]]
        b = [0.0, 0.0]
        with pytest.raises(ArithmeticError, match="unbounded direction"):
            numpy_tableau(A, b, 0.0)
        assert_same_solve(A, b, 0.0, 0.0)
        assert solve_feasibility(A, b, 0.0) == [0.0] * 8  # x = 0 solves A x = 0


def ragged(n: int) -> list[float]:
    """n values of mixed sign and magnitude, whose sum's last bits depend on the order."""
    return [(-1) ** k * (k + 1) / 7.0 * 10.0 ** (k % 5 - 2) for k in range(n)]


class TestNumpySummation:
    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(ENTRIES, max_size=300))
    # hypothesis seldom draws over 128 values, where the vector is split in two halves
    # at a multiple of 8; summed left to right, or split at n // 2, these give other bits
    @example(values=ragged(129))
    @example(values=ragged(136))
    @example(values=ragged(300))
    def test_vector_sum(self, values):
        assert (0.0 + _pairwise_sum(values)).hex() == float(np.array(values).sum()).hex()

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), m=st.integers(1, 40), n=st.integers(1, 4))
    def test_column_sums(self, data, m, n):
        A = data.draw(st.lists(st.lists(ENTRIES, min_size=n, max_size=n), min_size=m, max_size=m))
        expected = [v.hex() for v in np.array(A).sum(axis=0).tolist()]
        assert [v.hex() for v in _column_sums(A)] == expected
