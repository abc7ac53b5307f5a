"""The 2-setting/2-outcome local polytope, its two oracles and the no-go search.

Ordering-consistent response tables collapse to local models (`strategies`),
which live inside the convex hull of 16 deterministic strategies and never
exceed the CHSH bound of 2, while two-qubit measurements reach 2*sqrt(2) -
hence no ordering-consistent simulation can reproduce them.

Membership in the local polytope is decided by two independent routes that
must agree: a dense phase-1 simplex over the 16 vertices, and the 8 CHSH
facet inequalities, which together with positivity are complete for this
scenario; `certify_locality` runs both and reconciles them. The exhaustive
search covers every uniform-weight quadruple at alphabet sizes 1..8, as
multisets of L vertices, by an exact branch and bound that skips only
subtrees no nearer than the best multiset so far; it illustrates concretely
what the facet bound proves for arbitrary mixtures.
"""

from __future__ import annotations

import functools
import itertools
import math

from .errors import OracleDisagreementError, SearchSpaceError
from .quantum import LOCAL_BOUND, OUTCOMES, BlochSetting, Chronology, TwoQubitState
from .quantum import _check_tables, _nested, correlation, exact_table, signaling_defect
from .simplex import solve_feasibility
from .values import MAX_SEARCH_ALPHABET, Frozen, _frozen

N_SETTINGS = 2
N_OUTCOMES = 2
BOUNDARY_ROUNDING = 1e-12  # |S| - 2 this close to tol is rounding: the oracles may differ

_BLOCK_TOL = 1e-9
_NS_TOL = 1e-9
# the phase-1 residual of local_membership_lp is 5/2 of the CHSH violation |S| - 2
# (to 1.3e-5 over PR-box mixtures with |S| - 2 from 1e-10 to 1e-4, the rounding of
# S), so the LP tests |S| - 2 <= tol, as chsh_facet_check does
RESIDUAL_PER_VIOLATION = 2.5


class BehaviorVector(Frozen):
    """Conditional outcome probabilities P(alpha, beta | a, b), shape (2, 2, 2, 2).

    Index order [a, b, alpha_idx, beta_idx] with outcome index 0 <-> +1, in
    `values` as nested tuples and in `probs` as a read-only array.
    Construction validates normalization and no-signaling at 1e-9.
    """

    values: tuple

    def __init__(self, probs) -> None:
        p = _nested(probs, (N_SETTINGS, N_SETTINGS, N_OUTCOMES, N_OUTCOMES), "behavior")
        _check_tables((t for row in p for t in row), _BLOCK_TOL, "each conditional block")
        vars(self).update(values=p)
        defect = self.no_signaling_defect()
        if defect > _NS_TOL:
            raise ValueError(f"behavior violates no-signaling by {defect!r}")

    probs = functools.cached_property(lambda self: _frozen(self.values))

    @property
    def flat(self):
        return self.probs.reshape(16).copy()

    def no_signaling_defect(self) -> float:
        return signaling_defect(self.values)

    def correlators(self) -> tuple:
        """E[a][b] = sum over outcomes of alpha * beta * P."""
        return tuple(tuple(correlation(t) for t in row) for row in self.values)


def chsh_sign_patterns() -> tuple:
    """The 8 CHSH coefficient tables s[a][b]: each puts an odd number of -1 signs."""
    signs = itertools.product((1, -1), repeat=4)
    return tuple((s[:2], s[2:]) for s in signs if s[0] * s[1] * s[2] * s[3] == -1)


_CHSH_PATTERNS = chsh_sign_patterns()


def quantum_behavior(
    state: TwoQubitState,
    a0: BlochSetting,
    a1: BlochSetting,
    b0: BlochSetting,
    b1: BlochSetting,
    ordering: Chronology | str = Chronology.AB,
) -> BehaviorVector:
    """The 16-entry behavior of a two-qubit state at two settings per party."""
    return BehaviorVector(exact_table(state, (a0, a1), (b0, b1), ordering).values)


# the 16 deterministic strategies (f(a0), f(a1), g(b0), g(b1)), in vertex order
_VERTICES = tuple(itertools.product(OUTCOMES, repeat=2 * N_SETTINGS))


@functools.cache
def _vertex_matrix() -> tuple[tuple[float, ...], ...]:
    """Row k: entry k of each deterministic behavior (index order a, b, alpha_idx, beta_idx)."""
    return tuple(
        tuple(float(v[a] == OUTCOMES[i] and v[2 + b] == OUTCOMES[j]) for v in _VERTICES)
        for a, b, i, j in itertools.product(range(2), repeat=4)
    )


class FacetCheck(Frozen):
    """Max over the 8 CHSH coefficient patterns; local iff it stays within 2."""

    max_facet_value: float
    signs: tuple[tuple[int, int], tuple[int, int]]
    tolerance: float

    best_signs = functools.cached_property(lambda self: _frozen(self.signs, int))
    local = property(lambda self: self.max_facet_value <= LOCAL_BOUND + self.tolerance)

    def to_dict(self) -> dict:
        return {
            "local": self.local,
            "max_facet_value": self.max_facet_value,
            "best_signs": [list(row) for row in self.signs],
            "local_bound": LOCAL_BOUND,
        }


def _facet_sum(signs, corr) -> float:
    """numpy's sum of signs * corr over a (2, 2) pattern: 0.0 plus each product, in order."""
    (s0, s1), (s2, s3) = signs
    (e0, e1), (e2, e3) = corr
    return 0.0 + s0 * e0 + s1 * e1 + s2 * e2 + s3 * e3


def chsh_facet_check(p: BehaviorVector, tol: float = 1e-9) -> FacetCheck:
    """Evaluate all 8 CHSH sign variants; complete for no-signaling 2-2-2 behaviors."""
    corr = p.correlators()
    best_value, best_signs = -1.0, _CHSH_PATTERNS[0]
    for signs in _CHSH_PATTERNS:
        value = abs(_facet_sum(signs, corr))
        if value > best_value:
            best_value, best_signs = value, signs
    return FacetCheck(best_value, best_signs, tol)


class MembershipResult(Frozen):
    """LP verdict: vertex weights and their reconstruction error if local, None if not."""

    weights: list[float] | None
    reconstruction_error: float | None

    local = property(lambda self: self.weights is not None)


def local_membership_lp(p: BehaviorVector, tol: float = 1e-9) -> MembershipResult:
    """Decide membership in the local polytope by phase-1 simplex.

    Feasibility of p = sum_v w_v * vertex_v with w >= 0, sum w = 1 over the
    16 deterministic strategies, with the residual allowed RESIDUAL_PER_VIOLATION
    * tol. The residual is that multiple of |S| - 2 only for no-signalling `p`,
    as quantum behaviors are; a signalling defect (up to the 1e-9
    `BehaviorVector` admits) adds several times itself to the residual.
    """
    if not tol < 1.0:  # tol also bounds the pivots, and no tableau entry exceeds 1
        raise ValueError(f"tolerance must be below 1, got {tol!r}")
    A = [*_vertex_matrix(), (1.0,) * len(_VERTICES)]
    b = [x for row in p.values for t in row for pair in t for x in pair] + [1.0]
    floor = max(tol, BOUNDARY_ROUNDING)  # at tol = 0 rounding alone reads as infeasible
    weights = solve_feasibility(A, b, tol=floor, residual_tol=RESIDUAL_PER_VIOLATION * floor)
    if weights is None:
        return MembershipResult(None, None)
    error = max(abs(math.fsum(a * w for a, w in zip(row, weights)) - y) for row, y in zip(A, b))
    return MembershipResult(weights, error)


def certify_locality(p: BehaviorVector, tol: float = 1e-9) -> dict:
    """Both oracles' report fields for `p` at `tol`. They may disagree only with |S| - 2 within
    BOUNDARY_ROUNDING of `tol`: the verdict is then marked ``"boundary"`` and the facet check,
    exact in this scenario, decides. Any other disagreement is an `OracleDisagreementError`."""
    facet = chsh_facet_check(p, tol)
    membership = local_membership_lp(p, tol)
    verdict = {
        "chsh_magnitude": facet.max_facet_value,
        "lp_local": membership.local,
        "facet_local": facet.local,
        "facet_certificate": facet.to_dict(),
    }
    if membership.local != facet.local:
        if abs(facet.max_facet_value - LOCAL_BOUND - tol) > BOUNDARY_ROUNDING:
            raise OracleDisagreementError(
                f"membership LP says local={membership.local}, "
                f"facet check says local={facet.local}"
            )
        verdict["boundary"] = True
    return verdict


class SearchResult(Frozen):
    """The no-go search's verdict; `vertices` are the closest multiset's vertex indices."""

    vertices: tuple[int, ...]
    best_distance: float
    max_chsh: float
    alphabet_size: int
    tolerance: float

    found = property(lambda self: self.best_distance <= self.tolerance)
    n_candidates = property(lambda self: 16**self.alphabet_size)

    @functools.cached_property
    def best(self):
        """The closest multiset as a uniform consistent `strategies.StrategyQuadruple`."""
        from .strategies import _quadruple

        return _quadruple(self.vertices)

    def to_dict(self) -> dict:
        """Every field but the chosen vertices, with `found` and `n_candidates`."""
        names = "found best_distance max_chsh alphabet_size tolerance n_candidates".split()
        return {name: getattr(self, name) for name in names}


def exhaustive_nogo_search(alphabet_size: int, target: BehaviorVector, tol: float) -> SearchResult:
    """Search every uniform-weight ordering-consistent quadruple.

    Consistency leaves only the two first-responder tables free, so the space
    covered is all (4**L)^2 table pairs. Each lambda column of a pair is one
    of the 16 deterministic vertices, and a uniform mixture ignores column
    order, so the candidates are the C(L+15, 15) multisets of L vertices
    (Fine's vertex description of the local polytope). Returns the closest
    behavior's distance to `target` (max absolute entrywise difference), found
    by a branch and bound in lexicographic order. Correctly rounded `c / L - t`
    is monotone in the count c, so its bounds are exact: the result has every
    bit of checking all multisets in order, the first minimum kept. A
    mixture's integer CHSH sum is the sum of its members', so the largest
    CHSH value is a vertex's: exactly the local bound 2.
    """
    if not 1 <= alphabet_size <= MAX_SEARCH_ALPHABET:
        raise SearchSpaceError(
            f"alphabet size must be in 1..{MAX_SEARCH_ALPHABET}, got {alphabet_size}"
        )
    size, n_vertices = alphabet_size, len(_VERTICES)
    t = [x for row in target.values for table in row for pair in table for x in pair]
    rows = _vertex_matrix()
    grows = [[any(row[v:]) for row in rows] for v in range(n_vertices)]  # a vertex >= v sets k
    best_distance, best_pick = math.inf, ()

    def walk(pick: tuple, counts: list, first: int) -> None:
        """Visit the multisets that extend `pick` by vertices >= `first`, in order."""
        nonlocal best_distance, best_pick
        left = size - len(pick)
        # entry k ends in [c_k, c_k + left] if grows[first][k], else at c_k; at a leaf
        # (left = 0) the distance to that box is the leaf's own distance, bit for bit
        near = max(max(c / size - x, x - (c + left * g) / size)
                   for c, x, g in zip(counts, t, grows[first]))
        if near >= best_distance:
            return
        if not left:
            best_distance, best_pick = near, pick
            return
        walk(pick + (first,), [c + row[first] for c, row in zip(counts, rows)], first)
        if first + 1 < n_vertices:
            walk(pick, counts, first + 1)

    walk((), [0] * len(t), 0)
    corners = ([[v[a] * v[2 + b] for b in range(2)] for a in range(2)] for v in _VERTICES)
    max_chsh = max(abs(_facet_sum(s, corr)) for corr in corners for s in _CHSH_PATTERNS)
    return SearchResult(best_pick, best_distance, float(max_chsh), alphabet_size, tol)
