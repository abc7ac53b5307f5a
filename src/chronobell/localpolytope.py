"""The 2-setting/2-outcome local polytope and the ordering-consistency no-go.

A `StrategyQuadruple` holds the four finite response tables that drive a
simulation in either time order: who answers first and who answers second,
per chronology, as functions of the settings and a finite lambda alphabet.
Demanding that both time orders realize the *same* outcomes for every
(a, b, lambda) forces each second responder to ignore the remote party's
setting, which collapses the quadruple to a `LocalModel`. Local models live
inside the convex hull of 16 deterministic strategies and never exceed the
CHSH bound of 2, while two-qubit measurements reach 2*sqrt(2) - hence no
ordering-consistent quadruple can reproduce them.

Membership in the local polytope is decided by two independent routes that
must agree: a dense phase-1 simplex over the 16 vertices, and the 8 CHSH
facet inequalities, which together with positivity are complete for this
scenario. The exhaustive search covers every uniform-weight quadruple at
alphabet sizes 1..8 by evaluating each multiset of L vertices once, in
fixed-size chunks, so its memory is flat in L; it illustrates concretely
what the facet bound proves for arbitrary finite mixtures.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import NotReducibleError, SearchSpaceError
from .quantum import (
    LOCAL_BOUND,
    BlochSetting,
    Chronology,
    TwoQubitState,
    correlators,
    exact_table,
    signaling_defect,
)
from .simplex import solve_feasibility

N_SETTINGS = 2
N_OUTCOMES = 2
MAX_SEARCH_ALPHABET = 8
SEARCH_CHUNK = 1024  # vertex multisets evaluated per step of the no-go search
BOUNDARY_ROUNDING = 1e-12  # |S| - 2 this close to tol is rounding: the oracles may differ

_ENTRY_FLOOR = -1e-12
_BLOCK_TOL = 1e-9
_NS_TOL = 1e-9
# the phase-1 residual of local_membership_lp is 5/2 of the CHSH violation |S| - 2
# (to 1.3e-5 over PR-box mixtures with |S| - 2 from 1e-10 to 1e-4, the rounding of
# S), so the LP tests |S| - 2 <= tol, as chsh_facet_check does
RESIDUAL_PER_VIOLATION = 2.5


def _sign_table(arr, shape: tuple[int, ...], name: str) -> np.ndarray:
    table = np.asarray(arr, dtype=np.int8)
    if table.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {table.shape}")
    if not np.all(np.abs(table) == 1):
        raise ValueError(f"{name} entries must be +1 or -1")
    table = table.copy()
    table.flags.writeable = False
    return table


def _weight_vector(weights, alphabet_size: int) -> np.ndarray:
    w = np.asarray(weights, dtype=float)
    if w.shape != (alphabet_size,):
        raise ValueError(f"weights must have shape ({alphabet_size},)")
    if np.any(w < 0.0):
        raise ValueError("weights must be nonnegative")
    if abs(float(w.sum()) - 1.0) > 1e-12:
        raise ValueError(f"weights must sum to 1, got {w.sum()!r}")
    w = w.copy()
    w.flags.writeable = False
    return w


@dataclass(frozen=True, eq=False)
class LocalModel:
    """Shared-randomness strategy: per-party response tables over a lambda alphabet.

    `responses_a[a, lam]` and `responses_b[b, lam]` are outcomes in {+1, -1};
    `weights` is the distribution over the alphabet.
    """

    responses_a: np.ndarray
    responses_b: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.responses_a)
        size = a.shape[-1] if a.ndim == 2 else 0
        object.__setattr__(
            self, "responses_a", _sign_table(self.responses_a, (N_SETTINGS, size), "responses_a")
        )
        object.__setattr__(
            self, "responses_b", _sign_table(self.responses_b, (N_SETTINGS, size), "responses_b")
        )
        object.__setattr__(self, "weights", _weight_vector(self.weights, size))

    @property
    def alphabet_size(self) -> int:
        return self.responses_a.shape[1]

    @classmethod
    def uniform(cls, responses_a, responses_b) -> "LocalModel":
        a = np.asarray(responses_a)
        return cls(responses_a, responses_b, np.full(a.shape[-1], 1.0 / a.shape[-1]))

    @classmethod
    def random(cls, rng: np.random.Generator, alphabet_size: int) -> "LocalModel":
        shape = (N_SETTINGS, alphabet_size)
        return cls.uniform(
            rng.choice([1, -1], size=shape), rng.choice([1, -1], size=shape)
        )


@dataclass(frozen=True, eq=False)
class StrategyQuadruple:
    """The four response tables of a chronology-dependent simulation.

    `first_ab[a, lam]` is A's outcome when A measures first; `second_ab[a, b,
    lam]` is B's outcome when B measures second (it may peek at A's setting).
    `first_ba[b, lam]` and `second_ba[b, a, lam]` mirror the reversed order.
    """

    first_ab: np.ndarray
    second_ab: np.ndarray
    first_ba: np.ndarray
    second_ba: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        f = np.asarray(self.first_ab)
        size = f.shape[-1] if f.ndim == 2 else 0
        pair = (N_SETTINGS, size)
        trio = (N_SETTINGS, N_SETTINGS, size)
        object.__setattr__(self, "first_ab", _sign_table(self.first_ab, pair, "first_ab"))
        object.__setattr__(self, "second_ab", _sign_table(self.second_ab, trio, "second_ab"))
        object.__setattr__(self, "first_ba", _sign_table(self.first_ba, pair, "first_ba"))
        object.__setattr__(self, "second_ba", _sign_table(self.second_ba, trio, "second_ba"))
        object.__setattr__(self, "weights", _weight_vector(self.weights, size))

    @property
    def alphabet_size(self) -> int:
        return self.first_ab.shape[1]

    @classmethod
    def from_local(cls, model: LocalModel) -> "StrategyQuadruple":
        """The quadruple in which each second responder ignores the remote setting."""
        size = model.alphabet_size
        second_ab = np.broadcast_to(model.responses_b[None, :, :], (N_SETTINGS, N_SETTINGS, size))
        second_ba = np.broadcast_to(model.responses_a[None, :, :], (N_SETTINGS, N_SETTINGS, size))
        return cls(model.responses_a, second_ab, model.responses_b, second_ba, model.weights)

    @classmethod
    def random(cls, rng: np.random.Generator, alphabet_size: int) -> "StrategyQuadruple":
        pair = (N_SETTINGS, alphabet_size)
        trio = (N_SETTINGS, N_SETTINGS, alphabet_size)
        return cls(
            rng.choice([1, -1], size=pair),
            rng.choice([1, -1], size=trio),
            rng.choice([1, -1], size=pair),
            rng.choice([1, -1], size=trio),
            np.full(alphabet_size, 1.0 / alphabet_size),
        )


@dataclass(frozen=True, eq=False)
class BehaviorVector:
    """Conditional outcome probabilities P(alpha, beta | a, b), shape (2, 2, 2, 2).

    Index order [a, b, alpha_idx, beta_idx] with outcome index 0 <-> +1.
    Construction validates normalization and no-signaling at 1e-9.
    """

    probs: np.ndarray

    def __post_init__(self) -> None:
        p = np.asarray(self.probs, dtype=float)
        shape = (N_SETTINGS, N_SETTINGS, N_OUTCOMES, N_OUTCOMES)
        if p.shape != shape:
            raise ValueError(f"behavior must have shape {shape}, got {p.shape}")
        if np.any(p < _ENTRY_FLOOR):
            raise ValueError("behavior entries must be nonnegative (within 1e-12)")
        sums = p.sum(axis=(2, 3))
        if np.any(np.abs(sums - 1.0) > _BLOCK_TOL):
            raise ValueError("each conditional block must sum to 1")
        p = p.copy()
        p.flags.writeable = False
        object.__setattr__(self, "probs", p)
        defect = self.no_signaling_defect()
        if defect > _NS_TOL:
            raise ValueError(f"behavior violates no-signaling by {defect!r}")

    @classmethod
    def from_flat(cls, flat) -> "BehaviorVector":
        return cls(np.asarray(flat, dtype=float).reshape(2, 2, 2, 2))

    @property
    def flat(self) -> np.ndarray:
        return self.probs.reshape(16).copy()

    def no_signaling_defect(self) -> float:
        return signaling_defect(self.probs)

    def correlators(self) -> np.ndarray:
        """E[a, b] = sum over outcomes of alpha * beta * P."""
        return correlators(self.probs)

    def max_abs_diff(self, other: "BehaviorVector") -> float:
        return float(np.max(np.abs(self.probs - other.probs)))


def chsh_sign_patterns() -> tuple[np.ndarray, ...]:
    """The 8 CHSH coefficient matrices: each puts an odd number of -1 signs."""
    patterns = []
    for signs in itertools.product((1, -1), repeat=4):
        if signs[0] * signs[1] * signs[2] * signs[3] == -1:
            s = np.array(signs, dtype=np.int64).reshape(2, 2)
            s.flags.writeable = False
            patterns.append(s)
    return tuple(patterns)


_CHSH_PATTERNS = chsh_sign_patterns()


@dataclass(frozen=True)
class ConstraintViolation:
    """(a, b, lambda) triple on which the two chronologies disagree."""

    equation: str  # "alpha_consistency" or "beta_consistency"
    a: int
    b: int
    lam: int
    lhs: int
    rhs: int


@dataclass(frozen=True)
class ConstraintReport:
    holds: bool
    violations: tuple[ConstraintViolation, ...]


def check_covariance_constraints(q: StrategyQuadruple) -> ConstraintReport:
    """Does the quadruple realize the same outcomes under both time orders?

    alpha_consistency: first_ab[a, lam] == second_ba[b, a, lam] for all b;
    beta_consistency:  second_ab[a, b, lam] == first_ba[b, lam] for all a.
    """
    violations = []
    for a, b, lam in itertools.product(
        range(N_SETTINGS), range(N_SETTINGS), range(q.alphabet_size)
    ):
        lhs = int(q.first_ab[a, lam])
        rhs = int(q.second_ba[b, a, lam])
        if lhs != rhs:
            violations.append(ConstraintViolation("alpha_consistency", a, b, lam, lhs, rhs))
        lhs = int(q.second_ab[a, b, lam])
        rhs = int(q.first_ba[b, lam])
        if lhs != rhs:
            violations.append(ConstraintViolation("beta_consistency", a, b, lam, lhs, rhs))
    return ConstraintReport(not violations, tuple(violations))


def reduce_to_local(q: StrategyQuadruple) -> LocalModel:
    """Collapse an ordering-consistent quadruple to the local model it hides.

    Consistency forces both second responders to ignore the remote setting,
    so the two first-responder tables carry the whole strategy.
    """
    report = check_covariance_constraints(q)
    if not report.holds:
        first = report.violations[0]
        raise NotReducibleError(
            f"quadruple violates {first.equation} at (a={first.a}, b={first.b}, "
            f"lam={first.lam}); {len(report.violations)} violations total"
        )
    return LocalModel(q.first_ab, q.first_ba, q.weights)


def _indicator(table: np.ndarray) -> np.ndarray:
    """Outcome indicators: table (..., L) of +/-1 -> (..., 2, L) of 0/1 ints."""
    return np.stack([table == 1, table == -1], axis=-2).astype(np.int64)


def _behavior_from_indicators(
    ind_alpha: np.ndarray, ind_beta: np.ndarray, weights: np.ndarray
) -> BehaviorVector:
    # both indicators arrive as (a, b, outcome_idx, lam); the shared joint
    # indicator keeps all behavior routes on identical float operations
    joint = ind_alpha[:, :, :, None, :] * ind_beta[:, :, None, :, :]
    return BehaviorVector(joint.astype(np.float64) @ weights)


def behavior_of(
    model: LocalModel | StrategyQuadruple, chronology: Chronology | str | None = None
) -> BehaviorVector:
    """P(alpha, beta | a, b) of a local model or a quadruple under one order."""
    if isinstance(model, LocalModel):  # either order gives the same tables here
        return behavior_of(StrategyQuadruple.from_local(model), Chronology.AB)
    if not isinstance(model, StrategyQuadruple):
        raise TypeError(f"expected LocalModel or StrategyQuadruple, got {type(model)!r}")
    if chronology is None:
        raise ValueError("a StrategyQuadruple needs an explicit chronology")
    chronology = Chronology(chronology)
    size = model.alphabet_size
    if chronology is Chronology.AB:
        ind_alpha = np.broadcast_to(_indicator(model.first_ab)[:, None], (2, 2, 2, size))
        ind_beta = _indicator(model.second_ab)
    else:
        # second_ba is indexed [b, a, lam]; swap to [a, b, lam]
        ind_alpha = _indicator(model.second_ba.transpose(1, 0, 2))
        ind_beta = np.broadcast_to(_indicator(model.first_ba)[None, :], (2, 2, 2, size))
    return _behavior_from_indicators(ind_alpha, ind_beta, model.weights)


def quantum_behavior(
    state: TwoQubitState,
    a0: BlochSetting,
    a1: BlochSetting,
    b0: BlochSetting,
    b1: BlochSetting,
    ordering: Chronology | str = Chronology.AB,
) -> BehaviorVector:
    """The 16-entry behavior of a two-qubit state at two settings per party."""
    return BehaviorVector(exact_table(state, (a0, a1), (b0, b1), ordering).cells)


@functools.cache
def _vertex_models() -> tuple[LocalModel, ...]:
    models = []
    for fa in itertools.product((1, -1), repeat=N_SETTINGS):
        for gb in itertools.product((1, -1), repeat=N_SETTINGS):
            models.append(
                LocalModel.uniform(
                    np.array(fa, dtype=np.int8).reshape(2, 1),
                    np.array(gb, dtype=np.int8).reshape(2, 1),
                )
            )
    return tuple(models)


def enumerate_deterministic_strategies() -> list[BehaviorVector]:
    """The 16 deterministic behaviors: every (f: a->outcome) x (g: b->outcome)."""
    return [behavior_of(m) for m in _vertex_models()]


@functools.cache
def _vertex_matrix() -> np.ndarray:
    columns = np.column_stack([v.flat for v in enumerate_deterministic_strategies()])
    columns.flags.writeable = False
    return columns


@dataclass(frozen=True, eq=False)
class FacetCheck:
    """Max over the 8 CHSH coefficient patterns; local iff it stays within 2."""

    local: bool
    max_facet_value: float
    best_signs: np.ndarray
    tolerance: float

    def to_dict(self) -> dict:
        return {
            "local": self.local,
            "max_facet_value": self.max_facet_value,
            "best_signs": self.best_signs.tolist(),
            "local_bound": LOCAL_BOUND,
        }


def chsh_facet_check(p: BehaviorVector, tol: float = 1e-9) -> FacetCheck:
    """Evaluate all 8 CHSH sign variants; complete for no-signaling 2-2-2 behaviors."""
    corr = p.correlators()
    best_value = -1.0
    best_signs = _CHSH_PATTERNS[0]
    for signs in _CHSH_PATTERNS:
        value = abs(float(np.sum(signs * corr)))
        if value > best_value:
            best_value = value
            best_signs = signs
    return FacetCheck(best_value <= LOCAL_BOUND + tol, best_value, best_signs, tol)


@dataclass(frozen=True, eq=False)
class MembershipResult:
    """LP verdict: vertex weights if local, a violated CHSH facet if not."""

    local: bool
    weights: np.ndarray | None
    reconstruction_error: float | None
    certificate: FacetCheck | None


def local_membership_lp(p: BehaviorVector, tol: float = 1e-9) -> MembershipResult:
    """Decide membership in the local polytope by phase-1 simplex.

    Feasibility of p = sum_v w_v * vertex_v with w >= 0, sum w = 1 over the
    16 deterministic strategies, with the residual allowed RESIDUAL_PER_VIOLATION
    * tol. On infeasibility the most violated CHSH facet is attached as the
    separating certificate. The residual is that multiple of |S| - 2 only for
    no-signalling `p`, as quantum behaviors are; a signalling defect (up to the
    1e-9 `BehaviorVector` admits) adds several times itself to the residual.
    """
    if not tol < 1.0:  # tol also bounds the pivots, and no tableau entry exceeds 1
        raise ValueError(f"tolerance must be below 1, got {tol!r}")
    vertex_cols = _vertex_matrix()
    A = np.vstack([vertex_cols, np.ones((1, vertex_cols.shape[1]))])
    b = np.append(p.flat, 1.0)
    floor = max(tol, BOUNDARY_ROUNDING)  # at tol = 0 rounding alone reads as infeasible
    weights = solve_feasibility(A, b, tol=floor, residual_tol=RESIDUAL_PER_VIOLATION * floor)
    if weights is None:
        return MembershipResult(False, None, None, chsh_facet_check(p, tol))
    error = float(np.max(np.abs(A @ weights - b)))
    return MembershipResult(True, weights, error, None)


@dataclass(frozen=True, eq=False)
class SearchResult:
    found: bool
    best: StrategyQuadruple
    best_distance: float
    max_chsh: float
    alphabet_size: int
    tolerance: float
    n_candidates: int

    def to_dict(self) -> dict:
        return {
            "found": self.found,
            "best_distance": self.best_distance,
            "max_chsh": self.max_chsh,
            "alphabet_size": self.alphabet_size,
            "tolerance": self.tolerance,
            "n_candidates": self.n_candidates,
        }


def exhaustive_nogo_search(
    alphabet_size: int, target: BehaviorVector, tol: float
) -> SearchResult:
    """Search every uniform-weight ordering-consistent quadruple.

    Consistency leaves only the two first-responder tables free, so the space
    covered is all (4**L)^2 table pairs. Each lambda column of a pair is one
    of the 16 deterministic vertices, and a uniform mixture ignores column
    order, so only the C(L+15, 15) multisets of L vertices are evaluated
    (Fine's vertex description of the local polytope). Returns the closest
    behavior's distance to `target` (max absolute entrywise difference) and
    the largest CHSH facet value met anywhere in the search; the latter equals
    the local bound 2 exactly, because correlators are integer sums divided by
    L once. Multisets come `SEARCH_CHUNK` at a time in lexicographic order and
    ties keep the first, so memory is flat in L.
    """
    if not 1 <= alphabet_size <= MAX_SEARCH_ALPHABET:
        raise SearchSpaceError(
            f"alphabet size must be in 1..{MAX_SEARCH_ALPHABET}, got {alphabet_size}"
        )
    vertices = _vertex_models()
    vertex_counts = _vertex_matrix().T.reshape(len(vertices), 2, 2, 2, 2).astype(np.int64)
    multisets = itertools.combinations_with_replacement(range(len(vertices)), alphabet_size)
    row = np.dtype((np.int64, alphabet_size))
    best_distance, best_pick, max_corr_int = np.inf, None, 0
    while len(picks := np.fromiter(itertools.islice(multisets, SEARCH_CHUNK), dtype=row)):
        counts = vertex_counts[picks].sum(axis=1)  # [pick, a, b, alpha_idx, beta_idx]
        distances = np.max(np.abs(counts / alphabet_size - target.probs), axis=(1, 2, 3, 4))
        i = int(np.argmin(distances))
        # a strict < keeps the first minimum, as argmin does; None admits a NaN target
        if best_pick is None or distances[i] < best_distance:
            best_distance, best_pick = distances[i], picks[i]
        chunk_max = int(np.abs(np.einsum("sab,nab->ns", _CHSH_PATTERNS, correlators(counts))).max())
        max_corr_int = max(max_corr_int, chunk_max)

    chosen = [vertices[v] for v in best_pick]
    best_model = LocalModel.uniform(
        np.hstack([m.responses_a for m in chosen]), np.hstack([m.responses_b for m in chosen])
    )
    return SearchResult(
        found=bool(best_distance <= tol),
        best=StrategyQuadruple.from_local(best_model),
        best_distance=float(best_distance),
        max_chsh=max_corr_int / alphabet_size,
        alphabet_size=alphabet_size,
        tolerance=tol,
        n_candidates=16**alphabet_size,
    )
