"""The strategy model behind the no-go: response tables and the behaviors they give.

A `StrategyQuadruple` holds the four response tables that drive a simulation in
either time order. Demanding that both orders realize the same outcomes for every
(a, b, lambda) forces each second responder to ignore the remote setting, which
collapses the quadruple to a `LocalModel`: a point of the local polytope, which
`localpolytope` certifies and searches without importing this module.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING

from .errors import NotReducibleError
from .localpolytope import N_SETTINGS, _VERTICES, BehaviorVector
from .quantum import Chronology
from .values import Frozen, _frozen

if TYPE_CHECKING:
    import numpy as np


def _freeze_tables(model, tables: dict[str, int]) -> None:
    """Check and freeze `model`'s weights and +/-1 tables (name: number of setting axes);
    each table ends in the lambda axis, whose length the first table sets."""
    import numpy as np

    size = None
    for name, n_axes in tables.items():
        table = np.asarray(getattr(model, name), dtype=np.int8)
        if size is None:
            size = table.shape[-1] if table.ndim == n_axes + 1 else 0
        shape = (N_SETTINGS,) * n_axes + (size,)
        if table.shape != shape:
            raise ValueError(f"{name} must have shape {shape}, got {table.shape}")
        if not np.all(np.abs(table) == 1):
            raise ValueError(f"{name} entries must be +1 or -1")
        vars(model)[name] = _frozen(table, np.int8)
    w = np.asarray(model.weights, dtype=float)
    if w.shape != (size,):
        raise ValueError(f"weights must have shape ({size},)")
    if not np.all(w >= 0.0):  # `not ... >=` and `not ... <=` refuse NaN too
        raise ValueError("weights must be nonnegative")
    if not abs(float(w.sum()) - 1.0) <= 1e-12:
        raise ValueError(f"weights must sum to 1, got {w.sum()!r}")
    vars(model)["weights"] = _frozen(w)


class LocalModel(Frozen):
    """Shared-randomness strategy: per-party response tables over a lambda alphabet.

    `responses_a[a, lam]` and `responses_b[b, lam]` are outcomes in {+1, -1};
    `weights` is the distribution over the alphabet.
    """

    responses_a: np.ndarray
    responses_b: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        _freeze_tables(self, {"responses_a": 1, "responses_b": 1})

    @classmethod
    def uniform(cls, responses_a, responses_b) -> "LocalModel":
        size = len(responses_a[0])
        return cls(responses_a, responses_b, [1.0 / size] * size)

    @classmethod
    def random(cls, rng, alphabet_size: int) -> "LocalModel":
        shape = (N_SETTINGS, alphabet_size)
        return cls.uniform(rng.choice([1, -1], size=shape), rng.choice([1, -1], size=shape))


class StrategyQuadruple(Frozen):
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
        _freeze_tables(self, {"first_ab": 1, "second_ab": 2, "first_ba": 1, "second_ba": 2})

    @property
    def alphabet_size(self) -> int:
        return self.first_ab.shape[1]

    @classmethod
    def from_local(cls, model: LocalModel) -> "StrategyQuadruple":
        """The quadruple in which each second responder ignores the remote setting."""
        second_ab = [model.responses_b] * N_SETTINGS  # the same table for each A setting
        second_ba = [model.responses_a] * N_SETTINGS
        return cls(model.responses_a, second_ab, model.responses_b, second_ba, model.weights)


class ConstraintViolation(Frozen, eq=True):
    """(a, b, lambda) triple on which the two chronologies disagree."""

    equation: str  # "alpha_consistency" or "beta_consistency"
    a: int
    b: int
    lam: int
    lhs: int
    rhs: int


class ConstraintReport(Frozen, eq=True):
    violations: tuple[ConstraintViolation, ...]

    holds = property(lambda self: not self.violations)


def check_covariance_constraints(q: StrategyQuadruple) -> ConstraintReport:
    """Does the quadruple realize the same outcomes under both time orders?

    alpha_consistency: first_ab[a, lam] == second_ba[b, a, lam] for all b;
    beta_consistency:  second_ab[a, b, lam] == first_ba[b, lam] for all a.
    """
    violations = []
    for a, b, lam in itertools.product(
        range(N_SETTINGS), range(N_SETTINGS), range(q.alphabet_size)
    ):
        for equation, lhs, rhs in (
            ("alpha_consistency", q.first_ab[a, lam], q.second_ba[b, a, lam]),
            ("beta_consistency", q.second_ab[a, b, lam], q.first_ba[b, lam]),
        ):
            if lhs != rhs:
                violations.append(ConstraintViolation(equation, a, b, lam, int(lhs), int(rhs)))
    return ConstraintReport(tuple(violations))


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


def behavior_of(
    model: LocalModel | StrategyQuadruple, chronology: Chronology | str | None = None
) -> BehaviorVector:
    """P(alpha, beta | a, b) of a local model or a quadruple under one order."""
    import numpy as np

    if isinstance(model, LocalModel):  # either order gives the same tables here
        return behavior_of(StrategyQuadruple.from_local(model), Chronology.AB)
    if not isinstance(model, StrategyQuadruple):
        raise TypeError(f"expected LocalModel or StrategyQuadruple, got {type(model)!r}")
    if chronology is None:
        raise ValueError("a StrategyQuadruple needs an explicit chronology")

    def indicator(table):  # (..., L) of +/-1 -> (..., 2, L) of 0/1 ints
        return np.stack([table == 1, table == -1], axis=-2).astype(np.int64)

    size = model.alphabet_size
    if Chronology(chronology) is Chronology.AB:
        ind_alpha = np.broadcast_to(indicator(model.first_ab)[:, None], (2, 2, 2, size))
        ind_beta = indicator(model.second_ab)
    else:
        # second_ba is indexed [b, a, lam]; swap to [a, b, lam]
        ind_alpha = indicator(model.second_ba.transpose(1, 0, 2))
        ind_beta = np.broadcast_to(indicator(model.first_ba)[None, :], (2, 2, 2, size))
    # both indicators are (a, b, outcome_idx, lam); the shared joint indicator
    # keeps both orders on identical float operations
    joint = ind_alpha[:, :, :, None, :] * ind_beta[:, :, None, :, :]
    return BehaviorVector(joint.astype(float) @ model.weights)


def _quadruple(picks) -> StrategyQuadruple:
    """The uniform consistent quadruple whose lambda value i answers as vertex `picks[i]`."""
    rows = list(zip(*(_VERTICES[v] for v in picks)))  # f(a0), f(a1), g(b0), g(b1)
    return StrategyQuadruple.from_local(LocalModel.uniform(rows[:2], rows[2:]))
