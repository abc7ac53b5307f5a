"""Exact quantum mechanics for two qubits on a 4-amplitude state vector.

Everything here is finite-dimensional linear algebra: projective spin
measurements along Bloch directions, sequential collapse in either time order
(`Chronology`), joint outcome distributions, and the CHSH combination of
correlators. Every exact outcome table, CHSH value and behavior is built on
`exact_table`, the one loop over setting pairs.

Conventions, fixed once and tested against eigen-decompositions:

- amplitude order is ``|00>, |01>, |10>, |11>`` with party A the first factor;
- the spin projector along a unit vector ``n`` is ``(I + outcome * n.sigma)/2``
  for ``outcome`` in ``{+1, -1}``;
- collapse fixes the global phase by rotating the first amplitude of
  magnitude > 1e-12 onto the positive real axis, so collapsed states can be
  compared entry by entry;
- the CHSH combination is ``E(a,b) + E(a,b2) + E(a2,b) - E(a2,b2)``;
- the kernel is plain floats and never loads numpy: every product and sum is
  the one numpy's array arithmetic did, in its order, never BLAS or a SIMD
  complex multiply, so every CPU prints the same bits. A sum of under 8 floats
  is ``0.0 + x0 + x1 + ...``, as numpy's ``.sum()`` is, never the builtin `sum`
  (compensated from Python 3.12). Frozen value types hold tuples of floats and
  build read-only arrays (`vector`, `amplitudes`, `probs`, `cells`) on demand.

All functions are pure, so concurrent use needs no coordination.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import cached_property

from .errors import ImpossibleOutcomeError, InvalidStateError
from .values import _SKIP_BRANCH, _ZERO_BRANCH, ATOL, Frozen, _frozen, _phase

OUTCOMES = (1, -1)

TSIRELSON_BOUND = 2.0 * math.sqrt(2.0)
LOCAL_BOUND = 2.0


class Party(Enum):
    A = "A"
    B = "B"


class Chronology(Enum):
    """Which party's measurement counts as first."""

    AB = "AB"  # party A first
    BA = "BA"  # party B first


def outcome_index(outcome: int) -> int:
    """Map +1 -> 0 and -1 -> 1 (the index order used by all tables)."""
    if outcome not in OUTCOMES:
        raise ValueError(f"outcome must be +1 or -1, got {outcome!r}")
    return OUTCOMES.index(outcome)


def _nested(values, shape: tuple[int, ...], what: str) -> tuple:
    """`values` (nested sequences or an array) as nested tuples of floats of `shape`."""
    def build(v, n, *rest):
        if len(v := list(v)) != n:
            raise ValueError
        return tuple(build(x, *rest) if rest else float(x) for x in v)

    try:
        return build(values, *shape)
    except (TypeError, ValueError):
        raise ValueError(f"{what} must have shape {shape}") from None


def _cell_sum(t) -> float:
    """numpy's sum of a (2, 2) outcome table t[i][j]: 0.0 plus each entry, row by row."""
    return 0.0 + t[0][0] + t[0][1] + t[1][0] + t[1][1]


def _check_tables(tables, tol: float, what: str) -> None:
    """Refuse any (2, 2) outcome table with an entry outside [-ATOL, 1 + tol], or whose
    _cell_sum is off 1 by more than tol; the `not ... <=` form refuses NaN and infinities."""
    for t in tables:
        if not (all(-ATOL <= x <= 1.0 + tol for row in t for x in row)
                and abs(_cell_sum(t) - 1.0) <= tol):
            raise ValueError(f"{what} must lie in [0, 1] and sum to 1, got {t!r}")


def correlation(t) -> float:
    """E = sum over outcomes of alpha * beta * P, for one (2, 2) outcome table t[i][j]."""
    return t[0][0] - t[0][1] - t[1][0] + t[1][1]


def signaling_defect(values) -> float:
    """Largest variation of one party's marginal across the other's settings, values[a][b]."""
    marg_a = [[(t[0][0] + t[0][1], t[1][0] + t[1][1]) for t in row] for row in values]
    marg_b = [[(t[0][0] + t[1][0], t[0][1] + t[1][1]) for t in row] for row in values]
    spreads = [max(m) - min(m) for row in marg_a for m in zip(*row)]  # over b, per (a, alpha)
    spreads += [max(m) - min(m) for col in zip(*marg_b) for m in zip(*col)]  # over a
    return max(spreads, default=0.0)


class BlochSetting(Frozen, eq=True):
    """A measurement direction (unit 3-vector) tagged with the measuring party.

    Zero or non-unit vectors are rejected outright rather than normalized;
    silent normalization would hide caller bugs.
    """

    xyz: tuple[float, float, float]
    party: Party

    def __init__(self, vector, party: Party | str) -> None:
        xyz = _nested(vector, (3,), "setting direction")
        norm = math.hypot(*xyz)
        if not abs(norm - 1.0) <= ATOL:  # refuses NaN and infinite components too
            raise ValueError(f"setting direction must be a unit vector, got norm {norm!r}")
        vars(self).update(xyz=xyz, party=Party(party))

    vector = cached_property(lambda self: _frozen(self.xyz))

    @classmethod
    def from_angle(cls, degrees: float, party: Party | str) -> "BlochSetting":
        """Direction in the x-z plane at `degrees` from the z axis."""
        t = math.radians(degrees)
        return cls((math.sin(t), 0.0, math.cos(t)), Party(party))


class TwoQubitState(Frozen, eq=True):
    """Pure state of two qubits: 4 complex amplitudes, unit norm within 1e-12."""

    re: tuple[float, ...]
    im: tuple[float, ...]

    def __init__(self, amplitudes) -> None:
        try:
            amps = [complex(z) for z in amplitudes]
        except TypeError:
            amps = []
        if len(amps) != 4:
            raise InvalidStateError(f"state needs 4 amplitudes, got {amplitudes!r}")
        vars(self).update(re=tuple(z.real for z in amps), im=tuple(z.imag for z in amps))
        if not abs(self.norm() - 1.0) <= ATOL:  # refuses NaN and infinite amplitudes too
            raise InvalidStateError(f"state must be normalized, got norm {self.norm()!r}")

    amplitudes = cached_property(lambda self: _frozen([*map(complex, self.re, self.im)], complex))

    def norm(self) -> float:
        return math.sqrt(_squared_norm(self.re, self.im))


def make_singlet() -> TwoQubitState:
    """The maximally entangled fixture (|01> - |10>)/sqrt(2)."""
    inv = 1.0 / math.sqrt(2.0)
    return TwoQubitState([0.0, inv, -inv, 0.0])


def make_product_state(qubit_a=(1.0, 0.0), qubit_b=(1.0, 0.0)) -> TwoQubitState:
    """Tensor product of two normalized single-qubit amplitude pairs."""
    a, b = [complex(z) for z in qubit_a], [complex(z) for z in qubit_b]
    if len(a) != 2 or len(b) != 2:
        raise InvalidStateError("each factor needs exactly 2 amplitudes")
    return TwoQubitState([x * y for x in a for y in b])


def _project(state: TwoQubitState, setting: BlochSetting, outcome: int) -> tuple:
    """(re, im) of (I + outcome * n.sigma)/2 applied on the setting's party of `state`."""
    outcome_index(outcome)
    nx, ny, nz = (0.5 * outcome * c for c in setting.xyz)
    re, im = list(state.re), list(state.im)
    # rows (1/2 + nz, nx - i ny) and (nx + i ny, 1/2 - nz) on pairs (party's qubit up, down)
    for i, j in ((0, 2), (1, 3)) if setting.party is Party.A else ((0, 1), (2, 3)):
        ur, ui, vr, vi = re[i], im[i], re[j], im[j]
        re[i] = (0.5 + nz) * ur + (nx * vr + ny * vi)
        im[i] = (0.5 + nz) * ui + (nx * vi - ny * vr)
        re[j] = (nx * ur - ny * ui) + (0.5 - nz) * vr
        im[j] = (nx * ui + ny * ur) + (0.5 - nz) * vi
    return re, im


def _squared_norm(re, im) -> float:
    """numpy's (re**2 + im**2).sum() of 4 amplitudes: 0.0 plus each r*r + i*i, in order."""
    total = 0.0
    for r, i in zip(re, im):
        total += r * r + i * i
    return total


def born_marginal(state: TwoQubitState, setting: BlochSetting, outcome: int) -> float:
    """Probability of `outcome` when the setting's party measures `state`."""
    return min(_squared_norm(*_project(state, setting, outcome)), 1.0)


def _normalize(re: list, im: list, weight: float) -> list[complex]:
    """(re + i im) / sqrt(weight), phase fixed, part by part as `flash._normalize` does."""
    scale = 1.0 / math.sqrt(weight)
    re, im = [x * scale for x in re], [y * scale for y in im]
    c, s = _phase(re, im)
    return [complex(x * c + y * s, y * c - x * s) for x, y in zip(re, im)]


def collapse(state: TwoQubitState, setting: BlochSetting, outcome: int) -> TwoQubitState:
    """Post-measurement state after the setting's party observed `outcome`."""
    re, im = _project(state, setting, outcome)
    weight = _squared_norm(re, im)
    if weight <= _ZERO_BRANCH:
        raise ImpossibleOutcomeError(
            f"outcome {outcome:+d} along {setting.xyz} has zero probability"
        )
    return TwoQubitState(_normalize(re, im, weight))


class JointDistribution(Frozen, eq=True):
    """P(alpha, beta) for one setting pair; values[i][j] with index 0 <-> +1."""

    values: tuple[tuple[float, float], tuple[float, float]]

    def __init__(self, probs) -> None:
        p = _nested(probs, (2, 2), "joint distribution")
        _check_tables((p,), ATOL, "joint probabilities")
        vars(self).update(values=p)

    probs = cached_property(lambda self: _frozen(self.values))

    def prob(self, alpha: int, beta: int) -> float:
        return self.values[outcome_index(alpha)][outcome_index(beta)]

    def correlator(self) -> float:
        """E = sum over outcomes of alpha * beta * P(alpha, beta)."""
        return correlation(self.values)


def joint_distribution(
    state: TwoQubitState,
    a: BlochSetting,
    b: BlochSetting,
    ordering: Chronology | str = Chronology.AB,
) -> JointDistribution:
    """Joint outcome distribution computed sequentially in the given order.

    `ordering` AB (or "AB") measures party A first, BA party B first. The two
    orderings give identical distributions (the projectors act on distinct
    factors); the sequential construction keeps that a checkable fact rather
    than an assumption.
    """
    order = Chronology(ordering)
    if a.party is not Party.A:
        raise ValueError("setting `a` must be tagged for party A")
    if b.party is not Party.B:
        raise ValueError("setting `b` must be tagged for party B")

    first, second = (a, b) if order is Chronology.AB else (b, a)
    probs = [[0.0, 0.0], [0.0, 0.0]]  # [first outcome][second outcome]
    for i, first_outcome in enumerate(OUTCOMES):
        p_first = born_marginal(state, first, first_outcome)
        if p_first <= _SKIP_BRANCH:  # collapse would reject it as numerically impossible
            continue
        post = collapse(state, first, first_outcome)
        for j, second_outcome in enumerate(OUTCOMES):
            probs[i][j] = p_first * born_marginal(post, second, second_outcome)
    return JointDistribution(probs if order is Chronology.AB else list(zip(*probs)))


def chsh_value(
    state: TwoQubitState,
    a: BlochSetting,
    a2: BlochSetting,
    b: BlochSetting,
    b2: BlochSetting,
) -> float:
    """E(a,b) + E(a,b2) + E(a2,b) - E(a2,b2); at most 2 for any local model."""
    e = [[correlation(t) for t in row] for row in exact_table(state, (a, a2), (b, b2)).values]
    return e[0][0] + e[0][1] + e[1][0] - e[1][1]


class CorrelationTable(Frozen):
    """Joint distributions over a grid of setting pairs.

    `values[i][j]` (as an array, `cells[i, j]`) is the (2, 2) outcome table for
    A-setting i and B-setting j. Empirical tables carry the trial count, and from
    it per-cell standard errors (an array); exact tables leave both as None.
    """

    settings_a: tuple[BlochSetting, ...]
    settings_b: tuple[BlochSetting, ...]
    values: tuple
    trials: int | None = None

    def __init__(self, settings_a, settings_b, cells, trials=None) -> None:
        settings_a, settings_b = tuple(settings_a), tuple(settings_b)
        values = _nested(cells, (len(settings_a), len(settings_b), 2, 2), "cells")
        _check_tables((t for row in values for t in row), 1e-9, "each setting pair's probabilities")
        vars(self).update(settings_a=settings_a, settings_b=settings_b, values=values,
                          trials=trials)

    cells = cached_property(lambda self: _frozen(self.values).reshape(*self.shape, 2, 2))

    @cached_property
    def stderr(self):
        import numpy as np

        if self.trials is not None:
            return _frozen(np.sqrt(self.cells * (1.0 - self.cells) / self.trials))

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.settings_a), len(self.settings_b)

    def correlator(self, i: int, j: int) -> float:
        return correlation(self.values[i][j])

    def no_signaling_defect(self) -> float:
        """Largest variation of one party's marginal across the other's settings."""
        return signaling_defect(self.values)

    def total_variation(self, other: "CorrelationTable"):
        """Per setting pair: half the L1 distance between outcome tables, as an array."""
        if self.shape != other.shape:
            raise ValueError("tables cover different setting grids")
        return 0.5 * abs(self.cells - other.cells).sum(axis=(2, 3))


def exact_table(
    state: TwoQubitState,
    settings_a,
    settings_b,
    ordering: Chronology | str = Chronology.AB,
) -> CorrelationTable:
    """Exact joint distributions for every setting pair, computed sequentially."""
    ordering, settings_a, settings_b = Chronology(ordering), tuple(settings_a), tuple(settings_b)
    cells = [[joint_distribution(state, a, b, ordering).values for b in settings_b]
             for a in settings_a]
    return CorrelationTable(settings_a, settings_b, cells)
