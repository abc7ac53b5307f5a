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
- the CHSH combination is ``E(a,b) + E(a,b2) + E(a2,b) - E(a2,b2)``.

All functions are pure and every value type freezes its arrays after
construction, so concurrent use needs no coordination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ImpossibleOutcomeError, InvalidStateError

ATOL = 1e-12
_ZERO_BRANCH = 1e-24
_PHASE_CUTOFF = 1e-12

OUTCOMES = (1, -1)

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_ID2 = np.eye(2, dtype=complex)

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
    if outcome == 1:
        return 0
    if outcome == -1:
        return 1
    raise ValueError(f"outcome must be +1 or -1, got {outcome!r}")


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


def correlators(cells: np.ndarray) -> np.ndarray:
    """E = sum over outcomes of alpha * beta * P, over the last two (outcome) axes."""
    return cells[..., 0, 0] - cells[..., 0, 1] - cells[..., 1, 0] + cells[..., 1, 1]


def signaling_defect(cells: np.ndarray) -> float:
    """Largest variation of one party's marginal across the other's settings, cells[a, b]."""
    marg_a = cells.sum(axis=3)  # (nA, nB, 2): P(alpha | a, b)
    marg_b = cells.sum(axis=2)  # (nA, nB, 2): P(beta | a, b)
    defect_a = (marg_a.max(axis=1) - marg_a.min(axis=1)).max() if marg_a.size else 0.0
    defect_b = (marg_b.max(axis=0) - marg_b.min(axis=0)).max() if marg_b.size else 0.0
    return float(max(defect_a, defect_b))


@dataclass(frozen=True)
class BlochSetting:
    """A measurement direction (unit 3-vector) tagged with the measuring party.

    Zero or non-unit vectors are rejected outright rather than normalized;
    silent normalization would hide caller bugs.
    """

    vector: np.ndarray
    party: Party

    def __post_init__(self) -> None:
        v = np.asarray(self.vector, dtype=float)
        if v.shape != (3,):
            raise ValueError(f"setting direction must be a 3-vector, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("setting direction must be finite")
        norm = float(np.linalg.norm(v))
        if abs(norm - 1.0) > ATOL:
            raise ValueError(f"setting direction must be a unit vector, got norm {norm!r}")
        object.__setattr__(self, "vector", _readonly(v))
        object.__setattr__(self, "party", Party(self.party))

    @classmethod
    def from_angle(cls, degrees: float, party: Party | str) -> "BlochSetting":
        """Direction in the x-z plane at `degrees` from the z axis."""
        t = math.radians(degrees)
        return cls(np.array([math.sin(t), 0.0, math.cos(t)]), Party(party))

    def axis_operator(self) -> np.ndarray:
        """The 2x2 observable n.sigma for this direction."""
        nx, ny, nz = self.vector
        return nx * PAULI_X + ny * PAULI_Y + nz * PAULI_Z


@dataclass(frozen=True)
class TwoQubitState:
    """Pure state of two qubits: 4 complex amplitudes, unit norm within 1e-12."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (4,):
            raise InvalidStateError(f"state needs 4 amplitudes, got shape {amps.shape}")
        if not np.all(np.isfinite(amps)):
            raise InvalidStateError("state amplitudes must be finite")
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > ATOL:
            raise InvalidStateError(f"state must be normalized, got norm {norm!r}")
        object.__setattr__(self, "amplitudes", _readonly(amps))

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def make_singlet() -> TwoQubitState:
    """The maximally entangled fixture (|01> - |10>)/sqrt(2)."""
    inv = 1.0 / math.sqrt(2.0)
    return TwoQubitState(np.array([0.0, inv, -inv, 0.0], dtype=complex))


def make_product_state(qubit_a=(1.0, 0.0), qubit_b=(1.0, 0.0)) -> TwoQubitState:
    """Tensor product of two normalized single-qubit amplitude pairs."""
    a = np.asarray(qubit_a, dtype=complex)
    b = np.asarray(qubit_b, dtype=complex)
    if a.shape != (2,) or b.shape != (2,):
        raise InvalidStateError("each factor needs exactly 2 amplitudes")
    return TwoQubitState(np.kron(a, b))


def random_pure_state(rng: np.random.Generator) -> TwoQubitState:
    """Haar-ish random pure state (Gaussian amplitudes, normalized)."""
    amps = rng.standard_normal(4) + 1.0j * rng.standard_normal(4)
    return TwoQubitState(amps / np.linalg.norm(amps))


def random_setting(rng: np.random.Generator, party: Party | str) -> BlochSetting:
    """Uniformly random measurement direction on the sphere."""
    while True:
        v = rng.standard_normal(3)
        norm = np.linalg.norm(v)
        if norm > 1e-8:
            return BlochSetting(v / norm, Party(party))


def spin_projector(direction: np.ndarray, outcome: int) -> np.ndarray:
    """2x2 projector onto the `outcome` eigenspace of spin along `direction`."""
    outcome_index(outcome)
    nx, ny, nz = np.asarray(direction, dtype=float)
    return 0.5 * (_ID2 + outcome * (nx * PAULI_X + ny * PAULI_Y + nz * PAULI_Z))


def measurement_operator(setting: BlochSetting, outcome: int) -> np.ndarray:
    """4x4 projector acting on the setting's party, identity on the other."""
    p = spin_projector(setting.vector, outcome)
    if setting.party is Party.A:
        return np.kron(p, _ID2)
    return np.kron(_ID2, p)


def born_marginal(state: TwoQubitState, setting: BlochSetting, outcome: int) -> float:
    """Probability of `outcome` when the setting's party measures `state`."""
    amps = state.amplitudes
    op = measurement_operator(setting, outcome)
    p = float(np.real(np.vdot(amps, op @ amps)))
    return min(max(p, 0.0), 1.0)


def _fix_global_phase(amps: np.ndarray) -> np.ndarray:
    for value in amps.ravel():
        if abs(value) > _PHASE_CUTOFF:
            return amps * (value.conjugate() / abs(value))
    return amps


def collapse(state: TwoQubitState, setting: BlochSetting, outcome: int) -> TwoQubitState:
    """Post-measurement state after the setting's party observed `outcome`."""
    projected = measurement_operator(setting, outcome) @ state.amplitudes
    weight = float(np.real(np.vdot(projected, projected)))
    if weight <= _ZERO_BRANCH:
        raise ImpossibleOutcomeError(
            f"outcome {outcome:+d} along {setting.vector} has zero probability"
        )
    return TwoQubitState(_fix_global_phase(projected / math.sqrt(weight)))


@dataclass(frozen=True)
class JointDistribution:
    """P(alpha, beta) for one setting pair; probs[i, j] with index 0 <-> +1."""

    probs: np.ndarray

    def __post_init__(self) -> None:
        p = np.asarray(self.probs, dtype=float)
        if p.shape != (2, 2):
            raise ValueError(f"joint distribution needs shape (2, 2), got {p.shape}")
        if np.any(p < -ATOL) or np.any(p > 1.0 + ATOL):
            raise ValueError("joint probabilities must lie in [0, 1]")
        if abs(float(p.sum()) - 1.0) > ATOL:
            raise ValueError(f"joint probabilities must sum to 1, got {p.sum()!r}")
        object.__setattr__(self, "probs", _readonly(p))

    def prob(self, alpha: int, beta: int) -> float:
        return float(self.probs[outcome_index(alpha), outcome_index(beta)])

    def correlator(self) -> float:
        """E = sum over outcomes of alpha * beta * P(alpha, beta)."""
        return float(correlators(self.probs))

    def marginal(self, party: Party | str) -> np.ndarray:
        """(P(+), P(-)) for one party, the other summed out."""
        axis = 1 if Party(party) is Party.A else 0
        return self.probs.sum(axis=axis)


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
    probs = np.zeros((2, 2))  # [first outcome, second outcome]
    for i, first_outcome in enumerate(OUTCOMES):
        p_first = born_marginal(state, first, first_outcome)
        # skip branches collapse would reject as numerically impossible; the
        # cutoff sits well above collapse's own and the lost mass is far
        # below every tolerance in use
        if p_first <= 1e-20:
            continue
        post = collapse(state, first, first_outcome)
        for j, second_outcome in enumerate(OUTCOMES):
            probs[i, j] = p_first * born_marginal(post, second, second_outcome)
    return JointDistribution(probs if order is Chronology.AB else probs.T)


def chsh_value(
    state: TwoQubitState,
    a: BlochSetting,
    a2: BlochSetting,
    b: BlochSetting,
    b2: BlochSetting,
) -> float:
    """E(a,b) + E(a,b2) + E(a2,b) - E(a2,b2); at most 2 for any local model."""
    e = correlators(exact_table(state, (a, a2), (b, b2)).cells)
    return float(e[0, 0] + e[0, 1] + e[1, 0] - e[1, 1])


@dataclass(frozen=True, eq=False)
class CorrelationTable:
    """Joint distributions over a grid of setting pairs.

    `cells[i, j]` is the (2, 2) outcome table for A-setting i and B-setting j.
    Empirical tables carry per-cell standard errors and the trial count;
    exact tables leave both as None.
    """

    settings_a: tuple[BlochSetting, ...]
    settings_b: tuple[BlochSetting, ...]
    cells: np.ndarray
    stderr: np.ndarray | None = None
    trials: int | None = None

    def __post_init__(self) -> None:
        cells = np.asarray(self.cells, dtype=float)
        expected = (len(self.settings_a), len(self.settings_b), 2, 2)
        if cells.shape != expected:
            raise ValueError(f"cells must have shape {expected}, got {cells.shape}")
        sums = cells.sum(axis=(2, 3))
        if np.any(np.abs(sums - 1.0) > 1e-9):
            raise ValueError("each setting pair's probabilities must sum to 1")
        object.__setattr__(self, "settings_a", tuple(self.settings_a))
        object.__setattr__(self, "settings_b", tuple(self.settings_b))
        object.__setattr__(self, "cells", _readonly(cells))
        if self.stderr is not None:
            err = np.asarray(self.stderr, dtype=float)
            if err.shape != expected:
                raise ValueError("stderr must match cells' shape")
            object.__setattr__(self, "stderr", _readonly(err))

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.settings_a), len(self.settings_b)

    def correlator(self, i: int, j: int) -> float:
        return float(correlators(self.cells[i, j]))

    def no_signaling_defect(self) -> float:
        """Largest variation of one party's marginal across the other's settings."""
        return signaling_defect(self.cells)

    def max_abs_diff(self, other: "CorrelationTable") -> float:
        if self.cells.shape != other.cells.shape:
            raise ValueError("tables cover different setting grids")
        return float(np.max(np.abs(self.cells - other.cells)))

    def total_variation(self, other: "CorrelationTable") -> np.ndarray:
        """Per setting pair: half the L1 distance between outcome tables."""
        if self.cells.shape != other.cells.shape:
            raise ValueError("tables cover different setting grids")
        return 0.5 * np.abs(self.cells - other.cells).sum(axis=(2, 3))


def exact_table(
    state: TwoQubitState,
    settings_a,
    settings_b,
    ordering: Chronology | str = Chronology.AB,
) -> CorrelationTable:
    """Exact joint distributions for every setting pair, computed sequentially."""
    ordering = Chronology(ordering)
    settings_a = tuple(settings_a)
    settings_b = tuple(settings_b)
    cells = np.zeros((len(settings_a), len(settings_b), 2, 2))
    for i, a in enumerate(settings_a):
        for j, b in enumerate(settings_b):
            cells[i, j] = joint_distribution(state, a, b, ordering).probs
    return CorrelationTable(settings_a, settings_b, cells)
