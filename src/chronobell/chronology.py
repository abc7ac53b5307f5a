"""Frame-ordered sampling of spacelike-separated two-qubit measurements.

A `Chronology` (defined in `quantum`, re-exported here) says which party's
measurement is treated as first. For each time order the outcome pair is
produced by the same two-step rule: the first party's result is an
inverse-CDF function of its marginal and one stored lambda value, the second
party's result is an inverse-CDF function of the collapsed conditional and a
second lambda value. Outcomes map as ``+1 if lambda < P(+) else -1``, with
the chronologically first party always consuming the first word of the
trial's substream, so both orders run on identical lambda budgets.

Two facts fall out and are quantified here: the exact outcome distributions
do not depend on the chronology (compared on `quantum.exact_table` under both
orders), while the realized outcome pairs produced from one shared lambda file
generally do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ImpossibleOutcomeError
from .lambdafile import DEFAULT_BLOCK, LambdaStream, words_to_reals
from .quantum import (
    OUTCOMES,
    BlochSetting,
    Chronology,
    CorrelationTable,
    TwoQubitState,
    born_marginal,
    collapse,
    exact_table,
)


@dataclass(frozen=True)
class TrialResult:
    """One simulated run: the time order, the outcome pair, and the lambdas used."""

    chronology: Chronology
    alpha: int
    beta: int
    lambdas: tuple[float, float]
    index: int = 0

    def __post_init__(self) -> None:
        if self.alpha not in OUTCOMES or self.beta not in OUTCOMES:
            raise ValueError("outcomes must be +1 or -1")
        if len(self.lambdas) != 2:
            raise ValueError("a trial consumes exactly two lambda values")

    @property
    def pair(self) -> tuple[int, int]:
        return (self.alpha, self.beta)


def _check_lambda(lam: float) -> None:
    if not 0.0 <= lam < 1.0:
        raise ValueError(f"lambda value must lie in [0, 1), got {lam!r}")


def sample_first(state: TwoQubitState, setting: BlochSetting, lam: float) -> int:
    """Outcome of the chronologically first measurement: +1 iff lam < P(+)."""
    _check_lambda(lam)
    return 1 if lam < born_marginal(state, setting, 1) else -1


def sample_second(
    state: TwoQubitState,
    first_setting: BlochSetting,
    first_outcome: int,
    second_setting: BlochSetting,
    lam: float,
) -> int:
    """Outcome of the second measurement, conditioned on the first by collapse."""
    _check_lambda(lam)
    post = collapse(state, first_setting, first_outcome)
    return 1 if lam < born_marginal(post, second_setting, 1) else -1


def run_trial(
    state: TwoQubitState,
    a: BlochSetting,
    b: BlochSetting,
    chronology: Chronology | str,
    stream: LambdaStream,
    index: int = 0,
) -> TrialResult:
    """One trial under the given chronology, consuming two stream words."""
    chronology = Chronology(chronology)
    lam1 = stream.next_real()
    if chronology is Chronology.AB:
        alpha = sample_first(state, a, lam1)
        lam2 = stream.next_real()
        beta = sample_second(state, a, alpha, b, lam2)
    else:
        beta = sample_first(state, b, lam1)
        lam2 = stream.next_real()
        alpha = sample_second(state, b, beta, a, lam2)
    return TrialResult(chronology, alpha, beta, (lam1, lam2), index)


def _conditional_thresholds(
    state: TwoQubitState, first: BlochSetting, second: BlochSetting
) -> list[float]:
    """P(first=+), then P(second=+ | first=+) and P(second=+ | first=-), nan if impossible."""
    thresholds = [born_marginal(state, first, 1)]
    for outcome in OUTCOMES:
        try:
            thresholds.append(born_marginal(collapse(state, first, outcome), second, 1))
        except ImpossibleOutcomeError:
            thresholds.append(math.nan)
    return thresholds


def _outcome_codes(thresholds: np.ndarray, lams: np.ndarray, chronology: Chronology) -> np.ndarray:
    """Code ``2 * (alpha == -1) + (beta == -1)`` of each row of (lam1, lam2).

    Row r is sampled by the run_trial rule with thresholds[r] = (P(first=+),
    P(second=+ | first=+), P(second=+ | first=-)); the tests pin the two
    paths to each other row by row.
    """
    p_first, q_plus, q_minus = thresholds.T
    first_minus = ~(lams[:, 0] < p_first)
    second_minus = ~(lams[:, 1] < np.where(first_minus, q_minus, q_plus))
    if chronology is Chronology.BA:
        first_minus, second_minus = second_minus, first_minus
    return 2 * first_minus + second_minus


def covariance_pass(
    state: TwoQubitState, settings_a, settings_b, trials: int, chunks
) -> tuple[dict[Chronology, CorrelationTable], np.ndarray]:
    """Empirical tables per chronology and the realized divergence, in one pass.

    `chunks` yields (rows, block) lambda words, block >= 2. Row r is trial
    ``r % trials`` of setting pair ``r // trials`` (pairs in row-major order)
    and reads the first two words of its row. Both chronologies replay each
    row, so `divergence[i, j]` is the share of pair (i, j)'s trials whose
    realized (alpha, beta) differ between AB and BA: purely the time order,
    never the randomness.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    settings_a, settings_b = tuple(settings_a), tuple(settings_b)
    pairs = [(a, b) for a in settings_a for b in settings_b]
    thresholds = {
        Chronology.AB: np.array([_conditional_thresholds(state, a, b) for a, b in pairs]),
        Chronology.BA: np.array([_conditional_thresholds(state, b, a) for a, b in pairs]),
    }
    counts = {chronology: np.zeros(4 * len(pairs), dtype=np.int64) for chronology in Chronology}
    diverging = np.zeros(len(pairs), dtype=np.int64)
    row = 0
    for words in chunks:
        if words.shape[1] < 2:
            raise ValueError("a trial reads 2 lambda words, blocks must hold at least 2")
        pair = (row + np.arange(len(words))) // trials
        row += len(words)
        lams = words_to_reals(words[:, :2])
        codes = {c: _outcome_codes(thresholds[c][pair], lams, c) for c in Chronology}
        for chronology, code in codes.items():
            counts[chronology] += np.bincount(4 * pair + code, minlength=4 * len(pairs))
        differs = codes[Chronology.AB] != codes[Chronology.BA]
        diverging += np.bincount(pair[differs], minlength=len(pairs))
    shape = (len(settings_a), len(settings_b))
    tables = {}
    for chronology, count in counts.items():
        freqs = count.reshape(*shape, 2, 2) / trials
        stderr = np.sqrt(freqs * (1.0 - freqs) / trials)
        tables[chronology] = CorrelationTable(settings_a, settings_b, freqs, stderr, trials)
    return tables, (diverging / trials).reshape(shape)


def estimate_table(
    state: TwoQubitState,
    settings_a,
    settings_b,
    chronology: Chronology | str,
    trials: int,
    stream: LambdaStream,
    block: int = DEFAULT_BLOCK,
) -> CorrelationTable:
    """Empirical outcome tables from `trials` runs per setting pair.

    Trial t of setting pair k draws from substream ``k * trials + t`` (the
    first two of words ``[(k*trials + t)*block, (k*trials + t + 1)*block)`` of
    the stream's range), so the estimate is a pure function of the file and is
    independent of execution order.
    """
    chronology = Chronology(chronology)
    settings_a, settings_b = tuple(settings_a), tuple(settings_b)
    chunks = stream.blocks(len(settings_a) * len(settings_b) * trials, block)
    return covariance_pass(state, settings_a, settings_b, trials, chunks)[0][chronology]


@dataclass(frozen=True, eq=False)
class CovarianceReport:
    """Chronology comparison: exact distribution agreement, realized divergence.

    `distribution_max_diff[i, j]` is the largest entrywise gap between the
    exact AB and BA joint distributions for setting pair (i, j); None if the
    exact check was not run. `divergence_fraction[i, j]` is the share of
    trials whose realized (alpha, beta) pairs differed between chronologies
    run on the same substream; None if no trials were run.
    """

    settings_a: tuple[BlochSetting, ...]
    settings_b: tuple[BlochSetting, ...]
    distribution_max_diff: np.ndarray | None
    divergence_fraction: np.ndarray | None
    trials: int
    tolerance: float

    @property
    def max_distribution_diff(self) -> float | None:
        if self.distribution_max_diff is None:
            return None
        return float(self.distribution_max_diff.max())

    @property
    def distribution_pass(self) -> bool | None:
        worst = self.max_distribution_diff
        if worst is None:
            return None
        return worst <= self.tolerance

    @property
    def max_divergence(self) -> float | None:
        if self.divergence_fraction is None:
            return None
        return float(self.divergence_fraction.max())

    def to_dict(self) -> dict:
        out: dict = {
            "settings_a": [s.vector.tolist() for s in self.settings_a],
            "settings_b": [s.vector.tolist() for s in self.settings_b],
            "trials": self.trials,
        }
        if self.distribution_max_diff is not None:
            out["distribution"] = {
                "max_diff_per_pair": self.distribution_max_diff.tolist(),
                "max_diff": self.max_distribution_diff,
                "tolerance": self.tolerance,
                "pass": self.distribution_pass,
            }
        if self.divergence_fraction is not None:
            out["realization"] = {
                "divergence_per_pair": self.divergence_fraction.tolist(),
                "max_divergence": self.max_divergence,
            }
        return out


def distribution_covariance_check(
    state: TwoQubitState, settings_a, settings_b, tol: float = 1e-12
) -> CovarianceReport:
    """Exact joint distributions under both chronologies, compared entrywise."""
    settings_a, settings_b = tuple(settings_a), tuple(settings_b)
    ab, ba = (exact_table(state, settings_a, settings_b, c).cells for c in Chronology)
    diffs = np.max(np.abs(ab - ba), axis=(2, 3))
    return CovarianceReport(settings_a, settings_b, diffs, None, 0, tol)


def realization_divergence(
    state: TwoQubitState,
    settings_a,
    settings_b,
    trials: int,
    stream: LambdaStream,
    block: int = DEFAULT_BLOCK,
    tol: float = 1e-12,
) -> CovarianceReport:
    """Share of trials whose realized outcome pairs differ between chronologies.

    Both chronologies replay the same substream per trial, laid out as in
    `estimate_table`, so any difference is purely the time order, never the
    randomness.
    """
    settings_a, settings_b = tuple(settings_a), tuple(settings_b)
    chunks = stream.blocks(len(settings_a) * len(settings_b) * trials, block)
    _, fractions = covariance_pass(state, settings_a, settings_b, trials, chunks)
    return CovarianceReport(settings_a, settings_b, None, fractions, trials, tol)
