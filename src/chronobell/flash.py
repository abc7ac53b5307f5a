"""Toy spontaneous-localization process on a periodic grid.

A "hit" multiplies one particle's wavefunction by a Gaussian column of a
`HitKernel` and renormalizes; the hit's (time, site, particle) triple is the
flash. Hit centers are Born-weighted, hit times are a Poisson stream, and
every draw comes from a lambda stream, so whole histories replay exactly.

The same distribution/realization split as in the measurement modules shows
up here: for two particles the exact joint distribution of (first hit on
particle 1, first hit on particle 2) does not depend on which particle is
hit first, but the realized pair of hit locations drawn from one shared
lambda substream does.

Deliberate discretization choices, none of them physical claims: periodic
boundary with per-column renormalization (makes hit-center probabilities sum
to 1 exactly on a finite grid), and no wave evolution between hits - the
point is hit-order covariance, not dynamics. Defaults (16 sites, width 2,
rate 1, duration 4) keep exact oracles cheap while still localizing visibly.

Ensembles run through `flash_batches`, which advances the runs of each chunk
of lambda words in lockstep, keeps nothing across chunks, and gives each run
the flashes of `run_flash_process` on its substream. That reference run is
built from the single-hit rules: `sample_hit_center`, then `apply_hit`.
The batch keeps no amplitude grid per run. Because hits act diagonally on
separate tensor factors and nothing evolves between hits, a run's density
is exactly the initial one times a real weight vector per particle (the
product of that particle's squared kernel rows). Waiting times are computed
word by word with `math.log1p`, as in the scalar run: `np.log1p` is off by
one ulp on some inputs, and the history file prints times with `repr`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ImpossibleFlashError, InvalidStateError, StreamExhaustedError
from .lambdafile import LambdaStream, words_to_reals
from .quantum import ATOL, _fix_global_phase, _readonly

_ZERO_CENTER = 1e-24

DEFAULT_SITES = 16
DEFAULT_WIDTH = 2.0
DEFAULT_RATE = 1.0
DEFAULT_DURATION = 4.0

MAX_EXACT_SITES = 32  # largest grid ordering_invariance_exact accepts
MIN_FLASH_BLOCK = 256  # words per run at default parameters; keeps their layout
OVERRUN_PROBABILITY = 1e-12  # per run, that its hits need more words than its block
FORMAT_SLICE = 4096  # history lines FlashEnsemble.history_bytes formats at a time


@dataclass(frozen=True, eq=False)
class HitKernel:
    """Localization weights G[center, site] on a periodic grid.

    Columns are rescaled so sum_center G[center, site]**2 == 1 at every site,
    which makes hit-center probabilities of any normalized state sum to 1.
    """

    weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError(f"kernel must be square, got shape {w.shape}")
        completeness = (w**2).sum(axis=0)
        if np.any(np.abs(completeness - 1.0) > ATOL):
            raise ValueError("kernel columns must satisfy sum of squares == 1")
        object.__setattr__(self, "weights", _readonly(w))

    @property
    def n_sites(self) -> int:
        return self.weights.shape[0]

    def squared(self) -> np.ndarray:
        """G**2, the per-site hit-center probabilities; columns sum to 1."""
        return self.weights**2


def make_hit_kernel(n_sites: int, width: float) -> HitKernel:
    """Gaussian hit kernel with periodic wraparound, columns renormalized."""
    if n_sites < 2:
        raise ValueError(f"need at least 2 sites, got {n_sites}")
    if width <= 0.0:
        raise ValueError(f"localization width must be positive, got {width!r}")
    idx = np.arange(n_sites)
    dist = np.abs(idx[:, None] - idx[None, :])
    dist = np.minimum(dist, n_sites - dist)
    raw = np.exp(-(dist**2) / (4.0 * width**2))
    column_norms = np.sqrt((raw**2).sum(axis=0))
    return HitKernel(raw / column_norms[None, :])


@dataclass(frozen=True, eq=False)
class GridWavefunction:
    """Complex amplitudes over N sites (one particle) or N x N (two particles)."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.ndim not in (1, 2):
            raise InvalidStateError("wavefunction must be 1-D or 2-D")
        if amps.ndim == 2 and amps.shape[0] != amps.shape[1]:
            raise InvalidStateError("two-particle grid must be square")
        if not np.all(np.isfinite(amps)):
            raise InvalidStateError("amplitudes must be finite")
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > ATOL:
            raise InvalidStateError(f"wavefunction must be normalized, got norm {norm!r}")
        object.__setattr__(self, "amplitudes", _readonly(amps))

    @property
    def n_particles(self) -> int:
        return self.amplitudes.ndim

    @property
    def n_sites(self) -> int:
        return self.amplitudes.shape[0]

    def site_probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


def make_localized(n_sites: int, site: int) -> GridWavefunction:
    amps = np.zeros(n_sites, dtype=complex)
    amps[site] = 1.0
    return GridWavefunction(amps)


def make_uniform(n_sites: int) -> GridWavefunction:
    return GridWavefunction(np.full(n_sites, 1.0 / math.sqrt(n_sites), dtype=complex))


def make_entangled_pair(n_sites: int, site_j: int, site_k: int) -> GridWavefunction:
    """(|j,k> - |k,j>)/sqrt(2): the grid analog of the two-qubit singlet."""
    if site_j == site_k:
        raise ValueError("the two sites must differ")
    amps = np.zeros((n_sites, n_sites), dtype=complex)
    amps[site_j, site_k] = 1.0 / math.sqrt(2.0)
    amps[site_k, site_j] = -1.0 / math.sqrt(2.0)
    return GridWavefunction(amps)


def _check_particle(psi: GridWavefunction, particle: int) -> None:
    if not 0 <= particle < psi.n_particles:
        raise ValueError(
            f"particle must be in 0..{psi.n_particles - 1}, got {particle}"
        )


def flash_distribution(
    psi: GridWavefunction, kernel: HitKernel, particle: int = 0
) -> np.ndarray:
    """P(center) = squared norm of the hit-damped state, summing to 1."""
    _check_particle(psi, particle)
    if kernel.n_sites != psi.n_sites:
        raise ValueError("kernel and wavefunction grids differ")
    site_probs = psi.site_probabilities()
    if psi.n_particles == 2:
        site_probs = site_probs.sum(axis=1 - particle)
    return kernel.squared() @ site_probs


def apply_hit(
    psi: GridWavefunction, kernel: HitKernel, particle: int, center: int
) -> GridWavefunction:
    """Damp the chosen particle by the kernel column at `center`, renormalize."""
    _check_particle(psi, particle)
    column = kernel.weights[center]
    if psi.n_particles == 1:
        damped = column * psi.amplitudes
    elif particle == 0:
        damped = column[:, None] * psi.amplitudes
    else:
        damped = column[None, :] * psi.amplitudes
    weight = float(np.linalg.norm(damped)) ** 2
    if weight <= _ZERO_CENTER:
        raise ImpossibleFlashError(
            f"hit at site {center} on particle {particle} has zero probability"
        )
    return GridWavefunction(_fix_global_phase(damped / math.sqrt(weight)))


def sample_hit_center(
    psi: GridWavefunction, kernel: HitKernel, particle: int, lam: float
) -> int:
    """Inverse-CDF draw from the flash distribution: smallest x with CDF(x) > lam."""
    if not 0.0 <= lam < 1.0:
        raise ValueError(f"lambda value must lie in [0, 1), got {lam!r}")
    cdf = np.cumsum(flash_distribution(psi, kernel, particle))
    index = int(np.searchsorted(cdf, lam, side="right"))
    return min(index, kernel.n_sites - 1)


@dataclass(frozen=True)
class FlashRecord:
    """One flash: when, where, and which particle."""

    time: float
    site: int
    particle: int


@dataclass(eq=False)
class FlashHistory:
    """Replayable run: the flashes in time order plus the final state."""

    records: list[FlashRecord] = field(default_factory=list)
    final_state: GridWavefunction | None = None

    def __len__(self) -> int:
        return len(self.records)


def _check_process(
    psi0: GridWavefunction, kernel: HitKernel, rate: float, duration: float
) -> None:
    if rate <= 0.0:
        raise ValueError(f"hit rate must be positive, got {rate!r}")
    if duration <= 0.0:
        raise ValueError(f"duration must be positive, got {duration!r}")
    if kernel.n_sites != psi0.n_sites:
        raise ValueError("kernel and wavefunction grids differ")


def run_flash_process(
    psi0: GridWavefunction,
    kernel: HitKernel,
    rate: float,
    duration: float,
    stream: LambdaStream,
) -> FlashHistory:
    """Poisson-timed hit process, fully determined by the lambda stream.

    Per hit the stream supplies three words: the exponential waiting time of
    the total-rate process, the uniform particle choice, and the inverse-CDF
    hit center. The final waiting-time draw that overshoots `duration` is
    still consumed. A hit center of zero weight raises `ImpossibleFlashError`.
    """
    _check_process(psi0, kernel, rate, duration)
    n_particles = psi0.n_particles
    total_rate = rate * n_particles

    psi = psi0
    records: list[FlashRecord] = []
    now = 0.0
    while True:
        u_time = stream.next_real()
        now += -math.log1p(-u_time) / total_rate
        if now > duration:
            break
        u_particle = stream.next_real()
        particle = min(int(u_particle * n_particles), n_particles - 1)
        center = sample_hit_center(psi, kernel, particle, stream.next_real())
        psi = apply_hit(psi, kernel, particle, center)
        records.append(FlashRecord(now, center, particle))
    return FlashHistory(records, psi)


@dataclass(frozen=True, eq=False)
class FlashEnsemble:
    """The flashes of many runs as flat arrays in (run, time) order, plus hits per run."""

    run: np.ndarray
    time: np.ndarray
    particle: np.ndarray
    site: np.ndarray
    hit_counts: np.ndarray

    def first_sites(self) -> np.ndarray:
        """The site of each run's first flash, for the runs that have one."""
        starts = np.cumsum(self.hit_counts) - self.hit_counts
        return self.site[starts[self.hit_counts > 0]]

    def history_bytes(self) -> bytearray:
        """History file: one ``run, time, particle, site`` line per flash, tab-separated.

        The time is printed with `repr`, so it replays exactly; the lines of
        consecutive batches concatenate to the history of their union. No
        Python object per flash outlives its slice of FORMAT_SLICE lines.
        """
        history = bytearray()
        for lo in range(0, self.run.size, FORMAT_SLICE):
            rows = slice(lo, lo + FORMAT_SLICE)
            columns = (c[rows].tolist() for c in (self.run, self.time, self.particle, self.site))
            history += "".join(f"{r}\t{t!r}\t{p}\t{s}\n" for r, t, p, s in zip(*columns)).encode()
        return history


def run_flash_processes(
    psi0: GridWavefunction,
    kernel: HitKernel,
    rate: float,
    duration: float,
    stream: LambdaStream,
    runs: int,
    block: int,
) -> FlashEnsemble:
    """Runs 0..runs-1, each equal to ``run_flash_process(..., stream.split(run, block))``.

    Like the scalar runs taken in order, raises `CapacityError` up front
    when ``runs * block`` exceeds the stream, and `StreamExhaustedError`
    naming the first run whose hits overrun its block. The result lists
    flashes in (run, time) order.
    """
    _check_process(psi0, kernel, rate, duration)
    if runs < 1:
        raise ValueError(f"runs must be at least 1, got {runs}")
    batches = flash_batches(psi0, kernel, rate, duration, stream.blocks(runs, block), stream.label)
    columns = zip(*(vars(batch).values() for batch in batches))
    return FlashEnsemble(*(np.concatenate(column) for column in columns))


def flash_batches(psi0, kernel, rate, duration, chunks, label="root"):
    """One `FlashEnsemble` per (runs, block) chunk of lambda words, run ids counted on.

    Row r of the chunks is the block of run r. The runs of a chunk advance
    together, one hit per step, over those still inside `duration`. At step
    k run r reads words 3k (waiting time), 3k+1 (particle) and 3k+2 (center)
    of its row. Times and particles come from the same floating-point
    operations as in the scalar run. Each particle's state is a weight
    vector w (see the module docstring), so with ``P0 = |psi0|**2`` the
    marginals are ``w0 * (P0 @ w1)`` and ``w1 * (P0.T @ w0)``; they sum in
    another order than the scalar run's, so a center could differ only where
    a word falls within rounding of a step of the CDF. A run that overruns
    its row raises `StreamExhaustedError` naming ``label[r]``.
    """
    _check_process(psi0, kernel, rate, duration)
    first_run = 0
    for words in chunks:
        yield _run_chunk(psi0, kernel, rate, duration, words, label, first_run)
        first_run += len(words)


def _run_chunk(psi0, kernel, rate, duration, words, label, first_run):
    """The `FlashEnsemble` of the runs whose blocks are `words`."""
    n_particles = psi0.n_particles
    total_rate = rate * n_particles
    kernel_sq = kernel.squared()
    density = psi0.site_probabilities()
    runs, block = words.shape

    def draw(offset: int, active: np.ndarray) -> np.ndarray:
        if offset >= block:
            name = f"{label}[{first_run + active[0]}]"
            raise StreamExhaustedError(f"stream {name!r} exhausted after {block} words")
        return words_to_reals(words[active, offset])

    weights = np.ones((n_particles, runs, psi0.n_sites))
    now = np.zeros(runs)
    active = np.arange(runs)
    no_runs = np.zeros(0, dtype=np.intp)
    steps = [(no_runs, np.zeros(0), no_runs, no_runs)]  # typed even when no run is hit
    offset = 0
    while active.size:
        now[active] += [-math.log1p(-u) / total_rate for u in draw(offset, active).tolist()]
        active = active[now[active] <= duration]
        if not active.size:
            break
        particle = np.minimum(
            (draw(offset + 1, active) * n_particles).astype(np.intp), n_particles - 1
        )

        w = weights[:, active]
        if n_particles == 1:
            marginal = density * w[0]
        else:
            marginal = np.where(
                particle[:, None] == 0,
                w[0] * np.einsum("ij,rj->ri", density, w[1]),
                w[1] * np.einsum("ij,ri->rj", density, w[0]),
            )
        marginal /= marginal.sum(axis=1, keepdims=True)
        cdf = np.cumsum(np.einsum("cj,rj->rc", kernel_sq, marginal), axis=1)
        u_center = draw(offset + 2, active)
        center = np.minimum((cdf <= u_center[:, None]).sum(axis=1), kernel.n_sites - 1)

        hit = weights[particle, active] * kernel_sq[center]
        weights[particle, active] = hit / hit.sum(axis=1, keepdims=True)
        steps.append((active, now[active], particle, center))
        offset += 3

    index, time, particle, site = (np.concatenate(column) for column in zip(*steps))
    order = np.argsort(index, kind="stable")
    columns = (first_run + index, time, particle, site)
    hit_counts = np.bincount(index, minlength=runs)
    return FlashEnsemble(*(column[order] for column in columns), hit_counts)


def flash_block(mean_hits: float) -> int:
    """Words per run such that a run needs more with probability <= OVERRUN_PROBABILITY.

    A run reads 3 words per hit plus the overshooting waiting time, and its
    hit count N is Poisson with mean `mean_hits`. The Chernoff bound
    ``P(N >= k) <= exp(-mu) * (e * mu / k)**k`` (k > mu) decreases in k; the
    smallest k that brings it to the tail gives ``3 * k + 1`` words, never
    fewer than MIN_FLASH_BLOCK.
    """
    if not 0.0 < mean_hits < math.inf:
        raise ValueError(f"mean hit count must be positive and finite, got {mean_hits!r}")
    log_tail = math.log(OVERRUN_PROBABILITY)

    def within(k: int) -> bool:
        return -mean_hits + k * (1.0 + math.log(mean_hits / k)) <= log_tail

    # k >= e**2 * mu makes the exponent at most -mu - k, so hi is within; the
    # bound holds only for k > mu, and every k tried lies above lo = floor(mu)
    lo, hi = math.floor(mean_hits), math.ceil(max(math.e**2 * mean_hits, -log_tail)) + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if within(mid):
            hi = mid
        else:
            lo = mid
    return max(MIN_FLASH_BLOCK, 3 * hi + 1)


@dataclass(frozen=True, eq=False)
class OrderingReport:
    """Exact joint first-hit distributions under both hit orders, compared."""

    max_diff: float
    tolerance: float
    joint_first_then_second: np.ndarray
    joint_second_then_first: np.ndarray

    @property
    def passed(self) -> bool:
        return self.max_diff <= self.tolerance


def ordering_invariance_exact(
    psi: GridWavefunction, kernel: HitKernel, tol: float = 1e-12
) -> OrderingReport:
    """Joint law of one hit per particle, computed sequentially in both orders.

    Order "1 then 2" builds P(x1) * P(x2 | hit at x1 applied); the reversed
    order mirrors it. The hit operators act diagonally on distinct tensor
    factors, so the two joints agree - this routine checks that fact through
    the actual sequential machinery rather than assuming it.
    """
    if psi.n_particles != 2:
        raise ValueError("ordering check needs a two-particle wavefunction")
    if psi.n_sites > MAX_EXACT_SITES:
        raise ValueError(f"exact check is limited to grids of at most {MAX_EXACT_SITES} sites")

    def sequential_joint(first_particle: int) -> np.ndarray:
        second_particle = 1 - first_particle
        n = psi.n_sites
        joint = np.zeros((n, n))
        first_dist = flash_distribution(psi, kernel, first_particle)
        for x_first in range(n):
            p_first = float(first_dist[x_first])
            # skip centers apply_hit would reject as numerically impossible
            if p_first <= 1e-20:
                continue
            post = apply_hit(psi, kernel, first_particle, x_first)
            joint[x_first] = p_first * flash_distribution(post, kernel, second_particle)
        return joint

    joint_12 = sequential_joint(0)
    joint_21 = sequential_joint(1)  # indexed [x2, x1]
    max_diff = float(np.max(np.abs(joint_12 - joint_21.T)))
    return OrderingReport(max_diff, tol, joint_12, joint_21)


def sample_flash_pair(
    psi: GridWavefunction,
    kernel: HitKernel,
    first_particle: int,
    lam1: float,
    lam2: float,
) -> tuple[int, int]:
    """Realized (site on particle 0, site on particle 1) for one hit order.

    Uses the same two-draw inverse-CDF rule as the measurement trials: the
    first word picks the first particle's hit center, the second word picks
    the other particle's center from the post-hit state.
    """
    if psi.n_particles != 2:
        raise ValueError("flash pairs need a two-particle wavefunction")
    x_first = sample_hit_center(psi, kernel, first_particle, lam1)
    post = apply_hit(psi, kernel, first_particle, x_first)
    x_second = sample_hit_center(post, kernel, 1 - first_particle, lam2)
    if first_particle == 0:
        return (x_first, x_second)
    return (x_second, x_first)
