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

Ensembles run through `flash_batches`, which keeps nothing across chunks of
lambda words and gives each run the flashes of `run_flash_process` on its
substream. That reference run is built from the single-hit rules:
`sample_hit_center`, then `apply_hit`. Hit times and particles depend on no
hit, so a chunk's are drawn first, and its raw words dropped before the hit
centers are stepped. A chunk is indexed only for the words its runs read, a
window of waiting times at a time, so a seeded chunk makes little else. The
batch keeps no amplitude grid per run. Because hits act diagonally on
separate tensor factors and nothing evolves between hits, a run's density is
exactly the initial one times the squared kernel rows of its hits: a
posterior over the S cells where the initial density is nonzero, which with
the flashes so far fixes the next flash's law (R. Tumulka, J. Stat. Phys.
125, 821 (2006)). A step costs O(S + n**2) per run on n sites: S is 2 for
`make_entangled_pair`, but n**2 for a dense pair, whose runs take 4 to 10
times as long on 16 to 32 sites. Waiting times are computed word by word
with `math.log1p`, as in the scalar run: `np.log1p` is off by one ulp on
some inputs, and the history file prints times with `repr`.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import ImpossibleFlashError, InvalidStateError, StreamExhaustedError
from .lambdafile import LambdaStream, check_real, words_to_reals
from .values import _SKIP_BRANCH, _ZERO_BRANCH, ATOL, MAX_EXACT_SITES, Frozen, _frozen, _phase

MIN_FLASH_BLOCK = 256  # words per run at default parameters; keeps their layout
MAX_CHUNK_WORDS = 1 << 24  # words per chunk of runs at most: 128 MiB, and 6-8 times that in use
CHUNK_RUNS = 256  # runs per chunk of lambda words, whatever their block
OVERRUN_PROBABILITY = 1e-12  # per run, that its hits need more words than its block
FORMAT_SLICE = 1024  # history lines FlashEnsemble.history_bytes formats at a time


def _normalize(re: np.ndarray, im: np.ndarray, weight: float) -> np.ndarray:
    """(re + i im) / sqrt(weight), phase fixed as `quantum.collapse` fixes it, as complex."""
    re, im = re * (1.0 / math.sqrt(weight)), im * (1.0 / math.sqrt(weight))
    lead = int(((re != 0.0) | (im != 0.0)).argmax())  # the entries before it are exact zeros
    c, s = _phase(re.flat[lead:], im.flat[lead:])
    re, im = re * c + im * s, im * c - re * s
    unit = np.empty(re.shape, dtype=complex)
    unit.real, unit.imag = re, im
    return unit


class HitKernel(Frozen):
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
        if not np.all(np.abs(completeness - 1.0) <= ATOL):  # refuses NaN too
            raise ValueError("kernel columns must satisfy sum of squares == 1")
        vars(self)["weights"] = _frozen(w)

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
    try:
        spread = 4.0 * width**2  # 0.0 if the square underflows
    except OverflowError:
        spread = 0.0
    if not (width > 0.0 and spread > 0.0):  # refuses NaN too
        raise ValueError(f"hit width must be positive, with a square in float range, got {width!r}")
    sites = range(n_sites)
    dist = [[min(abs(i - j), n_sites - abs(i - j)) for j in sites] for i in sites]
    # Python floats: a quotient past the float range is -inf, with no warning; not the SIMD exp
    raw = np.array([[math.exp(-(d * d) / spread) for d in row] for row in dist])
    column_norms = np.sqrt((raw**2).sum(axis=0))
    return HitKernel(raw / column_norms[None, :])


class GridWavefunction(Frozen):
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
        norm = math.sqrt(float((amps.real**2 + amps.imag**2).sum()))  # not BLAS
        if abs(norm - 1.0) > ATOL:
            raise InvalidStateError(f"wavefunction must be normalized, got norm {norm!r}")
        vars(self)["amplitudes"] = _frozen(amps, complex)

    @property
    def n_particles(self) -> int:
        return self.amplitudes.ndim

    @property
    def n_sites(self) -> int:
        return self.amplitudes.shape[0]

    def site_probabilities(self) -> np.ndarray:
        return self.amplitudes.real**2 + self.amplitudes.imag**2


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
    return (kernel.squared() * site_probs).sum(axis=1)


def apply_hit(
    psi: GridWavefunction, kernel: HitKernel, particle: int, center: int
) -> GridWavefunction:
    """Damp the chosen particle by the kernel column at `center`, renormalize."""
    _check_particle(psi, particle)
    column = kernel.weights[center]
    if psi.n_particles == 2:  # the column runs along the hit particle's axis
        column = column[:, None] if particle == 0 else column[None, :]
    re, im = column * psi.amplitudes.real, column * psi.amplitudes.imag
    weight = float((re**2 + im**2).sum())
    if weight <= _ZERO_BRANCH:
        raise ImpossibleFlashError(
            f"hit at site {center} on particle {particle} has zero probability"
        )
    return GridWavefunction(_normalize(re, im, weight))


def sample_hit_center(
    psi: GridWavefunction, kernel: HitKernel, particle: int, lam: float
) -> int:
    """Inverse-CDF draw from the flash distribution: smallest x with CDF(x) > lam."""
    check_real(lam)
    cdf = np.cumsum(flash_distribution(psi, kernel, particle))
    index = int(np.searchsorted(cdf, lam, side="right"))
    return min(index, kernel.n_sites - 1)


class FlashRecord(Frozen, eq=True):
    """One flash: when, where, and which particle."""

    time: float
    site: int
    particle: int


class FlashHistory:
    """Replayable run: the flashes in time order plus the final state."""

    def __init__(self, records=(), final_state: GridWavefunction | None = None) -> None:
        self.records: list[FlashRecord] = list(records)
        self.final_state = final_state

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


class FlashEnsemble(Frozen):
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
    chunks = stream.blocks(runs, block, CHUNK_RUNS)
    batches = flash_batches(psi0, kernel, rate, duration, chunks, stream.label)
    columns = zip(*(vars(batch).values() for batch in batches))
    return FlashEnsemble(*(np.concatenate(column) for column in columns))


def flash_batches(psi0, kernel, rate, duration, chunks, label="root"):
    """One `FlashEnsemble` per (runs, block) chunk of lambda words, run ids counted on.

    Row r of the chunks is the block of run r, and run r reads words 3k
    (waiting time), 3k+1 (particle) and 3k+2 (center) of its row for hit k.
    Phase 1 (`_draw_hits`) draws every run's hit times and particles with the
    same floating-point operations as the scalar run; then the chunk is
    dropped, before phase 2 (`_draw_centers`) steps the runs' hit centers
    together, hit k of every run at step k. A run's state is its posterior
    (see the module docstring), and the hit particle's marginal is that
    posterior summed by the particle's site. It sums in another order than
    the scalar run's, so a center could differ only where a word falls within
    rounding of a step of the CDF. A run that overruns its row raises
    `StreamExhaustedError` naming ``label[r]``.
    """
    _check_process(psi0, kernel, rate, duration)
    first_run = 0
    for words in chunks:
        hits = _draw_hits(psi0.n_particles, rate, duration, words, label, first_run)
        del words  # the chunk's raw words go before its centers are stepped
        yield _draw_centers(psi0, kernel, first_run, *hits)
        first_run += hits[3].size  # the chunk's runs, one hit count each


def _draw_hits(n_particles, rate, duration, words, label, first_run):
    """(time, particle, center word, hits per run, steps) of the runs whose blocks are
    `words`, the first three flat in (run, time) order; step k of `steps` is the runs
    with more than k hits, in run order, and the flat index of each one's hit k.

    The waiting-time words are read in windows, one index each, for the runs still
    active: the first as wide as the overshooting draw and three standard deviations
    above the mean hit count need, each later one twice as wide, so a seeded
    `pcg64.Chunk` makes few words that no run reads. Every run that overruns its
    block first needs word `block`, and the runs reach it together, so the lowest
    such run is the first overrunning one.
    """
    runs, block = words.shape
    total_rate = rate * n_particles
    mean = total_rate * duration
    width = math.ceil(min(mean + 3.0 * math.sqrt(mean), block)) + 1  # waiting times per window

    def overrun(active: np.ndarray) -> StreamExhaustedError:
        name = f"{label}[{first_run + active[0]}]"
        return StreamExhaustedError(f"stream {name!r} exhausted after {block} words")

    clock = np.zeros(runs)  # the time of each active run
    hit_counts = np.zeros(runs, dtype=np.intp)
    steps = []  # (runs hit, their times) at each hit index, in run order
    active = np.arange(runs)
    offset = row = 0
    window = ()  # the next waiting-time words of some runs, hit-major
    while active.size:
        if offset >= block:
            raise overrun(active)
        if row == len(window):  # the runs still active; the next window is twice as wide
            columns = np.arange(offset, min(offset + 3 * width, block), 3)[:, None]
            window, at, row, width = words[active, columns], np.arange(active.size), 0, 2 * width
        u_time = words_to_reals(window[row, at]).tolist()
        clock = clock + [-math.log1p(-u) / total_rate for u in u_time]
        inside = clock <= duration
        active, clock, at = active[inside], clock[inside], at[inside]
        if active.size and offset + 2 >= block:
            raise overrun(active)
        steps.append((active, clock))
        hit_counts[active] = len(steps)
        offset, row = offset + 3, row + 1

    starts = np.cumsum(hit_counts) - hit_counts
    time = np.empty(int(hit_counts.sum()))
    for k, (live, clock) in enumerate(steps):
        hit = starts[live] + k
        time[hit], steps[k] = clock, (live, hit)
    run = np.repeat(np.arange(runs), hit_counts)
    word = 3 * (np.arange(time.size) - starts[run])  # each hit's waiting-time word
    u_particle = words_to_reals(words[run, word + 1])
    particle = np.minimum((u_particle * n_particles).astype(np.intp), n_particles - 1)
    return time, particle, words_to_reals(words[run, word + 2]), hit_counts, steps


def _draw_centers(psi0, kernel, first_run, time, particle, u_center, hit_counts, steps):
    """The `FlashEnsemble` of `_draw_hits`'s hits, their centers drawn from `u_center`."""
    n = kernel.n_sites
    kernel_sq = kernel.squared()
    density = psi0.site_probabilities()
    cells = np.array(np.nonzero(density))  # cells[p]: particle p's site in each cell
    prior = density[tuple(cells)]
    posterior = np.tile(prior / prior.sum(), (hit_counts.size, 1))
    site = np.empty(time.size, dtype=np.intp)
    for live, hit in steps:
        on_site = cells[particle[hit]]  # the hit particle's site in each cell, per run
        post = posterior[live]
        bins = on_site + n * np.arange(live.size)[:, None]  # row r's sites, offset by r * n
        marginal = np.bincount(bins.ravel(), post.ravel(), live.size * n).reshape(live.size, n)
        cdf = np.cumsum(np.einsum("cj,rj->rc", kernel_sq, marginal), axis=1)
        center = np.minimum((cdf <= u_center[hit, None]).sum(axis=1), n - 1)
        post *= kernel_sq[center[:, None], on_site]
        posterior[live] = post / post.sum(axis=1, keepdims=True)
        site[hit] = center
    run = first_run + np.repeat(np.arange(hit_counts.size), hit_counts)
    return FlashEnsemble(run, time, particle, site, hit_counts)


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


class OrderingReport(Frozen):
    """Exact joint first-hit distributions under both hit orders, compared."""

    tolerance: float
    joint_first_then_second: np.ndarray
    joint_second_then_first: np.ndarray

    max_diff = functools.cached_property(lambda self: float(
        np.max(np.abs(self.joint_first_then_second - self.joint_second_then_first.T))))

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
            if p_first <= _SKIP_BRANCH:  # apply_hit would reject it as numerically impossible
                continue
            post = apply_hit(psi, kernel, first_particle, x_first)
            joint[x_first] = p_first * flash_distribution(post, kernel, second_particle)
        return joint

    # the second joint is indexed [x2, x1]
    return OrderingReport(tol, sequential_joint(0), sequential_joint(1))


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
