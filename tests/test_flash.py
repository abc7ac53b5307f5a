"""Hit-process tests: kernel invariants, Born-weighted flashes, Poisson timing,
and the order-invariant-distribution / order-dependent-realization split.

The pair-divergence oracle below recomputes everything from raw arrays: the
joint first-hit law J[x1, x2] from one einsum over the squared kernel, the
conditionals as rows/columns of J, and the exact disagreement measure by
rectangle decomposition of the (u1, u2) unit square.
"""

import itertools
import math
import re
from unittest import mock

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import chronobell as cb
from chronobell import lambdafile
from chronobell.flash import MIN_FLASH_BLOCK, OVERRUN_PROBABILITY, flash_block
from chronobell.quantum import _fix_global_phase


def random_grid_state(rng, n_sites, n_particles=1):
    shape = (n_sites,) * n_particles
    amps = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return cb.GridWavefunction(amps / np.linalg.norm(amps))


def oracle_joint_first_hits(psi, kernel):
    """J[x1, x2] = sum over sites of G2[x1, y1] G2[x2, y2] |psi|^2."""
    g2 = np.asarray(kernel.weights) ** 2
    density = np.abs(psi.amplitudes) ** 2
    return np.einsum("ay,bz,yz->ab", g2, g2, density)


def _invcdf(cdf, u):
    return min(int(np.searchsorted(cdf, u, side="right")), len(cdf) - 1)


def oracle_pair_divergence(psi, kernel):
    """Exact measure of {(u1, u2): the two hit orders realize different pairs}."""
    joint = oracle_joint_first_hits(psi, kernel)
    p1 = joint.sum(axis=1)
    p2 = joint.sum(axis=0)
    cdf1, cdf2 = np.cumsum(p1), np.cumsum(p2)

    cuts1 = np.unique(np.concatenate([[0.0, 1.0], cdf1, cdf2]))
    cuts1 = cuts1[(cuts1 >= 0.0) & (cuts1 <= 1.0)]
    total = 0.0
    for lo1, hi1 in zip(cuts1[:-1], cuts1[1:]):
        if hi1 <= lo1:
            continue
        mid1 = 0.5 * (lo1 + hi1)
        x1 = _invcdf(cdf1, mid1)  # particle 0 hit first
        x2_alt = _invcdf(cdf2, mid1)  # particle 1 hit first
        cond_after_1 = joint[x1] / p1[x1]
        cond_after_2 = joint[:, x2_alt] / p2[x2_alt]
        ccdf1, ccdf2 = np.cumsum(cond_after_1), np.cumsum(cond_after_2)
        cuts2 = np.unique(np.concatenate([[0.0, 1.0], ccdf1, ccdf2]))
        cuts2 = cuts2[(cuts2 >= 0.0) & (cuts2 <= 1.0)]
        for lo2, hi2 in zip(cuts2[:-1], cuts2[1:]):
            if hi2 <= lo2:
                continue
            mid2 = 0.5 * (lo2 + hi2)
            pair_a = (x1, _invcdf(ccdf1, mid2))
            pair_b = (_invcdf(ccdf2, mid2), x2_alt)
            if pair_a != pair_b:
                total += (hi1 - lo1) * (hi2 - lo2)
    return total


class TestHitKernel:
    @pytest.mark.parametrize("n,width", [(4, 0.5), (16, 2.0), (31, 7.3)])
    def test_completeness_by_column(self, n, width):
        kernel = cb.make_hit_kernel(n, width)
        assert_allclose((kernel.weights**2).sum(axis=0), 1.0, atol=1e-12)

    def test_flat_limit(self):
        n = 8
        kernel = cb.make_hit_kernel(n, width=1000.0 * n)
        assert_allclose(kernel.weights, 1.0 / math.sqrt(n), atol=1e-3)

    def test_narrow_limit(self):
        kernel = cb.make_hit_kernel(16, width=1e-3)
        off_diagonal = kernel.weights - np.diag(np.diag(kernel.weights))
        assert np.all(np.abs(np.diag(kernel.weights) - 1.0) < 1e-6)
        assert np.all(np.abs(off_diagonal) < 1e-6)

    def test_periodic_symmetry(self):
        kernel = cb.make_hit_kernel(10, width=2.0)
        rolled = np.roll(np.roll(kernel.weights, 3, axis=0), 3, axis=1)
        assert_allclose(kernel.weights, rolled, atol=1e-12)

    @pytest.mark.parametrize("n,width", [(1, 1.0), (8, 0.0), (8, -2.0)])
    def test_parameter_errors(self, n, width):
        with pytest.raises(ValueError):
            cb.make_hit_kernel(n, width)


class TestFlashDistribution:
    def test_localized_state_narrow_kernel(self):
        kernel = cb.make_hit_kernel(16, width=0.05)
        psi = cb.make_localized(16, 6)
        dist = cb.flash_distribution(psi, kernel)
        assert dist[6] > 0.999

    def test_uniform_state_uniform_distribution(self):
        kernel = cb.make_hit_kernel(16, width=2.0)
        dist = cb.flash_distribution(cb.make_uniform(16), kernel)
        assert_allclose(dist, 1.0 / 16.0, atol=1e-12)

    def test_sums_to_one_on_random_states(self, rng):
        kernel = cb.make_hit_kernel(12, width=1.7)
        for particles in (1, 2):
            for _ in range(10):
                psi = random_grid_state(rng, 12, particles)
                for particle in range(particles):
                    dist = cb.flash_distribution(psi, kernel, particle)
                    assert abs(dist.sum() - 1.0) <= 1e-12

    def test_product_state_factorizes(self, rng):
        """Particle 0's flash law ignores particle 1's factor entirely."""
        kernel = cb.make_hit_kernel(8, width=1.5)
        u = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        u /= np.linalg.norm(u)
        for _ in range(5):
            v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            v /= np.linalg.norm(v)
            product = cb.GridWavefunction(np.outer(u, v))
            alone = cb.GridWavefunction(u)
            assert_allclose(
                cb.flash_distribution(product, kernel, 0),
                cb.flash_distribution(alone, kernel, 0),
                atol=1e-12,
            )

    def test_matches_raw_tensor_oracle(self, rng):
        kernel = cb.make_hit_kernel(8, width=1.5)
        psi = random_grid_state(rng, 8, 2)
        joint = oracle_joint_first_hits(psi, kernel)
        assert_allclose(cb.flash_distribution(psi, kernel, 0), joint.sum(axis=1), atol=1e-12)
        assert_allclose(cb.flash_distribution(psi, kernel, 1), joint.sum(axis=0), atol=1e-12)

    def test_bad_particle_index(self):
        kernel = cb.make_hit_kernel(8, width=1.5)
        with pytest.raises(ValueError):
            cb.flash_distribution(cb.make_uniform(8), kernel, 1)


class TestApplyHit:
    def test_narrow_kernel_fixed_point(self):
        kernel = cb.make_hit_kernel(16, width=1e-3)
        psi = cb.make_localized(16, 6)
        post = cb.apply_hit(psi, kernel, 0, 6)
        assert_allclose(post.amplitudes, psi.amplitudes, atol=1e-9)

    def test_uniform_state_localizes(self):
        kernel = cb.make_hit_kernel(16, width=2.0)
        psi = cb.make_uniform(16)
        post = cb.apply_hit(psi, kernel, 0, 5)
        before = np.abs(psi.amplitudes[5]) ** 2
        after = np.abs(post.amplitudes[5]) ** 2
        assert after > before
        assert np.argmax(np.abs(post.amplitudes)) == 5

    def test_norm_preserved(self, rng):
        kernel = cb.make_hit_kernel(12, width=1.2)
        for _ in range(10):
            psi = random_grid_state(rng, 12, 2)
            post = cb.apply_hit(psi, kernel, rng.integers(2), rng.integers(12))
            assert abs(np.linalg.norm(post.amplitudes) - 1.0) <= 1e-12

    def test_impossible_center_rejected(self):
        kernel = cb.make_hit_kernel(16, width=1e-3)
        psi = cb.make_localized(16, 0)
        with pytest.raises(cb.ImpossibleFlashError):
            cb.apply_hit(psi, kernel, 0, 8)


def reference_flash_process(psi0, kernel, rate, duration, stream):
    """`run_flash_process` with each hit's inverse-CDF draw and damping written out inline."""
    n_particles = psi0.n_particles
    total_rate = rate * n_particles
    kernel_sq = np.asarray(kernel.weights) ** 2
    amps = psi0.amplitudes.copy()
    records = []
    now = 0.0
    while True:
        now += -math.log1p(-stream.next_real()) / total_rate
        if now > duration:
            break
        particle = min(int(stream.next_real() * n_particles), n_particles - 1)
        site_probs = np.abs(amps) ** 2
        if n_particles == 2:
            site_probs = site_probs.sum(axis=1 - particle)
        cdf = np.cumsum(kernel_sq @ site_probs)
        center = _invcdf(cdf, stream.next_real())
        column = kernel.weights[center]
        if n_particles == 1:
            amps = column * amps
        elif particle == 0:
            amps = column[:, None] * amps
        else:
            amps = column[None, :] * amps
        amps = amps / np.linalg.norm(amps)
        records.append(cb.FlashRecord(now, center, particle))
    return records, _fix_global_phase(amps)


class TestRunFlashProcess:
    @settings(max_examples=150, deadline=None)
    @given(
        n_particles=st.sampled_from([1, 2]),
        n_sites=st.integers(2, 20),
        width=st.floats(0.5, 4.0),
        rate=st.floats(0.05, 8.0),
        duration=st.floats(0.05, 4.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_inline_reference(self, n_particles, n_sites, width, rate, duration, seed):
        psi = random_grid_state(np.random.default_rng(seed), n_sites, n_particles)
        kernel = cb.make_hit_kernel(n_sites, width)
        lf = cb.generate_lambda_file(seed, flash_block(rate * duration * n_particles))
        history = cb.run_flash_process(psi, kernel, rate, duration, lf.stream())
        records, amps = reference_flash_process(psi, kernel, rate, duration, lf.stream())
        assert history.records == records
        # a run without hits keeps psi0 as it is; the reference fixes its global phase
        final = _fix_global_phase(history.final_state.amplitudes)
        assert np.max(np.abs(final - amps)) <= 1e-14

    def _stream(self, seed, runs, block=64):
        return cb.generate_lambda_file(seed=seed, count=runs * block)

    def test_poisson_hit_count(self):
        runs = 2000
        kernel = cb.make_hit_kernel(16, width=2.0)
        psi = cb.make_uniform(16)
        lf = self._stream(60, runs)
        root = lf.stream()
        counts = np.array([
            len(cb.run_flash_process(psi, kernel, 1.0, 4.0, root.split(r)))
            for r in range(runs)
        ])
        expected = 4.0
        sigma = math.sqrt(expected / runs)
        assert abs(counts.mean() - expected) <= 3 * sigma
        dispersion = counts.var() / counts.mean()
        assert abs(dispersion - 1.0) <= 3 * math.sqrt(2.0 / runs)

    def test_first_flash_histogram(self, rng):
        runs = 5000
        kernel = cb.make_hit_kernel(16, width=2.0)
        amps = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        psi = cb.GridWavefunction(amps / np.linalg.norm(amps))
        exact = cb.flash_distribution(psi, kernel)
        lf = self._stream(61, runs)
        root = lf.stream()
        counts = np.zeros(16)
        hits = 0
        for r in range(runs):
            history = cb.run_flash_process(psi, kernel, 1.0, 4.0, root.split(r))
            if history.records:
                counts[history.records[0].site] += 1
                hits += 1
        assert 0.5 * np.abs(counts / hits - exact).sum() < 0.05

    def test_empty_history_consumes_one_word(self):
        kernel = cb.make_hit_kernel(16, width=2.0)
        psi = cb.make_uniform(16)
        stream = cb.LambdaFile.from_reals([0.99, 0.5, 0.5]).stream()
        history = cb.run_flash_process(psi, kernel, 1.0, 4.0, stream)
        assert len(history) == 0
        assert stream.position == 1
        assert_allclose(history.final_state.amplitudes, psi.amplitudes, atol=1e-15)

    def test_times_increase_within_duration(self):
        kernel = cb.make_hit_kernel(16, width=2.0)
        psi = cb.make_entangled_pair(16, 4, 12)
        stream = self._stream(62, 1).stream()
        history = cb.run_flash_process(psi, kernel, 1.0, 4.0, stream)
        times = [r.time for r in history.records]
        assert all(t1 <= t2 for t1, t2 in zip(times, times[1:]))
        assert all(0.0 <= t <= 4.0 for t in times)
        assert all(r.particle in (0, 1) for r in history.records)

    def test_replay_determinism(self):
        kernel = cb.make_hit_kernel(16, width=2.0)
        psi = cb.make_entangled_pair(16, 4, 12)
        lf = self._stream(63, 4)
        h1 = cb.run_flash_process(psi, kernel, 1.0, 4.0, lf.stream().split(2))
        h2 = cb.run_flash_process(psi, kernel, 1.0, 4.0, lf.stream().split(2))
        assert h1.records == h2.records
        assert np.array_equal(h1.final_state.amplitudes, h2.final_state.amplitudes)

    def test_parameter_errors(self):
        kernel = cb.make_hit_kernel(16, width=2.0)
        psi = cb.make_uniform(16)
        stream = cb.LambdaFile.from_reals([0.5]).stream()
        with pytest.raises(ValueError):
            cb.run_flash_process(psi, kernel, 0.0, 4.0, stream)
        with pytest.raises(ValueError):
            cb.run_flash_process(psi, kernel, 1.0, 0.0, stream)


def scalar_ensemble(psi, kernel, rate, duration, stream, runs, block):
    """The oracle for run_flash_processes: one run_flash_process per split, in order."""
    records, counts = [], []
    for run in range(runs):
        history = cb.run_flash_process(psi, kernel, rate, duration, stream.split(run, block))
        records.extend((run, record) for record in history.records)
        counts.append(len(history))
    return records, counts


def batched_ensemble(psi, kernel, rate, duration, stream, runs, block):
    ensemble = cb.run_flash_processes(psi, kernel, rate, duration, stream, runs, block)
    columns = (ensemble.run, ensemble.time, ensemble.site, ensemble.particle)
    records = [(r, cb.FlashRecord(t, s, p)) for r, t, s, p in zip(*(c.tolist() for c in columns))]
    return records, ensemble.hit_counts.tolist()


def outcome(ensemble, *args):
    try:
        return ensemble(*args)
    except cb.StreamExhaustedError as exc:
        return str(exc)


class TestRunFlashProcesses:
    @settings(max_examples=60, deadline=None)
    @given(
        n_particles=st.sampled_from([1, 2]),
        n_sites=st.integers(2, 32),
        width=st.floats(0.5, 4.0),
        rate=st.floats(0.05, 8.0),
        duration=st.floats(0.05, 4.0),
        runs=st.integers(1, 10),
        start=st.integers(1, 40),
        cursor=st.integers(0, 5),
        short_block=st.none() | st.integers(1, 16),
        chunk=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_scalar_runs(
        self, n_particles, n_sites, width, rate, duration, runs, start, cursor, short_block,
        chunk, seed,
    ):
        psi = random_grid_state(np.random.default_rng(seed), n_sites, n_particles)
        kernel = cb.make_hit_kernel(n_sites, width)
        block = short_block or flash_block(rate * duration * n_particles)
        lf = cb.generate_lambda_file(seed, start + runs * block + 7)
        stream = cb.LambdaStream(lf, start, runs * block + 7, "s")
        stream.take(cursor)  # splits ignore the cursor; so must the batch
        args = (psi, kernel, rate, duration, stream, runs, block)
        expected = outcome(scalar_ensemble, *args)
        with mock.patch.multiple(lambdafile, CHUNK_WORDS=1, CHUNK_ROWS=chunk):  # chunk runs each
            assert outcome(batched_ensemble, *args) == expected
        if short_block is None:
            assert not isinstance(expected, str)

    def test_exhaustion_names_the_first_overrunning_run(self):
        # 13 words hold 4 hits; at 4 expected hits runs 0..2 fit, run 3 does not
        psi = cb.make_uniform(16)
        kernel = cb.make_hit_kernel(16, 2.0)
        stream = cb.generate_lambda_file(seed=4, count=40 * 13).stream()
        args = (psi, kernel, 1.0, 4.0, stream, 40, 13)
        message = outcome(scalar_ensemble, *args)
        assert message == "stream 'root[3]' exhausted after 13 words"
        with pytest.raises(cb.StreamExhaustedError, match=re.escape(message)):
            batched_ensemble(*args)

    def test_capacity_checked_up_front(self):
        psi = cb.make_uniform(8)
        kernel = cb.make_hit_kernel(8, 2.0)
        stream = cb.generate_lambda_file(seed=1, count=5 * 64 + 10).stream()
        with pytest.raises(cb.CapacityError) as scalar:
            scalar_ensemble(psi, kernel, 1.0, 4.0, stream, 6, 64)
        with pytest.raises(cb.CapacityError, match=re.escape(str(scalar.value))):
            cb.run_flash_processes(psi, kernel, 1.0, 4.0, stream, 6, 64)

    def test_first_sites_and_history_bytes(self):
        ensemble = cb.FlashEnsemble(
            run=np.array([0, 0, 2]),
            time=np.array([0.5, 1.25, 0.1]),
            particle=np.array([1, 0, 0]),
            site=np.array([3, 4, 7]),
            hit_counts=np.array([2, 0, 1]),
        )
        assert ensemble.first_sites().tolist() == [3, 7]
        history = b"0\t0.5\t1\t3\n0\t1.25\t0\t4\n2\t0.1\t0\t7\n"
        for lines in (1, 2, 3):  # formatted across slice boundaries
            with mock.patch.object(cb.flash, "FORMAT_SLICE", lines):
                assert ensemble.history_bytes() == history

    def test_parameter_errors(self):
        psi = cb.make_uniform(8)
        kernel = cb.make_hit_kernel(8, 2.0)
        stream = cb.generate_lambda_file(seed=1, count=64).stream()
        for rate, duration, runs, block in [(0.0, 4.0, 1, 64), (1.0, 0.0, 1, 64),
                                            (1.0, 4.0, 0, 64), (1.0, 4.0, 1, 0)]:
            with pytest.raises(ValueError):
                cb.run_flash_processes(psi, kernel, rate, duration, stream, runs, block)


class TestFlashBlock:
    @pytest.mark.parametrize("mean_hits", [8.0, 16.0])
    def test_default_and_benchmark_rates_keep_the_minimum(self, mean_hits):
        assert flash_block(mean_hits) == MIN_FLASH_BLOCK == 256

    @settings(max_examples=200, deadline=None)
    @given(mean_hits=st.floats(1e-3, 5e3))
    def test_overrun_probability_within_tail(self, mean_hits):
        block = flash_block(mean_hits)
        max_hits = (block - 1) // 3
        assert scipy.stats.poisson.sf(max_hits, mean_hits) <= OVERRUN_PROBABILITY
        assert flash_block(mean_hits * 1.5) >= block

    def test_bound_is_not_wasteful(self):
        # rate 100 on the default grid: 800 hits expected, and the exact 1e-12
        # quantile of the hit count is 1007; the Chernoff bound gives 1020
        assert flash_block(800.0) == 3 * 1020 + 1

    @pytest.mark.parametrize("mean_hits", [0.0, -1.0, math.inf, math.nan])
    def test_invalid_mean_rejected(self, mean_hits):
        with pytest.raises(ValueError):
            flash_block(mean_hits)

    def test_high_rate_run_fits_its_block(self):
        psi = cb.make_entangled_pair(16, 4, 12)
        kernel = cb.make_hit_kernel(16, 2.0)
        block = flash_block(100.0 * 4.0 * 2)
        root = cb.generate_lambda_file(seed=1, count=3 * block).stream()
        for run in range(3):
            sub = root.split(run, block)
            history = cb.run_flash_process(psi, kernel, 100.0, 4.0, sub)
            assert sub.position == 3 * len(history) + 1


class TestOrderingInvariance:
    def test_entangled_state(self):
        kernel = cb.make_hit_kernel(16, width=2.0)
        psi = cb.make_entangled_pair(16, 4, 12)
        report = cb.ordering_invariance_exact(psi, kernel)
        assert report.passed
        assert report.max_diff <= 1e-12

    def test_product_state(self, rng):
        u = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        v = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        psi = cb.GridWavefunction(np.outer(u, v) / (np.linalg.norm(u) * np.linalg.norm(v)))
        kernel = cb.make_hit_kernel(16, width=2.0)
        report = cb.ordering_invariance_exact(psi, kernel)
        assert report.max_diff <= 1e-12

    def test_random_states(self, rng):
        kernel = cb.make_hit_kernel(12, width=1.5)
        for _ in range(10):
            psi = random_grid_state(rng, 12, 2)
            assert cb.ordering_invariance_exact(psi, kernel).max_diff <= 1e-12

    def test_joint_matches_raw_oracle(self, rng):
        kernel = cb.make_hit_kernel(10, width=1.5)
        psi = random_grid_state(rng, 10, 2)
        report = cb.ordering_invariance_exact(psi, kernel)
        assert_allclose(report.joint_first_then_second, oracle_joint_first_hits(psi, kernel), atol=1e-12)

    def test_single_particle_rejected(self):
        kernel = cb.make_hit_kernel(16, width=2.0)
        with pytest.raises(ValueError):
            cb.ordering_invariance_exact(cb.make_uniform(16), kernel)

    def test_narrow_kernel_tiny_probabilities(self):
        """Centers with ~1e-48 probability must be skipped, not crash the check."""
        kernel = cb.make_hit_kernel(16, width=0.3)
        psi = cb.make_entangled_pair(16, 4, 12)
        report = cb.ordering_invariance_exact(psi, kernel)
        assert report.max_diff <= 1e-12

    def test_large_grid_rejected(self, rng):
        kernel = cb.make_hit_kernel(40, width=2.0)
        psi = random_grid_state(rng, 40, 2)
        with pytest.raises(ValueError):
            cb.ordering_invariance_exact(psi, kernel)


class TestRealizedPairDivergence:
    def test_entangled_pairs_diverge_at_enumerated_rate(self):
        """Shared lambdas, different hit orders: realized pairs differ.

        The exact disagreement measure comes from the rectangle-decomposition
        oracle; the empirical frequency must sit within 3 sigma at 1e4 runs.
        """
        kernel = cb.make_hit_kernel(16, width=2.0)
        psi = cb.make_entangled_pair(16, 4, 12)
        exact = oracle_pair_divergence(psi, kernel)
        assert exact > 0.1  # realization non-covariance is substantial here

        runs = 10_000
        root = cb.generate_lambda_file(seed=64, count=runs * 2).stream()
        differs = 0
        for r in range(runs):
            sub = root.split(r, block=2)
            u1, u2 = sub.take(2)
            pair_01 = cb.sample_flash_pair(psi, kernel, 0, u1, u2)
            pair_10 = cb.sample_flash_pair(psi, kernel, 1, u1, u2)
            differs += pair_01 != pair_10
        sigma = math.sqrt(exact * (1 - exact) / runs)
        assert abs(differs / runs - exact) <= 3 * sigma

    def test_product_pairs_can_agree(self):
        """A perfectly localized product state leaves nothing order-dependent."""
        kernel = cb.make_hit_kernel(16, width=1e-3)
        amps = np.zeros((16, 16), dtype=complex)
        amps[4, 12] = 1.0
        psi = cb.GridWavefunction(amps)
        assert oracle_pair_divergence(psi, kernel) == 0.0
        for u1, u2 in itertools.product((0.1, 0.6), (0.3, 0.9)):
            assert cb.sample_flash_pair(psi, kernel, 0, u1, u2) == cb.sample_flash_pair(
                psi, kernel, 1, u1, u2
            )

    def test_pair_sampler_validation(self):
        kernel = cb.make_hit_kernel(16, width=2.0)
        with pytest.raises(ValueError):
            cb.sample_flash_pair(cb.make_uniform(16), kernel, 0, 0.5, 0.5)


class TestGridWavefunction:
    def test_norm_enforced(self):
        with pytest.raises(cb.InvalidStateError):
            cb.GridWavefunction(np.ones(4, dtype=complex))

    def test_square_grid_enforced(self):
        with pytest.raises(cb.InvalidStateError):
            cb.GridWavefunction(np.ones((2, 3), dtype=complex) / math.sqrt(6))

    def test_entangled_fixture(self):
        psi = cb.make_entangled_pair(8, 2, 5)
        assert psi.n_particles == 2
        assert abs(np.linalg.norm(psi.amplitudes) - 1.0) <= 1e-12
        with pytest.raises(ValueError):
            cb.make_entangled_pair(8, 3, 3)
