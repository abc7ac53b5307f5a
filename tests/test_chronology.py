"""Ordered-sampling tests: faithfulness per chronology, covariant distributions,
non-covariant realizations.

The divergence oracle reimplements the two composed samplers from scratch
(own projector arithmetic, own thresholds) and integrates the disagreement
region exactly over the (lam1, lam2) unit square by rectangle decomposition.
The exact fractions were computed with it before the tests were written:

    singlet, a = b = z                 -> 1.0
    singlet, a = z, b at 45 degrees    -> (1 + 1/sqrt(2)) / 2 = 0.8535533905932737
    product |00>, a = b = z            -> 0.0
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import chronobell as cb
from chronobell.chronology import covariance_pass
from support import lambda_file_from_reals, random_pure_state, random_setting, table_max_abs_diff

SQRT2 = math.sqrt(2.0)

_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)
_I2 = np.eye(2, dtype=complex)


def A(deg):
    return cb.BlochSetting.from_angle(deg, "A")


def B(deg):
    return cb.BlochSetting.from_angle(deg, "B")


def _proj(direction, outcome):
    nx, ny, nz = direction
    return 0.5 * (_I2 + outcome * (nx * _SX + ny * _SY + nz * _SZ))


def _op(direction, outcome, party):
    p = _proj(direction, outcome)
    return np.kron(p, _I2) if party == "A" else np.kron(_I2, p)


def _oracle_thresholds(amps, first_dir, second_dir, first_party):
    """P(first = +) and P(second = + | first outcome) from raw projector math."""
    second_party = "B" if first_party == "A" else "A"
    p_plus = float(np.real(np.conj(amps) @ (_op(first_dir, 1, first_party) @ amps)))
    conditional = {}
    for outcome in (1, -1):
        phi = _op(first_dir, outcome, first_party) @ amps
        weight = float(np.real(np.conj(phi) @ phi))
        if weight <= 0.0:
            conditional[outcome] = None
            continue
        phi = phi / math.sqrt(weight)
        conditional[outcome] = float(
            np.real(np.conj(phi) @ (_op(second_dir, 1, second_party) @ phi))
        )
    return p_plus, conditional


def oracle_divergence(amps, dir_a, dir_b):
    """Exact measure of {(l1, l2): the two chronologies realize different pairs}."""
    p_ab, q_ab = _oracle_thresholds(amps, dir_a, dir_b, "A")
    p_ba, q_ba = _oracle_thresholds(amps, dir_b, dir_a, "B")
    cuts1 = sorted({0.0, 1.0, p_ab, p_ba})
    total = 0.0
    for lo1, hi1 in zip(cuts1[:-1], cuts1[1:]):
        if hi1 <= lo1:
            continue
        mid1 = 0.5 * (lo1 + hi1)
        alpha_ab = 1 if mid1 < p_ab else -1
        beta_ba = 1 if mid1 < p_ba else -1
        t_ab = q_ab[alpha_ab]  # beta under AB is + iff l2 < t_ab
        t_ba = q_ba[beta_ba]  # alpha under BA is + iff l2 < t_ba
        cuts2 = sorted({0.0, 1.0, t_ab, t_ba})
        for lo2, hi2 in zip(cuts2[:-1], cuts2[1:]):
            if hi2 <= lo2:
                continue
            mid2 = 0.5 * (lo2 + hi2)
            beta_ab = 1 if mid2 < t_ab else -1
            alpha_ba = 1 if mid2 < t_ba else -1
            if (alpha_ab, beta_ab) != (alpha_ba, beta_ba):
                total += (hi1 - lo1) * (hi2 - lo2)
    return total


def pinned_stream(*values):
    return lambda_file_from_reals(list(values)).stream()


class TestSampleFirst:
    def test_singlet_below_threshold(self, singlet):
        assert cb.sample_first(singlet, A(0), 0.3) == 1

    def test_singlet_above_threshold(self, singlet):
        assert cb.sample_first(singlet, A(0), 0.7) == -1

    @pytest.mark.parametrize("lam", [0.0, 0.5, 0.999])
    def test_certain_branch(self, lam):
        assert cb.sample_first(cb.make_product_state(), A(0), lam) == 1

    @pytest.mark.parametrize("lam", [-0.1, 1.0, 1.5])
    def test_domain_error(self, singlet, lam):
        with pytest.raises(ValueError):
            cb.sample_first(singlet, A(0), lam)


class TestSampleSecond:
    def test_anticorrelated(self, singlet):
        for lam in (0.0, 0.4, 0.99):
            assert cb.sample_second(singlet, A(0), 1, B(0), lam) == -1

    def test_product(self):
        state = cb.make_product_state()
        assert cb.sample_second(state, A(0), 1, B(0), 0.7) == 1

    def test_transverse_conditional(self, singlet):
        # after A sees + along z, B's + probability along x is 1/2
        assert cb.sample_second(singlet, A(0), 1, B(90), 0.2) == 1

    def test_impossible_first_outcome(self):
        with pytest.raises(cb.ImpossibleOutcomeError):
            cb.sample_second(cb.make_product_state(), A(0), -1, B(0), 0.5)


class TestRunTrial:
    def test_ab_pinned(self, singlet, zz_settings):
        a, b = zz_settings
        result = cb.run_trial(singlet, a, b, "AB", pinned_stream(0.3, 0.9))
        assert result.pair == (1, -1)
        assert result.chronology is cb.Chronology.AB

    def test_ba_pinned_same_lambdas(self, singlet, zz_settings):
        a, b = zz_settings
        result = cb.run_trial(singlet, a, b, "BA", pinned_stream(0.3, 0.9))
        # same lambdas, mirrored roles: beta is now the first draw
        assert result.pair == (-1, 1)

    def test_product_deterministic(self, zz_settings):
        a, b = zz_settings
        state = cb.make_product_state()
        for chronology in ("AB", "BA"):
            result = cb.run_trial(state, a, b, chronology, pinned_stream(0.6, 0.2))
            assert result.pair == (1, 1)

    def test_consumes_two_words(self, singlet, zz_settings):
        a, b = zz_settings
        stream = pinned_stream(0.3, 0.9, 0.1, 0.2)
        cb.run_trial(singlet, a, b, "AB", stream)
        assert stream.position == 2

    def test_records_lambdas(self, singlet, zz_settings):
        a, b = zz_settings
        result = cb.run_trial(singlet, a, b, "AB", pinned_stream(0.3, 0.9))
        assert_allclose(result.lambdas, [0.3, 0.9], atol=2**-50)

    def test_exhaustion_propagates(self, singlet, zz_settings):
        a, b = zz_settings
        with pytest.raises(cb.StreamExhaustedError):
            cb.run_trial(singlet, a, b, "AB", pinned_stream(0.3))


class TestEstimateTable:
    def test_singlet_convergence(self, singlet, zz_settings):
        a, b = zz_settings
        stream = cb.generate_lambda_file(seed=42, count=10_000 * 64).stream()
        table = cb.estimate_table(singlet, [a], [b], "AB", 10_000, stream)
        assert abs(table.cells[0, 0, 0, 1] - 0.5) < 0.02
        assert abs(table.cells[0, 0, 1, 0] - 0.5) < 0.02

    def test_product_exact(self, zz_settings):
        a, b = zz_settings
        stream = cb.generate_lambda_file(seed=42, count=100 * 64).stream()
        table = cb.estimate_table(cb.make_product_state(), [a], [b], "AB", 100, stream)
        assert table.cells[0, 0, 0, 0] == 1.0

    def test_chronologies_converge_together(self, singlet, zz_settings):
        a, b = zz_settings
        lf = cb.generate_lambda_file(seed=43, count=10_000 * 64)
        t_ab = cb.estimate_table(singlet, [a], [b], "AB", 10_000, lf.stream())
        t_ba = cb.estimate_table(singlet, [a], [b], "BA", 10_000, lf.stream())
        assert table_max_abs_diff(t_ab, t_ba) < 0.03

    def test_matches_run_trial_loop(self, singlet, rng):
        """The vectorized estimator and the one-trial sampler are the same rule."""
        settings_a = [A(0), A(90)]
        settings_b = [B(45)]
        trials = 400
        lf = cb.generate_lambda_file(seed=44, count=2 * trials * 64)
        table = cb.estimate_table(singlet, settings_a, settings_b, "BA", trials, lf.stream())

        root = lf.stream()
        for k, (i, j) in enumerate([(0, 0), (1, 0)]):
            counts = np.zeros((2, 2))
            for t in range(trials):
                sub = root.split(k * trials + t)
                result = cb.run_trial(singlet, settings_a[i], settings_b[j], "BA", sub)
                counts[(1 - result.alpha) // 2, (1 - result.beta) // 2] += 1
            assert_allclose(table.cells[i, j], counts / trials, atol=0)

    def test_schedule_order_independence(self, singlet, rng):
        """Consuming trial substreams in shuffled order changes nothing."""
        a, b = A(30), B(75)
        trials = 300
        lf = cb.generate_lambda_file(seed=45, count=trials * 64)
        table = cb.estimate_table(singlet, [a], [b], "AB", trials, lf.stream())

        counts = np.zeros((2, 2))
        root = lf.stream()
        for t in rng.permutation(trials):
            result = cb.run_trial(singlet, a, b, "AB", root.split(int(t)))
            counts[(1 - result.alpha) // 2, (1 - result.beta) // 2] += 1
        assert_allclose(table.cells[0, 0], counts / trials, atol=0)

    def test_stderr_scale(self, singlet, zz_settings):
        a, b = zz_settings
        stream = cb.generate_lambda_file(seed=46, count=400 * 64).stream()
        table = cb.estimate_table(singlet, [a], [b], "AB", 400, stream)
        assert table.trials == 400
        expected = np.sqrt(table.cells * (1 - table.cells) / 400)
        assert_allclose(table.stderr, expected, atol=0)

    def test_trials_validation(self, singlet, zz_settings):
        a, b = zz_settings
        with pytest.raises(ValueError):
            cb.estimate_table(singlet, [a], [b], "AB", 0, pinned_stream(0.1))


class TestDistributionCovariance:
    def test_singlet_random_pairs(self, singlet, rng):
        settings_a = [random_setting(rng, "A") for _ in range(10)]
        settings_b = [random_setting(rng, "B") for _ in range(10)]
        report = cb.distribution_covariance_check(singlet, settings_a, settings_b)
        assert report.distribution_pass
        assert report.max_distribution_diff <= 1e-12

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_random_states(self, seed):
        rng = np.random.default_rng(seed)
        state = random_pure_state(rng)
        settings_a = [random_setting(rng, "A") for _ in range(2)]
        settings_b = [random_setting(rng, "B") for _ in range(2)]
        report = cb.distribution_covariance_check(state, settings_a, settings_b)
        assert report.max_distribution_diff <= 1e-12

    def test_product_state(self, zz_settings):
        a, b = zz_settings
        report = cb.distribution_covariance_check(cb.make_product_state(), [a], [b])
        assert report.max_distribution_diff == 0.0


class TestRealizationDivergence:
    def test_oracle_agrees_with_frozen_values(self, singlet):
        z = np.array([0.0, 0.0, 1.0])
        mid = np.array([1 / SQRT2, 0.0, 1 / SQRT2])
        assert oracle_divergence(singlet.amplitudes, z, z) == pytest.approx(1.0, abs=1e-12)
        assert oracle_divergence(singlet.amplitudes, z, mid) == pytest.approx(
            (1 + 1 / SQRT2) / 2, abs=1e-12
        )
        product = cb.make_product_state()
        assert oracle_divergence(product.amplitudes, z, z) == 0.0

    def test_singlet_zz_total_divergence(self, singlet, zz_settings):
        # enumerated exact value is 1.0: the chronologies disagree on every trial
        a, b = zz_settings
        stream = cb.generate_lambda_file(seed=47, count=10_000 * 64).stream()
        report = cb.realization_divergence(singlet, [a], [b], 10_000, stream)
        assert report.divergence_fraction[0, 0] == 1.0

    def test_singlet_transverse_pair_matches_oracle(self, singlet):
        a, b = A(0), B(45)
        exact = oracle_divergence(singlet.amplitudes, a.vector, b.vector)
        assert exact == pytest.approx((1 + 1 / SQRT2) / 2, abs=1e-12)
        trials = 10_000
        stream = cb.generate_lambda_file(seed=48, count=trials * 64).stream()
        report = cb.realization_divergence(singlet, [a], [b], trials, stream)
        sigma = math.sqrt(exact * (1 - exact) / trials)
        assert abs(report.divergence_fraction[0, 0] - exact) <= 3 * sigma

    def test_product_zero_divergence(self, zz_settings):
        a, b = zz_settings
        stream = cb.generate_lambda_file(seed=49, count=500 * 64).stream()
        report = cb.realization_divergence(cb.make_product_state(), [a], [b], 500, stream)
        assert report.divergence_fraction[0, 0] == 0.0

    def test_matches_paired_run_trials(self, singlet):
        """Divergence counting equals replaying run_trial twice per substream."""
        a, b = A(20), B(55)
        trials = 300
        lf = cb.generate_lambda_file(seed=50, count=trials * 64)
        report = cb.realization_divergence(singlet, [a], [b], trials, lf.stream())

        differing = 0
        root = lf.stream()
        for t in range(trials):
            sub = root.split(t)
            pair_ab = cb.run_trial(singlet, a, b, "AB", sub).pair
            sub.rewind()
            pair_ba = cb.run_trial(singlet, a, b, "BA", sub).pair
            differing += pair_ab != pair_ba
        assert report.divergence_fraction[0, 0] == pytest.approx(differing / trials, abs=0)


class TestReplayDeterminism:
    def test_identical_trial_sequences(self, singlet, zz_settings):
        a, b = zz_settings
        lf = cb.generate_lambda_file(seed=51, count=50 * 64)

        def run_all():
            root = lf.stream()
            return [cb.run_trial(singlet, a, b, "AB", root.split(t)) for t in range(50)]

        first, second = run_all(), run_all()
        assert [(r.pair, r.lambdas) for r in first] == [(r.pair, r.lambdas) for r in second]

    def test_report_is_pure_function_of_file(self, singlet, zz_settings, tmp_path):
        a, b = zz_settings
        lf = cb.generate_lambda_file(seed=52, count=200 * 64)
        path = lf.save(tmp_path / "lam.bin")
        one = cb.realization_divergence(singlet, [a], [b], 200, lf.stream())
        two = cb.realization_divergence(
            singlet, [a], [b], 200, cb.LambdaFile.load(path).stream()
        )
        assert np.array_equal(one.divergence_fraction, two.divergence_fraction)


class TestCovarianceReport:
    def test_to_dict_with_both_parts(self, singlet, zz_settings):
        """The CLI's combined report: the exact part plus the realized divergence."""
        a, b = zz_settings
        exact = cb.distribution_covariance_check(singlet, [a], [b])
        stream = cb.generate_lambda_file(seed=53, count=100 * 64).stream()
        realized = cb.realization_divergence(singlet, [a], [b], 100, stream)
        combined = cb.CovarianceReport(
            exact.settings_a, exact.settings_b, exact.distribution_max_diff,
            realized.divergence_fraction, 100, exact.tolerance,
        )
        assert combined.distribution_pass
        assert combined.max_divergence == realized.max_divergence
        data = combined.to_dict()
        assert data["trials"] == 100
        assert data["distribution"]["pass"] is True
        assert data["realization"]["max_divergence"] == 1.0


# words whose reals 0, 1/4 and 1/2 land exactly on thresholds of the fixed states
WORD = st.integers(0, 2**64 - 1) | st.sampled_from([0, 2**62, 2**63, 2**64 - 1])


class TestCovariancePass:
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        words=st.lists(st.tuples(WORD, WORD), min_size=1, max_size=12),
        cut=st.integers(0, 12),
        kind=st.sampled_from(["random", "product", "singlet"]),
    )
    def test_rows_follow_run_trial(self, seed, words, cut, kind):
        """With one trial per setting pair, each row's table cell is run_trial's pair."""
        rng = np.random.default_rng(seed)
        words = np.array(words, dtype=np.uint64)
        if kind == "product":  # P(first=+) is exactly 1/2 (AB) or 1, with a nan branch (BA)
            state, settings_a, b = cb.make_product_state(), [A(90)] * len(words), B(0)
        elif kind == "singlet":  # thresholds of exactly 0 and 1
            state, settings_a, b = cb.make_singlet(), [A(0)] * len(words), B(0)
        else:
            state = random_pure_state(rng)
            settings_a = [random_setting(rng, "A") for _ in words]
            b = random_setting(rng, "B")
        chunks = [words[:cut], words[cut:]]  # rows counted on across chunks
        tables, divergence = covariance_pass(state, settings_a, [b], 1, iter(chunks))
        for r, a in enumerate(settings_a):
            pairs = {}
            for chronology in cb.Chronology:
                pairs[chronology] = alpha, beta = cb.run_trial(
                    state, a, b, chronology, cb.LambdaFile(words[r]).stream()
                ).pair
                cell = np.zeros((2, 2))
                cell[int(alpha == -1), int(beta == -1)] = 1.0
                np.testing.assert_array_equal(tables[chronology].cells[r, 0], cell)
            assert divergence[r, 0] == float(pairs[cb.Chronology.AB] != pairs[cb.Chronology.BA])

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_a=st.integers(1, 3),
        n_b=st.integers(1, 3),
        trials=st.integers(1, 40),
        width=st.integers(2, 4),
        cuts=st.lists(st.floats(0.0, 1.0), max_size=5),
        kind=st.sampled_from(["random", "product", "singlet"]),
    )
    def test_pairs_of_many_trials_across_chunk_cuts(
        self, seed, n_a, n_b, trials, width, cuts, kind
    ):
        """Cells, stderr and divergence equal a run_trial loop bit for bit, however
        the rows are cut: a pair may span chunks and a chunk may hold several pairs."""
        rng = np.random.default_rng(seed)
        rows = n_a * n_b * trials
        words = rng.integers(0, 2**64, size=(rows, width), dtype=np.uint64)
        edges = np.array([0, 2**62, 2**63, 2**64 - 1], dtype=np.uint64)  # reals on thresholds
        on_edge = rng.random(words.shape) < 0.2
        words[on_edge] = rng.choice(edges, size=int(on_edge.sum()))
        if kind == "random":
            state = random_pure_state(rng)
            settings_a = [random_setting(rng, "A") for _ in range(n_a)]
            settings_b = [random_setting(rng, "B") for _ in range(n_b)]
        else:  # thresholds of exactly 0, 1/2 and 1, and nan branches for the product state
            state = cb.make_product_state() if kind == "product" else cb.make_singlet()
            settings_a = [A(deg) for deg in rng.choice([0.0, 90.0], n_a)]
            settings_b = [B(deg) for deg in rng.choice([0.0, 90.0], n_b)]
        bounds = [0, *sorted(round(cut * rows) for cut in cuts), rows]
        chunks = (words[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:]))
        tables, divergence = covariance_pass(state, settings_a, settings_b, trials, chunks)

        counts = {chronology: np.zeros((n_a, n_b, 2, 2)) for chronology in cb.Chronology}
        differing = np.zeros((n_a, n_b))
        for row in range(rows):
            i, j = divmod(row // trials, n_b)
            realized = {}
            for chronology in cb.Chronology:
                stream = cb.LambdaFile(words[row]).stream()
                alpha, beta = realized[chronology] = cb.run_trial(
                    state, settings_a[i], settings_b[j], chronology, stream
                ).pair
                counts[chronology][i, j, int(alpha == -1), int(beta == -1)] += 1
            differing[i, j] += realized[cb.Chronology.AB] != realized[cb.Chronology.BA]
        for chronology, count in counts.items():
            freqs = count / trials
            np.testing.assert_array_equal(tables[chronology].cells, freqs)
            np.testing.assert_array_equal(
                tables[chronology].stderr, np.sqrt(freqs * (1.0 - freqs) / trials)
            )
            assert tables[chronology].trials == trials
        np.testing.assert_array_equal(divergence, differing / trials)


class TestEmptySettingList:
    """Every entry point with setting lists refuses an empty one, naming its party."""

    @pytest.mark.parametrize("party", ["A", "B"])
    def test_rejected_before_any_report(self, singlet, zz_settings, party):
        a, b = zz_settings
        settings = ([], [b]) if party == "A" else ([a], [])
        stream = cb.generate_lambda_file(seed=1, count=64).stream()
        message = f"the {party} setting list is empty"
        calls = [
            lambda: cb.distribution_covariance_check(singlet, *settings),
            lambda: cb.realization_divergence(singlet, *settings, 1, stream),
            lambda: cb.estimate_table(singlet, *settings, "AB", 1, stream),
            lambda: covariance_pass(singlet, *settings, 1, iter([])),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=message):
                call()
