"""The one exact path: every exact table is built on `quantum.exact_table`.

The oracles are the per-module setting-pair loops that `exact_table` replaced,
kept verbatim over the library's `born_marginal` and `collapse`; the
properties require bit-for-bit equality (`==`, not a tolerance), because the
reports are pinned byte for byte.
"""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chronobell as cb
from chronobell import chronology, quantum

SOURCE = Path(cb.__file__).parent


def oracle_joint(state, a, b, ordering):
    first, second = (a, b) if ordering == "AB" else (b, a)
    probs = np.zeros((2, 2))
    for i, first_outcome in enumerate(cb.OUTCOMES):
        p_first = cb.born_marginal(state, first, first_outcome)
        if p_first <= 1e-20:
            continue
        post = cb.collapse(state, first, first_outcome)
        for j, second_outcome in enumerate(cb.OUTCOMES):
            p_second = cb.born_marginal(post, second, second_outcome)
            if ordering == "AB":
                probs[i, j] = p_first * p_second
            else:
                probs[j, i] = p_first * p_second
    return probs


def oracle_behavior(state, a0, a1, b0, b1, ordering):
    probs = np.zeros((2, 2, 2, 2))
    for i, a in enumerate((a0, a1)):
        for j, b in enumerate((b0, b1)):
            probs[i, j] = oracle_joint(state, a, b, ordering)
    return probs


def oracle_chsh(state, a, a2, b, b2):
    def corr(x, y):
        p = oracle_joint(state, x, y, "AB")
        return float(p[0, 0] - p[0, 1] - p[1, 0] + p[1, 1])

    return corr(a, b) + corr(a, b2) + corr(a2, b) - corr(a2, b2)


def oracle_distribution_diffs(state, settings_a, settings_b):
    diffs = np.zeros((len(settings_a), len(settings_b)))
    for i, a in enumerate(settings_a):
        for j, b in enumerate(settings_b):
            ab = oracle_joint(state, a, b, "AB")
            ba = oracle_joint(state, a, b, "BA")
            diffs[i, j] = np.max(np.abs(ab - ba))
    return diffs


def oracle_correlators(p):
    return p[:, :, 0, 0] - p[:, :, 0, 1] - p[:, :, 1, 0] + p[:, :, 1, 1]


def oracle_defect(probs):
    marg_a = probs.sum(axis=3)
    marg_b = probs.sum(axis=2)
    return float(
        max(
            (marg_a.max(axis=1) - marg_a.min(axis=1)).max(),
            (marg_b.max(axis=0) - marg_b.min(axis=0)).max(),
        )
    )


@st.composite
def scenarios(draw):
    """A random or product state and four settings; grid angles hit the skipped branches."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    state = cb.make_product_state() if draw(st.booleans()) else cb.random_pure_state(rng)
    angles = st.one_of(st.sampled_from([0.0, 90.0, 180.0]), st.floats(-360.0, 360.0))
    settings = tuple(cb.BlochSetting.from_angle(draw(angles), party) for party in "AABB")
    return state, settings


class TestExactPath:
    @settings(max_examples=200, deadline=None)
    @given(scenario=scenarios(), ordering=st.sampled_from(["AB", "BA"]))
    def test_every_exact_route_equals_the_pair_loops(self, scenario, ordering):
        state, (a0, a1, b0, b1) = scenario
        expected = oracle_behavior(state, a0, a1, b0, b1, ordering)
        for i, a in enumerate((a0, a1)):
            for j, b in enumerate((b0, b1)):
                jd = cb.joint_distribution(state, a, b, ordering)
                assert np.array_equal(jd.probs, expected[i, j])
                p = expected[i, j]
                assert jd.correlator() == float(p[0, 0] - p[0, 1] - p[1, 0] + p[1, 1])

        table = cb.exact_table(state, (a0, a1), (b0, b1), ordering)
        assert np.array_equal(table.cells, expected)
        assert table.no_signaling_defect() == oracle_defect(expected)
        corr = oracle_correlators(expected)
        assert [[table.correlator(i, j) for j in range(2)] for i in range(2)] == corr.tolist()

        behavior = cb.quantum_behavior(state, a0, a1, b0, b1, ordering)
        assert np.array_equal(behavior.probs, expected)
        assert np.array_equal(behavior.correlators(), corr)
        assert behavior.no_signaling_defect() == oracle_defect(expected)

        assert cb.chsh_value(state, a0, a1, b0, b1) == oracle_chsh(state, a0, a1, b0, b1)
        report = cb.distribution_covariance_check(state, (a0, a1), (b0, b1))
        assert np.array_equal(
            report.distribution_max_diff, oracle_distribution_diffs(state, (a0, a1), (b0, b1))
        )

    def test_empty_grids_have_no_signaling_defect(self, singlet, chsh_settings):
        a, _, b, _ = chsh_settings
        for settings_a, settings_b in (((), (b,)), ((a,), ()), ((), ())):
            table = cb.exact_table(singlet, settings_a, settings_b)
            assert table.no_signaling_defect() == 0.0

    def test_settings_may_be_one_shot_iterables(self, singlet, chsh_settings):
        a, a2, b, b2 = chsh_settings
        report = cb.distribution_covariance_check(singlet, iter([a, a2]), iter([b, b2]))
        assert report.distribution_max_diff.shape == (2, 2)
        assert report.settings_a == (a, a2) and report.settings_b == (b, b2)


class TestChronologyType:
    def test_one_enum_everywhere(self):
        assert cb.Chronology is chronology.Chronology is quantum.Chronology

    def test_enum_and_string_give_identical_results(self, rng):
        state = cb.random_pure_state(rng)
        a0, a1, b0, b1 = (cb.random_setting(rng, party) for party in "AABB")
        for member in cb.Chronology:
            by_enum = cb.joint_distribution(state, a0, b0, member)
            by_str = cb.joint_distribution(state, a0, b0, member.value)
            assert np.array_equal(by_enum.probs, by_str.probs)
            tables = [cb.exact_table(state, (a0, a1), (b0, b1), o) for o in (member, member.value)]
            assert np.array_equal(tables[0].cells, tables[1].cells)
            behaviors = [cb.quantum_behavior(state, a0, a1, b0, b1, o) for o in (member, member.value)]
            assert np.array_equal(behaviors[0].probs, behaviors[1].probs)

    def test_unknown_order_rejected(self, singlet, chsh_settings):
        a, a2, b, b2 = chsh_settings
        with pytest.raises(ValueError):
            cb.joint_distribution(singlet, a, b, "XY")
        with pytest.raises(ValueError):
            cb.exact_table(singlet, (a, a2), (b, b2), "XY")
        with pytest.raises(ValueError):
            cb.exact_table(singlet, (), (), "XY")
        with pytest.raises(ValueError):
            cb.quantum_behavior(singlet, a, a2, b, b2, "XY")


def relative_imports(module_file):
    """Module names a source file imports relatively (`from .x import` and `from . import x`)."""
    names = set()
    for node in ast.walk(ast.parse(module_file.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                names.add(node.module.split(".")[0])
            else:
                names.update(alias.name for alias in node.names)
    return names


@pytest.mark.parametrize("module", ["localpolytope.py", "quantum.py"])
def test_exact_modules_do_not_import_the_sampling_stack(module):
    imported = relative_imports(SOURCE / module)
    assert imported, "expected the module to import something relatively"
    assert not imported & {"chronology", "lambdafile"}
