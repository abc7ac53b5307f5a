"""The value-type contract of `chronobell.values.Frozen`, checked on every public value type.

Each frozen type refuses assignment and deletion with `AttributeError`, lists
its fields in its `repr`, and rejects a missing or unknown field with
`TypeError`. The seven `eq` types compare and hash by fields; the others, and
the two mutable types, compare by identity.
"""

import numpy as np
import pytest

import chronobell as cb
from chronobell.values import Frozen

A = cb.BlochSetting((0.0, 0.0, 1.0), "A")
B = cb.BlochSetting((1.0, 0.0, 0.0), "B")
EMPTY = np.zeros(0, dtype=np.int64)

# per type: its fields in order, whether it compares by fields, and the arguments of
# two instances; for an eq type the two differ in one field
VALUE_TYPES = {
    "BlochSetting": (("xyz", "party"), True, lambda: (((0.0, 0.0, 1.0), "A"), ((0.0, 0.0, 1.0), "B"))),
    "TwoQubitState": (("re", "im"), True, lambda: (([0, 1, 0, 0],), ([0, 0, 1, 0],))),
    "JointDistribution": (("values",), True, lambda: (([[0.5, 0], [0, 0.5]],), ([[0, 0.5], [0.5, 0]],))),
    "CorrelationTable": (
        ("settings_a", "settings_b", "values", "trials"), False,
        lambda: (([A], [B], [[[[0.25, 0.25], [0.25, 0.25]]]]),) * 2,
    ),
    "LocalModel": (
        ("responses_a", "responses_b", "weights"), False,
        lambda: (([[1], [1]], [[1], [-1]], [1.0]),) * 2,
    ),
    "StrategyQuadruple": (
        ("first_ab", "second_ab", "first_ba", "second_ba", "weights"), False,
        lambda: (([[1], [1]], [[[1], [1]]] * 2, [[1], [1]], [[[1], [1]]] * 2, [1.0]),) * 2,
    ),
    "BehaviorVector": (("values",), False, lambda: ((np.full((2, 2, 2, 2), 0.25),),) * 2),
    "ConstraintViolation": (
        ("equation", "a", "b", "lam", "lhs", "rhs"), True,
        lambda: (("alpha_consistency", 0, 1, 0, 1, -1), ("alpha_consistency", 0, 1, 1, 1, -1)),
    ),
    "ConstraintReport": (
        ("violations",), True,
        lambda: (((),), ((cb.ConstraintViolation("alpha_consistency", 0, 1, 0, 1, -1),),)),
    ),
    "FacetCheck": (
        ("max_facet_value", "signs", "tolerance"), False,
        lambda: ((2.0, ((1, 1), (1, -1)), 1e-9),) * 2,
    ),
    "MembershipResult": (
        ("weights", "reconstruction_error"), False,
        lambda: ((None, None),) * 2,
    ),
    "SearchResult": (
        ("vertices", "best_distance", "max_chsh", "alphabet_size", "tolerance"), False,
        lambda: (((0,), 0.5, 2.0, 1, 1e-6),) * 2,
    ),
    "TrialResult": (
        ("chronology", "alpha", "beta", "lambdas"), True,
        lambda: ((cb.Chronology.AB, 1, -1, (0.25, 0.5)), (cb.Chronology.BA, 1, -1, (0.25, 0.5))),
    ),
    "CovarianceReport": (
        ("settings_a", "settings_b", "distribution_max_diff", "divergence_fraction", "trials",
         "tolerance"), False,
        lambda: (((A,), (B,), None, None, 0, 1e-12),) * 2,
    ),
    "HitKernel": (("weights",), False, lambda: ((np.eye(2),),) * 2),
    "GridWavefunction": (("amplitudes",), False, lambda: ((np.array([1.0, 0.0]),),) * 2),
    "FlashRecord": (("time", "site", "particle"), True, lambda: ((0.5, 3, 1), (0.5, 3, 0))),
    "FlashEnsemble": (
        ("run", "time", "particle", "site", "hit_counts"), False,
        lambda: ((EMPTY, np.zeros(0), EMPTY, EMPTY, np.zeros(1, dtype=np.int64)),) * 2,
    ),
    "OrderingReport": (
        ("tolerance", "joint_first_then_second", "joint_second_then_first"), False,
        lambda: ((1e-12, np.zeros((2, 2)), np.zeros((2, 2))),) * 2,
    ),
    "LambdaFile": (("words", "seed_note"), False, lambda: (([1, 2, 3],), ([1, 2, 3], 5))),
}


def make(name: str):
    """The type and its two instances."""
    cls, (fields, _, args) = getattr(cb, name), VALUE_TYPES[name]
    first, second = args()
    return cls, cls(*first), cls(*second)


def test_every_public_value_type_is_listed():
    frozen = {n for n in cb.__all__ if isinstance(getattr(cb, n), type)
              and issubclass(getattr(cb, n), Frozen)}
    assert frozen == set(VALUE_TYPES)


@pytest.mark.parametrize("name", VALUE_TYPES)
def test_fields_refuse_assignment_and_deletion(name):
    _, value, _ = make(name)
    for field in VALUE_TYPES[name][0]:
        before = getattr(value, field)
        with pytest.raises(AttributeError):
            setattr(value, field, before)
        with pytest.raises(AttributeError):
            delattr(value, field)
        assert getattr(value, field) is before
    with pytest.raises(AttributeError):
        value.not_a_field = 1


@pytest.mark.parametrize("name", VALUE_TYPES)
def test_eq_types_compare_and_hash_by_fields_the_others_by_identity(name):
    cls, value, other = make(name)
    fields, eq, args = VALUE_TYPES[name]
    same = cls(*args()[0])
    assert value == value
    if eq:
        assert same == value and hash(same) == hash(value)
        assert other != value
        assert value != tuple(getattr(value, f) for f in fields)  # another class
        twin = type(name, (Frozen,), {"__annotations__": dict.fromkeys(fields)}, eq=True)
        assert value != twin(*(getattr(value, f) for f in fields))  # same fields, another class
    else:
        assert same != value and other != value
        assert hash(value) == object.__hash__(value)


@pytest.mark.parametrize("name", VALUE_TYPES)
def test_missing_or_unknown_field_raises_type_error(name):
    cls = getattr(cb, name)
    first = VALUE_TYPES[name][2]()[0]
    with pytest.raises(TypeError):
        cls(*first[:-1])
    with pytest.raises(TypeError):
        cls(*first, not_a_field=1)


@pytest.mark.parametrize("name", VALUE_TYPES)
def test_repr_lists_the_fields_in_order(name):
    _, value, _ = make(name)
    text = repr(value)
    assert text.startswith(f"{name}(") and text.endswith(")")
    positions = [text.index(f"{field}=") for field in VALUE_TYPES[name][0]]
    assert positions == sorted(positions)


def test_default_init_takes_keywords_and_defaults_and_keeps_field_order():
    run, time = np.array([0, 1]), np.array([0.5, 0.25])
    ensemble = cb.FlashEnsemble(hit_counts=np.array([1, 1]), site=run, particle=run,
                                time=time, run=run)
    assert list(vars(ensemble)) == ["run", "time", "particle", "site", "hit_counts"]
    assert ensemble.time is time
    assert cb.LambdaFile([7]).seed_note == 0
    with pytest.raises(TypeError):
        cb.FlashRecord(0.5, 3, 1, time=0.25)  # given twice
    with pytest.raises(TypeError):
        cb.FlashRecord(0.5, 3, 1, 0)  # one too many


def test_post_init_checks_run_on_the_default_init():
    with pytest.raises(ValueError):
        cb.TrialResult(cb.Chronology.AB, 2, 1, (0.25, 0.5))
    with pytest.raises(ValueError):
        cb.HitKernel(weights=np.ones((2, 2)))


def test_mutable_types_are_plain_and_compare_by_identity():
    history = cb.FlashHistory()
    history.records.append(cb.FlashRecord(0.5, 3, 1))
    assert len(history) == 1 and history.final_state is None
    assert cb.FlashHistory() != cb.FlashHistory()
    lf = cb.LambdaFile([1, 2, 3])
    stream = lf.stream()
    stream.next_real()
    assert stream.position == 1 and stream.length == 3
    assert lf.stream() != lf.stream()
