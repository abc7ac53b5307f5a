"""`Frozen`, the base of the package's value types, and the numerical rules that
`quantum`, `flash`, `localpolytope` and `strategies` share, with the two maxima the
parser checks. It imports nothing: a short process pays neither for loading `inspect`
nor for generating code per class, and `flash` and the parser read these without
compiling `quantum`."""

ATOL = 1e-12
_ZERO_BRANCH = 1e-24  # collapse and flash.apply_hit refuse a branch this light
_SKIP_BRANCH = 1e-20  # exact laws skip a branch this light; the mass lost is below any tolerance
_PHASE_CUTOFF = 1e-12
MAX_EXACT_SITES = 32  # largest grid flash.ordering_invariance_exact accepts
MAX_SEARCH_ALPHABET = 8  # largest alphabet localpolytope.exhaustive_nogo_search accepts


def _frozen(values, dtype=float):
    """A read-only ndarray of `values`; the first call loads numpy."""
    import numpy as np

    arr = np.array(values, dtype=dtype)
    arr.flags.writeable = False
    return arr


def _phase(re, im) -> tuple[float, float]:
    """conj(lead) / |lead| as (c, s), lead the first entry of magnitude over _PHASE_CUTOFF;
    a unit vector of n entries, as every caller's, has one of magnitude >= 1/sqrt(n)."""
    for r, i in zip(re, im):
        size = abs(complex(r, i))
        if size > _PHASE_CUTOFF:
            return r * (1.0 / size), i * (1.0 / size)


class Frozen:
    """Read-only fields: a subclass's own annotations, in order, a class attribute the default.

    `__init__` takes them by position or keyword, stores them in field order and
    calls `__post_init__`; that, or a custom `__init__`, sets them through ``vars(self)``.
    ``class X(Frozen, eq=True)`` compares and hashes by fields, the others by identity.
    """

    def __init_subclass__(cls, eq: bool = False) -> None:
        cls._fields = tuple(vars(cls).get("__annotations__", ()))
        if eq:
            cls.__eq__, cls.__hash__ = _eq, lambda self: hash(_values(self))

    def __init__(self, *args, **kwargs) -> None:
        names = self._fields
        values = {**vars(type(self)), **dict(zip(names, args)), **kwargs}
        if len(args) > len(names) or {*kwargs} - {*names[len(args):]} or {*names} - {*values}:
            raise TypeError(f"{type(self).__name__}() takes the fields {names}, got "
                            f"{len(args)} by position and {sorted(kwargs)} by keyword")
        vars(self).update({name: values[name] for name in names})
        self.__post_init__()

    def __post_init__(self) -> None:
        """Check and normalize the fields; nothing by default."""

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, _values(self)))
        return f"{type(self).__qualname__}({fields})"


def _values(value: Frozen) -> tuple:
    return tuple(getattr(value, name) for name in value._fields)


def _eq(self, other):
    return _values(self) == _values(other) if other.__class__ is self.__class__ else NotImplemented
