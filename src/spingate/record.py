"""Frozen records: the immutable value classes of the package.

A subclass of Record lists its fields as class annotations, in order; a
class attribute of the same name is that field's default. Every record
shares one __init__, __eq__, __hash__ and __repr__, which read the field
names from the class, so defining a record generates and compiles no code.
The semantics are those of a frozen dataclass: __init__ takes the fields
positionally or by keyword and then calls __post_init__, which may
normalise a field with object.__setattr__; assignment and deletion raise
FrozenRecordError; two records are equal when they are of the same class
and their field tuples are equal, and a record hashes as its field tuple;
the repr is "Name(field=value, ...)". frozen_array stores an array field as
a read-only copy, so the record neither shares memory with nor freezes the
array its caller passed. require_finite rejects an infinite or nan number in
the fields a record names, require_poisson_means a Poisson mean numpy
cannot draw from, before the draw, and require_finite_means an expectation
that overflowed; the last two name the input that scaled it.
"""

from __future__ import annotations

import inspect
import math

import numpy as np


class FrozenRecordError(AttributeError):
    """Raised on assignment to, or deletion of, an attribute of a record."""


class Record:
    """Base of the frozen records: see the module docstring."""

    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields if name in cls.__dict__}
        cls.__signature__ = inspect.Signature(
            [
                inspect.Parameter(
                    name,
                    inspect.Parameter.POSITIONAL_OR_KEYWORD,
                    default=cls._defaults.get(name, inspect.Parameter.empty),
                )
                for name in cls._fields
            ]
        )

    def __init__(self, *args, **kwargs):
        cls = type(self)
        fields = cls._fields
        if len(args) > len(fields):
            raise TypeError(
                f"{cls.__name__}() takes at most {len(fields)} positional arguments "
                f"but {len(args)} were given"
            )
        values = dict(zip(fields, args))
        for name, value in kwargs.items():
            if name not in fields:
                raise TypeError(f"{cls.__name__}() got an unexpected keyword argument {name!r}")
            if name in values:
                raise TypeError(f"{cls.__name__}() got multiple values for argument {name!r}")
            values[name] = value
        missing = [name for name in fields if name not in values and name not in cls._defaults]
        if missing:
            raise TypeError(f"{cls.__name__}() missing required arguments: {', '.join(missing)}")
        state = self.__dict__
        for name in fields:
            state[name] = values[name] if name in values else cls._defaults[name]
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise FrozenRecordError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenRecordError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        state = self.__dict__
        return tuple([state[name] for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        state = self.__dict__
        fields = ", ".join(f"{name}={state[name]!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


def frozen_array(values, dtype=float) -> np.ndarray:
    """A read-only copy of values as an array of dtype; dtype None keeps
    the dtype numpy gives values."""
    out = np.array(values, dtype=dtype)
    out.setflags(write=False)
    return out


def require_finite(record: Record, *names: str) -> None:
    """Raise ValueError for the first named field that is not a finite
    number; a field left None is not checked."""
    for name in names:
        value = record.__dict__[name]
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


# The largest mean numpy's Poisson sampler takes (its POISSON_LAM_MAX); above
# it numpy raises "lam value too large", naming neither input nor limit.
POISSON_MEAN_MAX = float(np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10)


def _require_means_within(means, quantity: str, limit: float, source: str) -> None:
    """Raise ValueError naming quantity, its largest mean and source's limit
    when a mean in means is above limit, or saying so when one is nan."""
    peak = float(np.max(means, initial=0.0))
    if math.isnan(peak):
        raise ValueError(f"{quantity} include nan")
    if not peak <= limit:
        raise ValueError(f"{quantity} reach {peak:.6g}, above {source} limit of {limit:.6g}")


def require_poisson_means(means, quantity: str) -> None:
    """Raise ValueError naming quantity when a Poisson mean in means is
    above POISSON_MEAN_MAX."""
    _require_means_within(means, quantity, POISSON_MEAN_MAX, "numpy's Poisson")


def require_finite_means(means, quantity: str) -> None:
    """Raise ValueError naming quantity when an expectation in means
    overflowed float64."""
    _require_means_within(means, quantity, float(np.finfo(float).max), "float64's")


def replace(record: Record, **changes) -> Record:
    """A copy of record with the given fields changed, built through the
    class's __init__, so __post_init__ validates it again."""
    return type(record)(**{**dict(zip(record._fields, record._values())), **changes})
