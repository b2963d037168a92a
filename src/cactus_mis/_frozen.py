"""Base of every immutable value class of the package.

Plain records (a family's shape, the catalog's claims, an asymptotic
estimate) take their fields as given through `Frozen.__init__`; the value
classes whose constructors normalise or validate (`UnivarPoly`,
`SizeDistribution`, `Graph`, ...) define their own `__init__`. Either way a
value is a plain `__slots__` class, not a frozen dataclass, because of what
every command-line start pays: `import dataclasses` loads `inspect`, `ast`,
`dis` and `tokenize` (about 9 ms), and each frozen dataclass compiles its
methods through `exec` (about 13 ms for 16 classes; measured on a 2-CPU
host). Nor is a record a tuple, so it equals only a value of its own class,
and the JSON writer refuses it rather than printing it as a list.
"""

from __future__ import annotations


class Frozen:
    """Fields in `__slots__`, set once by `__init__` through `object.__setattr__`.

    Equality, hashing, `repr` and pickling go by the field values in slot
    order (a dict field hashes by its items), and assigning or deleting a
    field raises AttributeError. `_trusted` builds a value from its fields
    unchecked; each class's docstring states the invariant its callers keep.
    """

    __slots__ = ()

    def __init__(self, *values):
        """A record holding `values`, one per slot in slot order, as given."""
        if len(values) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes {len(self.__slots__)} values, got {len(values)}")
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    @classmethod
    def _trusted(cls, *values):
        """A value holding `values` in slot order, taken unchecked and not copied."""
        obj = object.__new__(cls)
        for name, value in zip(cls.__slots__, values):
            object.__setattr__(obj, name, value)
        return obj

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if type(other) is type(self):
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(tuple(frozenset(v.items()) if isinstance(v, dict) else v for v in self._values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._values()
