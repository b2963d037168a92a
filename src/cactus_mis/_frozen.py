"""Base of the immutable value classes whose constructors normalise or validate.

They are plain `__slots__` classes, and the plain records elsewhere are
`typing.NamedTuple`s, rather than frozen dataclasses because of what every
command-line start pays: `import dataclasses` loads `inspect`, `ast`, `dis`
and `tokenize` (about 9 ms), and each frozen dataclass compiles its methods
through `exec` (about 13 ms for 16 classes, against 2 ms as NamedTuples;
measured on a 2-CPU host).
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
