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
    order, and assigning or deleting a field raises AttributeError.
    """

    __slots__ = ()

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
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._values()
