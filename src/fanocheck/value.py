"""Immutable value classes without the dataclasses module.

A subclass names its constructor's parameters, in order, in `_fields`,
stores each one in `__init__` with `set_field`, and lists them (and any
value derived from them) in `__slots__`.  Equality, the hash, the repr and
pickling then read exactly those fields, as a frozen dataclass's would.
"""

# Stores a field from __init__, past Value.__setattr__.
set_field = object.__setattr__


class Value:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._key()
