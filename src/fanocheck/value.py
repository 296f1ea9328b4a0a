"""Immutable value classes without the dataclasses module.

A subclass names its fields, in order, in `_fields`, and lists them (and
any value derived from them) in `__slots__`.  Unless it defines its own
`__init__`, it gets one that takes the fields in that order and stores
each, the last `_optional` of them defaulting to None; an `__init__` of
its own takes the same parameters and stores each field with `set_field`.
Equality, the hash, the repr and pickling then read exactly those fields,
as a frozen dataclass's would.
"""

# Stores a field from __init__, past Value.__setattr__.
set_field = object.__setattr__


class Value:
    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _optional = 0

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "__init__" in cls.__dict__ or "_fields" not in cls.__dict__:
            return
        # Built from source, as collections.namedtuple builds its __new__,
        # so the constructor is as fast as one written out.
        fields = cls._fields
        required = len(fields) - cls._optional
        params = [name if i < required else f"{name}=None" for i, name in enumerate(fields)]
        body = "".join(f"\n    set_field(self, {name!r}, {name})" for name in fields)
        namespace = {"set_field": set_field, "__name__": cls.__module__}
        exec(f"def __init__(self, {', '.join(params)}):{body}", namespace)
        init = namespace["__init__"]
        init.__qualname__ = f"{cls.__qualname__}.__init__"
        cls.__init__ = init

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
