"""Immutable value types, written out rather than generated as dataclasses.

A value type names its fields in ``__slots__``; ``__init__`` writes each one
once, and a later assignment or deletion raises AttributeError.  Equality,
hash and repr are those of a frozen dataclass.  The types built in bulk
write their own ``__init__`` (and ``__eq__``, ``__hash__`` where those run
in bulk too), since the generic methods below loop over the fields.
"""

setfield = object.__setattr__


class Value:
    __slots__ = ()

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        values = args + tuple(kwargs.pop(f) for f in names[len(args):]
                              if f in kwargs)
        if kwargs or len(values) != len(names):
            raise TypeError(f"{type(self).__name__} takes the fields "
                            f"{', '.join(names)}")
        for name, v in zip(names, values):
            setfield(self, name, v)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def _fields(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())
