"""The base of coxfold's small record classes.

A record lists its fields in ``__slots__``, in constructor order, and
writes its own ``__init__``.  ``Record`` compares by fields, only with an
instance of the same class, has no hash, and prints as
``Name(field=value, ...)``.  Copy and pickle rebuild a record through
its constructor, so they re-run its checks.  ``FrozenRecord`` adds a
hash by fields and rejects assignment; its ``__init__`` sets each field
through ``set_field``.

>>> class Point(FrozenRecord):
...     __slots__ = ("x", "y")
...     def __init__(self, x, y=0):
...         set_field(self, "x", x)
...         set_field(self, "y", y)
>>> Point(1) == Point(x=1, y=0), Point(1) == (1, 0), hash(Point(1)) == hash((1, 0))
(True, False, True)
>>> Point(2)
Point(x=2, y=0)
>>> Point(2).x = 3
Traceback (most recent call last):
    ...
AttributeError: cannot assign to field 'x'
"""

set_field = object.__setattr__


class Record:
    """A mutable record: equality and repr by fields, no hash."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class FrozenRecord(Record):
    """An immutable record, hashed by its fields."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
