"""Bases of the public record classes, driven by each class's _fields tuple.

A record's __init__ stores its fields in __dict__ (a frozen record cannot
assign them), so functools.cached_property and private slots work as on any
plain class.
"""


class Record:
    """repr lists the _fields in order; equality and hashing are by identity."""

    _fields = ()

    def __repr__(self):
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({args})"


class FrozenRecord(Record):
    """A Record whose attributes cannot be assigned or deleted."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class ValueRecord(FrozenRecord):
    """A FrozenRecord that equals a record of its own class with equal fields,
    and hashes as the tuple of its fields."""

    def _values(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())
