"""Immutable value records: the one base class behind avgalg's value types.

A record's fields are the public names in its ``__slots__``, inherited
fields first.  Two records are equal exactly when they have the same class
and equal fields, a record hashes as the tuple of its fields, ``repr``
reads ``Name(field=value, ...)``, and assigning or deleting an attribute
raises ``AttributeError``.  Slots whose names start with ``_`` are private
state outside equality, hash and repr.

The generic ``__init__`` takes the fields positionally, the trailing ones
defaulting to ``_defaults``.  Types built on hot paths write their own
``__init__`` that stores each field with ``set_field`` (that is,
``object.__setattr__``), which is cheaper than the generic loop.
"""

from operator import attrgetter

set_field = object.__setattr__


def _fields_of(fields):
    """A function from a record to the tuple of its ``fields``."""
    if len(fields) > 1:
        return attrgetter(*fields)
    if fields:
        get = attrgetter(fields[0])
        return lambda record: (get(record),)
    return lambda record: ()


class Record:
    __slots__ = ()
    _fields = ()
    _defaults = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields += tuple(
            s for s in vars(cls).get("__slots__", ()) if not s.startswith("_"))
        cls._astuple = staticmethod(_fields_of(cls._fields))

    def __init__(self, *args):
        fields, defaults = self._fields, self._defaults
        missing = len(fields) - len(args)
        if 0 < missing <= len(defaults):
            args += defaults[-missing:]
        if len(args) != len(fields):
            raise TypeError(f"{type(self).__name__}() takes {len(fields)} "
                            f"fields, got {len(args)}")
        for name, value in zip(fields, args):
            set_field(self, name, value)

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple(self) == other._astuple(other)

    def __hash__(self):
        return hash(self._astuple(self))

    def __repr__(self):
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
