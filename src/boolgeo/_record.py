"""Frozen value records: what ``@dataclass(frozen=True)`` gave the
package's value types, without importing :mod:`dataclasses` (and
:mod:`inspect` with it) when the package starts.

A subclass lists its fields in ``__slots__`` and assigns them in its own
``__init__`` with :func:`setfield`.  Equality compares the field tuples of
two instances of one class, the hash is that of the field tuple, and the
repr reads ``Name(field=value, ...)``, as dataclasses generate them.
"""

from operator import attrgetter

# Assigns a field past the frozen __setattr__, as a dataclass __init__ does.
setfield = object.__setattr__


def _frozen(action: str, name: str) -> AttributeError:
    from dataclasses import FrozenInstanceError

    return FrozenInstanceError(f"cannot {action} field {name!r}")


def restore(cls, values):
    """An instance of ``cls`` holding the field ``values``, built without
    ``__init__``, as a dataclass instance is unpickled."""
    record = cls.__new__(cls)
    for name, value in zip(cls.__match_args__, values):
        setfield(record, name, value)
    return record


class Record:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = cls.__slots__
        get = attrgetter(*fields)
        cls.__match_args__ = fields
        # The field values as a tuple, which attrgetter of one name is not.
        cls._values = staticmethod(get if len(fields) > 1 else lambda record: (get(record),))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = zip(self.__match_args__, self._values(self))
        return f"{self.__class__.__qualname__}({', '.join(f'{k}={v!r}' for k, v in fields)})"

    def __setattr__(self, name, value):
        raise _frozen("assign to", name)

    def __delattr__(self, name):
        raise _frozen("delete", name)

    def __reduce__(self):
        return restore, (self.__class__, self._values(self))
