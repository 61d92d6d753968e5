"""Frozen records: immutable value classes with named fields.

A subclass lists its fields, in order, in ``__slots__`` (annotations of
the same names document their types) and the defaults of trailing fields
in ``_defaults``.  The base gives a constructor taking positional or
keyword arguments that then runs ``__post_init__``, equality between
instances of one class, the hash of the field tuple, the repr
``Name(field=value, ...)`` and no assignment or deletion.  No class is
built from generated source, so importing records is cheap.
"""

_set = object.__setattr__


class Record:
    __slots__ = ()
    _defaults: dict = {}

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if len(args) > len(names):
            raise TypeError(f"{type(self).__name__} takes {len(names)} fields")
        for name, value in zip(names, args):
            _set(self, name, value)
        if len(args) < len(names):
            for name in names[len(args):]:
                if name in kwargs:
                    _set(self, name, kwargs.pop(name))
                elif name in self._defaults:
                    _set(self, name, self._defaults[name])
                else:
                    raise TypeError(f"{type(self).__name__} missing field {name!r}")
        if kwargs:
            raise TypeError(f"{type(self).__name__} got unexpected field {min(kwargs)!r}")
        self.__post_init__()

    def __post_init__(self):
        pass

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):  # copy and pickle rebuild through the constructor
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")
