"""Immutable value classes.

Every value class of the library (verdicts, bracket expressions, word
generators) derives from ``Record``, which gives a class whose fields are
its ``__slots__`` the frozen-dataclass behaviour without importing
``dataclasses``: with ``inspect`` and ``ast`` that module holds about
0.8 MB in every process that loads it.

A record's hash is computed on first use and cached, so hashing a bracket
expression costs its distinct subtrees, not its expanded tree.  Fields must
not change after construction (``UniPoly``, whose dict is mutable, by
convention); pickling and copying rebuild a record from its fields.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    """Base of the library's immutable value classes; the fields are the
    class's ``__slots__``, in order.

    A record is built from its fields by position or by name, then
    ``__post_init__`` runs to validate them.  Records of one class are equal
    when their fields are; a record hashes (once, cached in the ``_hash``
    slot, which is not a field) and prints by its fields, matches ``case``
    class patterns positionally (``__match_args__``), cannot be changed after
    construction, and pickles and copies by its fields.
    """

    __slots__ = ("_hash",)

    def __init_subclass__(cls):
        names = cls.__slots__
        cls.__match_args__ = names
        cls._values = attrgetter(*names) if names else staticmethod(lambda record: ())

    def __init__(self, *values, **named):
        names = self.__slots__
        if named or len(values) != len(names):
            values = self._bind(values, named)
        for name, v in zip(names, values):
            object.__setattr__(self, name, v)
        self.__post_init__()

    @classmethod
    def _bind(cls, values, named) -> tuple:
        names = cls.__slots__
        if len(values) > len(names):
            raise TypeError(f"{cls.__name__} takes {len(names)} fields, got {len(values)}")
        bound = dict(zip(names, values))
        for name, v in named.items():
            if name not in names:
                raise TypeError(f"{cls.__name__} has no field {name!r}")
            if name in bound:
                raise TypeError(f"{cls.__name__} got field {name!r} twice")
            bound[name] = v
        missing = [name for name in names if name not in bound]
        if missing:
            raise TypeError(f"{cls.__name__} is missing fields {', '.join(missing)}")
        return tuple(bound[name] for name in names)

    def __post_init__(self):
        pass

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = hash(self._values(self))
            object.__setattr__(self, "_hash", h)
            return h

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")
