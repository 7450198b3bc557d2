"""Immutable value records, without `dataclasses`: that module imports
`inspect` (with `ast`, `dis` and `tokenize`) and compiles each class's
methods with `exec`, a start-up cost for every acstk process."""

from operator import attrgetter


class Record:
    """Base of an immutable value class.

    A subclass declares its fields, in order, as its own class annotations;
    a class attribute of the same name is that field's default.  Instances
    take the fields positionally or by keyword, then run `__post_init__` if
    the class has one.  They are equal when of the same class with equal
    fields, hash as the tuple of their fields, print as
    ``Name(field=value, ...)`` and refuse assignment and deletion with
    `AttributeError`.  Fields live in the instance `__dict__`, which copy
    and pickle restore directly.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {f: cls.__dict__[f] for f in cls._fields if f in cls.__dict__}
        get = attrgetter(*cls._fields)  # returns a tuple for two or more fields
        cls._astuple = staticmethod((lambda x: (get(x),)) if len(cls._fields) == 1 else get)

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        self.__dict__.update(zip(fields, args))
        if hasattr(self, "__post_init__"):
            self.__post_init__()

    @classmethod
    def _bind(cls, args, kwargs) -> tuple:
        """All field values, in order, from a call that names some of them."""
        name, fields = cls.__qualname__, cls._fields
        if len(args) > len(fields) or not kwargs.keys() <= set(fields[len(args):]):
            raise TypeError(f"{name}() takes the fields {fields}")
        values = {**cls._defaults, **dict(zip(fields, args)), **kwargs}
        missing = [f for f in fields if f not in values]
        if missing:
            raise TypeError(f"{name}() is missing the fields {missing}")
        return tuple(values[f] for f in fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple(self) == other._astuple(other)

    def __hash__(self):
        return hash(self._astuple(self))

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
