"""The contract every immutable value class of acstk keeps, as one check.

`check_record(cls, fields, ...)` builds `cls` from `fields` (a dict of every
field name to its value, in declaration order) and asserts construction,
repr, equality, hashing, immutability, copying and pickling, and the exact
messages of rejected values.
"""

import copy
import pickle
import re
from types import SimpleNamespace

import pytest


def check_record(cls, fields, expected_repr, *, defaults=None, hashable=True, errors=()):
    """`defaults`: the trailing fields that have a default, mapped to it.
    `errors`: (overriding fields, exact `ValueError` message) pairs."""
    defaults = defaults or {}
    names, values = list(fields), list(fields.values())
    x = cls(*values)
    assert repr(x) == expected_repr
    same = [cls(**fields), cls(*values[:1], **dict(list(fields.items())[1:]))]
    required = len(names) - len(defaults)
    if defaults:
        z = cls(*values[:required])
        assert {n: getattr(z, n) for n in defaults} == defaults
        if all(fields[n] == d for n, d in defaults.items()):
            same.append(z)
    for y in same:
        assert y == x and not y != x and repr(y) == expected_repr

    if hashable:
        assert hash(x) == hash(tuple(getattr(x, n) for n in names))
        assert all(hash(y) == hash(x) for y in same)
        assert {y: "v" for y in same}[x] == "v"
    else:
        with pytest.raises(TypeError):
            hash(x)

    twin = copy.copy(x)  # same fields, but a subclass
    object.__setattr__(twin, "__class__", type("Twin", (cls,), {"__annotations__": dict(cls.__annotations__)}))
    stand_in = SimpleNamespace(**{n: getattr(x, n) for n in names})
    for other in (twin, stand_in, tuple(values), None):
        assert x != other and not x == other
        assert x.__eq__(other) is NotImplemented

    for name in names + ["not_a_field"]:
        with pytest.raises(AttributeError):
            setattr(x, name, values[0])
    for name in names:
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert x == same[0] and repr(x) == expected_repr

    for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(y) is cls and y == x and repr(y) == expected_repr

    with pytest.raises(TypeError):
        cls(*values[: required - 1])
    with pytest.raises(TypeError):
        cls(**dict(list(fields.items())[1:]))
    with pytest.raises(TypeError):
        cls(*values, not_a_field=1)
    with pytest.raises(TypeError):
        cls(*values, values[0])
    with pytest.raises(TypeError):
        cls(*values, **{names[0]: values[0]})

    for override, message in errors:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            cls(**{**fields, **override})
