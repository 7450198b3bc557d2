"""The public surface of the package: what `acstk` exports, and what it
no longer provides anywhere."""

import importlib
import pkgutil

import pytest

import acstk

SUBMODULES = [
    importlib.import_module(f"acstk.{info.name}") for info in pkgutil.iter_modules(acstk.__path__)
]


def test_all_is_sorted_and_every_name_resolves():
    assert acstk.__all__ == sorted(acstk.__all__)
    assert len(set(acstk.__all__)) == len(acstk.__all__)
    for name in acstk.__all__:
        assert getattr(acstk, name) is not None, name


@pytest.mark.parametrize("name", ["MultiPoly", "reduce_to_elementary", "substitute", "euler_from_top_chern"])
def test_removed_names_are_gone(name):
    assert {"acstk.symfun", "acstk.char_class"} <= {m.__name__ for m in SUBMODULES}
    for module in [acstk, *SUBMODULES]:
        assert not hasattr(module, name), f"{module.__name__}.{name}"
