"""The public surface of the package: what `acstk` exports, what its
constructors accept, and what it no longer provides anywhere."""

import importlib
import pkgutil
from fractions import Fraction

import pytest

import acstk
from acstk import CDElement, GradedPoly, PowerSeries, SphereCohomologyClass

SUBMODULES = [
    importlib.import_module(f"acstk.{info.name}") for info in pkgutil.iter_modules(acstk.__path__)
]

REMOVED = [
    "MultiPoly",
    "reduce_to_elementary",
    "substitute",
    "euler_from_top_chern",
    "TotalClass",
    "whitney_product",
    "conjugate_classes",
    "pontryagin_from_complexification",
    "KIND_STIEFEL_WHITNEY",
    "KIND_CHERN",
    "KIND_PONTRYAGIN",
    "_DEGREE_STRIDE",
    "q_series_closed_form",
    "PowerSeries.compose",
    "PowerSeries.identity",
    "CDElement.from_coeffs",
    "tanh_over_w_in_z",
    "cosh_series",
    "exp_series",
    "sinh_series",
    "PowerSeries.zero",
    "PowerSeries.one",
    "PowerSeries.truncate",
    "PowerSeries.scale_argument",
    "PowerSeries.shift_down",
    "PowerSeries.in_square_variable",
    "PowerSeries.__add__",
    "PowerSeries.__sub__",
    "PowerSeries.__neg__",
    "PowerSeries.__mul__",
    "PowerSeries.__truediv__",
]


def test_all_is_sorted_and_every_name_resolves():
    assert acstk.__all__ == sorted(acstk.__all__)
    assert len(set(acstk.__all__)) == len(acstk.__all__)
    for name in acstk.__all__:
        assert getattr(acstk, name) is not None, name


def _has(obj, dotted: str) -> bool:
    for part in dotted.split("."):
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


@pytest.mark.parametrize("name", REMOVED)
def test_removed_names_are_gone(name):
    assert {"acstk.symfun", "acstk.char_class", "acstk.genera"} <= {m.__name__ for m in SUBMODULES}
    if "." in name:  # the class itself stays
        assert _has(acstk, name.split(".")[0])
    for module in [acstk, *SUBMODULES]:
        assert not _has(module, name), f"{module.__name__}.{name}"


@pytest.mark.parametrize(
    "build",
    [
        lambda c: CDElement(1, [c, 0]),
        lambda c: CDElement.from_dict({"level": 1, "coeffs": [c, 0]}),
        lambda c: GradedPoly(("x",), (1,), {(1,): c}),
        lambda c: PowerSeries([c, 1]),
        lambda c: SphereCohomologyClass(2, c, 0),
    ],
    ids=["CDElement", "CDElement.from_dict", "GradedPoly", "PowerSeries", "SphereCohomologyClass"],
)
def test_constructors_refuse_floats(build):
    # 0.1 is the binary fraction 3602879701896397/36028797018963968, not 1/10
    with pytest.raises(TypeError, match="float"):
        build(0.1)
    assert build("1/10") == build(Fraction(1, 10))
    assert build(3) == build(Fraction(3))
