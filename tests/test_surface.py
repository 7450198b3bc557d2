"""The public surface of the package: what `acstk` exports, what its
constructors accept, and what it no longer provides anywhere."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
import types
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

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
    "random_element",
    "random_sphere_point",
    "random_tangent",
    "CDElement.from_dict",
    "TangentVector.scale",
    "SphereVerdict.to_json",
]


def test_all_is_sorted_and_every_name_resolves():
    assert acstk.__all__ == sorted(acstk.__all__)
    assert len(set(acstk.__all__)) == len(acstk.__all__)
    for name in acstk.__all__:
        assert getattr(acstk, name) is not None, name


def _run(code: str) -> str:
    """Stdout of `code` in a fresh interpreter that imports acstk from src/."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _added_by(statement: str) -> set:
    """The modules that `statement` adds; a module that a site hook
    preloads is not counted."""
    return set(_run(
        "import sys\n"
        "before = set(sys.modules)\n"
        f"{statement}\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    ).split())


def test_import_acstk_loads_no_layer():
    assert _added_by("import acstk") == {"acstk"}


def _sphere_algebra_imports() -> str:
    """The statements that import acstk in the sphere-algebra benchmark program."""
    tree = ast.parse((Path(__file__).resolve().parent.parent / "bench" / "sphere_driver.py").read_text())
    return "\n".join(
        ast.unparse(node) for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "acstk"
    )


def test_one_name_loads_its_own_layer_only():
    # the layers below the polynomial one take their rationals from acstk._exact
    exact = {"acstk", "acstk._exact", "acstk._record", "acstk.cayley_dickson"}
    for statement, layers in [
        ("from acstk import CDElement", exact),
        ("from acstk import nijenhuis", exact | {"acstk.sphere_acs"}),
        ("from acstk import SphereCohomologyClass", {"acstk", "acstk._exact", "acstk._record", "acstk.char_class"}),
        (_sphere_algebra_imports(), exact | {"acstk.sphere_acs"}),
    ]:
        added = {m for m in _added_by(statement) if m.split(".")[0] == "acstk"}
        assert added == layers, statement


def test_every_export_is_the_object_of_its_home_module():
    for module, names in acstk._EXPORTS.items():
        home = importlib.import_module(f"acstk.{module}")
        for name in names:
            assert getattr(acstk, name) is getattr(home, name), name


def test_dir_lists_every_export_before_its_first_use():
    listed = _run("import acstk\nprint(' '.join(dir(acstk)))\n")
    assert set(acstk.__all__) <= set(listed.split())


def test_layer_modules_are_attributes_after_a_plain_import():
    # as when `import acstk` ran every layer; the CLI is not a layer
    listed, reached, bound = _run(
        "import acstk, sys\n"
        "print(' '.join(m for m in acstk._EXPORTS if m in dir(acstk)))\n"
        "print(acstk.genera.bernoulli is acstk.bernoulli, hasattr(acstk, 'cli'))\n"
        "print(' '.join(m for m in acstk._EXPORTS if getattr(acstk, m) is sys.modules['acstk.' + m]))\n"
    ).splitlines()
    assert reached == "True False"
    assert listed.split() == bound.split() == list(acstk._EXPORTS)


def test_unknown_names_raise_the_standard_attribute_error():
    with pytest.raises(AttributeError) as plain:
        types.ModuleType("acstk").nope
    with pytest.raises(AttributeError) as lazy:
        acstk.nope
    assert str(lazy.value) == str(plain.value) == "module 'acstk' has no attribute 'nope'"


def test_star_import_binds_every_export():
    # in a fresh interpreter, so every name goes through the first-use import
    bound = _run(
        "from acstk import *\n"
        "import acstk\n"
        "print(' '.join(n for n in acstk.__all__ if globals().get(n) is getattr(acstk, n)))\n"
    )
    assert bound.split() == acstk.__all__


def _has(obj, dotted: str) -> bool:
    for part in dotted.split("."):
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def test_perf_kernels_still_collect():
    # the default run does not collect tests/perf_kernels.py, so a name it
    # imports could be removed without any other test failing
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", "tests/perf_kernels.py"],
        cwd=root, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.parametrize("name", REMOVED)
def test_removed_names_are_gone(name):
    assert {"acstk.symfun", "acstk.char_class", "acstk.genera"} <= {m.__name__ for m in SUBMODULES}
    if "." in name:  # the class itself stays
        assert _has(acstk, name.split(".")[0])
    for module in [acstk, *SUBMODULES]:
        assert not _has(module, name), f"{module.__name__}.{name}"


CONSTRUCTORS = pytest.mark.parametrize(
    "build",
    [
        lambda c: CDElement(1, [c, 0]),
        lambda c: GradedPoly(("x",), (1,), {(1,): c}),
        lambda c: PowerSeries([c, 1]),
        lambda c: SphereCohomologyClass(2, c, 0),
    ],
    ids=["CDElement", "GradedPoly", "PowerSeries", "SphereCohomologyClass"],
)


@CONSTRUCTORS
def test_constructors_refuse_floats(build):
    # 0.1 is the binary fraction 3602879701896397/36028797018963968, not 1/10
    with pytest.raises(TypeError, match="float"):
        build(0.1)
    assert build("1/10") == build(Fraction(1, 10))
    assert build(3) == build(Fraction(3))


@CONSTRUCTORS
def test_constructors_refuse_long_decimal_exponents(build):
    # Fraction("1e-99999999") builds 10^99999999 before it returns
    for text in ("1e4301", "1e-99999999", "-1E+0_4301", "1e" + "0" * 5000 + "4301"):
        with pytest.raises(ValueError, match="exponent"):
            build(text)
    assert build("1e4300") == build(10**4300)
    assert build(" -2.5e-04_300 ") == build(Fraction(-25, 10**4301))


@CONSTRUCTORS
def test_constructors_refuse_decimals(build):
    # Fraction(Decimal("1e99999999")) builds 10^99999999 before it returns,
    # so a Decimal is refused as a type, before its exponent is expanded
    for value in (Decimal("1e5000"), Decimal("0.1")):
        with pytest.raises(TypeError, match="Decimal"):
            build(value)


def test_values_print_as_signed_sums():
    half = Fraction(-1, 2)
    assert str(CDElement(2, [-1, 1, -1, half])) == "-1 + e1 - e2 - 1/2*e3"
    assert str(CDElement(2, [0, 0, 0, 0])) == "0"
    x_y = {(0, 0): 3, (1, 0): 1, (0, 1): -1, (2, 0): half, (1, 1): -1}
    assert str(GradedPoly(("x", "y"), (1, 1), x_y)) == "3 + x - y - 1/2*x^2 - x*y"
    assert str(GradedPoly(("x",), (1,), {})) == "0"
    assert str(PowerSeries([half, 1, -1, 0, half])) == "-1/2 + z - z^2 - 1/2*z^4 + O(z^5)"
