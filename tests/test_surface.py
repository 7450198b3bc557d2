"""The public surface of the package: what `acstk` exports, what its
constructors accept, and what it no longer provides anywhere."""

import ast
import importlib
import itertools
import os
import pkgutil
import re
import runpy
import subprocess
import sys
import types
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

import acstk
from acstk import (
    CDElement,
    GradedPoly,
    SphereCohomologyClass,
    basis_product,
    bernoulli,
    chern_character,
    classify_sphere,
    cli,
    l_polynomial,
    newton_polynomial,
    probe_alternative,
    q_coefficient,
    rational_sphere_point,
    replay_lemma_pontryagin_euler,
    s_coefficient,
    verify_j_structure,
)

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
    "embed",
    "AssociatorComparison.ratio",
    "AssociatorComparison.associator_real_part",
    "PowerSeries",
    "q_series",
    "s_series",
    "CDElement.zero",
    "CDElement.one",
    "CDElement.scalar",
    "CDElement.imaginary_part",
    "CDElement.__rmul__",
    "GradedPoly.__neg__",
    "GradedPoly.__pow__",
    "GradedPoly.evaluate",
    "SphereCohomologyClass.__sub__",
    "GradedPoly.truncate",
    "LemmaReplay",
]


def test_all_is_sorted_and_every_name_resolves():
    assert acstk.__all__ == sorted(acstk.__all__)
    assert len(set(acstk.__all__)) == len(acstk.__all__)
    for name in acstk.__all__:
        assert getattr(acstk, name) is not None, name


def _run(code: str, *flags: str) -> str:
    """Stdout of `code` in a fresh interpreter, started with `flags`, that
    imports acstk from src/."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run(
        [sys.executable, *flags, "-c", code], env=env, capture_output=True, text=True, timeout=60
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
    # the layers below the polynomial one take their rationals from acstk._exact;
    # sphere_acs raises the 7-line acstk.errors when N(u,v) = 2[p,u,v] fails
    exact = {"acstk", "acstk._exact", "acstk._record", "acstk.cayley_dickson"}
    sphere = exact | {"acstk.errors", "acstk.sphere_acs"}
    for statement, layers in [
        ("from acstk import CDElement", exact),
        ("from acstk import nijenhuis", sphere),
        ("from acstk import SphereCohomologyClass", {"acstk", "acstk._exact", "acstk._record", "acstk.char_class"}),
        (_sphere_algebra_imports(), sphere),
    ]:
        added = {m for m in _added_by(statement) if m.split(".")[0] == "acstk"}
        assert added == layers, statement


def test_no_layer_imports_typing():
    # -S: a site hook may preload typing, which would hide an import of it;
    # the CLI imports every layer, and nijenhuis reaches acstk.errors
    loaded = _run("import sys, acstk.cli\nfrom acstk import nijenhuis\nprint('typing' in sys.modules)", "-S")
    assert loaded.split() == ["False"]


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
    """Whether `obj` reaches `dotted`, counting the fields of a `Record`
    class: a field without a default is no class attribute."""
    for part in dotted.split("."):
        if part in getattr(obj, "_fields", ()):
            return True
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
    if "." in name and name.split(".")[0] not in REMOVED:  # the class itself stays
        assert any(_has(module, name.split(".")[0]) for module in [acstk, *SUBMODULES])
    for module in [acstk, *SUBMODULES]:
        assert not _has(module, name), f"{module.__name__}.{name}"


CONSTRUCTORS = pytest.mark.parametrize(
    "build",
    [
        lambda c: CDElement(1, [c, 0]),
        lambda c: GradedPoly(("x",), (1,), {(1,): c}),
        lambda c: SphereCohomologyClass(2, c, 0),
    ],
    ids=["CDElement", "GradedPoly", "SphereCohomologyClass"],
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


@CONSTRUCTORS
def test_constructors_refuse_bools(build):
    # bool subclasses int, so without a check True would read as 1
    for flag in (True, False):
        with pytest.raises(TypeError, match="bool"):
            build(flag)


@pytest.mark.parametrize(
    "value",
    [CDElement(1, [1, 2]), GradedPoly(("x",), (1,), {(1,): 1}), SphereCohomologyClass(2, 1, 1)],
    ids=["CDElement", "GradedPoly", "SphereCohomologyClass"],
)
def test_scalar_products_refuse_bools(value):
    # a CDElement takes its scalar on the right only, so `False * value`
    # fails for want of an operation rather than by the bool check
    assert value * 1 == value
    with pytest.raises(TypeError, match="bool"):
        value * True
    with pytest.raises(TypeError, match="bool"):
        False * value


def test_values_print_as_signed_sums():
    half = Fraction(-1, 2)
    assert str(CDElement(2, [-1, 1, -1, half])) == "-1 + e1 - e2 - 1/2*e3"
    assert str(CDElement(2, [0, 0, 0, 0])) == "0"
    x_y = {(0, 0): 3, (1, 0): 1, (0, 1): -1, (2, 0): half, (1, 1): -1}
    assert str(GradedPoly(("x", "y"), (1, 1), x_y)) == "3 + x - y - 1/2*x^2 - x*y"
    assert str(GradedPoly(("x",), (1,), {})) == "0"


LEVEL_TAKERS = {
    "CDElement": lambda n: CDElement(n, [1, 2, 3, 4]),
    "basis": lambda n: CDElement.basis(n, 0),
    "basis_product": lambda n: basis_product(n, 0, 0),
    "probe": lambda n: probe_alternative(n, samples=1),
}


@pytest.mark.parametrize(
    "build, bad, error, message",
    [
        *(
            pytest.param(
                build, bad, TypeError, f"level must be an int, got the {type(bad).__name__} {bad!r}",
                id=f"{name}-{type(bad).__name__}",
            )
            for name, build in LEVEL_TAKERS.items()
            for bad in (True, 2.0, "2")
        ),
        pytest.param(
            lambda w: GradedPoly(("x",), (w,), {(1,): 1}), True, TypeError, "generator weight must be an int, got the bool True",
            id="GradedPoly-weight-bool",
        ),
        pytest.param(
            lambda e: GradedPoly(("x",), (1,), {(e,): 1}), True, TypeError, "exponent must be an int, got the bool True",
            id="GradedPoly-exponent-bool",
        ),
    ],
)
def test_levels_weights_and_exponents_refuse_non_ints(build, bad, error, message):
    # True == 1 and 2.0 == 2, so a cached entry for 1 or 2 must not answer them
    basis_product(1, 0, 0), basis_product(2, 0, 0)
    with pytest.raises(error, match=re.escape(message)):
        build(bad)


#: c_1 of a line bundle, for `chern_character`
T = GradedPoly.generator(("t",), (1,), "t")

#: The integer parameters of the public API that gained their type check in
#: 0.13.0 or, the last two, 0.14.0, as (the noun their refusal names, a
#: call that passes the value)
INT_TAKERS = {
    "classify_sphere-samples": ("samples", lambda x: classify_sphere(6, samples=x)),
    "classify_sphere-seed": ("seed", lambda x: classify_sphere(6, seed=x)),
    "verify_j_structure-sphere": ("sphere dimension", lambda x: verify_j_structure(x, 1)),
    "verify_j_structure-samples": ("samples", lambda x: verify_j_structure(6, samples=x)),
    "verify_j_structure-seed": ("seed", lambda x: verify_j_structure(6, 1, seed=x)),
    "rational_sphere_point-sphere": ("sphere dimension", lambda x: rational_sphere_point(x, [0, 0])),
    "probe-samples": ("probe samples", lambda x: probe_alternative(2, samples=x)),
    "probe-seed": ("seed", lambda x: probe_alternative(2, seed=x)),
    "bernoulli": ("k", bernoulli),
    "q_coefficient": ("k", q_coefficient),
    "s_coefficient": ("k", s_coefficient),
    "l_polynomial": ("k", l_polynomial),
    "newton_polynomial": ("k", newton_polynomial),
    "replay_lemma_pontryagin_euler": ("k", replay_lemma_pontryagin_euler),
    "chern_character-max_weight": ("max_weight", lambda x: chern_character([T], max_weight=x)),
    "basis-index": ("basis index", lambda x: CDElement.basis(2, x)),
    "basis_product-i": ("basis index", lambda x: basis_product(2, x, 1)),
    "basis_product-j": ("basis index", lambda x: basis_product(2, 1, x)),
    "SphereCohomologyClass-sphere_dim": ("sphere dimension", lambda x: SphereCohomologyClass(x, 1, 0)),
    "GradedPoly.is_homogeneous": ("weight", lambda x: (T * T).is_homogeneous(x)),
}


@pytest.mark.parametrize(
    "noun, call, bad",
    [
        *(
            pytest.param(noun, call, bad, id=f"{name}-{type(bad).__name__}")
            for name, (noun, call) in INT_TAKERS.items()
            for bad in (True, 2.0, "2")
        ),
        # these returned a value before 0.13.0, as did the bool cases of
        # verify_j_structure samples ("samples": true), replay ("k": true)
        # and CDElement.basis (e1)
        pytest.param("seed", INT_TAKERS["classify_sphere-seed"][1], "x", id="classify_sphere-seed-x"),
        pytest.param("basis index", INT_TAKERS["basis_product-i"][1], 1.0, id="basis_product-i-1.0"),
    ],
)
def test_integer_arguments_refuse_non_ints(noun, call, bad):
    # the caches are typed: an entry for 1 or 2 must not answer True or 2.0
    for cached in (s_coefficient, l_polynomial, newton_polynomial):
        cached(1), cached(2)
    for i, j in itertools.product(range(4), repeat=2):
        basis_product(2, i, j)
    message = f"{noun} must be an int, got the {type(bad).__name__} {bad!r}"
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        call(bad)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: SphereCohomologyClass(0, 1, 0), "sphere dimension must be at least 1, got 0"),
        (lambda: (T * T).is_homogeneous(-1), "weight must be at least 0, got -1"),
    ],
    ids=["SphereCohomologyClass-sphere_dim", "GradedPoly.is_homogeneous"],
)
def test_class_and_polynomial_integers_refuse_values_below_their_bound(call, message):
    # before 0.14.0 these built a class on S^0 or returned False
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: chern_character(1, [T], max_weight=1),
        lambda: chern_character(1, [T], 1),
        lambda: (T * T).is_homogeneous(),
    ],
    ids=["chern_character-rank-keyword", "chern_character-rank-positional", "GradedPoly.is_homogeneous-no-weight"],
)
def test_removed_arguments_are_refused(call):
    # since 0.15.0 the rank of `chern_character` is the number of classes,
    # and `is_homogeneous` checks one given weight; a call in the old form
    # raises rather than reading its arguments another way
    with pytest.raises(TypeError):
        call()


def test_only_the_integer_rule_names_bool_in_an_isinstance_check():
    # _exact._check_int is the one integer-argument rule (and _exact._frac
    # refuses a bool coefficient); a copy of either elsewhere fails here
    copies = []
    for path in sorted(Path(acstk.__file__).parent.glob("*.py")):
        if path.name == "_exact.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance"
                and any(isinstance(name, ast.Name) and name.id == "bool" for name in ast.walk(node))
            ):
                copies.append(f"{path.name}:{node.lineno}")
    assert copies == []


#: The argv of each command that the reachability scan runs: every
#: subcommand, in text and JSON where it has both
SCAN_COMMANDS = [
    ["classify", "6", "--samples", "5"],
    ["classify", "6", "--samples", "5", "--json"],
    ["classify", "--range", "1..12", "--samples", "5"],
    ["classify", "--range", "1..12", "--samples", "5", "--json"],
    ["lpoly", "--k", "4"],
    ["lpoly", "--k", "4", "--latex"],
    ["series", "q", "--order", "6"],
    ["bernoulli", "--k", "6"],
    ["verify-j", "--sphere", "6", "--samples", "5"],
    ["verify-j", "--sphere", "6", "--samples", "5", "--json"],
    *(
        [command, "--sphere", "6", "--point", "1/2,-1,2/3,0,3,-5/7", "--u", "1,2,0,-1,1/2,3,0",
         "--v", "0,1,-2,1/3,0,1,1", *extra, *json_flag]
        for command, extra in (("nijenhuis", []), ("assoc-compare", ["--w", "0,0,1,1,1,0,-2"]))
        for json_flag in ([], ["--json"])
    ),
]

#: Public methods that no command or demo enters, each kept for a reason
#: (README, "Value classes"); every method of the `Record` base is exempt
UNENTERED = {
    "CDElement.real_part",  # printed by the imaginary-input checks of sphere_acs
    "GradedPoly.__eq__",  # every L-polynomial test compares by value
    "GradedPoly.__bool__",  # a zero polynomial is falsy
    "GradedPoly.__repr__",  # what a failing test prints
    "AlternativityReport.as_dict",  # printed by the sphere-algebra benchmark program
}


def _public_code() -> dict:
    """The code object of every public function and method (dunders
    included) defined in a module of acstk, by qualified name."""
    found = {}
    for module in SUBMODULES:
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            for attr, member in vars(obj).items() if isinstance(obj, type) else [("", obj)]:
                if attr.startswith("_") and not attr.endswith("__"):
                    continue
                # classmethod, cached_property, property, lru_cache
                for inner in ("__func__", "func", "fget", "__wrapped__"):
                    member = getattr(member, inner, member)
                if hasattr(member, "__code__"):
                    found[f"{name}.{attr}" if attr else name] = member.__code__
    return found


def test_every_public_method_is_reached_or_kept_on_purpose(capsys):
    # caches would answer without entering the function they wrap
    for module in SUBMODULES:
        for obj in vars(module).values():
            getattr(obj, "cache_clear", lambda: None)()
    entered = set()
    sys.setprofile(lambda frame, event, arg: event == "call" and entered.add(frame.f_code))
    try:
        codes = [cli.main(argv) for argv in SCAN_COMMANDS]
        for demo in sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py")):
            runpy.run_path(str(demo), run_name="__main__")
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    assert codes == [0] * len(SCAN_COMMANDS)
    unentered = {name for name, code in _public_code().items() if code not in entered}
    assert {name for name in unentered if not name.startswith("Record.")} == UNENTERED
