"""Property tests over seeded, derandomized hypothesis searches.

The integer-vector operations of the doubling algebras against
per-coefficient `Fraction` arithmetic at levels 0-4, algebra identities
at level 3, the complex-structure laws of J on S^2 and S^6, and the
Nijenhuis tensor against both independent oracles.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acstk.cayley_dickson import CDElement
from acstk.sphere_acs import (
    SPHERE_LEVEL,
    j_apply,
    nijenhuis,
    rational_sphere_point,
    tangent_projection,
)
from oracles import (
    coeff_add,
    coeff_conjugate,
    coeff_inner,
    coeff_neg,
    coeff_scale,
    coeff_sub,
    doubling_product,
    nijenhuis_fd,
    nijenhuis_six_products,
    nijenhuis_symbolic,
)

PROPERTY = settings(derandomize=True, deadline=None, max_examples=40)

rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))
octonions = st.lists(rationals, min_size=8, max_size=8).map(lambda cs: CDElement(3, tuple(cs)))


@st.composite
def frames(draw, sphere_dim):
    """A rational point p of S^sphere_dim and two tangent vectors at p."""
    p = rational_sphere_point(
        sphere_dim, draw(st.lists(rationals, min_size=sphere_dim, max_size=sphere_dim))
    )
    level = SPHERE_LEVEL[sphere_dim]
    comps = st.lists(rationals, min_size=sphere_dim + 1, max_size=sphere_dim + 1)
    u, v = (
        tangent_projection(p, CDElement(level, (Fraction(0), *draw(comps))))
        for _ in range(2)
    )
    return p, u, v


any_frame = st.sampled_from([2, 6]).flatmap(frames)

# zeros, small and large mixed denominators, so sums and products both
# cancel common factors and carry big ones
mixed = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-60, 60), st.sampled_from([1, 2, 3, 4, 6, 7, 12, 97, 10**12 + 39])),
)
scalars = st.one_of(st.integers(-6, 6), mixed)


@st.composite
def element_pairs(draw):
    """Two elements of one level 0..4."""
    level = draw(st.integers(0, 4))
    coeffs = st.lists(mixed, min_size=1 << level, max_size=1 << level)
    return tuple(CDElement(level, tuple(draw(coeffs))) for _ in range(2))


def assert_canonical(x, level):
    assert x.level == level and len(x.num) == 1 << level
    assert type(x.num) is tuple and all(type(n) is int for n in x.num)
    assert type(x.den) is int and x.den > 0 and gcd(x.den, *x.num) == 1
    assert x.coeffs == tuple(Fraction(n, x.den) for n in x.num)


@PROPERTY
@given(element_pairs(), scalars)
def test_vector_operations_match_per_coefficient_arithmetic(pair, q):
    a, b = pair
    ca, cb = a.coeffs, b.coeffs
    results = [
        (a, ca),
        (a + b, coeff_add(ca, cb)),
        (a - b, coeff_sub(ca, cb)),
        (a - a, coeff_sub(ca, ca)),
        (-a, coeff_neg(ca)),
        (a * q, coeff_scale(ca, q)),
        (a.conjugate(), coeff_conjugate(ca)),
        (a * b, doubling_product(ca, cb)),
    ]
    for value, expected in results:
        assert_canonical(value, len(expected).bit_length() - 1)
        assert value.coeffs == expected
        rebuilt = CDElement(value.level, expected)
        assert value == rebuilt and hash(value) == hash(rebuilt)
    assert a.inner(b) == coeff_inner(ca, cb)
    assert a.norm_sq() == coeff_inner(ca, ca)
    assert a.real_part() == ca[0]
    assert a.is_imaginary() == (ca[0] == 0)
    assert bool(a) == any(ca)


@PROPERTY
@given(octonions, octonions, octonions)
def test_moufang_identities(x, y, z):
    assert z * (x * (z * y)) == ((z * x) * z) * y
    assert x * (z * (y * z)) == ((x * z) * y) * z
    assert (z * x) * (y * z) == (z * (x * y)) * z
    assert (z * x) * (y * z) == z * ((x * y) * z)


@PROPERTY
@given(octonions, octonions)
def test_norm_composition(a, b):
    assert (a * b).norm_sq() == a.norm_sq() * b.norm_sq()


@PROPERTY
@given(any_frame)
def test_j_is_an_orthogonal_complex_structure(frame):
    p, u, _ = frame
    ju = j_apply(u)
    assert j_apply(ju).vector == -u.vector
    assert ju.vector.inner(p.vector) == 0
    assert ju.vector.norm_sq() == u.vector.norm_sq()


@PROPERTY
@given(any_frame)
def test_nijenhuis_is_antisymmetric_and_tangent(frame):
    p, u, v = frame
    value = nijenhuis(p, u, v)
    assert nijenhuis(p, v, u) == -value
    assert value.is_imaginary()
    assert value.inner(p.vector) == 0


@pytest.mark.parametrize("sphere_dim", [2, 6])
@settings(derandomize=True, deadline=None, max_examples=15)
@given(data=st.data())
def test_nijenhuis_matches_both_oracles(sphere_dim, data):
    frame = data.draw(frames(sphere_dim))
    value = nijenhuis(*frame)
    assert value == nijenhuis_six_products(*(x.vector for x in frame))
    assert value == nijenhuis_fd(*frame)
    assert value == nijenhuis_symbolic(*frame)
    if sphere_dim == 2:
        assert not value
