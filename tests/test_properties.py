"""Property tests over seeded, derandomized hypothesis searches.

Algebra identities at level 3, the complex-structure laws of J on S^2 and
S^6, and the Nijenhuis tensor against both independent oracles.
"""

from fractions import Fraction

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
from oracles import nijenhuis_fd, nijenhuis_symbolic

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
    assert value == nijenhuis_fd(*frame)
    assert value == nijenhuis_symbolic(*frame)
    if sphere_dim == 2:
        assert not value
