"""Independent oracles shared across the test suite.

Everything here deliberately avoids the code paths it is used to check:
the quaternion table is hardcoded, the vector operations of the doubling
algebras are per-coefficient `Fraction` arithmetic on coefficient tuples
instead of integer vectors over a common denominator, the product oracle
runs the recursive doubling formula on such tuples instead of the
structure-constant table, Bernoulli numbers come from the classical
recurrence, the L-polynomial oracle expands prod Q(b_i z) in root
variables instead of running the multiplicative sequence, and the two
Nijenhuis oracles evaluate the brackets of whole ambient vector fields
instead of 1-jets: one differentiates them by exact finite differences
(central differences with Richardson extrapolation are exact for
polynomial maps of degree <= 4 at rational step sizes), the other
symbolically as polynomial vector fields.
"""
from fractions import Fraction
from math import comb

from acstk.cayley_dickson import CDElement, basis_product
from acstk.genera import q_series
from acstk.sphere_acs import cross
from acstk.symfun import GradedPoly, MultiPoly, beta_variables, reduce_to_elementary

# Hardcoded quaternion multiplication table with i = e1, j = e2, k = e3:
# i*j = k, j*k = i, k*i = j, squares of imaginary units are -1.
QUATERNION_TABLE = {
    (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
    (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
    (2, 0): (1, 2), (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
    (3, 0): (1, 3), (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0),
}


# Per-coefficient `Fraction` arithmetic on coefficient tuples: the
# reference for CDElement's integer-vector operations.


def coeff_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def coeff_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def coeff_neg(a):
    return tuple(-x for x in a)


def coeff_scale(a, q):
    return tuple(x * q for x in a)


def coeff_inner(a, b):
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def coeff_conjugate(a):
    return (a[0],) + tuple(-c for c in a[1:])


def coeff_imaginary(a):
    return (Fraction(0),) + tuple(a[1:])


def coeff_embed(a, level):
    return tuple(a) + (Fraction(0),) * ((1 << level) - len(a))


def doubling_product(a, b):
    """The doubling formula on coefficient tuples of length 2^n:
    (a1, a2)(b1, b2) = (a1 b1 - conj(b2) a2, b2 a1 + a2 conj(b1))."""
    if len(a) == 1:
        return (a[0] * b[0],)
    h = len(a) // 2
    a1, a2, b1, b2 = a[:h], a[h:], b[:h], b[h:]
    first = tuple(
        x - y for x, y in zip(doubling_product(a1, b1), doubling_product(coeff_conjugate(b2), a2))
    )
    second = tuple(
        x + y for x, y in zip(doubling_product(b2, a1), doubling_product(a2, coeff_conjugate(b1)))
    )
    return first + second


def classical_bernoulli(n_max: int) -> list[Fraction]:
    """B_0..B_{n_max} in the classical convention (B_1 = -1/2), via the
    recurrence sum_{j<=m} C(m+1, j) B_j = 0."""
    bern = [Fraction(1)]
    for m in range(1, n_max + 1):
        acc = sum(comb(m + 1, j) * bern[j] for j in range(m))
        bern.append(Fraction(-acc, m + 1))
    return bern


def positive_bernoulli_oracle(k: int) -> Fraction:
    """The k-th positive Bernoulli number |B_{2k}| from the recurrence."""
    return abs(classical_bernoulli(2 * k)[2 * k])


def l_polynomial_in_roots(k: int, m: int) -> GradedPoly:
    """L_k by root expansion: the coefficient of z^k in prod_i Q(b_i z)
    over m >= k root variables, reduced to the elementary basis and
    renamed to p-generators."""
    q = q_series(k)
    variables = beta_variables(m)
    coeffs = [MultiPoly.constant(variables, 1)] + [
        MultiPoly.zero(variables) for _ in range(k)
    ]
    for name in variables:
        b = MultiPoly.variable(variables, name)
        powers = [MultiPoly.constant(variables, 1)]
        for _ in range(k):
            powers.append(powers[-1] * b)
        factor = [powers[j] * q.coefficient(j) for j in range(k + 1)]
        new = [MultiPoly.zero(variables) for _ in range(k + 1)]
        for i in range(k + 1):
            if coeffs[i].is_zero():
                continue
            for j in range(k + 1 - i):
                new[i + j] = new[i + j] + coeffs[i] * factor[j]
        coeffs = new
    reduced = reduce_to_elementary(coeffs[k])
    reduced = reduced.restrict_generators(tuple(f"s{i}" for i in range(1, k + 1)))
    return reduced.rename_generators({f"s{i}": f"p{i}" for i in range(1, k + 1)})


def _as_imaginary(level, coords):
    return CDElement(level, tuple([Fraction(0)] + list(coords)))


def _fd_jacobian_apply(func, base, direction):
    """Exact directional derivative of a polynomial map of degree <= 4 via
    Richardson-extrapolated central differences with rational steps."""
    h = Fraction(1, 3)

    def central(step):
        plus = func([b + step * d for b, d in zip(base, direction)])
        minus = func([b - step * d for b, d in zip(base, direction)])
        return [(a - b) / (2 * step) for a, b in zip(plus, minus)]

    d1 = central(h)
    d2 = central(2 * h)
    return [(4 * a - b) / 3 for a, b in zip(d1, d2)]


def fd_lie_bracket_at(x_field, y_field, point):
    """[X, Y](p) = DY(p)[X(p)] - DX(p)[Y(p)] by finite differences."""
    xp = x_field(point)
    yp = y_field(point)
    dyx = _fd_jacobian_apply(y_field, point, xp)
    dxy = _fd_jacobian_apply(x_field, point, yp)
    return [a - b for a, b in zip(dyx, dxy)]


def nijenhuis_fd(p, u, v) -> CDElement:
    """Finite-difference evaluation of the Nijenhuis tensor at p, built
    from closures over plain coordinate lists."""
    level = p.vector.level
    u_coeffs = u.vector.coeffs[1:]
    v_coeffs = v.vector.coeffs[1:]

    def extension(w):
        def field(coords):
            pairing = sum(a * b for a, b in zip(w, coords))
            return [wi - pairing * ci for wi, ci in zip(w, coords)]

        return field

    def j_extension(field):
        def jfield(coords):
            value = cross(_as_imaginary(level, coords), _as_imaginary(level, field(coords)))
            return list(value.coeffs[1:])

        return jfield

    cap_u = extension(u_coeffs)
    cap_v = extension(v_coeffs)
    ju = j_extension(cap_u)
    jv = j_extension(cap_v)
    coords = list(p.vector.coeffs[1:])
    b1 = fd_lie_bracket_at(ju, jv, coords)
    b2 = fd_lie_bracket_at(cap_u, cap_v, coords)
    b3 = fd_lie_bracket_at(ju, cap_v, coords)
    b4 = fd_lie_bracket_at(cap_u, jv, coords)
    pv = p.vector
    return (
        _as_imaginary(level, b1)
        - _as_imaginary(level, b2)
        - cross(pv, _as_imaginary(level, b3))
        - cross(pv, _as_imaginary(level, b4))
    )


# ----------------------------------------------------------------------
# Nijenhuis tensor via polynomial vector fields and symbolic Lie brackets


def _ambient_variables(level: int) -> tuple[str, ...]:
    d = (1 << level) - 1
    return tuple(f"x{i}" for i in range(1, d + 1))


def _extension_field(u: CDElement, variables) -> list[MultiPoly]:
    """The canonical tangent extension U(x) = u - <u, x> x as a polynomial
    vector field on the ambient imaginary space (components on e_1..e_d)."""
    d = len(variables)
    coeffs = u.coeffs[1:]
    inner = MultiPoly.zero(variables)
    xs = [MultiPoly.variable(variables, v) for v in variables]
    for c, x in zip(coeffs, xs):
        if c:
            inner = inner + x * c
    return [MultiPoly.constant(variables, coeffs[i]) - inner * xs[i] for i in range(d)]


def _identity_field(variables) -> list[MultiPoly]:
    return [MultiPoly.variable(variables, v) for v in variables]


def _cross_fields(a: list[MultiPoly], b: list[MultiPoly], level: int) -> list[MultiPoly]:
    """Componentwise cross product of two imaginary-valued polynomial
    fields, via the basis structure constants (e_i e_j = sign e_k maps
    a_i b_j into component k for i != j; i = j lands in the real part
    and does not contribute)."""
    variables = a[0].variables
    d = len(variables)
    out = [MultiPoly.zero(variables) for _ in range(d)]
    for i in range(1, d + 1):
        if a[i - 1].is_zero():
            continue
        for j in range(1, d + 1):
            if i == j or b[j - 1].is_zero():
                continue
            sign, k = basis_product(level, i, j)
            prod = a[i - 1] * b[j - 1]
            out[k - 1] = (out[k - 1] + prod) if sign > 0 else (out[k - 1] - prod)
    return out


def lie_bracket(a: list[MultiPoly], b: list[MultiPoly]) -> list[MultiPoly]:
    """Ambient Lie bracket [A, B]_i = sum_j A_j dB_i/dx_j - B_j dA_i/dx_j,
    with exact symbolic differentiation."""
    variables = a[0].variables
    out = []
    for i in range(len(variables)):
        acc = MultiPoly.zero(variables)
        for j, name in enumerate(variables):
            acc = acc + a[j] * b[i].diff(name) - b[j] * a[i].diff(name)
        out.append(acc)
    return out


def _evaluate_field(field: list[MultiPoly], coords, level: int) -> CDElement:
    values = [f.evaluate(coords) for f in field]
    return CDElement(level, tuple([Fraction(0)] + values))


def nijenhuis_symbolic(p, u, v) -> CDElement:
    """Nijenhuis tensor at p from exact symbolic brackets of the polynomial
    fields U(x) = u - <u, x> x and (JU)(x) = x x U(x), evaluated at p."""
    level = p.vector.level
    variables = _ambient_variables(level)
    x = _identity_field(variables)
    cap_u = _extension_field(u.vector, variables)
    cap_v = _extension_field(v.vector, variables)
    ju = _cross_fields(x, cap_u, level)
    jv = _cross_fields(x, cap_v, level)

    coords = p.vector.coeffs[1:]
    b1 = _evaluate_field(lie_bracket(ju, jv), coords, level)
    b2 = _evaluate_field(lie_bracket(cap_u, cap_v), coords, level)
    b3 = _evaluate_field(lie_bracket(ju, cap_v), coords, level)
    b4 = _evaluate_field(lie_bracket(cap_u, jv), coords, level)
    pv = p.vector
    return b1 - b2 - cross(pv, b3) - cross(pv, b4)
