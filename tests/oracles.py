"""Independent oracles shared across the test suite.

Everything here deliberately avoids the code paths it is used to check:
the quaternion table is hardcoded, Bernoulli numbers come from the
classical recurrence, the L-polynomial oracle expands prod Q(b_i z) in
root variables instead of running the multiplicative sequence, and the
Nijenhuis oracle differentiates vector fields by exact finite differences
(central differences with Richardson extrapolation are exact for
polynomial maps of degree <= 4 at rational step sizes), never touching
the polynomial machinery.
"""

from fractions import Fraction
from math import comb

from acstk.cayley_dickson import CDElement
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
