"""Independent oracles shared across the test suite.

Everything here deliberately avoids the code paths it is used to check:
the quaternion table is hardcoded, the vector operations of the doubling
algebras are per-coefficient `Fraction` arithmetic on coefficient tuples
instead of integer vectors over a common denominator, the product oracle
runs the recursive doubling formula on such tuples instead of the
compiled structure-constant kernel, the random samplers build one
`Fraction` per draw and project on such tuples, the alternativity probe
takes one `associator` per triple instead of the structure table and
shared products, Bernoulli numbers come from the classical recurrence and
from Q(z) = w/tanh(w) (z = w^2), one quotient of the coefficient lists of
cosh(w) and sinh(w)/w, instead of tangent numbers, the s_k from the
reciprocal of sin(2t)/(2t) (z = t^2) instead of the closed form in B_k,
the L-polynomial oracle expands prod Q(b_i z), with Q from that quotient,
in root variables and reduces it to the elementary basis by leading-term
elimination instead of running the multiplicative sequence,
a second L-polynomial oracle runs the multiplicative sequence on
`GradedPoly` values with `Fraction` coefficients, the coefficients of
log Q from the log-Q recurrence on that quotient instead of the signed s_j,
and Newton polynomials from the Newton recursion instead of on integer
numerators with packed monomials and the Girard-Waring closed form, the
Newton polynomials are checked against power sums of the roots by
substituting elementary symmetric polynomials, one Nijenhuis oracle runs
the six-product 1-jet form through reduced public cross products instead
of the two-product form on numerators, and two Nijenhuis
oracles evaluate the brackets of whole ambient vector fields instead of the
closed form of their 1-jets: one differentiates them by exact finite
differences (central differences with Richardson extrapolation are exact
for polynomial maps of degree <= 4 at rational step sizes), the other
symbolically as polynomial vector fields.
"""
import random
from fractions import Fraction
from itertools import combinations
from math import comb, factorial, prod
from typing import Mapping, Optional

from acstk.cayley_dickson import AlternativityReport, CDElement, associator, basis_product
from acstk.sphere_acs import SPHERE_LEVEL, SpherePoint, TangentVector, cross
from acstk.symfun import GradedPoly, power_sums_from_values

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


# The random samplers on `Fraction`s: each coefficient is built from one
# (numerator, denominator) draw, numerator first, and the sphere point and
# tangent come from per-coefficient arithmetic.  The reference for the
# values of the integer draws of the probe and the J check and for the
# draws they consume, and the source of the tests' random elements.


def random_element_oracle(level, rng, imaginary=False):
    """2^level coefficients randint(-6, 6)/randint(1, 4); with `imaginary`
    the real part is drawn too, then set to 0."""
    coeffs = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(1 << level)]
    if imaginary:
        coeffs[0] = Fraction(0)
    return tuple(coeffs)


def random_cd_element(level, rng, imaginary=False):
    """`random_element_oracle` as a `CDElement`."""
    return CDElement(level, random_element_oracle(level, rng, imaginary))


def stereographic_oracle(params):
    """(0, 2q_1, ..., 2q_d, s - 1)/(s + 1) with s = sum q_i^2."""
    qs = [Fraction(q) for q in params]
    s = sum((q * q for q in qs), Fraction(0))
    return (Fraction(0), *(2 * q / (s + 1) for q in qs), (s - 1) / (s + 1))


def random_sphere_point_oracle(sphere_dim, rng):
    return stereographic_oracle(
        [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(sphere_dim)]
    )


def random_tangent_oracle(p, rng):
    """w - <w, p> p for the coefficient tuple p and a drawn imaginary w."""
    w = (Fraction(0),) + tuple(
        Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(len(p) - 1)
    )
    return coeff_sub(w, coeff_scale(p, coeff_inner(w, p)))


def random_sphere_sample(sphere_dim, rng, tangents):
    """A `SpherePoint` drawn as `random_sphere_point_oracle` draws it, then
    `tangents` `TangentVector`s at it drawn as `random_tangent_oracle` does."""
    level = SPHERE_LEVEL[sphere_dim]
    p = SpherePoint(CDElement(level, random_sphere_point_oracle(sphere_dim, rng)))
    vectors = [CDElement(level, random_tangent_oracle(p.vector.coeffs, rng)) for _ in range(tangents)]
    return (p, *(TangentVector(p, v) for v in vectors))


def probe_alternative_oracle(level, samples, seed):
    """`probe_alternative` with one `associator` per triple: the same two
    basis scans and random repeated-argument scan, in the same order."""
    dim = 1 << level
    e = [CDElement.basis(level, i) for i in range(dim)]
    basis_checks, witness = 0, None
    for i in range(dim):
        for j in range(dim):
            for (a, b, c), form in (((i, i, j), "[u,u,v]"), ((i, j, j), "[u,v,v]"), ((i, j, i), "[u,v,u]")):
                basis_checks += 1
                val = associator(e[a], e[b], e[c])
                if val:
                    witness = (form, e[i], e[j], val)
                    break
            if witness:
                break
        if witness:
            break
    if witness is None:
        for i in range(dim):
            for j in range(i + 1, dim):
                for k in range(dim):
                    basis_checks += 1
                    if associator(e[i], e[j], e[k]) != -associator(e[j], e[i], e[k]):
                        val = associator(e[i] + e[j], e[i] + e[j], e[k])
                        if val:
                            witness = ("[u,u,v]", e[i] + e[j], e[k], val)
                            break
                if witness:
                    break
            if witness:
                break
    random_checks, random_witness = random_scan_oracle(level, samples, seed)
    witness = witness or random_witness
    if witness is None:
        return AlternativityReport(level, True, basis_checks, random_checks)
    return AlternativityReport(level, False, basis_checks, random_checks, *witness)


def random_scan_oracle(level, samples, seed):
    """The probe's random scan: (checks, first witness or None), one
    `associator` per repeated-argument triple of `random_cd_element` draws."""
    rng = random.Random(seed)
    checks, witness = 0, None
    for _ in range(samples):
        u, v = random_cd_element(level, rng), random_cd_element(level, rng)
        for form, trip in (("[u,u,v]", (u, u, v)), ("[u,v,v]", (u, v, v)), ("[u,v,u]", (u, v, u))):
            checks += 1
            val = associator(*trip)
            if val and witness is None:
                witness = (form, u, v, val)
    return checks, witness


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


# The third Bernoulli route: the signature series Q(z) = sqrt(z)/tanh(sqrt(z))
# = cosh(w) / (sinh(w)/w) with z = w^2, as one quotient of coefficient lists.


def reciprocal_q_series(order: int) -> tuple[Fraction, ...]:
    """q_0..q_order of Q(z) = sum z^k/(2k)! divided by sum z^k/(2k+1)!, by
    long division: q_n = a_n - sum_{k=1..n} b_k q_(n-k), with b_0 = 1."""
    a = [Fraction(1, factorial(2 * k)) for k in range(order + 1)]
    b = [Fraction(1, factorial(2 * k + 1)) for k in range(order + 1)]
    q: list[Fraction] = []
    for n in range(order + 1):
        q.append(a[n] - sum(b[k] * q[n - k] for k in range(1, n + 1)))
    return tuple(q)


def s_series(order: int) -> tuple[Fraction, ...]:
    """s_0..s_order, the coefficients of the generating series
    1/2 + (1/2) * 2*sqrt(z)/sinh(2*sqrt(z)), by a reciprocal recursion
    instead of the closed form in Bernoulli numbers.

    Only even powers of the formal square root appear, which leaves the
    branch of sqrt(z) ambiguous; the real-sinh reading would flip every
    odd coefficient's sign.  The branch is fixed to the one matching the
    closed form (all s_k > 0), i.e. sinh(2*sqrt(z))/(2*sqrt(z)) is read
    as the series d(z) = sum_k (-4)^k z^k / (2k+1)!  (equivalently
    sin(2t)/(2t) with z = t^2).  1/d comes from the reciprocal recursion
    g_n = -sum_{k=1..n} d_k g_(n-k), g_0 = 1 (d_0 = 1).
    """
    d = [Fraction((-4) ** k, factorial(2 * k + 1)) for k in range(order + 1)]
    g = [Fraction(1)]
    for n in range(1, order + 1):
        g.append(-sum(d[k] * g[n - k] for k in range(1, n + 1)))
    # s_0 = (1 + g_0)/2 = 1
    return (Fraction(1), *(c / 2 for c in g[1:]))


def log_q_coefficients(k: int) -> list[Fraction]:
    """j a_j for j = 0..k, where log Q(z) = sum a_j z^j, by the log-Q
    recurrence j a_j = j q_j - sum_{i<j} i a_i q_(j-i) on the reciprocal
    Q-series, so that no Bernoulli number is read."""
    q = reciprocal_q_series(k)
    ja = [Fraction(0)]
    for j in range(1, k + 1):
        ja.append(j * q[j] - sum(ja[i] * q[j - i] for i in range(1, j)))
    return ja


def reciprocal_bernoulli_oracle(k: int) -> Fraction:
    """The k-th positive Bernoulli number read off the reciprocal Q-series
    via q_k = (-1)^(k-1) 2^(2k)/(2k)! * B_k."""
    qk = reciprocal_q_series(k)[k]
    return qk * (-1) ** (k - 1) * Fraction(factorial(2 * k), 2 ** (2 * k))


def truncate(p: GradedPoly, max_weight: int) -> GradedPoly:
    """The terms of `p` of weight at most `max_weight`: a product of two
    Chern characters has terms above the weight the factors stop at."""
    return GradedPoly(
        p.generators, p.weights, {e: c for e, c in p.terms.items() if p.monomial_weight(e) <= max_weight}
    )


# ----------------------------------------------------------------------
# Root variables and symmetric functions.  A polynomial in root variables
# is a GradedPoly whose weights are all 1.


def unit_poly(variables, terms=None) -> GradedPoly:
    """The polynomial with these terms (zero by default) in variables of
    weight 1."""
    return GradedPoly(variables, (1,) * len(variables), terms or {})


def unit_constant(variables, value) -> GradedPoly:
    return unit_poly(variables, {(0,) * len(variables): value})


def unit_variable(variables, name) -> GradedPoly:
    return GradedPoly.generator(variables, (1,) * len(variables), name)


def beta_variables(m: int) -> tuple[str, ...]:
    """Canonical root-variable names b1..bm."""
    return tuple(f"b{i}" for i in range(1, m + 1))


def sigma_generators(k: int) -> tuple[tuple[str, ...], tuple[int, ...]]:
    """Generator names s1..sk with weights 1..k (s_j stands for the j-th
    elementary symmetric polynomial), as in `newton_polynomial(k)`."""
    return tuple(f"s{i}" for i in range(1, k + 1)), tuple(range(1, k + 1))


def elementary_symmetric(m: int, j: int) -> GradedPoly:
    """The elementary symmetric polynomial sigma_j in m root variables."""
    if not 0 <= j <= m:
        raise ValueError(f"need 0 <= j <= m, got j={j}, m={m}")
    terms = {}
    for combo in combinations(range(m), j):
        terms[tuple(1 if i in combo else 0 for i in range(m))] = 1
    return unit_poly(beta_variables(m), terms)


def power_sum(m: int, k: int) -> GradedPoly:
    """The power sum b1^k + ... + bm^k."""
    terms = {tuple(k if j == i else 0 for j in range(m)): 1 for i in range(m)}
    return unit_poly(beta_variables(m), terms)


def _swap(p: GradedPoly, i: int, j: int) -> GradedPoly:
    out = {}
    for exps, coeff in p.terms.items():
        e = list(exps)
        e[i], e[j] = e[j], e[i]
        out[tuple(e)] = coeff
    return GradedPoly(p.generators, p.weights, out)


def asymmetry_witness(p: GradedPoly) -> Optional[tuple[str, str]]:
    """The first adjacent transposition that changes p, or None if p is
    symmetric.  Adjacent transpositions generate the full symmetric
    group, so None certifies symmetry."""
    for i in range(len(p.generators) - 1):
        if _swap(p, i, i + 1) != p:
            return (p.generators[i], p.generators[i + 1])
    return None


def leading_term_lex(p: GradedPoly) -> tuple[tuple, Fraction]:
    exps = max(p.terms)
    return exps, p.terms[exps]


def reduce_to_elementary(p: GradedPoly) -> GradedPoly:
    """Express a symmetric polynomial in root variables in the elementary
    basis s1..sm.

    Uses repeated leading-term elimination in lexicographic order: the
    leading exponent vector (a1 >= a2 >= ... >= am) of a symmetric
    polynomial is killed by c * s1^(a1-a2) * s2^(a2-a3) * ... * sm^am.
    Raises on non-symmetric input, naming a witnessing transposition.
    """
    witness = asymmetry_witness(p)
    if witness is not None:
        raise ValueError(
            f"polynomial is not symmetric: swapping {witness[0]} and "
            f"{witness[1]} changes it"
        )
    m = len(p.generators)
    gens, weights = sigma_generators(m)
    sigma = [elementary_symmetric(m, j) for j in range(m + 1)]
    power_cache: dict[tuple[int, int], GradedPoly] = {}

    def sigma_power(j: int, e: int) -> GradedPoly:
        key = (j, e)
        if key not in power_cache:
            power_cache[key] = prod([sigma[j]] * e)
        return power_cache[key]

    out_terms: dict[tuple, Fraction] = {}
    work = p
    while work.terms:
        exps, coeff = leading_term_lex(work)
        if any(exps[i] < exps[i + 1] for i in range(m - 1)):
            raise AssertionError(
                "leading exponents of a symmetric polynomial must be sorted"
            )
        sig_exps = tuple(
            exps[i] - exps[i + 1] for i in range(m - 1)
        ) + (exps[m - 1],)
        out_terms[sig_exps] = out_terms.get(sig_exps, Fraction(0)) + coeff
        expansion = unit_constant(p.generators, coeff)
        for j, e in enumerate(sig_exps, start=1):
            if e:
                expansion = expansion * sigma_power(j, e)
        work = work - expansion
    return GradedPoly(gens, weights, out_terms)


def substitute(p: GradedPoly, assignments: Mapping[str, object]):
    """Evaluate a graded polynomial with every generator assigned.

    Values may be rationals or GradedPoly (anything closed under + and *).
    Returns a Fraction when the result collapses to a scalar.
    """
    missing = [g for g in p.generators if g not in assignments]
    if missing:
        raise ValueError(f"unassigned generator {missing[0]}")
    total = None
    for exps, coeff in p.terms.items():
        term = coeff
        for name, e in zip(p.generators, exps):
            if e:
                term = prod([assignments[name]] * e, start=term)
        total = term if total is None else total + term
    if total is None:
        for v in assignments.values():
            if isinstance(v, GradedPoly):
                return v * 0
        return Fraction(0)
    if isinstance(total, (int, Fraction)):
        return Fraction(total)
    return total


def expand_in_roots(g: GradedPoly, m: int) -> GradedPoly:
    """Expand a graded polynomial in s1..sk into m >= k root variables by
    substituting the elementary symmetric polynomials."""
    k = len(g.generators)
    if m < k:
        raise ValueError(f"need at least {k} root variables, got {m}")
    assignments = {
        g.generators[j - 1]: elementary_symmetric(m, j) for j in range(1, k + 1)
    }
    value = substitute(g, assignments)
    if isinstance(value, Fraction):
        return unit_constant(beta_variables(m), value)
    return value


def l_polynomial_in_roots(k: int, m: int) -> GradedPoly:
    """L_k by root expansion: the coefficient of z^k in prod_i Q(b_i z)
    over m >= k root variables, reduced to the elementary basis s1..sm,
    which must leave s_{k+1}..s_m unused, and read in p1..pk."""
    q = reciprocal_q_series(k)
    variables = beta_variables(m)
    coeffs = [unit_constant(variables, 1)] + [unit_poly(variables) for _ in range(k)]
    for name in variables:
        b = unit_variable(variables, name)
        powers = [unit_constant(variables, 1)]
        for _ in range(k):
            powers.append(powers[-1] * b)
        factor = [powers[j] * q[j] for j in range(k + 1)]
        new = [unit_poly(variables) for _ in range(k + 1)]
        for i in range(k + 1):
            if not coeffs[i]:
                continue
            for j in range(k + 1 - i):
                new[i + j] = new[i + j] + coeffs[i] * factor[j]
        coeffs = new
    reduced = reduce_to_elementary(coeffs[k])
    terms = {}
    for exps, c in reduced.terms.items():
        if any(exps[k:]):
            raise ValueError(f"L_{k} in roots uses a generator beyond s{k}: {exps}")
        terms[exps[:k]] = c
    return GradedPoly(tuple(f"p{i}" for i in range(1, k + 1)), tuple(range(1, k + 1)), terms)


def l_polynomial_graded_oracle(k: int) -> GradedPoly:
    """L_k by the multiplicative-sequence recursion
    E_n = (1/n) sum_{j<=n} j a_j nu_j E_{n-j} on `GradedPoly` values, with
    j a_j from `log_q_coefficients`, nu_j from the Newton recursion on the
    generators p1..pk and `Fraction` coefficients throughout, checked on
    CP^{2k}."""
    gens = tuple(f"p{i}" for i in range(1, k + 1))
    weights = tuple(range(1, k + 1))
    zero = GradedPoly.zero(gens, weights)
    p = [GradedPoly.generator(gens, weights, g) for g in gens]
    nus = power_sums_from_values(p, k, zero)
    ja_nus = [nu * c for nu, c in zip(nus, log_q_coefficients(k)[1:])]
    e = [GradedPoly.constant(gens, weights, 1)]
    for n in range(1, k + 1):
        acc = zero
        for j in range(1, n + 1):
            acc = acc + ja_nus[j - 1] * e[n - j]
        e.append(acc * Fraction(1, n))
    lk = e[k]
    assert substitute(lk, {g: comb(2 * k + 1, j) for g, j in zip(gens, weights)}) == 1
    return lk


# ----------------------------------------------------------------------
# Nijenhuis tensor in its 1-jet and two-product forms through public cross
# products, on imaginary elements of any level


def nijenhuis_six_products(p, u, v) -> CDElement:
    """The 1-jet form (p x u) x v - (p x v) x u - 2 p x (u x v), with each
    cross product a reduced `CDElement` from the public `cross`."""
    return cross(cross(p, u), v) - cross(cross(p, v), u) - cross(p, cross(u, v)) * 2


def nijenhuis_two_products(p, u, v, coeffs=(3, -3, -4)) -> CDElement:
    """a<p,v> u + b<p,u> v + c p x (u x v) for coeffs (a, b, c); the default
    is the two-product form, which equals the 1-jet form at levels <= 3."""
    a, b, c = coeffs
    return u * (a * p.inner(v)) + v * (b * p.inner(u)) + cross(p, cross(u, v)) * c


# ----------------------------------------------------------------------
# Nijenhuis tensor by finite differences of whole vector fields


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


def diff(p: GradedPoly, name: str) -> GradedPoly:
    """Exact partial derivative with respect to one generator."""
    i = p.generators.index(name)
    out: dict = {}
    for exps, coeff in p.terms.items():
        k = exps[i]
        if k:
            e = exps[:i] + (k - 1,) + exps[i + 1:]
            out[e] = out.get(e, 0) + coeff * k
    return GradedPoly(p.generators, p.weights, out)


def _extension_field(u: CDElement, variables) -> list[GradedPoly]:
    """The canonical tangent extension U(x) = u - <u, x> x as a polynomial
    vector field on the ambient imaginary space (components on e_1..e_d)."""
    d = len(variables)
    coeffs = u.coeffs[1:]
    inner = unit_poly(variables)
    xs = [unit_variable(variables, v) for v in variables]
    for c, x in zip(coeffs, xs):
        if c:
            inner = inner + x * c
    return [unit_constant(variables, coeffs[i]) - inner * xs[i] for i in range(d)]


def _identity_field(variables) -> list[GradedPoly]:
    return [unit_variable(variables, v) for v in variables]


def _cross_fields(a: list[GradedPoly], b: list[GradedPoly], level: int) -> list[GradedPoly]:
    """Componentwise cross product of two imaginary-valued polynomial
    fields, via the basis structure constants (e_i e_j = sign e_k maps
    a_i b_j into component k for i != j; i = j lands in the real part
    and does not contribute)."""
    variables = a[0].generators
    d = len(variables)
    out = [unit_poly(variables) for _ in range(d)]
    for i in range(1, d + 1):
        if not a[i - 1]:
            continue
        for j in range(1, d + 1):
            if i == j or not b[j - 1]:
                continue
            sign, k = basis_product(level, i, j)
            prod = a[i - 1] * b[j - 1]
            out[k - 1] = (out[k - 1] + prod) if sign > 0 else (out[k - 1] - prod)
    return out


def lie_bracket(a: list[GradedPoly], b: list[GradedPoly]) -> list[GradedPoly]:
    """Ambient Lie bracket [A, B]_i = sum_j A_j dB_i/dx_j - B_j dA_i/dx_j,
    with exact symbolic differentiation."""
    variables = a[0].generators
    out = []
    for i in range(len(variables)):
        acc = unit_poly(variables)
        for j, name in enumerate(variables):
            acc = acc + a[j] * diff(b[i], name) - b[j] * diff(a[i], name)
        out.append(acc)
    return out


def _evaluate_field(field: list[GradedPoly], coords, level: int) -> CDElement:
    values = [substitute(f, dict(zip(f.generators, coords))) for f in field]
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
