"""Sparse multivariate polynomials over Q, elementary symmetric and Newton
polynomials, and reduction of symmetric polynomials to the elementary basis.

One polynomial type lives here.  `GradedPoly` maps exponent tuples to
rational coefficients over named generators, each with a positive integer
weight (for example p_i of weight i), so homogeneous components are exact.
`MultiPoly` is the case with every weight 1, in named variables; no
computation in the package uses it, but the symmetric-function helpers
below and the test oracles (root expansion, polynomial vector fields) do.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from operator import add
from typing import Mapping, Optional, Sequence, Union

Rational = Union[int, Fraction]


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class GradedPoly:
    """Sparse exact-rational polynomial in weighted generators.

    `terms` maps exponent tuples (one entry per generator) to nonzero
    Fractions.  A monomial's weight is the sum of generator weights times
    exponents, so homogeneous components are exact.
    """

    __slots__ = ("generators", "weights", "terms")

    # exception wording, overridden by MultiPoly
    _NOUN = "generators"
    _MISMATCH = "graded polynomials over different generators"

    def __init__(
        self,
        generators: Sequence[str],
        weights: Sequence[int],
        terms: Mapping[tuple, Rational],
    ):
        self.generators = tuple(generators)
        self.weights = tuple(int(w) for w in weights)
        if len(self.generators) != len(self.weights):
            raise ValueError("one weight per generator is required")
        if any(w <= 0 for w in self.weights):
            raise ValueError("generator weights must be positive")
        clean = {}
        n = len(self.generators)
        for exps, coeff in terms.items():
            exps = tuple(exps)
            if len(exps) != n:
                raise ValueError(f"exponent vector {exps} does not match {n} {self._NOUN}")
            c = _frac(coeff)
            if c != 0:
                clean[exps] = c
        self.terms = clean

    def _like(self, terms: dict) -> "GradedPoly":
        """A polynomial of this class over these generators.  Every
        operation builds its result here: exponent tuples already have the
        right length and coefficients are Fractions, so only zero
        coefficients are dropped."""
        out = object.__new__(type(self))
        out.generators = self.generators
        out.weights = self.weights
        out.terms = {e: c for e, c in terms.items() if c}
        return out

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, generators, weights):
        return cls(generators, weights, {})

    @classmethod
    def constant(cls, generators, weights, value):
        return cls(generators, weights, {(0,) * len(tuple(generators)): value})

    @classmethod
    def generator(cls, generators, weights, name):
        generators = tuple(generators)
        i = generators.index(name)
        exps = tuple(1 if j == i else 0 for j in range(len(generators)))
        return cls(generators, weights, {exps: 1})

    # ------------------------------------------------------------------
    # ring operations

    def _operand(self, other):
        """`other` as a polynomial over these generators, or None when it
        is neither a rational nor a polynomial of this class."""
        if isinstance(other, (int, Fraction)):
            return self._like({(0,) * len(self.generators): _frac(other)})
        if type(other) is not type(self):
            return None
        if self.generators != other.generators or self.weights != other.weights:
            raise ValueError(self._MISMATCH.format(self, other))
        return other

    def __add__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return self._like(out)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) - c
        return self._like(out)

    def __neg__(self):
        return self._like({e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = _frac(other)
            return self._like({e: c * q for e, c in self.terms.items()})
        other = self._operand(other)
        if other is None:
            return NotImplemented
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return self._like(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not defined")
        result = self._like({(0,) * len(self.generators): Fraction(1)})
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.generators == other.generators
            and self.weights == other.weights
            and self.terms == other.terms
        )

    __hash__ = None

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    # ------------------------------------------------------------------
    # calculus and evaluation

    def diff(self, name: str) -> "GradedPoly":
        """Exact partial derivative with respect to one generator."""
        i = self.generators.index(name)
        out: dict = {}
        for exps, coeff in self.terms.items():
            k = exps[i]
            if k == 0:
                continue
            e = exps[:i] + (k - 1,) + exps[i + 1:]
            out[e] = out.get(e, 0) + coeff * k
        return self._like(out)

    def evaluate(self, values) -> Fraction:
        """Evaluate at rational values (a mapping by name, or a sequence
        aligned with the generator order)."""
        if isinstance(values, Mapping):
            vals = [_frac(values[v]) for v in self.generators]
        else:
            vals = [_frac(v) for v in values]
            if len(vals) != len(self.generators):
                raise ValueError("wrong number of values")
        total = Fraction(0)
        for exps, coeff in self.terms.items():
            term = coeff
            for v, e in zip(vals, exps):
                if e:
                    term *= v**e
            total += term
        return total

    # ------------------------------------------------------------------
    # grading

    def monomial_weight(self, exps: Sequence[int]) -> int:
        return sum(w * e for w, e in zip(self.weights, exps))

    def homogeneous_component(self, weight: int) -> "GradedPoly":
        return self._like(
            {e: c for e, c in self.terms.items() if self.monomial_weight(e) == weight}
        )

    def homogeneous_components(self) -> dict[int, "GradedPoly"]:
        out: dict[int, dict] = {}
        for e, c in self.terms.items():
            out.setdefault(self.monomial_weight(e), {})[e] = c
        return {w: self._like(t) for w, t in sorted(out.items())}

    def is_homogeneous(self, weight: Optional[int] = None) -> bool:
        seen = {self.monomial_weight(e) for e in self.terms}
        if not seen:
            return True
        if weight is None:
            return len(seen) == 1
        return seen == {weight}

    def max_weight(self) -> int:
        return max((self.monomial_weight(e) for e in self.terms), default=0)

    def truncate(self, max_weight: int) -> "GradedPoly":
        return self._like(
            {e: c for e, c in self.terms.items() if self.monomial_weight(e) <= max_weight}
        )

    # ------------------------------------------------------------------
    # symmetry

    def _swap(self, i: int, j: int) -> "GradedPoly":
        out = {}
        for exps, coeff in self.terms.items():
            e = list(exps)
            e[i], e[j] = e[j], e[i]
            out[tuple(e)] = coeff
        return self._like(out)

    def asymmetry_witness(self) -> Optional[tuple[str, str]]:
        """The first adjacent transposition that changes the polynomial,
        or None if it is symmetric.  Adjacent transpositions generate the
        full symmetric group, so None certifies symmetry."""
        for i in range(len(self.generators) - 1):
            if self._swap(i, i + 1) != self:
                return (self.generators[i], self.generators[i + 1])
        return None

    def is_symmetric(self) -> bool:
        return self.asymmetry_witness() is None

    def leading_term_lex(self) -> tuple[tuple, Fraction]:
        exps = max(self.terms)
        return exps, self.terms[exps]

    # ------------------------------------------------------------------
    # structure helpers

    def coefficient(self, exps: Sequence[int]) -> Fraction:
        return self.terms.get(tuple(exps), Fraction(0))

    def coefficient_of_generator(self, name: str) -> Fraction:
        """Coefficient of the plain degree-one monomial in one generator."""
        i = self.generators.index(name)
        exps = tuple(1 if j == i else 0 for j in range(len(self.generators)))
        return self.coefficient(exps)

    def rename_generators(self, mapping: Mapping[str, str]) -> "GradedPoly":
        gens = tuple(mapping.get(g, g) for g in self.generators)
        return GradedPoly(gens, self.weights, self.terms)

    def used_generator_indices(self) -> set[int]:
        return {i for exps in self.terms for i, e in enumerate(exps) if e}

    def restrict_generators(self, generators: Sequence[str]) -> "GradedPoly":
        """Re-express over a prefix/subset of the generators; every dropped
        generator must be unused."""
        generators = tuple(generators)
        keep = [self.generators.index(g) for g in generators]
        dropped = set(range(len(self.generators))) - set(keep)
        if self.used_generator_indices() & dropped:
            raise ValueError("cannot drop a generator that occurs in a term")
        new_terms = {}
        for exps, c in self.terms.items():
            new_terms[tuple(exps[i] for i in keep)] = c
        return GradedPoly(generators, tuple(self.weights[i] for i in keep), new_terms)

    # ------------------------------------------------------------------
    # display

    def sorted_terms(self):
        """Terms in canonical order: weight ascending, then
        lexicographically descending exponent tuples."""
        return sorted(
            self.terms.items(),
            key=lambda t: (self.monomial_weight(t[0]), tuple(-e for e in t[0])),
        )

    def __str__(self):
        parts = []
        for exps, coeff in self.sorted_terms():
            factors = []
            for name, e in zip(self.generators, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            if not factors:
                body = str(coeff)
            elif coeff == 1:
                body = "*".join(factors)
            elif coeff == -1:
                body = "-" + "*".join(factors)
            else:
                body = str(coeff) + "*" + "*".join(factors)
            parts.append(body)
        return _join_signed(parts)

    def __repr__(self):
        return f"GradedPoly({self.generators!r}, weights={self.weights!r}, {self!s})"

    def latex(self) -> str:
        """Render with subscripted generators and \\frac coefficients."""
        parts = []
        for exps, coeff in self.sorted_terms():
            factors = []
            for name, e in zip(self.generators, exps):
                head = name[0]
                sub = name[1:]
                sym = f"{head}_{{{sub}}}" if sub else head
                if e == 1:
                    factors.append(sym)
                elif e > 1:
                    factors.append(f"{sym}^{{{e}}}")
            mag = abs(coeff)
            if mag.denominator == 1:
                num = "" if (mag == 1 and factors) else str(mag)
            else:
                num = f"\\frac{{{mag.numerator}}}{{{mag.denominator}}}"
            body = (num + (" " if num and factors else "") + " ".join(factors)).strip()
            parts.append(("-" if coeff < 0 else "") + body)
        return _join_signed(parts)


def _join_signed(parts: list[str]) -> str:
    """Join rendered terms with ' + ' / ' - '; the zero polynomial is '0'."""
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out


class MultiPoly(GradedPoly):
    """Sparse exact-rational polynomial in a fixed ordered tuple of
    variables: the graded polynomial whose weights are all 1.  It never
    equals, and does not combine with, a GradedPoly."""

    __slots__ = ()

    _NOUN = "variables"
    _MISMATCH = "variable mismatch: {0.variables} vs {1.variables}"

    def __init__(self, variables: Sequence[str], terms: Mapping[tuple, Rational]):
        variables = tuple(variables)
        super().__init__(variables, (1,) * len(variables), terms)

    @property
    def variables(self) -> tuple[str, ...]:
        return self.generators

    @classmethod
    def zero(cls, variables: Sequence[str]) -> "MultiPoly":
        return cls(variables, {})

    @classmethod
    def constant(cls, variables: Sequence[str], value: Rational) -> "MultiPoly":
        return cls(variables, {(0,) * len(tuple(variables)): value})

    @classmethod
    def variable(cls, variables: Sequence[str], name: str) -> "MultiPoly":
        variables = tuple(variables)
        i = variables.index(name)
        exps = tuple(1 if j == i else 0 for j in range(len(variables)))
        return cls(variables, {exps: 1})

    @classmethod
    def monomial(cls, variables: Sequence[str], exps: Sequence[int], coeff: Rational = 1) -> "MultiPoly":
        return cls(variables, {tuple(exps): coeff})

    def __repr__(self):
        return f"MultiPoly({self.variables!r}, {self!s})"


# ----------------------------------------------------------------------
# symmetric-function operations


def beta_variables(m: int) -> tuple[str, ...]:
    """Canonical root-variable names b1..bm."""
    return tuple(f"b{i}" for i in range(1, m + 1))


def sigma_generators(k: int) -> tuple[tuple[str, ...], tuple[int, ...]]:
    """Generator names s1..sk with weights 1..k (s_j stands for the j-th
    elementary symmetric polynomial)."""
    return tuple(f"s{i}" for i in range(1, k + 1)), tuple(range(1, k + 1))


def elementary_symmetric(m: int, j: int) -> MultiPoly:
    """The elementary symmetric polynomial sigma_j in m root variables."""
    if not 0 <= j <= m:
        raise ValueError(f"need 0 <= j <= m, got j={j}, m={m}")
    variables = beta_variables(m)
    if j == 0:
        return MultiPoly.constant(variables, 1)
    terms = {}
    for combo in combinations(range(m), j):
        exps = tuple(1 if i in combo else 0 for i in range(m))
        terms[exps] = Fraction(1)
    return MultiPoly(variables, terms)


def power_sum(m: int, k: int) -> MultiPoly:
    """The power sum b1^k + ... + bm^k (the brute-force oracle polynomial)."""
    variables = beta_variables(m)
    terms = {}
    for i in range(m):
        exps = tuple(k if j == i else 0 for j in range(m))
        terms[exps] = Fraction(1)
    return MultiPoly(variables, terms)


@lru_cache(maxsize=None)
def newton_polynomial(k: int) -> GradedPoly:
    """The k-th Newton polynomial nu_k as a graded polynomial in s1..sk.

    Defined by the classical recursion
    nu_k = s1*nu_{k-1} - s2*nu_{k-2} + ... + (-1)^{k-1} * k * s_k;
    substituting elementary symmetric polynomials of m >= k variables
    yields the k-th power sum.
    """
    if k < 1:
        raise ValueError(f"newton polynomials are indexed from 1, got {k}")
    gens, weights = sigma_generators(k)
    sigma = [None] + [GradedPoly.generator(gens, weights, g) for g in gens]
    nu: list[GradedPoly] = [GradedPoly.zero(gens, weights)]
    for j in range(1, k + 1):
        acc = GradedPoly.zero(gens, weights)
        for i in range(1, j):
            term = sigma[i] * nu[j - i]
            acc = acc + term if i % 2 == 1 else acc - term
        tail = sigma[j] * j
        acc = acc + tail if j % 2 == 1 else acc - tail
        nu.append(acc)
    return nu[k]


def power_sums_from_values(values: Sequence, k_max: int, zero):
    """Run the Newton recursion on concrete values of s1, s2, ... .

    `values[i]` is the value of s_{i+1}; indices past the end count as
    zero.  Returns [nu_1, ..., nu_{k_max}].  Values only need +, -, *
    and multiplication by int, so rationals and polynomial types both
    work; `zero` is the additive unit of the value ring.
    """
    def sig(i):
        return values[i - 1] if i - 1 < len(values) else zero

    nus = []
    for j in range(1, k_max + 1):
        acc = zero
        for i in range(1, j):
            term = sig(i) * nus[j - i - 1]
            acc = acc + term if i % 2 == 1 else acc - term
        tail = sig(j) * j
        acc = acc + tail if j % 2 == 1 else acc - tail
        nus.append(acc)
    return nus


def reduce_to_elementary(p: MultiPoly) -> GradedPoly:
    """Express a symmetric polynomial in the elementary basis s1..sm.

    Uses repeated leading-term elimination in lexicographic order: the
    leading exponent vector (a1 >= a2 >= ... >= am) of a symmetric
    polynomial is killed by c * s1^(a1-a2) * s2^(a2-a3) * ... * sm^am.
    Raises on non-symmetric input, naming a witnessing transposition.
    """
    witness = p.asymmetry_witness()
    if witness is not None:
        raise ValueError(
            f"polynomial is not symmetric: swapping {witness[0]} and "
            f"{witness[1]} changes it"
        )
    m = len(p.variables)
    gens, weights = sigma_generators(m)
    sigma = [elementary_symmetric(m, j) for j in range(m + 1)]
    power_cache: dict[tuple[int, int], MultiPoly] = {}

    def sigma_power(j: int, e: int) -> MultiPoly:
        key = (j, e)
        if key not in power_cache:
            power_cache[key] = sigma[j] ** e
        return power_cache[key]

    out_terms: dict[tuple, Fraction] = {}
    work = p
    while work.terms:
        exps, coeff = work.leading_term_lex()
        if any(exps[i] < exps[i + 1] for i in range(m - 1)):
            raise AssertionError(
                "leading exponents of a symmetric polynomial must be sorted"
            )
        sig_exps = tuple(
            exps[i] - exps[i + 1] for i in range(m - 1)
        ) + (exps[m - 1],)
        out_terms[sig_exps] = out_terms.get(sig_exps, Fraction(0)) + coeff
        expansion = MultiPoly.constant(p.variables, coeff)
        for j, e in enumerate(sig_exps, start=1):
            if e:
                expansion = expansion * sigma_power(j, e)
        work = work - expansion
    return GradedPoly(gens, weights, out_terms)


def expand_in_roots(g: GradedPoly, m: int) -> MultiPoly:
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
        return MultiPoly.constant(beta_variables(m), value)
    return value


def substitute(p: GradedPoly, assignments: Mapping[str, object]):
    """Evaluate a graded polynomial with every generator assigned.

    Values may be rationals, MultiPoly, or GradedPoly (anything closed
    under +, * and integer powers).  Returns a Fraction when the result
    collapses to a scalar.
    """
    missing = [g for g in p.generators if g not in assignments]
    if missing:
        raise ValueError(f"unassigned generator {missing[0]}")
    total = None
    for exps, coeff in p.terms.items():
        term = coeff
        for name, e in zip(p.generators, exps):
            if e:
                term = term * (assignments[name] ** e)
        total = term if total is None else total + term
    if total is None:
        for v in assignments.values():
            if isinstance(v, GradedPoly):
                return v * 0
        return Fraction(0)
    if isinstance(total, (int, Fraction)):
        return _frac(total)
    return total
