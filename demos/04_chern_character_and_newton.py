"""Newton polynomials, the Chern character, and the factorial divisibility
bound it forces on spheres.

Run: python demos/04_chern_character_and_newton.py
"""

import math
from fractions import Fraction

from acstk import GradedPoly, chern_character, newton_polynomial

print("== Newton polynomials in the elementary symmetric generators ==")
for k in range(1, 6):
    print(f"  nu_{k} = {newton_polynomial(k)}")

print()
print("== Chern character of a line bundle is the exponential series ==")
t = GradedPoly.generator(("t",), (1,), "t")
print("  ch =", chern_character([t], max_weight=5))

print()
print("== a rank-m bundle on S^{2m} has only its top class ==")
for m in (2, 3, 5, 7):
    x = GradedPoly.generator(("x",), (m,), "x")
    zero = GradedPoly.zero(("x",), (m,))
    ch = chern_character([zero] * (m - 1) + [x], max_weight=m)
    coeff = ch.coefficient_of_generator("x")
    print(f"  m = {m}:  ch = {m} + ({coeff}) * c_{m}")

print()
print("== integrality: <c_m> = 2, so (m-1)! must divide 2 ==")
for m in range(1, 8):
    fact = math.factorial(m - 1)
    pairing = Fraction(2, fact)
    verdict = "integral, survives" if pairing.denominator == 1 else "NOT integral, ruled out"
    print(f"  S^{2*m}: 2/(m-1)! = {pairing}  ->  {verdict}")
print("(dimensions 2, 4, 6 survive this test; 4 falls to the Pontryagin/Euler argument)")
