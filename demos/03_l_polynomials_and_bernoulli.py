"""The coefficients of the signature series Q, Bernoulli numbers,
L-polynomials and their leading coefficients s_k.

Run: python demos/03_l_polynomials_and_bernoulli.py
"""

from fractions import Fraction
from math import factorial

from acstk import bernoulli, l_polynomial, q_coefficient, s_coefficient

print("== Q(z) = sqrt(z)/tanh(sqrt(z)), from q_k = (-1)^(k-1) 2^(2k) B_k/(2k)! ==")
for k in range(7):
    print(f"  [z^{k}] Q = {q_coefficient(k)}")

print()
print("== positive Bernoulli numbers B_k = 2k T_k/(4^k (4^k - 1)), from tangent numbers T_k ==")
for k in range(1, 9):
    print(f"  B_{k} = {bernoulli(k)}")

print()
print("== L-polynomials in the Pontryagin generators ==")
for k in range(1, 5):
    print(f"  L_{k} = {l_polynomial(k)}")

print()
print("== s_k: leading coefficient of L_k, closed form and generating series ==")
# the generating series 1/2 + t/sin(2t), z = t^2: 1/d by the reciprocal
# recursion g_n = -sum_{k=1..n} d_k g_(n-k), where d(z) = sin(2t)/(2t)
d = [Fraction((-4) ** k, factorial(2 * k + 1)) for k in range(9)]
g = [Fraction(1)]
for n in range(1, 9):
    g.append(-sum(d[k] * g[n - k] for k in range(1, n + 1)))
series = [Fraction(1), *(c / 2 for c in g[1:])]
for k in range(9):
    closed = s_coefficient(k)
    assert closed == series[k]
    print(f"  s_{k} = {closed}")
print("closed form and generating series agree exactly")
