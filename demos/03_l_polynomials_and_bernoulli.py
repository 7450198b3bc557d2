"""Power-series kernels: the Q-series, Bernoulli numbers, L-polynomials
and their leading coefficients s_k.

Run: python demos/03_l_polynomials_and_bernoulli.py
"""

from acstk import bernoulli, l_polynomial, q_series, s_coefficient, s_series

print("== Q(z) = sqrt(z)/tanh(sqrt(z)), from q_k = (-1)^(k-1) 2^(2k) B_k/(2k)! ==")
q = q_series(6)
for k in range(7):
    print(f"  [z^{k}] Q = {q.coefficient(k)}")

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
series = s_series(8)
for k in range(9):
    closed = s_coefficient(k)
    assert closed == series.coefficient(k)
    print(f"  s_{k} = {closed}")
print("closed form and generating series agree exactly")
