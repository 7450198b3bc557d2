"""Tour of the doubling-algebra tower: quaternions, octonions, sedenions.

Run: python demos/01_cayley_dickson_tour.py
"""

from acstk import CDElement, associator, basis_product, probe_alternative

e = CDElement.basis

print("== level 2: quaternions ==")
print("e1*e2 =", e(2, 1) * e(2, 2))
print("e2*e1 =", e(2, 2) * e(2, 1))
print("e1^2  =", e(2, 1) * e(2, 1))
print("e_i*e_j from the structure constants (row i, column j):")
for i in range(4):
    print("  ", *(f"{'-' if sign < 0 else '+'}e{k}" for sign, k in (basis_product(2, i, j) for j in range(4))))

a = CDElement(2, (1, 2, 3, 4))
print("a =", a)
print("|a|^2 =", a.norm_sq(), " and a * conj(a) =", a * a.conjugate())

print()
print("== level 3: octonions stop associating ==")
lhs = (e(3, 1) * e(3, 2)) * e(3, 4)
rhs = e(3, 1) * (e(3, 2) * e(3, 4))
print("(e1*e2)*e4 =", lhs, "   e1*(e2*e4) =", rhs)
print("associator [e1,e2,e4] =", associator(e(3, 1), e(3, 2), e(3, 4)))
print("but with a repeated argument it still dies: [e1,e1,e4] =",
      associator(e(3, 1), e(3, 1), e(3, 4)))

print()
print("== probing the alternating law level by level ==")
for level in (2, 3, 4):
    report = probe_alternative(level, samples=100, seed=0)
    if report.alternative:
        print(f"level {level}: alternative "
              f"({report.basis_checks} basis checks, {report.random_checks} random checks)")
    else:
        print(f"level {level}: NOT alternative, witness {report.witness_form} with")
        print(f"    u = {report.witness_u}")
        print(f"    v = {report.witness_v}")
        print(f"    [u,u,v] = {report.witness_associator}")

print()
print("== sedenions even have zero divisors ==")
u = e(4, 3) + e(4, 10)
v = e(4, 6) - e(4, 15)
print(f"({u}) * ({v}) =", u * v)
print("|u|^2 * |v|^2 =", u.norm_sq() * v.norm_sq(), " but |uv|^2 =", (u * v).norm_sq())
