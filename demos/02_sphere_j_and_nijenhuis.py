"""The cross-product almost complex structure on S^2 and S^6, and the
exact Nijenhuis dichotomy between them.

Run: python demos/02_sphere_j_and_nijenhuis.py
"""

import random
from fractions import Fraction

from acstk import (
    CDElement,
    SpherePoint,
    TangentVector,
    compare_nijenhuis_associator,
    j_apply,
    nijenhuis,
    rational_sphere_point,
    tangent_projection,
)

print("== rational points via inverse stereographic projection ==")
p = rational_sphere_point(6, [Fraction(1, 2), 3, 0, Fraction(-2, 7), 0, 1])
print("p =", p.vector)
print("|p|^2 =", p.vector.norm_sq(), "(exact)")

print()
print("== J rotates tangent planes, J^2 = -Id ==")
t = tangent_projection(p, CDElement.basis(3, 2))
jt = j_apply(t)
jjt = j_apply(jt)
print("v     =", t.vector)
print("Jv    =", jt.vector)
print("J^2 v =", jjt.vector)
print("J^2 v == -v:", jjt.vector == -t.vector)
print("<Jv, p> =", jt.vector.inner(p.vector), " |Jv|^2 == |v|^2:", jt.vector.norm_sq() == t.vector.norm_sq())

print()
print("== the Nijenhuis tensor vanishes identically on S^2 ... ==")
rng = random.Random(0)
for _ in range(3):
    q = rational_sphere_point(2, [Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(2)])
    u = tangent_projection(q, CDElement.basis(2, 1))
    v = tangent_projection(q, CDElement.basis(2, 2))
    print(f"  N at {q.vector}:  {nijenhuis(q, u, v)}")

print()
print("== ... and is nonzero on S^6 ==")
p6 = SpherePoint(CDElement.basis(3, 1))
u6 = TangentVector(p6, CDElement.basis(3, 2))
v6 = TangentVector(p6, CDElement.basis(3, 4))
print("N(e2, e4) at p = e1:", nijenhuis(p6, u6, v6))

print()
print("== pairing N against a third tangent vector, next to the associator ==")
for w_index in (3, 5, 7):
    w = TangentVector(p6, CDElement.basis(3, w_index))
    report = compare_nijenhuis_associator(p6, u6, v6, w)
    print(f"w = e{w_index}:  <N(u,v), w> = {str(report.pairing_with_w):>2}   "
          f"[u,v,w] = {report.associator_value}")
print(f"(each row first checked N(u,v) = 2[p,u,v] exactly; here both are {report.nijenhuis_value})")
