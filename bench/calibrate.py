"""Fixed reference work for scaling times to one machine speed.

    python bench/calibrate.py

Prints the seconds its loop took.  The loop inverts a truncated power
series with exact rational coefficients.  That is Fraction arithmetic on
growing integers, the interpreter work that dominates acstk's kernels.
It never imports acstk, so no change to the program moves it.  On a
shared host the speed of a core drifts by up to 2x over tens of seconds.
The benchmark runs this loop between workload processes and divides each
process's time by the calibration times measured right before and after
it.  Of the loops tried (sparse polynomial squaring with small or large
dicts, doubling-algebra products, this one), this one tracked all three
workloads best.
"""

import time
from fractions import Fraction
from math import factorial


def work(order: int = 150) -> Fraction:
    """Coefficient z^(order-1) of w/sinh(w) in z = w^2, by the recurrence
    inv_n = -sum_{k=1..n} s_k inv_{n-k} with s_k = 1/(2k+1)!."""
    s = [Fraction(1, factorial(2 * k + 1)) for k in range(order)]
    inv = [Fraction(1)]
    for n in range(1, order):
        inv.append(-sum((s[k] * inv[n - k] for k in range(1, n + 1)), Fraction(0)))
    return inv[-1]


if __name__ == "__main__":
    start = time.perf_counter()
    work()
    print(time.perf_counter() - start)
