"""Independent oracles for the benchmark's correctness gate.

Nothing here imports acstk.  Each check recomputes a mathematical fact
from first principles (the classical Bernoulli recurrence, the signature
of CP^{2k}, a fresh Cayley-Dickson doubling product) and compares it with
what the program printed, so a faster wrong answer cannot post a time.
Every check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

# ----------------------------------------------------------------------
# Bernoulli numbers and the classify-sweep certificates


def bernoulli_table(n_max: int) -> list[Fraction]:
    """B_0..B_{n_max} from sum_{j<=n} C(n+1, j) B_j = 0 (B_1 = -1/2)."""
    b = [Fraction(1)]
    for n in range(1, n_max + 1):
        acc = sum((math.comb(n + 1, j) * b[j] for j in range(n)), Fraction(0))
        b.append(-acc / (n + 1))
    return b


def check_classify(text: str, start: int, stop: int) -> list[str]:
    """Verdicts for S^start..S^stop: `exists` exactly at n = 2 and 6, and
    every certificate's arithmetic recomputed without the program."""
    try:
        verdicts = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"classify output is not JSON: {exc}"]
    if [v.get("n") for v in verdicts] != list(range(start, stop + 1)):
        return [f"classify output does not list n = {start}..{stop} in order"]
    bernoulli = bernoulli_table(2 * (stop // 4))
    problems = []
    for v in verdicts:
        n, cert, reason = v["n"], v["certificate"], v["reason"]
        exists = v["status"] == "exists"
        if exists != (n in (2, 6)):
            problems.append(f"S^{n}: status {v['status']}")
            continue
        if exists:
            ver = cert["verification"]
            if not (ver["all_passed"] and ver["samples"] > 0):
                problems.append(f"S^{n}: construction not verified")
        elif n % 2:
            if reason != "odd_dimension":
                problems.append(f"S^{n}: odd dimension ruled out by {reason}")
        elif n % 4 == 0:
            k = n // 4
            # s_k = 2^(2k) (2^(2k-1) - 1) |B_2k| / (2k)!
            s_k = Fraction(2 ** (2 * k) * (2 ** (2 * k - 1) - 1), math.factorial(2 * k)) * abs(bernoulli[2 * k])
            sig = cert["signature"]
            if Fraction(sig["s_k"]) != s_k:
                problems.append(f"S^{n}: s_{k} = {sig['s_k']}, recurrence gives {s_k}")
            if Fraction(sig["forced_signature"]) != (-1) ** k * 4 * s_k:
                problems.append(f"S^{n}: forced signature {sig['forced_signature']}")
            if Fraction(cert["pontryagin_euler"]["pairing"]) != (-1) ** k * 4:
                problems.append(f"S^{n}: pairing {cert['pontryagin_euler']['pairing']}")
        else:
            m = n // 2
            fact = math.factorial(m - 1)
            if reason != "chern_divisibility" or cert["factorial"] != fact:
                problems.append(f"S^{n}: expected (m-1)! = {fact} divisibility")
            elif cert["remainder"] != 2 % fact or cert["remainder"] == 0:
                problems.append(f"S^{n}: remainder {cert['remainder']}")
            elif Fraction(cert["top_coefficient"]) != Fraction((-1) ** (m - 1), fact):
                problems.append(f"S^{n}: top coefficient {cert['top_coefficient']}")
    return problems


# ----------------------------------------------------------------------
# L-polynomials: the signature of CP^{2k} is 1

_TERM = re.compile(r"^(-?)(?:(\d+(?:/\d+)?)\*?)?((?:p\d+(?:\^\d+)?\*?)*)$")


def _parse_poly(text: str) -> list[tuple[Fraction, dict[int, int]]]:
    """Parse the CLI rendering `-1/45*p1^2 + 7/45*p2` into terms."""
    terms = []
    tokens = re.split(r" ([+-]) ", text.strip())
    signs = ["+"] + tokens[1::2]
    for sign, body in zip(signs, tokens[0::2]):
        m = _TERM.match(body)
        if m is None or body == "":
            raise ValueError(f"cannot parse term {body!r}")
        neg = (sign == "-") != (m.group(1) == "-")
        coeff = Fraction(m.group(2)) if m.group(2) else Fraction(1)
        powers: dict[int, int] = {}
        for name, exp in re.findall(r"p(\d+)(?:\^(\d+))?", m.group(3)):
            powers[int(name)] = powers.get(int(name), 0) + int(exp or 1)
        terms.append((-coeff if neg else coeff, powers))
    return terms


def check_lpoly(text: str, k_max: int) -> list[str]:
    """<L_k, [CP^{2k}]> = 1 with p_j = C(2k+1, j), for every printed L_k."""
    lines = text.splitlines()
    if len(lines) != k_max:
        return [f"expected {k_max} L-polynomials, got {len(lines)} lines"]
    problems = []
    for k, line in enumerate(lines, start=1):
        head = f"L_{k} = "
        if not line.startswith(head):
            problems.append(f"line {k} does not start with {head!r}")
            continue
        try:
            terms = _parse_poly(line[len(head):])
        except ValueError as exc:
            problems.append(f"L_{k}: {exc}")
            continue
        pairing = Fraction(0)
        for coeff, powers in terms:
            if sum(j * e for j, e in powers.items()) != k:
                problems.append(f"L_{k} has a term of the wrong weight")
            value = coeff
            for j, e in powers.items():
                value *= math.comb(2 * k + 1, j) ** e
            pairing += value
        if pairing != 1:
            problems.append(f"<L_{k}, [CP^{2 * k}]> = {pairing}, expected 1")
    return problems


# ----------------------------------------------------------------------
# Doubling algebras, J and the Nijenhuis tensor


def cd_mul(a: tuple, b: tuple) -> tuple:
    """(a1,a2)(b1,b2) = (a1 b1 - conj(b2) a2, b2 a1 + a2 conj(b1))."""
    if len(a) == 1:
        return (a[0] * b[0],)
    h = len(a) // 2
    a1, a2, b1, b2 = a[:h], a[h:], b[:h], b[h:]
    left = _sub(cd_mul(a1, b1), cd_mul(_conj(b2), a2))
    right = _add(cd_mul(b2, a1), cd_mul(a2, _conj(b1)))
    return left + right


def _conj(a):
    return (a[0],) + tuple(-x for x in a[1:])


def _add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _scale(a, q):
    return tuple(x * q for x in a)


def _inner(a, b):
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def cross(u, v):
    """(uv - vu)/2 for imaginary u, v."""
    return _scale(_sub(cd_mul(u, v), cd_mul(v, u)), Fraction(1, 2))


def associator(u, v, w):
    return _sub(cd_mul(cd_mul(u, v), w), cd_mul(u, cd_mul(v, w)))


def sphere_point(params) -> tuple:
    """Inverse stereographic projection (2q, s - 1)/(s + 1) on e_1..e_{d+1}."""
    s = sum((q * q for q in params), Fraction(0))
    return (Fraction(0),) + tuple(2 * q / (s + 1) for q in params) + ((s - 1) / (s + 1),)


def tangent(p, comps) -> tuple:
    w = (Fraction(0),) + tuple(comps)
    return _sub(w, _scale(p, _inner(w, p)))


def nijenhuis(p, u, v) -> tuple:
    """N(u, v) at p from 1-jets of the extensions U(x) = u - <u,x>x and
    (JU)(x) = x x U(x): at p, DU(w) = -<u,w>p and D(JU)(w) = w x u, so
    N = (p x u) x v - (p x v) x u - 2 p x (u x v)."""
    return _sub(
        _sub(cross(cross(p, u), v), cross(cross(p, v), u)),
        _scale(cross(p, cross(u, v)), 2),
    )


def _fracs(strings) -> tuple:
    return tuple(Fraction(s) for s in strings)


def check_sphere(text: str, inputs: dict) -> list[str]:
    """Recompute every line of the sphere-algebra driver's output."""
    records = []
    for line in text.splitlines():
        kind, _, body = line.partition(" ")
        try:
            records.append((kind, json.loads(body)))
        except json.JSONDecodeError:
            return [f"unparseable driver line {line[:60]!r}"]
    expected = (
        ["verify_j"] * len(inputs["verify_j"])
        + ["nijenhuis"] * len(inputs["nijenhuis"])
        + ["probe"]
    )
    if [kind for kind, _ in records] != expected:
        return ["driver output sections do not match the inputs"]
    problems = []
    jobs = iter(inputs["verify_j"])
    points = iter(inputs["nijenhuis"])
    for kind, rec in records:
        if kind == "verify_j":
            sphere, samples, seed = next(jobs)
            if (rec["sphere"], rec["samples"], rec["seed"]) != (sphere, samples, seed):
                problems.append(f"verify_j report is for the wrong job {sphere}/{samples}/{seed}")
            elif not (rec["all_passed"] and rec["j_squared_is_minus_identity"]):
                problems.append(f"J^2 = -Id failed on S^{sphere}")
            else:
                p = _fracs(rec["example_point"]["coeffs"])
                t = _fracs(rec["example_tangent"]["coeffs"])
                if cross(p, cross(p, t)) != _scale(t, -1) or _inner(p, p) != 1:
                    problems.append(f"J^2 != -Id at the S^{sphere} example point")
        elif kind == "nijenhuis":
            job = next(points)
            sphere = job["sphere"]
            p = sphere_point(_fracs(job["point"]))
            u = tangent(p, _fracs(job["u"]))
            v = tangent(p, _fracs(job["v"]))
            got = tuple(_fracs(rec["N"]))
            if (_fracs(rec["point"]), _fracs(rec["u"]), _fracs(rec["v"])) != (p, u, v):
                problems.append(f"S^{sphere}: point or tangents differ from the inputs")
            elif got != nijenhuis(p, u, v):
                problems.append(f"S^{sphere}: N(u, v) differs from the 1-jet oracle")
            elif (sphere == 2) == any(got):
                problems.append(f"S^{sphere}: N = {rec['N']} (expected {'0' if sphere == 2 else 'nonzero'})")
        else:
            level = inputs["probe"]["level"]
            wit = rec.get("witness")
            if rec["level"] != level or rec["alternative"] or wit is None:
                problems.append(f"probe found no alternativity witness at level {level}")
                continue
            u, v = _fracs(wit["u"]["coeffs"]), _fracs(wit["v"]["coeffs"])
            args = {"[u,u,v]": (u, u, v), "[u,v,v]": (u, v, v), "[u,v,u]": (u, v, u)}[wit["form"]]
            value = associator(*args)
            if not any(value) or value != _fracs(wit["associator"]["coeffs"]):
                problems.append("probe witness associator is zero or misreported")
    return problems
