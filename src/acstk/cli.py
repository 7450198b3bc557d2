"""Command-line frontend.

Subcommands: classify, lpoly, series, verify-j, nijenhuis, assoc-compare,
bernoulli; each subparser binds its handler with `set_defaults`.  All
rationals are printed reduced as "num/den" (denominator omitted when 1).
Exit codes: 0 on success, 2 on invalid input (including sizes outside the
caps below), 3 on an internal invariant violation.  Every setting comes from
the command line; the sampling seed is `--seed`, 0 by default.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from . import classify as classify_mod
from ._exact import _check_int, _exponent_exceeds
from .cayley_dickson import CDElement
from .errors import InternalInvariantError
from .genera import bernoulli, l_polynomial, q_coefficient
from .sphere_acs import (
    SPHERE_LEVEL,
    compare_nijenhuis_associator,
    nijenhuis,
    rational_sphere_point,
    tangent_projection,
    verify_j_structure,
)

#: Largest `lpoly --k`; `lpoly --k 20` takes about 0.14 s cold on Python
#: 3.11.7, and the cost grows with the number of partitions of k (627 terms
#: in L_20).
LPOLY_MAX_K = 20

#: Largest `series --order`; q_0..q_300 take well under a second.
SERIES_MAX_ORDER = 300

#: Largest `bernoulli --k`.  B_1..B_500 take well under a second, but this cap
#: also sets CLASSIFY_MAX_N, and one Chern check at n = 1998 takes about 1.2 s.
BERNOULLI_MAX_K = 100

#: Largest `classify` dimension, and largest `--range` end.  The signature
#: route on S^{4k} needs B_k, so this is 4 * BERNOULLI_MAX_K.
CLASSIFY_MAX_N = 4 * BERNOULLI_MAX_K

#: Largest `--samples` of `verify-j` and `classify`; 100000 samples on S^6
#: take about 2.8 s.
SAMPLES_MAX = 100_000

#: Most digits in one parsed rational (exponent digits included), and the
#: largest magnitude of its decimal exponent.  Checked before `Fraction`
#: sees the text, because `Fraction("1e99999999")` builds 10^99999999
#: eagerly.  With every entry at the cap, `assoc-compare` on S^6 prints
#: numerators and denominators of about 2000 digits, inside Python's
#: 4300-digit limit for int-to-str conversion.
RATIONAL_MAX_DIGITS = 100


def _parse_rationals(text: str, what: str) -> list[Fraction]:
    parts = [part.strip() for part in text.split(",")]
    if "" in parts:
        raise ValueError(f"{what} has an empty entry: {text!r}")
    for part in parts:
        if sum(map(str.isdigit, part)) > RATIONAL_MAX_DIGITS or _exponent_exceeds(part, RATIONAL_MAX_DIGITS):
            raise ValueError(
                f"{what} entries may have at most {RATIONAL_MAX_DIGITS} digits and a "
                f"decimal exponent of at most {RATIONAL_MAX_DIGITS} in absolute value"
            )
    try:
        return [Fraction(part) for part in parts]
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"could not parse {what} as comma-separated rationals: {text!r}")


def _parse_range(text: str) -> tuple[int, int]:
    try:
        a, b = text.split("..")
        return int(a), int(b)
    except ValueError:
        raise ValueError(f"range must look like A..B, got {text!r}")


def _tangent(point, text: str, flag: str):
    """The ambient imaginary components in `text`, projected to the
    tangent space at `point`."""
    comps = _parse_rationals(text, flag)
    if len(comps) != point.sphere_dim + 1:
        raise ValueError(
            f"{flag} needs {point.sphere_dim + 1} ambient imaginary components for "
            f"S^{point.sphere_dim}, got {len(comps)}"
        )
    return tangent_projection(point, CDElement(point.vector.level, (0, *comps)))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="acstk",
        description=(
            "Exact-rational computations around almost complex structures "
            "on spheres: doubling algebras, the cross-product J on S^2 and "
            "S^6, Nijenhuis tensors, L-polynomials and per-dimension "
            "classification certificates."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    spheres = sorted(SPHERE_LEVEL)
    seed_help = "sampling seed (default: 0)"

    p = sub.add_parser("classify", help="classify one dimension or a range")
    p.set_defaults(handler=_cmd_classify)
    p.add_argument("n", nargs="?", type=int, help=f"sphere dimension, 1..{CLASSIFY_MAX_N}")
    p.add_argument(
        "--range", dest="range_", metavar="A..B",
        help=f"inclusive range of dimensions, B at most {CLASSIFY_MAX_N}",
    )
    p.add_argument("--json", action="store_true", help="emit verdicts as JSON")
    p.add_argument(
        "--samples", type=int, default=25,
        help=f"sample count for the existence check, 1..{SAMPLES_MAX}",
    )
    p.add_argument("--seed", type=int, default=0, help=seed_help)

    p = sub.add_parser("lpoly", help="print the L-polynomials L_1..L_K exactly")
    p.set_defaults(handler=_cmd_lpoly)
    p.add_argument("--k", type=int, required=True, help=f"highest index K, 1..{LPOLY_MAX_K}")
    p.add_argument("--latex", action="store_true")

    p = sub.add_parser("series", help="print power-series coefficients")
    p.set_defaults(handler=_cmd_series)
    p.add_argument("which", choices=["q"], help="series to print")
    p.add_argument("--order", type=int, required=True, help=f"highest power N, 0..{SERIES_MAX_ORDER}")

    p = sub.add_parser("verify-j", help="sample-check J^2 = -Id on S^2 or S^6")
    p.set_defaults(handler=_cmd_verify_j)
    p.add_argument("--sphere", type=int, choices=spheres, required=True)
    p.add_argument("--samples", type=int, default=1000, help=f"sample count, 1..{SAMPLES_MAX}")
    p.add_argument("--seed", type=int, default=0, help=seed_help)
    p.add_argument("--json", action="store_true")

    rational_cap = (
        f"Each rational has at most {RATIONAL_MAX_DIGITS} digits and a decimal "
        f"exponent of at most {RATIONAL_MAX_DIGITS} in absolute value."
    )
    for name, handler, vectors, help_ in (
        ("nijenhuis", _cmd_nijenhuis, "uv", "evaluate the Nijenhuis tensor at a rational point"),
        (
            "assoc-compare", _cmd_assoc_compare, "uvw",
            "check N(u,v) = 2[p,u,v] (exit 3 if not), then report <N(u,v), w> next to the associator [u,v,w]",
        ),
    ):
        p = sub.add_parser(name, help=help_, epilog=rational_cap)
        p.set_defaults(handler=handler)
        p.add_argument("--sphere", type=int, choices=spheres, required=True)
        p.add_argument("--point", required=True, help="stereographic parameters q1,q2,...")
        for x in vectors:
            p.add_argument(
                f"--{x}", required=True, help="ambient imaginary components, projected to the tangent space"
            )
        p.add_argument("--json", action="store_true")

    p = sub.add_parser("bernoulli", help="print positive Bernoulli numbers B_1..B_K")
    p.set_defaults(handler=_cmd_bernoulli)
    p.add_argument("--k", type=int, required=True, help=f"highest index K, 1..{BERNOULLI_MAX_K}")

    return parser


def _print_json(payload) -> None:
    import json  # only the --json paths pay for this import

    print(json.dumps(payload, indent=2, sort_keys=True))


def _cmd_classify(args) -> int:
    if (args.n is None) == (args.range_ is None):
        raise ValueError("classify needs exactly one of a dimension or --range A..B")
    a, b = (args.n, args.n) if args.range_ is None else _parse_range(args.range_)
    _check_int(b, "classify dimensions", None, CLASSIFY_MAX_N)
    _check_int(args.samples, "--samples", 1, SAMPLES_MAX)
    verdicts = classify_mod.classify_range(a, b, samples=args.samples, seed=args.seed)
    if args.json:
        payload = [v.as_dict() for v in verdicts]
        _print_json(payload[0] if args.range_ is None else payload)
        return 0
    witness = {reason: text for reason, _, _, text in classify_mod.ROUTES}
    for v in verdicts:
        if v.status == classify_mod.STATUS_EXISTS:
            print(f"S^{v.n}: exists ({v.reason})")
        else:
            print(f"S^{v.n}: ruled out ({v.reason}{witness[v.reason](v.certificate)})")
    return 0


def _cmd_lpoly(args) -> int:
    _check_int(args.k, "--k", 1, LPOLY_MAX_K)
    for k in range(1, args.k + 1):
        poly = l_polynomial(k)
        print(f"L_{k} = {poly.latex() if args.latex else poly}")
    return 0


def _cmd_series(args) -> int:
    _check_int(args.order, "--order", 0, SERIES_MAX_ORDER)
    for k in range(args.order + 1):
        print(f"z^{k}: {q_coefficient(k)}")
    return 0


def _cmd_verify_j(args) -> int:
    _check_int(args.samples, "--samples", 1, SAMPLES_MAX)
    report = verify_j_structure(args.sphere, samples=args.samples, seed=args.seed)
    if args.json:
        _print_json(report.as_dict())
    else:
        status = "ok" if report.all_passed else "FAILED"
        print(
            f"S^{args.sphere}: {args.samples} samples, seed {args.seed}: "
            f"J^2 = -Id, tangency and isometry all exact -> {status}"
        )
    if not report.all_passed:
        raise InternalInvariantError("sampled J verification failed")
    return 0


def _cmd_nijenhuis(args) -> int:
    point = rational_sphere_point(args.sphere, _parse_rationals(args.point, "--point"))
    u, v = (_tangent(point, getattr(args, x), f"--{x}") for x in "uv")
    value = nijenhuis(point, u, v)
    payload = {
        "sphere": args.sphere,
        "point": point.as_dict(),
        "u": u.as_dict(),
        "v": v.as_dict(),
        "nijenhuis": value.as_dict(),
        "is_zero": not value,
    }
    if args.json:
        _print_json(payload)
    else:
        print(f"p = {point.vector}")
        print(f"u = {u.vector}")
        print(f"v = {v.vector}")
        print(f"N(u, v) = {value}")
    return 0


def _cmd_assoc_compare(args) -> int:
    point = rational_sphere_point(args.sphere, _parse_rationals(args.point, "--point"))
    u, v, w = (_tangent(point, getattr(args, x), f"--{x}") for x in "uvw")
    report = compare_nijenhuis_associator(point, u, v, w)
    if args.json:
        _print_json(report.as_dict())
    else:
        print(f"<N(u,v), w>    = {report.pairing_with_w}")
        print(f"[u, v, w]      = {report.associator_value}")
    return 0


def _cmd_bernoulli(args) -> int:
    _check_int(args.k, "--k", 1, BERNOULLI_MAX_K)
    for k in range(1, args.k + 1):
        print(f"B_{k} = {bernoulli(k)}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except InternalInvariantError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
