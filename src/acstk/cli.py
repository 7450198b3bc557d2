"""Command-line frontend.

Subcommands: classify, lpoly, series, verify-j, nijenhuis, assoc-compare,
bernoulli.  All rationals are printed reduced as "num/den" (denominator
omitted when 1).  Exit codes: 0 on success, 2 on invalid input (including
sizes above the caps below), 3 on an internal invariant violation.  The
environment variable ACSTK_SEED overrides the default sampling seed 0.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

from . import classify as classify_mod
from ._exact import _EXPONENT
from .cayley_dickson import CDElement
from .errors import InternalInvariantError
from .genera import bernoulli, l_polynomial, q_coefficient
from .sphere_acs import (
    compare_nijenhuis_associator,
    nijenhuis,
    rational_sphere_point,
    tangent_projection,
    verify_j_structure,
)

#: Largest `lpoly --k`; `lpoly --k 20` takes about 0.3 s cold, and the cost
#: grows with the number of partitions of k (627 terms in L_20).
LPOLY_MAX_K = 20

#: Largest `series --order`; q_0..q_300 take well under a second.
SERIES_MAX_ORDER = 300

#: Largest `bernoulli --k`.  B_1..B_500 take well under a second, but this cap
#: also sets CLASSIFY_MAX_N, and one Chern check at n = 1998 takes seconds.
BERNOULLI_MAX_K = 100

#: Largest `classify` dimension, and largest `--range` end.  The signature
#: route on S^{4k} needs B_k, so this is 4 * BERNOULLI_MAX_K.
CLASSIFY_MAX_N = 4 * BERNOULLI_MAX_K

#: Largest `--samples` of `verify-j` and `classify`; 100000 samples on S^6
#: take about 5 s.
SAMPLES_MAX = 100_000

#: Most digits in one parsed rational (exponent digits included), and the
#: largest magnitude of its decimal exponent.  Checked before `Fraction`
#: sees the text, because `Fraction("1e99999999")` builds 10^99999999
#: eagerly.  With every entry at the cap, `assoc-compare` on S^6 prints
#: numerators and denominators of about 2000 digits, inside Python's
#: 4300-digit limit for int-to-str conversion.
RATIONAL_MAX_DIGITS = 100


def _default_seed() -> int:
    raw = os.environ.get("ACSTK_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"ACSTK_SEED must be an integer, got {raw!r}")


def _parse_rationals(text: str, what: str) -> list[Fraction]:
    parts = [part.strip() for part in text.split(",") if part.strip() != ""]
    for part in parts:
        # the digit count goes first, so int() never parses a long exponent
        match = _EXPONENT.search(part)
        if sum(map(str.isdigit, part)) > RATIONAL_MAX_DIGITS or (
            match and abs(int(match[1])) > RATIONAL_MAX_DIGITS
        ):
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

    p = sub.add_parser("classify", help="classify one dimension or a range")
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
    p.add_argument("--seed", type=int, default=None, help="sampling seed (default: ACSTK_SEED or 0)")

    p = sub.add_parser("lpoly", help="print the L-polynomials L_1..L_K exactly")
    p.add_argument("--k", type=int, required=True, help=f"highest index K, 1..{LPOLY_MAX_K}")
    p.add_argument("--latex", action="store_true")

    p = sub.add_parser("series", help="print power-series coefficients")
    p.add_argument("which", choices=["q"], help="series to print")
    p.add_argument("--order", type=int, required=True, help=f"highest power N, 0..{SERIES_MAX_ORDER}")

    p = sub.add_parser("verify-j", help="sample-check J^2 = -Id on S^2 or S^6")
    p.add_argument("--sphere", type=int, choices=[2, 6], required=True)
    p.add_argument("--samples", type=int, default=1000, help=f"sample count, 1..{SAMPLES_MAX}")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--json", action="store_true")

    rational_cap = (
        f"Each rational has at most {RATIONAL_MAX_DIGITS} digits and a decimal "
        f"exponent of at most {RATIONAL_MAX_DIGITS} in absolute value."
    )
    p = sub.add_parser(
        "nijenhuis", help="evaluate the Nijenhuis tensor at a rational point", epilog=rational_cap
    )
    p.add_argument("--sphere", type=int, choices=[2, 6], required=True)
    p.add_argument("--point", required=True, help="stereographic parameters q1,q2,...")
    p.add_argument("--u", required=True, help="ambient imaginary components, projected to the tangent space")
    p.add_argument("--v", required=True, help="ambient imaginary components, projected to the tangent space")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser(
        "assoc-compare",
        help="check N(u,v) = 2[p,u,v] (exit 3 if not), then report <N(u,v), w> next to the associator [u,v,w]",
        epilog=rational_cap,
    )
    p.add_argument("--sphere", type=int, choices=[2, 6], required=True)
    p.add_argument("--point", required=True)
    p.add_argument("--u", required=True)
    p.add_argument("--v", required=True)
    p.add_argument("--w", required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("bernoulli", help="print positive Bernoulli numbers B_1..B_K")
    p.add_argument("--k", type=int, required=True, help=f"highest index K, 1..{BERNOULLI_MAX_K}")

    return parser


def _print_json(payload) -> None:
    import json  # only the --json paths pay for this import

    print(json.dumps(payload, indent=2, sort_keys=True))


def _check_samples(samples: int) -> None:
    if samples > SAMPLES_MAX:
        raise ValueError(f"--samples must be at most {SAMPLES_MAX}")


def _cmd_classify(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    if (args.n is None) == (args.range_ is None):
        raise ValueError("classify needs exactly one of a dimension or --range A..B")
    a, b = (args.n, args.n) if args.range_ is None else _parse_range(args.range_)
    if b > CLASSIFY_MAX_N:
        raise ValueError(f"classify dimensions must be at most {CLASSIFY_MAX_N}")
    _check_samples(args.samples)
    if args.range_ is not None:
        verdicts = classify_mod.classify_range(a, b, samples=args.samples, seed=seed)
    else:
        verdicts = [classify_mod.classify_sphere(args.n, samples=args.samples, seed=seed)]
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
    if args.k < 1:
        raise ValueError("--k must be at least 1")
    if args.k > LPOLY_MAX_K:
        raise ValueError(f"--k must be at most {LPOLY_MAX_K}")
    for k in range(1, args.k + 1):
        poly = l_polynomial(k)
        print(f"L_{k} = {poly.latex() if args.latex else poly}")
    return 0


def _cmd_series(args) -> int:
    if args.order < 0:
        raise ValueError("--order must be non-negative")
    if args.order > SERIES_MAX_ORDER:
        raise ValueError(f"--order must be at most {SERIES_MAX_ORDER}")
    for k in range(args.order + 1):
        print(f"z^{k}: {q_coefficient(k)}")
    return 0


def _cmd_verify_j(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    _check_samples(args.samples)
    report = verify_j_structure(args.sphere, samples=args.samples, seed=seed)
    if args.json:
        _print_json(report.as_dict())
    else:
        status = "ok" if report.all_passed else "FAILED"
        print(
            f"S^{args.sphere}: {args.samples} samples, seed {seed}: "
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
    if args.k < 1:
        raise ValueError("--k must be at least 1")
    if args.k > BERNOULLI_MAX_K:
        raise ValueError(f"--k must be at most {BERNOULLI_MAX_K}")
    for k in range(1, args.k + 1):
        print(f"B_{k} = {bernoulli(k)}")
    return 0


_COMMANDS = {
    "classify": _cmd_classify,
    "lpoly": _cmd_lpoly,
    "series": _cmd_series,
    "verify-j": _cmd_verify_j,
    "nijenhuis": _cmd_nijenhuis,
    "assoc-compare": _cmd_assoc_compare,
    "bernoulli": _cmd_bernoulli,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except InternalInvariantError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
