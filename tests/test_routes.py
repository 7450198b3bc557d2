"""The route table of `acstk.classify`: every route against every other
and against the default verdict, and the spans a traced run sees."""

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from acstk.classify import (
    REASON_CHERN_DIVISIBILITY,
    REASON_PONTRYAGIN_EULER,
    ROUTES,
    STATUS_RULED_OUT,
    check_chern_divisibility,
    check_odd,
    check_pontryagin_euler,
    check_signature,
    classify_sphere,
)

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("n", [0, -2, -3, -4, -7])
def test_chern_divisibility_refuses_non_positive_dimensions(n):
    with pytest.raises(ValueError, match=rf"divisibility route .* got n = {n}$"):
        check_chern_divisibility(n)


@pytest.mark.parametrize("n", [0, -3, -4])
def test_classify_sphere_refuses_non_positive_dimensions(n):
    with pytest.raises(ValueError, match=rf"^sphere dimension must be at least 1, got {n}$"):
        classify_sphere(n)


@pytest.mark.parametrize("n", [0, -3, -4])
@pytest.mark.parametrize(
    "check", [check_odd, check_pontryagin_euler, check_signature], ids=lambda check: check.__name__
)
def test_route_checks_refuse_non_positive_dimensions(check, n):
    # the same refusal as classify_sphere's; the divisibility route keeps
    # the message of its own domain, pinned above
    with pytest.raises(ValueError, match=rf"^sphere dimension must be at least 1, got {n}$"):
        check(n)


@pytest.mark.parametrize("n", [4.0, True, "4"], ids=["float", "bool", "str"])
@pytest.mark.parametrize(
    "check", [check_odd, check_pontryagin_euler, check_signature, check_chern_divisibility],
    ids=lambda check: check.__name__,
)
def test_route_checks_refuse_non_int_dimensions(check, n):
    with pytest.raises(TypeError, match=f"^sphere dimension must be an int, got the {type(n).__name__} {n!r}$"):
        check(n)


def _fired(n: int) -> dict:
    """reason -> certificate of every route that rules S^n out; a route
    that raises ValueError does not apply to n."""
    fired = {}
    for reason, check, _, _ in ROUTES:
        try:
            certificate = check(n)
        except ValueError:
            continue
        if certificate is not None:
            fired[reason] = certificate
    return fired


def _axioms(certificate: dict) -> set:
    """The axioms a certificate lists, with those of the certificates it nests."""
    if "assumed_axioms" in certificate:
        return set(certificate["assumed_axioms"])
    return set().union(*(_axioms(sub) for sub in certificate.values()))


def test_routes_agree_with_the_default_verdict_up_to_200():
    axioms_of = {reason: axioms for reason, _, axioms, _ in ROUTES}
    for n in range(1, 201):
        fired = _fired(n)
        if n in (2, 6):
            assert fired == {}, n
            continue
        verdict = classify_sphere(n)
        first = next(iter(fired))
        assert verdict.status == STATUS_RULED_OUT and verdict.reason == first, n
        assert verdict.certificate == fired[first], n
        for reason, certificate in fired.items():
            assert set(axioms_of[reason]) == _axioms(certificate), (n, reason)
        if n == 4:
            assert list(fired) == [REASON_PONTRYAGIN_EULER]
        elif n % 4 == 0:
            assert list(fired) == [REASON_PONTRYAGIN_EULER, REASON_CHERN_DIVISIBILITY], n


def test_traced_classify_sees_every_route_call(tmp_path):
    # bench/traced.py rebinds module names to wrappers; a route table that
    # captured the check functions themselves would hide these spans
    stats = tmp_path / "stats.json"
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run(
        [
            sys.executable, str(ROOT / "bench" / "traced.py"), str(stats),
            "cli", "classify", "--range", "1..14", "--json",
        ],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert [v["n"] for v in json.loads(proc.stdout)] == list(range(1, 15))
    spans = json.loads(stats.read_text())["spans"]
    calls = {key: spans.get(key, {}).get("calls", 0) for key in (
        "classify.classify_sphere",
        "classify.check_odd",
        "classify.check_pontryagin_euler",
        "classify.check_signature",
        "classify.check_chern_divisibility",
        "genera.chern_character",
    )}
    assert calls == {
        "classify.classify_sphere": 14,
        "classify.check_odd": 14,
        "classify.check_pontryagin_euler": 7,
        "classify.check_signature": 3,
        "classify.check_chern_divisibility": 4,
        "genera.chern_character": 4,
    }


#: Each route check with a dimension it decides, run alone in a fresh
#: process so that no cache answers for it
ROUTE_RUNS = {"check_odd": 7, "check_signature": 12, "check_pontryagin_euler": 12, "check_chern_divisibility": 10}

#: The only functions two routes may share: the integer-argument rule and
#: the coefficient rule.  A new shared helper must be named here, with its
#: reason in CHANGES.md.
SHARED = {"_exact._check_int", "_exact._frac"}

_ENTERED = """
import os, sys
from acstk import classify
home, entered = os.path.dirname(classify.__file__), set()

def hook(frame, event, arg):
    code = frame.f_code
    if event == "call" and os.path.dirname(code.co_filename) == home:
        entered.add(os.path.basename(code.co_filename)[:-3] + "." + code.co_qualname)

check = getattr(classify, sys.argv[1])
sys.setprofile(hook)
check(int(sys.argv[2]))
sys.setprofile(None)
print("\\n".join(sorted(entered)))
"""


def _entered(check: str, n: int) -> set:
    """The `module.qualname` of every acstk function that check(n) enters."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-c", _ENTERED, check, str(n)], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_routes_share_only_the_argument_and_coefficient_rules():
    entered = {check: _entered(check, n) for check, n in ROUTE_RUNS.items()}
    for check, functions in entered.items():
        assert {f"classify.{check}", "_exact._check_int"} <= functions, check
    for (a, first), (b, second) in itertools.combinations(entered.items(), 2):
        assert first & second <= SHARED, (a, b, sorted(first & second - SHARED))
