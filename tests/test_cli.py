import argparse
import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from acstk import cli
from acstk.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_single_json(capsys):
    code, out, _ = run(capsys, "classify", "6", "--json", "--samples", "5")
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 6 and data["status"] == "exists"


def test_classify_range_text(capsys):
    code, out, _ = run(capsys, "classify", "--range", "1..10", "--samples", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 10
    assert lines[1] == "S^2: exists (explicit_construction)"
    assert "pairing -4" in lines[3]


def test_classify_range_json_is_list(capsys):
    code, out, _ = run(capsys, "classify", "--range", "3..5", "--json")
    assert code == 0
    data = json.loads(out)
    assert [v["n"] for v in data] == [3, 4, 5]


def test_classify_input_validation(capsys):
    code, _, err = run(capsys, "classify")
    assert code == 2 and "exactly one" in err
    code, _, err = run(capsys, "classify", "4", "--range", "1..2")
    assert code == 2
    code, _, err = run(capsys, "classify", "0")
    assert code == 2 and "at least 1" in err
    code, _, err = run(capsys, "classify", "--range", "junk")
    assert code == 2 and "A..B" in err


def test_lpoly_output(capsys):
    code, out, _ = run(capsys, "lpoly", "--k", "2")
    assert code == 0
    assert "L_1 = 1/3*p1" in out
    assert "7/45*p2" in out
    code, out, _ = run(capsys, "lpoly", "--k", "1", "--latex")
    assert code == 0 and "\\frac{1}{3} p_{1}" in out
    code, _, _ = run(capsys, "lpoly", "--k", "0")
    assert code == 2


def test_lpoly_k_is_capped(capsys):
    code, out, err = run(capsys, "lpoly", "--k", "21")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "at most 20" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("series", "q", "--order", str(cli.SERIES_MAX_ORDER + 1)), f"at most {cli.SERIES_MAX_ORDER}"),
        (("bernoulli", "--k", str(cli.BERNOULLI_MAX_K + 1)), f"at most {cli.BERNOULLI_MAX_K}"),
    ],
)
def test_series_and_bernoulli_are_capped(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("classify", str(cli.CLASSIFY_MAX_N + 1)), f"at most {cli.CLASSIFY_MAX_N}"),
        (("classify", "--range", f"1..{cli.CLASSIFY_MAX_N + 1}", "--json"), f"at most {cli.CLASSIFY_MAX_N}"),
        (("classify", "6", "--samples", str(cli.SAMPLES_MAX + 1)), f"at most {cli.SAMPLES_MAX}"),
        (("classify", "--range", "1..9", "--samples", str(cli.SAMPLES_MAX + 1)), f"at most {cli.SAMPLES_MAX}"),
        (("verify-j", "--sphere", "2", "--samples", str(cli.SAMPLES_MAX + 1)), f"at most {cli.SAMPLES_MAX}"),
    ],
)
def test_classify_and_samples_are_capped(capsys, monkeypatch, argv, message):
    def no_work(*args, **kwargs):
        raise AssertionError("a capped command started work")

    for name in ("classify_sphere", "classify_range"):
        monkeypatch.setattr(cli.classify_mod, name, no_work)
    monkeypatch.setattr(cli, "verify_j_structure", no_work)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and message in err
    assert cli.CLASSIFY_MAX_N == 4 * cli.BERNOULLI_MAX_K


LONG = "1" * 101

REFUSALS = [
    (("lpoly", "--k", "0"), "--k must be at least 1"),
    (("lpoly", "--k", "21"), "--k must be at most 20"),
    (("bernoulli", "--k", "0"), "--k must be at least 1"),
    (("bernoulli", "--k", "101"), "--k must be at most 100"),
    (("series", "q", "--order", "-1"), "--order must be at least 0"),
    (("series", "q", "--order", "301"), "--order must be at most 300"),
    (("classify", "401"), "classify dimensions must be at most 400"),
    (("classify", "--range", "1..401"), "classify dimensions must be at most 400"),
    (("classify", "6", "--range", "1..3"), "classify needs exactly one of a dimension or --range A..B"),
    (("classify",), "classify needs exactly one of a dimension or --range A..B"),
    (("classify", "--range", "3..1"), "invalid range 3..1"),
    (("classify", "--range", "x"), "range must look like A..B, got 'x'"),
    (("classify", "6", "--samples", "0"), "need at least 1 sample, got 0"),
    (("classify", "6", "--samples", "100001"), "--samples must be at most 100000"),
    (("verify-j", "--sphere", "2", "--samples", "0"), "need at least 1 sample, got 0"),
    (("verify-j", "--sphere", "2", "--samples", "100001"), "--samples must be at most 100000"),
    *(
        (
            ("nijenhuis", "--sphere", "2", "--point", f"{entry},0", "--u", "1,0,0", "--v", "0,1,0"),
            "--point entries may have at most 100 digits and a decimal exponent of at most 100 "
            "in absolute value",
        )
        for entry in (LONG, "1e101")
    ),
]


@pytest.mark.parametrize(
    "argv, stderr", REFUSALS, ids=[" ".join(argv).replace(LONG, "1x101") for argv, _ in REFUSALS]
)
def test_refusal_bytes(capsys, argv, stderr):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {stderr}\n")


def test_bernoulli_cap_keeps_k_100():
    assert cli.BERNOULLI_MAX_K >= 100


CAP = cli.RATIONAL_MAX_DIGITS


@pytest.mark.parametrize(
    "entry",
    [f"1e{CAP + 1}", f"1E-{CAP + 1}", f"2.5e+{CAP + 1}", "7" * (CAP + 1), "1/" + "3" * CAP],
)
@pytest.mark.parametrize("command", ["nijenhuis", "assoc-compare"])
def test_rational_height_is_capped(capsys, command, entry):
    argv = [command, "--sphere", "2", "--point", f"{entry},0", "--u", "1,0,0", "--v", "0,1,0"]
    if command == "assoc-compare":
        argv += ["--w", "0,0,1"]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and f"at most {CAP} digits" in err


def test_rational_height_at_the_cap_is_accepted(capsys):
    code, out, _ = run(
        capsys, "nijenhuis", "--sphere", "2",
        "--point", f"1e{CAP},{'7' * CAP}", "--u", "1,0,0", "--v", f"0,1e-{CAP},0", "--json",
    )
    assert code == 0 and json.loads(out)["is_zero"] is True


def test_series_q(capsys):
    code, out, _ = run(capsys, "series", "q", "--order", "2")
    assert code == 0
    assert out.splitlines() == ["z^0: 1", "z^1: 1/3", "z^2: -1/45"]


def test_bernoulli(capsys):
    code, out, _ = run(capsys, "bernoulli", "--k", "3")
    assert code == 0
    assert out.splitlines() == ["B_1 = 1/6", "B_2 = 1/30", "B_3 = 1/42"]


def test_verify_j_json(capsys):
    code, out, _ = run(capsys, "verify-j", "--sphere", "2", "--samples", "10", "--seed", "5", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["sphere"] == 2 and data["seed"] == 5 and data["all_passed"] is True


@pytest.mark.parametrize("value", ["123", "notanumber"])
def test_seed_comes_only_from_the_command_line(capsys, monkeypatch, value):
    # the seed comes from --seed alone, so a stray ACSTK_SEED changes no output
    _, plain, _ = run(capsys, "classify", "6", "--json")
    monkeypatch.setenv("ACSTK_SEED", value)
    code, out, _ = run(capsys, "verify-j", "--sphere", "2", "--samples", "5", "--json")
    assert code == 0 and json.loads(out)["seed"] == 0
    assert run(capsys, "classify", "6", "--json") == (0, plain, "")


def _subcommands() -> dict:
    (subparsers,) = [a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return subparsers.choices


def test_every_subcommand_binds_a_handler():
    with_sphere = set()
    for name, parser in _subcommands().items():
        assert callable(parser.get_default("handler")), name
        for action in parser._actions:
            if action.dest == "sphere":
                assert list(action.choices) == [2, 6], name
                with_sphere.add(name)
    assert with_sphere == {"verify-j", "nijenhuis", "assoc-compare"}


def test_readme_lists_every_subcommand():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Command line\n\n```\n", 1)[1].split("```", 1)[0]
    listed = [line.split()[1] for line in block.splitlines()]
    assert sorted(listed) == sorted(_subcommands())


def test_nijenhuis_json_schema(capsys):
    code, out, _ = run(
        capsys,
        "nijenhuis", "--sphere", "6",
        "--point", "1,0,0,0,0,0",
        "--u", "0,1,0,0,0,0,0",
        "--v", "0,0,0,1,0,0,0",
        "--json",
    )
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"sphere", "point", "u", "v", "nijenhuis", "is_zero"}
    assert data["is_zero"] is False
    assert data["nijenhuis"]["coeffs"][7] == "4"


def test_nijenhuis_vanishes_on_s2(capsys):
    code, out, _ = run(
        capsys,
        "nijenhuis", "--sphere", "2",
        "--point", "1/2,3",
        "--u", "1,0,0",
        "--v", "0,1/3,0",
        "--json",
    )
    assert code == 0
    assert json.loads(out)["is_zero"] is True


def test_assoc_compare(capsys):
    code, out, _ = run(
        capsys,
        "assoc-compare", "--sphere", "6",
        "--point", "1,0,0,0,0,0",
        "--u", "0,1,0,0,0,0,0",
        "--v", "0,0,0,1,0,0,0",
        "--w", "0,0,0,0,0,0,1",
        "--json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["pairing_with_w"] == "4"
    assert set(data) == {"sphere", "nijenhuis", "pairing_with_w", "associator"}


def test_assoc_compare_text_on_s2_reads_zero_on_both_sides(capsys):
    code, out, _ = run(
        capsys,
        "assoc-compare", "--sphere", "2", "--point", "1/2,3",
        "--u", "1,0,0", "--v", "0,1/3,0", "--w", "2,-1,5",
    )
    assert code == 0
    assert out == "<N(u,v), w>    = 0\n[u, v, w]      = 0\n"


@pytest.mark.parametrize("factor", [1, -2])
def test_assoc_compare_exits_3_on_a_wrong_factor(capsys, monkeypatch, factor):
    from acstk import sphere_acs
    from acstk.cayley_dickson import associator

    # the check then compares N(u, v) with factor * [p, u, v]
    monkeypatch.setattr(sphere_acs, "associator", lambda *x: associator(*x) * Fraction(factor, 2))
    code, out, err = run(
        capsys,
        "assoc-compare", "--sphere", "6", "--point", "1,0,0,0,0,0",
        "--u", "0,1,0,0,0,0,0", "--v", "0,0,0,1,0,0,0", "--w", "0,0,0,0,0,0,1",
    )
    assert code == 3 and out == ""
    assert err.startswith("internal invariant violation: N(u, v) = 4*e7 differs from 2 [p, u, v]")


def test_bad_vector_input(capsys):
    code, _, err = run(
        capsys,
        "nijenhuis", "--sphere", "6",
        "--point", "1,0",
        "--u", "0,1,0,0,0,0,0",
        "--v", "0,0,0,1,0,0,0",
    )
    assert code == 2 and "6 stereographic parameters" in err
    code, _, err = run(
        capsys,
        "nijenhuis", "--sphere", "2",
        "--point", "1,0",
        "--u", "0,1",
        "--v", "0,0,1",
    )
    assert code == 2 and "ambient imaginary components" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("verify-j", "--sphere", "6", "--samples", "0"),
        ("verify-j", "--sphere", "6", "--samples", "-3"),
        ("classify", "6", "--samples", "0"),
        ("classify", "--range", "3..5", "--samples", "0"),
        ("classify", "4", "--samples", "-1"),
    ],
)
def test_zero_samples_is_invalid_input(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "at least 1 sample" in err


def test_argparse_rejects_unknown_sphere(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify-j", "--sphere", "3"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ("classify", "--range", "1..200", "--json"),
            "e4c2456dd754749eda19376594f6fc115b0835b98726518c4dc0f8c55143b6cd",
        ),
        (
            ("lpoly", "--k", "6", "--latex"),
            "6fd0c95fdbfd2ec57fcda7b6e007a679a4b4c83c674bf8207ca11691a9e7ed06",
        ),
        (
            ("lpoly", "--k", "8"),
            "39c56c5a8b6661ace1be876207ac8e079074bf527fc49f5e61f4e36c82869bc0",
        ),
        (
            ("lpoly", "--k", "8", "--latex"),
            "f0a85c9f650b7487f5592b5a71f22ff1f9c7737e9a90bd552ab30dbd74c62278",
        ),
        (
            ("verify-j", "--sphere", "6", "--samples", "40", "--seed", "3", "--json"),
            "51a03ad48e90884a874ae0bdab478e521a23e24ba1f7a07d48c3a29bf339c4c0",
        ),
        (
            (
                "nijenhuis", "--sphere", "6", "--point", "1/2,-1,2/3,0,3,-5/7",
                "--u", "1,2,0,-1,1/2,3,0", "--v", "0,1,-2,1/3,0,1,1", "--json",
            ),
            "33db9c20082fe741a3dddf95c96c7801254726becda452ee544642b700408b92",
        ),
        (
            (
                "assoc-compare", "--sphere", "6", "--point", "2,0,-1/3,1,0,1/4",
                "--u", "0,1,0,2,-1,0,1", "--v", "1,0,1,0,0,-3,1/2",
                "--w", "0,0,1,1,1,0,-2", "--json",
            ),
            "cff3e119f13f3db6e424c3dd5ef42ddc7edf537198684ef436c16ccef32d86ab",
        ),
        (
            ("classify", "--range", "1..200"),
            "64d072d946e6c7d4a0a8f43dbf269adc9ca1df00322b818876b1c88ea49fcb0f",
        ),
        (
            (
                "assoc-compare", "--sphere", "6", "--point", "2,0,-1/3,1,0,1/4",
                "--u", "0,1,0,2,-1,0,1", "--v", "1,0,1,0,0,-3,1/2",
                "--w", "0,0,1,1,1,0,-2",
            ),
            "b30e776bfe482de1d39b69b32ac709c6446e405507b752b470ad52ef145a754a",
        ),
        (
            ("series", "q", "--order", "300"),
            "b05386bc5fac3f46b3470db6b5618df4f2cadc54dcf582ab83ae304461a823d3",
        ),
        (
            ("series", "q", "--order", "0"),
            "dfab52533a366e777fc849906f644710571c6176b1cdfff855e5ad9e9c21e85f",
        ),
        (
            ("bernoulli", "--k", "100"),
            "e1b545e9f427be7dd775767ea9dc62f58cf98ed252b714be82f1af40163a336b",
        ),
    ],
)
def test_stdout_snapshot(capsys, argv, digest):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_json_output_is_byte_identical_across_runs(capsys):
    args = ("classify", "--range", "1..12", "--json", "--samples", "5", "--seed", "9")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_internal_invariant_violation_exits_3(capsys, monkeypatch):
    import acstk.cli as cli_mod
    from acstk.sphere_acs import JVerificationReport

    def broken(sphere_dim, samples, seed=0):
        return JVerificationReport(sphere_dim, samples, seed, False, True, True)

    monkeypatch.setattr(cli_mod, "verify_j_structure", broken)
    code, _, err = run(capsys, "verify-j", "--sphere", "2", "--samples", "1")
    assert code == 3 and "internal invariant violation" in err


def test_broken_cross_reads_false_and_exits_3(capsys, monkeypatch):
    import acstk.sphere_acs as sphere_mod

    real_cross = sphere_mod._cross

    def along_p(level, a, b):
        # p x v + p leaves the tangent space at p
        num, den = real_cross(level, a, b)
        return [x * a[1] + y * den for x, y in zip(num, a[0])], den * a[1]

    monkeypatch.setattr(sphere_mod, "_cross", along_p)
    code, out, err = run(capsys, "verify-j", "--sphere", "6", "--samples", "3", "--json")
    assert code == 3 and "internal invariant violation" in err
    data = json.loads(out)
    assert data["image_tangent"] is False and data["all_passed"] is False


def test_cli_import_leaves_dataclasses_and_inspect_unloaded():
    """Start-up cost: `import acstk.cli` must not pull in `dataclasses` or
    `inspect`.  Only modules the import adds count, so a site hook that
    preloads either cannot fail this test."""
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import acstk.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert "acstk.cli" in added
    assert not added & {"dataclasses", "inspect"}


def test_cli_import_loads_every_layer_but_not_json():
    """`json` is imported only where JSON is printed, while `import
    acstk.cli` still loads every layer module, whose import times the
    benchmark reads per module from `-X importtime`, so each is listed
    there too.  As above, only modules the import adds count for `json`."""
    layers = ["cayley_dickson", "sphere_acs", "symfun", "genera", "char_class", "classify", "cli"]
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import acstk.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert "json" not in added
    assert {f"acstk.{name}" for name in layers} <= added
    timed = {line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()}
    assert {f"acstk.{name}" for name in layers} <= timed
