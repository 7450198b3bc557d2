"""Timings of the doubling-algebra kernels and of the Bernoulli numbers,
with pytest-benchmark.

The default test run does not collect this file (its name does not start
with ``test_``); name it to run it:

    PYTHONPATH=src python -m pytest tests/perf_kernels.py --benchmark-only

Each benchmark times one call on fixed seeded inputs: the product at
levels 2 to 4, the cross product on Im O, the sedenion associator, the
J check's integer draws of a point and a tangent on S^6, the Nijenhuis
tensor on S^6, the sampled J check with 250 samples on S^6 and on S^2,
the sedenion alternativity probe with 60 random samples, as the
sphere-algebra benchmark workload runs them, and with none, which times
its basis scans alone (the two rows time nearly the same work, because the
random scan stops at its first nonzero associator and the first sedenion
pair holds one), and the octonion probe with 60 samples, where every
random triple is computed, the octonions being alternative; a fourth probe
row starts cold, with the sign tables and compiled products emptied before
each round, as a fresh process meets them.  The inputs come from the sampler oracles of
`tests/oracles.py`.  The draw rows draw from one `random.Random` that
advances between calls, as `verify_j_structure`'s loop does.  The genus rows time B_1..B_100 in
ascending order, as `acstk bernoulli --k 100` asks for them,
q_0..q_300, as `acstk series q --order 300` asks for them, the s_series
oracle to order 100, the generating series of the s_k, and L_1..L_7 and
L_1..L_20 in ascending order, as `acstk lpoly --k 7` and `--k 20` do.
Every genus row starts cold: the `l_polynomial`, `newton_polynomial`,
`s_coefficient` and `bernoulli` caches and the tangent-number table are
emptied before each round.  The start-up rows time a fresh
interpreter running `import acstk`, as the benchmark's `setup_s` does, and
`from acstk import CDElement`, which loads one layer.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from acstk import genera
from acstk.cayley_dickson import _kernel, _signs, associator, probe_alternative
from acstk.genera import bernoulli, l_polynomial, q_coefficient, s_coefficient
from acstk.sphere_acs import _draw_point, _draw_tangent, cross, nijenhuis, verify_j_structure
from acstk.symfun import newton_polynomial
from oracles import random_cd_element, random_sphere_sample, s_series


@pytest.mark.parametrize("level", [2, 3, 4])
def test_product(benchmark, level):
    rng = random.Random(level)
    a, b = random_cd_element(level, rng), random_cd_element(level, rng)
    benchmark(a.__mul__, b)


def test_cross_octonions(benchmark):
    rng = random.Random(5)
    u, v = (random_cd_element(3, rng, imaginary=True) for _ in range(2))
    benchmark(cross, u, v)


def test_associator_sedenions(benchmark):
    rng = random.Random(6)
    u, v, w = (random_cd_element(4, rng) for _ in range(3))
    benchmark(associator, u, v, w)


def test_draw_point_s6(benchmark):
    rng = random.Random(7)
    benchmark(_draw_point, 6, rng)


def test_draw_tangent_s6(benchmark):
    rng = random.Random(8)
    p = _draw_point(6, rng)
    benchmark(_draw_tangent, 3, p, rng)


def test_nijenhuis_s6(benchmark):
    p, u, v = random_sphere_sample(6, random.Random(9), 2)
    benchmark(nijenhuis, p, u, v)


@pytest.mark.parametrize("sphere_dim", [6, 2])
def test_verify_j_structure_250(benchmark, sphere_dim):
    benchmark(verify_j_structure, sphere_dim, 250)


@pytest.mark.parametrize("samples", [60, 0])
def test_probe_alternative_sedenions(benchmark, samples):
    benchmark(probe_alternative, 4, samples=samples)


def test_probe_alternative_octonions(benchmark):
    benchmark(probe_alternative, 3, samples=60)


def _cold_doubling():
    _signs.cache_clear()
    _kernel.cache_clear()


def test_probe_alternative_sedenions_cold(benchmark):
    benchmark.pedantic(probe_alternative, args=(4,), kwargs={"samples": 60}, setup=_cold_doubling, rounds=20)


def _cold_genera():
    for cached in (s_coefficient, l_polynomial, newton_polynomial):
        cached.cache_clear()
    genera._TANGENT.clear()
    genera._TANGENT_COLUMN.clear()


def test_bernoulli_1_to_100_cold(benchmark):
    benchmark.pedantic(lambda: [bernoulli(k) for k in range(1, 101)], setup=_cold_genera, rounds=10)


def test_q_coefficient_0_to_300_cold(benchmark):
    benchmark.pedantic(lambda: [q_coefficient(k) for k in range(301)], setup=_cold_genera, rounds=10)


def test_s_series_100_cold(benchmark):
    benchmark.pedantic(s_series, args=(100,), setup=_cold_genera, rounds=10)


@pytest.mark.parametrize("k_max, rounds", [(7, 20), (20, 5)])
def test_l_polynomials_cold(benchmark, k_max, rounds):
    benchmark.pedantic(lambda: [l_polynomial(k) for k in range(1, k_max + 1)], setup=_cold_genera, rounds=rounds)


@pytest.mark.parametrize("statement", ["import acstk", "from acstk import CDElement"])
def test_cold_import(benchmark, statement):
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    argv = [sys.executable, "-c", statement]
    subprocess.run(argv, env=env, check=True)  # bytecode is written outside the timing
    benchmark.pedantic(subprocess.run, args=(argv,), kwargs={"env": env, "check": True}, rounds=20)
