import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# sha256 of each demo's stdout; a change to what a demo prints must be
# deliberate and update this table
STDOUT_SHA256 = {
    "01_cayley_dickson_tour.py": "16f7b77c413159e663fc07a2e6ebde7b4aafd998ee7e66deb18c6aed034c7727",
    "02_sphere_j_and_nijenhuis.py": "5bc0055c3a2cf0b6deba74724584de3e24182fd1be751ce2a7f38a04d89a81a3",
    "03_l_polynomials_and_bernoulli.py": "c6616ad470a53cf19cbf8c2f76ec0e8c999655cb65f189f58e778d1d44e98cf1",
    "04_chern_character_and_newton.py": "ab8c0795fe1428b7829a615abdfe9cc6ab719c7d57bdb125c3ba49366c0f2431",
    "05_classify_all_spheres.py": "f1e68a39bef683e70257d8fd5114615e68410ccfe667cf1673638a2d0b6f779e",
}


def test_every_demo_is_pinned():
    assert sorted(STDOUT_SHA256) == [d.name for d in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == STDOUT_SHA256[demo.name]
