"""The three workloads: what each runs, its inputs, and its correctness gate.

Each workload is one fresh interpreter, because the hot kernels
(`q_series`, `bernoulli`, `s_coefficient`, `l_polynomial`,
`newton_polynomial`, `basis_product`) are lru_cached: a warm in-process
repeat measures a program no user runs.  See README.md for why each
workload exists and which layers it exercises.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import oracles

BENCH = Path(__file__).resolve().parent
GOLDEN = json.loads((BENCH / "golden.json").read_text())["sha256"]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass(frozen=True)
class Workload:
    name: str
    size: str  # "full" for measurements, "tiny" for the benchmark's own tests
    cli_args: Optional[tuple[str, ...]]  # None: runs bench/sphere_driver.py
    oracle: Callable[[str, Optional[dict]], list[str]]
    make_inputs: Callable[[int], Optional[dict]] = lambda seed: None

    def untraced_argv(self, inputs_path: Path) -> list[str]:
        if self.cli_args is None:
            return [str(BENCH / "sphere_driver.py"), str(inputs_path)]
        return ["-m", "acstk.cli", *self.cli_args]

    def traced_argv(self, inputs_path: Path, stats_path: Path) -> list[str]:
        target = ["sphere", str(inputs_path)] if self.cli_args is None else ["cli", *self.cli_args]
        return [str(BENCH / "traced.py"), str(stats_path), *target]

    def gate(self, text: str, inputs: Optional[dict]) -> list[str]:
        """Golden digest of the seed-independent output, then the oracles.
        sphere-algebra's output depends on the seed except for its probe
        line, so only that line is digested; the oracles recompute the rest."""
        fixed = text if self.cli_args is not None else "".join(
            line + "\n" for line in text.splitlines() if line.startswith("probe ")
        )
        golden = GOLDEN[self.name][self.size]
        if sha256(fixed) != golden:
            return [f"stdout digest {sha256(fixed)[:16]} != golden {golden[:16]}"]
        return self.oracle(text, inputs)


def _sphere_inputs(samples: int, points: int, probe_samples: int):
    def make(seed: int) -> dict:
        rng = random.Random(seed)

        def rationals(n):
            return [f"{rng.randint(-9, 9)}/{rng.randint(1, 9)}" for _ in range(n)]

        return {
            "verify_j": [[6, samples, rng.randrange(1 << 32)], [2, samples, rng.randrange(1 << 32)]],
            "nijenhuis": [
                {"sphere": s, "point": rationals(s), "u": rationals(s + 1), "v": rationals(s + 1)}
                for s in [6] * points + [2] * points
            ],
            "probe": {"level": 4, "samples": probe_samples},
        }

    return make


def _classify(start: int, stop: int, size: str) -> Workload:
    return Workload(
        "classify-sweep", size, ("classify", "--range", f"{start}..{stop}", "--json"),
        lambda text, _: oracles.check_classify(text, start, stop),
    )


def _lpoly(k: int, size: str) -> Workload:
    return Workload(
        "lpoly-tower", size, ("lpoly", "--k", str(k)),
        lambda text, _: oracles.check_lpoly(text, k),
    )


def _sphere(samples: int, points: int, probe_samples: int, size: str) -> Workload:
    return Workload(
        "sphere-algebra", size, None, oracles.check_sphere,
        _sphere_inputs(samples, points, probe_samples),
    )


WORKLOADS = {
    "full": {
        "classify-sweep": _classify(1, 300, "full"),
        "lpoly-tower": _lpoly(7, "full"),
        "sphere-algebra": _sphere(250, 12, 60, "full"),
    },
    "tiny": {
        "classify-sweep": _classify(1, 14, "tiny"),
        "lpoly-tower": _lpoly(3, "tiny"),
        "sphere-algebra": _sphere(10, 2, 5, "tiny"),
    },
}
