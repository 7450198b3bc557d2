"""The sphere-algebra workload as a fresh-process program.

Reads the inputs the benchmark generated from its seed (a JSON file) and
calls acstk's public API on them: the sampled J^2 = -Id check on S^6 and
S^2, the Nijenhuis tensor at rational points, and the alternativity probe
of the sedenions.  Prints one line per call, `<kind> <json>`, in input
order, so the benchmark can gate the output.

    PYTHONPATH=src python bench/sphere_driver.py INPUTS.json
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

from acstk import (
    CDElement,
    nijenhuis,
    probe_alternative,
    rational_sphere_point,
    tangent_projection,
    verify_j_structure,
)
from acstk.sphere_acs import SPHERE_LEVEL


def _emit(kind: str, payload: dict) -> None:
    print(kind, json.dumps(payload, sort_keys=True, separators=(",", ":")))


def main(inputs: dict) -> int:
    for sphere, samples, seed in inputs["verify_j"]:
        _emit("verify_j", verify_j_structure(sphere, samples, seed=seed).as_dict())
    for job in inputs["nijenhuis"]:
        sphere, level = job["sphere"], SPHERE_LEVEL[job["sphere"]]
        p = rational_sphere_point(sphere, [Fraction(q) for q in job["point"]])
        u, v = (
            tangent_projection(p, CDElement(level, (0, *map(Fraction, job[name]))))
            for name in ("u", "v")
        )
        n = nijenhuis(p, u, v)
        _emit("nijenhuis", {
            "sphere": sphere,
            "point": [str(c) for c in p.vector.coeffs],
            "u": [str(c) for c in u.vector.coeffs],
            "v": [str(c) for c in v.vector.coeffs],
            "N": [str(c) for c in n.coeffs],
        })
    probe = inputs["probe"]
    _emit("probe", probe_alternative(probe["level"], samples=probe["samples"]).as_dict())
    return 0


if __name__ == "__main__":
    with open(sys.argv[1]) as f:
        sys.exit(main(json.load(f)))
