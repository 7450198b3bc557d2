"""acstk benchmark: fresh-process workloads, timed from outside.

    python3 bench/run.py --workload classify-sweep --seed 1 --seconds 36 --trace 0

The program under test is `src/acstk` of the checkout that holds this
script.  With `--trace 0` each measured repeat is one fresh
`python -m acstk.cli ...` (or `bench/sphere_driver.py`) process, with a
`bench/calibrate.py` process after each; the end-to-end metrics are
medians over the repeats that pass the correctness gate, with times
scaled by the calibrations around them.  With `--trace 1` untraced and
traced (`bench/traced.py`) processes alternate and the per-layer metrics
come from a traced one.  Provenance goes to a line of its own; the last
line of stdout is the JSON result.  Exits non-zero without a result
when the checkout holds no importable `src/acstk`.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from traced import MODULES
from workloads import WORKLOADS, sha256

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "acstk-bench"
SETUP_GROUPS, SETUP_LAUNCHES = 3, 7
# Times are scaled to a machine on which bench/calibrate.py's loop takes
# this long; see README.md ("Scaled times").
CALIBRATION_REF_S = 0.2
IMPORTTIME_LAUNCHES = 5
DEADLINE_S = 170.0


class Deadline(Exception):
    pass


def _on_alarm(signum, frame):
    raise Deadline


def child_env() -> dict:
    """The caller's environment, minus anything that could change which
    acstk is imported or how the CLI samples (PYTHON*, ACSTK_SEED)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON") and k != "ACSTK_SEED"}
    env["PYTHONPATH"] = str(SRC)
    return env


class Runner:
    """Starts one child at a time and reaps it with its own rusage."""

    def __init__(self, deadline: float):
        signal.signal(signal.SIGALRM, _on_alarm)
        self.deadline = deadline
        self.env = child_env()
        WORK.mkdir(parents=True, exist_ok=True)
        self.out_path = WORK / "stdout.txt"
        self.err_path = WORK / "stderr.txt"

    def run(self, argv: list[str]) -> dict:
        """Run `python argv...`; wall, CPU and peak RSS of that process only."""
        remaining = self.deadline - time.perf_counter()
        if remaining <= 0:
            raise Deadline
        with open(self.out_path, "wb") as out, open(self.err_path, "wb") as err:
            signal.setitimer(signal.ITIMER_REAL, remaining)
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], stdout=out, stderr=err, env=self.env, cwd=ROOT)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - start
            except BaseException:
                proc.kill()
                os.waitpid(proc.pid, 0)
                proc.returncode = -9
                raise
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024,
            "rc": proc.returncode,
            "stdout": self.out_path.read_text(),
            "stderr": self.err_path.read_text(),
        }

    def calibrate(self) -> float:
        """Seconds the fixed reference loop takes right now."""
        sample = self.run([str(Path(__file__).with_name("calibrate.py"))])
        if sample["rc"] != 0:
            raise RuntimeError(f"calibration failed: {sample['stderr'][-300:]}")
        return float(sample["stdout"])


class Gate:
    """Correctness gate, run outside the timed region; caches by digest."""

    def __init__(self, workload, inputs):
        self.workload, self.inputs = workload, inputs
        self.seen: dict[str, list[str]] = {}
        self.log: set[str] = set()

    def problems(self, sample: dict) -> list[str]:
        if sample["rc"] != 0:
            found = [f"exit code {sample['rc']}: {sample['stderr'].strip()[-300:]}"]
        else:
            digest = sha256(sample["stdout"])
            if digest not in self.seen:
                self.seen[digest] = self.workload.gate(sample["stdout"], self.inputs)
            found = self.seen[digest]
        self.log.update(found)
        return found


def check_checkout(runner: Runner) -> None:
    """Refuse to run unless children import acstk from this checkout;
    this first import also writes its bytecode, outside any timing."""
    probe = runner.run(["-c", "import acstk, acstk.cli; print(acstk.__file__)"])
    if probe["rc"] != 0 or Path(probe["stdout"].strip()).resolve() != (SRC / "acstk" / "__init__.py").resolve():
        sys.exit(f"error: could not import acstk from {SRC}: {probe['stderr'][-300:]}")


def provenance(seed: int, workload: str) -> dict:
    head = ROOT / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            loose = ROOT / ".git" / ref[5:]
            packed = ROOT / ".git" / "packed-refs"
            if loose.is_file():
                commit = loose.read_text().strip()
            elif packed.is_file():
                commit = next((line.split()[0] for line in packed.read_text().splitlines()
                               if line.endswith(" " + ref[5:])), ref)
    sources = sorted((SRC / "acstk").rglob("*.py"))
    return {
        "python": sys.version.split()[0],
        "commit": commit,
        "src_sha256": sha256("".join(p.read_text() for p in sources)),
        "nproc": os.cpu_count(),
        "workload": workload,
        "seed": seed,
        "src_acstk_lines": sum(len(p.read_text().splitlines()) for p in sources),
    }


def measure_untraced(runner, workload, paths, seconds, gate):
    """Repeat the workload until `seconds` are used, with a calibration
    run between processes; each sample carries the scale factor from
    the calibrations right before and after it."""
    samples, failed = [], 0
    start = time.perf_counter()
    before = runner.calibrate()
    while True:
        sample = runner.run(workload.untraced_argv(paths["inputs"]))
        after = runner.calibrate()
        sample["scale"] = CALIBRATION_REF_S / ((before + after) / 2)
        before = after
        elapsed = time.perf_counter() - start
        if gate.problems(sample):
            failed += 1
        else:
            samples.append(sample)
        if elapsed + sample["wall_s"] > seconds:
            return samples, failed


def measure_setup(runner) -> float:
    """Median time of a fresh interpreter running `import acstk`, scaled
    by the calibrations around each group of launches."""
    scaled = []
    before = runner.calibrate()
    for _ in range(SETUP_GROUPS):
        walls = [runner.run(["-c", "import acstk"])["wall_s"] for _ in range(SETUP_LAUNCHES)]
        after = runner.calibrate()
        scaled += [wall * CALIBRATION_REF_S / ((before + after) / 2) for wall in walls]
        before = after
    return statistics.median(scaled)


_IMPORTTIME = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|\s*(\S+)")


def import_seconds(runner) -> dict:
    """Self import time of each module, cumulative for the package."""
    runs = []
    for _ in range(IMPORTTIME_LAUNCHES):
        found = {}
        for self_us, cum_us, name in _IMPORTTIME.findall(runner.run(["-X", "importtime", "-c", "import acstk.cli"])["stderr"]):
            if name == "acstk":
                found["import.acstk_s"] = int(cum_us) / 1e6
            elif name.startswith("acstk.") and name[6:] in MODULES:
                found[f"import.{name[6:]}_s"] = int(self_us) / 1e6
        runs.append(found)
    return {key: statistics.median(r.get(key, 0.0) for r in runs) for key in runs[0]}


def layer_metrics(stats: dict) -> dict:
    """Per-layer values of one traced process, keyed as in PER_LAYER."""
    spans, caches = stats["spans"], stats["caches"]
    out = dict(stats["peaks"])
    for name, _, _ in PER_LAYER:
        head, _, field = name.rpartition(".")
        if head in MODULES:
            out[name] = sum(v["self_s"] for k, v in spans.items() if k.split(".")[0] == head)
        elif head.split(".")[0] in MODULES and field in ("calls", "total_s", "self_s"):
            out[name] = spans.get(head, {}).get(field, 0)
    info = caches.get("cayley_dickson.basis_product", {"hits": 0, "misses": 0})
    lookups = info["hits"] + info["misses"]
    out["cayley_dickson.basis_product.hit_ratio"] = info["hits"] / lookups if lookups else 0.0
    out["genera.q_series.misses"] = caches.get("genera.q_series", {"misses": 0})["misses"]
    out["trace.span_sum_s"] = sum(v["self_s"] for v in spans.values())
    return out


def measure_traced(runner, workload, paths, seconds, gate):
    """Alternate untraced and traced processes until `seconds` are used.
    The per-layer values all come from one traced process, the one with
    the median wall time, so its self times add up to its wall time."""
    untraced, traced, attempted, failed = [], [], 0, 0
    start = time.perf_counter()
    while True:
        pair_start = time.perf_counter()
        plain = runner.run(workload.untraced_argv(paths["inputs"]))
        paths["stats"].unlink(missing_ok=True)
        spanned = runner.run(workload.traced_argv(paths["inputs"], paths["stats"]))
        bad = [bool(gate.problems(sample)) for sample in (plain, spanned)]
        attempted, failed = attempted + 2, failed + sum(bad)
        if not any(bad):
            untraced.append(plain["wall_s"])
            traced.append((spanned["wall_s"], layer_metrics(json.loads(paths["stats"].read_text()))))
        now = time.perf_counter()
        if now - start + (now - pair_start) > seconds:
            break
    if not traced:
        return {}, attempted, failed
    wall, out = sorted(traced, key=lambda t: t[0])[(len(traced) - 1) // 2]
    out["trace.untraced_wall_s"] = statistics.median(untraced)
    out["trace.traced_wall_s"] = wall
    out["trace.overhead_s"] = wall - out["trace.untraced_wall_s"]
    out["trace.unattributed_s"] = wall - out["trace.span_sum_s"]
    out["failed_frac"] = failed / attempted
    out.update(import_seconds(runner))
    return out, attempted, failed


# name, unit, better
END_TO_END = [
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
]

PER_LAYER = [
    ("cayley_dickson.CDElement.mul.calls", "count", "lower"),
    ("cayley_dickson.CDElement.mul.total_s", "s", "lower"),
    ("cayley_dickson.basis_product.hit_ratio", "ratio", "higher"),
    ("cayley_dickson.probe_alternative.total_s", "s", "lower"),
    ("sphere_acs.verify_j_structure.total_s", "s", "lower"),
    ("sphere_acs.nijenhuis.calls", "count", "lower"),
    ("sphere_acs.nijenhuis.total_s", "s", "lower"),
    ("sphere_acs.cross.calls", "count", "lower"),
    ("symfun.MultiPoly.mul.calls", "count", "lower"),
    ("symfun.MultiPoly.mul.total_s", "s", "lower"),
    ("symfun.MultiPoly.max_terms", "count", "lower"),
    ("symfun.reduce_to_elementary.total_s", "s", "lower"),
    ("symfun.GradedPoly.mul.calls", "count", "lower"),
    ("symfun.GradedPoly.mul.total_s", "s", "lower"),
    ("symfun.power_sums_from_values.total_s", "s", "lower"),
    ("genera.chern_character.calls", "count", "lower"),
    ("genera.chern_character.total_s", "s", "lower"),
    ("genera.q_series.misses", "count", "lower"),
    ("genera.q_series.total_s", "s", "lower"),
    ("genera.bernoulli.total_s", "s", "lower"),
    ("genera.bernoulli.max_bits", "bits", "lower"),
    ("genera.s_coefficient.total_s", "s", "lower"),
    ("genera.l_polynomial.total_s", "s", "lower"),
    ("char_class.replay_lemma_pontryagin_euler.total_s", "s", "lower"),
    ("classify.classify_sphere.calls", "count", "lower"),
    ("classify.classify_sphere.self_s", "s", "lower"),
    ("classify.check_signature.total_s", "s", "lower"),
    ("classify.check_chern_divisibility.total_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    *[(f"{m}.self_s", "s", "lower") for m in MODULES],
    ("import.acstk_s", "s", "lower"),
    *[(f"import.{m}_s", "s", "lower") for m in MODULES],
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.traced_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.span_sum_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("failed_frac", "fraction", "lower"),
]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS["full"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(WORKLOADS), default="full",
                        help="tiny: the benchmark's own tests, same code path")
    args = parser.parse_args(argv)

    if not (SRC / "acstk" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'acstk'} not found; run from a source checkout of acstk")
    runner = Runner(time.perf_counter() + DEADLINE_S)
    workload = WORKLOADS[args.size][args.workload]
    try:
        check_checkout(runner)
        inputs = workload.make_inputs(args.seed)
        paths = {"inputs": WORK / "inputs.json", "stats": WORK / "stats.json"}
        paths["inputs"].write_text(json.dumps(inputs))
        gate = Gate(workload, inputs)
        if args.trace:
            values, attempted, failed = measure_traced(runner, workload, paths, args.seconds, gate)
            table = PER_LAYER
        else:
            setup = measure_setup(runner)
            samples, failed = measure_untraced(runner, workload, paths, args.seconds, gate)
            attempted = len(samples) + failed
            values = {"setup_s": setup}
            if samples:
                values.update(
                    wall_s=statistics.median(s["wall_s"] * s["scale"] for s in samples),
                    cpu_s=statistics.median(s["cpu_s"] * s["scale"] for s in samples),
                    peak_rss_mb=statistics.median(s["peak_rss_mb"] for s in samples),
                )
                raw = {key: statistics.median(s[key] for s in samples) for key in ("wall_s", "cpu_s")}
                raw["calibration_s"] = statistics.median(CALIBRATION_REF_S / s["scale"] for s in samples)
                raw["repeats"] = len(samples)
                print("unscaled", json.dumps(raw, sort_keys=True))
            table = END_TO_END
    except Deadline:
        sys.exit(f"error: {args.workload} did not finish within {DEADLINE_S:.0f} s")
    for problem in sorted(gate.log):
        print(f"gate: {problem}", file=sys.stderr)
    print("provenance", json.dumps(provenance(args.seed, args.workload), sort_keys=True))
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in table if name in values}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
