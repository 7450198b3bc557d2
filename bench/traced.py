"""Run one workload in a fresh interpreter with per-layer spans.

    PYTHONPATH=src python bench/traced.py STATS.json cli ARGS...
    PYTHONPATH=src python bench/traced.py STATS.json sphere INPUTS.json

Wraps, from outside the program, every public function and the public
and arithmetic methods of the acstk modules below, and rebinds every
name another acstk module imported, so `acstk.classify.chern_character`
and `acstk.cli.bernoulli` are traced too.  Each span records its caller,
which gives inclusive time (outermost activation only, so recursion is
not counted twice) and self time (span minus child spans).  Cache
counters come from `cache_info()` of the original lru_cache objects.
Stdout is the workload's own output; the statistics go to STATS.json.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

MODULES = ("cayley_dickson", "sphere_acs", "symfun", "genera", "char_class", "classify", "cli")
ARITHMETIC = ("__add__", "__radd__", "__sub__", "__neg__", "__mul__", "__rmul__", "__pow__", "__truediv__")


class Tracer:
    """Span bookkeeping shared by every wrapper in the process."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.depth = defaultdict(int)
        self.stack = []  # [key, start, time covered by child spans]
        self.peaks = defaultdict(int)
        self.caches = {}

    def wrap(self, key, fn, peak=None):
        calls, total, self_time, depth, stack = self.calls, self.total, self.self_time, self.depth, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[key] += 1
            depth[key] += 1
            frame = [key, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - frame[1]
                stack.pop()
                self_time[key] += span - frame[2]
                if stack:
                    stack[-1][2] += span
                depth[key] -= 1
                if not depth[key]:
                    total[key] += span
            if peak is not None:
                name, size = peak
                value = size(result)
                if value > self.peaks[name]:
                    self.peaks[name] = value
            return result

        if hasattr(fn, "cache_info"):
            self.caches[key] = fn
            traced.cache_info, traced.cache_clear = fn.cache_info, fn.cache_clear
        return traced

    def stats(self) -> dict:
        return {
            "spans": {
                key: {"calls": self.calls[key], "total_s": self.total[key], "self_s": self.self_time[key]}
                for key in self.calls
            },
            "peaks": {name: self.peaks[name] for name, _ in PEAKS.values()},
            "caches": {key: fn.cache_info()._asdict() for key, fn in self.caches.items()},
        }


def _bits(q) -> int:
    return max(q.numerator.bit_length(), q.denominator.bit_length())


# extra high-water marks: span key -> (peak name, size of the result)
PEAKS = {
    "symfun.MultiPoly.mul": ("symfun.MultiPoly.max_terms", lambda r: len(getattr(r, "terms", ()))),
    "genera.bernoulli": ("genera.bernoulli.max_bits", _bits),
}


def install(tracer: Tracer) -> None:
    """Replace the public callables of MODULES by traced wrappers."""
    modules = {name: importlib.import_module(f"acstk.{name}") for name in MODULES}
    holders = [sys.modules[n] for n in list(sys.modules) if n == "acstk" or n.startswith("acstk.")]
    for name, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isclass(obj):
                for meth, raw in list(vars(obj).items()):
                    if not (inspect.isfunction(raw) and (meth in ARITHMETIC or not meth.startswith("_"))):
                        continue
                    key = f"{name}.{attr}.{meth.strip('_')}"
                    setattr(obj, meth, tracer.wrap(key, raw, PEAKS.get(key)))
            elif callable(obj):
                key = f"{name}.{attr}"
                wrapped = tracer.wrap(key, obj, PEAKS.get(key))
                for holder in holders:
                    for alias, value in list(vars(holder).items()):
                        if value is obj:
                            setattr(holder, alias, wrapped)


def main(argv: list[str]) -> int:
    stats_path, target, *rest = argv
    tracer = Tracer()
    install(tracer)
    if target == "cli":
        from acstk import cli

        rc = cli.main(rest)
    elif target == "sphere":
        import sphere_driver

        with open(rest[0]) as f:
            rc = sphere_driver.main(json.load(f))
    else:
        raise SystemExit(f"unknown target {target!r}")
    sys.stdout.flush()
    with open(stats_path, "w") as f:
        json.dump(tracer.stats(), f)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
