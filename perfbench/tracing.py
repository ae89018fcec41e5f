"""Spans and call counts around avgexp's public functions, from outside.

Tracer.installed() replaces each traced function, in every avgexp module
that binds it, by a wrapper, and puts the originals back on exit.  Spans
stay in memory until write() is called.  The three functions called most
often, curve.add, curve.random_point and modarith.factorize, get no span:
they are counted (factorize is also timed), and each span records the
counters at its start and end, so a layer's calls are the differences.
"""

import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from statistics import median

SPANNED = (
    ("cli", "main"),
    ("harness", "run_experiment"), ("harness", "compute_record"),
    ("harness", "cache_load"), ("harness", "cache_store"),
    ("harness", "aggregate_checkpoints"), ("harness", "model_constant"),
    ("counting", "order_bsgs"), ("counting", "trace_naive"),
    ("structure", "group_structure"), ("structure", "exponent_sampling"),
    ("structure", "has_full_two_torsion"),
    ("modarith", "sieve_primes"),
    ("constants", "constant_series"), ("constants", "constant_euler"),
    ("constants", "li"),
)
COUNTED = (("curve", "add"), ("curve", "random_point"), ("modarith", "factorize"))
ADD, POINT, FACTORIZE, FACTORIZE_S = range(4)  # slots of Tracer.tally

# Layer metrics, each with its unit and whether higher is better.
METRICS = {
    "counting.order_bsgs.us_per_prime": ("us", False),
    "counting.order_bsgs.adds_per_prime": ("count", False),
    "counting.order_bsgs.points_per_prime": ("count", False),
    "counting.trace_naive.us_per_prime": ("us", False),
    "structure.group_structure.us_per_prime": ("us", False),
    "structure.adds_per_prime": ("count", False),
    "structure.draws_per_prime": ("count", False),
    "structure.exponent_sampling.calls_per_prime": ("count", False),
    "structure.has_full_two_torsion.us_per_call": ("us", False),
    "curve.add.calls_per_prime": ("count", False),
    "curve.random_point.calls_per_prime": ("count", False),
    "modarith.factorize.calls_per_prime": ("count", False),
    "modarith.factorize.calls": ("count", False),
    "modarith.factorize.us_per_call": ("us", False),
    "modarith.sieve_primes.s": ("s", False),
    "harness.cache_load.s": ("s", False),
    "harness.cache_store.s": ("s", False),
    "harness.aggregate_checkpoints.s": ("s", False),
    "harness.model_constant.s": ("s", False),
    "harness.compute_record.us_per_prime": ("us", False),
    "harness.run_experiment.s": ("s", False),
    "harness.parallel_efficiency": ("ratio", True),
    "constants.constant_series.s": ("s", False),
    "constants.constant_euler.s": ("s", False),
    "constants.li.s": ("s", False),
    "cli.main.s": ("s", False),
    "trace.overhead_s": ("s", False),
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent, counts at start, counts at end]
        self.stack = []
        self.tally = [0, 0, 0, 0.0]

    def _span(self, name, fn):
        spans, stack, tally, clock = self.spans, self.stack, self.tally, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tuple(tally), None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                span[5] = tuple(tally)
                stack.pop()
        return traced

    def _count(self, slot, fn):
        tally = self.tally

        def counted(*args, **kwargs):
            tally[slot] += 1
            return fn(*args, **kwargs)
        return counted

    def _count_and_time(self, slot, fn):
        tally, clock = self.tally, time.perf_counter

        def timed(*args, **kwargs):
            tally[slot] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                tally[FACTORIZE_S] += clock() - t0
        return timed

    @contextmanager
    def installed(self):
        """Swap in the wrappers for the duration of the block."""
        wrappers = {}
        for slot, (mod, fn_name) in enumerate(COUNTED):
            fn = getattr(sys.modules[f"avgexp.{mod}"], fn_name)
            wrap = self._count_and_time if slot == FACTORIZE else self._count
            wrappers[id(fn)] = (fn, wrap(slot, fn))
        for mod, fn_name in SPANNED:
            fn = getattr(sys.modules[f"avgexp.{mod}"], fn_name)
            wrappers[id(fn)] = (fn, self._span(f"{mod}.{fn_name}", fn))
        swapped = []
        for n, m in list(sys.modules.items()):
            if m is None or not (n == "avgexp" or n.startswith("avgexp.")):
                continue
            for attr, val in list(vars(m).items()):
                if id(val) in wrappers and wrappers[id(val)][0] is val:
                    setattr(m, attr, wrappers[id(val)][1])
                    swapped.append((m, attr, val))
        try:
            yield self
        finally:
            for m, attr, val in swapped:
                setattr(m, attr, val)

    def round_metrics(self, first: int) -> dict:
        """Layer metrics from the spans recorded since index `first`, which
        cover one traced round."""
        total = defaultdict(float)
        calls = defaultdict(int)
        inner = defaultdict(lambda: [0] * len(self.tally))  # tallies inside each kind of span
        for name, t0, t1, _, c0, c1 in self.spans[first:]:
            total[name] += t1 - t0
            calls[name] += 1
            for slot, (a, b) in enumerate(zip(c0, c1)):
                inner[name][slot] += b - a
        tally = inner["cli.main"]

        def per(num, name, scale=1.0):
            return scale * num / calls[name] if calls[name] else 0.0

        bsgs, naive = "counting.order_bsgs", "counting.trace_naive"
        gs, record = "structure.group_structure", "harness.compute_record"
        m = {
            "counting.order_bsgs.us_per_prime": per(total[bsgs], bsgs, 1e6),
            "counting.order_bsgs.adds_per_prime": per(inner[bsgs][ADD], bsgs),
            "counting.order_bsgs.points_per_prime": per(inner[bsgs][POINT], bsgs),
            "counting.trace_naive.us_per_prime": per(total[naive], naive, 1e6),
            "structure.group_structure.us_per_prime": per(total[gs], gs, 1e6),
            "structure.adds_per_prime": per(inner[gs][ADD], gs),
            "structure.draws_per_prime": per(inner[gs][POINT], gs),
            "structure.exponent_sampling.calls_per_prime": per(calls["structure.exponent_sampling"], gs),
            "structure.has_full_two_torsion.us_per_call": per(
                total["structure.has_full_two_torsion"], "structure.has_full_two_torsion", 1e6),
            "curve.add.calls_per_prime": per(inner[record][ADD], record),
            "curve.random_point.calls_per_prime": per(inner[record][POINT], record),
            "modarith.factorize.calls_per_prime": per(inner[record][FACTORIZE], record),
            "modarith.factorize.calls": tally[FACTORIZE],
            "modarith.factorize.us_per_call":
                1e6 * tally[FACTORIZE_S] / tally[FACTORIZE] if tally[FACTORIZE] else 0.0,
            "harness.compute_record.us_per_prime": per(total[record], record, 1e6),
        }
        for name in ("modarith.sieve_primes", "harness.cache_load", "harness.cache_store",
                     "harness.aggregate_checkpoints", "harness.model_constant",
                     "harness.run_experiment", "constants.constant_series",
                     "constants.constant_euler", "constants.li", "cli.main"):
            m[f"{name}.s"] = total[name]
        return m

    def write(self, path) -> None:
        names = [f"{mod}.{fn}" for mod, fn in COUNTED] + ["modarith.factorize.s"]
        with open(path, "w") as fh:
            for name, t0, t1, parent, c0, c1 in self.spans:
                counts = {n: b - a for n, a, b in zip(names, c0, c1)}
                fh.write(json.dumps({"name": name, "start": t0, "end": t1,
                                     "parent": parent, **counts}) + "\n")


def summarize(rounds: list) -> dict:
    """Median of each metric over the traced rounds."""
    return {k: median(r[k] for r in rounds) for k in METRICS}
