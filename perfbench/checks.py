"""Check avgexp's output files and printed constants against the references.

A record is one operation and so is one constant evaluation.  A wrong,
missing or extra record, and a constant outside its stated accuracy, is a
failed operation.  A report file that disagrees with the records it was
made from is a problem: it makes the whole run incorrect.
"""

import csv
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import numpy as np

import references as ref

K_MAX = 12  # levels in pi_e.csv and in the empirical degree table (avgexp defaults)
NAIVE_BAND = 10_000  # every prime below this gets an exact a_p
SAMPLE = 384  # primes above NAIVE_BAND with an exact a_p, drawn by the check seed
POINTS = 32  # random points per record in the annihilation check
REL_TOL = 1e-9  # float columns that go through li
ACCURACY = 1e-10  # largest tail bound a constant evaluation may claim


@dataclass
class Verdict:
    attempted: int = 0
    failed: list = field(default_factory=list)  # labels of failed operations
    problems: list = field(default_factory=list)
    notes: list = field(default_factory=list)


@dataclass(frozen=True)
class SweepSpec:
    a4: int
    a6: int
    x_max: int
    model: str  # "gl2" or "empirical"
    cm_i: bool  # y^2 = x^3 - x: check every record against the closed form
    annihilate: bool


OUTPUT_FILES = ("records.csv", "checkpoints.csv", "pi_e.csv")


def read_outputs(outdir: Path):
    """The bytes of the three report files of `avgexp run`, or None."""
    try:
        return tuple((outdir / name).read_bytes() for name in OUTPUT_FILES)
    except OSError:
        return None


class SweepChecker:
    """References for one sweep, computed once, applied to each output."""

    def __init__(self, spec: SweepSpec, rng):
        self.spec = spec
        self.rng = rng
        self.good = ref.good_primes(spec.a4, spec.a6, spec.x_max)
        above = self.good[self.good >= NAIVE_BAND]
        sample = rng.choice(above, size=min(SAMPLE, len(above)), replace=False)
        self.exact_a = {p: ref.trace_by_histogram(spec.a4, spec.a6, p)
                        for p in self.good[self.good < NAIVE_BAND].tolist() + sorted(sample.tolist())}
        self.cm = {p: ref.cm_i_record(p) for p in self.good.tolist()} if spec.cm_i else {}
        self.li_x = ref.li(spec.x_max)
        self.c_ref = ref.gl2_constant()[0] if spec.model == "gl2" else None
        self.memo = {}

    def check(self, outputs) -> Verdict:
        """Verdict on the files read by read_outputs; identical files get
        the verdict already given."""
        if outputs is None:
            return self._unusable("no output files")
        if outputs not in self.memo:
            try:
                self.memo[outputs] = self._check(*(b.decode() for b in outputs))
            except (IndexError, KeyError, ValueError) as err:
                self.memo[outputs] = self._unusable(f"unreadable output: {err!r}")
        return self.memo[outputs]

    def _unusable(self, why) -> Verdict:
        return Verdict(len(self.good), [why] * len(self.good), [why])

    def _check(self, records_csv, checkpoints_csv, pi_e_csv) -> Verdict:
        s = self.spec
        v = Verdict()
        rows = list(csv.reader(records_csv.splitlines()))
        if rows[0] != ["p", "a_p", "d_p", "e_p"]:
            v.problems.append(f"records.csv header {rows[0]}")
        recs = np.array(rows[1:], dtype=np.int64).reshape(-1, 4)
        p, a, d, e = recs.T
        if len(p) and (np.diff(p) <= 0).any():
            v.problems.append("records.csv is not strictly ascending in p")

        good = set(self.good.tolist())
        have = set(p.tolist())
        missing = sorted(good - have)
        extra = sorted(have - good)
        v.attempted = len(good) + len(extra)
        v.failed += [f"missing p={q}" for q in missing] + [f"extra p={q}" for q in extra]

        wrong = ref.record_violations(p, a, d, e)
        for i, q in enumerate(p.tolist()):
            if q in self.exact_a and self.exact_a[q] != a[i]:
                wrong[i] = True
            if q in self.cm and self.cm[q] != (a[i], d[i], e[i]):
                wrong[i] = True
        if s.annihilate and len(p):
            wrong |= ref.short_exponents(p, s.a4, s.a6, e, POINTS, self.rng)
        keep = np.isin(p, self.good)
        v.failed += [f"wrong p={q} (a, d, e) = ({x}, {y}, {z})"
                     for q, x, y, z in recs[wrong & keep].tolist()]

        if s.model == "gl2":
            if abs(self._c_model(checkpoints_csv) - float(self.c_ref)) > 1e-9:
                v.problems.append("c_model differs from the gl2 constant by more than 1e-9")
            degree = {k: ref.gl2_order(k) for k in range(1, K_MAX + 1)}
        else:
            degree, c_model = self._empirical(d)
            if not math.isclose(self._c_model(checkpoints_csv), c_model, rel_tol=REL_TOL):
                v.problems.append("c_model differs from the fitted empirical constant")
        v.problems += self._checkpoint_problems(checkpoints_csv, p, d, e)
        v.problems += self._pi_e_problems(pi_e_csv, d, degree)
        if s.model == "gl2":
            stat = int(e.sum()) / (float(self.c_ref) * int(p.sum())) - 1
            v.notes.append(f"sum e_p / (C * sum p) - 1 at x = {s.x_max}: {stat:+.5f}")
        return v

    @staticmethod
    def _c_model(checkpoints_csv) -> float:
        return float(list(csv.DictReader(checkpoints_csv.splitlines()))[-1]["c_model"])

    def _empirical(self, d):
        """Degrees li(x)/#{p : k | d_p} and the series over the levels
        1..K that all have a degree, as avgexp's --model empirical fits them."""
        degree = {}
        for k in range(1, K_MAX + 1):
            count = int((d % k == 0).sum())
            if count:
                degree[k] = self.li_x / count
        covered = 0
        while covered + 1 in degree:
            covered += 1
        c = sum(float(ref.mobius_weight(k)) / degree[k] for k in range(1, covered + 1))
        return degree, c

    def _checkpoint_problems(self, text, p, d, e) -> list:
        out = []
        rows = list(csv.DictReader(text.splitlines()))
        xs = [int(r["x"]) for r in rows]
        want = [10 ** j for j in range(3, 20) if 10 ** j <= self.spec.x_max]
        if not want or want[-1] != self.spec.x_max:
            want.append(self.spec.x_max)
        if xs != want:
            return [f"checkpoints {xs}, expected {want}"]
        for r, x in zip(rows, xs):
            sel = p <= x
            pi_x, sum_e = int(sel.sum()), int(e[sel].sum())
            spd = sum((Fraction(int(p[sel & (d == k)].sum()), int(k)) for k in np.unique(d[sel])),
                      Fraction(0))
            num, den = r["sum_p_over_d"].split("/")
            c_model = float(r["c_model"])
            c_hat = 2 * sum_e / (pi_x * x)
            exact = {"pi_x": int(r["pi_x"]) == pi_x, "sum_e": int(r["sum_e"]) == sum_e,
                     "sum_p_over_d": Fraction(int(num), int(den)) == spd,
                     "avg_e": float(r["avg_e"]) == sum_e / pi_x,
                     "c_hat": float(r["c_hat"]) == c_hat,
                     "rel_dev": float(r["rel_dev"]) == c_hat / c_model - 1}
            out += [f"checkpoints.csv x={x}: {col}" for col, ok in exact.items() if not ok]
            main = c_model * ref.li(float(x) ** 2)
            if abs(float(r["main_term_dev"]) - abs(float(spd) - main)) > REL_TOL * main:
                out.append(f"checkpoints.csv x={x}: main_term_dev")
        return out

    def _pi_e_problems(self, text, d, degree) -> list:
        rows = list(csv.DictReader(text.splitlines()))
        if [int(r["k"]) for r in rows] != list(range(1, K_MAX + 1)):
            return ["pi_e.csv levels"]
        out = []
        for r in rows:
            k = int(r["k"])
            if int(r["count"]) != int((d % k == 0).sum()):
                out.append(f"pi_e.csv k={k}: count")
            want = self.li_x / degree[k] if k in degree else None
            got = r["model_prediction"]
            if (want is None) != (got == "") or (
                    want is not None and not math.isclose(float(got), want, rel_tol=REL_TOL)):
                out.append(f"pi_e.csv k={k}: model_prediction")
        return out


class ConstantChecker:
    """The two evaluations printed by `avgexp constant --model gl2`."""

    PATTERN = re.compile(r"^(series|euler)\s+\(.*\):\s+(\S+)\n\s+tail <= (\S+)", re.M)

    def __init__(self):
        self.c_ref, self.c_tail = ref.gl2_constant()

    def check(self, stdout: str) -> Verdict:
        found = {m[1]: (m[2], float(m[3])) for m in self.PATTERN.finditer(stdout)}
        v = Verdict(attempted=2)
        for method in ("series", "euler"):
            if method not in found:
                v.failed.append(f"{method}: not printed")
                continue
            value, tail = found[method]
            gap = abs(float(mp.mpf(value) - self.c_ref))
            if tail > ACCURACY or gap > tail + self.c_tail:
                v.failed.append(f"{method}: {value} (tail {tail:.1e}) vs closed form, gap {gap:.1e}")
            v.notes.append(f"{method}: |value - closed form| = {gap:.2e}, printed tail {tail:.2e}")
        return v
