"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line.  The 1e6 sweep is computed once per
session and shared; everything else is self-contained.  Run with
`pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import math
import os
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from avgexp.constants import (DegreeModel, constant_euler, constant_series,
                              estimate_degrees, degree, li,
                              mobius_coeff, euler_phi)
from avgexp.counting import order_bsgs, trace_naive
from avgexp.curve import GlobalCurve, reduce_curve
from avgexp.harness import (RECORD, CheckpointRow, ExperimentConfig, error_trend,
                            pi_E_counts, run_experiment, write_csv)
from avgexp.modarith import sieve_primes
from avgexp.structure import group_structure, structure_bruteforce

GENERIC = GlobalCurve(1, 1, label="y^2 = x^3 + x + 1")
CM = GlobalCurve(-1, 0, label="y^2 = x^3 - x")
THIRD = GlobalCurve(0, 6, label="y^2 = x^3 + 6")
TEST_CURVES = (GENERIC, CM, THIRD)

GOLDEN = Path(__file__).parent / "golden" / "constant_gl2_series_y1e4.txt"


def report(num, desc, passed):
    print(f"\nACCEPTANCE {num}: {'PASS' if passed else 'FAIL'} - {desc}")
    assert passed, f"acceptance criterion {num} failed: {desc}"


@pytest.fixture(scope="session")
def big_run():
    """The 1e6 sweep on the generic curve, gl2 model, no overrides."""
    cfg = ExperimentConfig(
        curve=GENERIC, x_max=10 ** 6,
        checkpoints=[10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6],
        workers=min(8, os.cpu_count() or 1),
        model=DegreeModel("gl2_generic"),
        cache_path=os.environ.get("AVGEXP_TEST_CACHE") or None,
    )
    return run_experiment(cfg)


def test_criterion_1_oracle_equivalence():
    mismatches = []
    for E in TEST_CURVES:
        for p in sieve_primes(2000):
            if p in E.bad_primes:
                continue
            C = reduce_curve(E, p)
            got = group_structure(C, trace_naive(C))
            want = structure_bruteforce(C)
            if (got.a_p, got.d_p, got.e_p) != (want.a_p, want.d_p, want.e_p):
                mismatches.append((E.label, p, got, want))
    report(1, "group_structure == structure_bruteforce for all good p <= 2000, "
              "3 curves, exact", not mismatches)


def test_criterion_2_cross_algorithm_traces():
    bad = []
    for E in TEST_CURVES:
        for p in sieve_primes(10_000):
            if p < 229 or p in E.bad_primes:
                continue
            C = reduce_curve(E, p)
            naive = trace_naive(C)
            bsgs = order_bsgs(C)
            if (naive.a_p, naive.N) != (bsgs.a_p, bsgs.N):
                bad.append((E.label, p))
    report(2, "trace_naive == order_bsgs on all good p in [229, 1e4], 3 curves",
           not bad)


def test_criterion_3_hasse_and_divisibility(big_run):
    violations = 0
    for rec in big_run.records:
        p, a, d, e = rec.p, rec.a_p, rec.d_p, rec.e_p
        N = p + 1 - a
        if abs(a) > math.isqrt(4 * p):
            violations += 1
        elif (a - 2) % d or (p - 1) % d or N % (d * d) or d * e != N:
            violations += 1
    report(3, f"Hasse + divisibility invariants on 100% of {len(big_run.records)} "
              "records", violations == 0)


def test_criterion_4_exact_identities(big_run):
    sums, bound_ok = [Fraction(0)] * 10_001, True  # sums[k] = sum_{j | k} coeff(j)
    for j in range(1, 10_001):  # each j adds its coefficient to its multiples
        c = mobius_coeff(j).value
        bound_ok &= abs(c) <= Fraction(euler_phi(j), j)
        for k in range(j, 10_001, j):
            sums[k] += c
    ok = sums[1:] == [Fraction(1, k) for k in range(1, 10_001)]
    lhs = sum(r.e_p * r.d_p for r in big_run.records)
    rhs = sum(r.p + 1 - r.a_p for r in big_run.records)
    report(4, "mobius inversion to 1e4, coefficient bound, and exact "
              "sum(e*d) = sum(p+1-a)", ok and bound_ok and lhs == rhs)


def test_criterion_5_constant_cross_check():
    model = DegreeModel("gl2_generic")
    s = constant_series(model, 10_000)
    e = constant_euler(model, 10_000)
    gap = abs(s.value - e.value)
    budget = s.tail_bound + e.tail_bound
    in_range = 0 < s.value < 1 and 0 < e.value < 1
    # the golden file holds the value correctly rounded to its 39 digits
    regression = abs(s.value - Fraction(GOLDEN.read_text().strip())) < Fraction(1, 2 * 10 ** 39)
    report(5, f"series/euler gap {float(gap):.2e} <= combined tails "
              f"{budget:.2e}, both in (0,1), golden file match",
           gap <= budget and in_range and regression)


def test_criterion_6_main_asymptotic(big_run):
    rows = {row.x: row for row in big_run.checkpoints}
    final = rows[10 ** 6]
    devs = [abs(rows[x].rel_dev) for x in (10 ** 4, 10 ** 5, 10 ** 6)]
    converged = abs(final.c_hat / final.c_model - 1) < 0.05
    monotone = all(b <= a + 0.01 for a, b in zip(devs, devs[1:]))
    report(6, f"|c_hat(1e6)/c_model - 1| = {abs(final.rel_dev):.4f} < 0.05, "
              f"|rel_dev| trend {[f'{d:.4f}' for d in devs]} non-increasing "
              "(0.01 slack)", converged and monotone)


def test_criterion_7_chebotarev_counts(big_run):
    lx = li(10 ** 6)
    table = dict((k, count) for k, count, _ in big_run.pi_e)
    r2 = table[2] * 6 / lx
    r3 = table[3] * 48 / lx
    report(7, f"pi_E(1e6;2)*6/li = {r2:.4f} in [0.85, 1.15]; "
              f"pi_E(1e6;3)*48/li = {r3:.4f} in [0.80, 1.20]",
           0.85 <= r2 <= 1.15 and 0.80 <= r3 <= 1.20)


def test_criterion_8_cm_supersingular_smoke():
    bad = []
    for p in sieve_primes(10_000):
        if p in CM.bad_primes or p % 4 != 3:
            continue
        if trace_naive(reduce_curve(CM, p)).a_p != 0:
            bad.append(p)
    report(8, "a_p = 0 for all good p = 3 (mod 4), p <= 1e4 on y^2 = x^3 - x",
           not bad)


def test_criterion_9_worker_determinism(tmp_path):
    outs = []
    for workers in (1, 8):
        cfg = ExperimentConfig(curve=GENERIC, x_max=10 ** 4,
                               checkpoints=[10 ** 4], workers=workers)
        result = run_experiment(cfg)
        path = tmp_path / f"records_w{workers}.csv"
        write_csv(path, RECORD.names, result.records)
        outs.append(path.read_bytes())
    report(9, "workers 1 vs 8: byte-identical records.csv",
           outs[0] == outs[1])


def test_criterion_10_planted_error_exponent():
    xs = [10 ** k for k in range(3, 8)]
    rows = [CheckpointRow(x, 10, 1000, Fraction(1), 100.0, 0.9, 0.9, 0.0,
                          float(x) ** 0.9) for x in xs]
    fit = error_trend(rows)
    report(10, f"planted x^0.9 deviation recovered as slope {fit.slope:.9f}",
           abs(fit.slope - 0.9) < 1e-6)


# --- corollary checks that ride on the same 1e6 run -----------------------

def test_empirical_degree_estimate_k2_band(big_run):
    model = estimate_degrees(pi_E_counts(np.bincount(big_run.records.d_p), 4), li(10 ** 6))
    n2 = float(degree(model, 2))
    print(f"\n  estimated degree at k=2: {n2:.3f} (gl2 value 6)")
    assert abs(n2 - 6) / 6 < 0.15

    n1 = float(degree(model, 1))
    assert abs(n1 - 1) < 0.01


def test_real_run_trend_slope_sane(big_run):
    fit = error_trend(big_run.checkpoints)
    print(f"\n  deviation trend slope over 1e3..1e6: {fit.slope:.3f}")
    assert fit.slope < 2
