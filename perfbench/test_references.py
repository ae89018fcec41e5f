"""The benchmark's references agree with avgexp's own oracles at small p.

Run from the repository root: python3 -m pytest perfbench
"""

import math
import random
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import references as ref  # noqa: E402
from avgexp.constants import DegreeModel, constant_series, gl2_order, mobius_coeff  # noqa: E402
from avgexp.counting import trace_naive  # noqa: E402
from avgexp.curve import INFINITY, GlobalCurve, ReducedCurve, random_point, scalar_mul  # noqa: E402
from avgexp.modarith import sieve_primes  # noqa: E402
from avgexp.structure import structure_bruteforce  # noqa: E402

CURVES = [(1, 1), (-1, 0), (0, 16), (0, 6), (-7, 10), (3, 5)]
GOLDEN = Path(__file__).resolve().parents[1] / "tests" / "golden" / "constant_gl2_series_y1e4.txt"


def reductions(p_max, p_min=5):
    for a4, a6 in CURVES:
        bad = GlobalCurve(a4, a6).bad_primes
        for p in sieve_primes(p_max):
            if p >= p_min and p not in bad:
                yield a4, a6, p


@pytest.mark.parametrize("a4,a6", CURVES)
def test_good_primes_match_program(a4, a6):
    bad = GlobalCurve(a4, a6).bad_primes
    want = [p for p in sieve_primes(5000) if p not in bad]
    assert ref.good_primes(a4, a6, 5000).tolist() == want


def test_histogram_trace_matches_trace_naive():
    for a4, a6, p in reductions(2000):
        assert ref.trace_by_histogram(a4, a6, p) == trace_naive(ReducedCurve(p, a4 % p, a6 % p)).a_p


def test_cm_closed_form_matches_enumeration():
    bad = GlobalCurve(-1, 0).bad_primes
    for p in sieve_primes(3000):
        if p in bad:
            continue
        S = structure_bruteforce(ReducedCurve(p, p - 1, 0))
        assert ref.cm_i_record(p) == (S.a_p, S.d_p, S.e_p), p


def test_invariants_accept_true_records_and_flag_broken_ones():
    recs = [structure_bruteforce(ReducedCurve(p, a4 % p, a6 % p)) for a4, a6, p in reductions(600)]
    p, a, d, e = (np.array([getattr(s, f) for s in recs]) for f in ("p", "a_p", "d_p", "e_p"))
    assert not ref.record_violations(p, a, d, e).any()
    assert ref.record_violations(p, a + 2, d, e).all()  # d*e = p+1-a breaks
    hasse = np.array([math.isqrt(4 * x) + 1 for x in p])
    assert ref.record_violations(p, hasse, 1, p + 1 - hasse).all()


def test_ladder_matches_scalar_mul():
    rng = random.Random(7)
    lanes = []
    for a4, a6, p in reductions(400):
        C = ReducedCurve(p, a4 % p, a6 % p)
        N = p + 1 - trace_naive(C).a_p
        for _ in range(6):
            P = random_point(C, rng)
            k = rng.choice([rng.randrange(1, 4 * p), N, N // 2, N // 3])
            lanes.append((p, C.a, C.b, P[0], k, k == 0 or scalar_mul(k, P, C) is INFINITY))
    cols = np.array([lane[:5] for lane in lanes], dtype=np.int64).T
    want = np.array([lane[5] for lane in lanes])
    assert want.any() and not want.all()
    got = ref.ladder_annihilates(*cols)
    assert (got == want).all()


def test_ladder_kills_every_point_at_its_order():
    # x-only identities: (N * P) = O for every point, never (0 : 0)
    rng = random.Random(3)
    lanes = []
    for a4, a6, p in reductions(300):
        C = ReducedCurve(p, a4 % p, a6 % p)
        N = p - ref.trace_by_histogram(a4, a6, p) + 1
        for _ in range(4):
            lanes.append((p, C.a, C.b, random_point(C, rng)[0], N))
    assert ref.ladder_annihilates(*np.array(lanes, dtype=np.int64).T).all()


def test_annihilation_never_rejects_truth_and_catches_short_exponents():
    rng = np.random.default_rng(11)
    recs = [(a4, a6, structure_bruteforce(ReducedCurve(p, a4 % p, a6 % p)))
            for a4, a6, p in reductions(1500, p_min=50)]
    p = np.array([s.p for _, _, s in recs])
    a4 = np.array([c for c, _, _ in recs])
    a6 = np.array([c for _, c, _ in recs])
    e = np.array([s.e_p for _, _, s in recs])
    assert not ref.short_exponents(p, a4, a6, e, 32, rng).any()
    # the largest proper divisor of the exponent is the hardest to catch
    q = np.array([min(f for f, _ in ref._factor(int(x))) for x in e])
    assert ref.short_exponents(p, a4, a6, e // q, 32, rng).all()


def test_weights_and_degrees_match_program():
    for k in range(1, 200):
        assert ref.gl2_order(k) == gl2_order(k)
        assert ref.mobius_weight(k) == mobius_coeff(k).value


def test_gl2_constant_matches_golden_and_series():
    c, tail = ref.gl2_constant()
    golden = float(GOLDEN.read_text().split()[0])
    assert abs(float(c) - golden) < 1e-14 + tail
    s = constant_series(DegreeModel("gl2_generic"), 2000)
    assert abs(float(c - s.value)) <= s.tail_bound + tail
