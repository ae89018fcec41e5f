"""Trace computations: the two algorithms against each other and classics."""

import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from avgexp import counting, curve
from avgexp.counting import (TraceResult, _annihilators, _point_order,
                             order_bsgs, quadratic_twist, trace, trace_naive)
from avgexp.curve import (GlobalCurve, INFINITY, ReducedCurve, random_point,
                          reduce_curve, scalar_mul)
from avgexp.harness import derive_rng
from avgexp.modarith import sieve_primes


def enumerate_order(C):
    # independent oracle: literally count solutions
    n = 1
    for x in range(C.p):
        rhs = (x ** 3 + C.a * x + C.b) % C.p
        n += sum(1 for y in range(C.p) if y * y % C.p == rhs)
    return n


GENERIC = GlobalCurve(1, 1)
CM = GlobalCurve(-1, 0)
PRIMES_229_TO_20000 = [p for p in sieve_primes(20000) if p >= 229]


class TestTraceNaive:
    def test_f5_generic(self):
        C = reduce_curve(GENERIC, 5)
        T = trace_naive(C)
        assert (T.a_p, T.N) == (-3, 9)
        assert enumerate_order(C) == 9

    def test_f5_cm(self):
        C = reduce_curve(CM, 5)
        T = trace_naive(C)
        assert (T.N, T.a_p) == (8, -2)
        assert enumerate_order(C) == 8

    def test_matches_enumeration(self):
        for p in (7, 13, 101, 257):
            for E in (GENERIC, CM):
                if p in E.bad_primes:
                    continue
                C = reduce_curve(E, p)
                assert trace_naive(C).N == enumerate_order(C)

    def test_hasse_postcondition(self):
        for p in sieve_primes(3000):
            if p in GENERIC.bad_primes or p < 5:
                continue
            T = trace_naive(reduce_curve(GENERIC, p))
            assert abs(T.a_p) <= math.isqrt(4 * p)

    def test_result_invariants_enforced(self):
        with pytest.raises(ValueError):
            TraceResult(101, 50, 52, "naive")  # Hasse violated
        with pytest.raises(ValueError):
            TraceResult(101, 0, 100, "naive")  # N != p+1-a


class TestOrderBsgs:
    def test_agrees_with_naive_1009(self):
        C = reduce_curve(GENERIC, 1009)
        assert order_bsgs(C, derive_rng(1, 1009)).N == trace_naive(C).N

    def test_agrees_with_naive_10007(self):
        E = GlobalCurve(2, 3)
        C = reduce_curve(E, 10007)
        assert order_bsgs(C, derive_rng(1, 10007)).N == trace_naive(C).N

    def test_overlap_band(self):
        # both algorithms on every good prime in [229, 1500], three curves
        for E in (GENERIC, CM, GlobalCurve(0, 6)):
            for p in sieve_primes(1500):
                if p < 229 or p in E.bad_primes:
                    continue
                C = reduce_curve(E, p)
                assert order_bsgs(C, derive_rng(3, p)).N == trace_naive(C).N

    def test_lagrange_on_random_points(self):
        C = reduce_curve(GENERIC, 100003)
        N = order_bsgs(C, derive_rng(5, 100003)).N
        rng = random.Random(6)
        for _ in range(20):
            assert scalar_mul(N, random_point(C, rng), C) is INFINITY

    def test_rejects_tiny_p(self):
        with pytest.raises(ValueError):
            order_bsgs(reduce_curve(GENERIC, 227), random.Random(0))

    def test_twist_orders_sum(self):
        for p in (1009, 10007):
            C = reduce_curve(GENERIC, p)
            T = quadratic_twist(C)
            assert trace_naive(C).N + trace_naive(T).N == 2 * p + 2


def hasse_window(p):
    B = math.isqrt(4 * p)
    return p + 1 - B, p + 1 + B


class TestAnnihilators:
    def test_matches_direct_scan(self):
        # every n in the window with n*P = O, found by trying each n
        rng = random.Random(8)
        for p in sieve_primes(2000)[::7]:
            if p < 229:
                continue
            lo, hi = hasse_window(p)
            for _ in range(2):
                a, b = rng.randrange(p), rng.randrange(p)
                if (4 * a ** 3 + 27 * b ** 2) % p == 0:
                    continue
                C = ReducedCurve(p, a, b)
                for side in (C, quadratic_twist(C)):
                    P = random_point(side, rng)
                    want = [n for n in range(lo, hi + 1)
                            if scalar_mul(n, P, side) is INFINITY]
                    assert _annihilators(P, side, lo, hi) == want, (p, a, b)

    @pytest.mark.parametrize("b, P, order", [
        (2, (752, 768), 7),   # below m = 8: caught among the baby steps
        (13, (686, 244), 8),  # order m: caught by the last baby step
        (2, (880, 423), 9),   # above m: found by the giant steps
    ])
    def test_orders_around_baby_table_size(self, b, P, order):
        p = 1009
        C = ReducedCurve(p, 1, b)
        lo, hi = hasse_window(p)
        anns = _annihilators(P, C, lo, hi)
        assert anns == [n for n in range(lo, hi + 1) if n % order == 0]
        assert _point_order(P, C, anns) == order


class TestBsgsPaths:
    def test_several_annihilators_fall_back_to_point_orders(self):
        # cm-i at 15377 = 1 (mod 4): E = Z/124 x Z/124, so every point's
        # order divides 124 and the window of width 497 holds several multiples
        C = reduce_curve(CM, 15377)
        lo, hi = hasse_window(15377)
        assert len(_annihilators(random_point(C, random.Random(1)), C, lo, hi)) >= 2
        for seed in range(3):
            assert order_bsgs(C, derive_rng(seed, 15377)).N == 124 * 124

    def test_twist_point_needed(self, monkeypatch):
        sides = []
        real = counting.random_point

        def spy(side, rng):
            sides.append(side)
            return real(side, rng)
        monkeypatch.setattr(counting, "random_point", spy)
        C = reduce_curve(GENERIC, 10151)
        assert order_bsgs(C, derive_rng(1, 10151)).N == trace_naive(C).N
        assert sides == [C, quadratic_twist(C)]

    def test_add_count_at_100003(self, monkeypatch):
        # ~2*sqrt(B) = 50 adds for the baby and giant steps, B = isqrt(4p),
        # and ~16 more for the start point k0*(s*P), k0 ~ p/s ~ 2000
        calls = [0]
        real = curve.add

        def counted(*args):
            calls[0] += 1
            return real(*args)
        monkeypatch.setattr(curve, "add", counted)
        monkeypatch.setattr(counting, "add", counted)
        C = reduce_curve(GENERIC, 100003)
        assert order_bsgs(C, derive_rng(1, 100003)).N == trace_naive(C).N
        assert calls[0] <= 75

    @settings(max_examples=80, deadline=None, database=None)
    @given(st.data())
    def test_differential_against_naive(self, data):
        p = data.draw(st.sampled_from(PRIMES_229_TO_20000))
        a = data.draw(st.integers(0, p - 1))
        b = data.draw(st.integers(0, p - 1))
        assume((4 * a ** 3 + 27 * b ** 2) % p)
        seed = data.draw(st.integers(0, 2 ** 32))
        C = ReducedCurve(p, a, b)
        assert order_bsgs(C, derive_rng(seed, p)).N == trace_naive(C).N


class TestDispatcher:
    def test_routes_naive_below_threshold(self):
        C = reduce_curve(GENERIC, 101)
        assert trace(C, derive_rng(1, 101), threshold=10_000).method == "naive"

    def test_routes_bsgs_above_threshold(self):
        C = reduce_curve(GENERIC, 100003)
        assert trace(C, derive_rng(1, 100003), threshold=10_000).method == "bsgs"

    def test_tiny_primes_forced_naive(self):
        C = reduce_curve(GENERIC, 101)
        assert trace(C, derive_rng(1, 101), threshold=0).method == "naive"

    def test_methods_agree_in_overlap(self):
        for p in sieve_primes(3000):
            if p < 1000 or p in GENERIC.bad_primes:
                continue
            C = reduce_curve(GENERIC, p)
            lo = trace(C, derive_rng(2, p), threshold=10 ** 9)
            hi = trace(C, derive_rng(2, p), threshold=229)
            assert (lo.method, hi.method) == ("naive", "bsgs")
            assert lo.N == hi.N and lo.a_p == hi.a_p


class TestSupersingular:
    def test_cm_trace_zero_at_3_mod_4(self):
        # classical criterion for y^2 = x^3 - x, checked to 2000 here
        # (the acceptance suite extends this to 1e4)
        for p in sieve_primes(2000):
            if p in CM.bad_primes or p % 4 != 3:
                continue
            assert trace_naive(reduce_curve(CM, p)).a_p == 0
