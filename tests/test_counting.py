"""Trace computations: the two algorithms against each other and classics."""

import math
import random
from contextlib import contextmanager

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from avgexp import counting, curve
from avgexp.counting import (LANE_CAP, _annihilators, order_bsgs,
                             order_lanes, quadratic_twist, trace_block,
                             trace_naive)
from avgexp.curve import (GlobalCurve, INFINITY, ReducedCurve, random_point,
                          reduce_curve, scalar_mul)
from avgexp.modarith import legendre, sieve_primes


@contextmanager
def points_from(seed):
    """order_bsgs draws from random.Random(seed) instead of Random(p)."""
    rng = random.Random(seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(counting, "random_point", lambda C, _: curve.random_point(C, rng))
        yield


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


def lane_annihilators(C):
    """The annihilators in the Hasse window of the point a lane takes for
    C, from the scalar search, and whether that point is on the twist.

    The lane's point has x0 = the first x >= 1 with c = x^3 + a*x + b != 0.
    (x0*c, c^2) lies on y^2 = X^3 + a*c^2*X + b*c^3, which is C when c is
    a square and its quadratic twist otherwise, and whose x-only law is
    C's scaled by c; so its annihilators are the lane point's.
    """
    p, a, b = C.p, C.a, C.b
    x0 = next(x for x in range(1, 5) if (x ** 3 + a * x + b) % p)
    c = (x0 ** 3 + a * x0 + b) % p
    side = ReducedCurve(p, a * c * c % p, b * c ** 3 % p)
    return _annihilators((x0 * c % p, c * c % p), side, *hasse_window(p)), legendre(c, p) == -1


def lane_oracle(C):
    """What order_lanes must return for C: the lane is accepted exactly
    when the Hasse window holds one annihilator of its point."""
    anns, on_twist = lane_annihilators(C)
    if len(anns) > 1:
        return None
    return 2 * C.p + 2 - anns[0] if on_twist else anns[0]


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


class TestOrderBsgs:
    def test_agrees_with_naive_1009(self):
        C = reduce_curve(GENERIC, 1009)
        assert order_bsgs(C).N == trace_naive(C).N

    def test_agrees_with_naive_10007(self):
        E = GlobalCurve(2, 3)
        C = reduce_curve(E, 10007)
        assert order_bsgs(C).N == trace_naive(C).N

    def test_overlap_band(self):
        # both algorithms on every good prime in [229, 1500], three curves
        for E in (GENERIC, CM, GlobalCurve(0, 6)):
            for p in sieve_primes(1500):
                if p < 229 or p in E.bad_primes:
                    continue
                C = reduce_curve(E, p)
                assert order_bsgs(C).N == trace_naive(C).N

    def test_lagrange_on_random_points(self):
        C = reduce_curve(GENERIC, 100003)
        N = order_bsgs(C).N
        rng = random.Random(6)
        for _ in range(20):
            assert scalar_mul(N, random_point(C, rng), C) is INFINITY

    def test_rejects_tiny_p(self):
        with pytest.raises(ValueError):
            order_bsgs(reduce_curve(GENERIC, 227))

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
        assert anns[1] - anns[0] == order


class TestBsgsPaths:
    def test_several_annihilators_fall_back_to_point_orders(self):
        # cm-i at 15377 = 1 (mod 4): E = Z/124 x Z/124, so every point's
        # order divides 124 and the window of width 497 holds several multiples
        C = reduce_curve(CM, 15377)
        lo, hi = hasse_window(15377)
        assert len(_annihilators(random_point(C, random.Random(1)), C, lo, hi)) >= 2
        for seed in range(3):
            with points_from(seed):
                assert order_bsgs(C).N == 124 * 124

    def test_twist_point_needed(self, monkeypatch):
        sides = []
        real = counting.random_point

        def spy(side, rng):
            sides.append(side)
            return real(side, rng)
        monkeypatch.setattr(counting, "random_point", spy)
        C = reduce_curve(GENERIC, 10181)
        assert order_bsgs(C).N == trace_naive(C).N
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
        assert order_bsgs(C).N == trace_naive(C).N
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
        with points_from(seed):
            assert order_bsgs(C).N == trace_naive(C).N


class TestOrderLanes:
    @pytest.mark.parametrize("E", [GENERIC, CM], ids=["generic1", "cm-i"])
    def test_accepts_exactly_the_single_annihilator_windows(self, E):
        curves = [reduce_curve(E, p) for p in PRIMES_229_TO_20000
                  if p not in E.bad_primes]
        got = []
        for i in range(0, len(curves), 512):
            got += order_lanes(curves[i:i + 512])
        assert got == [lane_oracle(C) for C in curves]
        for C, N in zip(curves, got):
            if N is not None:
                assert N == trace_naive(C).N, C.p

    def test_fallback_share_generic1(self):
        # the lanes refuse a prime only when its point's window holds
        # several annihilators: 85 of the 4583 good primes in [4000, 5e4]
        curves = [reduce_curve(GENERIC, p) for p in sieve_primes(50_000)
                  if p >= 4000 and p not in GENERIC.bad_primes]
        refused = sum(N is None for N in order_lanes(curves))
        assert refused == 85 and len(curves) == 4583

    def test_twist_point_accepted_through_restart(self):
        # generic1 at 4027: x = 1 lies on the twist (c = 3 is a nonresidue),
        # m = 12, s = 23, and 4117 = 179*23 annihilates it, so the giant row
        # k = 179 is at infinity and the chain must restart there
        C = reduce_curve(GENERIC, 4027)
        assert lane_annihilators(C) == ([4117], True)
        assert order_lanes([C]) == [3939] == [trace_naive(C).N]

    def test_several_annihilators_fall_back(self):
        # cm-i at 4057: x = 1 is a root, and x = 2 has annihilators 4002,
        # 4089 and 4176 in the window
        C = reduce_curve(CM, 4057)
        assert lane_annihilators(C) == ([4002, 4089, 4176], False)
        assert order_lanes([C]) == [None]
        (T,) = trace_block([C], threshold=229)
        assert (T.method, T.N) == ("bsgs", trace_naive(C).N) == ("bsgs", 4176)

    def test_unreduced_coefficients(self):
        # generic1 at 4027, its coefficients given as 1 + 4027*k
        k = 1 << 40
        raw = [ReducedCurve(4027, 1 + 4027 * k, 1 - 4027 * k),
               ReducedCurve(4027, 1 - 4027 * k, 1 + 4027 * 3)]
        assert order_lanes(raw) == [3939, 3939]

    def test_large_prime_refused(self):
        big = ReducedCurve(1073741827, 1, 1)  # the least prime above 2^30
        assert big.p > LANE_CAP
        small = reduce_curve(GENERIC, 4027)
        assert order_lanes([big, small, big]) == [None, 3939, None]

    def test_block_with_every_lane_refused(self):
        # y^2 = x^3 + x at 229: x = 1 has several annihilators in the
        # window, so no candidate is left to check
        C = ReducedCurve(229, 1, 0)
        assert lane_oracle(C) is None
        assert order_lanes([C, C]) == [None, None]

    @settings(max_examples=40, deadline=None, database=None)
    @given(st.data())
    def test_differential_against_naive(self, data):
        # random curves in a random block: each lane's answer is the one
        # it gets alone, the oracle's, and the true order
        curves = []
        for _ in range(data.draw(st.integers(1, 12))):
            p = data.draw(st.sampled_from(PRIMES_229_TO_20000))
            a = data.draw(st.integers(0, p - 1))
            b = data.draw(st.integers(0, p - 1))
            if (4 * a ** 3 + 27 * b ** 2) % p:
                curves.append(ReducedCurve(p, a, b))
        assume(curves)
        curves = data.draw(st.permutations(curves))
        got = order_lanes(curves)
        for C, N in zip(curves, got):
            assert order_lanes([C]) == [N]
            assert N == lane_oracle(C)
            if N is not None:
                assert N == trace_naive(C).N


class TestTraceBlock:
    def test_methods_and_orders(self):
        curves = [reduce_curve(E, p) for E, p in
                  ((GENERIC, 1009), (CM, 4057), (GENERIC, 4027), (CM, 101))]
        got = trace_block(curves, threshold=1000)
        assert [T.method for T in got] == ["lanes", "bsgs", "lanes", "naive"]
        assert [T.N for T in got] == [trace_naive(C).N for C in curves]

    def test_threshold_floor(self):
        C = reduce_curve(GENERIC, 227)
        (T,) = trace_block([C], threshold=0)
        assert T.method == "naive"

    def test_methods_agree_in_overlap(self):
        curves = [reduce_curve(GENERIC, p) for p in sieve_primes(3000)
                  if p >= 1000 and p not in GENERIC.bad_primes]
        lows = trace_block(curves, threshold=10 ** 9)
        highs = trace_block(curves, threshold=229)
        for lo, hi in zip(lows, highs, strict=True):
            assert lo.method == "naive" and hi.method in ("lanes", "bsgs")
            assert lo.N == hi.N and lo.a_p == hi.a_p


class TestSupersingular:
    def test_cm_trace_zero_at_3_mod_4(self):
        # classical criterion for y^2 = x^3 - x, checked to 2000 here
        # (the acceptance suite extends this to 1e4)
        for p in sieve_primes(2000):
            if p in CM.bad_primes or p % 4 != 3:
                continue
            assert trace_naive(reduce_curve(CM, p)).a_p == 0
