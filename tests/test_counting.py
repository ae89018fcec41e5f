"""Trace computations: the two algorithms against each other and classics."""

import math
import random
from contextlib import contextmanager
from functools import cache

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from avgexp import counting, curve
from avgexp.counting import (LANE_CAP, PATHS, AmbiguityExhausted, _annihilators, _power,
                             _recover, _window_annihilators, cubic_roots, lane_rows,
                             order_bsgs, order_lanes, quadratic_twist, trace_block,
                             trace_naive, weed_orders)
from avgexp.curve import (GlobalCurve, INFINITY, ReducedCurve, add, neg,
                          random_point, reduce_curve, scalar_mul)
from avgexp.harness import PRESETS, good_primes
from avgexp.modarith import legendre, residues, sieve_primes
from primality import is_prime


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
CM3 = GlobalCurve(0, 16)
PRIMES_229_TO_20000 = [p for p in sieve_primes(20000) if p >= 229]


def count_roots(p, a, b):
    """The roots of x^3 + a*x + b in F_p, by trying every x."""
    x = np.arange(p, dtype=np.int64)
    return int(((x * x % p * x + a * x + b) % p == 0).sum())


def lane_class(C):
    """(t, r) with N = r (mod t) for C and each twist, from its roots."""
    return {3: (4, 0), 1: (2, 0), 0: (2, 1)}[count_roots(C.p, C.a, C.b)]


def lane_annihilators(C):
    """The annihilators in the Hasse window of the point a lane takes for
    C that lie in the class of N mod t, from the scalar search, and
    whether that point is on the twist.

    The lane's point has x0 = the first x >= 1 with c = x^3 + a*x + b != 0.
    (x0*c, c^2) lies on y^2 = X^3 + a*c^2*X + b*c^3, which is C when c is
    a square and its quadratic twist otherwise, and whose x-only law is
    C's scaled by c; so its annihilators are the lane point's.  Its
    cubic's roots are c times C's, so its order is in C's class.
    """
    p, a, b = C.p, C.a, C.b
    x0 = next(x for x in range(1, 5) if (x ** 3 + a * x + b) % p)
    c = (x0 ** 3 + a * x0 + b) % p
    side = ReducedCurve(p, a * c * c % p, b * c ** 3 % p)
    t, r = lane_class(C)
    anns = _annihilators((x0 * c % p, c * c % p), side, *hasse_window(p))
    return [n for n in anns if n % t == r], legendre(c, p) == -1


def columns(curves):
    """The int64 columns p, a, b and roots of order_lanes and trace_block."""
    p, a, b = (np.array([getattr(C, f) for C in curves], dtype=np.int64)
               for f in ("p", "a", "b"))
    return p, a, b, cubic_roots(p, a, b)


def lanes(curves):
    """order_lanes over the curves, as a list."""
    return order_lanes(*columns(curves))[0].tolist()


def lane_proofs(curves):
    """The annihilators each lane proves, as sorted lists, with None for a
    lane the search refuses; the lanes need 229 <= p < 2^30."""
    lane, n, refused, _ = _window_annihilators(*columns(curves))
    return [None if refused[i] else sorted(n[lane == i].tolist())
            for i in range(len(curves))]


def lane_curve_orders(curves):
    """The annihilators each lane lists, read as curve orders, ascending,
    with None for a lane the search refuses."""
    lane, n, refused, twist = _window_annihilators(*columns(curves))
    return [None if refused[i] else sorted(2 * C.p + 2 - x if twist[i] else x
                                           for x in n[lane == i].tolist())
            for i, C in enumerate(curves)]


def lane_oracle(C):
    """What order_lanes must return for C: the lane is accepted exactly
    when the Hasse window holds one annihilator of its point in the class
    of N mod t, and 0 marks a refused lane."""
    anns, on_twist = lane_annihilators(C)
    if len(anns) > 1:
        return 0
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
        (2, (752, 768), 7),   # below m = 12: caught among the baby steps
        (13, (686, 244), 8),
        (2, (880, 423), 9),
        (1, (27, 817), 11),   # the largest order the baby steps catch
        (6, (764, 794), 12),  # order m: distinct baby points, m*P = infinity
        (27, (993, 256), 13),  # above m: found by the giant steps
    ])
    def test_orders_around_baby_table_size(self, b, P, order):
        p = 1009
        C = ReducedCurve(p, 1, b)
        lo, hi = hasse_window(p)
        anns = _annihilators(P, C, lo, hi)
        assert anns == [n for n in range(lo, hi + 1) if n % order == 0]
        assert anns[1] - anns[0] == order


def walked_annihilators(P, C, lo, hi):
    """Every n in [lo, hi] with n*P = infinity, by walking n*P from lo*P,
    one add per n."""
    R, found = scalar_mul(lo, P, C), []
    for n in range(lo, hi + 1):
        if R is INFINITY:
            found.append(n)
        R = add(R, P, C)
    return found


def small_order_points(C):
    """Every point of order 2 or 3 on C, by trying every x."""
    p, roots = C.p, {}
    for y in range(p):
        roots.setdefault(y * y % p, []).append(y)
    points = [(x, y) for x in range(p) for y in roots.get((x ** 3 + C.a * x + C.b) % p, ())]
    return [P for P in points if P[1] == 0 or add(P, P, C) == neg(P, C)]


def partial_tile(lo, hi):
    """Whether _annihilators' last giant tile, of m = isqrt(hi - lo) + 1
    baby points, runs past hi."""
    return (hi - lo + 1) % (math.isqrt(hi - lo) + 1) != 0


def check_against_walk(C, rng):
    """_annihilators against the walk on C and its twist: two random
    points and every point of order 2 and 3, each in the Hasse window and
    in a narrower window about the side's order N.  Returns how many
    windows had a partial last tile, and how many points of order 2 and 3
    were walked."""
    partial = small = 0
    lo, hi = hasse_window(C.p)
    for side in (C, quadratic_twist(C)):
        N, tiny = trace_naive(side).N, small_order_points(side)
        small += len(tiny)
        for P in [random_point(side, rng) for _ in range(2)] + tiny:
            for w in ((lo, hi), (N - rng.randrange(N - lo + 1), N + rng.randrange(hi - N + 1))):
                assert _annihilators(P, side, *w) == walked_annihilators(P, side, *w), (side, P, w)
                partial += partial_tile(*w)
    return partial, small


PRIMES_229_TO_3000 = [p for p in sieve_primes(3000) if p >= 229]


class TestAnnihilatorsDifferential:
    """_annihilators against a brute-force walk over the window."""

    @pytest.mark.parametrize("preset", ["generic1", "cm-i", "cm-3"])
    def test_presets_at_sampled_primes(self, preset):
        E, rng, walked = PRESETS[preset], random.Random(preset), []
        for p in PRIMES_229_TO_3000[::9]:
            if p not in E.bad_primes:
                walked.append(check_against_walk(reduce_curve(E, p), rng))
        partial, small = map(sum, zip(*walked))
        assert partial > 0 and small > 0

    @settings(max_examples=40, deadline=None, database=None)
    @given(st.data())
    def test_random_curves(self, data):
        p = data.draw(st.sampled_from(PRIMES_229_TO_3000))
        a = data.draw(st.integers(0, p - 1))
        b = data.draw(st.integers(0, p - 1))
        assume((4 * a ** 3 + 27 * b ** 2) % p)
        check_against_walk(ReducedCurve(p, a, b), random.Random(data.draw(st.integers(0, 2 ** 32))))

    def test_small_order_points(self):
        # cm-i's x^3 - x splits, so its three points (e, 0) have order 2;
        # cm-3's y^2 = x^3 + 16 has the points (0, +-4) of order 3
        assert small_order_points(reduce_curve(PRESETS["cm-i"], 1009)) == [
            (0, 0), (1, 0), (1008, 0)]
        assert (0, 4) in small_order_points(reduce_curve(PRESETS["cm-3"], 1009))


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
        # every group operation is an add: m - 1 = 35 baby steps and 36
        # giant steps over the window of width 2B, B = isqrt(4p), m =
        # isqrt(2B) + 1, then the start point lo*(-P), lo = p + 1 - B =
        # 99372, by 16 doublings and 5 additions; the first point leaves
        # one candidate, so no later point takes a multiple
        calls = [0]
        real = curve.add

        def counted(*args):
            calls[0] += 1
            return real(*args)
        monkeypatch.setattr(curve, "add", counted)
        monkeypatch.setattr(counting, "add", counted)
        C = reduce_curve(GENERIC, 100003)
        assert order_bsgs(C).N == trace_naive(C).N
        assert calls[0] == 35 + 36 + 16 + 5

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


def lcm_rule_draws(C):
    """How many points order_bsgs drew for C before its candidate filter:
    from random.Random(p), curve and twist in turn, until a point's
    window holds one annihilator, or one n in the window has L_E | n and
    L_T | 2p+2-n, the lcms of the orders (annihilator spacings) of the
    curve and the twist points so far."""
    p = C.p
    lo, hi = hasse_window(p)
    sides, rng, lcms = (C, quadratic_twist(C)), random.Random(p), [1, 1]
    for drawn in range(1, 65):
        side = (drawn - 1) % 2
        anns = _annihilators(random_point(sides[side], rng), sides[side], lo, hi)
        if len(anns) == 1:
            return drawn
        lcms[side] = math.lcm(lcms[side], anns[1] - anns[0])
        left = [n for n in range(lo, hi + 1)
                if n % lcms[0] == 0 and (2 * p + 2 - n) % lcms[1] == 0]
        if len(left) == 1:
            return drawn
    raise AssertionError(f"lcm rule undecided at p = {p}")


@cache
def ambiguous_lanes(E):
    """Every lane of [229, 2e5] the search does not refuse but whose
    window holds several annihilators of the class of N mod t, as (C, its
    annihilators read as curve orders, whether its point lies on the
    twist, N from order_bsgs with a point of its own)."""
    curves = [reduce_curve(E, p) for p in sieve_primes(200_000)
              if p >= 229 and p not in E.bad_primes]
    found = []
    for i in range(0, len(curves), 512):
        block = curves[i:i + 512]
        lane, n, refused, twist = _window_annihilators(*columns(block))
        several = (np.bincount(lane, minlength=len(block)) >= 2) & ~refused
        for j in np.flatnonzero(several).tolist():
            C = block[j]
            orders = [2 * C.p + 2 - x if twist[j] else x for x in n[lane == j].tolist()]
            found.append((C, orders, bool(twist[j]), order_bsgs(C).N))
    return found


class TestCandidateFilter:
    @pytest.mark.parametrize("E, total", [(GENERIC, 2299), (CM, 2492), (CM3, 2446)],
                             ids=["generic1", "cm-i", "cm-3"])
    def test_unseeded_stops_where_the_lcm_rule_did(self, E, total, monkeypatch):
        # over every good prime in [229, 2e4], prime by prime; the totals
        # are the lcm rule's, counted before the filter replaced it
        drawn = [0]
        real = counting.random_point

        def spy(side, rng):
            drawn[0] += 1
            return real(side, rng)
        monkeypatch.setattr(counting, "random_point", spy)
        curves = [reduce_curve(E, p) for p in PRIMES_229_TO_20000 if p not in E.bad_primes]
        got = []
        for C in curves:
            drawn[0] = 0
            order_bsgs(C)
            got.append(drawn[0])
        monkeypatch.undo()
        assert sum(got) == total
        assert got == [lcm_rule_draws(C) for C in curves]

    @pytest.mark.parametrize("E, lanes, twisted", [(GENERIC, 138, 68), (CM, 507, 99),
                                                   (CM3, 376, 58)],
                             ids=["generic1", "cm-i", "cm-3"])
    def test_lane_annihilators_hold_the_order(self, E, lanes, twisted):
        # every lane of ambiguous_lanes: read as curve orders, its
        # annihilators hold the curve's order
        rows = ambiguous_lanes(E)
        for C, orders, _, N in rows:
            assert N in orders, C.p
        assert (len(rows), sum(twist for _, _, twist, _ in rows)) == (lanes, twisted)

    def test_trace_block_hands_over_the_lane_annihilators(self, monkeypatch):
        # generic1 at 941 (one root, N even): x = 1 lies on the twist, with
        # even annihilators 912, 950, 988, so the curve orders 972, 934,
        # 896; cm-i at 1013 (three roots, 4 | N): 968, 1012, 1056 on the
        # curve.  generic1 at 337 (one root): x = 1 has order 8, so the
        # baby row 4 = 4*(2P) is at infinity, and the lane lists the
        # multiples of 8, 304 .. 368.  weed_orders gets the three lists
        # and keeps N alone, so these lanes never reach order_bsgs.
        # generic1 at 2393: the point's order, 9 on the twist, is neither
        # read off nor matched, so order_bsgs finds its own; generic1 at
        # 4027: accepted
        weeded, seen = [], []
        real_weed, real_bsgs = counting.weed_orders, counting.order_bsgs

        def weed(p, a, b, lane, orders):
            kept = real_weed(p, a, b, lane, orders)
            for i, n in (lane, orders), kept:
                weeded.append([sorted(n[i == j].tolist()) for j in np.unique(lane)])
            return kept

        def spy(C):
            seen.append(C.p)
            return real_bsgs(C)
        monkeypatch.setattr(counting, "weed_orders", weed)
        monkeypatch.setattr(counting, "order_bsgs", spy)
        curves = [reduce_curve(GENERIC, 941), reduce_curve(CM, 1013), reduce_curve(GENERIC, 337),
                  reduce_curve(GENERIC, 2393), reduce_curve(GENERIC, 4027)]
        N, path = trace_block(*columns(curves), threshold=229)
        assert weeded == [[[896, 934, 972], [968, 1012, 1056], list(range(304, 369, 8))],
                          [[972], [968], [352]]]
        assert seen == [2393]
        assert [PATHS[i] for i in path] == ["lanes", "lanes", "lanes", "fallback", "lanes"]
        assert N.tolist() == [trace_naive(C).N for C in curves]


class TestWeedOrders:
    @pytest.mark.parametrize("E, left", [(GENERIC, []), (CM, [769, 176401]), (CM3, [])],
                             ids=["generic1", "cm-i", "cm-3"])
    def test_orders_match_unseeded_bsgs(self, E, left):
        # the 138, 507 and 376 lanes of ambiguous_lanes: trace_block's N,
        # from weed_orders and from order_bsgs for the lanes it leaves with
        # several candidates, is the order order_bsgs finds from a point
        # of its own; weed_orders leaves two lanes of the 1021
        rows = ambiguous_lanes(E)
        p, a, b, roots = columns([C for C, *_ in rows])
        N, path = trace_block(p, a, b, roots, threshold=229)
        assert N.tolist() == [n for *_, n in rows]
        assert p[path == 2].tolist() == left
        lane = np.concatenate([np.full(len(orders), i) for i, (_, orders, *_) in enumerate(rows)])
        lane, kept = weed_orders(p, a, b, lane, np.concatenate([orders for _, orders, *_ in rows]))
        for i, (C, orders, _, n) in enumerate(rows):
            assert n in kept[lane == i] and set(kept[lane == i].tolist()) <= set(orders), C.p

    def test_several_left_reach_order_bsgs(self, monkeypatch):
        # cm-i at 769: the window holds the curve orders 720 = N and 780,
        # and both annihilate weed_orders's curve point, and 1540 - 720
        # and 1540 - 780 its twist point, so both are left, and the lane
        # goes to order_bsgs, which finds N from a point of its own
        weeded, seen = [], []
        real_weed, real_bsgs = counting.weed_orders, counting.order_bsgs

        def weed(*args):
            kept = real_weed(*args)
            weeded.append(sorted(kept[1].tolist()))
            return kept

        def spy(C):
            seen.append(C.p)
            return real_bsgs(C)
        monkeypatch.setattr(counting, "weed_orders", weed)
        monkeypatch.setattr(counting, "order_bsgs", spy)
        C = reduce_curve(CM, 769)
        N, path = trace_block(*columns([C]), threshold=229)
        assert weeded == [[720, 780]] and seen == [769]
        assert (PATHS[path[0]], N[0]) == ("fallback", trace_naive(C).N) == ("fallback", 720)

    def test_planted_list_without_the_order_raises(self, monkeypatch):
        # every lane of ambiguous_lanes on generic1 and cm-3, its
        # annihilators given without N: no candidate is left, and
        # weed_orders raises rather than return an order
        for E in (GENERIC, CM3):
            for C, orders, _, N in ambiguous_lanes(E):
                wrong = np.array([n for n in orders if n != N])
                with pytest.raises(AmbiguityExhausted):
                    weed_orders(*columns([C])[:3], np.zeros(len(wrong), dtype=np.int64), wrong)
        # cm-i at 4993: order_lanes' seven multiples of 40 without N = 5120
        real = counting.order_lanes

        def planted(*args):
            N, lane, orders = real(*args)
            return N, lane[orders != 5120], orders[orders != 5120]
        monkeypatch.setattr(counting, "order_lanes", planted)
        with pytest.raises(ArithmeticError, match="p = 4993"):
            trace_block(*columns([reduce_curve(CM, 4993)]), threshold=229)


@cache
def small_order_lanes(E):
    """Every lane of [229, 2e5] whose baby rows prove the order of its
    point, found by scalar arithmetic on E_c from the lane's own x0, as
    (C, the n = r (mod t) in the window with n*P = infinity, each read as
    a curve order, ascending).  These are the lanes where t*P is not at
    infinity and the first baby row at infinity, t*j*P (r = 0) or (2j -
    1)*P (r = 1), has j <= nb + 1 (rule A), or where r = 0, no such row
    is at infinity and S*P = (2*nb + 1)*t*P is (rule B)."""
    curves = [reduce_curve(E, p) for p in sieve_primes(200_000)
              if p >= 229 and p not in E.bad_primes]
    found = []
    for C, roots in zip(curves, columns(curves)[3].tolist()):
        p, a, b = C.p, C.a, C.b
        (t, r), B = {3: (4, 0), 1: (2, 0), 0: (2, 1)}[roots], math.isqrt(4 * p)
        x0 = next(x for x in range(1, 5) if (x ** 3 + a * x + b) % p)
        c = (x0 ** 3 + a * x0 + b) % p
        side, P = ReducedCurve(p, a * c * c % p, b * c ** 3 % p), (x0 * c % p, c * c % p)
        tP = scalar_mul(t, P, side)
        if tP is INFINITY:
            continue
        step, rows = scalar_mul(2, P, side) if r else tP, [P if r else tP]
        for _ in range(math.isqrt(B // t) + r):  # rows 1 .. nb + 1
            rows.append(add(rows[-1], step, side))
        if INFINITY not in rows and (r or add(rows[-1], rows[-2], side) is not INFINITY):
            continue
        lo, hi = hasse_window(p)
        n0, anns = lo + (r - lo) % t, []
        Q = scalar_mul(n0, P, side)
        for n in range(n0, hi + 1, t):
            if Q is INFINITY:
                anns.append(2 * p + 2 - n if legendre(c, p) == -1 else n)
            Q = add(Q, tP, side)
        found.append((C, sorted(anns)))
    return found


class TestSmallOrderLanes:
    @pytest.mark.parametrize("E, taken, capped", [(GENERIC, 6, 4), (CM, 48, 3), (CM3, 25, 10)],
                             ids=["generic1", "cm-i", "cm-3"])
    def test_progressions_are_the_class_annihilators(self, E, taken, capped):
        # every lane of small_order_lanes lists exactly its point's
        # annihilators in the class, read as curve orders, or stays
        # refused when they are more than lane_rows of its own p; rule B
        # takes 2, 17 and 7 of them, and odd N 2, 0 and 16
        rows = small_order_lanes(E)
        curves = [C for C, _ in rows]
        for i in range(0, len(curves), 512):
            assert lane_curve_orders(curves[i:i + 512]) == [
                None if len(orders) > lane_rows(C.p) else orders for C, orders in rows[i:i + 512]]
        over = sum(len(orders) > lane_rows(C.p) for C, orders in rows)
        assert (len(rows) - over, over) == (taken, capped)

    def test_planted_double_step_is_caught(self, monkeypatch):
        # every progression built with twice its step, from its first
        # term: on each preset some lane loses N, so weed_orders raises,
        # or keeps one wrong order, which then differs from the character
        # sum's
        real = counting._window_annihilators
        for E in (GENERIC, CM, CM3):
            curves = [C for C, _ in small_order_lanes(E)]
            small = [C.p for C in curves]

            def doubled(p, a, b, roots):
                lane, n, refused, twist = real(p, a, b, roots)
                order = np.lexsort((n, lane))
                lane, n = lane[order], n[order]
                rank = np.arange(len(lane)) - np.searchsorted(lane, lane)
                keep = ~np.isin(p[lane], small) | (rank % 2 == 0)
                return lane[keep], n[keep], refused, twist
            monkeypatch.setattr(counting, "_window_annihilators", doubled)
            try:
                N = trace_block(*columns(curves), threshold=229)[0].tolist()
            except AmbiguityExhausted:
                continue
            finally:
                monkeypatch.undo()
            assert N != [trace_naive(C).N for C in curves], E

    @pytest.mark.parametrize("p, path", [(1151, "lanes"), (7487, "fallback")])
    def test_cap_is_the_lanes_own(self, p, path):
        # cm-i at 1151: x = 2 has order 8, so the lane lists the 17
        # multiples of 8 in its window, within lane_rows(1151) = 19; at
        # 7487 it has order 12, and the 29 multiples of 12 are more than
        # lane_rows(7487) = 27, so the lane stays refused.  Each takes the
        # same path, with the same N, alone and in a block with 256 primes
        # near 2^30 - 3e5, whose lane_rows is 371
        E, N = PRESETS["cm-i"], trace_naive(reduce_curve(CM, p)).N
        for block in ([p], [p] + primes_from(2 ** 30 - 300_000, 256)):
            q = np.array(block, dtype=np.int64)
            a, b = residues(E.a4, q), residues(E.a6, q)
            got, paths = trace_block(q, a, b, cubic_roots(q, a, b), threshold=229)
            assert (PATHS[paths[0]], got[0]) == (path, N)
        assert lane_rows(int(q.max())) == 371


class TestRecover:
    @settings(max_examples=200, deadline=None, database=None)
    @given(st.data())
    def test_matches_scalar_arithmetic(self, data):
        # _recover(x, x_Q, x(Q + P0)) is 2*c*y*y_Q for P0 = (x, y) and Q on
        # c*y^2 = x^3 + a*x + b; (x, y) -> (c*x, c^2*y) takes those points
        # to E_c: Y^2 = X^3 + a*c^2*X + b*c^3, where curve.add and
        # scalar_mul find Q and Q + P0, so the value is 2*Y*Y_Q / c^3
        p = data.draw(st.integers(5, LANE_CAP - 1))
        while not is_prime(p):
            p -= 1
        rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
        a = data.draw(st.integers(0, p - 1))
        kind = data.draw(st.sampled_from(["multiple", "base", "negative", "two-torsion"]))
        e = rng.randrange(p)  # a root of the cubic, for the 2-torsion point
        b = (-e ** 3 - a * e) % p if kind == "two-torsion" else rng.randrange(p)
        assume((4 * a ** 3 + 27 * b ** 2) % p)
        c = 1
        if data.draw(st.booleans()):  # E_c is the quadratic twist
            while legendre(c, p) != -1:
                c = rng.randrange(2, p)
        E_c = ReducedCurve(p, a * c * c % p, b * c ** 3 % p)
        P0 = random_point(E_c, rng)
        if kind == "multiple":
            Q = scalar_mul(data.draw(st.integers(2, 2 ** 40)), P0, E_c)
        elif kind == "base":
            Q = P0
        elif kind == "negative":
            Q = neg(P0, E_c)
        else:
            Q = (e * c % p, 0)
        assume(Q is not INFINITY)
        R = add(Q, P0, E_c)
        assert (R is INFINITY) == (kind == "negative" or Q == neg(P0, E_c))
        x, xq, xn = (pow(c, -1, p) * X % p for X in (P0[0], Q[0], 0 if R is INFINITY else R[0]))
        got = _recover(*(np.array([v], dtype=np.int64) for v in (x, xq, xn)),
                       np.array([R is INFINITY]), a, b, p)
        assert int(got[0]) * c ** 3 % p == 2 * P0[1] * Q[1] % p
        if kind == "two-torsion":
            assert got[0] == 0


class TestOrderLanes:
    @pytest.mark.parametrize("E", [GENERIC, CM], ids=["generic1", "cm-i"])
    def test_accepts_exactly_the_single_annihilator_windows(self, E):
        curves = [reduce_curve(E, p) for p in PRIMES_229_TO_20000
                  if p not in E.bad_primes]
        got = []
        for i in range(0, len(curves), 512):
            got += lanes(curves[i:i + 512])
        assert got == [lane_oracle(C) for C in curves]
        for C, N in zip(curves, got):
            if N:
                assert N == trace_naive(C).N, C.p

    def test_fallback_share_generic1(self):
        # the lanes refuse a prime only when its point's window holds
        # several annihilators of the class of N mod t: 52 of the 4583
        # good primes in [4000, 5e4]
        curves = [reduce_curve(GENERIC, p) for p in sieve_primes(50_000)
                  if p >= 4000 and p not in GENERIC.bad_primes]
        refused = lanes(curves).count(0)
        assert refused == 52 and len(curves) == 4583

    def test_twist_point_accepted_through_restart(self):
        # generic1 at 571: x = 1 lies on the twist (c = 3 is a nonresidue),
        # the cubic has one root, so t = 2, m = 5 and S = 18, and 576 =
        # 32*18 annihilates it, so the giant row k = 32, the fourth of six,
        # is at infinity and the chain must restart there
        C = reduce_curve(GENERIC, 571)
        assert lane_annihilators(C) == ([576], True)
        assert lanes([C]) == [568] == [trace_naive(C).N]

    def test_several_annihilators_fall_back(self):
        # cm-i at 4057: x = 1 is a root, and x = 2 has annihilators 4002,
        # 4089 and 4176 in the window, but the cubic splits, so 4 | N, and
        # only 4176 is in that class: the lane is accepted.  At 4993 seven
        # multiples of 40 are left, so order_lanes refuses the lane, and
        # weed_orders's two points leave 5120 alone on the lanes.
        C = reduce_curve(CM, 4057)
        assert _annihilators((12, 36), ReducedCurve(4057, 4021, 0), *hasse_window(4057)) == [
            4002, 4089, 4176]
        assert lane_annihilators(C) == ([4176], False)
        assert lanes([C]) == [4176] == [trace_naive(C).N]
        C = reduce_curve(CM, 4993)
        assert lane_annihilators(C) == (list(range(4880, 5121, 40)), False)
        assert lanes([C]) == [0]
        N, path = trace_block(*columns([C]), threshold=229)
        assert (PATHS[path[0]], N[0]) == ("lanes", trace_naive(C).N) == ("lanes", 5120)

    @pytest.mark.parametrize("E, p", [
        (CM, 2113), (CM, 4993), (CM3, 11953), (CM, 1039), (GENERIC, 1451), (GENERIC, 63611),
    ], ids=["cm-i-2113", "cm-i-4993", "cm-3-11953", "cm-i-1039", "generic1-1451",
            "generic1-63611"])
    def test_rare_sign_branches(self, E, p):
        # a match here has a baby row of order 2 (both signs hold: the
        # first three) or a giant row whose next row is at infinity (so it
        # is -S*P: the last three); each window holds several annihilators
        # of the class, and each must be proved
        C = reduce_curve(E, p)
        assert lanes([C]) == [lane_oracle(C)] == [0]
        assert lane_proofs([C]) == [lane_annihilators(C)[0]]

    @pytest.mark.parametrize("E", [GENERIC, CM, CM3], ids=["generic1", "cm-i", "cm-3"])
    def test_proves_exactly_the_window_annihilators(self, E):
        # every lane the search does not refuse proves each annihilator of
        # its point in the window, and nothing else
        curves = [reduce_curve(E, p) for p in PRIMES_229_TO_20000 if p not in E.bad_primes]
        proofs = lane_proofs(curves)
        assert proofs.count(None) < len(curves) // 50
        for C, proved in zip(curves, proofs):
            assert proved in (None, lane_annihilators(C)[0]), C.p

    def test_unreduced_coefficients(self):
        # generic1 at 4027, its coefficients given as 1 + 4027*k, reduced
        # by the residue helper before they enter the lanes
        k = 1 << 40
        p = np.array([4027, 4027], dtype=np.int64)
        a = np.concatenate([residues(1 + 4027 * k, p[:1]), residues(1 - 4027 * k, p[1:])])
        b = np.concatenate([residues(1 - 4027 * k, p[:1]), residues(1 + 4027 * 3, p[1:])])
        assert a.tolist() == b.tolist() == [1, 1]
        assert order_lanes(p, a, b, cubic_roots(p, a, b))[0].tolist() == [3939, 3939]

    def test_block_with_every_lane_refused(self):
        # y^2 = x^3 + x at 229: x = 1 has several annihilators in the
        # window, so no candidate is left to check
        C = ReducedCurve(229, 1, 0)
        assert lane_oracle(C) == 0
        assert lanes([C, C]) == [0, 0]

    def test_empty_block(self):
        # a block whose primes all lie below the cut hands the lanes nothing
        assert lanes([]) == []
        curves = [reduce_curve(GENERIC, p) for p in (5, 7, 227)]
        N, path = trace_block(*columns(curves), threshold=400)
        assert N.tolist() == [trace_naive(C).N for C in curves]
        assert [PATHS[i] for i in path] == ["naive"] * 3

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
        got = lanes(curves)
        for C, N in zip(curves, got):
            assert lanes([C]) == [N]
            assert N == lane_oracle(C)
            if N:
                assert N == trace_naive(C).N


def poly_pow(p, a, b, e, base=(0, 1, 0)):
    """base^e modulo x^3 + a*x + b over F_p as [c0, c1, c2], x^e by
    default, right-to-left square-and-multiply on Python ints."""
    def mul(u, v):
        w = [0] * 5
        for i in range(3):
            for j in range(3):
                w[i + j] += u[i] * v[j]
        for k in (4, 3):  # x^k = x^(k-3) * (-a*x - b)
            w[k - 2] -= a * w[k]
            w[k - 3] -= b * w[k]
        return [c % p for c in w[:3]]
    result, base = [1, 0, 0], list(base)
    while e:
        if e & 1:
            result = mul(result, base)
        base = mul(base, base)
        e >>= 1
    return result


def lane_powers(p, a, b):
    """x^p and f'^((p-1)/2) = (3x^2 + a)^((p-1)/2) modulo f = x^3 + a*x + b,
    lane by lane from the shared kernel, as lists of [c0, c1, c2]."""
    zero, f = np.zeros_like(p), ((1, a), (0, b))
    return [np.stack(c).T.tolist() for c in
            (_power((zero, zero + 1, zero), p, p, f),
             _power((a, zero, zero + 3), (p - 1) // 2, p, f))]


def python_powers(rows):
    """lane_powers by poly_pow, for rows (p, a, b)."""
    return [[poly_pow(p, a, b, p) for p, a, b in rows],
            [poly_pow(p, a, b, (p - 1) // 2, (a, 0, 3)) for p, a, b in rows]]


def poly_roots(p, a, b):
    """The roots of a squarefree x^3 + a*x + b in F_p: the degree of
    gcd(x^p - x, f), by Euclid on Python-int coefficient lists."""
    def trim(u):
        while u and u[-1] == 0:
            u = u[:-1]
        return u
    r = poly_pow(p, a, b, p)
    u, v = [b % p, a % p, 0, 1], trim([r[0], (r[1] - 1) % p, r[2]])
    while v:
        inv = pow(v[-1], -1, p)
        while len(u) >= len(v):
            q, shift = u[-1] * inv % p, len(u) - len(v)
            u = trim([(c - q * v[i - shift]) % p if i >= shift else c
                      for i, c in enumerate(u)])
        u, v = v, u
    return len(u) - 1


def primes_from(start, count):
    """The first count primes at or above start."""
    ps, q = [], start
    while len(ps) < count:
        if is_prime(q):
            ps.append(q)
        q += 1
    return ps


class TestCubicRoots:
    @pytest.mark.parametrize("preset", ["generic1", "cm-i", "cm-3"])
    def test_matches_enumeration_below_3000(self, preset):
        # every good prime p < 3000: the kernel's x^p and f'^((p-1)/2)
        # against the Python-int powers, and the root count against
        # trying every x
        E = PRESETS[preset]
        p = np.array([q for q in sieve_primes(3000) if q >= 5 and E.disc % q], dtype=np.int64)
        a, b = residues(E.a4, p), residues(E.a6, p)
        rows = list(zip(p.tolist(), a.tolist(), b.tolist()))
        want = [count_roots(*v) for v in rows]
        assert cubic_roots(p, a, b).tolist() == want
        assert lane_powers(p, a, b) == python_powers(rows)
        assert set(want) == ({0, 1, 3} if preset != "cm-i" else {3})

    @settings(max_examples=60, deadline=None, database=None)
    @given(st.data())
    def test_built_cubics_below_2_to_30(self, data):
        # cubics with three roots, one root times an irreducible quadratic,
        # or no root, at p < 2^30, against the Python-int oracle
        p = data.draw(st.integers(5, LANE_CAP - 1))
        while not is_prime(p):
            p -= 1
        rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
        kind = data.draw(st.sampled_from([3, 1, 0]))
        while True:
            e1, e2 = rng.randrange(p), rng.randrange(p)
            if kind == 3:  # roots e1, e2, -e1 - e2
                a, b = (e1 * e2 - (e1 + e2) ** 2) % p, e1 * e2 * (e1 + e2) % p
            elif kind == 1:  # (x - e1)(x^2 + e1*x + e2), e1^2 - 4*e2 a nonresidue
                if legendre(e1 * e1 - 4 * e2, p) != -1:
                    continue
                a, b = (e2 - e1 * e1) % p, -e1 * e2 % p
            else:
                a, b = e1, e2
            if (4 * a ** 3 + 27 * b ** 2) % p and (kind != 0 or poly_roots(p, a, b) == 0):
                break
        cols = tuple(np.array([v], dtype=np.int64) for v in (p, a, b))
        assert poly_roots(p, a, b) == kind
        assert cubic_roots(*cols).tolist() == [kind]
        assert lane_powers(*cols) == python_powers([(p, a, b)])

    def test_int64_bound_near_2_to_30(self):
        # the largest lane primes with a and b just below p, where every
        # product in the kernel is largest
        top = [q for q in range(LANE_CAP - 1, LANE_CAP - 1000, -2) if is_prime(q)][:8]
        rows = [(p, p - 1 - i, p - 1 - j) for p in top for i in range(4) for j in range(4)
                if (4 * (p - 1 - i) ** 3 + 27 * (p - 1 - j) ** 2) % p]
        p, a, b = (np.array(col, dtype=np.int64) for col in zip(*rows))
        assert p.max() < LANE_CAP
        assert lane_powers(p, a, b) == python_powers(rows)
        assert cubic_roots(p, a, b).tolist() == [poly_roots(*v) for v in rows]


class TestRestrictedLanes:
    @pytest.mark.parametrize("start", [10 ** 6, 10 ** 7, 10 ** 8, 2 ** 30 - 300_000])
    @pytest.mark.parametrize("preset", ["generic1", "cm-i", "cm-3"])
    def test_orders_match_unrestricted_bsgs(self, preset, start):
        # 256 consecutive primes: every order of trace_block, lanes and
        # fallback, is the one order_bsgs finds from a point of its own
        E = PRESETS[preset]
        p = np.array(primes_from(start, 256), dtype=np.int64)
        a, b = residues(E.a4, p), residues(E.a6, p)
        N, path = trace_block(p, a, b, cubic_roots(p, a, b), threshold=229)
        assert (path == 1).sum() > 200
        assert N.tolist() == [order_bsgs(ReducedCurve(*v)).N
                              for v in zip(p.tolist(), a.tolist(), b.tolist())]


class TestTraceBlock:
    def test_methods_and_orders(self):
        # cm-i at 4993 is refused by order_lanes and settled by
        # weed_orders; generic1 at 2393 has no candidates and falls back
        curves = [reduce_curve(E, p) for E, p in
                  ((GENERIC, 1009), (CM, 4993), (GENERIC, 4027), (CM, 101), (GENERIC, 2393))]
        N, path = trace_block(*columns(curves), threshold=1000)
        assert [PATHS[i] for i in path] == ["lanes", "lanes", "lanes", "naive", "fallback"]
        assert N.tolist() == [trace_naive(C).N for C in curves]

    @pytest.mark.parametrize("preset, calls", [("generic1", 3), ("cm-i", 11), ("cm-3", 3)],
                             ids=["generic1", "cm-i", "cm-3"])
    def test_order_bsgs_calls_to_2e4(self, preset, calls, monkeypatch):
        # how many lanes of the good primes to 2e4 trace_block leaves to
        # the scalar order_bsgs (47, 161 and 124 before weed_orders; 6, 36
        # and 23 before the lanes read a small order off their baby rows),
        # a count that is the same on every machine
        seen = []
        real = counting.order_bsgs
        monkeypatch.setattr(counting, "order_bsgs",
                            lambda C: seen.append(C.p) or real(C))
        E = PRESETS[preset]
        p = good_primes(E, 20_000)[0]
        a, b = residues(E.a4, p), residues(E.a6, p)
        N, path = trace_block(p, a, b, cubic_roots(p, a, b), threshold=229)
        assert len(seen) == (path == 2).sum() == calls

    def test_threshold_floor(self):
        C = reduce_curve(GENERIC, 227)
        N, path = trace_block(*columns([C]), threshold=0)
        assert PATHS[path[0]] == "naive"

    def test_methods_agree_in_overlap(self):
        curves = [reduce_curve(GENERIC, p) for p in sieve_primes(3000)
                  if p >= 1000 and p not in GENERIC.bad_primes]
        lows, low_paths = trace_block(*columns(curves), threshold=10 ** 9)
        highs, high_paths = trace_block(*columns(curves), threshold=229)
        assert len(lows) == len(highs) == len(curves)
        assert all(PATHS[i] == "naive" for i in low_paths)
        assert all(PATHS[i] in ("lanes", "fallback") for i in high_paths)
        assert lows.tolist() == highs.tolist()


class TestSupersingular:
    def test_cm_trace_zero_at_3_mod_4(self):
        # classical criterion for y^2 = x^3 - x, checked to 2000 here
        # (the acceptance suite extends this to 1e4)
        for p in sieve_primes(2000):
            if p in CM.bad_primes or p % 4 != 3:
                continue
            assert trace_naive(reduce_curve(CM, p)).a_p == 0
