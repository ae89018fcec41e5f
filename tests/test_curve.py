"""Group law against an independently coded oracle, plus reduction policy."""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from avgexp import curve
from avgexp.curve import (BadReduction, GlobalCurve, INFINITY, ReducedCurve, add,
                          neg, random_point, reduce_curve, scalar_mul)
from avgexp.modarith import legendre
from primality import is_prime


def is_on_curve(P, C):
    return P is INFINITY or (P[1] ** 2 - P[0] ** 3 - C.a * P[0] - C.b) % C.p == 0


def egcd_inverse(a, p):
    # oracle-side inverse, written separately from the library's pow(-1)
    old_r, r = a % p, p
    old_s, s = 1, 0
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
    assert old_r == 1
    return old_s % p


def oracle_add(P, Q, p, a):
    # textbook chord-tangent, all cases spelled out
    if P is None:
        return Q
    if Q is None:
        return P
    (x1, y1), (x2, y2) = P, Q
    if x1 == x2 and (y1 + y2) % p == 0:
        return None
    if P == Q:
        lam = (3 * x1 * x1 + a) * egcd_inverse(2 * y1, p) % p
    else:
        lam = (y2 - y1) * egcd_inverse(x2 - x1, p) % p
    x3 = (lam * lam - x1 - x2) % p
    y3 = (lam * (x1 - x3) - y1) % p
    return (x3, y3)


def oracle_mul(k, P, p, a):
    # right-to-left double-and-add on the oracle law, all affine
    R = None
    while k:
        if k & 1:
            R = oracle_add(R, P, p, a)
        P = oracle_add(P, P, p, a)
        k >>= 1
    return R


def all_points(C):
    pts = [INFINITY]
    for x in range(C.p):
        rhs = (x ** 3 + C.a * x + C.b) % C.p
        for y in range(C.p):
            if y * y % C.p == rhs:
                pts.append((x, y))
    return pts


GENERIC = GlobalCurve(1, 1)


class TestReduce:
    def test_good_prime(self):
        C = reduce_curve(GENERIC, 5)
        assert (C.p, C.a, C.b) == (5, 1, 1)

    def test_discriminant_prime_rejected(self):
        # disc(x^3 + x + 1 model) = -496 = -16 * 31
        assert GENERIC.disc == -496
        with pytest.raises(BadReduction):
            reduce_curve(GENERIC, 31)

    def test_two_rejected_by_policy(self):
        with pytest.raises(BadReduction):
            reduce_curve(GENERIC, 2)

    def test_rejects_exactly_bad_primes(self):
        from avgexp.modarith import sieve_primes
        for p in sieve_primes(100):
            if p in GENERIC.bad_primes:
                with pytest.raises(BadReduction):
                    reduce_curve(GENERIC, p)
            else:
                reduce_curve(GENERIC, p)

    def test_singular_model_rejected(self):
        with pytest.raises(ValueError):
            GlobalCurve(0, 0)


class TestGroupLaw:
    def test_identity(self):
        C = reduce_curve(GENERIC, 5)
        assert add(INFINITY, (0, 1), C) == (0, 1)
        assert add((0, 1), INFINITY, C) == (0, 1)

    def test_inverse(self):
        C = reduce_curve(GENERIC, 5)
        assert add((0, 1), neg((0, 1), C), C) is INFINITY

    def test_doubling_example_f5(self):
        # frozen from the oracle: (0,1) + (0,1) on y^2 = x^3 + x + 1 / F_5
        C = reduce_curve(GENERIC, 5)
        assert oracle_add((0, 1), (0, 1), 5, 1) == (4, 2)
        assert add((0, 1), (0, 1), C) == (4, 2)

    def test_all_pairs_against_oracle_f5(self):
        C = reduce_curve(GENERIC, 5)
        pts = all_points(C)
        assert len(pts) == 9
        for P in pts:
            for Q in pts:
                assert add(P, Q, C) == oracle_add(P, Q, C.p, C.a)

    def test_random_pairs_against_oracle(self):
        rng = random.Random(2)
        for p in (1009, 10007):
            C = reduce_curve(GENERIC, p)
            for _ in range(500):
                P = random_point(C, rng)
                Q = rng.choice([P, random_point(C, rng), INFINITY])
                got = add(P, Q, C)
                assert got == oracle_add(P, Q, p, C.a)
                assert is_on_curve(got, C)

    def test_axioms_randomized(self):
        for p in (5, 1009, 10007):
            C = reduce_curve(GENERIC, p)
            rng = random.Random(p)
            for _ in range(1000):
                P, Q, R = (random_point(C, rng) for _ in range(3))
                assert add(add(P, Q, C), R, C) == add(P, add(Q, R, C), C)
                assert add(P, Q, C) == add(Q, P, C)
                assert add(P, INFINITY, C) == P
                assert add(P, neg(P, C), C) is INFINITY

    def test_scalar_distributivity(self):
        rng = random.Random(77)
        C = reduce_curve(GENERIC, 10007)
        for _ in range(50):
            P = random_point(C, rng)
            m, n = rng.randrange(1 << 32), rng.randrange(1 << 32)
            assert scalar_mul(m + n, P, C) == add(
                scalar_mul(m, P, C), scalar_mul(n, P, C), C)

    def test_scalar_edge_cases(self):
        C = reduce_curve(GENERIC, 1009)
        P = random_point(C, random.Random(0))
        assert scalar_mul(0, P, C) is INFINITY
        assert scalar_mul(1, P, C) == P

    def test_group_order_annihilates(self):
        from avgexp.counting import trace_naive
        for p in (5, 1009):
            C = reduce_curve(GENERIC, p)
            N = trace_naive(C).N
            rng = random.Random(p)
            for _ in range(10):
                assert scalar_mul(N, random_point(C, rng), C) is INFINITY


class TestScalarMulAgainstOracle:
    # the other tests use scalar_mul as their oracle, so it is checked here
    # against affine chains of the test's own group law, with the real add
    # wrapped to count the group operations
    SMALL = [ReducedCurve(5, 1, 1), ReducedCurve(11, 0, 1), ReducedCurve(13, 1, 0),
             ReducedCurve(47, 2, 3), ReducedCurve(59, 0, 1)]

    @staticmethod
    def count_adds(monkeypatch):
        calls = [0]
        real = curve.add

        def counted(*args):
            calls[0] += 1
            return real(*args)
        monkeypatch.setattr(curve, "add", counted)
        return calls

    def test_every_point_every_k_to_twice_the_order(self, monkeypatch):
        # k in [0, 2*ord(P) + 2] covers k = 0 (mod ord(P)), where the sum
        # passes -P, and the doubling of a point of order 2; each k >= 1
        # costs one add per doubling and one per further set bit
        calls = self.count_adds(monkeypatch)
        orders = set()
        for C in self.SMALL:
            for P in all_points(C)[1:]:
                chain = [None]
                while len(chain) == 1 or chain[-1] is not None:
                    chain.append(oracle_add(chain[-1], P, C.p, C.a))
                order = len(chain) - 1
                orders.add(order)
                for k in range(2 * order + 3):
                    before = calls[0]
                    assert scalar_mul(k, P, C) == chain[k % order], (C, P, k)
                    steps = k.bit_length() - 1 + bin(k).count("1") - 1 if k else 0
                    assert calls[0] - before == steps, (C, P, k)
        assert {2, 3} <= orders

    @settings(max_examples=30, deadline=None, database=None)
    @given(st.integers(1, 2 ** 64))
    def test_every_doubling_is_a_counted_add(self, k):
        # the tracer's add counts are the scalar paths' group operations
        # only if no doubling bypasses curve.add
        with pytest.MonkeyPatch.context() as monkeypatch:
            calls = self.count_adds(monkeypatch)
            C = reduce_curve(GENERIC, 1000003)
            P = random_point(C, random.Random(k))
            assert scalar_mul(k, P, C) == oracle_mul(k, P, C.p, C.a)
        assert calls[0] >= k.bit_length() - 1

    @settings(max_examples=60, deadline=None, database=None)
    @given(st.data())
    def test_against_affine_double_and_add(self, data):
        p = data.draw(st.integers(5, 1073741789))  # the largest prime below 2^30
        while not is_prime(p):
            p += 1
        a = data.draw(st.integers(0, p - 1))
        b = data.draw(st.integers(0, p - 1))
        assume((4 * a ** 3 + 27 * b ** 2) % p)
        C = ReducedCurve(p, a, b)
        P = random_point(C, random.Random(data.draw(st.integers(0, 2 ** 32))))
        k = data.draw(st.integers(0, (1 << 31) - 1))
        assert scalar_mul(k, P, C) == oracle_mul(k, P, p, a)

    def test_identity_and_negative(self):
        C = reduce_curve(GENERIC, 1009)
        assert scalar_mul(5, INFINITY, C) is INFINITY
        with pytest.raises(ValueError):
            scalar_mul(-1, (0, 1), C)


class TestRandomPoint:
    def test_reproducible(self):
        C = reduce_curve(GENERIC, 1009)
        P1 = random_point(C, random.Random(42))
        P2 = random_point(C, random.Random(42))
        assert P1 == P2
        assert is_on_curve(P1, C)

    def test_closure_and_never_infinity(self):
        C = reduce_curve(GENERIC, 1009)
        rng = random.Random(9)
        for _ in range(10_000):
            P = random_point(C, rng)
            assert P is not INFINITY
            assert is_on_curve(P, C)

    def test_x_hit_rate_near_half(self):
        C = reduce_curve(GENERIC, 1009)

        def hit(x):
            return legendre((x ** 3 + C.a * x + C.b) % C.p, C.p) >= 0

        expected = sum(1 for x in range(C.p) if hit(x)) / C.p
        rng = random.Random(31)
        rate = sum(1 for _ in range(10_000) if hit(rng.randrange(C.p))) / 10_000
        assert abs(expected - 0.5) < 0.05
        assert abs(rate - expected) < 0.02
