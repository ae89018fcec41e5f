"""Modular arithmetic against brute-force oracles."""

import math
import random

import numpy as np
import pytest

from avgexp.modarith import NotASquare, factorize, legendre, sieve_primes, sqrt_mod
from primality import is_prime


def naive_primes(limit):
    # independent oracle: trial division
    out = []
    for n in range(2, limit + 1):
        if all(n % d for d in range(2, math.isqrt(n) + 1)):
            out.append(n)
    return out


def tonelli_shanks(a, p):
    # textbook Tonelli-Shanks: Euler's criterion first, then the least
    # nonresidue; None for a nonresidue
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    q, s = p - 1, 0
    while q % 2 == 0:
        q, s = q // 2, s + 1
    z = next(z for z in range(2, p) if pow(z, (p - 1) // 2, p) == p - 1)
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2, i = t2 * t2 % p, i + 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return min(r, p - r)


def squares_mod(p):
    return {x * x % p for x in range(p)}


class TestLegendre:
    def test_zero(self):
        assert legendre(0, 7) == 0

    def test_examples_mod_7(self):
        # squares mod 7 are {1, 2, 4}
        assert legendre(2, 7) == 1
        assert legendre(3, 7) == -1

    def test_agrees_with_enumeration_all_p_to_1e4(self):
        for p in sieve_primes(10_000):
            if p == 2:
                continue
            sq = squares_mod(p)
            for a in range(p):
                ls = legendre(a, p)
                assert ls in (-1, 0, 1)
                if a == 0:
                    assert ls == 0
                else:
                    assert (ls == 1) == (a in sq)


class TestSqrtMod:
    def test_examples(self):
        assert sqrt_mod(2, 7) == 3
        assert sqrt_mod(0, 13) == 0
        with pytest.raises(NotASquare):
            sqrt_mod(3, 7)

    def test_returns_smaller_root(self):
        for p in (13, 17, 10007, 100003):
            for a in range(1, 60):
                if legendre(a, p) == 1:
                    r = sqrt_mod(a, p)
                    assert r <= p - r

    def test_exhaustive_below_3000(self):
        # every a at every prime 5 <= p < 3000: p = 3, 5 and 1 (mod 8),
        # with p - 1 = q*2^s up to s = 8 (p = 257); a root, the smaller
        # one, exactly for the squares
        primes = [p for p in sieve_primes(2999) if p >= 5]
        assert {p % 8 for p in primes} == {1, 3, 5, 7}
        for p in primes:
            squares = {x * x % p for x in range(1, p)}
            for a in range(1, p):
                try:
                    r = sqrt_mod(a, p)
                except NotASquare:
                    assert a not in squares, (a, p)
                else:
                    assert a in squares and r * r % p == a and r <= p - r, (a, p)

    def test_against_textbook_tonelli_shanks(self):
        # primes above the exhaustive range, with s = v_2(p - 1) up to 20
        primes = [p for p in sieve_primes(200_000) if p > 5][::90][:189]
        primes += [65537, 786433, 7340033]  # 2^16 + 1, 3*2^18 + 1, 7*2^20 + 1
        assert {p % 16 for p in primes} >= {1, 3, 5, 7, 9, 13}
        rng = random.Random(12)
        for p in primes:
            for a in [rng.randrange(p) for _ in range(24)]:
                want = tonelli_shanks(a, p)
                if want is None:
                    with pytest.raises(NotASquare):
                        sqrt_mod(a, p)
                else:
                    assert sqrt_mod(a, p) == want, (a, p)

    def test_square_then_root_identity(self):
        rng = random.Random(5)
        ps = [p for p in sieve_primes(100_000) if p > 100]
        for _ in range(10_000):
            p = rng.choice(ps)
            a = rng.randrange(1, p)
            if legendre(a, p) == 1:
                r = sqrt_mod(a, p)
                assert r * r % p == a


class TestSievePrimes:
    def test_ten(self):
        assert sieve_primes(10) == [2, 3, 5, 7]

    def test_boundary(self):
        assert sieve_primes(2) == [2]

    def test_pi_of_1e6_counted_by_independent_sieve(self):
        flags = np.ones(10 ** 6 + 1, dtype=bool)
        flags[:2] = False
        for i in range(2, 1001):
            if flags[i]:
                flags[i * i::i] = False
        count = int(flags.sum())
        got = sieve_primes(10 ** 6)
        assert len(got) == count == 78498
        assert got == np.flatnonzero(flags).tolist()

    def test_matches_trial_division_to_1e4(self):
        assert sieve_primes(10_000) == naive_primes(10_000)

    def test_rejects_tiny_limit(self):
        with pytest.raises(ValueError):
            sieve_primes(1)


class TestFactorize:
    def test_one(self):
        assert factorize(1) == []

    def test_prime_power(self):
        assert factorize(9) == [(3, 2)]

    def test_product_reconstructs_all_n_to_1e5(self):
        for n in range(1, 100_001):
            fac = factorize(n)
            prod = 1
            for q, m in fac:
                prod *= q ** m
            assert prod == n

    def test_factors_are_prime_ascending(self):
        rng = random.Random(23)
        for _ in range(300):
            n = rng.randrange(2, 1 << 40)
            fac = factorize(n)
            qs = [q for q, _ in fac]
            assert qs == sorted(qs) and len(set(qs)) == len(qs)
            assert all(is_prime(q) for q in qs)
            assert math.prod(q ** m for q, m in fac) == n

    def test_78497(self):
        fac = factorize(78497)
        assert math.prod(q ** m for q, m in fac) == 78497
        assert all(is_prime(q) for q, _ in fac)

    def test_deterministic_on_semiprimes(self):
        n = 1_000_003 * 999_983
        assert factorize(n) == factorize(n) == [(999_983, 1), (1_000_003, 1)]

    def test_largest_prime_in_range(self):
        # 2^40 - 87, the largest prime below 2^40: every odd q up to 2^20
        assert is_prime(2 ** 40 - 87)
        assert factorize(2 ** 40 - 87) == [(2 ** 40 - 87, 1)]

    def test_prime_power_near_the_bound(self):
        assert factorize(97 ** 6) == [(97, 6)]
        assert factorize(2 ** 39 * 3 // 2) == [(2, 38), (3, 1)]

    def test_range_check(self):
        with pytest.raises(ValueError):
            factorize(0)
        with pytest.raises(ValueError):
            factorize(1 << 40)
        assert factorize((1 << 40) - 1) == [(3, 1), (5, 2), (11, 1), (17, 1), (31, 1),
                                           (41, 1), (61681, 1)]
