"""Modular arithmetic against brute-force oracles."""

import math
import random

import numpy as np
import pytest

from avgexp.modarith import (NotASquare, factorize, is_prime, legendre,
                             sieve_primes, sqrt_mod)


def naive_primes(limit):
    # independent oracle: trial division
    out = []
    for n in range(2, limit + 1):
        if all(n % d for d in range(2, math.isqrt(n) + 1)):
            out.append(n)
    return out


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
            n = rng.randrange(2, 1 << 50)
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

    def test_range_check(self):
        with pytest.raises(ValueError):
            factorize(0)
        with pytest.raises(ValueError):
            factorize(1 << 63)
