"""Modular arithmetic against brute-force oracles."""

import math
import random

import numpy as np
import pytest

from avgexp import modarith
from avgexp.modarith import (NotASquare, factorize, legendre, prime_segments, residues,
                             sieve_primes, sqrt_mod)
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

    @pytest.mark.parametrize("size", [2, 16, 64])
    def test_segments_at_every_edge(self, size, monkeypatch):
        # a shrunk segment size S: the segments of every limit in 2..300
        # and of k*S - 1, k*S and k*S + 1 hold the primes of their own
        # window [lo, lo + S), and together those of sieve_primes in one
        # segment, which the Miller-Rabin oracle confirms
        limits = sorted(set(range(2, 301)) | {k * size + j for k in range(1, 40)
                                             for j in (-1, 0, 1)} - {1})
        want = {x: sieve_primes(x) for x in limits}
        monkeypatch.setattr(modarith, "SEGMENT", size)
        for x in limits:
            assert want[x] == [q for q in range(x + 1) if is_prime(q)], x
            segments = list(prime_segments(x, sieve_primes(max(2, math.isqrt(x)))))
            assert len(segments) == x // size + 1, x
            for lo, seg in zip(range(0, x + 1, size), segments):
                assert seg.dtype == np.int64 and all(lo <= q < lo + size for q in seg.tolist())
            assert np.concatenate(segments).tolist() == want[x] == sieve_primes(x), x

    def test_segments_of_a_sweep_to_1e8_region(self):
        # the one segment from 10^8 - 2^24 up to a limit just past 10^8
        # that the odd-only flags and their struck multiples get right:
        # spot-checked against the oracle at both ends
        limit = 10 ** 8 + 100
        base = sieve_primes(math.isqrt(limit))
        *_, last = prime_segments(limit, base)
        lo = limit // modarith.SEGMENT * modarith.SEGMENT
        got = last.tolist()
        assert got[:50] == [q for q in range(lo, lo + 2000) if is_prime(q)][:50]
        assert got[-5:] == [q for q in range(limit - 2000, limit + 1) if is_prime(q)][-5:]

    def test_residues_of_a_word_sized_and_a_large_n(self):
        # n inside int64 takes one %, a larger n Horner's rule: both exact
        q = np.array([5, 7, 2 ** 31 - 1, 2 ** 46 - 27])
        for n in (-496, 2 ** 63 - 1, -2 ** 63, 2 ** 63, -3 ** 60 * 7):
            assert residues(n, q).tolist() == [n % int(m) for m in q], n

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
