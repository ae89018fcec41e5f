"""Modular arithmetic over word-sized prime moduli, prime sieving, factorization.

Everything here is a pure function of its inputs.
"""

import math

import numpy as np


class NotASquare(ValueError):
    """Raised by sqrt_mod when the argument is a quadratic nonresidue."""


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a|p) via Euler's criterion: 0, +1 or -1."""
    if a % p == 0:
        return 0
    t = pow(a, (p - 1) // 2, p)
    return -1 if t == p - 1 else t


def sqrt_mod(a: int, p: int) -> int:
    """Smaller square root of a mod p, by Tonelli-Shanks; raises
    NotASquare when (a|p) = -1."""
    a %= p
    if a == 0:
        return 0
    if legendre(a, p) != 1:
        raise NotASquare(f"{a} is not a square mod {p}")
    q, s = p - 1, 0  # p - 1 = q*2^s, q odd
    while q % 2 == 0:
        q, s = q // 2, s + 1
    z = 2
    while legendre(z, p) != -1:
        z += 1
    c, r, t = pow(z, q, p), pow(a, (q + 1) // 2, p), pow(a, q, p)
    while t != 1:  # r^2 = a*t, and t has order 2^i, 0 < i < s
        t2, i = t * t % p, 1
        while t2 != 1:
            t2, i = t2 * t2 % p, i + 1
        b = pow(c, 1 << (s - i - 1), p)
        r, c, s = r * b % p, b * b % p, i
        t = t * c % p
    return min(r, p - r)


def residues(n: int, moduli: np.ndarray) -> np.ndarray:
    """n mod q for every q of the int64 array moduli, for an integer n of
    any size and sign: one % for an n inside int64, else Horner's rule
    over the 16-bit limbs of |n|, which stays inside int64 for moduli
    below 2^47.  No big-int step depends on the number of moduli."""
    if -2 ** 63 <= n < 2 ** 63:
        return n % moduli  # numpy's % takes the modulus's sign, as Python's does
    m = abs(n)
    r = np.zeros_like(moduli)
    for shift in range(m.bit_length() // 16 * 16, -1, -16):
        r = ((r << 16) + ((m >> shift) & 0xFFFF)) % moduli
    return -r % moduli if n < 0 else r


# The numbers one segment of prime_segments spans; its flags take half as
# many bytes (odd numbers only), 8 MB.
SEGMENT = 1 << 24


def prime_segments(limit: int, base):
    """The primes p <= limit, ascending, as one int64 array per segment
    [lo, lo + SEGMENT): a segmented sieve of Eratosthenes (Bays and
    Hudson, BIT 1977) over the odd numbers, given base, the primes up to
    isqrt(limit) at least.  It holds one segment's flags at a time."""
    odd = [q for q in base if q > 2]
    for lo in range(0, limit + 1, SEGMENT):
        hi = min(lo + SEGMENT, limit + 1)
        first = lo | 1
        flags = np.ones((hi - first + 1) // 2, dtype=bool)  # flags[i]: first + 2i
        for q in odd:
            if q * q >= hi:
                break
            m = max(q * q, -(-first // q) * q)  # q's least multiple to strike
            m += q * (1 - m % 2)  # odd multiples are 2q apart, q flags
            flags[(m - first) // 2::q] = False
        if lo == 0:
            flags[0] = False  # 1
        primes = np.flatnonzero(flags)
        del flags  # before the consumer runs
        primes *= 2
        primes += first
        yield np.concatenate(([2], primes)) if lo <= 2 < hi else primes


def sieve_primes(limit: int) -> list:
    """All primes <= limit, ascending, from prime_segments."""
    if limit < 2:
        raise ValueError("limit must be >= 2")
    base = _simple_sieve(math.isqrt(limit))
    return np.concatenate(list(prime_segments(limit, base))).tolist()


def _simple_sieve(limit: int) -> list:
    if limit < 2:
        return []
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p::p] = False
    return np.flatnonzero(flags).tolist()


def factorize(n: int) -> list:
    """Complete prime factorization of 1 <= n < 2^40 as ascending (prime,
    multiplicity) pairs, by trial division: by 2, then by odd q while
    q^2 <= n, so at most 2^19 divisions.  factorize(1) == []."""
    if not 1 <= n < 1 << 40:
        raise ValueError(f"n = {n} outside [1, 2**40)")
    factors, q = [], 2
    while q * q <= n:
        m = 0
        while n % q == 0:
            n //= q
            m += 1
        if m:
            factors.append((q, m))
        q += 2 if q > 2 else 1
    if n > 1:
        factors.append((n, 1))
    return factors
