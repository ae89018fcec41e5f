"""Modular arithmetic over word-sized prime moduli, prime sieving, factorization.

Everything here is a pure function of its inputs.
"""

import math

import numpy as np

# Deterministic Miller-Rabin witness set, valid for all n < 3.3e24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)


class NotASquare(ValueError):
    """Raised by sqrt_mod when the argument is a quadratic nonresidue."""


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for 64-bit range integers."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a|p) via Euler's criterion: 0, +1 or -1."""
    if a % p == 0:
        return 0
    t = pow(a, (p - 1) // 2, p)
    return -1 if t == p - 1 else t


def sqrt_mod(a: int, p: int) -> int:
    """Smaller square root of a mod p (Tonelli-Shanks).

    Raises NotASquare when (a|p) = -1.
    """
    a %= p
    if a == 0:
        return 0
    ls = legendre(a, p)
    if ls == -1:
        raise NotASquare(f"{a} is not a square mod {p}")
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
        return min(r, p - r)
    # p = 1 (mod 4): full Tonelli-Shanks
    q = p - 1
    s = 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while legendre(z, p) != -1:
        z += 1
    c = pow(z, q, p)
    r = pow(a, (q + 1) // 2, p)
    t = pow(a, q, p)
    m = s
    while t != 1:
        t2 = t
        i = 0
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        r = r * b % p
        c = b * b % p
        t = t * c % p
        m = i
    return min(r, p - r)


def sieve_primes(limit: int) -> list:
    """All primes <= limit, ascending, by a segmented sieve.

    Memory stays O(sqrt(limit) + segment) regardless of limit.
    """
    if limit < 2:
        raise ValueError("limit must be >= 2")
    root = math.isqrt(limit)
    base = _simple_sieve(root)
    primes = [p for p in base if p <= limit]
    segment = max(1 << 16, root)
    low = root + 1
    while low <= limit:
        high = min(low + segment - 1, limit)
        mask = np.ones(high - low + 1, dtype=bool)
        for p in base:
            start = max(p * p, ((low + p - 1) // p) * p)
            if start > high:
                continue
            mask[start - low::p] = False
        primes.extend((low + np.flatnonzero(mask)).tolist())
        low = high + 1
    return primes


def _simple_sieve(limit: int) -> list:
    if limit < 2:
        return []
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p::p] = False
    return np.flatnonzero(flags).tolist()


def _pollard_rho(n: int, seed: int) -> int:
    """One nontrivial factor of composite n (Brent's cycle variant).

    The polynomial increment is derived deterministically from (n, seed)
    so repeated calls on the same n reproduce the same factor.
    """
    if n % 2 == 0:
        return 2
    c = (seed * 2654435761 + 1) % n
    if c == 0:
        c = 1
    y, r, q = seed % n, 1, 1
    g = 1
    x = ys = y
    m = 128
    while g == 1:
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        k = 0
        while k < r and g == 1:
            ys = y
            for _ in range(min(m, r - k)):
                y = (y * y + c) % n
                q = q * abs(x - y) % n
            g = math.gcd(q, n)
            k += m
        r *= 2
    if g == n:
        g = 1
        while g == 1:
            ys = (ys * ys + c) % n
            g = math.gcd(abs(x - ys), n)
    return g


def factorize(n: int) -> list:
    """Complete prime factorization as ascending (prime, multiplicity) pairs.

    Trial division over a small prime table, then Pollard rho with
    deterministic seeding and Miller-Rabin certification of every cofactor.
    factorize(1) == [].
    """
    if n < 1 or n >= 1 << 63:
        raise ValueError(f"n = {n} outside [1, 2**63)")
    factors = {}
    for p in _SMALL_PRIMES:
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        seed = 2
        d = _pollard_rho(m, seed)
        while d == m:
            seed += 1
            d = _pollard_rho(m, seed)
        stack.append(d)
        stack.append(m // d)
    return sorted(factors.items())


def divisors_from_factorization(factorization) -> list:
    """All positive divisors (ascending) from a (prime, mult) list."""
    divs = [1]
    for q, m in factorization:
        qk = 1
        new = []
        for _ in range(m):
            qk *= q
            new.extend(d * qk for d in divs)
        divs.extend(new)
    return sorted(divs)
