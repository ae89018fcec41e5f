"""Independent references for checking avgexp's outputs.

Nothing here imports avgexp: every value is computed from first principles
with numpy and mpmath, by methods that differ from the program's.

- good primes: a plain sieve and the discriminant
- a_p: point count by matching the histogram of y^2 against that of
  x^3 + a*x + b (the program sums a quadratic character or runs BSGS)
- e_p: an x-only Montgomery ladder in projective (X : Z) coordinates,
  run on many (prime, point) lanes at once; e*P = O iff Z = 0
- y^2 = x^3 - x: the closed form from p = a^2 + b^2
- the gl2 constant: the Euler product of its closed-form local factors
"""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np

# Lanes hold residues mod p < 2**30, so a sum of three products of two
# residues still fits in int64.
LANE_CAP = 1 << 30


def primes_upto(n: int) -> np.ndarray:
    flags = np.ones(n + 1, dtype=bool)
    flags[:2] = False
    for q in range(2, math.isqrt(n) + 1):
        if flags[q]:
            flags[q * q::q] = False
    return np.flatnonzero(flags)


def good_primes(a4: int, a6: int, x_max: int) -> np.ndarray:
    """Primes 5 <= p <= x_max not dividing the discriminant -16(4a^3+27b^2)."""
    disc = -16 * (4 * a4 ** 3 + 27 * a6 ** 2)
    ps = primes_upto(x_max)
    return np.array([p for p in ps.tolist() if p >= 5 and disc % p], dtype=np.int64)


def trace_by_histogram(a4: int, a6: int, p: int) -> int:
    """Exact a_p = p - #{(x, y) : y^2 = x^3 + a4*x + a6 mod p}."""
    v = np.arange(p, dtype=np.int64)
    squares = np.bincount(v * v % p, minlength=p)
    rhs = (v * v % p * v + (a4 % p) * v + a6 % p) % p
    values = np.bincount(rhs, minlength=p)
    return p - int(np.dot(squares, values))


def cm_i_record(p: int) -> tuple:
    """(a_p, d_p, e_p) of y^2 = x^3 - x at a prime p >= 5, in closed form.

    p = 3 mod 4 is supersingular: a_p = 0 and the group is Z/2 x Z/((p+1)/2).
    For p = 1 mod 4 write p = a^2 + b^2 with b even and a + b = 1 (mod 4);
    then a_p = 2a, d_p = gcd(a - 1, b) and e_p = (p + 1 - 2a) / d_p.
    """
    if p % 4 == 3:
        return 0, 2, (p + 1) // 2
    a, b = _two_squares(p)
    if a % 2 == 0:
        a, b = b, a
    if (a + b) % 4 != 1:
        a = -a
    d = math.gcd(a - 1, b)
    return 2 * a, d, (p + 1 - 2 * a) // d


def _two_squares(p: int) -> tuple:
    xs = np.arange(1, math.isqrt(p) + 1, dtype=np.int64)
    rest = p - xs * xs
    roots = np.sqrt(rest).round().astype(np.int64)
    hit = np.flatnonzero(roots * roots == rest)[0]
    return int(xs[hit]), int(roots[hit])


def record_violations(p, a, d, e) -> np.ndarray:
    """Boolean mask of records breaking an identity every true record obeys:
    Hasse, d*e = p + 1 - a, d | e, d | p - 1, d^2 | p + 1 - a, a = 2 mod d."""
    p, a, d, e = (np.asarray(t, dtype=np.int64) for t in (p, a, d, e))
    n = p + 1 - a
    hasse = a * a >= 4 * p  # 4p is never a square, so |a| < 2 sqrt(p) <=> a^2 < 4p
    safe_d = np.maximum(d, 1)
    return (hasse | (d < 1) | (d * e != n) | (e % safe_d != 0)
            | ((p - 1) % safe_d != 0) | (n % (safe_d * safe_d) != 0)
            | ((a - 2) % safe_d != 0))


def _powmod(base, exp, m):
    result = np.ones_like(base)
    base = base % m
    exp = exp.copy()
    while exp.any():
        odd = (exp & 1).astype(bool)
        result = np.where(odd, result * base % m, result)
        base = base * base % m
        exp >>= 1
    return result


def random_x_on_curve(p, a, b, rng) -> np.ndarray:
    """Per lane, a uniform x in F_p for which x^3 + a*x + b is a square (or 0)."""
    x = np.empty_like(p)
    todo = np.arange(len(p))
    while len(todo):
        pt, at, bt = p[todo], a[todo], b[todo]
        cand = rng.integers(0, pt)
        rhs = (cand * cand % pt * cand + at * cand + bt) % pt
        ok = (rhs == 0) | (_powmod(rhs, (pt - 1) // 2, pt) == 1)
        x[todo[ok]] = cand[ok]
        todo = todo[~ok]
    return x


def ladder_annihilates(p, a, b, x0, k) -> np.ndarray:
    """Per lane, whether k * P = O for a point P = (x0, y) of y^2 = x^3 + a*x + b.

    Montgomery ladder on x-coordinates with R1 - R0 = P throughout:
    differential addition and doubling in (X : Z), after Brier and Joye,
    "Weierstrass elliptic curves and side-channel attacks" (PKC 2002).
    The identity is (X : 0) with X != 0.  A lane that degenerates to
    (0 : 0) proves nothing and reports True, so a correct exponent is
    never rejected.
    """
    p, a, b, x0, k = (np.asarray(t, dtype=np.int64) for t in (p, a, b, x0, k))
    if len(p) and int(p.max()) >= LANE_CAP:
        raise ValueError("lanes need p < 2**30")
    X0, Z0 = np.ones_like(p), np.zeros_like(p)
    X1, Z1 = x0 % p, np.ones_like(p)
    b4, b8 = 4 * b % p, 8 * b % p
    for bit in range(int(k.max()).bit_length() - 1, -1, -1):
        set_ = ((k >> bit) & 1).astype(bool)
        # differential addition R0 + R1, difference P = (x0 : 1)
        t1, t2, zz = X0 * Z1 % p, X1 * Z0 % p, Z0 * Z1 % p
        diff = (t1 - t2) % p
        ZS = diff * diff % p
        XS = (2 * ((t1 + t2) % p) % p * ((X0 * X1 + a * zz) % p) % p
              + b4 * (zz * zz % p) - x0 * ZS) % p
        # doubling of R1 if the bit is set, else of R0
        X, Z = np.where(set_, X1, X0), np.where(set_, Z1, Z0)
        XX, ZZ = X * X % p, Z * Z % p
        u = (XX - a * ZZ) % p
        XD = (u * u - b8 * (X * Z % p) % p * ZZ) % p
        ZD = 4 * Z % p * ((X * XX + a * (X * ZZ % p) + b * (Z * ZZ % p)) % p) % p
        X0, Z0 = np.where(set_, XS, XD), np.where(set_, ZS, ZD)
        X1, Z1 = np.where(set_, XD, XS), np.where(set_, ZD, ZS)
    return Z0 == 0


def short_exponents(p, a4, a6, e, points, rng) -> np.ndarray:
    """Mask of records whose e fails to annihilate one of `points` random
    points.  A true exponent is never flagged; a short one (a proper
    divisor of the exponent, so a proper subgroup kills every point it
    annihilates) escapes with probability about 2**-points."""
    p = np.asarray(p, dtype=np.int64)
    lanes = np.repeat(p, points)
    a = np.repeat(np.mod(a4, p), points)
    b = np.repeat(np.mod(a6, p), points)
    x = random_x_on_curve(lanes, a, b, rng)
    ok = ladder_annihilates(lanes, a, b, x, np.repeat(np.asarray(e, dtype=np.int64), points))
    return ~ok.reshape(len(p), points).all(axis=1)


def gl2_order(k: int) -> int:
    """|GL2(Z/kZ)| = prod over q^n || k of q^(4n-3) (q - 1)(q^2 - 1)."""
    n = 1
    for q, m in _factor(k):
        n *= q ** (4 * m - 3) * (q - 1) * (q * q - 1)
    return n


def mobius_weight(k: int) -> Fraction:
    """sum_{d m = k} mu(d) / m = (1/k) prod_{q | k} (1 - q)."""
    w = Fraction(1, k)
    for q, _ in _factor(k):
        w *= 1 - q
    return w


def _factor(k: int) -> list:
    out = []
    q = 2
    while q * q <= k:
        if k % q == 0:
            m = 0
            while k % q == 0:
                k //= q
                m += 1
            out.append((q, m))
        q += 1
    if k > 1:
        out.append((k, 1))
    return out


def gl2_constant(q_max: int = 20_000, dps: int = 40) -> tuple:
    """(C, tail) with C = prod_{q <= q_max} (1 - q^3 / ((q^2 - 1)(q^5 - 1))).

    For q >= 5 each dropped factor is 1 - t_q with t_q <= 1.05 q^-4, so the
    true constant lies within sum_{n > q_max} 1.05 n^-4 <= 0.35 / q_max^3.
    """
    with mp.workdps(dps):
        c = mp.mpf(1)
        for q in primes_upto(q_max).tolist():
            c *= 1 - mp.mpf(q) ** 3 / ((q * q - 1) * (mp.mpf(q) ** 5 - 1))
    return c, 0.35 / q_max ** 3


def li(x: float) -> float:
    """Logarithmic integral from 2 to x."""
    return float(mp.li(x, offset=True))
