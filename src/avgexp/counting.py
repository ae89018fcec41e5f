"""Trace of Frobenius and group order, by two independent algorithms.

trace_naive sums the quadratic character of the cubic over all of F_p;
order_bsgs pins the order inside the Hasse interval with baby-step
giant-step element annihilators: a single annihilator in the interval is
the order, and several fall back to point orders and quadratic-twist
samples.  Every result is checked against the Hasse bound
|a_p| < 2*sqrt(p) before it leaves this module.
"""

import math
from dataclasses import dataclass

import numpy as np

from .curve import INFINITY, ReducedCurve, add, random_point, scalar_mul
from .modarith import factorize, legendre

_NAIVE_CAP = 1 << 31  # int64 intermediates in the vectorized sum
_MAX_SAMPLES = 64
_CHUNK = 1 << 22
# Below this p the O(p) character sum is used, at and above it BSGS, which
# is the faster one from about p = 4000 on both generic and CM curves.
DEFAULT_TRACE_THRESHOLD = 4_000


class AmbiguityExhausted(RuntimeError):
    """order_bsgs could not pin the order; signals a logic bug upstream."""


@dataclass(frozen=True)
class TraceResult:
    p: int
    a_p: int
    N: int
    method: str

    def __post_init__(self):
        if self.N != self.p + 1 - self.a_p:
            raise ValueError("N and a_p disagree")
        # 4p is never a perfect square, so |a| < 2*sqrt(p) <=> |a| <= isqrt(4p)
        if abs(self.a_p) > math.isqrt(4 * self.p):
            raise ValueError(f"Hasse bound violated at p = {self.p}: a_p = {self.a_p}")


def trace_naive(C: ReducedCurve) -> TraceResult:
    """Exact a_p = -sum_x chi(x^3 + a*x + b) by full character sum, O(p)."""
    p = C.p
    if p >= _NAIVE_CAP:
        raise ValueError(f"p = {p} too large for the vectorized character sum")
    chi = np.full(p, -1, dtype=np.int8)
    for lo in range(0, (p + 1) // 2, _CHUNK):
        half = np.arange(lo, min(lo + _CHUNK, (p + 1) // 2), dtype=np.int64)
        chi[(half * half) % p] = 1
    chi[0] = 0
    total = 0
    for lo in range(0, p, _CHUNK):
        x = np.arange(lo, min(lo + _CHUNK, p), dtype=np.int64)
        rhs = (x * x % p) * x % p
        rhs = (rhs + C.a * x + C.b) % p
        total += int(chi[rhs].sum())
    return TraceResult(p, -total, p + 1 + total, "naive")


def quadratic_twist(C: ReducedCurve) -> ReducedCurve:
    """The twist by the smallest nonresidue; orders sum to 2p + 2."""
    c = 2
    while legendre(c, C.p) != -1:
        c += 1
    c2 = c * c % C.p
    return ReducedCurve(C.p, C.a * c2 % C.p, C.b * c2 % C.p * c % C.p)


def _annihilators(P, C, lo, hi) -> list:
    """Every n in [lo, hi] with n*P = infinity, ascending.

    Baby-step giant-step over the window; it always holds a multiple of
    ord(P), because the group order lies in it.
    """
    p = C.p
    m = math.isqrt(p + 1 - lo) + 1
    # baby steps j*P for 0 < j < m, every j kept per x-coordinate: j*P and
    # -j*P share one, and so do j*P and j'*P = -j*P when j + j' = ord(P)
    baby = {}
    jP = P
    for j in range(1, m):
        baby.setdefault(jP[0], []).append((j, jP[1]))
        nextP = add(jP, P, C)
        if nextP is INFINITY:
            # ord(P) = j + 1 <= m: the annihilators are its multiples
            o = j + 1
            return list(range(-(-lo // o) * o, hi + 1, o))
        jP, prevP = nextP, jP
    # The baby steps recognise G = t*P for every t in [-(m-1), m-1], so the
    # giant point G = k*s*P finds each annihilator n = k*s - t in
    # [k*s - (m-1), k*s + (m-1)].  With stride s = 2m - 1 these intervals
    # tile the integers, and k0..k1 are the tiles that meet [lo, hi].
    s = 2 * m - 1
    sP = add(jP, prevP, C)  # m*P + (m-1)*P
    k0 = (lo + m - 1) // s  # least k with k*s + (m-1) >= lo
    k1 = (hi + m - 1) // s
    G = scalar_mul(k0, sP, C)
    found = []
    for k in range(k0, k1 + 1):
        if G is INFINITY:
            found.append(k * s)
        else:
            for j, y in baby.get(G[0], ()):
                if y == G[1]:
                    found.append(k * s - j)
                if (y + G[1]) % p == 0:
                    found.append(k * s + j)
        if k < k1:
            G = add(G, sP, C)
    anns = sorted(n for n in found if lo <= n <= hi)
    if not anns:
        raise AmbiguityExhausted(f"no annihilator in Hasse window at p = {p}")
    return anns


def _point_order(P, C, anns) -> int:
    """Exact order of P from the gcd of its window annihilators."""
    g = math.gcd(*anns)
    for q, mult in factorize(g):
        for _ in range(mult):
            if scalar_mul(g // q, P, C) is INFINITY:
                g //= q
            else:
                break
    return g


def _crt_candidates(L_E, L_T, p, lo, hi, cap=3):
    """Orders n in [lo, hi] with L_E | n and L_T | (2p + 2 - n).

    Returns at most cap + 1 of them (enough to detect non-uniqueness).
    """
    g = math.gcd(L_E, L_T)
    target = 2 * p + 2
    if target % g:
        return []
    # solve L_E * t = target (mod L_T)
    lt = L_T // g
    t0 = (target // g) * pow(L_E // g, -1, lt) % lt if lt > 1 else 0
    n0 = L_E * t0
    step = L_E * lt
    first = n0 + ((lo - n0 + step - 1) // step) * step
    out = []
    n = first
    while n <= hi and len(out) <= cap:
        out.append(n)
        n += step
    return out


def order_bsgs(C: ReducedCurve, rng) -> TraceResult:
    """Exact group order from random-point annihilators, O(p^{1/4}) per point.

    The group order of a point's curve annihilates the point and lies in
    the Hasse window, so a window holding one annihilator proves it.
    Otherwise points from the curve and its quadratic twist alternate;
    their order lcms shrink the candidate set until exactly one order
    survives in the window.
    """
    p = C.p
    if p < 229:
        raise ValueError("order_bsgs needs p >= 229; use trace_naive")
    B = math.isqrt(4 * p)
    lo, hi = p + 1 - B, p + 1 + B
    twist = None
    L_E = L_T = 1
    for attempt in range(_MAX_SAMPLES):
        on_twist = attempt % 2 == 1
        if on_twist and twist is None:
            twist = quadratic_twist(C)
        side = twist if on_twist else C
        P = random_point(side, rng)
        anns = _annihilators(P, side, lo, hi)
        if len(anns) == 1:
            N = 2 * p + 2 - anns[0] if on_twist else anns[0]
            return TraceResult(p, p + 1 - N, N, "bsgs")
        o = _point_order(P, side, anns)
        if on_twist:
            L_T = L_T * o // math.gcd(L_T, o)
        else:
            L_E = L_E * o // math.gcd(L_E, o)
        cands = _crt_candidates(L_E, L_T, p, lo, hi)
        if len(cands) == 1:
            N = cands[0]
            return TraceResult(p, p + 1 - N, N, "bsgs")
        if not cands:
            raise AmbiguityExhausted(f"inconsistent order constraints at p = {p}")
    raise AmbiguityExhausted(f"{_MAX_SAMPLES} samples left the order ambiguous at p = {p}")


def trace(C: ReducedCurve, rng,
          threshold: int = DEFAULT_TRACE_THRESHOLD) -> TraceResult:
    """Dispatch: full character sum below threshold, BSGS above.

    BSGS needs p >= 229 for sane interval spacing, so tiny primes always
    take the naive route.
    """
    if C.p < max(threshold, 229):
        return trace_naive(C)
    return order_bsgs(C, rng)
