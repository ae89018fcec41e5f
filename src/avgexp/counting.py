"""Trace of Frobenius and group order, by independent algorithms.

trace_naive sums the quadratic character of the cubic over all of F_p;
order_bsgs pins the order inside the Hasse interval with baby-step
giant-step annihilators of points drawn from random.Random(p): a single
annihilator in the interval is the order, and several are spaced by the
point's order and call for more points, on the curve and its twist.
order_lanes runs the same baby-step giant-step search on x coordinates
alone for a whole block of primes at once, one prime per int64 numpy
lane, and proves the order wherever the window holds exactly one
annihilator; trace_block sends the lanes it refuses to order_bsgs.
"""

import math
import random
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .curve import INFINITY, ReducedCurve, add, random_point, scalar_mul
from .modarith import legendre

_NAIVE_CAP = 1 << 31  # int64 intermediates in the vectorized sum
_MAX_SAMPLES = 64
_CHUNK = 1 << 22
# Lane residues stay below 2^30, so a product of two fits in 2^60 and a
# sum of a few such products still fits in int64, and order_lanes can
# sort x by lane as lane * 2^30 + x.
LANE_CAP = 1 << 30
_MIN_BSGS_P = 229
# Below this p the O(p) character sum is used, at and above it the lanes
# (with order_bsgs for the lanes they refuse).  Inside a lane block that
# runs anyway, a lane costs no more than the sum from p = 229 on, fallback
# included, and a sweep's point counting costs the same for any threshold
# from 229 to about 1000, on generic and CM curves alike.
DEFAULT_TRACE_THRESHOLD = 400


class AmbiguityExhausted(RuntimeError):
    """order_bsgs could not pin the order; signals a logic bug upstream."""


@dataclass(frozen=True)
class TraceResult:
    p: int
    a_p: int
    N: int
    method: str


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
    """Every n in [lo, hi] with n*P = infinity, ascending, each once:
    the multiples of ord(P) in the window, so two or more are spaced by
    ord(P).

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


def order_bsgs(C: ReducedCurve) -> TraceResult:
    """Exact group order from point annihilators, O(p^{1/4}) per point.

    The group order of a point's curve annihilates the point and lies in
    the Hasse window, so a window holding one annihilator proves it.
    Otherwise the annihilators are spaced by the point's order, and points
    from the curve and its quadratic twist alternate; their order lcms
    shrink the candidate set until exactly one order survives in the
    window.  Points come from the stream random.Random(p), so the result
    and its cost depend on p alone.
    """
    p = C.p
    if p < _MIN_BSGS_P:
        raise ValueError(f"order_bsgs needs p >= {_MIN_BSGS_P}; use trace_naive")
    B = math.isqrt(4 * p)
    lo, hi = p + 1 - B, p + 1 + B
    twist = None
    rng = random.Random(p)
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
        o = anns[1] - anns[0]  # the annihilators are the multiples of ord(P)
        if on_twist:
            L_T = math.lcm(L_T, o)
        else:
            L_E = math.lcm(L_E, o)
        # the orders left in the window, up to the two that show ambiguity;
        # L_E >= 2 here, since the first point is on the curve and not O
        cands = list(islice((n for n in range(-(-lo // L_E) * L_E, hi + 1, L_E)
                             if (2 * p + 2 - n) % L_T == 0), 2))
        if len(cands) == 1:
            N = cands[0]
            return TraceResult(p, p + 1 - N, N, "bsgs")
        if not cands:
            raise AmbiguityExhausted(f"inconsistent order constraints at p = {p}")
    raise AmbiguityExhausted(f"{_MAX_SAMPLES} samples left the order ambiguous at p = {p}")


def _powmod(base, exp, p):
    """base^exp mod p, lane by lane."""
    result = np.ones_like(base)
    for bit in range(int(exp.max()).bit_length()):
        result = result * np.where((exp >> bit) & 1 == 1, base, 1) % p
        base = base * base % p
    return result


def _xadd(X1, Z1, X2, Z2, Xd, Zd, a, b4, p):
    """x(Q1 + Q2) in (X : Z) from x(Q1), x(Q2) and x(Q1 - Q2) = (Xd : Zd),
    differential addition after Brier and Joye, "Weierstrass elliptic
    curves and side-channel attacks" (PKC 2002).  Z2 = None or Zd = None
    means 1.  A difference at infinity (Zd = 0) gives (0 : 0)."""
    if Z2 is None:
        t1, t2, zz = X1, X2 * Z1 % p, Z1
    else:
        t1, t2, zz = X1 * Z2 % p, X2 * Z1 % p, Z1 * Z2 % p
    u = t1 - t2
    Z = u * u % p
    X = (2 * (t1 + t2) * ((X1 * X2 + a * zz) % p) + b4 * (zz * zz % p)) % p
    if Zd is None:
        return (X - Xd * Z) % p, Z
    return (Zd * X - Xd * Z) % p, Zd * Z % p


def _xdbl(X, Z, a, b, b8, p):
    """x(2Q) in (X : Z) from x(Q); infinity (X : 0) doubles to itself."""
    XX, ZZ = X * X % p, Z * Z % p
    u = (XX - a * ZZ) % p
    XD = (u * u - b8 * (X * Z % p) % p * ZZ) % p
    ZD = 4 * Z * ((X * XX + a * (X * ZZ % p) + b * (Z * ZZ % p)) % p) % p
    return XD, ZD


def _ladder(k, X, Z, a, b, b4, b8, p):
    """x(k*Q) and x((k+1)*Q) for x(Q) = (X : Z) and k >= 0, lane by lane.

    Montgomery ladder on (R0, R1) with R1 - R0 = Q throughout: a lane
    whose bit is set works on the swapped pair, and a swap is applied
    where the bit changes.  Leading zero bits keep R0 at infinity, so
    lanes of different bit lengths share one loop.
    """
    X0, Z0 = np.ones_like(p), np.zeros_like(p)
    X1, Z1 = X, (np.ones_like(p) if Z is None else Z)
    swapped = np.zeros(len(p), dtype=bool)
    for bit in range(int(k.max(initial=0)).bit_length() - 1, -1, -1):
        up = (k >> bit) & 1 == 1
        flip = up != swapped
        X0, X1 = np.where(flip, X1, X0), np.where(flip, X0, X1)
        Z0, Z1 = np.where(flip, Z1, Z0), np.where(flip, Z0, Z1)
        swapped = up
        X1, Z1 = _xadd(X0, Z0, X1, Z1, X, Z, a, b4, p)
        X0, Z0 = _xdbl(X0, Z0, a, b, b8, p)
    return (np.where(swapped, X1, X0), np.where(swapped, Z1, Z0),
            np.where(swapped, X0, X1), np.where(swapped, Z0, Z1))


def _affine(rows, p):
    """Affine x = X/Z of every row of every (X, Z) pair of 2-D arrays,
    with one Fermat inversion per lane (Montgomery's simultaneous
    inversion: prefix products along the rows, then back).  Rows at
    infinity must carry Z = 1 and come out as X."""
    prefix, run = [], np.ones_like(p)
    for _, Z in rows:
        pre = np.empty_like(Z)
        for r in range(len(Z)):
            run = run * Z[r] % p
            pre[r] = run
        prefix.append(pre)
    inv = _powmod(run, p - 2, p)  # 1 / (product of every Z)
    out = [None] * len(rows)
    for i in range(len(rows) - 1, -1, -1):
        X, Z = rows[i]
        pre = prefix[i]
        x = np.empty_like(X)
        for r in range(len(Z) - 1, -1, -1):
            before = pre[r - 1] if r else (prefix[i - 1][-1] if i else 1)
            x[r] = X[r] * (inv * before % p) % p
            inv = inv * Z[r] % p
        out[i] = x
    return out


def order_lanes(curves) -> list:
    """Group order of each curve, proved on int64 lanes, or None where
    the lane is refused.  Lanes need 229 <= p < 2^30.

    Lane i takes the first x0 = 1, 2, ... with c = x0^3 + a*x0 + b != 0.
    That x0 is the x of a point P on the curve when c is a square and on
    its quadratic twist otherwise; both share the x-only group law, and
    the twist's order 2p + 2 - N lies in the same Hasse window
    [p+1-B, p+1+B].  The tiling of _annihilators finds every n in the
    window with n*P = infinity: baby rows x(j*P), 0 < j < m, giant rows
    x(k*s*P), stride s = 2m - 1, matched by x.  Each candidate it yields
    is checked by its own ladder, and a lane is accepted only when
    exactly one candidate annihilates P: since every annihilator in the
    window shows up as a candidate, that one is the curve's (or the
    twist's) group order.  Lanes where P has order <= m, two baby rows
    share an x, a row degenerates to (0 : 0), or the window holds several
    annihilators are refused.  Nothing in a lane depends on the others.
    """
    out = [None] * len(curves)
    idx = [i for i, C in enumerate(curves) if _MIN_BSGS_P <= C.p < LANE_CAP]
    if not idx:
        return out
    ps = [curves[i].p for i in idx]
    p = np.array(ps, dtype=np.int64)
    a = np.array([curves[i].a % q for i, q in zip(idx, ps)], dtype=np.int64)
    b = np.array([curves[i].b % q for i, q in zip(idx, ps)], dtype=np.int64)
    b4, b8 = 4 * b % p, 8 * b % p
    B = np.array([math.isqrt(4 * q) for q in ps], dtype=np.int64)
    m = np.array([math.isqrt(w) + 1 for w in B.tolist()], dtype=np.int64)
    s = 2 * m - 1
    lo, hi = p + 1 - B, p + 1 + B
    k0 = (lo + m - 1) // s  # the giant rows k0 .. k1 tile the window
    rows_k = (hi + m - 1) // s - k0 + 1
    L, M, K = len(p), int(m.max()), int(rows_k.max())
    lane = np.arange(L)

    x0 = np.ones_like(p)
    c = (x0 + a + b) % p
    while not c.all():  # at most three roots, so x0 <= 4
        x0 = np.where(c == 0, x0 + 1, x0)
        c = (x0 * x0 * x0 + a * x0 + b) % p
    twist = _powmod(c, (p - 1) // 2, p) == p - 1

    # baby rows j*P, 0 <= j <= M: (j+1)*P = j*P + P, difference (j-1)*P
    BX, BZ = np.empty((M + 1, L), np.int64), np.empty((M + 1, L), np.int64)
    BX[0], BZ[0] = 1, 0
    BX[1], BZ[1] = x0, 1
    BX[2], BZ[2] = _xdbl(x0, np.ones_like(p), a, b, b8, p)
    for j in range(2, M):
        BX[j + 1], BZ[j + 1] = _xadd(BX[j], BZ[j], x0, None, BX[j - 1], BZ[j - 1], a, b4, p)
    j_row = np.arange(M + 1)[:, None]
    refused = ((BZ == 0) & (j_row >= 1) & (j_row <= m)).any(axis=0)  # ord(P) <= m

    # s*P = m*P + (m-1)*P, difference P; k0*s*P and (k0+1)*s*P by one ladder
    SX, SZ = _xadd(BX[m, lane], BZ[m, lane], BX[m - 1, lane], BZ[m - 1, lane],
                   x0, None, a, b4, p)
    refused |= SZ == 0
    DX, DZ = _xdbl(SX, SZ, a, b, b8, p)
    GX, GZ = np.empty((K, L), np.int64), np.empty((K, L), np.int64)
    GX[0], GZ[0], GX[1], GZ[1] = _ladder(k0, SX, SZ, a, b, b4, b8, p)
    for r in range(2, K):
        # G_r = G_(r-1) + s*P, difference G_(r-2); after a row at infinity
        # the chain restarts: the next two rows are s*P and 2*s*P
        X, Z = _xadd(GX[r - 1], GZ[r - 1], SX, SZ, GX[r - 2], GZ[r - 2], a, b4, p)
        restart = GZ[r - 2] == 0
        GX[r], GZ[r] = np.where(restart, DX, X), np.where(restart, DZ, Z)
    k_row = np.arange(K)[:, None]
    g_live = k_row < rows_k
    refused |= (g_live & (GX == 0) & (GZ == 0)).any(axis=0)

    b_live = (j_row[1:M] < m)
    bx, gx = _affine([(BX[1:M], np.where(b_live, BZ[1:M], 1)),
                      (GX, np.where(g_live & (GZ != 0), GZ, 1))], p)

    # match giant x against baby x through sorted keys lane * 2^30 + x,
    # each carrying its row below (rows < 2^9); taken lane by lane, so
    # the sorts only order x within each lane
    lane_hi = (lane << 30)[:, None]
    b_keys = np.sort((((lane_hi + bx.T) << 9) + j_row[1:M].T)[b_live.T])
    b_x, b_j = b_keys >> 9, b_keys & 511
    repeated = b_x[1:] == b_x[:-1]
    refused[b_x[1:][repeated] >> 30] = True
    g_hit = g_live & (GZ != 0)
    g_keys = np.sort((((lane_hi + gx.T) << 9) + k_row.T)[g_hit.T])
    g_x = g_keys >> 9
    g_lane = g_x >> 30
    pos = np.minimum(np.searchsorted(b_x, g_x), len(b_x) - 1)
    match = b_x[pos] == g_x
    m_lane, m_j = g_lane[match], b_j[pos[match]]
    m_ks = (k0[m_lane] + (g_keys[match] & 511)) * s[m_lane]
    o_row, o_lane = np.nonzero(g_live & (GZ == 0))
    cand_lane = np.concatenate([m_lane, m_lane, o_lane])
    cand = np.concatenate([m_ks - m_j, m_ks + m_j, (k0[o_lane] + o_row) * s[o_lane]])
    keep = (cand >= lo[cand_lane]) & (cand <= hi[cand_lane]) & ~refused[cand_lane]
    cand_lane, cand = cand_lane[keep], cand[keep]

    # every candidate n is checked by a ladder on P: n*P = (X : 0), X != 0
    cl = cand_lane
    X, Z, _, _ = _ladder(cand, x0[cl], None, a[cl], b[cl], b4[cl], b8[cl], p[cl])
    good = (Z == 0) & (X != 0)
    count = np.bincount(cl[good], minlength=L)
    n = np.zeros_like(p)
    n[cl[good]] = cand[good]
    N = np.where(twist, 2 * p + 2 - n, n)
    for i, ok, order_ in zip(idx, (count == 1) & ~refused, N.tolist()):
        if ok:
            out[i] = order_
    return out


def trace_block(curves, threshold: int = DEFAULT_TRACE_THRESHOLD) -> list:
    """TraceResult for each curve: the character sum below the threshold
    (and below p = 229), the lanes of order_lanes at and above it, and
    order_bsgs for every lane they refuse.  The methods read "naive",
    "lanes" and "bsgs"."""
    cut = max(threshold, _MIN_BSGS_P)
    lanes = iter(order_lanes([C for C in curves if C.p >= cut]))
    out = []
    for C in curves:
        if C.p < cut:
            out.append(trace_naive(C))
            continue
        N = next(lanes)
        if N is None:
            out.append(order_bsgs(C))
        else:
            out.append(TraceResult(C.p, C.p + 1 - N, N, "lanes"))
    return out
