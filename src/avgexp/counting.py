"""Trace of Frobenius and group order, by independent algorithms.

trace_naive sums the quadratic character of the cubic over all of F_p.
order_lanes runs baby-step giant-step on x coordinates alone for a whole
block of primes at once, one prime per int64 numpy lane, over the class
of N mod 2 or 4 that the cubic's roots fix (cubic_roots), proves each
annihilator of its point in that class and the Hasse window by recovered
y, or reads the point's order off its baby rows where it is small, and
takes the order where the window holds one annihilator.  Where it holds
several, weed_orders keeps those that annihilate one point of the curve
and one of its twist, by one ladder over all such lanes, and a lone
survivor is the order.  order_bsgs pins the order for one prime: its
candidates are the annihilators of its own first point, and points drawn
from random.Random(p), on the twist and the curve in turn, weed them out
until one is left.  trace_block sends order_lanes' several-annihilator
lanes to weed_orders and what is still open to order_bsgs.
"""

import math
import random
from dataclasses import dataclass

import numpy as np

from .curve import INFINITY, ReducedCurve, add, neg, random_point, scalar_mul
from .modarith import legendre

_MAX_SAMPLES = 64
_CHUNK = 1 << 22
# Lane residues stay below 2^30, so a product of two fits in 2^60 and a
# sum of a few such products still fits in int64, and order_lanes can
# sort x by lane as lane * 2^30 + x.  harness.X_MAX_CAP keeps every prime
# of a sweep below it, and no kernel checks the range again.
LANE_CAP = 1 << 30
# The least p of the lanes and of order_bsgs; below it the character sum.
_MIN_BSGS_P = 229
# The x that weed_orders tries for its points, above every lane's own x0 <= 4.
_WEED_X = np.arange(5, 21)


# The point-counting paths of trace_block, by index.
PATHS = ("naive", "lanes", "fallback")


class AmbiguityExhausted(ArithmeticError):
    """The candidate orders do not single out N; signals a logic bug upstream."""


@dataclass(frozen=True)
class TraceResult:
    p: int
    a_p: int
    N: int


def trace_naive(C: ReducedCurve) -> TraceResult:
    """Exact a_p = -sum_x chi(x^3 + a*x + b) by full character sum, O(p),
    on int64 products: p < 2^31."""
    p = C.p
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
    return TraceResult(p, -total, p + 1 + total)


def quadratic_twist(C: ReducedCurve) -> ReducedCurve:
    """The twist by the smallest nonresidue; orders sum to 2p + 2."""
    c = 2
    while legendre(c, C.p) != -1:
        c += 1
    c2 = c * c % C.p
    return ReducedCurve(C.p, C.a * c2 % C.p, C.b * c2 % C.p * c % C.p)


def _annihilators(P, C, lo, hi) -> list:
    """Every n in [lo, hi] with n*P = infinity, ascending: the multiples
    of ord(P) in the window, by baby-step giant-step keyed by whole
    points."""
    m = math.isqrt(hi - lo) + 1
    # baby points j*P, 0 <= j < m, distinct unless ord(P) < m
    baby = {INFINITY: 0}
    jP = P
    for j in range(1, m):
        if jP is INFINITY:
            # ord(P) = j < m: the annihilators are its multiples
            return list(range(-(-lo // j) * j, hi + 1, j))
        baby[jP] = j
        jP = add(jP, P, C)
    # giant points G = -g*P, g = lo, lo + m, ...: g + j annihilates P exactly
    # when baby point j is G, and the tiles g .. g + m - 1 cover the window
    G, step, found = scalar_mul(lo, neg(P, C), C), neg(jP, C), []  # jP = m*P
    for g in range(lo, hi + 1, m):
        j = baby.get(G)
        if j is not None and g + j <= hi:
            found.append(g + j)
        G = add(G, step, C)
    return found


def order_bsgs(C: ReducedCurve) -> TraceResult:
    """Exact group order N from point annihilators.

    N annihilates every point of the curve, 2p + 2 - N every point of its
    quadratic twist, and both lie in the Hasse window.  The candidates
    for N are the annihilators of a first point of the curve in the
    window (_annihilators), so N is among them.  Each further point, from
    the twist and the curve in turn, keeps the candidates n for which n,
    or 2p + 2 - n on the twist, annihilates it, one scalar multiple per
    candidate, until one is left.  Points come from the stream
    random.Random(p), so the result and its cost depend on p alone.
    """
    p = C.p
    if p < _MIN_BSGS_P:
        raise ValueError(f"order_bsgs needs p >= {_MIN_BSGS_P}; use trace_naive")
    rng = random.Random(p)
    B = math.isqrt(4 * p)
    cands = _annihilators(random_point(C, rng), C, p + 1 - B, p + 1 + B)
    twist = None
    for attempt in range(1, _MAX_SAMPLES):
        if len(cands) < 2:
            break
        if attempt % 2 == 1:
            if twist is None:
                twist = quadratic_twist(C)
            P = random_point(twist, rng)
            cands = [n for n in cands if scalar_mul(2 * p + 2 - n, P, twist) is INFINITY]
        else:
            P = random_point(C, rng)
            cands = [n for n in cands if scalar_mul(n, P, C) is INFINITY]
    if len(cands) != 1:
        raise AmbiguityExhausted(f"{len(cands)} candidate orders left at p = {p}")
    N = cands[0]
    return TraceResult(p, p + 1 - N, N)


def _powmod(base, exp, p):
    """base^exp mod p, lane by lane."""
    return _power((base,), exp, p)[0]


def _mul(u, v, p, f=()):
    """u*v modulo p and the monic f = x^n + sum_i c_i*x^i, lane by lane, for
    residues given as tuples of n coefficient arrays, constant term first;
    f comes as its nonzero low terms (i, c_i), and f = () means residues
    mod p.  The product's x^k, k >= n, are reduced from the top by x^k =
    -x^(k-n) * sum_i c_i*x^i: for coefficients and c_i in [0, p), p < 2^30,
    and n <= 4, no coefficient sums more than 6 products below 2^60 before
    its reduction mod p, so int64 lanes hold it.
    """
    if not f:
        return (u[0] * v[0] % p,)
    n = len(u)
    # rows u[0]*v and u[n-1]*v[1:] start every w[k], fresh arrays the rest add to
    w = [u[0] * c for c in v] + [u[-1] * c for c in v[1:]]
    for i in range(1, n):
        for j in range(n if i < n - 1 else 1):
            w[i + j] += u[i] * v[j]
    for k in range(2 * n - 2, n - 1, -1):
        top = w[k] % p
        for i, c in f:
            w[k - n + i] -= c * top
    return tuple([c % p for c in w[:n]])


def _power(base, exp, p, f=()):
    """base^exp lane by lane, for exp >= 0, in _mul's residues modulo p
    and f.

    Left to right in 2-bit windows: two squarings, then one product by
    base^w, w = 0 .. 3, taken lane by lane from a table of those powers:
    1.5 products a bit.
    """
    n = len(exp)
    one = (np.ones_like(base[0]),) + tuple(np.zeros_like(c) for c in base[1:])
    square = _mul(base, base, p, f)
    table = [np.concatenate(c) for c in zip(one, base, square, _mul(square, base, p, f))]
    lane = np.arange(n)
    result = one
    top = int(exp.max(initial=0)).bit_length()
    for bit in range(top - 2 + top % 2, -1, -2):
        w = np.asarray((exp >> bit) & 3, dtype=np.intp) * n + lane
        entry = tuple(c[w] for c in table)
        if bit + 2 >= top:  # the leading window
            result = entry
        else:
            result = _mul(result, result, p, f)
            result = _mul(_mul(result, result, p, f), entry, p, f)
    return result


def _xadd(X1, Z1, X2, Z2, Xd, Zd, a, b4, p):
    """x(Q1 + Q2) in (X : Z) from x(Q1), x(Q2) and x(Q1 - Q2) = (Xd : Zd),
    differential addition after Brier and Joye, "Weierstrass elliptic
    curves and side-channel attacks" (PKC 2002).  Z2 = None means 1.  A
    difference at infinity (Zd = 0) gives (0 : 0)."""
    if Z2 is None:
        t1, t2, zz = X1, X2 * Z1 % p, Z1
    else:
        t1, t2, zz = X1 * Z2 % p, X2 * Z1 % p, Z1 * Z2 % p
    u = t1 - t2
    Z = u * u % p
    X = (2 * (t1 + t2) * ((X1 * X2 + a * zz) % p) + b4 * (zz * zz % p)) % p
    return (Zd * X - Xd * Z) % p, Zd * Z % p


def _xdbl(X, Z, a, b, b8, p):
    """x(2Q) in (X : Z) from x(Q); infinity (X : 0) doubles to itself."""
    XX, ZZ = X * X % p, Z * Z % p
    u = (XX - a * ZZ) % p
    XD = (u * u - b8 * (X * Z % p) % p * ZZ) % p
    ZD = 4 * Z * ((X * XX + a * (X * ZZ % p) + b * (Z * ZZ % p)) % p) % p
    return XD, ZD


def _ladder(k, X, Z, a, b, b4, b8, p):
    """x(k*Q) and x((k+1)*Q) for x(Q) = (X : Z) and k >= 0, lane by lane;
    order_lanes takes its first two giant rows k0*s*P and (k0+1)*s*P from it.

    Montgomery ladder on (R0, R1) with R1 - R0 = Q throughout: a lane
    whose bit is set works on the swapped pair, and a swap is applied
    where the bit changes.  Leading zero bits keep R0 at infinity, so
    lanes of different bit lengths share one loop.
    """
    X0, Z0 = np.ones_like(p), np.zeros_like(p)
    X1, Z1 = X, Z
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


def _recover(x, xq, xn, at_inf, a, b, p):
    """2*c*y*y_Q for points (x, y), Q = (xq, y_Q) of c*y^2 = x^3 + a*x + b,
    lane by lane, from xn = x(Q + (x, y)), or at_inf where that is infinity:
    Okeya and Sakurai's y-recovery (CHES 2001) in Brier and Joye's form."""
    d = (x - xq) % p
    num = (2 * b + (a + x * xq % p) * (x + xq) % p - xn * (d * d % p)) % p
    return np.where(at_inf, -2 * ((x * x % p + a) * x % p + b) % p, num)


def _affine(X, Z, p):
    """Affine x = X/Z of every row of the (rows x lanes) arrays X and Z,
    written over X, with one Fermat inversion per lane (Montgomery's
    simultaneous inversion: each row times the product of the Zs above it
    on the way down, times the inverse of the product of the Zs up to it
    on the way back up).  A row at infinity, Z = 0, comes out as X.  Z is
    overwritten."""
    Z[Z == 0] = 1
    run = np.ones_like(p)
    for r in range(len(Z)):
        X[r] = X[r] * run % p
        run = run * Z[r] % p
    inv = _powmod(run, p - 2, p)  # 1 / (product of every Z)
    for r in range(len(Z) - 1, -1, -1):
        X[r] = X[r] * inv % p
        inv = inv * Z[r] % p


def _isqrt(n):
    """floor(sqrt(n)) lane by lane, for 0 <= n < 2^52."""
    r = np.sqrt(n.astype(np.float64)).astype(np.int64)
    r -= r * r > n
    return r + ((r + 1) * (r + 1) <= n)


def cubic_roots(p, a, b):
    """The number of roots of x^3 + a*x + b in F_p, 0, 1 or 3, lane by
    lane, for int64 arrays p, a and b with 5 <= p < 2^30, 0 <= a, b < p
    and a cubic of nonzero discriminant.

    Frobenius permutes the three roots, as a transposition exactly when
    the discriminant -4a^3 - 27b^2 is a nonsquare: then one is rational.
    A square discriminant leaves 0 or 3, and 3 exactly when x^p = x
    modulo the cubic (_power).  E(F_p)[2] is the identity and the
    points (e, 0), so 4 | N with three roots, N is even with one and odd
    with none, for the curve and its twist alike.
    """
    disc = (-4 * (a * a % p * a % p) - 27 * (b * b % p)) % p
    square = _powmod(disc, (p - 1) // 2, p) == 1
    roots = np.where(square, 0, 1)
    sq = np.flatnonzero(square)
    ps, zero = p[sq], np.zeros(len(sq), dtype=np.int64)
    c0, c1, c2 = _power((zero, zero + 1, zero), ps, ps, ((1, a[sq]), (0, b[sq])))
    roots[sq[(c0 == 0) & (c1 == 1) & (c2 == 0)]] = 3
    return roots


def on_lanes(p):
    """Which of the int64 primes p < 2^30 the lanes serve: p >= 229."""
    return p >= _MIN_BSGS_P


def order_lanes(p, a, b, roots) -> tuple:
    """Group orders N of y^2 = x^3 + a*x + b over F_p, lane by lane,
    proved on int64 lanes, or 0 where the lane is refused, and the
    annihilators the lanes proved, as arrays (N, lane, orders).  p, a and
    b are int64 arrays with p < 2^30 and 0 <= a, b < p, and roots is
    cubic_roots(p, a, b); lanes need p >= 229 (on_lanes), and the others
    are refused.

    Lane i takes the first x0 = 1, 2, ... with c = x0^3 + a*x0 + b != 0
    and the point P = (x0*c, c^2) of E_c: y^2 = x^3 + a*c^2*x + b*c^3,
    the curve when c is a square and its quadratic twist otherwise, with
    no square root taken; E_c's x-only law is the curve's, x scaled by c,
    and the twist's order 2p + 2 - N lies in the same Hasse window
    [p+1-B, p+1+B].  E_c's cubic has the roots c*e_i of the curve's, so
    its order, like the curve's, is r (mod t): (t, r) = (4, 0) for three
    roots, (2, 0) for one and (2, 1) for none.  The search therefore
    finds only the n = r (mod t) in the window with n*P = infinity, by
    baby-step giant-step on x alone: baby rows x(v_j*P), v_j = t*j (r =
    0) or 2j - 1 (r = 1), stepping by t*P, and giant rows x(k*S*P) with S
    a multiple of t, whose tiles k*S - v_j .. k*S + v_j meet end to end,
    matched by x.  That is about 1/sqrt(t) of the rows of an
    unrestricted search of this form.  A match (k, j)
    means k*S*P = +-v_j*P, and y-recovery from the next rows' x (Okeya
    and Sakurai, CHES 2001, in Brier and Joye's Weierstrass form, PKC
    2002) against the reference point t*P proves which, so each
    candidate k*S -+ v_j kept, and k*S for a giant row at infinity
    where r = 0 (S is even), annihilates P.  A lane is accepted only
    when exactly one annihilator of the class lies in the window: since
    every one shows up as a candidate, that one is the curve's (or the
    twist's) group order.
    A lane whose baby rows prove the order of P lists the annihilators of
    the class in its window from that order instead: the first baby row
    at infinity, j1, gives ord(t*P) = j1 (r = 0) or ord(P) = 2*j1 - 1 (r
    = 1), and with none, S*P at infinity gives ord(t*P) = S/t (r = 0).
    Such a lane stays refused only if that list is longer than lane_rows
    of its own p.  Other lanes where a used multiple of P is at infinity,
    two baby rows share an x, a row degenerates to (0 : 0), t*P or S*P
    has order 2, or the window holds several annihilators of the class
    are refused.  Nothing in a lane depends on the others.

    A lane accepted, or refused only for several annihilators, lists every
    annihilator of its class in its window in orders, read as a curve
    order (2p + 2 - n where its point lies on the twist): the multiples
    of the point's order that are r (mod t), a progression that holds
    the curve's order, and weed_orders' input.  The other lanes list
    none.
    """
    N = np.zeros(len(p), dtype=np.int64)
    idx = np.flatnonzero(on_lanes(p))
    if not len(idx):
        return N, idx, idx
    q = p[idx]
    lane, n, refused, twist = _window_annihilators(q, a[idx], b[idx], roots[idx])
    lane, n = lane[~refused[lane]], n[~refused[lane]]
    orders = np.where(twist[lane], 2 * q[lane] + 2 - n, n)
    single = (np.bincount(lane, minlength=len(q)) == 1)[lane]
    N[idx[lane[single]]] = orders[single]
    return N, idx[lane], orders


def lane_rows(p: int) -> int:
    """The rows per coordinate that _window_annihilators allocates for a
    block whose largest prime is p: baby rows 0 .. m+1, giant rows 0 .. K
    and the rows S*P and S*P + R.  A lane's m = isqrt(B // t) + 1, B =
    isqrt(4p), is largest at t = 2, and its rows_k <= m + 2 in all three
    classes (2B + 2w < (m + 1.5) * S), so a block uses at most 2m + 7 rows
    for t = 2's m at its largest p, a bound that grows with p."""
    return 2 * math.isqrt(math.isqrt(4 * p) // 2) + 9


def _window_annihilators(p, a, b, roots):
    """order_lanes' search, 229 <= p < 2^30: every n = r (mod t) in the
    window with n*P = infinity, proved, as arrays (lane, n), and per lane
    whether it is refused (its n then prove nothing) and whether P lies on
    the twist.  Rows live in one (lane_rows x lanes) buffer per
    coordinate, of which the first M + K + 5 are used, made affine in
    place."""
    b4, b8 = 4 * b % p, 8 * b % p
    odd = roots == 0  # N is odd: the n are the odd numbers
    t = np.where(roots == 3, 4, 2)
    B = _isqrt(4 * p)
    m = _isqrt(B // t) + 1
    nb = np.where(odd, m, m - 1)  # baby rows j = 1 .. nb are used
    w = np.where(odd, 2 * m - 1, t * (m - 1))  # v_nb
    S = 2 * w + t  # giant stride: the tiles k*S - w .. k*S + w meet end to end
    lo, hi = p + 1 - B, p + 1 + B
    k0 = (lo - w + S - 1) // S  # the giant rows k0 .. k1 tile the window
    rows_k = (hi + w) // S - k0 + 1
    L, M, K = len(p), int(m.max()), int(rows_k.max())
    lane = np.arange(L)
    one = np.ones_like(p)

    x0 = one
    c = (x0 + a + b) % p
    while not c.all():  # at most three roots, so x0 <= 4
        x0 = np.where(c == 0, x0 + 1, x0)
        c = (x0 * x0 * x0 + a * x0 + b) % p
    twist = _powmod(c, (p - 1) // 2, p) == p - 1

    # the reference point R = t*P, made affine by one inversion per lane
    X2, Z2 = _xdbl(x0, one, a, b, b8, p)
    X4, Z4 = _xdbl(X2, Z2, a, b, b8, p)
    RX, RZ = np.where(t == 4, X4, X2), np.where(t == 4, Z4, Z2)
    refused = RZ == 0
    xR = RX * _powmod(np.where(refused, 1, RZ), p - 2, p) % p

    # rows: baby 0 .. M+1, giant 0 .. K, then S*P and S*P + R
    rows = lane_rows(int(p.max()))
    X = np.empty((rows, L), np.int64)[:M + K + 5]
    Z = np.empty((rows, L), np.int64)[:M + K + 5]
    BX, BZ, GX, GZ = X[:M + 2], Z[:M + 2], X[M + 2:-2], Z[M + 2:-2]
    # baby row j is v_j*P, so row j + 1 = row j + R with difference row j - 1;
    # row 0 is v_0*P = infinity, or -P where r = 1, and row 2 doubles R where r = 0
    BX[0], BZ[0] = np.where(odd, x0, 1), odd
    BX[1], BZ[1] = np.where(odd, x0, xR), 1
    DX, DZ = _xdbl(xR, one, a, b, b8, p)
    AX, AZ = _xadd(BX[1], BZ[1], xR, None, BX[0], BZ[0], a, b4, p)
    BX[2], BZ[2] = np.where(odd, AX, DX), np.where(odd, AZ, DZ)
    for j in range(2, M + 1):
        BX[j + 1], BZ[j + 1] = _xadd(BX[j], BZ[j], xR, None, BX[j - 1], BZ[j - 1], a, b4, p)
    j_row = np.arange(M + 2)[:, None]
    b_inf = (BZ == 0) & (j_row >= 1) & (j_row <= nb + 1)
    small = b_inf.any(axis=0)  # ord(P) small
    refused |= small

    # S*P = row nb+1 + row nb, difference R; S*P + R = 2 * row nb+1;
    # k0*S*P and (k0+1)*S*P by one ladder
    UX, UZ, VX, VZ = BX[nb + 1, lane], BZ[nb + 1, lane], BX[nb, lane], BZ[nb, lane]
    SX, SZ = _xadd(UX, UZ, VX, VZ, xR, one, a, b4, p)
    X[-1], Z[-1] = _xdbl(UX, UZ, a, b, b8, p)
    X[-2], Z[-2] = SX, SZ
    refused |= SZ == 0
    DX, DZ = _xdbl(SX, SZ, a, b, b8, p)
    GX[0], GZ[0], GX[1], GZ[1] = _ladder(k0, SX, SZ, a, b, b4, b8, p)
    for r in range(2, K + 1):
        # G_r = G_(r-1) + S*P, difference G_(r-2); after a row at infinity
        # the chain restarts: the next two rows are S*P and 2*S*P
        GXr, GZr = _xadd(GX[r - 1], GZ[r - 1], SX, SZ, GX[r - 2], GZ[r - 2], a, b4, p)
        restart = GZ[r - 2] == 0
        GX[r], GZ[r] = np.where(restart, DX, GXr), np.where(restart, DZ, GZr)
    k_row = np.arange(K + 1)[:, None]
    g_live = k_row < rows_k  # rows k0 .. k1; the row after each recovers its y
    refused |= ((k_row <= rows_k) & (GX == 0) & (GZ == 0)).any(axis=0)
    g_inf, t_inf = GZ == 0, Z[-1] == 0

    _affine(X, Z, p)
    del Z, BZ, GZ  # the matching needs x alone
    bx, gx, sx, tx = BX, GX, X[-2], X[-1]

    # match giant x against baby x through sorted keys lane * 2^30 + x,
    # each carrying its row below (rows < 2^9); taken lane by lane, so
    # the sorts only order x within each lane
    lane_hi = (lane << 30)[:, None]
    used = (j_row[1:M + 1] <= nb).T
    b_keys = np.sort((((lane_hi + bx[1:M + 1].T) << 9) + j_row[1:M + 1].T)[used])
    b_x, b_j = b_keys >> 9, b_keys & 511
    refused[b_x[1:][b_x[1:] == b_x[:-1]] >> 30] = True  # two baby rows share an x
    g_keys = np.sort((((lane_hi + gx.T) << 9) + k_row.T)[(g_live & ~g_inf).T])
    g_x = g_keys >> 9
    pos = np.minimum(np.searchsorted(b_x, g_x), len(b_x) - 1)
    match = b_x[pos] == g_x
    ml, j, r = g_x[match] >> 30, b_j[pos[match]], g_keys[match] & 511
    ks = (k0[ml] + r) * S[ml]
    v = np.where(odd[ml], 2 * j - 1, t[ml] * j)

    # nS, nJ, nG = 2c*y*y_Q of (R, S*P), (R, v_j*P), (S*P, G), for P = (x0, 1)
    # on c*y^2 = x^3 + a*x + b, the model of E_c with x scaled back by c:
    # with f(x_R) = c*y_R^2, G = +-v_j*P iff 2f(x_R)*nG = +-nS*nJ, so a v_j*P
    # of order 2 passes both, and nS = 0 (R or S*P of order 2) anything
    nS = _recover(xR, sx, tx, t_inf, a, b, p)
    refused |= nS == 0
    f2 = 2 * ((xR * xR % p + a) * xR % p + b) % p
    pl = p[ml]
    nJ = _recover(xR[ml], bx[j, ml], bx[j + 1, ml], False, a[ml], b[ml], pl)
    nG = _recover(sx[ml], gx[r, ml], gx[r + 1, ml], g_inf[r + 1, ml], a[ml], b[ml], pl)
    lhs, rhs = f2[ml] * nG % pl, nS[ml] * nJ % pl
    plus, minus = lhs == rhs, lhs == (pl - rhs) % pl
    o_row, o_lane = np.nonzero(g_live & g_inf & ~odd)  # k*S is even: not odd N's class
    cand_lane = np.concatenate([ml[plus], ml[minus], o_lane])
    cand = np.concatenate([ks[plus] - v[plus], ks[minus] + v[minus],
                           (k0[o_lane] + o_row) * S[o_lane]])

    # a lane whose rows prove the order of P lists its class annihilators, a
    # progression, in place of its matches: the first baby row j1 at infinity
    # (the rows before it are sound) gives ord(R) = j1 (r = 0) or ord(P) =
    # 2*j1 - 1 (r = 1, odd multiples); with none, S*P = (2*nb + 1)*R at
    # infinity gives ord(R) = 2*nb + 1, its one divisor above nb + 1 (r = 0).
    # A progression longer than lane_rows of the lane's own p stays refused
    j1 = b_inf.argmax(axis=0)
    step = np.where(small, np.where(odd, 4 * j1 - 2, t * j1), S)
    off = np.where(odd, step // 2, 0)
    first = off - (off - lo) // step * step
    count = np.maximum((hi - first) // step + 1, 0)
    prog = (RZ != 0) & (small | (SZ == 0) & ~odd) & (count <= 2 * _isqrt(B // 2) + 9)
    if (count[prog] == 0).any():  # the order of P's own curve is a class annihilator
        raise AmbiguityExhausted(f"no class annihilator at p = {p[prog & (count == 0)][0]}")
    pl = np.repeat(lane[prog], count[prog])
    pn = first[pl] + step[pl] * (np.arange(len(pl)) - np.searchsorted(pl, pl))
    keep = (cand >= lo[cand_lane]) & (cand <= hi[cand_lane]) & ~prog[cand_lane]
    return (np.concatenate([cand_lane[keep], pl]), np.concatenate([cand[keep], pn]),
            refused & ~prog, twist)


def weed_orders(p, a, b, lane, orders) -> tuple:
    """The candidate orders of the lanes order_lanes refuses for several
    annihilators that one point of the curve and one of its quadratic
    twist leave, as arrays (lane, orders) in the order given.  lane
    indexes p, a and b, and orders lists each lane's candidates, read as
    curve orders: a progression that holds N.

    Each lane's curve point is the first x of _WEED_X with x^3 + a*x + b
    a nonzero square, and its twist point the first with it a nonsquare,
    by one Legendre symbol each: the points of c*y^2 = x^3 + a*x + b,
    whose x-only law is the curve's for every c, so no square root is
    taken.  A candidate n is kept when n annihilates the curve point and
    2p + 2 - n the twist point, by one _ladder call over every (candidate,
    point) pair.  N annihilates every curve point and 2p + 2 - N every
    twist point, so N is always kept and a lane left with one candidate
    has its order; what is kept is again a progression.  A side with no
    point among _WEED_X keeps everything.  Raises AmbiguityExhausted
    where a lane keeps nothing, so N was not among its candidates.
    """
    ids, pos = np.unique(lane, return_inverse=True)
    q, x = p[ids], _WEED_X[:, None]
    f = ((x * x % q + a[ids]) * x + b[ids]) % q
    rows = len(_WEED_X)
    chi = _powmod(f.ravel(), np.tile((q - 1) // 2, rows), np.tile(q, rows)).reshape(f.shape)
    pairs, xs, ks = [], [], []
    for hit, k in ((chi == 1, orders), (chi == q - 1, 2 * p[lane] + 2 - orders)):
        i = np.flatnonzero(hit.any(axis=0)[pos])
        pairs.append(i)
        xs.append(_WEED_X[hit.argmax(axis=0)][pos[i]])
        ks.append(k[i])
    i, x, k = (np.concatenate(v) for v in (pairs, xs, ks))
    pl, al, bl = p[lane[i]], a[lane[i]], b[lane[i]]
    Z = _ladder(k, x, np.ones_like(x), al, bl, 4 * bl % pl, 8 * bl % pl, pl)[1]
    keep = np.ones(len(lane), dtype=bool)
    keep[i[Z != 0]] = False
    lost = np.setdiff1d(ids, lane[keep])
    if len(lost):
        raise AmbiguityExhausted(f"no candidate order is left at p = {p[lost[0]]}")
    return lane[keep], orders[keep]


def trace_block(p, a, b, roots, threshold: int = 0) -> tuple:
    """Group orders N of y^2 = x^3 + a*x + b over F_p, lane by lane, and
    the path each took, an index into PATHS: the character sum below p =
    229, or below a larger threshold, the lanes from there on, and
    order_bsgs for every lane they leave.  The lanes are order_lanes, and
    weed_orders for those it refuses only because the window holds
    several annihilators of their class, matched or read off a small
    order; a lane weed_orders leaves with several candidates goes to
    order_bsgs too.  p, a, b and roots are as for order_lanes; a
    ReducedCurve is built only for the two scalar paths."""
    naive = p < max(threshold, _MIN_BSGS_P)
    N, lane, orders = order_lanes(np.where(naive, 0, p), a, b, roots)  # p = 0: no lane
    several = N[lane] == 0
    lane, orders = weed_orders(p, a, b, lane[several], orders[several])
    single = (np.bincount(lane, minlength=len(p)) == 1)[lane]
    N[lane[single]] = orders[single]
    path = np.where(naive, 0, np.where(N == 0, 2, 1))
    for i in np.flatnonzero(path != 1).tolist():
        C = ReducedCurve(int(p[i]), int(a[i]), int(b[i]))
        N[i] = (trace_naive(C) if naive[i] else order_bsgs(C)).N
    return N, path
