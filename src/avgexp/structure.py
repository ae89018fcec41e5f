"""Invariant factors (d, e) of the point group: E(F_p) = Z/d x Z/e, d | e.

The Weil pairing gives d | p-1 and Frobenius fixing E[d] gives d | a_p-2, so
d | g = gcd(p-1, a_p-2), and g | N = (p-1) - (a_p-2); as p is odd, N is even
exactly when 2 | g.  The exponent is thus settled one prime l | g at a time,
and N is never factored.  With k = v_l(N) and a = v_l(d), the l-Sylow
subgroup is Z/l^a x Z/l^(k-a), a <= k/2 and a <= v_l(g); at l = 2 the
discriminant of the cubic fixes whether a >= 1.  Usually that leaves one
admissible a and costs no group operation.  settle keeps, for a whole
block of lanes at once, one table of the a each small l | g still allows,
and narrows it in three steps, since l^(a+1) | d iff E[l^(a+1)] lies in
E(F_p): at l = 2 with 1 <= a, whether E[4] does, from the quartic
character of the discriminant and the squares f'(ei) (f'^((p-1)/2) modulo
the cubic; Miret, Moreno, Rio and Valls, "Determining the 2-Sylow subgroup
of an elliptic curve over a finite field", Math. Comp. 2005); at l = 3
with 3 | g, where Frobenius is unipotent on E[3], whether E[3] does, from
x^p = x modulo psi_3; and where a is still open, by resolving the l-Sylow
subgroup, which is tiny, directly (after Sutherland, "Structure
computation and discrete logarithms in finite abelian p-groups", Math.
Comp. 2011): a point Q1 of order l^b1 and a point R whose multiple l^j*R
first lies in <Q1> at j = k - b1 generate the whole subgroup, which proves
that its exponent is l^b1.  The lane rounds (_lane_sylow) run that proof
for every open (lane, l) pair of a block at once, on x alone, in a few
rounds of lane calls: x(l^j*R) at j = k - b1 - 1 against the x of the
multiples of Q1 of its order, with points whose x depends on p and the
draw index alone.  The pairs they leave open, and the open primes below
the lanes' floor, 229, go to exponent_sampling, starting from the table's
bounds; its points come from one stream random.Random(p) per prime, each
l taking the draws after the last l's.  Points affect only the cost,
never the answer (Las Vegas).  A full-enumeration oracle
(structure_bruteforce) provides an independent answer at small p.
"""

import math
import random
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .counting import _ladder, _power, _powmod, _xadd, _xdbl, lane_rows, on_lanes
from .curve import INFINITY, ReducedCurve, add, neg, random_point, scalar_mul
from .modarith import factorize, legendre, sieve_primes

_MAX_DRAWS = 100  # per l-Sylow subgroup; a handful are expected
_BRUTEFORCE_CAP = 5000
# The lane Sylow step draws _LANE_DRAWS points per open (lane, l) pair in
# each of at most _LANE_ROUNDS rounds and compares x(T) with at most
# _LANE_ROWS multiples of Q1.  A round runs for at least _LANE_MIN_PAIRS
# pairs: its fixed cost, ~2 ms, is what the scalar path takes for ~35
# open primes of generic1 near 5e4.  A pair it leaves open goes to the
# scalar path.
_LANE_DRAWS = 3
_LANE_ROUNDS = 3
_LANE_ROWS = 32
_LANE_MIN_PAIRS = 32
# splitmix64's multipliers, which spread (p, draw index) over the x of F_p
_MIX = tuple(np.uint64(c) for c in (0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB))


class NotAnnihilated(ArithmeticError):
    """l^k does not annihilate the l-Sylow subgroup: N upstream is wrong."""


class StructureUnverified(ArithmeticError):
    """No structure consistent with N could be proved; an upstream bug."""


@dataclass(frozen=True)
class GroupStructure:
    """Per-prime result (p, a_p, N, d_p, e_p); harness.record_violations
    checks the identities it must obey."""

    p: int
    a_p: int
    N: int
    d_p: int
    e_p: int


def has_full_two_torsion(C: ReducedCurve, N: int) -> bool:
    """True iff the cubic splits completely, i.e. 2 | d.

    N even means the cubic has a root in F_p.  Frobenius permutes the
    other two roots, and fixes them exactly when the discriminant
    -4a^3 - 27b^2 is a square.
    """
    return N % 2 == 0 and legendre(-4 * C.a ** 3 - 27 * C.b ** 2, C.p) == 1


def _valuation(n: int, l: int) -> int:
    """v_l(n) for n > 0."""
    v = 0
    while n % l == 0:
        n //= l
        v += 1
    return v


def _l_chain(Q, l: int, k: int, C: ReducedCurve) -> list:
    """[Q, l*Q, ..., l^(b-1)*Q] for Q of order l^b.

    Raises NotAnnihilated when b > k, i.e. l^k*Q is not the identity.
    """
    chain = []
    while Q is not INFINITY:
        if len(chain) == k:
            raise NotAnnihilated(
                f"{l}^{k} does not annihilate the {l}-part of a point at p = {C.p}")
        chain.append(Q)
        Q = scalar_mul(l, Q, C)
    return chain


def _log_base(Y, G, l: int, C: ReducedCurve):
    """t in [0, l) with Y = t*G for G of prime order l, or None."""
    if Y is INFINITY:
        return 0
    T = G
    for t in range(1, l // 2 + 1):  # t*G and -t*G share their x
        if T[0] == Y[0]:
            return t if T[1] == Y[1] else l - t
        T = add(T, G, C)
    return None


def _index_outside(R_chain: list, Q_chain: list, l: int, C: ReducedCurve) -> int:
    """Least j with l^j*R in <Q>, where ord(R) <= ord(Q).

    Pohlig-Hellman digits: Z_i = l^(r-i)*R lies in <Q> iff it is a
    multiple m_i of H_i = l^(b-i)*Q, and then m_i = m_(i-1) + t*l^(i-1)
    with Z_i - m_(i-1)*H_i = t*G, G = l^(b-1)*Q of order l.
    """
    r, b = len(R_chain), len(Q_chain)
    G = Q_chain[-1]
    m = 0
    for i in range(1, r + 1):
        H = Q_chain[b - i]
        Y = add(R_chain[r - i], neg(scalar_mul(m, H, C), C), C)
        t = _log_base(Y, G, l, C)
        if t is None:
            return r - i + 1
        m += t * l ** (i - 1)
    return 0


def _sylow_exponent(C: ReducedCurve, N: int, l: int, k: int, a_min: int, rng) -> int:
    """b with exp(S) = l^b for the l-Sylow subgroup S of order l^k,
    given that S is Z/l^a x Z/l^(k-a) with a >= a_min, from points of rng.

    Q1 is the point of largest order l^b1 projected so far, so b1 <= k -
    a.  Equality is proved when b1 = k - a_min, or when a point R of
    order at most l^b1 has l^j*R outside <Q1> for every j < k - b1: then
    #<Q1, R> = l^k, so Q1 and R generate S and exp(S) = l^b1.  Both
    proofs are exact, so an unlucky stream costs draws, never a wrong b.
    """
    cofactor = N // l ** k
    top = None
    for _ in range(_MAX_DRAWS):
        chain = _l_chain(scalar_mul(cofactor, random_point(C, rng), C), l, k, C)
        if top is None or len(chain) > len(top):
            top, chain = chain, top
        b1 = len(top)
        if b1 == k - a_min or (chain and b1 + _index_outside(chain, top, l, C) == k):
            return b1
    raise StructureUnverified(
        f"{l}-Sylow subgroup unresolved after {_MAX_DRAWS} draws at p = {C.p}")


def exponent_sampling(C: ReducedCurve, N: int, lo: int = 1, hi: int = 0) -> int:
    """The exponent e = N/d of E(F_p), given the group order N, proved
    one prime l | g = gcd(p-1, a_p-2) at a time.

    v_l(d) is an admissible a: a <= v_l(N)/2, a <= v_l(g), and at l = 2,
    a >= 1 iff the 2-torsion is rational.  Divisibilities lo | d | hi
    proved elsewhere (settle's bounds; hi = 0 for none) narrow it to
    v_l(lo) <= a <= v_l(hi).  A single admissible a needs no draws;
    otherwise the l-Sylow subgroup decides, from points of the stream
    random.Random(p), each l drawing on where the last one stopped.
    """
    p = C.p
    g = math.gcd(p - 1, p - 1 - N)  # a_p - 2 = p - 1 - N
    hi = math.gcd(g, hi)
    rng = random.Random(p)
    d = 1
    for l, _ in factorize(g):
        k = _valuation(N, l)
        a_min = _valuation(lo, l)
        a_max = min(_valuation(hi, l), k // 2)
        if l == 2 and not a_min:
            if has_full_two_torsion(C, N):
                a_min = 1
            else:
                a_max = 0
        if a_min > a_max:
            raise StructureUnverified(f"p = {p}: no {l}-Sylow structure fits N = {N}")
        if a_min == a_max:
            d *= l ** a_max
        else:
            d *= l ** (k - _sylow_exponent(C, N, l, k, a_min, rng))
    return N // d


def _full_three_torsion(p, a, b):
    """Whether E[3] lies in E(F_p), lane by lane, where p = 1 (mod 3) and
    a_p = 2 (mod 3), i.e. 3 | g; 0 <= a, b < p < 2^30.

    Frobenius then has characteristic polynomial (X - 1)^2 on E[3], so it
    is unipotent: the identity, or a transvection that fixes one line of
    E[3] and moves the other three.  It fixes the x of a point of order 3
    exactly when it fixes the point's line, so E[3] lies in E(F_p) iff it
    fixes all four x, the roots of psi_3 = 3x^4 + 6a*x^2 + 12b*x - a^2,
    i.e. iff x^p = x modulo psi_3 / 3 (1/3 = (2p + 1)/3 mod p).  One
    power decides, with no square test at the roots (compare Miret,
    Moreno, Rio and Valls, "Computing the l-power torsion of an elliptic
    curve over a finite field", Math. Comp. 78, 2009).
    """
    psi = (2, 2 * a % p), (1, 4 * b % p), (0, -(a * a % p) * ((2 * p + 1) // 3) % p)
    zero, one = np.zeros_like(p), np.ones_like(p)
    c = _power((zero, one, zero, zero), p, p, psi)
    return (c[0] == 0) & (c[1] == 1) & (c[2] == 0) & (c[3] == 0)


def _full_four_torsion(p, a, b):
    """Whether E[4] lies in E(F_p), lane by lane, for f = x^3 + a*x + b
    with three roots e1, e2, e3 in F_p at p = 1 (mod 4); 0 <= a, b < p <
    2^30.

    (ei, 0) is halved in E(F_p) iff ei - ej and ei - ek are squares, so,
    as -1 is a square, E[4] lies in E(F_p) iff the three differences are
    (Miret, Moreno, Rio and Valls, 2005).  The roots themselves are never
    found.  f'(ei) = (ei - ej)(ei - ek) is a square at every root iff
    f'^((p-1)/2) = 1 modulo f, and that leaves the differences all
    squares or all nonsquares; their product is a square iff
    Delta^((p-1)/4) = 1 for the discriminant Delta = -4a^3 - 27b^2, its
    square, which rules out the second.  The polynomial power runs only
    where the discriminant passes.
    """
    disc = (-4 * (a * a % p * a % p) - 27 * (b * b % p)) % p
    full = _powmod(disc, (p - 1) // 4, p) == 1
    i = np.flatnonzero(full)
    zero = np.zeros(len(i), dtype=p.dtype)
    c = _power((a[i], zero, zero + 3), (p[i] - 1) // 2, p[i], ((1, a[i]), (0, b[i])))
    full[i] = (c[0] == 1) & (c[1] == 0) & (c[2] == 0)
    return full


def _draw_points(p, a, b, first):
    """x of up to _LANE_DRAWS points of E(F_p) a lane, as arrays (lane,
    x): among the candidates x = mix(p, c) mod p, c = first .. first +
    4*_LANE_DRAWS - 1, the first _LANE_DRAWS whose x^3 + a*x + b is a
    nonzero square, by one Legendre symbol each, so a point depends on p
    and c alone.  No square root is taken: the x-only law needs none."""
    c = first + np.arange(4 * _LANE_DRAWS)[:, None]
    p, a, b = (np.broadcast_to(v, (len(c), len(p))) for v in (p, a, b))
    h = p.astype(np.uint64) * _MIX[0] + c.astype(np.uint64) * _MIX[1]
    h ^= h >> np.uint64(31)
    h *= _MIX[2]
    h ^= h >> np.uint64(29)
    x = (h % p.astype(np.uint64)).astype(np.int64)
    f = ((x * x % p + a) * x + b) % p
    ok = (_powmod(f.ravel(), (p.ravel() - 1) // 2, p.ravel()) == 1).reshape(x.shape)
    ok &= np.cumsum(ok, axis=0) <= _LANE_DRAWS
    return np.nonzero(ok.T)[0], x.T[ok.T]


def _l_chains(X, Z, l, steps, a, b, b4, b8, p):
    """Rows x(l^i*Q), i = 0 .. max(steps), from x(Q) = (X : Z), lane by
    lane, as (rows x lanes) arrays whose rows past a lane's steps are
    unset, and b with ord(Q) = l^b, or -1 where a row is (0 : 0), a
    degenerate ladder, which proves nothing.  The lanes come in ascending
    l; l^i*Q takes one _xdbl at l = 2, _xdbl and _xadd at l = 3, and a
    ladder otherwise, and a row at infinity stays there.  Raises
    NotAnnihilated where l^steps*Q is not infinity."""
    K, L = int(steps.max()), len(p)
    CX, CZ = np.empty((K + 1, L), np.int64), np.empty((K + 1, L), np.int64)
    CX[0], CZ[0] = X, Z
    n2, n3 = np.searchsorted(l, [3, 5]).tolist()
    tops = [int(steps[g].max(initial=0)) for g in (slice(0, n2), slice(n2, n3))]
    for i in range(K):
        X, Z = CX[i].copy(), CZ[i].copy()
        if i < tops[0]:
            g = slice(0, n2)
            X[g], Z[g] = _xdbl(X[g], Z[g], a[g], b[g], b8[g], p[g])
        if i < tops[1]:
            g = slice(n2, n3)
            DX, DZ = _xdbl(X[g], Z[g], a[g], b[g], b8[g], p[g])
            X[g], Z[g] = _xadd(DX, DZ, X[g], Z[g], X[g], Z[g], a[g], b4[g], p[g])
        # beyond l = 3, a ladder over the bits of the largest l whose chain goes on
        g = n3 + np.flatnonzero((steps[n3:] > i) & (CZ[i, n3:] != 0))
        if len(g):
            X[g], Z[g] = _ladder(l[g], X[g], Z[g], a[g], b[g], b4[g], b8[g], p[g])[:2]
        inf = CZ[i] == 0
        CX[i + 1], CZ[i + 1] = np.where(inf, CX[i], X), np.where(inf, 0, Z)
    live = np.arange(K + 1)[:, None] <= steps
    zero = (CZ == 0) & live
    bad = (zero & (CX == 0)).any(axis=0)
    wrong = ~bad & ~zero[steps, np.arange(L)]
    if wrong.any():
        i = wrong.argmax()
        raise NotAnnihilated(f"{l[i]}^{steps[i]} does not annihilate the {l[i]}-part "
                             f"of a point at p = {p[i]}, against N and settle's bounds")
    return CX, CZ, np.where(bad, -1, zero.argmax(axis=0))


def _outside(GX, GZ, n, TX, TZ, pos, a, b, b4, b8, p):
    """Whether x(T) differs from x(u*G) for every 0 < u <= n, for points
    G of order l^s > 2n, lane by lane, and points T on the lanes pos of
    G; a, b, b4, b8 and p are G's.  u*G = (u-1)*G + G with difference
    (u-2)*G, and x is compared as X_T*Z_u = X_u*Z_T."""
    out = np.ones(len(TX), dtype=bool)
    VX, VZ, WX, WZ = GX, GZ, GX, GZ
    for u in range(1, int(n.max(initial=0)) + 1):
        if u == 2:
            VX, VZ = _xdbl(GX, GZ, a, b, b8, p)
        elif u > 2:
            VX, VZ, WX, WZ = (*_xadd(VX, VZ, GX, GZ, WX, WZ, a, b4, p), VX, VZ)
        out &= (n[pos] < u) | ((VX[pos] * TZ - TX * VZ[pos]) % p[pos] != 0)
    return out


def _lane_sylow(p, a, b, N, l, k, a_min):
    """a = v_l(d) for (lane, l) pairs with a >= a_min, or -1 where the
    rounds leave it open: _sylow_exponent's proof, x-only, for every pair
    at once.

    Each round draws up to _LANE_DRAWS points P per open pair
    (_draw_points, from the candidates after the last round's).  Q =
    (N/l^k)*P comes from one ladder and the chain l^i*Q from _l_chains,
    up to l^(k - a_min), which bounds the exponent.  Q1, the point of
    largest order l^b1 so far, is carried to the next round.  b1 = k -
    a_min proves a = a_min.
    Otherwise, with A = k - b1, a point R of the round of order at least
    l^A proves a = A when T = l^(A-1)*R lies outside <Q1>: then no l^j*R
    with j < A lies in <Q1>, so #<Q1, R> = l^k.  T has order l^s, s =
    ord_l(R) - A + 1, and lies in <Q1> iff it is a multiple u*G of G =
    l^(b1-s)*Q1, 0 < u < l^s, i.e. iff x(T) is one of the x(u*G), u <=
    n = floor(l^s/2) (_outside).  Each pair tests its Rs of least s; a
    pair whose n would exceed _LANE_ROWS is left open, and so is every
    pair once a round would have fewer than _LANE_MIN_PAIRS."""
    b4, b8 = 4 * b % p, 8 * b % p
    m, steps, unset = N // l ** k, k - a_min, int(k.max()) + 1  # s <= steps < unset
    found, closed = np.full(len(p), -1), np.zeros(len(p), dtype=bool)
    QX, QZ, qb = np.zeros_like(p), np.zeros_like(p), np.full(len(p), -1)
    todo = np.arange(len(p))
    for r in range(_LANE_ROUNDS):
        if len(todo) < _LANE_MIN_PAIRS:
            break
        new, x = _draw_points(p[todo], a[todo], b[todo], 4 * _LANE_DRAWS * r)
        new = todo[new]
        X, Z = _ladder(m[new], x, np.ones_like(x), a[new], b[new], b4[new], b8[new], p[new])[:2]
        held = todo[qb[todo] >= 0]
        pair = np.concatenate([held, new])
        by_pair = np.argsort(pair, kind="stable")  # ascending l, a held Q1 first in its pair
        pair = pair[by_pair]
        X, Z = np.concatenate([QX[held], X])[by_pair], np.concatenate([QZ[held], Z])[by_pair]
        CX, CZ, order = _l_chains(X, Z, *(v[pair] for v in (l, steps, a, b, b4, b8, p)))
        # Q1, the first lane of largest order l^b1 in each pair
        srt = np.lexsort((-order, pair))
        q1 = srt[np.flatnonzero(np.r_[True, pair[srt][1:] != pair[srt][:-1]])]
        ids, b1 = pair[q1], order[q1]
        QX[ids], QZ[ids], qb[ids] = CX[0, q1], CZ[0, q1], b1
        direct = b1 == steps[ids]
        found[ids[direct]] = a_min[ids[direct]]
        # the Rs, the other lanes of order >= l^A in the pairs left, and their least s
        at = ids.searchsorted(pair)
        A = k[pair] - b1[at]
        s = np.where((order >= A) & ~direct[at] & (b1[at] >= 0), order - A + 1, unset)
        s[q1] = unset
        least = np.full(len(ids), unset)
        np.minimum.at(least, at, s)
        n = l[ids] ** np.minimum(least, 7) // 2  # l^7 / 2 > _LANE_ROWS
        closed[ids[(least < unset) & (n > _LANE_ROWS)]] = True
        R = np.flatnonzero((s == least[at]) & (n[at] <= _LANE_ROWS))
        t = np.unique(at[R])  # the pairs tested
        row, G, e = b1[t] - least[t], q1[t], ids[t]
        out = _outside(CX[row, G], CZ[row, G], n[t], CX[A[R] - 1, R], CZ[A[R] - 1, R],
                       t.searchsorted(at[R]), a[e], b[e], b4[e], b8[e], p[e])
        proved = ids[np.unique(at[R[out]])]
        found[proved] = k[proved] - qb[proved]
        todo = todo[(found[todo] < 0) & ~closed[todo]]
    return found


def settle(p, a, b, N, roots) -> tuple:
    """Bounds (lo, hi), lo | d | hi, on d for the curves y^2 = x^3 + a*x
    + b of order N over F_p whose cubics have the root counts roots
    (counting.cubic_roots), lane by lane, with lo = hi = d wherever d is
    decided here; p, a, b, N and roots are int64 arrays, 5 <= p < 2^30
    and 0 <= a, b < p.

    One table holds the (lane, l) pairs for the primes l <= 2*_LANE_ROWS
    + 1 that divide g = gcd(p-1, a_p-2), in ascending l, each with the
    range a_min .. a_max that a = v_l(d) may take: 0 .. min(v_l(g),
    v_l(N)/2), except at l = 2, where a = 0 unless the cubic splits (it
    has three roots) and a >= 1 if it does.  The part rest of g above
    2*_LANE_ROWS + 1 allows only a = 0 exactly when it is squarefree and
    prime to N/rest.  Its primes are at least 67 and rest < 2^30, so it
    is squarefree iff it is 1, or not a square and, from 67^3 on (only at
    a_p = 2), not q^2 * m with m >= 67 for an odd 67 <= q <= 4003 =
    isqrt(2^30 // 67); an odd composite q there has a prime factor below
    67, so q^2 divides no rest.  On a split cubic with a_max >= 2 at
    l = 2, E[4] lies in E(F_p) or not (_full_four_torsion): a >= 2 if
    so, a = 1 if not.  At l = 3 with a_max >= 1, E[3] does or not
    (_full_three_torsion): a >= 1 or a = 0.  Then _lane_sylow decides
    the pairs still open on the lanes that counting.on_lanes serves, p
    >= 229, in chunks whose chain rows fit the row cells of the block's
    order_lanes buffers, len(p) * lane_rows(max p), once there are
    _LANE_MIN_PAIRS of them.

    lo is the product of the l^a_min.  A lane is decided, hi = lo,
    unless rest fails its test, some pair has a_min > a_max, a split
    cubic has 4 not dividing N, or a pair is still open; then hi is the
    product of the l^a_max times rest, where the scalar path starts.
    """
    split = roots == 3
    g = np.gcd(p - 1, p - 1 - N)
    small = np.array(sieve_primes(2 * _LANE_ROWS + 1))
    which, lane = np.nonzero(g % small[:, None] == 0)  # in ascending l
    l = small[which]
    # v_l(n) is read off gcd(n, l^e), l^e the largest power of l below 2^62
    top = l ** (62 / np.log2(l)).astype(np.int64)
    v, k = (np.rint(np.log(np.gcd(n[lane], top)) / np.log(l)).astype(np.int64) for n in (g, N))
    two = (l == 2) & split[lane]
    a_min, a_max = two.astype(np.int64), np.where((l == 2) & ~two, 0, np.minimum(v, k // 2))
    rest = g.copy()
    np.floor_divide.at(rest, lane, l ** v)
    i = np.flatnonzero(two & (a_max >= 2))
    full = _full_four_torsion(p[lane[i]], a[lane[i]], b[lane[i]])
    a_min[i[full]], a_max[i[~full]] = 2, 1
    i = np.flatnonzero((l == 3) & (a_max >= 1))
    full = _full_three_torsion(p[lane[i]], a[lane[i]], b[lane[i]])
    a_min[i[full]], a_max[i[~full]] = 1, 0
    squarefree = (rest == 1) | (np.rint(np.sqrt(rest)) ** 2 != rest)
    big = rest >= 67 ** 3  # only at a_p = 2; below it, q^2 | rest makes rest = q^2
    squarefree[big] &= (rest[big, None] % np.arange(67, 4004, 2) ** 2 != 0).all(axis=1)
    scalar = ~squarefree | (np.gcd(rest, N // rest) > 1) | split & (N % 4 != 0)
    scalar[lane[a_min > a_max]] = True
    o = np.flatnonzero((a_min < a_max) & ~scalar[lane] & on_lanes(p[lane]))
    if len(o) >= _LANE_MIN_PAIRS:
        rows = (_LANE_DRAWS + 1) * (int((k[o] - a_min[o]).max()) + 1)  # the chain rows of a pair
        cells = len(p) * lane_rows(int(p.max()))
        for c in np.array_split(o, -(-len(o) * rows // cells)):
            j = lane[c]
            found = _lane_sylow(p[j], a[j], b[j], N[j], l[c], k[c], a_min[c])
            a_min[c[found >= 0]] = a_max[c[found >= 0]] = found[found >= 0]
    scalar[lane[a_min < a_max]] = True
    lo, hi = np.ones_like(g), rest
    np.multiply.at(lo, lane, l ** a_min)
    np.multiply.at(hi, lane, l ** a_max)
    return lo, np.where(scalar, hi, lo)


def group_structure(C: ReducedCurve, T, lo: int = 1, hi: int = 0) -> GroupStructure:
    """(d, e) for the trace result T, given lo | d | hi (exponent_sampling)."""
    e = exponent_sampling(C, T.N, lo, hi)
    return GroupStructure(C.p, T.a_p, T.N, T.N // e, e)


def structure_bruteforce(C: ReducedCurve) -> GroupStructure:
    """Independent oracle: enumerate every point, take the lcm of all
    element orders.  Self-contained group law; O(p)-ish memory, meant
    for p <= 5000."""
    p = C.p
    if p > _BRUTEFORCE_CAP:
        raise ValueError(f"brute force capped at p <= {_BRUTEFORCE_CAP}")
    a, b = C.a, C.b

    roots = defaultdict(list)
    for y in range(p):
        roots[y * y % p].append(y)
    points = []
    for x in range(p):
        rhs = (x * x % p * x + a * x + b) % p
        for y in roots.get(rhs, ()):
            points.append((x, y))
    N = len(points) + 1
    factorization = factorize(N)

    def padd(P, Q):
        if P is None:
            return Q
        if Q is None:
            return P
        x1, y1 = P
        x2, y2 = Q
        if x1 == x2:
            if (y1 + y2) % p == 0:
                return None
            s = (3 * x1 * x1 + a) * pow(2 * y1, p - 2, p) % p
        else:
            s = (y2 - y1) * pow(x2 - x1, p - 2, p) % p
        x3 = (s * s - x1 - x2) % p
        return (x3, (s * (x1 - x3) - y1) % p)

    def pmul(k, P):
        R = None
        while k:
            if k & 1:
                R = padd(R, P)
            P = padd(P, P)
            k >>= 1
        return R

    def order_of(P):
        o = N
        for q, _ in factorization:
            while o % q == 0 and pmul(o // q, P) is None:
                o //= q
        return o

    orders = {}
    for P in points:
        if P in orders:
            continue
        o = order_of(P)
        # label the whole cyclic subgroup: ord(k*P) = o / gcd(o, k)
        Q, k = P, 1
        while Q is not None:
            orders.setdefault(Q, o // math.gcd(o, k))
            Q = padd(Q, P)
            k += 1
    exponent = math.lcm(*orders.values()) if orders else 1
    return GroupStructure(p, p + 1 - N, N, N // exponent, exponent)
