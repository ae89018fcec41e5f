"""Invariant factors (d, e) of the point group: E(F_p) = Z/d x Z/e, d | e.

The exponent is settled one prime l | N at a time.  With k = v_l(N) and
a = v_l(d), the l-Sylow subgroup is Z/l^a x Z/l^(k-a), and the
constraints d^2 | N, d | p-1 and d | a_p-2 bound a from above; at l = 2
the discriminant of the cubic fixes whether a >= 1.  Usually that leaves
one admissible a and costs no group operation.  Otherwise the l-Sylow
subgroup, which is tiny, is resolved directly (after Sutherland,
"Structure computation and discrete logarithms in finite abelian
p-groups", Math. Comp. 2011): a point Q1 of order l^b1 and a point R
whose multiple l^j*R first lies in <Q1> at j = k - b1 generate the whole
subgroup, which proves that its exponent is l^b1.  Randomness only
affects the cost, never the answer (Las Vegas).  A full-enumeration
oracle (structure_bruteforce) provides an independent answer at small p.
"""

import math
from collections import defaultdict
from dataclasses import dataclass

from .curve import INFINITY, ReducedCurve, add, neg, random_point, scalar_mul
from .modarith import factorize, legendre

_MAX_DRAWS = 100  # per l-Sylow subgroup; a handful are expected
_BRUTEFORCE_CAP = 5000


class NotAnnihilated(RuntimeError):
    """l^k does not annihilate the l-Sylow subgroup: N upstream is wrong."""


class StructureUnverified(RuntimeError):
    """No structure consistent with N could be proved; an upstream bug."""


@dataclass(frozen=True)
class GroupStructure:
    """Per-prime record (p, a_p, N, d_p, e_p); construction re-proves
    every divisibility constraint and refuses to exist otherwise."""

    p: int
    a_p: int
    N: int
    d_p: int
    e_p: int

    def __post_init__(self):
        bad = self.violations()
        if bad:
            raise StructureUnverified(
                f"p = {self.p}: invariant(s) violated: {', '.join(bad)}")

    def violations(self):
        p, a, N, d, e = self.p, self.a_p, self.N, self.d_p, self.e_p
        if d < 1 or e < 1:
            return ["d, e >= 1"]
        bad = []
        if d * e != N:
            bad.append("d*e = N")
        if e % d:
            bad.append("d | e")
        if (p - 1) % d:
            bad.append("d | p-1")
        if (p + 1 - a) % (d * d):
            bad.append("d^2 | p+1-a")
        if (a - 2) % d:
            bad.append("a = 2 (mod d)")
        if e != (p + 1 - a) // d:
            bad.append("e = (p+1-a)/d")
        if d > math.isqrt(4 * p):
            bad.append("d <= 2*sqrt(p)")
        return bad


def has_full_two_torsion(C: ReducedCurve, N: int) -> bool:
    """True iff the cubic splits completely, i.e. 2 | d.

    N even means the cubic has a root in F_p.  Frobenius permutes the
    other two roots, and fixes them exactly when the discriminant
    -4a^3 - 27b^2 is a square.
    """
    return N % 2 == 0 and legendre(-4 * C.a ** 3 - 27 * C.b ** 2, C.p) == 1


def _valuation(n: int, l: int, cap: int) -> int:
    """min(v_l(n), cap); n = 0 is divisible by every power of l."""
    v = 0
    while v < cap and n % l == 0:
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
    given that S is Z/l^a x Z/l^(k-a) with a >= a_min.

    Q1 is the point of largest order l^b1 drawn so far, so b1 <= k - a.
    Equality is proved when b1 = k - a_min, or when a point R of order
    at most l^b1 has l^j*R outside <Q1> for every j < k - b1: then
    #<Q1, R> = l^k, so Q1 and R generate S and exp(S) = l^b1.
    """
    cofactor = N // l ** k
    top = None
    for _ in range(_MAX_DRAWS):
        chain = _l_chain(scalar_mul(cofactor, random_point(C, rng), C), l, k, C)
        if top is None or len(chain) > len(top):
            top, chain = chain, top
        b1 = len(top)
        if b1 == k - a_min:
            return b1
        if chain and b1 + _index_outside(chain, top, l, C) == k:
            return b1
    raise StructureUnverified(
        f"{l}-Sylow subgroup unresolved after {_MAX_DRAWS} draws at p = {C.p}")


def exponent_sampling(C: ReducedCurve, N: int, factorization, rng) -> int:
    """The exponent e of E(F_p), given the group order N and its
    factorization, proved one prime l | N at a time.

    The l-part is l^(k-a) with a = v_l(d) admissible: a <= k/2,
    l^a | p-1 and l^a | a_p-2, and at l = 2, a >= 1 iff the 2-torsion is
    rational.  A single admissible a needs no draws; otherwise the
    l-Sylow subgroup decides.
    """
    p = C.p
    a_p = p + 1 - N
    e = 1
    for l, k in factorization:
        a_min = 0
        a_max = min(_valuation(p - 1, l, k // 2), _valuation(a_p - 2, l, k // 2))
        if l == 2:
            if has_full_two_torsion(C, N):
                a_min = 1
            else:
                a_max = 0
        if a_min > a_max:
            raise StructureUnverified(f"p = {p}: no {l}-Sylow structure fits N = {N}")
        if a_min == a_max:
            e *= l ** (k - a_max)
        else:
            e *= l ** _sylow_exponent(C, N, l, k, a_min, rng)
    return e


def group_structure(C: ReducedCurve, T, rng) -> GroupStructure:
    """(d, e) for the trace result T; construction re-proves every
    invariant, so a violation means a bug upstream and is raised."""
    N = T.N
    e = exponent_sampling(C, N, factorize(N), rng)
    return GroupStructure(C.p, T.a_p, N, N // e, e)


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
