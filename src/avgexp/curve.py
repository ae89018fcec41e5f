"""Short Weierstrass curves y^2 = x^3 + a*x + b over F_p and their group law.

Points are plain (x, y) tuples; the identity is the module constant
INFINITY (None).  add is the affine chord-tangent law, one inversion per
addition, which keeps the short chains of baby-step giant-step and of the
Sylow subgroups easy to audit.  scalar_mul works in Jacobian coordinates
and inverts once, at the end.
"""

from dataclasses import dataclass, field
from functools import cached_property

from .modarith import NotASquare, factorize, sqrt_mod

INFINITY = None


class BadReduction(ValueError):
    """Raised by reduce_curve at primes where the model degenerates."""


@dataclass(frozen=True)
class GlobalCurve:
    """Integer model y^2 = x^3 + a4*x + a6 over Q, of any size.

    A prime p is bad exactly when p < 5 or p divides disc; reduce_curve
    refuses those primes.  Nothing factors disc on the way.
    """

    a4: int
    a6: int
    label: str = ""
    disc: int = field(init=False)

    def __post_init__(self):
        disc = -16 * (4 * self.a4 ** 3 + 27 * self.a6 ** 2)
        if disc == 0:
            raise ValueError("singular model: discriminant is zero")
        object.__setattr__(self, "disc", disc)

    @cached_property
    def bad_primes(self) -> frozenset:
        """{2, 3} and every prime dividing disc, by factoring it, so only
        for |disc| < 2^40; a sweep tests p | disc directly instead."""
        return frozenset({2, 3} | {q for q, _ in factorize(abs(self.disc))})


@dataclass(frozen=True)
class ReducedCurve:
    p: int
    a: int
    b: int

    def __post_init__(self):
        if self.p < 5:
            raise ValueError(f"p = {self.p} < 5")
        if (4 * self.a ** 3 + 27 * self.b ** 2) % self.p == 0:
            raise ValueError(f"singular reduction at p = {self.p}")


def reduce_curve(E: GlobalCurve, p: int) -> ReducedCurve:
    """Reduce the global model mod p, or raise BadReduction.

    Primes 2 and 3 and divisors of the discriminant are rejected; the
    caller skips them (they contribute exponent 0).
    """
    if p < 5 or E.disc % p == 0:
        raise BadReduction(f"p = {p} is a bad prime for {E}")
    return ReducedCurve(p, E.a4 % p, E.a6 % p)


def neg(P, C: ReducedCurve):
    if P is INFINITY:
        return INFINITY
    x, y = P
    return (x, (-y) % C.p)


def add(P, Q, C: ReducedCurve):
    """Chord-tangent group sum of P and Q on C."""
    if P is INFINITY:
        return Q
    if Q is INFINITY:
        return P
    p = C.p
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return INFINITY
        s = (3 * x1 * x1 + C.a) * pow(2 * y1, -1, p) % p
    else:
        s = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (s * s - x1 - x2) % p
    return (x3, (s * (x1 - x3) - y1) % p)


def scalar_mul(k: int, P, C: ReducedCurve):
    """k*P; 0*P is the identity.

    Left-to-right double-and-add in Jacobian coordinates (X : Y : Z) for
    the affine (X/Z^2, Y/Z^3), Z = 0 at the identity, with P added in
    affine form (Cohen, Miyaji and Ono's mixed coordinates, ASIACRYPT
    1998), so the only inversion is the one back to affine at the end.
    Doubling a point of order 2 (Y = 0) gives Z = 0 by itself.
    """
    if k < 0:
        raise ValueError("negative scalar")
    if k == 0 or P is INFINITY:
        return INFINITY
    if k <= 2:  # P, or 2P by one affine tangent, cheaper than a conversion
        return P if k == 1 else add(P, P, C)
    p, a = C.p, C.a
    x, y = P
    X, Y, Z = x, y, 1
    for bit in bin(k)[3:]:
        YY = Y * Y % p
        S = 4 * X * YY % p
        ZZ = Z * Z % p
        M = (3 * X * X + a * ZZ * ZZ) % p
        X = (M * M - 2 * S) % p
        Z = 2 * Y * Z % p
        Y = (M * (S - X) - 8 * YY * YY) % p
        if bit == "0":
            continue
        if not Z:
            X, Y, Z = x, y, 1
            continue
        ZZ = Z * Z % p
        H = (x * ZZ - X) % p
        r = (y * ZZ % p * Z - Y) % p
        if H or r:  # H = 0 means the sum so far is -P, and Z comes out 0
            HH = H * H % p
            HHH = H * HH % p
            V = X * HH % p
            X = (r * r - HHH - 2 * V) % p
            Y = (r * (V - X) - Y * HHH) % p
            Z = Z * H % p
        else:  # the sum so far is P, and 2P is taken in affine form
            D = add(P, P, C)
            if D is INFINITY:
                Z = 0
            else:
                X, Y, Z = D[0], D[1], 1
    if not Z:
        return INFINITY
    w = pow(Z, -1, p)
    ww = w * w % p
    return (X * ww % p, Y * ww % p * w % p)


def random_point(C: ReducedCurve, rng):
    """A random affine point: uniform x until the cubic is a square.

    The y sign is fixed by one rng bit; by Hasse roughly half of all x
    succeed, so this takes about two draws, one square root attempt each.
    Never returns INFINITY.
    """
    p = C.p
    while True:
        x = rng.randrange(p)
        rhs = (x * x % p * x + C.a * x + C.b) % p
        if rhs == 0:
            rng.getrandbits(1)
            return (x, 0)
        try:
            r = sqrt_mod(rhs, p)
        except NotASquare:
            continue
        y = r if rng.getrandbits(1) == 0 else p - r
        return (x, y)
