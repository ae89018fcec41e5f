"""Short Weierstrass curves y^2 = x^3 + a*x + b over F_p and their group law.

Points are plain (x, y) tuples; the identity is the module constant
INFINITY (None).  add is the affine chord-tangent law, one inversion per
addition, and the only group law here: scalar_mul is double-and-add over
it, so every group operation of the scalar paths is one call to add.
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
    """k*P by left-to-right double-and-add over add; 0*P is the identity."""
    if k < 0:
        raise ValueError("negative scalar")
    if k == 0 or P is INFINITY:
        return INFINITY
    R = P
    for bit in bin(k)[3:]:
        R = add(R, R, C)
        if bit == "1":
            R = add(R, P, C)
    return R


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
