"""The average-exponent constant from a division-degree model.

The constant is the sum over k of mobius_coeff(k) / degree(k), equally an
Euler product of local factors; both evaluators carry explicit truncation
tail bounds so their agreement is a real check, not a float coincidence.
Degrees come either from the generic GL2 group-order formula (with user
overrides for non-surjective levels) or from an empirical table fitted to
per-prime data.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath as mp
import numpy as np

from .modarith import divisors_from_factorization, factorize, sieve_primes

DEFAULT_DPS = 50
MIN_DPS = 20  # below this, rounding can exceed the tail bounds the cross-check budgets


class MissingDegree(KeyError):
    """The degree model has no value at the requested level."""


class NotMultiplicative(ValueError):
    """Euler product requested for a model with non-prime-power overrides."""


def euler_phi(k: int) -> int:
    phi = k
    for q, _ in factorize(k):
        phi = phi // q * (q - 1)
    return phi


@dataclass(frozen=True)
class MobiusCoeff:
    """Exact value of sum_{d*m = k} mu(d)/m, the kernel weight at level k."""

    k: int
    value: Fraction


def mobius_coeff(k: int) -> MobiusCoeff:
    """The closed form (1/k)*prod_{q | k}(1-q) of the definition sum,
    exactly; mobius_identity_check tests it against the definition."""
    if k < 1:
        raise ValueError("k must be >= 1")
    closed = Fraction(1, k)
    for q, _ in factorize(k):
        closed *= 1 - q
    return MobiusCoeff(k, closed)


def mobius_identity_check(k_max: int) -> bool:
    """Verify sum_{j | k} coeff(j) = 1/k exactly for all k <= k_max.

    Raises on the smallest violating k (which must never exist); returns
    True otherwise.
    """
    coeffs = {}
    for k in range(1, k_max + 1):
        coeffs[k] = mobius_coeff(k).value
        total = sum((coeffs[j] for j in divisors_from_factorization(factorize(k))),
                    Fraction(0))
        if total != Fraction(1, k):
            raise ArithmeticError(f"inversion identity fails first at k = {k}")
    return True


def gl2_order(k: int) -> int:
    """|GL2(Z/kZ)| = k^3 * phi(k) * prod_{q | k} (1 - q^-2), exactly."""
    if k < 1:
        raise ValueError("k must be >= 1")
    n = 1
    for q, m in factorize(k):
        n *= q ** (4 * m - 3) * (q - 1) * (q * q - 1)
    return n


@dataclass(frozen=True)
class DegreeModel:
    """Assigns the division-field degree to each level k.

    kind 'gl2_generic': the full GL2 group order, with a finite override
    map for known smaller images.  kind 'empirical': the override table
    is the whole model (fitted from data) and absent levels are errors.
    """

    kind: str
    overrides: dict = field(default_factory=dict)
    serre_note: str = ""

    def __post_init__(self):
        if self.kind not in ("gl2_generic", "empirical"):
            raise ValueError(f"unknown model kind {self.kind!r}")
        for k, n in self.overrides.items():
            if k < 1 or n <= 0:
                raise ValueError(f"bad override {k} -> {n}")
            # phi(k) always divides the true degree; estimates are exempt
            # because a finite sample can fluctuate below it
            if self.kind == "gl2_generic" and n < euler_phi(k):
                raise ValueError(f"override {k} -> {n} below phi({k})")


def degree(model: DegreeModel, k: int) -> Fraction:
    """n_{L_k} under the model, as an exact rational."""
    if k in model.overrides:
        return Fraction(model.overrides[k])
    if model.kind == "gl2_generic":
        return Fraction(gl2_order(k))
    raise MissingDegree(k)


def load_overrides(path) -> dict:
    """Read 'k degree' pairs, one per line; '#' starts a comment."""
    overrides = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                k, n = line.split()
                overrides[int(k)] = Fraction(n)
            except (ValueError, ZeroDivisionError):  # Fraction("1/0") divides
                raise ValueError(f"{path}:{lineno}: expected 'k degree'") from None
    return overrides


@dataclass(frozen=True)
class ConstantEstimate:
    """A truncated evaluation of the constant with its tail bound.

    truncation is the level cutoff y for the series method and the prime
    cutoff for the Euler method; tail_formula records which majorization
    produced tail_bound.
    """

    value: object  # mpmath mpf
    truncation: int
    tail_bound: float
    method: str
    tail_formula: str

    def __post_init__(self):
        if not (0 < self.value <= 1):
            raise ValueError(f"estimate {self.value} outside (0, 1]")
        if self.tail_bound < 0:
            raise ValueError("negative tail bound")


def _level_table(y: int) -> tuple:
    """Lists with coeff[k] = k * mobius_coeff(k) and order[k] = |GL2(Z/kZ)|
    for k <= y, built from k/q with q the smallest prime factor of k."""
    spf = np.arange(y + 1)
    for q in range(math.isqrt(y), 1, -1):  # descending: the smallest q writes last
        spf[q * q::q] = q
    coeff, order = [1] * (y + 1), [1] * (y + 1)
    for k, q in enumerate(spf[2:].tolist(), 2):
        j = k // q
        if j % q:  # q exactly divides k
            coeff[k], order[k] = coeff[j] * (1 - q), order[j] * q * (q - 1) * (q * q - 1)
        else:  # |GL2(Z/q^(m+1))| = q^4 * |GL2(Z/q^m)|
            coeff[k], order[k] = coeff[j], order[j] * q ** 4
    return coeff, order


def constant_series(model: DegreeModel, y: int, dps: int = DEFAULT_DPS) -> ConstantEstimate:
    """sum_{k <= y} mobius_coeff(k) / degree(k) at dps digits.

    For the generic GL2 model the tail is bounded by pi^2/(18 y^3)
    (|coeff| <= phi(k)/k and degree >= (6/pi^2) k^3 phi(k) give terms
    <= (pi^2/6) k^-4), plus the exact contribution of any override
    beyond y.  Otherwise the documented bound 2/sqrt(y) is used, which
    assumes degree(k) >= phi(k)^2 with constant 1.
    """
    if y < 1 or dps < MIN_DPS:
        raise ValueError(f"need y >= 1 and dps >= {MIN_DPS}, got y = {y}, dps = {dps}")
    coeff, order = _level_table(y)
    generic = model.kind == "gl2_generic"
    with mp.workdps(dps):
        shift = mp.mp.prec + 64  # the y floor divisions err by < y * 2^-shift in all
        acc = 0
        for k in range(1, y + 1):
            n = order[k] if generic and k not in model.overrides else degree(model, k)
            acc += (coeff[k] * n.denominator << shift) // (k * n.numerator)
        total = mp.ldexp(mp.mpf(acc), -shift)
        if generic:
            late = [k for k in model.overrides if k > y]
            tail = math.pi ** 2 / (18 * y ** 3) + sum(
                euler_phi(k) / k / float(degree(model, k)) for k in late)
            formula = "pi^2/(18*y^3)" + (" + explicit override terms beyond y" if late else "")
        else:
            tail = 2 / math.sqrt(y)
            formula = "2/sqrt(y), assuming degree(k) >= phi(k)^2"
        return ConstantEstimate(total, y, tail, "series", formula)


def _local_factor(model: DegreeModel, q: int) -> Fraction:
    """1 - sum_{nu >= 1} (q-1)/(q^nu * degree(q^nu)), exactly: generic degrees
    sum to q^3/((q^2-1)(q^5-1)), and each override at a power of q corrects
    its term (constant_euler has checked that overrides sit at prime powers)."""
    drop = Fraction(q ** 3, (q * q - 1) * (q ** 5 - 1))
    for k in model.overrides:
        if k % q == 0:
            drop += Fraction(q - 1, k) * (1 / degree(model, k) - Fraction(1, gl2_order(k)))
    return 1 - drop


def constant_euler(model: DegreeModel, p_max: int, dps: int = DEFAULT_DPS) -> ConstantEstimate:
    """Euler product of exact local factors over primes q <= p_max.

    Requires a multiplicative gl2 model: any override at a level that is
    not a prime power breaks the product form.  Local factors of overridden
    primes beyond p_max are included exactly, so the recorded tail bound
    2/(3*p_max^3) (from generic factors being 1 - O(q^-4)) stays valid.
    """
    if p_max < 2 or dps < MIN_DPS:
        raise ValueError(f"need p_max >= 2 and dps >= {MIN_DPS}, got p_max = {p_max}, dps = {dps}")
    override_primes = set()
    for k in model.overrides:
        fac = factorize(k)
        if len(fac) != 1:
            raise NotMultiplicative(f"override at composite level {k}")
        override_primes.add(fac[0][0])
    if model.kind != "gl2_generic":
        raise MissingDegree(f"a finite {model.kind} table lacks most prime powers")
    qs = sieve_primes(p_max)
    qs += sorted(q for q in override_primes if q > p_max)
    with mp.workdps(dps):
        prod = mp.mpf(1)
        for q in qs:
            f = _local_factor(model, q)
            prod = prod * f.numerator / f.denominator
        tail = 2 / (3 * p_max ** 3)
        return ConstantEstimate(prod, p_max, tail, "euler",
                                "2/(3*p_max^3), generic factors are 1 - O(q^-4)")


def li(x: float) -> float:
    """Offset logarithmic integral: the integral of 1/log t from 2 to x."""
    if x < 2:
        raise ValueError("li is defined here for x >= 2")
    return float(mp.li(x, offset=True))


def estimate_degrees(records, x, k_max: int) -> DegreeModel:
    """Empirical degree table: degree(k) is estimated by li(x) divided by
    the count of recorded primes p <= x with k | d_p.

    Levels never hit stay absent (MissingDegree on use).  Levels with
    k | d_p can only occur when k | p - 1; that containment is replayed
    on every record.
    """
    li_x = Fraction(li(x))
    ps = np.fromiter((rec.p for rec in records), dtype=np.int64)
    ds = np.fromiter((rec.d_p for rec in records), dtype=np.int64)
    keep = ps <= x
    ps, ds = ps[keep], ds[keep]
    if np.any((ps - 1) % ds):
        bad = int(ps[np.flatnonzero((ps - 1) % ds)[0]])
        raise ArithmeticError(f"record p = {bad} violates d | p - 1")
    table = {}
    for k in range(1, k_max + 1):
        count = int((ds % k == 0).sum())
        if count > 0:
            table[k] = li_x / count
    return DegreeModel("empirical", table,
                       serre_note=f"fitted from records up to {x}")
