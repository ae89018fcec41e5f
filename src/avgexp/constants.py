"""The average-exponent constant from a division-degree model.

The constant is the sum over k of mobius_coeff(k) / degree(k), equally an
Euler product of local factors; both evaluators carry explicit truncation
tail bounds so their agreement is a real check, not a float coincidence,
and each sums in integer units of 2^-(prec + 64) to an exact Fraction.
Degrees come either from the generic GL2 group-order formula (with user
overrides for non-surjective levels) or from an empirical table fitted to
per-prime data.
"""

import bisect
import decimal
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .modarith import factorize, sieve_primes

DEFAULT_DPS = 50
MIN_DPS = 20  # below this, rounding can exceed the tail bounds the cross-check budgets
# The largest series level y and Euler prime p_max.  There, on one core of
# a 2-core Xeon with Python 3.11, the series takes 3.5-4 s and 100 MB, the
# Euler product 0.7-1 s and 60 MB, and either leaves a tail below 1e-21.
TRUNCATION_CAP = 10 ** 7


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
    exactly."""
    if k < 1:
        raise ValueError("k must be >= 1")
    closed = Fraction(1, k)
    for q, _ in factorize(k):
        closed *= 1 - q
    return MobiusCoeff(k, closed)


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

    def __post_init__(self):
        if self.kind not in ("gl2_generic", "empirical"):
            raise ValueError(f"unknown model kind {self.kind!r}")
        for k, n in self.overrides.items():
            if not 1 <= k < 1 << 40 or n <= 0:  # levels in factorize's range
                raise ValueError(f"bad override {k} -> {n}: need 1 <= level < 2**40, degree > 0")
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

    value: Fraction  # dyadic: floor-summed units of 2^-shift
    truncation: int
    tail_bound: float
    tail_formula: str

    def __post_init__(self):
        if not (0 < self.value <= 1):
            raise ValueError(f"estimate {self.value} outside (0, 1]")
        if self.tail_bound < 0:
            raise ValueError("negative tail bound")


def _level_table(y: int):
    """Walk the levels k <= y, each reached from a smaller level by a prime
    power above that level's largest prime, and yield (den, leaves) once
    per level reached.

    den = (-1)^omega(k) prod_{q^m || k} q^(5m-3) (q^2-1), so that the
    generic term mobius_coeff(k) / |GL2(Z/kZ)| is 1/den.  leaves holds
    q^2 (q^2-1) for the primes q above k's largest with q^2 > y/k: every
    level k*q <= y among them has the term -1/(den q^2 (q^2-1)) and no
    multiple in the walk, so it is never reached itself.
    """
    qs = sieve_primes(y) if y > 1 else []
    width = [q * q * (q * q - 1) for q in qs]
    stack = [(1, 1, 0)]  # (k, den, index in qs of the least prime k may gain)
    while stack:
        k, den, i = stack.pop()
        inner = bisect.bisect_right(qs, math.isqrt(y // k), i)
        yield den, width[inner:bisect.bisect_right(qs, y // k, inner)]
        for l in range(i, inner):
            q = qs[l]
            kq, dq = k * q, -den * width[l]
            while kq <= y:  # k q^m: den gains q^5 with each further power of q
                stack.append((kq, dq, l + 1))
                kq, dq = kq * q, dq * q ** 5


def _shift(dps: int) -> int:
    """prec + 64, prec = round((dps + 1) log2(10)) being the bits of dps digits."""
    return max(1, round((dps + 1) * 3.3219280948873626)) + 64


def nstr(value: Fraction, n: int) -> str:
    """value in (0, 1] to n significant digits, correctly rounded, trailing
    zeros stripped, and as 1.23e-7 is once its exponent is <= min(-5, -(n // 3))."""
    context = decimal.Context(prec=n)
    d = context.divide(value.numerator, value.denominator)
    e = d.adjusted()
    fixed = e > min(-(n // 3), -5)
    text = f"{context.normalize(d if fixed else context.scaleb(d, -e)):f}"
    return (text if "." in text else text + ".0") + ("" if fixed else f"e{e}")


def _units(term: Fraction, shift: int) -> int:
    """floor(term * 2^shift)."""
    return (term.numerator << shift) // term.denominator


def constant_series(model: DegreeModel, y: int, dps: int = DEFAULT_DPS) -> ConstantEstimate:
    """sum_{k <= y} mobius_coeff(k) / degree(k) at dps digits.

    For the generic GL2 model the tail is bounded by pi^2/(18 y^3)
    (|coeff| <= phi(k)/k and degree >= (6/pi^2) k^3 phi(k) give terms
    <= (pi^2/6) k^-4), plus the exact contribution of any override
    beyond y.  Otherwise the documented bound 2/sqrt(y) is used, which
    assumes degree(k) >= phi(k)^2 with constant 1.
    """
    if not 1 <= y <= TRUNCATION_CAP or dps < MIN_DPS:
        raise ValueError(f"need 1 <= y <= {TRUNCATION_CAP} and dps >= {MIN_DPS}, "
                         f"got y = {y}, dps = {dps}")
    shift = _shift(dps)  # the y floor divisions err by < y * 2^-shift in all
    if model.kind == "gl2_generic":
        # a leaf's floor(one / (-den w)) is floor(floor(-one / den) / w), as w > 0
        one = 1 << shift
        acc = sum(one // den + sum(map((-one // den).__floordiv__, leaves))
                  for den, leaves in _level_table(y))
        for k in model.overrides:
            if k <= y:  # swap the generic term's floor for the override's
                c = mobius_coeff(k).value
                acc += _units(c / degree(model, k), shift) - _units(c / gl2_order(k), shift)
        late = [k for k in model.overrides if k > y]
        tail = math.pi ** 2 / (18 * y ** 3) + sum(
            euler_phi(k) / k / float(degree(model, k)) for k in late)
        formula = "pi^2/(18*y^3)" + (" + explicit override terms beyond y" if late else "")
    else:
        acc = sum(_units(mobius_coeff(k).value / degree(model, k), shift)
                  for k in range(1, y + 1))
        tail = 2 / math.sqrt(y)
        formula = "2/sqrt(y), assuming degree(k) >= phi(k)^2"
    return ConstantEstimate(Fraction(acc, 1 << shift), y, tail, formula)


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
    The product is kept as one integer in units of 2^-(prec + 64), like the
    series, and multiplied by each factor num/den with one floor division.
    """
    if not 2 <= p_max <= TRUNCATION_CAP or dps < MIN_DPS:
        raise ValueError(f"need 2 <= p_max <= {TRUNCATION_CAP} and dps >= {MIN_DPS}, "
                         f"got p_max = {p_max}, dps = {dps}")
    override_primes = set()
    for k in model.overrides:
        fac = factorize(k)
        if len(fac) != 1:
            raise NotMultiplicative(f"override at composite level {k}")
        override_primes.add(fac[0][0])
    if model.kind != "gl2_generic":
        raise MissingDegree(f"a finite {model.kind} table lacks most prime powers")
    local = {q: _local_factor(model, q) for q in override_primes}
    qs = sieve_primes(p_max)
    qs += sorted(q for q in override_primes if q > p_max)
    # no factor exceeds 1 (an override is a smaller image), so the
    # len(qs) floors err by < len(qs) * 2^-shift in all
    shift = _shift(dps)
    acc = 1 << shift
    for q in qs:
        if q in local:
            acc = acc * local[q].numerator // local[q].denominator
        else:
            den = (q * q - 1) * (q ** 5 - 1)
            acc = acc * (den - q ** 3) // den
    return ConstantEstimate(Fraction(acc, 1 << shift), p_max, 2 / (3 * p_max ** 3),
                            "2/(3*p_max^3), generic factors are 1 - O(q^-4)")


_F = 160  # bits of the fixed-point logarithms: units of 2^-128 and 32 guard bits


def _atanh2(z: int) -> int:
    """2 atanh(z 2^-_F) in units of 2^-_F, for |z| <= 2^_F / 3: the odd
    series, one floor per term."""
    if z < 0:
        return -_atanh2(-z)
    z2, total, k = z * z >> _F, 0, 1
    while z:  # z = z^k here
        total += z // k
        z, k = z * z2 >> _F, k + 2
    return 2 * total


_LN2 = _atanh2((1 << _F) // 3)  # ln 2 = 2 atanh(1/3)


def _ln(n: int, s: int) -> int:
    """ln(n 2^-s), n >= 1, in units of 2^-128: n 2^-s = m 2^e with m in
    [sqrt(1/2), sqrt(2)], and ln m = 2 atanh((m - 1)/(m + 1)), |z| < 0.18."""
    e = n.bit_length() - 1
    m, one = (n << _F) >> e, 1 << _F  # m 2^-_F in [1, 2)
    if m * m > 2 << 2 * _F:
        m, e = m >> 1, e + 1
    return ((e - s) * _LN2 + _atanh2(((m - one) << _F) // (m + one))) >> (_F - 128)


def _ei_less_gamma(x) -> int:
    """Ei(ln x) - gamma = ln ln x + sum_{n >= 1} (ln x)^n / (n n!) in units
    of 2^-128, for an int or float x >= 2; each of the few hundred floors
    errs by one unit at most."""
    num, den = x.as_integer_ratio()  # den is a power of 2
    l = _ln(num, den.bit_length() - 1)
    total = _ln(l, 128)
    term, n = 1 << 128, 0
    while term:  # term = l^n / n!
        n += 1
        term = (term * l >> 128) // n
        total += term // n
    return total


_EI_LN2 = _ei_less_gamma(2)


def li(x: float) -> float:
    """Offset logarithmic integral: the integral of 1/log t from 2 to x.

    It is Ei(ln x) - Ei(ln 2), where gamma cancels, rounded to a float
    once from its value in units of 2^-128."""
    if x < 2:
        raise ValueError("li is defined here for x >= 2")
    return (_ei_less_gamma(x) - _EI_LN2) / (1 << 128)


def estimate_degrees(counts, li_x: float) -> DegreeModel:
    """Empirical degree table from counts[k - 1] = pi_E(x; k), the primes p
    <= x with k | d_p, and li_x = li(x): degree(k) is estimated by li(x)
    divided by that count.

    Levels never hit stay absent (MissingDegree on use).
    """
    return DegreeModel("empirical", {k: Fraction(li_x) / count
                                     for k, count in enumerate(counts, 1) if count})
