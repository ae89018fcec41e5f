"""Exact Mobius machinery, degree models, and the two constant evaluators."""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from avgexp import constants
from avgexp.constants import (ConstantEstimate, DegreeModel, MissingDegree,
                              NotMultiplicative, constant_euler,
                              constant_series, degree, estimate_degrees,
                              euler_phi, gl2_order, li, load_overrides,
                              mobius_coeff, nstr)
from avgexp.harness import RECORD, default_checkpoints, pi_E_counts
from avgexp.modarith import sieve_primes

GL2 = DegreeModel("gl2_generic")
# prime-power overrides for q = 2, 3, 5 and 97, each at or above phi(k)
PRIME_POWER_OVERRIDES = {2: 3, 4: 48, 8: 384, 3: 16, 9: 1296, 25: 1500, 97: 97 * 96 * 98}


def trial_factor(k):
    """(prime, multiplicity) pairs of k by trial division."""
    out, q = [], 2
    while q * q <= k:
        m = 0
        while k % q == 0:
            k, m = k // q, m + 1
        if m:
            out.append((q, m))
        q += 1
    return out + ([(k, 1)] if k > 1 else [])


def reference_partial_sums(model, y):
    """Exact S_0, ..., S_y with S_n = sum_{k <= n} (sum_{d | k} mu(d) d/k) /
    degree(k), mu and the GL2 order k^3 phi(k) prod(1 - q^-2) both from
    trial division."""
    sums = [Fraction(0)]
    for k in range(1, y + 1):
        coeff = Fraction(0)
        for d in (d for d in range(1, k + 1) if k % d == 0):
            fac = trial_factor(d)
            if all(m == 1 for _, m in fac):
                coeff += Fraction((-1) ** len(fac) * d, k)
        gl2 = Fraction(k ** 4)  # k^3 phi(k) = k^4 prod(1 - 1/q)
        for q, _ in trial_factor(k):
            gl2 *= Fraction(q - 1, q) * Fraction(q * q - 1, q * q)
        sums.append(sums[-1] + coeff / Fraction(model.overrides.get(k, gl2)))
    return sums


def divisor_sums(k_max):
    """[0, S_1, ..., S_k_max], S_k = sum_{j | k} mobius_coeff(j).value."""
    sums = [Fraction(0)] * (k_max + 1)
    for j in range(1, k_max + 1):  # each j adds its coefficient to its multiples
        c = mobius_coeff(j).value
        for k in range(j, k_max + 1, j):
            sums[k] += c
    return sums


class TestMobiusCoeff:
    def test_k1(self):
        assert mobius_coeff(1).value == 1

    def test_k2(self):
        # mu(1)/2 + mu(2)/1 = 1/2 - 1
        assert mobius_coeff(2).value == Fraction(-1, 2)

    def test_k6_bound_tight(self):
        c = mobius_coeff(6).value
        assert c == Fraction(1, 3)
        assert abs(c) == Fraction(euler_phi(6), 6)

    def test_bound_to_1e3(self):
        # the acceptance suite extends this to 1e4
        for k in range(1, 1001):
            assert abs(mobius_coeff(k).value) <= Fraction(euler_phi(k), k) <= 1


class TestMobiusIdentity:
    def test_k1(self):
        assert divisor_sums(1)[1] == 1

    def test_k4_by_hand(self):
        c1, c2, c4 = (mobius_coeff(k).value for k in (1, 2, 4))
        assert c1 + c2 + c4 == Fraction(1, 4)
        assert (c1, c2, c4) == (1, Fraction(-1, 2), Fraction(-1, 4))

    def test_to_1e3(self):
        assert divisor_sums(1000)[1:] == [Fraction(1, k) for k in range(1, 1001)]


class TestGl2Order:
    def test_small_values(self):
        assert gl2_order(1) == 1
        assert gl2_order(2) == 6  # = |GL2(F_2)|
        assert gl2_order(4) == 96
        assert gl2_order(6) == gl2_order(2) * gl2_order(3) == 288

    def test_multiplicative(self):
        import random
        rng = random.Random(8)
        for _ in range(200):
            m = rng.randrange(2, 1000)
            n = rng.randrange(2, 1000)
            if math.gcd(m, n) == 1:
                assert gl2_order(m * n) == gl2_order(m) * gl2_order(n)

    def test_phi_divides(self):
        for k in range(1, 2000):
            assert gl2_order(k) % euler_phi(k) == 0


class TestDegreeModel:
    def test_generic_k5(self):
        assert degree(GL2, 5) == 480  # 125 * 4 * 24/25

    def test_override_passthrough(self):
        m = DegreeModel("gl2_generic", {2: 3})
        assert degree(m, 2) == 3
        assert degree(m, 3) == 48

    def test_empirical_missing(self):
        m = DegreeModel("empirical", {1: Fraction(1), 2: Fraction(6)})
        assert degree(m, 2) == 6
        with pytest.raises(MissingDegree):
            degree(m, 7)

    def test_gl2_override_below_phi_rejected(self):
        with pytest.raises(ValueError):
            DegreeModel("gl2_generic", {5: 3})  # phi(5) = 4

    @pytest.mark.parametrize("kind", ["gl2_generic", "empirical"])
    def test_level_beyond_factorize_named(self, kind):
        with pytest.raises(ValueError, match=f"override {2 ** 40} -> .*level < 2"):
            DegreeModel(kind, {2 ** 40: Fraction(10) ** 30})

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            DegreeModel("galois")


class TestConstantSeries:
    def test_y1_single_term(self):
        est = constant_series(GL2, 1)
        assert est.value == 1
        assert est.tail_bound > 0

    def test_tail_self_consistency(self):
        small = constant_series(GL2, 10)
        big = constant_series(GL2, 1000)
        assert abs(small.value - big.value) <= small.tail_bound

    def test_value_in_unit_interval(self):
        est = constant_series(GL2, 1000)
        assert 0 < est.value < 1

    def test_override_beyond_truncation_enters_tail(self):
        m = DegreeModel("gl2_generic", {50: gl2_order(50) // 2})
        plain = constant_series(GL2, 10)
        with_late = constant_series(m, 10)
        assert with_late.tail_bound > plain.tail_bound
        assert "override" in with_late.tail_formula

    @pytest.mark.parametrize("overrides", [{}, {**PRIME_POWER_OVERRIDES, 12: 96}])
    def test_matches_trial_division_reference(self, overrides):
        model = DegreeModel("gl2_generic", overrides)
        reference = reference_partial_sums(model, 300)
        unit = Fraction(1, 1 << constants._shift(constants.DEFAULT_DPS))
        for y in (1, 2, 12, 97, 150, 300):
            # each of the y terms is floored once in units of 2^-shift
            assert reference[y] - y * unit < constant_series(model, y).value <= reference[y]

    def test_empirical_tail_formula(self):
        m = DegreeModel("empirical", {k: Fraction(gl2_order(k)) for k in range(1, 30)})
        est = constant_series(m, 25)
        assert "phi(k)^2" in est.tail_formula
        with pytest.raises(MissingDegree):
            constant_series(m, 40)


class TestConstantEuler:
    def test_first_term_dominates_local_factor(self):
        from avgexp.constants import _local_factor
        for q in (2, 5, 97):
            f = _local_factor(GL2, q)
            first = float(Fraction(q - 1, q * gl2_order(q)))
            drop = float(1 - f)
            assert drop >= first > 0
            assert drop - first < first * q ** -3 * 4

    @pytest.mark.parametrize("model", [GL2, DegreeModel("gl2_generic", PRIME_POWER_OVERRIDES)])
    def test_local_factor_matches_truncated_nu_sum(self, model):
        from avgexp.constants import _local_factor
        nu_max = 6  # 97^6 < 2^40, the range of factorize
        for q in (2, 3, 5, 97):
            partial = sum(Fraction(q - 1, q ** nu) / degree(model, q ** nu)
                          for nu in range(1, nu_max + 1))
            rest = (1 - _local_factor(model, q)) - partial
            # generic terms beyond nu_max sum to less than q^(-5 nu_max)
            assert 0 < rest < Fraction(1, q ** (5 * nu_max))

    @pytest.mark.parametrize("dps", [50, 100])
    @pytest.mark.parametrize("overrides", [{}, PRIME_POWER_OVERRIDES], ids=["generic", "prime-powers"])
    def test_matches_exact_product(self, overrides, dps):
        # each factor in (0, 1] floors the product once in units of 2^-shift,
        # so it lies in (exact - len(qs) 2^-shift, exact]
        model = DegreeModel("gl2_generic", overrides)
        qs = sieve_primes(200)
        exact = math.prod((constants._local_factor(model, q) for q in qs), start=Fraction(1))
        below = exact - Fraction(len(qs), 1 << constants._shift(dps))
        assert below < constant_euler(model, 200, dps).value <= exact

    @pytest.mark.parametrize("overrides, primes", [({}, []), (PRIME_POWER_OVERRIDES, [2, 3, 5, 97])],
                             ids=["generic", "prime-powers"])
    def test_exact_factors_only_at_override_primes(self, overrides, primes, monkeypatch):
        seen = []
        real = constants._local_factor
        monkeypatch.setattr(constants, "_local_factor",
                            lambda model, q: seen.append(q) or real(model, q))
        constant_euler(DegreeModel("gl2_generic", overrides), 3000)
        assert sorted(seen) == primes

    def test_high_precision(self):
        e = constant_euler(GL2, 100, dps=100)
        s = constant_series(GL2, 100, dps=100)
        # both lie within len(qs) units of 2^-shift(50) below the exact product
        coarse = Fraction(len(sieve_primes(100)), 1 << constants._shift(constants.DEFAULT_DPS))
        assert abs(e.value - constant_euler(GL2, 100).value) < coarse
        assert abs(s.value - e.value) <= s.tail_bound + e.tail_bound

    def test_precision_floor(self):
        for evaluate in (constant_series, constant_euler):
            with pytest.raises(ValueError):
                evaluate(GL2, 100, dps=19)
            assert 0 < evaluate(GL2, 100, dps=20).value < 1

    def test_empirical_model_rejected(self):
        m = DegreeModel("empirical", {2: Fraction(6), 4: Fraction(96)})
        with pytest.raises(MissingDegree):
            constant_euler(m, 10)

    def test_tail_self_consistency(self):
        small = constant_euler(GL2, 100)
        big = constant_euler(GL2, 10_000)
        assert abs(small.value - big.value) <= small.tail_bound

    def test_cross_method_agreement(self):
        s = constant_series(GL2, 1000)
        e = constant_euler(GL2, 1000)
        assert abs(s.value - e.value) <= s.tail_bound + e.tail_bound
        assert 0 < e.value < 1

    def test_composite_override_rejected(self):
        m = DegreeModel("gl2_generic", {6: 288})
        with pytest.raises(NotMultiplicative):
            constant_euler(m, 100)

    def test_prime_power_override_allowed(self):
        m = DegreeModel("gl2_generic", {2: 3, 4: 48})
        est = constant_euler(m, 100)
        assert 0 < est.value < 1

    def test_estimate_validation(self):
        with pytest.raises(ValueError):
            ConstantEstimate(Fraction(3, 2), 10, 0.0, "test")
        with pytest.raises(ValueError):
            ConstantEstimate(Fraction(1, 2), 10, -1.0, "test")

    def test_shift_is_the_bits_of_dps_digits_plus_64(self):
        assert all(constants._shift(dps) == mp.libmp.dps_to_prec(dps) + 64
                   for dps in range(1, 1000))


class TestNstr:
    @pytest.mark.parametrize("n", [20, 21, 50, 100])
    def test_matches_mpmath(self, n):
        # random dyadics at decimal exponents 0 to -40, on both sides of
        # the switch to an exponent (partial series sums under overrides
        # can be that small), and values that print exactly or round up to 1
        import random
        rng = random.Random(n)
        values = [Fraction(rng.randrange(1 << 299, 1 << 300), 1 << 300) / 10 ** (i % 41)
                  for i in range(400)]
        values += [Fraction(1), Fraction(1, 2), Fraction(1, 10 ** 5), 1 - Fraction(1, 1 << 400)]
        with mp.workdps(n + 40):
            want = [mp.nstr(mp.mpf(v.numerator) / v.denominator, n) for v in values]
        assert [nstr(v, n) for v in values] == want


class TestLi:
    def test_li_of_2_is_zero(self):
        assert li(2) == 0.0

    def test_against_mpmath(self):
        # mpmath at 100 digits, rounded once to a float; the sample is
        # log-uniform in x - 2 from 1e-15 to 1e20, plus li(x^2) at every
        # default checkpoint x up to 2^30 - 1, as aggregate_checkpoints calls it
        import random
        rng = random.Random(2012)
        xs = [2 + 10 ** rng.uniform(-15, math.log10(1e20 - 2)) for _ in range(2000)]
        xs += [float(x) ** 2 for x in default_checkpoints(2 ** 30 - 1)]
        xs += [2.0000000000000004, math.e, 1e20]
        with mp.workdps(100):
            want = [float(mp.li(x, offset=True)) for x in xs]
        assert [li(x) for x in xs] == want

    def test_strictly_increasing(self):
        xs = [2, 3, 10, 100, 1e4, 1e8]
        vals = [li(x) for x in xs]
        assert vals == sorted(vals) and len(set(vals)) == len(vals)

    def test_domain(self):
        with pytest.raises(ValueError):
            li(1.5)


class TestLoadOverrides:
    def test_parse(self, tmp_path):
        f = tmp_path / "ov.txt"
        f.write_text("# degrees\n2 3\n8 768   # half of gl2\n9 1944/2\n\n")
        got = load_overrides(f)
        assert got == {2: 3, 8: 768, 9: 972}

    def test_bad_line(self, tmp_path):
        f = tmp_path / "ov.txt"
        f.write_text("2 3 4\n")
        with pytest.raises(ValueError):
            load_overrides(f)

    @pytest.mark.parametrize("text", ["2\n", "x 3\n", "2 1/0\n", "2 three\n"],
                             ids=["one-field", "bad-level", "zero-denominator", "bad-degree"])
    def test_malformed_entries_name_the_line(self, tmp_path, text):
        f = tmp_path / "ov.txt"
        f.write_text("# header\n" + text)
        with pytest.raises(ValueError, match=r"ov.txt:2: "):
            load_overrides(f)


class TestEstimateDegrees:
    def _records(self):
        # synthetic: d = 2 at roughly every third prime with 4 | p-1,
        # else d = 1; a_p = 2 keeps every record invariant satisfied
        recs = []
        for i, p in enumerate(q for q in sieve_primes(10_000) if q >= 5):
            d = 2 if (i % 3 == 0 and (p - 1) % 4 == 0) else 1
            recs.append((p, 2, d, (p - 1) // d))
        return np.array(recs, dtype=RECORD).view(np.recarray)

    def test_k1_close_to_one(self):
        recs = self._records()
        model = estimate_degrees(pi_E_counts(recs, 4), li(10_000))
        n1 = float(degree(model, 1))
        assert abs(n1 - 1) < 0.05

    def test_counts_invert_li(self):
        recs = self._records()
        model = estimate_degrees(pi_E_counts(recs, 4), li(10_000))
        twos = sum(1 for r in recs if r.d_p % 2 == 0)
        assert degree(model, 2) == Fraction(li(10_000)) / twos
