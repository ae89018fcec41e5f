"""Invariant factors: the certified step against the enumeration oracle."""

import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from avgexp import structure
from avgexp.counting import trace, trace_naive
from avgexp.curve import GlobalCurve, ReducedCurve, random_point, reduce_curve
from avgexp.harness import derive_rng
from avgexp.modarith import factorize, sieve_primes
from avgexp.structure import (GroupStructure, NotAnnihilated,
                              StructureUnverified, exponent_sampling,
                              group_structure, has_full_two_torsion,
                              structure_bruteforce)

GENERIC = GlobalCurve(1, 1)
CM = GlobalCurve(-1, 0)
THIRD = GlobalCurve(0, 6)
PRIMES_TO_5000 = [p for p in sieve_primes(5000) if p >= 5]


class TestTwoTorsionSplit:
    def test_root_count_matches_enumeration(self):
        for p in sieve_primes(200):
            if p < 5:
                continue
            for a, b in ((1, 1), (p - 1, 0), (0, 6 % p), (2, 3)):
                if (4 * a ** 3 + 27 * b ** 2) % p == 0:
                    continue
                C = ReducedCurve(p, a, b)
                roots = sum(1 for x in range(p) if (x ** 3 + a * x + b) % p == 0)
                assert has_full_two_torsion(C, trace_naive(C).N) == (roots == 3)

    def test_random_curves_match_enumeration(self):
        rng = random.Random(11)
        primes = [p for p in sieve_primes(3000) if p >= 5]
        checked = 0
        while checked < 300:
            p = rng.choice(primes)
            a, b = rng.randrange(p), rng.randrange(p)
            if (4 * a ** 3 + 27 * b ** 2) % p == 0:
                continue
            C = ReducedCurve(p, a, b)
            roots = sum(1 for x in range(p) if (x ** 3 + a * x + b) % p == 0)
            assert has_full_two_torsion(C, trace_naive(C).N) == (roots == 3), (a, b, p)
            checked += 1

    def test_cm_curve_always_splits(self):
        # x^3 - x = x(x-1)(x+1) has all roots rational at every p
        for p in (5, 13, 1009):
            C = reduce_curve(CM, p)
            assert has_full_two_torsion(C, trace_naive(C).N)


class TestExponentSampling:
    def test_forced_cyclic_case(self):
        # gcd(N, p-1) = 1 pins d = 1 with no sampling at all
        C = reduce_curve(GENERIC, 7)
        N = trace_naive(C).N
        assert N == 5 and math.gcd(N, 6) == 1
        assert exponent_sampling(C, N, factorize(N), derive_rng(1, 7)) == 5

    def test_f5_generic(self):
        C = reduce_curve(GENERIC, 5)
        assert exponent_sampling(C, 9, factorize(9), derive_rng(1, 5)) == 9

    def test_f5_cm_full_two_torsion(self):
        # x^3 - x splits over F_5, so d = 2 and e = 4
        C = reduce_curve(CM, 5)
        assert exponent_sampling(C, 8, factorize(8), derive_rng(1, 5)) == 4

    def test_divides_true_exponent_many_trials(self):
        # the certified step returns the exact exponent for every stream
        ps = [p for p in sieve_primes(200) if p >= 5]
        truth = {}
        trials = 0
        for p in ps:
            for E in (GENERIC, CM):
                if p in E.bad_primes:
                    continue
                C = reduce_curve(E, p)
                truth[(E.a4, E.a6, p)] = structure_bruteforce(C)
        seeds = range(120)
        for (a4, a6, p), want in truth.items():
            C = ReducedCurve(p, a4 % p, a6 % p)
            F = factorize(want.N)
            for s in seeds:
                e = exponent_sampling(C, want.N, F, derive_rng(s, p))
                assert want.e_p % e == 0
                assert e == want.e_p
                trials += 1
        assert trials >= 10_000

    def test_wrong_order_raises_not_annihilated(self):
        # true N = 640; 637 = 7^2 * 13 leaves the 7-part ambiguous, so the
        # Sylow step runs, and 637 is prime to 640, so it kills no point
        C = ReducedCurve(617, 169, 170)
        assert trace_naive(C).N == 640
        for s in range(20):
            with pytest.raises(NotAnnihilated):
                exponent_sampling(C, 637, factorize(637), derive_rng(s, 617))

    def test_draw_cap_raises(self, monkeypatch):
        # one point drawn over and over can never prove d = 6 at p = 1657
        C = ReducedCurve(1657, 739, 129)
        N = trace_naive(C).N
        P = random_point(C, random.Random(1))
        monkeypatch.setattr(structure, "random_point", lambda C, rng: P)
        with pytest.raises(StructureUnverified):
            exponent_sampling(C, N, factorize(N), derive_rng(1, 1657))


class TestSylowPath:
    """Primes whose l-part is left ambiguous by the divisibility
    constraints, so the exponent is proved inside the l-Sylow subgroup."""

    @pytest.mark.parametrize("E, p, l, a", [
        (GENERIC, 349, 2, 1),     # 2 | d, 4 does not
        (GENERIC, 1993, 2, 2),    # 4 | d
        (CM, 257, 2, 4),          # 16 | d
        (GENERIC, 13, 3, 0),
        (GENERIC, 139, 3, 1),
        (CM, 421, 7, 1),
        (GENERIC, 677, 13, 0),
        (CM, 1013, 11, 1),
    ])
    def test_named_cases(self, monkeypatch, E, p, l, a):
        seen = []
        real = structure._sylow_exponent

        def spy(C, N, ell, k, a_min, rng):
            b = real(C, N, ell, k, a_min, rng)
            seen.append((ell, k - b))
            return b
        monkeypatch.setattr(structure, "_sylow_exponent", spy)
        C = reduce_curve(E, p)
        want = structure_bruteforce(C)
        for s in range(5):
            seen.clear()
            got = group_structure(C, trace_naive(C), derive_rng(s, p))
            assert (got.d_p, got.e_p) == (want.d_p, want.e_p)
            assert (l, a) in seen

    @settings(max_examples=60, deadline=None, database=None)
    @given(st.data())
    def test_differential_against_bruteforce(self, data):
        p = data.draw(st.sampled_from(PRIMES_TO_5000))
        a = data.draw(st.integers(0, p - 1))
        b = data.draw(st.integers(0, p - 1))
        assume((4 * a ** 3 + 27 * b ** 2) % p)
        seed = data.draw(st.integers(0, 2 ** 32))
        C = ReducedCurve(p, a, b)
        got = group_structure(C, trace_naive(C), derive_rng(seed, p))
        want = structure_bruteforce(C)
        assert (got.N, got.d_p, got.e_p) == (want.N, want.d_p, want.e_p)


class TestGroupStructure:
    def test_f5_examples(self):
        C = reduce_curve(GENERIC, 5)
        S = group_structure(C, trace_naive(C), derive_rng(1, 5))
        assert (S.d_p, S.e_p) == (1, 9)
        C = reduce_curve(CM, 5)
        S = group_structure(C, trace_naive(C), derive_rng(1, 5))
        assert (S.d_p, S.e_p) == (2, 4)

    def test_matches_bruteforce_to_500(self):
        # the acceptance suite extends this sweep to 2000
        for E in (GENERIC, CM, THIRD):
            for p in sieve_primes(500):
                if p in E.bad_primes:
                    continue
                C = reduce_curve(E, p)
                rng = derive_rng(1, p)
                got = group_structure(C, trace(C, rng, 10_000), rng)
                want = structure_bruteforce(C)
                assert (got.a_p, got.d_p, got.e_p) == \
                    (want.a_p, want.d_p, want.e_p), f"p = {p}"

    def test_invariants_rechecked_on_construction(self):
        with pytest.raises(StructureUnverified):
            GroupStructure(5, -3, 9, 3, 3)  # d=3 does not divide p-1=4
        with pytest.raises(StructureUnverified):
            GroupStructure(5, -3, 9, 1, 3)  # d*e != N

    def test_weil_pairing_consequence(self):
        # d | gcd(N, p-1), as pure arithmetic on emitted structures
        for p in sieve_primes(500):
            if p in GENERIC.bad_primes or p < 5:
                continue
            C = reduce_curve(GENERIC, p)
            S = structure_bruteforce(C)
            assert math.gcd(S.N, p - 1) % S.d_p == 0


class TestBruteforce:
    def test_agrees_with_trace_naive_N(self):
        for p in (5, 101, 499):
            for E in (GENERIC, CM, THIRD):
                if p in E.bad_primes:
                    continue
                C = reduce_curve(E, p)
                assert structure_bruteforce(C).N == trace_naive(C).N

    def test_invariant_replay(self):
        for p in sieve_primes(300):
            if p in THIRD.bad_primes or p < 5:
                continue
            S = structure_bruteforce(reduce_curve(THIRD, p))
            assert S.violations() == []
            assert (p - 1) % S.d_p == 0

    def test_cap(self):
        with pytest.raises(ValueError):
            structure_bruteforce(reduce_curve(GENERIC, 5003))
