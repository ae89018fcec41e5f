"""Invariant factors: the certified step against the enumeration oracle."""

import functools
import math
import random
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from avgexp import curve, harness, structure
from avgexp.counting import (LANE_CAP, _power, _powmod, cubic_roots, order_bsgs,
                             trace_block, trace_naive)
from avgexp.curve import (INFINITY, GlobalCurve, ReducedCurve, add, random_point,
                          reduce_curve)
from avgexp.harness import PRESETS, RECORD, good_primes, record_violations
from avgexp.modarith import factorize, legendre, residues, sieve_primes, sqrt_mod
from avgexp.structure import (NotAnnihilated, StructureUnverified,
                              exponent_sampling, group_structure,
                              has_full_two_torsion, settle,
                              structure_bruteforce)
from primality import is_prime

GENERIC = GlobalCurve(1, 1)
CM = GlobalCurve(-1, 0)
THIRD = GlobalCurve(0, 6)
PRIMES_TO_5000 = [p for p in sieve_primes(5000) if p >= 5]


@contextmanager
def points_from(seed):
    """The structure step draws from random.Random(seed) instead of Random(p)."""
    rng = random.Random(seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(structure, "random_point", lambda C, _: curve.random_point(C, rng))
        yield


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
        assert exponent_sampling(C, N) == 5

    def test_f5_generic(self):
        C = reduce_curve(GENERIC, 5)
        assert exponent_sampling(C, 9) == 9

    def test_f5_cm_full_two_torsion(self):
        # x^3 - x splits over F_5, so d = 2 and e = 4
        C = reduce_curve(CM, 5)
        assert exponent_sampling(C, 8) == 4

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
            for s in seeds:
                with points_from(s):
                    e = exponent_sampling(C, want.N)
                assert want.e_p % e == 0
                assert e == want.e_p
                trials += 1
        assert trials >= 10_000

    def test_one_point_list_per_prime(self, monkeypatch):
        # every l draws from the one stream random.Random(p), the next l
        # going on where the last stopped, so the points drawn at cm-i 313
        # are the stream's first points, in order
        walked, drawn = [], []
        real = structure._sylow_exponent

        def spy(C, N, l, *rest):
            b = real(C, N, l, *rest)
            walked.append((l, len(drawn)))
            return b
        monkeypatch.setattr(structure, "_sylow_exponent", spy)
        monkeypatch.setattr(structure, "random_point",
                            lambda C, rng: drawn.append(curve.random_point(C, rng)) or drawn[-1])
        C = reduce_curve(CM, 313)
        exponent_sampling(C, trace_naive(C).N)
        rng = random.Random(313)
        assert walked == [(2, 2), (3, 4)]
        assert drawn == [random_point(C, rng) for _ in drawn]

    def test_split_cubic_with_odd_two_part_raises(self):
        # x^3 - x splits over F_5, so 2 | d and 4 | N; v_2(6) = 1 fits no d
        with pytest.raises(StructureUnverified):
            exponent_sampling(reduce_curve(CM, 5), 6)

    def test_factors_gcd_not_group_order(self, monkeypatch):
        # only l | gcd(p-1, a_p-2) can divide d, so N itself is never factored
        seen = []
        monkeypatch.setattr(structure, "factorize", lambda n: seen.append(n) or factorize(n))
        for E in (PRESETS["generic1"], PRESETS["cm-i"]):
            for p in good_primes(E, 5000)[0].tolist():
                C = reduce_curve(E, p)
                T = trace_naive(C)
                seen.clear()
                group_structure(C, T)
                assert seen == [math.gcd(p - 1, T.a_p - 2)]

    def test_wrong_order_raises_not_annihilated(self):
        # true N = 640; 637 = 7^2 * 13 leaves the 7-part ambiguous, so the
        # Sylow step runs, and 637 is prime to 640, so it kills no point
        C = ReducedCurve(617, 169, 170)
        assert trace_naive(C).N == 640
        for s in range(20):
            with points_from(s), pytest.raises(NotAnnihilated):
                exponent_sampling(C, 637)

    def test_draw_cap_raises(self, monkeypatch):
        # one point drawn over and over can never prove d = 6 at p = 1657
        C = ReducedCurve(1657, 739, 129)
        N = trace_naive(C).N
        P = random_point(C, random.Random(1))
        monkeypatch.setattr(structure, "random_point", lambda C, rng: P)
        with pytest.raises(StructureUnverified):
            exponent_sampling(C, N)


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

        def spy(C, N, ell, k, *bounds_and_points):
            b = real(C, N, ell, k, *bounds_and_points)
            seen.append((ell, k - b))
            return b
        monkeypatch.setattr(structure, "_sylow_exponent", spy)
        C = reduce_curve(E, p)
        want = structure_bruteforce(C)
        for s in range(5):
            seen.clear()
            with points_from(s):
                got = group_structure(C, trace_naive(C))
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
        with points_from(seed):
            got = group_structure(C, trace_naive(C))
        want = structure_bruteforce(C)
        assert (got.N, got.d_p, got.e_p) == (want.N, want.d_p, want.e_p)

    def test_three_sylow_from_a_lane_verdict(self):
        # generic1 at 2539: N = 2^5 * 3^4, g = 2 * 3^3 and d = 2 * 3^2.
        # The lanes find E[3] in E(F_p) and leave a = 1 or 2 open (a <=
        # v_3(N)/2 = 2), so the 3-Sylow step starts at a_min = 1
        C = reduce_curve(GENERIC, 2539)
        N = trace_naive(C).N
        p, a, b, n = (np.array([v], dtype=np.int64) for v in (C.p, C.a, C.b, N))
        assert [v.tolist() for v in settle(p, a, b, n, cubic_roots(p, a, b))] == [[6], [18]]
        assert structure._sylow_exponent(C, N, 3, 4, 1, random.Random(C.p)) == 2
        assert sampled(C, N, 6, 18) == (18, [(3, 1, 2, 2)])
        assert structure_bruteforce(C).d_p == 18


def split_cubic(p, e1, e2):
    """y^2 = (x - e1)(x - e2)(x - e3) over F_p, e3 = -e1 - e2."""
    e3 = -e1 - e2
    return ReducedCurve(p, (e1 * e2 + e1 * e3 + e2 * e3) % p, -e1 * e2 * e3 % p)


def four_torsion_count(C):
    """#{P in E(F_p) : 4P = O}, by enumerating every point."""
    p, count = C.p, 1
    for x in range(p):
        rhs = (x * x * x + C.a * x + C.b) % p
        if rhs and legendre(rhs, p) == 1:
            y = sqrt_mod(rhs, p)
            points = [(x, y), (x, p - y)]
        else:
            points = [] if rhs else [(x, 0)]
        for P in points:
            D = add(P, P, C)
            count += add(D, D, C) is INFINITY
    return count


class TestTwoDescent:
    """At l = 2 on a split cubic, E[4] lies in E(F_p) exactly when 4 | d,
    which the Sylow draws decide."""

    @settings(max_examples=80, deadline=None, database=None)
    @given(st.data())
    def test_verdict_against_enumeration(self, data):
        p = data.draw(st.sampled_from([q for q in PRIMES_TO_5000 if q % 4 == 1]))
        e1, e2 = data.draw(st.integers(0, p - 1)), data.draw(st.integers(0, p - 1))
        e3 = (-e1 - e2) % p
        assume(len({e1, e2, e3}) == 3)
        C = split_cubic(p, e1, e2)
        full = four_torsion_count(C) == 16
        got = group_structure(C, trace_naive(C))
        want = structure_bruteforce(C)
        assert (got.d_p, got.e_p) == (want.d_p, want.e_p)
        assert (want.d_p % 4 == 0) == full


def sampled(C, N, lo=1, hi=0):
    """exponent_sampling's d for C of order N (and the bounds lo | d | hi
    if given), and (l, a_min, a_max, a) for every l-Sylow subgroup it drew
    points for, a_max being the bound min(v_l(gcd(g, hi)), v_l(N)/2), with
    hi = 0 for none."""
    drew = []
    real = structure._sylow_exponent
    top = math.gcd(C.p - 1, C.p - 1 - N, hi)

    def spy(C, N, l, k, a_min, *rest):
        b = real(C, N, l, k, a_min, *rest)
        a_max = min(structure._valuation(top, l), k // 2)
        drew.append((l, a_min, a_max, k - b))
        return b
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(structure, "_sylow_exponent", spy)
        e = exponent_sampling(C, N, lo, hi)
    return N // e, drew


def lane_decided(l, a_min, a_max, a):
    """Whether settle's torsion tests decide a class exponent_sampling
    draws for: E[4] tells a = 1 from a >= 2 at (2, 1, a_max), and E[3]
    a = 0 from a >= 1 at (3, 0, a_max), so (2, 1, 2) and (3, 0, 1) are
    always decided, and the others when a is the least."""
    return (l, a_min) in ((2, 1), (3, 0)) and (a == a_min or a_max == a_min + 1)


def table_rest(g):
    """The part of g whose primes lie above settle's table, 2*_LANE_ROWS + 1."""
    for l in sieve_primes(2 * structure._LANE_ROWS + 1):
        while g % l == 0:
            g //= l
    return g


def settle_rule(C, N):
    """What settle must return for C of order N with no lane round:
    exponent_sampling's d where it draws no point or the torsion tests
    decide every class it draws for, and 0 elsewhere; and the classes it
    draws for.  A part of g above the table from 67^3 on is left to the
    scalar path (only at a_p = 2)."""
    d, drew = sampled(C, N)
    rest = table_rest(math.gcd(C.p - 1, C.p - 1 - N))
    return (d if rest < 67 ** 3 and all(lane_decided(*c) for c in drew) else 0), drew


def without_rounds(p, a, b, N, roots):
    """settle's bounds with no lane Sylow round: what the table and the
    torsion tests alone prove."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(structure, "_LANE_MIN_PAIRS", math.inf)
        return settle(p, a, b, N, roots)


def settle_one(C, N):
    """settle's d for C of order N where its bounds meet, lo = hi, else 0;
    one lane has fewer open pairs than a lane round needs."""
    p, a, b, N = (np.array([v], dtype=np.int64) for v in (C.p, C.a, C.b, N))
    lo, hi = settle(p, a, b, N, cubic_roots(p, a, b))
    return lo.item() if lo == hi else 0


def group_order(C):
    return (trace_naive(C) if C.p < 229 else order_bsgs(C)).N


def apex_two_curve(p, family):
    """A curve over F_p with a_p = 2, so g = gcd(p-1, a_p-2) = p-1 = N:
    the twist with trace 2 of y^2 = x^3 + c (p = 3w^2 + 1, traces
    +-2, +-(1 +- 3w)) or of y^2 = x^3 + c*x (p = w^2 + 1, traces +-2,
    +-2w)."""
    for c in range(1, 200):
        C = ReducedCurve(p, 0, c) if family == "j0" else ReducedCurve(p, c, 0)
        if group_order(C) == p - 1:
            return C
    raise AssertionError(f"no twist with a_p = 2 at p = {p}")


@functools.lru_cache(maxsize=None)
def band(start, count):
    """The first count primes at or above start > 2^16, by a sieve of
    [start, start + 40 * count), as an int64 array."""
    stop = start + 40 * count
    alive = np.ones(stop - start, dtype=bool)
    for q in sieve_primes(math.isqrt(stop)):
        alive[-start % q::q] = False
    p = start + np.flatnonzero(alive)[:count]
    assert len(p) == count
    return p


def primes_from(start, count):
    """The first count primes at or above start."""
    ps, q = [], start
    while len(ps) < count:
        if is_prime(q):
            ps.append(q)
        q += 1
    return ps


class TestSettle:
    """The vectorized settle step against exponent_sampling, its reference."""

    @staticmethod
    def check_block(E, p):
        # settle's d on a block of good primes of E with no lane round is
        # settle_rule's; the classes (2, 1, 2) and (3, 0, 1) are met and
        # settled, and some prime is left to the draws.  Every open prime
        # obeys lo | d | hi, and exponent_sampling started from the
        # bounds (the handover) proves standalone exponent_sampling's d
        # there, and never draws for a class the lane tests decide: the
        # lanes decide every (2, 1, >= 2) and (3, 0, >= 1).  With the lane
        # rounds, the primes decided before stay so, and the others are
        # decided with that d or keep bounds on it
        a, b = residues(E.a4, p), residues(E.a6, p)
        roots = cubic_roots(p, a, b)
        N = trace_block(p, a, b, roots)[0]
        lo, hi = without_rounds(p, a, b, N, roots)
        got = np.where(lo == hi, lo, 0)
        curves = [ReducedCurve(*v) for v in zip(p.tolist(), a.tolist(), b.tolist())]
        want, drew = zip(*(settle_rule(C, n) for C, n in zip(curves, N.tolist())))
        assert got.tolist() == list(want)
        tested = [i for i, c in enumerate(drew)
                  if c and all(x[:3] in ((2, 1, 2), (3, 0, 1)) for x in c)]
        assert tested and got[tested].all()
        d_all, top = settle(p, a, b, N, roots)
        assert (d_all == lo)[lo == hi].all() and (top == hi)[lo == hi].all()
        for i in np.flatnonzero(lo != hi).tolist():
            C, n, bounds = curves[i], int(N[i]), (int(lo[i]), int(hi[i]))
            d = sampled(C, n)[0]
            assert d % bounds[0] == 0 and bounds[1] % d == 0, C.p
            assert d % d_all[i] == 0 and top[i] % d == 0, C.p
            handed, handed_drew = sampled(C, n, *bounds)
            assert handed == d, C.p
            assert not [c for c in handed_drew if c[:2] in ((2, 1), (3, 0))], C.p
        return (got == 0).sum()

    @pytest.mark.parametrize("preset", ["generic1", "cm-i", "cm-3"])
    def test_matches_exponent_sampling_to_1e5(self, preset):
        E = PRESETS[preset]
        p = good_primes(E, 100_000)[0]
        assert 0 < self.check_block(E, p) < len(p) // 8

    @pytest.mark.parametrize("start", [10 ** 7, 10 ** 8, 2 ** 30 - 300_000])
    @pytest.mark.parametrize("preset", ["generic1", "cm-i", "cm-3"])
    def test_bands_match_exponent_sampling(self, preset, start):
        # 256 consecutive primes, where the lanes' int64 bound is tight
        # at 2^30; exponent_sampling proves its d from drawn points.  Then
        # the lane Sylow step on 4096 primes from start: every d it
        # decides is standalone exponent_sampling's, and it decides most
        # of the primes the torsion tests leave open
        E = PRESETS[preset]
        p = np.array(primes_from(start, 256), dtype=np.int64)
        self.check_block(E, p)
        p = band(start, 4096)
        p = p[E.disc % p != 0]
        a, b = residues(E.a4, p), residues(E.a6, p)
        roots = cubic_roots(p, a, b)
        N = trace_block(p, a, b, roots)[0]
        lo, hi = without_rounds(p, a, b, N, roots)
        d, top = settle(p, a, b, N, roots)
        lanes = np.flatnonzero((lo != hi) & (d == top))
        assert len(lanes) > 0.8 * (lo != hi).sum()
        for i in lanes.tolist():
            C, n = ReducedCurve(int(p[i]), int(a[i]), int(b[i])), int(N[i])
            assert n // exponent_sampling(C, n) == d[i], C

    @settings(max_examples=120, deadline=None, database=None)
    @given(st.data())
    def test_differential_random_curves(self, data):
        # p up to 2^20, a quarter of them p = 1 (mod 8)
        if data.draw(st.booleans()):
            p = 8 * data.draw(st.integers(1, 2 ** 17 - 2)) + 1
            while not is_prime(p):
                p += 8
        else:
            p = data.draw(st.integers(5, 2 ** 20 - 40))
            while not is_prime(p):
                p += 1
        a = data.draw(st.integers(0, p - 1))
        b = data.draw(st.integers(0, p - 1))
        assume((4 * a ** 3 + 27 * b ** 2) % p)
        C = ReducedCurve(p, a, b)
        N = group_order(C)
        assert settle_one(C, N) == settle_rule(C, N)[0]

    @settings(max_examples=40, deadline=None, database=None)
    @given(st.data())
    def test_differential_trace_two(self, data):
        # a_p = 2: g = p - 1, whose odd part holds the square w^2 (times 3)
        # once w has an odd prime factor, and p = 1 (mod 8) once 4 | w
        family = data.draw(st.sampled_from(["j0", "j1728"]))
        if family == "j0":
            ws = [w for w in range(2, 592) if is_prime(3 * w * w + 1)]
            p = 3 * data.draw(st.sampled_from(ws)) ** 2 + 1
        else:
            ws = [w for w in range(2, 1024, 2) if is_prime(w * w + 1)]
            p = data.draw(st.sampled_from(ws)) ** 2 + 1
        C = apex_two_curve(p, family)
        assert settle_one(C, p - 1) == settle_rule(C, p - 1)[0]

    def test_large_odd_part_left_open(self):
        # a_p = 2, so g = p - 1.  The part rest of g above the table
        # leaves the lane to the scalar path when it is a square, 67^2 at
        # p = 134^2 + 1, or from 67^3 on, 304169 in generic1 at 608339 =
        # 2 * 304169 + 1; the scalar path then proves d from the bounds.
        # generic1 at 422923 = 2 * 3 * 70487 + 1 and at 163363 = 2 * 3 *
        # 19 * 1433 + 1 is decided, rest being prime and below 67^3
        cases = [(apex_two_curve(134 ** 2 + 1, "j1728"), 67 ** 2, 0),
                 (reduce_curve(GENERIC, 608339), 304169, 0),
                 (reduce_curve(GENERIC, 422923), 70487, 1),
                 (reduce_curve(GENERIC, 163363), 1433, 1)]
        for C, rest, d in cases:
            N = group_order(C)
            assert N == C.p - 1 and table_rest(N) == rest
            p, a, b, n = (np.array([v], dtype=np.int64) for v in (C.p, C.a, C.b, N))
            lo, hi = settle(p, a, b, n, cubic_roots(p, a, b))
            assert settle_one(C, N) == d
            want, drew = sampled(C, N)
            assert bool(drew) == (rest == 67 ** 2)  # only the square needs draws, at l = 67
            assert want % lo.item() == 0 and hi.item() % want == 0
            assert sampled(C, N, lo.item(), hi.item())[0] == want

    def test_trace_two_primes_to_1e6(self, monkeypatch):
        # the 68 primes of generic1 to 1e6 with a_p = 2, where g = p - 1,
        # in the sweep's blocks: settle decides every one with
        # exponent_sampling's d but the two whose rest is beyond 67^3,
        # 608339 = 2 * 304169 + 1 and 831443 = 2 * 415721 + 1
        seen, real = [], structure.settle

        def spy(p, a, b, N, roots):
            lo, hi = real(p, a, b, N, roots)
            i = np.flatnonzero(N == p - 1)
            seen.extend(zip(*(v[i].tolist() for v in (p, a, b, N, lo, hi))))
            return lo, hi
        monkeypatch.setattr(harness, "settle", spy)
        E = PRESETS["generic1"]
        harness.compute_records(E, good_primes(E, 10 ** 6)[0],
                                harness.ExperimentConfig.trace_threshold)
        assert len(seen) == 68
        assert [q for q, *_, lo, hi in seen if lo != hi] == [608339, 831443]
        for q, a, b, n, lo, hi in seen:
            d = n // exponent_sampling(ReducedCurve(q, a, b), n)
            assert d % lo == 0 and hi % d == 0 and (lo == hi or table_rest(n) > 67 ** 3), q

    def test_splits_as_has_full_two_torsion(self):
        # a prime with N even is settled with an even d exactly when the
        # cubic splits
        for E in (GENERIC, CM, THIRD):
            for q in PRIMES_TO_5000[:300]:
                if E.disc % q == 0:
                    continue
                C = reduce_curve(E, q)
                N = trace_naive(C).N
                d = settle_one(C, N)
                if d:
                    assert (d % 2 == 0) == has_full_two_torsion(C, N), (E, q)

    def test_empty_block(self):
        empty = np.zeros(0, dtype=np.int64)
        lo, hi = settle(empty, empty, empty, empty, cubic_roots(empty, empty, empty))
        assert lo.tolist() == hi.tolist() == []


LANE_PRIMES_TO_5000 = [p for p in PRIMES_TO_5000 if p >= 229]


def open_block(p, a, b):
    """(p, a, b, N, roots) for the curves y^2 = x^3 + a*x + b over F_p:
    point counts by trace_block, settle's arguments."""
    p, a, b = (np.asarray(v, dtype=np.int64) for v in (p, a, b))
    roots = cubic_roots(p, a, b)
    return p, a, b, trace_block(p, a, b, roots)[0], roots


class TestLaneSylow:
    """settle's lane Sylow rounds against full enumeration and against
    exponent_sampling, with their refusals.  Below, a round runs for any
    number of open pairs."""

    @pytest.fixture(autouse=True)
    def every_round(self, monkeypatch):
        monkeypatch.setattr(structure, "_LANE_MIN_PAIRS", 1)

    @settings(max_examples=40, deadline=None, database=None)
    @given(st.data())
    def test_differential_against_bruteforce(self, data):
        # 64 curves at each of up to 3 primes 229 <= p <= 5000, a third
        # of them CM (b = 0, j = 1728, or a = 0, j = 0): every d settle
        # decides, by the lane rounds where the torsion tests left it
        # open, is the enumerated one
        primes = data.draw(st.lists(st.sampled_from(LANE_PRIMES_TO_5000), min_size=1,
                                    max_size=3))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32)))
        curves = []
        for p in primes:
            for kind in rng.integers(0, 3, 64).tolist():
                a, b = rng.integers(0, p, 2).tolist()
                a, b = (a, 0) if kind == 1 else (0, b) if kind == 2 else (a, b)
                if (4 * a ** 3 + 27 * b ** 2) % p:
                    curves.append((p, a, b))
        block = open_block(*zip(*curves))
        p, a, b, N, _ = block
        lo, hi = without_rounds(*block)
        d, top = settle(*block)
        for i in np.flatnonzero((lo != hi) & (d == top)).tolist():
            want = structure_bruteforce(ReducedCurve(int(p[i]), int(a[i]), int(b[i])))
            assert (N[i], d[i]) == (want.N, want.d_p), curves[i]

    def test_serves_the_lanes_range_only(self):
        # the open primes below 229 (generic1 at 61, cm-i at 113 and 181,
        # cm-3 at 73 and 211) are left as the torsion tests left them;
        # open primes of generic1 near 5e4 are decided
        blocks = [(E, good_primes(E, 228)[0]) for E in PRESETS.values()]
        E = PRESETS["generic1"]
        blocks.append((E, good_primes(E, 50_000)[0][-400:]))
        p = np.concatenate([q for _, q in blocks])
        a = np.concatenate([residues(E.a4, q) for E, q in blocks])
        b = np.concatenate([residues(E.a6, q) for E, q in blocks])
        block = open_block(p, a, b)
        lo, hi = without_rounds(*block)
        d, top = settle(*block)
        out = p < 229
        assert (lo != hi)[out].sum() == 5 and (lo != hi)[~out].any()
        assert (d == lo)[out].all() and (top == hi)[out].all()
        assert (d == top)[~out].all()

    def test_wrong_order_raises_not_annihilated(self):
        # as for exponent_sampling: N = 640 at p = 617, and 637 = 7^2 * 13
        # leaves a = v_7(d) open in 0 .. 1 (g = 7) and kills no point.
        # The cubic splits; given as one root, so that the odd N does not
        # send the lane to the scalar path first
        p, a, b, N = (np.array([v]) for v in (617, 169, 170, 637))
        assert trace_naive(ReducedCurve(617, 169, 170)).N == 640
        assert cubic_roots(p, a, b).tolist() == [3]
        with pytest.raises(NotAnnihilated):
            settle(p, a, b, N, np.array([1]))

    @pytest.mark.parametrize("p, l", [(401, 5), (421, 7)])
    def test_outside_compares_every_multiple(self, p, l):
        # cm-i at p has E[l] in E(F_p): for G of order l, every u*G,
        # 0 < u < l, is inside <G> by the x of one of the l // 2 rows, and
        # H + u*G, for H of order l outside <G>, is outside
        C = reduce_curve(CM, p)
        cofactor = trace_naive(C).N // l ** 2
        rng, order_l = random.Random(p), []
        while len(order_l) < 2:
            Q = curve.scalar_mul(cofactor, random_point(C, rng), C)
            multiples = [curve.scalar_mul(u, order_l[0], C) for u in range(l)] if order_l else []
            if Q is not INFINITY and Q not in multiples:
                order_l.append(Q)
        G, H = order_l
        T = [curve.scalar_mul(u, G, C) for u in range(1, l)]
        T += [add(H, curve.scalar_mul(u, G, C), C) for u in range(l)]
        lane = np.zeros(len(T), dtype=np.int64)
        one = np.ones(1, dtype=np.int64)
        a, b = one * C.a, one * C.b
        out = structure._outside(one * G[0], one, one * (l // 2), np.array([x for x, _ in T]),
                                 lane + 1, lane, a, b, 4 * b % p, 8 * b % p, one * p)
        assert out.tolist() == [False] * (l - 1) + [True] * l

    def test_degenerate_ladder_is_redrawn(self, monkeypatch):
        # the first step of the chains at l >= 5 comes out (0 : 0) on every
        # lane: those draws prove nothing, the next round draws again, and
        # the d are the same.  Read as infinity, the planted rows would
        # give each point of generic1's l-Sylow subgroups Z/l^2 the order
        # l, and a = 1 would be proved wherever two points differ
        E = PRESETS["generic1"]
        p = good_primes(E, 10 ** 6)[0][-5233:]
        block = open_block(p, residues(E.a4, p), residues(E.a6, p))
        want = settle(*block)
        planted, rounds = [], []
        real, real_draw = structure._ladder, structure._draw_points

        def ladder(k, *args):
            out = real(k, *args)
            if not planted and k.max() < 64:  # a chain step, not a cofactor
                planted.append(len(k))
                return tuple(np.zeros_like(v) for v in out)
            return out
        monkeypatch.setattr(structure, "_ladder", ladder)
        monkeypatch.setattr(structure, "_draw_points",
                            lambda p, *args: rounds.append(len(p)) or real_draw(p, *args))
        got = settle(*block)
        decided = (got[0] == got[1]) & (want[0] == want[1])
        assert planted[0] > 20 and rounds[1] >= planted[0] // structure._LANE_DRAWS
        assert (got[0] == want[0])[decided].all()
        assert decided.sum() >= (want[0] == want[1]).sum() - 5


def torsion_counts(p, a, b):
    """(N, roots, #{P : 3P = O}, #{P : 4P = O}) for y^2 = x^3 + a*x + b
    over F_p, with roots the points (e, 0), by enumerating every point and
    doubling it: with lambda = n/m, n = 3x^2 + a and m = 2y != 0, 3P = O
    iff x(2P) = x iff n^2 = 3x*m^2, and 4P = O iff 2P is some (e, 0),
    i.e. f(X/Z) = 0 for x(2P) = X/Z = (n^2 - 2x*m^2)/m^2."""
    x = np.arange(p, dtype=np.int64)
    fx = (x * x % p * x + a * x + b) % p
    sq = x * x % p
    by_square = np.argsort(sq, kind="stable")
    lo = np.searchsorted(sq[by_square], fx, "left")
    count = np.searchsorted(sq[by_square], fx, "right") - lo
    X = np.repeat(x, count)  # the points (X, Y), one per root y of y^2 = f(X)
    first = np.repeat(np.cumsum(count) - count, count)
    Y = by_square[np.repeat(lo, count) + np.arange(len(X)) - first]
    on = Y != 0
    n, m2 = (3 * X * X + a) % p, 4 * Y * Y % p
    three = on & (n * n % p == 3 * X * m2 % p)
    X2 = (n * n - 2 * X * m2) % p
    four = on & ((X2 * X2 % p * X2 + a * X2 % p * m2 % p * m2 + b * m2 % p * m2 % p * m2) % p == 0)
    roots = int((~on).sum())
    return len(X) + 1, roots, 1 + int(three.sum()), 1 + roots + int(four.sum())


def long_power(base, e, p, f):
    """base^e modulo p and the monic f, coefficient lists with the constant
    term first, by square-and-multiply and long division on Python ints."""
    def mul(u, v):
        w = [0] * (len(u) + len(v) - 1)
        for i, c in enumerate(u):
            for j, d in enumerate(v):
                w[i + j] += c * d
        while len(w) >= len(f):  # subtract the leading term times f
            lead = w.pop()
            for i, c in enumerate(f[:-1]):
                w[len(w) - len(f) + 1 + i] -= lead * c
        return [c % p for c in w]
    result = [1]
    while e:
        if e & 1:
            result = mul(result, base)
        base = mul(base, base)
        e >>= 1
    return result + [0] * (len(f) - 1 - len(result))


class TestTorsionTests:
    """settle's E[4] and E[3] tests against point enumeration and against
    exponent_sampling, and their int64 lanes against exact integers."""

    @pytest.mark.parametrize("E", [GENERIC, CM, PRESETS["cm-3"], THIRD],
                             ids=["generic1", "cm-i", "cm-3", "x3+6"])
    def test_against_enumeration_below_3000(self, E):
        # every good p < 3000 where a test applies: E[4] on a split cubic
        # at p = 1 (mod 4), E[3] where 3 | gcd(p-1, a_p-2)
        four, three = [], []
        for p in PRIMES_TO_5000:
            if p >= 3000 or E.disc % p == 0:
                continue
            a, b = E.a4 % p, E.a6 % p
            N, roots, n3, n4 = torsion_counts(p, a, b)
            assert N == trace_naive(ReducedCurve(p, a, b)).N
            if p % 4 == 1 and roots == 3:
                four.append((p, a, b, n4 == 16))
            if math.gcd(p - 1, p - 1 - N) % 3 == 0:
                three.append((p, a, b, n3 == 9))
        for test, rows in ((structure._full_four_torsion, four),
                           (structure._full_three_torsion, three)):
            if rows:
                p, a, b, want = (np.array(c) for c in zip(*rows))
                assert test(p, a, b).tolist() == want.tolist()
        verdicts = {w for *_, w in four + three}
        assert verdicts == {True, False}

    @settings(max_examples=60, deadline=None, database=None)
    @given(st.data())
    def test_against_exponent_sampling(self, data):
        # p = 1 (mod 12) below 2^20, a split cubic half the time: 4 | d iff
        # E[4] lies in E(F_p), and 3 | d iff E[3] does
        p = 12 * data.draw(st.integers(1, 2 ** 20 // 12 - 2)) + 1
        while not is_prime(p):
            p += 12
        e1, e2 = data.draw(st.integers(0, p - 1)), data.draw(st.integers(0, p - 1))
        if data.draw(st.booleans()):  # the roots e1, e2, -e1 - e2
            a, b = (e1 * e2 - (e1 + e2) ** 2) % p, e1 * e2 * (e1 + e2) % p
        else:
            a, b = e1, e2
        assume((4 * a ** 3 + 27 * b ** 2) % p)
        C = ReducedCurve(p, a, b)
        N = group_order(C)
        d = N // exponent_sampling(C, N)
        p_, a, b = (np.array([v], dtype=np.int64) for v in (p, C.a, C.b))
        if has_full_two_torsion(C, N):
            assert structure._full_four_torsion(p_, a, b).item() == (d % 4 == 0)
        if math.gcd(p - 1, p - 1 - N) % 3 == 0:
            assert structure._full_three_torsion(p_, a, b).item() == (d % 3 == 0)

    @pytest.mark.parametrize("preset", ["cm-i", "cm-3"])
    def test_records_above_the_lanes(self, preset):
        # exponent_sampling with no bounds, the scalar path that primes
        # above the lanes took: there the Sylow draws alone tell a = 1
        # from a >= 2 on a split cubic.  Its d at the good primes among
        # 150 from 2^30 - 3e5 against the torsion tests on dtype=object lanes
        E = PRESETS[preset]
        ps = np.array([q for q in primes_from(2 ** 30 - 300_000, 150) if E.disc % q])
        a4, a6 = residues(E.a4, ps), residues(E.a6, ps)
        orders = trace_block(ps, a4, a6, cubic_roots(ps, a4, a6))[0]
        four, three = [], []
        for p, N in zip(ps.tolist(), orders.tolist()):
            C = reduce_curve(E, p)
            d = N // exponent_sampling(C, N)
            if p % 4 == 1 and has_full_two_torsion(C, N):
                four.append((p, C.a, C.b, d % 4 == 0))
            if math.gcd(p - 1, p - 1 - N) % 3 == 0:
                three.append((p, C.a, C.b, d % 3 == 0))
        for test, rows in ((structure._full_four_torsion, four),
                           (structure._full_three_torsion, three)):
            p, a, b, want = (np.array(c, dtype=object) for c in zip(*rows))
            assert test(p, a, b).tolist() == want.tolist()
        # every 3 | g here also brings E[3]; E[4] meets both verdicts
        assert {w for *_, w in four} == {True, False} and three

    def test_int64_lanes_match_exact_integers(self):
        # the 64 largest primes below 2^30, a and b within 4 of p: every
        # kernel on int64 lanes against the same code on dtype=object
        # lanes, whose Python ints cannot overflow, and the polynomial
        # powers against long division on Python ints
        top = [q for q in range(LANE_CAP - 1, LANE_CAP - 5000, -2) if is_prime(q)][:64]
        rows = [(p, p - 1 - i % 4, p - 1 - i // 4 % 4) for i, p in enumerate(top)]
        lanes = [np.array(c, dtype=np.int64) for c in zip(*rows)]
        exact = [np.array(c, dtype=object) for c in zip(*rows)]

        def kernels(p, a, b):
            zero = np.zeros_like(p)
            cubic = (1, a), (0, b)
            psi = (2, 2 * a % p), (1, 4 * b % p), (0, -(a * a % p) * ((2 * p + 1) // 3) % p)
            powers = [_power((zero, zero + 1, zero), p, p, cubic),
                      _power((a, zero, zero + 3), (p - 1) // 2, p, cubic),
                      _power((zero, zero + 1, zero, zero), p, p, psi),
                      (_powmod((a + b) % p, (p - 1) // 4, p),)]
            return ([np.stack(c).tolist() for c in powers],
                    structure._full_four_torsion(p, a, b).tolist(),
                    structure._full_three_torsion(p, a, b).tolist())
        assert max(top) < LANE_CAP and len(top) == 64
        got = kernels(*lanes)
        assert got == kernels(*exact)
        assert max(max(row) for power in got[0] for row in power) > 1 << 29
        # psi_3 / 3 where p = 1 (mod 3), as in the kernel
        want = [[long_power([0, 1], p, p, [b, a, 0, 1]),
                 long_power([a, 0, 3], (p - 1) // 2, p, [b, a, 0, 1]),
                 long_power([0, 1], p, p, [-a * a * ((2 * p + 1) // 3), 4 * b, 2 * a, 0, 1])]
                for p, a, b in rows]
        assert got[0][:3] == [[list(c) for c in zip(*power)] for power in zip(*want)]


class TestGroupStructure:
    def test_f5_examples(self):
        C = reduce_curve(GENERIC, 5)
        S = group_structure(C, trace_naive(C))
        assert (S.d_p, S.e_p) == (1, 9)
        C = reduce_curve(CM, 5)
        S = group_structure(C, trace_naive(C))
        assert (S.d_p, S.e_p) == (2, 4)

    def test_matches_bruteforce_to_500(self):
        # the acceptance suite extends this sweep to 2000
        for E in (GENERIC, CM, THIRD):
            for p in sieve_primes(500):
                if p in E.bad_primes:
                    continue
                C = reduce_curve(E, p)
                got = group_structure(C, trace_naive(C))
                want = structure_bruteforce(C)
                assert (got.a_p, got.d_p, got.e_p) == \
                    (want.a_p, want.d_p, want.e_p), f"p = {p}"

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
            assert not record_violations(
                np.array([(S.p, S.a_p, S.d_p, S.e_p)], dtype=RECORD)).any()
            assert (p - 1) % S.d_p == 0

    def test_cap(self):
        with pytest.raises(ValueError):
            structure_bruteforce(reduce_curve(GENERIC, 5003))
