"""Experiment orchestration: determinism, exactness, cache, diagnostics."""

import csv
import io
import json
import math
import os
import re
import signal
import struct
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from avgexp import cli, constants, counting, harness, modarith, structure
from avgexp.constants import DegreeModel, li
from avgexp.counting import LANE_CAP, PATHS, cubic_roots, lane_rows, trace_naive
from avgexp.curve import GlobalCurve, ReducedCurve, reduce_curve
from avgexp.harness import (CacheError, CheckpointRow, ExperimentConfig,
                            InsufficientCheckpoints, PRESETS, RECORD, cache_load, cache_store,
                            compute_record, default_checkpoints, error_trend,
                            good_primes, pi_E_counts, pi_E_table,
                            record_violations, run_experiment, write_csv)
from avgexp.modarith import residues, sieve_primes
from avgexp.structure import structure_bruteforce
from measure import measure
from primality import is_prime

GENERIC = GlobalCurve(1, 1)
THRESHOLD = ExperimentConfig.trace_threshold  # run's default


def use_cpus(monkeypatch, cpus):
    """compute_records sees an affinity of cpus CPUs, or for cpus None a
    platform without sched_getaffinity whose cpu_count is None."""
    if cpus is None:
        monkeypatch.delattr(harness.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: None)
    else:
        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)


def run_files(out, *argv) -> list:
    """The bytes of the three csv files of `run *argv` into out."""
    assert cli.main(["run", *map(str, argv), "--outfile", str(out)]) == cli.EXIT_OK
    return [(out / name).read_bytes() for name in cli.CSV_NAMES]


def small_run(x_max=2000, **kw):
    cfg = ExperimentConfig(curve=GENERIC, x_max=x_max,
                           checkpoints=kw.pop("checkpoints", [500, 1000, x_max]),
                           **kw)
    return run_experiment(cfg)


class TestRunExperiment:
    def test_records_match_bruteforce_to_100(self):
        result = small_run(x_max=100, checkpoints=[100])
        good = [p for p in sieve_primes(100) if p not in GENERIC.bad_primes]
        assert [rec.p for rec in result.records] == good
        for rec in result.records:
            p = int(rec.p)
            want = structure_bruteforce(ReducedCurve(p, 1 % p, 1 % p))
            assert (rec.a_p, rec.d_p, rec.e_p) == (want.a_p, want.d_p, want.e_p)

    def test_exact_identity_sum_ed(self):
        result = small_run()
        lhs = sum(r.e_p * r.d_p for r in result.records)
        rhs = sum(r.p + 1 - r.a_p for r in result.records)
        assert lhs == rhs

    def test_sum_p_over_d_tracks_sum_e(self):
        # |sum p/d - sum e| <= sum (|a|+1)/d <= sum (2*sqrt(p)+1), exactly
        result = small_run()
        recs = result.records
        spd = sum((Fraction(r.p, r.d_p) for r in recs), Fraction(0))
        se = sum(r.e_p for r in recs)
        slack = sum((Fraction(abs(r.a_p) + 1, r.d_p) for r in recs), Fraction(0))
        coarse = sum(math.isqrt(4 * r.p) + 1 for r in recs)  # 2*sqrt(p) + 1 each
        assert abs(spd - se) <= slack <= coarse

    def test_worker_determinism(self, tmp_path):
        r1 = small_run(workers=1)
        r2 = small_run(workers=2)
        assert np.array_equal(r1.records, r2.records)
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(f1, RECORD.names, r1.records)
        write_csv(f2, RECORD.names, r2.records)
        assert f1.read_bytes() == f2.read_bytes()

    def test_csv_cells(self, tmp_path):  # str(Fraction(5)) would be "5"
        write_csv(tmp_path / "t.csv", ["q", "f", "none"], [(Fraction(5), 0.1, None)])
        assert (tmp_path / "t.csv").read_bytes() == b"q,f,none\r\n5/1,0.1,\r\n"

    def test_record_csv_matches_csv_writer(self):
        # 2^14 + 5 rows cross the bulk formatter's chunk edge; a_p takes
        # negative, zero and positive values, and p lies near 2^30
        i = np.arange((1 << 14) + 5)
        rows = np.empty(len(i), RECORD)
        rows["p"], rows["a_p"] = 2 ** 30 - 1 - 2 * i, (i % 7 - 3) * 65519
        rows["d_p"], rows["e_p"] = i % 11 + 1, 2 ** 30 + i
        expected = io.StringIO(newline="")
        csv.writer(expected).writerows(rows.tolist())
        assert harness.record_lines(rows) == expected.getvalue().encode()
        assert harness.record_lines(np.empty(0, RECORD)) == b""

    def test_record_csv_refuses_a_float_field(self):  # %d would truncate it
        with pytest.raises(TypeError):
            harness.record_lines(np.zeros(1, [("p", "<i8"), ("x", "<f8")]))

    def test_bad_primes_skipped_and_reported(self):
        result = small_run()
        assert result.skipped == [2, 3, 31]
        assert all(rec.p not in GENERIC.bad_primes for rec in result.records)

    def test_checkpoint_monotonicity(self):
        rows = small_run().checkpoints
        assert [r.x for r in rows] == [500, 1000, 2000]
        for a, b in zip(rows, rows[1:]):
            assert b.pi_x >= a.pi_x and b.sum_e >= a.sum_e

    def test_checkpoint_exact_columns(self):
        result = small_run()
        recs = result.records
        for row in result.checkpoints:
            upto = [r for r in recs if r.p <= row.x]
            assert row.pi_x == len(upto)
            assert row.sum_e == sum(r.e_p for r in upto)
            assert row.sum_p_over_d == sum(
                (Fraction(r.p, r.d_p) for r in upto), Fraction(0))
            assert row.c_hat == pytest.approx(2 * row.sum_e / (row.pi_x * row.x))

    def test_empirical_model_path(self):
        result = small_run(model=DegreeModel("empirical"))
        assert result.model.kind == "empirical"
        assert 0 < result.c_model < 1
        assert "empirical" in result.constant_provenance

    def test_short_exponent_regression_6701(self):
        # the retired Monte Carlo step gave (4, 1708) here at seed 1
        C = reduce_curve(PRESETS["generic1"], 6701)
        rec = compute_record(C, trace_naive(C))
        assert (rec.a_p, rec.d_p, rec.e_p) == (-130, 2, 3416)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(curve=GENERIC, x_max=50)
        with pytest.raises(ValueError):
            ExperimentConfig(curve=GENERIC, x_max=1000, checkpoints=[900, 300])
        with pytest.raises(ValueError, match="strictly ascending"):
            ExperimentConfig(curve=GENERIC, x_max=1000, checkpoints=[100, 1000, 1000])
        with pytest.raises(ValueError):
            ExperimentConfig(curve=GENERIC, x_max=1000, checkpoints=[2000])
        with pytest.raises(ValueError):
            ExperimentConfig(curve=GENERIC, x_max=1000, workers=0)
        with pytest.raises(ValueError, match="least good prime"):
            ExperimentConfig(curve=GENERIC, x_max=1000, checkpoints=[3, 1000])
        ExperimentConfig(curve=GENERIC, x_max=1000, checkpoints=[5, 1000])

    def test_default_checkpoints(self):
        assert default_checkpoints(10 ** 6) == [10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6]
        assert default_checkpoints(5000) == [1000, 5000]
        assert default_checkpoints(500) == [500]


# |disc| >= 2^40, beyond factorize: 86 and 220 bits; the second curve's
# bad primes are 2, 3, 5, 653 and 2273
BIG_CURVES = [GlobalCurve(10 ** 8, 1), GlobalCurve(3 ** 45, -7 ** 30)]


class TestGoodPrimes:
    @pytest.mark.parametrize("E", BIG_CURVES + list(PRESETS.values()))
    def test_matches_trial_division(self, E):
        primes = sieve_primes(5000)
        good, bad = good_primes(E, 5000)
        assert good.dtype == bad.dtype == np.int64
        assert good.tolist() == [q for q in primes if q >= 5 and E.disc % q]
        assert bad.tolist() == [q for q in primes if q < 5 or E.disc % q == 0]

    def test_residues_exact_near_2_to_47(self, monkeypatch):
        # Horner steps reach r * 2^16 < 2^63 for p < 2^47
        big = [q for q in range(2 ** 47 - 400, 2 ** 47) if is_prime(q)]
        E = GlobalCurve(big[-1] * 3 ** 40, 0)  # disc = -64 * a4^3
        monkeypatch.setattr(harness, "sieve_primes", lambda limit: [2, 3, 5] + big)
        good, bad = good_primes(E, 2 ** 47)
        assert bad.tolist() == [2, 3, big[-1]]
        assert good.tolist() == [5] + big[:-1]

    @pytest.mark.parametrize("E", BIG_CURVES)
    def test_records_match_bruteforce_to_3000(self, E):
        result = run_experiment(ExperimentConfig(curve=E, x_max=3000, checkpoints=[3000]))
        assert result.skipped == [q for q in sieve_primes(3000) if q < 5 or E.disc % q == 0]
        assert result.paths["lanes"] and result.paths["fallback"]
        for p, a, d, e in result.records.tolist():
            want = structure_bruteforce(reduce_curve(E, p))
            assert (p, a, d, e) == (want.p, want.a_p, want.d_p, want.e_p)

    def test_cache_needs_int64_coefficients(self, tmp_path):
        for a4, a6 in ((2 ** 63, 1), (1, -2 ** 63 - 1)):
            with pytest.raises(ValueError, match="int64"):
                ExperimentConfig(curve=GlobalCurve(a4, a6), x_max=1000,
                                 cache_path=str(tmp_path / "c.bin"))
            ExperimentConfig(curve=GlobalCurve(a4, a6), x_max=1000)
        E = GlobalCurve(2 ** 63 - 1, -2 ** 63)  # the extremes still round-trip
        path = str(tmp_path / "edge.bin")
        cfg = ExperimentConfig(curve=E, x_max=300, checkpoints=[300], cache_path=path)
        assert np.array_equal(run_experiment(cfg).records, cache_load(path, E))


TRUE_RECORD = (17, 0, 1, 18)  # generic1 at p = 17: E(F_17) = Z/18


class TestRecordViolations:
    @pytest.mark.parametrize("rec", [
        (5, -3, 3, 3),  # d = 3 does not divide p - 1 = 4
        (5, -3, 1, 3),  # d*e != N = 9
        (101, 50, 1, 52),  # Hasse: a^2 >= 4p, with N = 52 = p+1-a
        (101, 0, 1, 100),  # N = 100 != p+1-a = 102
        (11, 2, 7, 2),  # d = 7 does not divide p - 1 = 10
        (17, 9, 1, 9),  # Hasse alone
        (17, 0, 0, 18),  # d < 1
        (17, 0, 1, 0),  # e < 1
        (17, 0, 1, 19),  # d*e = p+1-a alone
        (17, 0, 2, 9),  # d | e and d^2 | p+1-a
        (17, 0, 3, 6),  # d | p-1 and a = 2 (mod d): a planted d = 3
        (17, 2, 4, 4 + 2 ** 62),  # d*e = 16 + 2^64 wraps to p+1-a in int64
        (2 ** 61 + 1, 0, 1, 2 ** 61 + 2),  # beyond the exact int64 range
    ], ids=["group-structure-d-not-dividing-p-1", "group-structure-de-not-N",
            "trace-hasse", "trace-N-disagrees", "estimate-degrees-d-not-dividing-p-1",
            "hasse", "d-below-1", "e-below-1", "de-is-N", "d-divides-e", "d-divides-p-1",
            "de-wraps", "p-too-large"])
    def test_flags_a_broken_identity(self, rec):
        recs = np.array([TRUE_RECORD, rec, (139, 14, 3, 42)], dtype=RECORD)
        assert record_violations(recs).tolist() == [False, True, False]

    def test_true_records_pass(self):
        result = small_run(x_max=3000, checkpoints=[3000])
        assert not record_violations(result.records).any()
        assert TRUE_RECORD in result.records.tolist()

    def test_bad_block_raises(self, monkeypatch):
        # every prime of a block passes settle; a planted d = 3 at p = 17
        real = harness.settle

        def planted(p, a, b, N, roots):
            lo, hi = real(p, a, b, N, roots)
            lo[p == 17] = hi[p == 17] = 3
            return lo, hi
        monkeypatch.setattr(harness, "settle", planted)
        with pytest.raises(ArithmeticError, match="p = 17"):
            harness.compute_block(GENERIC, [13, 17, 19], 229)


class TestPiETable:
    def test_k1_counts_good_primes(self):
        result = small_run()
        k1 = result.pi_e[0]
        assert k1[0] == 1 and k1[1] == len(result.records)

    def test_zero_beyond_hasse_range(self):
        result = small_run(x_max=400, checkpoints=[400])
        kmax = 2 * math.isqrt(400) + 5
        table = pi_E_table(pi_E_counts(np.bincount(result.records.d_p), kmax + 10), li(400),
                           result.model)
        for k, count, _ in table:
            if k > kmax:
                assert count == 0

    def test_bounded_by_residue_class_count(self):
        result = small_run()
        primes = [p for p in sieve_primes(2000) if p not in GENERIC.bad_primes]
        for k, count, _ in result.pi_e:
            if k == 1:
                continue
            residue = sum(1 for p in primes if p % k == 1)
            assert count <= residue

    def test_counts_from_per_d_counts_match_the_records(self):
        # pi_E(x; k) summed over the per-d counts, as the fold keeps them,
        # equals the count of records with k | d_p
        result = small_run(x_max=30_000, checkpoints=[30_000])
        d = result.records.d_p
        want = [int((d % k == 0).sum()) for k in range(1, harness.K_MAX_DIAG + 1)]
        assert [count for _, count, _ in result.pi_e] == want
        assert pi_E_counts(np.bincount(d), harness.K_MAX_DIAG) == want
        assert want[1] > 0 and want[2] > 0

    def test_prediction_none_when_uncovered(self):
        result = small_run()
        model = DegreeModel("empirical", {1: 1})
        table = pi_E_table(pi_E_counts(np.bincount(result.records.d_p), 3), li(2000), model)
        assert table[0][2] is not None
        assert table[1][2] is None


class TestErrorTrend:
    def _rows(self, devs, xs=None):
        xs = xs or [10 ** (3 + i) for i in range(len(devs))]
        return [CheckpointRow(x, 10, 1000, Fraction(1), 100.0, 0.9, 0.9, 0.0, d)
                for x, d in zip(xs, devs)]

    def test_planted_exponent(self):
        rows = self._rows([float(x) ** 0.9 for x in (10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6)])
        fit = error_trend(rows)
        assert abs(fit.slope - 0.9) < 1e-6

    def test_constant_dev_zero_slope(self):
        rows = self._rows([7.5, 7.5, 7.5, 7.5])
        assert abs(error_trend(rows).slope) < 1e-12

    def test_insufficient_rows(self):
        with pytest.raises(InsufficientCheckpoints):
            error_trend(self._rows([1.0, 2.0, 3.0]))

    def test_insufficient_span(self):
        rows = self._rows([1.0, 2.0, 3.0, 4.0], xs=[1000, 1100, 1200, 1300])
        with pytest.raises(InsufficientCheckpoints):
            error_trend(rows)

    def test_diagnostic_label(self):
        rows = self._rows([1.0, 2.0, 4.0, 8.0])
        assert "not a verification" in error_trend(rows).note


class TestCache:
    def _records(self):
        return np.array([(5, -3, 1, 9), (7, -3, 1, 11), (104729, -10, 2, 52370)],
                        dtype=RECORD)

    def test_round_trip(self, tmp_path):
        path = tmp_path / "r.bin"
        recs = self._records()
        cache_store(path, GENERIC, recs)
        assert np.array_equal(cache_load(path, GENERIC), recs)

    def test_layout_is_packed_little_endian(self, tmp_path):
        path = tmp_path / "r.bin"
        cache_store(path, GENERIC, self._records())
        body = path.read_bytes()[harness._CACHE_HEADER.size:]
        assert body == b"".join(struct.pack("<QqIQ", *rec)
                                for rec in self._records().tolist())

    def test_identity_breaking_record_is_a_cache_error(self, tmp_path, capsys):
        path = tmp_path / "r.bin"
        recs = self._records()
        recs["d_p"][1] = 3  # d*e = 33 != p+1-a = 11, with a valid checksum
        cache_store(path, GENERIC, recs)
        with pytest.raises(CacheError, match="p = 7"):
            cache_load(path, GENERIC)
        rc = cli.main(["run", "--preset", "generic1", "--xmax", "300", "--checkpoints", "300",
                       "--cache", str(path), "--outfile", str(tmp_path)])
        assert rc == cli.EXIT_CACHE == 3
        assert "p = 7" in capsys.readouterr().err

    @pytest.mark.parametrize("order", [[0, 1, 1, 2], [0, 2, 1]], ids=["repeated", "unsorted"])
    def test_repeated_or_unsorted_p_refused(self, order, tmp_path):
        path = tmp_path / "r.bin"
        cache_store(path, GENERIC, self._records()[order])
        with pytest.raises(CacheError, match="p = 7"):
            cache_load(path, GENERIC)

    @pytest.mark.parametrize("rec", [(31, 0, 1, 32), (9, 0, 1, 10)], ids=["bad-prime", "composite"])
    def test_cached_p_that_is_no_good_prime_refused(self, rec, tmp_path):
        path = str(tmp_path / "r.bin")
        small_run(x_max=100, checkpoints=[100], cache_path=path)
        recs = np.sort(np.append(cache_load(path, GENERIC), np.array([rec], dtype=RECORD)),
                       order="p")
        cache_store(path, GENERIC, recs)
        assert np.array_equal(cache_load(path, GENERIC), recs)  # every identity holds
        with pytest.raises(CacheError, match=f"p = {rec[0]} is not a good prime"):
            small_run(x_max=100, checkpoints=[100], cache_path=path)

    def test_wrong_curve_header(self, tmp_path):
        path = tmp_path / "r.bin"
        cache_store(path, GENERIC, self._records())
        with pytest.raises(CacheError, match=r"cache is for curve \(1, 1\), not \(1, 2\)$"):
            cache_load(path, GlobalCurve(1, 2))

    def test_truncated(self, tmp_path):
        path = tmp_path / "r.bin"
        cache_store(path, GENERIC, self._records())
        raw = path.read_bytes()
        path.write_bytes(raw[:-5])
        with pytest.raises(CacheError, match="truncated body$"):
            cache_load(path, GENERIC)

    def test_checksum_corruption(self, tmp_path):
        path = tmp_path / "r.bin"
        cache_store(path, GENERIC, self._records())
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CacheError, match="checksum mismatch$"):
            cache_load(path, GENERIC)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "r.bin"
        path.write_bytes(b"NOTMAGIC" + b"\0" * 40)
        with pytest.raises(CacheError, match="bad magic b'NOTMAGIC'$"):
            cache_load(path, GENERIC)

    def test_run_uses_cache(self, tmp_path):
        path = str(tmp_path / "r.bin")
        r1 = small_run(cache_path=path)
        r2 = small_run(cache_path=path)  # second run loads, must agree
        assert np.array_equal(r1.records, r2.records)
        # a cache for a smaller range is extended by the primes it lacks
        r3 = small_run(x_max=3000, checkpoints=[3000], cache_path=path)
        assert len(r3.records) > len(r1.records)
        assert np.array_equal(cache_load(path, GENERIC), r3.records)

    def test_raising_xmax_computes_only_new_primes(self, tmp_path, monkeypatch):
        path = str(tmp_path / "r.bin")
        small_run(cache_path=path)
        computed = []
        real = harness.compute_block

        def spy(E, ps, threshold):
            computed.extend(int(p) for p in ps)
            return real(E, ps, threshold)
        monkeypatch.setattr(harness, "compute_block", spy)
        r3 = small_run(x_max=3000, checkpoints=[3000], cache_path=path)
        assert computed and all(2000 < p <= 3000 for p in computed)
        assert sorted(computed) == [rec.p for rec in r3.records if rec.p > 2000]
        fresh = small_run(x_max=3000, checkpoints=[3000])
        assert np.array_equal(r3.records, fresh.records)
        computed.clear()
        # a smaller x_max reads the cache and keeps the records above it
        r4 = small_run(x_max=1000, checkpoints=[1000], cache_path=path)
        assert computed == []
        assert np.array_equal(r4.records, fresh.records[fresh.records.p <= 1000])
        assert np.array_equal(cache_load(path, GENERIC), fresh.records)

    def test_cache_above_xmax_that_skips_a_good_prime_refused(self, tmp_path):
        path = str(tmp_path / "r.bin")
        whole = small_run(x_max=3000, checkpoints=[3000]).records
        skip = int(whole.p[whole.p < 2000][-1])
        cache_store(path, GENERIC, whole[whole.p != skip])
        with pytest.raises(CacheError, match=f"cache lacks the good prime {skip}$"):
            small_run(x_max=2000, checkpoints=[2000], cache_path=path)

    def test_cache_is_the_sweep_to_the_largest_xmax_so_far(self, tmp_path):
        path, reach = str(tmp_path / "r.bin"), 0
        for x_max in (1000, 3000, 2000, 5000):
            small_run(x_max=x_max, checkpoints=[x_max], cache_path=path)
            reach = max(reach, x_max)
            fresh = small_run(x_max=reach, checkpoints=[reach]).records
            assert np.array_equal(cache_load(path, GENERIC), fresh), x_max


class TestFold:
    """run_experiment folds blocks in p order: the three csv files do not
    depend on how the records are cut into blocks, where the checkpoints
    fall among them, or which records come from a cache."""

    GOOD = good_primes(GENERIC, 3000)[0]
    # pieces of 1, 1, 17, 1, 200 and 1 primes, then the rest
    CUTS = np.cumsum([1, 1, 17, 1, 200, 1]).tolist()
    # the first and the last prime of every piece, and x_max
    CHECKPOINTS = sorted(set(GOOD[[0] + CUTS].tolist() + [3000]
                             + GOOD[[c - 1 for c in CUTS] + [-1]].tolist()))

    def files(self, out, monkeypatch, cuts=None, cache=None) -> list:
        """The bytes of the three csv files of a run to 3000 into out; with
        cuts, the primes to compute go to compute_block cut before each
        index of cuts (none: one block; empty pieces dropped), by a
        serial stand-in for the stream."""
        if cuts is not None:
            def stream(work, blocks, w):
                pieces = np.split(np.concatenate(list(blocks)), cuts)
                return (work(piece) for piece in pieces if len(piece))
            monkeypatch.setattr(harness, "block_stream", stream)
        argv = ["run", "--preset", "generic1", "--xmax", "3000", "--outfile", str(out),
                "--checkpoints", ",".join(map(str, self.CHECKPOINTS))]
        assert cli.main(argv + (["--cache", str(cache)] if cache else [])) == cli.EXIT_OK
        monkeypatch.undo()
        return [(out / name).read_bytes() for name in cli.CSV_NAMES]

    def test_blocks_and_checkpoints_leave_the_files_alone(self, tmp_path, monkeypatch, capsys):
        want = self.files(tmp_path / "default", monkeypatch)
        assert self.files(tmp_path / "one", monkeypatch, cuts=[]) == want
        assert self.files(tmp_path / "uneven", monkeypatch, cuts=self.CUTS) == want
        rows = list(csv.reader(want[1].decode().splitlines()))[1:]
        assert [int(r[0]) for r in rows] == self.CHECKPOINTS
        assert [int(r[1]) for r in rows] == [int((self.GOOD <= x).sum()) for x in self.CHECKPOINTS]

    def test_cached_prefix_and_gaps_leave_the_files_alone(self, tmp_path, monkeypatch, capsys):
        # a cache to 1500 gives the files of a run with none; one that
        # lacks every third record is refused before any prime is
        # computed, and the cache and an earlier run's files stay as
        # they were
        want = self.files(tmp_path / "default", monkeypatch)
        whole = small_run(x_max=3000, checkpoints=[3000]).records
        cache = tmp_path / "c.bin"
        small_run(x_max=1500, checkpoints=[1500], cache_path=str(cache))
        assert self.files(tmp_path / "prefix", monkeypatch, cache=cache) == want
        cache_store(cache, GENERIC, whole[np.arange(len(whole)) % 3 != 1])
        gapped, computed = cache.read_bytes(), []
        monkeypatch.setattr(harness, "compute_block", lambda *args: computed.append(args))
        capsys.readouterr()
        argv = ["run", "--preset", "generic1", "--xmax", "3000", "--cache", str(cache),
                "--outfile", str(tmp_path / "prefix"),
                "--checkpoints", ",".join(map(str, self.CHECKPOINTS))]
        assert cli.main(argv) == cli.EXIT_CACHE
        assert "cache lacks the good prime 7\n" in capsys.readouterr().err
        assert computed == [] and cache.read_bytes() == gapped
        assert [(tmp_path / "prefix" / name).read_bytes() for name in cli.CSV_NAMES] == want

    @pytest.mark.parametrize("fault", ["gap", "composite-inside", "composite-last"])
    def test_late_segment_faults_leave_the_files_alone(self, fault, tmp_path, monkeypatch,
                                                       capsys):
        # over segments of 2^12 numbers, a cache to 25000 with a fault in
        # the fifth segment, [16384, 20480): a good prime left out, a
        # composite between two cached primes, or a composite after the
        # last cached prime.  Each is refused before any prime is
        # computed, and the cache and an earlier run's files stay as they
        # were
        monkeypatch.setattr(modarith, "SEGMENT", 1 << 12)
        run = ["--preset", "generic1", "--xmax", 30_000]
        want = run_files(tmp_path, *run)
        records = small_run(x_max=25_000, checkpoints=[25_000]).records
        fake = np.array([(c, 0, 1, c + 1) for c in (18001, 20001)], RECORD)  # c = 47*383, 3*6667
        gap = int(records.p[records.p > 18000][0])
        cached, text = {
            "gap": (records[records.p != gap], f"cache lacks the good prime {gap}"),
            "composite-inside": (np.sort(np.concatenate((records, fake[:1])), order="p"),
                                 "cached p = 18001 is not a good prime"),
            "composite-last": (np.concatenate((records[records.p < 20001], fake[1:])),
                               "cached p = 20001 is not a good prime")}[fault]
        cache = tmp_path / "c.bin"
        cache_store(cache, GENERIC, cached)
        stored, computed = cache.read_bytes(), []
        monkeypatch.setattr(harness, "compute_block", lambda *args: computed.append(args))
        capsys.readouterr()
        argv = ["run", *map(str, run), "--cache", str(cache), "--outfile", str(tmp_path)]
        assert cli.main(argv) == cli.EXIT_CACHE
        assert capsys.readouterr().err.endswith(f": {text}\n")
        assert computed == [] and cache.read_bytes() == stored
        assert [(tmp_path / name).read_bytes() for name in cli.CSV_NAMES] == want

    @pytest.mark.parametrize("preset", ["generic1", "cm-i"])
    def test_segments_leave_the_files_alone(self, preset, tmp_path, monkeypatch, capsys):
        # 25 segments of 2^12 numbers to 1e5 give the files of one segment
        # of 2^24: at 1 worker, at 2 workers with blocks of LANE_BLOCK = 97
        # lanes (so that each segment forks a child), and so again over a
        # cache whose last p, the last good prime below 7e4, lies inside a
        # segment; no child is left
        run = ["--preset", preset, "--xmax", 10 ** 5]
        want = run_files(tmp_path / "one", *run)
        cache = tmp_path / "c.bin"
        run_files(tmp_path / "cache", "--preset", preset, "--xmax", 70_000, "--cache", cache)
        monkeypatch.setattr(modarith, "SEGMENT", 1 << 12)
        assert run_files(tmp_path / "w1", *run) == want
        monkeypatch.setattr(harness, "LANE_BLOCK", 97)
        use_cpus(monkeypatch, 2)
        assert run_files(tmp_path / "w2", *run, "--workers", 2) == want
        assert run_files(tmp_path / "w2c", *run, "--workers", 2, "--cache", cache) == want
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_records_stream_to_write_and_are_not_kept(self):
        cfg = ExperimentConfig(curve=GENERIC, x_max=3000, checkpoints=[1000, 3000])
        blocks = []
        result = run_experiment(cfg, write=blocks.append)
        assert result.records is None and result.good == len(self.GOOD)
        assert np.concatenate(blocks)["p"].tolist() == self.GOOD.tolist()


class TestPipeline:
    @pytest.mark.parametrize("preset", ["generic1", "cm-i"])
    def test_records_independent_of_block_layout(self, preset, monkeypatch):
        E = PRESETS[preset]
        good = [p for p in sieve_primes(6000) if p not in E.bad_primes]
        whole, paths = harness.compute_records(E, good, 229)
        monkeypatch.setattr(harness, "LANE_BLOCK", 37)
        assert np.array_equal(harness.compute_records(E, good[::-1], 229)[0], whole[::-1])
        pooled, pooled_paths = harness.compute_records(E, good, 229, workers=2)
        assert np.array_equal(pooled, whole) and pooled_paths == paths
        for rec in whole:
            if rec.p < 1500:
                want = structure_bruteforce(reduce_curve(E, int(rec.p)))
                assert (rec.a_p, rec.d_p, rec.e_p) == (want.a_p, want.d_p, want.e_p)

    def test_pool_capped_at_blocks_and_cpus(self, monkeypatch):
        pools = []
        E = PRESETS["generic1"]
        good = [p for p in sieve_primes(2000) if p not in E.bad_primes]
        whole = harness.compute_records(E, good, 229)
        # a serial stand-in for the stream records w and starts no process
        monkeypatch.setattr(harness, "block_stream",
                            lambda work, blocks, w: pools.append(w) or map(work, blocks))
        sizes = []
        real = harness.compute_block
        monkeypatch.setattr(harness, "compute_block",
                            lambda E, ps, **kw: sizes.append(len(ps)) or real(E, ps, **kw))
        # the pool: min(workers, ceil(300 / LANE_BLOCK), CPUs); the blocks: the
        # least multiple of it whose blocks hold the row cells of at most
        # LANE_BLOCK lanes at 2^30, LANE_BLOCK * 371 // lane_rows(1999) =
        # LANE_BLOCK * 371 // 21 primes (1060 or 70), all of one size or
        # within one prime; cpus None is a platform without
        # sched_getaffinity whose cpu_count is None
        for block, cpus, workers, want, blocks in (
                (60, 4, 5000, 4, [75] * 4), (60, 64, 5000, 5, [60] * 5),
                (60, 64, 3, 3, [100] * 3), (60, 64, 1, 1, [300]),
                (4, 4, 5000, 4, [38] * 4 + [37] * 4), (4, 64, 1, 1, [60] * 5),
                (60, None, 5000, 1, [300])):
            monkeypatch.setattr(harness, "LANE_BLOCK", block)
            use_cpus(monkeypatch, cpus)
            pools.clear()
            sizes.clear()
            recs, paths = harness.compute_records(E, good, 229, workers)
            assert pools == [want]
            assert sizes == blocks
            assert np.array_equal(recs, whole[0]) and paths == whole[1]

    def test_one_cpu_affinity_starts_no_child(self, monkeypatch):
        # under an affinity of one CPU (taskset -c 0, say) --workers 2 runs
        # serially, however many CPUs the machine has
        E = PRESETS["generic1"]
        good = good_primes(E, 20_000)[0]
        whole, paths = harness.compute_records(E, good, THRESHOLD)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 64)
        use_cpus(monkeypatch, 1)
        monkeypatch.setattr(harness.os, "fork", lambda: pytest.fail("a child was forked"))
        recs, got = harness.compute_records(E, good, THRESHOLD, workers=2)
        assert np.array_equal(recs, whole) and got == paths

    @pytest.mark.parametrize("n, block, workers, cpus", [
        (0, 1300, 2, 2), (1, 1300, 2, 2), (1300, 1300, 1, 2), (1301, 1300, 1, 2),
        (5130, 1300, 2, 2), (5130, 1024, 2, 2), (2262, 1300, 3, 8), (78495, 1300, 2, 2),
        (78495, 1024, 1, 2), (999, 7, 3, 2), (12, 5, 8, 64)])
    def test_block_layout(self, n, block, workers, cpus, monkeypatch):
        self.check_layout(n, block, workers, cpus, 5, monkeypatch)

    @pytest.mark.parametrize("n, workers, start", [
        (30000, 2, 10 ** 8), (5000, 2, 2 ** 30 - 3000)])
    def test_block_layout_at_large_p(self, n, workers, start, monkeypatch):
        self.check_layout(n, 1024, workers, 2, start, monkeypatch)

    @staticmethod
    def check_layout(n, block, workers, cpus, start, monkeypatch):
        # the pool is min(workers, ceil(n / LANE_BLOCK), CPUs); the blocks
        # differ in size by at most one prime, none holds more lanes than
        # LANE_BLOCK lanes' row cells at 2^30 allow at the largest p, their
        # count is a multiple of the pool size, and no smaller multiple
        # would do; checked on the layout of the n numbers from start, by a
        # serial stand-in for the stream that starts no process
        pools, sizes = [], []

        def block_stub(E, ps, threshold):
            sizes.append(len(ps))
            return np.empty(0, RECORD), dict.fromkeys(PATHS, 0)
        monkeypatch.setattr(harness, "block_stream",
                            lambda work, blocks, w: pools.append(w) or map(work, blocks))
        monkeypatch.setattr(harness, "compute_block", block_stub)
        monkeypatch.setattr(harness, "LANE_BLOCK", block)
        use_cpus(monkeypatch, cpus)
        harness.compute_records(GENERIC, list(range(start, start + n)), 229, workers)
        assert sum(sizes) == n and len(pools) == 1
        if n:
            pool, = pools
            assert pool == min(workers, -(-n // block), cpus)
            cap = block * lane_rows(LANE_CAP - 1) // lane_rows(start + n - 1)
            assert max(sizes) - min(sizes) <= 1 and max(sizes) <= cap
            assert len(sizes) % pool == 0 and (len(sizes) - pool) * cap < n

    @pytest.mark.parametrize("top, size", [
        (19_997, 12254), (49_999, 10267), (999_983, 5350), (9_999_991, 3139),
        (99_999_989, 1835), (LANE_CAP - 1, 1024)])
    def test_block_size_from_the_largest_prime(self, top, size, monkeypatch):
        # one worker: `size` numbers up to top (the largest prime below 2e4,
        # ..., 1e8, then 2^30 - 1) make one block and one more make
        # two, so a block holds at most `size` primes, the most whose
        # lane rows fit the row cells of LANE_BLOCK = 1024 lanes at 2^30,
        # 1024 * lane_rows(2^30 - 1) = 1024 * 371
        sizes = []

        def block_stub(E, ps, threshold):
            sizes.append(len(ps))
            return np.empty(0, RECORD), dict.fromkeys(PATHS, 0)
        monkeypatch.setattr(harness, "compute_block", block_stub)
        for n in (size, size + 1):
            harness.compute_records(GENERIC, list(range(top - n + 1, top + 1)), 229)
        assert sizes == [size, -(-(size + 1) // 2), (size + 1) // 2]
        assert lane_rows(LANE_CAP - 1) == 371 and harness.LANE_BLOCK == 1024
        assert size * lane_rows(top) <= 1024 * 371

    @pytest.mark.parametrize("top", [20_000, 10 ** 6, 10 ** 8, 2 ** 30 - 300_000])
    def test_lane_buffers_within_the_budget(self, top, monkeypatch):
        # a block of the sweep to top, as large as its row cells allow:
        # the row buffers _window_annihilators allocates hold at most
        # LANE_BLOCK * lane_rows(2^30 - 1) cells, and it uses at most
        # lane_rows(largest p) of their rows
        budget = harness.LANE_BLOCK * lane_rows(LANE_CAP - 1)
        cap = budget // lane_rows(top)
        if top < 10 ** 7:
            p = good_primes(GENERIC, top)[0][-cap:]
        else:
            p = np.array([q for q in range(top, top - 40 * cap, -1) if is_prime(q)][:cap])
        buffers = []
        real = counting._affine
        monkeypatch.setattr(counting, "_affine",
                            lambda X, Z, p: buffers.append((X.shape, X.base.shape)) or real(X, Z, p))
        a = b = residues(1, p)
        counting.order_lanes(p, a, b, cubic_roots(p, a, b))
        (used, (rows, lanes)), = buffers
        assert lanes <= len(p) <= cap and rows == lane_rows(int(p.max()))
        assert used[0] <= rows and rows * lanes <= budget

    def test_records_identical_for_pool_and_block_sizes(self, monkeypatch):
        # the block layouts of 1, 2 and 3 workers (four CPUs assumed; the
        # 2- and 3-worker layouts fork children), at the default and a
        # small LANE_BLOCK: the same records and paths, and no child left
        E = PRESETS["cm-i"]
        good = good_primes(E, 30_000)[0]
        whole, paths = harness.compute_records(E, good, THRESHOLD)
        use_cpus(monkeypatch, 4)
        for block in (harness.LANE_BLOCK, 97):
            monkeypatch.setattr(harness, "LANE_BLOCK", block)
            for workers in (1, 2, 3):
                recs, got = harness.compute_records(E, good, THRESHOLD, workers)
                assert np.array_equal(recs, whole) and got == paths, (block, workers)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @staticmethod
    def fresh_interpreter(script, tmp_path):
        """Run script in a new interpreter with avgexp importable; returns
        the completed process.  After a minute its whole process group,
        forked children too, is killed and the test fails."""
        src = os.path.dirname(os.path.dirname(harness.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.Popen([sys.executable, "-c", script], env=env, cwd=tmp_path,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                                start_new_session=True)
        try:
            out, err = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            pytest.fail("no result within a minute")
        return subprocess.CompletedProcess(proc.args, proc.returncode, out, err)

    def test_child_failure_is_one_invariant_line(self, tmp_path):
        # a block of a forked child raises: the parent raises it, so run
        # exits 2 with one line; a child that left the fork branch would
        # go on through cli.main and print a second one
        script = """if True:
            import os, sys
            from avgexp import cli, harness
            parent, real = os.getpid(), harness.compute_block
            def block(E, ps, threshold):
                if os.getpid() != parent:
                    raise ArithmeticError(f"planted at p = {ps[0]}")
                return real(E, ps, threshold)
            harness.compute_block = block
            harness.os.sched_getaffinity = lambda pid: {0, 1}
            sys.exit(cli.main(["run", "--preset", "generic1", "--xmax", "20000",
                               "--workers", "2", "--outfile", "out"]))
        """
        done = self.fresh_interpreter(script, tmp_path)
        assert done.returncode == cli.EXIT_INVARIANT, done.stderr
        assert done.stderr.startswith("invariant violation: planted at p = ")
        assert done.stderr.count("\n") == 1 and done.stdout == ""

    def test_parent_failure_reaps_a_blocked_child(self, tmp_path):
        # the parent's own block fails while child 1 is blocked writing a
        # result larger than a pipe's buffer: the stream closes its read
        # end, so the child gets EPIPE, and returns once it is reaped
        script = """if True:
            import os, time
            import numpy as np
            from avgexp import harness
            parent = os.getpid()
            def work(block):
                if os.getpid() != parent:
                    return np.zeros(1 << 21)  # 16 MB
                time.sleep(0.5)  # the child is blocked on its write by now
                raise ArithmeticError("parent's block")
            t = time.perf_counter()
            try:
                list(harness.block_stream(work, range(4), 2))
            except ArithmeticError:
                print(f"{time.perf_counter() - t:.3f}")
            try:
                os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                print("no child left")
        """
        done = self.fresh_interpreter(script, tmp_path)
        took, reaped = done.stdout.split("\n")[:2]
        assert 0.5 <= float(took) < 5 and reaped == "no child left", done.stderr
        assert done.stderr == ""  # a child that left the fork branch would print a traceback

    @pytest.mark.parametrize("death, code", [
        (lambda: os._exit(7), 7), (lambda: os.kill(os.getpid(), signal.SIGKILL), -9)],
        ids=["exit-7", "sigkill"])
    def test_dead_child_names_its_exit_status(self, death, code):
        # a child that ends without sending its result, as one the OOM
        # killer ends: one ChildProcessError with its exit status (minus
        # the signal), not an EOFError or UnpicklingError
        parent = os.getpid()

        def work(block):
            if os.getpid() != parent:
                death()
            return block
        with pytest.raises(ChildProcessError, match=f"before block 1, exit {code}$"):
            list(harness.block_stream(work, range(4), 2))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_dead_child_is_one_worker_line(self, tmp_path):
        # a child that dies before it sends its result (the OOM killer,
        # say): run exits 5 with one line that names it, no traceback
        script = """if True:
            import os, sys
            from avgexp import cli, harness
            parent, real = os.getpid(), harness.compute_block
            def block(E, ps, threshold):
                if os.getpid() != parent:
                    os._exit(9)
                return real(E, ps, threshold)
            harness.compute_block = block
            harness.os.sched_getaffinity = lambda pid: {0, 1}
            sys.exit(cli.main(["run", "--preset", "generic1", "--xmax", "20000",
                               "--workers", "2", "--outfile", "out"]))
        """
        done = self.fresh_interpreter(script, tmp_path)
        assert done.returncode == cli.EXIT_WORKER == 5, done.stderr
        assert re.fullmatch(r"worker error: block worker \d+ died before block 1, exit 9\n",
                            done.stderr)
        assert "Traceback" not in done.stderr and done.stdout == ""

    def test_dead_child_in_a_late_segment_is_one_worker_line(self, tmp_path):
        # over segments of 2^12 numbers, with a child forked per segment, a
        # child dies in a late segment: one line, whose block index counts
        # the blocks of that segment
        script = """if True:
            import os, sys
            from avgexp import cli, harness, modarith
            parent, real = os.getpid(), harness.compute_block
            def block(E, ps, threshold):
                if os.getpid() != parent and ps[0] > 50000:
                    os._exit(9)
                return real(E, ps, threshold)
            harness.compute_block = block
            harness.os.sched_getaffinity = lambda pid: {0, 1}
            modarith.SEGMENT, harness.LANE_BLOCK = 1 << 12, 97
            sys.exit(cli.main(["run", "--preset", "generic1", "--xmax", "100000",
                               "--workers", "2", "--outfile", "out"]))
        """
        done = self.fresh_interpreter(script, tmp_path)
        assert done.returncode == cli.EXIT_WORKER == 5, done.stderr
        assert re.fullmatch(r"worker error: block worker \d+ died before block \d+, exit 9\n",
                            done.stderr)
        assert done.stdout == ""

    def test_one_sieve_pass_in_the_parent(self, tmp_path):
        # two runs at 2 workers over segments of 2^12 numbers, to 6e4 and
        # then to 1e5 over its cache: each calls harness.prime_segments
        # once, in the parent, while forked children compute blocks, and
        # no child is left
        script = """if True:
            import os
            from avgexp import cli, harness, modarith
            def logged(name, fn):
                def call(*args, **kw):
                    with open(name, "a") as fh:
                        fh.write(f"{os.getpid()}\\n")
                    return fn(*args, **kw)
                return call
            harness.prime_segments = logged("sieves", harness.prime_segments)
            harness.compute_block = logged("blocks", harness.compute_block)
            harness.os.sched_getaffinity = lambda pid: {0, 1}
            modarith.SEGMENT, harness.LANE_BLOCK = 1 << 12, 97
            for x in (60000, 100000):
                assert cli.main(["run", "--preset", "generic1", "--xmax", str(x), "--workers",
                                 "2", "--cache", "c.bin", "--outfile", "out"]) == 0
            try:
                os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                print("no child left", os.getpid())
        """
        done = self.fresh_interpreter(script, tmp_path)
        *_, last = done.stdout.splitlines()
        assert last.startswith("no child left "), done.stderr
        parent = last.split()[-1]
        blocks = (tmp_path / "blocks").read_text().split()
        assert (tmp_path / "sieves").read_text().split() == [parent, parent]
        assert parent in blocks and len(set(blocks) - {parent}) > 1  # children of segments

    def test_peak_memory_does_not_grow_with_x_max(self, tmp_path):
        # the sweep folds its blocks and streams records.csv, so the
        # largest process of a sweep to 4e6 at 2 workers peaks within
        # 1.2 times one to 1e6 (1.37 times when every record was held)
        peaks = []
        for x in (10 ** 6, 4 * 10 ** 6):
            ran = measure(["run", "--preset", "generic1", "--xmax", x, "--workers", 2,
                           "--outfile", tmp_path / str(x)], timeout=120)
            assert ran["code"] == cli.EXIT_OK
            peaks.append(ran["peak_rss_mb"])
        assert peaks[1] <= 1.2 * peaks[0], peaks

    def test_objects_only_on_the_scalar_paths(self, monkeypatch):
        # a reduction of generic1 (a = b = 1; order_bsgs's quadratic
        # twists aside) is built per naive prime, per fallback prime and
        # per prime whose structure needs scalar draws: the torsion tests
        # leave 89 of the 5130 primes open, settle's lane rounds decide 86
        # of the 88 above the lanes' floor, one (lane, l) pair each, and
        # the other 3 (p = 61 below the lanes among them) go through
        # compute_record
        built, unsettled, settled, rounds = [], [], [], []
        real_init = ReducedCurve.__post_init__

        def spy(C):
            if (C.a, C.b) == (1, 1):
                built.append(C.p)
            real_init(C)
        monkeypatch.setattr(ReducedCurve, "__post_init__", spy)
        real_record, real_settle = harness.compute_record, harness.settle
        real_rounds = structure._lane_sylow
        monkeypatch.setattr(harness, "compute_record",
                            lambda C, *args: unsettled.append(C.p) or real_record(C, *args))

        def settle_spy(p, a, b, N, roots):
            lo, hi = real_settle(p, a, b, N, roots)
            settled.append((len(p), int((lo != hi).sum())))
            return lo, hi

        def rounds_spy(p, *args):
            found = real_rounds(p, *args)
            rounds.append((len(p), int((found < 0).sum())))
            return found
        monkeypatch.setattr(harness, "settle", settle_spy)
        monkeypatch.setattr(structure, "_lane_sylow", rounds_spy)
        E = PRESETS["generic1"]
        good = good_primes(E, 50_000)[0].tolist()
        _, paths = harness.compute_records(E, good, THRESHOLD)
        assert (len(good), settled, rounds, len(unsettled)) == (5130, [(5130, 3)], [(88, 2)], 3)
        assert 61 in unsettled
        assert len(built) == paths["naive"] + paths["fallback"] + len(unsettled)

    def test_budgeted_block_memory(self, monkeypatch):
        # tracemalloc's peak over compute_block: the last block of the
        # sweep to 1e6 at one worker (15 blocks of about 5233 primes,
        # within the 5350 its row cells allow) takes at most 1.1 times
        # what a LANE_BLOCK-prime block at 2^30 - 3e5 takes, so no block
        # outgrows the largest lane block; on generic1, and on cm-i, which
        # leaves the most primes to the lane Sylow step
        top = 2 ** 30 - 300_000
        band = [q for q in range(top, top + 40 * 1024) if is_prime(q)][:harness.LANE_BLOCK]
        for E in (PRESETS["generic1"], PRESETS["cm-i"]):
            layout = []
            with monkeypatch.context() as mp:
                mp.setattr(harness, "compute_block", lambda E, ps, threshold: layout.append(ps)
                           or (np.empty(0, RECORD), dict.fromkeys(PATHS, 0)))
                harness.compute_records(E, good_primes(E, 10 ** 6)[0], THRESHOLD)
            assert len(layout) == 15 and len(layout[-1]) == 5233
            peaks = []
            for ps in (layout[-1], band):
                tracemalloc.start()
                harness.compute_block(E, ps, THRESHOLD)
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
            assert peaks[0] <= 1.1 * peaks[1], E

    @pytest.mark.parametrize("preset, x_max, lane_draws, scalar_draws", [
        ("generic1", 50_000, 260, 4), ("cm-i", 20_000, 921, 35), ("cm-3", 20_000, 808, 9)])
    def test_structure_draws(self, preset, x_max, lane_draws, scalar_draws, monkeypatch):
        # the points the structure step draws over every prime of a sweep:
        # on the lanes (the x of structure._draw_points) and on the scalar
        # path (structure.random_point), counted apart
        lanes, scalar = [0], [0]
        real_lanes, real = structure._draw_points, structure.random_point

        def lane_spy(*args):
            drawn = real_lanes(*args)
            lanes[0] += len(drawn[1])
            return drawn
        monkeypatch.setattr(structure, "_draw_points", lane_spy)
        monkeypatch.setattr(structure, "random_point",
                            lambda C, rng: scalar.__setitem__(0, scalar[0] + 1) or real(C, rng))
        E = PRESETS[preset]
        harness.compute_records(E, good_primes(E, x_max)[0].tolist(), THRESHOLD)
        assert (lanes[0], scalar[0]) == (lane_draws, scalar_draws)

    def test_paths_count_the_computed_primes(self, tmp_path):
        out, cache = tmp_path / "res.json", str(tmp_path / "c.bin")
        argv = ["run", "--preset", "cm-i", "--xmax", "5000", "--out", "json",
                "--outfile", str(out), "--cache", cache, "--trace-threshold", "1000"]
        assert cli.main(argv) == 0
        paths = json.loads(out.read_text())["paths"]
        assert set(paths) == {"naive", "lanes", "fallback"}
        assert paths["naive"] == sum(p < 1000 for p in sieve_primes(5000)) - 2
        assert sum(paths.values()) == 667 and paths["lanes"] > 0 and paths["fallback"] > 0
        assert cli.main(argv) == 0  # every record now comes from the cache
        assert json.loads(out.read_text())["paths"] == dict.fromkeys(paths, 0)

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_threshold_moves_only_the_paths(self, preset):
        # the character sum and the lanes agree from 229 to 400, and at
        # run's default the character sum counts only the primes below 229
        E = PRESETS[preset]
        good = good_primes(E, 20_000)[0]
        records, paths = harness.compute_records(E, good, THRESHOLD)
        old, old_paths = harness.compute_records(E, good, 400)
        assert np.array_equal(records, old)
        assert paths["naive"] == int((good < 229).sum()) < old_paths["naive"]

    def test_verify_checks_the_threshold_run_uses(self, tmp_path, monkeypatch):
        real = harness.trace_block

        def thresholds(argv):
            seen = set()
            monkeypatch.setattr(harness, "trace_block", lambda p, a, b, roots, threshold:
                                seen.add(threshold) or real(p, a, b, roots, threshold))
            assert cli.main(argv) == 0
            return seen
        run = thresholds(["run", "--preset", "cm-i", "--xmax", "300", "--outfile", str(tmp_path)])
        assert thresholds(["verify", "--xmax", "300"]) == run == {THRESHOLD}

    def test_verify_checks_the_lanes(self, capsys):
        assert cli.main(["verify", "--xmax", "1000"]) == 0
        out = capsys.readouterr().out
        assert "y^2 = x^3 - x: 166 good primes <= 1000 cross-checked (naive 47, lanes" in out
        assert "match full enumeration" in out


class TestCli:
    def test_negative_a4_curve_matches_its_preset(self, tmp_path, capsys):
        # '--curve -1,0' is y^2 = x^3 - x, not an option: the same files
        # as --preset cm-i, and the same paths line
        outs = []
        for flags in (["--curve", "-1,0"], ["--preset", "cm-i"]):
            out = tmp_path / flags[0][2:]
            assert cli.main(["run", *flags, "--xmax", "3000", "--outfile", str(out)]) == 0
            outs.append([(out / name).read_bytes() for name in cli.CSV_NAMES])
        assert outs[0] == outs[1]
        lines = capsys.readouterr().out.splitlines()
        assert lines.count("paths: naive 47, lanes 363, fallback 18") == 2

    def test_run_csv_and_verify(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = cli.main(["run", "--preset", "generic1", "--xmax", "1000",
                       "--checkpoints", "500,1000", "--workers", "2",
                       "--outfile", str(out)])
        assert rc == 0
        for name in ("records.csv", "checkpoints.csv", "pi_e.csv"):
            assert (out / name).exists()
        header = (out / "records.csv").read_text().splitlines()[0]
        assert header == "p,a_p,d_p,e_p"
        rc = cli.main(["verify", "--xmax", "200"])
        assert rc == 0
        assert "match full enumeration" in capsys.readouterr().out

    def test_run_json(self, tmp_path):
        out = tmp_path / "res.json"
        rc = cli.main(["run", "--curve", "1,1", "--xmax", "500",
                       "--checkpoints", "500", "--out", "json",
                       "--outfile", str(out)])
        assert rc == 0
        blob = json.loads(out.read_text())
        assert blob["curve"] == {"a4": 1, "a6": 1, "label": "1,1"}
        assert blob["skipped_bad_primes"] == [2, 3, 31]
        assert blob["checkpoints"][0]["pi_x"] > 0
        assert blob["records"][0][0] == 5

    def test_constant_subcommand(self, capsys):
        rc = cli.main(["constant", "--model", "gl2",
                       "--series-y", "100", "--euler-pmax", "100"])
        assert rc == 0
        assert "consistent" in capsys.readouterr().out

    def test_constant_prints_the_requested_precision(self, capsys):
        rc = cli.main(["constant", "--series-y", "100", "--euler-pmax", "100",
                       "--precision", "60"])
        assert rc == 0
        values = [line.split()[-1] for line in capsys.readouterr().out.splitlines()
                  if line.startswith(("series", "euler"))]
        assert len(values) == 2
        assert all(len(v.lstrip("0.")) >= 59 for v in values), values

    def test_cache_error_exit_code(self, tmp_path):
        path = str(tmp_path / "c.bin")
        assert cli.main(["run", "--preset", "generic1", "--xmax", "300",
                         "--checkpoints", "300", "--cache", path,
                         "--outfile", str(tmp_path)]) == 0
        rc = cli.main(["run", "--preset", "cm-i", "--xmax", "300",
                       "--checkpoints", "300", "--cache", path,
                       "--outfile", str(tmp_path)])
        assert rc == 3

    @pytest.mark.parametrize("fails", ["write", "replace"])
    def test_failed_cache_write_is_a_cache_error(self, fails, tmp_path, capsys, monkeypatch):
        # a full disk or a file size limit, after the whole sweep: one line,
        # exit 3, and no partial cache file left behind
        def refuse(*args):
            raise OSError(27, "File too large")

        class Full:  # makes the file, then refuses every write to it
            def __init__(self, path, mode):
                self.fh = open(path, mode)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            write = refuse
        if fails == "write":
            monkeypatch.setattr(harness, "open", Full, raising=False)
        else:
            monkeypatch.setattr(os, "replace", refuse)
        rc = cli.main(["run", "--preset", "generic1", "--xmax", "300", "--checkpoints", "300",
                       "--cache", str(tmp_path / "c.bin"), "--outfile", str(tmp_path)])
        assert rc == cli.EXIT_CACHE
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("cache error: ")
        assert "File too large" in err
        assert not list(tmp_path.glob("c.bin*"))

    def test_unreadable_cache_is_a_cache_error(self, tmp_path, capsys, monkeypatch):
        # no permission to read an existing cache: one line, exit 3, and
        # the outputs of the earlier run byte-unchanged
        cache = tmp_path / "c.bin"
        argv = ["run", "--preset", "generic1", "--xmax", "300", "--checkpoints", "300",
                "--cache", str(cache), "--outfile", str(tmp_path)]
        assert cli.main(argv) == cli.EXIT_OK
        before = {name: (tmp_path / name).read_bytes() for name in cli.CSV_NAMES + ("c.bin",)}

        def refuse(path, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(path))
        monkeypatch.setattr(harness, "open", refuse, raising=False)
        capsys.readouterr()
        assert cli.main(argv) == cli.EXIT_CACHE
        assert capsys.readouterr().err == f"cache error: {cache}: Permission denied\n"
        assert {name: (tmp_path / name).read_bytes() for name in before} == before
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(before)

    def test_xmax_too_small_is_a_usage_error(self, tmp_path, capsys):
        rc = cli.main(["run", "--preset", "generic1", "--xmax", "50",
                       "--outfile", str(tmp_path)])
        assert rc == cli.EXIT_USAGE == 4
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "x_max must be >= 100" in err

    @pytest.mark.parametrize("name", cli.CSV_NAMES)
    def test_csv_name_taken_by_a_directory_is_a_usage_error(self, name, tmp_path, capsys,
                                                             monkeypatch):
        # a directory where a csv file goes is refused before the sweep
        (tmp_path / name).mkdir()
        monkeypatch.setattr(cli, "run_experiment", lambda *_: pytest.fail("the sweep ran"))
        rc = cli.main(["run", "--preset", "generic1", "--xmax", "1000",
                       "--outfile", str(tmp_path)])
        assert rc == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"{tmp_path / name} is a directory" in err

    def test_cap_sizes_are_usage_errors(self, tmp_path, capsys, monkeypatch):
        # one past each cap exits 4 with one stderr line before anything is
        # allocated; at the cap the value is accepted, and the stubbed work
        # behind it is reached
        class Reached(Exception):
            pass

        def reached(real):
            def stub(n, *_):
                if isinstance(n, int) and n <= 1000:
                    return real(n)
                raise Reached
            return stub
        monkeypatch.setattr(cli, "run_experiment", reached(None))
        monkeypatch.setattr(constants, "_level_table", reached(constants._level_table))
        monkeypatch.setattr(constants, "sieve_primes", reached(constants.sieve_primes))
        run = ["run", "--preset", "generic1", "--outfile", str(tmp_path), "--xmax"]
        cap = constants.TRUNCATION_CAP
        assert harness.X_MAX_CAP == 2 ** 30 - 1
        for argv in (run + [str(harness.X_MAX_CAP + 1)], run + ["10" * 10],
                     ["constant", "--series-y", str(cap + 1), "--euler-pmax", "10"],
                     ["constant", "--series-y", "100000000000", "--euler-pmax", "10"],
                     ["constant", "--series-y", "10", "--euler-pmax", str(cap + 1)]):
            assert cli.main(argv) == cli.EXIT_USAGE, argv
            err = capsys.readouterr().err
            assert err.startswith("usage error: ") and err.count("\n") == 1, argv
        for argv in (run + [str(harness.X_MAX_CAP)],
                     ["constant", "--series-y", str(cap), "--euler-pmax", "10"],
                     ["constant", "--series-y", "10", "--euler-pmax", str(cap)]):
            with pytest.raises(Reached):
                cli.main(argv)

    def test_oversized_curve_runs(self, tmp_path):
        # |disc| ~ 2^86 is beyond factorize; its bad primes are the p | disc
        rc = cli.main(["run", "--curve", "100000000,1", "--xmax", "1000",
                       "--outfile", str(tmp_path)])
        assert rc == cli.EXIT_OK
        rows = (tmp_path / "records.csv").read_text().splitlines()
        assert len(rows) == 1 + 166 and rows[1].startswith("5,")  # 2 and 3 skipped

    def test_oversized_coefficient_with_cache_is_a_usage_error(self, tmp_path, capsys,
                                                               monkeypatch):
        monkeypatch.setattr(cli, "run_experiment", None)  # refused before the sweep
        cache = tmp_path / "c.bin"
        rc = cli.main(["run", "--curve", "10000000000000000000,1", "--xmax", "1000",
                       "--cache", str(cache), "--outfile", str(tmp_path)])
        assert rc == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "int64" in err
        assert not cache.exists()

    @pytest.mark.parametrize("argv", [
        ["run", "--curve", "1;1", "--xmax", "1000"],
        ["run", "--curve", "0,0", "--xmax", "1000"],
        ["verify", "--xmax", "6000"],
        ["constant", "--series-y", "100", "--euler-pmax", "100", "--precision", "0"],
        ["constant", "--series-y", "100", "--euler-pmax", "100", "--precision", "5"],
        ["constant", "--series-y", "100", "--euler-pmax", "100", "--precision", "19"],
        ["constant", "--series-y", "0", "--euler-pmax", "100"],
        ["constant", "--series-y", "10", "--euler-pmax", "1"],
        ["constant", "--series-y", "10", "--euler-pmax", "10", "--overrides", "/no/such/file"],
        ["run", "--preset", "generic1", "--xmax", "1000", "--overrides", "/no/such/file"],
        ["verify", "--xmax", "1"],
        ["verify", "--xmax", "-3"],
        ["run", "--preset", "generic1", "--xmax", "1000", "--checkpoints", "3,1000"],
        ["run", "--preset", "generic1", "--xmax", "1000", "--checkpoints", "100,1000,1000"],
        ["run", "--preset", "generic1", "--xmax", "1000", "--checkpoints", "100,2000"],
    ])
    def test_other_rejected_values_are_usage_errors(self, argv, capsys):
        assert cli.main(argv) == cli.EXIT_USAGE
        assert capsys.readouterr().err.startswith("usage error: ")

    @pytest.mark.parametrize("value", ["1e3", ","])
    def test_bad_checkpoints_name_the_flag(self, value, capsys):
        argv = ["run", "--preset", "generic1", "--xmax", "1000", "--checkpoints", value]
        assert cli.main(argv) == cli.EXIT_USAGE
        assert capsys.readouterr().err == ("usage error: --checkpoints expects "
                                           "comma-separated decimal integers\n")

    @pytest.mark.parametrize("command, text", [
        ("constant", "6 288\n"),  # composite level: no Euler product
        ("constant", "2 3 4\n"),
        ("constant", "2 1/0\n"),
        ("constant", "two 3\n"),
        ("run", "2 1/0\n"),
        ("run", "2\n"),
        ("constant", f"{2 ** 40} 1e30\n"),  # beyond factorize, which euler_phi calls
        ("run", f"{2 ** 40} 1e30\n"),
    ], ids=["constant-composite", "constant-three-fields", "constant-zero-denominator",
            "constant-bad-level", "run-zero-denominator", "run-one-field",
            "constant-level-2^40", "run-level-2^40"])
    def test_bad_overrides_are_usage_errors(self, command, text, tmp_path, capsys):
        path = tmp_path / "ov.txt"
        path.write_text(text)
        argv = (["constant", "--series-y", "10", "--euler-pmax", "10"] if command == "constant"
                else ["run", "--preset", "generic1", "--xmax", "1000", "--outfile", str(tmp_path)])
        assert cli.main(argv + ["--overrides", str(path)]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and err.count("\n") == 1
        if text.startswith(f"{2 ** 40} "):  # the flag and the level, not factorize's range
            assert err.startswith(f"usage error: --overrides: bad override {2 ** 40} -> ")

    @pytest.mark.parametrize("argv, text", [
        (["run", "--preset", "generic1", "--xmax", "1000"], "2 1\n3 2\n4 2\n5 4\n7 6\n"),
        (["constant", "--series-y", "100", "--euler-pmax", "100"], "2 1\n3 2\n4 2\n5 4\n7 6\n"),
        (["run", "--preset", "generic1", "--xmax", "1000", "--model", "empirical"], "4 0.5\n"),
        (["verify", "--xmax", "4"], None),
    ], ids=["run-negative-constant", "constant-negative-constant", "run-empirical-without-level-1",
            "verify-below-5"])
    def test_refused_before_any_prime(self, argv, text, tmp_path, capsys, monkeypatch):
        # the gl2 series of the first file is -0.30, the empirical table of
        # the second lacks level 1, and no prime below 5 is good: each
        # exits 4 with one stderr line before a prime is computed or an
        # output directory is made
        monkeypatch.setattr(harness, "compute_block", lambda *_, **__: pytest.fail("a prime ran"))
        if text:
            (tmp_path / "ov").write_text(text)
            argv = argv + ["--overrides", str(tmp_path / "ov")]
        if argv[0] == "run":
            argv = argv + ["--outfile", str(tmp_path / "out")]
        assert cli.main(argv) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_verify_from_the_least_good_prime(self, capsys):
        # 5 is good on every curve verify checks, so each checks p = 5
        assert cli.main(["verify", "--xmax", "5"]) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert out.count(": 1 good primes <= 5 cross-checked (naive 1, ") == 3
        assert "match full enumeration" in out

    @pytest.mark.parametrize("precision", ["20", "100"])
    def test_constant_at_and_above_precision_floor(self, precision, capsys):
        rc = cli.main(["constant", "--series-y", "100", "--euler-pmax", "100",
                       "--precision", precision])
        assert rc == cli.EXIT_OK
        assert "consistent" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["run", "--preset", "generic1"],
        ["run", "--preset", "nope", "--xmax", "1000"],
        ["run", "--preset", "generic1", "--curve", "1,2", "--xmax", "1000"],
        ["run", "--xmax", "1000"],
        ["run", "--preset", "generic1", "--xmax", "ten"],
        ["bogus"],
        ["run", "--preset", "generic1", "--xmax", "1000", "--seed", "1"],
        ["run", "--preset", "generic1", "--xmax", "1000", "--precision", "19"],
        ["constant", "--model", "empirical", "--series-y", "10", "--euler-pmax", "10"],
    ])
    def test_argparse_errors_are_usage_errors(self, argv, capsys):
        assert cli.main(argv) == cli.EXIT_USAGE
        assert "error:" in capsys.readouterr().err

    def test_unwritable_outfile_is_a_usage_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_experiment", None)  # refused before the sweep
        blocker = tmp_path / "file"
        blocker.write_text("")
        for out, outfile in (("json", tmp_path / "missing" / "x.json"),
                             ("csv", blocker / "sub"), ("json", tmp_path)):
            rc = cli.main(["run", "--preset", "generic1", "--xmax", "1000",
                           "--out", out, "--outfile", str(outfile)])
            assert rc == cli.EXIT_USAGE
            err = capsys.readouterr().err
            assert err.startswith("usage error: --outfile") and err.count("\n") == 1

    def test_cache_directory_is_a_usage_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_experiment", None)  # refused before the sweep
        rc = cli.main(["run", "--preset", "generic1", "--xmax", "1000",
                       "--cache", str(tmp_path), "--outfile", str(tmp_path)])
        assert rc == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage error: --cache") and err.count("\n") == 1

    def test_cache_in_missing_directory_is_a_usage_error(self, tmp_path, capsys,
                                                         monkeypatch):
        monkeypatch.setattr(cli, "run_experiment", None)  # refused before the sweep
        rc = cli.main(["run", "--preset", "generic1", "--xmax", "1000",
                       "--cache", str(tmp_path / "nodir" / "c.bin"),
                       "--outfile", str(tmp_path)])
        assert rc == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage error: --cache") and err.count("\n") == 1
        assert not (tmp_path / "records.csv").exists()

    def test_closed_stdout_keeps_the_files(self, tmp_path, capsys, monkeypatch):
        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                pass

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        base = ["run", "--curve", "100000000,1", "--xmax", "1000"]
        assert cli.main(base + ["--outfile", str(tmp_path)]) == cli.EXIT_PIPE
        for name in ("records.csv", "checkpoints.csv", "pi_e.csv"):
            assert (tmp_path / name).exists()
        out = tmp_path / "res.json"
        assert cli.main(base + ["--checkpoints", ",".join(map(str, range(100, 1001, 100))),
                                "--out", "json", "--outfile", str(out)]) == cli.EXIT_PIPE
        assert out.exists()
        assert capsys.readouterr().err == ""  # no usage error, no traceback

    def test_failed_sweep_leaves_records_csv_as_it_was(self, tmp_path, capsys, monkeypatch):
        # records.csv is written under a temporary name as the sweep folds
        # its blocks: a block that fails after others were written leaves
        # the old file, and no partial one
        argv = ["run", "--preset", "generic1", "--xmax", "3000", "--outfile", str(tmp_path)]
        assert cli.main(argv) == cli.EXIT_OK
        old = (tmp_path / "records.csv").read_bytes()
        written, real = [], harness.compute_block

        def block(E, ps, threshold):
            if ps[-1] > 2000:
                raise ArithmeticError("planted")
            written.append(len(ps))
            return real(E, ps, threshold)
        monkeypatch.setattr(harness, "compute_block", block)
        monkeypatch.setattr(harness, "LANE_BLOCK", 20)  # 2 blocks
        assert cli.main(argv) == cli.EXIT_INVARIANT
        assert written
        assert (tmp_path / "records.csv").read_bytes() == old
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(cli.CSV_NAMES)

    def test_failed_records_write_is_a_usage_error(self, tmp_path, capsys, monkeypatch):
        # a full disk while records.csv is written: one --outfile line,
        # exit 4, no partial file
        def full(fh, records):
            raise OSError(28, "No space left on device")
        monkeypatch.setattr(cli, "_append", full)
        rc = cli.main(["run", "--preset", "generic1", "--xmax", "3000",
                       "--outfile", str(tmp_path)])
        assert rc == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err == "usage error: --outfile: [Errno 28] No space left on device\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("out", ["csv", "json"])
    def test_failed_late_write_leaves_the_earlier_files(self, out, tmp_path, capsys,
                                                        monkeypatch):
        # a full disk while checkpoints.csv (or the json file) is written,
        # after records.csv: exit 4, the files of an earlier run to 2000
        # byte-unchanged and no .part file left
        target = tmp_path if out == "csv" else tmp_path / "r.json"
        names = cli.CSV_NAMES if out == "csv" else ("r.json",)
        argv = ["run", "--preset", "generic1", "--out", out, "--outfile", str(target)]
        assert cli.main(argv + ["--xmax", "2000"]) == cli.EXIT_OK
        before = {name: (tmp_path / name).read_bytes() for name in names}
        real_open = open

        class Full:  # opens, and so truncates, the file, then refuses every write
            def __init__(self, path, *args, **kwargs):
                self.fh = real_open(path, *args, **kwargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, *args):
                raise OSError(28, "No space left on device")

        def full(path, *args, **kwargs):
            late = os.path.basename(path).startswith(("checkpoints.csv", "r.json"))
            return (Full if late else real_open)(path, *args, **kwargs)
        monkeypatch.setattr(harness, "open", full, raising=False)
        capsys.readouterr()
        assert cli.main(argv + ["--xmax", "3000"]) == cli.EXIT_USAGE
        assert capsys.readouterr().err == ("usage error: --outfile: "
                                           "[Errno 28] No space left on device\n")
        assert {name: (tmp_path / name).read_bytes() for name in names} == before
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names)

    def test_workers_above_1_need_fork(self, tmp_path, capsys, monkeypatch):
        # without os.fork only --workers 1 runs; more is one usage line
        monkeypatch.delattr(harness.os, "fork", raising=False)
        argv = ["run", "--preset", "generic1", "--xmax", "1000", "--outfile", str(tmp_path)]
        assert cli.main(argv + ["--workers", "2"]) == cli.EXIT_USAGE
        assert capsys.readouterr().err == ("usage error: workers must be >= 1, "
                                           "and 1 on a platform without os.fork\n")
        assert cli.main(argv + ["--workers", "1"]) == cli.EXIT_OK

    def test_help_exits_zero(self, capsys):
        assert cli.main(["run", "--help"]) == cli.EXIT_OK
        assert "--xmax" in capsys.readouterr().out

    def test_module_entry_point(self):
        # python -m avgexp runs the same main as the avgexp script
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-m", "avgexp", "--help"], env=env,
                              capture_output=True, text=True)
        assert done.returncode == 0 and "usage: avgexp" in done.stdout

    def test_presets_exist(self):
        assert PRESETS["generic1"].a4 == 1 and PRESETS["generic1"].a6 == 1
        assert PRESETS["cm-i"].a4 == -1 and PRESETS["cm-i"].a6 == 0
        assert PRESETS["cm-3"].a4 == 0 and PRESETS["cm-3"].a6 == 16
