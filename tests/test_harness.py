"""Experiment orchestration: determinism, exactness, cache, diagnostics."""

import dataclasses
import json
import math
import struct
from fractions import Fraction

import numpy as np
import pytest

from avgexp import cli, harness
from avgexp.constants import DegreeModel
from avgexp.counting import trace_naive
from avgexp.curve import GlobalCurve, ReducedCurve, reduce_curve
from avgexp.harness import (CacheMismatch, CheckpointRow, CorruptCache,
                            ExperimentConfig, InsufficientCheckpoints,
                            PRESETS, RECORD, cache_load, cache_store,
                            compute_record, default_checkpoints, error_trend,
                            good_primes, pi_E_table, record_violations,
                            run_experiment, write_records_csv)
from avgexp.modarith import is_prime, sieve_primes
from avgexp.structure import structure_bruteforce

GENERIC = GlobalCurve(1, 1)


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
        write_records_csv(f1, r1.records)
        write_records_csv(f2, r2.records)
        assert f1.read_bytes() == f2.read_bytes()

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
        with pytest.raises(ValueError):
            ExperimentConfig(curve=GENERIC, x_max=1000, precision=19)
        with pytest.raises(ValueError, match="least good prime"):
            ExperimentConfig(curve=GENERIC, x_max=1000, checkpoints=[3, 1000])
        ExperimentConfig(curve=GENERIC, x_max=1000, checkpoints=[5, 1000])

    def test_default_checkpoints(self):
        assert default_checkpoints(10 ** 6) == [10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6]
        assert default_checkpoints(5000) == [1000, 5000]
        assert default_checkpoints(500) == [500]


# |disc| >= 2^63, beyond factorize: 86 and 220 bits; the second curve's
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
        result = run_experiment(ExperimentConfig(curve=E, x_max=3000, checkpoints=[3000],
                                                 trace_threshold=229))
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
        real = harness.group_structure

        def planted(C, T):
            S = real(C, T)
            return dataclasses.replace(S, d_p=3, e_p=S.N // 3) if C.p == 17 else S
        monkeypatch.setattr(harness, "group_structure", planted)
        with pytest.raises(ArithmeticError, match="p = 17"):
            harness.compute_block(GENERIC, [13, 17, 19], 229)


class TestPiETable:
    def test_k1_counts_good_primes(self):
        result = small_run()
        table = pi_E_table(result.records, 2000, 8, result.model)
        k1 = table[0]
        assert k1[0] == 1 and k1[1] == len(result.records)

    def test_zero_beyond_hasse_range(self):
        result = small_run(x_max=400, checkpoints=[400])
        kmax = 2 * math.isqrt(400) + 5
        table = pi_E_table(result.records, 400, kmax + 10, result.model)
        for k, count, _ in table:
            if k > kmax:
                assert count == 0

    def test_bounded_by_residue_class_count(self):
        result = small_run()
        primes = [p for p in sieve_primes(2000) if p not in GENERIC.bad_primes]
        table = pi_E_table(result.records, 2000, 10, result.model)
        for k, count, _ in table:
            if k == 1:
                continue
            residue = sum(1 for p in primes if p % k == 1)
            assert count <= residue

    def test_prediction_none_when_uncovered(self):
        result = small_run()
        model = DegreeModel("empirical", {1: 1})
        table = pi_E_table(result.records, 2000, 3, model)
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
        with pytest.raises(CorruptCache, match="p = 7"):
            cache_load(path, GENERIC)
        rc = cli.main(["run", "--preset", "generic1", "--xmax", "300", "--checkpoints", "300",
                       "--cache", str(path), "--outfile", str(tmp_path)])
        assert rc == cli.EXIT_CACHE == 3
        assert "p = 7" in capsys.readouterr().err

    @pytest.mark.parametrize("order", [[0, 1, 1, 2], [0, 2, 1]], ids=["repeated", "unsorted"])
    def test_repeated_or_unsorted_p_refused(self, order, tmp_path):
        path = tmp_path / "r.bin"
        cache_store(path, GENERIC, self._records()[order])
        with pytest.raises(CorruptCache, match="p = 7"):
            cache_load(path, GENERIC)

    @pytest.mark.parametrize("rec", [(31, 0, 1, 32), (9, 0, 1, 10)], ids=["bad-prime", "composite"])
    def test_cached_p_that_is_no_good_prime_refused(self, rec, tmp_path):
        path = str(tmp_path / "r.bin")
        small_run(x_max=100, checkpoints=[100], cache_path=path)
        recs = np.sort(np.append(cache_load(path, GENERIC), np.array([rec], dtype=RECORD)),
                       order="p")
        cache_store(path, GENERIC, recs)
        assert np.array_equal(cache_load(path, GENERIC), recs)  # every identity holds
        with pytest.raises(CorruptCache, match=f"p = {rec[0]} is not a good prime"):
            small_run(x_max=100, checkpoints=[100], cache_path=path)

    def test_wrong_curve_header(self, tmp_path):
        path = tmp_path / "r.bin"
        cache_store(path, GENERIC, self._records())
        with pytest.raises(CacheMismatch):
            cache_load(path, GlobalCurve(1, 2))

    def test_truncated(self, tmp_path):
        path = tmp_path / "r.bin"
        cache_store(path, GENERIC, self._records())
        raw = path.read_bytes()
        path.write_bytes(raw[:-5])
        with pytest.raises(CorruptCache):
            cache_load(path, GENERIC)

    def test_checksum_corruption(self, tmp_path):
        path = tmp_path / "r.bin"
        cache_store(path, GENERIC, self._records())
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptCache):
            cache_load(path, GENERIC)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "r.bin"
        path.write_bytes(b"NOTMAGIC" + b"\0" * 40)
        with pytest.raises(CorruptCache):
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
        real = harness.compute_record

        def spy(C, T):
            computed.append(C.p)
            return real(C, T)
        monkeypatch.setattr(harness, "compute_record", spy)
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

        class SerialPool:  # records max_workers; starts no process
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        E = PRESETS["generic1"]
        good = [p for p in sieve_primes(2000) if p not in E.bad_primes]
        whole = harness.compute_records(E, good, 229)
        monkeypatch.setattr(harness, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(harness, "LANE_BLOCK", 60)  # 300 primes: 5 blocks
        for cpus, workers, want in ((4, 5000, 4), (64, 5000, 5), (None, 5000, None),
                                    (64, 3, 3), (64, 1, None)):
            monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
            pools.clear()
            recs, paths = harness.compute_records(E, good, 229, workers)
            assert pools == ([want] if want else [])
            assert np.array_equal(recs, whole[0]) and paths == whole[1]

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

    def test_verify_checks_the_lanes(self, capsys):
        assert cli.main(["verify", "--xmax", "1000", "--trace-threshold", "229"]) == 0
        out = capsys.readouterr().out
        assert "y^2 = x^3 - x: 166 good primes <= 1000 cross-checked (naive 47, lanes" in out
        assert "match full enumeration" in out


class TestCli:
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

    def test_xmax_too_small_is_a_usage_error(self, tmp_path, capsys):
        rc = cli.main(["run", "--preset", "generic1", "--xmax", "50",
                       "--outfile", str(tmp_path)])
        assert rc == cli.EXIT_USAGE == 4
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "x_max must be >= 100" in err

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
        ["run", "--preset", "nope", "--xmax", "1000"],
        ["run", "--curve", "1;1", "--xmax", "1000"],
        ["run", "--curve", "0,0", "--xmax", "1000"],
        ["constant", "--model", "empirical", "--series-y", "10", "--euler-pmax", "10"],
        ["verify", "--xmax", "6000"],
        ["constant", "--series-y", "100", "--euler-pmax", "100", "--precision", "0"],
        ["constant", "--series-y", "100", "--euler-pmax", "100", "--precision", "5"],
        ["constant", "--series-y", "100", "--euler-pmax", "100", "--precision", "19"],
        ["constant", "--series-y", "0", "--euler-pmax", "100"],
        ["constant", "--series-y", "10", "--euler-pmax", "1"],
        ["constant", "--series-y", "10", "--euler-pmax", "10", "--overrides", "/no/such/file"],
        ["run", "--preset", "generic1", "--xmax", "1000", "--precision", "19"],
        ["run", "--preset", "generic1", "--xmax", "1000", "--overrides", "/no/such/file"],
        ["verify", "--xmax", "1"],
        ["verify", "--xmax", "-3"],
        ["run", "--preset", "generic1", "--xmax", "1000", "--checkpoints", "3,1000"],
        ["run", "--preset", "generic1", "--xmax", "1000", "--checkpoints", "100,1000,1000"],
    ])
    def test_other_rejected_values_are_usage_errors(self, argv, capsys):
        assert cli.main(argv) == cli.EXIT_USAGE
        assert capsys.readouterr().err.startswith("usage error: ")

    @pytest.mark.parametrize("command, text", [
        ("constant", "6 288\n"),  # composite level: no Euler product
        ("constant", "2 3 4\n"),
        ("constant", "2 1/0\n"),
        ("constant", "two 3\n"),
        ("run", "2 1/0\n"),
        ("run", "2\n"),
    ], ids=["constant-composite", "constant-three-fields", "constant-zero-denominator",
            "constant-bad-level", "run-zero-denominator", "run-one-field"])
    def test_bad_overrides_are_usage_errors(self, command, text, tmp_path, capsys):
        path = tmp_path / "ov.txt"
        path.write_text(text)
        argv = (["constant", "--series-y", "10", "--euler-pmax", "10"] if command == "constant"
                else ["run", "--preset", "generic1", "--xmax", "1000", "--outfile", str(tmp_path)])
        assert cli.main(argv + ["--overrides", str(path)]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("precision", ["20", "100"])
    def test_constant_at_and_above_precision_floor(self, precision, capsys):
        rc = cli.main(["constant", "--series-y", "100", "--euler-pmax", "100",
                       "--precision", precision])
        assert rc == cli.EXIT_OK
        assert "consistent" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["run", "--preset", "generic1"],
        ["run", "--preset", "generic1", "--xmax", "ten"],
        ["bogus"],
        ["run", "--preset", "generic1", "--xmax", "1000", "--seed", "1"],
    ])
    def test_argparse_errors_are_usage_errors(self, argv, capsys):
        assert cli.main(argv) == cli.EXIT_USAGE
        assert "error:" in capsys.readouterr().err

    def test_unwritable_outfile_is_a_usage_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_experiment", None)  # refused before the sweep
        blocker = tmp_path / "file"
        blocker.write_text("")
        for out, outfile in (("json", tmp_path / "missing" / "x.json"),
                             ("csv", blocker / "sub")):
            rc = cli.main(["run", "--preset", "generic1", "--xmax", "1000",
                           "--out", out, "--outfile", str(outfile)])
            assert rc == cli.EXIT_USAGE
            err = capsys.readouterr().err
            assert err.startswith("usage error: --outfile") and err.count("\n") == 1

    def test_help_exits_zero(self, capsys):
        assert cli.main(["run", "--help"]) == cli.EXIT_OK
        assert "--xmax" in capsys.readouterr().out

    def test_presets_exist(self):
        assert PRESETS["generic1"].a4 == 1 and PRESETS["generic1"].a6 == 1
        assert PRESETS["cm-i"].a4 == -1 and PRESETS["cm-i"].a6 == 0
        assert PRESETS["cm-3"].a4 == 0 and PRESETS["cm-3"].a6 == 16
