"""Experiment orchestration: determinism, exactness, cache, diagnostics."""

import json
import math
from fractions import Fraction

import pytest

from avgexp import cli, harness
from avgexp.constants import DegreeModel
from avgexp.curve import GlobalCurve, ReducedCurve
from avgexp.harness import (CacheMismatch, CheckpointRow, CorruptCache,
                            ExperimentConfig, InsufficientCheckpoints,
                            PRESETS, PrimeRecord, cache_load, cache_store,
                            compute_record, default_checkpoints, error_trend,
                            pi_E_table, run_experiment, write_records_csv)
from avgexp.modarith import sieve_primes
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
            want = structure_bruteforce(ReducedCurve(rec.p, 1 % rec.p, 1 % rec.p))
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
        r1 = small_run(seed=5, workers=1)
        r2 = small_run(seed=5, workers=2)
        assert r1.records == r2.records
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
        rec = compute_record(PRESETS["generic1"], 6701, 1, 10_000)
        assert (rec.a_p, rec.d_p, rec.e_p) == (-130, 2, 3416)

    @pytest.mark.parametrize("preset", ["cm-i", "generic1"])
    def test_records_independent_of_seed(self, tmp_path, preset):
        # certified records do not depend on the random stream
        blobs = []
        for seed in ("1", "2"):
            out = tmp_path / seed
            assert cli.main(["run", "--preset", preset, "--xmax", "20000",
                             "--seed", seed, "--outfile", str(out)]) == 0
            blobs.append((out / "records.csv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(curve=GENERIC, x_max=50)
        with pytest.raises(ValueError):
            ExperimentConfig(curve=GENERIC, x_max=1000, checkpoints=[900, 300])
        with pytest.raises(ValueError):
            ExperimentConfig(curve=GENERIC, x_max=1000, checkpoints=[2000])
        with pytest.raises(ValueError):
            ExperimentConfig(curve=GENERIC, x_max=1000, workers=0)
        with pytest.raises(ValueError):
            ExperimentConfig(curve=GENERIC, x_max=1000, precision=19)

    def test_default_checkpoints(self):
        assert default_checkpoints(10 ** 6) == [10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6]
        assert default_checkpoints(5000) == [1000, 5000]
        assert default_checkpoints(500) == [500]


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
        return [PrimeRecord(5, -3, 1, 9), PrimeRecord(7, -3, 1, 11),
                PrimeRecord(104729, -10, 2, 52360)]

    def test_round_trip(self, tmp_path):
        path = tmp_path / "r.bin"
        recs = self._records()
        cache_store(path, GENERIC, recs)
        assert cache_load(path, GENERIC) == recs

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
        assert r1.records == r2.records
        # a cache for a smaller range is extended by the primes it lacks
        r3 = small_run(x_max=3000, checkpoints=[3000], cache_path=path)
        assert len(r3.records) > len(r1.records)
        assert cache_load(path, GENERIC) == r3.records

    def test_raising_xmax_computes_only_new_primes(self, tmp_path, monkeypatch):
        path = str(tmp_path / "r.bin")
        small_run(cache_path=path)
        computed = []
        real = harness.compute_record

        def spy(E, p, seed, threshold):
            computed.append(p)
            return real(E, p, seed, threshold)
        monkeypatch.setattr(harness, "compute_record", spy)
        r3 = small_run(x_max=3000, checkpoints=[3000], cache_path=path)
        assert computed and all(2000 < p <= 3000 for p in computed)
        assert sorted(computed) == [rec.p for rec in r3.records if rec.p > 2000]
        fresh = small_run(x_max=3000, checkpoints=[3000])
        assert r3.records == fresh.records
        computed.clear()
        # a smaller x_max reads the cache and keeps the records above it
        r4 = small_run(x_max=1000, checkpoints=[1000], cache_path=path)
        assert computed == []
        assert r4.records == [rec for rec in fresh.records if rec.p <= 1000]
        assert cache_load(path, GENERIC) == fresh.records


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
        assert blob["curve"]["a4"] == 1
        assert blob["checkpoints"][0]["pi_x"] > 0
        assert blob["records"][0][0] == 5

    def test_constant_subcommand(self, capsys):
        rc = cli.main(["constant", "--model", "gl2",
                       "--series-y", "100", "--euler-pmax", "100"])
        assert rc == 0
        assert "consistent" in capsys.readouterr().out

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

    def test_oversized_curve_is_a_usage_error(self, tmp_path, capsys):
        # |disc| >= 2^63 is beyond factorize; lifting that cap is separate work
        rc = cli.main(["run", "--curve", "100000000,1", "--xmax", "1000",
                       "--outfile", str(tmp_path)])
        assert rc == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "100000000,1" in err

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
    ])
    def test_argparse_errors_are_usage_errors(self, argv, capsys):
        assert cli.main(argv) == cli.EXIT_USAGE
        assert "error:" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert cli.main(["run", "--help"]) == cli.EXIT_OK
        assert "--xmax" in capsys.readouterr().out

    def test_presets_exist(self):
        assert PRESETS["generic1"].a4 == 1 and PRESETS["generic1"].a6 == 1
        assert PRESETS["cm-i"].a4 == -1 and PRESETS["cm-i"].a6 == 0
        assert PRESETS["cm-3"].a4 == 0 and PRESETS["cm-3"].a6 == 16
