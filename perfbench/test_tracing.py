"""The tracer counts repeatably, restores the program, and matches BENCHMARK.json.

Run from the repository root: python3 -m pytest perfbench
"""

import contextlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
from avgexp import cli, counting, curve, harness, modarith, structure  # noqa: E402


def traced_round(tmp_path):
    tmp_path.mkdir()
    tracer = tracing.Tracer()
    argv = ["run", "--preset", "generic1", "--xmax", "12000", "--trace-threshold", "3000",
            "--cache", str(tmp_path / "c.bin"), "--outfile", str(tmp_path / "out")]
    with tracer.installed(), contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
        assert cli.main(argv) == 0
    return tracer


def test_counts_repeat_and_functions_are_restored(tmp_path):
    before = (cli.main, harness.compute_record, curve.add, counting.add,
              structure.random_point, modarith.factorize, harness.sieve_primes)
    first = traced_round(tmp_path / "a").round_metrics(0)
    second = traced_round(tmp_path / "b").round_metrics(0)
    assert before == (cli.main, harness.compute_record, curve.add, counting.add,
                      structure.random_point, modarith.factorize, harness.sieve_primes)
    for key in ("curve.add.calls_per_prime", "structure.draws_per_prime",
                "counting.order_bsgs.points_per_prime", "modarith.factorize.calls"):
        assert first[key] == second[key] > 0
    assert first["harness.cache_store.s"] > 0 and first["harness.cache_load.s"] > 0


def test_benchmark_json_lists_every_layer_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = {m["name"]: (m["unit"], m["better"] == "higher") for m in bench["per_layer"]}
    assert listed == tracing.METRICS
