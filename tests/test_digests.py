"""The csv files of a sweep to 1e6, pinned by their sha256.

A digest changes only with a change that moves an output on purpose,
which rewrites tests/golden/run_1e6_sha256.txt and says why.
"""

import hashlib
from pathlib import Path

import pytest

from avgexp import cli

GOLDEN = Path(__file__).parent / "golden" / "run_1e6_sha256.txt"


def golden_digests() -> dict:
    """'preset/file name' -> hex sha256, from the golden file."""
    return dict(line.split() for line in GOLDEN.read_text().splitlines()
                if not line.startswith("#"))


def assert_golden(preset, out) -> None:
    """The csv files in out have the golden digests of preset."""
    got = {f"{preset}/{name}": hashlib.sha256((out / name).read_bytes()).hexdigest()
           for name in cli.CSV_NAMES}
    want = golden_digests()
    assert got == {key: want[key] for key in got}


@pytest.mark.parametrize("preset, workers",
                         [("generic1", 1), ("cm-i", 1), ("cm-3", 1), ("generic1", 2)])
def test_run_to_1e6_matches_golden_digests(preset, workers, tmp_path, capsys):
    argv = ["run", "--preset", preset, "--xmax", "1000000", "--workers", str(workers),
            "--outfile", str(tmp_path)]
    assert cli.main(argv) == cli.EXIT_OK
    assert_golden(preset, tmp_path)


def test_run_to_1e6_over_a_cache_to_3e5_matches_golden_digests(tmp_path, capsys):
    # the second run folds the cached records ahead of the fresh blocks
    argv = ["run", "--preset", "generic1", "--workers", "2", "--cache", str(tmp_path / "c.bin"),
            "--outfile", str(tmp_path)]
    for x_max in ("300000", "1000000"):
        assert cli.main(argv + ["--xmax", x_max]) == cli.EXIT_OK
    assert_golden("generic1", tmp_path)
