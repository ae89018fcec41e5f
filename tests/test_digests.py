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


@pytest.mark.parametrize("preset, workers",
                         [("generic1", 1), ("cm-i", 1), ("cm-3", 1), ("generic1", 2)])
def test_run_to_1e6_matches_golden_digests(preset, workers, tmp_path, capsys):
    argv = ["run", "--preset", preset, "--xmax", "1000000", "--workers", str(workers),
            "--outfile", str(tmp_path)]
    assert cli.main(argv) == cli.EXIT_OK
    got = {f"{preset}/{name}": hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in cli.CSV_NAMES}
    want = golden_digests()
    assert got == {key: want[key] for key in got}
