"""Wall time, CPU time and peak memory of one `python -m avgexp ...` run.

    python tests/measure.py run --preset generic1 --xmax 10000000 --workers 2

The command runs under a fresh wrapper interpreter, so that no earlier
child of the caller counts, started in its own session; after the
timeout its whole process group is killed.  The wrapper reads
getrusage(RUSAGE_CHILDREN) once the command has ended: CPU time is that
of the command and every process it waited for, and the peak RSS is
that of the largest single process, not a sum.
"""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
WRAPPER = """if True:
    import json, resource, subprocess, sys, time
    t = time.perf_counter()
    code = subprocess.run([sys.executable, "-m", "avgexp", *sys.argv[1:]],
                          stdout=subprocess.DEVNULL).returncode
    wall = time.perf_counter() - t
    u = resource.getrusage(resource.RUSAGE_CHILDREN)
    print(json.dumps({"code": code, "wall_s": wall, "cpu_s": u.ru_utime + u.ru_stime,
                      "peak_rss_mb": u.ru_maxrss / 1024}))
"""


def measure(argv, cwd=None, timeout=600) -> dict:
    """{code, wall_s, cpu_s, peak_rss_mb} of `python -m avgexp *argv` in
    cwd, with the package imported from this checkout's src/.  Raises
    subprocess.TimeoutExpired once the process group is killed."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen([sys.executable, "-c", WRAPPER, *map(str, argv)], cwd=cwd, env=env,
                            stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return json.loads(out)


if __name__ == "__main__":
    print(json.dumps(measure(sys.argv[1:], timeout=None)))
