"""Prime-sweep experiment: per-prime exponent records, checkpoint tables
comparing the running average against the model constant, and diagnostics.

A sweep is one pass of the segmented sieve, in the parent.  A segment's
good primes are split into blocks, as many and as large for each worker,
here and in children forked for the segment (block_stream).  A block's
size is capped by the row cells its lanes need, not by a prime count, so
blocks of small primes are larger and pay a lane call's fixed cost less
often.  A block is columnar from the primes to the records: it counts
points for all its primes at once (trace_block), settles every d_p that
the divisibility constraints, the lane tests of E[4] and E[3] in E(F_p)
and the lane Sylow rounds decide (settle), and proves the structure
prime by prime only where the lanes leave it open (compute_record),
starting from the bounds on d_p that settle proved.  Every record is
proved, and the points behind it depend on p alone, so records are
identical for any worker count and block layout.

A block's records are a numpy array of dtype RECORD, sorted by p.  A run
folds the blocks in p order as they arrive (aggregate_checkpoints) and
hands each one to write, which in `run` appends it to records.csv, so
that it holds one segment of the sieve and the blocks in flight, not
every record; only a run with a cache keeps them, to rewrite it.  The
identities every true record obeys are written once, in
record_violations, and checked where records enter a run: per block as
they are computed, and when a cache is loaded.  A cache is a sweep's
prefix, every good prime up to its last p, and a run computes only the
good primes above it.  Accumulators stay exact (integers and rationals);
floats appear only in reported columns.
"""

import contextlib
import csv
import math
import os
import pickle
import struct
import zlib
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from itertools import count

import numpy as np

from .constants import (ConstantEstimate, DegreeModel, constant_series,
                        degree, estimate_degrees, li)
from .curve import GlobalCurve, ReducedCurve
from .counting import LANE_CAP, PATHS, TraceResult, cubic_roots, lane_rows, trace_block
from .modarith import factorize, prime_segments, residues, sieve_primes
from .structure import GroupStructure, group_structure, settle

CACHE_MAGIC = b"AVGEXP1\0"
_CACHE_HEADER = struct.Struct("<8sqqQI")  # a4 and a6 are int64
# A record (p, a_p, d_p, e_p) in memory and in the cache.  In memory every
# column is int64, so arithmetic on the columns stays integer (numpy turns
# uint64 - int64 into float64); the cache keeps its packed "<QqIQ" layout.
RECORD = np.dtype([("p", "<i8"), ("a_p", "<i8"), ("d_p", "<i8"), ("e_p", "<i8")])
_CACHE_DTYPE = np.dtype([("p", "<u8"), ("a_p", "<i8"), ("d_p", "<u4"), ("e_p", "<u8")])

DEFAULT_SERIES_Y = 1000
# The good primes in a lane block at p near 2^30, and the least share of
# a sweep worth a worker.  Blocks are capped by row cells: a block
# may hold as many (rows x lanes) cells as LANE_BLOCK lanes at 2^30,
# LANE_BLOCK * lane_rows(2^30 - 1), 3.0 MB per int64 row array, so
# blocks of smaller primes hold more of them (5350 at 1e6), and the fixed
# cost of a lane call, a few ms, is paid less often.
LANE_BLOCK = 1024
# The bytes a block worker's pipe may hold: more than the largest frame a
# child sends (7753 records, ~248 KB, at 2 workers near x_max = 1.7e5), so
# that a child writes a block and goes on to its next one before the
# parent reads.  1 MB is Linux's default pipe-max-size for any user.
PIPE_SIZE = 1 << 20
# The largest x_max: the lanes' int64 residues need p < 2^30.
X_MAX_CAP = LANE_CAP - 1
# Levels k of the pi_e.csv table and of the empirical degree table.
K_MAX_DIAG = 12

PRESETS = {
    "generic1": GlobalCurve(1, 1, label="generic1"),
    "cm-i": GlobalCurve(-1, 0, label="cm-i"),
    "cm-3": GlobalCurve(0, 16, label="cm-3"),
}


class CacheError(RuntimeError):
    """A cache file is for another curve or format, is truncated, fails
    its checksum or the prefix rule, or could not be read or written."""


class InsufficientCheckpoints(ValueError):
    """error_trend needs at least 4 checkpoints across 2 decades."""


def default_checkpoints(x_max: int) -> list:
    """Powers of 10 from 10^3 up to x_max, always ending at x_max."""
    cps = []
    c = 1000
    while c <= x_max:
        cps.append(c)
        c *= 10
    if not cps or cps[-1] != x_max:
        cps.append(x_max)
    return cps


@dataclass
class ExperimentConfig:
    curve: GlobalCurve
    x_max: int
    checkpoints: list = None
    workers: int = 1
    trace_threshold: int = 0
    model: DegreeModel = None
    cache_path: str = None

    def __post_init__(self):
        if not 100 <= self.x_max <= X_MAX_CAP:
            raise ValueError(f"x_max must be >= 100 and <= {X_MAX_CAP}")
        if self.checkpoints is None:
            self.checkpoints = default_checkpoints(self.x_max)
        if not self.checkpoints:
            raise ValueError("checkpoints must be nonempty")
        if any(b <= a for a, b in zip(self.checkpoints, self.checkpoints[1:])):
            raise ValueError("checkpoints must be strictly ascending")
        if self.checkpoints[-1] > self.x_max:
            raise ValueError("checkpoints must not exceed x_max")
        least = next(q for q in count(5) if factorize(q) == [(q, 1)] and self.curve.disc % q)
        if self.checkpoints[0] < least:
            raise ValueError(f"checkpoints must be >= {least}, the least good prime")
        if self.model is None:
            self.model = DegreeModel("gl2_generic")
        if self.workers < 1 or self.workers > 1 and not hasattr(os, "fork"):
            raise ValueError("workers must be >= 1, and 1 on a platform without os.fork")
        if self.cache_path and not all(-2 ** 63 <= a < 2 ** 63
                                       for a in (self.curve.a4, self.curve.a6)):
            raise ValueError("a cache stores a4 and a6 as int64, "
                             "and this curve's coefficients do not fit")


@dataclass(frozen=True)
class CheckpointRow:
    x: int
    pi_x: int
    sum_e: int
    sum_p_over_d: Fraction
    avg_e: float
    c_hat: float
    c_model: float
    rel_dev: float
    main_term_dev: float

    def __post_init__(self):
        if self.pi_x <= 0:
            raise ValueError(f"no good primes below checkpoint {self.x}")
        if self.sum_e < self.pi_x:
            raise ValueError("sum of exponents below prime count")


@dataclass
class ExperimentResult:
    """A run's checkpoint rows and reports; its records went to write."""
    checkpoints: list
    skipped: list
    model: DegreeModel
    constant: ConstantEstimate
    constant_provenance: str
    paths: dict  # primes computed in this run, by point-counting path
    pi_e: list  # pi_E_table's rows at x_max

    @property
    def c_model(self) -> float:
        return float(self.constant.value)

    @property
    def good(self) -> int:
        """The good primes p <= x_max: pi_E(x_max; 1)."""
        return self.pi_e[0][1]


def record_violations(records) -> np.ndarray:
    """Boolean mask of the records that break an identity every true
    record obeys: the Hasse bound a^2 < 4p (4p is never a square),
    d >= 1, e >= 1, d*e = p+1-a, d | e (so d^2 | p+1-a), d | p-1 and
    a = 2 (mod d).

    Records outside 5 <= p < 2^60 are flagged too: inside it Hasse gives
    |a| < 2^31, so no int64 step below can wrap, and d*e = p+1-a is
    tested by division for the same reason.
    """
    p, a, d, e = (np.asarray(records[name], dtype=np.int64) for name in RECORD.names)
    n = p + 1 - a
    m = np.maximum(d, 1)  # d < 1 is flagged; m keeps the remainders defined
    return ((p < 5) | (p >= 2 ** 60) | (a <= -2 ** 31) | (a >= 2 ** 31)
            | (a * a >= 4 * p) | (d < 1) | (e < 1) | (n % m != 0) | (n // m != e)
            | (e % m != 0) | ((p - 1) % m != 0) | ((a - 2) % m != 0))


def compute_record(C: ReducedCurve, T: TraceResult, lo: int = 1,
                   hi: int = 0) -> GroupStructure:
    """The record of C.p from its trace result T, given lo | d | hi (hi = 0
    for none): the scalar structure step."""
    return group_structure(C, T, lo, hi)


def compute_block(E: GlobalCurve, ps, threshold: int) -> tuple:
    """Records of the good primes ps, and how many took each path of
    PATHS.  Point counting and the structure step (settle) run for the
    whole block at once, from one count of the cubic's roots; only the
    primes that settle leaves open go through compute_record, with the
    bounds on d it proved.  A record that breaks an identity raises
    ArithmeticError."""
    p = np.asarray(ps, dtype=np.int64)
    a, b = residues(E.a4, p), residues(E.a6, p)
    roots = cubic_roots(p, a, b)
    N, path = trace_block(p, a, b, roots, threshold)
    d, hi = settle(p, a, b, N, roots)  # d = d_p where d = hi, else a divisor of it
    for i in np.flatnonzero(d != hi).tolist():
        q, n = int(p[i]), int(N[i])
        S = compute_record(ReducedCurve(q, int(a[i]), int(b[i])), TraceResult(q, q + 1 - n, n),
                           int(d[i]), int(hi[i]))
        d[i] = S.d_p
    records = np.empty(len(p), RECORD)
    for name, column in zip(RECORD.names, (p, p + 1 - N, d, N // d)):
        records[name] = column
    bad = record_violations(records)
    if bad.any():
        raise ArithmeticError(f"record identities fail at p = {records['p'][bad.argmax()]}")
    return records, dict(zip(PATHS, np.bincount(path, minlength=len(PATHS)).tolist()))


def compute_records(E: GlobalCurve, primes, threshold: int,
                    workers: int = 1) -> tuple:
    """stream_records over primes: records in the order of primes, paths summed."""
    parts, paths = [np.empty(0, RECORD)], Counter(dict.fromkeys(PATHS, 0))
    for records, counts in stream_records(E, primes, threshold, workers):
        parts.append(records)
        paths.update(counts)
    return np.concatenate(parts).view(np.recarray), dict(paths)


def stream_records(E: GlobalCurve, primes, threshold: int, workers: int = 1):
    """compute_block's (records, paths) for each block of the n primes,
    in order, by block_stream on w = min(workers, ceil(n / LANE_BLOCK),
    CPUs this process may use) workers.  The primes are cut by
    np.array_split into the least multiple of w blocks whose lane buffers
    fit the row cells of a LANE_BLOCK-prime block at 2^30: at most
    LANE_BLOCK * lane_rows(2^30 - 1) // lane_rows(max p) primes each, and
    differing in size by at most one prime."""
    primes = np.asarray(primes, dtype=np.int64)
    n = len(primes)
    k = -(-n // LANE_BLOCK)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = max(1, min(workers, k, cpus or 1))
    if k:
        k = -(-n // (LANE_BLOCK * lane_rows(LANE_CAP - 1) // lane_rows(int(primes.max()))))
    blocks = np.array_split(primes, -(-k // workers) * workers) if k else []
    yield from block_stream(partial(compute_block, E, threshold=threshold), blocks, workers)


def block_stream(work, blocks, w: int):
    """work(block) for each of blocks, a list, in order: block j here if
    w | j, else in forked child j % w, which takes its blocks from its
    copy of the list and sends the result of each, or the exception it
    raised, as one pickle behind its 8-byte length.  Each child's pipe
    is widened to PIPE_SIZE bytes (F_SETPIPE_SZ), so a child runs a block
    ahead of the reads instead of waiting on a frame larger than the
    platform's 64 KB pipe; where the call is missing or refused, the
    pipe keeps its size.  On any exit the read ends are closed (EPIPE to
    a blocked child) and every child is reaped."""
    children = []  # (pid, read end) of children 1, ..., w - 1
    try:
        for i in range(1, w):
            import fcntl  # POSIX, as os.fork is, which w > 1 needs
            fd_r, fd_w = os.pipe()
            with contextlib.suppress(AttributeError, OSError):  # no F_SETPIPE_SZ, or refused
                fcntl.fcntl(fd_w, fcntl.F_SETPIPE_SZ, PIPE_SIZE)
            pid = os.fork()
            if pid == 0:  # the child never leaves this branch
                try:
                    os.close(fd_r)
                    for _, reader in children:
                        reader.close()
                    out = open(fd_w, "wb")
                    for block in blocks[i::w]:
                        try:
                            result = work(block)
                        except Exception as err:  # the parent raises it
                            result = err
                        frame = pickle.dumps(result)
                        out.write(len(frame).to_bytes(8, "little") + frame)
                        out.flush()
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(fd_w)
            children.append((pid, open(fd_r, "rb")))
        for j, block in enumerate(blocks):
            if j % w == 0:
                yield work(block)
                continue
            pid, reader = children[j % w - 1]
            frame = reader.read(size := int.from_bytes(reader.read(8), "little"))
            if not size or len(frame) < size:  # it died: by the OOM killer, say
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                raise ChildProcessError(f"block worker {pid} died before block {j}, exit {code}")
            result = pickle.loads(frame)
            if isinstance(result, Exception):
                raise result
            yield result
    finally:
        for pid, reader in children:  # each child holds no other child's read end
            reader.close()
            with contextlib.suppress(ChildProcessError):  # reaped already if it died
                os.waitpid(pid, 0)


def good_primes(E: GlobalCurve, limit: int) -> tuple:
    """The good primes p <= limit of E and the bad ones, as int64 arrays."""
    return _good_and_bad(E, np.array(sieve_primes(limit), dtype=np.int64))


def _good_and_bad(E: GlobalCurve, primes) -> tuple:
    """primes split into the good ones and the bad ones, p < 5 or p | disc.
    disc mod every prime comes at once from residues, exact for p < 2^47;
    disc is never factored."""
    bad = (primes < 5) | (residues(E.disc, primes) == 0)
    return primes[~bad], primes[bad]


def _missing_primes(cfg: ExperimentConfig, cached_p):
    """For each segment of prime_segments(x_max), in one pass of the
    sieve: the good primes above the last of cached_p, the cache's
    ascending p, and the bad primes.  cached_p must be every good prime
    up to its last: the first p <= x_max where they differ makes the
    cache corrupt, found before the segment that holds it is yielded."""
    last, i = cached_p.max(initial=0), 0
    for primes in prime_segments(cfg.x_max, sieve_primes(math.isqrt(cfg.x_max))):
        good, bad = _good_and_bad(cfg.curve, primes)
        k = int(np.searchsorted(good, last, side="right"))
        j = i + int(np.searchsorted(cached_p[i:], primes.max(initial=0), side="right"))
        want, have = good[:k], cached_p[i:j]
        if not np.array_equal(want, have):
            p = np.setxor1d(want, have)[0]  # the least p in just one of them
            raise CacheError(f"{cfg.cache_path}: cache lacks the good prime {p}" if p in want
                             else f"{cfg.cache_path}: cached p = {p} is not a good prime")
        i = j
        yield good[k:], bad
    if i < np.searchsorted(cached_p, cfg.x_max, side="right"):  # above the last prime
        raise CacheError(f"{cfg.cache_path}: cached p = {cached_p[i]} is not a good prime")


def run_experiment(cfg: ExperimentConfig, write) -> ExperimentResult:
    """Process every good prime p <= x_max exactly once and aggregate.

    The cached records p <= x_max are folded first, then, segment by
    segment of one pass of the sieve that checks the cache ahead of each
    (_missing_primes), the blocks of its good primes above the cache as
    they arrive (stream_records).  Each block goes to write(records) and
    is then dropped, unless the run has a cache: it keeps them to rewrite
    the cache with them.  The model's constant, model_constant(cfg.model),
    is evaluated before the sweep, so a model it refuses costs no prime.
    An empirical model with no table is fitted to the per-d counts after
    the sweep.
    """
    constant = model_constant(cfg.model)
    cached = np.empty(0, RECORD)
    if cfg.cache_path and os.path.exists(cfg.cache_path):
        cached = cache_load(cfg.cache_path, cfg.curve)
    fold = Fold(list(cfg.checkpoints), math.isqrt(cfg.x_max) + 2)
    kept, paths, skipped = [], Counter(dict.fromkeys(PATHS, 0)), []

    def sweep():  # the cached records p <= x_max as one block, then the fresh ones
        yield cached[:np.searchsorted(cached["p"], cfg.x_max, side="right")], {}
        for missing, bad in _missing_primes(cfg, cached["p"]):
            skipped.extend(bad.tolist())
            yield from stream_records(cfg.curve, missing, cfg.trace_threshold, cfg.workers)
    with contextlib.closing(sweep()) as blocks:
        for records, counts in blocks:
            paths.update(counts)
            aggregate_checkpoints(fold, records)
            write(records)
            if cfg.cache_path:
                kept.append(records)
    if cfg.cache_path and sum(paths.values()):  # rewritten if a prime was computed
        cache_store(cfg.cache_path, cfg.curve, np.concatenate(kept))

    counts, li_x = pi_E_counts(fold.count, K_MAX_DIAG), li(cfg.x_max)
    model = cfg.model if constant else estimate_degrees(counts, li_x)
    estimate, provenance = constant or model_constant(model)
    rows = checkpoint_rows(fold, float(estimate.value))
    return ExperimentResult(rows, skipped, model, estimate, provenance, dict(paths),
                            pi_E_table(counts, li_x, model))


def model_constant(model: DegreeModel):
    """Series value of the constant under the model, with provenance; None
    for an empirical model with no table, which is to be fitted.  Memoized
    by the model's value, (kind, sorted overrides), as a DegreeModel holds
    a dict and has no hash; the estimate and provenance are immutable, so
    equal models share them."""
    return _model_constant(model.kind, tuple(sorted(model.overrides.items())))


@lru_cache(maxsize=8)  # small: a table fitted to a run's counts is new on every run
def _model_constant(kind: str, overrides: tuple):
    """model_constant of DegreeModel(kind, dict(overrides))."""
    model = DegreeModel(kind, dict(overrides))
    if model.kind == "gl2_generic":
        est = constant_series(model, DEFAULT_SERIES_Y)
        return est, f"gl2_generic series, y = {DEFAULT_SERIES_Y}"
    if not model.overrides:
        return None
    covered = 0
    while (covered + 1) in model.overrides:
        covered += 1
    if covered == 0:
        raise ValueError("empirical model covers no levels")
    est = constant_series(model, covered)
    return est, f"empirical series, y = {covered} (fitted table)"


class Fold:
    """Exact running sums over the records folded so far, ascending in p:
    how many (n), the sum of e, and per d the count and the sum of p; at
    each checkpoint x passed, (x, n, sum_e, sum_p) as they stood there.
    A true record p <= x_max has d^2 <= p + 1 - a < (sqrt(p) + 1)^2, so
    the per-d arrays need isqrt(x_max) + 2 entries."""

    def __init__(self, checkpoints: list, size: int):
        self.checkpoints = checkpoints  # the ones not yet passed, ascending
        self.count = np.zeros(size, np.int64)
        self.sum_p = np.zeros(size, np.int64)
        self.n = self.sum_e = 0
        self.cuts = []


def aggregate_checkpoints(fold: Fold, records) -> None:
    """Fold records, ascending in p and above every record folded before;
    each checkpoint below their last p is passed, and its sums are cut
    where searchsorted over p puts it."""
    p = records["p"]
    passed = int(np.searchsorted(fold.checkpoints, p[-1])) if len(p) else 0
    xs = fold.checkpoints[:passed]
    cuts = np.searchsorted(p, xs, side="right").tolist()
    for x, lo, hi in zip(xs + [None], [0] + cuts, cuts + [len(p)]):
        part = records[lo:hi]
        fold.n += len(part)
        fold.sum_e += int(part["e_p"].sum())
        np.add.at(fold.count, part["d_p"], 1)
        np.add.at(fold.sum_p, part["d_p"], part["p"])
        if x is not None:
            fold.cuts.append((x, fold.n, fold.sum_e, fold.sum_p.copy()))
    del fold.checkpoints[:passed]


def checkpoint_rows(fold: Fold, c_model: float) -> list:
    """A CheckpointRow for each checkpoint, from the sums cut there; the
    checkpoints not passed take the final sums.  sum(p/d) is combined
    from the per-d sums into one rational only here."""
    rows = []
    for x, n, sum_e, sum_p in fold.cuts + [(x, fold.n, fold.sum_e, fold.sum_p)
                                           for x in fold.checkpoints]:
        s = sum_p.tolist()
        spd = sum((Fraction(s[d], d) for d in np.flatnonzero(sum_p).tolist()), Fraction(0))
        avg = sum_e / n if n else 0.0
        c_hat = 2 * sum_e / (n * x) if n else 0.0
        rows.append(CheckpointRow(
            x, n, sum_e, spd, avg, c_hat, c_model,
            c_hat / c_model - 1, abs(float(spd) - c_model * li(float(x) ** 2))))
    return rows


def pi_E_counts(count, k_max: int) -> list:
    """pi_E(x; k) for k = 1, ..., k_max from count[d], the records with
    d_p = d: the sum of count over the multiples of k."""
    return [int(count[::k].sum()) for k in range(1, k_max + 1)]


def pi_E_table(counts, li_x: float, model: DegreeModel) -> list:
    """Rows (k, pi_E(x; k), model prediction li(x)/degree(k)) from
    pi_E_counts, k from 1; the prediction is None where the model has no
    degree."""
    out = []
    for k, count in enumerate(counts, 1):
        try:
            pred = li_x / float(degree(model, k))
        except KeyError:
            pred = None
        out.append((k, count, pred))
    return out


@dataclass(frozen=True)
class TrendFit:
    slope: float
    note: str = "diagnostic fit; not a verification of the error-term exponent"


def error_trend(rows) -> TrendFit:
    """Least-squares slope of log(main_term_dev) against log(x)."""
    if len(rows) < 4:
        raise InsufficientCheckpoints("need at least 4 checkpoints")
    xs = [row.x for row in rows]
    if max(xs) < 100 * min(xs):
        raise InsufficientCheckpoints("checkpoints must span at least 2 decades")
    devs = [row.main_term_dev for row in rows]
    if any(d <= 0 for d in devs):
        raise ValueError("zero deviation rows cannot enter a log-log fit")
    slope = np.polyfit(np.log(np.asarray(xs, dtype=float)),
                       np.log(np.asarray(devs, dtype=float)), 1)[0]
    return TrendFit(float(slope))


def cache_store(path, curve: GlobalCurve, records) -> None:
    """Packed little-endian "<QqIQ" records behind a checksummed header."""
    body = np.asarray(records, dtype=RECORD).astype(_CACHE_DTYPE).tobytes()
    header = _CACHE_HEADER.pack(CACHE_MAGIC, curve.a4, curve.a6,
                                len(records), zlib.crc32(body))
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            fh.write(header)
            fh.write(body)
        os.replace(tmp, path)
    except OSError as err:  # a full disk or a file size limit: leave no partial file
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise CacheError(f"{path}: {err.strerror or err}") from err


def cache_load(path, curve: GlobalCurve) -> np.recarray:
    """The cached records, re-validated: a record that breaks an identity,
    or a p that is not above its predecessor's, makes the cache corrupt.
    That they are every good prime up to the last is _missing_primes's."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as err:  # no permission or an I/O error
        raise CacheError(f"{path}: {err.strerror or err}") from err
    if len(raw) < _CACHE_HEADER.size:
        raise CacheError(f"{path}: shorter than a header")
    magic, a4, a6, count, crc = _CACHE_HEADER.unpack_from(raw)
    if magic != CACHE_MAGIC:
        raise CacheError(f"{path}: bad magic {magic!r}")
    if (a4, a6) != (curve.a4, curve.a6):
        raise CacheError(
            f"{path}: cache is for curve ({a4}, {a6}), not ({curve.a4}, {curve.a6})")
    body = memoryview(raw)[_CACHE_HEADER.size:]
    if len(body) != count * _CACHE_DTYPE.itemsize:
        raise CacheError(f"{path}: truncated body")
    if zlib.crc32(body) != crc:
        raise CacheError(f"{path}: checksum mismatch")
    records = np.frombuffer(body, dtype=_CACHE_DTYPE).astype(RECORD).view(np.recarray)
    bad = record_violations(records)
    bad[1:] |= records.p[1:] <= records.p[:-1]
    if bad.any():
        raise CacheError(f"{path}: invalid or out-of-order record at "
                         f"p = {records.p[bad.argmax()]}")
    return records


PI_E_HEADER = ["k", "count", "model_prediction"]


def record_lines(records) -> bytes:
    """records, a structured array of integer fields, as csv lines ended
    by \r\n: 2^14 records per % on their flattened columns (TypeError
    for other fields: %d truncates floats)."""
    names = records.dtype.names
    if not names or any(records.dtype[n].kind not in "iu" for n in names):
        raise TypeError(f"record_lines needs integer fields, not {records.dtype}")
    line = b",".join([b"%d"] * len(names)) + b"\r\n"
    return b"".join(
        line * len(chunk) % tuple(np.stack([chunk[n] for n in names], axis=1).ravel().tolist())
        for chunk in (records[i:i + (1 << 14)] for i in range(0, len(records), 1 << 14)))


def write_csv(path, header, rows) -> None:
    """The header, then rows, each line ended by csv's \r\n: csv.writer
    writes a float as its repr, None as an empty field, and here a
    Fraction as n/d (str(Fraction(5)) is 5)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([f"{c.numerator}/{c.denominator}" if isinstance(c, Fraction) else c
                     for c in row] for row in rows)

