"""Prime-sweep experiment: per-prime exponent records, checkpoint tables
comparing the running average against the model constant, and diagnostics.

Work is split into blocks of consecutive good primes, one pool task per
block, the same number for every worker and of equal size.  A block's
size is capped by the row cells its lanes need, not by a prime count, so
blocks of small primes are larger and pay a lane call's fixed cost less
often.  A block is columnar from the primes to the records: it counts
points for all its primes at once (trace_block), settles every d_p that
the divisibility constraints and the lane tests of E[4] and E[3] in
E(F_p) decide (settle), proves the l-Sylow exponents of the primes left
open on the lanes, starting from the bounds on d_p that settle proved
(sylow_lanes), and proves the structure prime by prime only where the
lanes leave it open (compute_record), starting from the bounds narrowed
so far.  Every record is proved, and the points behind it depend on p
alone, so records are identical for any worker count and block layout.

Records are one numpy recarray of dtype RECORD, sorted by p.  The
identities every true record obeys are written once, in
record_violations, and checked where records enter a run: per block as
they are computed, and when a cache is loaded.  Accumulators stay exact
(integers and rationals); floats appear only in reported columns.
"""

import contextlib
import csv
import json
import os
import struct
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import partial
from itertools import count

import numpy as np

from .constants import (ConstantEstimate, DegreeModel, constant_series,
                        degree, estimate_degrees, li)
from .curve import GlobalCurve, ReducedCurve
from .counting import LANE_CAP, PATHS, TraceResult, cubic_roots, lane_rows, trace_block
from .modarith import factorize, residues, sieve_primes
from .structure import GroupStructure, group_structure, settle, sylow_lanes

CACHE_MAGIC = b"AVGEXP1\0"
_CACHE_HEADER = struct.Struct("<8sqqQI")  # a4 and a6 are int64
# A record (p, a_p, d_p, e_p) in memory and in the cache.  In memory every
# column is int64, so arithmetic on the columns stays integer (numpy turns
# uint64 - int64 into float64); the cache keeps its packed "<QqIQ" layout.
RECORD = np.dtype([("p", "<i8"), ("a_p", "<i8"), ("d_p", "<i8"), ("e_p", "<i8")])
_CACHE_DTYPE = np.dtype([("p", "<u8"), ("a_p", "<i8"), ("d_p", "<u4"), ("e_p", "<u8")])

DEFAULT_SERIES_Y = 1000
# The good primes in a lane block at p near 2^30, and the least share of
# a sweep worth a pool worker.  Blocks are capped by row cells: a block
# may hold as many (rows x lanes) cells as LANE_BLOCK lanes at 2^30,
# LANE_BLOCK * lane_rows(2^30 - 1), 3.0 MB per int64 row array, so
# blocks of smaller primes hold more of them (5350 at 1e6), and the fixed
# cost of a lane call, a few ms, is paid less often.
LANE_BLOCK = 1024
# The largest x_max: the lanes' int64 residues need p < 2^30, and a sweep
# holds every record in memory.
X_MAX_CAP = LANE_CAP - 1
# Levels k of the pi_e.csv table and of the empirical degree table.
K_MAX_DIAG = 12

PRESETS = {
    "generic1": GlobalCurve(1, 1, label="generic1"),
    "cm-i": GlobalCurve(-1, 0, label="cm-i"),
    "cm-3": GlobalCurve(0, 16, label="cm-3"),
}


class CacheMismatch(RuntimeError):
    """Cache header disagrees with the requested curve or format."""


class CorruptCache(RuntimeError):
    """Cache file is truncated or fails its checksum."""


class UnwritableCache(RuntimeError):
    """The cache file could not be written."""


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
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
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
    config: ExperimentConfig
    records: np.recarray  # of RECORD, ascending in p
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
    PATHS.  Point counting, the forced structures and the lane Sylow step
    run for the whole block at once, from one count of the cubic's roots;
    only the primes that settle and sylow_lanes leave open go through
    compute_record, with the bounds on d proved so far.  A record that
    breaks an identity raises ArithmeticError."""
    p = np.asarray(ps, dtype=np.int64)
    a, b = residues(E.a4, p), residues(E.a6, p)
    roots = cubic_roots(p, a, b)
    N, path = trace_block(p, a, b, roots, threshold)
    d, hi = settle(p, a, b, N, roots)  # d = d_p where d = hi, else a divisor of it
    d, hi = sylow_lanes(p, a, b, N, d, hi)  # the same, with fewer open
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
    """compute_block over blocks of consecutive primes, on a process pool
    of w = min(workers, ceil(n / LANE_BLOCK), CPUs) workers; records in
    the order of primes, paths summed.  The n primes are cut into the
    least multiple of w blocks whose lane buffers fit the row cells of a
    LANE_BLOCK-prime block at 2^30: at most LANE_BLOCK * lane_rows(2^30 -
    1) // lane_rows(q) primes each, q the largest prime.  The blocks
    differ in size by at most one prime, so every worker gets the same
    share."""
    primes = np.asarray(primes, dtype=np.int64)
    k = -(-len(primes) // LANE_BLOCK)
    workers = max(1, min(workers, k, os.cpu_count() or 1))
    if k:
        cap = LANE_BLOCK * lane_rows(LANE_CAP - 1) // lane_rows(int(primes.max()))
        k = -(-len(primes) // cap)
    k = -(-k // workers) * workers
    blocks = np.array_split(primes, k) if k else []
    work = partial(compute_block, E, threshold=threshold)
    if workers == 1:
        parts = list(map(work, blocks))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(work, blocks))
    paths = dict.fromkeys(PATHS, 0)
    for _, counts in parts:
        for path, n in counts.items():
            paths[path] += n
    records = np.concatenate([np.empty(0, RECORD)] + [recs for recs, _ in parts])
    return records.view(np.recarray), paths


def good_primes(E: GlobalCurve, limit: int) -> tuple:
    """The good primes p <= limit of E and the bad ones, as int64 arrays.

    p is bad when p < 5 or p | disc.  disc mod every sieved prime comes
    at once from residues, exact for p < 2^47; disc is never factored.
    """
    primes = np.array(sieve_primes(limit), dtype=np.int64)
    bad = (primes < 5) | (residues(E.disc, primes) == 0)
    return primes[~bad], primes[bad]


def run_experiment(cfg: ExperimentConfig, constant=None) -> ExperimentResult:
    """Process every good prime p <= x_max exactly once and aggregate.

    Only the good primes the cache lacks are computed; the cache is then
    rewritten with its old records and the new ones.  A cached p <= x_max
    that is not a good prime makes the cache corrupt.  The model's
    constant, model_constant(cfg.model), is evaluated before the sweep, so
    a model it refuses costs no prime; a caller that has evaluated it
    passes it as constant.  An empirical model with no table is fitted to
    the records after the sweep.
    """
    constant = constant or model_constant(cfg.model)
    good, skipped = good_primes(cfg.curve, cfg.x_max)
    records = np.empty(0, RECORD)
    if cfg.cache_path and os.path.exists(cfg.cache_path):
        records = cache_load(cfg.cache_path, cfg.curve)
    old = records["p"][records["p"] <= cfg.x_max]
    known = np.isin(old, good)
    if not known.all():
        raise CorruptCache(f"{cfg.cache_path}: cached p = {old[~known][0]} "
                           "is not a good prime")
    missing = good[~np.isin(good, old)]
    fresh, paths = compute_records(cfg.curve, missing, cfg.trace_threshold, cfg.workers)
    if len(missing):
        if len(records):
            records = np.concatenate([records, fresh])
            records = records[np.argsort(records["p"])]
        else:  # fresh is already in p order
            records = fresh
        if cfg.cache_path:
            cache_store(cfg.cache_path, cfg.curve, records)
    records = records[:np.searchsorted(records["p"], cfg.x_max, side="right")].view(np.recarray)

    counts, li_x = pi_E_counts(records, K_MAX_DIAG), li(cfg.x_max)
    model = cfg.model if constant else estimate_degrees(counts, li_x)
    estimate, provenance = constant or model_constant(model)
    rows = aggregate_checkpoints(records, cfg.checkpoints, float(estimate.value))
    return ExperimentResult(cfg, records, rows, skipped.tolist(), model, estimate,
                            provenance, paths, pi_E_table(counts, li_x, model))


def model_constant(model: DegreeModel):
    """Series value of the constant under the model, with provenance; None
    for an empirical model with no table, which is to be fitted."""
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


def aggregate_checkpoints(records, checkpoints, c_model: float) -> list:
    """Exact running sums cut at each checkpoint of records sorted by p.

    The cuts come from searchsorted over p and sum(e) from a cumulative
    sum.  sum(p/d) is kept as per-d integer sums (d is tiny) and only
    combined into one rational at each cut.
    """
    p = records["p"]
    cuts = np.searchsorted(p, checkpoints, side="right").tolist()
    cum_e = np.concatenate(([0], np.cumsum(records["e_p"])))
    ds, which = np.unique(records["d_p"], return_inverse=True)
    by_d = np.zeros(len(ds), dtype=np.int64)
    rows, lo = [], 0
    for x, n in zip(checkpoints, cuts):
        np.add.at(by_d, which[lo:n], p[lo:n])
        lo = n
        spd = sum((Fraction(s, d) for d, s in zip(ds.tolist(), by_d.tolist()) if s),
                  Fraction(0))
        sum_e = int(cum_e[n])
        avg = sum_e / n if n else 0.0
        c_hat = 2 * sum_e / (n * x) if n else 0.0
        rows.append(CheckpointRow(
            x, n, sum_e, spd, avg, c_hat, c_model,
            c_hat / c_model - 1, abs(float(spd) - c_model * li(float(x) ** 2))))
    return rows


def pi_E_counts(records, k_max: int) -> list:
    """pi_E(x; k) for k = 1, ..., k_max: how many records have k | d_p."""
    ds = records["d_p"]
    return [int((ds % k == 0).sum()) for k in range(1, k_max + 1)]


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
        raise UnwritableCache(f"{path}: {err.strerror or err}") from err


def cache_load(path, curve: GlobalCurve) -> np.recarray:
    """The cached records, re-validated: a record that breaks an identity,
    or a p that is not above its predecessor's, makes the cache corrupt."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _CACHE_HEADER.size:
        raise CorruptCache(f"{path}: shorter than a header")
    magic, a4, a6, count, crc = _CACHE_HEADER.unpack_from(raw)
    if magic != CACHE_MAGIC:
        raise CorruptCache(f"{path}: bad magic {magic!r}")
    if (a4, a6) != (curve.a4, curve.a6):
        raise CacheMismatch(
            f"{path}: cache is for curve ({a4}, {a6}), not ({curve.a4}, {curve.a6})")
    body = memoryview(raw)[_CACHE_HEADER.size:]
    if len(body) != count * _CACHE_DTYPE.itemsize:
        raise CorruptCache(f"{path}: truncated body")
    if zlib.crc32(body) != crc:
        raise CorruptCache(f"{path}: checksum mismatch")
    records = np.frombuffer(body, dtype=_CACHE_DTYPE).astype(RECORD).view(np.recarray)
    bad = record_violations(records)
    bad[1:] |= records.p[1:] <= records.p[:-1]
    if bad.any():
        raise CorruptCache(f"{path}: invalid or out-of-order record at "
                           f"p = {records.p[bad.argmax()]}")
    return records


PI_E_HEADER = ["k", "count", "model_prediction"]


def write_csv(path, header, rows) -> None:
    """The header, then rows, each line ended by csv's \\r\\n.  A structured
    array of integer fields is formatted 2^14 records per write by one % on
    its flattened columns (TypeError for other fields: %d truncates floats);
    other rows go to csv.writer, which writes a float as its repr, None as
    an empty field, and here a Fraction as n/d (str(Fraction(5)) is 5)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        if isinstance(rows, np.ndarray):
            names = rows.dtype.names
            if not names or any(rows.dtype[n].kind not in "iu" for n in names):
                raise TypeError(f"write_csv needs integer fields, not {rows.dtype}")
            line = ",".join(["%d"] * len(names)) + "\r\n"
            for i in range(0, len(rows), 1 << 14):
                chunk = rows[i:i + (1 << 14)]
                flat = np.stack([chunk[n] for n in names], axis=1).ravel().tolist()
                fh.write(line * len(chunk) % tuple(flat))
        else:
            w.writerows([f"{c.numerator}/{c.denominator}" if isinstance(c, Fraction) else c
                         for c in row] for row in rows)


def result_to_json(result: ExperimentResult) -> dict:
    cfg = result.config
    return {
        "curve": {"a4": cfg.curve.a4, "a6": cfg.curve.a6, "label": cfg.curve.label},
        "x_max": cfg.x_max,
        "constant": {"value": float(result.constant.value),
                     "tail_bound": result.constant.tail_bound,
                     "provenance": result.constant_provenance},
        "skipped_bad_primes": result.skipped,
        "paths": result.paths,
        "checkpoints": [{
            **asdict(r),
            "sum_p_over_d": [r.sum_p_over_d.numerator, r.sum_p_over_d.denominator],
        } for r in result.checkpoints],
        "pi_e": [dict(zip(PI_E_HEADER, row)) for row in result.pi_e],
        "records": result.records.tolist(),
    }


def write_json(path, result: ExperimentResult) -> None:
    with open(path, "w") as fh:
        json.dump(result_to_json(result), fh, indent=1)
        fh.write("\n")
