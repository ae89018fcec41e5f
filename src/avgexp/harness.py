"""Prime-sweep experiment: per-prime exponent records, checkpoint tables
comparing the running average against the model constant, and diagnostics.

Work is split into blocks of consecutive good primes, one pool task per
block.  A block counts points for all its primes at once (trace_block),
then proves each prime's structure.  Every record is proved, and the
points behind it depend on p alone, so records are identical for any
worker count and block layout.

Records are one numpy recarray of dtype RECORD, sorted by p.  The
identities every true record obeys are written once, in
record_violations, and checked where records enter a run: per block as
they are computed, and when a cache is loaded.  Accumulators stay exact
(integers and rationals); floats appear only in reported columns.
"""

import csv
import json
import os
import struct
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import count

import numpy as np

from .constants import (DEFAULT_DPS, MIN_DPS, ConstantEstimate, DegreeModel,
                        constant_series, degree, estimate_degrees, li)
from .curve import GlobalCurve, ReducedCurve, reduce_curve
from .counting import DEFAULT_TRACE_THRESHOLD, TraceResult, trace_block
from .modarith import is_prime, sieve_primes
from .structure import GroupStructure, group_structure

CACHE_MAGIC = b"AVGEXP1\0"
_CACHE_HEADER = struct.Struct("<8sqqQI")  # a4 and a6 are int64
# A record (p, a_p, d_p, e_p) in memory and in the cache.  In memory every
# column is int64, so arithmetic on the columns stays integer (numpy turns
# uint64 - int64 into float64); the cache keeps its packed "<QqIQ" layout.
RECORD = np.dtype([("p", "<i8"), ("a_p", "<i8"), ("d_p", "<i8"), ("e_p", "<i8")])
_CACHE_DTYPE = np.dtype([("p", "<u8"), ("a_p", "<i8"), ("d_p", "<u4"), ("e_p", "<u8")])

DEFAULT_SERIES_Y = 1000
# Good primes per lane block and pool task: numpy's per-call cost is
# spread over a few hundred lanes, and the row arrays stay small.
LANE_BLOCK = 512
# Levels k of the pi_e.csv table and of the empirical degree table.
K_MAX_DIAG = 12
# How each prime's trace was found, by TraceResult.method.
PATHS = {"naive": "naive", "lanes": "lanes", "bsgs": "fallback"}

PRESETS = {
    "generic1": GlobalCurve(1, 1, label="generic1"),
    "cm-i": GlobalCurve(-1, 0, label="cm-i"),
    "cm-3": GlobalCurve(0, 16, label="cm-3"),
}


class CacheMismatch(RuntimeError):
    """Cache header disagrees with the requested curve or format."""


class CorruptCache(RuntimeError):
    """Cache file is truncated or fails its checksum."""


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
    trace_threshold: int = DEFAULT_TRACE_THRESHOLD
    model: DegreeModel = None
    cache_path: str = None
    precision: int = DEFAULT_DPS

    def __post_init__(self):
        if self.x_max < 100:
            raise ValueError("x_max must be >= 100")
        if self.checkpoints is None:
            self.checkpoints = default_checkpoints(self.x_max)
        if not self.checkpoints:
            raise ValueError("checkpoints must be nonempty")
        if any(b <= a for a, b in zip(self.checkpoints, self.checkpoints[1:])):
            raise ValueError("checkpoints must be strictly ascending")
        if self.checkpoints[-1] > self.x_max:
            raise ValueError("checkpoints must not exceed x_max")
        least = next(q for q in count(5) if is_prime(q) and self.curve.disc % q)
        if self.checkpoints[0] < least:
            raise ValueError(f"checkpoints must be >= {least}, the least good prime")
        if self.model is None:
            self.model = DegreeModel("gl2_generic")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.precision < MIN_DPS:
            raise ValueError(f"precision must be >= {MIN_DPS} digits")
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


def compute_record(C: ReducedCurve, T: TraceResult) -> GroupStructure:
    """The record of C.p from its trace result T: the structure step."""
    return group_structure(C, T)


def compute_block(E: GlobalCurve, ps: list, threshold: int) -> tuple:
    """Records of the good primes ps, and how many took each path of
    PATHS.  Point counting runs for the whole block at once; a record
    that breaks an identity raises ArithmeticError."""
    curves = [reduce_curve(E, p) for p in ps]
    traces = trace_block(curves, threshold)
    paths = dict.fromkeys(PATHS.values(), 0)
    for T in traces:
        paths[PATHS[T.method]] += 1
    records = np.array([(S.p, S.a_p, S.d_p, S.e_p)
                        for S in map(compute_record, curves, traces)], dtype=RECORD)
    bad = record_violations(records)
    if bad.any():
        raise ArithmeticError(f"record identities fail at p = {records['p'][bad.argmax()]}")
    return records, paths


def compute_records(E: GlobalCurve, primes: list, threshold: int,
                    workers: int = 1) -> tuple:
    """compute_block over blocks of LANE_BLOCK primes, on a process pool
    of at most one worker per block and per CPU; records in the order of
    primes, paths summed."""
    blocks = [primes[i:i + LANE_BLOCK] for i in range(0, len(primes), LANE_BLOCK)]
    work = partial(compute_block, E, threshold=threshold)
    workers = min(workers, len(blocks), os.cpu_count() or 1)
    if workers <= 1:
        parts = list(map(work, blocks))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(work, blocks))
    paths = dict.fromkeys(PATHS.values(), 0)
    for _, counts in parts:
        for path, n in counts.items():
            paths[path] += n
    records = np.concatenate([np.empty(0, RECORD)] + [recs for recs, _ in parts])
    return records.view(np.recarray), paths


def good_primes(E: GlobalCurve, limit: int) -> tuple:
    """The good primes p <= limit of E and the bad ones, as int64 arrays.

    p is bad when p < 5 or p | disc.  |disc| mod every sieved prime at
    once comes from Horner's rule over its 16-bit limbs, which stays
    inside int64 for p < 2^47; disc is never factored.
    """
    primes = np.array(sieve_primes(limit), dtype=np.int64)
    d = abs(E.disc)
    r = np.zeros_like(primes)
    for shift in range(d.bit_length() // 16 * 16, -1, -16):
        r = ((r << 16) + ((d >> shift) & 0xFFFF)) % primes
    bad = (primes < 5) | (r == 0)
    return primes[~bad], primes[bad]


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Process every good prime p <= x_max exactly once and aggregate.

    Only the good primes the cache lacks are computed; the cache is then
    rewritten with its old records and the new ones.  A cached p <= x_max
    that is not a good prime makes the cache corrupt.
    """
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
    fresh, paths = compute_records(cfg.curve, missing.tolist(), cfg.trace_threshold,
                                   cfg.workers)
    if len(missing):
        records = np.concatenate([records, fresh])
        records = records[np.argsort(records["p"])]
        if cfg.cache_path:
            cache_store(cfg.cache_path, cfg.curve, records)
    records = records[records["p"] <= cfg.x_max].view(np.recarray)

    model = cfg.model
    if model.kind == "empirical" and not model.overrides:
        model = estimate_degrees(records, cfg.x_max, K_MAX_DIAG)
    estimate, provenance = model_constant(model, cfg.precision)
    rows = aggregate_checkpoints(records, cfg.checkpoints, float(estimate.value))
    return ExperimentResult(cfg, records, rows, skipped.tolist(), model, estimate,
                            provenance, paths)


def model_constant(model: DegreeModel, dps: int = DEFAULT_DPS):
    """Series value of the constant under the model, with provenance."""
    if model.kind == "gl2_generic":
        est = constant_series(model, DEFAULT_SERIES_Y, dps)
        return est, f"gl2_generic series, y = {DEFAULT_SERIES_Y}"
    covered = 0
    while (covered + 1) in model.overrides:
        covered += 1
    if covered == 0:
        raise ValueError("empirical model covers no levels")
    est = constant_series(model, covered, dps)
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


def pi_E_table(records, x: int, k_max: int, model: DegreeModel = None) -> list:
    """Rows (k, count of p <= x with k | d_p, model prediction li(x)/deg).

    The prediction column is None where the model has no degree.
    """
    ds = records["d_p"][records["p"] <= x]
    li_x = li(float(x))
    out = []
    for k in range(1, k_max + 1):
        count = int((ds % k == 0).sum())
        try:
            pred = li_x / float(degree(model, k)) if model is not None else None
        except KeyError:
            pred = None
        out.append((k, count, pred))
    return out


@dataclass(frozen=True)
class TrendFit:
    slope: float
    intercept: float
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
    slope, intercept = np.polyfit(np.log(np.asarray(xs, dtype=float)),
                                  np.log(np.asarray(devs, dtype=float)), 1)
    return TrendFit(float(slope), float(intercept))


def cache_store(path, curve: GlobalCurve, records) -> None:
    """Packed little-endian "<QqIQ" records behind a checksummed header."""
    body = np.asarray(records, dtype=RECORD).astype(_CACHE_DTYPE).tobytes()
    header = _CACHE_HEADER.pack(CACHE_MAGIC, curve.a4, curve.a6,
                                len(records), zlib.crc32(body))
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as fh:
        fh.write(header)
        fh.write(body)
    os.replace(tmp, path)


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


RECORDS_HEADER = ["p", "a_p", "d_p", "e_p"]
CHECKPOINTS_HEADER = ["x", "pi_x", "sum_e", "sum_p_over_d", "avg_e",
                      "c_hat", "c_model", "rel_dev", "main_term_dev"]
PI_E_HEADER = ["k", "count", "model_prediction"]


def write_records_csv(path, records) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(RECORDS_HEADER)
        for i in range(0, len(records), 1 << 14):  # few Python tuples at a time
            w.writerows(records[i:i + (1 << 14)].tolist())


def write_checkpoints_csv(path, rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CHECKPOINTS_HEADER)
        for r in rows:
            w.writerow([r.x, r.pi_x, r.sum_e,
                        f"{r.sum_p_over_d.numerator}/{r.sum_p_over_d.denominator}",
                        repr(r.avg_e), repr(r.c_hat), repr(r.c_model),
                        repr(r.rel_dev), repr(r.main_term_dev)])


def write_pi_e_csv(path, table) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(PI_E_HEADER)
        for k, count, pred in table:
            w.writerow([k, count, "" if pred is None else repr(pred)])


def result_to_json(result: ExperimentResult, pi_table) -> dict:
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
            "x": r.x, "pi_x": r.pi_x, "sum_e": r.sum_e,
            "sum_p_over_d": [r.sum_p_over_d.numerator, r.sum_p_over_d.denominator],
            "avg_e": r.avg_e, "c_hat": r.c_hat, "c_model": r.c_model,
            "rel_dev": r.rel_dev, "main_term_dev": r.main_term_dev,
        } for r in result.checkpoints],
        "pi_e": [{"k": k, "count": c, "model_prediction": pred}
                 for k, c, pred in pi_table],
        "records": result.records.tolist(),
    }


def write_json(path, result: ExperimentResult, pi_table) -> None:
    with open(path, "w") as fh:
        json.dump(result_to_json(result, pi_table), fh, indent=1)
        fh.write("\n")
