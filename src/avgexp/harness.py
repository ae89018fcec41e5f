"""Prime-sweep experiment: per-prime exponent records, checkpoint tables
comparing the running average against the model constant, and diagnostics.

Work is split into contiguous prime ranges over a process pool; every
prime draws its randomness from a stream derived from (seed, p), so the
record set is identical for any worker count.  Accumulators stay exact
(integers and rationals); floats appear only in reported columns.
"""

import csv
import hashlib
import json
import math
import os
import random
import struct
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .constants import (DEFAULT_DPS, MIN_DPS, ConstantEstimate, DegreeModel,
                        constant_series, degree, estimate_degrees, li)
from .curve import GlobalCurve, reduce_curve
from .counting import DEFAULT_TRACE_THRESHOLD, trace
from .modarith import sieve_primes
from .structure import group_structure

CACHE_MAGIC = b"AVGEXP1\0"
_CACHE_HEADER = struct.Struct("<8sqqQI")
_CACHE_RECORD = struct.Struct("<QqIQ")

DEFAULT_SERIES_Y = 1000

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


class PrimeRecord(NamedTuple):
    p: int
    a_p: int
    d_p: int
    e_p: int


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
    seed: int = 1
    workers: int = 1
    trace_threshold: int = DEFAULT_TRACE_THRESHOLD
    model: DegreeModel = None
    k_max_diag: int = 12
    cache_path: str = None
    precision: int = DEFAULT_DPS

    def __post_init__(self):
        if self.x_max < 100:
            raise ValueError("x_max must be >= 100")
        if self.checkpoints is None:
            self.checkpoints = default_checkpoints(self.x_max)
        if not self.checkpoints:
            raise ValueError("checkpoints must be nonempty")
        if sorted(self.checkpoints) != list(self.checkpoints):
            raise ValueError("checkpoints must be ascending")
        if self.checkpoints[-1] > self.x_max:
            raise ValueError("checkpoints must not exceed x_max")
        if self.model is None:
            self.model = DegreeModel("gl2_generic")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.precision < MIN_DPS:
            raise ValueError(f"precision must be >= {MIN_DPS} digits")


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
    records: list
    checkpoints: list
    skipped: list
    model: DegreeModel
    constant: ConstantEstimate
    constant_provenance: str

    @property
    def c_model(self) -> float:
        return float(self.constant.value)


def derive_rng(seed: int, p: int) -> random.Random:
    """Per-prime stream, stable across platforms and worker layouts."""
    h = hashlib.blake2b(f"{seed}:{p}".encode(), digest_size=8).digest()
    return random.Random(int.from_bytes(h, "little"))


def compute_record(E: GlobalCurve, p: int, seed: int,
                   trace_threshold: int) -> PrimeRecord:
    C = reduce_curve(E, p)
    rng = derive_rng(seed, p)
    T = trace(C, rng, trace_threshold)
    S = group_structure(C, T, rng)
    return PrimeRecord(p, S.a_p, S.d_p, S.e_p)


def _chunk_worker(args):
    E, ps, seed, threshold = args
    return [compute_record(E, p, seed, threshold) for p in ps]


def _compute_records(cfg: ExperimentConfig, good_primes: list) -> list:
    if cfg.workers == 1 or len(good_primes) < 64:
        return [compute_record(cfg.curve, p, cfg.seed, cfg.trace_threshold)
                for p in good_primes]
    chunk = max(32, len(good_primes) // (cfg.workers * 16))
    chunks = [good_primes[i:i + chunk] for i in range(0, len(good_primes), chunk)]
    args = [(cfg.curve, ps, cfg.seed, cfg.trace_threshold) for ps in chunks]
    records = []
    with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
        for part in pool.map(_chunk_worker, args):
            records.extend(part)
    return records


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Process every good prime p <= x_max exactly once and aggregate.

    Only the good primes the cache lacks are computed; the cache is then
    rewritten with its old records and the new ones.  Aggregation
    replays the per-record identities, so a violated invariant aborts
    the run with the offending prime named.
    """
    primes = sieve_primes(cfg.x_max)
    bad = cfg.curve.bad_primes
    good = [p for p in primes if p not in bad]
    skipped = [p for p in primes if p in bad]

    cached = []
    if cfg.cache_path and os.path.exists(cfg.cache_path):
        cached = cache_load(cfg.cache_path, cfg.curve)
    have = {rec.p for rec in cached}
    missing = [p for p in good if p not in have]
    fresh = _compute_records(cfg, missing)
    if cfg.cache_path and missing:
        cache_store(cfg.cache_path, cfg.curve, sorted(cached + fresh))
    records = sorted([rec for rec in cached if rec.p <= cfg.x_max] + fresh)

    model = cfg.model
    if model.kind == "empirical" and not model.overrides:
        model = estimate_degrees(records, cfg.x_max, max(cfg.k_max_diag, 8))
    estimate, provenance = model_constant(model, cfg.precision)
    rows = aggregate_checkpoints(records, cfg.checkpoints, float(estimate.value))
    return ExperimentResult(cfg, records, rows, skipped, model, estimate, provenance)


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
    """Exact running sums cut at each checkpoint.

    sum(p/d) is kept as per-d integer sums (d is tiny) and only combined
    into one rational at each cut.
    """
    rows = []
    sum_e = 0
    count = 0
    by_d = {}
    idx = 0
    cps = list(checkpoints)

    def flush(x):
        spd = sum((Fraction(s, d) for d, s in sorted(by_d.items())), Fraction(0))
        avg = sum_e / count if count else 0.0
        c_hat = 2 * sum_e / (count * x) if count else 0.0
        rows.append(CheckpointRow(
            x, count, sum_e, spd, avg, c_hat, c_model,
            c_hat / c_model - 1, abs(float(spd) - c_model * li(float(x) ** 2))))

    for rec in records:
        while idx < len(cps) and rec.p > cps[idx]:
            flush(cps[idx])
            idx += 1
        if rec.e_p * rec.d_p != rec.p + 1 - rec.a_p:
            raise ArithmeticError(f"record identity e*d = p+1-a fails at p = {rec.p}")
        if abs(rec.a_p) > math.isqrt(4 * rec.p):
            raise ArithmeticError(f"Hasse bound fails at p = {rec.p}")
        sum_e += rec.e_p
        count += 1
        by_d[rec.d_p] = by_d.get(rec.d_p, 0) + rec.p
    while idx < len(cps):
        flush(cps[idx])
        idx += 1
    return rows


def pi_E_table(records, x: int, k_max: int, model: DegreeModel = None) -> list:
    """Rows (k, count of p <= x with k | d_p, model prediction li(x)/deg).

    The prediction column is None where the model has no degree.
    """
    ds = np.fromiter((rec.d_p for rec in records if rec.p <= x), dtype=np.int64)
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
    residuals: tuple
    per_decade: tuple  # (x, deviation, local slope to previous row)
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
    lx = np.log(np.asarray(xs, dtype=float))
    ld = np.log(np.asarray(devs, dtype=float))
    slope, intercept = np.polyfit(lx, ld, 1)
    fitted = slope * lx + intercept
    decade = []
    for i, row in enumerate(rows):
        local = ((ld[i] - ld[i - 1]) / (lx[i] - lx[i - 1])) if i else float("nan")
        decade.append((row.x, devs[i], local))
    return TrendFit(float(slope), float(intercept),
                    tuple((ld - fitted).tolist()), tuple(decade))


def cache_store(path, curve: GlobalCurve, records) -> None:
    """Fixed-width little-endian records behind a checksummed header."""
    body = b"".join(_CACHE_RECORD.pack(r.p, r.a_p, r.d_p, r.e_p) for r in records)
    header = _CACHE_HEADER.pack(CACHE_MAGIC, curve.a4, curve.a6,
                                len(records), zlib.crc32(body))
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as fh:
        fh.write(header)
        fh.write(body)
    os.replace(tmp, path)


def cache_load(path, curve: GlobalCurve) -> list:
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
    body = raw[_CACHE_HEADER.size:]
    if len(body) != count * _CACHE_RECORD.size:
        raise CorruptCache(f"{path}: truncated body")
    if zlib.crc32(body) != crc:
        raise CorruptCache(f"{path}: checksum mismatch")
    return [PrimeRecord(*_CACHE_RECORD.unpack_from(body, i * _CACHE_RECORD.size))
            for i in range(count)]


RECORDS_HEADER = ["p", "a_p", "d_p", "e_p"]
CHECKPOINTS_HEADER = ["x", "pi_x", "sum_e", "sum_p_over_d", "avg_e",
                      "c_hat", "c_model", "rel_dev", "main_term_dev"]
PI_E_HEADER = ["k", "count", "model_prediction"]


def write_records_csv(path, records) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(RECORDS_HEADER)
        w.writerows(records)


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
        "curve": {"a4": cfg.curve.a4, "a6": cfg.curve.a6,
                  "label": cfg.curve.label,
                  "bad_primes": sorted(cfg.curve.bad_primes)},
        "x_max": cfg.x_max,
        "seed": cfg.seed,
        "constant": {"value": float(result.constant.value),
                     "tail_bound": result.constant.tail_bound,
                     "provenance": result.constant_provenance},
        "skipped_bad_primes": result.skipped,
        "checkpoints": [{
            "x": r.x, "pi_x": r.pi_x, "sum_e": r.sum_e,
            "sum_p_over_d": [r.sum_p_over_d.numerator, r.sum_p_over_d.denominator],
            "avg_e": r.avg_e, "c_hat": r.c_hat, "c_model": r.c_model,
            "rel_dev": r.rel_dev, "main_term_dev": r.main_term_dev,
        } for r in result.checkpoints],
        "pi_e": [{"k": k, "count": c, "model_prediction": pred}
                 for k, c, pred in pi_table],
        "records": [list(rec) for rec in result.records],
    }


def write_json(path, result: ExperimentResult, pi_table) -> None:
    with open(path, "w") as fh:
        json.dump(result_to_json(result, pi_table), fh, indent=1)
        fh.write("\n")
