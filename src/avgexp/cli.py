"""Command-line front end: run experiments, evaluate the constant, verify.

Exit codes: 0 on success, 2 when an invariant or verification fails,
3 on cache errors (a cached record that breaks an identity among them),
4 when the command line or an argument value is rejected, 5 when a block
worker dies before it sends a result, 141 (128 + SIGPIPE) when standard
output closes early; run has written its output files by then.
"""

import argparse
import contextlib
import os
import sys
from dataclasses import astuple, fields
from functools import partial

from .constants import (DegreeModel, constant_euler, constant_series,
                        load_overrides, nstr)
from .curve import GlobalCurve, reduce_curve
from .harness import (CacheMismatch, CheckpointRow, CorruptCache,
                      ExperimentConfig, PI_E_HEADER, PRESETS, RECORD,
                      UnwritableCache, compute_records, error_trend,
                      good_primes, model_constant, record_lines,
                      run_experiment, write_csv, write_json)
from .structure import structure_bruteforce

EXIT_OK = 0
EXIT_INVARIANT = 2
EXIT_CACHE = 3
EXIT_USAGE = 4
EXIT_WORKER = 5
EXIT_PIPE = 141
# the files of --out csv, in its --outfile directory
CSV_NAMES = ("records.csv", "checkpoints.csv", "pi_e.csv")

VERIFY_CURVES = [
    GlobalCurve(1, 1, label="y^2 = x^3 + x + 1"),
    GlobalCurve(-1, 0, label="y^2 = x^3 - x"),
    GlobalCurve(0, 6, label="y^2 = x^3 + 6"),
]


class UnwritableOutput(Exception):
    """An output file could not be written."""


def _output(fn, *args):
    """fn(*args), writing an output file: an OSError of it is raised as
    UnwritableOutput, so that it is not taken for one of the sweep's
    own, a fork that fails, say."""
    try:
        return fn(*args)
    except OSError as err:
        raise UnwritableOutput(err) from err


def _append(fh, records) -> None:
    """records as csv lines at the end of fh, flushed, so that closing fh
    has nothing left to write."""
    fh.write(record_lines(records))
    fh.flush()


def _usage_error(message: str) -> int:
    print(f"usage error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _paths_text(paths: dict) -> str:
    """'naive N, lanes N, fallback N': the primes by point-counting path."""
    return ", ".join(f"{k} {n}" for k, n in paths.items())


def _fold_curve(argv) -> list:
    """argv with every '--curve V' joined into '--curve=V', so that
    argparse takes a value such as '-1,1' as the curve, not as an option."""
    folded, tokens = [], iter(argv)
    for token in tokens:
        value = next(tokens, None) if token == "--curve" else None
        folded.append(token if value is None else f"--curve={value}")
    return folded


def _parse_curve(args) -> GlobalCurve:
    if args.preset:
        if args.preset not in PRESETS:
            raise ValueError(f"unknown preset {args.preset!r}; have {sorted(PRESETS)}")
        return PRESETS[args.preset]
    if not args.curve:
        raise ValueError("one of --curve or --preset is required")
    try:
        a4, a6 = (int(t) for t in args.curve.split(","))
    except ValueError:
        raise ValueError("--curve expects 'a4,a6' with decimal integers") from None
    try:
        return GlobalCurve(a4, a6, label=args.curve)
    except ValueError as err:
        raise ValueError(f"curve {args.curve}: {err}") from None


def _parse_checkpoints(text):
    try:
        return [int(t) for t in text.split(",")] if text else None
    except ValueError:
        raise ValueError("--checkpoints expects comma-separated decimal integers") from None


def _build_model(args) -> DegreeModel:
    try:  # with no file there is no override to refuse
        overrides = load_overrides(args.overrides) if args.overrides else {}
        return DegreeModel("gl2_generic" if args.model == "gl2" else "empirical", overrides)
    except (OSError, ValueError) as err:
        raise ValueError(f"--overrides: {err}") from None


def _prepare_output(args) -> None:
    """Refuse an unusable --outfile or --cache before the sweep; make the
    csv directory, and refuse it if one of its files is a directory."""
    json_file = args.out == "json" and (args.outfile or "avgexp.json")
    for flag, path in (("--cache", args.cache), ("--outfile", json_file)):
        if path and (os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or ".")):
            raise ValueError(f"{flag}: {path} is a directory or lies in no directory")
    if args.out == "csv":
        outdir = args.outfile or "."
        try:
            os.makedirs(outdir, exist_ok=True)
        except OSError as err:
            raise ValueError(f"--outfile: {err}") from None
        for path in (os.path.join(outdir, name) for name in CSV_NAMES):
            if os.path.isdir(path):
                raise ValueError(f"--outfile: {path} is a directory")


def cmd_run(args) -> int:
    try:
        cfg = ExperimentConfig(
            curve=_parse_curve(args),
            x_max=args.xmax,
            checkpoints=_parse_checkpoints(args.checkpoints),
            workers=args.workers,
            trace_threshold=args.trace_threshold,
            model=_build_model(args),
            cache_path=args.cache,
        )
        constant = model_constant(cfg.model)  # None for a table fitted to the records
        _prepare_output(args)
    except ValueError as err:
        return _usage_error(str(err))
    try:  # before any print, so that a closed stdout cannot cost the files
        if args.out == "json":
            result = run_experiment(cfg, constant)
            written = args.outfile or "avgexp.json"
            _output(write_json, written, result)
        else:  # records.csv is written as the sweep folds each block
            outdir = args.outfile or "."
            records, checkpoints, pi_e = (os.path.join(outdir, name) for name in CSV_NAMES)
            part = f"{records}.part.{os.getpid()}"
            try:  # under a temporary name: a failed sweep leaves records.csv as it was
                with _output(open, part, "wb") as fh:
                    _output(fh.write, ",".join(RECORD.names).encode() + b"\r\n")
                    result = run_experiment(cfg, constant, partial(_output, _append, fh))
                _output(os.replace, part, records)
            finally:
                with contextlib.suppress(OSError):
                    os.remove(part)
            _output(write_csv, checkpoints, [f.name for f in fields(CheckpointRow)],
                    map(astuple, result.checkpoints))
            _output(write_csv, pi_e, PI_E_HEADER, result.pi_e)
            written = f"{outdir}/{', '.join(CSV_NAMES)}"
    except UnwritableOutput as err:
        return _usage_error(f"--outfile: {err}")

    print(f"curve: {cfg.curve.label or (cfg.curve.a4, cfg.curve.a6)}   "
          f"x_max = {cfg.x_max}   good primes = {result.good}   "
          f"skipped bad primes: {result.skipped}")
    print(f"paths: {_paths_text(result.paths)}")
    print(f"constant = {result.c_model:.12f}  "
          f"(+/- {result.constant.tail_bound:.2e} truncation; "
          f"{result.constant_provenance})")
    print(f"{'x':>10} {'pi_x':>8} {'avg_e':>16} {'c_hat':>10} {'rel_dev':>10}")
    for row in result.checkpoints:
        print(f"{row.x:>10} {row.pi_x:>8} {row.avg_e:>16.3f} "
              f"{row.c_hat:>10.6f} {row.rel_dev:>+10.4f}")
    try:
        fit = error_trend(result.checkpoints)
        print(f"deviation trend: slope {fit.slope:.3f} ({fit.note})")
    except ValueError:
        pass
    print(f"wrote {written}")
    return EXIT_OK


def cmd_constant(args) -> int:
    if args.model != "gl2":
        return _usage_error("the constant subcommand evaluates the gl2 model; "
                            "empirical tables come from 'run --model empirical'")
    try:  # every ValueError here comes from an argument value or the overrides file
        model = _build_model(args)
        s = constant_series(model, args.series_y, args.precision)
        e = constant_euler(model, args.euler_pmax, args.precision)
    except ValueError as err:
        return _usage_error(str(err))
    print(f"series (y = {s.truncation}):     {nstr(s.value, args.precision)}")
    print(f"  tail <= {s.tail_bound:.3e}   [{s.tail_formula}]")
    print(f"euler  (p_max = {e.truncation}): {nstr(e.value, args.precision)}")
    print(f"  tail <= {e.tail_bound:.3e}   [{e.tail_formula}]")
    gap = abs(s.value - e.value)
    budget = s.tail_bound + e.tail_bound
    print(f"difference {float(gap):.3e} vs combined tails {budget:.3e}: "
          f"{'consistent' if gap <= budget else 'INCONSISTENT'}")
    return EXIT_OK if gap <= budget else EXIT_INVARIANT


def cmd_verify(args) -> int:
    if not 5 <= args.xmax <= 5000:  # 5: the least prime that can be good
        return _usage_error("verify is exhaustive and needs 5 <= --xmax <= 5000")
    failures = 0
    for E in VERIFY_CURVES:
        good, _ = good_primes(E, args.xmax)
        records, paths = compute_records(E, good, ExperimentConfig.trace_threshold)
        curve_failures = 0
        for got in records.tolist():
            want = structure_bruteforce(reduce_curve(E, got[0]))
            if got != (want.p, want.a_p, want.d_p, want.e_p):
                print(f"MISMATCH {E.label} p={got[0]}: "
                      f"certified {got} vs enumerated {want}")
                curve_failures += 1
        failures += curve_failures
        status = "ok" if curve_failures == 0 else "FAIL"
        print(f"{E.label}: {len(records)} good primes <= {args.xmax} cross-checked "
              f"({_paths_text(paths)}) [{status}]")
    if failures:
        print(f"{failures} mismatches")
        return EXIT_INVARIANT
    print("all certified structures match full enumeration")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="avgexp",
        description="Exponent of elliptic-curve groups mod p: records, "
                    "constants, and convergence experiments.")
    sub = ap.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="sweep primes and emit checkpoint tables")
    run.add_argument("--curve", help="global model as 'a4,a6'")
    run.add_argument("--preset", help=f"named curve: {', '.join(sorted(PRESETS))}")
    run.add_argument("--xmax", type=int, required=True,
                     help="sweep the good primes up to this, 100 .. 2^30 - 1 "
                          "(the int64 lanes' range)")
    run.add_argument("--checkpoints", help="comma-separated cut points")
    run.add_argument("--workers", type=int, default=1)
    run.add_argument("--trace-threshold", type=int,
                     default=ExperimentConfig.trace_threshold,
                     help="count points by the O(p) character sum below this p "
                          "(it always does below 229, where the BSGS lanes start)")
    run.add_argument("--model", choices=("gl2", "empirical"), default="gl2")
    run.add_argument("--overrides", help="file of 'k degree' pairs")
    run.add_argument("--cache", help="binary record cache path")
    run.add_argument("--out", choices=("csv", "json"), default="csv")
    run.add_argument("--outfile", help="csv: output directory; json: file path")
    run.set_defaults(func=cmd_run)

    const = sub.add_parser("constant", help="evaluate the constant two ways")
    const.add_argument("--model", default="gl2")
    const.add_argument("--overrides")
    const.add_argument("--series-y", type=int, required=True)
    const.add_argument("--euler-pmax", type=int, required=True)
    const.add_argument("--precision", type=int, default=50)
    const.set_defaults(func=cmd_constant)

    verify = sub.add_parser("verify", help="cross-check the certified structures "
                                           "against full enumeration at small p")
    verify.add_argument("--xmax", type=int, default=2000)
    verify.set_defaults(func=cmd_verify)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(_fold_curve(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:  # argparse: 0 after --help, 2 on a bad command line
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (CacheMismatch, CorruptCache, UnwritableCache) as err:
        print(f"cache error: {err}", file=sys.stderr)
        return EXIT_CACHE
    except ArithmeticError as err:
        print(f"invariant violation: {err}", file=sys.stderr)
        return EXIT_INVARIANT
    except ChildProcessError as err:  # the OOM killer, say
        print(f"worker error: {err}", file=sys.stderr)
        return EXIT_WORKER
    except BrokenPipeError:
        # point the descriptor at devnull, so the flush at exit cannot fail too
        with contextlib.suppress(AttributeError, OSError, ValueError):
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE


if __name__ == "__main__":
    sys.exit(main())
