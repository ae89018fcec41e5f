"""Command-line front end: run experiments, evaluate the constant, verify.

Exit codes: 0 on success, 2 when an invariant or verification fails,
3 on cache errors (a cached record that breaks an identity among them),
4 when the command line or an argument value is rejected.
"""

import argparse
import os
import sys

import mpmath as mp

from .constants import (DegreeModel, constant_euler, constant_series,
                        load_overrides)
from .counting import AmbiguityExhausted, DEFAULT_TRACE_THRESHOLD
from .curve import GlobalCurve, reduce_curve
from .harness import (CacheMismatch, CorruptCache, ExperimentConfig,
                      InsufficientCheckpoints, K_MAX_DIAG, PRESETS,
                      compute_records, error_trend, good_primes, pi_E_table,
                      run_experiment, write_checkpoints_csv, write_json,
                      write_pi_e_csv, write_records_csv)
from .structure import (NotAnnihilated, StructureUnverified,
                        structure_bruteforce)

EXIT_OK = 0
EXIT_INVARIANT = 2
EXIT_CACHE = 3
EXIT_USAGE = 4

VERIFY_CURVES = [
    GlobalCurve(1, 1, label="y^2 = x^3 + x + 1"),
    GlobalCurve(-1, 0, label="y^2 = x^3 - x"),
    GlobalCurve(0, 6, label="y^2 = x^3 + 6"),
]


def _usage_error(message: str) -> int:
    print(f"usage error: {message}", file=sys.stderr)
    return EXIT_USAGE


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


def _build_model(args) -> DegreeModel:
    try:
        overrides = load_overrides(args.overrides) if args.overrides else {}
    except OSError as err:
        raise ValueError(f"--overrides: {err}") from None
    if args.model == "gl2":
        return DegreeModel("gl2_generic", overrides)
    return DegreeModel("empirical", overrides)


def _prepare_output(args) -> None:
    """Refuse an unusable --outfile before the sweep; make the csv directory."""
    try:
        if args.out == "csv":
            os.makedirs(args.outfile or ".", exist_ok=True)
        elif not os.path.isdir(os.path.dirname(args.outfile or "") or "."):
            raise NotADirectoryError(f"no directory to hold {args.outfile}")
    except OSError as err:
        raise ValueError(f"--outfile: {err}") from None


def cmd_run(args) -> int:
    try:
        cfg = ExperimentConfig(
            curve=_parse_curve(args),
            x_max=args.xmax,
            checkpoints=[int(t) for t in args.checkpoints.split(",")] if args.checkpoints else None,
            workers=args.workers,
            trace_threshold=args.trace_threshold,
            model=_build_model(args),
            cache_path=args.cache,
            precision=args.precision,
        )
        _prepare_output(args)
    except ValueError as err:
        return _usage_error(str(err))
    result = run_experiment(cfg)
    table = pi_E_table(result.records, cfg.x_max, K_MAX_DIAG, result.model)

    print(f"curve: {cfg.curve.label or (cfg.curve.a4, cfg.curve.a6)}   "
          f"x_max = {cfg.x_max}   good primes = {len(result.records)}   "
          f"skipped bad primes: {result.skipped}")
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
    except (InsufficientCheckpoints, ValueError):
        pass

    try:
        if args.out == "json":
            path = args.outfile or "avgexp.json"
            write_json(path, result, table)
            print(f"wrote {path}")
        else:
            outdir = args.outfile or "."
            write_records_csv(os.path.join(outdir, "records.csv"), result.records)
            write_checkpoints_csv(os.path.join(outdir, "checkpoints.csv"),
                                  result.checkpoints)
            write_pi_e_csv(os.path.join(outdir, "pi_e.csv"), table)
            print(f"wrote {outdir}/records.csv, checkpoints.csv, pi_e.csv")
    except OSError as err:
        return _usage_error(f"--outfile: {err}")
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
    print(f"series (y = {s.truncation}):     {mp.nstr(s.value, args.precision)}")
    print(f"  tail <= {s.tail_bound:.3e}   [{s.tail_formula}]")
    print(f"euler  (p_max = {e.truncation}): {mp.nstr(e.value, args.precision)}")
    print(f"  tail <= {e.tail_bound:.3e}   [{e.tail_formula}]")
    gap = abs(s.value - e.value)
    budget = s.tail_bound + e.tail_bound
    print(f"difference {float(gap):.3e} vs combined tails {budget:.3e}: "
          f"{'consistent' if gap <= budget else 'INCONSISTENT'}")
    return EXIT_OK if gap <= budget else EXIT_INVARIANT


def cmd_verify(args) -> int:
    if not 2 <= args.xmax <= 5000:
        return _usage_error("verify is exhaustive and needs 2 <= --xmax <= 5000")
    failures = 0
    for E in VERIFY_CURVES:
        good, _ = good_primes(E, args.xmax)
        records, paths = compute_records(E, good.tolist(), args.trace_threshold)
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
              f"({', '.join(f'{k} {n}' for k, n in paths.items())}) [{status}]")
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
    run.add_argument("--xmax", type=int, required=True)
    run.add_argument("--checkpoints", help="comma-separated cut points")
    run.add_argument("--workers", type=int, default=1)
    run.add_argument("--trace-threshold", type=int,
                     default=DEFAULT_TRACE_THRESHOLD)
    run.add_argument("--model", choices=("gl2", "empirical"), default="gl2")
    run.add_argument("--overrides", help="file of 'k degree' pairs")
    run.add_argument("--cache", help="binary record cache path")
    run.add_argument("--out", choices=("csv", "json"), default="csv")
    run.add_argument("--outfile", help="csv: output directory; json: file path")
    run.add_argument("--precision", type=int, default=50)
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
    verify.add_argument("--trace-threshold", type=int,
                        default=DEFAULT_TRACE_THRESHOLD)
    verify.set_defaults(func=cmd_verify)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse: 0 after --help, 2 on a bad command line
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (CacheMismatch, CorruptCache) as err:
        print(f"cache error: {err}", file=sys.stderr)
        return EXIT_CACHE
    except (StructureUnverified, NotAnnihilated, AmbiguityExhausted,
            ArithmeticError) as err:
        print(f"invariant violation: {err}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
