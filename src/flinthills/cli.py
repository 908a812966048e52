"""Command-line surface.

Subcommands: expand, convergents, measure, audit, kernel, shift, recip-sin,
gamma-reflect, series, stats, verify.  Exit codes: 0 success, 1 domain error,
2 usage error.  All numeric output is deterministic for a given invocation.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import cache as cache_mod
from . import contfrac, diophantine, kernels, series, stats
from .errors import FlintHillsError
from .mpreal import FIXTURES, make_context
from .output import DEFAULT_SIGNIFICANT_DIGITS, FORMATS, emit_rows

DEFAULT_DIGITS = 50

_FIXTURE_DEFAULTS = {
    "numerators": ("A002485.txt", 2),
    "denominators": ("A002486.txt", 2),
    "lacunary": ("A046947.txt", 1),
}


def _add_common(p: argparse.ArgumentParser, digits_default=None):
    p.add_argument("--digits", type=int, default=digits_default,
                   help="working precision in decimal digits (default: sized to the request)")
    p.add_argument("--format", choices=FORMATS, default="plain",
                   help="output format (default plain)")
    p.add_argument("--full", action="store_true",
                   help="print all context digits instead of 6 significant digits")


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="flinthills",
        description="Arbitrary-precision continued fractions of pi, empirical "
                    "irrationality measures, summation kernels, and Flint Hills sums.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="certified partial quotients of a constant")
    p.add_argument("--constant", choices=contfrac.KNOWN_CONSTANTS, default="pi")
    p.add_argument("--terms", type=int, required=True)
    p.add_argument("--cache-write", action="store_true", help="store the expansion in the cache")
    _add_common(p)

    p = sub.add_parser("convergents", help="exact convergents p_n/q_n")
    p.add_argument("--constant", choices=contfrac.KNOWN_CONSTANTS, default="pi")
    p.add_argument("--terms", type=int, required=True)
    p.add_argument("--cache-read", action="store_true", help="reuse a cached expansion when fresh enough")
    _add_common(p)

    p = sub.add_parser("measure", help="empirical irrationality measure table")
    p.add_argument("--constant", choices=contfrac.KNOWN_CONSTANTS, default="pi")
    p.add_argument("--terms", type=int, default=25)
    _add_common(p, digits_default=DEFAULT_DIGITS)

    p = sub.add_parser("audit", help="approximation inequality audit over convergents")
    p.add_argument("--constant", choices=contfrac.KNOWN_CONSTANTS, default="pi")
    p.add_argument("--n-max", type=int, default=25)
    p.add_argument("--start", type=int, default=1)
    _add_common(p, digits_default=DEFAULT_DIGITS)

    p = sub.add_parser("kernel", help="Dirichlet/Fejer kernel values, or the cf-shift audit")
    p.add_argument("--type", choices=("dirichlet", "fejer", "cf"), required=True)
    p.add_argument("--x", default=None, help="kernel order (integer enables the sum form)")
    p.add_argument("--z", default=None, help="kernel argument (decimal)")
    p.add_argument("--d", type=int, default=None, help="cf technique: parameter d > 16 pi^4")
    p.add_argument("--m-max", type=int, default=10, help="cf technique: convergents to audit")
    _add_common(p, digits_default=DEFAULT_DIGITS)

    p = sub.add_parser("shift", help="2-adic shift sequence report over p_n")
    p.add_argument("--n-max", type=int, default=25)
    p.add_argument("--technique", choices=("real", "integer"), default="real")
    _add_common(p, digits_default=DEFAULT_DIGITS)

    p = sub.add_parser("recip-sin", help="reciprocal sine table over p_n")
    p.add_argument("--n-max", type=int, default=25)
    _add_common(p, digits_default=DEFAULT_DIGITS)

    p = sub.add_parser("gamma-reflect", help="gamma reflection products over p_n")
    p.add_argument("--n-max", type=int, default=25)
    _add_common(p, digits_default=DEFAULT_DIGITS)

    p = sub.add_parser("series", help="partial sums of the Flint Hills family")
    p.add_argument("family", choices=tuple(f.replace("_", "-") for f in series.FAMILIES))
    p.add_argument("--u", type=float, default=3.0)
    p.add_argument("--v", type=float, default=2.0)
    p.add_argument("--limit", type=int, required=True)
    p.add_argument("--alpha", choices=contfrac.KNOWN_CONSTANTS, default="sqrt2",
                   help="alpha for the alpha-pi family")
    p.add_argument("--measure", type=float, default=None,
                   help="irrationality measure of alpha (for --report)")
    p.add_argument("--arg", choices=series.FLAT_VARIANTS, default="nearest",
                   help="flat families: nearest-integer distance or fractional part")
    p.add_argument("--flat-base", type=int, default=10)
    p.add_argument("--points", default=None,
                   help="comma-separated checkpoints; emits (x, partial sum) pairs")
    p.add_argument("--report", action="store_true", help="emit convergence diagnostics instead")
    _add_common(p, digits_default=DEFAULT_DIGITS)

    p = sub.add_parser("stats", help="partial-quotient statistics")
    p.add_argument("--constant", choices=contfrac.KNOWN_CONSTANTS, default="pi")
    p.add_argument("--terms", type=int, default=10000)
    p.add_argument("--histogram", action="store_true", help="emit the value histogram rows")
    _add_common(p)

    p = sub.add_parser("verify", help="compare a computed sequence against an OEIS b-file")
    p.add_argument("--sequence", choices=tuple(_FIXTURE_DEFAULTS), required=True)
    p.add_argument("--fixture", default=None, help="b-file path (default: bundled fixture)")
    p.add_argument("--terms", type=int, default=25)
    _add_common(p)
    return ap


def _rows(records, **rename) -> list[dict]:
    """One row per result record: its fields in declaration order, some renamed."""
    return [{rename.get(k, k): v for k, v in vars(r).items()} for r in records]


def _emit(out, args, rows: list[dict], digits: int) -> int:
    """Write the rows (all `digits` under --full) and return the success code.

    A reader that closes the pipe early (``| head``) ends the output, not the
    command: the rest of the table is dropped and the exit code stays 0.
    """
    try:
        emit_rows(rows, args.format, digits if args.full else DEFAULT_SIGNIFICANT_DIGITS, out)
        out.flush()
    except BrokenPipeError:
        # what is still buffered goes to devnull, so the flush at exit raises nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), out.fileno())
    return 0


def _resolve_fixture(path, default_name: str) -> Path:
    if path is None:
        return FIXTURES / default_name
    if not Path(path).is_file():
        raise FlintHillsError(f"fixture not found: {path}")
    return Path(path)


def _quotients_for(args, terms: int, use_cache: bool = False):
    if use_cache:
        cached = cache_mod.load_quotients(args.constant, terms)
        if cached is not None:
            return cached
    pq = contfrac.expand_constant(args.constant, terms, args.digits)
    if len(pq.terms) < terms:
        raise FlintHillsError(
            f"certified only {len(pq.terms)} of {terms} terms; raise --digits"
        )
    return pq


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------


def _cmd_expand(args, out):
    pq = _quotients_for(args, args.terms)
    if args.cache_write:
        cache_mod.write_entry(pq)
    rows = [{"k": i, "a": a} for i, a in enumerate(pq.terms)]
    return _emit(out, args, rows, 30)


def _cmd_convergents(args, out):
    pq = _quotients_for(args, args.terms, use_cache=args.cache_read)
    pairs = contfrac.decimal_convergents(pq, args.terms)
    rows = [{"n": n, "p": p, "q": q} for n, (p, q) in enumerate(pairs, start=1)]
    return _emit(out, args, rows, 30)


def _cmd_measure(args, out):
    ctx = make_context(max(args.digits, contfrac.digits_for_terms(args.terms)))
    points = diophantine.measure_table(args.constant, args.terms, ctx)
    return _emit(out, args, _rows(points, index="n"), ctx.decimal_digits)


def _cmd_audit(args, out):
    report = diophantine.inequality_audit(args.constant, (args.start, args.n_max), make_context(args.digits))
    _emit(out, args, _rows(report.rows, index="n"), args.digits)
    print(
        f"dirichlet_ok={report.all_dirichlet_ok} shifted_ok={report.all_shifted_ok} "
        f"hurwitz_count={report.hurwitz_count}/{len(report.rows)}",
        file=sys.stderr,
    )
    return 0


def _cmd_kernel(args, out):
    ctx = make_context(args.digits)
    if args.type == "cf":
        if args.d is None:
            raise FlintHillsError("--d is required for --type cf")
        table = kernels.cf_technique_check(args.d, args.m_max, ctx)
        return _emit(out, args, _rows(table, index="m"), args.digits)
    if args.x is None or args.z is None:
        raise FlintHillsError("--x and --z are required for kernel evaluation")
    x = kernels.exact_decimal(args.x, "--x")
    if args.x.lstrip("+-").isdigit():  # a plain integer token is a kernel order
        x = int(x)
    z = kernels.exact_decimal(args.z, "--z")
    result = (kernels.dirichlet_kernel if args.type == "dirichlet" else kernels.fejer_kernel)(x, z, ctx)
    rows = [{"kernel": args.type} | row for row in _rows([result], x_param="x")]
    return _emit(out, args, rows, args.digits)


def _cmd_shift(args, out):
    ctx = make_context(args.digits)
    if args.technique == "integer":
        table = kernels.recip_sin_bound_integer_technique(args.n_max, ctx)
    else:
        table = kernels.recip_sin_bound_real_technique(args.n_max, ctx)
    return _emit(out, args, _rows(table, index="n"), args.digits)


def _cmd_recip_sin(args, out):
    table = series.recip_sin_table(args.n_max, make_context(args.digits))
    return _emit(out, args, _rows(table, index="n"), args.digits)


def _cmd_gamma_reflect(args, out):
    table = series.gamma_reflection_table(args.n_max, make_context(args.digits))
    return _emit(out, args, _rows(table, index="n"), args.digits)


def _checkpoints(points: str) -> list[int]:
    try:
        checkpoints = sorted({int(t) for t in points.split(",") if t.strip()})
    except ValueError:
        raise FlintHillsError(f"--points must be comma-separated integers, got {points!r}") from None
    if not checkpoints:
        raise FlintHillsError("no valid checkpoints in --points")
    return checkpoints


def _cmd_series(args, out):
    ctx = make_context(args.digits)
    family = args.family.replace("-", "_")
    checkpoints = [] if args.points is None else _checkpoints(args.points)
    alpha = contfrac.constant_value(args.alpha, ctx) if family == "alpha_pi" else None
    spec = series.SeriesSpec(family=family, u=args.u, v=args.v, alpha=alpha, flat_base=args.flat_base,
                             variant=args.arg, limit=checkpoints[-1] if checkpoints else args.limit)
    if args.report and not checkpoints:
        diagnostics = series.convergence_report(spec, ctx, measure=args.measure)
        rows = _rows([diagnostics], last_decade_relative_change="relative_change")
        return _emit(out, args, rows, args.digits)
    result = series.partial_sum(spec, ctx, checkpoints)
    if checkpoints:
        rows = [{"x": x, "partial_sum": value} for x, value in result.checkpoints]
        return _emit(out, args, rows, args.digits)
    largest_idx, largest = result.largest_term if result.largest_term else (None, None)
    rows = [
        {
            "family": family,
            "u": args.u,
            "v": args.v,
            "limit": result.x,
            "value": result.value,
            "largest_term_index": largest_idx,
            "largest_term": largest,
            "compensation_residual": result.compensation_residual,
        }
    ]
    return _emit(out, args, rows, args.digits)


def _cmd_stats(args, out):
    pq = _quotients_for(args, args.terms + 1)
    ctx = make_context(30)
    histogram = stats.quotient_histogram(pq, args.terms)
    if args.histogram:
        rows = [
            {
                "value": k if k != -1 else f">{stats.HISTOGRAM_OVERFLOW}",
                "count": v,
                "frequency": ctx.mpf(v) / args.terms,
                "gauss_kuzmin": histogram.gk_expected.get(k),
            }
            for k, v in sorted(histogram.histogram.items(), key=lambda kv: (kv[0] == -1, kv[0]))
        ]
        return _emit(out, args, rows, ctx.decimal_digits)
    gm10 = stats.running_geometric_mean(pq, min(10, args.terms))
    gm20 = stats.running_geometric_mean(pq, min(20, args.terms))
    gmn = stats.running_geometric_mean(pq, args.terms)
    rows = [
        {"statistic": "terms", "value": args.terms},
        {"statistic": "geometric_mean_10", "value": gm10},
        {"statistic": "geometric_mean_20", "value": gm20},
        {"statistic": f"geometric_mean_{args.terms}", "value": gmn},
        {"statistic": "geometric_mean_proper", "value": histogram.geometric_mean},
        {"statistic": "max_term_position", "value": histogram.max_term[0]},
        {"statistic": "max_term_value", "value": histogram.max_term[1]},
        {"statistic": "freq_1_plus_2", "value": histogram.freq_low},
        {"statistic": "gk_1_plus_2", "value": stats.gauss_kuzmin_p(1) + stats.gauss_kuzmin_p(2)},
    ]
    return _emit(out, args, rows, ctx.decimal_digits)


def _cmd_verify(args, out):
    default_name, offset = _FIXTURE_DEFAULTS[args.sequence]
    fixture = _resolve_fixture(args.fixture, default_name)
    # integral Decimals: a mismatch row may hold a convergent past 4300 digits
    pairs = contfrac.decimal_convergents(contfrac.expand_constant("pi", args.terms), args.terms)
    seq = [q if args.sequence == "denominators" else p for p, q in pairs]
    if args.sequence == "lacunary":  # the record indices of A046947 start at n = 1
        seq.insert(0, 1)
    report = contfrac.verify_fixture(seq, fixture, index_offset=offset)
    rows = [
        {
            "fixture": report.fixture_path,
            "compared": report.compared,
            "mismatches": len(report.mismatches),
            "passed": report.passed,
        }
    ]
    rows += [
        {"fixture": f"index {idx}", "compared": expected, "mismatches": got, "passed": False}
        for idx, expected, got in report.mismatches
    ]
    _emit(out, args, rows, 30)
    return 0 if report.passed else 1


_COMMANDS = {
    "expand": _cmd_expand,
    "convergents": _cmd_convergents,
    "measure": _cmd_measure,
    "audit": _cmd_audit,
    "kernel": _cmd_kernel,
    "shift": _cmd_shift,
    "recip-sin": _cmd_recip_sin,
    "gamma-reflect": _cmd_gamma_reflect,
    "series": _cmd_series,
    "stats": _cmd_stats,
    "verify": _cmd_verify,
}


def run(argv, out=None) -> int:
    """Entry point; returns the process exit code instead of raising."""
    out = out if out is not None else sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.digits is not None:
            make_context(args.digits)  # rejects a too-low --digits before any work
        return _COMMANDS[args.command](args, out)
    except FlintHillsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
