"""Command-line front end: point generation, diaphony computation, bound
evaluation, truncation sweeps, and Weyl-sum verification, as CSV or JSON.
Both formats are written one row at a time, so memory does not grow with
the row count and no command caps its rows.

Exit status: 0 success, 1 property violation, 2 usage error, 3 resource cap
(the library's ``BoxTooLarge``).  No command builds a Halton point set:
the kernel diaphony and sweeps use the closed form, and the spectral
diaphony sums a ``HaltonSegment`` exactly, so any segment in the 64-bit
index space runs.  ``verify-lemma`` evaluates each Weyl sum in closed
form, so no command loads numpy.
The console script ends at once, by SIGPIPE, when the reader of its output
goes away (a shell reports 141, as for any program so ended).
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Iterable

from .diaphony import (
    _check_box,
    diaphony_spectral,
    halton_diaphony_bound,
    halton_diaphony_prefixes,
    verify_weyl_bound,
    worst_case_error,
)
from .diaphony import diaphony_kernel  # noqa: F401  (perfbench/tracing.py wraps it here)
from .diaphony import diaphony_kernel_prefixes  # noqa: F401  (perfbench/tracing.py wraps it here)
from .errors import BoxTooLarge, DiaphonyError, DimensionMismatch
from .halton import HaltonSegment, _check_segment, halton_stream, validate_bases
from .padic import PrimeBases
from .weights import TruncationBox

__all__ = ["main", "entry"]

_FIRST_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)

# A sweep holds one chunk of _SWEEP_CHUNK reports at a time, so its memory
# does not grow with the row count.
_SWEEP_CHUNK = 4096


class _UsageError(DiaphonyError):
    """Bad flags; rendered to stderr with exit status 2."""


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _parse_list(flag: str, raw: str, make):
    """``make`` applied to the ints of the comma list ``raw``; a list that
    does not parse, or that ``make`` rejects, is a usage error of ``flag``."""
    try:
        ints = [int(tok) for tok in raw.split(",") if tok]
    except ValueError:
        raise _UsageError(f"{flag}: cannot parse {raw!r}") from None
    try:
        return make(ints)
    except DiaphonyError as exc:
        raise _UsageError(f"{flag}: {exc}") from None


def _parse_bases(args) -> PrimeBases:
    if args.bases is not None and args.dim is not None:
        raise _UsageError("--bases and --dim are mutually exclusive")
    if args.bases is not None:
        return _parse_list("--bases", args.bases, validate_bases)
    if args.dim is not None:
        if not 1 <= args.dim <= len(_FIRST_PRIMES):
            raise _UsageError(f"--dim must be in 1..{len(_FIRST_PRIMES)}")
        return validate_bases(_FIRST_PRIMES[: args.dim])
    raise _UsageError("one of --bases or --dim is required")


def _parse_box(args) -> TruncationBox | None:
    raw = getattr(args, "g", None)
    if raw is None:
        if getattr(args, "method", None) == "spectral":
            raise _UsageError("--g is required for this invocation")
        return None

    def box(exps):
        if len(exps) != args.bases.dimension:
            raise DimensionMismatch(f"got {len(exps)} entries for dimension {args.bases.dimension}")
        return TruncationBox(tuple(exps))

    return _parse_list("--g", raw, box)


def _emit(args, rows: Iterable[dict], **flags) -> None:
    """Write the rows as CSV, or as JSON after a ``config`` echo of the
    command, its bases, its own ``flags``, the format and the output."""
    if not args.out:
        _write_rows(sys.stdout, args, rows, flags)
        return
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            _write_rows(fh, args, rows, flags)
    except OSError as exc:
        raise _UsageError(f"--out: {exc}") from None


def _write_rows(out, args, rows: Iterable[dict], flags: dict) -> None:
    """Write the rows to ``out`` one at a time, so neither the rows nor the
    text are ever held whole.  The CSV header is the first row's keys; the
    JSON text is the one ``json.dump(..., indent=2)`` gives."""
    if args.format == "csv":
        for i, row in enumerate(rows):
            if not i:
                out.write(",".join(row) + "\n")
            out.write(",".join([_fmt(v) for v in row.values()]) + "\n")
        return
    import json  # only here: a CSV run never loads it

    config = {
        "command": args.command,
        "bases": list(args.bases.primes),
        **flags,
        "format": args.format,
        "output": args.out,
    }
    # the rows array is the last value, so its "" sentinel is the last ""
    head, _, tail = json.dumps({"config": config, "rows": [""]}, indent=2).rpartition('""')
    for i, row in enumerate(rows):
        out.write((",\n    " if i else head) + json.dumps(row, indent=2).replace("\n", "\n    "))
    out.write(tail + "\n")


def _frac_str(value) -> str:
    return f"{value.numerator}/{value.denominator}"


def cmd_halton(args) -> int:
    points = halton_stream(args.count, args.bases, args.start)  # checked before any row

    def rows():
        for offset, pt in enumerate(points):
            row = {"n": args.start + offset}
            for i, coord in enumerate(pt.coords, start=1):
                v = coord.value()
                row[f"x{i}"] = _frac_str(v)
                row[f"x{i}_dec"] = float(v)
            yield row

    _emit(args, rows(), count=args.count, start=args.start)
    return 0


def cmd_diaphony(args) -> int:
    if args.method == "spectral":
        _check_box(args.box, args.bases)  # before the segment is checked
        segment = HaltonSegment(args.count, args.bases, args.start)
        report = diaphony_spectral(segment, args.bases, args.box)
    elif args.box is not None:
        raise _UsageError("--g applies to --method spectral")
    else:
        report = halton_diaphony_prefixes(args.bases, [args.count], args.start)[0]
    row = {
        "N": report.n_points,
        "F": report.f,
        "F2": report.f_squared,
        "e": worst_case_error(report, args.bases),
    }
    if report.enclosure is not None:
        row["lower"], row["upper"] = report.enclosure
    _emit(args, [row], count=args.count, method=args.method,
          box=args.box and list(args.box.exponents), start=args.start)
    return 0


def cmd_bound(args) -> int:
    report = halton_diaphony_bound(args.bases, args.count)
    row = {
        "N": args.count,
        "c": report.c,
        "d": report.d,
        "bound_F2": report.bound_f_squared,
        "bound_F": report.bound_f_squared**0.5,
    }
    _emit(args, [row], count=args.count)
    return 0


def cmd_sweep(args) -> int:
    lo, hi, step = args.start_n, args.end_n, args.step
    if lo < 1:
        raise _UsageError("--from must be at least 1")
    if hi < lo:
        raise _UsageError("--to must be at least --from")
    if step == "pow2":
        sizes = [lo << k for k in range((hi // lo).bit_length())]
    else:
        try:
            stride = int(step)
        except ValueError:
            raise _UsageError(
                f"--step must be 'pow2' or a positive integer, got {step!r}"
            ) from None
        if stride < 1:
            raise _UsageError("--step must be a positive integer")
        sizes = range(lo, hi + 1, stride)
    _check_segment(sizes[-1], args.start)  # the whole segment, before the first byte

    def rows():  # no len(sizes): it overflows past sys.maxsize rows
        i = 0
        while chunk := sizes[i : i + _SWEEP_CHUNK]:
            i += _SWEEP_CHUNK
            for n, report in zip(chunk, halton_diaphony_prefixes(args.bases, chunk, args.start)):
                bound = halton_diaphony_bound(args.bases, n).bound_f_squared
                yield {
                    "N": n,
                    "F": report.f,
                    "F2": report.f_squared,
                    "bound_F2": bound,
                    "ratio": report.f_squared / bound,
                }

    _emit(args, rows(), **{"from": lo, "to": hi, "step": step, "start": args.start})
    return 0


def cmd_verify_lemma(args) -> int:
    report = verify_weyl_bound(args.count, args.bases, args.box)
    row = {
        "N": args.count,
        "worst_ratio": report.worst_ratio,
        "worst_index": ";".join(str(k) for k in report.worst_index.indices),
        "violations": report.violations,
    }
    _emit(args, [row], count=args.count, box=list(args.box.exponents))
    return 0 if report.violations == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="padiaphony",
        description="Halton sequences and the diaphony of point sets "
                    "over p-adic function systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, help, count=True, start=True):
        p = sub.add_parser(name, help=help)
        p.add_argument("--bases", help="comma-separated prime bases, e.g. 2,3,5")
        p.add_argument("--dim", type=int, help="use the first DIM primes as bases")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        if count:
            p.add_argument("--count", type=int, default=1, help="number of points N")
        if start:
            p.add_argument("--start", type=int, default=0, help="first index n")
        p.set_defaults(run=run)
        return p

    command("halton", cmd_halton, "emit Halton points exactly")
    p = command("diaphony", cmd_diaphony, "diaphony of a Halton prefix")
    p.add_argument("--method", choices=("kernel", "spectral"), default="kernel")
    p.add_argument("--g", help="comma-separated box exponents (spectral method)")
    command("bound", cmd_bound, "asymptotic diaphony bound for Halton", start=False)
    p = command("sweep", cmd_sweep, "diaphony vs bound over a range of N", count=False)
    p.add_argument("--from", dest="start_n", type=int, required=True)
    p.add_argument("--to", dest="end_n", type=int, required=True)
    p.add_argument("--step", default="1", help="'pow2' or a positive stride")
    p = command("verify-lemma", cmd_verify_lemma, "check the Weyl-sum ceiling on a box",
                start=False)
    p.add_argument("--g", required=True, help="comma-separated box exponents")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        args.bases = _parse_bases(args)
        if getattr(args, "count", 1) < 1:
            raise _UsageError("--count must be at least 1")
        if getattr(args, "start", 0) < 0:
            raise _UsageError("--start must be nonnegative")
        args.box = _parse_box(args)
        return args.run(args)
    except DiaphonyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, BoxTooLarge) else 2


def entry() -> None:
    """The console script: ``main``'s status, except that a closed output
    pipe ends the process by the default SIGPIPE action, with no traceback."""
    import signal

    if hasattr(signal, "SIGPIPE"):  # POSIX only
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())
