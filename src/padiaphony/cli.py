"""Command-line front end: point generation, diaphony computation, bound
evaluation, truncation sweeps, and Weyl-sum verification, as CSV or JSON.

Exit status: 0 success, 1 property violation, 2 usage error, 3 resource cap.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

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
from .errors import BoxTooLarge, DiaphonyError, SegmentTooLarge
from .halton import halton_set, halton_stream, validate_bases
from .padic import PrimeBases
from .weights import TruncationBox

__all__ = ["RunConfig", "main", "entry"]

_FIRST_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)


@dataclass(frozen=True)
class RunConfig:
    """Validated invocation parameters shared by all subcommands."""

    bases: PrimeBases
    count: int
    method: str
    box: TruncationBox | None
    start: int
    format: str
    output: str | None


class _UsageError(Exception):
    """Bad flags; rendered to stderr with exit status 2."""


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _parse_bases(args) -> PrimeBases:
    if args.bases is not None and args.dim is not None:
        raise _UsageError("--bases and --dim are mutually exclusive")
    if args.bases is not None:
        try:
            raw = [int(tok) for tok in args.bases.split(",") if tok]
        except ValueError:
            raise _UsageError(f"--bases: cannot parse {args.bases!r}") from None
        try:
            return validate_bases(raw)
        except DiaphonyError as exc:
            raise _UsageError(f"--bases: {exc}") from None
    if args.dim is not None:
        if not 1 <= args.dim <= len(_FIRST_PRIMES):
            raise _UsageError(f"--dim must be in 1..{len(_FIRST_PRIMES)}")
        return validate_bases(_FIRST_PRIMES[: args.dim])
    raise _UsageError("one of --bases or --dim is required")


def _parse_box(args, bases: PrimeBases, required: bool) -> TruncationBox | None:
    raw = getattr(args, "g", None)
    if raw is None:
        if required:
            raise _UsageError("--g is required for this invocation")
        return None
    try:
        exps = [int(tok) for tok in raw.split(",") if tok]
    except ValueError:
        raise _UsageError(f"--g: cannot parse {raw!r}") from None
    if len(exps) != bases.dimension:
        raise _UsageError(
            f"--g: got {len(exps)} entries for dimension {bases.dimension}"
        )
    try:
        return TruncationBox(tuple(exps))
    except (DiaphonyError, ValueError) as exc:
        raise _UsageError(f"--g: {exc}") from None


def _build_config(args, *, need_box: bool = False) -> RunConfig:
    bases = _parse_bases(args)
    count = getattr(args, "count", 1)
    if count is not None and count < 1:
        raise _UsageError("--count must be at least 1")
    start = getattr(args, "start", 0) or 0
    if start < 0:
        raise _UsageError("--start must be nonnegative")
    method = getattr(args, "method", "kernel")
    box = _parse_box(args, bases, required=need_box or method == "spectral")
    return RunConfig(
        bases=bases,
        count=count if count is not None else 1,
        method=method,
        box=box,
        start=start,
        format=args.format,
        output=args.out,
    )


def _config_echo(config: RunConfig, command: str) -> dict:
    return {
        "command": command,
        "bases": list(config.bases.primes),
        "count": config.count,
        "method": config.method,
        "box": list(config.box.exponents) if config.box else None,
        "start": config.start,
        "format": config.format,
        "output": config.output,
    }


def _emit(config: RunConfig, command: str, header: list[str], rows: list[dict]) -> None:
    if config.format == "csv":
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(_fmt(row[h]) for h in header))
        text = "\n".join(lines) + "\n"
    else:
        payload = {"config": _config_echo(config, command), "rows": rows}
        text = json.dumps(payload, indent=2) + "\n"
    if config.output:
        try:
            with open(config.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise _UsageError(f"--out: {exc}") from None
    else:
        sys.stdout.write(text)


def _frac_str(value) -> str:
    return f"{value.numerator}/{value.denominator}"


def cmd_halton(config: RunConfig) -> int:
    header = ["n"]
    for i in range(1, config.bases.dimension + 1):
        header += [f"x{i}", f"x{i}_dec"]
    rows = []
    for offset, pt in enumerate(
        halton_stream(config.count, config.bases, config.start)
    ):
        row = {"n": config.start + offset}
        for i, coord in enumerate(pt.coords, start=1):
            v = coord.value()
            row[f"x{i}"] = _frac_str(v)
            row[f"x{i}_dec"] = float(v)
        rows.append(row)
    _emit(config, "halton", header, rows)
    return 0


def cmd_diaphony(config: RunConfig) -> int:
    if config.method == "spectral":
        _check_box(config.box, config.bases)  # before any point is built
        points = halton_set(config.count, config.bases, config.start)
        report = diaphony_spectral(points, config.bases, config.box)
    elif config.box is not None:
        raise _UsageError("--g applies to --method spectral")
    else:
        report = halton_diaphony_prefixes(config.bases, [config.count], config.start)[0]
    row = {
        "N": report.n_points,
        "F": report.f,
        "F2": report.f_squared,
        "e": worst_case_error(report, config.bases),
    }
    header = ["N", "F", "F2", "e"]
    if report.enclosure is not None:
        row["lower"], row["upper"] = report.enclosure
        header += ["lower", "upper"]
    _emit(config, "diaphony", header, [row])
    return 0


def cmd_bound(config: RunConfig) -> int:
    report = halton_diaphony_bound(config.bases, config.count)
    row = {
        "N": config.count,
        "c": report.c,
        "d": report.d,
        "bound_F2": report.bound_f_squared,
        "bound_F": report.bound_f_squared**0.5,
    }
    _emit(config, "bound", ["N", "c", "d", "bound_F2", "bound_F"], [row])
    return 0


def _sweep_sizes(args) -> list[int]:
    lo, hi, step = args.start_n, args.end_n, args.step
    if lo < 1:
        raise _UsageError("--from must be at least 1")
    if hi < lo:
        raise _UsageError("--to must be at least --from")
    if step == "pow2":
        sizes = []
        n = lo
        while n <= hi:
            sizes.append(n)
            n *= 2
        return sizes
    try:
        stride = int(step)
    except ValueError:
        raise _UsageError(f"--step must be 'pow2' or a positive integer, got {step!r}") from None
    if stride < 1:
        raise _UsageError("--step must be a positive integer")
    return list(range(lo, hi + 1, stride))


def cmd_sweep(config: RunConfig, sizes: list[int]) -> int:
    reports = halton_diaphony_prefixes(config.bases, sizes, config.start)
    rows = []
    for n, report in zip(sizes, reports):
        bound = halton_diaphony_bound(config.bases, n)
        rows.append(
            {
                "N": n,
                "F": report.f,
                "F2": report.f_squared,
                "bound_F2": bound.bound_f_squared,
                "ratio": report.f_squared / bound.bound_f_squared,
            }
        )
    _emit(config, "sweep", ["N", "F", "F2", "bound_F2", "ratio"], rows)
    return 0


def cmd_verify_lemma(config: RunConfig) -> int:
    report = verify_weyl_bound(config.count, config.bases, config.box)
    row = {
        "N": config.count,
        "worst_ratio": report.worst_ratio,
        "worst_index": ";".join(str(k) for k in report.worst_index.indices),
        "violations": report.violations,
    }
    _emit(
        config,
        "verify-lemma",
        ["N", "worst_ratio", "worst_index", "violations"],
        [row],
    )
    return 0 if report.violations == 0 else 1


def _add_common(parser: argparse.ArgumentParser, *, count_default=None) -> None:
    parser.add_argument("--bases", help="comma-separated prime bases, e.g. 2,3,5")
    parser.add_argument("--dim", type=int, help="use the first DIM primes as bases")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--out", default=None, help="output path (default: stdout)")
    if count_default is not None:
        parser.add_argument("--count", type=int, default=count_default,
                            help="number of points N")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="padiaphony",
        description="Halton sequences and the diaphony of point sets "
                    "over p-adic function systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("halton", help="emit Halton points exactly")
    _add_common(p, count_default=1)
    p.add_argument("--start", type=int, default=0, help="first index n")

    p = sub.add_parser("diaphony", help="diaphony of a Halton prefix")
    _add_common(p, count_default=1)
    p.add_argument("--start", type=int, default=0, help="first index n")
    p.add_argument("--method", choices=("kernel", "spectral"), default="kernel")
    p.add_argument("--g", help="comma-separated box exponents (spectral method)")

    p = sub.add_parser("bound", help="asymptotic diaphony bound for Halton")
    _add_common(p, count_default=1)

    p = sub.add_parser("sweep", help="diaphony vs bound over a range of N")
    _add_common(p)
    p.add_argument("--start", type=int, default=0, help="first index n")
    p.add_argument("--from", dest="start_n", type=int, required=True)
    p.add_argument("--to", dest="end_n", type=int, required=True)
    p.add_argument("--step", default="1", help="'pow2' or a positive stride")

    p = sub.add_parser("verify-lemma", help="check the Weyl-sum ceiling on a box")
    _add_common(p, count_default=1)
    p.add_argument("--g", required=True, help="comma-separated box exponents")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "sweep":
            sizes = _sweep_sizes(args)
            config = _build_config(args)
            return cmd_sweep(config, sizes)
        config = _build_config(args, need_box=(args.command == "verify-lemma"))
        if args.command == "halton":
            return cmd_halton(config)
        if args.command == "diaphony":
            return cmd_diaphony(config)
        if args.command == "bound":
            return cmd_bound(config)
        if args.command == "verify-lemma":
            return cmd_verify_lemma(config)
        raise _UsageError(f"unknown command {args.command!r}")
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (BoxTooLarge, SegmentTooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except DiaphonyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())
