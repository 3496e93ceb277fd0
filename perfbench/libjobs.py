"""The library-call jobs of one benchmark pass, run in a fresh child.

    python3 perfbench/libjobs.py WORKLOAD SEED CACHE_DIR [SPANS.json]

Prints one JSON object on stdout: {"ops": [{"name", "ok", "known",
"problems", "kernel_errs"}, ...]}.  An operation that raises, or whose
output fails a check, is reported and never stops the pass.  With a spans
path the calls are traced (see tracing.py).
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

import numpy as np

from refs import frac_str, ingested_refs, load_halton_refs
from workloads import (INGEST_BASES, INGEST_EXACT_N, LARGE_BASES, SPECTRAL3_BOX,
                       SPECTRAL3_N, SPECTRAL_N, WALSH_BOX, Outcome, halton_starts,
                       ingested_rows)

import padiaphony as pd


def _exact(x: float) -> str:
    return frac_str(Fraction(x))


def _ingest(rows, bases, out: Outcome):
    points = [pd.point_from_values(r, bases) for r in rows]
    # each coordinate is the base-p truncation of its float
    for row, pt in zip(rows, points):
        for x, c, p in zip(row, pt.coords, bases.primes):
            gap = Fraction(x) - c.value()
            if not 0 <= gap < Fraction(1, p ** pd.default_depth(p)):
                out.problems.append(f"ingest: {x!r} truncated wrongly in base {p}")
                return points
    out.require(len(set(points)) == len({tuple(r) for r in rows}),
                "ingest: duplicate rows do not map to equal points")
    return points


def ingested_points(seed: int, cache_dir: str):
    rows, large = ingested_rows(seed)
    refs = ingested_refs(seed, cache_dir)
    bases = pd.validate_bases(INGEST_BASES)
    state = {}

    def ingest(out):
        state["points"] = _ingest(rows, bases, out)

    def kernel(out):
        report = pd.diaphony_kernel(state["points"], bases)
        out.kernel_f2("kernel fast", _exact(report.f_squared), refs["full"])

    def spectral(out):
        report = pd.diaphony_spectral(state["points"], bases, pd.TruncationBox(SPECTRAL3_BOX))
        out.enclosed("spectral", *map(_exact, report.enclosure), refs["full"])

    def exact(out):
        report = pd.diaphony_kernel(state["points"][:INGEST_EXACT_N], bases, mode="exact")
        out.kernel_f2("kernel exact", _exact(report.f_squared), refs["exact_prefix"])

    def large_base(out):
        lbases = pd.validate_bases(LARGE_BASES)
        points = [pd.point_from_values(r, lbases) for r in large]
        try:
            report = pd.diaphony_kernel(points, lbases)
        except OverflowError:
            # The fast kernel stores digits as int16, so digits of base 65537
            # overflow.  Recorded as a known defect, not as a failure.
            out.known = True
            return
        out.kernel_f2("large base", _exact(report.f_squared), refs["large_base"])

    return [("ingest", ingest), ("kernel-fast", kernel), ("spectral", spectral),
            ("kernel-exact", exact), ("large-base", large_base)]


def spectral_box(seed: int, cache_dir: str):
    refs = load_halton_refs()
    starts = halton_starts(seed)

    def grid(out):
        bases = pd.validate_bases([2, 3, 5])
        points = list(pd.halton_stream(SPECTRAL3_N, bases, starts["spectral3"]))
        enclosures = pd.enclosure_grid(points, bases, pd.TruncationBox(SPECTRAL3_BOX))
        ref = refs["2,3,5"][SPECTRAL3_N]
        out.require(len(enclosures) == np.prod(SPECTRAL3_BOX), "grid: wrong sub-box count")
        for exps, (lower, upper) in enclosures.items():
            out.enclosed(f"grid {exps}", _exact(lower), _exact(upper), ref)

    def walsh(out):
        bases = pd.validate_bases([2, 3])
        points = list(pd.halton_stream(SPECTRAL_N, bases, starts["spectral"]))
        table = pd.weyl_sum_table(points, bases, pd.TruncationBox(WALSH_BOX), system="walsh")
        # Parseval over the full character group of each digit box:
        # sum_k |S(k)|^2 = (cells) * (sum over cells of count^2).
        cells = {}
        for pt in points:
            key = tuple(pd.monna_inverse(c) % c.base**g for c, g in zip(pt.coords, WALSH_BOX))
            cells[key] = cells.get(key, 0) + 1
        expect = table.size * sum(c * c for c in cells.values())
        got = float(np.sum(np.abs(table) ** 2))
        out.require(abs(table.flat[0] - SPECTRAL_N) < 1e-6, "walsh: origin entry is not N")
        out.require(abs(got - expect) <= 1e-9 * expect, f"walsh: Parseval {got} != {expect}")

    return [("enclosure-grid", grid), ("walsh-table", walsh)]


JOBS = {"ingested-points": ingested_points, "spectral-box": spectral_box}


def main() -> int:
    workload, seed, cache_dir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    spans = sys.argv[4] if len(sys.argv) > 4 else None
    tracer = None
    if spans:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    ops = []
    for name, job in JOBS[workload](seed, cache_dir):
        out = Outcome()
        try:
            job(out)
        except Exception as exc:  # a failed operation must not stop the pass
            out.problems.append(f"{name}: raised {exc!r}")
        ops.append({"name": name, "ok": not out.problems and not out.known,
                    "known": out.known, "problems": out.problems,
                    "kernel_errs": out.kernel_errs})
    if tracer:
        tracer.dump(spans)
    print(json.dumps({"ops": ops}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
