"""Workload definitions: inputs drawn from the seed, jobs, and output checks.

Every input comes from ``--seed``; the library sees only the generated
values.  Halton segment starts are drawn from [2**20, 2**21 - N], so every
segment has 21 base-2 digits and the work of a pass does not depend on the
seed.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

# Relative tolerance of a kernel-route F^2 against its exact reference.
F2_RTOL = Fraction(1, 10**9)

SWEEP_N = 4096
KERNEL_N = 2048
SPECTRAL_N = 8192
SPECTRAL3_N = 2048
VERIFY_N = 256
INGEST_N = 2048
INGEST_EXACT_N = 192
LARGE_BASE_N = 64
INGEST_BASES = (2, 3, 5)
LARGE_BASES = (2, 65537)
SPECTRAL3_BOX = (6, 4, 3)
WALSH_BOX = (8, 5)

# (bases, N) pairs whose exact Halton F^2 is committed in halton_refs.json.
HALTON_REF_SIZES = {
    (2, 3): [2**k for k in range(SPECTRAL_N.bit_length())],
    (2, 3, 5): [SPECTRAL3_N],
    (2, 3, 5, 7): [KERNEL_N],
}

WORKLOADS = ("halton-kernel", "spectral-box", "ingested-points")
# Workloads whose passes end with one child making library calls (libjobs.py).
LIBRARY_WORKLOADS = ("spectral-box", "ingested-points")


def halton_starts(seed: int) -> dict[str, int]:
    """One segment start per Halton job, each in [2**20, 2**21 - N]."""
    rng = np.random.default_rng([seed, 0])
    sizes = {"sweep": SWEEP_N, "kernel": KERNEL_N,
             "spectral": SPECTRAL_N, "spectral3": SPECTRAL3_N}
    return {job: int(rng.integers(2**20, 2**21 - n + 1)) for job, n in sizes.items()}


def ingested_rows(seed: int) -> tuple[list[list[float]], list[list[float]]]:
    """Uniform floats in [0, 1)^3 with one row in eight copying an earlier
    row, and the rows of the large-base job in [0, 1)^2."""
    rng = np.random.default_rng([seed, 1])
    rows = rng.random((INGEST_N, len(INGEST_BASES)))
    for i in sorted(rng.choice(np.arange(1, INGEST_N), INGEST_N // 8, replace=False)):
        rows[i] = rows[rng.integers(0, i)]
    large = rng.random((LARGE_BASE_N, len(LARGE_BASES)))
    return rows.tolist(), large.tolist()


def rel_err(printed: str, ref: Fraction) -> float:
    """Exact relative error of a printed decimal against a rational."""
    return float(abs(Fraction(printed) - ref) / ref)


@dataclass
class Outcome:
    """What the checks of one operation found."""

    problems: list[str] = field(default_factory=list)
    kernel_errs: list[float] = field(default_factory=list)
    known: bool = False  # the operation hit a known, recorded defect

    def kernel_f2(self, what: str, printed: str, ref: Fraction) -> None:
        err = rel_err(printed, ref)
        self.kernel_errs.append(err)
        if err > F2_RTOL:
            self.problems.append(f"{what}: F2 {printed} off reference by {err:.3g}")

    def enclosed(self, what: str, lower: str, upper: str, ref: Fraction) -> None:
        if not Fraction(lower) <= ref <= Fraction(upper):
            self.problems.append(f"{what}: reference {float(ref):.17g} outside [{lower}, {upper}]")

    def require(self, cond: bool, what: str) -> None:
        if not cond:
            self.problems.append(what)


@dataclass
class CliJob:
    """One ``python -m padiaphony`` invocation and the check of its stdout."""

    name: str
    argv: list[str]
    check: object  # (rows: list[dict[str, str]], outcome: Outcome) -> None


def _csv_rows(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def check_cli(job: CliJob, code: int, stdout: bytes) -> Outcome:
    out = Outcome()
    if code != 0:
        out.problems.append(f"{job.name}: exit status {code}")
        return out
    try:
        rows = _csv_rows(stdout.decode())
        job.check(rows, out)
    except (ValueError, KeyError, ZeroDivisionError) as exc:
        out.problems.append(f"{job.name}: unreadable output ({exc!r})")
    return out


def cli_jobs(workload: str, seed: int, refs: dict[str, dict[int, Fraction]]) -> list[CliJob]:
    s = halton_starts(seed)
    r2, r3, r4 = refs["2,3"], refs["2,3,5"], refs["2,3,5,7"]
    if workload == "halton-kernel":
        def sweep(rows, out):
            sizes = [2**k for k in range(SWEEP_N.bit_length())]
            out.require([int(r["N"]) for r in rows] == sizes, "sweep: wrong rows")
            for r in rows:
                n = int(r["N"])
                out.kernel_f2(f"sweep N={n}", r["F2"], r2[n])
                out.require(r2[n] <= Fraction(r["bound_F2"]), f"sweep N={n}: F2 above bound")

        def kernel(rows, out):
            out.kernel_f2("diaphony dim 4", rows[0]["F2"], r4[KERNEL_N])

        def bound(rows, out):
            out.require(r4[KERNEL_N] <= Fraction(rows[0]["bound_F2"]), "bound: F2 above bound")

        return [
            CliJob("sweep", ["sweep", "--bases", "2,3", "--from", "1", "--to", str(SWEEP_N),
                             "--step", "pow2", "--start", str(s["sweep"])], sweep),
            CliJob("diaphony", ["diaphony", "--dim", "4", "--count", str(KERNEL_N),
                                "--start", str(s["kernel"])], kernel),
            CliJob("bound", ["bound", "--dim", "4", "--count", str(KERNEL_N)], bound),
        ]
    if workload == "spectral-box":
        def spectral(ref):
            def check(rows, out):
                r = rows[0]
                out.enclosed("spectral", r["lower"], r["upper"], ref)
                out.require(Fraction(r["lower"]) <= Fraction(r["F2"]) <= Fraction(r["upper"]),
                            "spectral: F2 outside its own enclosure")
            return check

        def verify(rows, out):
            out.require(rows[0]["violations"] == "0", f"verify-lemma: {rows[0]['violations']} violations")

        return [
            CliJob("spectral", ["diaphony", "--bases", "2,3", "--count", str(SPECTRAL_N),
                                "--method", "spectral", "--g", "10,6",
                                "--start", str(s["spectral"])], spectral(r2[SPECTRAL_N])),
            CliJob("spectral3", ["diaphony", "--dim", "3", "--count", str(SPECTRAL3_N),
                                 "--method", "spectral", "--g", ",".join(map(str, SPECTRAL3_BOX)),
                                 "--start", str(s["spectral3"])], spectral(r3[SPECTRAL3_N])),
            CliJob("verify-lemma", ["verify-lemma", "--bases", "2,3", "--count", str(VERIFY_N),
                                    "--g", "8,5"], verify),
        ]
    return []

