"""Exact squared-diaphony references from the library's own kernel oracle.

``kernel_value(x, y)`` depends only on how many leading digits ``x`` and
``y`` share in each coordinate.  The pairs of a point set are therefore
grouped by that agreement tuple and counted exactly in int64 arithmetic;
each group adds its pair count times ``kernel_value`` of one representative
pair, summed in ``Fraction``.  One pass over growing row blocks yields the
reference for every requested prefix length.

``python3 perfbench/refs.py`` rewrites ``halton_refs.json``, the committed
Halton references; ``python3 perfbench/refs.py SEED CACHE_DIR`` computes
and caches the ingested-points references of one seed.  A Halton F^2 depends only on (bases, N), not on the
segment start, so the file is computed once, at start 0, and is checked
against a second start before it is written.
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
HALTON_REFS = os.path.join(HERE, "halton_refs.json")
# Elements per block of pairwise int64 work: bounds memory near 100 MB.
_BLOCK = 1 << 21
# Prefix length at which grouped references are checked against direct_f2.
CHECK_N = 48
# Agreement length recorded for equal coordinates: above any valuation of a
# nonzero int64 difference.  Keys pack one length per dimension in base 65.
_EQUAL = 64


def _valuations(diff: np.ndarray, p: int) -> np.ndarray:
    """Leading digits shared by each pair: the p-adic valuation of the
    difference of their digit-reversed integers, ``_EQUAL`` where they match."""
    v = np.zeros(diff.shape, dtype=np.int64)
    alive = diff != 0
    r = diff
    while alive.any():
        r, m = np.divmod(r, p)
        alive &= m == 0
        v += alive
    v[diff == 0] = _EQUAL
    return v


def _reversed_ints(points, bases) -> list[np.ndarray]:
    from padiaphony import monna_inverse

    cols = []
    for i, p in enumerate(bases.primes):
        ints = [monna_inverse(pt.coords[i]) for pt in points]
        if max(ints) >= 1 << 62:
            raise ValueError(f"base {p} expansions exceed int64; use direct_f2")
        cols.append(np.array(ints, dtype=np.int64))
    return cols


def grouped_f2(points, bases, sizes) -> dict[int, Fraction]:
    """Exact F^2 of every prefix ``points[:n]`` for n in ``sizes``."""
    from padiaphony import kernel_value, weight_mass

    sizes = sorted(set(sizes))
    if not sizes or sizes[0] < 1 or sizes[-1] > len(points):
        raise ValueError(f"prefix sizes {sizes} outside 1..{len(points)}")
    ints = _reversed_ints(points[: sizes[-1]], bases)
    reps: dict[int, tuple[int, int]] = {}
    counts: dict[int, int] = {}
    out = {}
    lo = 0
    for n in sizes:
        step = max(1, _BLOCK // n)
        for r0 in range(lo, n, step):
            r1 = min(r0 + step, n)
            key = np.zeros((r1 - r0, r1), dtype=np.int64)
            scale = 1
            for a, p in zip(ints, bases.primes):
                key += scale * _valuations(a[r0:r1, None] - a[None, :r1], p)
                scale *= _EQUAL + 1
            rows = np.arange(r0, r1)[:, None]
            key[np.arange(r1)[None, :] >= rows] = -1  # keep pairs j < i only
            flat = key.ravel()
            found, first, cnt = np.unique(flat, return_index=True, return_counts=True)
            for k, f, c in zip(found.tolist(), first.tolist(), cnt.tolist()):
                if k < 0:
                    continue
                counts[k] = counts.get(k, 0) + c
                if k not in reps:
                    reps[k] = (r0 + f // r1, f % r1)
        lo = n
        total = sum(
            c * kernel_value(points[i], points[j], bases)
            for k, c in counts.items()
            for i, j in [reps[k]]
        )
        total = 2 * total + n * kernel_value(points[0], points[0], bases)
        sig = weight_mass(bases)
        out[n] = (total / (n * n) - 1) / (sig - 1)
    return out


def direct_f2(points, bases) -> Fraction:
    """Exact F^2 as the plain double sum of ``kernel_value`` over all pairs."""
    from padiaphony import kernel_value, weight_mass

    n = len(points)
    total = sum(kernel_value(x, y, bases) for x in points for y in points)
    return (total / (n * n) - 1) / (weight_mass(bases) - 1)


def frac_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def load_halton_refs() -> dict[str, dict[int, Fraction]]:
    """Committed Halton references, keyed by "p1,p2,..." then by N."""
    with open(HALTON_REFS, encoding="utf-8") as fh:
        raw = json.load(fh)
    return {
        bases: {int(n): Fraction(q) for n, q in rows.items()}
        for bases, rows in raw.items()
    }


def ingested_refs(seed: int, cache_dir: str) -> dict[str, Fraction]:
    """References of the ingested-points workload, cached per seed."""
    from padiaphony import point_from_values, validate_bases
    from workloads import (INGEST_BASES, INGEST_EXACT_N, INGEST_N, LARGE_BASES,
                           ingested_rows)

    path = os.path.join(cache_dir, f"ingested-refs-{seed}-{INGEST_N}-{INGEST_EXACT_N}.json")
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            return {k: Fraction(v) for k, v in json.load(fh).items()}
    rows, large = ingested_rows(seed)
    bases = validate_bases(INGEST_BASES)
    pts = [point_from_values(r, bases) for r in rows]
    grouped = grouped_f2(pts, bases, [CHECK_N, INGEST_EXACT_N, INGEST_N])
    if grouped[CHECK_N] != direct_f2(pts[:CHECK_N], bases):
        raise AssertionError("grouped reference disagrees with the plain double sum")
    lbases = validate_bases(LARGE_BASES)
    refs = {
        "full": grouped[INGEST_N],
        "exact_prefix": grouped[INGEST_EXACT_N],
        "large_base": direct_f2([point_from_values(r, lbases) for r in large], lbases),
    }
    os.makedirs(cache_dir, exist_ok=True)
    with open(path + ".tmp", "w", encoding="utf-8") as fh:
        json.dump({k: frac_str(v) for k, v in refs.items()}, fh)
    os.replace(path + ".tmp", path)
    return refs


def _halton_points(bases, count, start):
    from padiaphony import halton_stream

    return list(halton_stream(count, bases, start))


def build_halton_refs(needed: dict[tuple[int, ...], list[int]]) -> dict:
    from padiaphony import validate_bases

    out = {}
    for primes, sizes in needed.items():
        bases = validate_bases(list(primes))
        pts = _halton_points(bases, max(sizes), 0)
        refs = grouped_f2(pts, bases, sizes + [CHECK_N])
        # Self-checks: the grouped sum equals the plain double sum, and the
        # reference does not depend on where the Halton segment starts.
        shifted = grouped_f2(_halton_points(bases, CHECK_N, 1 << 20), bases, [CHECK_N])
        if not refs[CHECK_N] == shifted[CHECK_N] == direct_f2(pts[:CHECK_N], bases):
            raise AssertionError(f"reference self-check failed for bases {primes}")
        out[",".join(map(str, primes))] = {str(n): frac_str(refs[n]) for n in sizes}
    return out


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    if len(sys.argv) == 3:  # refs.py SEED CACHE_DIR
        ingested_refs(int(sys.argv[1]), sys.argv[2])
        sys.exit(0)
    from workloads import HALTON_REF_SIZES

    refs = build_halton_refs(HALTON_REF_SIZES)
    with open(HALTON_REFS, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {HALTON_REFS}")
