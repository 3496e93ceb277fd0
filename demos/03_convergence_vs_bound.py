"""How fast does the Halton diaphony fall, and how sharp is the bound?

The squared diaphony of an N-point Halton prefix is provably at most
c * (ln N)**s / N**2 + d / N**2.  A prefix sweep counts point pairs per
digit cell once, for the largest N, so the whole table costs about as much
as its last row.  The prefix is built by ``halton_set`` as digit arrays,
one vectorized divmod per digit, with no per-point objects.
"""

import math

from padiaphony import (
    diaphony_kernel_prefixes,
    halton_diaphony_bound,
    halton_set,
    validate_bases,
)

bases = validate_bases([2, 3])
sizes = [2**j for j in range(1, 13)]
points = halton_set(max(sizes), bases)
reports = diaphony_kernel_prefixes(points, bases, sizes)

print(f"Halton bases {bases.primes}:")
print(f"{'N':>5}  {'F':>12}  {'F^2':>12}  {'bound F^2':>12}  {'ratio':>8}  {'N*F/log N':>10}")
for n, rep in zip(sizes, reports):
    bound = halton_diaphony_bound(bases, n)
    ratio = rep.f_squared / bound.bound_f_squared
    scaled = n * rep.f / math.log(n) if n > 1 else float("nan")
    print(
        f"{n:>5}  {rep.f:.6e}  {rep.f_squared:.6e}  "
        f"{bound.bound_f_squared:.6e}  {ratio:8.4f}  {scaled:10.4f}"
    )

print(
    "\nThe ratio stays below 1 (the bound holds) and N*F/log N stays bounded,"
    "\nconsistent with decay of order (log N)^(s/2) / N for s = 2."
)
