"""Two character systems, one diaphony.

The truncated diaphony aggregate computed with p-adic characters coincides
with the one computed with base-p Walsh functions, for any prime bases, even
though individual Weyl sums differ.  Both systems weight an index by its
digit block, and the weighted sum over a box depends only on how many
leading digits two points share.  The Walsh aggregate below is the Walsh
table weighted index by index.
"""

import itertools
import math
import random

from padiaphony import (
    DigitVector,
    IndexVector,
    Point,
    PrimeBases,
    TruncationBox,
    block_weight_product,
    truncated_spectral_sum,
    weight_mass,
    weyl_sum_table,
)

rng = random.Random(9)
bases = PrimeBases((2, 3))
points = [
    Point(
        tuple(
            DigitVector(p, tuple(rng.randrange(p) for _ in range(5)))
            for p in bases.primes
        )
    )
    for _ in range(24)
]
box = TruncationBox((3, 2))

table_p = weyl_sum_table(points, bases, box, system="padic")
table_w = weyl_sum_table(points, bases, box, system="walsh")

padic = truncated_spectral_sum(points, bases, box)
n = len(points)
walsh = math.fsum(
    float(block_weight_product(IndexVector(idx), bases)) * abs(table_w[idx]) ** 2
    for idx in itertools.product(*map(range, table_w.shape))
    if any(idx)
) / (n * n) / (weight_mass(bases) - 1)
print(f"Truncated aggregate, p-adic characters: {padic:.15f}")
print(f"Truncated aggregate, Walsh functions:   {walsh:.15f}")
print(f"Difference: {abs(padic - walsh):.2e}")

print("\nPer-index sums do NOT coincide; a few |S(k)| side by side:")
print(f"{'k':>8}  {'p-adic':>8}  {'walsh':>8}")
for idx in [(1, 2), (2, 1), (3, 5), (6, 7)]:
    print(f"{str(idx):>8}  {abs(table_p[idx]):8.4f}  {abs(table_w[idx]):8.4f}")
print("\nOnly the weighted block aggregate is the same in both systems.")
