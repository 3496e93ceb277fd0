"""Computing the diaphony of a point set by two independent routes.

The kernel route needs only which digits point pairs share and gives the
value directly, as one exact rational.  The spectral route truncates the
defining series to a finite index box and adds the exact analytic tail, so
it returns an interval instead of a point value.  For points the interval
holds up to the float rounding of the boxed sum; for a Halton segment,
passed as a ``HaltonSegment``, the boxed sum is exact and the interval
rigorous.  Here both contain the kernel answer.
"""

from padiaphony import (
    HaltonSegment,
    TruncationBox,
    diaphony_kernel,
    diaphony_spectral,
    halton_stream,
    validate_bases,
    worst_case_error,
)

bases = validate_bases([2, 3])
points = list(halton_stream(64, bases))

report = diaphony_kernel(points, bases, mode="fast")
print(f"Kernel route:   F = {report.f:.12f}   F^2 = {report.f_squared:.3e}")
exact = diaphony_kernel(points, bases, mode="exact")
print(f"Exact rationals: F = {exact.f:.12f}   (oracle, bitwise equal: {exact == report})")

print("\nSpectral enclosures for growing truncation boxes g = (g1, g2):")
print(f"{'box':>8}  {'lower':>12}  {'upper':>12}  {'width':>12}")
for g in range(1, 9):
    enclosed = diaphony_spectral(points, bases, TruncationBox((g, g)))
    lower, upper = enclosed.enclosure
    print(f"{str((g, g)):>8}  {lower:.10f}  {upper:.10f}  {upper - lower:.2e}")

lower, upper = diaphony_spectral(HaltonSegment(64, bases), bases, TruncationBox((8, 8))).enclosure
print(f"{'exact':>8}  {lower:.10f}  {upper:.10f}  {upper - lower:.2e}   (the segment, g = (8, 8))")

print(f"\nEvery interval contains the kernel value {report.f_squared:.10f}.")
print(f"Worst-case integration error of this rule: {worst_case_error(report, bases):.6f}")
