"""Acceptance gate: every shipped guarantee, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line
per criterion.
"""

import cmath
import itertools
import math
import random
from contextlib import contextmanager
from fractions import Fraction

from padiaphony import (
    RATIO_TOLERANCE,
    DigitVector,
    IndexVector,
    Point,
    PrimeBases,
    TruncationBox,
    block_weight_product,
    diaphony_kernel,
    diaphony_kernel_prefixes,
    diaphony_spectral,
    enclosure_grid,
    halton_diaphony_bound,
    halton_diaphony_prefixes,
    halton_point,
    halton_stream,
    monna,
    monna_inverse,
    padic_phase,
    phase_to_complex,
    point_from_values,
    spectral_tail,
    truncated_spectral_sum,
    validate_bases,
    verify_weyl_bound,
    weight_mass,
    weyl_sum_table,
)


@contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} FAIL  {description}")
        raise
    print(f"ACCEPTANCE {num} PASS  {description}")


def rand_digit_vector(rng, p, max_len=6):
    return DigitVector(p, tuple(rng.randrange(p) for _ in range(rng.randrange(max_len + 1))))


def test_criterion_1_single_point_normalization():
    with criterion(1, "single-point diaphony is 1 (any bases, any point)"):
        rng = random.Random(101)
        cases = []
        for raw in ([2], [7], [2, 3], [2, 3, 5]):
            bases = validate_bases(raw)
            cases.append((bases, halton_point(0, bases)))
            cases.append((bases, halton_point(17, bases)))
            cases.append(
                (bases, point_from_values([rng.random() for _ in raw], bases))
            )
        for bases, pt in cases:
            for mode in ("fast", "exact"):
                rep = diaphony_kernel([pt], bases, mode)
                assert abs(rep.f - 1.0) < 1e-12


def test_criterion_2_two_point_hand_case():
    with criterion(2, "N=2 prefix in base 2: F = 0.5 and spectral bracket"):
        b2 = validate_bases([2])
        pts = list(halton_stream(2, b2))
        rep = diaphony_kernel(pts, b2, "fast")
        assert abs(rep.f - 0.5) < 1e-12
        lower, upper = diaphony_spectral(pts, b2, TruncationBox((3,))).enclosure
        assert abs(lower - 0.1875) < 1e-12
        assert abs(upper - 0.3125) < 1e-12
        assert lower <= 0.25 <= upper


def test_criterion_3_kernel_spectral_sandwich():
    with criterion(3, "spectral enclosures sandwich the kernel value, exact slack"):
        for raw in ([2], [3], [2, 3]):
            bases = validate_bases(raw)
            s = len(raw)
            full_box = TruncationBox((8,) * s)
            pts = list(halton_stream(64, bases))
            kernel_reports = diaphony_kernel_prefixes(pts, bases, list(range(1, 65)))
            for n, rep in zip(range(1, 65), kernel_reports):
                grid = enclosure_grid(pts[:n], bases, full_box)
                assert len(grid) == 8**s
                for exps, (lower, upper) in grid.items():
                    assert lower <= rep.f_squared + 1e-10
                    assert rep.f_squared <= upper + 1e-10
                    slack = float(spectral_tail(bases, TruncationBox(exps)))
                    assert abs((upper - lower) - slack) < 1e-10
            # the grid agrees with individual spectral calls
            for n in (1, 17, 64):
                grid = enclosure_grid(pts[:n], bases, full_box)
                for exps in ((1,) * s, (3,) * s, (8,) * s):
                    rep = diaphony_spectral(pts[:n], bases, TruncationBox(exps))
                    assert abs(grid[exps][0] - rep.enclosure[0]) < 1e-10
                    assert abs(grid[exps][1] - rep.enclosure[1]) < 1e-10
            # enclosure width shrinks strictly in every box coordinate
            for exps in ((1,) * s, (2,) * s, (5,) * s, (7,) * s):
                width = spectral_tail(bases, TruncationBox(exps))
                for i in range(s):
                    grown = list(exps)
                    grown[i] += 1
                    assert spectral_tail(bases, TruncationBox(tuple(grown))) < width


def test_criterion_4_halton_bound_sweep():
    with criterion(4, "squared diaphony never exceeds the Halton bound"):
        rng = random.Random(42)
        for raw in ([2], [2, 3], [2, 3, 5]):
            bases = validate_bases(raw)
            sizes = sorted(
                set([2**j for j in range(13)])
                | {rng.randrange(1, 4097) for _ in range(100)}
            )
            pts = list(halton_stream(max(sizes), bases))
            reports = diaphony_kernel_prefixes(pts, bases, sizes)
            violations = 0
            worst_ratio = 0.0
            for n, rep in zip(sizes, reports):
                bound = halton_diaphony_bound(bases, n).bound_f_squared
                ratio = rep.f_squared / bound
                worst_ratio = max(worst_ratio, ratio)
                if rep.f_squared > bound:
                    violations += 1
            assert violations == 0
            assert worst_ratio <= 1.0  # ratio column stays bounded


def test_criterion_10_bound_sharpness_at_the_index_space():
    with criterion(10, "Halton squared diaphony below the bound at every 2**j up to 2**62"):
        # F^2 / bound at N = 2**62 stays below these, in s = 1..4 dimensions
        ceilings = {(2,): 2e-3, (2, 3): 5e-3, (2, 3, 5): 1e-3, (2, 3, 5, 7): 1e-4}
        sizes = [2**j for j in range(63)]
        for raw, ceiling in ceilings.items():
            bases = validate_bases(raw)
            reports = halton_diaphony_prefixes(bases, sizes)
            bounds = [halton_diaphony_bound(bases, n).bound_f_squared for n in sizes]
            for rep, bound in zip(reports, bounds):
                assert rep.f_squared <= bound
            assert reports[-1].f_squared / bounds[-1] < ceiling


def test_criterion_5_weyl_ceiling_exhaustive():
    with criterion(5, "Weyl sums stay below their ceiling on full boxes"):
        # |S_N(k)| = |sin(pi N theta) / sin(pi theta)| <= 1 / (2 ||theta||),
        # so the ratio to the ceiling 1 / ||theta|| never passes 1/2
        # and at the end of the 64-bit index space
        ends = [2**62 - 1, 2**62, 2**62 + 1, 2**63 - 1]
        b2 = validate_bases([2])
        for n in [*range(1, 257), *ends]:
            rep = verify_weyl_bound(n, b2, TruncationBox((8,)))
            assert rep.violations == 0
            assert rep.worst_ratio <= 0.5 + RATIO_TOLERANCE
        b23 = validate_bases([2, 3])
        for n in [*range(1, 129), *ends]:
            rep = verify_weyl_bound(n, b23, TruncationBox((4, 3)))
            assert rep.violations == 0
            assert rep.worst_ratio <= 0.5 + RATIO_TOLERANCE


def test_criterion_6_character_block_sums():
    with criterion(6, "character block sums match the closed form"):
        rng = random.Random(202)
        pairs_per_base = 100
        for p in (2, 3):
            for _ in range(pairs_per_base):
                x = rand_digit_vector(rng, p)
                y = rand_digit_vector(rng, p)
                for a in range(4):
                    for l in range(p):
                        total = 0j
                        for k in range(l * p**a, (l + 1) * p**a):
                            total += (
                                phase_to_complex(padic_phase(k, x))
                                * phase_to_complex(-padic_phase(k, y))
                            )
                        if all(x.digit(j) == y.digit(j) for j in range(1, a + 1)):
                            expected = (
                                cmath.exp(
                                    2j * math.pi * l * (x.digit(a + 1) - y.digit(a + 1)) / p
                                )
                                * p**a
                            )
                        else:
                            expected = 0j
                        assert abs(total - expected) < 1e-12


def walsh_truncated_sum(pts, bases, box):
    """The boxed sum with Walsh functions: the Walsh table weighted index by
    index with ``block_weight_product``."""
    table = weyl_sum_table(pts, bases, box, system="walsh")
    n = len(pts)
    total = math.fsum(
        float(block_weight_product(IndexVector(idx), bases)) * abs(table[idx]) ** 2
        for idx in itertools.product(*map(range, table.shape))
        if any(idx)
    )
    return total / (n * n) / (weight_mass(bases) - 1)


def test_criterion_7_walsh_coincidence():
    with criterion(7, "truncated diaphony agrees between character systems"):
        rng = random.Random(303)
        configs = [
            (PrimeBases((2, 2)), [TruncationBox((3, 2)), TruncationBox((2, 3))]),
            (PrimeBases((3,)), [TruncationBox((4,)), TruncationBox((2,))]),
            (PrimeBases((2, 3)), [TruncationBox((3, 2)), TruncationBox((1, 3))]),
            (PrimeBases((2, 3, 5)), [TruncationBox((2, 2, 1)), TruncationBox((1, 1, 2))]),
        ]
        for bases, boxes in configs:
            for n in (1, 2, 5, 16, 32):
                pts = [
                    Point(tuple(rand_digit_vector(rng, p) for p in bases.primes))
                    for _ in range(n)
                ]
                for box in boxes:
                    a = truncated_spectral_sum(pts, bases, box)
                    w = walsh_truncated_sum(pts, bases, box)
                    assert abs(a - w) < 1e-10


def test_criterion_8_exact_oracle_agreement():
    with criterion(8, "fast kernel path equals the exact-rational oracle"):
        b23 = validate_bases([2, 3])
        pts = list(halton_stream(256, b23))
        for n in (1, 2, 3, 4, 7, 8, 13, 16, 27, 32, 64, 100, 128, 256):
            fast = diaphony_kernel(pts[:n], b23, "fast")
            exact = diaphony_kernel(pts[:n], b23, "exact")
            assert fast == exact
        rng = random.Random(404)
        for _ in range(3):
            cloud = [
                Point((rand_digit_vector(rng, 2), rand_digit_vector(rng, 3)))
                for _ in range(40)
            ]
            fast = diaphony_kernel(cloud, b23, "fast")
            exact = diaphony_kernel(cloud, b23, "exact")
            assert fast == exact


def test_criterion_9_roundtrip_and_marginals():
    with criterion(9, "digit-reversal roundtrip and uniform one-dimensional grids"):
        for p in (2, 3, 5, 7):
            for n in range(10**6):
                if monna_inverse(monna(n, p)) != n:
                    raise AssertionError(f"roundtrip failed at n={n}, p={p}")
        for p in (2, 3):
            bases = validate_bases([p])
            for m in range(1, 7):
                n = p**m
                values = {pt.values()[0] for pt in halton_stream(n, bases)}
                assert values == {Fraction(j, n) for j in range(n)}
