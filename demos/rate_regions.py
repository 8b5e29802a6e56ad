#!/usr/bin/env python3
"""Tour of the admissible rate machinery: print a region, test points
against it, enumerate its corners, work with symbolic entropies, and
see the weighted rows of a combined region with three sources.

Run: python3 demos/rate_regions.py
"""

from fractions import Fraction

from smdc.region import (LinExpr, corner_points, min_sum_rate, region,
                         smdc_min_sum_rate, superposition_corner_points,
                         superposition_region, vertices_brute_force,
                         violated_subsets)

passed = 0
failed = 0


def check(name, condition, detail=""):
    global passed, failed
    if condition:
        print(f"  ✅ {name}")
        passed += 1
    else:
        print(f"  ❌ {name}: {detail}")
        failed += 1


F = Fraction

print("=" * 64)
print("STAGE 1: one threshold code, 4 encoders, any 2 reconstruct")
print("=" * 64)

r42 = region(4, 2, 1).canonical()
print("\nadmissible rates (H = 1):")
print(r42.render())

check("symmetric point (1/2, 1/2, 1/2, 1/2) admissible",
      r42.contains([F(1, 2)] * 4))
check("minimum sum rate is (4/2) * 1 = 2", min_sum_rate(4, 2, 1) == 2)

bad = [F(1, 2), F(1, 4), F(1, 2), F(1, 2)]
viol = violated_subsets(r42, bad)
print(f"\npoint ({', '.join(str(v) for v in bad)}) violates encoder pairs {viol}")
check("too-small rate pins the violating pairs",
      set(viol) == {(1, 2), (2, 3), (2, 4)}, f"{viol}")

print()
print("=" * 64)
print("STAGE 2: corners agree with brute-force vertex enumeration")
print("=" * 64)
corners = corner_points(4, 2, 1)
print(f"\n{len(corners)} extreme points of the (L=4, k=2, H=1) region:")
for c in corners:
    print(f"  ({', '.join(str(v) for v in c)})")
check("recursive corner list matches vertex enumeration",
      set(corners) == set(vertices_brute_force(r42)))
check("every corner sits inside the region",
      all(r42.contains(c) for c in corners))

print()
print("=" * 64)
print("STAGE 3: layered scheme, 3 encoders, 1 tapped, symbolic entropies")
print("=" * 64)

layered = superposition_region(3, 1)
print("\ntotal-rate region after projecting out the per-layer split:")
print(layered.render())

h1 = LinExpr.param("H1")
h2 = LinExpr.param("H2")
singles = sum(1 for r in layered.rows if sum(r.coeffs) == 1)
pairs = sum(1 for r in layered.rows if sum(r.coeffs) == 2)
check("three single-encoder rows and three pair rows",
      (singles, pairs) == (3, 3), f"{(singles, pairs)}")

vals = {"H1": F(2), "H2": F(3)}
sym = F(2) + F(3, 2)
check("symmetric point lands inside for H1=2, H2=3",
      layered.contains([sym] * 3, vals))
check("shaving any epsilon off one coordinate falls outside",
      not layered.contains([sym - F(1, 100), sym, sym], vals))
check("minimum total rate is 3*H1 + (3/2)*H2",
      smdc_min_sum_rate(3, 1, [2, 3]) == 3 * 2 + F(3, 2) * 3)

total = smdc_min_sum_rate(3, 1, [h1, h2])
print(f"\nsymbolic minimum total rate: {total}")
check("symbolic form evaluates consistently",
      total.evaluate(vals) == F(21, 2))

print()
print("=" * 64)
print("STAGE 4: three sources over three encoders, no taps, unit entropies")
print("=" * 64)

three = superposition_region(3, 0, [1, 1, 1])
print("\ncombined region (facets only):")
print(three.render())
weighted = [r for r in three.rows if max(r.coeffs) == 2]
check("three weighted rows R_i + R_j + 2*R_l >= 7",
      len(weighted) == 3 and all(r.bound.constant_value() == 7
                                 for r in weighted), three.render())

point = [F(11, 4), F(2), F(1)]
broken = three.violated_rows(point)
print(f"\npoint ({', '.join(str(v) for v in point)}) breaks: "
      f"{[r.render(three.var_names) for r in broken]}")
check("the witness keeps its weights, not just the subset",
      [r.render(three.var_names) for r in broken] == ["R1 + R2 + 2*R3 >= 7"])

corners3 = superposition_corner_points(3, 0, [1, 1, 1])
check("corners from one corner per source match brute force",
      corners3 == vertices_brute_force(three), f"{len(corners3)} corners")
check("the cheapest corner costs the minimum sum rate 3 + 3/2 + 1",
      min(sum(c) for c in corners3) == smdc_min_sum_rate(3, 0, [1, 1, 1]))

print()
print("=" * 64)
print(f"DONE: {passed}/{passed + failed} checks passed")
raise SystemExit(0 if failed == 0 else 1)
