#!/usr/bin/env python3
"""The rotation distribution on polygon space and why periodic-point discs die.

Rotating each side of a convex polygon about the tangency point of its
neighbor-straddling circle keeps the perimeter fixed; the n rotation fields
span a distribution whose first brackets already fill the whole fixed
perimeter slice near regular polygons (growth rank 2n - 1).  A surface of
periodic orbits would be tangent to the distribution, and for triangles the
bracket coefficients obstruct that with a sum of six manifestly negative
terms.
"""
import numpy as np

from outerlength import polygons as pg

print("== the fields vanish exactly on regular polygons ==")
for n in (3, 5, 8):
    print(f"  regular {n}-gon: max |Phi| = "
          f"{np.max(np.abs(pg.phi(pg.PolygonConfig.regular(n)))):.2e}")

print("\n== perimeter is invariant along every field ==")
rng = np.random.default_rng(0)
gaps = rng.uniform(0.6, 1.1, 5)
gaps *= 2 * np.pi / gaps.sum()
poly = pg.PolygonConfig(np.concatenate([[0.1], 0.1 + np.cumsum(gaps[:-1])]),
                        1.0 + rng.uniform(-0.15, 0.15, 5))
perim = pg.perimeter(poly)
print(f"  random pentagon: perimeter {perim:.10f} "
      f"(Euclidean check {pg.perimeter_from_vertices(poly):.10f})")
print("  directional derivatives:",
      [f"{d:+.1e}" for d in pg.perimeter_derivative_along_xi(poly)])

print("\n== brackets: closed form vs integrated flows ==")
rows = pg.brackets(poly)  # row i is [xi_i, xi_{i+1}]
for i in range(3):
    closed = rows[i]
    flowed = pg.flow_commutator(poly, i, i + 1)
    print(f"  [xi_{i}, xi_{i + 1}]: max defect {np.max(np.abs(closed - flowed)):.2e}")
print("  distant pair [xi_0, xi_2]:",
      "identically zero" if not pg.xi_bracket(poly, 0, 2).any() else "NONZERO!")

print("\n== growth of the distribution ==")
for n in range(3, 9):
    reg = pg.growth_report(pg.PolygonConfig.regular(n))
    print(f"  regular {n}-gon: rank {reg.rank} of expected {reg.expected} "
          f"(pairing rank {reg.theta_rank})")
rnd = pg.growth_report(poly)
print(f"  random pentagon: rank {rnd.rank} (recorded, not asserted away "
      f"from regular polygons)")

print("\n== triangle obstruction ==")
wu = pg.triangle_WU(np.pi / 3, np.pi / 3, np.pi / 3)
print(f"  equilateral: W = {wu.W.round(12)}, U = {wu.U.round(12)}, "
      f"a = {wu.a}, b = {wu.b}")
rng = np.random.default_rng(1)
u, v = rng.uniform(1e-3, np.pi / 2 - 1e-3, (2, 60000))
w = np.pi - u - v
keep = np.flatnonzero((1e-3 < w) & (w < np.pi / 2 - 1e-3))[:20000]
worst = np.max(pg.triangle_WU(u[keep], v[keep], w[keep]).expression)
print(f"  six-term expression over 2e4 random triangles: max {worst:.4f} "
      f"(always negative)")
