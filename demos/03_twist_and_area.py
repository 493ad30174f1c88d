#!/usr/bin/env python3
"""Area preservation and the positive twist, for the map and its square.

In the cylinder coordinates (alpha, R) the differential has determinant one,
here measured from differences of the map, and its d(alpha')/dR entry is
-1/S12 > 0.  The square of the map inherits a positive twist because
S11, S22 > 0.  Those two facts together are what rule out open sets of 3- and
4-periodic points.
"""
import numpy as np

from outerlength import ChordConfig, billiard, genfun, verify
from outerlength.oval import ellipse, perturbed_circle

tables = {
    "ellipse": ellipse(0.8, 0.6),
    "three-lobed": perturbed_circle(0.05, 3),
    "two-lobed (symmetric)": perturbed_circle(0.1, 2),
}

rng = np.random.default_rng(1)
for name, table in tables.items():
    print(f"== {name} ==")
    worst_fd = 0.0
    a1, w = rng.uniform((0, 0.3), (2 * np.pi, 2.4), (200, 2)).T
    worst_det = verify.symplectic_defect(table, a1, a1 + w)
    for _ in range(10):
        a1 = rng.uniform(0, 2 * np.pi)
        state = ChordConfig(a1, a1 + rng.uniform(0.5, 2.0))
        J = billiard.jacobian(table, state)
        Jfd = billiard.fd_jacobian(table, state)
        worst_fd = max(worst_fd, float(np.max(np.abs(J - Jfd))))
    rep = billiard.twist_report(table, samples=5000, seed=2)
    print(f"  |det DT - 1| over 200 states:      {worst_det:.2e}")
    print(f"  matrix vs finite differences:      {worst_fd:.2e}")
    print(f"  min twist of T  over 5000 states:  {rep.min_twist:.4e}")
    print(f"  min twist of T^2:                  {rep.min_twist_squared:.4e}")
    print(f"  violations: {rep.violations} / {rep.violations_squared}")
    print()

print("loop integral of R d(alpha) around an invariant circle of the round table")
from outerlength import circle

table = circle()
w = 1.3
alphas = np.linspace(0, 2 * np.pi, 512, endpoint=False)
R, _ = genfun.radii_arr(table, alphas, alphas + w)
print(f"  direct quadrature: {np.trapezoid(np.append(R, R[0]), dx=2 * np.pi / 512):.12f}")
print(f"  closed form 2*pi*tan^2(w/2): {2 * np.pi * np.tan(w / 2) ** 2:.12f}")
