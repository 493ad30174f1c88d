#!/usr/bin/env python3
"""The two-point generating function and its double-entry bookkeeping.

S(alpha1, alpha2) = l1 + l2 - (arc between the tangency points) has a closed
form in the support function, and so do its first and second partials.  The
first partials are the auxiliary circle radii (up to sign), which is what
makes d(R) ^ d(alpha) invariant.  This script evaluates every quantity along
two independent routes and prints the disagreements, which should all sit at
rounding level, plus finite-difference checks.
"""
import numpy as np

from outerlength import genfun
from outerlength.oval import ellipse, perturbed_circle

rng = np.random.default_rng(0)
tables = {
    "ellipse (sin .8, cos .8)": ellipse(np.sin(0.8), np.cos(0.8)),
    "three-lobed 1 + .05 cos 3a": perturbed_circle(0.05, 3),
}

for name, table in tables.items():
    a1, a2 = genfun.sample_chords(rng, 4000)
    print(f"== {name} ==")

    S = genfun.S_arr(table, a1, a2)
    l1, l2 = genfun.lengths_arr(table, a1, a2)
    arcs = table.arc_length(a1, a2)
    print(f"  S vs l1 + l2 - arc:        {np.max(np.abs(S - (l1 + l2 - arcs))):.2e}")

    S1, S2 = genfun.grad_arr(table, a1, a2)
    R1, R2 = genfun.radii_arr(table, a1, a2)
    print(f"  support form vs l*tan form: {np.max(np.abs(S1 + R1)):.2e} / "
          f"{np.max(np.abs(S2 - R2)):.2e}")

    f1, f2 = genfun.fd_grad_arr(table, a1, a2)
    print(f"  gradient vs differences:    {np.max(np.abs(S1 - f1)):.2e}")

    h11, h12, h22 = genfun.hess_arr(table, a1, a2)
    e11, e12, e22 = genfun.fd_hess_arr(table, a1, a2)
    print(f"  Hessian vs differences:     {np.max(np.abs(h12 - e12)):.2e}")

    wide1, wide2 = genfun.sample_chords(rng, 20000, 1e-3, np.pi - 1e-3)
    s11, s12, s22 = genfun.hess_arr(table, wide1, wide2)
    print(f"  sign pattern (+,-,+): S11 min {np.min(s11):.3e}, "
          f"S12 max {np.max(s12):.3e}, S22 min {np.min(s22):.3e}")
    print()

print("small-gap asymptotics on the unit circle: S ~ w^3 / 12")
from outerlength import circle

for w in (0.3, 0.1, 0.03, 0.01):
    S = genfun.S_arr(circle(), 0.0, w)
    print(f"  w = {w:5}: S / (w^3/12) = {S / (w ** 3 / 12):.8f}")
