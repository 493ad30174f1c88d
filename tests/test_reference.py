"""A 40-digit reference for `find_periodic`.

The reference perimeter is that of the polygon cut out by the support lines
at given angles: each vertex is the 2 x 2 solve of two neighbouring lines,
each side the distance between two vertices, and p is evaluated in mpmath
from the table's stored Fourier coefficients.  No closed form or solver of
the package enters it, so an orbit of `find_periodic` is checked as a
critical point of a perimeter computed independently of it.
"""

import mpmath
import pytest

from outerlength import periodic as pd
from outerlength.oval import SupportOval, perturbed_circle

TABLES = {
    "wobble3-phase-0.7": lambda: perturbed_circle(0.05, 3, 0.7),
    "two-coefficient-wobble3": lambda: SupportOval.from_fourier(1.0, [0, 0, 0.04], [0, 0, 0.03]),
}


def reference_support(table):
    """p(a) at an mpf angle from the stored series a0 + sum a_k cos ka + b_k sin ka."""
    desc = table.to_json()
    terms = [(k, mpmath.mpf(a), mpmath.mpf(b))
             for k, (a, b) in enumerate(zip(desc["cos"], desc["sin"]), start=1)]
    a0 = mpmath.mpf(desc["a0"])

    def p(angle):
        return a0 + mpmath.fsum(a * mpmath.cos(k * angle) + b * mpmath.sin(k * angle)
                                for k, a, b in terms)

    return p


def reference_perimeter(p, angles, m):
    """Perimeter of the polygon whose sides lie on the support lines at the
    increasing `angles`, which wind m times around."""
    ends = list(angles) + [angles[0] + 2 * m * mpmath.pi]
    vertices = []
    for a, b in zip(ends, ends[1:]):
        lines = mpmath.matrix([[mpmath.cos(a), mpmath.sin(a)], [mpmath.cos(b), mpmath.sin(b)]])
        vertices.append(mpmath.lu_solve(lines, mpmath.matrix([p(a), p(b)])))
    return mpmath.fsum(mpmath.norm(v - u) for u, v in zip(vertices[-1:] + vertices[:-1], vertices))


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("name", TABLES)
def test_find_periodic_is_critical_for_the_reference_perimeter(name, n):
    table = TABLES[name]()
    orbit = pd.find_periodic(table, n)
    p = reference_support(table)
    with mpmath.workdps(40):
        angles = [mpmath.mpf(a) for a in orbit.angles.tolist()]

        def along(i):
            return lambda t: reference_perimeter(p, angles[:i] + [t] + angles[i + 1:], 1)

        # twice find_periodic's default tol, which bounds its gradient
        gradient = max(abs(mpmath.diff(along(i), angles[i])) for i in range(n))
        gap = abs(reference_perimeter(p, angles, 1) - orbit.perimeter)
    assert gradient <= 2e-11
    assert gap <= 1e-13
