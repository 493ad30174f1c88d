import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from outerlength import forge, genfun
from outerlength.oval import SupportOval, circle, ellipse, perturbed_circle

TWO_PI = 2.0 * np.pi

# every run draws the same examples, so two commits' runs of the suite can be
# compared test by test; `--hypothesis-profile` still selects another profile
settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")


@pytest.fixture(scope="session")
def round_table():
    return circle()


@pytest.fixture(scope="session")
def ellipse_table():
    # semi-axes (sin 0.8, cos 0.8), so a^2 + b^2 = 1
    return ellipse(np.sin(0.8), np.cos(0.8))


@pytest.fixture(scope="session")
def wobble3_table():
    return perturbed_circle(0.05, 3)


@pytest.fixture(scope="session")
def thin_ellipse():
    # least curvature radius 4e-4
    return ellipse(1.0, 0.02)


@pytest.fixture(scope="session")
def wobble2_table():
    return perturbed_circle(0.1, 2)


@pytest.fixture(scope="session")
def twelve_harmonic_table():
    k = np.arange(1, 13)
    return SupportOval.from_fourier(1.0, 0.02 / k**2, (-1.0) ** k * 0.01 / k**2)


@pytest.fixture(scope="session")
def forge_spec():
    return forge.FourPeriodicSpec.from_harmonics({2: (0.0, 0.1)})


@pytest.fixture(scope="session")
def forge_table(forge_spec):
    oval, family = forge.from_f(forge_spec)
    return oval, family


@pytest.fixture(scope="session")
def spline_wobble3():
    return SupportOval.from_callable(lambda a: 1.0 + 0.05 * np.cos(3 * a))


@pytest.fixture(scope="session", params=["acceptance-ellipse", "thin-ellipse", "from_f"])
def spline_table(request, ellipse_table, forge_table):
    """The spline tables whose fit is checked against the exact spline."""
    if request.param == "thin-ellipse":
        return ellipse(1.0, 0.05)
    return ellipse_table if request.param == "acceptance-ellipse" else forge_table[0]


@st.composite
def fourier_tables(draw):
    """p = 1 + sum over 1-4 harmonics, scaled so that p''+ p >= 0.4 and p >= 0.4."""
    count = draw(st.integers(1, 4))
    k = np.arange(1, count + 1)
    amp = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=count, max_size=count)))
    phase = np.array(draw(st.lists(st.floats(0.0, TWO_PI), min_size=count, max_size=count)))
    # |p - 1| <= sum amp and |p'' + p - 1| <= sum (k^2 - 1) amp
    amp *= 0.6 / max(np.sum(amp * np.maximum(k**2 - 1, 1)), 1e-12)
    return SupportOval.from_fourier(1.0, amp * np.cos(phase), amp * np.sin(phase))


@st.composite
def symmetric_fourier_tables(draw):
    """A `fourier_tables()`-style table with even harmonics 2..8 only, so
    p(alpha + pi) = p(alpha): the table is centrally symmetric."""
    count = draw(st.integers(1, 4))
    k = 2 * np.arange(1, count + 1)
    amp = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=count, max_size=count)))
    phase = np.array(draw(st.lists(st.floats(0.0, TWO_PI), min_size=count, max_size=count)))
    amp *= 0.6 / max(np.sum(amp * (k**2 - 1)), 1e-12)
    cos_coef, sin_coef = np.zeros(k[-1]), np.zeros(k[-1])
    cos_coef[k - 1], sin_coef[k - 1] = amp * np.cos(phase), amp * np.sin(phase)
    return SupportOval.from_fourier(1.0, cos_coef, sin_coef)


@st.composite
def single_harmonic_tables(draw):
    """p = 1 + a cos k a + b sin k a, k in 1..4, with p''+ p >= 0.4 and p >= 0.4:
    every series sum has one nonzero term, so it is exact in any order."""
    k = draw(st.integers(1, 4))
    amp = draw(st.floats(0.0, 0.6 / max(k * k - 1, 1)))
    phase = draw(st.floats(0.0, TWO_PI))
    cos_coef, sin_coef = np.zeros(k), np.zeros(k)
    cos_coef[-1], sin_coef[-1] = amp * np.cos(phase), amp * np.sin(phase)
    return SupportOval.from_fourier(1.0, cos_coef, sin_coef)


@st.composite
def spline_tables(draw):
    """A `fourier_tables()` table resampled into the spline representation."""
    table = draw(fourier_tables())
    return SupportOval.from_callable(table.p, n=draw(st.sampled_from([64, 512])))


def rotated(table, phi):
    """The Fourier table p(alpha - phi)."""
    desc = table.to_json()
    a, b = np.asarray(desc["cos"]), np.asarray(desc["sin"])
    k = np.arange(1, len(a) + 1)
    c, s = np.cos(k * phi), np.sin(k * phi)
    return SupportOval.from_fourier(desc["a0"], a * c - b * s, a * s + b * c)


def support_margin(table, point, alpha):
    """Signed margin <point, n(alpha)> - p(alpha) of a point against the
    support line at alpha; positive outside it."""
    a = np.asarray(alpha, dtype=float)
    x, y = point
    return x * np.cos(a) + y * np.sin(a) - table.p(a)


def draw_twist_gaps_in(monkeypatch, window):
    """Make `billiard.twist_report` draw its chords' gaps from `window` in
    place of its own [0.05, pi - 0.05]."""
    sample = genfun.sample_chords
    monkeypatch.setattr(genfun, "sample_chords", lambda rng, n, *_: sample(rng, n, *window))
