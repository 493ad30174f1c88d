import numpy as np
import pytest

from outerlength import billiard as bl
from outerlength._solve import _SMALL, bracketed_root
from outerlength.errors import StepFailureError
from outerlength.genfun import ChordConfig
from outerlength.oval import ellipse


def cubic(x, c):
    """x^3 - c: one simple root per entry, steep enough to need bisection."""
    return x**3 - c, 3.0 * x**2


#: working-set sizes on both sides of the float branch's cutoff; each contract
#: test below holds for every one of them
SIZES = [1, _SMALL, _SMALL + 1]


def chunked(size):
    """`bracketed_root` with every call's working set made `size` entries:
    the entries are solved in chunks of that size, the last padded by
    repeating its own entries."""

    def solve(fdf, lo, hi, *params, start=np.nan, ends=()):
        lo, hi, start, *rest = np.broadcast_arrays(
            *(np.asarray(v, dtype=float) for v in (lo, hi, start, *ends, *params))
        )
        shape = lo.shape
        lo, hi, start, *rest = (v.ravel() for v in (lo, hi, start, *rest))
        roots = []
        for first in range(0, lo.size, size):
            lo_, hi_, start_, *rest_ = (
                np.resize(v[first : first + size], size) for v in (lo, hi, start, *rest)
            )
            given = {"ends": rest_[:2]} if ends else {}
            root = bracketed_root(fdf, lo_, hi_, *rest_[len(ends):], start=start_, **given)
            roots.append(root[: min(size, lo.size - first)])
        return np.concatenate(roots).reshape(shape)

    return solve


def test_roots_of_a_batch():
    c = np.array([-8.0, 0.001, 1.0, 27.0, 1000.0])
    for size in SIZES:
        roots = chunked(size)(cubic, -20.0, 20.0, c)
        assert np.allclose(roots, np.cbrt(c), rtol=0, atol=1e-12), size


def test_nan_where_no_sign_change():
    for size in SIZES:
        roots = chunked(size)(cubic, np.array([0.0, 2.0, -1.0]), np.array([3.0, 3.0, 3.0]), 1.0)
        assert roots[0] == pytest.approx(1.0, abs=1e-12), size
        assert np.isnan(roots[1]), size
        assert roots[2] == pytest.approx(1.0, abs=1e-12), size


def test_nan_on_nan_bracket():
    assert np.isnan(bracketed_root(cubic, np.nan, 2.0, 1.0))
    for size in SIZES:
        assert np.isnan(chunked(size)(cubic, np.nan, 2.0, 1.0)), size


def test_exact_root_at_either_endpoint():
    for size in SIZES:
        roots = chunked(size)(cubic, np.array([2.0, -3.0]), np.array([5.0, 2.0]), 8.0)
        assert roots.tolist() == [2.0, 2.0], size


@pytest.mark.parametrize("size", SIZES)
def test_given_ends_replace_their_evaluations(size):
    """Ends that are fdf's own values at lo and hi give the roots of a call
    without them to the last bit, on either branch and for one float
    bracket, and fdf evaluates 2 points fewer per entry."""
    points = []

    def fdf(x, c):
        points.append(np.size(x))
        return cubic(x, c)

    def counted(lo, hi, c, ends):
        """The roots, and the number of points fdf evaluated for them."""
        del points[:]
        return bracketed_root(fdf, lo, hi, c, start=0.9 * lo + 0.1 * hi, ends=ends), sum(points)

    c = np.linspace(0.5, 50.0, size)
    lo, hi = np.linspace(-1.0, 0.5, size), np.linspace(3.7, 5.0, size)
    for lo, hi, c in [(lo, hi, c)] + list(zip(lo.tolist(), hi.tolist(), c.tolist())):
        plain, evaluated = counted(lo, hi, c, None)
        given, saved = counted(lo, hi, c, (cubic(lo, c)[0], cubic(hi, c)[0]))
        assert type(given) is type(plain) and np.array_equal(given, plain)
        assert saved == evaluated - 2 * np.size(c)


def test_given_zero_end_is_the_root():
    """An end given as 0 is returned as the root, whatever fdf says there."""
    for size in SIZES:
        lo, hi = np.array([2.0, -3.0]), np.array([5.0, 2.5])
        roots = chunked(size)(cubic, lo, hi, 8.0, ends=([0.0, -35.0], [117.0, 0.0]))
        assert roots.tolist() == [2.0, 2.5], size


def test_given_ends_without_a_sign_change_give_nan():
    """Ends given without a sign change are NaN, though f changes sign in
    the bracket: the given values are the check, not fdf's."""
    for size in SIZES:
        roots = chunked(size)(cubic, 0.0, 3.0, np.array([1.0, 8.0]), ends=([1.0, -8.0], [2.0, -1.0]))
        assert np.isnan(roots).all(), size


def test_shape_of_a_scalar_call():
    root = bracketed_root(cubic, 0.0, 3.0, 8.0)
    assert np.ndim(root) == 0
    assert isinstance(root, float)
    assert root == pytest.approx(2.0, abs=1e-12)


def test_shape_of_an_nd_call():
    for shape in [(3, 4)] + [(1, size, 1) for size in SIZES]:
        c = np.arange(1.0, 13.0)[: np.prod(shape)].reshape(shape)
        roots = bracketed_root(cubic, 0.0, 5.0, c)
        assert roots.shape == shape
        assert np.allclose(roots, np.cbrt(c), rtol=0, atol=1e-12), shape


def test_params_follow_their_entries():
    # entries converge at different iterations; each must keep its own target
    targets = np.array([1e-9, 2.0, 5.0, 100.0, 0.5, 8.0])
    for size in SIZES:
        roots = chunked(size)(cubic, 0.0, 10.0, targets)
        assert np.allclose(roots**3, targets, rtol=1e-12, atol=1e-12), size


def test_flat_slope_falls_back_to_bisection():
    # f' vanishes at the starting midpoint, so the first step must bisect
    def fdf(x):
        return x**3 - 0.5, 3.0 * x**2

    for size in SIZES:
        assert chunked(size)(fdf, -1.0, 1.0) == pytest.approx(np.cbrt(0.5), abs=1e-12), size


@pytest.mark.parametrize("size", SIZES)
def test_branch_follows_the_working_set_size(size):
    """Up to the cutoff fdf sees floats, one entry at a time; above it, arrays.
    Either way every root is the same to the last bit."""
    seen = []

    def fdf(x, c):
        seen.append(type(x))
        return cubic(x, c)

    c = np.linspace(0.5, 50.0, size)
    roots = bracketed_root(fdf, 0.0, 5.0, c)
    assert set(seen) == ({float} if size <= _SMALL else {np.ndarray})
    assert np.array_equal(roots, [bracketed_root(cubic, 0.0, 5.0, v) for v in c])
    wide = np.concatenate([c, np.full(_SMALL + 1, 2.0)])
    assert np.array_equal(roots, bracketed_root(cubic, 0.0, 5.0, wide)[:size])
    # one bracket given as floats, 0-d arrays or a mix (numpy scalars too)
    # skips the broadcast; fdf still sees plain floats, the result is a
    # float, and it equals the batch's root to the last bit
    for value, root in zip(c.tolist(), roots.tolist()):
        for lo, hi, target in [
            (0.0, 5.0, value),
            (np.array(0.0), np.array(5.0), np.array(value)),
            (0.0, np.array(5.0), np.float64(value)),
        ]:
            seen.clear()
            scalar = bracketed_root(fdf, lo, hi, target, start=np.array(np.nan))
            assert set(seen) == {float}
            assert type(scalar) is float and scalar == root


#: targets of `cubic` for the start tests, roots in (0, 11)
CUBES = np.array([0.001, 1.0, 8.0, 27.0, 64.0, 100.0, 500.0, 1000.0, 3.0])


def test_start_inside_the_bracket_gives_the_same_root():
    """Newton from a predicted start reaches the root found from the
    midpoint, within 4 rounding units; from the root itself it takes fewer
    evaluations."""
    c = CUBES
    calls = []

    def fdf(x, c):
        calls.append(np.size(x))
        return cubic(x, c)

    for size in SIZES:
        del calls[:]
        mid = chunked(size)(fdf, 0.0, 11.0, c)
        from_mid = sum(calls)
        for start in (np.cbrt(c), np.cbrt(c) * 1.3, np.full(c.shape, 0.5), np.full(c.shape, 10.9)):
            del calls[:]
            roots = chunked(size)(fdf, 0.0, 11.0, c, start=start)
            assert np.all(np.abs(roots - mid) <= 4 * np.spacing(mid)), (size, start)
            if np.array_equal(start, np.cbrt(c)):
                assert sum(calls) < from_mid, size


def test_start_off_the_bracket_falls_back_to_the_midpoint():
    """A start that is NaN, outside the bracket or on its edge is the
    midpoint start, bit for bit; a bracket without a sign change is NaN
    whatever the start."""
    c = CUBES
    for size in SIZES:
        mid = chunked(size)(cubic, 0.0, 11.0, c)
        for start in (np.nan, -1.0, 0.0, 11.0, 12.0, np.inf, -np.inf):
            roots = chunked(size)(cubic, 0.0, 11.0, c, start=start)
            assert np.array_equal(roots, mid), (size, start)
        lo, hi = np.array([0.0, 2.0, -1.0]), np.array([3.0, 3.0, 3.0])
        roots = chunked(size)(cubic, lo, hi, 1.0, start=np.array([1.0, 2.5, 0.9]))
        assert roots[0] == pytest.approx(1.0, abs=1e-12), size
        assert np.isnan(roots[1]), size
        assert roots[2] == pytest.approx(1.0, abs=1e-12), size


def test_step_raises_without_reflection_root():
    # on a flat ellipse, a chord this short has no partner of equal radius
    table = ellipse(1.0, 0.2)
    state = ChordConfig(0.8325, 0.8325 + 1.0001e-4)
    assert np.isnan(bl.step_angles_arr(table, state.alpha1, state.alpha2))
    with pytest.raises(StepFailureError):
        bl.step(table, state)


def test_pair_from_phase_raises_outside_the_radius_range():
    table = ellipse(1.0, 0.2)
    with pytest.raises(StepFailureError):
        bl.pair_from_phase(table, 0.3, 1e12)
