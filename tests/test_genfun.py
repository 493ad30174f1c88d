import mpmath
import numpy as np
import pytest

from outerlength import billiard as bl
from outerlength import genfun as gf
from outerlength import periodic as pd
from outerlength import verify
from outerlength.errors import ChordDomainError
from outerlength.genfun import ChordConfig
from outerlength.oval import circle, ellipse, perturbed_circle

TWO_PI = 2.0 * np.pi


class TestCircleExactValues:
    def test_right_angle_chord(self, round_table):
        chord = (round_table, 0.0, np.pi / 2)
        l1, l2 = gf.lengths_arr(*chord)
        assert abs(l1 - 1.0) < 1e-12 and abs(l2 - 1.0) < 1e-12
        assert abs(gf.S_arr(*chord) - (2 - np.pi / 2)) < 1e-12
        S1, S2 = gf.grad_arr(*chord)
        assert abs(S1 + 1.0) < 1e-12 and abs(S2 - 1.0) < 1e-12
        R1, R2 = gf.radii_arr(*chord)
        assert abs(R1 - 1.0) < 1e-12 and abs(R2 - 1.0) < 1e-12
        S11, S12, S22 = gf.hess_arr(*chord)
        assert abs(S11 - 2.0) < 1e-12
        assert abs(S12 + 2.0) < 1e-12
        assert abs(S22 - 2.0) < 1e-12

    def test_two_thirds_pi_chord(self, round_table):
        chord = (round_table, 0.0, 2 * np.pi / 3)
        l1, l2 = gf.lengths_arr(*chord)
        assert abs(l1 - np.sqrt(3)) < 1e-12 and abs(l2 - np.sqrt(3)) < 1e-12
        R1, R2 = gf.radii_arr(*chord)
        assert abs(R1 - 3.0) < 1e-12 and abs(R2 - 3.0) < 1e-12
        S11, S12, S22 = gf.hess_arr(*chord)
        assert abs(S11 - 4 * np.sqrt(3)) < 1e-11
        assert abs(S12 + 4 * np.sqrt(3)) < 1e-11
        assert abs(S22 - 4 * np.sqrt(3)) < 1e-11

    def test_length_is_tan_half_gap(self, round_table):
        w = np.array([0.3, 1.0, 2.0, 2.6])
        l1, _ = gf.lengths_arr(round_table, 0.7, 0.7 + w)
        assert np.max(np.abs(l1 - np.tan(w / 2))) < 1e-12

    def test_small_gap_cubic_asymptotics(self, round_table):
        # S = 2 tan(w/2) - w ~ w^3 / 12 as w -> 0
        w = 1e-2
        S = gf.S_arr(round_table, 0.0, w)
        assert abs(S / (w**3 / 12.0) - 1.0) < 1e-3

    def test_rotation_invariance(self, round_table):
        rng = np.random.default_rng(5)
        w = 1.3
        a1 = rng.uniform(0, TWO_PI, 10)
        vals = np.array(
            [
                gf.S_arr(round_table, a1, a1 + w),
                *gf.lengths_arr(round_table, a1, a1 + w),
                *gf.radii_arr(round_table, a1, a1 + w),
            ]
        )
        assert np.max(np.ptp(vals, axis=1)) < 1e-12


class TestEllipseChord:
    def test_vertex_chord_lengths(self):
        e = ellipse(2.0, 1.0)
        l1, l2 = gf.lengths_arr(e, 0.0, np.pi / 2)
        # chord vertex is (2, 1): tangent touch points are (2, 0) and (0, 1)
        assert abs(l1 - 1.0) < 1e-9
        assert abs(l2 - 2.0) < 1e-9


class TestDefiningIdentity:
    def test_S_equals_lengths_minus_arc(self, wobble3_table, ellipse_table):
        rng = np.random.default_rng(11)
        for oval in (wobble3_table, ellipse_table):
            a1, a2 = gf.sample_chords(rng, 200, 0.05, np.pi - 0.05)
            assert verify.defining_identity_defect(oval, a1, a2) < 1e-10

    def test_dual_first_order_forms(self, wobble3_table):
        # raw support form of the gradient vs the l * tan(w/2) radii
        rng = np.random.default_rng(12)
        a1, a2 = gf.sample_chords(rng, 500, 0.02, np.pi - 0.02)
        R1, R2 = gf.radii_arr(wobble3_table, a1, a2)
        assert verify.dual_forms_defect(wobble3_table, a1, a2) < 1e-10
        assert np.all(R1 > 0) and np.all(R2 > 0)


class TestFiniteDifferences:
    def test_gradient_against_fd(self, wobble3_table, forge_table):
        rng = np.random.default_rng(13)
        for oval in (wobble3_table, forge_table[0]):
            a1, a2 = gf.sample_chords(rng, 400)
            assert verify.gradient_fd_defect(oval, a1, a2) < 1e-6

    def test_hessian_against_fd(self, wobble3_table, forge_table):
        rng = np.random.default_rng(14)
        for oval in (wobble3_table, forge_table[0]):
            a1, a2 = gf.sample_chords(rng, 400)
            assert verify.hessian_fd_defect(oval, a1, a2) < 1e-4

    def test_single_chord_against_fd(self, wobble3_table):
        chord = (wobble3_table, 0.4, 1.9)
        assert gf.fd_grad_arr(*chord) == pytest.approx(gf.grad_arr(*chord), abs=1e-6)
        assert gf.fd_hess_arr(*chord) == pytest.approx(gf.hess_arr(*chord), abs=1e-4)


def per_shift_fd(oval, a1, a2, h_grad=1e-5, h_hess=1e-4):
    """The finite differences with one `S_arr` call per shifted chord: the
    reference for the stencil forms."""
    S = gf.S_arr
    grad = (
        (S(oval, a1 + h_grad, a2) - S(oval, a1 - h_grad, a2)) / (2 * h_grad),
        (S(oval, a1, a2 + h_grad) - S(oval, a1, a2 - h_grad)) / (2 * h_grad),
    )
    h = h_hess
    s0 = S(oval, a1, a2)
    hess = (
        (S(oval, a1 + h, a2) - 2 * s0 + S(oval, a1 - h, a2)) / h**2,
        (S(oval, a1 + h, a2 + h) - S(oval, a1 + h, a2 - h)
         - S(oval, a1 - h, a2 + h) + S(oval, a1 - h, a2 - h)) / (4 * h**2),
        (S(oval, a1, a2 + h) - 2 * s0 + S(oval, a1, a2 - h)) / h**2,
    )
    return grad, hess


class TestStencil:
    """`fd_grad_arr` and `fd_hess_arr` evaluate S on their whole stencil in
    one call; the values are those of one call per shifted chord, bit for bit.
    With several harmonics that needs each stencil point's series summed as
    in a 1-D batch, which the second differences would magnify by 1 / h**2."""

    @pytest.mark.parametrize("table", ["wobble2_table", "twelve_harmonic_table", "ellipse_table"])
    def test_matches_per_shift_form(self, table, request):
        oval = request.getfixturevalue(table)
        rng = np.random.default_rng(17)
        for shape in [(), (1000,), (20, 30)]:
            a1, a2 = gf.sample_chords(rng, int(np.prod(shape)))
            a1, a2 = a1.reshape(shape)[()], a2.reshape(shape)[()]
            grad, hess = per_shift_fd(oval, a1, a2)
            assert np.array_equal(gf.fd_grad_arr(oval, a1, a2), grad), shape
            assert np.array_equal(gf.fd_hess_arr(oval, a1, a2), hess), shape
            assert np.shape(gf.fd_hess_arr(oval, a1, a2)[1]) == shape

    @pytest.mark.parametrize("table", ["wobble2_table", "twelve_harmonic_table", "ellipse_table"])
    def test_S_is_the_jets_p_to_the_bit(self, table, request):
        """`S_arr` reads p alone; its values are those of the jets' p, bit for
        bit.  `per_shift_fd` calls `S_arr` itself, so it cannot catch a
        change there."""
        oval = request.getfixturevalue(table)
        rng = np.random.default_rng(20)
        for shape in [(), (1000,), (20, 30)]:
            a1, a2 = gf.sample_chords(rng, int(np.prod(shape)))
            a1, a2 = a1.reshape(shape)[()], a2.reshape(shape)[()]
            ref = ((oval.jet(a2)[0] + oval.jet(a1)[0]) * np.tan((a2 - a1) / 2.0)
                   - oval._rep.p_and_integral(a1, a2)[2])
            S = gf.S_arr(oval, a1, a2)
            assert np.shape(S) == shape
            assert np.array_equal(S, ref), shape

    def test_small_step_on_a_thin_table(self):
        # `hessian_fd_defect` takes h = a twentieth of the least curvature radius
        thin = ellipse(1.0, 0.02)
        h = min(1e-4, thin.validate().min_curvature_radius / 20.0)
        assert h < 1e-4
        a1, a2 = gf.sample_chords(np.random.default_rng(18), 300)
        _, hess = per_shift_fd(thin, a1, a2, h_hess=h)
        assert np.array_equal(gf.fd_hess_arr(thin, a1, a2, h), hess)
        assert verify.hessian_fd_defect(thin, a1, a2) < 1e-4

    @pytest.mark.parametrize("table", ["wobble3_table", "ellipse_table"])
    def test_S_evaluates_each_chord_end_once(self, table, request, monkeypatch):
        """S reads p and its antiderivative's end term from one evaluation
        per chord end: an `S_arr` call, and so each stencil, makes two
        (`_angles` on a Fourier table, `_locate` with its coefficient gather
        on a spline table), and does not call `jet`."""
        oval = request.getfixturevalue(table)
        per_end = "_angles" if oval.kind == "fourier" else "_locate"
        calls = dict.fromkeys((per_end, "jet"), 0)

        def counted(name):
            inner = getattr(oval._rep, name)

            def wrapper(*args):
                calls[name] += 1
                return inner(*args)

            return wrapper

        for name in calls:
            monkeypatch.setattr(oval._rep, name, counted(name))
        a1, a2 = gf.sample_chords(np.random.default_rng(19), 1000)
        for fn in (gf.S_arr, gf.fd_grad_arr, gf.fd_hess_arr):
            calls.update(dict.fromkeys(calls, 0))
            fn(oval, a1, a2)
            assert calls == {per_end: 2, "jet": 0}, fn.__name__

    def test_stencil_evaluates_per_end(self, ellipse_table, wobble3_table, monkeypatch):
        """`fd_hess_arr` on N chords evaluates each end on its 3N shifted
        angles, not on the 9N chords: at most 6N angles reach the
        representation's per-end evaluation."""
        n = 500
        a1, a2 = gf.sample_chords(np.random.default_rng(23), n)
        for oval in (ellipse_table, wobble3_table):
            seen = []

            def counted_end(alpha, end=oval._rep._end):
                seen.append(np.size(alpha))
                return end(alpha)

            monkeypatch.setattr(oval._rep, "_end", counted_end)
            gf.fd_hess_arr(oval, a1, a2)
            assert len(seen) == 2 and 0 < sum(seen) <= 6 * n, oval.kind


def test_gradient_on_floats_matches_one_entry_arrays():
    """The scalar step's radii come from `grad_from_jets` on floats; they must
    equal the array values bit for bit.  (A float `** 2` calls pow(), which
    rounds differently from the array's square on about 0.1% of gaps.)"""
    rng = np.random.default_rng(41)
    rows = rng.uniform((gf.OMEGA_MIN, 0.3, -1.0, 0.3, -1.0),
                       (np.pi - gf.OMEGA_MIN, 2.0, 1.0, 2.0, 1.0), (10_000, 5))
    floats = [gf.grad_from_jets(w, (p1, dp1), (p2, dp2)) for w, p1, dp1, p2, dp2 in rows.tolist()]
    arrays = [gf.grad_from_jets(r[0:1], (r[1:2], r[2:3]), (r[3:4], r[4:5])) for r in rows]
    assert np.array_equal(np.array(floats), np.array(arrays)[..., 0])


class TestSignPattern:
    def test_hessian_signs_bulk(self, round_table, ellipse_table, wobble3_table):
        rng = np.random.default_rng(15)
        for oval in (round_table, ellipse_table, wobble3_table):
            a1, a2 = gf.sample_chords(rng, 5000, 1e-3, np.pi - 1e-3)
            S11, S12, S22 = gf.hess_arr(oval, a1, a2)
            assert np.all(S11 > 0)
            assert np.all(S22 > 0)
            assert np.all(S12 < 0)


class TestDomainGuard:
    @pytest.mark.parametrize("w", [1e-5, np.pi - 1e-5, -0.3, np.pi + 0.1])
    def test_bad_gap_rejected(self, w):
        with pytest.raises(ChordDomainError):
            ChordConfig(0.0, w)

    def test_int_ends_give_the_float_chord(self, wobble3_table):
        # an int gap skips the float check; the array check must pass it
        assert bl.step(wobble3_table, ChordConfig(0, 1)) == bl.step(
            wobble3_table, ChordConfig(0.0, 1.0))

    def test_functions_reject_bad_gap(self, round_table):
        with pytest.raises(ChordDomainError):
            gf.lengths_arr(round_table, 0.0, np.pi)

    @pytest.mark.parametrize("a1, a2", [
        (np.nan, 1.0), (0.0, np.inf), (np.inf, -np.inf), (-np.inf, 1.0),
        ([0.0, np.nan], [1.0, 1.2]), ([0.0, 0.1], [1.0, np.inf]),
        (np.inf, np.inf), (-np.inf, -np.inf),
    ])
    @pytest.mark.parametrize("table", ["wobble3_table", "spline_wobble3"])
    def test_S_rejects_a_nonfinite_end(self, a1, a2, table, request):
        """S reads the representation unchecked; the gap check alone refuses
        a non-finite end, since a gap between finite ends needs both.  Two
        infinite ends of one sign give a NaN gap, refused without NumPy's
        invalid-value warning, which the suite turns into an error."""
        with pytest.raises(ChordDomainError):
            gf.S_arr(request.getfixturevalue(table), a1, a2)

    @pytest.mark.parametrize("end", [np.inf, -np.inf])
    @pytest.mark.parametrize("route", [
        lambda o, a: gf.chord_jets(o, a, a),
        lambda o, a: gf.chord_jets(o, np.array([a, 0.0]), np.array([a, 1.0])),
        lambda o, a: gf.grad_arr(o, a, a),
        lambda o, a: gf.hess_arr(o, np.array([a]), np.array([a])),
        lambda o, a: gf.path_jets(o, [a, a, 1.0]),
        lambda o, a: bl.iterate(o, np.array([a, 0.0]), np.array([a, 1.0]), 1),
        lambda o, a: pd.total_action(o, [a, a, a]),
    ], ids=["chord-jets", "chord-jets-array", "grad", "hess-array", "path-jets",
            "iterate-array", "total-action"])
    def test_same_sign_infinite_ends_give_the_domain_error(self, route, end, wobble3_table):
        with pytest.raises(ChordDomainError, match="offending value nan"):
            route(wobble3_table, end)

    def test_scalar_chord_gives_floats(self, round_table):
        l1, _ = gf.lengths_arr(round_table, 0.0, np.pi / 2)
        S11, S12, _ = gf.hess_arr(round_table, 0.0, np.pi / 2)
        assert np.ndim(l1) == np.ndim(S11) == 0
        assert l1 == pytest.approx(1.0)
        assert S11 == pytest.approx(2.0)
        assert S12 == pytest.approx(-2.0)


# -- 50-digit references on exact Fourier tables --------------------------------


class _MpWobble:
    """p = 1 + eps cos(k alpha) in 50-digit arithmetic; S from its definition
    (tangent segments from the chord vertex minus the boundary arc), so the
    references share no formula with the closed forms under test."""

    def __init__(self, eps, k):
        self.eps, self.k = mpmath.mpf(eps), k

    def p(self, a):
        return 1 + self.eps * mpmath.cos(self.k * a)

    def dp(self, a):
        return -self.eps * self.k * mpmath.sin(self.k * a)

    def boundary(self, a):
        p, dp = self.p(a), self.dp(a)
        return (p * mpmath.cos(a) - dp * mpmath.sin(a), p * mpmath.sin(a) + dp * mpmath.cos(a))

    def S(self, a1, a2):
        p1, p2, sw = self.p(a1), self.p(a2), mpmath.sin(a2 - a1)
        vertex = (
            (p1 * mpmath.sin(a2) - p2 * mpmath.sin(a1)) / sw,
            (p2 * mpmath.cos(a1) - p1 * mpmath.cos(a2)) / sw,
        )
        l1, l2 = (mpmath.norm([v - g for v, g in zip(vertex, self.boundary(a))]) for a in (a1, a2))
        integral = (a2 - a1) + self.eps / self.k * (mpmath.sin(self.k * a2) - mpmath.sin(self.k * a1))
        return l1 + l2 - (self.dp(a2) - self.dp(a1) + integral)

    def partial(self, a1, a2, orders):
        return mpmath.diff(self.S, (a1, a2), orders)


REFERENCE_CHORDS = [(0.3, 1.4), (2.0, 4.1), (5.5, 6.9), (1.0, 3.4)]


@pytest.mark.parametrize("eps", [0.0, 0.05], ids=["circle", "wobble3"])
class TestHighPrecisionReferences:
    TOL = 1e-13

    @pytest.fixture(autouse=True)
    def fifty_digits(self):
        with mpmath.workdps(50):
            yield

    @staticmethod
    def tables(eps):
        return perturbed_circle(eps, 3) if eps else circle(), _MpWobble(eps, 3)

    def test_closed_forms(self, eps):
        table, ref = self.tables(eps)
        a1, a2 = (np.array(v) for v in zip(*REFERENCE_CHORDS))
        got = {
            "S": gf.S_arr(table, a1, a2),
            "R1 (gradient)": -gf.grad_arr(table, a1, a2)[0],
            "R2 (gradient)": gf.grad_arr(table, a1, a2)[1],
            "R1 (l tan)": gf.radii_arr(table, a1, a2)[0],
            "R2 (l tan)": gf.radii_arr(table, a1, a2)[1],
            "S11": gf.hess_arr(table, a1, a2)[0],
            "S12": gf.hess_arr(table, a1, a2)[1],
            "S22": gf.hess_arr(table, a1, a2)[2],
        }
        for i, (x, y) in enumerate(REFERENCE_CHORDS):
            x, y = mpmath.mpf(x), mpmath.mpf(y)
            want = {
                "S": ref.S(x, y),
                "R1 (gradient)": -ref.partial(x, y, (1, 0)),
                "R2 (gradient)": ref.partial(x, y, (0, 1)),
                "R1 (l tan)": -ref.partial(x, y, (1, 0)),
                "R2 (l tan)": ref.partial(x, y, (0, 1)),
                "S11": ref.partial(x, y, (2, 0)),
                "S12": ref.partial(x, y, (1, 1)),
                "S22": ref.partial(x, y, (0, 2)),
            }
            for name, value in want.items():
                assert abs(got[name][i] - float(value)) < self.TOL, (name, i)

    def test_map_step(self, eps):
        table, ref = self.tables(eps)
        x, y = (mpmath.mpf(v) for v in REFERENCE_CHORDS[1])
        target = ref.partial(x, y, (0, 1))
        new = bl.step(table, ChordConfig(*REFERENCE_CHORDS[1]))
        alpha3 = mpmath.findroot(lambda z: -ref.partial(y, z, (1, 0)) - target, new.alpha2)
        assert abs(new.alpha2 - float(alpha3)) < self.TOL
