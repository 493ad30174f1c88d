"""Inputs outside an entry point's domain end in the typed error it already raises."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from outerlength import billiard, forge, genfun, verify
from outerlength import periodic as pd
from outerlength import polygons as pg
from outerlength.errors import (
    ArcConstraintError, ChordDomainError, ConfigError, FPrimeBoundError, OuterLengthError,
    OvalValidationError, StepFailureError,
)
from outerlength.genfun import ChordConfig
from outerlength.oval import SupportOval, circle, ellipse, perturbed_circle

NAN = float("nan")
SQUARE = np.array([0.0, np.pi / 2, np.pi, 3 * np.pi / 2])
CHORD = ChordConfig(0.0, 1.0)
RNG = np.random.default_rng(0)
SPEC = forge.FourPeriodicSpec.from_harmonics({2: (0.0, 0.1)})
CASES = {
    "polygon-nan-angle": (lambda: pg.PolygonConfig(np.r_[SQUARE[:3], NAN], np.ones(4)),
                          ValueError, "finite"),
    "polygon-nan-support": (lambda: pg.PolygonConfig(SQUARE, np.r_[1.0, NAN, 1.0, 1.0]),
                            ValueError, "finite"),
    "regular-nan-radius": (lambda: pg.PolygonConfig.regular(4, r=NAN), ValueError, "finite"),
    "triangle-nan-angle": (lambda: pg.triangle_WU(NAN, 0.5, 0.5), ValueError, "sum to pi"),
    "radon-nan-sample": (lambda: forge.radon_like(np.r_[np.full(32, 0.5), NAN, np.full(32, 0.5)]),
                         ArcConstraintError, "finite"),
    "radon-inf-sample": (lambda: forge.radon_like(np.r_[np.full(64, 0.5), np.inf]),
                         ArcConstraintError, "finite"),
    "radon-nan-callable": (lambda: forge.radon_like(lambda a: np.where(a < 1.0, 0.5, NAN)),
                           ArcConstraintError, "finite"),
    "radon-2d-samples": (lambda: forge.radon_like(np.full((65, 2), 0.5)),
                         ArcConstraintError, "1-d array"),
    "circle-nan-radius": (lambda: circle(NAN), OvalValidationError, "not positive"),
    "fourier-nan-coefficient": (lambda: SupportOval.from_fourier(1.0, [NAN]),
                                OvalValidationError, "not positive"),
    "samples-nan": (lambda: SupportOval.from_samples(np.r_[np.ones(31), NAN]),
                    OvalValidationError, "finite"),
    "ellipse-nan-axis": (lambda: ellipse(1.0, NAN), OvalValidationError, "finite"),
    "ellipse-negative-axis": (lambda: ellipse(1.0, -1.0), OvalValidationError,
                              "semi-axis b = -1.0 is not finite and positive"),
    "ellipse-zero-axis": (lambda: ellipse(0.0, 1.0), OvalValidationError,
                          "semi-axis a = 0.0 is not finite and positive"),
    "ellipse-inf-axis": (lambda: ellipse(np.inf, 1.0), OvalValidationError,
                         "semi-axis a = inf is not finite and positive"),
    "perturbed-fractional-harmonic": (lambda: perturbed_circle(0.05, 2.5), ConfigError,
                                      r"harmonic = 2\.5 is not an integer >= 1"),
    "perturbed-zero-harmonic": (lambda: perturbed_circle(0.05, 0), ConfigError,
                                "harmonic = 0 is not an integer >= 1"),
    "perturbed-nan-harmonic": (lambda: perturbed_circle(0.05, NAN), ConfigError,
                               "harmonic = nan is not an integer >= 1"),
    "xi-bracket-index-past-n": (lambda: pg.xi_bracket(pg.PolygonConfig.regular(4), 0, 99),
                                ConfigError, r"side index j = 99 is not in range\(4\)"),
    "xi-bracket-negative-index": (lambda: pg.xi_bracket(pg.PolygonConfig.regular(4), -1, 0),
                                  ConfigError, r"side index i = -1 is not in range\(4\)"),
    "orbit-negative-steps": (lambda: billiard.orbit(circle(), CHORD, -1), ConfigError,
                             "steps = -1 is not an integer >= 0"),
    "rotation-number-no-iters": (lambda: pd.rotation_number(circle(), CHORD, iters=0),
                                 ConfigError, "iters = 0 is not an integer >= 1"),
    "closure-two-angles": (lambda: pd.closure_by_iteration(circle(), [0.0, 2.0]),
                           ConfigError, "n = 2 is not an integer >= 3"),
    "oval-json-missing-key": (lambda: SupportOval.from_json({"type": "fourier"}), ValueError,
                              "lacks the key 'a0'"),
    "spec-json-no-harmonics": (lambda: forge.FourPeriodicSpec.from_json({"type": "four-periodic"}),
                               ValueError, "lacks the key 'harmonics'"),
    "spec-json-harmonic-no-k": (lambda: forge.FourPeriodicSpec.from_json(
                                    {"type": "four-periodic", "harmonics": [{"sin": 0.1}]}),
                                ValueError, "lacks the key 'k'"),
    "oval-json-not-object": (lambda: SupportOval.from_json([1, 2]), ValueError,
                             "must be a JSON object"),
    "spec-not-object": (lambda: forge.table_from_spec([3]), ValueError, "must be a JSON object"),
    "oval-json-null-a0": (lambda: SupportOval.from_json({"type": "fourier", "a0": None}),
                          ValueError, "'a0' must be a number, not NoneType"),
    "oval-json-int-cos": (lambda: SupportOval.from_json({"type": "fourier", "a0": 1.0, "cos": 5}),
                          ValueError, "'cos' must be a list of numbers, not int"),
    "oval-json-string-sample": (lambda: SupportOval.from_json(
                                    {"type": "samples", "p": [1.0] * 31 + ["1.5"]}),
                                ValueError, "'p' must be a list of numbers, not a list holding str"),
    "oval-json-bool-a0": (lambda: SupportOval.from_json({"type": "fourier", "a0": True}),
                          ValueError, "'a0' must be a number, not bool"),
    "oval-json-huge-a0": (lambda: SupportOval.from_json({"type": "fourier", "a0": 10**400}),
                          ValueError, "'a0' holds an integer beyond float range"),
    "spec-json-null-sin": (lambda: forge.table_from_spec(
                               {"type": "four-periodic", "harmonics": [{"k": 2, "sin": None}]}),
                           ValueError, "harmonic 'sin' must be a number"),
    "spec-json-object-p": (lambda: forge.table_from_spec({"type": "radon-arc", "p": {"a": 1}}),
                           ValueError, "'p' must be a list of numbers, not dict"),
    "spec-nan-coefficient": (lambda: forge.FourPeriodicSpec.from_harmonics({2: (NAN, 0.0)}),
                             ArcConstraintError, r"f\(x \+ pi/2\) = -f\(x\) violated"),
    "spec-json-harmonics-not-list": (lambda: forge.FourPeriodicSpec.from_json(
                                         {"type": "four-periodic", "harmonics": 5}),
                                     ValueError, "must be a list of objects"),
    "action-nan-angle": (lambda: pd.total_action(circle(), [NAN, 2.0, 4.0]), ChordDomainError,
                         "offending value nan"),
    "grad-nan-gap": (lambda: genfun.grad_arr(circle(), [NAN, 0.1], [1.0, 1.2]),
                     ChordDomainError, "offending value nan"),
    "chord-nan-gap": (lambda: ChordConfig(NAN, 1.0), ChordDomainError, "offending value nan"),
    "twist-no-samples": (lambda: billiard.twist_report(circle(), samples=0), ConfigError,
                         "samples = 0 is not an integer >= 1"),
    "scan-nan-window": (lambda: pd.invariant_curve_scan(circle(), 4, alpha_lo=NAN), ValueError,
                        r"scan window \[nan, .*must be finite"),
    "scan-inf-window": (lambda: pd.invariant_curve_scan(circle(), 4, alpha_hi=np.inf),
                        ValueError, r"scan window .*inf\) must be finite"),
    "period-shared-factor": (lambda: pd.find_periodic(circle(), 6, m=2), ConfigError,
                             r"gcd\(n, m\) = 1"),
    "period-mean-gap-past-pi": (lambda: pd.find_periodic(circle(), 3, m=2), ConfigError,
                                r"mean gap 2\*pi\*2/3 is not below pi"),
    "seed-longer-than-period": (lambda: pd.find_periodic(circle(), 3, seed_angles=[0, 1.5, 3, 4.5]),
                                ConfigError, "seed_angles must be 3 finite angles"),
    "seed-2d": (lambda: pd.find_periodic(circle(), 3, seed_angles=[[0.0, 2.0, 4.0]]),
                ConfigError, "seed_angles must be 3 finite angles"),
    "seed-nan-angle": (lambda: pd.find_periodic(circle(), 3, seed_angles=[0.0, NAN, 4.0]),
                       ConfigError, "seed_angles must be 3 finite angles"),
    "find-periodic-inf-tol": (lambda: pd.find_periodic(perturbed_circle(0.05, 3, 0.7), 5, 2,
                                                       tol=np.inf),
                              ConfigError, "tol = inf is not finite and positive"),
    "find-periodic-nan-tol": (lambda: pd.find_periodic(circle(), 3, tol=NAN), ConfigError,
                              "tol = nan is not finite and positive"),
    "find-periodic-zero-tol": (lambda: pd.find_periodic(circle(), 3, tol=0.0), ConfigError,
                               "tol = 0.0 is not finite and positive"),
    "scan-inf-tol": (lambda: pd.invariant_curve_scan(circle(), 4, closure_tol=np.inf),
                     ConfigError, "closure_tol = inf is not finite and positive"),
    "scan-nan-tol": (lambda: pd.invariant_curve_scan(circle(), 4, closure_tol=NAN),
                     ConfigError, "closure_tol = nan is not finite and positive"),
    "scan-negative-tol": (lambda: pd.invariant_curve_scan(circle(), 4, closure_tol=-1e-8),
                          ConfigError, "closure_tol = -1e-08 is not finite and positive"),
    "oracle-two-gon": (lambda: pd.brute_oracle(circle(), 2), ConfigError,
                       "n = 2 is not an integer >= 3"),
    "contact-nan-x": (lambda: forge.parallelogram_orbit(SPEC, NAN), ConfigError,
                      "family parameter x = nan is not finite"),
    # the contact graph y = f'(x) reaches |y| = 2
    "contact-y-past-two": (lambda: forge.FourPeriodicSpec.from_harmonics({2: (0.0, 1.0)}),
                           FPrimeBoundError, r"max \|f'\| = 2\.000000 >= 2"),
    "family-inf-x": (lambda: forge.ParallelogramFamily(SPEC).state(np.inf), ConfigError,
                     "family parameter x = inf is not finite"),
    "boundary-nan-x": (lambda: forge.boundary_from_family(SPEC, [0.5, NAN]), ConfigError,
                       r"family parameter x = \[0\.5, nan\] is not finite"),
    "fourier-2d-coefficients": (lambda: SupportOval.from_fourier(1.0, [[0.1]]),
                                OvalValidationError, r"1-d coefficient lists, got shapes \(1, 1\)"),
    "triangle-degenerate": (lambda: pg.triangle_WU(0.0, 0.0, np.pi), ConfigError,
                            r"must lie in \(0, pi/2\)"),
    "polygon-wrap-gap": (lambda: pg.PolygonConfig(SQUARE[:3], np.ones(3)), ConfigError,
                         "must lie in"),
    "parallelogram-zero-gap": (lambda: forge.parallelogram_fields(
                                   forge.ParallelogramState(1.0, 1.0, 1.0, 1.0)),
                               ConfigError, r"gap must lie in \(0, pi\)"),
    "phase-negative-radius": (lambda: billiard.pair_from_phase(circle(), 0.0, -1.0),
                              StepFailureError, "radius -1.0 outside the admissible range"),
    "arc-reversed": (lambda: circle().arc_length(1.0, 0.5), ConfigError, "need alpha1 < alpha2"),
    "points-bad-shape": (lambda: circle().is_exterior(np.ones((2, 3))), ConfigError,
                         r"got shape \(2, 3\)"),
    "phase-nan-angle": (lambda: billiard.pair_from_phase(circle(), NAN, 1.0), ConfigError,
                        "alpha = nan is not finite"),
    "phase-inf-radius": (lambda: billiard.pair_from_phase(circle(), 0.0, np.inf), ConfigError,
                         "R = inf is not finite"),
    "phase-nan-radius": (lambda: billiard.pair_from_phase(circle(), 0.0, NAN), ConfigError,
                         "R = nan is not finite"),
    "scan-minus-inf-window": (lambda: pd.invariant_curve_scan(circle(), 4, alpha_lo=-np.inf),
                              ConfigError, r"scan window \[-inf, .*must be finite"),
    "scan-empty-window": (lambda: pd.invariant_curve_scan(circle(), 4, samples=8,
                                                          alpha_lo=0.0, alpha_hi=0.0),
                          ConfigError, r"window \[0\.0, 0\.0\) must be finite and non-empty"),
    "scan-reversed-window": (lambda: pd.invariant_curve_scan(circle(), 4, samples=8,
                                                             alpha_lo=1.0, alpha_hi=0.0),
                             ConfigError, r"window \[1\.0, 0\.0\) must be finite and non-empty"),
    "exterior-nan-point": (lambda: circle().is_exterior((NAN, 0.0)), ConfigError,
                           r"points must be finite, got \[nan, 0\.0\]"),
    "tangency-inf-point": (lambda: circle().tangent_angles_from((np.inf, 0.0)), ConfigError,
                           r"points must be finite, got \[inf, 0\.0\]"),
    "oracle-nan-point": (lambda: billiard.cartesian_step(circle(), (NAN, 2.0)), ConfigError,
                         r"points must be finite, got \[nan, 2\.0\]"),
    "chords-inverted-window": (lambda: genfun.sample_chords(RNG, 4, 2.0, 1.0), ConfigError,
                               "omega_lo must not exceed omega_hi, got 2.0 > 1.0"),
    "chords-nan-window": (lambda: genfun.sample_chords(RNG, 4, NAN), ConfigError,
                          "omega_lo must not exceed omega_hi"),
    "chords-inf-window-end": (lambda: genfun.sample_chords(RNG, 4, 0.1, np.inf), ConfigError,
                              "omega_hi = inf is not finite"),
    "chords-minus-inf-window-start": (lambda: genfun.sample_chords(RNG, 4, -np.inf, 1.0),
                                      ConfigError, "omega_lo = -inf is not finite"),
    "integral-inf-end": (lambda: circle().support_integral(0.0, np.inf), ConfigError,
                         "b = inf is not finite"),
    "spline-integral-nan-start": (lambda: SupportOval.from_samples(np.ones(32))
                                  .support_integral(np.array([0.0, NAN]), 1.0),
                                  ConfigError, "a = nan is not finite"),
    "spline-integral-inf-end": (lambda: SupportOval.from_samples(np.ones(32))
                                .support_integral(0.0, np.inf), ConfigError,
                                "b = inf is not finite"),
    "p-nan-angle": (lambda: circle().p(NAN), ConfigError, "alpha = nan is not finite"),
    "spline-p-inf-angle": (lambda: SupportOval.from_samples(np.ones(32)).p(np.inf), ConfigError,
                           "alpha = inf is not finite"),
    "point-at-nan-in-array": (lambda: circle().point_at(np.array([0.0, NAN, 1.0])), ConfigError,
                              "alpha = nan is not finite"),
    "support-margin-nan-angle": (lambda: circle().support_margin((2.0, 0.0), NAN), ConfigError,
                                 "alpha = nan is not finite"),
    "spline-support-margin-inf-in-array": (
        lambda: SupportOval.from_samples(np.ones(32)).support_margin((2.0, 0.0), [0.0, np.inf]),
        ConfigError, "alpha = inf is not finite"),
    "curvature-radius-inf-angle": (lambda: ellipse(1.0, 0.5).curvature_radius(np.inf),
                                   ConfigError, "alpha = inf is not finite"),
    "spline-curvature-radius-nan-in-array": (
        lambda: SupportOval.from_samples(np.ones(32)).curvature_radius(np.array([1.0, NAN])),
        ConfigError, "alpha = nan is not finite"),
    "fd-hess-zero-step": (lambda: genfun.fd_hess_arr(circle(), 0.0, 1.0, h=0.0), ConfigError,
                          "h = 0.0 is not finite and positive"),
    "fd-hess-nan-step": (lambda: genfun.fd_hess_arr(circle(), 0.0, 1.0, h=NAN), ConfigError,
                         "h = nan is not finite and positive"),
    "fd-hess-inf-step": (lambda: genfun.fd_hess_arr(circle(), 0.0, 1.0, h=np.inf), ConfigError,
                         "h = inf is not finite and positive"),
    "iterate-array-and-float-ends": (lambda: billiard.iterate(circle(), np.array([0.1, 0.2, 0.3]),
                                                              1.5, 2),
                                     ConfigError, r"chord ends of shapes \(3,\) and \(\) differ"),
    "iterate-ends-of-two-lengths": (lambda: billiard.iterate(circle(), np.array([0.1, 0.2]),
                                                             np.array([1.0, 1.1, 1.2]), 1),
                                    ConfigError, r"chord ends of shapes \(2,\) and \(3,\) differ"),
    "rotation-number-array-and-float-ends": (lambda: pd.rotation_number(
                                                 circle(), ChordConfig(np.array([0.1, 0.2]), 1.5)),
                                             ConfigError, r"shapes \(2,\) and \(\) differ"),
    "spec-negative-harmonic": (lambda: forge.FourPeriodicSpec.from_harmonics({-2: (0.0, 0.1)}),
                               ArcConstraintError, "congruent to 2 mod 4"),
    # 2050 aliases onto harmonic 2 on the 4096-node grid that samples the table
    "spec-harmonic-past-half-grid": (lambda: forge.FourPeriodicSpec.from_harmonics(
                                         {2: (0.0, 0.1), 2050: (0.0, 1e-8)}),
                                     ArcConstraintError, r"in \(0, 2048\) congruent to 2 mod 4"),
}


@pytest.mark.filterwarnings("error")  # the input is refused before any arithmetic warns
@pytest.mark.parametrize("call, error, reason", CASES.values(), ids=CASES.keys())
def test_rejected_input_raises_typed_error(call, error, reason):
    with pytest.raises(error, match=reason):
        call()


# -- the table and spec JSON readers -------------------------------------------

#: a valid descriptor for each reader and format
DESCRIPTORS = [
    (SupportOval.from_json, {"type": "fourier", "a0": 1.0, "cos": [0.0, 0.05], "sin": [0.0, 0.02]}),
    (SupportOval.from_json, {"type": "samples", "p": [1.0] * 32}),
    (forge.table_from_spec, {"type": "four-periodic", "harmonics": [{"k": 2, "cos": 0.0,
                                                                     "sin": 0.1}]}),
    (forge.table_from_spec, {"type": "radon-arc", "p": [0.5] * 17}),
]
JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3), st.integers(), st.floats(),
    st.sampled_from([10**400, -(10**400)]),
)
JSON_VALUES = st.one_of(
    st.recursive(JSON_SCALARS, lambda inner: st.lists(inner, max_size=4)
                 | st.dictionaries(st.text(max_size=3), inner, max_size=3), max_leaves=8),
    # a list of numbers long enough for the spline, with one odd item
    st.builds(lambda xs, i, odd: xs[:i] + [odd] + xs[i:],
              st.lists(st.floats(0.9, 1.1), min_size=20, max_size=40), st.integers(0, 20),
              JSON_SCALARS),
)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_any_json_value_gives_a_table_or_a_typed_error(data):
    """Any JSON value in any one key of a table or spec descriptor (or of a
    harmonic) gives a table, or a ValueError or `OuterLengthError` naming
    the reason; never a TypeError, KeyError or AttributeError."""
    reader, obj = data.draw(st.sampled_from(DESCRIPTORS))
    obj = copy.deepcopy(obj)
    holder = data.draw(st.sampled_from([obj] + obj.get("harmonics", [])))
    holder[data.draw(st.sampled_from(sorted(holder)))] = data.draw(JSON_VALUES)
    try:
        table = reader(obj)
    except (ValueError, OuterLengthError):
        return
    assert isinstance(table, SupportOval)


# -- count arguments ---------------------------------------------------------

#: (entry point called with the count, least valid count, end of the valid
#: range or None, a small valid count), one per `errors.checked_count` call
COUNTS = {
    "iterate-steps": (lambda k: billiard.iterate(circle(), 0.0, 1.0, k), 0, None, 2),
    "twist-samples": (lambda k: billiard.twist_report(circle(), samples=k), 1, None, 4),
    "find-periodic-n": (lambda k: pd.find_periodic(circle(), k), 3, None, 3),
    "find-periodic-m": (lambda k: pd.find_periodic(circle(), 5, m=k), 1, None, 2),
    "closure-m": (lambda k: pd.closure_by_iteration(circle(), [0.0, 2.0, 4.0], m=k), 1, None, 1),
    "oracle-n": (lambda k: pd.brute_oracle(circle(), k, grid_density=1), 3, None, 3),
    "oracle-grid-density": (lambda k: pd.brute_oracle(circle(), 3, grid_density=k), 1, None, 1),
    "chords-n": (lambda k: genfun.sample_chords(RNG, k), 0, None, 4),
    "scan-samples": (lambda k: pd.invariant_curve_scan(circle(), 4, samples=k), 1, None, 2),
    "scan-n": (lambda k: pd.invariant_curve_scan(circle(), k, samples=2), 3, None, 3),
    "rotation-iters": (lambda k: pd.rotation_number(circle(), CHORD, iters=k), 1, None, 3),
    "battery-samples": (lambda k: verify.battery(circle(), k, 0), 1, None, 20),
    "perturbed-harmonic": (lambda k: perturbed_circle(0.05, k), 1, None, 2),
    "xi-bracket-i": (lambda k: pg.xi_bracket(pg.PolygonConfig.regular(4), k, 1), 0, 4, 2),
    "xi-bracket-j": (lambda k: pg.xi_bracket(pg.PolygonConfig.regular(4), 1, k), 0, 4, 3),
    "flow-commutator-i": (lambda k: pg.flow_commutator(pg.PolygonConfig.regular(4), k, 1),
                          0, 4, 2),
    "flow-commutator-j": (lambda k: pg.flow_commutator(pg.PolygonConfig.regular(4), 1, k),
                          0, 4, 3),
    # n < 16 passes the count check and is refused by the spline
    "from-callable-n": (lambda k: SupportOval.from_callable(np.ones_like, k), 0, None, 16),
    "regular-n": (lambda k: pg.PolygonConfig.regular(k), 3, None, 4),
}


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_a_count_that_is_not_an_integer_in_range_raises_config_error(data):
    """NaN, infinities, floats (integral ones too), None, strings and integers
    below the range (or at its end) all end in ConfigError naming the
    argument: never a TypeError, NumPy's UFuncTypeError or an IndexError."""
    call, least, below, _ = data.draw(st.sampled_from(list(COUNTS.values())))
    bad = [NAN, np.inf, -np.inf, 2.5, 3.0, 1e300, least - 1, None, "3"]
    value = data.draw(st.one_of(st.sampled_from(bad + ([below] if below else [])),
                                st.integers(max_value=least - 1)))
    with pytest.raises(ConfigError, match=r"= .* is not (an integer >=|in range)"):
        call(value)


@pytest.mark.parametrize("call, valid", [(c[0], c[3]) for c in COUNTS.values()],
                         ids=COUNTS.keys())
def test_a_small_valid_count_returns(call, valid):
    call(valid)
