"""Inputs outside an entry point's domain end in the typed error it already raises."""

import numpy as np
import pytest

from outerlength import billiard, forge, genfun
from outerlength import periodic as pd
from outerlength import polygons as pg
from outerlength.errors import ArcConstraintError, ChordDomainError, OvalValidationError
from outerlength.genfun import ChordConfig
from outerlength.oval import SupportOval, circle, ellipse

NAN = float("nan")
SQUARE = np.array([0.0, np.pi / 2, np.pi, 3 * np.pi / 2])
CHORD = ChordConfig(0.0, 1.0)
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
    "orbit-negative-steps": (lambda: billiard.orbit(circle(), CHORD, -1), ValueError,
                             "non-negative"),
    "rotation-number-no-iters": (lambda: pd.rotation_number(circle(), CHORD, iters=0),
                                 ValueError, "at least 1"),
    "closure-two-angles": (lambda: pd.closure_by_iteration(circle(), [0.0, 2.0]),
                           ValueError, "at least 3"),
    "oval-json-missing-key": (lambda: SupportOval.from_json({"type": "fourier"}), ValueError,
                              "lacks the key 'a0'"),
    "polygon-json-missing-key": (lambda: pg.PolygonConfig.from_json({"alpha": [0, 2, 4]}),
                                 ValueError, "lacks the key 'p'"),
    "spec-json-no-harmonics": (lambda: forge.FourPeriodicSpec.from_json({"type": "four-periodic"}),
                               ValueError, "lacks the key 'harmonics'"),
    "spec-json-harmonic-no-k": (lambda: forge.FourPeriodicSpec.from_json(
                                    {"type": "four-periodic", "harmonics": [{"sin": 0.1}]}),
                                ValueError, "lacks the key 'k'"),
    "oval-json-not-object": (lambda: SupportOval.from_json([1, 2]), ValueError,
                             "must be a JSON object"),
    "polygon-json-not-object": (lambda: pg.PolygonConfig.from_json([1, 2]), ValueError,
                                "must be a JSON object"),
    "spec-not-object": (lambda: forge.table_from_spec([3]), ValueError, "must be a JSON object"),
    "spec-json-harmonics-not-list": (lambda: forge.FourPeriodicSpec.from_json(
                                         {"type": "four-periodic", "harmonics": 5}),
                                     ValueError, "must be a list of objects"),
    "action-nan-angle": (lambda: pd.total_action(circle(), [NAN, 2.0, 4.0]), ChordDomainError,
                         "offending value nan"),
    "grad-nan-gap": (lambda: genfun.grad_arr(circle(), [NAN, 0.1], [1.0, 1.2]),
                     ChordDomainError, "offending value nan"),
    "chord-nan-gap": (lambda: ChordConfig(NAN, 1.0), ChordDomainError, "offending value nan"),
    "twist-no-samples": (lambda: billiard.twist_report(circle(), samples=0), ValueError,
                         "samples must be at least 1"),
    "twist-inverted-window": (lambda: billiard.twist_report(circle(), omega_lo=2.0, omega_hi=1.0),
                              ValueError, "omega_lo must not exceed omega_hi"),
}


@pytest.mark.filterwarnings("error")  # the input is refused before any arithmetic warns
@pytest.mark.parametrize("call, error, reason", CASES.values(), ids=CASES.keys())
def test_rejected_input_raises_typed_error(call, error, reason):
    with pytest.raises(error, match=reason):
        call()
