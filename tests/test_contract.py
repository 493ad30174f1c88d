"""Inputs outside an entry point's domain end in the typed error it already raises."""

import numpy as np
import pytest

from outerlength import forge
from outerlength import polygons as pg
from outerlength.errors import ArcConstraintError

NAN = float("nan")
SQUARE = np.array([0.0, np.pi / 2, np.pi, 3 * np.pi / 2])
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
}


@pytest.mark.filterwarnings("error")  # the input is refused before any arithmetic warns
@pytest.mark.parametrize("call, error, reason", CASES.values(), ids=CASES.keys())
def test_rejected_input_raises_typed_error(call, error, reason):
    with pytest.raises(error, match=reason):
        call()
