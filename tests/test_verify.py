"""The structure battery can fail: perturbing the map or the generating
function's closed forms makes the checks that compare them fail, and a chord
the batched map cannot step is an error, not a defect."""

import numpy as np
import pytest

from outerlength import billiard, genfun, polygons, verify
from outerlength.errors import StepFailureError
from outerlength.oval import ellipse


def failed_checks(oval):
    return {c["name"] for c in verify.battery(oval, 200, 0) if not c["passed"]}


def test_battery_passes_on_a_valid_table(wobble3_table):
    assert failed_checks(wobble3_table) == set()


def test_twist_record_counts_chords_without_image(wobble3_table):
    records = {c["name"]: c for c in verify.battery(wobble3_table, 200, 0)}
    assert records["map-twist"]["nonfinite"] == 0
    assert all("nonfinite" not in c for name, c in records.items() if name != "map-twist")


def test_twist_check_counts_chords_without_image():
    # the window of test_billiard's test_images_without_a_root_are_counted
    report = billiard.twist_report(ellipse(1.0, 0.2), 400, 0, 1.0001e-4, 1.0002e-4)
    assert verify.twist_violations(report) >= report.nonfinite > 0


def test_shifted_map_fails_area_and_oracle(wobble3_table, monkeypatch):
    step = billiard.step_angles_arr
    monkeypatch.setattr(
        billiard, "step_angles_arr", lambda oval, a1, a2: step(oval, a1, a2) + 1e-3 * np.sin(a1)
    )
    failed = failed_checks(wobble3_table)
    assert "map-symplectic" in failed
    assert "map-oracle-equivalence" in failed


def test_scaled_mixed_partial_fails_hessian_check(wobble3_table, monkeypatch):
    hess = genfun.hess_arr

    def scaled(oval, a1, a2):
        s11, s12, s22 = hess(oval, a1, a2)
        return s11, s12 * (1.0 + 0.3 * np.cos(a1)), s22

    monkeypatch.setattr(genfun, "hess_arr", scaled)
    assert "genfun-hessian-fd" in failed_checks(wobble3_table)


def test_scaled_mixed_partial_fails_on_a_thin_table(monkeypatch):
    # the Hessian check's difference step shrinks with the least curvature
    # radius (4e-4 here); the perturbation must still show
    hess = genfun.hess_arr

    def scaled(oval, a1, a2):
        s11, s12, s22 = hess(oval, a1, a2)
        return s11, s12 * (1.0 + 0.3 * np.cos(a1)), s22

    thin = ellipse(1.0, 0.02)
    assert "genfun-hessian-fd" not in failed_checks(thin)
    monkeypatch.setattr(genfun, "hess_arr", scaled)
    assert "genfun-hessian-fd" in failed_checks(thin)


def test_unstepped_chord_raises(wobble3_table, monkeypatch):
    step = billiard.step_angles_arr
    monkeypatch.setattr(
        billiard, "step_angles_arr",
        lambda oval, a1, a2: np.where(a1 > 1.0, np.nan, step(oval, a1, a2)),
    )
    a1 = np.array([0.5, 1.5])
    with pytest.raises(StepFailureError, match="no reflection root"):
        verify.oracle_defect(wobble3_table, a1, a1 + 1.0)


def test_unstepped_chord_raises_in_the_area_check(wobble3_table, monkeypatch):
    step = billiard.step_angles_arr
    monkeypatch.setattr(
        billiard, "step_angles_arr",
        lambda oval, a1, a2: np.where(a1 > 1.0, np.nan, step(oval, a1, a2)),
    )
    a1 = np.array([0.5, 1.5])
    with pytest.raises(StepFailureError, match=r"no reflection root for chord \(1.500000"):
        verify.symplectic_defect(wobble3_table, a1, a1 + 1.0)


def test_worst_triangle_expression_is_the_largest_of_the_loop():
    rng = np.random.default_rng(3)
    uv = rng.uniform(0.05, np.pi / 2 - 0.05, (200, 2))
    triples = [(u, v, np.pi - u - v) for u, v in uv if 0.05 < np.pi - u - v < np.pi / 2 - 0.05]
    worst = verify.worst_triangle_expression(triples)
    assert worst == max(polygons.triangle_WU(*t).expression for t in triples) < 0.0
    assert verify.worst_triangle_expression([]) == -np.inf
