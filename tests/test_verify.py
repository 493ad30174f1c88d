"""The structure battery can fail: perturbing the map or the generating
function's closed forms makes the checks that compare them fail, and a chord
the batched map cannot step is an error, not a defect.  The area check's
shifted solves and the battery's triangle draws are pinned to the routes they
replaced."""

import numpy as np
import pytest

from outerlength import billiard, genfun, polygons, verify
from outerlength.errors import ConfigError, StepFailureError
from outerlength.oval import TWO_PI, circle, ellipse

from conftest import draw_twist_gaps_in


def failed_checks(oval):
    return {c["name"] for c in verify.battery(oval, 200, 0) if not c["passed"]}


def test_battery_passes_on_a_valid_table(wobble3_table):
    assert failed_checks(wobble3_table) == set()


def test_twist_record_counts_chords_without_image(wobble3_table):
    records = {c["name"]: c for c in verify.battery(wobble3_table, 200, 0)}
    assert records["map-twist"]["nonfinite"] == 0
    assert all("nonfinite" not in c for name, c in records.items() if name != "map-twist")


def test_twist_check_counts_chords_without_image(monkeypatch):
    # the gaps of test_billiard's test_images_without_a_root_are_counted
    draw_twist_gaps_in(monkeypatch, (1.0001e-4, 1.0002e-4))
    report = billiard.twist_report(ellipse(1.0, 0.2), 400, 0)
    assert verify.twist_violations(report) >= report.nonfinite > 0


def test_shifted_map_fails_area_and_oracle(wobble3_table, monkeypatch):
    step = billiard.step_angles_arr
    monkeypatch.setattr(
        billiard, "step_angles_arr", lambda oval, a1, a2: step(oval, a1, a2) + 1e-3 * np.sin(a1)
    )
    failed = failed_checks(wobble3_table)
    assert "map-symplectic" in failed
    assert "map-oracle-equivalence" in failed


def test_shifted_private_step_fails_area_check(wobble3_table, monkeypatch):
    # the shifted solves go through `_step_from_jets`, not `step_angles_arr`;
    # this mutant reaches them and the a3 solve alike (a2 - w is a1)
    step = billiard._step_from_jets
    monkeypatch.setattr(
        billiard, "_step_from_jets",
        lambda oval, a2, w, jet1, jet2, start=None:
            step(oval, a2, w, jet1, jet2, start=start) + 1e-3 * np.sin(a2 - w),
    )
    assert "map-symplectic" in failed_checks(wobble3_table)


def two_solve_symplectic_defect(oval, a1, a2):
    """The area check with one `step_angles_arr` solve per shifted chord,
    each from the predictor."""
    h = 1e-5
    a3 = billiard.step_angles_arr(oval, a1, a2)
    plus = billiard.step_angles_arr(oval, a1 + h, a2)
    minus = billiard.step_angles_arr(oval, a1 - h, a2)
    da3 = (plus - minus) / (2 * h)
    det = -genfun.hess_arr(oval, a2, a3)[1] * da3 / genfun.hess_arr(oval, a1, a2)[1]
    return float(np.max(np.abs(det - 1.0)))


@pytest.mark.parametrize("table", ["forge_table", "wobble3_table"])
def test_shifted_solves_are_one_batch_started_at_the_image(table, request, monkeypatch):
    """The a1 +- h chords are one solve of at most 4 fdf calls (7 per solve
    from the predictor), and the defect is that of two separate solves."""
    oval = request.getfixturevalue(table)
    oval = oval[0] if isinstance(oval, tuple) else oval
    a1, a2 = genfun.sample_chords(np.random.default_rng(0), 400)
    reference = two_solve_symplectic_defect(oval, a1, a2)
    calls = []  # fdf calls per solve
    factory = billiard._base_radius_fdf

    def counted(oval):
        fdf = factory(oval)
        calls.append(0)

        def wrapper(*args):
            calls[-1] += 1
            return fdf(*args)

        return wrapper

    monkeypatch.setattr(billiard, "_base_radius_fdf", counted)
    defect = verify.symplectic_defect(oval, a1, a2)
    assert len(calls) == 2  # a3, then the shifted batch
    assert calls[1] <= 4
    assert abs(defect - reference) < 1e-9


def test_one_triangle_draw_is_the_separate_draws():
    for seed in range(50):
        separate, joint = np.random.default_rng(seed), np.random.default_rng(seed)
        uv = [separate.uniform(0.05, np.pi / 2 - 0.05, 2) for _ in range(200)]
        assert np.array_equal(joint.uniform(0.05, np.pi / 2 - 0.05, (200, 2)), uv)
        assert joint.bit_generator.state == separate.bit_generator.state


@pytest.mark.parametrize("seed", [0, 1, 100])
def test_triangle_record_is_that_of_the_separate_draws(seed):
    """The battery's draws rebuilt in their former order, the triangle
    angles one pair per call, give its triangle record to the bit."""
    samples = 50
    rng = np.random.default_rng(seed)
    genfun.sample_chords(rng, samples)
    genfun.sample_chords(rng, max(8, samples // 20), 0.3, np.pi - 0.4)
    gaps = rng.uniform(0.4, 1.6, 5)
    gaps *= TWO_PI / np.sum(gaps)
    alphas = np.concatenate([[0.0], np.cumsum(gaps[:-1])])
    poly = None
    while poly is None:
        try:
            poly = polygons.PolygonConfig(alphas, 1.0 + rng.uniform(-0.2, 0.2, 5))
        except ConfigError:
            pass
    uv = [rng.uniform(0.05, np.pi / 2 - 0.05, 2) for _ in range(200)]
    triples = [(u, v, np.pi - u - v) for u, v in uv if 0.05 < np.pi - u - v < np.pi / 2 - 0.05]
    records = {c["name"]: c for c in verify.battery(circle(), samples, seed)}
    assert records["triangle-expression-negative"]["defect"] == verify.worst_triangle_expression(
        triples)


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
