import json
import warnings

import numpy as np
import pytest

from outerlength import cli
from outerlength.cli import EXIT_IO, EXIT_NUMERIC, EXIT_VALIDATION, main
from outerlength.oval import SupportOval, ellipse


@pytest.fixture
def circle_table(tmp_path):
    path = tmp_path / "circle.json"
    path.write_text(json.dumps({"type": "fourier", "a0": 1.0, "cos": [], "sin": []}))
    return str(path)


@pytest.fixture
def forged_table(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(
        json.dumps(
            {"type": "four-periodic", "harmonics": [{"k": 2, "sin": 0.1, "cos": 0.0}]}
        )
    )
    out = tmp_path / "table.json"
    assert main(["forge", "--spec", str(spec), "--out", str(out)]) == 0
    return str(out)


class TestForge:
    def test_zero_spec_gives_half_circle(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(
            json.dumps({"type": "four-periodic", "harmonics": [{"k": 2, "sin": 0.0}]})
        )
        out = tmp_path / "table.json"
        assert main(["forge", "--spec", str(spec), "--out", str(out)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"]
        oval = SupportOval.load(out)
        assert abs(oval.p(0.3) - 0.5) < 1e-12

    def test_ellipse_spec_semi_axes(self, tmp_path, capsys):
        t = 0.8
        spec = tmp_path / "spec.json"
        spec.write_text(
            json.dumps(
                {
                    "type": "four-periodic",
                    "harmonics": [{"k": 2, "sin": float(np.cos(2 * t))}],
                }
            )
        )
        out = tmp_path / "table.json"
        assert main(["forge", "--spec", str(spec), "--out", str(out)]) == 0
        report = json.loads(capsys.readouterr().out)
        # constructed table is the ellipse (sin^2 t, cos^2 t): min support is
        # the small semi-axis
        assert report["min_support"] == pytest.approx(np.cos(t) ** 2, abs=1e-8)
        oval = SupportOval.load(out)
        assert oval.p(0.0) == pytest.approx(np.sin(t) ** 2, abs=1e-8)

    def test_fprime_bound_exit(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(
            json.dumps({"type": "four-periodic", "harmonics": [{"k": 2, "sin": 1.5}]})
        )
        out = tmp_path / "table.json"
        assert main(["forge", "--spec", str(spec), "--out", str(out)]) == 2
        assert "f-prime bound violated" in capsys.readouterr().err

    def test_radon_arc_spec(self, tmp_path):
        nodes = np.linspace(0, np.pi / 2, 65)
        samples = 0.5 + 0.01 * np.cos(2 * nodes) - (0.01 / 9) * np.cos(6 * nodes)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"type": "radon-arc", "p": samples.tolist()}))
        out = tmp_path / "table.json"
        assert main(["forge", "--spec", str(spec), "--out", str(out)]) == 0

    @pytest.mark.parametrize("spec_obj, reason", [
        ({"type": "four-periodic"}, "lacks the key 'harmonics'"),
        ({"type": "four-periodic", "harmonics": [{"sin": 0.1}]}, "lacks the key 'k'"),
        ({"type": "radon-arc"}, "lacks the key 'p'"),
        ([3], "must be a JSON object"),
        ({"type": "four-periodic", "harmonics": 5}, "must be a list of objects"),
        ({"type": "four-periodic", "harmonics": [{"k": 2, "sin": None}]},
         "harmonic 'sin' must be a number"),
        ({"type": "radon-arc", "p": {"a": 1}}, "'p' must be a list of numbers"),
        ({"type": "four-periodic", "harmonics": [{"k": 2, "cos": float("nan")}]},
         "harmonic 2 cos = nan is not finite"),
        ({"type": "four-periodic", "harmonics": [{"k": 2, "sin": float("inf")}]},
         "harmonic 2 sin = inf is not finite"),
        ({"type": "four-periodic", "harmonics": [{"k": 2, "sin": 0.1}, {"k": 2, "sin": 0.05}]},
         "harmonic 'k' = 2 repeats"),
        ({"type": "four-periodic", "harmonics": [{"k": 2, "sine": 0.1}]},
         "harmonic has the unknown key 'sine'"),
        ({"type": "radon-arc", "p": [0.5] * 9, "scale": 2.0},
         "radon-arc spec has the unknown key 'scale'"),
    ], ids=["no-harmonics", "harmonic-no-k", "radon-arc-no-p", "not-object", "harmonics-int",
            "null-sin", "object-p", "nan-cos", "inf-sin", "repeated-k", "unknown-harmonic-key",
            "unknown-spec-key"])
    def test_spec_missing_key_exits_2(self, tmp_path, capsys, spec_obj, reason):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(spec_obj))
        out = tmp_path / "table.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["forge", "--spec", str(spec), "--out", str(out)]) == 2
        assert reason in capsys.readouterr().err
        assert not out.exists()
        # the spec is refused before any arithmetic can warn
        assert [str(w.message) for w in caught] == []

    def test_missing_spec_file(self, tmp_path):
        assert main(
            ["forge", "--spec", str(tmp_path / "nope.json"), "--out", "t.json"]
        ) == 4


class TestIterate:
    def test_square_revisits_four_points(self, circle_table, tmp_path):
        out = tmp_path / "orbit.csv"
        code = main(
            [
                "iterate", "--table", circle_table,
                "--state", f"0,{np.pi / 2}", "--steps", "8",
                "--out", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "step,alpha1,alpha2,R,M_x,M_y"
        rows = [line.split(",") for line in lines[1:-1]]
        assert len(rows) == 9
        pts = np.array([[float(r[4]), float(r[5])] for r in rows])
        assert np.allclose(pts[:4], pts[4:8], atol=1e-9)
        assert lines[-1].startswith("# closure_residual=")

    def test_family_state_closure_in_footer(self, forged_table, tmp_path):
        # family chord at x = 0.3 for f = 0.1 sin 2x
        fp = 0.2 * np.cos(0.6)
        w = np.arccos(fp / 2)
        a1 = 0.3 - w / 2
        out = tmp_path / "orbit.csv"
        assert main(
            [
                "iterate", "--table", forged_table,
                f"--state={a1},{a1 + w}", "--steps", "4",
                "--out", str(out),
            ]
        ) == 0
        footer = out.read_text().strip().splitlines()[-1]
        assert float(footer.split("=")[1]) < 1e-8

    def test_point_start(self, circle_table, tmp_path):
        out = tmp_path / "orbit.csv"
        assert main(
            [
                "iterate", "--table", circle_table,
                "--point", "2,0", "--steps", "3", "--out", str(out),
            ]
        ) == 0
        first = out.read_text().splitlines()[1].split(",")
        assert float(first[4]) == pytest.approx(2.0, abs=1e-9)

    def test_interior_point_rejected(self, circle_table, capsys):
        assert main(
            ["iterate", "--table", circle_table, "--point", "0.5,0", "--steps", "2"]
        ) == 3

    def test_point_too_far_out_is_numeric_and_named(self, circle_table, capsys):
        """Its two tangents are parallel to rounding."""
        argv = ["iterate", "--table", circle_table, "--point", "1e200,0", "--steps", "2"]
        assert main(argv) == EXIT_NUMERIC
        assert "point [1e+200, 0.0] is too far out" in capsys.readouterr().err

    def test_missing_state(self, circle_table):
        assert main(["iterate", "--table", circle_table, "--steps", "2"]) == 2

    @pytest.mark.parametrize("option, value", [("--state", "nan,1"), ("--state", "0,inf"),
                                               ("--point", "nan,0")])
    def test_start_that_is_not_finite_is_rejected(self, circle_table, option, value, capsys):
        argv = ["iterate", "--table", circle_table, option, value, "--steps", "2"]
        assert main(argv) == EXIT_VALIDATION
        assert f"{option} wants two finite comma-separated numbers" in capsys.readouterr().err

    def test_svg_of_one_call_is_not_written_by_the_next(self, circle_table, tmp_path):
        svg = tmp_path / "orbit.svg"
        argv = ["iterate", "--table", circle_table, "--state", "0,1.5", "--steps", "2",
                "--out", str(tmp_path / "orbit.csv")]
        assert main(argv + ["--svg", str(svg)]) == 0
        svg.unlink()
        assert main(argv) == 0
        assert not svg.exists()


class TestFindPeriodic:
    def test_circle_triangle_perimeter(self, circle_table, tmp_path, capsys):
        out = tmp_path / "orbit.json"
        assert main(
            ["find-periodic", "--table", circle_table, "--n", "3", "--out", str(out)]
        ) == 0
        record = json.loads(out.read_text())
        assert record["n"] == 3 and record["m"] == 1
        assert record["perimeter"] == pytest.approx(6 * np.sqrt(3), abs=1e-9)
        assert record["residual"] < 1e-11
        assert len(record["angles"]) == 3

    def test_forged_table_four_periodic(self, forged_table, capsys):
        assert main(["find-periodic", "--table", forged_table, "--n", "4"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["perimeter"] == pytest.approx(4.0, abs=1e-8)

    @pytest.mark.parametrize("cos", [[], [0, 0, 0.05]])
    def test_seed_outside_the_chord_domain_is_numeric(self, cos, tmp_path, capsys):
        table = tmp_path / "table.json"
        table.write_text(json.dumps({"type": "fourier", "a0": 1.0, "cos": cos, "sin": []}))
        argv = ["find-periodic", "--table", str(table), "--n", "4",
                "--seed-angles", "0,5e-5,2.1,4.2"]
        assert main(argv) == EXIT_NUMERIC
        assert "numeric failure" in capsys.readouterr().err

    def test_seed_of_another_period_is_rejected(self, circle_table, capsys):
        argv = ["find-periodic", "--table", circle_table, "--n", "3",
                "--seed-angles", "0,1.5,3,4.5"]
        assert main(argv) == EXIT_VALIDATION
        assert "seed_angles must be 3 finite angles" in capsys.readouterr().err

    @pytest.mark.parametrize("command, tol", [("find-periodic", "inf"), ("scan", "nan")])
    def test_tolerance_that_is_not_finite_is_rejected(self, forged_table, command, tol, capsys):
        assert main([command, "--table", forged_table, "--n", "4", "--tol", tol]) == EXIT_VALIDATION
        assert "is not finite and positive" in capsys.readouterr().err


def test_main_runs_the_command_function_it_finds_at_call_time(circle_table, monkeypatch):
    assert main(["scan", "--table", circle_table, "--n", "4", "--samples", "8"]) == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_scan", lambda args: seen.append(args.samples) or 7)
    assert main(["scan", "--table", circle_table, "--n", "4", "--samples", "9"]) == 7
    assert seen == [9]


class TestScan:
    def test_forged_table_flat_zero(self, forged_table, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        assert main(
            [
                "scan", "--table", forged_table, "--n", "4",
                "--samples", "32", "--out", str(out),
            ]
        ) == 0
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert summary["all_closed"] is True
        assert summary["max_closure_run"] == 32
        body = out.read_text().strip().splitlines()
        assert body[0] == "alpha1,residual,closed"

    def test_generic_table_isolated_zeros(self, tmp_path, capsys):
        table = tmp_path / "wobble.json"
        table.write_text(
            json.dumps(
                {"type": "fourier", "a0": 1.0, "cos": [0, 0, 0.05], "sin": []}
            )
        )
        assert main(
            ["scan", "--table", str(table), "--n", "3", "--samples", "96"]
        ) == 0
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert summary["all_closed"] is False
        assert summary["max_closure_run"] <= 2

    def test_impossible_period_rejected(self, circle_table, tmp_path):
        out = tmp_path / "scan.csv"
        code = main(["scan", "--table", circle_table, "--n", "2", "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert not out.exists()

    def test_reports_every_sample(self, forged_table, capsys):
        assert main(
            ["scan", "--table", forged_table, "--n", "4", "--samples", "10"]
        ) == 0
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert summary["samples"] == 10
        assert summary["all_closed"] is True


class TestVerify:
    def test_good_table_passes(self, forged_table, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(
            ["verify", "--table", forged_table, "--samples", "150", "--out", str(out)]
        ) == 0
        report = json.loads(out.read_text())
        assert report["passed"] is True
        names = {c["name"] for c in report["checks"]}
        assert "map-oracle-equivalence" in names
        assert "genfun-sign-pattern" in names

    def test_corrupted_table_fails_first(self, tmp_path, capsys):
        table = tmp_path / "bad.json"
        table.write_text(
            json.dumps({"type": "fourier", "a0": 1.0, "cos": [0, 0.4], "sin": []})
        )
        assert main(["verify", "--table", str(table)]) == 2
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is False
        assert report["checks"][0]["skipped_dependents"] is True

    def test_seed_drawing_a_nonconvex_pentagon_passes(self, tmp_path):
        # seed 100 first draws support values that give the random pentagon a
        # side of negative length; the battery draws again
        table = tmp_path / "wobble.json"
        table.write_text(
            json.dumps({"type": "fourier", "a0": 1.0, "cos": [0, 0, 0.05], "sin": []})
        )
        out = tmp_path / "report.json"
        assert main(
            ["verify", "--table", str(table), "--seed", "100", "--out", str(out)]
        ) == 0
        report = json.loads(out.read_text())
        assert report["passed"] is True
        assert "polygon-perimeter-euclid" in {c["name"] for c in report["checks"]}

    def test_thin_ellipse_passes(self, tmp_path):
        # least curvature radius 4e-4: a fixed 1e-4 difference step read
        # 2.1e-4 on the Hessian check, against its 1e-4 tolerance
        table = tmp_path / "thin.json"
        ellipse(1.0, 0.02).save(table)
        assert main(["verify", "--table", str(table)]) == 0

    def test_unreadable_table(self, tmp_path):
        assert main(["verify", "--table", str(tmp_path / "none.json")]) == 4

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_too_few_samples_rejected(self, circle_table, samples, capsys):
        assert main(["verify", "--table", circle_table, "--samples", samples]) == 2
        assert f"samples = {samples} is not an integer >= 1" in capsys.readouterr().err


class TestRender:
    def test_svg_written(self, forged_table, tmp_path, capsys):
        svg = tmp_path / "fig.svg"
        assert main(
            ["render", "--table", forged_table, "--svg", str(svg), "--orbits", "2",
             "--circles"]
        ) == 0
        text = svg.read_text()
        assert text.startswith("<svg")
        assert "<polygon" in text and "<polyline" in text

    def test_negative_orbit_count_rejected(self, circle_table, tmp_path, capsys):
        svg = tmp_path / "fig.svg"
        assert main(["render", "--table", circle_table, "--svg", str(svg),
                     "--orbits", "-3"]) == EXIT_VALIDATION
        assert "orbits = -3 is not an integer >= 0" in capsys.readouterr().err
        assert not svg.exists()


@pytest.mark.parametrize("table, reason, verify_code", [
    ({"type": "fourier"}, "lacks the key 'a0'", EXIT_IO),
    ([1, 2], "must be a JSON object", EXIT_IO),
    ({"type": "fourier", "a0": None}, "'a0' must be a number", EXIT_IO),
    ({"type": "fourier", "a0": 1.0, "cos": 5}, "'cos' must be a list of numbers", EXIT_IO),
    # no survey is made of these tables, so verify has no report to print
    ({"type": "fourier", "a0": float("nan")}, "a0 = nan is not finite", EXIT_VALIDATION),
    ({"type": "fourier", "a0": 1.0, "cos": [float("inf")]}, "cos[0] = inf is not finite",
     EXIT_VALIDATION),
    ({"type": "samples", "p": [1.0] * 31 + [float("nan")]}, "finite samples", EXIT_VALIDATION),
    ({"type": "fourier", "a0": 1.0, "cosine": [0.0, 0.0, 0.04]}, "unknown key 'cosine'", EXIT_IO),
], ids=["missing-key", "not-object", "null-a0", "int-cos", "nan-support", "inf-cos",
        "nan-sample", "unknown-key"])
@pytest.mark.parametrize("command", [
    ["scan", "--n", "4", "--samples", "8"],
    ["iterate", "--state", "0,1"],
    ["find-periodic", "--n", "3"],
    ["render"],
    ["verify"],
], ids=lambda c: c[0])
def test_malformed_table_exits_with_its_reason(tmp_path, capsys, table, reason, verify_code,
                                               command):
    # a missing key is an unreadable table to verify, an invalid configuration
    # to every other command; a NaN table fails validation everywhere
    path = tmp_path / "table.json"
    path.write_text(json.dumps(table))
    args = [command[0], "--table", str(path), *command[1:]]
    if command[0] == "render":
        args += ["--svg", str(tmp_path / "fig.svg")]
    assert main(args) == (verify_code if command[0] == "verify" else EXIT_VALIDATION)
    captured = capsys.readouterr()  # verify reports a failed validation on stdout
    assert reason in captured.out + captured.err
    # json.dumps writes a non-finite survey value as NaN or Infinity, not JSON
    assert "NaN" not in captured.out and "Infinity" not in captured.out
