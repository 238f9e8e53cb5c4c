"""End-to-end command-line behavior: outputs, determinism, exit codes."""

import json

import numpy as np
import pytest

from ncfuncalc import (
    DomainDescriptor,
    FreePoly,
    MatrixTuple,
    from_poly,
    from_realization,
    mobius_realization,
)
from ncfuncalc.cli import main
from ncfuncalc.formats import (
    domain_to_obj,
    dump_json,
    handle_to_obj,
    load_json,
    matrix_from_obj,
    poly_from_obj,
    realization_to_obj,
    tuple_to_obj,
)

from _helpers import ones_orthogonal_matrix, random_poly, random_tuple, rng_for


@pytest.fixture
def workspace(tmp_path):
    """Handle, point, and directions files shared across commands."""
    rng = rng_for(110)
    commutator = FreePoly(2, {(0, 1): 1.0, (1, 0): -1.0})
    shift_pair = MatrixTuple([[[0, 1], [0, 0]], [[0, 0], [1, 0]]])

    paths = {}

    def put(name, obj):
        p = tmp_path / name
        p.write_text(dump_json(obj))
        paths[name] = str(p)
        return str(p)

    put("commutator.json", handle_to_obj(from_poly(commutator)))
    put("shift_pair.json", tuple_to_obj(shift_pair))
    put("unit_poly.json", handle_to_obj(from_poly(FreePoly.one(2))))
    put("square.json", handle_to_obj(from_poly(FreePoly(1, {(0, 0): 1.0}))))
    put("x_scalar.json", tuple_to_obj(MatrixTuple.from_scalars([0.5], 1)))
    put(
        "dirs_equal.json",
        {"directions": [tuple_to_obj(MatrixTuple.from_scalars([1.0], 1))] * 2},
    )
    put(
        "dirs_small.json",
        {"directions": [tuple_to_obj(MatrixTuple.from_scalars([0.1], 1))]},
    )
    put(
        "dirs_one.json",
        {"directions": [tuple_to_obj(MatrixTuple.from_scalars([1.0], 1))]},
    )
    put("mobius.json", realization_to_obj(mobius_realization(0.5)))
    put("mobius_handle.json", handle_to_obj(from_realization(mobius_realization(0.5))))
    put("point_zero.json", tuple_to_obj(MatrixTuple.zeros(1, 1)))
    put("point_outside.json", tuple_to_obj(MatrixTuple.from_scalars([1.5], 1)))
    put("adversarial.json", {"kind": "control", "payload": {"name": "entrywise-conjugation", "d": 1}})
    put("fixed_corner.json", {"kind": "control", "payload": {"name": "fixed-corner", "d": 1}})
    paths["dir"] = str(tmp_path)
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_unit_poly_gives_identity(self, workspace, capsys, tmp_path):
        out_path = str(tmp_path / "result.json")
        code, out, _ = run(
            capsys,
            "eval",
            "--handle", workspace["unit_poly.json"],
            "--point", workspace["shift_pair.json"],
            "--out", out_path,
        )
        assert code == 0
        assert out.splitlines()[0] == out_path
        np.testing.assert_allclose(matrix_from_obj(load_json(out_path)), np.eye(2))

    def test_commutator_oracle(self, workspace, capsys):
        code, out, err = run(
            capsys,
            "eval",
            "--handle", workspace["commutator.json"],
            "--point", workspace["shift_pair.json"],
        )
        assert code == 0
        np.testing.assert_allclose(matrix_from_obj(json.loads(out)), [[1, 0], [0, -1]])
        assert err.startswith("norm")

    def test_malformed_json_exits_2(self, workspace, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        code, _, err = run(
            capsys, "eval", "--handle", str(bad), "--point", workspace["shift_pair.json"]
        )
        assert code == 2
        assert "column" in err

    def test_missing_file_exits_2(self, workspace, capsys):
        code, _, _ = run(
            capsys, "eval", "--handle", "/nonexistent.json", "--point", workspace["shift_pair.json"]
        )
        assert code == 2

    def test_point_outside_domain_exits_3(self, workspace, capsys, tmp_path):
        bounded = tmp_path / "bounded.json"
        bounded.write_text(
            dump_json(
                handle_to_obj(
                    from_poly(FreePoly.letter(1, 0), DomainDescriptor.polydisk(0.5))
                )
            )
        )
        code, _, err = run(
            capsys, "eval", "--handle", str(bounded), "--point", workspace["point_outside.json"]
        )
        assert code == 3
        assert "domain" in err


    def test_point_orthogonal_to_ones_exits_3(self, capsys, tmp_path):
        # Norm 1.5, with the top singular vector orthogonal to the all-ones vector.
        handle = tmp_path / "unit_polydisk.json"
        handle.write_text(
            dump_json(
                handle_to_obj(from_poly(FreePoly.letter(1, 0), DomainDescriptor.polydisk(1.0)))
            )
        )
        point = tmp_path / "structured.json"
        point.write_text(dump_json(tuple_to_obj(MatrixTuple([0.5 * ones_orthogonal_matrix()]))))
        code, out, err = run(capsys, "eval", "--handle", str(handle), "--point", str(point))
        assert code == 3
        assert out == ""
        assert "domain" in err


class TestNumericFailure:
    def test_singular_resolvent_exits_4(self, capsys, tmp_path):
        # 1 - 0.5 x at x = diag(2, 0.5) is diag(0, 0.75); the unbounded
        # polydisk domain lets the point through to the resolvent.
        handle = tmp_path / "mobius_unbounded.json"
        handle.write_text(
            dump_json(
                {
                    "kind": "realization",
                    "payload": realization_to_obj(mobius_realization(0.5)),
                    "domain": domain_to_obj(DomainDescriptor.polydisk(float("inf"))),
                }
            )
        )
        point = tmp_path / "diag.json"
        point.write_text(dump_json(tuple_to_obj(MatrixTuple([np.diag([2.0, 0.5])]))))
        code, _, err = run(capsys, "eval", "--handle", str(handle), "--point", str(point))
        assert code == 4
        assert "numeric failure" in err

    def test_overflowing_evaluation_exits_4(self, capsys, tmp_path):
        handle = tmp_path / "huge_word.json"
        handle.write_text(dump_json(handle_to_obj(from_poly(FreePoly(1, {(0,) * 100: 1e300})))))
        point = tmp_path / "two.json"
        point.write_text(dump_json(tuple_to_obj(MatrixTuple.from_scalars([2.0], 2))))
        with np.errstate(over="ignore", invalid="ignore"):
            code, _, err = run(capsys, "eval", "--handle", str(handle), "--point", str(point))
        assert code == 4
        assert "numeric failure" in err

    def test_non_finite_input_exits_2(self, workspace, capsys, tmp_path):
        obj = tuple_to_obj(MatrixTuple.from_scalars([0.5], 1))
        obj["components"][0]["entries"][0][0]["re"] = "inf"
        point = tmp_path / "inf_point.json"
        point.write_text(dump_json(obj))
        code, _, err = run(
            capsys, "eval", "--handle", workspace["square.json"], "--point", str(point)
        )
        assert code == 2
        assert "non-finite" in err


class TestDerive:
    def test_second_derivative_of_square(self, workspace, capsys):
        for method in ("block", "fd", "polarized"):
            code, out, _ = run(
                capsys,
                "derive",
                "--handle", workspace["square.json"],
                "--point", workspace["x_scalar.json"],
                "--directions", workspace["dirs_equal.json"],
                "--k", "2",
                "--method", method,
            )
            assert code == 0
            result = matrix_from_obj(json.loads(out))
            np.testing.assert_allclose(result, [[2.0]], atol=1e-8)

    def test_cross_check_small_gap(self, workspace, capsys):
        code, out, _ = run(
            capsys,
            "derive",
            "--handle", workspace["square.json"],
            "--point", workspace["x_scalar.json"],
            "--directions", workspace["dirs_equal.json"],
            "--k", "2",
            "--method", "block",
            "--cross-check",
        )
        assert code == 0
        line = out.splitlines()[0]
        assert line.startswith("cross-check disagreement")
        assert float(line.split()[-1]) <= 1e-5

    def test_cross_check_first_order(self, workspace, capsys):
        # Forward differences at step 1e-3 sit within lam * |h|^2 = 1e-5 of
        # the block jet for the square at |h| = 0.1.
        code, out, _ = run(
            capsys,
            "derive",
            "--handle", workspace["square.json"],
            "--point", workspace["x_scalar.json"],
            "--directions", workspace["dirs_small.json"],
            "--k", "1",
            "--method", "block",
            "--cross-check",
        )
        assert code == 0
        gap = float(out.splitlines()[0].split()[-1])
        assert gap <= 1e-5

    def test_point_near_the_boundary_is_differentiated(self, capsys, tmp_path):
        # 0.95 I lies inside polydisk(1); the jet is scaled to fit, not refused.
        handle = tmp_path / "square_polydisk.json"
        handle.write_text(
            dump_json(
                handle_to_obj(
                    from_poly(FreePoly(1, {(0, 0): 1.0}), DomainDescriptor.polydisk(1.0))
                )
            )
        )
        point = tmp_path / "x095.json"
        point.write_text(dump_json(tuple_to_obj(MatrixTuple.from_scalars([0.95], 2))))
        dirs = tmp_path / "dirs.json"
        dirs.write_text(
            dump_json({"directions": [tuple_to_obj(MatrixTuple.from_scalars([1.0], 2))]})
        )
        code, out, _ = run(
            capsys,
            "derive",
            "--handle", str(handle),
            "--point", str(point),
            "--directions", str(dirs),
            "--k", "1",
        )
        assert code == 0
        np.testing.assert_allclose(matrix_from_obj(json.loads(out)), 1.9 * np.eye(2), atol=1e-12)

    def test_k_zero_is_evaluation(self, workspace, capsys):
        code, out, _ = run(
            capsys,
            "derive",
            "--handle", workspace["square.json"],
            "--point", workspace["x_scalar.json"],
            "--k", "0",
        )
        assert code == 0
        np.testing.assert_allclose(matrix_from_obj(json.loads(out)), [[0.25]])

    def test_broken_jet_structure_exits_5(self, workspace, capsys):
        code, out, err = run(
            capsys,
            "derive",
            "--handle", workspace["fixed_corner.json"],
            "--point", workspace["x_scalar.json"],
            "--directions", workspace["dirs_one.json"],
            "--k", "1",
        )
        assert code == 5
        assert out == ""
        assert err.startswith("jet structure violated: ")

    def test_direction_count_mismatch_exits_2(self, workspace, capsys):
        code, _, _ = run(
            capsys,
            "derive",
            "--handle", workspace["square.json"],
            "--point", workspace["x_scalar.json"],
            "--directions", workspace["dirs_equal.json"],
            "--k", "3",
        )
        assert code == 2


class TestExpand:
    def test_round_trip_polynomial_handle(self, workspace, capsys, tmp_path):
        out_path = str(tmp_path / "expansion.json")
        code, out, _ = run(
            capsys,
            "expand",
            "--handle", workspace["commutator.json"],
            "--maxdeg", "3",
            "--out", out_path,
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == out_path
        recovered = poly_from_obj(load_json(out_path))
        original = FreePoly(2, {(0, 1): 1.0, (1, 0): -1.0})
        for w in set(recovered.terms) | set(original.terms):
            assert abs(recovered.coefficient(w) - original.coefficient(w)) <= 1e-8
        diag = load_json(lines[1])
        assert diag["max_residual"] <= 1e-8

    def test_word_cap_exits_2(self, workspace, capsys):
        code, _, _ = run(
            capsys,
            "expand",
            "--handle", workspace["commutator.json"],
            "--maxdeg", "12",
        )
        assert code == 2

    def test_extraction_failure_exits_5(self, workspace, capsys, tmp_path):
        control = tmp_path / "control.json"
        control.write_text(dump_json({"kind": "control", "payload": {"name": "fixed-corner", "d": 1}}))
        code, _, err = run(capsys, "expand", "--handle", str(control), "--maxdeg", "2")
        assert code == 5
        assert "word" in err


class TestRealize:
    def test_eval_at_zero(self, workspace, capsys):
        code, out, _ = run(
            capsys,
            "eval",
            "--handle", workspace["mobius_handle.json"],
            "--point", workspace["point_zero.json"],
        )
        assert code == 0
        np.testing.assert_allclose(matrix_from_obj(json.loads(out)), [[-0.5]], atol=1e-14)

    def test_eval_outside_ball_exits_3(self, workspace, capsys):
        code, _, err = run(
            capsys,
            "eval",
            "--handle", workspace["mobius_handle.json"],
            "--point", workspace["point_outside.json"],
        )
        assert code == 3
        assert "domain" in err

    def test_check_prints_residual(self, workspace, capsys):
        code, out, _ = run(capsys, "realize-check", "--handle", workspace["mobius.json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] and payload["isometry_residual"] <= 1e-12
        assert payload["tolerance"] == 1e-10

    def test_check_detects_broken(self, workspace, capsys, tmp_path):
        obj = realization_to_obj(mobius_realization(0.5))
        obj["D"]["entries"][0][0]["re"] = 1.0  # doubled D entry
        broken = tmp_path / "broken.json"
        broken.write_text(dump_json(obj))
        code, out, _ = run(capsys, "realize-check", "--handle", str(broken))
        assert code == 1
        assert not json.loads(out)["passed"]

    def test_check_takes_no_tolerance(self, workspace, capsys):
        code, out, _ = run(
            capsys, "realize-check", "--handle", workspace["mobius.json"], "--tol", "1e-3"
        )
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize("verb", ["realize-check", "realize-scan"])
    def test_handle_file_reads_like_bare_file(self, workspace, capsys, verb):
        extra = ("--n", "2", "--samples", "10", "--seed", "1") if verb == "realize-scan" else ()
        bare = run(capsys, verb, "--handle", workspace["mobius.json"], *extra)
        handle = run(capsys, verb, "--handle", workspace["mobius_handle.json"], *extra)
        assert bare[0] == 0
        assert handle == bare

    @pytest.mark.parametrize("verb", ["realize-check", "realize-scan"])
    def test_other_handle_kind_exits_2(self, workspace, capsys, verb):
        extra = ("--n", "2", "--samples", "10") if verb == "realize-scan" else ()
        code, _, err = run(capsys, verb, "--handle", workspace["commutator.json"], *extra)
        assert code == 2
        assert "expected a realization" in err

    def test_scan_deterministic(self, workspace, capsys):
        args = (
            "realize-scan",
            "--handle", workspace["mobius.json"],
            "--n", "2",
            "--samples", "40",
            "--seed", "3",
        )
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        assert json.loads(out1)["passed"]


class TestConfigFile:
    def test_fd_lambda_from_config(self, workspace, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(dump_json({"fd_lambda": 0.5}))
        code, out, _ = run(
            capsys,
            "derive",
            "--handle", workspace["square.json"],
            "--point", workspace["x_scalar.json"],
            "--directions", workspace["dirs_one.json"],
            "--k", "1",
            "--method", "fd",
            "--config", str(cfg),
        )
        assert code == 0
        # forward difference of x^2 at 0.5 with step 0.5: (1 - 0.25) / 0.5
        np.testing.assert_allclose(matrix_from_obj(json.loads(out)), [[1.5]], atol=1e-12)

    def test_suite_settings_from_config(self, workspace, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(dump_json({"suite": {"seed": 11, "trials": 2, "dims": [2, 2]}}))
        code, out, _ = run(
            capsys, "verify", "--handle", workspace["commutator.json"], "--config", str(cfg)
        )
        assert code == 0
        assert all(r["seed"] == 11 for r in json.loads(out))

    @pytest.mark.parametrize(
        "settings, seed",
        [
            ({"seed": 5, "suite": {"trials": 2}}, 5),
            ({"seed": 5, "suite": {"trials": 2, "seed": 11}}, 11),
            ({"suite": {"trials": 2}}, 0),
        ],
    )
    def test_suite_seed_defaults_to_config_seed(self, workspace, capsys, tmp_path, settings, seed):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(dump_json(settings))
        args = ("verify", "--handle", workspace["commutator.json"], "--config", str(cfg))
        code, out, _ = run(capsys, *args)
        assert code == 0
        assert {r["seed"] for r in json.loads(out)} == {seed}
        code, out, _ = run(capsys, *args, "--seed", "3")
        assert {r["seed"] for r in json.loads(out)} == {3}

    def test_suite_that_checks_nothing_exits_2(self, capsys, tmp_path):
        control = tmp_path / "control.json"
        control.write_text(dump_json({"kind": "control", "payload": {"name": "fixed-corner", "d": 1}}))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(dump_json({"suite": {"trials": 0, "max_order": 0}}))
        code, out, err = run(capsys, "verify", "--handle", str(control), "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert "trials" in err

    @pytest.mark.parametrize("verb", ["realize-check", "realize-scan", "verify", "expand"])
    def test_missing_config_file_exits_2(self, workspace, capsys, verb):
        handle = "mobius.json" if verb.startswith("realize") else "commutator.json"
        extra = {
            "realize-scan": ["--n", "2", "--samples", "4"],
            "expand": ["--maxdeg", "1"],
        }.get(verb, [])
        code, out, _ = run(
            capsys, verb, "--handle", workspace[handle], *extra, "--config", "/no/such/cfg.json"
        )
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize(
        "verb, handle, extra",
        [
            ("realize-check", "mobius.json", []),
            ("realize-scan", "mobius.json", ["--n", "2", "--samples", "4"]),
            ("verify", "commutator.json", ["--seed", "4"]),
        ],
    )
    def test_out_from_flag_or_config(self, workspace, capsys, tmp_path, verb, handle, extra):
        base = [verb, "--handle", workspace[handle], *extra]
        code, printed, _ = run(capsys, *base)
        assert code == 0
        flag_path = str(tmp_path / "flag.json")
        code, out, _ = run(capsys, *base, "--out", flag_path)
        assert (code, out) == (0, flag_path + "\n")
        assert load_json(flag_path) == json.loads(printed)
        cfg_path = str(tmp_path / "from_config.json")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(dump_json({"out": cfg_path}))
        code, out, _ = run(capsys, *base, "--config", str(cfg))
        assert (code, out) == (0, cfg_path + "\n")
        assert load_json(cfg_path) == json.loads(printed)

    def test_scan_seed_from_config(self, workspace, capsys, tmp_path):
        base = ["realize-scan", "--handle", workspace["mobius.json"], "--n", "2", "--samples", "4"]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(dump_json({"seed": 9}))
        _, from_config, _ = run(capsys, *base, "--config", str(cfg))
        _, from_flag, _ = run(capsys, *base, "--seed", "9")
        _, default, _ = run(capsys, *base)
        assert from_config == from_flag
        assert json.loads(from_config) != json.loads(default)

    def test_suite_tolerance_key_exits_2(self, workspace, capsys, tmp_path):
        # Thresholds are fixed (verify.THRESHOLDS); a config cannot set one.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(dump_json({"suite": {"tol_direct_sum": 1e-3}}))
        code, out, err = run(
            capsys, "verify", "--handle", workspace["commutator.json"], "--config", str(cfg)
        )
        assert code == 2
        assert out == ""
        assert "tol_direct_sum" in err

    def test_unknown_config_key_exits_2(self, workspace, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(dump_json({"bogus": 1}))
        code, _, _ = run(
            capsys,
            "expand",
            "--handle", workspace["commutator.json"],
            "--maxdeg", "1",
            "--config", str(cfg),
        )
        assert code == 2


class TestSeriesHandleFile:
    def series_handle_path(self, tmp_path):
        from ncfuncalc import DomainDescriptor, SeriesFunction, from_series

        series = SeriesFunction([FreePoly(1, {(0,) * k: 1.0}) for k in range(11)], 1.0)
        F = from_series(series, truncation=10, domain=DomainDescriptor.polydisk(0.5))
        handle = tmp_path / "series.json"
        handle.write_text(dump_json(handle_to_obj(F)))
        return str(handle)

    def test_eval_inside_ball(self, workspace, capsys, tmp_path):
        handle = self.series_handle_path(tmp_path)
        point = tmp_path / "x04.json"
        point.write_text(dump_json(tuple_to_obj(MatrixTuple.from_scalars([0.4], 1))))
        code, out, _ = run(capsys, "eval", "--handle", handle, "--point", str(point))
        assert code == 0
        expected = (1 - 0.4**11) / (1 - 0.4)
        np.testing.assert_allclose(matrix_from_obj(json.loads(out)), [[expected]], atol=1e-12)

    def test_point_on_boundary_exits_3(self, workspace, capsys, tmp_path):
        handle = self.series_handle_path(tmp_path)
        code, _, _ = run(
            capsys, "eval", "--handle", handle, "--point", workspace["x_scalar.json"]
        )
        assert code == 3


class TestVerify:
    def test_polynomial_handle_passes(self, workspace, capsys):
        code, out, _ = run(
            capsys, "verify", "--handle", workspace["commutator.json"], "--seed", "4"
        )
        assert code == 0
        reports = json.loads(out)
        assert reports and all(r["passed"] for r in reports)

    def test_adversarial_handle_fails_with_names(self, workspace, capsys):
        code, out, err = run(
            capsys, "verify", "--handle", workspace["adversarial.json"], "--seed", "4"
        )
        assert code == 1
        assert "failed:" in err
        reports = json.loads(out)
        assert any(not r["passed"] for r in reports)

    def test_raising_check_is_a_verdict(self, workspace, capsys):
        # fixed-corner's derivative check raises; its report has no residual.
        code, out, err = run(capsys, "verify", "--handle", workspace["fixed_corner.json"])
        assert code == 1
        assert "scalar-point-derivative" in err
        raised = [r for r in json.loads(out) if r["worst_residual"] is None]
        assert raised and not any(r["passed"] for r in raised)

    def test_deterministic_output(self, workspace, capsys):
        args = ("verify", "--handle", workspace["commutator.json"], "--seed", "8")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_missing_file_exits_2(self, capsys):
        code, _, _ = run(capsys, "verify", "--handle", "/does/not/exist.json")
        assert code == 2
