import json
import os

import numpy as np
import pytest

from qcorr.cli import main
from qcorr.errors import SweepConfigError, TooLarge
from qcorr.statekit import make_density, to_json
from qcorr.sweep import parse_config, render_csv, report_limits, run_sweep

DATA = os.path.join(os.path.dirname(__file__), "data")


def base_config(**overrides):
    payload = {
        "chain": {"n_sites": 8, "j_x": 1.0, "chi": 0.5},
        "sweep": {"variable": "h_z", "from": 0.3, "to": 0.4, "points": 2},
        "separations": [1],
        "measures": ["D"],
    }
    payload.update(overrides)
    return payload


class TestConfigValidation:
    def test_minimal_config(self):
        cfg = parse_config(base_config())
        assert cfg.n_sites == 8
        assert cfg.measures == ("D",)
        assert cfg.separations == (1,)
        integral = base_config(separations=[1.0])
        integral["chain"]["n_sites"] = 8.0
        integral["sweep"]["points"] = 2.0
        assert parse_config(integral) == cfg

    def test_defaults_fill_in(self):
        payload = base_config()
        del payload["separations"]
        del payload["measures"]
        cfg = parse_config(payload)
        assert cfg.separations == (1, 2, 3, 4)
        assert "concurrence" in cfg.measures

    def test_unknown_root_key(self):
        with pytest.raises(SweepConfigError):
            parse_config(base_config(bogus=1))
        with pytest.raises(SweepConfigError):
            parse_config(base_config(output=5))

    def test_unknown_nested_key(self):
        payload = base_config()
        payload["chain"]["coupling"] = 2.0
        with pytest.raises(SweepConfigError):
            parse_config(payload)

    def test_bad_measure(self):
        for measures in (["D", "magic"], "D", "I1", ["D", "D"]):
            with pytest.raises(SweepConfigError):
                parse_config(base_config(measures=measures))

    def test_bad_separation(self):
        for separations in ([5], 2, ["x"], [1.5], [True], [1.5, True], [1, 1]):
            with pytest.raises(SweepConfigError):
                parse_config(base_config(separations=separations))

    def test_gamma_requires_h_mag(self):
        payload = base_config()
        payload["sweep"]["variable"] = "gamma"
        payload["sweep"]["from"] = 0.0
        payload["sweep"]["to"] = 30.0
        with pytest.raises(SweepConfigError):
            parse_config(payload)
        for fixed in ({"h_mag": "big"}, 3, {"h_mag": float("inf")}, {"h_mag": True}):
            with pytest.raises(SweepConfigError):
                parse_config({**payload, "fixed": fixed})

    def test_n_sites_bounds(self):
        for n_sites in (16, 8.9, True, "8"):
            payload = base_config()
            payload["chain"]["n_sites"] = n_sites
            with pytest.raises(SweepConfigError):
                parse_config(payload)

    def test_per_point_failure_names_field_value(self):
        # Bypass config validation to hit a runtime failure at a sweep point:
        # the error message must carry the offending field value.
        from dataclasses import replace

        from qcorr.errors import TooLarge

        cfg = replace(parse_config(base_config()), n_sites=16)
        with pytest.raises(TooLarge, match=r"sweep point h_z = 0\.3"):
            run_sweep(cfg)

    def test_bad_points_and_range(self):
        for points in (1, 2.7, True):
            payload = base_config()
            payload["sweep"]["points"] = points
            with pytest.raises(SweepConfigError):
                parse_config(payload)
        for start, stop in ((1.0, 0.5), (0.3, float("inf")), (float("nan"), 0.4)):
            payload = base_config()
            payload["sweep"]["from"] = start
            payload["sweep"]["to"] = stop
            with pytest.raises(SweepConfigError):
                parse_config(payload)

    def test_non_finite_chain_and_bad_search_values(self):
        for key, value in (("chi", float("nan")), ("j_x", float("inf")), ("chi", "0.5")):
            payload = base_config()
            payload["chain"][key] = value
            with pytest.raises(SweepConfigError):
                parse_config(payload)
        for search in (
            {"grid_theta": 10.5},
            {"grid_phi": True},
            {"refine_max_iter": 2.5},
            {"refine_tol": float("nan")},
        ):
            with pytest.raises(SweepConfigError):
                parse_config(base_config(search=search))


class TestRunSweep:
    def test_two_point_schema(self):
        rows = run_sweep(parse_config(base_config()))
        assert len(rows) == 2
        for row in rows:
            assert row.branch == ""
            assert row.parity in ("+1", "-1")
            cell = row.cells[(1, "D")]
            assert np.isfinite(cell.value) and cell.value >= -1e-9
            assert cell.theta is not None

    def test_csv_deterministic(self):
        cfg = parse_config(base_config(measures=["D", "I2", "concurrence"]))
        first = render_csv(cfg, run_sweep(cfg))
        second = render_csv(cfg, run_sweep(cfg))
        assert first == second

    def test_csv_header_names(self):
        cfg = parse_config(base_config(measures=["I2", "concurrence"]))
        header = render_csv(cfg, run_sweep(cfg)).splitlines()[0].split(",")
        assert header[:4] == ["h_z", "branch", "parity", "degenerate"]
        assert "L1_I2" in header and "L1_I2_theta" in header and "L1_I2_phi" in header
        assert "L1_concurrence" in header
        assert "L1_concurrence_theta" not in header

    def test_crossing_point_emits_side_limits(self):
        payload = base_config()
        payload["sweep"] = {
            "variable": "h_z",
            "from": float(np.sqrt(0.5)),
            "to": float(np.sqrt(0.5)) + 0.01,
            "points": 2,
        }
        payload["measures"] = ["concurrence"]
        rows = run_sweep(parse_config(payload))
        assert len(rows) == 3
        branches = [(r.branch, r.parity) for r in rows[:2]]
        assert branches == [("+", "+1"), ("-", "-1")]
        assert rows[0].degenerate and rows[1].degenerate
        assert abs(rows[0].cells[(1, "concurrence")].value - 0.0588235) < 1e-6
        assert abs(rows[1].cells[(1, "concurrence")].value - 0.0666667) < 1e-6

    def test_gamma_sweep_runs(self):
        payload = base_config()
        payload["sweep"] = {"variable": "gamma", "from": 10.0, "to": 20.0, "points": 3}
        payload["fixed"] = {"h_mag": 1.0}
        payload["measures"] = ["D", "eof"]
        rows = run_sweep(parse_config(payload))
        assert len(rows) == 3
        assert all(r.parity == "broken" for r in rows)
        mid = rows[1]
        assert mid.cells[(1, "D")].value < 1e-7
        assert mid.cells[(1, "eof")].value < 1e-7

    def test_output_file(self, tmp_path):
        out = tmp_path / "table.csv"
        payload = base_config(output=str(out))
        run_sweep(parse_config(payload))
        text = out.read_text()
        assert text.startswith("h_z,branch,parity,degenerate")
        assert len(text.splitlines()) == 3


class TestSweepPhenomenology:
    def test_discord_angle_constant_and_quadratic_flip(self):
        # Through the full pipeline: the discord measurement stays along x
        # at every field while the quadratic-deficit direction flips from
        # x to z exactly once.
        payload = base_config()
        payload["sweep"] = {"variable": "h_z", "from": 0.0, "to": 1.25, "points": 21}
        payload["measures"] = ["D", "I2"]
        rows = run_sweep(parse_config(payload))
        d_thetas = np.array([r.cells[(1, "D")].theta for r in rows])
        assert np.abs(d_thetas - np.pi / 2).max() < 1e-3
        i2_thetas = np.array([r.cells[(1, "I2")].theta for r in rows])
        is_z = (i2_thetas < np.pi / 4).astype(int)
        assert int(np.abs(np.diff(is_z)).sum()) == 1


class TestPairObservables:
    def test_bundle(self):
        from qcorr.spinchain import SpinChainSpec, ground_state
        from qcorr.sweep import pair_observables

        spec = SpinChainSpec(n_sites=6, j_x=1.0, chi=0.5, field=(0.0, 0.0, 0.4))
        obs = pair_observables(ground_state(spec), 0, 2, measures=("D", "I2", "eof"))
        assert obs.separation == 2
        assert obs.rho_pair.dim == 4
        assert set(obs.measures) == {"D", "I2", "eof"}
        assert obs.measures["D"].value >= 0.0
        assert obs.measures["eof"].theta is None


class TestStraddlingRows:
    def test_side_limits_near_reference_values(self):
        # Rows just below and above the factorizing field approximate the
        # definite-parity side limits; 2e-2 absorbs the small field offset
        # and the overlap-correction scale (~0.06 here).
        h_zs = float(np.sqrt(0.5))
        payload = base_config()
        payload["sweep"] = {"variable": "h_z", "from": h_zs - 5e-4, "to": h_zs + 5e-4,
                            "points": 2}
        payload["separations"] = [1, 2, 3, 4]
        payload["measures"] = ["D", "I1"]
        rows = run_sweep(parse_config(payload))
        assert len(rows) == 2
        ref = report_limits(0.5, 8)
        side_ref = {"+1": ref["side_plus"], "-1": ref["side_minus"]}
        for row in rows:
            ref_block = side_ref[row.parity]
            for sep in (1, 2, 3, 4):
                assert abs(row.cells[(sep, "D")].value - ref_block["D"]["value"]) <= 2e-2
                assert abs(row.cells[(sep, "I1")].value - ref_block["I1"]["value"]) <= 2e-2
                # the overlap-neglected common reference sits within the same
                # band for the discord
                assert abs(row.cells[(sep, "D")].value - ref["rho_theta"]["D"]["value"]) <= 2e-2


class TestReportLimits:
    def test_against_golden_file(self):
        with open(os.path.join(DATA, "factorization_limits_chi05_n8.json")) as fh:
            golden = json.load(fh)
        report = report_limits(0.5, 8)
        assert abs(report["theta"] - golden["theta"]) < 1e-12
        assert abs(report["h_zs"] - golden["h_zs"]) < 1e-12
        assert abs(report["rho_theta"]["D"]["value"] - golden["rho_theta"]["D"]) < 1e-8
        assert abs(report["rho_theta"]["I1"]["value"] - golden["rho_theta"]["I1"]) < 1e-8
        assert abs(report["rho_theta"]["I2"]["value"] - golden["rho_theta"]["I2"]) < 1e-10
        for side in ("side_plus", "side_minus"):
            assert abs(report[side]["D"]["value"] - golden[side]["D"]) < 1e-8
            assert abs(report[side]["I1"]["value"] - golden[side]["I1"]) < 1e-8
            assert (
                abs(report[side]["concurrence"] - golden[side]["concurrence_formula"]) < 1e-9
            )

    def test_isotropic_limit_vanishes(self):
        report = report_limits(0.9999999, 6)
        assert report["rho_theta"]["D"]["value"] < 1e-4
        assert report["rho_theta"]["I2"]["value"] < 1e-4


class TestCli:
    def test_limits_command(self, capsys):
        assert main(["limits", "--chi", "0.5", "--n", "8"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["h_zs"] - np.sqrt(0.5)) < 1e-12

    def test_limits_bad_chi(self, capsys):
        assert main(["limits", "--chi", "1.5", "--n", "8"]) == 2
        # chi = 1 has no factorizing field
        assert main(["limits", "--chi", "1.0", "--n", "8"]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_limits_too_many_sites(self, capsys):
        assert main(["limits", "--chi", "0.5", "--n", "15"]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_sweep_command(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        out_path = tmp_path / "out.csv"
        cfg_path.write_text(json.dumps(base_config()))
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out_path)]) == 0
        assert out_path.exists()
        assert len(out_path.read_text().splitlines()) == 3

    def test_sweep_bad_config(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        for overrides in (
            {"bogus": 2},
            {"separations": 2},
            {"separations": ["x"]},
            {"fixed": {"h_mag": "big"}},
            {"measures": "D"},
            {"measures": "I1"},
            {"chain": {"n_sites": 8.9, "chi": 0.5}},
            {"chain": {"n_sites": 8, "chi": float("nan")}},
            {"sweep": {"variable": "h_z", "from": 0.3, "to": 0.4, "points": 2.7}},
            {"sweep": {"variable": "h_z", "from": 0.3, "to": float("inf"), "points": 2}},
            {"separations": [1.5, True]},
            {"separations": [1, 1]},
            {"measures": ["D", "D"]},
            {"search": {"grid_theta": 10.5}},
        ):
            cfg_path.write_text(json.dumps(base_config(**overrides)))
            assert main(["sweep", "--config", str(cfg_path)]) == 2, overrides

    def test_sweep_invalid_json(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("{not json")
        assert main(["sweep", "--config", str(cfg_path)]) == 2

    def test_sweep_unreadable_config(self, tmp_path, capsys):
        latin1 = tmp_path / "latin1.json"
        latin1.write_bytes(b'{"output": "caf\xe9.csv"}')
        for path in (tmp_path / "nope.json", tmp_path, latin1):
            assert main(["sweep", "--config", str(path)]) == 2, path
            assert "configuration error" in capsys.readouterr().err

    def test_sweep_unwritable_output_fails_before_solving(self, tmp_path, capsys, monkeypatch):
        def no_solve(spec):
            raise AssertionError("ground_state called")

        monkeypatch.setattr("qcorr.sweep.ground_state", no_solve)
        missing = str(tmp_path / "no_such_dir" / "out.csv")
        cfg_path = tmp_path / "cfg.json"
        for args, payload in (
            (["--out", missing], base_config()),
            ([], base_config(output=missing)),
            (["--out", str(tmp_path)], base_config()),
        ):
            cfg_path.write_text(json.dumps(payload))
            assert main(["sweep", "--config", str(cfg_path), *args]) == 2, args
            assert "configuration error" in capsys.readouterr().err

    def test_failed_sweep_keeps_existing_output(self, tmp_path, monkeypatch):
        def failing_solve(spec):
            raise TooLarge("no solve")

        monkeypatch.setattr("qcorr.sweep.ground_state", failing_solve)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_config()))
        old = tmp_path / "old.csv"
        old.write_text("previous table\n")
        new = tmp_path / "new.csv"
        for out in (old, new):
            assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 3
        assert old.read_text() == "previous table\n"
        assert new.read_text() == ""
        monkeypatch.undo()
        assert main(["sweep", "--config", str(cfg_path), "--out", str(old)]) == 0
        assert old.read_text().startswith("h_z,") and len(old.read_text().splitlines()) == 3

    def test_measure_command(self, tmp_path, capsys):
        v = np.array([1, 0, 0, 1]) / np.sqrt(2)
        state = make_density(np.outer(v, v))
        path = tmp_path / "bell.json"
        path.write_text(to_json(state))
        assert main(["measure", "--state", str(path), "--measure", "D"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["value"] - 1.0) < 1e-8

    def test_measure_qudit_state(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        g = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        mat = g @ g.conj().T
        state = make_density(mat / mat.trace())
        path = tmp_path / "qudit.json"
        path.write_text(to_json(state))
        assert main(["measure", "--state", str(path), "--measure", "I2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] >= 0.0

    def test_measure_rejects_concurrence_for_qudit(self, tmp_path):
        state = make_density(np.eye(6) / 6)
        path = tmp_path / "qudit.json"
        path.write_text(to_json(state))
        assert main(["measure", "--state", str(path), "--measure", "concurrence"]) == 2

    def test_measure_malformed_state(self, tmp_path):
        path = tmp_path / "bad.json"
        pairs = [[0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0]]
        for bad in (
            {"dim": "four", "entries": pairs},
            {"dim": 2, "entries": "x"},
            {"dim": 2, "entries": pairs[:3]},
            {"dim": 2, "entries": [[float("nan"), 0.0]] + pairs[1:]},
            {"dim": 4.5, "entries": [[0.25 * (i % 5 == 0), 0.0] for i in range(16)]},
            {"dim": True, "entries": [[1.0, 0.0]]},
            {"dim": 2, "entries": pairs, "extra": 0},
        ):
            path.write_text(json.dumps(bad))
            assert main(["measure", "--state", str(path), "--measure", "D"]) == 2, bad

    def test_measure_rejects_dimension_two(self, tmp_path, capsys):
        # a valid state, but d_A = 1 leaves nothing to correlate with B
        path = tmp_path / "qubit.json"
        path.write_text(to_json(make_density(np.eye(2) / 2)))
        for measure in ("D", "I1", "I2", "IR2", "S2cond"):
            assert main(["measure", "--state", str(path), "--measure", measure]) == 2, measure
            assert "configuration error" in capsys.readouterr().err

    def test_measure_numerical_failure(self, tmp_path):
        # A matrix with a large negative eigenvalue fails state validation.
        path = tmp_path / "bad.json"
        bad = {"dim": 2, "entries": [[1.5, 0.0], [0.0, 0.0], [0.0, 0.0], [-0.5, 0.0]]}
        path.write_text(json.dumps(bad))
        assert main(["measure", "--state", str(path), "--measure", "D"]) == 3

    def test_measure_missing_file(self, tmp_path):
        assert main(["measure", "--state", str(tmp_path / "nope.json"), "--measure", "D"]) == 2

    def test_bad_arguments(self):
        assert main(["sweep"]) == 2
        assert main(["measure", "--state", "x"]) == 2
