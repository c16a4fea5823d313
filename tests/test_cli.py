import json

import numpy as np
import pytest

import fptkit.cli
from fptkit import DensityEstimate, TimeGrid
from fptkit.cli import main

LINEAR_ARGS = [
    "--boundary", "linear", "--a", "1", "--b", "0.5", "--gamma", "1",
    "--r0", "0", "--T", "4", "--N", "256", "--q", "2",
]
SMEARED_ARGS = [
    "--boundary", "linear", "--a", "1", "--b", "0.5", "--gamma", "1",
    "--bump-center", "0", "--bump-width", "0.25", "--T", "4", "--N", "512", "--q", "2",
]


def run(args):
    return main(args)


def poison_density(path):
    """Replace the first interior p cell of a density.csv with nan."""
    rows = path.read_text().splitlines()
    t, _, F = rows[2].split(",")
    rows[2] = f"{t},nan,{F}"
    path.write_text("\n".join(rows) + "\n")


def scale_density_cell(path, factor=1.5):
    """Scale one interior p cell of a density.csv: finite, and passes every value check."""
    rows = path.read_text().splitlines()
    k = len(rows) // 2
    t, p, F = rows[k].split(",")
    rows[k] = f"{t},{factor * float(p):.17g},{F}"
    path.write_text("\n".join(rows) + "\n")


def reseal(out):
    """Record the edited density.csv's content hash in run.json, as a consistent edit would."""
    doc = json.loads((out / "run.json").read_text())
    data = np.loadtxt(out / "density.csv", delimiter=",", skiprows=1)
    est = DensityEstimate(grid=TimeGrid(**doc["grid"]), p=data[:, 1], F=data[:, 2],
                          method=doc["method"], gamma=doc["gamma"])
    doc["content_sha256"] = est.content_sha256()
    (out / "run.json").write_text(json.dumps(doc))


def assert_one_line(err, prefix):
    assert err.startswith(prefix) and err.count("\n") == 1


class TestSolve:
    def test_happy_path_writes_three_files(self, tmp_path):
        code = run(["solve", *LINEAR_ARGS, "--method", "both", "--out", str(tmp_path)])
        assert code == 0
        for name in ("density.csv", "run.json", "method_diff.json"):
            assert (tmp_path / name).exists()
        diff = json.loads((tmp_path / "method_diff.json").read_text())
        assert diff["sup_nodewise_diff"] <= 1e-3

    def test_gamma_half_rejected(self, tmp_path, capsys):
        code = run(["solve", "--boundary", "linear", "--a", "1", "--b", "0.5",
                    "--gamma", "0.5", "--r0", "0", "--out", str(tmp_path)])
        assert code == 2
        assert "(1/2, 1]" in capsys.readouterr().err

    def test_source_above_boundary_rejected(self, tmp_path, capsys):
        code = run(["solve", "--boundary", "constant", "--a", "1", "--r0", "2",
                    "--out", str(tmp_path)])
        assert code == 2
        assert "below" in capsys.readouterr().err

    def test_density_csv_round_trips_17_digits(self, tmp_path):
        run(["solve", *LINEAR_ARGS, "--method", "marching", "--out", str(tmp_path)])
        rows = (tmp_path / "density.csv").read_text().splitlines()
        assert rows[0] == "t,p,F"
        assert len(rows) == 1 + 257

    def test_run_json_embeds_config_and_fingerprint(self, tmp_path):
        run(["solve", *LINEAR_ARGS, "--method", "marching", "--out", str(tmp_path)])
        doc = json.loads((tmp_path / "run.json").read_text())
        assert doc["config"]["boundary"]["kind"] == "linear"
        assert doc["config"]["grid"]["N"] == 256
        assert len(doc["fingerprint"]) == 16

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = {
            "boundary": {"kind": "linear", "a": 1.0, "b": 0.5, "gamma": 1.0},
            "source": {"kind": "point", "r0": 0.0},
            "grid": {"T": 2.0, "N": 128, "q": 2.0},
            "method": "marching",
            "output": {"directory": str(tmp_path)},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code = run(["solve", "--config", str(cfg_path), "--N", "256"])
        assert code == 0
        doc = json.loads((tmp_path / "run.json").read_text())
        assert doc["config"]["grid"]["N"] == 256  # flag wins over file

    def test_picard_method(self, tmp_path):
        code = run(["solve", *LINEAR_ARGS, "--method", "picard", "--out", str(tmp_path)])
        assert code == 0
        doc = json.loads((tmp_path / "run.json").read_text())
        assert doc["method"] == "picard"
        assert doc["residual_summary"]["windows"]

    def test_smeared_source(self, tmp_path):
        code = run(["solve", "--boundary", "linear", "--a", "1", "--b", "0.5",
                    "--bump-center", "0", "--bump-width", "0.25",
                    "--T", "1", "--N", "64", "--method", "marching",
                    "--out", str(tmp_path)])
        assert code == 0
        doc = json.loads((tmp_path / "run.json").read_text())
        assert doc["config"]["source"]["kind"] == "smeared"

    @pytest.mark.parametrize("flag", ["T", "q"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_grid_rejected(self, tmp_path, capsys, flag, value):
        code = run(["solve", *LINEAR_ARGS, f"--{flag}={value}", "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid configuration:") and err.count("\n") == 1
        assert not (tmp_path / "density.csv").exists()

    def test_solver_failure_exit_code(self, tmp_path, capsys):
        # steep falling boundary on the coarsest legal grid loses diagonal
        # dominance: exit 3, not a traceback
        code = run(["solve", "--boundary", "linear", "--a", "1", "--b", "-50",
                    "--r0", "0", "--T", "4", "--N", "8", "--q", "1",
                    "--method", "marching", "--out", str(tmp_path)])
        assert code == 3
        assert "solver failure" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd", [["solve", "--method", "marching"],
                                     ["solve", "--method", "picard"], ["validate"]],
                             ids=["marching", "picard", "validate"])
    def test_density_check_failure_exit_code(self, tmp_path, capsys, cmd):
        # p peaks inside the first cell of this coarse grid and its
        # trapezoid CDF overshoots F(T) = 1: exit 3, one line
        code = run([*cmd, "--boundary", "constant", "--a", "1", "--r0", "0.9",
                    "--T", "4", "--N", "32", "--q", "2", "--out", str(tmp_path)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("solver failure:") and "CDF exceeds 1" in err
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_picard_matches_marching_on_rough_power_boundary(self, tmp_path):
        # a certified Picard window is far shorter than one cell here, so
        # Picard converges only if the assembled rows stay contractive
        code = run(["solve", "--boundary", "power", "--a", "1", "--b", "1", "--theta", "0.625",
                    "--r0", "0", "--T", "1", "--N", "32", "--q", "1", "--method", "both",
                    "--out", str(tmp_path)])
        assert code == 0
        diff = json.loads((tmp_path / "method_diff.json").read_text())
        assert diff["sup_nodewise_diff"] <= 1e-9

    @pytest.mark.parametrize("cmd, doc", [
        (["solve"], {"boundary": {"a": "1"}}),
        (["solve"], {"boundary": {"a": None}}),
        (["simulate"], {"boundary": {"a": "1"}}),
        (["simulate"], {"mc": {"n_paths": None}}),
    ], ids=["solve-a_str", "solve-a_null", "simulate-a_str", "simulate-n_paths_null"])
    def test_wrongly_typed_config_value(self, tmp_path, capsys, cmd, doc):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        code = run([*cmd, "--config", str(cfg_path), "--out", str(out)])
        assert code == 2
        assert_one_line(capsys.readouterr().err, "invalid configuration:")
        assert not out.exists()

    @pytest.mark.parametrize("cmd, doc", [
        (["solve"], [1]),
        (["solve"], {"output": None}),
        (["solve"], {"output": {"directory": 5}}),
        (["solve"], {"grid": {"N": 64.5}}),
        (["simulate", "--N", "64"], {"mc": {"n_paths": 64.5}}),
        (["simulate", "--N", "64"], {"mc": {"seed": 64.5}}),
        (["simulate", "--N", "64", "--n-paths", "64"], {"mc": {"bridge_correction": "no"}}),
    ], ids=["not_an_object", "output_null", "directory_int", "N_fraction",
            "n_paths_fraction", "seed_fraction", "bridge_correction_str"])
    def test_malformed_config_file(self, tmp_path, monkeypatch, capsys, cmd, doc):
        # no --out: the file's own output section is under test, so any
        # stray write would land in the working directory
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps(doc))
        code = run([*cmd, "--config", "cfg.json"])
        assert code == 2
        assert_one_line(capsys.readouterr().err, "invalid configuration:")
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


NON_FINITE = {
    "a_inf": ["--boundary", "linear", "--a=inf", "--r0=0"],
    "b_nan": ["--boundary", "linear", "--b=nan"],
    "b_inf": ["--boundary", "linear", "--b=inf"],
    "theta_nan": ["--boundary", "power", "--theta=nan"],
    "bump_center_-inf": ["--bump-center=-inf", "--bump-width=0.5"],
}
COMMANDS = {
    "solve": ["solve"],
    "validate": ["validate"],
    "simulate": ["simulate", "--n-paths=64"],
    "green": ["green", "--x-min=-1", "--x-max=0", "--t-min=0.5", "--t-max=1"],
}


@pytest.mark.parametrize("params", NON_FINITE.values(), ids=NON_FINITE.keys())
@pytest.mark.parametrize("cmd", COMMANDS.values(), ids=COMMANDS.keys())
def test_non_finite_parameters_rejected(tmp_path, capsys, cmd, params):
    out = tmp_path / "out"
    code = run([*cmd, *params, "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid configuration:") and err.count("\n") == 1
    assert not out.exists()


class TestSimulate:
    SIM = ["simulate", "--boundary", "constant", "--a", "1", "--r0", "0",
           "--T", "1", "--N", "256", "--n-paths", "2000", "--dt", "0.01",
           "--seed", "42"]

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert run([*self.SIM, "--out", str(out1)]) == 0
        assert run([*self.SIM, "--out", str(out2)]) == 0
        assert (out1 / "hits.csv").read_bytes() == (out2 / "hits.csv").read_bytes()

    def test_dt_cap_enforced(self, tmp_path, capsys):
        code = run(["simulate", "--boundary", "constant", "--a", "1", "--r0", "0",
                    "--T", "1", "--n-paths", "100", "--dt", "0.2",
                    "--out", str(tmp_path)])
        assert code == 2
        assert "T/10" in capsys.readouterr().err

    def test_ks_written_after_solve(self, tmp_path):
        solve_args = ["solve", "--boundary", "constant", "--a", "1", "--r0", "0",
                      "--T", "1", "--N", "512", "--method", "marching",
                      "--out", str(tmp_path)]
        assert run(solve_args) == 0
        assert run([*self.SIM, "--out", str(tmp_path)]) == 0
        ks = json.loads((tmp_path / "ks.json").read_text())
        assert 0.0 <= ks["ks_distance"] <= 0.05

    def test_horizon_mismatch(self, tmp_path, capsys):
        solve_args = ["solve", "--boundary", "constant", "--a", "1", "--r0", "0",
                      "--T", "4", "--N", "512", "--method", "marching",
                      "--out", str(tmp_path)]
        assert run(solve_args) == 0
        code = run([*self.SIM, "--out", str(tmp_path)])
        assert code == 4
        assert "mismatch" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_dt_rejected(self, tmp_path, capsys, value):
        code = run([*self.SIM, f"--dt={value}", "--out", str(tmp_path)])
        assert code == 2
        assert_one_line(capsys.readouterr().err, "invalid configuration:")
        assert not (tmp_path / "hits.csv").exists()

    def test_corrupt_density_rejected(self, tmp_path, capsys):
        solve_args = ["solve", "--boundary", "constant", "--a", "1", "--r0", "0",
                      "--T", "1", "--N", "256", "--method", "marching",
                      "--out", str(tmp_path)]
        assert run(solve_args) == 0
        poison_density(tmp_path / "density.csv")
        capsys.readouterr()
        code = run([*self.SIM, "--out", str(tmp_path)])
        assert code == 4
        assert_one_line(capsys.readouterr().err, "artifact mismatch:")
        assert not (tmp_path / "ks.json").exists()

    def test_edited_density_rejected(self, tmp_path, capsys):
        solve_args = ["solve", "--boundary", "constant", "--a", "1", "--r0", "0",
                      "--T", "1", "--N", "256", "--method", "marching",
                      "--out", str(tmp_path)]
        assert run(solve_args) == 0
        scale_density_cell(tmp_path / "density.csv")
        capsys.readouterr()
        code = run([*self.SIM, "--out", str(tmp_path)])
        assert code == 4
        assert_one_line(capsys.readouterr().err, "artifact mismatch:")
        assert not (tmp_path / "ks.json").exists()

    def test_fpt_threads_does_not_change_results(self, tmp_path, monkeypatch):
        out1, out2 = tmp_path / "w1", tmp_path / "wn"
        monkeypatch.setenv("FPT_THREADS", "1")
        assert run([*self.SIM, "--out", str(out1)]) == 0
        monkeypatch.delenv("FPT_THREADS")
        assert run([*self.SIM, "--out", str(out2)]) == 0
        assert (out1 / "hits.csv").read_bytes() == (out2 / "hits.csv").read_bytes()


class TestValidate:
    def test_unknown_suite(self, tmp_path, capsys):
        code = run(["validate", *LINEAR_ARGS, "--suite", "bogus", "--out", str(tmp_path)])
        assert code == 2
        assert "suite" in capsys.readouterr().err

    def test_master_suite_passes(self, tmp_path):
        code = run(["validate", *LINEAR_ARGS, "--suite", "master", "--out", str(tmp_path)])
        assert code == 0
        doc = json.loads((tmp_path / "validate.json").read_text())
        assert doc["all_passed"] is True
        assert doc["reports"][0]["name"] == "master_equation"

    def test_smeared_master_suite_passes(self, tmp_path):
        code = run(["validate", *SMEARED_ARGS, "--suite", "master", "--out", str(tmp_path)])
        assert code == 0
        doc = json.loads((tmp_path / "validate.json").read_text())
        assert doc["all_passed"] is True
        assert doc["reports"][0]["name"] == "master_equation"

    def test_smeared_all_suite_omits_delta(self, tmp_path):
        code = run(["validate", *SMEARED_ARGS, "--suite", "all", "--out", str(tmp_path)])
        assert code == 0
        doc = json.loads((tmp_path / "validate.json").read_text())
        assert doc["all_passed"] is True
        names = {r["name"] for r in doc["reports"]}
        assert "master_equation" in names and "mass_conservation" in names
        assert "delta_convergence" not in names

    def test_smeared_delta_suite_rejected_before_solve(self, tmp_path, capsys, monkeypatch):
        def no_solve(*args):
            raise AssertionError("delta suite solved before checking the source")

        monkeypatch.setattr(fptkit.cli, "solve_marching", no_solve)
        code = run(["validate", *SMEARED_ARGS, "--suite", "delta", "--out", str(tmp_path)])
        assert code == 2
        assert "point source" in capsys.readouterr().err
        assert not (tmp_path / "validate.json").exists()

    def test_corrupted_density_detected(self, tmp_path):
        # solve, scale the stored p column by 1.1, then validate: exit 5
        assert run(["solve", *LINEAR_ARGS, "--method", "marching", "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "density.csv").read_text().splitlines()
        out = [rows[0]]
        for line in rows[1:]:
            t, p, F = line.split(",")
            out.append(f"{t},{1.1 * float(p):.17g},{F}")
        (tmp_path / "density.csv").write_text("\n".join(out) + "\n")
        # with its content hash updated the edit passes the integrity check,
        # so the master residual is what must catch it
        reseal(tmp_path)
        code = run(["validate", *LINEAR_ARGS, "--suite", "master", "--out", str(tmp_path)])
        assert code == 5
        doc = json.loads((tmp_path / "validate.json").read_text())
        assert doc["all_passed"] is False

    def test_corrupt_density_rejected(self, tmp_path, capsys):
        # one NaN cell fails the artifact's checks: exit 4, no validate.json
        assert run(["solve", *LINEAR_ARGS, "--method", "marching", "--out", str(tmp_path)]) == 0
        poison_density(tmp_path / "density.csv")
        capsys.readouterr()
        code = run(["validate", *LINEAR_ARGS, "--suite", "master", "--out", str(tmp_path)])
        assert code == 4
        assert_one_line(capsys.readouterr().err, "artifact mismatch:")
        assert not (tmp_path / "validate.json").exists()

    def test_edited_density_rejected(self, tmp_path, capsys):
        # one finite cell scaled by 1.5 no longer matches run.json's content hash
        assert run(["solve", *LINEAR_ARGS, "--method", "marching", "--out", str(tmp_path)]) == 0
        scale_density_cell(tmp_path / "density.csv")
        capsys.readouterr()
        code = run(["validate", *LINEAR_ARGS, "--suite", "master", "--out", str(tmp_path)])
        assert code == 4
        assert_one_line(capsys.readouterr().err, "artifact mismatch:")
        assert not (tmp_path / "validate.json").exists()

    def test_mismatched_artifact(self, tmp_path, capsys):
        # density solved for a different boundary: fingerprint mismatch
        assert run(["solve", *LINEAR_ARGS, "--method", "marching", "--out", str(tmp_path)]) == 0
        code = run(["validate", "--boundary", "constant", "--a", "1", "--r0", "0",
                    "--T", "4", "--N", "256", "--suite", "master", "--out", str(tmp_path)])
        assert code == 4
        assert "mismatch" in capsys.readouterr().err


class TestGreen:
    def test_lattice_row_count(self, tmp_path):
        code = run(["green", *LINEAR_ARGS, "--x-min", "-2", "--x-max", "2",
                    "--t-min", "0.5", "--t-max", "4", "--nx", "50", "--nt", "50",
                    "--out", str(tmp_path)])
        assert code == 0
        rows = (tmp_path / "green.csv").read_text().splitlines()
        assert rows[0] == "x,t,G"
        assert len(rows) == 1 + 2500

    def test_time_zero_rejected(self, tmp_path, capsys):
        code = run(["green", *LINEAR_ARGS, "--x-min", "-2", "--x-max", "2",
                    "--t-min", "0", "--t-max", "2", "--out", str(tmp_path)])
        assert code == 2
        assert "t_min" in capsys.readouterr().err

    def test_exterior_rectangle_is_small(self, tmp_path):
        code = run(["green", *LINEAR_ARGS, "--x-min", "3.5", "--x-max", "6",
                    "--t-min", "0.5", "--t-max", "4", "--nx", "8", "--nt", "8",
                    "--out", str(tmp_path)])
        assert code == 0
        data = np.loadtxt(tmp_path / "green.csv", delimiter=",", skiprows=1)
        assert np.max(np.abs(data[:, 2])) <= 2e-3
