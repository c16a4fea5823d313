import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fptkit.cli
import fptkit.solver
from fptkit import DensityEstimate, TimeGrid, simulate
from fptkit.cli import main

LINEAR_ARGS = [
    "--boundary", "linear", "--a", "1", "--b", "0.5",
    "--r0", "0", "--T", "4", "--N", "256", "--q", "2",
]
SMEARED_ARGS = [
    "--boundary", "linear", "--a", "1", "--b", "0.5",
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


def seal(out):
    """Record density.csv's p and F columns in run.json's content hash, as a consistent edit would."""
    doc = json.loads((out / "run.json").read_text())
    data = np.loadtxt(out / "density.csv", delimiter=",", skiprows=1)
    h = hashlib.sha256()
    for col in (data[:, 1], data[:, 2]):
        h.update(col.astype("<f8").tobytes())
    doc["content_sha256"] = h.hexdigest()
    (out / "run.json").write_text(json.dumps(doc))


def reseal(out):
    """Rewrite density.csv's F column as the trapezoid CDF of its edited p column, then seal it."""
    doc = json.loads((out / "run.json").read_text())
    data = np.loadtxt(out / "density.csv", delimiter=",", skiprows=1)
    est = DensityEstimate(grid=TimeGrid(**doc["grid"]), p=data[:, 1], method=doc["method"])
    est.to_csv(out / "density.csv")
    seal(out)


def assert_one_line(err, prefix):
    assert err.startswith(prefix) and err.count("\n") == 1


def strict_json(path):
    """The JSON document in `path`; NaN and Infinity, which JSON lacks, raise ValueError."""
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(path.read_text(), parse_constant=reject)


class TestSolve:
    def test_happy_path_writes_three_files(self, tmp_path):
        code = run(["solve", *LINEAR_ARGS, "--method", "both", "--out", str(tmp_path)])
        assert code == 0
        for name in ("density.csv", "run.json", "method_diff.json"):
            assert (tmp_path / name).exists()
        diff = json.loads((tmp_path / "method_diff.json").read_text())
        assert diff["sup_nodewise_diff"] <= 1e-3

    def test_gamma_is_no_option(self, tmp_path, capsys):
        # the curve fixes its own Hölder exponent: neither a flag nor a
        # config key sets it, and an old config holding one is rejected
        code = run(["solve", *LINEAR_ARGS, "--gamma", "1", "--out", str(tmp_path / "flag")])
        assert code == 2
        assert_one_line(capsys.readouterr().err, "invalid configuration:")
        for doc in ({"boundary": {"gamma": 1.0}}, {"source": {"kind": "point"}}):
            (tmp_path / "cfg.json").write_text(json.dumps(doc))
            code = run(["solve", *LINEAR_ARGS, "--config", str(tmp_path / "cfg.json"),
                        "--out", str(tmp_path / "file")])
            assert code == 2
            assert_one_line(capsys.readouterr().err, "invalid configuration: unknown config key")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

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
            "boundary": {"kind": "linear", "a": 1.0, "b": 0.5},
            "source": {"r0": 0.0},
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
        assert doc["config"]["source"] == {"r0": 0.0, "center": 0.0, "width": 0.25}

    def test_config_file_bump_is_the_flag_bump(self, tmp_path):
        # a bump center and width smear the source whether they come from
        # the config file or from flags
        problem = ["--boundary", "linear", "--a", "1", "--b", "0.5", "--T", "1", "--N", "64"]
        flags, file = tmp_path / "flags", tmp_path / "file"
        assert run(["solve", *problem, "--bump-center", "0", "--bump-width", "0.25",
                    "--out", str(flags)]) == 0
        (tmp_path / "cfg.json").write_text(json.dumps({"source": {"center": 0.0, "width": 0.25}}))
        assert run(["solve", *problem, "--config", str(tmp_path / "cfg.json"),
                    "--out", str(file)]) == 0
        assert (file / "density.csv").read_bytes() == (flags / "density.csv").read_bytes()
        (tmp_path / "cfg.json").write_text(json.dumps({"source": {"center": 0.0}}))
        assert run(["solve", *problem, "--config", str(tmp_path / "cfg.json"),
                    "--bump-width", "0.25", "--out", str(file)]) == 0
        assert (file / "density.csv").read_bytes() == (flags / "density.csv").read_bytes()
        point = tmp_path / "point"
        assert run(["solve", *problem, "--out", str(point)]) == 0
        assert (point / "density.csv").read_bytes() != (flags / "density.csv").read_bytes()

    @pytest.mark.parametrize("source", [{"center": 0.0}, {"width": 0.25}],
                             ids=["center_only", "width_only"])
    def test_bump_needs_center_and_width(self, tmp_path, capsys, source):
        (tmp_path / "cfg.json").write_text(json.dumps({"source": source}))
        code = run(["solve", *LINEAR_ARGS, "--config", str(tmp_path / "cfg.json"),
                    "--out", str(tmp_path / "out")])
        assert code == 2
        assert_one_line(capsys.readouterr().err,
                        "invalid configuration: smeared source requires center and width")
        assert not (tmp_path / "out").exists()

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

    def test_solver_failure_in_joint_solve_is_one_line(self, tmp_path, capsys):
        # the marching job of a joint solve loses diagonal dominance mid-sweep
        code = run(["solve", "--boundary", "linear", "--a", "1", "--b", "-50",
                    "--r0", "0", "--T", "4", "--N", "8", "--q", "1",
                    "--method", "both", "--out", str(tmp_path)])
        assert code == 3
        err = capsys.readouterr().err
        assert_one_line(err, "solver failure:")
        assert "diagonal coefficient" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("N", [256, 250])
    def test_both_methods_assemble_each_block_once(self, tmp_path, monkeypatch, N):
        # a piece of A is its rows' first time and count and its column range
        calls = []
        assemble = fptkit.solver._quadrature_rows

        def counted(t, x, c0, c1, *args):
            calls.append((float(t[0]), len(t), c0, c1))
            return assemble(t, x, c0, c1, *args)

        monkeypatch.setattr(fptkit.solver, "_quadrature_rows", counted)
        args = [*LINEAR_ARGS, "--N", str(N), "--out", str(tmp_path)]
        assert run(["solve", *args, "--method", "marching"]) == 0
        marching, calls[:] = calls[:], []
        assert run(["solve", *args, "--method", "both"]) == 0
        assert calls == marching
        assert len(set(calls)) == len(calls) > math.ceil(N / fptkit.solver.BLOCK_ROWS)

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
        # mc.bridge_correction is no config key: the bridge correction is always on
        (["simulate", "--N", "64", "--n-paths", "64"], {"mc": {"bridge_correction": "no"}}),
        (["simulate", "--N", "64", "--n-paths", "64"], {"mc": {"bridge_correction": False}}),
    ], ids=["not_an_object", "output_null", "directory_int", "N_fraction",
            "n_paths_fraction", "seed_fraction", "bridge_correction_str",
            "bridge_correction_false"])
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
    # keys the boundary never reads: they would land in run.json as NaN or Infinity
    "theta_nan_linear": ["--boundary", "linear", "--theta=nan"],
    "b_inf_constant": ["--boundary", "constant", "--b=inf"],
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


@pytest.mark.parametrize("command, args", [
    ("simulate", ["--n-paths", "200", "--dt", "0.01"]),
    ("validate", ["--suite", "mass"]),
])
def test_density_whose_F_is_not_the_cdf_of_its_p_rejected(tmp_path, capsys, command, args):
    # F is the trapezoid CDF of p.  A sealed density.csv whose F column takes
    # the right-endpoint rule instead exits 4 before anything is written;
    # simulate would compare the hits against that F in ks.json
    problem = ["--boundary", "constant", "--a", "1", "--r0", "0", "--T", "1", "--N", "256"]
    assert run(["solve", *problem, "--out", str(tmp_path)]) == 0
    t, p, _ = np.loadtxt(tmp_path / "density.csv", delimiter=",", skiprows=1).T
    F = np.concatenate(([0.0], np.cumsum(p[1:] * np.diff(t))))
    (tmp_path / "density.csv").write_text(
        "t,p,F\n" + "".join(f"{a:.17g},{b:.17g},{c:.17g}\n" for a, b, c in zip(t, p, F)))
    seal(tmp_path)
    capsys.readouterr()
    assert run([command, *problem, *args, "--out", str(tmp_path)]) == 4
    assert_one_line(capsys.readouterr().err, "artifact mismatch:")
    for name in ("ks.json", "hits.csv", "validate.json"):
        assert not (tmp_path / name).exists()


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
        problem = ["--boundary", "constant", "--a", "1", "--r0", "0", "--T", "1", "--N", "512",
                   "--out", str(tmp_path)]
        assert run(["solve", *problem, "--method", "both"]) == 0
        assert run([*self.SIM, "--out", str(tmp_path)]) == 0
        ks = json.loads((tmp_path / "ks.json").read_text())
        assert 0.0 <= ks["ks_distance"] <= 0.05
        assert run(["validate", *problem]) == 0
        # every JSON artifact: indent 2, sorted keys, a final newline, no NaN or Infinity
        names = sorted(p.name for p in tmp_path.glob("*.json"))
        assert names == ["ks.json", "mc.json", "method_diff.json", "run.json", "validate.json"]
        for name in names:
            text = (tmp_path / name).read_text()
            assert text == json.dumps(strict_json(tmp_path / name), indent=2, sort_keys=True) + "\n"

    def test_horizon_mismatch(self, tmp_path, capsys):
        solve_args = ["solve", "--boundary", "constant", "--a", "1", "--r0", "0",
                      "--T", "4", "--N", "512", "--method", "marching",
                      "--out", str(tmp_path)]
        assert run(solve_args) == 0
        code = run([*self.SIM, "--out", str(tmp_path)])
        assert code == 4
        assert "mismatch" in capsys.readouterr().err

    @pytest.mark.parametrize("solved", [
        ["--boundary", "constant", "--a", "1.5", "--r0", "0"],
        ["--boundary", "constant", "--a", "1", "--r0", "-0.5"],
    ], ids=["boundary", "source"])
    def test_density_of_another_problem_rejected(self, tmp_path, capsys, solved):
        # the density in the directory was solved for another boundary or
        # source: exit 4 before any path is simulated
        assert run(["solve", *solved, "--T", "1", "--N", "256", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        code = run([*self.SIM, "--out", str(tmp_path)])
        assert code == 4
        assert_one_line(capsys.readouterr().err, "artifact mismatch:")
        for name in ("ks.json", "hits.csv", "mc.json"):
            assert not (tmp_path / name).exists()

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
        for name in ("hits.csv", "mc.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    @pytest.mark.parametrize("dt", ["1e-30", "5e-324"])
    def test_time_axis_too_long_exits_2(self, tmp_path, capsys, dt):
        # T/dt steps do not fit in any array, or T/dt is inf
        out = tmp_path / "out"
        code = run([*self.SIM, "--dt", dt, "--out", str(out)])
        assert code == 2
        assert_one_line(capsys.readouterr().err,
                        "invalid configuration: the run does not fit in memory")
        assert not out.exists()

    @pytest.mark.parametrize("args, doc", [
        (["--n-paths", str(2 ** 63 - 1)], None),
        ([], {"mc": {"n_paths": 1e300}}),
        ([], {"mc": {"n_paths": 10 ** 399}}),
    ], ids=["flag", "config_file", "config_file_400_digits"])
    def test_paths_beyond_any_map_exit_2(self, tmp_path, capsys, forks, args, doc):
        # 8 bytes a path pass ssize_t: the shared map fails before any walk
        # or fork, with nothing allocated but the plan, and its one line
        # gives the byte count in a few digits
        if doc is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(doc))
            args = ["--config", str(tmp_path / "cfg.json")]
        out = tmp_path / "out"
        tracemalloc.start()
        try:
            code = run(["simulate", "--boundary", "constant", "--a", "1", "--T", "1",
                        *args, "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        err = capsys.readouterr().err
        assert_one_line(err, "invalid configuration: the run does not fit in memory")
        assert len(err) <= 200
        assert peak < 2 ** 20
        assert not forks
        assert not out.exists()

    def test_output_directory_is_made_after_the_run(self, tmp_path, monkeypatch):
        # a run that fails makes no directory; one that succeeds makes it
        out, made = tmp_path / "a" / "b", []

        def spy(*args, **kwargs):
            made.append(out.exists())
            return simulate(*args, **kwargs)

        monkeypatch.setattr(fptkit.cli, "simulate", spy)
        assert run([*self.SIM, "--out", str(out)]) == 0
        assert made == [False]
        assert (out / "hits.csv").exists()


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

    def test_delta_suite_needs_room_below_the_boundary(self, tmp_path, capsys):
        # the widest bump (0.25) around r0 = 0.9 reaches X_0 = 1
        near = ["--boundary", "constant", "--a", "1", "--r0", "0.9", "--T", "1",
                "--N", "256"]
        code = run(["validate", *near, "--suite", "delta", "--out", str(tmp_path / "d")])
        assert code == 2
        assert_one_line(capsys.readouterr().err, "invalid configuration: delta suite")
        assert not (tmp_path / "d").exists()
        assert run(["validate", *near, "--suite", "all", "--out", str(tmp_path / "a")]) == 0
        doc = json.loads((tmp_path / "a" / "validate.json").read_text())
        assert "delta_convergence" not in [r["name"] for r in doc["reports"]]

    def test_delta_suite_needs_bumps_that_can_be_built(self, tmp_path, capsys):
        # around r0 = -1e16 the narrowest bump's ends r0 -+ 1/64 round to r0
        far = ["--r0=-1e16", "--N", "64"]
        code = run(["validate", *far, "--suite", "delta", "--out", str(tmp_path / "d")])
        assert code == 2
        assert_one_line(capsys.readouterr().err, "invalid configuration: delta suite")
        assert not (tmp_path / "d").exists()
        assert run(["validate", *far, "--suite", "all", "--out", str(tmp_path / "a")]) == 0
        doc = json.loads((tmp_path / "a" / "validate.json").read_text())
        assert "delta_convergence" not in [r["name"] for r in doc["reports"]]

    def test_corrupted_density_detected(self, tmp_path, capsys):
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
        capsys.readouterr()
        code = run(["validate", *LINEAR_ARGS, "--suite", "master", "--out", str(tmp_path)])
        assert code == 5
        assert_one_line(capsys.readouterr().err, "validation failed:")
        doc = json.loads((tmp_path / "validate.json").read_text())
        assert doc["all_passed"] is False

    @pytest.mark.parametrize("factor", [lambda t: 1.0 + 0.05 * math.sin(math.pi * t / 2.0),
                                        lambda t: 0.0], ids=["perturbed", "zero"])
    def test_heat_suite_fails_on_a_wrong_density(self, tmp_path, capsys, factor):
        # G^X = G - int G(., t; X_tau, tau) p(tau) dtau solves the heat equation
        # off the boundary for every p; the Dirichlet condition holds only for
        # the solution.  The factor is 1 + 0.05 sin(2 pi t / T) at T = 4, or 0
        args = [*LINEAR_ARGS, "--N", "2048", "--out", str(tmp_path)]
        assert run(["solve", *args, "--method", "marching"]) == 0
        assert run(["validate", *args, "--suite", "heat"]) == 0
        [report] = strict_json(tmp_path / "validate.json")["reports"]
        assert report["name"] == "dirichlet_condition"
        assert report["passed"] and report["sup_residual"] <= 2e-3
        rows = (tmp_path / "density.csv").read_text().splitlines()
        out = [rows[0]]
        for line in rows[1:]:
            t, p, F = line.split(",")
            out.append(f"{t},{factor(float(t)) * float(p):.17g},{F}")
        (tmp_path / "density.csv").write_text("\n".join(out) + "\n")
        reseal(tmp_path)
        capsys.readouterr()
        assert run(["validate", *args, "--suite", "heat"]) == 5
        assert_one_line(capsys.readouterr().err, "validation failed: dirichlet_condition")
        [report] = strict_json(tmp_path / "validate.json")["reports"]
        assert not report["passed"] and report["sup_residual"] > 1e-2

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("args", [["--r0=-1e16"], ["--b", "1e200"], ["--T", "1e-6"]],
                             ids=["far-source", "steep", "short"])
    def test_heat_suite_reads_zero_where_the_free_kernel_underflows(self, tmp_path, args):
        # G_h(X_t, t) underflows to 0 and so does G^X(X_t, t): 0 / 1e-3, no warning
        assert run(["validate", *args, "--N", "64", "--suite", "heat",
                    "--out", str(tmp_path)]) == 0
        [report] = strict_json(tmp_path / "validate.json")["reports"]
        assert report["residuals"] == [0.0] * 4

    def test_all_suites_pass_where_every_density_is_zero(self, tmp_path, capsys):
        # a boundary step of 1e200 leaves no first passage in [0, T]: every bump's
        # density is the point density, so the delta study passes with norms of 0
        assert run(["validate", "--b", "1e200", "--N", "64", "--suite", "all",
                    "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""
        doc = strict_json(tmp_path / "validate.json")
        delta = doc["reports"][-1]
        assert delta["name"] == "delta_convergence" and delta["sup_residual"] == 0.0
        assert doc["all_passed"] is True

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

    def test_density_of_another_horizon_rejected(self, tmp_path, capsys):
        # a T = 4 density checked at T = 2 would report t = 1, 2, 4: exit 4,
        # no validate.json; N is free, as for simulate
        assert run(["solve", "--N", "64", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        code = run(["validate", "--N", "64", "--T", "2", "--suite", "mass",
                    "--out", str(tmp_path)])
        assert code == 4
        assert_one_line(capsys.readouterr().err, "artifact mismatch:")
        assert not (tmp_path / "validate.json").exists()
        assert run(["validate", "--N", "32", "--suite", "mass", "--out", str(tmp_path)]) == 0

    def test_run_json_with_gamma_still_validates(self, tmp_path):
        # run.json files written while gamma was a user input carry it at the
        # top level and in their config; the fingerprint already hashed the
        # curve's own exponent, so such an artifact still checks out
        assert run(["solve", *LINEAR_ARGS, "--method", "marching", "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "run.json").read_text())
        doc["gamma"] = 1.0
        doc["config"]["boundary"]["gamma"] = 1.0
        doc["config"]["source"]["kind"] = "point"
        (tmp_path / "run.json").write_text(json.dumps(doc))
        est = DensityEstimate.from_files(tmp_path / "density.csv", tmp_path / "run.json")
        assert est.content_sha256() == doc["content_sha256"]
        code = run(["validate", *LINEAR_ARGS, "--suite", "master", "--out", str(tmp_path)])
        assert code == 0
        assert json.loads((tmp_path / "validate.json").read_text())["all_passed"] is True

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

    def test_csv_bytes_are_those_of_a_row_by_row_write(self, tmp_path, monkeypatch):
        # 17 significant digits, whatever the value: zeros of either sign,
        # subnormals and values near the top of the double range
        special = np.array([0.0, -0.0, 5e-324, 2.2250738585072014e-308 / 3, 1 / 3, 1e300])

        def fake_green(fld, xs, t):
            return special * t

        monkeypatch.setattr(fptkit.cli, "green_eval", fake_green)
        code = run(["green", *LINEAR_ARGS, "--x-min", "-1", "--x-max", "1.5", "--t-min", "0.5",
                    "--t-max", "4", "--nx", "6", "--nt", "4", "--out", str(tmp_path)])
        assert code == 0
        xs, ts = np.linspace(-1.0, 1.5, 6), np.linspace(0.5, 4.0, 4)
        expected = "x,t,G\n" + "".join(f"{x:.17g},{t:.17g},{v:.17g}\n" for t in ts
                                       for x, v in zip(xs, fake_green(None, xs, float(t))))
        assert (tmp_path / "green.csv").read_bytes() == expected.encode()

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


DEFECTS = {
    "T_str": (["solve"], {"grid": {"T": "4"}}),
    "q_str": (["solve"], {"grid": {"q": "2"}}),
    "dt_str": (["simulate", "--n-paths", "64"], {"mc": {"dt": "0.01"}}),
    "r0_str": (["solve"], {"source": {"r0": "0"}}),
    "a_bool": (["solve"], {"boundary": {"a": True}}),
    "unknown_key": (["solve"], {"grid": {"n": 8}}),
    "unknown_section": (["solve"], {"grd": {}}),
    "csv_path_int": (["solve"], {"boundary": {"kind": "sampled", "csv_path": 5}}),
    "out_below_file": (["solve", "--out", "afile/sub"], {}),
    "csv_short_row": (["solve", "--boundary", "sampled", "--boundary-csv", "short.csv"], {}),
    "green_x_min_-inf": (["green", "--x-min=-inf", "--x-max", "0", "--t-min", "0.5",
                          "--t-max", "1", "--nx", "3", "--nt", "1"], {}),
    "green_x_max_inf": (["green", "--x-min", "0", "--x-max=inf", "--t-min", "0.5",
                         "--t-max", "1", "--nx", "3", "--nt", "1"], {}),
    "N_abc": (["solve", "--N", "abc"], {}),
    "boundary_unknown": (["solve", "--boundary", "bogus"], {}),
    "method_unknown": (["solve", "--method", "bogus"], {}),
    "no_bridge_flag": (["simulate", "--n-paths", "64", "--no-bridge"], {}),
    # nx * nt float64 values that no array can index
    **{f"green_lattice_{nx}x{nt}": (["green", "--x-min", "-1", "--x-max", "0.5", "--t-min", "0.1",
                                     "--t-max", "1", "--nx", str(nx), "--nt", str(nt)], {})
       for nx, nt in ((2 ** 63 - 1, 1), (2 ** 62, 4), (10 ** 20, 1))},
}


@pytest.mark.parametrize("cmd, doc", DEFECTS.values(), ids=DEFECTS.keys())
def test_bad_input_exits_2_without_artifacts(tmp_path, monkeypatch, capsys, cmd, doc):
    monkeypatch.chdir(tmp_path)
    files = {"cfg.json": json.dumps(doc), "afile": "", "short.csv": "t,x\n0,1\n1\n"}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    code = run([cmd[0], "--config", "cfg.json", "--N", "64", "--out", "out", *cmd[1:]])
    assert code == 2
    assert_one_line(capsys.readouterr().err, "invalid configuration:")
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files)


MALFORMED_RUN_JSON = {
    "list": lambda doc: [],
    "T_str": lambda doc: {**doc, "grid": {**doc["grid"], "T": str(doc["grid"]["T"])}},
    "N_null": lambda doc: {**doc, "grid": {**doc["grid"], "N": None}},
    "T_overlong": lambda doc: {**doc, "grid": {**doc["grid"], "T": 10 ** 400}},
    "N_huge": lambda doc: {**doc, "grid": {**doc["grid"], "N": 10 ** 12}},
}


@pytest.mark.parametrize("edit", MALFORMED_RUN_JSON.values(), ids=MALFORMED_RUN_JSON.keys())
@pytest.mark.parametrize("cmd, written", [
    (["validate", "--suite", "mass"], "validate.json"),
    (["simulate", "--n-paths", "2000", "--dt", "0.01", "--seed", "42"], "ks.json"),
], ids=["validate", "simulate"])
def test_malformed_run_json_exits_4_without_artifacts(tmp_path, capsys, cmd, written, edit):
    problem = ["--boundary", "constant", "--a", "1", "--r0", "0", "--T", "1", "--N", "256"]
    assert run(["solve", *problem, "--method", "marching", "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "run.json").read_text())
    (tmp_path / "run.json").write_text(json.dumps(edit(doc)))
    capsys.readouterr()
    assert run([*cmd, *problem, "--out", str(tmp_path)]) == 4
    assert_one_line(capsys.readouterr().err, "artifact mismatch:")
    assert not (tmp_path / written).exists()


@pytest.mark.parametrize("cmd, written", [
    (["solve"], "density.csv"),
    (["solve"], "run.json"),
    (["solve", "--method", "both"], "method_diff.json"),
    (["simulate", "--n-paths", "64"], "hits.csv"),
    (["simulate", "--n-paths", "64"], "mc.json"),
    (["validate", "--suite", "mass"], "validate.json"),
    (["green", "--x-min=-1", "--x-max=0", "--t-min=0.5", "--t-max=1", "--nx=3", "--nt=2"],
     "green.csv"),
], ids=["density", "run", "method_diff", "hits", "mc", "validate", "green"])
def test_unwritable_artifact_exits_2(tmp_path, capsys, cmd, written):
    # an artifact path that is a directory cannot be written; the command
    # leaves none of its other artifacts and no temporary file behind
    (tmp_path / written).mkdir()
    assert run([*cmd, "--N", "64", "--out", str(tmp_path)]) == 2
    assert_one_line(capsys.readouterr().err, "invalid configuration: cannot write output:")
    assert (tmp_path / written).is_dir()
    assert [p.name for p in tmp_path.iterdir()] == [written]


@pytest.mark.parametrize("cmd, text", [
    (["solve"], '{"mc": {"dt": 1e400}}'),
    (["validate"], '{"boundary": {"theta": NaN}}'),
    (["green", "--x-min=-1", "--x-max=0", "--t-min=0.5", "--t-max=1"],
     '{"boundary": {"kind": "constant", "b": -Infinity}}'),
], ids=["solve-dt", "validate-theta", "green-b"])
def test_non_finite_config_file_value_exits_2(tmp_path, capsys, cmd, text):
    # json.load takes NaN, Infinity and 1e400; a key the run never reads
    # would otherwise land in run.json as NaN or Infinity
    (tmp_path / "cfg.json").write_text(text)
    out = tmp_path / "out"
    code = run([*cmd, "--config", str(tmp_path / "cfg.json"), "--N", "64", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert_one_line(err, "invalid configuration:")
    assert "must be finite" in err
    assert not out.exists()


@pytest.mark.parametrize("cmd, written", [
    (["validate", "--suite", "mass"], "validate.json"),
    (["simulate", "--n-paths", "2000", "--dt", "0.01", "--seed", "42"], "ks.json"),
], ids=["validate", "simulate"])
def test_unreadable_density_exits_4_without_artifacts(tmp_path, capsys, cmd, written):
    # a density.csv that cannot be read at all is an artifact failing its checks
    problem = ["--boundary", "constant", "--a", "1", "--r0", "0", "--T", "1", "--N", "256"]
    assert run(["solve", *problem, "--method", "marching", "--out", str(tmp_path)]) == 0
    (tmp_path / "density.csv").unlink()
    (tmp_path / "density.csv").mkdir()
    capsys.readouterr()
    assert run([*cmd, *problem, "--out", str(tmp_path)]) == 4
    assert_one_line(capsys.readouterr().err, "artifact mismatch:")
    assert not (tmp_path / written).exists()


@pytest.mark.parametrize("args", [
    ["solve", "--b", "1e200", "--N", "64"],
    ["simulate", "--b", "1e200", "--n-paths", "10", "--dt", "0.01"],
    ["simulate", "--r0=-1e300", "--n-paths", "10", "--dt", "0.01"],
], ids=["solve-steep", "simulate-steep", "simulate-far"])
def test_overflowing_squares_are_silent(tmp_path, capsys, args):
    # a boundary step or a gap of ~1e200 squares to inf: a kernel factor of
    # exactly 0, or a bridge interval that is not split; no path hits
    assert run([*args, "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""
    if args[0] == "solve":
        assert not np.loadtxt(tmp_path / "density.csv", delimiter=",", skiprows=1)[:, 1].any()
    else:
        assert (tmp_path / "hits.csv").read_text() == "t\n"


def test_out_of_memory_exits_2(tmp_path):
    resource = pytest.importorskip("resource")
    limit = 2 * 1024 ** 3

    def cap_address_space():  # runs in the child only
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    src_dir = str(Path(fptkit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src_dir, os.environ.get("PYTHONPATH", "")]),
           # one BLAS thread keeps the child's own buffers far below the limit
           "OPENBLAS_NUM_THREADS": "1"}
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "fptkit.cli", "solve", "--N", "300000000", "--out", str(out)],
        preexec_fn=cap_address_space, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 2, proc.stderr
    assert_one_line(proc.stderr, "invalid configuration: the run does not fit in memory")
    assert not out.exists()


def test_unmappable_shared_memory_exits_2(tmp_path):
    # the workers of simulate share one int64 per path: 2.4 GB for 3e8 paths
    resource = pytest.importorskip("resource")
    limit = 2 * 1024 ** 3

    def cap_address_space():  # runs in the child only
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    script = ("import os, sys\n"
              "os.sched_getaffinity = lambda pid: {0, 1}\n"
              "from fptkit.cli import main\n"
              "sys.exit(main(['simulate', '--n-paths', '300000000', '--out', sys.argv[1]]))\n")
    src_dir = str(Path(fptkit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src_dir, os.environ.get("PYTHONPATH", "")]),
           "FPT_THREADS": "2", "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                          preexec_fn=cap_address_space, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 2, proc.stderr
    assert_one_line(proc.stderr, "invalid configuration: the run does not fit in memory")
    assert not (tmp_path / "hits.csv").exists() and not (tmp_path / "mc.json").exists()


def test_commands_load_no_scipy(tmp_path):
    # scipy is a test dependency only: no fpt command may load any part of it;
    # nor multiprocessing or concurrent, since the helpers are forked directly
    script = """
import sys
import fptkit
from fptkit.cli import main
args = ["--N", "64", "--T", "1", "--out", sys.argv[1]]
codes = [main(["solve", *args]), main(["validate", *args]),
         main(["green", *args, "--x-min", "-1", "--x-max", "0.5", "--t-min", "0.5",
               "--t-max", "1", "--nx", "4", "--nt", "4"]),
         main(["simulate", *args, "--n-paths", "64", "--dt", "0.01"])]
print(codes, sorted(name for name in sys.modules
                   if name.split(".")[0] in ("scipy", "multiprocessing", "concurrent")))
"""
    src_dir = str(Path(fptkit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src_dir, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[0, 0, 0, 0] []"


def test_commands_that_do_not_simulate_load_no_numpy_random(tmp_path):
    # numpy 2 imports numpy.random on first attribute access, 17 ms and 6 MB
    # per process; only the Monte Carlo walk touches it
    script = """
import sys
import fptkit
from fptkit.cli import main
args = ["--N", "64", "--T", "1", "--out", sys.argv[1]]
codes = [main(["solve", *args]), main(["validate", *args]),
         main(["green", *args, "--x-min", "-1", "--x-max", "0.5", "--t-min", "0.5",
               "--t-max", "1", "--nx", "4", "--nt", "4"])]
print(codes, "numpy.random" in sys.modules)
"""
    src_dir = str(Path(fptkit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src_dir, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[0, 0, 0] False"


def test_run_json_config_round_trips(tmp_path):
    first, second = tmp_path / "first", tmp_path / "second"
    assert run(["solve", *LINEAR_ARGS, "--method", "both", "--out", str(first)]) == 0
    doc = json.loads((first / "run.json").read_text())
    (tmp_path / "cfg.json").write_text(json.dumps(doc["config"]))
    assert run(["solve", "--config", str(tmp_path / "cfg.json"), "--out", str(second)]) == 0
    assert (first / "density.csv").read_bytes() == (second / "density.csv").read_bytes()
    again = json.loads((second / "run.json").read_text())
    assert again["content_sha256"] == doc["content_sha256"]


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=3),
    max_leaves=6,
)
NUMBER = st.integers(-8, 8) | st.floats(-4.0, 4.0)
#: a value of each key's own type, mostly in its working range; numbers that
#: would make a run slow or large stay bounded (the Volterra solve costs N^2,
#: the MC oracle n_paths * T/dt substeps)
TYPED = {
    ("boundary", "kind"): st.sampled_from(["constant", "linear", "power", "sampled"]),
    ("boundary", "theta"): st.floats(0.4, 1.0),
    ("boundary", "csv_path"): st.none() | st.just("curve.csv") | st.text(max_size=8),
    ("source", "center"): st.none() | NUMBER,
    ("source", "width"): st.none() | st.floats(-0.5, 2.0),
    ("grid", "T"): st.floats(-1.0, 4.0),
    ("grid", "N"): st.integers(8, 64) | st.integers(8, 64).map(float),
    ("grid", "q"): st.floats(0.5, 4.0),
    ("method",): st.sampled_from(["marching", "picard", "both"]),
    ("mc", "n_paths"): st.integers(-2, 256),
    ("mc", "dt"): st.floats(1e-3, 1.0),
    ("mc", "seed"): st.integers(-1, 2 ** 64),
    ("output", "directory"): st.text(max_size=8),
}
BOUNDED = {("grid", "N"), ("grid", "T"), ("mc", "n_paths"), ("mc", "dt")}


def _not_a_number(value):
    return isinstance(value, bool) or not isinstance(value, (int, float))


@st.composite
def config_documents(draw):
    """A config document over the table's keys: typed values, except that at
    most one key holds a JSON value of any type or one key is not in the table."""
    flaw = draw(st.sampled_from(["none", "none", "any_type", "unknown_key"]))
    paths = draw(st.lists(st.sampled_from(list(fptkit.cli.CONFIG)), unique=True))
    junk = draw(st.sampled_from(paths)) if paths and flaw == "any_type" else None
    doc = {}
    for path in paths:
        if path == junk:
            value = draw(JSON.filter(_not_a_number) if path in BOUNDED else JSON)
        else:
            value = draw(TYPED.get(path, NUMBER))
        *section, key = path
        (doc.setdefault(section[0], {}) if section else doc)[key] = value
    if flaw == "unknown_key":
        node = draw(st.sampled_from([doc, *(v for v in doc.values() if isinstance(v, dict))]))
        node[draw(st.text(max_size=6))] = draw(JSON)
    return doc


#: the flags each command needs besides the config: a small green lattice,
#: early enough to fit some fuzzed horizons and not others
COMMAND_ARGS = {
    "solve": [],
    "simulate": [],
    "validate": [],
    "green": ["--x-min", "-1", "--x-max", "1", "--t-min", "0.05", "--t-max", "0.25",
              "--nx", "3", "--nt", "2"],
}


def _ends_in_an_exit_code(argv, doc=None):
    """Run `fpt` in a scratch directory holding curve.csv (and `doc` as cfg.json).

    It must return a documented exit code, with exactly one stderr line on
    failure and only finite values in the CSVs it writes under out/ on success.
    """
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        if doc is not None:
            (tmp / "cfg.json").write_text(json.dumps(doc))
        (tmp / "curve.csv").write_text("t,x\n0,1\n2,1.5\n4,1.25\n")
        err = io.StringIO()
        cwd = os.getcwd()
        os.chdir(tmp)  # a fuzzed csv_path resolves in the scratch directory
        try:
            with contextlib.redirect_stderr(err):
                code = main(argv)
        finally:
            os.chdir(cwd)
        assert code in (0, 2, 3, 4, 5)
        if code:
            assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
        else:
            for csv in (tmp / "out").glob("*.csv"):
                rows = csv.read_text().splitlines()[1:]
                assert all(math.isfinite(float(v)) for row in rows for v in row.split(","))


@settings(max_examples=120, deadline=None)
@given(command=st.sampled_from(list(COMMAND_ARGS)), doc=config_documents())
def test_fuzzed_config_ends_in_an_exit_code(command, doc):
    _ends_in_an_exit_code([command, "--config", "cfg.json", "--out", "out",
                           *COMMAND_ARGS[command]], doc)


#: the config sections whose flags only one command takes
SECTION_COMMANDS = {"method": "solve", "mc": "simulate"}
#: flags of one command beyond the config table; green's lattice flags are
#: always given, and --nx and --nt bound the lattice
COMMAND_FLAGS = {
    "validate": {"--suite": st.none() | st.sampled_from(fptkit.cli.SUITES)},
    "green": {"--x-min": NUMBER, "--x-max": NUMBER, "--t-min": st.floats(-0.5, 2.0),
              "--t-max": st.floats(0.0, 4.0), "--nx": st.integers(-1, 4),
              "--nt": st.integers(-1, 4)},
}
LATTICE = {"--x-min", "--x-max", "--t-min", "--t-max", "--nx", "--nt"}
#: values a run accepts, by flag, for flags whose typed range goes past them:
#: a horizon long enough for the lattice and the MC step, and a source below
#: the boundary start
WORKING = {
    "--T": st.floats(1.0, 4.0),
    "--q": st.floats(1.0, 4.0),
    "--a": st.floats(0.5, 4.0),
    "--theta": st.floats(0.55, 1.0),
    "--boundary-csv": st.just("curve.csv"),
    "--r0": st.floats(-2.0, 0.25),
    "--bump-center": st.floats(-2.0, 0.0),
    "--bump-width": st.floats(0.01, 0.5),
    "--n-paths": st.integers(1, 256),
    "--dt": st.floats(1e-3, 0.1),
    "--seed": st.integers(0, 2 ** 64 - 1),
    "--x-min": st.floats(-3.0, 0.0),
    "--x-max": st.floats(0.0, 1.0),
    "--t-min": st.floats(0.01, 0.5),
    "--t-max": st.floats(0.5, 1.0),
    "--nx": st.integers(1, 4),
    "--nt": st.integers(1, 4),
}
#: flags given together or not at all: a bump's centre and width, and a
#: boundary kind with the CSV a sampled one reads
UNITS = ({"--bump-center", "--bump-width"}, {"--boundary", "--boundary-csv"})


def _parses_as_number(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


@st.composite
def command_lines(draw):
    """`fpt` argv as --flag=value over some of a command's flags, and always
    over the bounded and lattice ones, with each of `UNITS` given whole.
    Values lie in `WORKING`, so that most draws reach a run, except that at
    most one flag holds a value from its whole typed range (a None value
    omits its flag) or an arbitrary short string (never a number for a
    bounded flag).  --out stays out/, since a fuzzed one could write outside
    the scratch directory."""
    command = draw(st.sampled_from(list(COMMAND_ARGS)))
    flags, always, bounded = {}, set(LATTICE), {"--nx", "--nt"}
    for path, (kind, _, flag) in fptkit.cli.CONFIG.items():
        if flag == "--out" or SECTION_COMMANDS.get(path[0], command) != command:
            continue
        flags[flag] = TYPED.get(path, NUMBER)
        if kind is int:
            # a JSON config takes 8.0 for an integer, an integer flag does not
            flags[flag] = flags[flag].map(int)
        if path in BOUNDED:
            always.add(flag)
            bounded.add(flag)
    flags.update(COMMAND_FLAGS.get(command, {}))
    chosen = set(draw(st.lists(st.sampled_from(sorted(flags.keys() - always)), unique=True)))
    for unit in UNITS:
        if chosen & unit:
            chosen |= unit & flags.keys()
    chosen = sorted(chosen) + sorted(always & flags.keys())
    odd = draw(st.sampled_from(chosen))
    flaw = draw(st.sampled_from(["none", "none", "range", "junk"]))
    argv = [command, "--out=out"]
    for flag in chosen:
        if flag == odd and flaw == "junk":
            text = st.text(max_size=6)
            if flag in bounded:
                text = text.filter(lambda v: not _parses_as_number(v))
            value = draw(text)
        elif flag == odd and flaw == "range":
            value = draw(flags[flag])
        else:
            value = draw(WORKING.get(flag, flags[flag]))
        if value is not None:
            argv.append(f"{flag}={value}")
    return argv


@settings(max_examples=60, deadline=None)
@given(argv=command_lines())
def test_fuzzed_flags_end_in_an_exit_code(argv):
    _ends_in_an_exit_code(argv)
