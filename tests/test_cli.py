import json

import numpy as np
import pytest

from dcgrid import numerics
from dcgrid.cli import run


@pytest.fixture(autouse=True)
def _workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run_json(argv, capsys):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def strict_json(text):
    """Parse JSON, failing on NaN, Infinity and -Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


class TestH2:
    def test_path10_unit_capacitance(self, capsys):
        code, doc = run_json(["h2", "--gen", "path:10", "--c", "1"], capsys)
        assert code == 0
        assert doc["n"] == 10
        assert np.isclose(doc["h2_slack"], 2.25)
        assert np.isclose(doc["h2_droop"], 1.02765, atol=1e-5)
        assert doc["h2_dapi"] <= doc["h2_droop"]

    def test_defaults_are_study_values(self, capsys):
        # default c = 1e-3 scales every norm by 1e-3 vs c = 1
        _, small = run_json(["h2", "--gen", "path:10"], capsys)
        assert np.isclose(small["h2_slack"], 2.25e-3)

    def test_metadata_written(self, capsys, tmp_path):
        code, doc = run_json(["h2", "--gen", "path:5", "--out", "zz"], capsys)
        assert code == 0
        meta = json.loads((tmp_path / "zz_meta.json").read_text())
        assert doc["metadata"] == "zz_meta.json"
        assert meta["config"]["gen"] == "path:5"
        assert "dcgrid" in meta["versions"]


class TestGen:
    def test_json_roundtrip_through_file_spec(self, capsys, tmp_path):
        code, doc = run_json(["gen", "--gen", "grid2:3x3", "--out", "g"],
                             capsys)
        assert code == 0 and doc["n"] == 9 and doc["edges"] == 12
        path = tmp_path / "g_network.json"
        assert path.exists()
        code2, doc2 = run_json(["h2", "--gen", f"file:{path}", "--c", "1"],
                               capsys)
        code3, doc3 = run_json(["h2", "--gen", "grid2:3x3", "--c", "1"],
                               capsys)
        assert doc2["h2_slack"] == doc3["h2_slack"]

    def test_edges_format(self, capsys, tmp_path):
        code, doc = run_json(["gen", "--gen", "path:4", "--format", "edges",
                              "--out", "e"], capsys)
        assert code == 0
        lines = (tmp_path / "e_network.edges").read_text().strip().split("\n")
        data = [ln for ln in lines if ln and not ln.startswith("#")]
        assert len(data) == 3

    def test_fuzz_spec(self, capsys):
        code, doc = run_json(["gen", "--gen", "fuzz:2:grid2:3x3"], capsys)
        assert code == 0 and doc["edges"] == 26


class TestSweep:
    def test_path_sweep_csv(self, capsys, tmp_path):
        code, doc = run_json(["sweep", "--family", "path", "--sizes",
                              "10,20,40", "--c", "1", "--out", "s"], capsys)
        assert code == 0 and doc["records"] == 3
        lines = (tmp_path / "s_sweep.csv").read_text().strip().split("\n")
        assert lines[0] == "family,n,h2_slack,h2_droop,h2_dapi,kstar,kirchhoff"
        assert np.isclose(float(lines[1].split(",")[2]), 2.25)
        assert doc["fit"]["x_kind"] == "n"
        assert np.isclose(doc["fit"]["slope"], 0.25, atol=1e-9)

    def test_bad_sizes_is_usage_error(self, capsys, tmp_path):
        code = run(["sweep", "--family", "path", "--sizes", "ten",
                    "--out", "bad"])
        assert code == 2
        assert not (tmp_path / "bad_sweep.csv").exists()
        assert not (tmp_path / "bad_meta.json").exists()


class TestResist:
    def test_indices_and_pair(self, capsys):
        code, doc = run_json(["resist", "--gen", "path:3", "--pair", "0,2"],
                             capsys)
        assert code == 0
        assert np.isclose(doc["kirchhoff"], 4.0)
        assert np.isclose(doc["kstar"], 4 / 9)
        assert np.isclose(doc["effective_resistance"], 2.0)

    def test_same_node_is_computation_error(self, capsys, tmp_path):
        code = run(["resist", "--gen", "path:3", "--pair", "1,1",
                    "--out", "r"])
        assert code == 1
        assert not (tmp_path / "r_meta.json").exists()


class TestSim:
    def test_trajectory_file(self, capsys, tmp_path):
        code, doc = run_json(["sim", "--gen", "path:4", "--kind", "droop",
                              "--c", "1", "--T", "2", "--seed", "3",
                              "--out", "t"], capsys)
        assert code == 0
        lines = (tmp_path / "t_traj.csv").read_text().strip().split("\n")
        assert lines[0] == "t,V_0,V_1,V_2,V_3"
        assert doc["rows"] == len(lines) - 1

    def test_rerun_byte_identical(self, capsys, tmp_path):
        argv = ["sim", "--gen", "path:4", "--kind", "dapi", "--c", "1",
                "--T", "1", "--seed", "7", "--out", "a"]
        assert run(argv) == 0
        first = (tmp_path / "a_traj.csv").read_bytes()
        assert run(argv) == 0
        assert (tmp_path / "a_traj.csv").read_bytes() == first

    def test_bus_subset(self, capsys, tmp_path):
        code, _ = run_json(["sim", "--gen", "path:6", "--c", "1", "--T", "1",
                            "--buses", "1,5", "--out", "b"], capsys)
        assert code == 0
        header = (tmp_path / "b_traj.csv").read_text().split("\n")[0]
        assert header == "t,V_1,V_5"

    def test_slack_skips_ground(self, capsys, tmp_path):
        code, _ = run_json(["sim", "--gen", "path:4", "--kind", "slack",
                            "--c", "1", "--T", "1", "--out", "sl"], capsys)
        assert code == 0
        header = (tmp_path / "sl_traj.csv").read_text().split("\n")[0]
        assert header == "t,V_1,V_2,V_3"


class TestFig2:
    def test_emits_six_csvs(self, capsys, tmp_path):
        code, doc = run_json(["fig2", "--n", "10", "--T", "0.05",
                              "--rows", "50", "--out", "f"], capsys)
        assert code == 0
        expected = [f"f_{kind}_{tag}.csv" for tag in ("c1mF", "c1F")
                    for kind in ("slack", "droop", "dapi")]
        assert sorted(doc["files"]) == sorted(expected)
        for name in expected:
            header = (tmp_path / name).read_text().split("\n")[0]
            assert header.startswith("t,V_")


class TestErrors:
    def test_unknown_generator_is_usage_error(self):
        assert run(["h2", "--gen", "torus:5"]) == 2

    def test_unknown_subcommand(self):
        assert run(["frobnicate"]) == 2

    def test_missing_file_is_usage_error(self):
        assert run(["h2", "--gen", "file:/nonexistent/net.json"]) == 2

    def test_bad_ground_is_computation_error(self, capsys, tmp_path):
        code = run(["h2", "--gen", "path:3", "--ground", "9", "--out", "x"])
        assert code == 1
        assert not (tmp_path / "x_meta.json").exists()


class TestBoundaries:
    """Each bad input exits 1 or 2 with no traceback and no _meta.json."""

    @pytest.mark.parametrize("argv", [
        ["resist", "--gen", "path:3", "--pair", "0,99"],
        ["resist", "--gen", "path:3", "--pair=-1,0"],
        ["h2", "--gen", "path:3", "--ground", "-1"],
        ["h2", "--gen", "path:5", "--resistance", "inf"],
    ])
    def test_computation_error(self, argv, capsys, tmp_path):
        assert run(argv + ["--out", "x"]) == 1
        out = capsys.readouterr().out
        assert "error" in strict_json(out)
        assert not (tmp_path / "x_meta.json").exists()

    @pytest.mark.parametrize("argv", [
        ["sweep", "--family", "path", "--sizes", "10"],
        ["sweep", "--family", "path", "--sizes", "10,10"],
        ["sweep", "--family", "path", "--sizes", "10,5"],
        ["h2", "--gen", "path:5", "--c", "-1"],
        ["h2", "--gen", "path:5", "--c", "inf"],
        ["compare", "--gen", "path:5", "--gamma", "inf"],
        ["fig2", "--n", "3", "--kp", "nan"],
    ])
    def test_usage_error(self, argv, capsys, tmp_path):
        assert run(argv + ["--out", "x"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("usage error:")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["sim", "--gen", "path:3", "--buses", "a"],
        ["sim", "--gen", "path:3", "--T", "nan"],
        ["fig2", "--n", "3", "--T", "nan"],
        ["sim", "--gen", "path:3", "--dt", "nan"],
        ["sim", "--gen", "path:3", "--T", "inf"],
        ["sim", "--gen", "path:3", "--dt", "0"],
        ["fig2", "--n", "3", "--rows", "0"],
    ], ids=["sim-buses-a", "sim-T-nan", "fig2-T-nan", "sim-dt-nan",
            "sim-T-inf", "sim-dt-0", "fig2-rows-0"])
    def test_simulation_usage_error(self, argv, capsys, tmp_path):
        assert run(argv + ["--out", "x"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("usage error:")
        assert "Traceback" not in captured.err
        assert list(tmp_path.iterdir()) == []

    def test_huge_gamma_is_finite(self, capsys):
        code = run(["compare", "--gen", "path:5", "--gamma", "1e200"])
        doc = strict_json(capsys.readouterr().out)
        assert code == 0
        assert doc["ordering_flags"]["dapi_le_droop"]
        assert 0 < doc["dapi"] <= doc["droop"]


class TestSpectrumShared:
    """One dense eigensolve per network, shared by every quantity."""

    @pytest.mark.parametrize("argv, expected", [
        (["h2", "--gen", "grid2:4x4"], 1),
        (["compare", "--gen", "grid2:4x4"], 1),
        (["resist", "--gen", "grid2:4x4", "--pair", "0,15"], 1),
        (["sweep", "--family", "grid2d", "--sizes", "3,4,5"], 3),
    ])
    def test_eig_sym_calls(self, argv, expected, capsys, monkeypatch):
        calls = []
        original = numerics.eig_sym

        def counting(mat):
            calls.append(mat.shape)
            return original(mat)

        monkeypatch.setattr(numerics, "eig_sym", counting)
        assert run(argv) == 0
        assert len(calls) == expected
