import argparse
import json
import platform
import sys

import numpy as np
import pytest

from dcgrid import cli, network, simulation, systems
from dcgrid.cli import run

from .conftest import block_shapes, count_eig_sym


@pytest.fixture(autouse=True)
def _workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run_json(argv, capsys):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def trajectory_rows(kind, n, c, T):
    """Rows of a trajectory CSV, as the benchmark counts them: round(T /
    dt) default steps, one row every max(1, steps // rows) of them, and
    the initial state."""
    params = systems.ControllerParams(c=c, k_p=0.1, k=100.0, gamma=1000.0)
    net = network.generate_lattice(1, n)
    model = (systems.assemble_slack(net, params, 0) if kind == "slack"
             else getattr(systems, f"assemble_{kind}")(net, params))
    steps = round(T / simulation.default_dt(model))
    return steps // max(1, steps // cli.DEFAULT_ROWS) + 1


def csv_rows(path):
    return len(path.read_text().strip().split("\n")) - 1


@pytest.fixture
def recorded(monkeypatch):
    """Every trajectory ``simulation.simulate`` returns, in call order."""
    trajectories = []
    simulate = simulation.simulate

    def record(*args, **kwargs):
        trajectories.append(simulate(*args, **kwargs))
        return trajectories[-1]
    monkeypatch.setattr(simulation, "simulate", record)
    return trajectories


def repr_csv(traj, header):
    """A trajectory CSV written value by value with repr, the text that
    ``export_trajectory`` must reproduce byte for byte."""
    labels = list(traj.state_labels)
    cols = [labels.index("V" + name[2:]) for name in header.split(",")[1:]]
    table = np.column_stack([traj.times, traj.states[:, cols]]).tolist()
    return "".join([header + "\n"] + [",".join(map(repr, row)) + "\n"
                                      for row in table])


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
        assert set(meta["versions"]) == {"dcgrid", "numpy", "scipy", "python",
                                         "platform"}
        assert meta["versions"]["platform"] == sys.platform
        assert meta["versions"]["python"] == platform.python_version()


class TestLargeLattices:
    """Box lattices far beyond dense sizes run on the analytic spectrum."""

    def test_large_resistance_path(self, capsys):
        # lambda_1 = 2.5e-10 is a valid zero-free mode, not a second zero
        code, doc = run_json(["h2", "--gen", "path:1000", "--resistance",
                              "1e4", "--c", "1"], capsys)
        assert code == 0
        assert abs(doc["h2_slack"] / (1e4 * 999 / 4) - 1) <= 1e-13

    def test_path_100000_slack(self, capsys):
        code, doc = run_json(["h2", "--gen", "path:100000", "--c", "1"],
                             capsys)
        assert code == 0
        assert abs(doc["h2_slack"] / (99999 / 4) - 1) <= 1e-13

    def test_path_100000_edge_list(self, capsys, tmp_path):
        # a lattice read back from its edge-list file is still analytic
        assert run(["gen", "--gen", "path:100000", "--format", "edges",
                    "--out", "p"]) == 0
        capsys.readouterr()
        path = tmp_path / "p_network.edges"
        code, doc = run_json(["h2", "--gen", f"file:{path}", "--c", "1"],
                             capsys)
        assert code == 0
        assert abs(doc["h2_slack"] / (99999 / 4) - 1) <= 1e-13

    def test_dense_limit_is_an_error(self, capsys, tmp_path, monkeypatch):
        # one reweighted edge takes path:100000 off the analytic route; the
        # 74.5 GiB dense Laplacian must be refused before it is allocated
        path = tmp_path / "p.edges"
        path.write_text("0 1 2.0\n" + "".join(
            f"{i} {i + 1} 1.0\n" for i in range(1, 99999)))
        zeros = np.zeros

        def small_zeros(shape, *args, **kwargs):
            assert np.prod(shape) < 1e8, f"allocation of {shape} started"
            return zeros(shape, *args, **kwargs)
        monkeypatch.setattr(np, "zeros", small_zeros)
        assert run(["h2", "--gen", f"file:{path}", "--out", "x"]) == 1
        captured = capsys.readouterr()
        doc = strict_json(captured.out)
        assert doc["error"] == "InvalidSize"
        assert "Traceback" not in captured.err
        assert list(tmp_path.iterdir()) == [path]

    def test_path_100000_resistance(self, capsys):
        code, doc = run_json(["resist", "--gen", "path:100000", "--pair",
                              "0,99999"], capsys)
        assert code == 0
        assert abs(doc["effective_resistance"] / 99999 - 1) <= 1e-9


class TestNoEigenvectors:
    """No command that reads a Laplacian spectrum needs an eigenvector."""

    @pytest.mark.parametrize("spec, pair, family", [
        ("grid2:5x6", "0,29", "grid2d"),
        ("fuzz:2:grid2:5x5", "0,24", "hfuzz"),
    ], ids=["lattice", "hfuzz"])
    def test_eigh_unused(self, spec, pair, family, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg.eigh called")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        for argv in (["h2", "--gen", spec], ["compare", "--gen", spec],
                     ["resist", "--gen", spec, "--pair", pair],
                     ["sweep", "--family", family, "--sizes", "3,4,5"]):
            assert run(argv) == 0, argv


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

    def test_deeply_nested_fuzz_spec(self, capsys):
        # 1200 nested prefixes once passed the recursion limit; a 1-fuzz
        # keeps the edges, so the network is the one of a single prefix
        code, deep = run_json(["h2", "--gen", "fuzz:1:" * 1200 + "path:3"],
                              capsys)
        _, single = run_json(["h2", "--gen", "fuzz:1:path:3"], capsys)
        assert code == 0 and deep["n"] == single["n"] == 3


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

    def test_dense_limit_is_a_computation_error(self, capsys, tmp_path):
        # the sizes are valid; the 2-fuzz of the 53 x 53 grid, 2809 buses,
        # is past the dense route's limit
        code = run(["sweep", "--family", "hfuzz", "--sizes", "2,53",
                    "--out", "big"])
        captured = capsys.readouterr()
        assert code == 1
        assert strict_json(captured.out)["error"] == "InvalidSize"
        assert list(tmp_path.iterdir()) == []

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

    def test_same_node_is_zero(self, capsys, tmp_path):
        # R(i, i) = 0 is defined, so the pair is a result, not an error
        code = run(["resist", "--gen", "path:3", "--pair", "2,2",
                    "--out", "r"])
        out = capsys.readouterr().out
        assert code == 0
        assert '"effective_resistance": 0.0' in out
        assert (tmp_path / "r_meta.json").exists()


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

    @pytest.mark.parametrize("seed", [3, 11])
    def test_same_bytes_as_repr(self, capsys, tmp_path, recorded, seed):
        assert run(["sim", "--gen", "path:12", "--kind", "dapi", "--T",
                    "0.05", "--seed", str(seed), "--out", "a"]) == 0
        text = (tmp_path / "a_traj.csv").read_text()
        [traj] = recorded
        assert text == repr_csv(traj, text.split("\n")[0])

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

    def test_row_contract(self, capsys, tmp_path):
        # a change to the grid must fail here before it fails the benchmark
        code, doc = run_json(["sim", "--gen", "path:100", "--kind", "dapi",
                              "--T", "0.3", "--out", "r"], capsys)
        assert code == 0
        expected = trajectory_rows("dapi", 100, 1e-3, 0.3)
        assert expected == 1531
        assert doc["rows"] == csv_rows(tmp_path / "r_traj.csv") == expected

    def test_huge_horizon_decays_to_zero(self, capsys, tmp_path):
        # scipy's expm(A h) alone returns NaN once ||A h|| passes about
        # 1e38; the propagator's halved series squares down to 0
        code, doc = run_json(["sim", "--gen", "path:4", "--T", "1e40",
                              "--out", "h"], capsys)
        assert code == 0
        rows = (tmp_path / "h_traj.csv").read_text().strip().split("\n")[1:]
        values = np.array([[float(v) for v in row.split(",")] for row in rows])
        assert len(rows) == doc["rows"] and np.isfinite(values).all()
        assert np.all(values[-1, 1:] == 0.0)


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

    def test_rerun_byte_identical(self, capsys, tmp_path):
        argv = ["fig2", "--n", "6", "--T", "0.05", "--rows", "200",
                "--seed", "7", "--out", "a"]
        assert run(argv) == 0
        first = {p.name: p.read_bytes() for p in tmp_path.glob("a_*.csv")}
        assert len(first) == 6
        assert run(argv) == 0
        assert {p.name: p.read_bytes()
                for p in tmp_path.glob("a_*.csv")} == first

    @pytest.mark.parametrize("seed", [3, 11])
    def test_same_bytes_as_repr(self, capsys, tmp_path, recorded, seed):
        assert run(["fig2", "--n", "6", "--T", "0.05", "--rows", "300",
                    "--seed", str(seed), "--out", "a"]) == 0
        names = [f"a_{kind}_{tag}.csv" for tag in ("c1mF", "c1F")
                 for kind in ("slack", "droop", "dapi")]
        assert len(recorded) == len(names)
        for name, traj in zip(names, recorded):
            text = (tmp_path / name).read_text()
            assert text == repr_csv(traj, text.split("\n")[0])

    def test_row_contract(self, capsys, tmp_path):
        code, doc = run_json(["fig2", "--n", "10", "--T", "0.05", "--out",
                              "r"], capsys)
        assert code == 0
        for tag, c, T in (("c1mF", 1e-3, 0.05), ("c1F", 1.0, 50.0)):
            for kind in ("slack", "droop", "dapi"):
                assert (csv_rows(tmp_path / f"r_{kind}_{tag}.csv")
                        == trajectory_rows(kind, 10, c, T))


@pytest.mark.parametrize("kind", ["slack", "droop", "dapi"])
def test_sim_is_one_cell_of_fig2(kind, capsys, tmp_path):
    assert run(["sim", "--gen", "path:10", "--kind", kind, "--T", "0.05",
                "--seed", "6", "--out", "s"]) == 0
    assert run(["fig2", "--n", "10", "--T", "0.05", "--seed", "6",
                "--out", "f"]) == 0
    assert ((tmp_path / "s_traj.csv").read_bytes()
            == (tmp_path / f"f_{kind}_c1mF.csv").read_bytes())


class TestOptions:
    """Each subcommand accepts exactly the options it reads, so no option
    is settable without effect."""

    EXPECTED = {
        "gen": "gen resistance out format",
        "h2": "gen resistance c kp k gamma ground out",
        "compare": "gen resistance c kp k gamma ground out",
        "sweep": "resistance c kp k gamma ground out family sizes",
        "resist": "gen resistance out pair",
        "sim": "gen resistance c kp k gamma ground seed out kind T buses",
        "fig2": "resistance kp k gamma ground seed out n T rows",
    }

    def test_option_sets(self):
        (commands,) = [a.choices for a in cli._build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction)]
        got = {name: {a.dest for a in parser._actions if a.dest != "help"}
               for name, parser in commands.items()}
        assert got == {name: set(dests.split())
                       for name, dests in self.EXPECTED.items()}

    @pytest.mark.parametrize("argv", [
        ["gen", "--gen", "path:4", "--c", "5"],
        ["resist", "--gen", "path:4", "--ground", "9"],
        ["h2", "--gen", "path:4", "--seed", "1"],
        ["sweep", "--family", "path", "--sizes", "3,4", "--seed", "1"],
        ["fig2", "--n", "3", "--c", "1"],
        # simulate lays out its own grid, so sim takes no step
        ["sim", "--gen", "path:3", "--dt", "nan"],
        ["sim", "--gen", "path:3", "--dt", "0"],
        # every initial state is x0 = B xi, so sim takes no law to draw it by
        ["sim", "--gen", "path:3", "--mode", "bb_star"],
    ])
    def test_unread_option_is_usage_error(self, argv, tmp_path):
        assert run(argv) == 2
        assert list(tmp_path.iterdir()) == []

    def test_every_value_is_checked_where_it_is_declared(self):
        # the argparse type declared once in _OPTIONS converts and checks
        # each option's value, or its choices bound it; --gen's spec is
        # read by parse_generator_spec
        (commands,) = [a.choices for a in cli._build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction)]
        for parser in commands.values():
            for action in parser._actions[1:]:  # after --help
                assert action.type is cli._OPTIONS[action.dest].get("type")
                assert (action.type or action.choices
                        or action.dest == "gen"), action.dest


# a refused value of every option, after argv that a subcommand reading it
# takes; each is refused while argv is parsed, but --gen's, which
# parse_generator_spec refuses before anything is built
BAD_VALUES = {
    "gen": (["h2"], "torus:3"),
    "resistance": (["h2", "--gen", "path:3"], "x"),
    "c": (["h2", "--gen", "path:3"], "-1"),
    "kp": (["fig2"], "nan"),
    "k": (["compare", "--gen", "path:3"], "0"),
    "gamma": (["sim", "--gen", "path:3"], "inf"),
    "ground": (["h2", "--gen", "path:3"], "1.5"),
    "seed": (["sim", "--gen", "path:3"], str(2**64)),
    "out": (["h2", "--gen", "path:3"], "missing/x"),
    "format": (["gen", "--gen", "path:3"], "csv"),
    "family": (["sweep", "--sizes", "3,4"], "torus"),
    "sizes": (["sweep", "--family", "path"], "4,3"),
    "pair": (["resist", "--gen", "path:3"], "0,1,2"),
    "kind": (["sim", "--gen", "path:3"], "pid"),
    "T": (["fig2"], "0"),
    "buses": (["sim", "--gen", "path:3"], "1;2"),
    "n": (["fig2"], "2.5"),
    "rows": (["fig2"], str(10**400)),
}


class TestUsageErrorLine:
    """Every usage error is one ``usage error:`` line on stderr, with
    nothing on stdout and no file written."""

    def test_every_option_has_a_bad_value(self):
        assert set(BAD_VALUES) == set(cli._OPTIONS)

    @pytest.mark.parametrize("argv, named", [
        (["h2", "--out", "x"], "--gen"),
        (["h2", "--gen", "path:3", "--out", "x", "--frob", "1"], "--frob"),
    ] + [(argv + [f"--{name}={bad}"] + ["--out", "x"] * (name != "out"),
          "" if name == "gen" else f"argument --{name}:")
         for name, (argv, bad) in BAD_VALUES.items()],
        ids=["h2-no-gen", "unknown-option"] + list(BAD_VALUES))
    def test_one_line(self, argv, named, capsys, tmp_path):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("usage error: ") and named in line
        assert list(tmp_path.iterdir()) == []


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


class TestRepeatedRuns:
    """The parser is built once per process; successive runs share it but
    no parsed state."""

    def test_parser_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_option_does_not_carry_over(self, capsys, tmp_path):
        _, wide = run_json(["h2", "--gen", "path:10", "--c", "2"], capsys)
        _, plain = run_json(["h2", "--gen", "path:10"], capsys)
        assert np.isclose(wide["h2_slack"], 4.5)
        assert np.isclose(plain["h2_slack"], 2.25e-3)
        meta = json.loads((tmp_path / "dcgrid_run_meta.json").read_text())
        assert meta["config"]["c"] == 1e-3

    def test_subcommand_options_do_not_carry_over(self, capsys, tmp_path):
        assert run(["resist", "--gen", "path:5", "--pair", "0,4"]) == 0
        capsys.readouterr()
        _, doc = run_json(["resist", "--gen", "path:5"], capsys)
        assert "pair" not in doc
        meta = json.loads((tmp_path / "dcgrid_run_meta.json").read_text())
        assert meta["config"]["pair"] is None

    @pytest.mark.parametrize("bad", [["h2"], ["h2", "--gen", "path:5",
                                              "--c", "x"], ["frobnicate"]])
    def test_usage_error_does_not_poison_next_run(self, bad, capsys):
        assert run(bad) == 2
        capsys.readouterr()
        code, doc = run_json(["h2", "--gen", "path:10"], capsys)
        assert code == 0
        assert np.isclose(doc["h2_slack"], 2.25e-3)


class TestBoundaries:
    """Each bad input exits 1 or 2 with no traceback and no _meta.json."""

    @pytest.mark.parametrize("argv", [
        ["resist", "--gen", "path:3", "--pair", "0,99"],
        ["resist", "--gen", "path:3", "--pair=-1,0"],
        ["h2", "--gen", "path:3", "--ground", "-1"],
        ["h2", "--gen", "path:5", "--resistance", "inf"],
        ["sim", "--gen", "path:4", "--kind", "dapi", "--k", "1e-300",
         "--gamma", "1e300"],
        ["sim", "--gen", "path:4", "--c", "1e308", "--resistance", "1e20"],
        # a conductance 1/R past the largest float, on both spectrum routes
        ["h2", "--gen", "path:4", "--resistance", "1e-320"],
        ["h2", "--gen", "fuzz:2:path:5", "--resistance", "1e-320"],
        # a conductance sum below the largest float whose double is not,
        # past the bound 2 d_max on the largest eigenvalue
        ["h2", "--gen", "grid3:3x3x3", "--resistance", "4e-308"],
        # T / dt = 1e10 / 2.5e-302 and 1e306 / 3.3e-5 are no finite step
        # counts
        ["sim", "--gen", "path:4", "--c", "1e-300", "--T", "1e10"],
        ["fig2", "--n", "3", "--T", "1e306"],
        # results that overflow: once printed as Infinity or NaN, exit 0,
        # with numpy's overflow warnings on stderr and the sweep's CSV
        # written first
        ["resist", "--gen", "grid2:3x3", "--pair", "0,8", "--resistance",
         "1e308"],
        ["resist", "--gen", "path:4", "--pair", "0,3", "--resistance",
         "1e308"],
        ["compare", "--gen", "path:3", "--c", "1e308"],
        ["sweep", "--family", "path", "--sizes", "3,4", "--resistance",
         "1e308"],
        # a box whose edge and spectrum arrays would take 292 TB, refused
        # before they are made
        ["h2", "--gen", "grid2:1000000000000x2"],
        # A's entries are finite but its row-sum bound overflows, so the
        # step 0.1 / rho was 0 and T / dt a ZeroDivisionError
        ["sim", "--gen", "path:3", "--c", "1.5e-308", "--T", "1e-300"],
    ])
    @pytest.mark.filterwarnings("error")
    def test_computation_error(self, argv, capsys, tmp_path):
        assert run(argv + ["--out", "x"]) == 1
        captured = capsys.readouterr()
        assert "error" in strict_json(captured.out)
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["sweep", "--family", "path", "--sizes", "10"],
        ["sweep", "--family", "path", "--sizes", "10,10"],
        ["sweep", "--family", "path", "--sizes", "10,5"],
        ["h2", "--gen", "path:5", "--c", "-1"],
        ["h2", "--gen", "path:5", "--c", "inf"],
        ["compare", "--gen", "path:5", "--gamma", "inf"],
        ["fig2", "--n", "3", "--kp", "nan"],
        # no family builds a side of 1; this once exited 1 from the build
        ["sweep", "--family", "path", "--sizes", "1,2"],
    ])
    def test_usage_error(self, argv, capsys, tmp_path):
        assert run(argv + ["--out", "x"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("usage error:")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["gen", "--gen", "path:3"],
        ["h2", "--gen", "path:3"],
        ["fig2", "--n", "3"],
    ], ids=["gen", "h2", "fig2"])
    def test_out_in_missing_directory(self, argv, capsys, tmp_path,
                                      monkeypatch):
        # each once computed its result and then ended in a
        # FileNotFoundError at its first write; now it is refused before
        # the network is built
        def refuse(*args, **kwargs):
            raise AssertionError("computed before checking --out")

        monkeypatch.setattr(cli, "parse_generator_spec", refuse)
        monkeypatch.setattr(network, "generate_lattice", refuse)
        assert run(argv + ["--out", str(tmp_path / "missing" / "x")]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("usage error:")
        assert captured.err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, taken", [
        (["gen", "--gen", "path:3"], "x_meta.json"),
        (["h2", "--gen", "path:3"], "x_meta.json"),
        (["sweep", "--family", "path", "--sizes", "5,9"], "x_meta.json"),
        (["sim", "--gen", "path:3", "--T", "0.01"], "x_meta.json"),
        (["fig2", "--n", "3", "--T", "0.01"], "x_meta.json"),
        (["fig2", "--n", "3", "--T", "0.01"], "x_dapi_c1F.csv"),
    ], ids=["gen", "h2", "sweep", "sim", "fig2-meta", "fig2-last-csv"])
    def test_directory_in_the_way(self, argv, taken, capsys, tmp_path):
        # each once wrote its other files and then ended in an
        # IsADirectoryError traceback
        (tmp_path / taken).mkdir()
        assert run(argv + ["--out", "x"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("usage error:")
        assert captured.err.count("\n") == 1
        assert captured.out == ""
        assert [p.name for p in tmp_path.iterdir()] == [taken]

    def test_name_too_long(self, capsys, tmp_path):
        # the 255-byte CSV name was once written before the 256-byte
        # metadata name ended in an OSError traceback
        argv = ["sim", "--gen", "path:3", "--T", "0.01", "--out", "a" * 246]
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("usage error:")
        assert captured.err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, files", [
        (["sim", "--gen", "path:3", "--T", "0.01"], 2),
        (["fig2", "--n", "3", "--T", "0.01"], 7),
    ], ids=["sim", "fig2"])
    def test_write_error_removes_new_files(self, argv, files, capsys,
                                           tmp_path, monkeypatch):
        # an open that fails at the k-th file leaves none of the files
        # this run created, one error line and exit code 1; a file that
        # was there before stays
        (tmp_path / "x_traj.csv").write_text("old\n")
        for k in range(1, files + 1):
            calls = []

            def failing(*args, **kwargs):
                calls.append(args)
                if len(calls) == k:
                    raise OSError(28, "No space left on device")
                return open(*args, **kwargs)

            monkeypatch.setattr(cli, "open", failing, raising=False)
            assert run(argv + ["--out", "x"]) == 1
            captured = capsys.readouterr()
            assert captured.err.startswith("error: OSError:")
            assert captured.err.count("\n") == 1
            assert strict_json(captured.out)["error"] == "OSError"
            assert [p.name for p in tmp_path.iterdir()] == ["x_traj.csv"]
        assert len(calls) == files

    @pytest.mark.parametrize("argv", [
        ["sim", "--gen", "path:3", "--buses", "a"],
        ["sim", "--gen", "path:3", "--T", "nan"],
        ["fig2", "--n", "3", "--T", "nan"],
        ["sim", "--gen", "path:3", "--T", "inf"],
        ["fig2", "--n", "3", "--rows", "0"],
        ["sim", "--gen", "path:4", "--seed", "-1"],
        ["fig2", "--n", "3", "--seed", str(2**64)],
        ["fig2", "--n", "3", "--rows", "100001"],
        ["fig2", "--n", "3", "--rows", str(10**400)],
    ], ids=["sim-buses-a", "sim-T-nan", "fig2-T-nan", "sim-T-inf",
            "fig2-rows-0", "sim-seed-negative", "fig2-seed-2to64",
            "fig2-rows-100001", "fig2-rows-10to400"])
    def test_simulation_usage_error(self, argv, capsys, tmp_path):
        assert run(argv + ["--out", "x"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("usage error:")
        assert "Traceback" not in captured.err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("name, text", [
        ("net.json", json.dumps({"n": 3, "edges": [[0.5, 1, 1.0],
                                                   [1, 2, 1.0]]})),
        ("net.json", json.dumps({"n": 3.0, "edges": [[0, 1, 1.0],
                                                     [1, 2, 1.0]]})),
        ("net.json", json.dumps({"n": 3})),
        ("net.json", '{"n": 3, "edges": [[0, 1, 1.0]'),
        ("net.edges", "0 1.5 1\n"),
        ("net.edges", "0 1 x\n"),
        ("net.edges", "# a header and no edge line\n\n"),
        ("net.edges", "0 nan 1\n"),
    ], ids=["fractional-index", "float-n", "no-edges", "malformed-json",
            "edges-fractional-index", "edges-text-resistance",
            "edges-none", "edges-nan-index"])
    def test_bad_network_file(self, name, text, capsys, tmp_path):
        # each was once truncated to an integer, ended in a traceback or
        # exited 2 as a bad generator spec
        path = tmp_path / name
        path.write_text(text)
        assert run(["h2", "--gen", f"file:{path}", "--out", "x"]) == 1
        captured = capsys.readouterr()
        assert strict_json(captured.out)["error"] == "InvalidEdge"
        assert "Traceback" not in captured.err
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("pairs", [
        [(0, 2), (1, 3)],
        [(0, 2), (4, 6), (0, 4), (2, 6), (1, 3), (5, 7), (1, 5), (3, 7)],
    ], ids=["two-stride-2-paths", "two-stride-2-grids"])
    def test_interleaved_boxes_are_disconnected(self, pairs, capsys,
                                                tmp_path):
        # equal gaps and a box's edge count, but no gap of 1: the graph
        # falls apart into interleaved copies of a smaller box
        path = tmp_path / "net.edges"
        path.write_text("".join(f"{i} {j} 1\n" for i, j in pairs))
        assert run(["h2", "--gen", f"file:{path}", "--out", "x"]) == 1
        captured = capsys.readouterr()
        assert strict_json(captured.out)["error"] == "DisconnectedGraph"
        assert "Traceback" not in captured.err
        assert list(tmp_path.iterdir()) == [path]

    def test_huge_gamma_is_finite(self, capsys):
        code = run(["compare", "--gen", "path:5", "--gamma", "1e200"])
        doc = strict_json(capsys.readouterr().out)
        assert code == 0
        assert doc["ordering_flags"]["dapi_le_droop"]
        assert 0 < doc["dapi"] <= doc["droop"]

    @pytest.mark.parametrize("argv", [
        ["compare", "--gen", "path:4", "--c", "1e300", "--gamma", "1e10"],
        ["sweep", "--family", "path", "--sizes", "2,3", "--c", "1e200"],
    ], ids=["compare-c-1e300", "sweep-c-1e200"])
    def test_extreme_finite_gains_give_finite_json(self, argv, capsys):
        code = run(argv)
        strict_json(capsys.readouterr().out)
        assert code == 0


# each case: argv, then the sides of every network on the dense route
SPECTRUM_CASES = [
    (["h2", "--gen", "fuzz:2:grid2:4x4"], [(4, 4)]),
    (["compare", "--gen", "fuzz:2:grid2:4x4"], [(4, 4)]),
    (["resist", "--gen", "fuzz:2:grid2:4x4", "--pair", "0,15"], [(4, 4)]),
    (["sweep", "--family", "hfuzz", "--sizes", "3,4,5"],
     [(3, 3), (4, 4), (5, 5)]),
    (["h2", "--gen", "grid2:4x4"], []),
    (["compare", "--gen", "path:9"], []),
    (["resist", "--gen", "grid3:2x3x4", "--pair", "0,23"], []),
    (["sweep", "--family", "grid2d", "--sizes", "3,4,5"], []),
    (["h2", "--gen", "file:grid3_network.edges"], []),
]


class TestSpectrumShared:
    """One dense eigensolve per network, shared by every quantity (split
    into 2^d blocks on an h-fuzz of a d-dimensional box, which each axis
    reversal maps onto itself, and further by the swap of its first two
    axes when they are equal), and none on a box lattice, whose spectrum
    is analytic."""

    # each id: the case's index, then the networks on the dense route
    @pytest.mark.parametrize(
        "argv, boxes", SPECTRUM_CASES,
        ids=[f"argv{k}-{len(boxes)}"
             for k, (_, boxes) in enumerate(SPECTRUM_CASES)])
    def test_eig_sym_calls(self, argv, boxes, capsys, monkeypatch):
        # the edge list that the file: spec above reads
        assert run(["gen", "--gen", "grid3:2x3x4", "--format", "edges",
                    "--out", "grid3"]) == 0
        calls = count_eig_sym(monkeypatch)
        assert run(argv) == 0
        assert calls == [shape for sides in boxes
                         for shape in block_shapes(sides)]

    @pytest.mark.parametrize("spec, sides, swap", [
        ("fuzz:2:grid2:6x7", (6, 7), False),
        ("fuzz:2:grid3:4x4x4", (4, 4, 4), True)])
    def test_swap_only_on_equal_first_sides(self, spec, sides, swap,
                                            capsys, monkeypatch):
        # 6 x 7 keeps the 2^d reversal blocks; 4 x 4 x 4 also folds its
        # blocks of equal signs on axes 0 and 1 by their swap
        calls = count_eig_sym(monkeypatch)
        assert run(["h2", "--gen", spec]) == 0
        assert calls == block_shapes(sides, swap=swap)
        assert len(calls) == (5 if swap else 4) * 2 ** (len(sides) - 2)

    def test_sides_hint_changes_speed_only(self, capsys, monkeypatch):
        # the file holds the fuzz's edges without its base box, so its
        # eigensolve splits by the whole-graph mirror alone: 2 blocks, not
        # the generator's 5 (four of the reversals and the swap, one of
        # signs (+, -)), and the same values
        assert run(["gen", "--gen", "fuzz:2:grid2:9x9", "--format", "edges",
                    "--out", "fuzz"]) == 0
        capsys.readouterr()
        docs = []
        for spec, sides in (("file:fuzz_network.edges", (81,)),
                            ("fuzz:2:grid2:9x9", (9, 9))):
            with monkeypatch.context() as patch:
                calls = count_eig_sym(patch)
                assert run(["h2", "--gen", spec]) == 0
            assert calls == block_shapes(sides)
            docs.append(json.loads(capsys.readouterr().out))
        for key in ("h2_slack", "h2_droop", "h2_dapi"):
            assert np.isclose(docs[0][key], docs[1][key], rtol=1e-13,
                              atol=0.0)
