"""Command line behavior: exit codes, formats, determinism, and the
report schema."""

import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import jsonschema
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wracah.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"
REPORT_SCHEMA = {
    "type": "object",
    "required": ["command", "max_j", "r", "pass", "suites"],
    "properties": {
        "command": {"const": "report"},
        "max_j": {"type": "string"},
        "r": {"type": "number"},
        "pass": {"type": "boolean"},
        "suites": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["suite", "k", "r", "checks"],
                "properties": {
                    "suite": {"type": "string"},
                    "k": {"type": ["integer", "null"]},
                    "r": {"type": ["number", "null"]},
                    "checks": {
                        "type": "array",
                        "minItems": 1,
                        "items": {
                            "type": "object",
                            "required": ["name", "residual", "tol", "pass"],
                            "properties": {
                                "name": {"type": "string"},
                                "residual": {"type": "number"},
                                "tol": {"type": "number"},
                                "pass": {"type": "boolean"},
                            },
                        },
                    },
                },
            },
        },
    },
}


@pytest.fixture()
def runner():
    return CliRunner()


class TestVerificationCommands:
    def test_quon_check_passes(self, runner):
        result = runner.invoke(main, ["quon-check", "--k", "5"])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert payload["pass"] is True
        assert all(c["pass"] for s in payload["suites"] for c in s["checks"])

    def test_su2_check_two_suites(self, runner):
        result = runner.invoke(main, ["su2-check", "--k", "5", "--r", "1"])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        names = {s["suite"] for s in payload["suites"]}
        assert names == {"su2-polar", "shift-eigenbasis"}
        worst = max(c["residual"] for s in payload["suites"] for c in s["checks"])
        assert worst <= 1e-10

    def test_explicit_tol_flag_beats_env(self, runner):
        """--tol replaces each suite's own default: every check reads it, and a tight one fails."""
        result = runner.invoke(main, ["quon-check", "--k", "3", "--tol", "1e-6"])
        assert result.exit_code == 0
        assert {c["tol"] for s in json.loads(result.output)["suites"] for c in s["checks"]} == {1e-6}
        assert runner.invoke(main, ["quon-check", "--k", "3", "--tol", "1e-30"]).exit_code == 1

    def test_tolerance_environment_variable_is_ignored(self, runner):
        """Only --tol sets a tolerance; WRACAH_TOL is no knob."""
        args = ["quon-check", "--k", "3"]
        plain = runner.invoke(main, args)
        tight = runner.invoke(main, args, env={"WRACAH_TOL": "1e-30"})
        assert plain.exit_code == tight.exit_code == 0
        assert tight.stdout_bytes == plain.stdout_bytes

    def test_ortho_mismatch_exits_one(self, runner):
        good = runner.invoke(main, ["ortho", "--j1", "1", "--j2", "1", "--r", "1"])
        assert good.exit_code == 0
        bad = runner.invoke(
            main, ["ortho", "--j1", "1", "--j2", "1", "--r", "1", "--mismatch-r", "2.37"]
        )
        assert bad.exit_code == 1
        payload = json.loads(bad.output)
        assert payload["pass"] is False

    def test_we_check(self, runner):
        result = runner.invoke(main, ["we-check", "--j", "3/2", "--rank", "1", "--r", "1"])
        assert result.exit_code == 0, result.output

    def test_winf(self, runner):
        result = runner.invoke(main, ["winf", "--k", "3", "--r", "0", "--max-index", "2"])
        assert result.exit_code == 0, result.output

    @pytest.mark.parametrize(
        "args, params",
        [
            (["quon-check", "--k", "3"], {"k": 3}),
            (["su2-check", "--k", "3", "--r", "2"], {"k": 3, "r": 2.0}),
            (["ortho", "--j1", "1", "--j2", "1/2", "--mismatch-r", "2"], {"j1": "1", "j2": "1/2", "r": 1.0}),
            (["we-check", "--j", "1", "--rank", "1"], {"j": "1", "rank": 1, "r": 1.0}),
            (["winf", "--k", "3"], {"k": 3, "r": 1.0, "max_index": 2}),
            (["report", "--max-j", "1/2"], {"max_j": "1/2", "r": 1.0}),
        ],
    )
    def test_payload_keys_in_order(self, runner, args, params):
        """Every verification command writes {"command", its parameters, "pass", "suites"}, in that order."""
        result = runner.invoke(main, args)
        payload = json.loads(result.output)
        assert list(payload) == ["command", *params, "pass", "suites"]
        assert {key: payload[key] for key in params} == params
        passed = all(c["pass"] for s in payload["suites"] for c in s["checks"])
        assert payload["command"] == args[0] and payload["pass"] is passed
        assert result.exit_code == (0 if passed else 1)

    def test_text_format_lines(self, runner):
        result = runner.invoke(main, ["quon-check", "--k", "3", "--format", "text"])
        assert result.exit_code == 0
        for line in result.output.strip().splitlines():
            assert line.startswith("pass")
            assert "residual=" in line

    def test_csv_format_header(self, runner):
        result = runner.invoke(main, ["quon-check", "--k", "3", "--format", "csv"])
        assert result.exit_code == 0
        header = result.output.splitlines()[0]
        assert header == "suite,k,r,name,residual,tol,pass"


class TestTableCommands:
    def test_basis_json(self, runner):
        result = runner.invoke(main, ["basis", "--j", "1", "--r", "1"])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert payload["j"] == "1"
        assert len(payload["transform"]) == 3
        assert set(payload["eigenvalues"][0]) == {"re", "im"}

    def test_basis_rejects_spin_zero(self, runner):
        result = runner.invoke(main, ["basis", "--j", "0", "--r", "1"])
        assert result.exit_code != 0

    def test_cg_ur_full_table(self, runner):
        result = runner.invoke(main, ["cg-ur", "--j1", "1/2", "--j2", "1/2", "--j", "1", "--r", "1"])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        records = payload["records"]
        assert len(records) == 2 * 2 * 3
        sample = records[0]
        assert set(sample) >= {"j1", "j2", "j", "alpha1", "alpha2", "alpha", "r", "re", "im"}

    def test_cg_ur_single_component(self, runner):
        result = runner.invoke(
            main,
            ["cg-ur", "--j1", "1/2", "--j2", "1/2", "--j", "0", "--r", "0",
             "--s1", "1", "--s2", "0", "--s", "0"],
        )
        assert result.exit_code == 0
        records = json.loads(result.output)["records"]
        assert len(records) == 1
        assert records[0]["re"] == pytest.approx(0.0, abs=1e-15)
        assert records[0]["im"] == pytest.approx(-0.7071067811865476, abs=1e-15)

    def test_cg_ur_triangle_violation_empty(self, runner):
        result = runner.invoke(main, ["cg-ur", "--j1", "1/2", "--j2", "1/2", "--j", "2"])
        assert result.exit_code == 0
        assert json.loads(result.output)["records"] == []

    def test_fbar_trivial_record(self, runner):
        result = runner.invoke(main, ["fbar", "--j1", "0", "--j2", "0", "--j3", "0"])
        assert result.exit_code == 0
        records = json.loads(result.output)["records"]
        assert len(records) == 1
        assert records[0]["re"] == pytest.approx(1.0, abs=1e-15)

    def test_fbar_csv(self, runner):
        result = runner.invoke(
            main, ["fbar", "--j1", "1", "--j2", "1", "--j3", "1", "--r", "0", "--format", "csv"]
        )
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert lines[0].startswith("j1,j2,j3,alpha1,alpha2,alpha3,r")
        assert len(lines) == 1 + 27
        # odd total spin at r = 0 gives purely imaginary entries
        assert any("i" in line.rsplit(",", 1)[1] for line in lines[1:])

    def test_yr_point(self, runner):
        result = runner.invoke(
            main, ["yr", "--l", "1", "--s", "0", "--r", "0", "--theta", "0", "--phi", "0"]
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["re"] == pytest.approx(0.28209479177387814, abs=1e-14)

    def test_yr_grid_csv(self, runner):
        result = runner.invoke(
            main,
            ["yr", "--l", "2", "--s", "1", "--r", "1", "--theta", "0.5", "--phi", "0.5",
             "--grid-theta", "4", "--grid-phi", "5", "--format", "csv"],
        )
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert lines[0] == "theta,phi,re,im"
        assert len(lines) == 1 + 4 * 5

    def test_yr_grid_text(self, runner):
        head = ["yr", "--l", "2", "--s", "1", "--r", "0.37", "--theta", "0.5", "--phi", "0.5",
                "--grid-theta", "3", "--grid-phi", "4"]
        text = runner.invoke(main, head + ["--format", "text"])
        grid = json.loads(runner.invoke(main, head).output)["grid"]
        assert text.exit_code == 0
        lines = text.output.strip().splitlines()
        assert len(lines) == len(grid) == 3 * 4
        for line, node in zip(lines, grid):
            theta, phi, value = (field.split("=", 1) for field in line.split())
            assert (theta[0], phi[0], value[0]) == ("theta", "phi", "value")
            assert (float(theta[1]), float(phi[1])) == (node["theta"], node["phi"])
            assert complex(value[1].replace("i", "j")) == complex(node["re"], node["im"])

    @pytest.mark.parametrize(
        "args, expected",
        [
            (
                ["basis", "--j", "1/2", "--r", "1", "--format", "text"],
                "s=0 alpha=-0.5 eigenvalue=0+1i\ns=1 alpha=0.5 eigenvalue=-0-1i\n",
            ),
            (
                ["cg-ur", "--j1", "1/2", "--j2", "0", "--j", "1/2", "--r", "0", "--format", "text"],
                "j1=0.5 j2=0 j=0.5 alpha1=0 alpha2=0 alpha=0 r=0 value=1+0i\n"
                "j1=0.5 j2=0 j=0.5 alpha1=0 alpha2=0 alpha=1 r=0 value=0+0i\n"
                "j1=0.5 j2=0 j=0.5 alpha1=1 alpha2=0 alpha=0 r=0 value=0+0i\n"
                "j1=0.5 j2=0 j=0.5 alpha1=1 alpha2=0 alpha=1 r=0 value=1+0i\n",
            ),
            (["cg-ur", "--j1", "1/2", "--j2", "1/2", "--j", "2", "--format", "text"], "(no records)\n"),
            (
                ["fbar", "--j1", "1/2", "--j2", "1/2", "--j3", "0", "--r", "0", "--format", "text"],
                "j1=0.5 j2=0.5 j3=0 alpha1=0 alpha2=0 alpha3=0 r=0 value=0+0i\n"
                "j1=0.5 j2=0.5 j3=0 alpha1=0 alpha2=1 alpha3=0 r=0 value=0+0.70710678118654757i\n"
                "j1=0.5 j2=0.5 j3=0 alpha1=1 alpha2=0 alpha3=0 r=0 value=0-0.70710678118654757i\n"
                "j1=0.5 j2=0.5 j3=0 alpha1=1 alpha2=1 alpha3=0 r=0 value=0+0i\n",
            ),
            (
                ["yr", "--l", "1", "--s", "0", "--r", "0", "--theta", "0", "--phi", "0", "--format", "text"],
                "y[l=1, s=0, r=0](0, 0) = 0.28209479177387814+0i\n",
            ),
            (
                ["yr", "--l", "1", "--s", "0", "--r", "0", "--theta", "0", "--phi", "0", "--format", "csv"],
                "theta,phi,re,im\n0,0,0.28209479177387814,0\n",
            ),
            # a verification report leaves k or r empty where the suite has none
            (
                ["ortho", "--j1", "0", "--j2", "0", "--format", "csv"],
                "suite,k,r,name,residual,tol,pass\n"
                "fbar-orthogonality,,1,third_column_sum_resolves_identity,0,1e-10,true\n"
                "fbar-orthogonality,,1,pair_sum_orthogonality,0,1e-10,true\n",
            ),
            (
                ["quon-check", "--k", "2", "--format", "csv"],
                "suite,k,r,name,residual,tol,pass\n"
                "quon,2,,mode1_deformed_commutator,0,1e-10,true\n"
                "quon,2,,mode1_number_raises,0,1e-10,true\n"
                "quon,2,,mode1_number_lowers,0,1e-10,true\n"
                "quon,2,,mode1_raise_nilpotent,0,1e-10,true\n"
                "quon,2,,mode1_lower_nilpotent,0,1e-10,true\n"
                "quon,2,,mode2_deformed_commutator,0,1e-10,true\n"
                "quon,2,,mode2_number_raises,0,1e-10,true\n"
                "quon,2,,mode2_number_lowers,0,1e-10,true\n"
                "quon,2,,mode2_raise_nilpotent,0,1e-10,true\n"
                "quon,2,,mode2_lower_nilpotent,0,1e-10,true\n"
                "quon,2,,cross_mode_commutators,0,1e-10,true\n",
            ),
            (
                ["basis", "--j", "1/2", "--r", "1", "--format", "json"],
                '{"command": "basis", "j": "1/2", "r": 1, "alphas": [-0.5, 0.5], '
                '"eigenvalues": [{"re": 0, "im": 1}, {"re": -0, "im": -1}], '
                '"transform": [[{"re": 0.5, "im": 0.49999999999999989}, '
                '{"re": 0.49999999999999983, "im": -0.50000000000000011}], '
                '[{"re": 0.49999999999999983, "im": -0.50000000000000011}, '
                '{"re": 0.5, "im": 0.49999999999999989}]]}\n',
            ),
            (
                ["basis", "--j", "1/2", "--r", "1", "--format", "csv"],
                "0.5+0.49999999999999989i,0.49999999999999983-0.50000000000000011i\n"
                "0.49999999999999983-0.50000000000000011i,0.5+0.49999999999999989i\n",
            ),
            # the table commands, each written from its array
            (
                ["cg-ur", "--j1", "1/2", "--j2", "1/2", "--j", "1", "--r", "0.37", "--format", "json"],
                '{"command": "cg-ur", "j1": "1/2", "j2": "1/2", "j": "1", "r": 0.37, "records": ['
                '{"j1": 0.5, "j2": 0.5, "j": 1, "alpha1": -0.185, "alpha2": -0.185, "alpha": -0.37, '
                '"r": 0.37, "re": 0.97479787417359087, "im": 3.5696691519876795e-17}, '
                '{"j1": 0.5, "j2": 0.5, "j": 1, "alpha1": -0.185, "alpha2": -0.185, "alpha": 0.63, '
                '"r": 0.37, "re": 0.22123448187195308, "im": 7.891329495730916e-17}, '
                '{"j1": 0.5, "j2": 0.5, "j": 1, "alpha1": -0.185, "alpha2": -0.185, "alpha": 1.6299999999999999, '
                '"r": 0.37, "re": 0.028712515346045447, "im": 6.6344792027481855e-17}, '
                '{"j1": 0.5, "j2": 0.5, "j": 1, "alpha1": -0.185, "alpha2": 0.81499999999999995, "alpha": -0.37, '
                '"r": 0.37, "re": -0.11115260919864896, "im": -4.1698628975691397e-17}, '
                '{"j1": 0.5, "j2": 0.5, "j": 1, "alpha1": -0.185, "alpha2": 0.81499999999999995, "alpha": 0.63, '
                '"r": 0.37, "re": 0.54622263659544701, "im": -1.7456785233000626e-16}, '
                '{"j1": 0.5, "j2": 0.5, "j": 1, "alpha1": -0.185, "alpha2": 0.81499999999999995, "alpha": 1.6299999999999999, '
                '"r": 0.37, "re": -0.43507002739679823, "im": 2.1146127372297198e-16}, '
                '{"j1": 0.5, "j2": 0.5, "j": 1, "alpha1": 0.81499999999999995, "alpha2": -0.185, "alpha": -0.37, '
                '"r": 0.37, "re": -0.11115260919864901, "im": 3.8375842937313878e-17}, '
                '{"j1": 0.5, "j2": 0.5, "j": 1, "alpha1": 0.81499999999999995, "alpha2": -0.185, "alpha": 0.63, '
                '"r": 0.37, "re": 0.54622263659544712, "im": -1.3737754800262378e-16}, '
                '{"j1": 0.5, "j2": 0.5, "j": 1, "alpha1": 0.81499999999999995, "alpha2": -0.185, "alpha": 1.6299999999999999, '
                '"r": 0.37, "re": -0.43507002739679823, "im": 1.9372941128034866e-16}, '
                '{"j1": 0.5, "j2": 0.5, "j": 1, "alpha1": 0.81499999999999995, "alpha2": 0.81499999999999995, "alpha": -0.37, '
                '"r": 0.37, "re": -0.1583012932458647, "im": 1.0810799595161543e-16}, '
                '{"j1": 0.5, "j2": 0.5, "j": 1, "alpha1": 0.81499999999999995, "alpha2": 0.81499999999999995, "alpha": 0.63, '
                '"r": 0.37, "re": 0.59526209905577299, "im": -4.4384255820134632e-16}, '
                '{"j1": 0.5, "j2": 0.5, "j": 1, "alpha1": 0.81499999999999995, "alpha2": 0.81499999999999995, "alpha": 1.6299999999999999, '
                '"r": 0.37, "re": 0.7877840655816809, "im": -5.8621954462690722e-16}]}\n',
            ),
            (
                ["cg-ur", "--j1", "1/2", "--j2", "1/2", "--j", "1", "--r", "0.37", "--format", "csv"],
                "j1,j2,j,alpha1,alpha2,alpha,r,value\n"
                "0.5,0.5,1,-0.185,-0.185,-0.37,0.37,0.97479787417359087+3.5696691519876795e-17i\n"
                "0.5,0.5,1,-0.185,-0.185,0.63,0.37,0.22123448187195308+7.891329495730916e-17i\n"
                "0.5,0.5,1,-0.185,-0.185,1.6299999999999999,0.37,0.028712515346045447+6.6344792027481855e-17i\n"
                "0.5,0.5,1,-0.185,0.81499999999999995,-0.37,0.37,-0.11115260919864896-4.1698628975691397e-17i\n"
                "0.5,0.5,1,-0.185,0.81499999999999995,0.63,0.37,0.54622263659544701-1.7456785233000626e-16i\n"
                "0.5,0.5,1,-0.185,0.81499999999999995,1.6299999999999999,0.37,-0.43507002739679823+2.1146127372297198e-16i\n"
                "0.5,0.5,1,0.81499999999999995,-0.185,-0.37,0.37,-0.11115260919864901+3.8375842937313878e-17i\n"
                "0.5,0.5,1,0.81499999999999995,-0.185,0.63,0.37,0.54622263659544712-1.3737754800262378e-16i\n"
                "0.5,0.5,1,0.81499999999999995,-0.185,1.6299999999999999,0.37,-0.43507002739679823+1.9372941128034866e-16i\n"
                "0.5,0.5,1,0.81499999999999995,0.81499999999999995,-0.37,0.37,-0.1583012932458647+1.0810799595161543e-16i\n"
                "0.5,0.5,1,0.81499999999999995,0.81499999999999995,0.63,0.37,0.59526209905577299-4.4384255820134632e-16i\n"
                "0.5,0.5,1,0.81499999999999995,0.81499999999999995,1.6299999999999999,0.37,0.7877840655816809-5.8621954462690722e-16i\n",
            ),
            (
                ["cg-ur", "--j1", "1/2", "--j2", "1/2", "--j", "1", "--r", "0.37", "--s1", "1", "--s2", "0", "--s", "1",
                 "--format", "json"],
                '{"command": "cg-ur", "j1": "1/2", "j2": "1/2", "j": "1", "r": 0.37, "records": ['
                '{"j1": 0.5, "j2": 0.5, "j": 1, "alpha1": 0.81499999999999995, "alpha2": -0.185, "alpha": 0.63, '
                '"r": 0.37, "re": 0.54622263659544712, "im": -1.3737754800262378e-16}]}\n',
            ),
            (
                ["cg-ur", "--j1", "1/2", "--j2", "1/2", "--j", "2", "--format", "csv"],
                "j1,j2,j,alpha1,alpha2,alpha,r,value\n",
            ),
            (
                ["cg-ur", "--j1", "1/2", "--j2", "1/2", "--j", "2", "--format", "json"],
                '{"command": "cg-ur", "j1": "1/2", "j2": "1/2", "j": "2", "r": 1, "records": []}\n',
            ),
            (
                ["fbar", "--j1", "1/2", "--j2", "1/2", "--j3", "0", "--r", "0", "--format", "json"],
                '{"command": "fbar", "j1": "1/2", "j2": "1/2", "j3": "0", "r": 0, "records": ['
                '{"j1": 0.5, "j2": 0.5, "j3": 0, "alpha1": 0, "alpha2": 0, "alpha3": 0, '
                '"r": 0, "re": 0, "im": 0}, '
                '{"j1": 0.5, "j2": 0.5, "j3": 0, "alpha1": 0, "alpha2": 1, "alpha3": 0, '
                '"r": 0, "re": 0, "im": 0.70710678118654757}, '
                '{"j1": 0.5, "j2": 0.5, "j3": 0, "alpha1": 1, "alpha2": 0, "alpha3": 0, '
                '"r": 0, "re": 0, "im": -0.70710678118654757}, '
                '{"j1": 0.5, "j2": 0.5, "j3": 0, "alpha1": 1, "alpha2": 1, "alpha3": 0, '
                '"r": 0, "re": 0, "im": 0}]}\n',
            ),
            (
                ["yr", "--l", "1", "--s", "1", "--r", "0.37", "--theta", "0.5", "--phi", "0.5",
                 "--grid-theta", "2", "--grid-phi", "3", "--format", "json"],
                '{"command": "yr", "l": 1, "s": 1, "r": 0.37, "grid": ['
                '{"theta": 2.1862760354652839, "phi": 0, "re": -0.16286750396763996, "im": -0.31550144367621313}, '
                '{"theta": 2.1862760354652839, "phi": 2.0943951023931953, "re": -0.16286750396763996, "im": 0.087596599902067501}, '
                '{"theta": 2.1862760354652839, "phi": 4.1887902047863905, "re": -0.16286750396763996, "im": 0.22790484377414572}, '
                '{"theta": 0.9553166181245093, "phi": 0, "re": 0.16286750396763996, "im": -0.31550144367621313}, '
                '{"theta": 0.9553166181245093, "phi": 2.0943951023931953, "re": 0.16286750396763996, "im": 0.087596599902067501}, '
                '{"theta": 0.9553166181245093, "phi": 4.1887902047863905, "re": 0.16286750396763994, "im": 0.22790484377414572}]}\n',
            ),
            (
                ["yr", "--l", "1", "--s", "1", "--r", "0.37", "--theta", "0.5", "--phi", "0.5",
                 "--grid-theta", "2", "--grid-phi", "3", "--format", "csv"],
                "theta,phi,re,im\n"
                "2.1862760354652839,0,-0.16286750396763996,-0.31550144367621313\n"
                "2.1862760354652839,2.0943951023931953,-0.16286750396763996,0.087596599902067501\n"
                "2.1862760354652839,4.1887902047863905,-0.16286750396763996,0.22790484377414572\n"
                "0.9553166181245093,0,0.16286750396763996,-0.31550144367621313\n"
                "0.9553166181245093,2.0943951023931953,0.16286750396763996,0.087596599902067501\n"
                "0.9553166181245093,4.1887902047863905,0.16286750396763994,0.22790484377414572\n",
            ),
        ],
    )
    def test_rendered_literally(self, runner, args, expected):
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        assert result.output == expected

    def test_output_file(self, runner, tmp_path):
        target = tmp_path / "out.json"
        result = runner.invoke(
            main, ["basis", "--j", "1/2", "--r", "1", "--output", str(target)]
        )
        assert result.exit_code == 0
        assert json.loads(target.read_text())["j"] == "1/2"

    @pytest.mark.parametrize("fmt", ["csv", "json", "text"])
    @pytest.mark.parametrize(
        "args",
        [
            ["basis", "--j", "3/2", "--r", "0.37"],
            ["quon-check", "--k", "2"],
            ["yr", "--l", "1", "--s", "1", "--r", "0.37", "--theta", "0.5", "--phi", "0.5",
             "--grid-theta", "2", "--grid-phi", "3"],
            ["cg-ur", "--j1", "3/2", "--j2", "1", "--j", "3/2", "--r", "0.37"],
            ["fbar", "--j1", "1", "--j2", "3/2", "--j3", "3/2", "--r", "0.37"],
        ],
    )
    def test_stdout_matches_output_file(self, runner, tmp_path, args, fmt):
        """stdout and --output carry the same bytes, ending in one newline."""
        target = tmp_path / f"out.{fmt}"
        printed = runner.invoke(main, [*args, "--format", fmt])
        written = runner.invoke(main, [*args, "--format", fmt, "--output", str(target)])
        assert printed.exit_code == written.exit_code == 0, printed.output
        assert written.stdout_bytes == b""
        assert printed.stdout_bytes == target.read_bytes()
        assert printed.stdout_bytes.endswith(b"\n") and not printed.stdout_bytes.endswith(b"\n\n")

    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    def test_table_is_written_within_five_times_its_size(self, runner, fmt):
        """A cached table is written from its array, with no record per entry: its peak stays under 5x the output."""
        args = ["fbar", "--j1", "8", "--j2", "8", "--j3", "8", "--r", "0.37", "--format", fmt]
        assert runner.invoke(main, args).exit_code == 0  # builds and caches the table
        tracemalloc.start()
        try:
            result = runner.invoke(main, args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.exit_code == 0
        size = len(result.stdout_bytes)
        assert size > 17**3 * 60  # a line or record per entry of the 17 x 17 x 17 table
        assert peak < 5 * size, (peak, size)


class TestUsageErrors:
    def test_bad_half_integer(self, runner):
        result = runner.invoke(main, ["basis", "--j", "0.3", "--r", "1"])
        assert result.exit_code == 2

    def test_missing_required(self, runner):
        result = runner.invoke(main, ["quon-check"])
        assert result.exit_code == 2

    def test_unknown_command(self, runner):
        result = runner.invoke(main, ["sixj"])
        assert result.exit_code == 2

    def test_bad_order(self, runner):
        result = runner.invoke(main, ["quon-check", "--k", "1"])
        assert result.exit_code == 2

    def test_zero_tolerance_flag(self, runner):
        result = runner.invoke(main, ["su2-check", "--k", "3", "--tol", "0"])
        assert result.exit_code == 2
        assert "tolerance" in result.output

    def test_negative_spin(self, runner):
        result = runner.invoke(main, ["basis", "--j", "-1", "--r", "1"])
        assert result.exit_code == 2

    def test_cg_ur_s_label_out_of_range(self, runner):
        args = ["cg-ur", "--j1", "1", "--j2", "1/2", "--j", "1/2", "--s1", "3", "--s2", "0", "--s", "0"]
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert "s1 must lie in 0..2j = 2, got 3" in result.output

    def test_yr_grid_pairing_is_checked_first(self, runner):
        """A lone --grid-theta is reported as such, before the label s is even looked at."""
        result = runner.invoke(main, ["yr", "--l", "2", "--s", "9", "--theta", "0", "--phi", "0", "--grid-theta", "3"])
        assert result.exit_code == 2
        assert "give both --grid-theta and --grid-phi or neither" in result.output

    def test_winf_negative_max_index(self, runner):
        result = runner.invoke(main, ["winf", "--k", "3", "--max-index", "-1"])
        assert result.exit_code == 2
        assert "--max-index" in result.output

    @pytest.mark.parametrize("where", ["missing-dir/x.json", "a-file/x.json"])
    def test_unwritable_output(self, runner, tmp_path, where):
        (tmp_path / "a-file").write_text("")
        target = tmp_path / where
        result = runner.invoke(main, ["quon-check", "--k", "3", "--output", str(target)])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert f"cannot write --output {target}" in result.output

    def test_huge_r_is_no_false_failure(self, runner):
        result = runner.invoke(main, ["su2-check", "--k", "3", "--r", "1e300"])
        assert result.exit_code == 0, result.output

    @pytest.mark.parametrize("command", ["winf", "quon-check", "su2-check"])
    def test_order_too_large_to_allocate(self, runner, command):
        """k = 10**6 asks for 7.28 TiB, which fails at once: exit 2 with the
        size, not a traceback with the exit 1 of a failed check."""
        result = runner.invoke(main, [command, "--k", "1000000"])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "out of memory" in result.output
        assert "TiB" in result.output

    # Malformed values only: a well-formed large --k or --j is a valid and
    # expensive request, not a usage error.
    _not_numbers = st.text(alphabet="abxe/._- ", max_size=5)
    _bad_tols = st.one_of(
        _not_numbers,
        st.sampled_from(["0", "-0", "nan", "inf", "-inf"]),
        st.floats(max_value=0.0).map(repr),
    )
    _bad_orders = st.one_of(
        _not_numbers, st.integers(max_value=1).map(str), st.sampled_from(["2.5", "1e3"])
    )
    _bad_spins = st.one_of(
        _not_numbers,
        st.integers(min_value=-40, max_value=-1).map(lambda t: f"{t}/2"),
        st.sampled_from(["0.3", "1/3", "1/0", "inf", "nan", "1e400"]),
    )
    # well-formed family parameters whose alpha = -j*r + s leaves the float range
    _overflowing_rs = st.sampled_from(["1e308", "-1e308", "9e307"])
    _overflowing_heads = st.sampled_from(
        [
            ["report", "--max-j", "2", "--r"],
            ["basis", "--j", "2", "--r"],
            ["su2-check", "--k", "5", "--r"],
            ["cg-ur", "--j1", "2", "--j2", "2", "--j", "2", "--r"],
        ]
    )
    _seeded_heads = st.sampled_from([["report", "--max-j", "1", "--seed"], ["su2-check", "--k", "5", "--seed"]])
    # under a directory that does not exist
    _unwritable_paths = st.text(alphabet="abx._-", min_size=1, max_size=5).map(
        lambda name: f"/nonexistent-wracah-output-dir/{name}"
    )

    @given(
        st.one_of(
            st.tuples(st.just(["quon-check", "--k", "3", "--tol"]), _bad_tols),
            st.tuples(st.just(["su2-check", "--k", "3", "--tol"]), _bad_tols),
            st.tuples(st.just(["quon-check", "--k"]), _bad_orders),
            st.tuples(st.just(["su2-check", "--k"]), _bad_orders),
            st.tuples(st.just(["winf", "--k"]), _bad_orders),
            st.tuples(st.just(["basis", "--j"]), _bad_spins),
            st.tuples(st.just(["we-check", "--rank", "1", "--j"]), _bad_spins),
            st.tuples(st.just(["quon-check", "--k", "3", "--output"]), _unwritable_paths),
            st.tuples(_overflowing_heads, _overflowing_rs),
            st.tuples(_seeded_heads, st.integers(max_value=-1).map(str)),
        )
    )
    @example((["report", "--max-j", "1", "--seed"], "-1"))
    @example((["su2-check", "--k", "5", "--seed"], "-1"))
    @example((["report", "--max-j", "2", "--r"], "1e308"))
    @example((["basis", "--j", "2", "--r"], "-1e308"))
    @example((["su2-check", "--k", "5", "--r"], "9e307"))
    @example((["cg-ur", "--j1", "2", "--j2", "2", "--j", "2", "--r"], "1e308"))
    # an out-of-range label on a triple outside the triangle
    @example((["cg-ur", "--j1", "1", "--j2", "1", "--j", "3", "--s1", "5", "--s2", "0", "--s"], "0"))
    @settings(max_examples=60)
    def test_malformed_input_always_exits_two(self, case):
        head, value = case
        args = head + [value]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 2, (args, result.output, result.exception)
        assert isinstance(result.exception, SystemExit)


class TestReport:
    def test_schema_and_coverage(self, runner):
        result = runner.invoke(main, ["report", "--max-j", "1", "--r", "1"])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        jsonschema.validate(payload, REPORT_SCHEMA)
        suites = {s["suite"] for s in payload["suites"]}
        assert {
            "quon",
            "su2-polar",
            "shift-eigenbasis",
            "sine-algebra",
            "wigner-core",
            "cg-ur-unitarity",
            "fbar-orthogonality",
            "fbar-permutation",
            "ninej-substitution",
            "tensor-transform",
            "wigner-eckart",
            "sphere",
        } <= suites

    def test_deterministic_output(self, runner):
        args = ["report", "--max-j", "1/2", "--r", "2.37"]
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.exit_code == second.exit_code == 0
        assert first.output == second.output

    def test_spin_coverage(self, runner):
        """Which spins each suite covers, read off the suite k and the check names."""
        result = runner.invoke(main, ["report", "--max-j", "1", "--r", "1"])
        assert result.exit_code == 0, result.output
        suites = json.loads(result.output)["suites"]
        names = {}
        for suite in suites:
            names.setdefault(suite["suite"], set()).update(c["name"] for c in suite["checks"])

        def tags(suite):
            return {name.split("_")[1] for name in names[suite]}

        for suite in ("fbar-permutation", "f-interchange"):
            assert any(name.startswith("tj_1_1_2_") for name in names[suite]), suite
        assert {s["k"] for s in suites if s["suite"] == "shift-eigenbasis"} == {2, 3}
        assert tags("tensor-transform") == {"1", "2"}
        for suite in ("cg-ur-unitarity", "cg-ur-interchange", "fbar-orthogonality"):
            assert any(name.startswith("tj1_2_tj2_2_") for name in names[suite]), suite
            assert not any(name.startswith("tj1_1_") for name in names[suite]), suite
        assert tags("wigner-eckart") == {"1"}  # odd twice-spins only

    def test_deterministic_at_generic_r(self, runner):
        """At r = 1 the phase matrices are symmetric, so a lost transpose would pass there."""
        args = ["report", "--max-j", "2", "--r", "0.37"]
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.exit_code == second.exit_code == 0, first.output
        assert first.output == second.output

    def test_corruption_hook_flips_exit_code(self, runner):
        args = ["report", "--max-j", "1/2", "--r", "1"]
        clean = runner.invoke(main, args)
        assert clean.exit_code == 0
        corrupted = runner.invoke(main, args, env={"WRACAH_CORRUPT": "1"})
        assert corrupted.exit_code == 1
        payload = json.loads(corrupted.output)
        assert payload["pass"] is False
        flipped = [
            c for s in payload["suites"] for c in s["checks"] if not c["pass"]
        ]
        assert len(flipped) == 1

    def test_benchmark_size_passes(self, runner):
        """The size of the benchmark's report workload: exit 0, and every check passes."""
        result = runner.invoke(main, ["report", "--max-j", "6", "--r", "1", "--seed", "3"])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        jsonschema.validate(payload, REPORT_SCHEMA)
        assert payload["pass"] is True
        assert all(c["pass"] for s in payload["suites"] for c in s["checks"])

    def test_timings_leave_output_unchanged(self, tmp_path):
        """--timings adds a breakdown, the cache's counters and the peak RSS on stderr; stdout and --output keep every byte."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        args = [sys.executable, "-m", "wracah", "report", "--max-j", "1", "--r", "0.37"]

        def run(*extra):
            return subprocess.run([*args, *extra], env=env, capture_output=True, timeout=120)

        plain, timed = run(), run("--timings")
        assert plain.returncode == timed.returncode == 0, timed.stderr
        assert plain.stdout == timed.stdout
        assert plain.stderr == b""
        *lines, cache, peak = timed.stderr.decode().splitlines()
        assert re.fullmatch(r"cache: \d+ entries, \d+\.\d MiB, \d+ hits, \d+ misses, \d+ evictions", cache)
        assert re.fullmatch(r"peak: \d+\.\d MiB resident", peak) and float(peak.split()[1]) > 1.0
        seconds = [float(line.split()[0]) for line in lines]
        assert seconds == sorted(seconds, reverse=True)
        suites = [line.split()[-1] for line in lines]
        assert len(suites) == len(set(suites)) and {"wigner-core", "fbar-orthogonality"} <= set(suites)

        plain_file, timed_file = tmp_path / "plain.json", tmp_path / "timed.json"
        assert run("--output", str(plain_file)).returncode == 0
        to_file = run("--timings", "--output", str(timed_file))
        assert to_file.returncode == 0 and to_file.stdout == b""
        assert timed_file.read_bytes() == plain_file.read_bytes() == plain.stdout

    def test_no_command_imports_numpy_random(self):
        """su2-polar draws its family members with the stdlib, so numpy.random,
        and the hashlib and secrets it pulls in, stay out of the process.
        Only what the commands load counts: numpy 1.x imports numpy.random itself."""
        code = (
            "import sys\n"
            "import numpy\n"
            "before = set(sys.modules)\n"
            "from wracah.cli import main\n"
            "for args in (['report', '--max-j', '1'], ['su2-check', '--k', '5']):\n"
            "    try:\n"
            "        main(args)\n"
            "    except SystemExit as stop:\n"
            "        assert stop.code == 0, (args, stop.code)\n"
            "print(sorted({'numpy.random', 'secrets'} & (set(sys.modules) - before)))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.decode().splitlines()[-1] == "[]"
