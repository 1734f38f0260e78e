"""Command line behavior: exit codes, formats, determinism, and the
report schema."""

import json
import os
import re
import subprocess
import sys
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

    def test_tight_env_tolerance_fails(self, runner):
        result = runner.invoke(main, ["quon-check", "--k", "3"], env={"WRACAH_TOL": "1e-30"})
        assert result.exit_code == 1

    def test_explicit_tol_flag_beats_env(self, runner):
        result = runner.invoke(
            main,
            ["quon-check", "--k", "3", "--tol", "1e-6"],
            env={"WRACAH_TOL": "1e-30"},
        )
        assert result.exit_code == 0

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

    def test_output_file(self, runner, tmp_path):
        target = tmp_path / "out.json"
        result = runner.invoke(
            main, ["basis", "--j", "1/2", "--r", "1", "--output", str(target)]
        )
        assert result.exit_code == 0
        assert json.loads(target.read_text())["j"] == "1/2"


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

    def test_env_tolerance_not_a_number(self, runner):
        result = runner.invoke(main, ["quon-check", "--k", "3"], env={"WRACAH_TOL": "abc"})
        assert result.exit_code == 2
        assert "WRACAH_TOL" in result.output

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
            st.tuples(st.just(["quon-check", "--k", "3", "--tol"]), _bad_tols, st.just(None)),
            st.tuples(st.just(["su2-check", "--k", "3", "--tol"]), _bad_tols, st.just(None)),
            # an empty WRACAH_TOL counts as unset
            st.tuples(st.just(["quon-check", "--k", "3"]), st.none(), _bad_tols.filter(bool)),
            st.tuples(st.just(["quon-check", "--k"]), _bad_orders, st.just(None)),
            st.tuples(st.just(["su2-check", "--k"]), _bad_orders, st.just(None)),
            st.tuples(st.just(["winf", "--k"]), _bad_orders, st.just(None)),
            st.tuples(st.just(["basis", "--j"]), _bad_spins, st.just(None)),
            st.tuples(st.just(["we-check", "--rank", "1", "--j"]), _bad_spins, st.just(None)),
            st.tuples(st.just(["quon-check", "--k", "3", "--output"]), _unwritable_paths, st.just(None)),
            st.tuples(_overflowing_heads, _overflowing_rs, st.just(None)),
            st.tuples(_seeded_heads, st.integers(max_value=-1).map(str), st.just(None)),
        )
    )
    @example((["report", "--max-j", "1", "--seed"], "-1", None))
    @example((["su2-check", "--k", "5", "--seed"], "-1", None))
    @example((["report", "--max-j", "2", "--r"], "1e308", None))
    @example((["basis", "--j", "2", "--r"], "-1e308", None))
    @example((["su2-check", "--k", "5", "--r"], "9e307", None))
    @example((["cg-ur", "--j1", "2", "--j2", "2", "--j", "2", "--r"], "1e308", None))
    @settings(max_examples=60)
    def test_malformed_input_always_exits_two(self, case):
        head, value, env_tol = case
        args = head if value is None else head + [value]
        env = {"WRACAH_TOL": env_tol} if env_tol is not None else {"WRACAH_TOL": None}
        result = CliRunner().invoke(main, args, env=env)
        assert result.exit_code == 2, (args, env, result.output, result.exception)
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
        """--timings adds a breakdown and the cache's counters on stderr; stdout and --output keep every byte."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        args = [sys.executable, "-m", "wracah", "report", "--max-j", "1", "--r", "0.37"]

        def run(*extra):
            return subprocess.run([*args, *extra], env=env, capture_output=True, timeout=120)

        plain, timed = run(), run("--timings")
        assert plain.returncode == timed.returncode == 0, timed.stderr
        assert plain.stdout == timed.stdout
        assert plain.stderr == b""
        *lines, cache = timed.stderr.decode().splitlines()
        assert re.fullmatch(r"cache: \d+ entries, \d+\.\d MiB, \d+ hits, \d+ misses, \d+ evictions", cache)
        seconds = [float(line.split()[0]) for line in lines]
        assert seconds == sorted(seconds, reverse=True)
        suites = [line.split()[-1] for line in lines]
        assert len(suites) == len(set(suites)) and {"wigner-core", "fbar-orthogonality"} <= set(suites)

        plain_file, timed_file = tmp_path / "plain.json", tmp_path / "timed.json"
        assert run("--output", str(plain_file)).returncode == 0
        to_file = run("--timings", "--output", str(timed_file))
        assert to_file.returncode == 0 and to_file.stdout == b""
        assert timed_file.read_bytes() == plain_file.read_bytes() == plain.stdout
