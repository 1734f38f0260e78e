"""Smoke runs of the scripts at tiny sizes, each in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

from wracah.wigner import load_table

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_export_tables_writes_loadable_magnetic_table(tmp_path):
    result = run_script("export_tables.py", "--max-j", "1", "--out", str(tmp_path))
    assert result.returncode == 0, result.stderr
    # half-integer spins are exported too, not only the integer ones
    assert (tmp_path / "cg_ur_1over2_1over2_1_r1.0.csv").exists()
    assert (tmp_path / "fbar_1_1over2_1over2_r1.0.csv").exists()
    path = tmp_path / "magnetic_cg.txt"
    lines = path.read_text().splitlines()
    assert lines
    assert len(dict(load_table(path).items())) == len(lines)


def test_ninej_substitution_scan_runs():
    result = run_script("ninej_substitution_scan.py", "--max-twice-j", "1", "--r", "1.0")
    assert result.returncode == 0, result.stderr
    assert "worst residual" in result.stdout


def test_verification_sweep_passes():
    result = run_script("verification_sweep.py", "--k-max", "3", "--r-steps", "1", "--r-span", "1")
    assert result.returncode == 0, result.stdout + result.stderr
    assert "all suites passed" in result.stdout
