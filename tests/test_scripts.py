"""Smoke runs of the scripts at tiny sizes, in a fresh interpreter unless a test must shrink the cache."""

import os
import runpy
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from wracah import wigner
from wracah.wigner import cg_block, clear_cache, load_table

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
    loaded = load_table(path)
    # every admissible triple of spins up to 1, each block complete and bit identical
    assert sorted(loaded) == sorted(
        (t1, t2, t) for t1 in range(3) for t2 in range(3) for t in range(abs(t1 - t2), min(t1 + t2, 2) + 1, 2)
    )
    assert sum(len(list(wigner._block_records(t, block))) for t, block in loaded.items()) == len(lines)
    for twice_j, block in loaded.items():
        assert block.tobytes() == cg_block(*(Fraction(t, 2) for t in twice_j)).tobytes(), twice_j


def test_export_tables_does_not_depend_on_the_cache(tmp_path, monkeypatch):
    """On a 16 KiB cache, evicting blocks as it runs, the script writes the same magnetic table as on the default one."""
    main = runpy.run_path(str(ROOT / "scripts" / "export_tables.py"), run_name="export_tables")["main"]

    def magnetic(out):
        clear_cache()
        assert main(["--max-j", "2", "--r", "0.37", "--out", str(out)]) == 0
        return (out / "magnetic_cg.txt").read_text()

    default = magnetic(tmp_path / "default")
    # a cg block is cached once for both orientations, so at max-j 2 the entries fit into 64 KiB
    monkeypatch.setattr(wigner, "_CACHE_BOUND", 16 << 10)
    small = magnetic(tmp_path / "small")
    assert wigner.default_table().evictions > 0
    assert small == default
    # every m1, m2 with |m1 + m2| <= j of every admissible triple of spins up to 2
    expected = sum(
        1
        for t1 in range(5)
        for t2 in range(5)
        for t in range(abs(t1 - t2), min(t1 + t2, 4) + 1, 2)
        for m1 in range(-t1, t1 + 1, 2)
        for m2 in range(-t2, t2 + 1, 2)
        if abs(m1 + m2) <= t
    )
    assert len(default.splitlines()) == expected


def test_export_tables_csv_bytes_pinned(tmp_path):
    """The exported tables, byte for byte: a header, then a row per entry in C order, re and im by fmt_float."""
    result = run_script("export_tables.py", "--max-j", "1/2", "--r", "0.37", "--out", str(tmp_path))
    assert result.returncode == 0, result.stderr
    assert sorted(path.name for path in tmp_path.glob("*.csv")) == [
        f"{name}_{spins}_r0.37.csv"
        for name in ("cg_ur", "fbar")
        for spins in ("0_0_0", "0_1over2_1over2", "1over2_0_1over2", "1over2_1over2_0")
    ]
    assert (tmp_path / "cg_ur_1over2_1over2_0_r0.37.csv").read_bytes() == (
        b"s1,s2,s,re,im\n"
        b"0,0,0,-3.1094432612640007e-17,-8.6289800756901652e-18\n"
        b"0,1,0,2.4386733813164378e-16,0.70710678118654757\n"
        b"1,0,0,-2.35399796913552e-16,-0.70710678118654768\n"
        b"1,1,0,6.863497641568958e-17,1.0724155167347716e-17\n"
    )
    assert (tmp_path / "fbar_1over2_0_1over2_r0.37.csv").read_bytes() == (
        b"s1,s2,s3,re,im\n"
        b"0,0,0,3.3421854231275356e-17,6.6014601055633027e-18\n"
        b"0,0,1,-2.4589485810177061e-16,-0.70710678118654746\n"
        b"1,0,0,2.3598165231821089e-16,0.70710678118654757\n"
        b"1,0,1,-1.3630705176963461e-17,-1.1306010572006552e-17\n"
    )


def test_verification_sweep_passes():
    result = run_script("verification_sweep.py", "--k-max", "3", "--r-steps", "1", "--r-span", "1")
    assert result.returncode == 0, result.stdout + result.stderr
    assert "all suites passed" in result.stdout
