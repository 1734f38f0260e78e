#!/usr/bin/env python3
"""Dump coupling tables to files for use outside Python.

Writes, for every admissible triple of spins 0, 1/2, 1, ... up to a spin cap:
  cg_ur_<j1>_<j2>_<j>_r<r>.csv      coupling coefficients in the shift basis
  fbar_<j1>_<j2>_<j3>_r<r>.csv      symmetric symbols
and a single magnetic_cg.txt holding every coefficient of the magnetic
blocks the run touched, in the loadable '2j1 2j2 2j 2m1 2m2 2m value' format.
"""

import argparse
import itertools
import pathlib
import sys

from wracah import HalfInt, cg_ur_table, fbar_table, triangle
from wracah.qarith import all_spins
from wracah.serialize import fmt_float, rows_to_csv
from wracah.wigner import default_table, export_table


def tag(j: HalfInt) -> str:
    return str(j).replace("/", "over")


def dump_cg_ur(j1, j2, j, r, out_dir: pathlib.Path) -> pathlib.Path:
    table = cg_ur_table(j1, j2, j, r)
    rows = []
    for s1 in range(j1.twice + 1):
        for s2 in range(j2.twice + 1):
            for s in range(j.twice + 1):
                value = table[s1, s2, s]
                rows.append(
                    {
                        "s1": s1,
                        "s2": s2,
                        "s": s,
                        "re": fmt_float(value.real),
                        "im": fmt_float(value.imag),
                    }
                )
    path = out_dir / f"cg_ur_{tag(j1)}_{tag(j2)}_{tag(j)}_r{r}.csv"
    path.write_text(rows_to_csv(["s1", "s2", "s", "re", "im"], rows))
    return path


def dump_fbar(j1, j2, j3, r, out_dir: pathlib.Path) -> pathlib.Path:
    table = fbar_table(j1, j2, j3, r)
    rows = []
    for s1 in range(j1.twice + 1):
        for s2 in range(j2.twice + 1):
            for s3 in range(j3.twice + 1):
                value = table[s1, s2, s3]
                rows.append(
                    {
                        "s1": s1,
                        "s2": s2,
                        "s3": s3,
                        "re": fmt_float(value.real),
                        "im": fmt_float(value.imag),
                    }
                )
    path = out_dir / f"fbar_{tag(j1)}_{tag(j2)}_{tag(j3)}_r{r}.csv"
    path.write_text(rows_to_csv(["s1", "s2", "s3", "re", "im"], rows))
    return path


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--max-j", type=HalfInt.parse, default=HalfInt(2), help="spin cap, e.g. 3/2")
    p.add_argument("--r", type=float, default=1.0)
    p.add_argument("--out", type=pathlib.Path, default=pathlib.Path("tables"))
    args = p.parse_args(argv)

    args.out.mkdir(parents=True, exist_ok=True)
    spins = all_spins(args.max_j)
    written = 0
    for j1, j2 in itertools.product(spins, repeat=2):
        for j in spins:
            if not triangle(j1.as_fraction, j2.as_fraction, j.as_fraction):
                continue
            dump_cg_ur(j1, j2, j, args.r, args.out)
            dump_fbar(j1, j2, j, args.r, args.out)
            written += 2

    memo_path = args.out / "magnetic_cg.txt"
    count = export_table(default_table(), memo_path)
    print(f"wrote {written} table files and {count} magnetic coefficients to {args.out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
