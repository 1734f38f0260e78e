#!/usr/bin/env python3
"""Dump coupling tables to files for use outside Python.

Writes, for every admissible triple of spins 0, 1/2, 1, ... up to a spin cap:
  cg_ur_<j1>_<j2>_<j>_r<r>.csv      coupling coefficients in the shift basis
  fbar_<j1>_<j2>_<j3>_r<r>.csv      symmetric symbols
and a single magnetic_cg.txt holding every coefficient of the magnetic cg
blocks of those triples, in the loadable '2j1 2j2 2j 2m1 2m2 2m value'
format.  The blocks are read afresh for the file, so it does not depend on
what the package's cache held at the end of the run.
"""

import argparse
import itertools
import pathlib
import sys

import numpy as np

from wracah import HalfInt, cg_ur_table, fbar_table, triangle
from wracah.qarith import all_spins
from wracah.serialize import fmt_float, rows_to_csv
from wracah.wigner import export_table


def tag(j: HalfInt) -> str:
    return str(j).replace("/", "over")


def dump_table(name, build, spins, columns, r, out_dir: pathlib.Path) -> pathlib.Path:
    """Write build(*spins, r) as name_<j1>_<j2>_<j3>_r<r>.csv, one row per entry, labelled by columns.

    Every cell is rendered here, once, so rows_to_csv takes each as the string it is.
    """
    table = build(*spins, r)
    rows = [
        {**dict(zip(columns, map(str, labels))), "re": fmt_float(value.real), "im": fmt_float(value.imag)}
        for labels, value in np.ndenumerate(table)
    ]
    path = out_dir / f"{name}_{'_'.join(tag(j) for j in spins)}_r{r}.csv"
    path.write_text(rows_to_csv([*columns, "re", "im"], rows))
    return path


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--max-j", type=HalfInt.parse, default=HalfInt(2), help="spin cap, e.g. 3/2")
    p.add_argument("--r", type=float, default=1.0)
    p.add_argument("--out", type=pathlib.Path, default=pathlib.Path("tables"))
    args = p.parse_args(argv)

    args.out.mkdir(parents=True, exist_ok=True)
    spins = all_spins(args.max_j)
    triples = []
    for j1, j2 in itertools.product(spins, repeat=2):
        for j in spins:
            if not triangle(j1.as_fraction, j2.as_fraction, j.as_fraction):
                continue
            dump_table("cg_ur", cg_ur_table, (j1, j2, j), ("s1", "s2", "s"), args.r, args.out)
            dump_table("fbar", fbar_table, (j1, j2, j), ("s1", "s2", "s3"), args.r, args.out)
            triples.append((j1.twice, j2.twice, j.twice))

    count = export_table(triples, args.out / "magnetic_cg.txt")
    print(f"wrote {2 * len(triples)} table files and {count} magnetic coefficients to {args.out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
