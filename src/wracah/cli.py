"""Command-line frontend: single symbols, tables, and verification sweeps.

Exit codes: 0 when every check passes, 1 when a verification fails, 2 for
usage errors.  Output is deterministic: canonical JSON (insertion-ordered
keys, 17 significant digits), CSV, or text, which is one `col=value` line
per row unless the command has its own lines.  `_render` writes the format
asked for, a table straight from its array by `serialize.render_table`, and
stdout and an --output file get the same bytes, ending in one newline.
A verification's tolerance is --tol when given, else each suite's own
default.  `report` lists every suite once, as a row of its spin grid, its
call and the cache keys the suite looks up itself, and runs them in one
loop, each walk suite a step of its own at each step of the pair walk; the
cache holds each entry the report builds, apart from its LRU, to the end of
the last step that reads it, and a table's inputs to the end of its build's.
`report --timings` prints each suite's wall time, the state of the cache
with the most the report held in it (and 0 evictions), and the process's
peak resident memory to stderr, and leaves the output itself unchanged.

Environment:
  WRACAH_CORRUPT  test hook; when set, the report command falsifies one
                  check so the failure path can be exercised end to end.
"""

from __future__ import annotations

import itertools
import os
import sys
import time
from typing import NoReturn

import click
import numpy as np

from .errors import WracahError
from .fock import quon_operators, verify_quon_relations
from .qarith import HalfInt, ToleranceRule, all_spins, check_label, half_integer_spins, halfint_range, integer_spins
from .report import Check, VerificationReport
from .serialize import dumps, fmt_cell, matrix_to_csv, render_table
from .sphere import QuadratureGrid, SphericalPoint, verify_sphere, y_r_eigenfunction, y_r_grid_member
from .su2 import ShiftParams, shift_eigenbasis, verify_shift_eigenbasis, verify_sine_algebra, verify_su2
from .urcoupling import (
    alpha_labels,
    cg_ur_table,
    fbar_table,
    ninej_from_fbar,
    table_inputs,
    table_key,
    verify_cg_ur_interchange,
    verify_cg_ur_unitarity,
    verify_f_interchange,
    verify_fbar_orthogonality,
    verify_fbar_permutation,
    verify_tensor_transform,
    verify_wigner_eckart,
)
from .wigner import cg_key, default_table, lowering_checks, orthogonality_checks, pair_walk, triangle


class HalfIntParam(click.ParamType):
    """Half-integers given as '3/2', '1.5', or '3'."""

    name = "halfint"

    def convert(self, value, param, ctx):
        if isinstance(value, HalfInt):
            return value
        try:
            spin = HalfInt.parse(str(value))
        except WracahError as exc:
            self.fail(str(exc), param, ctx)
        if spin.twice < 0:
            self.fail(f"spins are nonnegative, got {value!r}", param, ctx)
        return spin


HALFINT = HalfIntParam()


class WracahCommand(click.Command):
    """Every library error raised by a command is a usage error: exit 2 with its message.

    So is a size too large to allocate, or a value beyond the float range:
    exit 1 stays reserved for a failed check.
    """

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except WracahError as exc:
            raise click.UsageError(str(exc), ctx) from exc
        except MemoryError as exc:
            # numpy's message names the size it could not allocate
            raise click.UsageError(f"out of memory: {str(exc) or 'the request is too large'}", ctx) from exc
        except OverflowError as exc:
            # an exact value, such as alpha = -j*r + s at |r| near 1e308, beyond the float range
            raise click.UsageError(f"value out of the float range: {exc}", ctx) from exc


class WracahGroup(click.Group):
    command_class = WracahCommand


def _resolve_tol(tol: float | None) -> ToleranceRule | None:
    """--tol, or None for each suite's own default."""
    return None if tol is None else ToleranceRule(tol)


def _write(text: str, output: str | None) -> None:
    """Print text, or write it to the output file, ending in one newline either way.

    The missing newline is written on its own, so a large text is not copied
    to append it.  A file that cannot be written is a usage error.
    """
    end = "" if text.endswith("\n") else "\n"
    if output:
        try:
            with open(output, "w", encoding="utf-8") as fh:
                fh.write(text)
                fh.write(end)
        except OSError as exc:
            raise click.UsageError(f"cannot write --output {output}: {exc.strerror or exc}") from exc
    else:
        click.echo(text, nl=False)
        click.echo(end, nl=False)


def _render(fmt, output, payload, axes, values=None, *, key=None, value="value", text=None, csv=None, code=0) -> NoReturn:
    """Write one command's output in fmt, then exit with code.

    json dumps payload, and when key is given adds the table of axes and
    values under key as its last entry, an array of records.  csv and text
    are the command's own csv() or text(), or else render_table(fmt, axes,
    values, value).  The table is rendered, and text or csv called, only for
    the format they serve.
    """
    if fmt == "json":
        body = dumps(payload)
        if key:
            body = f"{body[:-1]}, {dumps(key)}: {render_table(fmt, axes, values)}}}"
    elif fmt == "csv" and csv:
        body = csv()
    elif fmt == "text" and text:
        body = text()
    else:
        body = render_table(fmt, axes, values, value)
    _write(body, output)
    sys.exit(code)


def _finish_verification(
    command: str, params: dict, reports: list[VerificationReport], fmt: str, output: str | None
) -> NoReturn:
    """Write the reports in fmt and exit 0 when every check passed, 1 otherwise.

    The json payload is {"command", **params, "pass", "suites"}; csv has a
    row and text a line per check.
    """
    ok = all(rep.passed for rep in reports)
    payload = {"command": command, **params, "pass": ok, "suites": [rep.to_dict() for rep in reports]}
    rows = [(rep.suite, rep.k, rep.r, c.name, c.residual, c.tol, c.passed) for rep in reports for c in rep.checks]
    columns = ["suite", "k", "r", "name", "residual", "tol", "pass"]

    def line(suite, k, r, name, residual, tol, passed) -> str:
        at = (f"{key}={fmt_cell(x)}" for key, x in (("k", k), ("r", r)) if x is not None)
        status = "pass" if passed else "FAIL"
        return f"{status}  {' '.join([suite, *at])}  {name}  residual={residual:.3e}  tol={tol:.1e}"

    axes = [{col: [row[i] for row in rows] for i, col in enumerate(columns)}]  # one axis, a row per check
    _render(fmt, output, payload, axes, text=lambda: "\n".join(line(*row) for row in rows), code=0 if ok else 1)


def _symbol_out(command, names: tuple[str, ...], spins: tuple[HalfInt, ...], r, table, fmt, output, index=(slice(None),) * 3):
    """A record per entry of table[index], labelled by the spins of names, their alpha labels at index, and r."""
    alpha_names = ["alpha" + name[1:] for name in names]  # j1 -> alpha1, j -> alpha
    axes = [{name: [float(j)]} for name, j in zip(names, spins)]
    axes += [{name: alpha_labels(j, r)[at]} for name, j, at in zip(alpha_names, spins, index)] + [{"r": [float(r)]}]
    payload = {"command": command, **{name: str(j) for name, j in zip(names, spins)}, "r": float(r)}
    _render(fmt, output, payload, axes, table[index], key="records")


FORMAT = click.option(
    "--format", "fmt", type=click.Choice(["json", "csv", "text"]), default="json", show_default=True
)
OUTPUT = click.option("--output", type=click.Path(dir_okay=False, writable=True), default=None)
TOL = click.option("--tol", type=float, default=None, help="override the default tolerance")


@click.group(cls=WracahGroup)
@click.version_option(package_name="wracah")
def main() -> None:
    """su(2) from twin deformed oscillators, with coupling calculus in the
    cyclic-shift eigenbasis."""


@main.command("quon-check")
@click.option("--k", type=int, required=True, help="order of the root of unity")
@FORMAT
@OUTPUT
@TOL
def quon_check(k: int, fmt: str, output: str | None, tol: float | None) -> None:
    """Verify the deformed commutators, number operators, and nilpotency."""
    report = verify_quon_relations(quon_operators(k), _resolve_tol(tol))
    _finish_verification("quon-check", {"k": k}, [report], fmt, output)


@main.command("su2-check")
@click.option("--k", type=int, required=True)
@click.option("--r", type=float, default=1.0, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@FORMAT
@OUTPUT
@TOL
def su2_check(k: int, r: float, seed: int, fmt: str, output: str | None, tol: float | None) -> None:
    """Verify the polar construction and its analytic eigenbasis."""
    rule = _resolve_tol(tol)
    params = ShiftParams(k, r)
    reports = [
        verify_su2(params, rule, seed=seed),
        verify_shift_eigenbasis(params.j, r, rule),
    ]
    _finish_verification("su2-check", {"k": k, "r": r}, reports, fmt, output)


@main.command("basis")
@click.option("--j", type=HALFINT, required=True)
@click.option("--r", type=float, default=1.0, show_default=True)
@FORMAT
@OUTPUT
def basis(j: HalfInt, r: float, fmt: str, output: str | None) -> None:
    """Emit the shift eigenbasis: labels, eigenvalues, transform matrix."""
    data = shift_eigenbasis(j, r)
    axes = [{"s": range(len(data.alphas)), "alpha": data.alphas}]
    payload = {"command": "basis", **data.to_dict()}
    _render(fmt, output, payload, axes, data.eigenvalues, value="eigenvalue", csv=lambda: matrix_to_csv(data.transform))


@main.command("cg-ur")
@click.option("--j1", type=HALFINT, required=True)
@click.option("--j2", type=HALFINT, required=True)
@click.option("--j", type=HALFINT, required=True)
@click.option("--r", type=float, default=1.0, show_default=True)
@click.option("--s1", type=int, default=None)
@click.option("--s2", type=int, default=None)
@click.option("--s", type=int, default=None)
@FORMAT
@OUTPUT
def cg_ur_cmd(j1, j2, j, r, s1, s2, s, fmt, output) -> None:
    """Transformed coupling coefficients, one record or the full table."""
    chosen = (s1, s2, s)
    if any(x is not None for x in chosen) and not all(x is not None for x in chosen):
        raise click.UsageError("give all of --s1 --s2 --s or none of them")
    index = (slice(None),) * 3
    if s1 is not None:  # out-of-range labels are a usage error outside the triangle too
        chosen = (check_label(j1, s1, "s1"), check_label(j2, s2, "s2"), check_label(j, s))
        index = tuple(slice(x, x + 1) for x in chosen)  # the entry cg_ur() reads, as a table of one
    if triangle(j1, j2, j):
        table = cg_ur_table(j1, j2, j, r)
    else:
        table, index = np.zeros((0, 0, 0)), (slice(0),) * 3  # the empty table
    _symbol_out("cg-ur", ("j1", "j2", "j"), (j1, j2, j), r, table, fmt, output, index)


@main.command("fbar")
@click.option("--j1", type=HALFINT, required=True)
@click.option("--j2", type=HALFINT, required=True)
@click.option("--j3", type=HALFINT, required=True)
@click.option("--r", type=float, default=1.0, show_default=True)
@FORMAT
@OUTPUT
def fbar_cmd(j1, j2, j3, r, fmt, output) -> None:
    """The symmetric recoupling symbol over all label triples."""
    _symbol_out("fbar", ("j1", "j2", "j3"), (j1, j2, j3), r, fbar_table(j1, j2, j3, r), fmt, output)


@main.command("ortho")
@click.option("--j1", type=HALFINT, required=True)
@click.option("--j2", type=HALFINT, required=True)
@click.option("--r", type=float, default=1.0, show_default=True)
@click.option(
    "--mismatch-r",
    type=float,
    default=None,
    help="negative control: use a different family parameter in the second factor",
)
@FORMAT
@OUTPUT
@TOL
def ortho(j1, j2, r, mismatch_r, fmt, output, tol) -> None:
    """Both orthogonality sums of the symmetric symbol."""
    report = verify_fbar_orthogonality(j1, j2, r, _resolve_tol(tol), mismatched_r=mismatch_r)
    _finish_verification("ortho", {"j1": str(j1), "j2": str(j2), "r": float(r)}, [report], fmt, output)


@main.command("we-check")
@click.option("--j", type=HALFINT, required=True)
@click.option("--rank", type=int, required=True)
@click.option("--r", type=float, default=1.0, show_default=True)
@FORMAT
@OUTPUT
@TOL
def we_check(j, rank, r, fmt, output, tol) -> None:
    """Factorize shift-basis tensor matrix elements through the first symbol."""
    report = verify_wigner_eckart(j, [rank], r, _resolve_tol(tol))
    _finish_verification("we-check", {"j": str(j), "rank": rank, "r": float(r)}, [report], fmt, output)


@main.command("winf")
@click.option("--k", type=int, required=True)
@click.option("--r", type=float, default=1.0, show_default=True)
@click.option("--max-index", type=click.IntRange(min=0), default=2, show_default=True)
@FORMAT
@OUTPUT
@TOL
def winf(k, r, max_index, fmt, output, tol) -> None:
    """Sine-algebra commutators of the clock-shift monomials."""
    report = verify_sine_algebra(
        ShiftParams(k, r), range(-max_index, max_index + 1), _resolve_tol(tol)
    )
    _finish_verification("winf", {"k": k, "r": float(r), "max_index": max_index}, [report], fmt, output)


@main.command("yr")
@click.option("--l", "ell", type=int, required=True)
@click.option("--s", type=int, required=True)
@click.option("--r", type=float, default=1.0, show_default=True)
@click.option("--theta", type=float, required=True)
@click.option("--phi", type=float, required=True)
@click.option("--grid-theta", type=int, default=None, help="also dump the family member on an n_theta x n_phi grid")
@click.option("--grid-phi", type=int, default=None)
@FORMAT
@OUTPUT
def yr(ell, s, r, theta, phi, grid_theta, grid_phi, fmt, output) -> None:
    """Pointwise value of a shift-family eigenfunction on the sphere."""
    if (grid_theta is None) != (grid_phi is None):
        raise click.UsageError("give both --grid-theta and --grid-phi or neither")
    value = y_r_eigenfunction(ell, s, r, SphericalPoint(theta, phi))  # also rejects an s outside 0..2l
    head = {"command": "yr", "l": ell, "s": s, "r": float(r)}
    split = None if fmt == "csv" else "value"  # csv has re and im columns, text one value
    if grid_theta is not None:
        grid = QuadratureGrid(grid_theta, grid_phi)
        axes = [{"theta": grid.thetas.tolist()}, {"phi": grid.phis.tolist()}]
        _render(fmt, output, head, axes, y_r_grid_member(ell, s, r, grid), key="grid", value=split)

    def text():
        return f"y[l={ell}, s={s}, r={fmt_cell(r)}]({fmt_cell(theta)}, {fmt_cell(phi)}) = {fmt_cell(value)}"

    payload = {**head, "theta": float(theta), "phi": float(phi), "re": value.real, "im": value.imag}
    _render(fmt, output, payload, [{"theta": [float(theta)]}, {"phi": [float(phi)]}], [value], value=split, text=text)


# Twice-spins of the 9-j arrays that the substitution check evaluates.
_NINEJ_CASES = [
    (0, 0, 0, 0, 0, 0, 0, 0, 0),
    (1, 1, 2, 1, 1, 2, 2, 2, 0),
    (2, 2, 2, 0, 2, 2, 2, 0, 2),
    (2, 2, 0, 2, 2, 2, 0, 2, 2),
]


def _tagged(point: tuple[HalfInt, ...], report: VerificationReport) -> VerificationReport:
    """report with each check name led by the tag of its grid point.

    The tag is tj1_<2j1>_tj2_<2j2> for a pair of spins, tj_<2j>_<2j'>_...
    otherwise, and a check without a name is named by the tag alone.
    """
    twice = [j.twice for j in point]
    tag = f"tj1_{twice[0]}_tj2_{twice[1]}" if len(twice) == 2 else "_".join(["tj", *map(str, twice)])
    report.checks = [Check(f"{tag}_{c.name}" if c.name else tag, c.residual, c.tol, c.passed) for c in report.checks]
    return report


def _ninej_check(*js: HalfInt, r: float, bound: float) -> VerificationReport:
    report = VerificationReport(suite="ninej-substitution", k=None, r=r)
    # a 9-j residual is named by its spins alone
    report.add(Check.residual_check("", ninej_from_fbar(*js, r).residual, bound))
    return report


def _pair_checks(suite: str, steps):
    """The call of a wigner-core suite: the check of one pair of spins, drawn from steps.

    steps gives one {(2j1, 2j2): check} per step of pair_walk
    (lowering_checks, orthogonality_checks); the next one is drawn when a
    pair is not in the current one.
    """
    step = {}

    def call(j1: HalfInt, j2: HalfInt) -> VerificationReport:
        if (j1.twice, j2.twice) not in step:
            step.update(next(steps))
        return VerificationReport(suite=suite, checks=[step.pop((j1.twice, j2.twice))])

    return call


def _we_ranks(j: HalfInt) -> list[int]:
    """The tensor ranks that wigner-eckart checks at spin j."""
    return [0, 1] + ([2] if j.twice >= 2 else [])


def _schedule(rows, walk: range, max_j) -> list[list[tuple[int, tuple]]]:
    """The steps of a report: the (row, point) runs of each, in run order.

    Each row is one step, but for the walk rows, rows[walk].  They run at
    the place of the first of them, one step of pair_walk at a time; at
    each, every walk row is a step of its own, on the pairs of that walk
    step that its grid holds.
    """
    grids = {i: set(rows[i][1]) for i in walk}
    steps = [[(i, point) for point in rows[i][1]] for i in range(walk.start)]
    for pairs in pair_walk(max_j):
        points = [(HalfInt(t1), HalfInt(t2)) for t1, t2 in pairs]
        steps += [[(i, p) for p in points if p in grids[i]] for i in walk]
    return steps + [[(i, point) for point in rows[i][1]] for i in range(walk.stop, len(rows))]


def _build_report(
    max_j: HalfInt, r: float, seed: int, rule: ToleranceRule | None
) -> tuple[list[VerificationReport], dict[str, float]]:
    """Every suite of `report`: rows of (suite, grid, call, reads) in output order, run by one loop.

    A grid is a list of spin tuples.  At each point, call(*point) returns a
    report and reads(*point) lists the cache keys that the suite looks up
    itself: table keys and cg blocks, not what a table's build reads.  A row
    without a suite keeps each point's report as it is; the others merge them
    into one suite with their k and r, the checks in the order of the grid.
    _schedule orders the runs into steps.  The plan gives each key the last
    step that reads it, and a table's inputs (table_inputs) the step of its
    first read, which builds it; the cache holds each entry that the report
    builds until the end of that step.  The README's `report` section says
    why some suites leave spins out.  Returns the reports and the wall time
    in seconds of each suite that ran a point.
    """
    positive_spins = [(j,) for j in all_spins(max_j)[1:]]  # order k = 2j + 1 for the operator suites
    pairs = list(itertools.product(all_spins(max_j), repeat=2))
    integer_pairs = list(itertools.product(integer_spins(max_j), repeat=2))
    triples_up_to_2 = list(itertools.product(all_spins(min(max_j, HalfInt(4))), repeat=3))
    sine_rs = [0.0, r] if r else [0.0]
    sine_cases = [(j, rv) for j in integer_spins(min(max_j, HalfInt(4)))[1:] for rv in sine_rs]  # k = 3, 5
    bound = (rule or ToleranceRule()).abs_tol

    def nothing(*point) -> list[tuple]:
        return []

    def cg_blocks(j1, j2) -> list[tuple]:
        """The canonical cg blocks of (j1, j2, j), for each j of the triangle."""
        return [cg_key(j1.twice, j2.twice, j.twice) for j in halfint_range(abs(j1 - j2), j1 + j2)]

    def tables(kind, j1, j2) -> list[tuple]:
        """The keys of the tables of kind at (j1, j2, j), for each j of the triangle."""
        return [table_key(kind, j1, j2, j, r) for j in halfint_range(abs(j1 - j2), j1 + j2)]

    operators = [
        (None, positive_spins, lambda j: verify_quon_relations(quon_operators(j.twice + 1), rule), nothing),
        (None, positive_spins, lambda j: verify_su2(ShiftParams(j.twice + 1, r), rule, seed=seed), nothing),
        (None, positive_spins, lambda j: verify_shift_eigenbasis(j, r, rule), nothing),
        (
            None,
            sine_cases,
            lambda j, rv: verify_sine_algebra(ShiftParams(j.twice + 1, rv), range(-2, 3), rule),
            nothing,
        ),
    ]
    walk = [  # the suites over pairs of spins, run one step of pair_walk at a time
        ("wigner-core", pairs, _pair_checks("wigner-core", lowering_checks(max_j, rule)), cg_blocks),
        (
            "wigner-core-orthogonality",
            pairs,
            _pair_checks("wigner-core-orthogonality", orthogonality_checks(max_j, rule)),
            cg_blocks,
        ),
        (
            "cg-ur-unitarity",
            integer_pairs,
            lambda *js: _tagged(js, verify_cg_ur_unitarity(*js, r, rule)),
            lambda j1, j2: tables("cg_ur", j1, j2),
        ),
        (
            "cg-ur-interchange",
            integer_pairs,
            lambda *js: _tagged(js, verify_cg_ur_interchange(*js, r, rule)),
            lambda j1, j2: tables("cg_ur", j1, j2) + tables("cg_ur", j2, j1),
        ),
        (
            "fbar-orthogonality",
            integer_pairs,
            lambda *js: _tagged(js, verify_fbar_orthogonality(*js, r, rule)),
            lambda j1, j2: tables("fbar", j1, j2) + [table_key("fbar", j1, j2, j1 + j2 + 1, r)],  # and one beyond
        ),
    ]
    rows = operators + walk + [
        (
            "fbar-permutation",
            triples_up_to_2,
            lambda *js: _tagged(js, verify_fbar_permutation(*js, r, rule)),
            lambda *js: [table_key("fbar", *perm, r) for perm in itertools.permutations(js)],
        ),
        (
            "f-interchange",
            triples_up_to_2,
            lambda *js: _tagged(js, verify_f_interchange(*js, r, rule)),
            lambda j1, j2, j3: [table_key("cg_ur", j2, j3, j1, r), table_key("cg_ur", j3, j2, j1, r)],
        ),
        ("tensor-transform", positive_spins, lambda j: _tagged((j,), verify_tensor_transform(j, 1, r, rule)), nothing),
        (
            "wigner-eckart",
            [(j,) for j in half_integer_spins(max_j)],
            lambda j: _tagged((j,), verify_wigner_eckart(j, _we_ranks(j), r, rule)),
            # the cg_ur table under each rank's f table, and the cg block that builds rank 2
            lambda j: [table_key("cg_ur", j, rank, j, r) for rank in _we_ranks(j)]
            + ([cg_key(2, 2, 4)] if 2 in _we_ranks(j) else []),
        ),
        (
            "ninej-substitution",
            [tuple(map(HalfInt, case)) for case in _NINEJ_CASES],
            lambda *js: _tagged(js, _ninej_check(*js, r=r, bound=bound)),
            # the fbar table of each row and column of the array, and the cg block under its 3-jm block
            # in the magnetic 9-j that is the reference
            lambda *js: [
                key
                for triad in (js[:3], js[3:6], js[6:], js[::3], js[1::3], js[2::3])
                for key in (table_key("fbar", *triad, r), cg_key(*(j.twice for j in triad)))
            ],
        ),
        (
            None,
            [(max_j,)],
            lambda j: verify_sphere(
                l_max=8, family_l_max=min(2 * (j.twice // 2) or 1, 4), rs=[0.0, r or 1.0], tol=rule
            ),
            nothing,
        ),
    ]

    steps = _schedule(rows, range(len(operators), len(operators) + len(walk)), max_j)
    plan: dict[tuple, int] = {}
    for step, runs in enumerate(steps):
        for i, point in runs:
            for key in rows[i][3](*point):
                if key not in plan:  # the first read of a table builds it
                    plan.update(dict.fromkeys(table_inputs(key), step))
                plan[key] = step
    done: list[dict[tuple, VerificationReport]] = [{} for _ in rows]
    timings: dict[str, float] = {}
    table = default_table()
    with table.holding(plan):
        for runs in steps:
            for i, point in runs:
                start = time.perf_counter()
                report = done[i][point] = rows[i][2](*point)
                timings[report.suite] = timings.get(report.suite, 0.0) + time.perf_counter() - start
            table.end_step()
    reports: list[VerificationReport] = []
    for (suite, grid, _, _), results in zip(rows, done):
        parts = [results[point] for point in grid]
        if suite is None:
            reports += parts
        else:
            reports.append(VerificationReport(suite, parts[0].k, parts[0].r, [c for p in parts for c in p.checks]))
    return reports, timings


@main.command("report")
@click.option("--max-j", "max_j", type=HALFINT, required=True)
@click.option("--r", type=float, default=1.0, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option(
    "--timings",
    is_flag=True,
    help="print each suite's wall time, slowest first, the cache's counters, the most the report held "
    "and the peak RSS to stderr",
)
@FORMAT
@OUTPUT
@TOL
def report_cmd(max_j, r, seed, timings, fmt, output, tol) -> None:
    """Full verification sweep across every suite, sized by --max-j."""
    if max_j.twice < 1:
        raise click.UsageError("--max-j must be at least 1/2")
    reports, seconds = _build_report(max_j, float(r), seed, _resolve_tol(tol))
    if timings:
        for suite, wall in sorted(seconds.items(), key=lambda row: -row[1]):
            click.echo(f"{wall:9.3f} s  {suite}", err=True)
        cache = default_table()
        click.echo(
            f"cache: {len(cache)} entries, {cache.bytes / 2**20:.1f} MiB, {cache.hits} hits, "
            f"{cache.misses} misses, {cache.evictions} evictions, held {cache.held_peak / 2**20:.1f} MiB",
            err=True,
        )
        try:
            import resource
        except ImportError:  # not on Windows
            pass
        else:
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            unit = 2**20 if sys.platform == "darwin" else 2**10  # bytes on macOS, KiB on Linux
            click.echo(f"peak: {peak / unit:.1f} MiB resident", err=True)

    if os.environ.get("WRACAH_CORRUPT"):
        first = reports[0].checks[0]
        reports[0].checks[0] = Check(first.name, first.tol * 10.0 + 1.0, first.tol, False)

    _finish_verification("report", {"max_j": str(max_j), "r": float(r)}, reports, fmt, output)
