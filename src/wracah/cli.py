"""Command-line frontend: single symbols, tables, and verification sweeps.

Exit codes: 0 when every check passes, 1 when a verification fails, 2 for
usage errors.  Output is deterministic: canonical JSON (insertion-ordered
keys, 17 significant digits) or CSV with complex values rendered re+imi.
`report --timings` prints each suite's wall time and the state of the
package's cache to stderr and leaves the output itself unchanged.

Environment:
  WRACAH_TOL      overrides the default absolute tolerance.
  WRACAH_CORRUPT  test hook; when set, the report command falsifies one
                  check so the failure path can be exercised end to end.
"""

from __future__ import annotations

import itertools
import os
import sys
import time

import click
import numpy as np

from .errors import InvalidArgumentError, WracahError
from .fock import quon_operators, verify_quon_relations
from .qarith import HalfInt, ToleranceRule, all_spins, half_integer_spins, integer_spins
from .report import Check, VerificationReport
from .serialize import dumps, fmt_complex, fmt_float, matrix_to_csv, rows_to_csv
from .sphere import QuadratureGrid, SphericalPoint, verify_sphere, y_r_eigenfunction, y_r_grid_values
from .su2 import ShiftParams, shift_eigenbasis, verify_shift_eigenbasis, verify_sine_algebra, verify_su2
from .urcoupling import (
    alpha_labels,
    cg_ur,
    cg_ur_table,
    fbar_table,
    ninej_from_fbar,
    verify_cg_ur_interchange,
    verify_cg_ur_unitarity,
    verify_f_interchange,
    verify_fbar_orthogonality,
    verify_fbar_permutation,
    verify_tensor_transform,
    verify_wigner_eckart,
)
from .wigner import default_table, lowering_checks, orthogonality_checks, triangle


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


def _resolve_tol(explicit: float | None) -> ToleranceRule | None:
    """--tol beats WRACAH_TOL beats each suite's own default."""
    if explicit is not None:
        return ToleranceRule(explicit)
    env = os.environ.get("WRACAH_TOL")
    if env:
        try:
            value = float(env)
        except ValueError:
            raise InvalidArgumentError(f"WRACAH_TOL={env!r} is not a number") from None
        return ToleranceRule(value)
    return None


def _write(text: str, output: str | None) -> None:
    """Print text, or write it to the output file; a file that cannot be written is a usage error."""
    if output:
        try:
            with open(output, "w", encoding="utf-8") as fh:
                fh.write(text if text.endswith("\n") else text + "\n")
        except OSError as exc:
            raise click.UsageError(f"cannot write --output {output}: {exc.strerror or exc}") from exc
    else:
        click.echo(text)


def _report_csv(reports: list[VerificationReport]) -> str:
    rows = []
    for rep in reports:
        for check in rep.checks:
            rows.append(
                {
                    "suite": rep.suite,
                    "k": "" if rep.k is None else rep.k,
                    "r": "" if rep.r is None else fmt_float(rep.r),
                    "name": check.name,
                    "residual": check.residual,
                    "tol": check.tol,
                    "pass": check.passed,
                }
            )
    return rows_to_csv(["suite", "k", "r", "name", "residual", "tol", "pass"], rows)


def _report_text(reports: list[VerificationReport]) -> str:
    lines = []
    for rep in reports:
        where = rep.suite
        if rep.k is not None:
            where += f" k={rep.k}"
        if rep.r is not None:
            where += f" r={fmt_float(rep.r)}"
        for check in rep.checks:
            status = "pass" if check.passed else "FAIL"
            lines.append(
                f"{status}  {where}  {check.name}  residual={check.residual:.3e}  tol={check.tol:.1e}"
            )
    return "\n".join(lines)


def _finish_verification(
    command: str, params: dict, reports: list[VerificationReport], fmt: str, output: str | None
) -> None:
    """Write the reports in fmt and exit 0 when every check passed, 1 otherwise.

    The json payload is {"command", **params, "pass", "suites"}.
    """
    ok = all(rep.passed for rep in reports)
    if fmt == "json":
        payload = {"command": command, **params, "pass": ok, "suites": [rep.to_dict() for rep in reports]}
        _write(dumps(payload), output)
    elif fmt == "csv":
        _write(_report_csv(reports), output)
    else:
        _write(_report_text(reports), output)
    sys.exit(0 if ok else 1)


def _records_out(payload: dict, records: list[dict], columns: list[str], fmt: str, output: str | None) -> None:
    if fmt == "json":
        _write(dumps(payload), output)
    elif fmt == "csv":
        rows = []
        for rec in records:
            row = dict(rec)
            row["value"] = complex(rec["re"], rec["im"])
            rows.append(row)
        _write(rows_to_csv(columns + ["value"], rows), output)
    else:
        lines = []
        for rec in records:
            head = " ".join(f"{col}={_plain(rec[col])}" for col in columns)
            lines.append(f"{head} value={fmt_complex(complex(rec['re'], rec['im']))}")
        _write("\n".join(lines) if lines else "(no records)", output)
    sys.exit(0)


def _symbol_out(command: str, names: tuple[str, ...], spins: tuple[HalfInt, ...], r: float, entries, fmt, output):
    """One record per ((s1, s2, s3), value) of entries, with the spins and alpha labels of names."""
    alphas = [alpha_labels(j, r) for j in spins]
    alpha_names = ["alpha" + name[1:] for name in names]  # j1 -> alpha1, j -> alpha
    records = []
    for labels, value in entries:
        record = {name: float(j) for name, j in zip(names, spins)}
        record.update((name, alpha[x]) for name, alpha, x in zip(alpha_names, alphas, labels))
        record.update(r=float(r), re=value.real, im=value.imag)
        records.append(record)
    spin_fields = {name: str(j) for name, j in zip(names, spins)}
    payload = {"command": command, **spin_fields, "r": float(r), "records": records}
    _records_out(payload, records, [*names, *alpha_names, "r"], fmt, output)


def _plain(value) -> str:
    if isinstance(value, float):
        return fmt_float(value)
    return str(value)


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
    if fmt == "csv":
        _write(matrix_to_csv(data.transform), output)
    elif fmt == "text":
        lines = [
            f"s={s} alpha={fmt_float(data.alphas[s])} eigenvalue={fmt_complex(data.eigenvalues[s])}"
            for s in range(len(data.alphas))
        ]
        _write("\n".join(lines), output)
    else:
        _write(dumps({"command": "basis", **data.to_dict()}), output)
    sys.exit(0)


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
    if not triangle(j1, j2, j):
        entries = []
    elif s1 is not None:
        entries = [(chosen, cg_ur(j1, j2, s1, s2, j, s, r))]
    else:
        entries = np.ndenumerate(cg_ur_table(j1, j2, j, r))
    _symbol_out("cg-ur", ("j1", "j2", "j"), (j1, j2, j), r, entries, fmt, output)


@main.command("fbar")
@click.option("--j1", type=HALFINT, required=True)
@click.option("--j2", type=HALFINT, required=True)
@click.option("--j3", type=HALFINT, required=True)
@click.option("--r", type=float, default=1.0, show_default=True)
@FORMAT
@OUTPUT
def fbar_cmd(j1, j2, j3, r, fmt, output) -> None:
    """The symmetric recoupling symbol over all label triples."""
    entries = np.ndenumerate(fbar_table(j1, j2, j3, r))
    _symbol_out("fbar", ("j1", "j2", "j3"), (j1, j2, j3), r, entries, fmt, output)


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
    point = SphericalPoint(theta, phi)
    value = y_r_eigenfunction(ell, s, r, point)
    if (grid_theta is None) != (grid_phi is None):
        raise click.UsageError("give both --grid-theta and --grid-phi or neither")
    if grid_theta is not None:
        grid = QuadratureGrid(grid_theta, grid_phi)
        samples = y_r_grid_values(ell, r, grid)[s]
        rows = []
        for it, th in enumerate(grid.thetas):
            for ip, ph in enumerate(grid.phis):
                rows.append(
                    {
                        "theta": float(th),
                        "phi": float(ph),
                        "re": samples[it, ip].real,
                        "im": samples[it, ip].imag,
                    }
                )
        if fmt == "json":
            _write(
                dumps({"command": "yr", "l": ell, "s": s, "r": float(r), "grid": rows}), output
            )
        elif fmt == "csv":
            _write(rows_to_csv(["theta", "phi", "re", "im"], rows), output)
        else:
            lines = [
                f"theta={fmt_float(row['theta'])} phi={fmt_float(row['phi'])} "
                f"value={fmt_complex(complex(row['re'], row['im']))}"
                for row in rows
            ]
            _write("\n".join(lines), output)
        sys.exit(0)
    record = {
        "command": "yr",
        "l": ell,
        "s": s,
        "r": float(r),
        "theta": float(theta),
        "phi": float(phi),
        "re": value.real,
        "im": value.imag,
    }
    if fmt == "csv":
        _write(rows_to_csv(["theta", "phi", "re", "im"], [record]), output)
    elif fmt == "text":
        _write(f"y[l={ell}, s={s}, r={fmt_float(float(r))}]({fmt_float(theta)}, {fmt_float(phi)}) = {fmt_complex(value)}", output)
    else:
        _write(dumps(record), output)
    sys.exit(0)


# Twice-spins of the 9-j arrays that the substitution check evaluates.
_NINEJ_CASES = [
    (0, 0, 0, 0, 0, 0, 0, 0, 0),
    (1, 1, 2, 1, 1, 2, 2, 2, 0),
    (2, 2, 2, 0, 2, 2, 2, 0, 2),
    (2, 2, 0, 2, 2, 2, 0, 2, 2),
]


def _tag(spins: tuple[HalfInt, ...]) -> str:
    """tj1_<2j1>_tj2_<2j2> for a pair of spins, tj_<2j>_<2j'>_... otherwise."""
    twice = [j.twice for j in spins]
    if len(twice) == 2:
        return f"tj1_{twice[0]}_tj2_{twice[1]}"
    return "_".join(["tj", *map(str, twice)])


def _ninej_check(*js: HalfInt, r: float, bound: float) -> VerificationReport:
    report = VerificationReport(suite="ninej-substitution", k=None, r=r)
    # a 9-j residual is named by its spins alone
    report.add(Check.residual_check("", ninej_from_fbar(*js, r).residual, bound))
    return report


def _add_tagged(merged: VerificationReport, point: tuple[HalfInt, ...], checks: list[Check]) -> None:
    """Add the checks of one grid point to a merged suite, each name led by the point's tag."""
    tag = _tag(point)
    for check in checks:
        merged.add(Check(f"{tag}_{check.name}" if check.name else tag, check.residual, check.tol, check.passed))


def _pair_reports(
    max_j: HalfInt, r: float, rule: ToleranceRule | None, timings: dict[str, float]
) -> list[VerificationReport]:
    """wigner-core, wigner-core-orthogonality and the three suites on pairs of integer spins, pair by pair.

    The pairs are walked once, 2j1 major, so that the J^2 oracle is still
    diagonalized a row at a time.  A pair of integer spins runs its three
    suites together with its swapped pair, when the first of the two is
    reached, right after the wigner-core checks that built its cg blocks.
    So the blocks and tables of both pairs are read while they are cached,
    and the cache can drop them afterwards.  The checks go into each suite
    in the order of its grid, and each suite's wall time is summed over the
    pairs into timings.
    """
    cores = [
        (VerificationReport(suite="wigner-core"), lowering_checks(max_j, rule)),
        (VerificationReport(suite="wigner-core-orthogonality"), orthogonality_checks(max_j, rule)),
    ]
    verifiers = {
        "cg-ur-unitarity": verify_cg_ur_unitarity,
        "cg-ur-interchange": verify_cg_ur_interchange,
        "fbar-orthogonality": verify_fbar_orthogonality,
    }
    done: dict[tuple, list[Check]] = {}
    for j1, j2 in itertools.product(all_spins(max_j), repeat=2):
        for report, checks in cores:
            start = time.perf_counter()
            report.add(next(checks))
            timings[report.suite] = timings.get(report.suite, 0.0) + time.perf_counter() - start
        if not (j1.is_integer and j2.is_integer) or j1.twice > j2.twice:
            continue
        for point in dict.fromkeys([(j1, j2), (j2, j1)]):
            for suite, verify in verifiers.items():
                start = time.perf_counter()
                done[suite, point] = verify(*point, r, rule).checks
                timings[suite] = timings.get(suite, 0.0) + time.perf_counter() - start
    reports = [report for report, _ in cores]
    for suite in verifiers:
        merged = VerificationReport(suite=suite, k=None, r=r)
        for point in itertools.product(integer_spins(max_j), repeat=2):
            _add_tagged(merged, point, done[suite, point])
        reports.append(merged)
    return reports


def _build_report(
    max_j: HalfInt, r: float, seed: int, rule: ToleranceRule | None
) -> tuple[list[VerificationReport], dict[str, float]]:
    """Every suite of `report`: rows of (suite, spin grid, call), run by one loop.

    A grid is a list of spin tuples, each passed to the call.  A row without
    a suite keeps each call's report as it is; the others merge their points
    into one suite, each check name led by the point's tag.  The pair suites
    run between the rows, pair by pair (_pair_reports).  The README's
    `report` section says why some suites leave spins out.  Returns the
    reports and the wall time in seconds of each suite that ran a point.
    """
    positive_spins = [(j,) for j in all_spins(max_j)[1:]]  # order k = 2j + 1 for the operator suites
    triples_up_to_2 = list(itertools.product(all_spins(min(max_j, HalfInt(4))), repeat=3))
    sine_rs = [0.0, r] if r else [0.0]
    sine_cases = [(j, rv) for j in integer_spins(min(max_j, HalfInt(4)))[1:] for rv in sine_rs]  # k = 3, 5
    bound = rule.abs_tol if rule is not None else 1e-10
    before_pairs = [
        (None, positive_spins, lambda j: verify_quon_relations(quon_operators(j.twice + 1), rule)),
        (None, positive_spins, lambda j: verify_su2(ShiftParams(j.twice + 1, r), rule, seed=seed)),
        (None, positive_spins, lambda j: verify_shift_eigenbasis(j, r, rule)),
        (
            None,
            sine_cases,
            lambda j, rv: verify_sine_algebra(ShiftParams(j.twice + 1, rv), range(-2, 3), rule),
        ),
    ]
    after_pairs = [
        ("fbar-permutation", triples_up_to_2, lambda *js: verify_fbar_permutation(*js, r, rule)),
        ("f-interchange", triples_up_to_2, lambda *js: verify_f_interchange(*js, r, rule)),
        ("tensor-transform", positive_spins, lambda j: verify_tensor_transform(j, 1, r, rule)),
        (
            "wigner-eckart",
            [(j,) for j in half_integer_spins(max_j)],
            lambda j: verify_wigner_eckart(j, [0, 1] + ([2] if j.twice >= 2 else []), r, rule),
        ),
        (
            "ninej-substitution",
            [tuple(map(HalfInt, case)) for case in _NINEJ_CASES],
            lambda *js: _ninej_check(*js, r=r, bound=bound),
        ),
        (
            None,
            [(max_j,)],
            lambda j: verify_sphere(
                l_max=8, family_l_max=min(2 * (j.twice // 2) or 1, 4), rs=[0.0, r or 1.0], tol=rule
            ),
        ),
    ]

    reports: list[VerificationReport] = []
    timings: dict[str, float] = {}

    def run(rows) -> None:
        for suite, grid, call in rows:
            start = time.perf_counter()
            if suite is None:
                reports.extend(call(*point) for point in grid)
            else:
                merged = VerificationReport(suite=suite, k=None, r=r)
                for point in grid:
                    _add_tagged(merged, point, call(*point).checks)
                reports.append(merged)
            if grid:
                timings[reports[-1].suite] = time.perf_counter() - start

    run(before_pairs)
    reports.extend(_pair_reports(max_j, r, rule, timings))
    run(after_pairs)
    return reports, timings


@main.command("report")
@click.option("--max-j", "max_j", type=HALFINT, required=True)
@click.option("--r", type=float, default=1.0, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--timings", is_flag=True, help="print each suite's wall time, slowest first, and the cache's counters to stderr")
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
            f"{cache.misses} misses, {cache.evictions} evictions",
            err=True,
        )

    if os.environ.get("WRACAH_CORRUPT"):
        first = reports[0].checks[0]
        reports[0].checks[0] = Check(first.name, first.tol * 10.0 + 1.0, first.tol, False)

    _finish_verification("report", {"max_j": str(max_j), "r": float(r)}, reports, fmt, output)
