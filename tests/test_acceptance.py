"""Acceptance gate: one test per release criterion, each printing a
single pass/fail line with its measured worst residual.

Every residual here is recomputed inside the test from first principles
where the criterion demands literal matrix actions, so a regression in
the library's own verifiers cannot mask a regression in the objects.
"""

import cmath
import itertools
import json
import math

import jsonschema
import numpy as np
from click.testing import CliRunner

from wracah import (
    FockSpace,
    HalfInt,
    QuadratureGrid,
    ShiftParams,
    ToleranceRule,
    angular_momentum_ops,
    angular_momentum_tensor,
    identity_tensor,
    modulus_op,
    ninej_from_fbar,
    quon_operators,
    shift_eigenbasis,
    shift_op,
    triangle,
    verify_fbar_orthogonality,
    verify_fbar_permutation,
    verify_quon_relations,
    verify_sine_algebra,
    wigner_eckart_check,
)
from wracah.cli import main as cli_main
from wracah.su2 import restrict_to_angular
from wracah.sphere import harmonic_grid_values, y_r_grid_values
from wracah.wigner import verify_cg_against_lowering

from test_cli import REPORT_SCHEMA

K_RANGE = range(2, 10)
R_GRID = (0.0, 0.5, 1.0, 2.37)


def _line(num: int, label: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {num:2d}: {label} ({detail})")
    assert ok, f"criterion {num} failed: {label} ({detail})"


def test_criterion_01_quon_relations():
    worst = 0.0
    for k in K_RANGE:
        report = verify_quon_relations(quon_operators(k), ToleranceRule(1e-12))
        worst = max(worst, report.max_residual)
        if not report.passed:
            break
    _line(1, "deformed mode relations for k = 2..9", worst <= 1e-12, f"max residual {worst:.2e}")


def _expected_shift_matrix(k: int, r: float) -> np.ndarray:
    space = FockSpace(k)
    mat = np.zeros((space.dim, space.dim), dtype=complex)
    full = cmath.exp(1j * math.pi * (k - 1) * r)
    half = cmath.exp(1j * math.pi * (k - 1) * r / 2)
    for n1 in range(k):
        for n2 in range(k):
            col = space.index(n1, n2)
            if n1 < k - 1 and n2 > 0:
                mat[space.index(n1 + 1, n2 - 1), col] = 1.0
            elif n1 == k - 1 and n2 > 0:
                mat[space.index(0, n2 - 1), col] = half
            elif n1 < k - 1 and n2 == 0:
                mat[space.index(n1 + 1, k - 1), col] = half
            else:
                mat[space.index(0, k - 1), col] = full
    return mat


def test_criterion_02_polar_construction():
    worst_entry = 0.0
    worst_unitary = 0.0
    worst_herm = 0.0
    worst_comm = 0.0
    for k in K_RANGE:
        h = modulus_op(k)
        worst_herm = max(worst_herm, (h - h.adjoint()).norm())
        for r in R_GRID:
            params = ShiftParams(k, r)
            u = shift_op(params)
            worst_entry = max(
                worst_entry, float(np.max(np.abs(u.mat - _expected_shift_matrix(k, r))))
            )
            gram = u.adjoint().mat @ u.mat - np.eye(k * k)
            worst_unitary = max(worst_unitary, float(np.linalg.norm(gram, 2)))
            su2 = angular_momentum_ops(params)
            jp, jm, jz = su2.plus.mat, su2.minus.mat, su2.z.mat
            worst_comm = max(
                worst_comm,
                float(np.linalg.norm(jz @ jp - jp @ jz - jp, 2)),
                float(np.linalg.norm(jz @ jm - jm @ jz + jm, 2)),
                float(np.linalg.norm(jp @ jm - jm @ jp - 2 * jz, 2)),
            )
    ok = worst_entry <= 1e-12 and worst_unitary <= 1e-12 and worst_herm <= 1e-12 and worst_comm <= 1e-10
    _line(
        2,
        "shift action, unitarity, modulus, su(2) commutators over the k,r grid",
        ok,
        f"entry {worst_entry:.2e}, unitary {worst_unitary:.2e}, "
        f"hermitean {worst_herm:.2e}, commutators {worst_comm:.2e}",
    )


def test_criterion_03_casimir_and_cyclicity():
    worst_casimir = 0.0
    worst_comm = 0.0
    worst_cyclic = 0.0
    for k in K_RANGE:
        for r in R_GRID:
            params = ShiftParams(k, r)
            su2 = angular_momentum_ops(params)
            h = restrict_to_angular(modulus_op(k)).mat
            jz = su2.z.mat
            casimir = su2.casimir().mat
            worst_casimir = max(
                worst_casimir,
                float(np.max(np.abs(casimir - (h @ h + jz @ jz - jz)))),
            )
            u = restrict_to_angular(shift_op(params)).mat
            worst_comm = max(
                worst_comm, float(np.linalg.norm(casimir @ u - u @ casimir, 2))
            )
            cycled = np.linalg.matrix_power(u, k)
            worst_cyclic = max(
                worst_cyclic,
                float(np.max(np.abs(cycled - params.wrap_phase * np.eye(k)))),
            )
    ok = worst_casimir <= 1e-12 and worst_comm <= 1e-12 and worst_cyclic <= 1e-10
    _line(
        3,
        "Casimir identity, Casimir-shift commutation, shift cyclicity",
        ok,
        f"casimir {worst_casimir:.2e}, commutator {worst_comm:.2e}, cyclic {worst_cyclic:.2e}",
    )


def test_criterion_04_shift_eigenbasis():
    worst_vec = 0.0
    worst_unit = 0.0
    worst_multiset = 0.0
    min_gap = float("inf")
    for k in K_RANGE:
        for r in R_GRID:
            params = ShiftParams(k, r)
            basis = shift_eigenbasis(params.j, r)
            u = restrict_to_angular(shift_op(params)).mat
            worst_vec = max(
                worst_vec,
                float(np.max(np.abs(u @ basis.transform - basis.transform * basis.eigenvalues[None, :]))),
            )
            gram = basis.transform.conj().T @ basis.transform - np.eye(k)
            worst_unit = max(worst_unit, float(np.max(np.abs(gram))))
            vals = basis.eigenvalues
            min_gap = min(
                min_gap,
                min(abs(a - b) for i, a in enumerate(vals) for b in vals[i + 1:]),
            )
            generic = np.linalg.eig(u)[0]
            worst_multiset = max(
                worst_multiset,
                max(float(np.min(np.abs(generic - lam))) for lam in vals),
            )
    ok = (
        worst_vec <= 1e-10
        and worst_unit <= 1e-12
        and min_gap > 1e-6
        and worst_multiset <= 1e-9
    )
    _line(
        4,
        "analytic shift eigenbasis against the generic eigensolver",
        ok,
        f"residual {worst_vec:.2e}, unitary {worst_unit:.2e}, "
        f"gap {min_gap:.2e}, multiset {worst_multiset:.2e}",
    )


def test_criterion_05_sine_algebra():
    worst = 0.0
    for k in (3, 5):
        for r in (0.0, 1.0):
            report = verify_sine_algebra(
                ShiftParams(k, r), index_range=range(-2, 3), tol=ToleranceRule(1e-10)
            )
            worst = max(worst, report.max_residual)
            assert report.passed
    _line(
        5,
        "sine-bracket structure constants for clock-shift monomials",
        worst <= 1e-10,
        f"max residual {worst:.2e}",
    )


def test_criterion_06_coupling_against_lowering():
    report = verify_cg_against_lowering(3, ToleranceRule(1e-12))
    worst = report.max_residual
    _line(
        6,
        "closed-form coupling coefficients against the eigenvectors of J^2, j <= 3",
        report.passed and worst <= 1e-12,
        f"max residual {worst:.2e}",
    )


def test_criterion_07_fbar_orthogonality_and_symmetry():
    spins = [HalfInt(t) for t in range(0, 5)]
    worst_orth = 0.0
    for j1, j2 in itertools.product(spins, repeat=2):
        for r in R_GRID:
            report = verify_fbar_orthogonality(j1, j2, r, ToleranceRule(1e-10))
            worst_orth = max(worst_orth, report.max_residual)
            assert report.passed, (str(j1), str(j2), r)
    worst_perm = 0.0
    for j1, j2, j3 in itertools.product(spins, repeat=3):
        if not triangle(j1.as_fraction, j2.as_fraction, j3.as_fraction):
            continue
        report = verify_fbar_permutation(j1, j2, j3, 1.0, ToleranceRule(1e-10))
        worst_perm = max(worst_perm, report.max_residual)
        assert report.passed, (str(j1), str(j2), str(j3))
    ok = worst_orth <= 1e-10 and worst_perm <= 1e-10
    _line(
        7,
        "symmetric symbol orthogonality and permutation laws, spins <= 2",
        ok,
        f"orthogonality {worst_orth:.2e}, permutation {worst_perm:.2e}",
    )


def test_criterion_08_wigner_eckart():
    worst_spread = 0.0
    worst_scalar = 0.0
    for twice in (2, 3, 4, 6):
        j = HalfInt(twice)
        scalar = wigner_eckart_check(identity_tensor(j), 1.0)
        worst_scalar = max(worst_scalar, abs(scalar.reduced - math.sqrt(twice + 1)))
        for rank in (1, 2):
            result = wigner_eckart_check(angular_momentum_tensor(j, rank), 1.0)
            worst_spread = max(worst_spread, result.ratio_spread, result.max_residual)
    ok = worst_spread <= 1e-10 and worst_scalar <= 1e-12
    _line(
        8,
        "factorization of tensor matrix elements, ranks 1-2 on j in {1,3/2,2,3}",
        ok,
        f"spread {worst_spread:.2e}, scalar closed form {worst_scalar:.2e}",
    )


def test_criterion_09_ninej_substitution():
    spins = [HalfInt(0), HalfInt(1), HalfInt(2)]
    worst = 0.0
    for js in itertools.product(spins, repeat=9):
        sub = ninej_from_fbar(*js, 1.0)
        worst = max(worst, sub.residual)

    # other family parameters: every array whose six triads obey the
    # triangle rule (the rest are zero on both sides without a table)
    triads = ((0, 1, 2), (3, 4, 5), (6, 7, 8), (0, 3, 6), (1, 4, 7), (2, 5, 8))
    admissible = [
        js
        for js in itertools.product(spins, repeat=9)
        if all(triangle(*(js[i] for i in triad)) for triad in triads)
    ]
    assert len(admissible) == 215
    other = max(ninej_from_fbar(*js, r).residual for js in admissible for r in (0.5, 2.37))
    ok = worst <= 1e-10 and other <= 1e-10
    _line(
        9,
        "9-symbol substitution at r = 1 over all spins <= 1",
        ok,
        f"max residual {worst:.2e}; at r in (0.5, 2.37) over all {len(admissible)} admissible arrays "
        f"{other:.2e}, consistent with no r dependence",
    )


def test_criterion_10_sphere():
    l_max = 8
    grid = QuadratureGrid(l_max + 1, 2 * l_max + 1)
    table = harmonic_grid_values(l_max, grid)
    keys = sorted(table)
    fam = np.stack([table[key] for key in keys])
    gram = grid.gram(fam)
    worst_harm = float(np.max(np.abs(gram - np.eye(len(keys)))))

    worst_family = 0.0
    for l in range(1, 5):
        fgrid = QuadratureGrid(l + 1, 2 * l + 1)
        for r in (0.0, 1.0):
            vals = y_r_grid_values(l, r, fgrid)
            fgram = fgrid.gram(vals)
            worst_family = max(
                worst_family, float(np.max(np.abs(fgram - np.eye(2 * l + 1))))
            )
    ok = worst_harm <= 1e-10 and worst_family <= 1e-10
    _line(
        10,
        "harmonic orthonormality to degree 8 and shift families to degree 4",
        ok,
        f"harmonics {worst_harm:.2e}, families {worst_family:.2e}",
    )


def test_criterion_11_cli_report():
    runner = CliRunner()
    clean = runner.invoke(cli_main, ["report", "--max-j", "2", "--r", "1"])
    schema_ok = False
    coverage_ok = False
    if clean.exit_code == 0:
        payload = json.loads(clean.output)
        try:
            jsonschema.validate(payload, REPORT_SCHEMA)
            schema_ok = True
        except jsonschema.ValidationError:
            schema_ok = False
        suites = {s["suite"] for s in payload["suites"]}
        coverage_ok = {
            "quon",
            "su2-polar",
            "shift-eigenbasis",
            "sine-algebra",
            "wigner-core",
            "wigner-core-orthogonality",
            "cg-ur-unitarity",
            "cg-ur-interchange",
            "f-interchange",
            "fbar-orthogonality",
            "fbar-permutation",
            "ninej-substitution",
            "tensor-transform",
            "wigner-eckart",
            "sphere",
        } <= suites
    corrupted = runner.invoke(
        cli_main, ["report", "--max-j", "2", "--r", "1"], env={"WRACAH_CORRUPT": "1"}
    )
    ok = clean.exit_code == 0 and schema_ok and coverage_ok and corrupted.exit_code == 1
    _line(
        11,
        "report command: exit codes, schema, suite coverage, corruption hook",
        ok,
        f"clean exit {clean.exit_code}, schema {schema_ok}, "
        f"coverage {coverage_ok}, corrupted exit {corrupted.exit_code}",
    )
