"""Which `report` suites catch which planted error in the shift-basis tables.

Each row plants one error in every `cg_ur` or f̄ table, through the three
points where the tables are made: the recipes (`urcoupling._RECIPES`), the
phase transform (`urcoupling._phase_transform`) and the phase matrices
(the `phase_matrix` name in `urcoupling`).  `report --max-j 5/2 --seed 3`
then runs in-process at r = 0.37 and r = 1, and every suite of the row's
set must fail.  A row whose set no suite meets today is a strict xfail that
names the roadmap item whose check will catch it.
"""

import json
from fractions import Fraction

import numpy as np
import pytest
from click.testing import CliRunner

from wracah import urcoupling
from wracah.cli import main
from wracah.wigner import cg_block, clear_cache, threejm_block

TABLE_SUITES = {
    "cg-ur-unitarity",
    "cg-ur-interchange",
    "fbar-orthogonality",
    "fbar-permutation",
    "f-interchange",
    "ninej-substitution",
    "wigner-eckart",
}

# A sign per spin triple is a phase convention: conjugating every table of
# one kind negates the tables whose exponent is odd, and only the f̄ link to
# cg_ur will see that.
_LINK = pytest.mark.xfail(strict=True, reason="ROADMAP item 17: the fbar_from_cg_ur link in fbar-orthogonality")


def _recipe(kind, signs, block):
    return lambda monkeypatch: monkeypatch.setitem(urcoupling._RECIPES, kind, (signs, block))


def _transformed(change):
    """Every table built with change applied to its phase transform."""
    transform = urcoupling._phase_transform
    return lambda monkeypatch: monkeypatch.setattr(urcoupling, "_phase_transform", lambda *a: change(transform(*a)))


def _phases_shifted(monkeypatch):
    phase_matrix = urcoupling.phase_matrix
    monkeypatch.setattr(urcoupling, "phase_matrix", lambda j, r, sign: phase_matrix(j, r + Fraction(1, 7), sign))


def _largest_bumped(table):
    table = table.copy()
    table[np.unravel_index(np.argmax(np.abs(table)), table.shape)] *= 1 + 1e-8
    return table


ROWS = [
    pytest.param(lambda monkeypatch: None, set(), id="none"),
    pytest.param(_recipe("cg_ur", (1, 1, -1), cg_block), {"fbar-orthogonality"}, id="cg_ur-conjugated", marks=_LINK),
    pytest.param(_recipe("fbar", (1, 1, 1), threejm_block), {"fbar-orthogonality"}, id="fbar-conjugated", marks=_LINK),
    pytest.param(_recipe("cg_ur", (-1, -1, -1), cg_block), {"wigner-eckart"}, id="cg_ur-third-phase-conjugated"),
    pytest.param(_transformed(lambda t: -t), {"wigner-eckart"}, id="negated"),
    pytest.param(_phases_shifted, {"wigner-eckart"}, id="phases-at-r-plus-one-seventh"),
    pytest.param(
        _transformed(lambda t: t[::-1]),
        {"cg-ur-interchange", "f-interchange", "fbar-permutation", "ninej-substitution", "wigner-eckart"},
        id="s1-reversed",
    ),
    pytest.param(_transformed(lambda t: np.roll(t, 1, axis=2)), {"fbar-permutation", "wigner-eckart"}, id="s-rolled"),
    pytest.param(
        _transformed(lambda t: t.transpose(1, 0, 2) if t.shape[0] == t.shape[1] else t),
        {"fbar-permutation"},
        id="s1-s2-swapped-where-square",
    ),
    pytest.param(_transformed(_largest_bumped), TABLE_SUITES, id="largest-entry-bumped"),
]


@pytest.mark.parametrize("r", ["0.37", "1"])
@pytest.mark.parametrize("plant, must_fail", ROWS)
def test_planted_error_fails_its_suites(monkeypatch, plant, must_fail, r):
    plant(monkeypatch)
    # no table built before or during the planted run is read by another
    clear_cache()
    try:
        result = CliRunner().invoke(main, ["report", "--max-j", "5/2", "--r", r, "--seed", "3"])
    finally:
        clear_cache()
    assert result.exit_code == (1 if must_fail else 0), result.output
    failed = {s["suite"] for s in json.loads(result.output)["suites"] if not all(c["pass"] for c in s["checks"])}
    if must_fail:
        assert must_fail <= failed, failed
    else:
        assert not failed
