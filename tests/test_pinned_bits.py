"""sha256 digests of the coupling blocks, phase matrices and wigner-core residuals, pinned bit for bit.

The block and phase digests were taken from the Fraction-based kernels; the
integer kernels must reproduce every byte.  Arrays are hashed through
tobytes() in loop order.  The residual digest was taken from the dense
coupling-matrix comparison; the fixed-m comparison must keep every bit.
"""

import hashlib
from fractions import Fraction

from wracah import HalfInt
from wracah.su2 import phase_matrix
from wracah.wigner import cg_block, clear_cache, threejm_block, verify_cg_against_lowering

BLOCKS_SHA256 = "e5f9054564e0758c75df08ff756774d1c095c28abe326b82fe89cb03b8756dd1"
PHASES_SHA256 = "cf5e072f64e2241820a58f7f31ff2f53c602e1dab258f49ed060c74aaa1379b6"
LOWERING_SHA256 = "e05a39044ccecec40f098c5da9874eba11e20dedd3d2e75e59c8219721b0e232"


def test_cg_and_threejm_blocks_up_to_spin_six():
    clear_cache()
    digest = hashlib.sha256()
    for tj1 in range(13):
        for tj2 in range(13):
            for tj in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
                js = (HalfInt(tj1), HalfInt(tj2), HalfInt(tj))
                digest.update(cg_block(*js).tobytes())
                digest.update(threejm_block(*js).tobytes())
    assert digest.hexdigest() == BLOCKS_SHA256


def test_phase_matrices_exact_and_float_paths():
    clear_cache()
    digest = hashlib.sha256()
    for r in (1, 0.37, Fraction(1, 3), 1e-7, Fraction(1, 10**6 + 3)):
        for tj in range(25):
            for sign in (+1, -1):
                digest.update(phase_matrix(HalfInt(tj), r, sign).tobytes())
    assert digest.hexdigest() == PHASES_SHA256


def test_wigner_core_residuals_up_to_spin_six():
    """float.hex of every residual of wigner-core at max_j = 6, one a line, in the order of the checks."""
    report = verify_cg_against_lowering(6)
    assert len(report.checks) == 13 * 13
    text = "\n".join(check.residual.hex() for check in report.checks)
    assert hashlib.sha256(text.encode()).hexdigest() == LOWERING_SHA256
