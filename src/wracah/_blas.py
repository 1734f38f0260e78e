"""Dense products kept on the calling thread.

OpenBLAS hands a complex matrix product of more than 2**16 multiply-adds,
and a matrix-vector product of more than 9216 entries, to its worker
threads.  For the small matrices of this package the hand-off costs more
than the product, and where the CPUs are shared a worker's wake-up can take
milliseconds, so the time of a run would follow the load of the machine.
row_product splits a product into blocks within those limits.
"""

from __future__ import annotations

import numpy as np

PRODUCT_LIMIT = 1 << 16  # multiply-adds in one BLAS call


def _starts(n: int, size: int) -> list[int]:
    """Starts of blocks of `size` covering range(n); a short last block is moved back to full size."""
    return [min(start, max(0, n - size)) for start in range(0, n, size)]


def row_product(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """left @ right for 2-D arrays, formed in blocks of at most PRODUCT_LIMIT multiply-adds.

    A block spans whole rows of the product while two rows fit, so every
    entry is one whole dot product, as in the single-threaded product; with
    OpenBLAS the entries are then equal bit for bit.  Blocks have at least two
    rows and two columns (where the product has them), since numpy passes a
    single row or column to the matrix-vector routine.
    """
    rows, (inner, cols) = left.shape[0], right.shape
    product = np.empty((rows, cols), dtype=np.result_type(left, right))
    width = cols if 2 * inner * cols <= PRODUCT_LIMIT else max(2, PRODUCT_LIMIT // (2 * inner))
    height = max(2, PRODUCT_LIMIT // max(1, inner * width))
    for top in _starts(rows, height):
        for col in _starts(cols, width):
            np.matmul(
                left[top : top + height],
                right[:, col : col + width],
                out=product[top : top + height, col : col + width],
            )
    return product


def identity_residual(left: np.ndarray, right: np.ndarray) -> float:
    """max |left @ right - I| for a square product, formed by row_product."""
    product = row_product(left, right)
    product[np.diag_indices_from(product)] -= 1.0
    return float(np.max(np.abs(product)))
