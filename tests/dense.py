"""Dense-matrix entry points for the tests: the library takes row maps and
phased basis permutations, the tests often state a case as matrices."""

import numpy as np

from twistkit.staralg import TwistedSystem


def monomial_rows(mats) -> tuple[np.ndarray, np.ndarray]:
    """Row maps (col, val) of a stack (..., D, D) of matrices with at most one
    nonzero per row: row r of mats[a] holds val[a, r] in column col[a, r]."""
    mats = np.asarray(mats, dtype=np.complex128)
    nonzero = mats != 0
    if nonzero.sum(axis=-1).max(initial=0) > 1:
        raise ValueError("basis is not a disjoint monomial family: a row or column holds two nonzeros")
    col = nonzero.argmax(axis=-1)
    return col, np.take_along_axis(mats, col[..., None], axis=-1)[..., 0]


def dense_system(A, G, alpha, omega) -> TwistedSystem:
    """A TwistedSystem from (f, n, n) coefficient matrices: column i of
    alpha[s] holds the coordinates of alpha_s(b_i), a single nonzero."""
    alpha = np.asarray(alpha, dtype=np.complex128)
    assert (np.count_nonzero(alpha, axis=1) == 1).all(), "alpha_s must send each b_i to a multiple of one b_t"
    target = np.abs(alpha).argmax(axis=1)
    return TwistedSystem(A, G, target, np.take_along_axis(alpha, target[:, None, :], axis=1)[:, 0], omega)
