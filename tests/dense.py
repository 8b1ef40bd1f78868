"""Dense-matrix entry points for the tests: the library takes row maps and
phased basis permutations with numerators over a denominator q, the tests
often state a case as complex matrices.  Also the exhaustive all-pairs
closure, a reference for StarAlgebra's composable-pair closure."""

import numpy as np

from twistkit.staralg import _CHUNK, EMPTY, RowMaps, StarAlgebra, TwistedSystem, _add, _phase


def numerators(values, q: int) -> np.ndarray:
    """Numerators over q of complex values that are q-th roots of unity to
    within rounding, EMPTY for a zero; any other value is refused."""
    values = np.asarray(values, dtype=np.complex128)
    num = np.rint(np.angle(values) / (2 * np.pi) * q).astype(np.int64) % q
    off = np.abs(np.where(values != 0, values - _phase(num / q), 0))
    if off.max(initial=0) > 1e-12:
        raise ValueError(f"an entry is not a {q}-th root of unity")
    return np.where(values != 0, num, EMPTY)


def monomial_rows(mats, q: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Row maps (col, num, q) of a stack (..., D, D) of matrices with at most
    one nonzero per row, each a q-th root of unity: row r of mats[a] holds
    e^(2 pi i num[a, r] / q) in column col[a, r], or nothing where num is EMPTY."""
    mats = np.asarray(mats, dtype=np.complex128)
    nonzero = mats != 0
    if nonzero.sum(axis=-1).max(initial=0) > 1:
        raise ValueError("basis is not a disjoint monomial family: a row or column holds two nonzeros")
    col = nonzero.argmax(axis=-1)
    return col, numerators(np.take_along_axis(mats, col[..., None], axis=-1)[..., 0], q), q


def element(A, coords) -> np.ndarray:
    """sum_i c_i b_i in a StarAlgebra A; a stack (..., n) of coordinates gives (..., D, D)."""
    c = np.asarray(coords, dtype=np.complex128)
    out = np.zeros((*c.shape[:-1], A.rep_dim**2), dtype=np.complex128)
    out[..., A._pos] = c[..., A._owner_of] * A._val
    return out.reshape(*c.shape[:-1], A.rep_dim, A.rep_dim)


def unit_coords(A) -> np.ndarray:
    """The coordinates of the identity of a unital StarAlgebra A, as complex numbers."""
    return np.where(A.unit == EMPTY, 0, _phase(A.unit / A.q))


def coords_batch(A, mats: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    """Coordinates in a StarAlgebra A of a stack (k, D, D), a gather over the
    supports; raises if any matrix falls off the span by more than tol."""
    flat = np.asarray(mats, dtype=np.complex128).reshape(len(mats), -1)
    if not len(flat):
        return np.zeros((0, A.dim), dtype=np.complex128)
    weight = np.conj(A._val) / A._size[A._owner_of]
    coords = np.add.reduceat(flat[:, A._pos] * weight, A._start, axis=1)
    diff = flat.copy()
    diff[:, A._pos] -= coords[:, A._owner_of] * A._val
    resid = float(np.abs(diff).max())
    scale = max(1.0, float(np.abs(flat).max()))
    if resid > tol * scale:
        raise ValueError(f"matrix outside the algebra span (residual {resid:.2e})")
    return coords


def all_pairs_closure(col, num, q: int):
    """(structure, adjoints) of the row maps (col, num) over q as StarAlgebra
    would keep them, by the all-pairs composition: every b_i b_j over all D
    rows, a chunk of left factors at a time, each read off by _coords.
    Raises ValueError where a product or an adjoint leaves the span."""
    A = object.__new__(StarAlgebra)  # the supports indexed, the closure not checked
    A.col, A.num, A.q = np.asarray(col, dtype=np.int64), np.asarray(num, dtype=np.int64), int(q)
    A.dim, A.rep_dim = A.num.shape
    A._index_supports()
    n, D = A.dim, A.rep_dim
    rows = max(1, _CHUNK // (n * D))
    right = np.arange(n)[None, :, None] * D
    tables = []
    for i0 in range(0, n, rows):
        mid = right + A.col[i0 : i0 + rows, None, :]  # row r of b_i lands in row col[i, r] of b_j
        num = _add(A.num[i0 : i0 + rows, None, :], np.take(A.num, mid), A.q)
        found = A._coords(RowMaps(np.take(A.col, mid), num, A.q))
        if found is None:
            raise ValueError("matrix outside the algebra span")
        tables.append((i0 * n + found[0] // n, found[0] % n, found[1]))
    adjoints = A._coords(RowMaps(A.col, A.num, A.q).H)
    if adjoints is None:
        raise ValueError("matrix outside the algebra span")
    return tuple(np.concatenate(part) for part in zip(*tables)), adjoints


def dense_system(A, G, alpha, omega, q: int) -> TwistedSystem:
    """A TwistedSystem from (f, n, n) coefficient matrices, column i of
    alpha[s] holding the coordinates of alpha_s(b_i), a single nonzero, and
    (f, f, n) coordinates of omega, all q-th roots of unity or 0."""
    alpha = np.asarray(alpha, dtype=np.complex128)
    assert (np.count_nonzero(alpha, axis=1) == 1).all(), "alpha_s must send each b_i to a multiple of one b_t"
    target = np.abs(alpha).argmax(axis=1)
    phase = np.take_along_axis(alpha, target[:, None, :], axis=1)[:, 0]
    return TwistedSystem(A, G, target, numerators(phase, q), numerators(omega, q), q)
