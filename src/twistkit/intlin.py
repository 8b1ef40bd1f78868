"""Exact integer linear algebra: Smith/Hermite normal forms, local Smith
forms modulo p^k, kernels, integer solves, and the invariant-factor
calculus of finitely generated abelian groups (direct sums, Ext,
torsion-free quotients).

Matrices are 2-D numpy arrays, either int64 (fast path) or object dtype
holding Python ints (exact path).  All results are exact; the fast path
falls back automatically whenever an intermediate could leave int64 range.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt, prod

import numpy as np

from . import _kernels
from .errors import NoSolutionError


def backend_name() -> str:
    """Identifier of the reduction backend in use ('numba-int64' or 'numpy-object')."""
    return _kernels.backend_name()


def as_int_matrix(data) -> np.ndarray:
    """Coerce to a 2-D integer ndarray (int64 or object), without copying if possible."""
    arr = np.asarray(data)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={arr.ndim}")
    if arr.dtype == object:
        return arr
    if not np.issubdtype(arr.dtype, np.integer):
        if np.issubdtype(arr.dtype, np.floating) and arr.size and not np.all(arr == np.round(arr)):
            raise ValueError("matrix entries must be integers")
        arr = arr.astype(np.int64)
    return arr


def _identity(n: int, dtype) -> np.ndarray:
    if dtype == object:
        eye = np.zeros((n, n), dtype=object)
        for i in range(n):
            eye[i, i] = 1
        return eye
    return np.eye(n, dtype=np.int64)


def _fits_int64(A: np.ndarray) -> bool:
    if A.size == 0:
        return True
    if A.dtype == object:
        lo = min(A.flat)
        hi = max(A.flat)
    else:
        lo = int(A.min())
        hi = int(A.max())
    return -_kernels.INT64_SAFE <= lo and hi <= _kernels.INT64_SAFE


def _run_snf(M, track_u: bool, track_v: bool):
    A = as_int_matrix(M)
    r, c = A.shape
    dummy = np.zeros((1, 1), dtype=np.int64)
    if r == 0 or c == 0:
        U = _identity(r, np.int64) if track_u else None
        V = _identity(c, np.int64) if track_v else None
        return A.astype(np.int64, copy=True) if A.dtype == object else A.copy(), U, V
    if _kernels.fast_path_available() and _fits_int64(A):
        D = A.astype(np.int64, copy=True)
        U = _identity(r, np.int64) if track_u else dummy
        V = _identity(c, np.int64) if track_v else dummy
        status = _kernels._snf_fast(D, U, V, track_u, track_v, _kernels.INT64_SAFE)
        if status == _kernels.OK:
            return D, (U if track_u else None), (V if track_v else None)
    D = A.astype(object, copy=True)
    U = _identity(r, object) if track_u else np.zeros((1, 1), dtype=object)
    V = _identity(c, object) if track_v else np.zeros((1, 1), dtype=object)
    _kernels._snf_core(D, U, V, track_u, track_v, -1)
    return D, (U if track_u else None), (V if track_v else None)


def smith_normal_form(M):
    """Return (D, U, V) with D = U @ M @ V, U and V unimodular, and D
    diagonal with a divisibility chain d1 | d2 | ... of nonneg entries."""
    return _run_snf(M, True, True)


def smith_diagonal(M) -> list[int]:
    """Just the diagonal of the Smith form (no transform bookkeeping)."""
    D, _, _ = _run_snf(M, False, False)
    n = min(D.shape)
    return [int(D[i, i]) for i in range(n)]


# columns screened at once for unit entries in local_smith_valuations
_SWEEP_BLOCK = 64


def _is_prime(p: int) -> bool:
    return p >= 2 and all(p % f for f in range(2, isqrt(p) + 1))


def local_smith_valuations(M, p: int, k: int) -> list[int]:
    """p-adic valuations, ascending, of the Smith diagonal entries of M whose
    valuation is below k.

    Works over Z/p^k in int64: level t eliminates with pivots p^t * unit,
    and only rows with a nonzero entry in the pivot column are updated (on
    the pivot row's nonzero columns).  Entries that vanish mod p^k are
    invisible, so the list length is rank(M) exactly when no nonzero Smith
    entry has valuation >= k.  Raises ValueError unless p is prime, k >= 1
    and (p^k)^2 fits in int64.
    """
    p, k = int(p), int(k)
    if not _is_prime(p) or k < 1:
        raise ValueError(f"need a prime p and k >= 1, got p={p}, k={k}")
    q = p**k
    if q * q >= 1 << 63:
        raise ValueError(f"p^k = {q} too large for exact int64 products")
    A = np.asarray(np.mod(as_int_matrix(M), q), dtype=np.int64)
    vals: list[int] = []
    for t in range(k):
        A = A[np.ix_(np.any(A, axis=1), np.any(A, axis=0))]
        if A.size == 0:
            break
        # one column sweep: once a column has no unit among the live rows,
        # updates only add multiples of p to it, so it never gains one; each
        # block of columns is screened for units in one vectorized step
        live = np.ones(A.shape[0], dtype=bool)
        for j0 in range(0, A.shape[1], _SWEEP_BLOCK):
            screen = np.any(A[live, j0 : j0 + _SWEEP_BLOCK] % p, axis=0)
            for j in j0 + screen.nonzero()[0]:
                col = A[:, j]
                cand = (live & (col % p != 0)).nonzero()[0]
                if cand.size == 0:
                    continue
                if cand.size > 1:  # sparsest pivot row: least work and fill-in
                    cand = cand[np.argsort(np.count_nonzero(A[cand], axis=1), kind="stable")]
                i = cand[0]
                live[i] = False
                vals.append(t)
                rows = (live & (col != 0)).nonzero()[0][:, None]
                if rows.size == 0:
                    continue
                nz = A[i].nonzero()[0]
                f = col[rows] * pow(int(col[i]), -1, q) % q
                A[rows, nz] = (A[rows, nz] - f * A[i, nz]) % q
        # every live entry is now divisible by p: go one level up
        A = A[live] // p
        q //= p
    return vals


def _run_hnf(M, track_v: bool):
    A = as_int_matrix(M)
    r, c = A.shape
    dummy = np.zeros((1, 1), dtype=np.int64)
    if r == 0 or c == 0:
        V = _identity(c, np.int64) if track_v else None
        return A.copy(), V, np.zeros(0, dtype=np.int64)
    if _kernels.fast_path_available() and _fits_int64(A):
        H = A.astype(np.int64, copy=True)
        V = _identity(c, np.int64) if track_v else dummy
        pivots = np.zeros(c, dtype=np.int64)
        status, k = _kernels._hnf_fast(H, V, pivots, track_v, _kernels.INT64_SAFE)
        if status == _kernels.OK:
            return H, (V if track_v else None), pivots[:k].copy()
    H = A.astype(object, copy=True)
    V = _identity(c, object) if track_v else np.zeros((1, 1), dtype=object)
    pivots = np.zeros(c, dtype=np.int64)
    _, k = _kernels._hnf_core(H, V, pivots, track_v, -1)
    return H, (V if track_v else None), pivots[:k].copy()


def column_hnf(M):
    """Return (H, V, pivot_rows) with H = M @ V in column-echelon Hermite
    form: positive pivots at strictly increasing rows, entries left of each
    pivot reduced into [0, pivot), trailing columns zero."""
    return _run_hnf(M, True)


def kernel_basis(M) -> np.ndarray:
    """Columns form a basis of the integer kernel lattice {x : M x = 0}."""
    A = as_int_matrix(M)
    _, V, pivots = _run_hnf(A, True)
    k = len(pivots)
    return V[:, k:].copy()


def _echelon_solve(H, pivots, B, check: bool = True):
    """Solve H[:, :k] @ Z = B for the echelon H of column_hnf.

    Returns Z (k x n) or raises NoSolutionError.  Exact; switches to
    object dtype when int64 bounds cannot be certified.
    """
    k = len(pivots)
    r, n = B.shape
    use_object = H.dtype == object or B.dtype == object
    if not use_object:
        # One forward-substitution step computes B[p] - H[p,:i] @ Z[:i] with
        # |dot| <= maxH * maxZ * i; certify against int64 before trusting it.
        maxH = int(np.max(np.abs(H))) if H.size else 0
        maxB = int(np.max(np.abs(B))) if B.size else 0
        Z = np.zeros((k, n), dtype=np.int64)
        maxZ = 0
        ok = True
        for i in range(k):
            p = int(pivots[i])
            bound = maxB + maxH * maxZ * max(i, 1)
            if bound > (1 << 62):
                ok = False
                break
            acc = B[p, :].astype(np.int64)
            if i:
                acc = acc - H[p, :i] @ Z[:i, :]
            d = int(H[p, i])
            q, rem = np.divmod(acc, d)
            if np.any(rem != 0):
                raise NoSolutionError("right-hand side outside the column lattice")
            Z[i, :] = q
            if q.size:
                maxZ = max(maxZ, int(np.max(np.abs(q))))
        if ok:
            if check:
                bound = maxH * maxZ * max(k, 1)
                if bound <= (1 << 62):
                    if not np.array_equal(H[:, :k].astype(np.int64) @ Z, B):
                        raise NoSolutionError("right-hand side outside the column lattice")
                    return Z
                use_object = True
            else:
                return Z
        else:
            use_object = True
    Ho = H.astype(object)
    Bo = B.astype(object)
    Z = np.zeros((k, n), dtype=object)
    for i in range(k):
        p = int(pivots[i])
        acc = Bo[p, :] - (Ho[p, :i] @ Z[:i, :] if i else 0)
        d = Ho[p, i]
        q = np.empty(n, dtype=object)
        for j in range(n):
            qq, rr = divmod(int(acc[j]), int(d))
            if rr != 0:
                raise NoSolutionError("right-hand side outside the column lattice")
            q[j] = qq
        Z[i, :] = q
    if check and not np.array_equal(Ho[:, :k] @ Z, Bo):
        raise NoSolutionError("right-hand side outside the column lattice")
    return Z


def solve_batch_in_image(M, B, hnf_data=None):
    """Solve M @ X = B column by column (B is r x n); exact, deterministic
    (free coordinates of the Hermite parameterization are zero).  Raises
    NoSolutionError if any column lies outside the column lattice of M."""
    A = as_int_matrix(M)
    B = as_int_matrix(B)
    if B.shape[0] != A.shape[0]:
        raise ValueError("row count mismatch between matrix and right-hand side")
    if hnf_data is None:
        hnf_data = column_hnf(A)
    H, V, pivots = hnf_data
    Z = _echelon_solve(H, pivots, B)
    k = len(pivots)
    Vk = V[:, :k]
    if Vk.dtype == object or Z.dtype == object:
        return Vk.astype(object) @ Z.astype(object)
    maxV = int(np.max(np.abs(Vk))) if Vk.size else 0
    maxZ = int(np.max(np.abs(Z))) if Z.size else 0
    if maxV * maxZ * max(k, 1) > (1 << 62):
        return Vk.astype(object) @ Z.astype(object)
    return Vk @ Z


def solve_in_image(M, b):
    """Solve M @ x = b for one integer vector b; raises NoSolutionError."""
    b = np.asarray(b)
    if b.ndim != 1:
        raise ValueError("right-hand side must be a vector")
    X = solve_batch_in_image(M, b.reshape(-1, 1))
    return X[:, 0]


def exact_matmul(A, B) -> np.ndarray:
    """Integer matrix product, switching to Python ints when an int64
    accumulator could overflow."""
    A = np.asarray(A)
    B = np.asarray(B)
    if A.dtype == object or B.dtype == object:
        return A.astype(object) @ B.astype(object)
    maxA = int(np.max(np.abs(A))) if A.size else 0
    maxB = int(np.max(np.abs(B))) if B.size else 0
    if maxA * maxB * max(A.shape[1], 1) > (1 << 62):
        return A.astype(object) @ B.astype(object)
    return A @ B


def unimodular_inverse(Umat) -> np.ndarray:
    """Exact inverse of a unimodular integer matrix (via Hermite reduction:
    the column transform that sends U to the identity is its inverse)."""
    A = as_int_matrix(Umat)
    n, m = A.shape
    if n != m:
        raise ValueError("matrix is not square")
    H, V, pivots = column_hnf(A)
    if len(pivots) != n or any(int(H[i, i]) != 1 for i in range(n)):
        raise ValueError("matrix is not unimodular")
    # H = A @ V with H lower-triangular, unit diagonal; clear the strictly
    # lower part with further column ops to reach the identity exactly.
    # Ascending rows: clearing row i with column i only dirties rows > i,
    # which later passes clean.
    Ho = H.astype(object)
    Vo = V.astype(object)
    for i in range(1, n):
        for j in range(i):
            q = Ho[i, j]
            if q != 0:
                Ho[:, j] -= q * Ho[:, i]
                Vo[:, j] -= q * Vo[:, i]
    if not np.array_equal(Ho, _identity(n, object)):
        raise ValueError("matrix is not unimodular")
    return Vo


@dataclass(frozen=True)
class AbelianInvariants:
    """A finitely generated abelian group as invariant factors: the direct
    sum of Z/d for d in `torsion` (ascending divisibility chain, entries
    >= 2) plus Z^free_rank."""

    torsion: tuple[int, ...] = ()
    free_rank: int = 0

    def __post_init__(self):
        ds = tuple(int(d) for d in self.torsion)
        object.__setattr__(self, "torsion", ds)
        for d in ds:
            if d < 2:
                raise ValueError(f"invariant factor {d} < 2")
        for a, b in zip(ds, ds[1:]):
            if b % a != 0:
                raise ValueError(f"divisibility chain violated: {a} does not divide {b}")
        if self.free_rank < 0:
            raise ValueError("negative free rank")

    @property
    def is_trivial(self) -> bool:
        return not self.torsion and self.free_rank == 0

    @property
    def is_finite(self) -> bool:
        return self.free_rank == 0

    def order(self) -> int | None:
        """Group order, or None when infinite."""
        if self.free_rank:
            return None
        return prod(self.torsion) if self.torsion else 1

    def to_json(self) -> dict:
        return {"torsion": list(self.torsion), "free_rank": self.free_rank}

    def __str__(self) -> str:
        parts = [f"Z/{d}" for d in self.torsion]
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        return " + ".join(parts) if parts else "0"


def invariants_from_orders(orders, free_rank: int = 0) -> AbelianInvariants:
    """Normalize a multiset of cyclic orders into an invariant-factor chain."""
    ds = [int(d) for d in orders]
    for d in ds:
        if d < 1:
            raise ValueError(f"cyclic order {d} < 1")
    ds = [d for d in ds if d > 1]
    changed = True
    while changed:
        changed = False
        for i in range(len(ds)):
            for j in range(i + 1, len(ds)):
                if ds[j] % ds[i] != 0:
                    g = gcd(ds[i], ds[j])
                    ds[i], ds[j] = g, ds[i] * ds[j] // g
                    changed = True
        ds = [d for d in ds if d > 1]
    ds.sort()
    return AbelianInvariants(tuple(ds), free_rank)


def invariants_from_diagonal(diag, rows: int) -> AbelianInvariants:
    """Cokernel invariants of an r x c matrix from its Smith diagonal."""
    diag = [int(d) for d in diag]
    nonzero = [d for d in diag if d != 0]
    torsion = tuple(d for d in nonzero if d > 1)
    return AbelianInvariants(torsion, rows - len(nonzero))


def cokernel_invariants(M) -> AbelianInvariants:
    """Invariants of Z^rows / column-span(M)."""
    A = as_int_matrix(M)
    return invariants_from_diagonal(smith_diagonal(A), A.shape[0])


def direct_sum(*groups: AbelianInvariants) -> AbelianInvariants:
    orders: list[int] = []
    free = 0
    for g in groups:
        orders.extend(g.torsion)
        free += g.free_rank
    return invariants_from_orders(orders, free)


def ext_group(A: AbelianInvariants, B: AbelianInvariants) -> AbelianInvariants:
    """Ext(A, B) for finitely generated abelian groups: Ext(Z, -) = 0,
    Ext(Z/m, Z) = Z/m, Ext(Z/m, Z/n) = Z/gcd(m, n), additive in both slots."""
    orders: list[int] = []
    for m in A.torsion:
        orders.extend([m] * B.free_rank)
        for n in B.torsion:
            orders.append(gcd(m, n))
    return invariants_from_orders(orders, 0)


def torsion_free_quotient(A: AbelianInvariants) -> AbelianInvariants:
    """A / (torsion subgroup): keeps the free rank only."""
    return AbelianInvariants((), A.free_rank)
