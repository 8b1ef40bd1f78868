"""Exact integer linear algebra: Smith/Hermite normal forms with their
transforms, local Smith forms modulo p^k, and the invariant-factor calculus
of finitely generated abelian groups (normalization, Ext).

Matrices are 2-D numpy arrays.  The Smith and column-Hermite reductions
run on object-dtype arrays of Python ints, so no entry can overflow and
every matrix they return has object dtype.  A reduction can also carry the
inverse of the transform it builds, mirroring each elementary operation;
coordinates in a lattice basis the reduction produced are then products
with that inverse, not solves, and one exact product (transform times
inverse equals I) certifies them all.  `exact_matmul` keeps int64 products
whose accumulators provably fit and switches to Python ints otherwise;
`local_smith_valuations` works modulo p^k in int64.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt, prod

import numpy as np

from .errors import VerificationError


def backend_name() -> str:
    """Identifier of the reduction backend: always 'numpy-object'."""
    return "numpy-object"


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


def _swap_rows(M, i, j):
    """Swap rows i and j of M in place, unless M is None."""
    if M is not None:
        M[[i, j]] = M[[j, i]]


def _swap_cols(M, i, j):
    """Swap columns i and j of M in place, unless M is None."""
    if M is not None:
        M[:, [i, j]] = M[:, [j, i]]


def _snf_core(D, U, Uinv, V):
    """Reduce D in place to Smith form D = U @ D_in @ V, U and V unimodular,
    and keep Uinv = U^-1 (each row operation E on U mirrored as Uinv @ E^-1).
    On entry U is an identity, and Uinv and V identities or None when not
    tracked."""
    r, c = D.shape
    t = 0
    while t < r and t < c:
        # First (row-major) entry of least nonzero absolute value in D[t:, t:].
        sub = D[t:, t:]
        absd = np.abs(sub)
        top = np.max(absd)
        if top == 0:
            break
        flat = int(np.argmin(np.where(sub != 0, absd, top + 1)))
        pi, pj = t + flat // (c - t), t + flat % (c - t)
        if pi != t:
            _swap_rows(D, pi, t)
            _swap_rows(U, pi, t)
            _swap_cols(Uinv, pi, t)
        if pj != t:
            _swap_cols(D, pj, t)
            _swap_cols(V, pj, t)
        while True:
            if D[t, t] < 0:
                D[t, :] = -D[t, :]
                U[t, :] = -U[t, :]
                if Uinv is not None:
                    Uinv[:, t] = -Uinv[:, t]
            # Row ops until column t is clean below the pivot.
            while True:
                swapped = False
                d = D[t, t]
                for i in range(t + 1, r):
                    if D[i, t] != 0:
                        q = D[i, t] // d
                        if q != 0:
                            D[i, t:] -= q * D[t, t:]
                            U[i, :] -= q * U[t, :]
                            if Uinv is not None:
                                Uinv[:, t] += q * Uinv[:, i]
                        if D[i, t] != 0:
                            # Remainder in (0, d): promote it to the pivot.
                            _swap_rows(D, i, t)
                            _swap_rows(U, i, t)
                            _swap_cols(Uinv, i, t)
                            swapped = True
                            break
                if not swapped:
                    break
            # Column ops until row t is clean right of the pivot.  Plain
            # column ops cannot dirty column t (its sub-pivot entries are
            # already zero); only a column swap can.
            col_swapped = False
            while True:
                swapped = False
                d = D[t, t]
                for j in range(t + 1, c):
                    if D[t, j] != 0:
                        q = D[t, j] // d
                        if q != 0:
                            D[:, j] -= q * D[:, t]
                            if V is not None:
                                V[:, j] -= q * V[:, t]
                        if D[t, j] != 0:
                            _swap_cols(D, j, t)
                            _swap_cols(V, j, t)
                            swapped = True
                            col_swapped = True
                            break
                if not swapped:
                    break
            if col_swapped:
                continue
            # Both the row and the column of the pivot are clean here.
            # Enforce divisibility of the trailing block by the pivot: the
            # first row holding a failing entry is mixed into row t and the
            # phases rerun, which strictly shrinks the pivot (gcd step).
            d = D[t, t]
            if d > 1 and t + 1 < r and t + 1 < c:
                failing = np.any(D[t + 1 :, t + 1 :] % d != 0, axis=1)
                if failing.any():
                    i = t + 1 + int(np.argmax(failing))
                    D[t, t:] += D[i, t:]
                    U[t, :] += U[i, :]
                    if Uinv is not None:
                        Uinv[:, i] -= Uinv[:, t]
                    continue
            break
        t += 1


def _certify_inverse(A, Ainv) -> None:
    """Exact certificate that Ainv is the inverse of the transform A."""
    if not np.array_equal(exact_matmul(A, Ainv), np.eye(A.shape[0], dtype=np.int64)):
        raise VerificationError("transform and accumulated inverse do not multiply to I")


def _run_snf(M, track_uinv: bool, track_v: bool):
    D = as_int_matrix(M).astype(object)
    r, c = D.shape
    U = np.eye(r, dtype=object)
    Uinv, V = (np.eye(n, dtype=object) if on else None for n, on in ((r, track_uinv), (c, track_v)))
    _snf_core(D, U, Uinv, V)
    return D, U, Uinv, V


def smith_normal_form(M):
    """Return (D, U, V) with D = U @ M @ V, U and V unimodular, and D
    diagonal with a divisibility chain d1 | d2 | ... of nonneg entries."""
    D, U, _, V = _run_snf(M, False, True)
    return D, U, V


def smith_cokernel(M):
    """The Smith form D = U @ M @ V of smith_normal_form with U and its
    inverse Uinv (certified U @ Uinv = I), not V.  They present coker(M) as
    the sum of Z/D[i, i]: U[i] @ x is coordinate i of the class of x, and
    column i of Uinv represents generator i."""
    D, U, Uinv, _ = _run_snf(M, True, False)
    _certify_inverse(U, Uinv)
    return D, U, Uinv


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


def _hnf_core(H, V, Vinv) -> list[int]:
    """Column-echelon Hermite reduction in place: H_out = H_in @ V_out and
    Vinv = V^-1 (each column operation E on V mirrored as E^-1 @ Vinv).  On
    entry V and Vinv are identities, or None when not tracked.

    Pivot columns come first, with strictly increasing pivot rows (the
    returned list); pivots are positive; entries left of a pivot in its
    row are reduced into [0, pivot).  Trailing columns are zero.
    """
    r, c = H.shape
    pivot_rows: list[int] = []

    def subtract(j, q, k):  # column j -= q * column k
        H[:, j] -= q * H[:, k]
        if V is not None:
            V[:, j] -= q * V[:, k]
        if Vinv is not None:
            Vinv[k, :] += q * Vinv[j, :]

    k = 0
    for row in range(r):
        if k == c:
            break
        while True:
            # First active column of least nonzero absolute value at this row.
            strip = H[row, k:]
            absd = np.abs(strip)
            top = np.max(absd)
            if top == 0:
                break
            j = k + int(np.argmin(np.where(strip != 0, absd, top + 1)))
            if j != k:
                _swap_cols(H, j, k)
                _swap_cols(V, j, k)
                _swap_rows(Vinv, j, k)
            if H[row, k] < 0:
                H[:, k] = -H[:, k]
                if V is not None:
                    V[:, k] = -V[:, k]
                if Vinv is not None:
                    Vinv[k, :] = -Vinv[k, :]
            d = H[row, k]
            any_rem = False
            for j in range(k + 1, c):
                if H[row, j] != 0:
                    q = H[row, j] // d
                    if q != 0:
                        subtract(j, q, k)
                    if H[row, j] != 0:
                        any_rem = True
            if not any_rem:
                break
        if H[row, k] != 0:
            d = H[row, k]
            for l in range(k):
                q = H[row, l] // d
                if q != 0:
                    subtract(l, q, k)
            pivot_rows.append(row)
            k += 1
    return pivot_rows


def _run_hnf(M, track: bool):
    H = as_int_matrix(M).astype(object)
    V, Vinv = (np.eye(H.shape[1], dtype=object) if track else None for _ in range(2))
    return H, V, Vinv, _hnf_core(H, V, Vinv)


def column_hnf(M):
    """Return (H, V, Vinv, pivot_rows) with H = M @ V in column-echelon
    Hermite form (positive pivots at strictly increasing rows, entries left
    of each pivot reduced into [0, pivot), trailing columns zero) and Vinv
    the inverse of V, certified V @ Vinv = I.  Split at k = len(pivot_rows),
    V = [S | K] and Vinv = [T; Y]: K is a basis of the integer kernel of M,
    M = H[:, :k] @ T, and Y @ x gives the K coordinates of a kernel vector x.
    """
    H, V, Vinv, pivots = _run_hnf(M, True)
    _certify_inverse(V, Vinv)
    return H, V, Vinv, np.array(pivots, dtype=np.int64)


def hermite_basis(M) -> np.ndarray:
    """The nonzero columns of the column Hermite form of M: the canonical
    basis of its column lattice (no transform is tracked)."""
    H, _, _, pivots = _run_hnf(M, False)
    return H[:, : len(pivots)].copy()


def exact_matmul(A, B) -> np.ndarray:
    """Integer matrix product in int64 when no accumulator can overflow, in
    Python ints otherwise.  The result has object dtype when an input has."""
    A = np.asarray(A)
    B = np.asarray(B)
    maxA = int(np.max(np.abs(A))) if A.size else 0
    maxB = int(np.max(np.abs(B))) if B.size else 0
    if max(maxA, 1) * max(maxB, 1) * max(A.shape[1], 1) > (1 << 62):
        return A.astype(object) @ B.astype(object)
    C = A.astype(np.int64) @ B.astype(np.int64)
    return C.astype(object) if A.dtype == object or B.dtype == object else C


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


def ext_group(A: AbelianInvariants, B: AbelianInvariants) -> AbelianInvariants:
    """Ext(A, B) for finitely generated abelian groups: Ext(Z, -) = 0,
    Ext(Z/m, Z) = Z/m, Ext(Z/m, Z/n) = Z/gcd(m, n), additive in both slots."""
    orders: list[int] = []
    for m in A.torsion:
        orders.extend([m] * B.free_rank)
        for n in B.torsion:
            orders.append(gcd(m, n))
    return invariants_from_orders(orders, 0)
