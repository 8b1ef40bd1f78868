"""Finite-dimensional *-algebras over C, given by disjoint monomial families.

An algebra is a basis of D x D matrices closed (numerically) under product
and adjoint, together with a distinguished trace.  Every basis built here
is a *disjoint monomial family*: each matrix has at most one nonzero entry
in every row and every column, and no two matrices share a nonzero
position.  The u_g of a twisted regular representation, matrix units,
tensor products, crossed products, induced algebras and the fibers over
central characters are all of this kind, and StarAlgebra accepts nothing
else.  So a basis is stored as its row maps, two (n, D) arrays: row r of
b_i holds val[i, r] in column col[i, r], and val = 0 marks an empty row.
Every builder writes these arrays by index arithmetic, and StarAlgebra
works from them alone; the dense (n, D, D) basis is formed only on request:

- independence is exact: the supports are nonempty and pairwise disjoint;
- coordinates are a gather over the supports, and the reconstruction's
  residual must stay within TOL times the largest input entry;
- the product of two basis matrices composes their row maps, so closure,
  adjoints and positivity of the trace's Gram matrix are checked for every
  pair, in chunks, and the products' coordinates are kept as sparse
  structure constants;
- the center is the null space of (2n, n) commutator coordinates;
- twisted systems (phased basis permutations, monomial unitary cocycles)
  are checked, crossed, induced and stabilized by composing RowMaps.

Everything downstream reduces to one primitive: the block profile, the
multiset of simple block dimensions {d_1 <= ... <= d_k} obtained by
spectrally splitting a random self-adjoint central element.  Twisted group
algebras, crossed products by twisted actions, fibers over central
characters, induction over a subgroup, and stabilization are all built on
top and cross-checked against each other by comparing profiles, which are
a complete invariant of finite-dimensional semisimple algebras.

The matrix layer is floating point; exactness lives upstream in the
cocycle layer, and the integers recovered here (ranks, block sizes) are
asserted to be consistent (sum of d_i^2 = dim) before anything is
returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

import numpy as np

from .cocycles import Cocycle2, central_character, normalize, sigma_chi, subgroup_characters, trivial_cocycle
from .errors import DecompositionUnstableError, InvalidGroupError, ResourceCapError, VerificationError
from .groups import FiniteGroup, Subgroup, coset_index, quotient, subgroup_as_group

TOL = 1e-8
EIG_GAP = 1e-6
MAX_RETRIES = 8
CROSSED_CAP = 4096
# m^3 composed entries in the closure check and m^3 cocycle triples; about 3 s at m = 256
TWIST_CAP = 2**24

# index compositions and commutator scatters run in chunks of about this many
# entries, so that each chunk's index and value arrays are a few hundred KB
_CHUNK = 1 << 16


def _phase(angle):
    """e^(2 pi i angle) for a float array of angles num / q; with q <= MAX_DENOMINATOR
    each quotient is the float nearest its rational angle, however num / q is reduced."""
    return np.exp(2j * np.pi * angle)


def check_crossed_cap(dim: int) -> None:
    """Refuse a crossed product of dimension above CROSSED_CAP, before it is built."""
    if dim > CROSSED_CAP:
        raise ResourceCapError(f"crossed product dimension {dim} exceeds {CROSSED_CAP}")


def check_twist_cap(order: int) -> None:
    """Refuse a twisted group algebra with order^3 above TWIST_CAP, before its table or cocycle."""
    if order**3 > TWIST_CAP:
        raise ResourceCapError(f"twisted group algebra of order {order}: {order**3} entries exceed {TWIST_CAP}")


def _bincount_complex(keys: np.ndarray, weights: np.ndarray, size: int) -> np.ndarray:
    """Sum of the complex weights at each key in range(size)."""
    return np.bincount(keys, weights.real, size) + 1j * np.bincount(keys, weights.imag, size)


class RowMaps:
    """A stack (..., D) of monomial D x D matrices by their row maps, laid out
    like StarAlgebra's (col, val).  Items index like numpy arrays, @ composes
    them with broadcasting over the leading axes, H is the adjoint and
    deviation the largest entry of a difference."""

    def __init__(self, col: np.ndarray, val: np.ndarray):
        self.col, self.val = col, val

    def __getitem__(self, idx) -> "RowMaps":
        return RowMaps(self.col[idx], self.val[idx])

    def __matmul__(self, other: "RowMaps") -> "RowMaps":
        # row r of self lands in column c = self.col[r], and row c of other takes it on
        shape = np.broadcast_shapes(self.col.shape, other.col.shape)
        mid = np.broadcast_to(self.col, shape)
        col = np.take_along_axis(np.broadcast_to(other.col, shape), mid, axis=-1)
        return RowMaps(col, self.val * np.take_along_axis(np.broadcast_to(other.val, shape), mid, axis=-1))

    @property
    def H(self) -> "RowMaps":
        # row c of the adjoint holds conj(val[r]) in column r; empty rows write to a spare column
        *lead, D = self.col.shape
        col, val = self.col.reshape(-1, D), self.val.reshape(-1, D)
        a, to = np.arange(len(col))[:, None], np.where(val != 0, col, D)
        out = RowMaps(*(np.zeros((len(col), D + 1), dtype=dt) for dt in (np.int64, np.complex128)))
        out.col[a, to], out.val[a, to] = np.arange(D), np.conj(val)
        return RowMaps(out.col[:, :D].reshape(*lead, D), out.val[:, :D].reshape(*lead, D))

    def deviation(self, other: "RowMaps") -> np.ndarray:
        """The largest entry of |self - other| in each item."""
        a, b = np.abs(self.val), np.abs(other.val)
        return np.where(self.col == other.col, np.abs(self.val - other.val), np.maximum(a, b)).max(axis=-1)


class StarAlgebra:
    """A concrete *-algebra: basis matrices given by their row maps, a trace,
    and a label.

    col, val: (n, D) arrays; basis matrix b_i is the D x D matrix whose row r
    holds val[i, r] in column col[i, r], and val[i, r] = 0 marks an empty row.
    The b_i must form a disjoint monomial family spanning a subalgebra of M_D
    closed under adjoint.  trace_vector[i] is the trace of b_i; the trace is
    required to be normalized (trace(1) = 1) and positive on the Gram matrix
    when the span contains the identity.  Construction checks all of this on
    every pair of basis elements and keeps the structure constants: b_i b_j
    has coefficient coef at b_t for each entry of structure = (pair, t, coef)
    with pair = i * n + j; a pair with a zero product has no entry.  Likewise
    b_i* has coefficient coef at b_t for each entry of adjoints = (i * n + t,
    coef).  Both tables are sorted by key.
    """

    def __init__(self, col, val, trace_vector, label: str = ""):
        col = np.array(col, dtype=np.int64)
        val = np.array(val, dtype=np.complex128)
        if val.ndim != 2 or val.size == 0 or col.shape != val.shape:
            raise ValueError("col and val must be nonempty (n, D) arrays of one shape")
        if col.min() < 0 or col.max() >= val.shape[1]:
            raise ValueError("a column index lies outside the D x D matrices")
        for a in (col, val):
            a.setflags(write=False)
        self.col, self.val = col, val
        self.dim, self.rep_dim = val.shape
        self.label = label
        self.trace_vector = np.asarray(trace_vector, dtype=np.complex128)
        if self.trace_vector.shape != (self.dim,):
            raise ValueError("trace vector length must match the basis")
        self._index_supports()
        self.unit_coords = self._find_unit()
        self._check_closure()

    def _index_supports(self):
        """Certify a disjoint monomial family and index its supports."""
        n, D = self.dim, self.rep_dim
        owner, row = np.nonzero(self.val)  # grouped by owner
        col = self.col[owner, row]
        size = np.bincount(owner, minlength=n)
        if size.min() == 0:
            raise ValueError(f"basis matrix {int(np.argmin(size))} is zero, so the basis is linearly dependent")
        if np.bincount(row * D + col, minlength=D * D).max() > 1:
            raise ValueError("basis is not a disjoint monomial family: two matrices share a nonzero position")
        if np.bincount(owner * D + col).max() > 1:
            raise ValueError("basis is not a disjoint monomial family: a row or column holds two nonzeros")
        val = self.val[owner, row]
        self._norm = np.bincount(owner, np.abs(val) ** 2, n)
        self._owner_of, self._pos, self._val = owner, row * D + col, val
        self._start = np.cumsum(size) - size  # where each support begins
        self._size = size
        self._weight = np.conj(val) / self._norm[owner]  # coords_i(M) = sum of weight * M over supp(b_i)
        self.entry_max = np.maximum.reduceat(np.abs(val), self._start)
        # trace of x -> p x is sum_r p[r, r] row_weight[r] (see multiplier_trace)
        self._row_weight = np.bincount(row, np.abs(val) ** 2 / self._norm[owner], D)
        self._owner = np.full((D, D), -1)  # position (r, c) belongs to b_owner[r, c], or to none
        self._owner[row, col] = owner

    @property
    def basis(self) -> np.ndarray:
        """The dense (n, D, D) basis, read-only, scattered from the row maps on
        each access; nothing in this module reads it."""
        out = np.zeros((self.dim, self.rep_dim**2), dtype=np.complex128)
        out[self._owner_of, self._pos] = self._val
        out.setflags(write=False)
        return out.reshape(self.dim, self.rep_dim, self.rep_dim)

    # -- coordinates -------------------------------------------------------

    def element(self, coords) -> np.ndarray:
        """sum_i c_i b_i; a stack (..., n) of coordinates gives (..., D, D)."""
        c = np.asarray(coords, dtype=np.complex128)
        out = np.zeros((*c.shape[:-1], self.rep_dim**2), dtype=np.complex128)
        out[..., self._pos] = c[..., self._owner_of] * self._val
        return out.reshape(*c.shape[:-1], self.rep_dim, self.rep_dim)

    def coords_batch(self, mats: np.ndarray, tol: float = TOL) -> np.ndarray:
        """Coordinates of a stack (k, D, D); raises if any falls off the span."""
        flat = np.asarray(mats, dtype=np.complex128).reshape(len(mats), -1)
        if not len(flat):
            return np.zeros((0, self.dim), dtype=np.complex128)
        coords = np.add.reduceat(flat[:, self._pos] * self._weight, self._start, axis=1)
        diff = flat.copy()
        diff[:, self._pos] -= coords[:, self._owner_of] * self._val
        resid = float(np.abs(diff).max())
        scale = max(1.0, float(np.abs(flat).max()))
        if resid > tol * scale:
            raise ValueError(f"matrix outside the algebra span (residual {resid:.2e})")
        return coords

    def elements(self, coords) -> RowMaps:
        """Row maps of sum_i c_i b_i for a stack (..., n) of coordinates; each
        sum must be monomial, as a unit or a block-diagonal unitary is."""
        c = np.asarray(coords, dtype=np.complex128)
        flat, D = c.reshape(-1, self.dim), self.rep_dim
        a, e = np.nonzero(flat[:, self._owner_of])
        row, col = np.divmod(self._pos[e], D)
        if max(np.bincount(a * D + row).max(initial=0), np.bincount(a * D + col).max(initial=0)) > 1:
            raise ValueError("element is not monomial: a row or column holds two nonzeros")
        out = RowMaps(*(np.zeros((*c.shape[:-1], D), dtype=dt) for dt in (np.int64, np.complex128)))
        out.col.reshape(-1, D)[a, row] = col  # views of the fresh arrays
        out.val.reshape(-1, D)[a, row] = flat[a, self._owner_of[e]] * self._val[e]
        return out

    def trace(self, coords) -> complex:
        return complex(np.dot(np.asarray(coords, dtype=np.complex128), self.trace_vector))

    def multiplier_trace(self, p: np.ndarray) -> complex:
        """Trace of the map x -> p x on the algebra, for p in the algebra.

        Where b_i has the entry (r, c), the entry of p b_i is p[r, r] b_i[r, c],
        so coords_i(p b_i) is the |b_i|^2-weighted mean of p's diagonal over
        the rows of b_i."""
        return complex(np.diagonal(p) @ self._row_weight)

    def commutators(self, z) -> np.ndarray:
        """Coordinates of [b_i, z] for every i, from the structure constants:
        z of shape (n,) or (n, m) gives an (n, n, m) array indexed [t, i, :]."""
        n = self.dim
        z = np.asarray(z, dtype=np.complex128).reshape(n, -1)
        m = z.shape[1]
        pair, t, coef = self.structure
        i, j = np.divmod(pair, n)
        keys = np.concatenate([t * n + i, t * n + j])  # b_i b_j is in [b_i, z] and in [b_j, z]
        weights = np.concatenate([coef[:, None] * z[j], -coef[:, None] * z[i]])
        flat_keys = (keys[:, None] * m + np.arange(m)).ravel()
        return _bincount_complex(flat_keys, weights.ravel(), n * n * m).reshape(n, n, m)

    def _find_unit(self):
        """Coordinates of the identity, gathered over its diagonal; None off the span."""
        row, col = np.divmod(self._pos, self.rep_dim)
        diag = row == col
        coords = np.add.reduceat(np.where(diag, self._weight, 0), self._start)
        full = np.count_nonzero(diag) == self.rep_dim
        return coords if full and np.abs(coords[self._owner_of] * self._val - diag).max() <= TOL else None

    # -- validation --------------------------------------------------------

    def _monomial_coords(self, col: np.ndarray, val: np.ndarray):
        """Coordinates of k monomial matrices given by row maps (k, D) in the
        layout of (self.col, self.val).

        Returns (key, coef, resid, scale): matrix a has coordinate coef at
        b_t for each key = a * n + t, in ascending key order; resid is the
        largest entry of the reconstruction's residual and scale the largest
        input entry."""
        n = self.dim
        own = self._owner[np.arange(self.rep_dim), col]  # -1 on unowned positions
        hit = (own >= 0) & (val != 0)
        a, r = np.nonzero(hit)
        t = own[a, r]
        entry = self.val[t, r]  # b_t's own entry at the position
        key, inv = np.unique(a * n + t, return_inverse=True)
        coef = _bincount_complex(inv, np.conj(entry) / self._norm[t] * val[a, r], len(key))
        hits = np.bincount(inv, minlength=len(key))
        resid = max(
            float(np.abs(val[~hit]).max(initial=0.0)),
            float(np.abs(val[a, r] - coef[inv] * entry).max(initial=0.0)),
        )
        # a matrix that meets supp(b_t) but misses part of it leaves coef * b_t there
        short = np.flatnonzero(hits < self._size[key % n])
        if len(short):
            a, t = np.divmod(key[short], n)
            size = self._size[t]
            item = np.repeat(np.arange(len(short)), size)
            p = np.arange(size.sum()) + np.repeat(self._start[t] - (np.cumsum(size) - size), size)
            r, c = np.divmod(self._pos[p], self.rep_dim)
            gap = np.abs(coef[short][item]) * np.abs(self._val[p])
            resid = max(resid, float(gap[(col[a[item], r] != c) | (val[a[item], r] == 0)].max(initial=0.0)))
        return key, coef, resid, max(1.0, float(np.abs(val).max(initial=0.0)))

    def _check_closure(self):
        """Every product b_i b_j and every adjoint lies in the span, and the
        trace is positive on the Gram matrix tau(b_i* b_j) when the span is
        unital.  Products compose row maps, a chunk of left factors at a time."""
        n, D = self.dim, self.rep_dim
        rows = max(1, _CHUNK // (n * D))
        right = np.arange(n)[None, :, None]
        pairs, targets, coefs = [], [], []
        resid, scale = 0.0, 1.0
        for i0 in range(0, n, rows):
            left = slice(i0, min(n, i0 + rows))
            mid = self.col[left, None, :]  # row r of b_i lands in column mid ...
            col = self.col[right, mid]  # ... and b_j takes it on to col
            val = self.val[left, None, :] * self.val[right, mid]
            key, coef, r, s = self._monomial_coords(col.reshape(-1, D), val.reshape(-1, D))
            pairs.append(i0 * n + key // n)
            targets.append(key % n)
            coefs.append(coef)
            resid, scale = max(resid, r), max(scale, s)
        if resid > TOL * scale:
            raise ValueError(f"matrix outside the algebra span (residual {resid:.2e})")
        self.structure = (np.concatenate(pairs), np.concatenate(targets), np.concatenate(coefs))
        adj = RowMaps(self.col, self.val).H
        key, coef, resid, scale = self._monomial_coords(adj.col, adj.val)
        if resid > TOL * scale:
            raise ValueError(f"matrix outside the algebra span (residual {resid:.2e})")
        self.adjoints = (key, coef)
        if self.unit_coords is not None:
            one = self.trace(self.unit_coords)
            if abs(one - 1.0) > 1e-6:
                raise ValueError(f"trace of the unit is {one:.6f}, expected 1")
            # Gram matrix tau(b_i* b_j) = sum_c coords_c(b_i*) tau(b_c b_j) must be positive semidefinite
            adj = np.zeros(n * n, dtype=np.complex128)
            adj[key] = coef
            pair, t, coef = self.structure
            pair_traces = _bincount_complex(pair, coef * self.trace_vector[t], n * n).reshape(n, n)
            gram = adj.reshape(n, n) @ pair_traces
            w = np.linalg.eigvalsh((gram + gram.conj().T) / 2)
            if w.min() < -1e-7:
                raise ValueError("trace is not positive on the basis Gram matrix")


def scalar_algebra() -> StarAlgebra:
    return StarAlgebra(np.zeros((1, 1)), np.ones((1, 1)), np.ones(1), label="C")


def matrix_algebra(d: int) -> StarAlgebra:
    """Full matrix algebra M_d with its normalized trace; E_ij at index i * d + j."""
    if d < 1:
        raise ValueError("dimension must be positive")
    idx = np.arange(d * d)
    col = np.zeros((d * d, d), dtype=np.int64)
    val = np.zeros((d * d, d), dtype=np.complex128)
    col[idx, idx // d] = idx % d
    val[idx, idx // d] = 1.0
    tr = np.where(idx // d == idx % d, 1.0 / d, 0.0).astype(np.complex128)
    return StarAlgebra(col, val, tr, label=f"M{d}")


def tensor_algebra(a: StarAlgebra, b: StarAlgebra) -> StarAlgebra:
    """Tensor product with the product trace; basis index is (i, j) row-major,
    and each basis matrix is np.kron(a.basis[i], b.basis[j]): row r * Db + s
    holds a.val[i, r] b.val[j, s] in column a.col[i, r] * Db + b.col[j, s]."""
    n, D, Db = a.dim * b.dim, a.rep_dim * b.rep_dim, b.rep_dim
    col = (a.col[:, None, :, None] * Db + b.col[None, :, None, :]).reshape(n, D)
    val = (a.val[:, None, :, None] * b.val[None, :, None, :]).reshape(n, D)
    tr = np.outer(a.trace_vector, b.trace_vector).ravel()
    return StarAlgebra(col, val, tr, label=f"{a.label}(x){b.label}")


def _translation_algebra(table: np.ndarray, phase: np.ndarray, label: str) -> StarAlgebra:
    """The k x k monomial matrices u_a with u_a delta_b = phase[a, b] delta_{table[a, b]},
    every row of table a permutation, with the normalized trace."""
    k = len(table)
    a = np.arange(k)[:, None]
    col = np.zeros((k, k), dtype=np.int64)
    col[a, table] = np.arange(k)
    val = np.zeros((k, k), dtype=np.complex128)
    val[a, table] = phase
    tr = np.where(table == np.arange(k), phase, 0).sum(axis=1) / k
    return StarAlgebra(col, val, tr, label=label)


def twisted_group_algebra(G: FiniteGroup, omega: Cocycle2) -> StarAlgebra:
    """The algebra spanned by unitaries u_g with u_g u_h = omega(g, h) u_{gh},
    realized on l^2(G) by u_g(delta_h) = omega(g, h) delta_{gh}, with the
    canonical trace tau(x) = <x delta_e, delta_e>.

    A cocycle with some omega(g, g^-1) != 0 is replaced by its normalized
    representative first (same class, so the same algebra up to iso); after
    that u_e is the unit and tau(u_g) = 0 exactly for g != e.
    """
    if not np.array_equal(G.table, omega.group.table):
        raise ValueError("cocycle lives on a different group")
    omega, _ = normalize(omega)
    phase = _phase(omega.num / omega.q)
    tag = "" if omega.is_trivial_table() else ", w"
    A = _translation_algebra(G.table, phase, f"C[{G.name}{tag}]")
    # relations u_g u_h = omega(g,h) u_{gh} hold by construction; re-check them
    # on the structure constants, one entry per pair (g, h) in row-major order
    pair, t, coef = A.structure
    if (
        not np.array_equal(pair, np.arange(G.order**2))
        or not np.array_equal(t, G.table.ravel())
        or np.abs(coef - phase.ravel()).max() > TOL
    ):
        raise VerificationError("twisted regular representation relations failed")
    return A


# ---------------------------------------------------------------------------
# block decomposition


@dataclass(frozen=True)
class BlockProfile:
    """Sorted multiset of simple block dimensions of a semisimple algebra."""

    blocks: tuple[int, ...]
    dim: int
    seed: int

    def __post_init__(self):
        if list(self.blocks) != sorted(self.blocks) or any(d < 1 for d in self.blocks):
            raise ValueError("blocks must be sorted positive integers")
        if sum(d * d for d in self.blocks) != self.dim:
            raise ValueError("block dimensions do not square-sum to the algebra dimension")

    def scaled(self, k: int) -> "BlockProfile":
        return BlockProfile(tuple(d * k for d in self.blocks), self.dim * k * k, self.seed)

    def to_json(self) -> dict:
        return {"blocks": [int(d) for d in self.blocks], "dim": int(self.dim), "seed": int(self.seed)}


class _Unstable(Exception):
    pass


def _random_self_adjoint(A: StarAlgebra, span: np.ndarray, rng) -> np.ndarray:
    k = span.shape[1]
    c = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    M = A.element(span @ c)
    return M + M.conj().T


def _center_coords(A: StarAlgebra, rng) -> np.ndarray:
    """Coordinate basis of the center, found as the joint commutant of two
    random self-adjoint elements and then verified against every basis
    element (the joint commutant can only be too big, never too small)."""
    full = np.eye(A.dim, dtype=np.complex128)
    a, b = A.coords_batch(np.stack([_random_self_adjoint(A, full, rng), _random_self_adjoint(A, full, rng)]))
    # want c with sum_i c_i [b_i, a] = sum_i c_i [b_i, b] = 0, in coordinates: the
    # stacked (2n, n) matrix has at least n rows, so the economy Vh spans all of C^n
    stacked = np.vstack([A.commutators(a)[..., 0], A.commutators(b)[..., 0]])
    s, Vh = np.linalg.svd(stacked, full_matrices=False)[1:]
    if s.size == 0 or s[0] < 1e-12:
        Z = full
    else:
        rank = int(np.sum(s > s[0] * 1e-9))
        Z = Vh[rank:].conj().T  # (n, k)
    if Z.shape[1] == 0:
        raise _Unstable("empty commutant, degenerate draw")
    # verify: every candidate center element commutes with the whole basis; the
    # supports are disjoint, so the largest entry of sum_t c_t b_t is max |c_t| entry_max[t]
    scale = max(1.0, float((np.abs(Z) * A.entry_max[:, None]).max()))
    cols = max(1, _CHUNK // (A.dim * A.dim))
    for k0 in range(0, Z.shape[1], cols):
        comm = A.commutators(Z[:, k0 : k0 + cols])  # (t, i, k)
        if (np.abs(comm) * A.entry_max[:, None, None]).max() > TOL * scale:
            raise _Unstable("joint commutant exceeds the center")
    return Z


def block_profile(A: StarAlgebra, seed: int = 0) -> BlockProfile:
    """Simple block dimensions via a random self-adjoint central element.

    The eigenvalue clusters of that element (separation threshold EIG_GAP)
    must number exactly dim(center); each spectral projector p must lie in
    the algebra and acts on it with integer rank d^2, recovered as the
    trace of x -> p x.  Collisions or rank drift trigger a retry with fresh
    randomness, and MAX_RETRIES failures raise DecompositionUnstableError.
    """
    n = A.dim
    rng = np.random.default_rng(seed)
    last = "no attempts ran"
    for _ in range(MAX_RETRIES):
        try:
            Z = _center_coords(A, rng)
            k = Z.shape[1]
            C = _random_self_adjoint(A, Z, rng)
            w, V = np.linalg.eigh(C)
            splits = np.nonzero(np.diff(w) > EIG_GAP)[0]
            bounds = [0, *(int(s) + 1 for s in splits), len(w)]
            if len(bounds) - 1 != k:
                raise _Unstable(f"{len(bounds) - 1} eigenvalue clusters for a {k}-dim center")
            dims = []
            for lo, hi in zip(bounds, bounds[1:]):
                P = V[:, lo:hi] @ V[:, lo:hi].conj().T
                A.coords_batch(P[None])  # raises if the projector is not in the algebra
                tr = A.multiplier_trace(P)
                rank = int(round(tr.real))
                if abs(tr - rank) > 1e-6:
                    raise _Unstable(f"non-integer idempotent trace {tr:.4f}")
                d = isqrt(rank)
                if d * d != rank or rank == 0:
                    raise _Unstable(f"block rank {rank} is not a positive square")
                dims.append(d)
            if sum(d * d for d in dims) != n:
                raise _Unstable("block ranks do not sum to the dimension")
            return BlockProfile(tuple(sorted(dims)), n, seed)
        except (_Unstable, ValueError) as exc:
            last = str(exc)
    raise DecompositionUnstableError(f"block decomposition failed after {MAX_RETRIES} attempts: {last}")


# ---------------------------------------------------------------------------
# twisted systems and crossed products


class TwistedSystem:
    """A finite group acting on a StarAlgebra up to a unitary 2-cocycle.

    alpha_s permutes the basis up to phases, alpha_s(b_i) = phase[s, i]
    b_{target[s, i]}, each row of target a permutation of range(n);
    omega[s, t] is the coordinate vector of a monomial unitary in A.  The
    axioms (identity fixed, unit cocycle on the axes, the Ad-twisted
    composition law, the cocycle condition, and that each alpha_s is a
    *-automorphism, which must carry the structure constants and the adjoint
    table onto themselves) are verified within TOL at construction.
    """

    def __init__(self, algebra: StarAlgebra, group: FiniteGroup, target, phase, omega):
        self.algebra, self.group = algebra, group
        f, n = group.order, algebra.dim
        self.target = np.asarray(target, dtype=np.int64)
        self.phase = np.asarray(phase, dtype=np.complex128)
        self.omega = np.asarray(omega, dtype=np.complex128)
        if self.target.shape != (f, n) or self.phase.shape != (f, n) or self.omega.shape != (f, f, n):
            raise ValueError(f"target and phase must have shape {(f, n)}, omega {(f, f, n)}")
        if not np.array_equal(np.sort(self.target, axis=1), np.broadcast_to(np.arange(n), (f, n))):
            raise ValueError("every row of target must be a permutation of the basis")
        if algebra.unit_coords is None:
            raise ValueError("twisted systems need a unital coefficient algebra")
        self._validate()

    def image(self, s, i, scale=1.0) -> RowMaps:
        """Row maps of scale * alpha_s(b_i); s, i and scale broadcast."""
        t = self.target[s, i]
        return RowMaps(self.algebra.col[t], (self.phase[s, i] * scale)[..., None] * self.algebra.val[t])

    def act(self, r, coords) -> np.ndarray:
        """Coordinates [r, ..., :] of alpha_r(x), r an index array, x a stack (..., n)."""
        inv = np.argsort(self.target[r], axis=1)  # alpha_r(b_inv[r, u]) is a multiple of b_u
        moved = np.asarray(coords)[..., inv] * np.take_along_axis(self.phase[r], inv, axis=1)
        return np.moveaxis(moved, -2, 0)

    def _validate(self):
        A, F = self.algebra, self.group
        f, n, D, mul = F.order, A.dim, A.rep_dim, F.table
        if not np.array_equal(self.target[0], np.arange(n)) or np.abs(self.phase[0] - 1).max() > TOL:
            raise VerificationError("alpha at the identity is not the identity map")
        if np.abs(np.concatenate([self.omega[:, 0], self.omega[0]]) - A.unit_coords).max() > TOL:
            raise VerificationError("omega is not the unit along the identity row/column")
        W = A.elements(self.omega)  # W[s, t] = omega(s, t)
        _fail_first((W @ W.H).deviation(RowMaps(np.arange(D), np.ones(D))), "omega({},{}) is not unitary")
        for S in _chunks(f, f * n * D):
            # alpha_s alpha_t (b_i) = omega(s,t) alpha_st(b_i) omega(s,t)*, over [s, t, i]
            twice = self.image(S[:, None, None], self.target, self.phase)
            conj = W[S, :, None] @ self.image(mul[S][..., None], np.arange(n)) @ W[S, :, None].H
            _fail_first(twice.deviation(conj).max(axis=2), "composition axiom fails at ({},{})", S[0])
        for R in _chunks(f, f * f * (n + D)):
            # alpha_r(omega(s,t)) omega(r,st) = omega(r,s) omega(rs,t), over [r, s, t]
            lhs = A.elements(self.act(R, self.omega)) @ W[R[:, None, None], mul]
            _fail_first(lhs.deviation(W[R, :, None] @ W[mul[R]]), "cocycle axiom fails at ({},{},{})", R[0])
        # alpha_s is a *-automorphism when it carries every product b_i b_j, with
        # coef at b_t, to alpha_s(b_i) alpha_s(b_j) and every adjoint likewise
        (pair, t, c), (akey, ac) = A.structure, A.adjoints
        key, (i, j), (ai, at) = pair * n + t, np.divmod(pair, n), np.divmod(akey, n)
        for S in _chunks(f, len(key) + len(akey)):
            T, p = self.target[S], self.phase[S]
            mult = _carried(key, c, (T[:, i] * n + T[:, j]) * n + T[:, t], c * p[:, t], p[:, i] * p[:, j])
            star = _carried(akey, ac, T[:, ai] * n + T[:, at], ac * p[:, at], np.conj(p[:, ai]))
            fault = np.where(mult, "does not preserve the adjoint", "is not multiplicative")
            for s in np.flatnonzero(~(mult & star))[:1]:
                raise VerificationError(f"alpha({S[s]}) {fault[s]}")


def _chunks(f: int, entries: int):
    """Index arrays covering range(f), of about _CHUNK entries at so many per index."""
    step = max(1, _CHUNK // max(1, entries))
    return (np.arange(s0, min(f, s0 + step)) for s0 in range(0, f, step))


def _carried(key, coef, moved_key, moved_coef, scale) -> np.ndarray:
    """For each row of moved_key: whether the table (key, coef), sorted by key,
    holds moved_coef / scale at each of these keys, as many as its own."""
    at = np.searchsorted(key, moved_key).clip(max=len(key) - 1)
    return ((key[at] == moved_key) & (np.abs(coef[at] * scale - moved_coef) <= TOL)).all(axis=-1)


def _fail_first(dev: np.ndarray, message: str, offset: int = 0):
    """Raise for the first index, in row-major order, where dev exceeds TOL;
    the first axis counts from offset."""
    bad = np.argwhere(dev > TOL)
    if len(bad):
        raise VerificationError(message.format(bad[0][0] + offset, *bad[0][1:]))


def trivial_system(A: StarAlgebra, F: FiniteGroup) -> TwistedSystem:
    f, n = F.order, A.dim
    target = np.broadcast_to(np.arange(n), (f, n))
    return TwistedSystem(A, F, target, np.ones((f, n)), np.broadcast_to(A.unit_coords, (f, f, n)))


def scalar_system(F: FiniteGroup, omega: Cocycle2) -> TwistedSystem:
    """C as coefficients, trivial action, scalar cocycle (normalized first)."""
    if not np.array_equal(F.table, omega.group.table):
        raise ValueError("cocycle lives on a different group")
    omega, _ = normalize(omega)
    table = _phase(omega.num / omega.q)[:, :, None]
    return TwistedSystem(scalar_algebra(), F, np.zeros((F.order, 1)), np.ones((F.order, 1)), table)


def system_from_normal(G: FiniteGroup, N: Subgroup, sigma: Cocycle2 | None = None) -> TwistedSystem:
    """Decompose C[G, sigma] over a normal subgroup N: coefficients
    C[N, sigma|_N], the quotient acting by conjugation of the canonical
    coset representatives c(s), and the cocycle

        omega(s, t) = u_{c(s)} u_{c(t)} u*_{c(s t)}

    which lands in the coefficient algebra.  crossed_product of the result
    recovers the block profile of C[G, sigma]."""
    if N.parent is not G:
        raise InvalidGroupError("subgroup belongs to a different group")
    if not N.is_normal():
        raise InvalidGroupError("subgroup is not normal")
    if sigma is None:
        sigma = trivial_cocycle(G)
    if not np.array_equal(sigma.group.table, G.table):
        raise ValueError("cocycle lives on a different group")
    sigma, _ = normalize(sigma)
    num, tbl, inv = sigma.num, G.table, G.inverse
    Ngrp, emb = subgroup_as_group(N)
    emb = np.asarray(emb, dtype=np.int64)
    nn = Ngrp.order
    pos = np.zeros(G.order, dtype=np.int64)
    pos[emb] = np.arange(nn)
    B = twisted_group_algebra(Ngrp, Cocycle2(Ngrp, num[np.ix_(emb, emb)], sigma.q))
    Q, _, lift = quotient(G, N)
    q = Q.order
    c = np.asarray(lift, dtype=np.int64)[:, None]  # c(s) down the rows
    # each phase is a sum of two numerators, left unreduced below 2q: exact as a float
    # alpha_s(u_n) = sigma(c, n) sigma(cn, c^-1) u_{c n c^-1}
    cn, cinv = tbl[c, emb], inv[c]
    phase = _phase((num[c, emb] + num[cn, cinv]) / sigma.q)
    # omega(s, t) = sigma(c(s), c(t)) sigma(c(s)c(t), c(st)^-1) u_{c(s) c(t) c(st)^-1}
    cc, cst_inv = tbl[c, c.T], inv[c.ravel()[Q.table]]
    omega = np.zeros((q, q, nn), dtype=np.complex128)
    s, t = np.indices((q, q))
    omega[s, t, pos[tbl[cc, cst_inv]]] = _phase((num[c, c.T] + num[cc, cst_inv]) / sigma.q)
    return TwistedSystem(B, Q, pos[tbl[cn, cinv]], phase, omega)


def crossed_product(sys: TwistedSystem) -> StarAlgebra:
    """The twisted crossed product, on l^2(F) with A-valued vectors:

        (pi(a) xi)(g)   = alpha_{g^-1}(a) xi(g)
        (lambda_s xi)(g) = omega(g^-1, s) xi(s^-1 g)

    Basis pi(b_i) lambda_s at index i*|F| + s; dimension dim(A) * |F|;
    trace tau(pi(a) lambda_s) = tau_A(a) [s = e]."""
    A, F = sys.algebra, sys.group
    f, n, D = F.order, A.dim, A.rep_dim
    check_crossed_cap(n * f)
    # block row g of pi(b_i) lambda_s is alpha_{g^-1}(b_i) omega(g^-1, s), in block column s^-1 g
    ginv = F.inverse[None, None, :]
    rows = sys.image(ginv, np.arange(n)[:, None, None]) @ A.elements(sys.omega)[ginv, np.arange(f)[:, None]]
    col = rows.col + D * F.table[F.inverse][..., None]  # [i, s, g, a]: row g * D + a of basis i * f + s
    tr = np.kron(A.trace_vector, np.arange(f) == 0)
    return StarAlgebra(col.reshape(n * f, -1), rows.val.reshape(n * f, -1), tr, label=f"{A.label} x {F.name}")


# ---------------------------------------------------------------------------
# fibers over central characters


def cutdown_fiber(G: FiniteGroup, N: Subgroup, num, q: int) -> StarAlgebra:
    """Compress C[G] by the central idempotent of a character chi of a central
    subgroup, given as in cocycles.central_character: e_chi = (1/|N|) sum_z
    conj(chi(z)) u_z, on the range of e_chi with basis the compressed u_g over
    coset representatives of N.

    The range has the orthonormal coset basis q_b = sqrt|N| e_chi delta_{r_b}
    (r_b the representative of coset b).  Since e_chi u_z = chi(z) e_chi,
    u_g q_b = chi(z) q_c where g r_b = z r_c with z in N, so every compressed
    u_g is monomial with the exact phases chi(z); e_chi is a projection because
    central_character checks chi exactly."""
    chi, q = central_character(G, N, num, q)
    number, reps = coset_index(G, N)  # N is central, so its left and right cosets agree
    g_rb = G.table[reps[:, None], reps]  # [a, b]: r_a r_b = z r_c
    c = number[g_rb]
    return _translation_algebra(c, _phase(chi[G.table[g_rb, G.inverse[reps[c]]]] / q), f"C[{G.name}]@chi")


def fiber_decomposition(G: FiniteGroup, N: Subgroup, seed: int = 0) -> list[tuple[np.ndarray, StarAlgebra]]:
    """All fibers of C[G] over the characters of a central subgroup, each
    with its row of numerators from subgroup_characters(N).

    Each fiber's block profile is asserted to match the directly built
    twisted algebra of the quotient with the corresponding lifted-product
    cocycle, and the fiber dimensions are audited to sum to |G|."""
    fibers = []
    _, chars, q = subgroup_characters(N)
    for row in chars:
        alg = cutdown_fiber(G, N, row, q)
        sig = sigma_chi(G, N, row, q)
        direct = twisted_group_algebra(sig.group, sig)
        p1 = block_profile(alg, seed)
        p2 = block_profile(direct, seed)
        if p1.blocks != p2.blocks:
            raise VerificationError(
                f"fiber profile {p1.blocks} disagrees with the quotient cocycle route {p2.blocks}"
            )
        fibers.append((row, alg))
    if sum(alg.dim for _, alg in fibers) != G.order:
        raise VerificationError("fiber dimensions do not sum to the group order")
    return fibers


# ---------------------------------------------------------------------------
# induction (imprimitivity) and stabilization


def verify_imprimitivity(B: StarAlgebra, H: Subgroup, sys: TwistedSystem, seed: int = 0) -> dict:
    """Induce a twisted H-system up to G = H.parent and check that the
    induced crossed product is the H-crossed product inflated by the index:

        profile(A x G) = [G:H] * profile(B x H)   (elementwise)

    where A is the algebra of B-valued functions on G/H, G permuting the
    cosets and twisting by kappa(g, x) = t_{gx}^-1 g t_x inside H."""
    if B is not sys.algebra:
        raise ValueError("B must be the coefficient algebra of the system")
    G = H.parent
    Hgrp, emb = subgroup_as_group(H)
    if not np.array_equal(Hgrp.table, sys.group.table):
        raise ValueError("system group does not match the subgroup")
    number, t = coset_index(G, H)
    m, q, nB = G.order, len(t), B.dim
    check_crossed_cap(q * nB * m)
    tbl, inv, g, x = G.table, G.inverse, np.arange(m)[:, None], np.arange(q)
    pos = np.zeros(m, dtype=np.int64)
    pos[emb] = np.arange(len(emb))
    # g t_x = t_{gx} kappa(g, x) with kappa(g, x) in H, indexed [g, x]
    gx = number[tbl[g, t]]
    kappa = pos[tbl[tbl[inv[t[gx]], g], t]]
    # b_i in diagonal block x, at index x * nB + i, and alpha_g(e_x (x) b_i) = e_gx (x) alpha_kappa(g,x)(b_i)
    A = tensor_algebra(StarAlgebra(np.diag(x), np.eye(q), np.full(q, 1 / q), label=f"C^{q}"), B)
    target = (gx[:, :, None] * nB + sys.target[kappa]).reshape(m, q * nB)
    # omega(g1, g2) on block x: kappa(g1, y1) with y1 = g1^-1 x, kappa(g2, y2) with y2 = g2^-1 y1
    y1 = number[tbl[inv[:, None], t]]
    y2 = number[tbl[inv[None, :, None], t[y1][:, None, :]]]
    omega = sys.omega[kappa[g, y1][:, None, :], kappa[g, y2]]  # g broadcasts over the g2 axis
    induced = TwistedSystem(A, G, target, sys.phase[kappa].reshape(m, q * nB), omega.reshape(m, m, q * nB))
    ambient = block_profile(crossed_product(induced), seed)
    small = block_profile(crossed_product(sys), seed)
    expected = tuple(sorted(d * q for d in small.blocks))
    if ambient.blocks != expected:
        raise VerificationError(
            f"imprimitivity mismatch: ambient {ambient.blocks}, compressed {small.blocks}, index {q}"
        )
    return {
        "ambient_profile": list(ambient.blocks),
        "compressed_profile": list(small.blocks),
        "index": q,
        "ambient_dim": ambient.dim,
        "compressed_dim": small.dim,
        "matches": True,
    }


def verify_stabilization(sys: TwistedSystem, seed: int = 0) -> dict:
    """Absorb the cocycle into matrices: on A (x) M_|F| the unitaries

        v_s = sum_g omega(s, g)* (x) E_{sg, g}

    implement an untwisted action beta_s = Ad(v_s) o (alpha_s (x) id), and
    beta_s(b_i (x) E_kl) = omega(s,k)* alpha_s(b_i) omega(s,l) (x) E_{sk,sl}
    must be a phased basis element.  The exterior-equivalence cocycle v_s
    (alpha_s (x) id)(v_t) (omega(s,t) (x) 1) v_{st}* is 1 when each block
    omega(s,tg)* alpha_s(omega(t,g))* omega(s,t) omega(st,g), composed in
    that order, is; then (A x_{alpha,omega} F) (x) M_|F| and (A (x) M_|F|)
    x_beta F must have the same profile."""
    A, F = sys.algebra, sys.group
    f, n, D = F.order, A.dim, A.rep_dim
    check_crossed_cap(n * f**3)  # the crossed product of the stabilized system
    mul, W = F.table, A.elements(sys.omega)
    s, t, g = np.ogrid[:f, :f, :f]
    moved = A.elements(sys.act(np.arange(f), sys.omega))  # [s, t, g]: alpha_s(omega(t, g))
    blocks = W[s, mul[t, g]].H @ moved.H @ W[s, t] @ W[mul[s, t], g]
    sigma_dev = float(blocks.deviation(RowMaps(np.arange(D), np.ones(D))).max())
    if sigma_dev > TOL:
        raise VerificationError(f"stabilization cocycle deviates from 1 by {sigma_dev:.2e}")
    # beta_s(b_i (x) E_kl) over [s, i, k, l], read off in A and placed at E_{sk, sl}
    s, i, k, l = np.ogrid[:f, :n, :f, :f]
    images = W[s, k].H @ sys.image(s, i) @ W[s, l]
    key, coef, resid, scale = A._monomial_coords(images.col.reshape(-1, D), images.val.reshape(-1, D))
    if resid > TOL * scale or not np.array_equal(key // n, np.arange(f * n * f * f)):
        raise VerificationError("stabilized action is not a phased basis permutation")
    target = (key % n).reshape(f, n, f, f) * f * f + mul[s, k] * f + mul[s, l]
    big = tensor_algebra(A, matrix_algebra(f))
    unit = np.broadcast_to(big.unit_coords, (f, f, big.dim))
    stab = TwistedSystem(big, F, target.reshape(f, -1), coef.reshape(f, -1), unit)
    right = block_profile(crossed_product(stab), seed)
    twisted = crossed_product(sys)
    small = block_profile(twisted, seed)
    left = block_profile(tensor_algebra(twisted, matrix_algebra(f)), seed)
    if left.blocks != right.blocks or left.blocks != tuple(sorted(d * f for d in small.blocks)):
        raise VerificationError(
            f"stabilization mismatch: twisted-then-tensor {left.blocks}, untwisted {right.blocks}"
        )
    return {
        "twisted_profile": list(small.blocks),
        "tensored_profile": list(left.blocks),
        "stabilized_profile": list(right.blocks),
        "sigma_deviation": sigma_dev,
        "matches": True,
    }
