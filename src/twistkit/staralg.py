"""Finite-dimensional *-algebras over C, given by disjoint monomial families.

An algebra is a basis of D x D matrices closed under product and adjoint.
Every basis built here is a *disjoint monomial family*: each matrix has at
most one nonzero entry in every row and every column, and no two matrices
share a nonzero position.  The u_g of a twisted regular representation,
matrix units, tensor products, crossed products, induced algebras and the
fibers over central characters are all of this kind, and StarAlgebra
accepts nothing else.  Every entry is a root of unity with a rational
angle, so a basis is stored as its row maps, two (n, D) int64 arrays over
one denominator q as in cocycles: row r of b_i holds e^(2 pi i num[i, r] / q)
in column col[i, r], and num = EMPTY marks an empty row.  Every builder
writes these by index arithmetic, and every check on them is an identity
of integers:

- independence: the supports are nonempty and pairwise disjoint;
- the product of two basis matrices composes their row maps, adding
  numerators mod q; it lies in the span when it covers every support it
  meets whole, at one numerator difference (the structure constant).
  Closure is checked exhaustively on the composable pairs, those where
  the column set of b_i is the row set of b_j, over the rows of b_i: once
  the row and column sets are certified pairwise equal or disjoint, every
  other product is 0.  Adjoints are checked for every basis matrix;
- the trace is the normalized matrix trace, so it is positive;
- the center is spanned by phased class sums, found by union-find over
  the basis on the structure constants;
- twisted systems (phased basis permutations, monomial unitary cocycles)
  are checked, crossed, induced and stabilized by composing RowMaps.

Everything downstream reduces to one primitive: the block profile, the
multiset of simple block dimensions {d_1 <= ... <= d_k}, one per primitive
central idempotent, read from the exact center.  Twisted group
algebras, crossed products by twisted actions, fibers over central
characters, induction over a subgroup, and stabilization are all built on
top and cross-checked against each other by comparing profiles, which are
a complete invariant of finite-dimensional semisimple algebras.

Floats appear only as the realization _phase(num / q): in the block profile,
which splits the k-dimensional center by a k x k eigendecomposition and
certifies its integers (each d_i^2 a positive square, their sum dim) before
anything is returned, and in verify_stabilization's reported deviation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import isqrt, lcm

import numpy as np

from .cocycles import MAX_DENOMINATOR, Cocycle2, central_character, normalize
from .cocycles import trivial_cocycle
from .errors import DecompositionUnstableError, InvalidGroupError, ResourceCapError, VerificationError
from .groups import FiniteGroup, Subgroup, coset_index, quotient, subgroup_as_group

MAX_RETRIES = 8
CROSSED_CAP = 4096
# m^3 composed entries in the closure check (every pair of a group algebra composes, over
# every row) and m^3 cocycle triples; about 0.8 s for both at m = 256 on 2 vCPUs
TWIST_CAP = 2**24
# the numerator of an empty row, and of a zero coordinate
EMPTY = -1

# index compositions run in chunks of about this many entries, so that each chunk's
# index and value arrays are a few hundred KB; the closure check takes a chunk of left
# factors at a time, one left factor when its composable pairs alone hold more
_CHUNK = 1 << 16


def _phase(angle):
    """e^(2 pi i angle) for a float array of angles num / q; with q <= MAX_DENOMINATOR
    each quotient is the float nearest its rational angle, however num / q is reduced."""
    return np.exp(2j * np.pi * angle)


def _lcm(*qs: int) -> int:
    """The common denominator of phases over the qs, refused above MAX_DENOMINATOR."""
    q = lcm(*qs)
    if q > MAX_DENOMINATOR:
        raise ValueError(f"the phases need a common denominator of {q.bit_length()} bits, above 2**52")
    return q


def _lift(num: np.ndarray, q: int, to: int) -> np.ndarray:
    """Numerators over q read over its multiple to; EMPTY stays EMPTY."""
    return num if to == q else np.where(num == EMPTY, EMPTY, num * (to // q))


def _add(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """a + b mod q for numerators in [0, q) below 2**52; EMPTY where either is."""
    total = a + b
    np.subtract(total, q, out=total, where=total >= q)
    np.copyto(total, EMPTY, where=(a | b) < 0)
    return total


def _checked(num, q: int, empty: bool) -> np.ndarray:
    """num as a read-only int64 array, checked to lie in [0, q) or, where empty, to be EMPTY."""
    num = np.array(num, dtype=np.int64)
    if not 1 <= q <= MAX_DENOMINATOR or num.size and (num.min() < (EMPTY if empty else 0) or num.max() >= q):
        raise ValueError("numerators must lie in [0, q), or be EMPTY where allowed, with 1 <= q <= 2**52")
    num.setflags(write=False)
    return num


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
    """A stack (..., D) of monomial D x D matrices by their row maps over q,
    laid out like StarAlgebra's (col, num).  Items index like numpy arrays, @
    composes two stacks over one q with broadcasting over the leading axes
    (numerators add), H is the adjoint (they negate) and same tells which
    items of two stacks over one q are equal."""

    def __init__(self, col: np.ndarray, num: np.ndarray, q: int):
        self.col, self.num, self.q = col, num, q

    def __getitem__(self, idx) -> "RowMaps":
        return RowMaps(self.col[idx], self.num[idx], self.q)

    def __matmul__(self, other: "RowMaps") -> "RowMaps":
        # row r of self lands in column c = self.col[r], and row c of other takes it on
        shape = np.broadcast_shapes(self.col.shape, other.col.shape)
        mid = np.broadcast_to(self.col, shape)
        col = np.take_along_axis(np.broadcast_to(other.col, shape), mid, axis=-1)
        num = np.take_along_axis(np.broadcast_to(other.num, shape), mid, axis=-1)
        return RowMaps(col, _add(self.num, num, self.q), self.q)

    @property
    def H(self) -> "RowMaps":
        # row c of the adjoint holds -num[r] in column r; empty rows write to a spare column
        *lead, D = self.col.shape
        to = np.where(self.num != EMPTY, self.col, D)
        col, num = np.zeros((*lead, D + 1), dtype=np.int64), np.full((*lead, D + 1), EMPTY)
        np.put_along_axis(col, to, np.broadcast_to(np.arange(D), to.shape), axis=-1)
        np.put_along_axis(num, to, np.where(self.num == EMPTY, EMPTY, -self.num % self.q), axis=-1)
        return RowMaps(col[..., :D], num[..., :D], self.q)

    def same(self, other: "RowMaps") -> np.ndarray:
        """Whether each item of self equals the item of other."""
        return ((self.num == other.num) & ((self.num == EMPTY) | (self.col == other.col))).all(axis=-1)


class StarAlgebra:
    """A concrete *-algebra: basis matrices given by their row maps over one
    denominator q, and a label; its trace is the normalized matrix trace.

    col, num: (n, D) arrays; row r of basis matrix b_i holds e^(2 pi i
    num[i, r] / q) in column col[i, r], or nothing where num[i, r] = EMPTY.
    The b_i must form a disjoint monomial family spanning a subalgebra of M_D
    closed under adjoint; construction checks every product and adjoint,
    composing only the pairs whose product can be nonzero, and keeps the
    structure constants: b_i b_j = e^(2 pi i coef / q) b_t for each entry of
    structure = (pair, t, coef) with pair = i * n + j, b_i* has coefficient
    e^(2 pi i coef / q) at b_t for each entry of adjoints = (i * n + t, coef),
    both sorted by key.  unit holds the identity's coordinates, EMPTY off
    them, or None.

    structure has one entry per composable pair: a nonzero product covers
    exactly one basis matrix.  b_i b_i* lies in the span and is diagonal, so it
    is a multiple of one basis projection r(i); were it split over two, r_1 b_i
    would cover part of supp(b_i), which closure forbids.  A nonzero b_i b_j so
    needs d(i) = r(j), where d(i) is the basis projection of b_i* b_i, and its
    rows are exactly those of b_i; any b_s it covers has r(s) = r(i), so b_s
    alone fills every row.  The row and column sets of the b_i are so the
    supports of the basis projections r(i) and d(i): any two are equal or
    disjoint, and b_i b_j is nonzero exactly when colset(i) = rowset(j).
    Closure certifies the first and then composes only these pairs.
    """

    def __init__(self, col, num, q: int, label: str = ""):
        q, col, num = int(q), np.array(col, dtype=np.int64), _checked(num, int(q), empty=True)
        if num.ndim != 2 or num.size == 0 or col.shape != num.shape:
            raise ValueError("col and num must be nonempty (n, D) arrays of one shape")
        if col.min() < 0 or col.max() >= num.shape[1]:
            raise ValueError("a column index lies outside the D x D matrices")
        col.setflags(write=False)
        self.col, self.num, self.q = col, num, q
        self.dim, self.rep_dim = num.shape
        self.label = label
        self._index_supports()
        self._check_closure()
        one = self._coords(RowMaps(np.arange(self.rep_dim), np.zeros(self.rep_dim, dtype=np.int64), self.q))
        self.unit = None if one is None else np.full(self.dim, EMPTY)
        if one is not None:
            self.unit[one[0]] = one[1]

    def _index_supports(self):
        """Certify a disjoint monomial family and index its supports."""
        n, D = self.dim, self.rep_dim
        owner, row = np.nonzero(self.num != EMPTY)  # grouped by owner
        col = self.col[owner, row]
        size = np.bincount(owner, minlength=n)
        if size.min() == 0:
            raise ValueError(f"basis matrix {int(np.argmin(size))} is zero, so the basis is linearly dependent")
        if np.bincount(row * D + col, minlength=D * D).max() > 1:
            raise ValueError("basis is not a disjoint monomial family: two matrices share a nonzero position")
        if np.bincount(owner * D + col).max() > 1:
            raise ValueError("basis is not a disjoint monomial family: a row or column holds two nonzeros")
        self._owner_of, self._pos, self._num = owner, row * D + col, self.num[owner, row]
        self._start, self._size = np.cumsum(size) - size, size  # where each support begins, and its size
        self._owner = np.full((D, D), -1)  # position (r, c) belongs to b_owner[r, c], or to none
        self._owner[row, col] = owner

    @cached_property
    def _val(self) -> np.ndarray:
        """The entries over the supports as floats, for the trace and the dense basis."""
        return _phase(self._num / self.q)

    @property
    def basis(self) -> np.ndarray:
        """The dense (n, D, D) basis, read-only, realized from the row maps on
        each access; nothing in this module reads it."""
        out = np.zeros((self.dim, self.rep_dim**2), dtype=np.complex128)
        out[self._owner_of, self._pos] = self._val
        out.setflags(write=False)
        return out.reshape(self.dim, self.rep_dim, self.rep_dim)

    @property
    def trace_vector(self) -> np.ndarray:
        """tau(b_i) for the normalized matrix trace, summed over the diagonal."""
        diag = self._pos % (self.rep_dim + 1) == 0  # r * D + c with r = c
        return _bincount_complex(self._owner_of[diag], self._val[diag], self.dim) / self.rep_dim

    # -- coordinates -------------------------------------------------------

    def elements(self, coords, q: int) -> RowMaps:
        """Row maps over q, a multiple of self.q, of sum_i c_i b_i for a stack
        (..., n) of numerators c_i over q (EMPTY for 0); each must be monomial."""
        c = np.asarray(coords, dtype=np.int64)
        flat, D = c.reshape(-1, self.dim), self.rep_dim
        a, e = np.nonzero(flat[:, self._owner_of] != EMPTY)
        row, col = np.divmod(self._pos[e], D)
        if max(np.bincount(a * D + row).max(initial=0), np.bincount(a * D + col).max(initial=0)) > 1:
            raise ValueError("element is not monomial: a row or column holds two nonzeros")
        out = RowMaps(np.zeros((*c.shape[:-1], D), dtype=np.int64), np.full((*c.shape[:-1], D), EMPTY), q)
        out.col.reshape(-1, D)[a, row] = col  # views of the fresh arrays
        out.num.reshape(-1, D)[a, row] = _add(flat[a, self._owner_of[e]], _lift(self._num[e], self.q, q), q)
        return out

    # -- validation --------------------------------------------------------

    def _coords(self, rows: RowMaps):
        """Coordinates of a stack of monomial matrices over a multiple rows.q of
        q, as (key, coef): item a has coefficient e^(2 pi i coef / rows.q) at
        b_t for each key = a * n + t, in ascending order.  None when an item
        leaves the span: it holds an entry off the supports, or meets one
        without covering it whole at one numerator difference."""
        n, D = self.dim, self.rep_dim
        col, num = rows.col.reshape(-1, D), rows.num.reshape(-1, D)
        a, r = np.nonzero(num != EMPTY)
        t = self._owner[r, col[a, r]]  # -1 on unowned positions
        diff = (num[a, r] - _lift(self.num[t, r], self.q, rows.q)) % rows.q
        key, first, inv, hits = np.unique(a * n + t, return_index=True, return_inverse=True, return_counts=True)
        coef = diff[first]
        if (t < 0).any() or (hits != self._size[key % n]).any() or (diff != coef[inv]).any():
            return None
        return key, coef

    def _check_closure(self):
        """Every product b_i b_j and every adjoint lies in the span.

        Two distinct row or column sets that overlap leave the span (see the
        class docstring).  Once none do, b_i b_j is 0 unless colset(i) =
        rowset(j), and then it has the rows of b_i; it lies in the span
        exactly when every entry falls on one b_t at one numerator difference
        and size(t) = size(i).  Only these composable pairs are composed, over
        the rows of their left factors, a chunk of left factors at a time."""
        n, D, q = self.dim, self.rep_dim, self.q
        row, col = np.divmod(self._pos, D)  # the entries of each b_i, grouped by owner
        sets = np.zeros((2 * n, D), dtype=bool)  # row sets, then column sets
        sets[self._owner_of, row] = sets[n + self._owner_of, col] = True
        packed = np.packbits(sets, axis=1)  # each set as bytes, numbered by one np.unique
        _, first, kind = np.unique(packed.view(f"V{packed.shape[1]}").ravel(), return_index=True, return_inverse=True)
        if sets[first].sum(axis=0).max() > 1:
            raise ValueError("matrix outside the algebra span")
        # the right factors of b_i are the j with rowset(j) = colset(i), ascending
        members = np.argsort(kind[:n], kind="stable")  # grouped by row set
        count = np.bincount(kind[:n], minlength=len(first))
        begin, npairs = (np.cumsum(count) - count)[kind[n:]], count[kind[n:]]
        load = np.cumsum(npairs * self._size)  # entries composed up to each left factor
        owner = self._owner.ravel()
        tables = []
        for rows in np.split(np.arange(n), np.flatnonzero(np.diff(load // _CHUNK)) + 1):
            i, j = np.repeat(rows, npairs[rows]), members[_ranges(begin[rows], npairs[rows])]
            w = self._size[i]  # a pair's product has the rows of b_i
            at = np.cumsum(w) - w  # where each pair's entries begin
            e = _ranges(self._start[i], w)
            r, mid = row[e], np.repeat(j * D, w) + col[e]  # row r of b_i lands in row col[i, r] of b_j
            t = np.take(owner, r * D + np.take(self.col, mid))
            diff = self._num[e] + np.take(self.num, mid) - np.take(self.num, t * D + r)  # in (-q, 2q)
            np.add(diff, q, out=diff, where=diff < 0)
            np.subtract(diff, q, out=diff, where=diff >= q)
            t0, d0 = t[at], diff[at]  # each entry must match its pair's first, and cover b_t0 whole
            same = (t == np.repeat(t0, w)) & (diff == np.repeat(d0, w))
            if (t < 0).any() or not same.all() or (self._size[t0] != w).any():
                raise ValueError("matrix outside the algebra span")
            tables.append((i * n + j, t0, d0))
        self.structure = tuple(np.concatenate(part) for part in zip(*tables))
        self.adjoints = self._coords(RowMaps(self.col, self.num, self.q).H)
        if self.adjoints is None:
            raise ValueError("matrix outside the algebra span")


def scalar_algebra() -> StarAlgebra:
    return StarAlgebra(np.zeros((1, 1)), np.zeros((1, 1)), 1, label="C")


def matrix_algebra(d: int) -> StarAlgebra:
    """Full matrix algebra M_d; E_ij at index i * d + j."""
    if d < 1:
        raise ValueError("dimension must be positive")
    idx = np.arange(d * d)
    col, num = np.zeros((d * d, d), dtype=np.int64), np.full((d * d, d), EMPTY)
    col[idx, idx // d], num[idx, idx // d] = idx % d, 0
    return StarAlgebra(col, num, 1, label=f"M{d}")


def tensor_algebra(a: StarAlgebra, b: StarAlgebra) -> StarAlgebra:
    """Tensor product; basis index is (i, j) row-major, and each basis matrix
    is np.kron(a.basis[i], b.basis[j]): row r * Db + s holds the phase
    a.num[i, r] + b.num[j, s] in column a.col[i, r] * Db + b.col[j, s]."""
    n, D, Db, q = a.dim * b.dim, a.rep_dim * b.rep_dim, b.rep_dim, _lcm(a.q, b.q)
    col = (a.col[:, None, :, None] * Db + b.col[None, :, None, :]).reshape(n, D)
    num = _add(_lift(a.num, a.q, q)[:, None, :, None], _lift(b.num, b.q, q)[None, :, None, :], q)
    return StarAlgebra(col, num.reshape(n, D), q, label=f"{a.label}(x){b.label}")


def _translation_algebra(table: np.ndarray, num: np.ndarray, q: int, label: str) -> StarAlgebra:
    """The k x k monomial matrices u_a with u_a delta_b = e^(2 pi i num[a, b] / q)
    delta_{table[a, b]}, every row of table a permutation."""
    k = len(table)
    a, col, rows = np.arange(k)[:, None], np.zeros((k, k), dtype=np.int64), np.zeros((k, k), dtype=np.int64)
    col[a, table], rows[a, table] = np.arange(k), num
    return StarAlgebra(col, rows, q, label=label)


def twisted_group_algebra(G: FiniteGroup, omega: Cocycle2) -> StarAlgebra:
    """The algebra spanned by unitaries u_g with u_g u_h = omega(g, h) u_{gh},
    realized on l^2(G) by u_g(delta_h) = omega(g, h) delta_{gh}, whose
    normalized trace is the canonical tau(x) = <x delta_e, delta_e>.

    A cocycle with some omega(g, g^-1) != 0 is replaced by its normalized
    representative first (same class, so the same algebra up to iso); after
    that u_e is the unit and tau(u_g) = 0 exactly for g != e.  The relations
    need no check of their own: omega(g, e) = 0 after normalizing, so u_g u_h
    meets u_gh at delta_e with phase omega(g, h), and the closure check has
    certified one phase over all rows.
    """
    if not np.array_equal(G.table, omega.group.table):
        raise ValueError("cocycle lives on a different group")
    omega, _ = normalize(omega)
    tag = "" if omega.is_trivial_table() else ", w"
    return _translation_algebra(G.table, omega.num, omega.q, f"C[{G.name}{tag}]")


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

    def to_json(self) -> dict:
        return {"blocks": [int(d) for d in self.blocks], "dim": int(self.dim), "seed": int(self.seed)}


class _Unstable(Exception):
    pass


def _components(n: int, u: np.ndarray, v: np.ndarray, w: np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Union-find over range(n) with potentials mod q along the links pot[v] =
    pot[u] + w: root[x] is the least index of x's component and pot[x] is
    relative to it.  Each round points every index at its root by pointer
    jumping, then hooks each root that a link joins to a smaller root onto the
    least of those, so roots only decrease and the hooks form no cycle."""
    root, pot = np.arange(n), np.zeros(n, dtype=np.int64)
    while True:
        while (root[root] != root).any():
            root, pot = root[root], (pot + pot[root]) % q
        ru, rv = root[u], root[v]
        cross = ru != rv
        if not cross.any():
            return root, pot
        u, v, w, ru, rv = u[cross], v[cross], w[cross], ru[cross], rv[cross]
        step = (pot[u] + w - pot[v]) % q  # pot[rv] - pot[ru]
        up = rv > ru
        hi, lo, off = np.where(up, rv, ru), np.where(up, ru, rv), np.where(up, step, -step % q)
        order = np.lexsort((lo, hi))
        first = order[np.unique(hi[order], return_index=True)[1]]
        root[hi[first]], pot[hi[first]] = lo[first], off[first]


def _center(A: StarAlgebra) -> tuple[np.ndarray, np.ndarray]:
    """The center of A, exactly, as phased class sums: (comp, pot) such that
    the z_C = sum of e^(2 pi i pot[t] / q) b_t over comp[t] = C, for C in
    range(k), are a basis of it; comp is -1 off these k components.

    For z = sum_t c_t b_t, the coefficient of b_s in b_i z = z b_i equates
    c_t e(a) with c_t' e(b) where b_i b_t = e(a) b_s and b_t' b_i = e(b) b_s,
    or reads c_t = 0 (or c_t' = 0) when only one side reaches b_s; as no two
    basis matrices share a position, at most one t and one t' reach it.  The
    links join the basis into components, and one carries a central element
    exactly when no member is forced to 0 and every cycle closes with phase 1."""
    n, q = A.dim, A.q
    pair, s, coef = A.structure
    x, y = np.divmod(pair, n)
    # b_x b_y = e(coef) b_s is the term of c_y in b_x z at key (x, s), and of c_x in z b_y at key (y, s)
    left, right = x * n + s, y * n + s
    order = np.argsort(right)
    at = order[np.searchsorted(right, left, sorter=order).clip(max=len(right) - 1)]
    linked = right[at] == left
    u, v, w = y[linked], x[at[linked]], (coef[linked] - coef[at[linked]]) % q
    root, pot = _components(n, u, v, w, q)
    reached = np.zeros(len(right), dtype=bool)
    reached[at[linked]] = True
    broken = (pot[u] + w - pot[v]) % q != 0
    bad = np.zeros(n, dtype=bool)
    bad[root[np.concatenate([y[~linked], x[~reached], u[broken]])]] = True
    lead = (root == np.arange(n)) & ~bad
    return np.where(lead[root], np.cumsum(lead)[root] - 1, -1), pot


def block_profile(A: StarAlgebra, seed: int = 0) -> BlockProfile:
    """Simple block dimensions, from the exact center.

    The class sums z_C of _center multiply as z_C z_D = sum_E g[C, D, E] z_E.
    The primitive central idempotents e_i are the eigenvectors of
    multiplication by a random real z = sum_C r_C z_C, in these k
    coordinates.  An eigenvector v = c e_i has c = Tr_Z(L_v), the trace of
    multiplication by v on the center, and Tr_A(L_v) = c d_i^2 on A, so
    d_i^2 = Tr_A(L_v) / Tr_Z(L_v).  Each of the k ratios must lie within 1e-6
    of a positive square, and they must sum to dim A; otherwise a fresh z is
    drawn, and MAX_RETRIES failures raise DecompositionUnstableError.
    """
    n, q = A.dim, A.q
    comp, pot = _center(A)
    k = int(comp.max()) + 1
    pair, s, coef = A.structure
    t, u = np.divmod(pair, n)
    # z_C z_D holds g[C, D, E] e(pot[s]) at each b_s of z_E, so g is the mean over E's members
    on = (comp[t] >= 0) & (comp[u] >= 0) & (comp[s] >= 0)
    C, D, E = comp[t[on]], comp[u[on]], comp[s[on]]
    size = np.bincount(comp[comp >= 0], minlength=k)
    g = _phase((pot[t[on]] + pot[u[on]] + coef[on] - pot[s[on]]) % q / q) / size[E]
    # the traces of multiplication by z_C on the center, and on A, where each b_t b_j = e(a) b_j adds e(a)
    on_center = _bincount_complex(C[D == E], g[D == E], k)
    diag = (u == s) & (comp[t] >= 0)
    on_algebra = _bincount_complex(comp[t[diag]], _phase((pot[t[diag]] + coef[diag]) % q / q), k)
    rng = np.random.default_rng(seed)
    last = "no attempts ran"
    for _ in range(MAX_RETRIES):
        try:
            r = rng.standard_normal(k)
            V = np.linalg.eig(_bincount_complex(E * k + D, r[C] * g, k * k).reshape(k, k))[1]
            square = (on_algebra @ V) / (on_center @ V)
            near = np.rint(square.real)
            if not np.abs(square - near).max(initial=0.0) <= 1e-6:  # a NaN fails too
                raise _Unstable("a block rank is not an integer")
            ranks = near.astype(np.int64).tolist()
            if any(rank < 1 or isqrt(rank) ** 2 != rank for rank in ranks):
                raise _Unstable("a block rank is not a positive square")
            if sum(ranks) != n:
                raise _Unstable("block ranks do not sum to the dimension")
            return BlockProfile(tuple(sorted(isqrt(rank) for rank in ranks)), n, seed)
        except (_Unstable, np.linalg.LinAlgError) as exc:
            last = str(exc)
    raise DecompositionUnstableError(f"block decomposition failed after {MAX_RETRIES} attempts: {last}")


# ---------------------------------------------------------------------------
# twisted systems and crossed products


class TwistedSystem:
    """A finite group acting on a StarAlgebra up to a unitary 2-cocycle, every
    phase a numerator over one q, the lcm of the given q and the algebra's.

    alpha_s permutes the basis up to phases, alpha_s(b_i) = e^(2 pi i
    phase[s, i] / q) b_{target[s, i]}, each row of target a permutation of
    range(n); omega[s, t] holds the coordinate numerators of a monomial
    unitary in A, EMPTY for a zero coordinate.  The axioms (identity fixed,
    unit cocycle on the axes, the Ad-twisted composition law, the cocycle
    condition, and that each alpha_s is a *-automorphism, which must carry
    the structure constants and the adjoint table onto themselves) are
    integer identities, checked at construction.
    """

    def __init__(self, algebra: StarAlgebra, group: FiniteGroup, target, phase, omega, q: int):
        self.algebra, self.group, self.q = algebra, group, _lcm(int(q), algebra.q)
        f, n = group.order, algebra.dim
        self.target = np.asarray(target, dtype=np.int64)
        self.phase = _lift(_checked(phase, int(q), empty=False), int(q), self.q)
        self.omega = _lift(_checked(omega, int(q), empty=True), int(q), self.q)
        if self.target.shape != (f, n) or self.phase.shape != (f, n) or self.omega.shape != (f, f, n):
            raise ValueError(f"target and phase must have shape {(f, n)}, omega {(f, f, n)}")
        if not np.array_equal(np.sort(self.target, axis=1), np.broadcast_to(np.arange(n), (f, n))):
            raise ValueError("every row of target must be a permutation of the basis")
        if algebra.unit is None:
            raise ValueError("twisted systems need a unital coefficient algebra")
        self._validate()

    def image(self, s, i, extra=0) -> RowMaps:
        """Row maps of e^(2 pi i extra / q) alpha_s(b_i); s, i and extra broadcast."""
        A, t = self.algebra, self.target[s, i]
        phase = (self.phase[s, i] + extra) % self.q
        return RowMaps(A.col[t], _add(_lift(A.num[t], A.q, self.q), phase[..., None], self.q), self.q)

    def act(self, r, coords) -> np.ndarray:
        """Coordinate numerators [r, ..., :] of alpha_r(x), r an index array, x a stack (..., n)."""
        inv = np.argsort(self.target[r], axis=1)  # alpha_r(b_inv[r, u]) is a multiple of b_u
        moved = _add(np.asarray(coords)[..., inv], np.take_along_axis(self.phase[r], inv, axis=1), self.q)
        return np.moveaxis(moved, -2, 0)

    def _validate(self):
        A, F, q = self.algebra, self.group, self.q
        f, n, D, mul = F.order, A.dim, A.rep_dim, F.table
        if not np.array_equal(self.target[0], np.arange(n)) or self.phase[0].any():
            raise VerificationError("alpha at the identity is not the identity map")
        if (np.concatenate([self.omega[:, 0], self.omega[0]]) != _lift(A.unit, A.q, q)).any():
            raise VerificationError("omega is not the unit along the identity row/column")
        W = A.elements(self.omega, q)  # W[s, t] = omega(s, t), unitary when it fills every row
        _fail_first((W.num == EMPTY).any(axis=-1), "omega({},{}) is not unitary")
        for S in _chunks(f, f * n * D):
            # alpha_s alpha_t (b_i) = omega(s,t) alpha_st(b_i) omega(s,t)*, over [s, t, i]
            twice = self.image(S[:, None, None], self.target, self.phase)
            conj = W[S, :, None] @ self.image(mul[S][..., None], np.arange(n)) @ W[S, :, None].H
            _fail_first(~twice.same(conj).all(axis=2), "composition axiom fails at ({},{})", S[0])
        for R in _chunks(f, f * f * (n + D)):
            # alpha_r(omega(s,t)) omega(r,st) = omega(r,s) omega(rs,t), over [r, s, t]
            lhs = A.elements(self.act(R, self.omega), q) @ W[R[:, None, None], mul]
            _fail_first(~lhs.same(W[R, :, None] @ W[mul[R]]), "cocycle axiom fails at ({},{},{})", R[0])
        # alpha_s is a *-automorphism when it carries every product b_i b_j, with
        # coef at b_t, to alpha_s(b_i) alpha_s(b_j) and every adjoint likewise
        (pair, t, c), (akey, ac) = A.structure, A.adjoints
        c, ac = _lift(c, A.q, q), _lift(ac, A.q, q)
        key, (i, j), (ai, at) = pair * n + t, np.divmod(pair, n), np.divmod(akey, n)
        for S in _chunks(f, len(key) + len(akey)):
            T, p = self.target[S], self.phase[S]
            mult = _carried(key, c, (T[:, i] * n + T[:, j]) * n + T[:, t], c + p[:, t] - p[:, i] - p[:, j], q)
            star = _carried(akey, ac, T[:, ai] * n + T[:, at], ac + p[:, at] + p[:, ai], q)
            fault = np.where(mult, "does not preserve the adjoint", "is not multiplicative")
            for s in np.flatnonzero(~(mult & star))[:1]:
                raise VerificationError(f"alpha({S[s]}) {fault[s]}")


def _ranges(start: np.ndarray, length: np.ndarray) -> np.ndarray:
    """The ranges range(s, s + l) for each s, l of two index arrays, concatenated."""
    return np.arange(length.sum()) + np.repeat(start - np.cumsum(length) + length, length)


def _chunks(f: int, entries: int):
    """Index arrays covering range(f), of about _CHUNK entries at so many per index."""
    step = max(1, _CHUNK // max(1, entries))
    return (np.arange(s0, min(f, s0 + step)) for s0 in range(0, f, step))


def _carried(key, coef, moved_key, moved_coef, q: int) -> np.ndarray:
    """For each row of moved_key: whether the table (key, coef), sorted by key,
    holds moved_coef mod q at each of these keys, as many as its own."""
    at = np.searchsorted(key, moved_key).clip(max=len(key) - 1)
    return ((key[at] == moved_key) & ((coef[at] - moved_coef) % q == 0)).all(axis=-1)


def _fail_first(bad: np.ndarray, message: str, offset: int = 0):
    """Raise for the first index where bad holds, row-major; axis 0 counts from offset."""
    hit = np.argwhere(bad)
    if len(hit):
        raise VerificationError(message.format(hit[0][0] + offset, *hit[0][1:]))


def _realized(A: StarAlgebra, rows: RowMaps, coords: np.ndarray) -> np.ndarray:
    """Float entries of a stack of elements sum_u c_u b_u with full rows, from
    float coordinates c_u: row r holds c_u times b_u's entry there."""
    r = np.arange(A.rep_dim)
    u = A._owner[r, rows.col]
    return np.take_along_axis(coords, u, axis=-1) * _phase(A.num[u, r] / A.q)


def scalar_system(F: FiniteGroup, omega: Cocycle2) -> TwistedSystem:
    """C as coefficients, trivial action, scalar cocycle (normalized first)."""
    if not np.array_equal(F.table, omega.group.table):
        raise ValueError("cocycle lives on a different group")
    omega, _ = normalize(omega)
    f = F.order
    return TwistedSystem(scalar_algebra(), F, np.zeros((f, 1)), np.zeros((f, 1)), omega.num[:, :, None], omega.q)


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
    check_twist_cap(N.order)  # the coefficient algebra C[N], before it is built
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
    c = np.asarray(lift, dtype=np.int64)[:, None]  # c(s) down the rows
    # alpha_s(u_n) = sigma(c, n) sigma(cn, c^-1) u_{c n c^-1}
    cn, cinv = tbl[c, emb], inv[c]
    phase = (num[c, emb] + num[cn, cinv]) % sigma.q
    # omega(s, t) = sigma(c(s), c(t)) sigma(c(s)c(t), c(st)^-1) u_{c(s) c(t) c(st)^-1}
    cc, cst_inv = tbl[c, c.T], inv[c.ravel()[Q.table]]
    omega = np.full((Q.order, Q.order, nn), EMPTY)
    s, t = np.indices(Q.table.shape)
    omega[s, t, pos[tbl[cc, cst_inv]]] = (num[c, c.T] + num[cc, cst_inv]) % sigma.q
    return TwistedSystem(B, Q, pos[tbl[cn, cinv]], phase, omega, sigma.q)


def crossed_product(sys: TwistedSystem) -> StarAlgebra:
    """The twisted crossed product, on l^2(F) with A-valued vectors:

        (pi(a) xi)(g)   = alpha_{g^-1}(a) xi(g)
        (lambda_s xi)(g) = omega(g^-1, s) xi(s^-1 g)

    Basis pi(b_i) lambda_s at index i*|F| + s; dimension dim(A) * |F|."""
    A, F = sys.algebra, sys.group
    f, n, D = F.order, A.dim, A.rep_dim
    check_crossed_cap(n * f)
    # block row g of pi(b_i) lambda_s is alpha_{g^-1}(b_i) omega(g^-1, s), in block column s^-1 g
    ginv = F.inverse[None, None, :]
    rows = sys.image(ginv, np.arange(n)[:, None, None]) @ A.elements(sys.omega, sys.q)[ginv, np.arange(f)[:, None]]
    col = rows.col + D * F.table[F.inverse][..., None]  # [i, s, g, a]: row g * D + a of basis i * f + s
    return StarAlgebra(col.reshape(n * f, -1), rows.num.reshape(n * f, -1), rows.q, label=f"{A.label} x {F.name}")


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
    return _translation_algebra(c, chi[G.table[g_rb, G.inverse[reps[c]]]], q, f"C[{G.name}]@chi")


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
    m, k, nB = G.order, len(t), B.dim
    check_crossed_cap(k * nB * m)
    tbl, inv, g, x = G.table, G.inverse, np.arange(m)[:, None], np.arange(k)
    pos = np.zeros(m, dtype=np.int64)
    pos[emb] = np.arange(len(emb))
    # g t_x = t_{gx} kappa(g, x) with kappa(g, x) in H, indexed [g, x]
    gx = number[tbl[g, t]]
    kappa = pos[tbl[tbl[inv[t[gx]], g], t]]
    # b_i in diagonal block x, at index x * nB + i, and alpha_g(e_x (x) b_i) = e_gx (x) alpha_kappa(g,x)(b_i)
    A = tensor_algebra(StarAlgebra(np.diag(x), np.eye(k) + EMPTY, 1, label=f"C^{k}"), B)  # 0 on the diagonal
    target = (gx[:, :, None] * nB + sys.target[kappa]).reshape(m, k * nB)
    # omega(g1, g2) on block x: kappa(g1, y1) with y1 = g1^-1 x, kappa(g2, y2) with y2 = g2^-1 y1
    y1 = number[tbl[inv[:, None], t]]
    y2 = number[tbl[inv[None, :, None], t[y1][:, None, :]]]
    omega = sys.omega[kappa[g, y1][:, None, :], kappa[g, y2]]  # g broadcasts over the g2 axis
    induced = TwistedSystem(A, G, target, sys.phase[kappa].reshape(m, k * nB), omega.reshape(m, m, k * nB), sys.q)
    ambient = block_profile(crossed_product(induced), seed)
    small = block_profile(crossed_product(sys), seed)
    expected = tuple(sorted(d * k for d in small.blocks))
    if ambient.blocks != expected:
        raise VerificationError(
            f"imprimitivity mismatch: ambient {ambient.blocks}, compressed {small.blocks}, index {k}"
        )
    return {
        "ambient_profile": list(ambient.blocks),
        "compressed_profile": list(small.blocks),
        "index": k,
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
    x_beta F must have the same profile.  The blocks are checked exactly;
    sigma_deviation reports how far their float realization is from 1."""
    A, F = sys.algebra, sys.group
    f, n, D, q = F.order, A.dim, A.rep_dim, sys.q
    check_crossed_cap(n * f**3)  # the crossed product of the stabilized system
    mul, W = F.table, A.elements(sys.omega, q)
    s, t, g = np.ogrid[:f, :f, :f]
    moved = A.elements(sys.act(np.arange(f), sys.omega), q)  # [s, t, g]: alpha_s(omega(t, g))
    factors = [W[s, mul[t, g]].H, moved.H, W[s, t], W[mul[s, t], g]]
    blocks = factors[0] @ factors[1] @ factors[2] @ factors[3]
    _fail_first(~blocks.same(RowMaps(np.arange(D), np.zeros(D, dtype=np.int64), q)), "cocycle is not 1 at ({},{},{})")
    # the reported float: row r of an element holds its coordinate's phase times the
    # basis entry's, alpha_s takes its phase into the coordinates first, an adjoint
    # conjugates, and the blocks multiply these along their rows, left to right
    w, inv = _phase(sys.omega / q), np.argsort(sys.target, axis=1)  # alpha_s(b_inv[s, u]) ~ b_u
    Wf = _realized(A, W, w)
    Mf = _realized(A, moved, np.moveaxis(w[..., inv] * _phase(np.take_along_axis(sys.phase, inv, 1) / q), -2, 0))
    entries = [Wf[s, mul[t, g]], Mf, Wf[s, t], Wf[mul[s, t], g]]
    entries[:2] = [np.conj(np.take_along_axis(v, f.col, -1)) for v, f in zip(entries[:2], factors)]  # adjoints
    val, col = entries[0], factors[0].col
    for rows, v in zip(factors[1:], entries[1:]):
        val, col = val * np.take_along_axis(v, col, -1), np.take_along_axis(rows.col, col, -1)
    sigma_dev = float(np.abs(val - 1).max())
    # beta_s(b_i (x) E_kl) over [s, i, k, l], read off in A and placed at E_{sk, sl}
    s, i, k, l = np.ogrid[:f, :n, :f, :f]
    found = A._coords(W[s, k].H @ sys.image(s, i) @ W[s, l])
    if found is None or not np.array_equal(found[0] // n, np.arange(f * n * f * f)):
        raise VerificationError("stabilized action is not a phased basis permutation")
    (key, coef), big = found, tensor_algebra(A, matrix_algebra(f))
    target = (key % n).reshape(f, n, f, f) * f * f + mul[s, k] * f + mul[s, l]
    unit = np.broadcast_to(_lift(big.unit, big.q, q), (f, f, big.dim))
    stab = TwistedSystem(big, F, target.reshape(f, -1), coef.reshape(f, -1), unit, q)
    right = block_profile(crossed_product(stab), seed)
    small = block_profile(crossed_product(sys), seed)
    # tensoring with M_f scales every block by f: the twisted-then-tensor profile
    left = tuple(sorted(d * f for d in small.blocks))
    if left != right.blocks:
        raise VerificationError(f"stabilization mismatch: twisted-then-tensor {left}, untwisted {right.blocks}")
    return {
        "twisted_profile": list(small.blocks),
        "tensored_profile": list(left),
        "stabilized_profile": list(right.blocks),
        "sigma_deviation": sigma_dev,
        "matches": True,
    }
