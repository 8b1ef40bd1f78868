"""Low-degree homology of a finite group from its bar complex.

C_n is the free abelian group on n-tuples of group elements (lexicographic
basis order), with boundaries

    d2(g1, g2)     = (g1) - (g1 g2) + (g2)
    d3(g1, g2, g3) = (g2, g3) - (g1 g2, g3) + (g1, g2 g3) - (g1, g2)

H1 = C1 / im(d2) and H2 = ker(d2) / im(d3); both are finite here.

A boundary is stored as its faces: the flat indices of the k + 1 faces of
each k-tuple, with alternating signs.  M @ d is then a signed gather of the
columns of M, and a dense boundary is that gather on an identity.

h1 and h2 return invariant factors only.  They use the normalized complex,
which drops every tuple containing the identity (and every face landing
on one), and read the torsion of the cokernel prime by prime from local
Smith forms over Z/p^(e+1), for each p^e exactly dividing |G|.

The exact path works on the full complex: h2_presentation gives cycle
representatives and H2 coordinates in the pair basis, make_splitting a
splitting sigma of d2 onto its image, the induced projection pi = id -
sigma d2 onto the cycle lattice, and its reduction pibar to H2
coordinates, which downstream code feeds into extension and
twisted-algebra constructions.  It solves no linear system: the column
Hermite form d2 @ V = [B | 0] gives V = [S | K] and V^-1 = [T; Y] (cycle
basis K, kernel coordinates Y @ c, d2 = B @ T, preimages S), and the Smith
form of the boundary lattice in K coordinates gives U, whose rows reduce
to H2, and U^-1, whose columns lift H2 generators to cycles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import intlin
from .errors import ResourceCapError, VerificationError
from .groups import FiniteGroup

_ORDER_CAP = 24


@dataclass(frozen=True)
class ChainData:
    """Bar-complex boundaries of one group.

    d2 is the dense (m, m^2) matrix.  d3_faces is the (4, m^3) face array
    of d3 (see _faces): the basis pair at flat index i*m + j is (g_i, g_j),
    and likewise for triples.
    """

    group: FiniteGroup
    d2: np.ndarray
    d3_faces: np.ndarray

    @property
    def m(self) -> int:
        return self.group.order

    @property
    def d3(self) -> np.ndarray:
        """The dense (m^2, m^3) d3, read-only, realized from d3_faces on each
        access; nothing in this module reads it."""
        d3 = _dense(self.d3_faces, self.m**2)
        d3.setflags(write=False)
        return d3


def check_bar_cap(order: int) -> None:
    """Refuse the bar complex of a group above order _ORDER_CAP, before it is built."""
    if order > _ORDER_CAP:
        raise ResourceCapError(f"bar complex capped at order {_ORDER_CAP}, got {order}")


def _faces(tbl: np.ndarray, k: int, lo: int) -> np.ndarray:
    """The k + 1 faces of d_k on the k-tuples of elements with index >= lo
    (element g at position g - lo): row i, sign (-1)^i, holds the flat index
    of face i of each k-tuple.  Face 0 drops the first element, face i
    multiplies elements i and i + 1, face k drops the last.  A face holding
    an element below lo is dropped, stored as -1: lo = 0 gives the full bar
    complex, lo = 1 the normalized one."""
    n = len(tbl) - lo
    # a product below lo counts -n^(k-1), which makes its face's flat index negative
    prod = np.where(tbl[lo:, lo:] < lo, -(n ** (k - 1)), tbl[lo:, lo:] - lo)
    g = list(np.indices((n,) * k).reshape(k, -1))
    faces = [g[1:], *(g[:i] + [prod[g[i], g[i + 1]]] + g[i + 2 :] for i in range(k - 1)), g[:-1]]
    out = np.zeros((k + 1, n**k), dtype=np.int64)
    for row, face in zip(out, faces):
        for a in face:
            row[:] = row * n + a
    return np.maximum(out, -1, out=out)


def _times_boundary(M: np.ndarray, faces: np.ndarray) -> np.ndarray:
    """M @ d for the boundary d with these faces: the signed sum of the columns
    of M at each face, in M's dtype; a dropped face (-1) reads an appended zero column."""
    padded = np.concatenate([M, np.zeros((len(M), 1), dtype=M.dtype)], axis=1)
    out = padded[:, faces[0]]
    for i, face in enumerate(faces[1:], 1):
        (np.subtract if i % 2 else np.add)(out, padded[:, face], out=out)
    return out


def _dense(faces: np.ndarray, n: int) -> np.ndarray:
    """The dense int64 boundary matrix with these faces, on n basis tuples."""
    return _times_boundary(np.eye(n, dtype=np.int64), faces)


def build_chain(G: FiniteGroup) -> ChainData:
    """Bar-complex boundaries; verifies d2 @ d3 = 0."""
    check_bar_cap(G.order)
    d2 = _dense(_faces(G.table, 2, 0), G.order)
    d3_faces = _faces(G.table, 3, 0)
    if np.any(_times_boundary(d2, d3_faces)):
        raise VerificationError("d2 @ d3 != 0")
    d2.setflags(write=False)
    d3_faces.setflags(write=False)
    return ChainData(G, d2, d3_faces)


@dataclass(frozen=True)
class H2Presentation:
    """H2 = Z2/B2 in invariant-factor coordinates.

    kernel: columns form a basis of the cycle lattice Z2 in C2 coordinates.
    invariant_factors: the d_i >= 2 of H2 = sum of Z/d_i.
    reduce_rows: matrix W; a cycle with kernel coordinates w has H2
        coordinates (W @ w) mod d, componentwise.
    cycles: one representative 2-cycle per invariant factor (C2 coords),
        chosen so cycle i has H2 coordinates e_i.
    d2_reduction: column_hnf(d2) = (H, V, Vinv, pivots), with V = [S | kernel]
        and Vinv = [T; Y] split at the rank of d2; Y @ c gives the kernel
        coordinates of a cycle c, and T gives d2 in the basis H[:, :rank].
    """

    chain: ChainData
    kernel: np.ndarray
    d2_reduction: tuple
    invariant_factors: tuple[int, ...]
    reduce_rows: np.ndarray
    cycles: np.ndarray


def h2_presentation(chain: ChainData) -> H2Presentation:
    reduction = intlin.column_hnf(chain.d2)
    for arr in reduction:
        arr.setflags(write=False)
    _, V, Vinv, pivots = reduction
    K = V[:, len(pivots) :]
    z = K.shape[1]
    # boundary columns in kernel coordinates; repeated and zero columns
    # leave the (unique, reduced) Hermite basis of their lattice unchanged
    X = _times_boundary(Vinv[len(pivots) :], chain.d3_faces)
    D, U, Uinv = intlin.smith_cokernel(intlin.hermite_basis(X))
    diag = [int(D[i, i]) for i in range(min(D.shape))] + [0] * (z - min(D.shape))
    if any(d == 0 for d in diag):
        raise VerificationError("H2 of a finite group must be finite")
    rho = [i for i, d in enumerate(diag) if d >= 2]
    return H2Presentation(
        chain=chain,
        kernel=K,
        d2_reduction=reduction,
        invariant_factors=tuple(diag[i] for i in rho),
        reduce_rows=U[rho, :],
        cycles=intlin.exact_matmul(K, Uinv[:, rho]),
    )


def _prime_powers(m: int) -> list[tuple[int, int]]:
    """(p, e) for every p^e exactly dividing m."""
    out = []
    p = 2
    while m > 1:
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        if e:
            out.append((p, e))
        p += 1
    return out


def _finite_cokernel(M: np.ndarray, m: int, rank: int) -> intlin.AbelianInvariants:
    """Torsion of coker(M) for a boundary matrix of a group of order m.

    The nonzero Smith entries of M are 1 or invariant factors of that
    torsion (H1 or H2 here), whose exponent divides m.  So for each p^e
    exactly dividing m the local Smith form over Z/p^(e+1) sees all of
    them: its valuations give the p-part, and its pivot count must equal
    the given rank of M.
    """
    orders = []
    for p, e in _prime_powers(m):
        vals = intlin.local_smith_valuations(M, p, e + 1)
        if len(vals) != rank:
            raise VerificationError(f"{len(vals)} pivots mod {p}^{e + 1}, expected rank {rank}")
        orders.extend(p**v for v in vals if v)
    return intlin.invariants_from_orders(orders)


def h1(G: FiniteGroup) -> intlin.AbelianInvariants:
    """C1 / im(d2) on the normalized bar complex (d1 = 0, so this is H1);
    coincides with the abelianization of G."""
    m = G.order
    check_bar_cap(m)
    return _finite_cokernel(_dense(_faces(G.table, 2, 1), m - 1), m, m - 1)


def h2(G: FiniteGroup) -> intlin.AbelianInvariants:
    """H2 as the torsion of coker(d3) on the normalized bar complex.

    C2 / Z2 is isomorphic to the free group B1, so coker(d3) = H2 + free,
    and rank(d3) = rank(Z2) = (m-1)^2 - (m-1) because H1 and H2 are
    finite.  The prime-by-prime local Smith forms of d3 (repeated columns
    change nothing) give H2 exactly.
    """
    m = G.order
    check_bar_cap(m)
    d2 = _dense(_faces(G.table, 2, 1), m - 1)
    faces = _faces(G.table, 3, 1)
    if np.any(_times_boundary(d2, faces)):
        raise VerificationError("d2 @ d3 != 0")
    return _finite_cokernel(_dense(faces, (m - 1) ** 2), m, (m - 1) * (m - 2))


@dataclass(frozen=True)
class SplittingData:
    """A splitting sigma of d2 over its image, with the induced projection.

    b1_basis columns span B1 = im(d2) in C1 coordinates; sigma columns are
    their chosen preimages in C2, so d2 @ sigma = b1_basis.  pi = id -
    sigma_after_d2 projects C2 onto the cycle lattice, and pibar_matrix
    reduces that to H2: the class of basis pair c is pibar_matrix[:, c]
    mod the invariant factors.
    """

    chain: ChainData
    h2: H2Presentation
    seed: int | None
    b1_basis: np.ndarray
    sigma: np.ndarray
    pi: np.ndarray
    pibar_matrix: np.ndarray
    delta_coeffs: np.ndarray
    d2_in_b1: np.ndarray

    @property
    def pibar_table(self) -> np.ndarray:
        """(k, m, m) array of reduced H2 coordinates per basis pair."""
        d = np.array(self.h2.invariant_factors, dtype=np.int64)
        k = len(self.h2.invariant_factors)
        m = self.chain.m
        if k == 0:
            return np.zeros((0, m, m), dtype=np.int64)
        red = np.mod(self.pibar_matrix, d.reshape(-1, 1))
        return np.asarray(red, dtype=np.int64).reshape(k, m, m)


def make_splitting(
    chain: ChainData,
    seed: int | None = None,
    presentation: H2Presentation | None = None,
) -> SplittingData:
    """Choose preimages of the boundary lattice B1 under d2.

    The default is the Hermite-canonical choice; with a seed, a
    pseudo-random element of Hom(B1, Z2) with entries in [-2, 2] is added,
    which still splits because d2 kills the cycle lattice.  All defining
    identities are verified before returning.  Pass a precomputed
    presentation when drawing many splittings of one chain.
    """
    pres = presentation if presentation is not None else h2_presentation(chain)
    if presentation is not None and not np.array_equal(
        presentation.chain.group.table, chain.group.table
    ):
        raise ValueError("presentation belongs to a different chain")
    K = pres.kernel
    z = K.shape[1]
    Hd2, Vd2, Vinv, piv2 = pres.d2_reduction
    rb = len(piv2)
    Hb = Hd2[:, :rb]
    S = Vd2[:, :rb]
    T = Vinv[:rb]  # d2 in B1 coordinates: d2 = Hb @ T
    if seed is None:
        R = np.zeros((z, rb), dtype=np.int64)
    else:
        rng = np.random.default_rng(seed)
        R = rng.integers(-2, 3, size=(z, rb))
        S = S + intlin.exact_matmul(K, R)
    if not np.array_equal(intlin.exact_matmul(chain.d2, S), Hb):
        raise VerificationError("sigma does not split d2")
    pi = np.eye(chain.m**2, dtype=np.int64) - intlin.exact_matmul(S, T)
    if np.any(intlin.exact_matmul(chain.d2, pi)):
        raise VerificationError("pi does not land in the cycle lattice")
    # kernel coordinates of pi = id - (S0 + K R) T, since Y S0 = 0, Y K = I
    P = Vinv[rb:] - intlin.exact_matmul(R, T)
    pibar = intlin.exact_matmul(pres.reduce_rows, P)
    d = np.array(pres.invariant_factors, dtype=object).reshape(-1, 1)
    if np.any(np.mod(_times_boundary(pibar, chain.d3_faces), d)):
        raise VerificationError("pibar does not kill boundaries")
    return SplittingData(
        chain=chain,
        h2=pres,
        seed=seed,
        b1_basis=Hb,
        sigma=S,
        pi=pi,
        pibar_matrix=pibar,
        delta_coeffs=R,
        d2_in_b1=T,
    )
