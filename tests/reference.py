"""Reference computations the tests compare the library against.

Each reads the library's contract objects or checks one of the paper's
identities, and no library code needs it: the dense bar-complex builders
and the dense H2 presentation path the face form replaced, H2 coordinates
of a cycle from an H2Presentation, the class of a cocycle as a character of H2, the
characters of an abelian subgroup, the lifted-product cocycle sigma_chi,
and the fiber decomposition of C[G] over a central subgroup, whose
profiles must match the twisted algebras of the quotient.
"""

from math import lcm

import numpy as np

from twistkit import intlin
from twistkit.cocycles import Character, Cocycle2, central_character
from twistkit.errors import InvalidGroupError, VerificationError
from twistkit.groups import FiniteGroup, Subgroup, element_orders, generated_subgroup, mixed_radix, quotient
from twistkit.homology import ChainData, H2Presentation, SplittingData, build_chain, h2_presentation
from twistkit.staralg import StarAlgebra, block_profile, cutdown_fiber, twisted_group_algebra


def bar_d2(tbl: np.ndarray, lo: int) -> np.ndarray:
    """d2 on the pairs of elements with index >= lo, faces below lo dropped.

    lo = 0 gives the full bar complex, lo = 1 the normalized one (no tuple
    contains the identity); element i sits at position i - lo.
    """
    n = len(tbl) - lo
    el = np.arange(lo, len(tbl))
    g1, g2 = np.repeat(el, n), np.tile(el, n)
    cols = np.arange(n * n)
    d2 = np.zeros((n, n * n), dtype=np.int64)
    for sign, face in ((1, g1), (-1, tbl[g1, g2]), (1, g2)):
        keep = face >= lo
        np.add.at(d2, (face[keep] - lo, cols[keep]), sign)
    return d2


def bar_d3(tbl: np.ndarray, lo: int) -> np.ndarray:
    """d3 on the triples of elements with index >= lo, as bar_d2."""
    n = len(tbl) - lo
    el = np.arange(lo, len(tbl))
    h1 = np.repeat(el, n * n)
    h2 = np.tile(np.repeat(el, n), n)
    h3 = np.tile(el, n * n)
    cols = np.arange(n**3)
    d3 = np.zeros((n * n, n**3), dtype=np.int64)
    faces = ((1, h2, h3), (-1, tbl[h1, h2], h3), (1, h1, tbl[h2, h3]), (-1, h1, h2))
    for sign, a, b in faces:
        keep = (a >= lo) & (b >= lo)
        np.add.at(d3, ((a[keep] - lo) * n + b[keep] - lo, cols[keep]), sign)
    return d3


def distinct_columns(d3: np.ndarray) -> np.ndarray:
    """The nonzero columns of d3, each once: the others add nothing to the
    image.  Columns are compared as int8 byte strings (entries are in
    [-4, 4]), in order of first occurrence."""
    cols = np.ascontiguousarray(d3.T, dtype=np.int8)
    nonzero = np.flatnonzero(cols.any(axis=1))
    cols = cols[nonzero]
    keys = cols.view(np.dtype((np.void, cols.shape[1]))).ravel()
    _, first = np.unique(keys, return_index=True)
    return d3[:, nonzero[np.sort(first)]]


def dense_presentation(chain: ChainData) -> H2Presentation:
    """h2_presentation on the dense boundaries: column_hnf of bar_d2, and
    X = Y @ d3 by exact_matmul over the distinct nonzero columns of bar_d3."""
    tbl = chain.group.table
    reduction = intlin.column_hnf(bar_d2(tbl, 0))
    _, V, Vinv, pivots = reduction
    K = V[:, len(pivots) :]
    z = K.shape[1]
    X = intlin.exact_matmul(Vinv[len(pivots) :], distinct_columns(bar_d3(tbl, 0)))
    D, U, Uinv = intlin.smith_cokernel(intlin.hermite_basis(X))
    diag = [int(D[i, i]) for i in range(min(D.shape))] + [0] * (z - min(D.shape))
    rho = [i for i, d in enumerate(diag) if d >= 2]
    factors = tuple(diag[i] for i in rho)
    return H2Presentation(chain, K, reduction, factors, U[rho, :], intlin.exact_matmul(K, Uinv[:, rho]))


def dense_pibar(pres: H2Presentation, seed: int) -> np.ndarray:
    """pibar_matrix of make_splitting(pres.chain, seed) from a presentation,
    asserting with exact_matmul that it kills the columns of the dense d3."""
    _, _, Vinv, pivots = pres.d2_reduction
    rb = len(pivots)
    R = np.random.default_rng(seed).integers(-2, 3, size=(pres.kernel.shape[1], rb))
    pibar = intlin.exact_matmul(pres.reduce_rows, Vinv[rb:] - intlin.exact_matmul(R, Vinv[:rb]))
    d = np.array(pres.invariant_factors, dtype=object).reshape(-1, 1)
    boundary_classes = intlin.exact_matmul(pibar, bar_d3(pres.chain.group.table, 0))
    assert not np.any(np.mod(np.asarray(boundary_classes, dtype=object), d))
    return pibar


def h2_coordinates(pres: H2Presentation, cycle_vec) -> tuple[int, ...]:
    """H2 class of a 2-cycle given in C2 coordinates, read through the
    kernel coordinates of the d2 reduction and reduce_rows; ValueError
    unless d2 kills it."""
    c = np.asarray(cycle_vec).reshape(-1, 1)
    if np.any(intlin.exact_matmul(pres.chain.d2, c)):
        raise ValueError("the chain is not a 2-cycle")
    _, _, Vinv, pivots = pres.d2_reduction
    w = intlin.exact_matmul(Vinv[len(pivots) :], c)
    raw = intlin.exact_matmul(pres.reduce_rows, w)[:, 0]
    return tuple(int(r) % d for r, d in zip(raw, pres.invariant_factors))


def induced_character(omega: Cocycle2, split) -> Character:
    """The class of omega as a character of H2, via pairing with the
    representative 2-cycles.  Well-defined because a cocycle kills
    boundaries, and independent of the splitting."""
    pres: H2Presentation = split.h2 if isinstance(split, SplittingData) else split
    if not np.array_equal(pres.chain.group.table, omega.group.table):
        raise ValueError("cocycle and presentation live on different groups")
    totals = omega.num.reshape(-1).astype(object) @ pres.cycles
    return Character(pres.invariant_factors, totals % omega.q, omega.q)


def cohomologous(a: Cocycle2, b: Cocycle2, presentation: H2Presentation | None = None) -> bool:
    """True iff the two cocycles induce the same character of H2."""
    if not np.array_equal(a.group.table, b.group.table):
        raise ValueError("cocycles live on different groups")
    if presentation is None:
        presentation = h2_presentation(build_chain(a.group))
    ca, cb = induced_character(a, presentation), induced_character(b, presentation)
    return ca.q == cb.q and np.array_equal(ca.num, cb.num)


def generating_sequence(G: FiniteGroup, members=None) -> list[int]:
    """Greedy generators of the subgroup with the given sorted members (all
    of G by default): repeatedly the element of largest order outside the
    closure so far, ties going to the smallest index."""
    mem = np.arange(G.order) if members is None else np.asarray(members, dtype=np.int64)
    by_order = mem[np.argsort(-element_orders(G)[mem], kind="stable")]
    gens: list[int] = []
    inside = generated_subgroup(G, gens).indicator
    while not inside[mem].all():
        gens.append(int(by_order[np.argmax(~inside[by_order])]))
        inside = generated_subgroup(G, gens).indicator
    return gens


def subgroup_characters(S: Subgroup) -> tuple[np.ndarray, np.ndarray, int]:
    """All homomorphisms from an abelian subgroup into Q/Z, as (members, num,
    q): row t of num holds the numerators over q of the t-th character on
    members, the parent indices of S in ascending order.  Rows ascend
    lexicographically, so the trivial character comes first."""
    G = S.parent
    mem = list(S.members)
    sub = G.table[np.ix_(mem, mem)]
    if not np.array_equal(sub, sub.T):
        raise InvalidGroupError("subgroup is not abelian")
    # each exponent vector e over greedy generators g_i of orders o_i names
    # the member word[e] = prod g_i^e_i; sending g_i to t_i / o_i is a
    # character exactly when equal words get equal angles
    gens = generating_sequence(G, mem)
    orders = element_orders(G)[gens]
    expo, _ = mixed_radix(orders)
    word = np.zeros(len(expo), dtype=np.int64)
    for g, o, e in zip(gens, orders, expo.T):
        powers = [0]
        for _ in range(o - 1):
            powers.append(int(G.table[powers[-1], g]))
        word = G.table[word, np.array(powers)[e]]
    q = lcm(*orders.tolist())
    num = expo * (q // orders) @ expo.T % q  # num[t, e] = angle of word[e] under t, over q
    _, first, where = np.unique(word, return_index=True, return_inverse=True)
    chars = num[(num == num[:, first[where]]).all(axis=1)][:, first]
    if len(chars) != len(mem):
        raise InvalidGroupError("character count mismatch on abelian subgroup")
    return np.array(mem, dtype=np.int64), chars[np.lexsort(chars.T[::-1])], q


def sigma_chi(G: FiniteGroup, N: Subgroup, num, q: int) -> Cocycle2:
    """The 2-cocycle on G/N measuring the failure of the canonical lift to
    be a homomorphism, evaluated through a character of the central N given
    as in central_character (a row of subgroup_characters):

        sigma([s], [t]) = chi( c([s]) c([t]) c([s t])^-1 ).
    """
    chi, q = central_character(G, N, num, q)
    (Q, _, lift), tbl = quotient(G, N), G.table
    return Cocycle2(Q, chi[tbl[tbl[lift[:, None], lift[None, :]], G.inverse[lift[Q.table]]]], q)


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
