"""Independent cross-checks used by the test suite.

Everything here deliberately avoids the package's bar-resolution and
splitting code paths.  The second homology of a finite group is computed
from the relation module of a generating set (a free-resolution argument
needing only integer kernels and cokernels), and abelian invariants are
classified by order counting, with no normal form involved.  Subgroup
closures and the Smith diagonal of the cokernels are computed here, in
plain Python, so that no oracle shares the reductions it checks.
"""

from __future__ import annotations

from math import gcd

import numpy as np

from twistkit import groups, intlin

# frozen expected H2 invariant factors (Schur multipliers) for the corpus;
# () means trivial
EXPECTED_H2 = {
    "klein": (2,),
    "cyclic(2)": (),
    "cyclic(3)": (),
    "cyclic(4)": (),
    "cyclic(6)": (),
    "cyclic(12)": (),
    "dihedral(4)": (2,),
    "quaternion8": (),
    "symmetric(3)": (),
    "symmetric(4)": (2,),
    "Z2xZ4": (2,),
    "Z4xZ4": (4,),
    "Z2^3": (2, 2, 2),
}

# frozen values of the nilpotent-extension dimension bound recursion
EXPECTED_F = {0: 0, 1: 1, 2: 485, 3: 1417175}


def closure(G: groups.FiniteGroup, gens) -> set[int]:
    """The subgroup the elements gens generate: products of generators,
    grown breadth first from the identity until nothing new appears."""
    out, frontier = {0}, [0]
    while frontier:
        frontier = [y for y in {int(G.table[x, g]) for x in frontier for g in gens} if y not in out]
        out.update(frontier)
    return out


def greedy_generators(G: groups.FiniteGroup) -> list[int]:
    gens: list[int] = []
    inside = {0}
    by_order = sorted(range(G.order), key=lambda i: -G.order_of(i))
    while len(inside) < G.order:
        gens.append(next(i for i in by_order if i not in inside))
        inside = closure(G, gens)
    return gens


def smith_diagonal(M) -> list[int]:
    """The nonzero entries, up to sign, of a diagonal form U @ M @ V with U
    and V unimodular, by Euclidean row and column steps on Python ints:
    the least nonzero entry is moved to the corner and clears its row and
    column, or leaves a smaller remainder that becomes the next pivot."""
    A = [[int(x) for x in row] for row in np.asarray(M).tolist()]
    diag: list[int] = []
    while True:
        entries = [(abs(v), i, j) for i, row in enumerate(A) for j, v in enumerate(row) if v]
        if not entries:
            return diag
        _, i, j = min(entries)
        A[0], A[i] = A[i], A[0]
        for row in A:
            row[0], row[j] = row[j], row[0]
        p = A[0][0]
        for row in A[1:]:
            q = row[0] // p
            row[:] = [a - q * b for a, b in zip(row, A[0])]
        for c in range(1, len(A[0])):
            q = A[0][c] // p
            for row in A:
                row[c] -= q * row[0]
        if not any(row[0] for row in A[1:]) and not any(A[0][1:]):
            diag.append(abs(p))
            A = [row[1:] for row in A[1:]]


def cokernel_invariants(M) -> intlin.AbelianInvariants:
    """Z^rows / column-span(M) from smith_diagonal."""
    diag = smith_diagonal(M)
    return intlin.invariants_from_orders(diag, np.shape(M)[0] - len(diag))


def _kernel_with_coordinates(M):
    """(K, Y): the columns of K are a basis of the integer kernel of M, and
    Y @ x gives the K coordinates of every kernel vector x."""
    _, V, Vinv, pivots = intlin.column_hnf(M)
    return V[:, len(pivots) :], Vinv[len(pivots) :]


def hopf_h2(G: groups.FiniteGroup) -> intlin.AbelianInvariants:
    """H2 of a finite group from the relation module of a generating set.

    Let x_1..x_g generate G and Phi: ZG^g -> ZG send h*e_t to h x_t - h,
    so the image is the augmentation ideal and R = ker Phi is the relation
    module.  Splicing 0 -> R -> ZG^g -> ZG -> Z -> 0 into two short exact
    sequences and walking both homology long exact sequences (all higher
    homology of free modules vanishes) identifies H2(G) with the kernel of
    the coinvariant map R_G -> Z^g.  Everything below is that kernel.
    """
    m = G.order
    gens = greedy_generators(G)
    g = len(gens)
    if g == 0:  # trivial group: empty presentation, R = 0
        return intlin.AbelianInvariants()
    # Phi columns indexed by (t, h) at t*m + h
    Phi = np.zeros((m, g * m), dtype=np.int64)
    for t, x in enumerate(gens):
        for h in range(m):
            Phi[G.table[h, x], t * m + h] += 1
            Phi[h, t * m + h] -= 1
    Kb, coords = _kernel_with_coordinates(Phi)  # (g*m, z), a Z-basis of R
    z = Kb.shape[1]

    # left G-action permutes basis columns: s.(t, h) = (t, s h)
    def act(s, M):
        out = np.empty_like(M)
        for t in range(g):
            rows = [t * m + G.table[s, h] for h in range(m)]
            out[rows, :] = M[t * m : (t + 1) * m, :]
        return out

    rel_cols = []
    for s in gens:
        moved = act(s, Kb)
        rel_cols.append(Kb - moved)
    Rel = np.hstack(rel_cols)  # columns live in R
    assert not np.any(intlin.exact_matmul(Phi, Rel))
    W = intlin.exact_matmul(coords, Rel)  # R coords, (z, .)

    # coinvariant map to Z^g: per-generator coordinate sums
    Mu = np.zeros((g, z), dtype=np.int64)
    for t in range(g):
        Mu[t] = Kb[t * m : (t + 1) * m, :].sum(axis=0)
    N, n_coords = _kernel_with_coordinates(Mu)  # (z, k): ker(mu) in R coords
    # relations already map to zero under mu, so they lift
    assert not np.any(intlin.exact_matmul(Mu, W))
    Y = intlin.exact_matmul(n_coords, W)
    out = cokernel_invariants(Y)
    assert out.free_rank == 0, "H2 of a finite group must be finite"
    return out


def abelian_invariants_by_counting(G: groups.FiniteGroup) -> intlin.AbelianInvariants:
    """Invariant factors of an abelian group from order statistics only.

    For each prime p, n_e = #{x : x^(p^e) = e} = p^(r_e) and the
    differences of the rank function r give the multiplicity of each
    cyclic p-power factor.
    """
    assert G.is_abelian()
    orders = [G.order_of(i) for i in range(G.order)]
    m = G.order
    prime_powers: list[int] = []
    mm, p = m, 2
    while mm > 1:
        if mm % p:
            p += 1
            continue
        while mm % p == 0:
            mm //= p
        ranks = [0]
        e = 1
        while True:
            n_e = sum(1 for o in orders if p**e % o == 0)
            r = 0
            while p**r < n_e:
                r += 1
            assert p**r == n_e, "element counts of an abelian p-part are p-powers"
            ranks.append(r)
            if len(ranks) >= 3 and ranks[-1] == ranks[-2]:
                break
            e += 1
        jumps = [ranks[i] - ranks[i - 1] for i in range(1, len(ranks))]
        for e, d in enumerate(jumps, start=1):
            nxt = jumps[e] if e < len(jumps) else 0
            prime_powers.extend([p**e] * (d - nxt))
        p += 1
    return intlin.invariants_from_orders(prime_powers)


def abelianization_by_counting(G: groups.FiniteGroup) -> intlin.AbelianInvariants:
    """G/[G,G] classified by element-order statistics of the quotient table."""
    commutators = {int(G.table[G.table[g, h], G.inverse[G.table[h, g]]]) for g in range(G.order) for h in range(G.order)}
    Q, _, _ = groups.quotient(G, groups.Subgroup(G, tuple(closure(G, commutators))))
    return abelian_invariants_by_counting(Q)


def relabeled(G: groups.FiniteGroup, seed: int) -> groups.FiniteGroup:
    """The same group with non-identity elements renamed by a random permutation."""
    rng = np.random.default_rng(seed)
    m = G.order
    perm = np.concatenate([[0], 1 + rng.permutation(m - 1)])
    tbl = np.empty_like(G.table)
    for i in range(m):
        for j in range(m):
            tbl[perm[i], perm[j]] = perm[G.table[i, j]]
    return groups.FiniteGroup(tbl, name=f"{G.name}~{seed}")


def corpus_with_h2() -> list[tuple[groups.FiniteGroup, tuple[int, ...]]]:
    c2, c4 = groups.cyclic(2), groups.cyclic(4)
    items = [
        (groups.klein(), EXPECTED_H2["klein"]),
        (groups.cyclic(2), EXPECTED_H2["cyclic(2)"]),
        (groups.cyclic(3), EXPECTED_H2["cyclic(3)"]),
        (groups.cyclic(4), EXPECTED_H2["cyclic(4)"]),
        (groups.cyclic(6), EXPECTED_H2["cyclic(6)"]),
        (groups.cyclic(12), EXPECTED_H2["cyclic(12)"]),
        (groups.dihedral(4), EXPECTED_H2["dihedral(4)"]),
        (groups.quaternion8(), EXPECTED_H2["quaternion8"]),
        (groups.symmetric(3), EXPECTED_H2["symmetric(3)"]),
        (groups.symmetric(4), EXPECTED_H2["symmetric(4)"]),
        (groups.direct_product(c2, c4), EXPECTED_H2["Z2xZ4"]),
        (groups.direct_product(c4, c4), EXPECTED_H2["Z4xZ4"]),
        (groups.direct_product(c2, groups.klein()), EXPECTED_H2["Z2^3"]),
    ]
    return items


def conjugacy_class_count(G: groups.FiniteGroup) -> int:
    """Number of conjugacy classes, straight from the orbit partition."""
    seen = set()
    count = 0
    for g in range(G.order):
        if g in seen:
            continue
        count += 1
        seen.update(G.table[G.table[h, g], G.inverse[h]] for h in range(G.order))
    return count


def omega_regular_class_count(table, angles) -> int:
    """Number of omega-regular conjugacy classes of a finite group, from its
    Cayley table (identity at index 0) and the angles of a 2-cocycle
    (omega = exp(2 pi i angle), exact rationals).

    g is omega-regular when omega(g, h) = omega(h, g) for every h commuting
    with g; the property depends only on the conjugacy class and on the
    cohomology class of omega.  The number of such classes equals the
    number of simple blocks of C[G, omega] (Conlon 1964).
    """
    tbl = np.asarray(table)
    m = len(tbl)
    inverse = [int(np.flatnonzero(tbl[g] == 0)[0]) for g in range(m)]
    seen: set[int] = set()
    count = 0
    for g in range(m):
        if g in seen:
            continue
        seen.update(int(tbl[tbl[h, g], inverse[h]]) for h in range(m))
        commuting = [h for h in range(m) if tbl[g, h] == tbl[h, g]]
        if all((angles[g][h] - angles[h][g]) % 1 == 0 for h in commuting):
            count += 1
    return count


def character_degrees(G: groups.FiniteGroup) -> tuple[int, ...]:
    """Irreducible representation degrees, derived without any algebra
    machinery: the class count fixes how many degrees there are, the
    abelianization order fixes how many equal 1, and the square-sum
    constraint must then have a unique solution (true on the corpus;
    asserted)."""
    k = conjugacy_class_count(G)
    n1 = abelianization_by_counting(G).order()
    rest = G.order - n1
    slots = k - n1

    solutions = []

    def search(minimum: int, left: int, budget: int, acc: list[int]):
        if left == 0:
            if budget == 0:
                solutions.append(tuple(acc))
            return
        d = minimum
        while d * d * left <= budget:
            search(d, left - 1, budget - d * d, acc + [d])
            d += 1

    search(2, slots, rest, [])
    if len(solutions) != 1:
        raise AssertionError(f"degree multiset not forced for {G.name}: {solutions}")
    return tuple([1] * n1 + list(solutions[0]))
