"""Seeded random instance families for the crossed-product property tests."""

from fractions import Fraction

import numpy as np

from twistkit import groups
from twistkit.cocycles import Cochain1, Cocycle2, coboundary, klein_bicharacter, multiply, trivial_cocycle
from twistkit.groups import FiniteGroup, Subgroup, center, generated_subgroup, subgroup_as_group
from twistkit.staralg import (
    StarAlgebra,
    TwistedSystem,
    matrix_algebra,
    scalar_system,
    system_from_normal,
    twisted_group_algebra,
)


def small_groups() -> list[FiniteGroup]:
    return [
        groups.cyclic(2),
        groups.cyclic(3),
        groups.cyclic(4),
        groups.cyclic(6),
        groups.klein(),
        groups.dihedral(3),
        groups.dihedral(4),
        groups.quaternion8(),
        groups.symmetric(3),
    ]


def trivial_system(A: StarAlgebra, F: FiniteGroup) -> TwistedSystem:
    """F acting trivially on the unital algebra A, with the unit cocycle."""
    f, n = F.order, A.dim
    target = np.broadcast_to(np.arange(n), (f, n))
    return TwistedSystem(A, F, target, np.zeros((f, n)), np.broadcast_to(A.unit, (f, f, n)), A.q)


def random_coboundary(G: FiniteGroup, rng, denom: int = 8) -> Cocycle2:
    gamma = Cochain1(G, tuple(Fraction(int(rng.integers(0, denom)), denom) for _ in range(G.order)))
    return coboundary(gamma)


def _alternating_subgroup(S3: FiniteGroup) -> Subgroup:
    g = next(x for x in range(S3.order) if S3.order_of(x) == 3)
    return generated_subgroup(S3, [g])


def imprimitivity_instance(seed: int):
    """One (B, H, system) triple: a random subgroup of a random small group
    with one of four coefficient families over it."""
    rng = np.random.default_rng(seed)
    pool = small_groups()
    G = pool[int(rng.integers(len(pool)))]
    gens = [int(rng.integers(G.order)) for _ in range(int(rng.integers(1, 3)))]
    H = generated_subgroup(G, gens)
    Hgrp, _ = subgroup_as_group(H)
    family = int(rng.integers(4))
    if family == 0:
        sys = scalar_system(Hgrp, trivial_cocycle(Hgrp))
    elif family == 1:
        sys = scalar_system(Hgrp, random_coboundary(Hgrp, rng))
    elif family == 2:
        sys = trivial_system(twisted_group_algebra(Hgrp, trivial_cocycle(Hgrp)), Hgrp)
    else:
        sys = trivial_system(matrix_algebra(2), Hgrp)
    return sys.algebra, H, sys


def stabilization_instance(seed: int) -> TwistedSystem:
    """One twisted system drawn from scalar-cocycle, normal-subgroup, and
    matrix-coefficient families."""
    rng = np.random.default_rng(seed)
    family = int(rng.integers(4))
    if family == 0:
        pool = small_groups()
        G = pool[int(rng.integers(len(pool)))]
        return scalar_system(G, random_coboundary(G, rng))
    if family == 1:
        K = groups.klein()
        return scalar_system(K, multiply(klein_bicharacter(), random_coboundary(K, rng)))
    if family == 2:
        D4, Q8, S3 = groups.dihedral(4), groups.quaternion8(), groups.symmetric(3)
        C4 = groups.cyclic(4)
        pairs = [
            (D4, center(D4)),
            (Q8, center(Q8)),
            (S3, _alternating_subgroup(S3)),
            (C4, Subgroup(C4, (0, 2))),
        ]
        G, N = pairs[int(rng.integers(len(pairs)))]
        return system_from_normal(G, N)
    F = groups.cyclic(int(rng.integers(2, 4)))
    return trivial_system(matrix_algebra(2), F)
