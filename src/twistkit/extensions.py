"""Central extensions of a finite group by its second homology.

A splitting of the bar complex yields a homology-valued pairing pibar on
the group; the set H2 x G with the product

    (x1, g1) (x2, g2) = (x1 + x2 + pibar(g1, g2), g1 g2)

is a group containing H2 centrally with quotient G.  Everything here is
constructed and then re-verified exhaustively: group axioms, centrality,
exactness, and the section property.  The classification helpers label the
result against the builtin groups and count iso classes through Ext groups
of the homology, and each character of H2 cuts the extension's group
algebra down to one twisted-algebra fiber.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import intlin
from .cocycles import Character, Cocycle2, characters_for_factors
from .errors import ResourceCapError, VerificationError
from .groups import (
    FiniteGroup,
    Homomorphism,
    Subgroup,
    canonical_table,
    center,
    cyclic,
    dihedral,
    element_orders,
    is_isomorphic_small,
    klein,
    mixed_radix,
    quaternion8,
)
from .homology import SplittingData, build_chain, h1, h2, make_splitting
from .staralg import StarAlgebra, block_profile, cutdown_fiber

EXTENSION_CAP = 256
CLASSIFY_CAP = 16

_KLEIN_NAMES = {1: "a", 2: "b", 3: "ab"}


def abelian_group(factors: tuple[int, ...]) -> FiniteGroup:
    """Direct sum of cyclic groups; tuple (c_1, ..., c_k) sits at the
    mixed-radix index with the first coordinate most significant."""
    digits, strides = mixed_radix(factors)
    table = (digits[:, None] + digits) % np.array(factors, dtype=np.int64) @ strides
    name = f"cyclic({factors[0]})" if len(factors) == 1 else "+".join(f"Z/{d}" for d in factors) or "0"
    return FiniteGroup(table, name=name)


@dataclass(frozen=True, eq=False)
class CentralExtension:
    """The extension group E with its embedding of H2 and projection to G.

    offset is the H2 coordinate tuple o with (o, e) the identity of E;
    section_map[g] is the index of the canonical lift (o, g) in E.
    Construction re-verifies centrality, exactness, surjectivity, and the
    section property on top of the group-axiom checks already run by the
    total group's constructor.
    """

    base: FiniteGroup
    h2: intlin.AbelianInvariants
    split: SplittingData
    total: FiniteGroup
    embed: Homomorphism
    project: Homomorphism
    offset: tuple[int, ...]
    section_map: np.ndarray = field(repr=False)

    def __post_init__(self):
        E, G = self.total, self.base
        if E.order != self.h2.order() * G.order:
            raise VerificationError("extension order is not |H2| * |G|")
        image = sorted(int(x) for x in self.embed.map)
        if not set(image) <= set(center(E).members):
            raise VerificationError("embedded homology is not central")
        kernel = np.flatnonzero(self.project.map == 0).tolist()
        if image != kernel:
            raise VerificationError("embedding image differs from the projection kernel")
        if not self.project.is_surjective():
            raise VerificationError("projection is not surjective")
        smap = np.asarray(self.section_map, dtype=np.int64)
        smap.setflags(write=False)
        object.__setattr__(self, "section_map", smap)
        if smap.shape != (G.order,) or not np.array_equal(self.project.map[smap], np.arange(G.order)):
            raise VerificationError("section is not a right inverse of the projection")

    @property
    def kernel_subgroup(self) -> Subgroup:
        return Subgroup(self.total, tuple(int(x) for x in self.embed.map))


def build_extension(G: FiniteGroup, split: SplittingData) -> CentralExtension:
    """Assemble and fully verify the central extension defined by a splitting."""
    if not np.array_equal(split.chain.group.table, G.table):
        raise ValueError("splitting belongs to a different group")
    factors = split.h2.invariant_factors
    h2_inv = intlin.AbelianInvariants(factors)
    m = G.order
    nH = h2_inv.order()
    size = nH * m
    if size > EXTENSION_CAP:
        raise ResourceCapError(f"extension order {size} exceeds {EXTENSION_CAP}")
    pibar = split.pibar_table.transpose(1, 2, 0)  # (m, m, k), already reduced mod the factors
    mods = np.array(factors, dtype=np.int64)
    coords, strides = mixed_radix(factors)
    o = -pibar[0, 0] % mods
    o_idx = int(o @ strides)

    # raw index of (x, g) is x*m + g, built as [x1, g1, x2, g2]; then swap so
    # the identity (o, e) is 0
    newx = (coords[:, None, None, None] + coords[:, None] + pibar[:, None]) % mods @ strides
    raw = (newx * m + G.table[:, None, :]).reshape(size, size)
    id_raw = o_idx * m
    perm = np.arange(size, dtype=np.int64)
    perm[0], perm[id_raw] = id_raw, 0
    table = np.empty_like(raw)
    table[perm[:, None], perm[None, :]] = perm[raw]
    E = FiniteGroup(table, name=f"ext({G.name})")

    Hgrp = abelian_group(factors)
    emb_map = perm[(coords + o) % mods @ strides * m]
    proj_map = np.empty(size, dtype=np.int64)
    proj_map[perm] = np.arange(size) % m
    section_map = perm[o_idx * m : o_idx * m + m]

    return CentralExtension(
        base=G,
        h2=h2_inv,
        split=split,
        total=E,
        embed=Homomorphism(Hgrp, E, emb_map),
        project=Homomorphism(E, G, proj_map),
        offset=tuple(int(c) for c in o),
        section_map=section_map,
    )


def sample_extension(G: FiniteGroup, seed: int | None = None) -> CentralExtension:
    """Build the extension for the splitting drawn at the given seed."""
    chain = build_chain(G)
    return build_extension(G, make_splitting(chain, seed=seed))


# ---------------------------------------------------------------------------
# classification


@dataclass(frozen=True)
class ExtensionClass:
    """Iso-class label, plus which nontrivial base elements acquire order-4
    lifts when the base is the four-group (empty otherwise)."""

    label: str
    order4_lifts: tuple[int, ...] = ()


@lru_cache(maxsize=None)
def _builtin_candidates(order: int) -> dict[str, FiniteGroup]:
    """The builtin groups of this order by label, built once per process, so
    that groups.canonical_table searches each of them once."""
    found = {f"cyclic({order})": cyclic(order)}
    if order == 4:
        found["klein"] = klein()
    if order % 2 == 0 and order >= 6:
        found[f"dihedral({order // 2})"] = dihedral(order // 2)
    if order == 8:
        found["quaternion8"] = quaternion8()
    return found


def _canonical_fingerprint(G: FiniteGroup) -> str:
    """Relabeling-invariant hash: that of the canonical Cayley table."""
    return "unclassified:" + hashlib.sha256(canonical_table(G).tobytes()).hexdigest()[:16]


def check_classify_cap(order: int) -> None:
    """Refuse to classify a total group above CLASSIFY_CAP; the order is
    |H2(G)| |G|, known from homology.h2 before any extension is built."""
    if order > CLASSIFY_CAP:
        raise ResourceCapError(f"classification capped at order {CLASSIFY_CAP}, got {order}")


def classify_extension(ext: CentralExtension) -> ExtensionClass:
    """Label the total group up to isomorphism.

    Over the four-group with |H2| = 2 the label also separates the three
    dihedral extensions: exactly one nontrivial base element then lifts to
    order-4 elements, giving D4(a), D4(b), D4(ab); all three lift to order
    4 in the quaternion case Q8.
    """
    E = ext.total
    check_classify_cap(E.order)
    candidates = _builtin_candidates(E.order)
    lifts: tuple[int, ...] = ()
    if np.array_equal(ext.base.table, _builtin_candidates(4)["klein"].table):
        orders = element_orders(E)
        lifts = tuple(g for g in range(1, 4) if 4 in orders[ext.project.map == g])
        if E.order == 8:
            if len(lifts) == 3 and is_isomorphic_small(E, candidates["quaternion8"]):
                return ExtensionClass("Q8", lifts)
            if len(lifts) == 1 and is_isomorphic_small(E, candidates["dihedral(4)"]):
                return ExtensionClass(f"D4({_KLEIN_NAMES[lifts[0]]})", lifts)
    for name, H in candidates.items():
        if is_isomorphic_small(E, H):
            return ExtensionClass(name, lifts)
    return ExtensionClass(_canonical_fingerprint(E), lifts)


def count_extension_classes(G: FiniteGroup) -> tuple[intlin.AbelianInvariants, intlin.AbelianInvariants]:
    """(strong, weak) counts of central extensions of G by its second
    homology up to the two equivalences: congruence classes form a torsor
    over Ext(H1, H2), while weak (fiber-respecting) classes quotient
    further down to Ext(H1, free part of H2)."""
    a = h1(G)
    b = h2(G)
    free_part = intlin.AbelianInvariants((), free_rank=b.free_rank)
    return intlin.ext_group(a, b), intlin.ext_group(a, free_part)


# ---------------------------------------------------------------------------
# fibers


def cocycle_of_character(split: SplittingData, chi: Character) -> Cocycle2:
    """The scalar cocycle chi(pibar(g1, g2)) on the base group."""
    if chi.invariant_factors != split.h2.invariant_factors:
        raise ValueError("character does not match the homology invariants")
    return Cocycle2(split.chain.group, np.tensordot(chi.num, split.pibar_table, axes=1), chi.q)


def fiber_of_extension(ext: CentralExtension, chi: Character) -> StarAlgebra:
    """Cut C[E] down by the central idempotent of chi pushed through the
    embedding of the homology."""
    if chi.invariant_factors != ext.h2.torsion:
        raise ValueError("character does not match the extension's homology")
    num = mixed_radix(ext.h2.torsion)[0] @ chi.num % chi.q  # chi at each embedded element, in embedding order
    return cutdown_fiber(ext.total, ext.kernel_subgroup, num[np.argsort(ext.embed.map)], chi.q)


def extension_report(ext: CentralExtension, seed: int = 0) -> dict:
    """JSON-ready summary: base, homology invariants, iso label, order-4
    lifts, and the block profile of every character fiber."""
    cls = classify_extension(ext) if ext.total.order <= CLASSIFY_CAP else None
    fibers = []
    for chi in characters_for_factors(ext.split.h2.invariant_factors):
        prof = block_profile(fiber_of_extension(ext, chi), seed)
        fibers.append({"chi": [str(a) for a in chi.angles], "blocks": list(prof.blocks)})
    return {
        "base": ext.base.name,
        "h2": ext.h2.to_json(),
        "class": cls.label if cls else None,
        "order4_lifts": list(cls.order4_lifts) if cls else [],
        "fibers": fibers,
    }
