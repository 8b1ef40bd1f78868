"""Element numbering of every construction, pinned to reference formulas.

The CLI prints element indices (offsets, order-4 lifts, subgroup members),
so the numbering each constructor chooses is part of the output contract.
Each reference below is written out element by element from the
documented enumeration; the central extensions are pinned to digests of
their tables and maps.
"""

import hashlib
from itertools import product

import numpy as np
import pytest

from twistkit import groups
from twistkit.errors import InvalidGroupError
from twistkit.extensions import abelian_group, build_extension
from twistkit.homology import build_chain, h2_presentation, make_splitting


def _inversion(A):
    return np.stack([np.arange(A.order), A.inverse])


def _relabel(G, seed):
    """A seeded relabeling of G's table with the identity moved off index 0."""
    rng = np.random.default_rng(seed)
    m = G.order
    perm = rng.permutation(m)  # old -> new
    if perm[0] == 0 and m > 1:
        perm[[0, 1]] = perm[[1, 0]]
    tbl = np.empty((m, m), dtype=np.int64)
    tbl[perm[:, None], perm[None, :]] = perm[G.table]
    return tbl


class TestConstructors:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_dihedral(self, n):
        # (i, j) = r^i s^j at i + n*j
        ref = np.empty((2 * n, 2 * n), dtype=np.int64)
        for i1, j1, i2, j2 in product(range(n), range(2), range(n), range(2)):
            ref[i1 + n * j1, i2 + n * j2] = (i1 + (-1) ** j1 * i2) % n + n * (j1 ^ j2)
        assert np.array_equal(groups.dihedral(n).table, ref)

    @pytest.mark.parametrize(
        "A, B",
        [
            (groups.cyclic(3), groups.cyclic(4)),
            (groups.klein(), groups.symmetric(3)),
            (groups.symmetric(3), groups.cyclic(2)),
        ],
    )
    def test_direct_product(self, A, B):
        # (a, b) at a*|B| + b
        nb = B.order
        ref = np.empty((A.order * nb,) * 2, dtype=np.int64)
        for a1, b1, a2, b2 in product(range(A.order), range(nb), range(A.order), range(nb)):
            ref[a1 * nb + b1, a2 * nb + b2] = A.mul(a1, a2) * nb + B.mul(b1, b2)
        assert np.array_equal(groups.direct_product(A, B).table, ref)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_semidirect(self, n):
        # (a1, b1)(a2, b2) = (a1 * (b1.a2), b1 b2) at a*|B| + b
        A, B = groups.cyclic(n), groups.cyclic(2)
        act = _inversion(A)
        ref = np.empty((2 * n, 2 * n), dtype=np.int64)
        for a1, b1, a2, b2 in product(range(n), range(2), range(n), range(2)):
            ref[a1 * 2 + b1, a2 * 2 + b2] = A.mul(a1, int(act[b1, a2])) * 2 + B.mul(b1, b2)
        assert np.array_equal(groups.semidirect(A, B, act).table, ref)

    def test_wreath_c2_c3_little_endian(self):
        # f: H -> K little-endian in base |K|; (f, h) at code(f)*|H| + h,
        # (f1, h1)(f2, h2) = (f1 . (h1.f2), h1 h2), (h.f)(x) = f(h^-1 x)
        K, H = groups.cyclic(2), groups.cyclic(3)
        nk, nh = K.order, H.order
        funcs = [tuple((c // nk**x) % nk for x in range(nh)) for c in range(nk**nh)]
        code = {f: sum(v * nk**x for x, v in enumerate(f)) for f in funcs}
        ref = np.empty((len(funcs) * nh,) * 2, dtype=np.int64)
        for f1, h1, f2, h2 in product(funcs, range(nh), funcs, range(nh)):
            moved = [f2[H.mul(H.inv(h1), x)] for x in range(nh)]
            prod = tuple(K.mul(f1[x], moved[x]) for x in range(nh))
            ref[code[f1] * nh + h1, code[f2] * nh + h2] = code[prod] * nh + H.mul(h1, h2)
        assert np.array_equal(groups.wreath(K, H).table, ref)

    @pytest.mark.parametrize("factors", [(), (5,), (2, 4), (2, 2, 2), (3, 2, 4)])
    def test_abelian_group_mixed_radix(self, factors):
        # first coordinate most significant
        tuples = list(product(*(range(d) for d in factors)))
        index = {c: i for i, c in enumerate(tuples)}
        ref = np.empty((len(tuples),) * 2, dtype=np.int64)
        for c1, c2 in product(tuples, tuples):
            ref[index[c1], index[c2]] = index[tuple((a + b) % d for a, b, d in zip(c1, c2, factors))]
        assert np.array_equal(abelian_group(factors).table, ref)

    def test_symmetric_lex_order(self):
        from itertools import permutations

        perms = list(permutations(range(4)))
        G = groups.symmetric(4)
        for i, p in enumerate(perms):
            for j, q in enumerate(perms):
                assert perms[G.mul(i, j)] == tuple(p[q[x]] for x in range(4))


class TestJsonRenumbering:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("base", [groups.symmetric(3), groups.dihedral(4), groups.quaternion8()])
    def test_identity_moved_to_zero_others_keep_order(self, base, seed):
        tbl = _relabel(base, seed)
        m = base.order
        e = next(i for i in range(m) if list(tbl[i]) == list(range(m)))
        kept = [e] + [i for i in range(m) if i != e]  # new index -> file index
        new = {old: n for n, old in enumerate(kept)}
        ref = [[new[int(tbl[kept[a], kept[b]])] for b in range(m)] for a in range(m)]
        G = groups.group_from_json({"order": m, "table": tbl.tolist()})
        assert G.table.tolist() == ref


class TestSubgroupsAndCosets:
    CASES = [
        (groups.symmetric(3), "gen", [1]),
        (groups.symmetric(3), "gen", [3]),
        (groups.dihedral(4), "center", None),
        (groups.dihedral(4), "gen", [1]),
        (groups.dihedral(4), "gen", [4]),
        (groups.quaternion8(), "center", None),
        (groups.symmetric(4), "gen", [1, 2]),
        (groups.symmetric(4), "commutator", None),
    ]

    def _subgroup(self, G, kind, gens):
        if kind == "center":
            return groups.center(G)
        if kind == "commutator":
            return groups.commutator_subgroup(G)
        return groups.generated_subgroup(G, gens)

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_left_cosets(self, case):
        G, kind, gens = self.CASES[case]
        S = self._subgroup(G, kind, gens)
        ref = []
        for g in range(G.order):
            coset = tuple(sorted(G.mul(g, s) for s in S.members))
            if coset not in ref:
                ref.append(coset)
        ref.sort(key=lambda c: c[0])
        assert groups.left_cosets(G, S) == ref

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_subgroup_as_group(self, case):
        G, kind, gens = self.CASES[case]
        S = self._subgroup(G, kind, gens)
        H, emb = groups.subgroup_as_group(S)
        assert emb == list(S.members)
        ref = [[emb.index(G.mul(a, b)) for b in emb] for a in emb]
        assert H.table.tolist() == ref

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_quotient(self, case):
        G, kind, gens = self.CASES[case]
        N = self._subgroup(G, kind, gens)
        if not all(G.conjugate(g, x) in N.members for g in range(G.order) for x in N.members):
            with pytest.raises(InvalidGroupError):
                groups.quotient(G, N)
            return
        # cosets numbered by ascending minimal element, which is the lift
        reps = sorted({min(G.mul(g, n) for n in N.members) for g in range(G.order)})
        proj = [reps.index(min(G.mul(g, n) for n in N.members)) for g in range(G.order)]
        Q, p, lift = groups.quotient(G, N)
        assert lift.tolist() == reps
        assert p.map.tolist() == proj
        assert Q.table.tolist() == [[proj[G.mul(a, b)] for b in reps] for a in reps]


def _digest(ext):
    h = hashlib.sha256()
    for arr in (ext.total.table, ext.embed.map, ext.project.map, ext.section_map):
        h.update(np.ascontiguousarray(arr, dtype=np.int64).tobytes())
    h.update(repr(ext.offset).encode())
    return h.hexdigest()[:16]


# digests of (total table, embed, project, section, offset) at splitting
# seeds 0..7, recorded from the element-by-element construction
EXTENSION_DIGESTS = {
    "klein": [
        "e52e71216825b67b", "36e993d7afff6d7b", "1da8eeee3a7ee0c8", "1083630673375f4c",
        "8f03995fa65ba19d", "f364f520b68dd2f1", "71cfa091ec8d13ee", "87de72a106725b29",
    ],
    "dihedral(4)": [
        "007512f0e5221c26", "dca23735b194591f", "7e450f8b2c350699", "e8931ff70c9c1d6a",
        "41310b7c2076ad64", "43e9035334335252", "1f6abc19e8dfbdbd", "18ddaee8d801bf66",
    ],
    "Z/2+Z/2+Z/2": [
        "0b2bf975012f4c22", "9f221ee58c48c648", "f41726d325b43a1e", "ffb348c8f0b974d3",
        "3ff9db9a99c789f3", "f167900f31a47326", "32f5b9457b92a5b1", "c2791b1c9c7a2546",
    ],
    # seeded splittings add K @ R, so these pin the cycle basis K, and on
    # Z/2+Z/2+Z/4 (H2 = Z/2^3) the H2 basis as well
    "Z/2+Z/4": [
        "c6a884a854eea103", "56bba6a8002b513c", "bd1a975de69e2f3d", "5fdc665a203131e5",
        "3f82c8ba6ee31651", "ca26f26e8debaa93", "454f2f201b5f4bde", "5cd7f814649a9761",
    ],
    "Z/2+Z/2+Z/4": [
        "5f7b484e25aa628b", "bd8693e538fd2d20", "1403a0227e463519", "3f3cfd12dfa98dca",
        "f49fd1913f2c7b8e", "846b53440bc08bcd", "bfc7509c755179cc", "59d63ecb1182d63c",
    ],
}

_EXT_BASES = {
    "klein": groups.klein,
    "dihedral(4)": lambda: groups.dihedral(4),
    "Z/2+Z/2+Z/2": lambda: abelian_group((2, 2, 2)),
    "Z/2+Z/4": lambda: abelian_group((2, 4)),
    "Z/2+Z/2+Z/4": lambda: abelian_group((2, 2, 4)),
}


@pytest.mark.parametrize("name", sorted(EXTENSION_DIGESTS))
def test_build_extension_frozen(name):
    G = _EXT_BASES[name]()
    chain = build_chain(G)
    pres = h2_presentation(chain)
    got = [_digest(build_extension(G, make_splitting(chain, seed=s, presentation=pres))) for s in range(8)]
    assert got == EXTENSION_DIGESTS[name]
