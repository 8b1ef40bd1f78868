"""Cayley-table groups: builtin constructions, structure queries, quotients."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import generating_sequence

from twistkit import groups
from twistkit.errors import InvalidGroupError, ResourceCapError

BUILTIN_CORPUS = [
    groups.cyclic(1),
    groups.cyclic(2),
    groups.cyclic(6),
    groups.cyclic(12),
    groups.klein(),
    groups.dihedral(3),
    groups.dihedral(4),
    groups.quaternion8(),
    groups.symmetric(3),
    groups.symmetric(4),
    groups.direct_product(groups.cyclic(2), groups.cyclic(4)),
    # C2 wr C2: the Klein group with C2 swapping its two factors
    groups.semidirect(groups.klein(), groups.cyclic(2), np.array([[0, 1, 2, 3], [0, 2, 1, 3]])),
]


def _inversion_action(A, B):
    # B = Z/2 acting on A by inversion
    assert B.order == 2
    return np.stack([np.arange(A.order), A.inverse])


class TestConstruction:
    def test_cyclic2_table(self):
        assert groups.cyclic(2).table.tolist() == [[0, 1], [1, 0]]

    def test_invariants_hold_for_corpus(self):
        # identity row/column, Latin square, associativity (constructor
        # validates; re-check from scratch so a validator bug cannot hide)
        for G in BUILTIN_CORPUS:
            m = G.order
            tbl = G.table
            idx = np.arange(m)
            assert np.array_equal(tbl[0], idx) and np.array_equal(tbl[:, 0], idx)
            assert np.array_equal(np.sort(tbl, axis=1), np.tile(idx, (m, 1)))
            assert np.array_equal(np.sort(tbl, axis=0), np.tile(idx[:, None], (1, m)))
            if m <= 24:
                for i in range(m):
                    for j in range(m):
                        for k in range(m):
                            assert tbl[tbl[i, j], k] == tbl[i, tbl[j, k]]

    def test_bad_tables_rejected(self):
        with pytest.raises(InvalidGroupError):
            groups.FiniteGroup([[0, 1], [1, 1]])  # not Latin
        with pytest.raises(InvalidGroupError):
            groups.FiniteGroup([[1, 0], [0, 1]])  # 0 not identity
        with pytest.raises(InvalidGroupError):
            # Latin square with identity but not associative
            base = [
                [0, 1, 2, 3, 4],
                [1, 0, 3, 4, 2],
                [2, 4, 0, 1, 3],
                [3, 2, 4, 0, 1],
                [4, 3, 1, 2, 0],
            ]
            groups.FiniteGroup(base)

    def test_switched_intercalate_rejected(self):
        # Z/702 with the 2x2 subsquare at rows and columns {1, 352} switched:
        # still a Latin square with identity 0, and 11168 of its triples are
        # not associative, too few for a sampled check to meet
        m = 702
        tbl = (np.arange(m)[:, None] + np.arange(m)) % m
        cells = np.ix_([1, 352], [1, 352])
        tbl[cells] = np.where(tbl[cells] == 2, 353, 2)
        with pytest.raises(InvalidGroupError, match="associative"):
            groups.group_from_json({"order": m, "table": tbl.tolist()})

    def test_param_validation(self):
        with pytest.raises(ValueError):
            groups.cyclic(0)
        with pytest.raises(ValueError):
            groups.symmetric(6)
        with pytest.raises(ValueError):
            groups.dihedral(0)
        with pytest.raises(ValueError):
            groups.builtin("nonsense")
        with pytest.raises(ValueError):
            groups.builtin("klein", 3)

    def test_builtin_dispatch(self):
        assert groups.builtin("cyclic", 5).order == 5
        assert groups.builtin("quaternion8").order == 8

    def test_builtin_order_cap_before_construction(self):
        # the orders implied by the parameters are one past the cap
        for spec in ("cyclic:5001", "dihedral:2501", "cyclic:1000000000000"):
            with pytest.raises(ResourceCapError):
                groups.resolve_group_string(spec)
        assert groups.resolve_group_string("dihedral:3").order == 6

    def test_generator_out_of_range(self):
        for gens in ([4], [-1], [1, 9]):
            with pytest.raises(InvalidGroupError):
                groups.generated_subgroup(groups.klein(), gens)

    def test_semidirect_gives_dihedral(self):
        twisted = groups.semidirect(
            groups.cyclic(4), groups.cyclic(2), _inversion_action(groups.cyclic(4), groups.cyclic(2))
        )
        assert groups.is_isomorphic_small(twisted, groups.dihedral(4))

    def test_semidirect_gives_symmetric3(self):
        twisted = groups.semidirect(
            groups.cyclic(3), groups.cyclic(2), _inversion_action(groups.cyclic(3), groups.cyclic(2))
        )
        assert groups.is_isomorphic_small(twisted, groups.symmetric(3))

    def test_semidirect_rejects_non_action(self):
        A, B = groups.cyclic(4), groups.cyclic(2)
        bad = np.stack([np.arange(4), np.array([0, 2, 1, 3])])  # not an automorphism
        with pytest.raises(ValueError):
            groups.semidirect(A, B, bad)

    @pytest.mark.parametrize(
        "rows, message",
        [
            # the first bad element in order, bijection checked before automorphism
            ([[0, 2, 1, 3], [0, 1, 1, 3]], "action of element 0 is not an automorphism"),
            ([[0, 1, 2, 3], [0, 1, 1, 3]], "action of element 1 is not a bijection fixing identity"),
            ([[1, 0, 2, 3], [0, 3, 2, 1]], "action of element 0 is not a bijection fixing identity"),
            ([[0, 1, 2, 3], [0, 9, 2, 3]], "action of element 1 is not a bijection fixing identity"),
            ([[0, 3, 2, 1], [0, 1, 2, 3]], "action is not a homomorphism from the acting group"),
        ],
    )
    def test_semidirect_validation_messages(self, rows, message):
        with pytest.raises(ValueError) as exc:
            groups.semidirect(groups.cyclic(4), groups.cyclic(2), np.array(rows))
        assert str(exc.value) == message

    def test_symmetric3_is_dihedral3(self):
        assert groups.is_isomorphic_small(groups.symmetric(3), groups.dihedral(3))


class TestOrdersAndCenter:
    def test_order_profiles(self):
        assert groups.element_order_profile(groups.klein()) == (1, 2, 2, 2)
        assert groups.element_order_profile(groups.quaternion8()) == (1, 2, 4, 4, 4, 4, 4, 4)
        assert groups.element_order_profile(groups.dihedral(4)) == (1, 2, 2, 2, 2, 2, 4, 4)

    def test_quaternion_has_six_order4(self):
        prof = groups.element_order_profile(groups.quaternion8())
        assert sum(1 for o in prof if o == 4) == 6

    def test_orders_divide_group_order(self):
        for G in BUILTIN_CORPUS:
            for i in range(G.order):
                assert G.order % G.order_of(i) == 0

    def test_center_klein(self):
        assert groups.center(groups.klein()).members == (0, 1, 2, 3)

    def test_center_quaternion(self):
        Z = groups.center(groups.quaternion8())
        assert Z.order == 2
        assert Z.is_normal()

    def test_center_symmetric3_trivial(self):
        assert groups.center(groups.symmetric(3)).members == (0,)

    def test_inverse_antihomomorphism(self):
        for G in BUILTIN_CORPUS:
            if G.order > 24:
                continue
            for i in range(G.order):
                for j in range(G.order):
                    assert G.inverse[G.table[i, j]] == G.table[G.inverse[j], G.inverse[i]]


class TestSubgroupsAndQuotients:
    def test_subgroup_validation(self):
        G = groups.cyclic(4)
        with pytest.raises(InvalidGroupError):
            groups.Subgroup(G, (1, 2))  # no identity
        with pytest.raises(InvalidGroupError):
            groups.Subgroup(G, (0, 1))  # not closed

    def test_generated_subgroup(self):
        S3 = groups.symmetric(3)
        three_cycle = next(i for i in range(S3.order) if S3.order_of(i) == 3)
        A3 = groups.generated_subgroup(S3, [three_cycle])
        assert A3.order == 3 and A3.is_normal()
        transposition = next(i for i in range(S3.order) if S3.order_of(i) == 2)
        assert groups.generated_subgroup(S3, [three_cycle, transposition]).order == 6

    def test_subgroup_as_group(self):
        S3 = groups.symmetric(3)
        A3 = groups.generated_subgroup(S3, [next(i for i in range(S3.order) if S3.order_of(i) == 3)])
        H, embed = groups.subgroup_as_group(A3)
        assert groups.is_isomorphic_small(H, groups.cyclic(3))
        assert embed[0] == 0
        for i in range(H.order):
            for j in range(H.order):
                assert embed[H.table[i, j]] == S3.table[embed[i], embed[j]]

    def test_quotient_cyclic4(self):
        G = groups.cyclic(4)
        Q, proj, lift = groups.quotient(G, groups.Subgroup(G, (0, 2)))
        assert groups.is_isomorphic_small(Q, groups.cyclic(2))
        assert lift[0] == 0

    def test_quotient_q8_by_center_is_klein(self):
        Q8 = groups.quaternion8()
        Q, proj, lift = groups.quotient(Q8, groups.center(Q8))
        assert Q.order == 4
        assert groups.element_order_profile(Q) == (1, 2, 2, 2)
        assert groups.is_isomorphic_small(Q, groups.klein())

    def test_quotient_by_trivial_is_same_table(self):
        K = groups.klein()
        Q, proj, lift = groups.quotient(K, groups.Subgroup(K, (0,)))
        assert np.array_equal(Q.table, K.table)
        assert np.array_equal(lift, np.arange(4))

    def test_projection_multiplicative(self):
        S3 = groups.symmetric(3)
        A3 = groups.generated_subgroup(S3, [next(i for i in range(S3.order) if S3.order_of(i) == 3)])
        Q, proj, lift = groups.quotient(S3, A3)
        for x in range(S3.order):
            for y in range(S3.order):
                assert proj(S3.table[x, y]) == Q.table[proj(x), proj(y)]
        # lift is a section
        for q in range(Q.order):
            assert proj(int(lift[q])) == q

    def test_quotient_rejects_non_normal(self):
        S3 = groups.symmetric(3)
        t = next(i for i in range(S3.order) if S3.order_of(i) == 2)
        H = groups.generated_subgroup(S3, [t])
        with pytest.raises(InvalidGroupError):
            groups.quotient(S3, H)

    def test_left_cosets_partition(self):
        S3 = groups.symmetric(3)
        t = next(i for i in range(S3.order) if S3.order_of(i) == 2)
        H = groups.generated_subgroup(S3, [t])
        number, reps = groups.coset_index(S3, H)
        assert len(reps) == 3
        assert reps[0] == 0
        assert sorted(number.tolist()) == [0, 0, 1, 1, 2, 2]
        for c, r in enumerate(reps.tolist()):
            assert sorted(g for g in range(6) if number[g] == c) == sorted(S3.table[r, h] for h in H.members)

    def test_homomorphism_validation(self):
        G = groups.cyclic(4)
        H = groups.cyclic(2)
        groups.Homomorphism(G, H, [0, 1, 0, 1])
        with pytest.raises(InvalidGroupError):
            groups.Homomorphism(G, H, [0, 1, 1, 0])
        with pytest.raises(InvalidGroupError):
            groups.Homomorphism(G, H, [1, 0, 1, 0])


def _greedy_by_stable_sort(G):
    # the generating sequence rule of the isomorphism search
    gens, closure = [], {0}
    by_order = sorted(range(G.order), key=lambda i: -G.order_of(i))
    while len(closure) < G.order:
        gens.append(next(i for i in by_order if i not in closure))
        closure = set(groups.generated_subgroup(G, gens).members)
    return gens


def _greedy_by_max(G):
    # the generating sequence rule of the character enumeration: grow the
    # closure by right multiplication with each new generator
    gens, closure = [], {0}
    while len(closure) < G.order:
        nxt = max((x for x in range(G.order) if x not in closure), key=G.order_of)
        gens.append(nxt)
        new, frontier = set(closure), list(closure)
        while frontier:
            y = G.table[frontier.pop(), nxt]
            if y not in new:
                new.add(y)
                frontier.append(y)
        closure = new
    return gens


class TestGeneratingSequence:
    @pytest.mark.parametrize(
        "G",
        [
            groups.klein(),
            groups.cyclic(12),
            groups.direct_product(groups.cyclic(2), groups.cyclic(4)),
            groups.direct_product(groups.cyclic(4), groups.cyclic(4)),
            groups.direct_product(groups.klein(), groups.cyclic(2)),
            groups.direct_product(groups.direct_product(groups.cyclic(3), groups.cyclic(2)), groups.cyclic(4)),
        ],
        ids=["klein", "C12", "C2xC4", "C4xC4", "C2^3", "C3xC2xC4"],
    )
    def test_matches_both_greedy_rules(self, G):
        gens = generating_sequence(G)
        assert gens == _greedy_by_stable_sort(G) == _greedy_by_max(G)
        assert groups.generated_subgroup(G, gens).order == G.order

    def test_subgroup_members(self):
        S4 = groups.symmetric(4)
        A4 = groups.generated_subgroup(S4, [x for x in range(S4.order) if S4.order_of(x) == 3])
        gens = generating_sequence(S4, A4.members)
        assert set(gens) <= set(A4.members)
        assert groups.generated_subgroup(S4, gens).members == A4.members
        assert generating_sequence(S4, (0,)) == []

    def test_element_orders(self):
        for G in BUILTIN_CORPUS:
            assert groups.element_orders(G).tolist() == [G.order_of(i) for i in range(G.order)]

    def test_mixed_radix(self):
        digits, strides = groups.mixed_radix((3, 2, 4))
        assert strides.tolist() == [8, 4, 1]
        assert digits[13].tolist() == [1, 1, 1]
        assert np.array_equal(digits @ strides, np.arange(24))
        empty, none = groups.mixed_radix(())
        assert empty.shape == (1, 0) and none.shape == (0,) and (empty @ none).tolist() == [0]


class TestIsomorphism:
    def test_klein_vs_cyclic4(self):
        assert not groups.is_isomorphic_small(groups.klein(), groups.cyclic(4))

    def test_q8_vs_d4(self):
        assert not groups.is_isomorphic_small(groups.quaternion8(), groups.dihedral(4))

    def test_klein_vs_product(self):
        prod = groups.direct_product(groups.cyclic(2), groups.cyclic(2))
        assert groups.is_isomorphic_small(groups.klein(), prod)

    def test_reflexive_and_symmetric(self):
        small = [G for G in BUILTIN_CORPUS if G.order <= 16]
        for G in small:
            assert groups.is_isomorphic_small(G, G)
        for G in small:
            for H in small:
                assert groups.is_isomorphic_small(G, H) == groups.is_isomorphic_small(H, G)

    def test_order_cap(self):
        S4 = groups.symmetric(4)
        with pytest.raises(ResourceCapError):
            groups.is_isomorphic_small(S4, S4)

    def test_same_profile_different_groups(self):
        # Z/4 x Z/4 vs Z/2 x Z/8 share order 16 but not profiles; the
        # subtler pair D4 x Z/2 vs Q8 x Z/2 shares profiles and needs the
        # actual search
        a = groups.direct_product(groups.dihedral(4), groups.cyclic(2))
        b = groups.direct_product(groups.quaternion8(), groups.cyclic(2))
        assert groups.element_order_profile(a) != groups.element_order_profile(b)
        c = groups.direct_product(groups.cyclic(4), groups.cyclic(2))
        d = groups.cyclic(8)
        assert not groups.is_isomorphic_small(c, d)

    def test_canonical_table(self):
        assert groups.canonical_table(groups.cyclic(1)).tolist() == [[0]]
        # a relabeling keeps the table; D4 and Q8 share orders and profiles, not tables
        G = groups.dihedral(4)
        p = np.array([0, 5, 3, 7, 1, 6, 2, 4])
        tbl = np.empty((8, 8), dtype=np.int64)
        tbl[p[:, None], p[None, :]] = p[G.table]
        H = groups.FiniteGroup(tbl, name="relabeled")
        assert np.array_equal(groups.canonical_table(G), groups.canonical_table(H))
        assert not np.array_equal(groups.canonical_table(G), groups.canonical_table(groups.quaternion8()))

    def test_builtin_order_reads_parameters(self):
        assert groups.builtin_order("dihedral:2049") == 4098
        assert groups.builtin_order("klein") == 4
        for spec in ("symmetric:4", "cyclic:x", "cyclic", "nosuch:3", "@group.json"):
            assert groups.builtin_order(spec) is None, spec

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 12), st.integers(2, 12))
    def test_cyclic_iso_iff_equal_order(self, a, b):
        got = groups.is_isomorphic_small(groups.cyclic(a), groups.cyclic(b))
        assert got == (a == b)


class TestJson:
    def test_round_trip(self):
        G = groups.dihedral(3)
        doc = G.to_json()
        H = groups.group_from_json(doc)
        assert np.array_equal(G.table, H.table)
        assert H.name == "dihedral(3)"

    def test_reindexes_identity(self):
        # relabel Z/3 so the identity lands at index 2
        perm = [2, 0, 1]  # old -> new
        old = groups.cyclic(3).table
        tbl = [[0] * 3 for _ in range(3)]
        for i in range(3):
            for j in range(3):
                tbl[perm[i]][perm[j]] = perm[old[i, j]]
        G = groups.group_from_json({"order": 3, "table": tbl})
        assert np.array_equal(G.table, old)

    def test_malformed_documents(self):
        with pytest.raises(InvalidGroupError):
            groups.group_from_json({"order": 2})
        with pytest.raises(InvalidGroupError):
            groups.group_from_json({"order": 2, "table": [[0, 1]]})
        with pytest.raises(InvalidGroupError):
            groups.group_from_json({"order": 2, "table": [[0, 1], [1, 2]]})
        with pytest.raises(InvalidGroupError):
            groups.group_from_json({"order": 2, "table": [[0, 1], [0, 1]]})
        with pytest.raises(InvalidGroupError):
            groups.group_from_json({"order": "2", "table": [[0, 1], [1, 0]]})
        with pytest.raises(InvalidGroupError):  # beyond int64, not only beyond the order
            groups.group_from_json({"order": 2, "table": [[0, 1], [1, 10**30]]})
