"""Bar complex, H1/H2, and splitting identities, cross-checked against the
relation-module oracle."""

import numpy as np
import pytest

from oracles import (
    abelianization_by_counting,
    cokernel_invariants,
    corpus_with_h2,
    hopf_h2,
    relabeled,
)
from reference import h2_coordinates
from twistkit import cocycles, groups, homology, intlin
from twistkit.errors import ResourceCapError

SMALL = [
    groups.klein(),
    groups.cyclic(4),
    groups.cyclic(6),
    groups.dihedral(4),
    groups.quaternion8(),
    groups.symmetric(3),
]


class TestChain:
    def test_trivial_group(self):
        chain = homology.build_chain(groups.cyclic(1))
        assert chain.d2.tolist() == [[1]]
        assert chain.d3.tolist() == [[0]]

    def test_klein_d2_row_structure(self):
        # the pair (a, b), at index 1 * 4 + 2, maps to (a) + (b) - (ab)
        chain = homology.build_chain(groups.klein())
        col = chain.d2[:, 1 * 4 + 2]
        assert col.tolist() == [0, 1, 1, -1]

    def test_d2_entries_accumulate(self):
        # (g, g), at index 1 * 4 + 1, maps to 2(g) - (g^2)
        G = groups.cyclic(4)
        chain = homology.build_chain(G)
        col = chain.d2[:, 1 * 4 + 1]
        assert col.tolist() == [0, 2, -1, 0]

    def test_d3_column_formula(self):
        G = groups.symmetric(3)
        chain = homology.build_chain(G)
        g1, g2, g3 = 1, 2, 3
        col = chain.d3[:, (g1 * 6 + g2) * 6 + g3]  # pair (a, b) at a * 6 + b, triples likewise
        expected = np.zeros(36, dtype=np.int64)
        expected[g2 * 6 + g3] += 1
        expected[G.table[g1, g2] * 6 + g3] -= 1
        expected[g1 * 6 + G.table[g2, g3]] += 1
        expected[g1 * 6 + g2] -= 1
        assert np.array_equal(col, expected)

    def test_boundary_of_boundary_vanishes(self):
        for G in SMALL:
            chain = homology.build_chain(G)
            assert not np.any(chain.d2 @ chain.d3)

    def test_order_cap(self):
        big = groups.direct_product(groups.symmetric(4), groups.cyclic(2))
        with pytest.raises(ResourceCapError):
            homology.build_chain(big)


class TestHomologyGroups:
    def test_h2_against_oracle_corpus(self):
        for G, expected in corpus_with_h2():
            got = homology.h2(G)
            assert got.torsion == expected
            assert hopf_h2(G).torsion == expected

    def test_h2_klein_frozen(self):
        assert homology.h2(groups.klein()).torsion == (2,)

    def test_h2_cyclic_trivial(self):
        for n in (2, 3, 5, 8, 12):
            assert homology.h2(groups.cyclic(n)).is_trivial

    def test_h1_matches_abelianization(self):
        for G, _ in corpus_with_h2():
            assert homology.h1(G) == abelianization_by_counting(G)

    def test_h2_invariant_under_relabeling(self):
        for G in (groups.klein(), groups.dihedral(4), groups.symmetric(3)):
            want = homology.h2(G)
            for seed in (1, 5):
                assert homology.h2(relabeled(G, seed)) == want

    def test_invariants_match_exact_presentation(self):
        # the exact path through the full bar complex is the reference
        for base in SMALL:
            for G in (base, relabeled(base, 2), relabeled(base, 7)):
                chain = homology.build_chain(G)
                assert homology.h2(G) == intlin.AbelianInvariants(homology.h2_presentation(chain).invariant_factors)
                assert homology.h1(G) == cokernel_invariants(chain.d2)

    def test_trivial_group(self):
        G = groups.cyclic(1)
        assert homology.h1(G).is_trivial
        assert homology.h2(G).is_trivial
        assert homology.h2_presentation(homology.build_chain(G)).invariant_factors == ()

    def test_order_cap(self):
        big = groups.direct_product(groups.symmetric(4), groups.cyclic(2))
        for fn in (homology.h1, homology.h2):
            with pytest.raises(ResourceCapError):
                fn(big)

    def test_presentation_cycles(self):
        for G in (groups.klein(), groups.dihedral(4)):
            chain = homology.build_chain(G)
            pres = homology.h2_presentation(chain)
            k = len(pres.invariant_factors)
            assert not np.any(chain.d2 @ pres.cycles)
            for i in range(k):
                coords = h2_coordinates(pres, pres.cycles[:, i])
                assert coords == tuple(int(j == i) for j in range(k))
            # boundaries are null-homologous
            for c in range(0, chain.d3.shape[1], 7):
                assert h2_coordinates(pres, chain.d3[:, c]) == (0,) * k

    def test_coordinates_of_a_non_cycle_rejected(self):
        chain = homology.build_chain(groups.klein())
        pres = homology.h2_presentation(chain)
        pair = np.zeros(16, dtype=np.int64)
        pair[1 * 4 + 2] = 1  # d2 of a basis pair is never 0 off the identity
        with pytest.raises(ValueError, match="not a 2-cycle"):
            h2_coordinates(pres, pair)
        with pytest.raises(ValueError, match="not a 2-cycle"):
            h2_coordinates(pres, pres.cycles[:, 0] + pair)


class TestSplitting:
    def test_default_splitting_identities(self):
        for G in SMALL:
            chain = homology.build_chain(G)
            s = homology.make_splitting(chain)
            assert np.array_equal(chain.d2 @ s.sigma, s.b1_basis)
            assert not np.any(chain.d2 @ s.pi)
            assert np.array_equal(s.pi @ s.h2.kernel, s.h2.kernel)

    def test_seeded_splittings(self):
        chain = homology.build_chain(groups.dihedral(4))
        pres = homology.h2_presentation(chain)
        d = np.array(pres.invariant_factors).reshape(-1, 1)
        base = homology.make_splitting(chain, presentation=pres)
        for seed in range(6):
            s = homology.make_splitting(chain, seed=seed, presentation=pres)
            assert np.array_equal(chain.d2 @ s.sigma, s.b1_basis)
            assert s.delta_coeffs.min() >= -2 and s.delta_coeffs.max() <= 2
            # pibar never moves on cycles, whatever the seed
            assert np.array_equal(
                np.mod(s.pibar_matrix @ pres.cycles, d),
                np.mod(base.pibar_matrix @ pres.cycles, d),
            )
            # away from cycles it differs exactly by the coboundary term
            lhs = np.asarray(s.pibar_matrix, dtype=object) - np.asarray(
                base.pibar_matrix, dtype=object
            )
            corr = (
                np.asarray(pres.reduce_rows, dtype=object)
                @ np.asarray(s.delta_coeffs, dtype=object)
                @ np.asarray(base.d2_in_b1, dtype=object)
            )
            assert not np.any(np.mod(lhs + corr, d.astype(object)))

    def test_pibar_kills_boundaries(self):
        for G in SMALL:
            chain = homology.build_chain(G)
            pres = homology.h2_presentation(chain)
            if not pres.invariant_factors:
                continue
            d = np.array(pres.invariant_factors).reshape(-1, 1)
            for seed in (None, 2, 9):
                s = homology.make_splitting(chain, seed=seed, presentation=pres)
                assert not np.any(np.mod(s.pibar_matrix @ chain.d3, d))

    def test_pibar_table_shape(self):
        chain = homology.build_chain(groups.klein())
        s = homology.make_splitting(chain)
        tab = s.pibar_table
        assert tab.shape == (1, 4, 4)
        assert tab.min() >= 0 and tab.max() <= 1
        flat = s.pibar_matrix.reshape(1, 4, 4)
        assert np.array_equal(tab, np.mod(flat, 2))

    def test_presentation_reuse_guard(self):
        chain_a = homology.build_chain(groups.klein())
        chain_b = homology.build_chain(groups.cyclic(4))
        pres_a = homology.h2_presentation(chain_a)
        with pytest.raises(ValueError):
            homology.make_splitting(chain_b, presentation=pres_a)


class TestCharacters:
    def test_counts(self):
        for G, count in ((groups.klein(), 2), (groups.cyclic(6), 1), (groups.dihedral(4), 2)):
            assert len(cocycles.characters_for_factors(homology.h2(G).torsion)) == count

    def test_trivial_first(self):
        chars = cocycles.characters_for_factors(homology.h2(groups.klein()).torsion)
        assert chars[0].is_trivial and not chars[1].is_trivial

    def test_character_arithmetic(self):
        from fractions import Fraction

        sign = cocycles.Character((2,), (Fraction(1, 2),))
        assert sign((0,)) == 0
        assert Fraction(sign((1,)), sign.q) == Fraction(1, 2)
        assert sign((2,)) == 0
        chi = cocycles.Character((2, 4), (Fraction(1, 2), Fraction(3, 4)))
        assert Fraction(chi((1, 1)), chi.q) == Fraction(1, 4)

    def test_character_validation(self):
        from fractions import Fraction

        with pytest.raises(ValueError):
            cocycles.Character((2,), (Fraction(1, 3),))
        with pytest.raises(ValueError):
            cocycles.Character((2,), ())
        with pytest.raises(ValueError):
            cocycles.Character((2,), (Fraction(3, 2),))

    def test_enumeration_for_factors(self):
        chars = cocycles.characters_for_factors((2, 2))
        assert len(chars) == 4
        assert len({c.angles for c in chars}) == 4
