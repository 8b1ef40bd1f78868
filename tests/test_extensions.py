"""Central extension construction, classification, and fibers."""

from fractions import Fraction

import numpy as np
import pytest

from twistkit import extensions, groups
from twistkit.cocycles import characters_for_factors
from twistkit.errors import ResourceCapError, VerificationError
from twistkit.extensions import (
    CentralExtension,
    abelian_group,
    build_extension,
    classify_extension,
    cocycle_of_character,
    count_extension_classes,
    extension_report,
    fiber_of_extension,
    sample_extension,
    _canonical_fingerprint,
)
from twistkit.groups import (
    FiniteGroup,
    center,
    cyclic,
    dihedral,
    direct_product,
    klein,
    mixed_radix,
    quaternion8,
    symmetric,
)
from twistkit.homology import build_chain, h2_presentation, make_splitting
from twistkit.staralg import block_profile, twisted_group_algebra

KLEIN_LABELS = {"Q8", "D4(a)", "D4(b)", "D4(ab)"}


def ext_for(G, seed=None, chain=None, pres=None):
    chain = chain if chain is not None else build_chain(G)
    split = make_splitting(chain, seed=seed, presentation=pres)
    return build_extension(G, split)


class TestAbelianGroup:
    def test_mixed_radix_indexing(self):
        G = abelian_group((2, 4))
        assert G.order == 8
        # (c1, c2) at c1*4 + c2; (1,0)+(0,3) = (1,3) at 7
        assert G.table[4, 3] == 7
        # (0,3)+(0,1) wraps to (0,0)
        assert G.table[3, 1] == 0
        # (1,2)+(1,3) = (0,1)
        assert G.table[6, 7] == 1

    def test_trivial_and_single(self):
        assert abelian_group(()).order == 1
        G = abelian_group((5,))
        assert np.array_equal(G.table, cyclic(5).table)


class TestBuildExtension:
    def test_trivial_h2_gives_base_back(self):
        for G in (cyclic(3), cyclic(4), cyclic(6), quaternion8(), symmetric(3)):
            ext = sample_extension(G)
            assert ext.h2.order() == 1
            assert ext.total.order == G.order
            assert np.array_equal(ext.project.map, np.arange(G.order))

    def test_klein_default(self):
        ext = sample_extension(klein())
        assert ext.total.order == 8
        assert not ext.total.is_abelian()
        assert ext.h2.torsion == (2,)
        image = set(int(x) for x in ext.embed.map)
        assert image <= set(center(ext.total).members)
        assert ext.kernel_subgroup.order == 2

    def test_section_properties(self):
        ext = sample_extension(klein(), seed=5)
        G = ext.base
        E = ext.total
        for g in range(G.order):
            assert ext.project(ext.section_map[g]) == g
        # the section reproduces the defining 2-cocycle law:
        # s(g1) s(g2) = embed(o + pibar(g1, g2)) s(g1 g2)
        pibar = ext.split.pibar_table
        mods = np.array(ext.h2.torsion, dtype=np.int64)
        _, strides = mixed_radix(ext.h2.torsion)
        o = np.array(ext.offset, dtype=np.int64)
        for g1 in range(G.order):
            for g2 in range(G.order):
                lhs = E.table[ext.section_map[g1], ext.section_map[g2]]
                z = (o + pibar[:, g1, g2]) % mods
                zidx = int(z @ strides)
                rhs = E.table[ext.embed(zidx), ext.section_map[G.table[g1, g2]]]
                assert lhs == rhs

    def test_embed_is_offset_shift(self):
        # embed(0) is the identity even when the offset is nonzero
        for seed in range(8):
            ext = sample_extension(klein(), seed=seed)
            assert ext.embed(0) == 0

    def test_mismatched_splitting_rejected(self):
        split = make_splitting(build_chain(klein()))
        with pytest.raises(ValueError):
            build_extension(cyclic(4), split)

    def test_tampered_section_rejected(self):
        ext = sample_extension(klein())
        bad = np.array(ext.section_map)
        bad[1], bad[2] = bad[2], bad[1]
        with pytest.raises(VerificationError):
            CentralExtension(
                base=ext.base, h2=ext.h2, split=ext.split, total=ext.total,
                embed=ext.embed, project=ext.project, offset=ext.offset,
                section_map=bad,
            )

    def test_order_cap(self, monkeypatch):
        assert extensions.EXTENSION_CAP == 256
        monkeypatch.setattr(extensions, "EXTENSION_CAP", 32)
        G = direct_product(klein(), cyclic(2))
        with pytest.raises(ResourceCapError):
            sample_extension(G)  # |E| = 8 * 8 = 64

    def test_elementary_abelian_rank3(self):
        G = direct_product(klein(), cyclic(2))
        ext = sample_extension(G)
        assert ext.h2.torsion == (2, 2, 2)
        assert ext.total.order == 64
        assert set(int(x) for x in ext.embed.map) <= set(center(ext.total).members)


class TestClassification:
    def test_klein_label_in_known_set(self):
        cls = classify_extension(sample_extension(klein()))
        assert cls.label in KLEIN_LABELS
        if cls.label == "Q8":
            assert len(cls.order4_lifts) == 3
        else:
            assert len(cls.order4_lifts) == 1

    def test_twenty_seeds_give_at_least_two_labels(self):
        chain = build_chain(klein())
        pres = h2_presentation(chain)
        seen = set()
        for seed in range(20):
            ext = ext_for(klein(), seed=seed, chain=chain, pres=pres)
            cls = classify_extension(ext)
            assert cls.label in KLEIN_LABELS
            seen.add(cls.label)
        assert len(seen) >= 2

    def test_dihedral_labels_follow_lift_position(self):
        # the D4(x) suffix names the unique base element with order-4 lifts
        chain = build_chain(klein())
        pres = h2_presentation(chain)
        names = {1: "a", 2: "b", 3: "ab"}
        for seed in range(12):
            ext = ext_for(klein(), seed=seed, chain=chain, pres=pres)
            cls = classify_extension(ext)
            if cls.label.startswith("D4"):
                assert cls.label == f"D4({names[cls.order4_lifts[0]]})"

    def test_trivial_h2_labels(self):
        assert classify_extension(sample_extension(quaternion8())).label == "quaternion8"
        # symmetric(3) is isomorphic to dihedral(3), the canonical label
        assert classify_extension(sample_extension(symmetric(3))).label == "dihedral(3)"
        assert classify_extension(sample_extension(cyclic(5))).label == "cyclic(5)"

    def test_classify_cap(self):
        ext = sample_extension(direct_product(klein(), cyclic(2)))
        with pytest.raises(ResourceCapError):
            classify_extension(ext)

    @pytest.mark.parametrize("G, label", [(klein(), "Q8"), (dihedral(4), "unclassified:6feee6c4d5a1298a")])
    def test_canonical_table_searched_once(self, G, label, monkeypatch):
        # the candidates are built once per process, so after a first
        # classification only the total group's table is searched, and once
        classify_extension(sample_extension(G, seed=3))
        searched = []
        search = groups._least_relabeling
        monkeypatch.setattr(groups, "_least_relabeling", lambda H: searched.append(H) or search(H))
        ext = sample_extension(G, seed=3)
        assert classify_extension(ext).label == label
        assert extension_report(ext)["class"] == label
        assert searched == [ext.total]

    def test_fingerprint_invariant_under_relabeling(self):
        G = direct_product(cyclic(2), cyclic(4))
        rng = np.random.default_rng(3)
        p = np.concatenate([[0], 1 + rng.permutation(7)])
        tbl = np.empty((8, 8), dtype=np.int64)
        tbl[p[:, None], p[None, :]] = p[G.table]
        H = FiniteGroup(tbl, name="relabeled")
        assert _canonical_fingerprint(G) == _canonical_fingerprint(H)

    def test_fingerprint_separates_abelian_order8(self):
        prints = {
            _canonical_fingerprint(cyclic(8)),
            _canonical_fingerprint(direct_product(cyclic(2), cyclic(4))),
            _canonical_fingerprint(direct_product(klein(), cyclic(2))),
        }
        assert len(prints) == 3

    def test_unclassified_label_shape(self):
        G = direct_product(cyclic(2), cyclic(4))
        chain = build_chain(G)
        ext = build_extension(G, make_splitting(chain))
        # |E| = 2 * 8 = 16, nonabelian with commutators inside the embedded
        # kernel: no builtin candidate of order 16 matches
        cls = classify_extension(ext)
        assert cls.label.startswith("unclassified:")


class TestCounts:
    def test_klein(self):
        strong, weak = count_extension_classes(klein())
        assert strong.torsion == (2, 2) and strong.free_rank == 0
        assert weak.order() == 1

    def test_cyclic(self):
        for n in (2, 3, 4, 6, 8):
            strong, weak = count_extension_classes(cyclic(n))
            assert strong.order() == 1 and weak.order() == 1

    def test_dihedral4(self):
        strong, weak = count_extension_classes(dihedral(4))
        assert strong.torsion == (2, 2)
        assert weak.order() == 1

    def test_quaternion(self):
        strong, weak = count_extension_classes(quaternion8())
        assert strong.order() == 1 and weak.order() == 1


class TestFibers:
    def test_klein_fiber_profiles(self):
        ext = sample_extension(klein())
        chars = characters_for_factors((2,))
        profiles = []
        total_dim = 0
        for chi in chars:
            alg = fiber_of_extension(ext, chi)
            total_dim += alg.basis.shape[0]
            profiles.append(block_profile(alg).blocks)
        assert profiles[0] == (1, 1, 1, 1)
        assert profiles[1] == (2,)
        assert total_dim == ext.total.order

    def test_fiber_matches_direct_cocycle_route(self):
        chain = build_chain(klein())
        pres = h2_presentation(chain)
        for seed in (None, 1, 9):
            ext = ext_for(klein(), seed=seed, chain=chain, pres=pres)
            for chi in characters_for_factors(pres.invariant_factors):
                via_fiber = block_profile(fiber_of_extension(ext, chi)).blocks
                omega = cocycle_of_character(ext.split, chi)
                via_cocycle = block_profile(twisted_group_algebra(klein(), omega)).blocks
                assert via_fiber == via_cocycle

    def test_cocycle_of_character_matches_character_values(self):
        # reference: the character evaluated on each pair's H2 coordinates
        ext = sample_extension(klein(), seed=5)
        pibar = ext.split.pibar_table
        for chi in characters_for_factors(ext.split.h2.invariant_factors):
            omega = cocycle_of_character(ext.split, chi)
            assert all(
                omega.angles[i, j] == Fraction(chi(pibar[:, i, j]), chi.q) for i in range(4) for j in range(4)
            )

    @pytest.mark.parametrize(
        "G",
        [klein(), dihedral(4), quaternion8(), direct_product(cyclic(2), cyclic(4)), abelian_group((2, 2, 2))],
        ids=lambda G: G.name,
    )
    def test_fiber_character_values_match_fraction_sums(self, G, monkeypatch):
        # reference: chi at H2 coordinates c is sum a_i c_i mod 1 over the
        # Fraction angles a_i, at every embedded element of the kernel
        seen = []
        monkeypatch.setattr(extensions, "cutdown_fiber", lambda _, N, num, q: seen.append((N, num, q)))
        for seed in range(8):
            ext = sample_extension(G, seed=seed)
            coords, _ = mixed_radix(ext.h2.torsion)
            for chi in characters_for_factors(ext.h2.torsion):
                seen.clear()
                fiber_of_extension(ext, chi)
                [(N, num, q)] = seen
                want = {
                    int(e): sum((a * int(c) for a, c in zip(chi.angles, x)), Fraction(0)) % 1
                    for e, x in zip(ext.embed.map, coords)
                }
                assert dict(zip(N.members, (Fraction(int(n), q) for n in num))) == want

    def test_cocycle_of_character_trivial_chi(self):
        ext = sample_extension(klein(), seed=2)
        chi = characters_for_factors((2,))[0]
        omega = cocycle_of_character(ext.split, chi)
        # integer-valued table: every angle is 0 mod 1
        assert omega.is_trivial_table()

    def test_weak_equivalence_across_splittings(self):
        # the multiset of fiber profiles does not depend on the splitting
        chain = build_chain(klein())
        pres = h2_presentation(chain)
        chars = characters_for_factors(pres.invariant_factors)
        multisets = []
        for seed in (None, 0, 7, 13):
            ext = ext_for(klein(), seed=seed, chain=chain, pres=pres)
            profs = sorted(block_profile(fiber_of_extension(ext, c)).blocks for c in chars)
            multisets.append(profs)
        assert all(ms == multisets[0] for ms in multisets)

    def test_rank3_fibers_sum_to_total(self):
        G = direct_product(klein(), cyclic(2))
        ext = sample_extension(G)
        chars = characters_for_factors(ext.h2.torsion)
        assert len(chars) == 8
        total = 0
        for chi in chars:
            alg = fiber_of_extension(ext, chi)
            n = alg.basis.shape[0]
            total += n
            assert sum(d * d for d in block_profile(alg).blocks) == n
        assert total == 64

    def test_character_mismatch_rejected(self):
        ext = sample_extension(klein())
        chi = characters_for_factors((4,))[1]
        with pytest.raises(ValueError):
            fiber_of_extension(ext, chi)
        with pytest.raises(ValueError):
            cocycle_of_character(ext.split, chi)


class TestReport:
    def test_klein_report_shape(self):
        ext = sample_extension(klein())
        rep = extension_report(ext)
        assert rep["base"] == "klein"
        assert rep["h2"] == {"torsion": [2], "free_rank": 0}
        assert rep["class"] in KLEIN_LABELS
        assert rep["fibers"][0] == {"chi": ["0"], "blocks": [1, 1, 1, 1]}
        assert rep["fibers"][1] == {"chi": ["1/2"], "blocks": [2]}

    def test_report_is_json_serializable(self):
        import json

        rep = extension_report(sample_extension(klein(), seed=4))
        assert json.loads(json.dumps(rep)) == rep
