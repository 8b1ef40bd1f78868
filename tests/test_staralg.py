"""Matrix *-algebras, block profiles, twisted systems, crossed products."""

import tracemalloc

import numpy as np
import pytest

from dense import all_pairs_closure, coords_batch, dense_system, element, monomial_rows, unit_coords
from instances import imprimitivity_instance, random_coboundary, small_groups, stabilization_instance, trivial_system
from reference import fiber_decomposition, sigma_chi, subgroup_characters
from oracles import character_degrees, conjugacy_class_count, corpus_with_h2, omega_regular_class_count, relabeled

from twistkit.cocycles import (
    Cochain1,
    characters_for_factors,
    coboundary,
    klein_bicharacter,
    multiply,
    normalize,
    trivial_cocycle,
)
from twistkit.errors import (
    InvalidGroupError,
    ResourceCapError,
    VerificationError,
)
from twistkit.extensions import cocycle_of_character
from twistkit.groups import (
    Subgroup,
    center,
    cyclic,
    dihedral,
    generated_subgroup,
    klein,
    quaternion8,
    subgroup_as_group,
    symmetric,
)
from twistkit.homology import build_chain, make_splitting
from twistkit.staralg import (
    EMPTY,
    BlockProfile,
    RowMaps,
    StarAlgebra,
    TwistedSystem,
    block_profile,
    crossed_product,
    cutdown_fiber,
    matrix_algebra,
    scalar_algebra,
    scalar_system,
    system_from_normal,
    tensor_algebra,
    twisted_group_algebra,
    verify_imprimitivity,
    verify_stabilization,
)


def s3_alternating(S3):
    g = next(x for x in range(6) if S3.order_of(x) == 3)
    return generated_subgroup(S3, [g])


class TestStarAlgebra:
    def test_matrix_algebra_basics(self):
        A = matrix_algebra(3)
        assert A.dim == 9 and A.rep_dim == 3
        assert A.unit is not None
        assert abs(unit_coords(A) @ A.trace_vector - 1) < 1e-12

    def test_scalar_algebra(self):
        A = scalar_algebra()
        assert A.dim == 1 and A.unit is not None

    def test_dependent_basis_rejected(self):
        b = np.zeros((2, 2, 2), dtype=complex)
        b[0, 0, 0] = 1
        b[1, 0, 0] = -1
        with pytest.raises(ValueError):
            StarAlgebra(*monomial_rows(b, 2))

    def test_adjoint_escape_rejected(self):
        # span{1, E12} is closed under products but not under adjoint
        b = np.zeros((2, 2, 2), dtype=complex)
        b[0] = np.eye(2)
        b[1, 0, 1] = 1
        with pytest.raises(ValueError):
            StarAlgebra(*monomial_rows(b, 1))

    def test_product_escape_rejected(self):
        # {1, E12, E21} is closed under adjoint, but E12 E21 = E11 leaves the span
        b = np.zeros((3, 2, 2), dtype=complex)
        b[0] = np.eye(2)
        b[1, 0, 1] = 1
        b[2, 1, 0] = 1
        with pytest.raises(ValueError, match="outside the algebra span"):
            StarAlgebra(*monomial_rows(b, 1))

    def test_closure_matches_all_pairs_reference(self):
        # only composable pairs are composed, yet the structure constants and the
        # adjoints are those of composing every pair over every row
        systems = [imprimitivity_instance(seed)[2] for seed in range(12)]
        systems += [stabilization_instance(seed) for seed in range(25)]
        algebras = [alg for sys in systems for alg in (sys.algebra, crossed_product(sys))]
        algebras += [twisted_group_algebra(G, trivial_cocycle(G)) for G, _ in corpus_with_h2()]
        for A in algebras:
            # in an accepted family a product covers at most one basis matrix, so the
            # structure constants hold one entry per composable pair
            assert (np.diff(A.structure[0]) > 0).all(), A.label
            structure, adjoints = all_pairs_closure(A.col, A.num, A.q)
            assert all(np.array_equal(a, b) for a, b in zip(A.structure, structure)), A.label
            assert all(np.array_equal(a, b) for a, b in zip(A.adjoints, adjoints)), A.label

    @pytest.mark.parametrize(
        "entries,D",
        [
            # closed under adjoint, but E02 E20 = E00 covers half of supp(E00 + E11):
            # the row sets {0, 1} and {0} overlap
            ([[(0, 0), (1, 1)], [(0, 2)], [(2, 0)]], 3),
            # X = E20 + E31 has the column set {0, 1}, across the row sets {0} and {1}:
            # X E00 = E20 covers half of supp(X)
            ([[(0, 0)], [(1, 1)], [(2, 0), (3, 1)]], 4),
        ],
        ids=["row-sets-overlap", "column-set-straddles"],
    )
    def test_overlapping_sets_refused(self, entries, D):
        b = np.zeros((len(entries), D, D), dtype=complex)
        for m, positions in zip(b, entries):
            m[tuple(zip(*positions))] = 1
        rows = monomial_rows(b, 1)
        with pytest.raises(ValueError, match="outside the algebra span"):
            StarAlgebra(*rows)
        with pytest.raises(ValueError, match="outside the algebra span"):
            all_pairs_closure(*rows)

    def test_one_escaping_pair_found_in_large_family(self):
        # the matrix units of M_14 on the first 14 coordinates and X = E_{14,15} + E_{15,14}:
        # every product lies in the span except X X = E_{14,14} + E_{15,15}, one pair of
        # 197^2 = 38 809, and n^2 D^2 is about 9.9 M entries; 1024 random pairs would
        # miss it with probability (1 - 1/38809)^1024, about 0.97
        d, D = 14, 16
        units = matrix_algebra(d).basis
        b = np.zeros((d * d + 1, D, D), dtype=complex)
        b[: d * d, :d, :d] = units
        b[-1, 14, 15] = b[-1, 15, 14] = 1
        assert len(b) ** 2 * D * D > 4_000_000
        with pytest.raises(ValueError, match="outside the algebra span"):
            StarAlgebra(*monomial_rows(b, 1))
        # without X the family is closed, and it is accepted
        assert StarAlgebra(*monomial_rows(b[:-1], 1)).dim == d * d
        # a closed algebra of the same size is accepted
        assert matrix_algebra(13).dim == 13 * 13

    def test_dense_family_rejected(self):
        # 64 random Hermitian 32 x 32 sign matrices: closed under adjoint, but dense
        n, D = 64, 32
        rng = np.random.default_rng(7)
        m = np.triu(rng.choice([-1.0, 1.0], (n, D, D)))
        with pytest.raises(ValueError, match="not a disjoint monomial family"):
            StarAlgebra(*monomial_rows(m + np.triu(m, 1).transpose(0, 2, 1), 2))

    def test_monomial_family_rules(self):
        # two nonzeros in one row of one matrix
        b = np.zeros((1, 2, 2), dtype=complex)
        b[0, 0] = 1
        with pytest.raises(ValueError, match="row or column"):
            StarAlgebra(*monomial_rows(b, 1))
        # a zero matrix
        with pytest.raises(ValueError, match="linearly dependent"):
            StarAlgebra(*monomial_rows(np.stack([np.eye(2), np.zeros((2, 2))]), 1))

    def test_partial_and_skewed_products_rejected(self):
        # {E11, E22, X = E12 + E21}: X X = E11 + E22 meets two supports and lies in
        # the span, but X E11 = E21 covers only half of supp(X)
        b = np.zeros((3, 2, 2), dtype=complex)
        b[0, 0, 0] = b[1, 1, 1] = 1
        b[2, 0, 1] = b[2, 1, 0] = 1
        with pytest.raises(ValueError, match="outside the algebra span"):
            StarAlgebra(*monomial_rows(b, 1))
        # {Y = diag(1, i), X}: Y Y = diag(1, -1) covers supp(Y) with the wrong ratio
        b = np.zeros((2, 2, 2), dtype=complex)
        b[0] = np.diag([1.0, 1j])
        b[1, 0, 1] = b[1, 1, 0] = 1
        with pytest.raises(ValueError, match="outside the algebra span"):
            StarAlgebra(*monomial_rows(b, 4))

    def test_phase_below_float_tolerance_rejected(self):
        # {diag(1, e^(2 pi i / 2^40))}: its square is diag(1, e^(4 pi i / 2^40)), not a
        # multiple of it, though the two differ by about 6e-12 in every entry
        b = np.diag([1.0, np.exp(2j * np.pi / 2**40)])[None]
        with pytest.raises(ValueError, match="outside the algebra span"):
            StarAlgebra(*monomial_rows(b, 2**40))

    def test_coords_round_trip_and_escape(self):
        A = matrix_algebra(2)
        M = np.array([[1, 2j], [0, -1]], dtype=complex)
        assert np.abs(element(A, coords_batch(A, M[None])[0]) - M).max() < 1e-12
        diag = StarAlgebra(*monomial_rows(np.stack([np.diag([1.0 + 0j, 0]), np.diag([0, 1.0 + 0j])]), 1))
        with pytest.raises(ValueError):
            coords_batch(diag, np.array([[[0, 1], [0, 0]]], dtype=complex))

    def test_row_maps_match_dense_matrices(self):
        # two stacks of 12th roots of unity with empty rows: composition, adjoint and
        # equality agree with the dense ones
        rng = np.random.default_rng(11)
        mats = np.zeros((2, 3, 4, 4), dtype=complex)
        for m in mats.reshape(-1, 4, 4):
            rows = rng.permutation(4)[:3]
            m[rows, rng.permutation(4)[:3]] = np.exp(2j * np.pi * rng.integers(0, 12, 3) / 12)
        X, Y = RowMaps(*monomial_rows(mats[0], 12)), RowMaps(*monomial_rows(mats[1, :1], 12))
        dense = mats[0] @ mats[1, :1]
        assert RowMaps(*monomial_rows(dense, 12)).same(X @ Y).all()
        adj = mats[0].conj().transpose(0, 2, 1)
        assert RowMaps(*monomial_rows(adj, 12)).same(X.H).all()
        assert X.same(X.H.H).all() and not X.same(X @ Y).any()
        # over a multiple of q, with one item times e^(2 pi i / 24)
        bumped = mats[0].copy()
        bumped[1] *= np.exp(2j * np.pi / 24)
        X24 = RowMaps(*monomial_rows(mats[0], 24))
        assert X24.same(RowMaps(*monomial_rows(bumped, 24))).tolist() == [True, False, True]

    def test_elements_are_monomial_sums(self):
        A = matrix_algebra(2)
        unit = A.elements(A.unit, A.q)
        assert unit.col.tolist() == [0, 1] and unit.num.tolist() == [0, 0]
        with pytest.raises(ValueError, match="not monomial"):
            A.elements([0, 0, EMPTY, EMPTY], 1)  # E11 + E12 holds two entries in row 1

    def test_tensor_algebra(self):
        T = tensor_algebra(matrix_algebra(2), matrix_algebra(3))
        assert T.dim == 36 and T.rep_dim == 6
        assert block_profile(T).blocks == (6,)


class TestBlockProfile:
    def test_full_matrix_algebra(self):
        assert block_profile(matrix_algebra(3)).blocks == (3,)
        # C + M_2 in the corner of the 6 x 6 matrices: its unit is not the identity
        b = np.zeros((5, 6, 6), dtype=complex)
        b[0, 0, 0] = 1
        b[1:, 1:3, 1:3] = matrix_algebra(2).basis
        A = StarAlgebra(*monomial_rows(b, 1))
        assert A.unit is None and block_profile(A).blocks == (1, 2)

    def test_commutative_diagonal(self):
        basis = np.stack([np.diag([1.0 + 0j if i == j else 0 for j in range(4)]) for i in range(4)])
        A = StarAlgebra(*monomial_rows(basis, 1))
        assert block_profile(A).blocks == (1, 1, 1, 1)

    def test_group_algebras_match_degree_oracle(self):
        # every group of the oracle corpus, and a relabeled copy of each
        for G in [H for G, _ in corpus_with_h2() for H in (G, relabeled(G, 1))]:
            prof = block_profile(twisted_group_algebra(G, trivial_cocycle(G)))
            assert prof.blocks == character_degrees(G), G.name

    def test_seed_independence(self):
        A = twisted_group_algebra(quaternion8(), trivial_cocycle(quaternion8()))
        blocks = {block_profile(A, seed=s).blocks for s in range(5)}
        assert blocks == {(1, 1, 1, 1, 2)}

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            BlockProfile((2, 1), 5, 0)
        with pytest.raises(ValueError):
            BlockProfile((1, 2), 4, 0)
        assert BlockProfile((1, 2), 5, 3).to_json() == {"blocks": [1, 2], "dim": 5, "seed": 3}


class TestTwistedGroupAlgebra:
    def test_trace_is_exact_delta(self):
        G = symmetric(3)
        A = twisted_group_algebra(G, trivial_cocycle(G))
        assert A.trace_vector[0] == 1
        assert np.abs(A.trace_vector[1:]).max() == 0

    def test_klein_profiles(self):
        K = klein()
        assert block_profile(twisted_group_algebra(K, trivial_cocycle(K))).blocks == (1, 1, 1, 1)
        assert block_profile(twisted_group_algebra(K, klein_bicharacter())).blocks == (2,)

    def test_unnormalized_cocycle_is_normalized_first(self):
        # the bicharacter has omega(ab, ab) = 1/2; the algebra still comes
        # out unital with the exact delta trace
        A = twisted_group_algebra(klein(), klein_bicharacter())
        assert A.unit is not None
        assert A.trace_vector[0] == 1

    def test_profile_invariant_under_coboundaries(self):
        K = klein()
        om = klein_bicharacter()
        rng = np.random.default_rng(17)
        for _ in range(20):
            shifted = multiply(om, random_coboundary(K, rng))
            A = twisted_group_algebra(K, shifted)
            assert block_profile(A).blocks == (2,)
            assert np.abs(A.trace_vector[1:]).max() <= 1e-10

    def test_group_mismatch(self):
        with pytest.raises(ValueError):
            twisted_group_algebra(cyclic(4), trivial_cocycle(cyclic(3)))

    def test_structure_is_the_normalized_cocycle(self):
        # u_g u_h = omega(g, h) u_gh: one structure entry per pair (g, h), at key
        # g * m + h, on u_gh with the coefficient omega(g, h) of the normalized
        # cocycle; untwisted, under a random coboundary, and for a cocycle of every
        # class of H2 up to order 8 (an order-16 splitting takes 2 s)
        rng = np.random.default_rng(41)
        for G, h2 in corpus_with_h2():
            cases = [trivial_cocycle(G), random_coboundary(G, rng)]
            if h2 and G.order <= 8:
                split = make_splitting(build_chain(G))
                for chi in characters_for_factors(h2):
                    cases.append(multiply(cocycle_of_character(split, chi), random_coboundary(G, rng)))
            for omega in cases:
                A, (norm, _) = twisted_group_algebra(G, omega), normalize(omega)
                want = (np.arange(G.order**2), G.table.ravel(), norm.num.ravel())
                assert A.q == norm.q, G.name
                assert all(np.array_equal(got, w) for got, w in zip(A.structure, want)), G.name

    def test_block_count_is_omega_regular_class_count(self):
        # Conlon: C[G, omega] has one simple block per omega-regular class
        cases = [(klein(), klein_bicharacter())]
        for G in (dihedral(4), quaternion8()):
            N = center(G)
            _, chars, q = subgroup_characters(N)
            cases += [(sig.group, sig) for sig in (sigma_chi(G, N, chi, q) for chi in chars)]
        counts = []
        for G, omega in cases:
            expected = omega_regular_class_count(G.table, omega.angles)
            assert len(block_profile(twisted_group_algebra(G, omega)).blocks) == expected, G.name
            counts.append(expected)
        assert counts == [1, 4, 1, 4, 1]

    def test_block_count_is_omega_regular_class_count_on_small_groups(self):
        # every small group under a random coboundary, and every sigma_chi cocycle
        # over its center, bare and under a random coboundary
        rng = np.random.default_rng(29)
        checked = 0
        for G in small_groups():
            N = center(G)
            cases = [random_coboundary(G, rng)]
            _, chars, q = subgroup_characters(N)
            for sig in (sigma_chi(G, N, chi, q) for chi in chars):
                cases += [sig, multiply(sig, random_coboundary(sig.group, rng))]
            for omega in cases:
                H = omega.group
                expected = omega_regular_class_count(H.table, omega.angles)
                assert len(block_profile(twisted_group_algebra(H, omega)).blocks) == expected, G.name
                checked += 1
        assert checked == 9 + 2 * sum(center(G).order for G in small_groups())

    def test_omega_regular_count_of_trivial_cocycle_is_class_count(self):
        for G in (symmetric(3), dihedral(4), quaternion8(), cyclic(6)):
            angles = trivial_cocycle(G).angles
            assert omega_regular_class_count(G.table, angles) == conjugacy_class_count(G), G.name


class TestTwistedSystem:
    def test_trivial_system_valid(self):
        sys = trivial_system(matrix_algebra(2), cyclic(3))
        assert sys.algebra.dim == 4

    def test_alpha_identity_enforced(self):
        A = matrix_algebra(2)
        C2 = cyclic(2)
        alpha = np.broadcast_to(np.eye(4, dtype=complex), (2, 4, 4)).copy()
        alpha[0] = -np.eye(4)
        omega = np.broadcast_to(unit_coords(A), (2, 2, 4)).copy()
        with pytest.raises(VerificationError):
            dense_system(A, C2, alpha, omega, 2)

    def test_omega_axes_enforced(self):
        A = scalar_algebra()
        C2 = cyclic(2)
        omega = np.ones((2, 2, 1), dtype=complex)
        omega[1, 0, 0] = -1
        with pytest.raises(VerificationError):
            dense_system(A, C2, np.ones((2, 1, 1)), omega, 2)

    def test_cocycle_axiom_enforced(self):
        # a non-cocycle scalar table fails the triple condition
        A = scalar_algebra()
        C2 = cyclic(2)
        omega = np.ones((2, 2, 1), dtype=complex)
        omega[1, 1, 0] = np.exp(2j * np.pi * 3 / 7)
        alpha = np.ones((2, 1, 1), dtype=complex)
        dense_system(A, C2, alpha, omega, 7)  # any value at (1,1) is consistent
        omega2 = omega.copy()
        omega2[1, 1, 0] = 0  # not unitary
        with pytest.raises(VerificationError):
            dense_system(A, C2, alpha, omega2, 7)

    def test_composition_axiom_failure_located(self):
        # alpha_s = Ad(diag(1, i^s)) on M2 over C3 with unit cocycle:
        # alpha_1 alpha_1 = alpha_2, but alpha_1 alpha_2 = Ad(diag(1, -i)) != alpha_0
        A, C3 = matrix_algebra(2), cyclic(3)
        alpha = np.array([np.diag([1, np.conj(u), u, 1]) for u in (1, 1j, -1)], dtype=complex)
        omega = np.broadcast_to(unit_coords(A), (3, 3, 4)).copy()
        with pytest.raises(VerificationError, match=r"composition axiom fails at \(1,2\)"):
            dense_system(A, C3, alpha, omega, 4)

    def test_target_must_permute_the_basis(self):
        A = matrix_algebra(2)
        target = np.array([[0, 1, 2, 3], [0, 0, 2, 3]])
        omega = np.broadcast_to(A.unit, (2, 2, 4))
        with pytest.raises(ValueError, match="permutation"):
            TwistedSystem(A, cyclic(2), target, np.zeros((2, 4)), omega, 1)

    def test_negated_matrix_unit_is_not_an_automorphism(self):
        # alpha_1 = -1 on E_01 and the identity elsewhere squares to the identity and
        # fixes the unit, so only the automorphism property fails: E_01 E_10 = E_00,
        # but alpha_1(E_01) alpha_1(E_10) = -E_00; a check of 64 sampled pairs of the
        # 10 000 products missed it
        A = matrix_algebra(10)
        phase = np.zeros((2, 100))
        phase[1, 1] = 1  # -1 = e^(2 pi i 1/2)
        omega = np.broadcast_to(A.unit, (2, 2, 100))
        with pytest.raises(VerificationError, match=r"alpha\(1\) is not multiplicative"):
            TwistedSystem(A, cyclic(2), np.tile(np.arange(100), (2, 1)), phase, omega, 2)

    def test_phase_below_float_tolerance_is_not_an_automorphism(self):
        # alpha_1 = id except E_01 -> e^(2 pi i / 2^40) E_01 on M_2 over C2: every
        # axiom holds to within 1.2e-11, but alpha_1 alpha_1 moves E_01
        A = matrix_algebra(2)
        phase = np.zeros((2, 4))
        phase[1, 1] = 1
        omega = np.broadcast_to(A.unit, (2, 2, 4))
        with pytest.raises(VerificationError, match=r"composition axiom fails|is not multiplicative"):
            TwistedSystem(A, cyclic(2), np.tile(np.arange(4), (2, 1)), phase, omega, 2**40)

    def test_cocycle_axiom_failure_located(self):
        # unitary scalars on C3, unit on the axes, omega(1,1) = e^{2 pi i/5}: the
        # cocycle identity first fails at (r,s,t) = (1,1,2)
        omega = np.ones((3, 3, 1), dtype=complex)
        omega[1, 1, 0] = np.exp(2j * np.pi / 5)
        with pytest.raises(VerificationError, match=r"cocycle axiom fails at \(1,1,2\)"):
            dense_system(scalar_algebra(), cyclic(3), np.ones((3, 1, 1)), omega, 5)

    def test_scalar_system_from_cocycle(self):
        sys = scalar_system(klein(), klein_bicharacter())
        assert sys.algebra.dim == 1
        # normalization happened: omega(g, g^-1) = 1 on the diagonal pairs
        for g in range(4):
            assert sys.omega[g, g, 0] == 0


class TestCrossedProduct:
    def test_scalar_crossed_is_group_algebra(self):
        for G in [cyclic(3), klein(), symmetric(3)]:
            cp = crossed_product(scalar_system(G, trivial_cocycle(G)))
            assert cp.dim == G.order
            direct = twisted_group_algebra(G, trivial_cocycle(G))
            assert block_profile(cp).blocks == block_profile(direct).blocks

    def test_scalar_twisted_crossed(self):
        cp = crossed_product(scalar_system(klein(), klein_bicharacter()))
        assert block_profile(cp).blocks == (2,)

    def test_matrix_coefficients(self):
        cp = crossed_product(trivial_system(matrix_algebra(2), cyclic(2)))
        assert cp.dim == 8
        assert block_profile(cp).blocks == (2, 2)

    def test_dimension_always_product(self):
        rng = np.random.default_rng(5)
        for seed in range(4):
            sys = stabilization_instance(int(rng.integers(1 << 30)))
            cp = crossed_product(sys)
            assert cp.dim == sys.algebra.dim * sys.group.order

    def test_resource_cap(self):
        A = matrix_algebra(26)
        G = cyclic(7)
        sys = trivial_system(A, G)
        with pytest.raises(ResourceCapError):
            crossed_product(sys)

    def test_reassembly_matches_group_algebra(self):
        D4, Q8, S3 = dihedral(4), quaternion8(), symmetric(3)
        for G, N in [(D4, center(D4)), (Q8, center(Q8)), (S3, s3_alternating(S3))]:
            sysn = system_from_normal(G, N)
            left = block_profile(crossed_product(sysn))
            right = block_profile(twisted_group_algebra(G, trivial_cocycle(G)))
            assert left.blocks == right.blocks, G.name

    def test_reassembly_with_twist(self):
        K = klein()
        sysw = system_from_normal(K, Subgroup(K, (0, 1)), klein_bicharacter())
        assert block_profile(crossed_product(sysw)).blocks == (2,)

    def test_system_from_normal_rejects_nonnormal(self):
        S3 = symmetric(3)
        H = generated_subgroup(S3, [next(x for x in range(6) if S3.order_of(x) == 2)])
        with pytest.raises(InvalidGroupError):
            system_from_normal(S3, H)


class TestFibers:
    def test_cyclic4_fibers(self):
        C4 = cyclic(4)
        fibs = fiber_decomposition(C4, Subgroup(C4, (0, 2)))
        assert [block_profile(a).blocks for _, a in fibs] == [(1, 1), (1, 1)]

    def test_q8_fibers(self):
        Q8 = quaternion8()
        fibs = fiber_decomposition(Q8, center(Q8))
        profiles = [block_profile(a).blocks for _, a in fibs]
        assert profiles == [(1, 1, 1, 1), (2,)]
        assert sum(a.dim for _, a in fibs) == 8

    def test_d4_fibers(self):
        D4 = dihedral(4)
        fibs = fiber_decomposition(D4, center(D4))
        assert sorted(block_profile(a).blocks for _, a in fibs) == [(1, 1, 1, 1), (2,)]

    def test_noncentral_rejected(self):
        S3 = symmetric(3)
        with pytest.raises(InvalidGroupError):
            cutdown_fiber(S3, s3_alternating(S3), [0, 1, 2], 3)


class TestImprimitivity:
    def test_point_stabilizer_regular(self):
        C2 = cyclic(2)
        He = Subgroup(C2, (0,))
        Hgrp, _ = subgroup_as_group(He)
        sys = scalar_system(Hgrp, trivial_cocycle(Hgrp))
        report = verify_imprimitivity(sys.algebra, He, sys)
        assert report["ambient_profile"] == [2] and report["index"] == 2

    def test_subgroup_algebra_in_klein(self):
        K = klein()
        H = Subgroup(K, (0, 1))
        Hgrp, _ = subgroup_as_group(H)
        sys = trivial_system(twisted_group_algebra(Hgrp, trivial_cocycle(Hgrp)), Hgrp)
        report = verify_imprimitivity(sys.algebra, H, sys)
        assert report["index"] == 2
        assert report["ambient_profile"] == [2 * d for d in report["compressed_profile"]]

    def test_randomized_instances(self):
        for seed in range(12):
            B, H, sys = imprimitivity_instance(seed)
            report = verify_imprimitivity(B, H, sys, seed=seed)
            assert report["matches"]

    def test_wrong_algebra_rejected(self):
        C2 = cyclic(2)
        He = Subgroup(C2, (0,))
        Hgrp, _ = subgroup_as_group(He)
        sys = scalar_system(Hgrp, trivial_cocycle(Hgrp))
        with pytest.raises(ValueError):
            verify_imprimitivity(matrix_algebra(2), He, sys)

    def test_s4_induced_crossed_product_memory(self):
        # the ambient crossed product has dimension 288 on 288 x 288 matrices; a
        # dense basis of it alone would be 288^3 complex entries, 382 MB
        S4 = symmetric(4)
        H = generated_subgroup(S4, [1])
        Hgrp, _ = subgroup_as_group(H)
        sys = scalar_system(Hgrp, trivial_cocycle(Hgrp))
        tracemalloc.start()
        try:
            report = verify_imprimitivity(sys.algebra, H, sys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report["ambient_dim"] == 288 and report["ambient_profile"] == [12, 12]
        assert peak < 64 * 2**20, f"verify_imprimitivity peaked at {peak / 2**20:.1f} MB"


class TestStabilization:
    def test_trivial_cocycle(self):
        report = verify_stabilization(scalar_system(cyclic(2), trivial_cocycle(cyclic(2))))
        assert report["matches"] and report["sigma_deviation"] <= 1e-8

    def test_klein_twist_absorbed(self):
        report = verify_stabilization(scalar_system(klein(), klein_bicharacter()))
        assert report["tensored_profile"] == [8]
        assert report["stabilized_profile"] == [8]

    def test_q8_center_system(self):
        Q8 = quaternion8()
        report = verify_stabilization(system_from_normal(Q8, center(Q8)))
        assert report["matches"]
        assert report["tensored_profile"] == [4 * d for d in report["twisted_profile"]]

    def test_randomized_instances(self):
        for seed in range(8):
            report = verify_stabilization(stabilization_instance(seed), seed=seed)
            assert report["matches"]

    def test_sigma_deviation_of_a_coboundary_system(self):
        # the cocycle blocks are composed on row maps with numpy's complex products,
        # so these bits no longer depend on the BLAS kernel (OpenBLAS zgemm over the
        # dense unitaries gave 4.440892098500626e-16)
        S3 = dihedral(3)
        system = scalar_system(S3, random_coboundary(S3, np.random.default_rng(1000)))
        assert verify_stabilization(system)["sigma_deviation"] == 3.133961632045815e-16
        # the printed float of more seeded coboundaries, k = 0..4 at rng 1000 + k, and of
        # a stabilization instance; the exact check gates, these bytes are only reported
        pinned = {
            dihedral(3): [3.133961632045815e-16, 3.133961632045815e-16, 1.4204933782440196e-15,
                          1.2658190266173699e-15, 0.0],
            quaternion8(): [1.301020006216384e-15, 9.604815623288835e-16, 1.012615697833277e-15,
                            1.012615697833277e-15, 1.3043173346061736e-15],
            cyclic(6): [1.1147904092094691e-15, 7.184642754392391e-16, 2.234955066484652e-16,
                        3.133961632045815e-16, 6.57754620894826e-16],
        }
        for G, want in pinned.items():
            got = [
                verify_stabilization(scalar_system(G, random_coboundary(G, np.random.default_rng(1000 + k))))[
                    "sigma_deviation"
                ]
                for k in range(5)
            ]
            assert got == want, G.name
        assert verify_stabilization(stabilization_instance(14))["sigma_deviation"] == 3.8188436008635927e-16
