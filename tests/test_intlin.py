"""Exact integer linear algebra: hand values, algebraic properties, and
the dtype of the results."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import smith_diagonal

from twistkit import intlin


def _diagonal(M) -> list[int]:
    """The diagonal of the Smith form of M."""
    D, _, _ = intlin.smith_normal_form(M)
    return [int(D[i, i]) for i in range(min(D.shape))]


def _kernel(M) -> np.ndarray:
    """The kernel basis column_hnf gives: the columns of V past the rank."""
    _, V, _, pivots = intlin.column_hnf(M)
    return V[:, len(pivots) :]


def _check_snf(M):
    A = intlin.as_int_matrix(M)
    D, U, V = intlin.smith_normal_form(A)
    Ao = A.astype(object)
    assert np.array_equal(U.astype(object) @ Ao @ V.astype(object), D.astype(object))
    n = min(A.shape)
    diag = [int(D[i, i]) for i in range(n)]
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        if b != 0:
            assert a != 0 and b % a == 0
        else:
            pass  # zeros may only trail
    # off-diagonal must vanish
    for i in range(D.shape[0]):
        for j in range(D.shape[1]):
            if i != j:
                assert int(D[i, j]) == 0
    # U, V unimodular
    assert smith_diagonal(U) == [1] * U.shape[0]
    assert smith_diagonal(V) == [1] * V.shape[0]
    # the same invariant factors as the independent Euclidean diagonalization
    nonzero = [d for d in diag if d]
    assert intlin.invariants_from_orders(nonzero) == intlin.invariants_from_orders(smith_diagonal(A))
    # the cokernel form is the same reduction, with U's exact inverse
    D2, U2, Uinv = intlin.smith_cokernel(A)
    assert np.array_equal(D2, D) and np.array_equal(U2, U)
    assert np.array_equal(U.astype(object) @ Uinv, np.eye(U.shape[0], dtype=object))
    return diag


def _check_hnf(M):
    A = intlin.as_int_matrix(M)
    H, V, Vinv, pivots = intlin.column_hnf(A)
    assert np.array_equal(A.astype(object) @ V.astype(object), H.astype(object))
    assert np.array_equal(V @ Vinv, np.eye(V.shape[0], dtype=object))
    k = len(pivots)
    assert np.array_equal(intlin.hermite_basis(A), H[:, :k])
    # Vinv = [T; Y]: A in the basis H[:, :k], and kernel coordinates
    assert np.array_equal(H[:, :k] @ Vinv[:k], A.astype(object))
    assert np.array_equal(Vinv[k:] @ V[:, k:], np.eye(V.shape[0] - k, dtype=object))
    prev = -1
    for i in range(k):
        p = int(pivots[i])
        assert p > prev
        prev = p
        piv = int(H[p, i])
        assert piv > 0
        for j in range(i):
            assert 0 <= int(H[p, j]) < piv
        # nothing above a pivot in its column
        for q in range(p):
            assert int(H[q, i]) == 0
    assert not np.any(H[:, k:])
    return H, V, pivots


matrices = st.integers(1, 6).flatmap(
    lambda r: st.integers(1, 6).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-30, 30), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)


class TestSmithForm:
    def test_diag_2_3(self):
        D, U, V = intlin.smith_normal_form([[2, 0], [0, 3]])
        assert [int(D[0, 0]), int(D[1, 1])] == [1, 6]

    def test_diag_2_2_stays(self):
        assert _diagonal([[2, 0], [0, 2]]) == [2, 2]

    def test_zero_matrix(self):
        D, U, V = intlin.smith_normal_form(np.zeros((3, 2), dtype=np.int64))
        assert not np.any(D)
        assert np.array_equal(U, np.eye(3, dtype=np.int64))
        assert np.array_equal(V, np.eye(2, dtype=np.int64))

    def test_empty(self):
        D, U, V = intlin.smith_normal_form(np.zeros((0, 4), dtype=np.int64))
        assert D.shape == (0, 4)
        assert V.shape == (4, 4)

    def test_single_entry(self):
        assert _diagonal([[-6]]) == [6]

    def test_rectangular_hand_value(self):
        # rank 2, gcd 1, second factor = gcd of 2x2 minors
        diag = _check_snf([[2, 4, 4], [-6, 6, 12]])
        assert diag == [2, 6]

    @settings(max_examples=150, deadline=None)
    @given(matrices)
    def test_snf_properties(self, rows):
        _check_snf(np.array(rows, dtype=np.int64))

    def test_big_entries_exact(self):
        M = np.array([[10**30, 3], [7, 10**20]], dtype=object)
        diag = _check_snf(M)
        det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
        assert diag[0] * diag[1] == abs(int(det))
        assert diag[0] == 1

    def test_near_cap_falls_back_exactly(self):
        big = (1 << 31) - 1
        M = np.array([[big, big - 1], [big - 2, big - 3]], dtype=np.int64)
        diag = _check_snf(M)
        det = int(M[0, 0]) * int(M[1, 1]) - int(M[0, 1]) * int(M[1, 0])
        assert diag[0] * diag[1] == abs(det)


def _valuation(d: int, p: int) -> int:
    v = 0
    while d % p == 0:
        d //= p
        v += 1
    return v


class TestLocalSmith:
    def test_hand_values(self):
        # Smith diagonal (1, 6): one unit, one entry of valuation 1 at 2 and 3
        assert intlin.local_smith_valuations([[2, 0], [0, 3]], 2, 3) == [0, 1]
        assert intlin.local_smith_valuations([[2, 0], [0, 3]], 3, 1) == [0]
        assert intlin.local_smith_valuations([[4, 0], [0, 8]], 2, 3) == [2]
        assert intlin.local_smith_valuations([[5, 10], [15, 20]], 7, 2) == [0, 0]

    def test_empty_and_zero(self):
        assert intlin.local_smith_valuations(np.zeros((0, 3), dtype=np.int64), 2, 2) == []
        assert intlin.local_smith_valuations(np.zeros((4, 0), dtype=np.int64), 2, 2) == []
        assert intlin.local_smith_valuations(np.zeros((3, 3), dtype=np.int64), 3, 4) == []

    def test_object_input(self):
        # Smith diagonal (2^5, 3 * 10^30); entries beyond int64 are reduced first
        M = np.array([[10**30, 0], [0, 96]], dtype=object)
        assert intlin.local_smith_valuations(M, 2, 20) == [5]
        assert intlin.local_smith_valuations(M, 3, 10) == [0, 1]
        assert intlin.local_smith_valuations(M, 5, 8) == [0]

    def test_rejects_bad_modulus(self):
        for p, k in ((4, 2), (1, 1), (0, 3), (2, 0), (2, 32), (3, 21)):
            with pytest.raises(ValueError):
                intlin.local_smith_valuations([[1]], p, k)
        assert intlin.local_smith_valuations([[2]], 2, 31) == [1]

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 7),
        st.integers(0, 7),
        st.sampled_from([2, 3, 5]),
        st.integers(1, 4),
        st.integers(0, 2**32),
    )
    def test_matches_smith_diagonal(self, r, c, p, k, seed):
        rng = np.random.default_rng(seed)
        # entries rich in powers of p, with whole rows and columns zeroed
        A = rng.integers(-4, 5, size=(r, c)) * p ** rng.integers(0, 3, size=(r, c))
        A[rng.random(r) < 0.2, :] = 0
        A[:, rng.random(c) < 0.2] = 0
        diag = [d for d in _diagonal(A) if d != 0]
        want = sorted(v for v in (_valuation(d, p) for d in diag) if v < k)
        assert intlin.local_smith_valuations(A, p, k) == want


class TestHermiteForm:
    def test_kernel_of_difference(self):
        K = _kernel([[1, -1]])
        assert K.shape == (2, 1)
        assert int(K[0, 0]) == int(K[1, 0]) != 0

    def test_kernel_of_identity_empty(self):
        assert _kernel(np.eye(3, dtype=np.int64)).shape == (3, 0)

    def test_kernel_annihilates(self):
        M = np.array([[2, 4, 6], [1, 2, 3]], dtype=np.int64)
        K = _kernel(M)
        assert K.shape[1] == 2
        assert not np.any(M @ K)

    @settings(max_examples=150, deadline=None)
    @given(matrices)
    def test_hnf_properties(self, rows):
        M = np.array(rows, dtype=np.int64)
        H, V, pivots = _check_hnf(M)
        K = _kernel(M)
        assert not np.any(M.astype(object) @ K.astype(object))
        # kernel rank complements the column rank
        rank = sum(1 for d in _diagonal(M) if d != 0)
        assert K.shape[1] == M.shape[1] - rank


class TestExactMatmul:
    def test_small_entries_int64(self):
        A = np.array([[1, -2], [3, 4]], dtype=np.int64)
        C = intlin.exact_matmul(A, A)
        assert C.dtype == np.int64
        assert np.array_equal(C, A.astype(object) @ A.astype(object))

    def test_object_input_object_result(self):
        A = np.array([[1, 2], [0, 1]], dtype=object)
        C = intlin.exact_matmul(A, np.eye(2, dtype=np.int64))
        assert C.dtype == object and np.array_equal(C, A)

    def test_past_int64_falls_back(self):
        A = np.array([[2**40, 2**40]], dtype=np.int64)
        C = intlin.exact_matmul(A, A.T)
        assert C.dtype == object and C[0, 0] == 2**81
        big = np.array([[10**30]], dtype=object)
        assert intlin.exact_matmul(big, big)[0, 0] == 10**60


class TestUnimodularInverse:
    def test_round_trip(self):
        # the Hermite form of a unimodular U is I, so V = U^-1 and Vinv = U
        U = np.array([[1, 2], [0, 1]], dtype=np.int64)
        H, V, Vinv, _ = intlin.column_hnf(U)
        assert np.array_equal(H, np.eye(2, dtype=object))
        assert np.array_equal(U.astype(object) @ V, np.eye(2, dtype=object))
        assert np.array_equal(Vinv, U)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 5), st.integers(0, 2**32))
    def test_random_unimodular(self, n, seed):
        # build one from elementary operations; the reduction inverts it back
        rng = np.random.default_rng(seed)
        U = np.eye(n, dtype=np.int64)
        for _ in range(3 * n):
            i, j = rng.integers(0, n, size=2)
            if i != j:
                U[i, :] += int(rng.integers(-3, 4)) * U[j, :]
        _, V, Vinv, _ = intlin.column_hnf(U)
        assert np.array_equal(U.astype(object) @ V, np.eye(n, dtype=object))
        assert np.array_equal(Vinv, U)


class TestAbelianInvariants:
    def test_chain_validation(self):
        with pytest.raises(ValueError):
            intlin.AbelianInvariants((4, 2))
        with pytest.raises(ValueError):
            intlin.AbelianInvariants((1,))
        with pytest.raises(ValueError):
            intlin.AbelianInvariants((), -1)

    def test_order_and_str(self):
        g = intlin.AbelianInvariants((2, 6), 1)
        assert g.order() is None
        assert str(g) == "Z/2 + Z/6 + Z"
        assert intlin.AbelianInvariants((2, 6)).order() == 12
        assert str(intlin.AbelianInvariants()) == "0"
        assert intlin.AbelianInvariants().order() == 1

    def test_from_orders_normalizes(self):
        assert intlin.invariants_from_orders([2, 3]).torsion == (6,)
        assert intlin.invariants_from_orders([2, 2]).torsion == (2, 2)
        assert intlin.invariants_from_orders([4, 6]).torsion == (2, 12)
        assert intlin.invariants_from_orders([1, 1]).is_trivial

    def test_cokernel(self):
        def coker(M):
            # Z^rows / column-span(M), read off the diagonal of smith_cokernel
            D, _, _ = intlin.smith_cokernel(M)
            nonzero = [int(D[i, i]) for i in range(min(D.shape)) if D[i, i] != 0]
            return intlin.invariants_from_orders(nonzero, np.asarray(M).shape[0] - len(nonzero))

        assert coker([[2]]) == intlin.AbelianInvariants((2,))
        assert coker([[1]]).is_trivial
        assert coker(np.zeros((2, 1), dtype=np.int64)) == intlin.AbelianInvariants((), 2)
        assert coker([[2, 0], [0, 3], [0, 0]]) == intlin.AbelianInvariants((6,), 1)

    def test_direct_sum(self):
        a = intlin.AbelianInvariants((2,), 1)
        b = intlin.AbelianInvariants((3,))
        summed = intlin.invariants_from_orders(a.torsion + b.torsion, a.free_rank + b.free_rank)
        assert summed == intlin.AbelianInvariants((6,), 1)

    def test_ext_hand_values(self):
        z6 = intlin.AbelianInvariants((6,))
        z4 = intlin.AbelianInvariants((4,))
        assert intlin.ext_group(z6, z4) == intlin.AbelianInvariants((2,))
        zz = intlin.AbelianInvariants((), 1)
        assert intlin.ext_group(zz, z6).is_trivial
        assert intlin.ext_group(z6, zz) == z6
        klein = intlin.AbelianInvariants((2, 2))
        z2 = intlin.AbelianInvariants((2,))
        assert intlin.ext_group(klein, z2) == klein

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(2, 12), max_size=3),
        st.lists(st.integers(2, 12), max_size=3),
        st.integers(0, 2),
    )
    def test_ext_additivity(self, ma, mb, free_b):
        A = intlin.invariants_from_orders(ma)
        B = intlin.invariants_from_orders(mb, free_b)
        total = intlin.ext_group(A, B)
        pieces = [
            intlin.ext_group(intlin.AbelianInvariants((m,)), B) for m in A.torsion
        ]
        summed = intlin.invariants_from_orders([d for p in pieces for d in p.torsion], sum(p.free_rank for p in pieces))
        assert total == summed if pieces else total.is_trivial


class TestBackends:
    def test_backend_identifier(self):
        assert intlin.backend_name() == "numpy-object"

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0), (2, 3)])
    def test_results_are_object_arrays(self, shape):
        M = np.arange(np.prod(shape), dtype=np.int64).reshape(shape)
        D, U, V = intlin.smith_normal_form(M)
        _, Uc, Uinv = intlin.smith_cokernel(M)
        H, W, Winv, pivots = intlin.column_hnf(M)
        outputs = {
            "D": D, "U": U, "V": V, "Uc": Uc, "Uinv": Uinv, "H": H, "W": W, "Winv": Winv,
            "basis": intlin.hermite_basis(M),
        }
        for name, out in outputs.items():
            assert out.dtype == object, f"{name} of a {shape} matrix has dtype {out.dtype}"
        assert pivots.dtype == np.int64


class TestCoercion:
    def test_float_integers_accepted(self):
        assert _diagonal(np.array([[2.0]])) == [2]

    def test_fractional_rejected(self):
        with pytest.raises(ValueError):
            intlin.as_int_matrix(np.array([[0.5]]))

    def test_wrong_ndim_rejected(self):
        with pytest.raises(ValueError):
            intlin.as_int_matrix(np.array([1, 2, 3]))
