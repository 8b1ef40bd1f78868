"""Exact bound formulas: dual-route evaluation and frozen values."""

import pytest
from hypothesis import given, strategies as st

from oracles import EXPECTED_F
from twistkit.bounds import (
    f_bound,
    f_closed_form,
    hw_product_bound,
    nilpotent_input_bounds,
    twisted_bound,
    wreath_bound_finite_K,
)


class TestFBound:
    def test_frozen_values(self):
        for n, want in EXPECTED_F.items():
            assert f_bound(n) == want
            assert f_closed_form(n) == want

    def test_recursion_matches_closed_form_to_64(self):
        for n in range(65):
            assert f_bound(n) == f_closed_form(n)

    def test_recursion_relation_directly(self):
        for n in range(2, 21):
            assert f_bound(n) == 9**n * (n + 1) * (f_bound(n - 1) + 1) - 1

    def test_strictly_increasing(self):
        vals = [f_bound(n) for n in range(65)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_one_is_pinned_not_recursed(self):
        # the recursion evaluated blindly at n=1 would give 17
        assert f_bound(1) == 1
        assert 9 * 2 * (f_bound(0) + 1) - 1 == 17

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            f_bound(-1)
        with pytest.raises(ValueError):
            f_closed_form(-2)

    @given(st.integers(min_value=0, max_value=100))
    def test_dual_route_property(self, n):
        assert f_bound(n) == f_closed_form(n)


class TestProductBound:
    def test_nilpotent_instance_gives_26(self):
        a, l = nilpotent_input_bounds(1, 2)
        assert (a, l) == (3, 9)
        assert hw_product_bound(a, l, 0) == 26

    def test_chained_to_53(self):
        assert hw_product_bound(1, 2, 26) == 53
        assert hw_product_bound(2, 1, 26) == 53

    def test_trivial_space_factors(self):
        for d in range(10):
            assert hw_product_bound(1, 1, d) == d

    def test_recursion_instance(self):
        # with k = n = dimX and dstab = f(n-1), the three-factor product
        # reproduces the f recursion
        for n in range(2, 8):
            a, l = nilpotent_input_bounds(n, n)
            assert a * l == 9**n * (n + 1)
            assert hw_product_bound(a, l, f_bound(n - 1)) == f_bound(n)

    def test_nilpotent_inputs(self):
        assert nilpotent_input_bounds(0, 0) == (1, 1)
        assert nilpotent_input_bounds(2, 2) == (9, 27)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            hw_product_bound(-1, 1, 0)
        with pytest.raises(ValueError):
            nilpotent_input_bounds(1, -1)


class TestDerivedBounds:
    def test_twisted_examples(self):
        assert twisted_bound(1, 0) == 1
        assert twisted_bound(2, 0) == 485
        assert twisted_bound(1, 1) == 485

    @given(st.integers(0, 12), st.integers(0, 12))
    def test_twisted_is_f_of_sum(self, a, b):
        assert twisted_bound(a, b) == f_bound(a + b)

    def test_wreath_finite_fiber(self):
        assert wreath_bound_finite_K(0) == 2
        assert wreath_bound_finite_K(1) == 18
        assert wreath_bound_finite_K(2) == 162

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            twisted_bound(-1, 0)
        with pytest.raises(ValueError):
            wreath_bound_finite_K(-1)
